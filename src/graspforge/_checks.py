"""The number rule for configuration values, the error they raise, and the
JSON form of result records.

An `int` field takes an int, a `float` field a finite real number, and a
bool is neither, although Python counts it as an int.  Both rules read a
dataclass's field annotations, which are strings under `from __future__
import annotations`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import fields


class ConfigError(ValueError):
    """Malformed scenario file, unknown key, or invalid parameter value."""


def is_finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def check_numbers(config, error: type[ValueError] = ConfigError) -> None:
    """Check every field of the dataclass instance `config`, each annotated
    `int` or `float`, against the number rule; raise `error` naming the first
    field that breaks it."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise error(f"{f.name} must be an integer, got {value!r}")
        elif not is_finite_number(value):
            raise error(f"{f.name} must be a finite number, got {value!r}")


def _floats(values) -> list:
    return [float(v) for v in values]


# how `_Record.to_dict` writes a field, by its annotation; any other is kept
_JSON_FORMS = {"float": float, "np.ndarray": _floats, "tuple": _floats}


class _Record:
    """Base of the result dataclasses: `to_dict` is the JSON form, the fields
    in declaration order, a `float` field as `float(value)`, an `np.ndarray`
    or `tuple` field as a list of floats and any other field as it is."""

    def to_dict(self) -> dict:
        return {f.name: _JSON_FORMS.get(f.type, lambda v: v)(getattr(self, f.name))
                for f in fields(self)}
