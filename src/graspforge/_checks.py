"""The number rule for configuration values and contact files, the error
they raise, and the JSON form of result records.

An `int` field takes an int, a `float` field a finite real number, and a
bool is neither, although Python counts it as an int.  A vector is a list
of three finite real numbers; a quoted number is a string, not a number,
and a nested list is not a vector.  The scenario loader and `graspforge
validate` read vectors through `require_vec3`.  `check_numbers` and
`_Record` read a dataclass's field annotations, which are strings under
`from __future__ import annotations`.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import fields


class ConfigError(ValueError):
    """Malformed scenario file, unknown key, or invalid parameter value."""


def is_finite_number(value) -> bool:
    """A finite real number that is not a bool, and no larger than a float
    holds: an int past the largest float would overflow on conversion."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max)


def require_vec3(value, where: str) -> tuple:
    """`value`, a list or tuple of three finite numbers, as a tuple of
    floats; otherwise a ConfigError naming `where`."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where}: expected a 3-element list, got {value!r}")
    if not all(map(is_finite_number, value)):
        raise ConfigError(f"{where}: entries must be finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


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
