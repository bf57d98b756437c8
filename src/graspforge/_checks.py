"""The number rule for configuration values, and the error they raise.

An `int` field takes an int, a `float` field a finite real number, and a
bool is neither, although Python counts it as an int.
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
