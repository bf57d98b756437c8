"""Force-closure grasp validation: count, spread, and normal-balance checks.

Contacts below `min_contact_force` are not established and are ignored;
checks run on the rest in a fixed order and the first failure names the
verdict: too few contacts -> spread exceeded -> closure exceeded.
`_assess_rows` judges every row of a stacked contact set at once, and
`validate_grasp` is its one-row call.  Sums add a row's contacts in order
from +0.0 and norms are self-product square roots, so every field keeps the
bits of the per-contact loop in `tests/reference.py`.  Each check fails on
NaN (`~(value <= threshold)`), so a set with a zero normal or a NaN position
never validates.

A set from `detect_contacts` is judged once per `ValidationConfig`: the
verdict is kept on the set, which cannot change, and returned again to every
later caller, such as the perturbation precheck.  Any other sequence, which
may change between calls, is judged afresh on every call.  A verdict is
shared, so its `center` is read-only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, check_numbers
from .contact import ContactPoint, _ContactSet, _contact_arrays, _norms

FAILURE_NONE = "none"
FAILURE_TOO_FEW = "too_few_contacts"
FAILURE_SPREAD = "spread_exceeded"
FAILURE_CLOSURE = "closure_exceeded"

# a row's failure code indexes this tuple, in the order the checks run
_REASONS = (FAILURE_NONE, FAILURE_TOO_FEW, FAILURE_SPREAD, FAILURE_CLOSURE)


@dataclass(frozen=True)
class ValidationConfig:
    min_contacts: int = 4
    distribution_threshold: float = 0.1  # m; max contact distance from center
    force_closure_threshold: float = 0.5  # bound on the norm of summed unit normals
    min_contact_force: float = 0.5  # N; weaker contacts are not established

    def __post_init__(self):
        check_numbers(self)
        if self.min_contacts < 1:
            raise ConfigError(f"min_contacts must be >= 1, got {self.min_contacts}")
        for name in ("distribution_threshold", "force_closure_threshold", "min_contact_force"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")


@dataclass(frozen=True)
class GraspAssessment:
    stable: bool
    contact_count: int
    center: np.ndarray
    max_distance: float
    closure_residual: float
    failure_reason: str

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)  # a view of its own
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    def to_dict(self) -> dict:
        return dict(vars(self), center=[float(v) for v in self.center],
                    max_distance=float(self.max_distance),
                    closure_residual=float(self.closure_residual))


def _assess_rows(rows: np.ndarray, positions: np.ndarray, normals: np.ndarray,
                 forces: np.ndarray, count: int, config: ValidationConfig):
    """The verdicts of `count` rows from each contact's row, position, normal
    and normal force: the established mask (M,) and per row the established
    count, center, spread (largest distance from the center), closure
    residual (norm of the summed unit normals) and code, an index into _REASONS."""
    held = forces >= config.min_contact_force
    # the contacts that are not established go to an extra row, dropped at the end
    rows = np.where(held, rows, count)
    counts = np.bincount(rows, minlength=count + 1)
    sums = np.zeros((2, count + 1, 3))
    np.add.at(sums[0], rows, positions)
    # defensive re-normalization: closure is defined over unit normals
    np.add.at(sums[1], rows, normals / _norms(normals)[:, None])
    centers = sums[0] / np.maximum(counts, 1)[:, None]
    spreads = np.zeros(count + 1)
    np.maximum.at(spreads, rows, _norms(positions - centers.take(rows, axis=0)))
    closures = _norms(sums[1])
    # each check overrides the ones after it, so the first failure names the
    # row; a NaN closure or spread fails its check
    reasons = 3 * ~(closures <= config.force_closure_threshold)
    reasons[~(spreads <= config.distribution_threshold)] = 2
    reasons[counts < config.min_contacts] = 1
    return held, counts[:-1], centers[:-1], spreads[:-1], closures[:-1], reasons[:-1]


def _assessment(verdicts: tuple, row: int) -> GraspAssessment:
    """The `GraspAssessment` of one row of `_assess_rows`' verdicts."""
    _, counts, centers, spreads, closures, reasons = verdicts
    reason = _REASONS[reasons[row]]
    return GraspAssessment(reason == FAILURE_NONE, int(counts[row]), centers[row],
                           float(spreads[row]), float(closures[row]), reason)


def validate_grasp(contacts: Sequence[ContactPoint],
                   config: ValidationConfig | None = None) -> GraspAssessment:
    """The verdict of one contact set: the one-row call of `_assess_rows`.

    A set from `detect_contacts` returns the verdict it already holds for an
    equal config; any other sequence is judged afresh."""
    config = config or ValidationConfig()
    verdicts = contacts.verdicts if isinstance(contacts, _ContactSet) else {}
    if config not in verdicts:
        positions, normals, forces = _contact_arrays(contacts)
        verdicts[config] = _assessment(_assess_rows(
            np.zeros(len(contacts), dtype=np.intp), positions, normals, forces, 1, config), 0)
    return verdicts[config]
