"""Force-closure grasp validation: count, spread, and normal-balance checks.

Checks run in a fixed order and the first failure names the verdict:
too few contacts -> spread exceeded -> closure exceeded.  Contacts whose
normal force is below the minimum are ignored entirely (not established,
see `is_established`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, check_numbers
from .contact import ContactPoint

FAILURE_NONE = "none"
FAILURE_TOO_FEW = "too_few_contacts"
FAILURE_SPREAD = "spread_exceeded"
FAILURE_CLOSURE = "closure_exceeded"


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
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))

    def to_dict(self) -> dict:
        return {
            "stable": self.stable,
            "contact_count": self.contact_count,
            "center": [float(v) for v in self.center],
            "max_distance": float(self.max_distance),
            "closure_residual": float(self.closure_residual),
            "failure_reason": self.failure_reason,
        }


def grasp_center(contacts: list[ContactPoint]) -> np.ndarray:
    """Arithmetic mean of contact positions."""
    if not contacts:
        raise ValueError("grasp_center requires at least one contact")
    return np.mean([c.position for c in contacts], axis=0)


def is_established(contact: ContactPoint, config: ValidationConfig) -> bool:
    """A contact at or above the minimum force: it counts toward the verdict,
    and the controller stops its finger's flexor."""
    return contact.normal_force >= config.min_contact_force


def validate_grasp(contacts: list[ContactPoint],
                   config: ValidationConfig | None = None) -> GraspAssessment:
    cfg = config or ValidationConfig()
    held = [c for c in contacts if is_established(c, cfg)]

    if held:
        center = grasp_center(held)
        max_distance = max(float(np.linalg.norm(c.position - center)) for c in held)
        # defensive re-normalization: closure is defined over unit normals
        normals = [c.normal / np.linalg.norm(c.normal) for c in held]
        closure_residual = float(np.linalg.norm(np.sum(normals, axis=0)))
    else:
        center = np.zeros(3)
        max_distance = 0.0
        closure_residual = 0.0

    if len(held) < cfg.min_contacts:
        reason = FAILURE_TOO_FEW
    elif max_distance > cfg.distribution_threshold:
        reason = FAILURE_SPREAD
    elif closure_residual > cfg.force_closure_threshold:
        reason = FAILURE_CLOSURE
    else:
        reason = FAILURE_NONE

    return GraspAssessment(
        stable=reason == FAILURE_NONE,
        contact_count=len(held),
        center=center,
        max_distance=max_distance,
        closure_residual=closure_residual,
        failure_reason=reason,
    )
