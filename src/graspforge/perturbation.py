"""Random-force stability testing under a quasi-static compliance model.

Each round samples a force uniformly from a cube and asks how far the held
object would move: directions resisted by contact normals respond with
spring compliance (displacement = K^+ F with K = sum k n n^T), unresisted
directions slide freely at a fixed gain.  The test fails on the first
displacement above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .contact import ContactPoint, detect_contacts
from .grasp_validation import ValidationConfig, validate_grasp
from .kinematics import JointState
from .scene import Scene, SceneObject

# m/N applied to force components no contact resists; 0.4 N of unresisted
# force is enough to cross the default 0.02 m displacement threshold.
FREE_SLIDE_GAIN = 0.05

# eigenvalues this far (relatively) below the largest are treated as null
_NULL_SPACE_RTOL = 1e-9


class PerturbConfigError(ValueError):
    """Raised for a non-integer seed or iteration count, or a non-positive count, bound, or threshold."""


@dataclass(frozen=True)
class PerturbConfig:
    iterations: int = 100
    force_bound: float = 1.0  # N per axis
    displacement_threshold: float = 0.02  # m
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PerturbConfigError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise PerturbConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.force_bound >= 0.0:  # zero = degenerate no-force probe, allowed
            raise PerturbConfigError("force_bound must be >= 0")
        if not self.displacement_threshold > 0.0:
            raise PerturbConfigError("displacement_threshold must be > 0")


@dataclass
class PerturbationReport:
    passed: bool
    iterations_run: int
    max_displacement: float
    samples: list[tuple[np.ndarray, float]] = field(default_factory=list)
    failure_iteration: Optional[int] = None
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "iterations_run": self.iterations_run,
            "max_displacement": float(self.max_displacement),
            "failure_iteration": self.failure_iteration,
            "seed": self.seed,
            "samples": [
                {"force": [float(v) for v in f], "displacement": float(d)}
                for f, d in self.samples
            ],
        }


def object_response(obj: SceneObject, contacts: list[ContactPoint], force) -> np.ndarray:
    """Quasi-static object displacement under an external force.

    K = sum_i k n_i n_i^T over the contact normals; the force component in
    K's range moves by the spring compliance, the null-space component
    slides at FREE_SLIDE_GAIN.
    """
    F = np.asarray(force, dtype=float).reshape(3)
    k = obj.params.contact_stiffness
    K = np.zeros((3, 3))
    for c in contacts:
        n = c.normal / np.linalg.norm(c.normal)
        K += k * np.outer(n, n)
    eigenvalues, eigenvectors = np.linalg.eigh(K)
    cutoff = eigenvalues[-1] * _NULL_SPACE_RTOL
    displacement = np.zeros(3)
    for lam, v in zip(eigenvalues, eigenvectors.T):
        component = float(v @ F)
        if lam > cutoff:
            displacement += (component / lam) * v
        else:
            displacement += FREE_SLIDE_GAIN * component * v
    return displacement


def perturb_contacts(obj: SceneObject, contacts: list[ContactPoint],
                     config: PerturbConfig | None = None,
                     validation: ValidationConfig | None = None) -> PerturbationReport:
    """Seeded perturbation rounds against an explicit contact set.

    Precheck: the contacts must validate as a stable grasp before any force
    is applied; otherwise the report fails with zero rounds run.  Early exit
    on the first displacement above the threshold.  Deterministic for a
    given seed.
    """
    cfg = config or PerturbConfig()
    assessment = validate_grasp(contacts, validation)
    if not assessment.stable:
        return PerturbationReport(passed=False, iterations_run=0,
                                  max_displacement=0.0, samples=[],
                                  failure_iteration=None, seed=cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    samples: list[tuple[np.ndarray, float]] = []
    max_displacement = 0.0
    for i in range(1, cfg.iterations + 1):
        F = rng.uniform(-cfg.force_bound, cfg.force_bound, size=3)
        d = float(np.linalg.norm(object_response(obj, contacts, F)))
        samples.append((F, d))
        max_displacement = max(max_displacement, d)
        if d > cfg.displacement_threshold:
            return PerturbationReport(passed=False, iterations_run=i,
                                      max_displacement=max_displacement,
                                      samples=samples, failure_iteration=i,
                                      seed=cfg.seed)
    return PerturbationReport(passed=True, iterations_run=cfg.iterations,
                              max_displacement=max_displacement,
                              samples=samples, failure_iteration=None,
                              seed=cfg.seed)


def perturbation_test(scene: Scene, state: JointState,
                      config: PerturbConfig | None = None,
                      validation: ValidationConfig | None = None) -> PerturbationReport:
    """Detect the current contacts and run the perturbation rounds on them."""
    return perturb_contacts(scene.object, detect_contacts(scene, state),
                            config, validation)


def write_samples_csv(report: PerturbationReport, fh) -> None:
    """Per-sample force/displacement table: iteration, fx, fy, fz, displacement."""
    fh.write("iteration,fx,fy,fz,displacement\n")
    for i, (f, d) in enumerate(report.samples, start=1):
        fx, fy, fz = (float(v) for v in f)
        fh.write(f"{i},{fx!r},{fy!r},{fz!r},{d!r}\n")
