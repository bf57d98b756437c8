"""Random-force stability testing under a quasi-static compliance model.

Each round samples a force uniformly from a cube and asks how far the held
object would move: directions resisted by contact normals respond with
spring compliance (displacement = K^+ F with K = sum k n n^T), unresisted
directions slide freely at a fixed gain.  The test fails on the first
displacement above the threshold.  The precheck asks `validate_grasp`,
which returns the verdict a detected set already holds, so a set that was
validated before the probe is not judged again, and K is built from the
set's own normals array.

The contacts, and so K, are fixed over the rounds, so all rounds run in one
stacked pass: one draw of shape (iterations, 3) gives every round's force
(the stream of one three-value draw per round), `_displacements` maps them
through K's eigenbasis at once, and the report is cut at the first round
over the threshold.  Each round's projection `(F[:, None, :] @ v[:, None])`
and self-product `(D[:, None, :] @ D[:, :, None])` is a 1-D dot product of
its own row, rounded as the one-round `v @ F` and `np.linalg.norm` are; the
2-D `F @ v` rounds some rows differently.  The displacement sum starts from
zeros and adds the free-slide term as `(FREE_SLIDE_GAIN * component) * v`,
so every sample keeps the bits of a per-round loop (`tests/reference.py`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._checks import ConfigError, _Record, check_numbers
from .contact import ContactPoint, _contact_arrays, _norms, detect_contacts
from .grasp_validation import ValidationConfig, validate_grasp
from .kinematics import JointState
from .scene import Scene, SceneObject

# m/N applied to force components no contact resists; 0.4 N of unresisted
# force is enough to cross the default 0.02 m displacement threshold.
FREE_SLIDE_GAIN = 0.05

# eigenvalues this far (relatively) below the largest are treated as null
_NULL_SPACE_RTOL = 1e-9


@dataclass(frozen=True)
class PerturbConfig:
    iterations: int = 100
    force_bound: float = 1.0  # N per axis
    displacement_threshold: float = 0.02  # m
    seed: int = 0

    def __post_init__(self):
        check_numbers(self)
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        # zero = degenerate no-force probe, allowed
        if self.force_bound < 0.0:
            raise ConfigError(f"force_bound must be >= 0, got {self.force_bound!r}")
        if not self.displacement_threshold > 0.0:
            raise ConfigError("displacement_threshold must be > 0")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")


@dataclass
class PerturbationReport(_Record):
    passed: bool
    iterations_run: int
    max_displacement: float
    failure_iteration: Optional[int] = None
    seed: int = 0
    samples: list[tuple[np.ndarray, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(super().to_dict(), samples=[
            {"force": f.tolist(), "displacement": float(d)} for f, d in self.samples])


def _compliance(obj: SceneObject, normals: np.ndarray):
    """Eigen-decomposition of K = sum_i k n_i n_i^T over the normals (M, 3),
    summed from zero as a per-contact loop adds them, and its null-space cutoff."""
    unit = normals / _norms(normals)[:, None]
    K = (obj.params.contact_stiffness * (unit[:, :, None] * unit[:, None, :])).sum(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(K)
    return eigenvalues, eigenvectors, eigenvalues[-1] * _NULL_SPACE_RTOL


def _displacements(compliance, forces: np.ndarray) -> np.ndarray:
    """Object displacement under each row of `forces`, (N, 3) -> (N, 3)."""
    eigenvalues, eigenvectors, cutoff = compliance
    displacements = np.zeros((len(forces), 3))
    for lam, v in zip(eigenvalues, eigenvectors.T):
        components = (forces[:, None, :] @ v[:, None])[:, 0]
        if lam > cutoff:
            displacements += (components / lam) * v
        else:
            displacements += FREE_SLIDE_GAIN * components * v
    return displacements


def perturb_contacts(obj: SceneObject, contacts: Sequence[ContactPoint],
                     config: PerturbConfig | None = None,
                     validation: ValidationConfig | None = None) -> PerturbationReport:
    """Seeded perturbation rounds against an explicit contact set.

    Precheck: the contacts must validate as a stable grasp before any force
    is applied; otherwise the report fails with zero rounds run.  The report
    ends at the first displacement above the threshold.  Deterministic for a
    given seed.
    """
    cfg = config or PerturbConfig()
    assessment = validate_grasp(contacts, validation)
    if not assessment.stable:
        return PerturbationReport(passed=False, iterations_run=0,
                                  max_displacement=0.0, samples=[],
                                  failure_iteration=None, seed=cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    forces = rng.uniform(-cfg.force_bound, cfg.force_bound, size=(cfg.iterations, 3))
    D = _displacements(_compliance(obj, _contact_arrays(contacts)[1]), forces)
    norms = _norms(D)
    over = np.flatnonzero(norms > cfg.displacement_threshold)
    failure = int(over[0]) + 1 if len(over) else None
    rounds = failure or cfg.iterations
    displacements = norms[:rounds].tolist()
    return PerturbationReport(passed=failure is None, iterations_run=rounds,
                              max_displacement=max(0.0, *displacements),
                              samples=list(zip(forces[:rounds], displacements)),
                              failure_iteration=failure, seed=cfg.seed)


def perturbation_test(scene: Scene, state: JointState,
                      config: PerturbConfig | None = None,
                      validation: ValidationConfig | None = None) -> PerturbationReport:
    """Detect the current contacts and run the perturbation rounds on them."""
    return perturb_contacts(scene.object, detect_contacts(scene, state),
                            config, validation)


def write_samples_csv(report: PerturbationReport, fh) -> None:
    """Per-sample force/displacement table: iteration, fx, fy, fz, displacement."""
    lines = ["iteration,fx,fy,fz,displacement\n"]
    for i, (f, d) in enumerate(report.samples, start=1):
        fx, fy, fz = f.tolist()
        lines.append(f"{i},{fx!r},{fy!r},{fz!r},{d!r}\n")
    fh.write("".join(lines))
