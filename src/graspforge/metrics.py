"""Run evaluation: movement efficiency, success, and error statistics.

Efficiency is the ratio d_t / (d_m + 1e-6) where d_m is the arc length the
fingertip actually traveled.  The numerator d_t is, by default, the final
distance to the target; `efficiency_basis="straight_line"` switches it to
the straight-line distance from the first logged position to the target.
Values above 1 are expected for short approaches: the guard epsilon is the
only thing separating the two readings of d_t from a pure ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _Record
from .controller import TrajectoryLog
from .kinematics import _target_position

EPSILON = 1e-6
SUCCESS_THRESHOLD = 0.1  # m

EFFICIENCY_FINAL_ERROR = "final_error"
EFFICIENCY_STRAIGHT_LINE = "straight_line"


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class FingerMetrics(_Record):
    finger: str
    distance_to_target: float  # m, final position error
    total_movement: float  # m, path arc length
    efficiency: float
    success: bool
    directional_error: np.ndarray  # final - target, per axis

    def __post_init__(self):
        object.__setattr__(self, "directional_error",
                           np.asarray(self.directional_error, dtype=float).reshape(3))


@dataclass(frozen=True)
class RunSummary(_Record):
    mean_distance: float
    std_distance: float  # population form
    success_rate: float
    errors_x: tuple
    errors_y: tuple
    errors_z: tuple


def movement_efficiency(d_t: float, d_m: float) -> float:
    if d_t < 0.0 or d_m < 0.0:
        raise MetricsError(f"distances must be non-negative, got d_t={d_t}, d_m={d_m}")
    return d_t / (d_m + EPSILON)


def path_length(trajectory) -> float:
    """Arc length of an ordered position sequence."""
    points = np.asarray(trajectory, dtype=float)
    if points.size == 0:
        raise MetricsError("path_length requires at least one position")
    points = points.reshape(-1, 3)
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


def positional_error(final, target):
    """Component-wise error vector and its Euclidean norm."""
    e = np.asarray(final, dtype=float) - np.asarray(target, dtype=float)
    return e, float(np.linalg.norm(e))


def summarize_run(log: TrajectoryLog, targets: dict,
                  efficiency_basis: str = EFFICIENCY_FINAL_ERROR):
    """Per-finger metrics plus the aggregate: (list of FingerMetrics, RunSummary)."""
    if not len(log.control_steps):
        raise MetricsError("trajectory log is empty")
    if efficiency_basis not in (EFFICIENCY_FINAL_ERROR, EFFICIENCY_STRAIGHT_LINE):
        raise MetricsError(f"unknown efficiency basis {efficiency_basis!r}")

    per_finger: list[FingerMetrics] = []
    for f, finger in enumerate(log.fingers):
        if finger not in targets:
            raise MetricsError(f"no target given for logged finger {finger!r}")
        target_p = _target_position(targets[finger])
        track = log.positions[:, f]
        e, e_d = positional_error(track[-1], target_p)
        d_m = path_length(track)
        if efficiency_basis == EFFICIENCY_FINAL_ERROR:
            d_t = e_d
        else:
            d_t = float(np.linalg.norm(target_p - track[0]))
        per_finger.append(FingerMetrics(
            finger=finger,
            distance_to_target=e_d,
            total_movement=d_m,
            efficiency=movement_efficiency(d_t, d_m),
            success=e_d < SUCCESS_THRESHOLD,
            directional_error=e,
        ))

    distances = np.array([m.distance_to_target for m in per_finger])
    summary = RunSummary(
        mean_distance=float(np.mean(distances)),
        std_distance=float(np.std(distances)),
        success_rate=float(np.mean([m.success for m in per_finger])),
        errors_x=tuple(float(m.directional_error[0]) for m in per_finger),
        errors_y=tuple(float(m.directional_error[1]) for m in per_finger),
        errors_z=tuple(float(m.directional_error[2]) for m in per_finger),
    )
    return per_finger, summary


def write_metrics_csv(metrics: list[FingerMetrics], fh) -> None:
    fh.write("finger,distance_to_target_m,total_movement_m,efficiency,success,ex,ey,ez\n")
    for m in metrics:
        ex, ey, ez = (float(v) for v in m.directional_error)
        fh.write(f"{m.finger},{m.distance_to_target!r},{m.total_movement!r},"
                 f"{m.efficiency!r},{str(m.success).lower()},{ex!r},{ey!r},{ez!r}\n")
