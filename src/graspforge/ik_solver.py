"""Damped-least-squares inverse kinematics for single fingers and the hand.

Position-only: targets are positions of each finger's end-effector frame
(the bare `<finger>_tip` link) in the chain root frame; orientation
components of the target pose are accepted but ignored, as no finger has
joints to set its tip orientation independently.

The update is dq = J^T (J J^T + lambda^2 I)^-1 e.  The damping adapts
Levenberg-Marquardt style around the configured value: a step that lowers
the residual is accepted and relaxes the damping, a step that does not is
retried with the damping doubled, so the residual never increases across
accepted iterations.

Every iterate is clamped into the joint limits.  When an iterate has joints
at a limit (tested once per iterate), a trial step that pushes one of them
outward is solved again with that joint's Jacobian column zeroed, until no
pinned joint is pushed outward: the clamping loop of Baerlocher & Boulic,
"An inverse kinematics architecture enforcing an arbitrary number of strict
priority levels" (The Visual Computer, 2004); Buss (2004) covers DLS with
joint limits.  So a pinned joint no longer absorbs the step the free joints
need.  With no joint pinned the step is the plain DLS step.

A state where no damping level helps (a fold local minimum, or limits that
block every descent) is stationary.  An accepted step stalls when its gain,
repeated over every remaining iteration, would not bring the residual down
to the threshold.  At a stationary or stalled state the finger is re-seeded
at the next of five fixed posture fractions; the sixth such state ends the
solve.  The best state seen is reported, with converged = False when its
residual is above the threshold.  An unreachable target therefore ends once
its re-seeds are spent, usually well inside the budget.  Its residual is the
best of the stall points, which can lie a few percent above the least
reachable residual, because a stall stops a descent that is still improving.

A solve works on a float array of the finger's own joints.  `finger_walk`
walks from the root to the frame the finger's first joint hangs from once,
for the clamped seed; each damping trial then makes one walk from that
frame, which returns the fingertip and the Jacobian together.  No
`link_transform`, `jacobian` or `clamp_to_limits` call remains in the
iterations, and every result equals, bit for bit, that of the same loop
written on those functions and a joint dict (tests/test_ik_solver.py keeps
it as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, check_numbers
from .kinematics import JointState, _clamp, _target_position, clamp_to_limits, finger_walk
from .robot_model import KinematicChain

# damping retries per iteration before declaring the state stationary
_MAX_RETRIES = 12
_MIN_LAMBDA = 1e-6
# finger re-seed fractions, tried in turn at stationary or stalled states
# (escapes fold minima); the next such state after the last one ends the solve
_RESTART_FRACTIONS = (0.25, 0.75, 0.1, 0.9, 0.5)
_EYE3 = np.eye(3)


@dataclass
class IkConfig:
    max_iterations: int = 100
    residual_threshold: float = 1e-5
    damping_lambda: float = 0.05
    step_scale: float = 1.0

    def __post_init__(self):
        check_numbers(self)
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.residual_threshold > 0.0:
            raise ConfigError("residual_threshold must be positive")
        if not self.damping_lambda > 0.0:
            raise ConfigError("damping_lambda must be positive")
        if not 0.0 < self.step_scale <= 1.0:
            raise ConfigError("step_scale must lie in (0, 1]")


@dataclass
class IkResult:
    state: JointState
    residual: float
    iterations: int
    converged: bool


def _dls_step(J: np.ndarray, JJt: np.ndarray, lam: float, e: np.ndarray,
              scale: float) -> np.ndarray:
    """The damped-least-squares step scale * J^T (J J^T + lam^2 I)^-1 e."""
    return scale * (J.T @ np.linalg.solve(JJt + lam ** 2 * _EYE3, e))


def _pushed_out(at_lower: list, at_upper: list, dq: np.ndarray) -> list:
    """Per joint: pinned at a limit, and moved further outward by `dq`."""
    return [(lo and d < 0.0) or (hi and d > 0.0)
            for lo, hi, d in zip(at_lower, at_upper, dq.tolist())]


def solve_finger_ik(chain: KinematicChain, finger: str, target,
                    seed: JointState, config: IkConfig | None = None) -> IkResult:
    """Solve one finger's joints so its end effector reaches `target`.

    Only the finger's own joints move; all other values in `seed` are
    carried through untouched.  Every iterate is clamped to joint limits, so
    the result is always a feasible posture.
    """
    cfg = config or IkConfig()
    f = chain.finger(finger)
    target_p = _target_position(target)

    start = clamp_to_limits(chain, seed)
    walk = finger_walk(chain, f.joints, f.end_effector, start)
    columns = [chain.column_of[ji] for ji in f.joints]
    lower, upper = chain.lower[columns], chain.upper[columns]
    # limits as Python floats for the pinned-joint tests: on a handful of
    # joints, numpy's per-call overhead would cost more than the comparisons
    lower_l, upper_l = lower.tolist(), upper.tolist()

    q = np.array([start.get(ji) for ji in f.joints], dtype=float)
    p, J = walk(q)
    residual = float(np.linalg.norm(target_p - p))
    iterations = 0
    lam = cfg.damping_lambda
    best_q, best_residual = q, residual
    restarts = 0

    for it in range(1, cfg.max_iterations + 1):
        if residual <= cfg.residual_threshold:
            break
        iterations = it
        e = target_p - p
        JJt = J @ J.T
        qs = q.tolist()
        pinned = any(a <= lo or a >= hi for a, lo, hi in zip(qs, lower_l, upper_l))
        if pinned:
            at_lower = [a <= lo for a, lo in zip(qs, lower_l)]
            at_upper = [a >= hi for a, hi in zip(qs, upper_l)]

        accepted = stalled = False
        trial_lam = lam
        for _ in range(_MAX_RETRIES + 1):
            dq = _dls_step(J, JJt, trial_lam, e, cfg.step_scale)
            if pinned:
                # clamping loop: a pinned joint the step pushes outward loses
                # its Jacobian column (a zero column moves it by +-0.0), and
                # the step is solved again, until no pinned joint is pushed out
                free_J = J
                pushed = _pushed_out(at_lower, at_upper, dq)
                while any(pushed):
                    free_J = free_J * [0.0 if k else 1.0 for k in pushed]
                    dq = _dls_step(free_J, free_J @ free_J.T, trial_lam, e, cfg.step_scale)
                    pushed = _pushed_out(at_lower, at_upper, dq)
            trial = _clamp(q + dq, lower, upper)
            trial_p, trial_J = walk(trial)
            trial_residual = float(np.linalg.norm(target_p - trial_p))
            if trial_residual < residual:
                # stalled: the remaining iterations, each gaining as much as
                # this one, could not bring the residual to the threshold
                stalled = ((residual - trial_residual) * (cfg.max_iterations - it)
                           < trial_residual - cfg.residual_threshold)
                q, p, J, residual = trial, trial_p, trial_J, trial_residual
                lam = max(trial_lam / 1.5, _MIN_LAMBDA)
                accepted = True
                break
            trial_lam *= 2.0
        if stalled or not accepted:
            # stationary at every damping level, or stalled: remember the best
            # posture, then re-seed the finger to hunt for another solution
            # branch, or stop once every re-seed has been tried
            if residual < best_residual:
                best_q, best_residual = q, residual
            if restarts == len(_RESTART_FRACTIONS):
                break
            restarts += 1
            frac = _RESTART_FRACTIONS[restarts % len(_RESTART_FRACTIONS)]
            q = lower + frac * (upper - lower)
            p, J = walk(q)
            residual = float(np.linalg.norm(target_p - p))
            lam = cfg.damping_lambda

    if residual < best_residual:
        best_q, best_residual = q, residual
    values = dict(start.values)
    values.update(zip(f.joints, map(float, best_q)))
    return IkResult(state=JointState(values=values), residual=best_residual,
                    iterations=iterations, converged=best_residual <= cfg.residual_threshold)


def solve_hand_ik(chain: KinematicChain, targets: dict, seed: JointState,
                  config: IkConfig | None = None) -> dict[str, IkResult]:
    """Independent per-finger solves from a shared seed.

    Fingers do not interact mechanically (separate serial chains off the
    palm), so each solve only touches its own joints.
    """
    return {finger: solve_finger_ik(chain, finger, target, seed, config)
            for finger, target in targets.items()}


def merge_hand_results(chain: KinematicChain, seed: JointState,
                       results: dict[str, IkResult]) -> JointState:
    """Fold per-finger solutions into one full state on top of `seed`."""
    merged = clamp_to_limits(chain, seed)
    for finger, result in results.items():
        for ji in chain.finger(finger).joints:
            merged.values[ji] = result.state.values[ji]
    return merged
