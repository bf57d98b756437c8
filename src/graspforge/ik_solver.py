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

The fingers of a solve run in lockstep rounds (`_solve`): in each round
every live finger walks one posture, its start, a damping trial or a
re-seed.  Fingers of one walk shape (the same sequence of own, other and
fixed joints from the root to the fingertip) share one stacked walk,
`finger_walk`, which gives their fingertips and Jacobians; on the bundled
hand that is the four long fingers, with the thumb alone.  The
trials of a group come from one batched damping step (`_stacked_dls_step`),
then the clamping loop for the fingers with a pinned joint; a finger that
steps alone takes the 2-D `_dls_step`, which the batched step matches row
for row.  A finger that has finished is walked at its last posture and
ignored, and a Jacobian is made only when some finger goes on from the
walked posture.  Each finger keeps its own damping, residual, retries,
re-seeds, iteration count and best posture, so its result is the one it
would reach alone: `solve_finger_ik` is the core's one-row call, and
`solve_hand_ik` runs every target through one core.  The bundled grasp's
two hand solves take 46 rounds and 60 stacked walks where the fingers one
at a time make 130 walks.  `solve_hand_ik` leaves one DEBUG record on the
`graspforge` logger with its rounds, stacked walks and finger trials.

Every result equals, bit for bit, that of the same loop written on a
per-joint walk of one fingertip and its Jacobian, `clamp_to_limits` and a
joint dict, one finger at a time (`reference_solve` in tests/reference.py,
the oracle of the bitwise tests).  The
stacked walk and step round like the 2-D ones because each stacked slice
is computed by the same operations on an array of the same memory layout
(see the `kinematics` module notes).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, check_numbers
from .kinematics import (_EYE3, JointState, _clamp, _stack, _target_position, _walk_shape,
                         clamp_to_limits, finger_walk)
from .robot_model import Finger, KinematicChain

# damping retries per iteration before declaring the state stationary
_MAX_RETRIES = 12
_MIN_LAMBDA = 1e-6
# finger re-seed fractions, tried in turn at stationary or stalled states
# (escapes fold minima); the next such state after the last one ends the solve
_RESTART_FRACTIONS = (0.25, 0.75, 0.1, 0.9, 0.5)

_log = logging.getLogger("graspforge")


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


def _stacked_dls_step(J: np.ndarray, lams: list, e: np.ndarray, scale: float) -> np.ndarray:
    """`_dls_step` of each row of J (g, 3, n), damping `lams` and errors e
    (g, 3): one batched solve and one stacked J^T @ x.

    A stacked `matmul` and a batched solve round each row as the 2-D calls
    do, provided each row of J has their layout: the transpose of a
    C-ordered (n, 3) array, as the stacked walk makes it.  So each row
    equals `_dls_step`'s result bit for bit.
    """
    Jt = J.transpose(0, 2, 1)
    damping = np.array([lam ** 2 for lam in lams])[:, None, None] * _EYE3
    return scale * (Jt @ np.linalg.solve(J @ Jt + damping, e[..., None]))[..., 0]


def _pushed_out(at_lower: list, at_upper: list, dq: np.ndarray) -> list:
    """Per joint: pinned at a limit, and moved further outward by `dq`."""
    return [(lo and d < 0.0) or (hi and d > 0.0)
            for lo, hi, d in zip(at_lower, at_upper, dq.tolist())]


class _FingerSolve:
    """One finger's solve in the lockstep core: a state machine fed one walk
    per round.

    `pending` is the posture the next round walks: the start or a re-seed
    posture while `seeding`, else a damping trial of the current iteration
    (`it`), which `_steps` makes.  The accepted posture `q` keeps its
    Jacobian `J` and error `e` for the trials that follow it.
    """

    __slots__ = ("finger", "target", "lower", "upper", "lower_l", "upper_l", "pending",
                 "seeding", "done", "it", "iterations", "restarts", "retries", "q", "J", "e",
                 "residual", "lam", "trial_lam", "best_q", "best_residual", "pinned",
                 "at_lower", "at_upper")

    def __init__(self, chain: KinematicChain, finger: Finger, target, start: JointState):
        self.finger = finger
        self.target = _target_position(target)
        columns = [chain.column_of[ji] for ji in finger.joints]
        self.lower, self.upper = chain.lower[columns], chain.upper[columns]
        # limits as Python floats for the pinned-joint tests: on a handful of
        # joints, numpy's per-call overhead would cost more than the comparisons
        self.lower_l, self.upper_l = self.lower.tolist(), self.upper.tolist()
        self.pending = np.array([start.get(ji) for ji in finger.joints], dtype=float)
        self.seeding, self.done = True, False
        self.it = self.iterations = self.restarts = 0
        self.best_q = None

    def walked(self, e: np.ndarray, residual: float, cfg: IkConfig) -> bool:
        """Take the walk of `pending`: its error and residual.  True when the
        finger goes on from `pending`, and so needs its Jacobian as `J`."""
        if self.seeding:
            self.q, self.e, self.residual = self.pending, e, residual
            if self.best_q is None:
                self.best_q, self.best_residual = self.q, residual
            self.lam = cfg.damping_lambda
            return self._iterate(cfg)
        if residual < self.residual:
            # stalled: the remaining iterations, each gaining as much as
            # this one, could not bring the residual to the threshold
            stalled = ((self.residual - residual) * (cfg.max_iterations - self.it)
                       < residual - cfg.residual_threshold)
            self.q, self.e, self.residual = self.pending, e, residual
            self.lam = max(self.trial_lam / 1.5, _MIN_LAMBDA)
            if not stalled:
                return self._iterate(cfg)
            self._reseed()
            return False
        self.trial_lam *= 2.0
        self.retries += 1
        if self.retries > _MAX_RETRIES:  # stationary at every damping level
            self._reseed()
        return False

    def _iterate(self, cfg: IkConfig) -> bool:
        """Start the next iteration from `q`; False when the solve ends instead."""
        self.it += 1
        if self.it > cfg.max_iterations or self.residual <= cfg.residual_threshold:
            self._keep_best()
            self.done = True
            return False
        self.iterations = self.it
        self.seeding = False
        self.trial_lam, self.retries = self.lam, 0
        qs = self.q.tolist()
        self.pinned = any(a <= lo or a >= hi for a, lo, hi in zip(qs, self.lower_l, self.upper_l))
        if self.pinned:
            self.at_lower = [a <= lo for a, lo in zip(qs, self.lower_l)]
            self.at_upper = [a >= hi for a, hi in zip(qs, self.upper_l)]
        return True

    def _reseed(self) -> None:
        """Stationary or stalled: remember the best posture, then re-seed the
        finger to hunt for another solution branch, or stop once every
        re-seed has been tried."""
        self._keep_best()
        if self.restarts == len(_RESTART_FRACTIONS):
            self.done = True
            return
        self.restarts += 1
        frac = _RESTART_FRACTIONS[self.restarts % len(_RESTART_FRACTIONS)]
        self.pending = self.lower + frac * (self.upper - self.lower)
        self.seeding = True

    def _keep_best(self) -> None:
        if self.residual < self.best_residual:
            self.best_q, self.best_residual = self.q, self.residual

    def clamped_step(self, dq: np.ndarray, cfg: IkConfig) -> np.ndarray:
        """The clamping loop: a pinned joint the step pushes outward loses its
        Jacobian column (a zero column moves it by +-0.0), and the step is
        solved again, until no pinned joint is pushed out."""
        free_J = self.J
        pushed = _pushed_out(self.at_lower, self.at_upper, dq)
        while any(pushed):
            free_J = free_J * [0.0 if k else 1.0 for k in pushed]
            dq = _dls_step(free_J, free_J @ free_J.T, self.trial_lam, self.e, cfg.step_scale)
            pushed = _pushed_out(self.at_lower, self.at_upper, dq)
        return dq

    def result(self, start: JointState, cfg: IkConfig) -> IkResult:
        values = dict(start.values)
        values.update(zip(self.finger.joints, map(float, self.best_q)))
        return IkResult(state=JointState(values=values), residual=self.best_residual,
                        iterations=self.iterations,
                        converged=self.best_residual <= cfg.residual_threshold)


def _steps(solves: list, cfg: IkConfig) -> None:
    """The next damping trial of each of `solves` (one walk shape): one
    batched DLS step, the clamping loop for the fingers with a pinned joint,
    then the clamp into the joint limits.

    The batched step rounds each row as `_dls_step` does, so one row takes
    that cheaper 2-D call.
    """
    if len(solves) == 1:
        (s,) = solves
        dq = _dls_step(s.J, s.J @ s.J.T, s.trial_lam, s.e, cfg.step_scale)
        if s.pinned:
            dq = s.clamped_step(dq, cfg)
        s.pending = _clamp(s.q + dq, s.lower, s.upper)
        return
    J = _stack([s.J.T for s in solves]).transpose(0, 2, 1)  # rows laid out as the walk's
    dq = _stacked_dls_step(J, [s.trial_lam for s in solves], _stack([s.e for s in solves]),
                           cfg.step_scale)
    for s, row in zip(solves, dq):
        if s.pinned:
            row[:] = s.clamped_step(row, cfg)
    trials = _clamp(_stack([s.q for s in solves]) + dq, _stack([s.lower for s in solves]),
                    _stack([s.upper for s in solves]))
    for s, trial in zip(solves, trials):
        s.pending = trial


def _solve(chain: KinematicChain, targets: dict, seed: JointState,
           config: IkConfig | None) -> tuple[dict[str, IkResult], tuple[int, int, int]]:
    """The lockstep core: every finger of `targets` solved from `seed`.

    Returns the results in the order of `targets`, and the rounds, stacked
    walks and finger trials (postures walked) it made.
    """
    cfg = config or IkConfig()
    start = clamp_to_limits(chain, seed)
    shapes: dict[tuple, list[_FingerSolve]] = {}
    solves = {}
    for name, target in targets.items():
        finger = chain.finger(name)
        solves[name] = _FingerSolve(chain, finger, target, start)
        shapes.setdefault(_walk_shape(chain, finger), []).append(solves[name])
    groups = [(members, finger_walk(chain, [s.finger for s in members], start),
               _stack([s.target for s in members])) for members in shapes.values()]

    rounds = walks = trials = 0
    while True:
        round_walks = 0
        for members, walk, target in groups:
            live = [s for s in members if not s.done]
            if not live:
                continue
            stepping = [s for s in live if not s.seeding]
            if stepping:
                _steps(stepping, cfg)
            # done fingers are walked at their last posture and ignored
            p, jacobian = walk(_stack([s.pending for s in members]))
            e = target - p
            going_on = []
            for i, (s, e_s) in enumerate(zip(members, e)):
                # the residual as np.linalg.norm takes it
                if not s.done and s.walked(e_s, math.sqrt(e_s.dot(e_s)), cfg):
                    going_on.append(i)
            if going_on:
                J = jacobian()
                for i in going_on:
                    members[i].J = J[i]
            round_walks += 1
            trials += len(live)
        if not round_walks:
            break
        rounds += 1
        walks += round_walks
    results = {name: s.result(start, cfg) for name, s in solves.items()}
    return results, (rounds, walks, trials)


def solve_finger_ik(chain: KinematicChain, finger: str, target,
                    seed: JointState, config: IkConfig | None = None) -> IkResult:
    """Solve one finger's joints so its end effector reaches `target`.

    Only the finger's own joints move; all other values in `seed` are
    carried through untouched.  Every iterate is clamped to joint limits, so
    the result is always a feasible posture.  The one-row call of the
    lockstep core.
    """
    results, _ = _solve(chain, {finger: target}, seed, config)
    return results[finger]


def solve_hand_ik(chain: KinematicChain, targets: dict, seed: JointState,
                  config: IkConfig | None = None) -> dict[str, IkResult]:
    """Per-finger solves from a shared seed, in lockstep rounds.

    Fingers do not interact mechanically (separate serial chains off the
    palm), so each solve only touches its own joints, and each result is
    the one `solve_finger_ik` gives for its finger alone.  Leaves one DEBUG
    record: the rounds, stacked walks and finger trials.
    """
    results, counts = _solve(chain, targets, seed, config)
    _log.debug("IK lockstep: %d rounds, %d stacked walks, %d finger trials", *counts)
    return results


def merge_hand_results(chain: KinematicChain, seed: JointState,
                       results: dict[str, IkResult]) -> JointState:
    """Fold per-finger solutions into one full state on top of `seed`."""
    merged = clamp_to_limits(chain, seed)
    for finger, result in results.items():
        for ji in chain.finger(finger).joints:
            merged.values[ji] = result.state.values[ji]
    return merged
