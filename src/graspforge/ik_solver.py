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

The damped 3x3 system is solved by LAPACK's `gesv` through the gufuncs
that `numpy.linalg.solve` wraps, `solve1` for one row and `solve` for a
stack, in `numpy.linalg._umath_linalg`.  That module is private to numpy
(it has kept its name and these gufuncs from numpy 1.x to 2.x); it is
called directly because the wrapper's per-call Python (array conversion,
type checks and a fresh error state) made a 3x3 solve take 4.9 us, where
the gufunc takes 1.2 us (2 shared vCPUs, numpy 2.4), and skipping it makes
the `ik_reach` benchmark's median op about 8 % faster.  The results are
the wrapper's bit for bit, as the same `gesv` runs on the same arrays.
The error contract is the wrapper's too: `_steps` runs in the same error
state (`_GESV_ERRORS`), entered once per call, so an exactly singular
damped system raises `LinAlgError("Singular matrix")`, where a bare
gufunc call would warn and step by NaN.  `IkConfig` bounds the damping so
that lambda^2 stays far above the rounding of J J^T on a hand-sized chain,
and no damped system there is singular.

Every iterate is clamped into the joint limits.  When the iterate a trial
steps from has joints at a limit, a trial step that pushes one of them
outward is solved again with that joint's Jacobian column zeroed, until no
pinned joint is pushed outward: the clamping loop of Baerlocher & Boulic,
"An inverse kinematics architecture enforcing an arbitrary number of strict
priority levels" (The Visual Computer, 2004); Buss (2004) covers DLS with
joint limits.  So a pinned joint no longer absorbs the step the free joints
need.  With no joint pinned the step is the plain DLS step.

A state where no damping level helps (a fold local minimum, or limits that
block every descent) is stationary.  An accepted step above the threshold
stalls when it gains less than `_STALL_GAIN` (1 %) of its residual; like
the stationary test, it reads the descent alone, not the solve's iteration
count.  At a stationary or stalled state the finger is re-seeded at the
next of five fixed posture fractions; the sixth such state ends the solve
on a plateau.  The best state seen is reported, with converged = False when
its residual is above the threshold.  An unreachable target therefore ends
once its re-seeds are spent, usually well inside the budget.  Its residual
is the best of the stall points, which can lie above the least reachable
residual, because a stall stops a descent that still improves slowly.

A solve runs in lockstep rounds over rows (`_solve`), on angle arrays in
`chain.movable` order: the seed is clamped into the limits once, and each
finger reads its own joints by column (`FingerSeeds`); the chain admits no
other movable joint on a finger's path.  The public functions convert a
`JointState` at their edge; the controller calls the core on its angles.
A row is one descent of one finger, from its start or from one re-seed,
and in each round every live row walks one posture: its seed or a damping
trial.  A seed that is a constant of the chain is not walked: the row
takes its first record (the fingertip and Jacobian) from the finger's seed
walks, built with the chain, and steps from its first round on.  A row's
seed is such a constant when it has the bytes of its seed walk's posture:
every re-seed, and the start of a solve seeded at the neutral posture (the
controller's pre-grasp solve, and any solve from `neutral_state`).  Rows
of one walk group (fingers with the same sequence of own and fixed joints
from the root to the fingertip) share one stacked walk, `finger_walk`; on
the bundled hand the four long fingers form one group and the thumb
another.  The trials of a group come from one batched damping step
(`_stacked_dls_step`), and each pass of the clamping loop re-solves all of
its rows with a pushed pinned joint in one batch; a row that steps alone
takes the 2-D `_dls_step`, which the batched step matches row for row.  A
Jacobian is made only for the rows that go on from the walked posture.

A descent's path depends only on its seed, since its damping starts afresh
and none of its tests reads the solve's iteration count.  So when the
start's descent ends unconverged, all five re-seeds start at once, each as
a row of its own, and each row ends its own descent: converged, stationary,
stalled, or once it holds `max_iterations + 1` records, more than the
result reads of any descent.  No row stops another.  The finger's result
is one pass over the rows' records (`_FingerSolve.finish`), the only code
that reads the budget across rows: concatenated in re-seed order and cut
at the budget, the first converged record, or else the best by strict `<`.
Each finger keeps its own damping, residuals, re-seeds, iteration count
and best posture, so its result is the one it would reach alone, and an
unreachable target's re-seeds take about as many rounds as its longest
one.  The bundled grasp's two hand solves take 17 rounds and 30 stacked
walks.  `solve_hand_ik` leaves one DEBUG record on the `graspforge` logger
with its rounds, stacked walks and row trials (postures walked).

Every result equals, bit for bit, that of the same loop written on a
per-joint walk of one fingertip and its Jacobian, `clamp_to_limits` and a
joint dict, one finger at a time (`reference_solve` in tests/reference.py,
the oracle of the bitwise tests).  The stacked walk and step round like the
2-D ones because each stacked slice is computed by the same operations on
an array of the same memory layout (see the `kinematics` module notes), and
each seed walk is the bits of the walk of its posture alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from ._checks import ConfigError, check_numbers
from .kinematics import (_EYE3, _RESTART_FRACTIONS, JointState, KinematicsError, _angles, _clamp,
                         _joint_state, _stack, _target_position, finger_walk)
from .robot_model import KinematicChain

# damping retries per iteration before declaring the state stationary
_MAX_RETRIES = 12
# the bounds of the damping, in m: a descent relaxes its damping to no less
# than _MIN_LAMBDA, and starts at no more than _MAX_LAMBDA (see IkConfig)
_MIN_LAMBDA = 1e-6
_MAX_LAMBDA = 1e150
# an accepted step above the threshold stalls when it gains less than this
# fraction of its residual.  Over the `ik_reach` benchmark inputs of seeds
# 1-6 every reachable target converges at 1 %; at 2 % two stall short of the
# threshold, and at 0.5 % and 0.1 % the far targets take 11 % and 36 % more
# iterations for residuals up to 1.1 and 2.3 mm lower.
_STALL_GAIN = 1e-2

_log = logging.getLogger("graspforge")
_LOCKSTEP = "IK lockstep: %d rounds, %d stacked walks, %d row trials"


@dataclass
class IkConfig:
    """The solve's settings.  `damping_lambda`, the damping each descent
    starts at, lies in [`_MIN_LAMBDA`, `_MAX_LAMBDA`] = [1e-6, 1e150] m:

    - 1e-6 is the floor a descent relaxes its damping to; a start below it
      would be the only damping under that floor.  Further below, lambda^2
      falls under the rounding of J J^T's entries, which are about 1e-2 m^2
      on a hand, and a damped system with a pinned joint's zeroed column
      can be exactly singular: 1e-20 was.
    - 1e150 keeps the squared damping finite through a state's
      `_MAX_RETRIES` doublings: 1e150 * 2^12 = 4.1e153, whose square is
      1.7e307; 1e151's overflowed.  A damping that large steps by less than
      the rounding of an angle, so such a solve never moves.
    """

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
        if not _MIN_LAMBDA <= self.damping_lambda <= _MAX_LAMBDA:
            raise ConfigError(f"damping_lambda must lie in [{_MIN_LAMBDA:g}, {_MAX_LAMBDA:g}], "
                              f"got {self.damping_lambda!r}")
        if not 0.0 < self.step_scale <= 1.0:
            raise ConfigError("step_scale must lie in (0, 1]")


@dataclass
class IkResult:
    state: JointState
    residual: float
    iterations: int
    converged: bool


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# `numpy.linalg.solve`'s error state around its gufunc: an exactly singular
# system sets the invalid flag, which raises; rounding flags are ignored
_GESV_ERRORS = np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                           under="ignore")


def _dls_step(J: np.ndarray, JJt: np.ndarray, lam: float, e: np.ndarray,
              scale: float) -> np.ndarray:
    """The damped-least-squares step scale * J^T (J J^T + lam^2 I)^-1 e.
    A singular system raises `LinAlgError` only inside `_GESV_ERRORS`."""
    return scale * (J.T @ _umath_linalg.solve1(JJt + lam ** 2 * _EYE3, e, signature="dd->d"))


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
    return scale * (Jt @ _umath_linalg.solve(J @ Jt + damping, e[..., None],
                                             signature="dd->d"))[..., 0]


def _pushed_out(at_lower: list, at_upper: list, dq: np.ndarray) -> list:
    """Per joint: pinned at a limit, and moved further outward by `dq`."""
    return [(lo and d < 0.0) or (hi and d > 0.0)
            for lo, hi, d in zip(at_lower, at_upper, dq.tolist())]


class _Row:
    """One descent of one finger, from its seed posture: a state machine fed
    one walk per round.

    It records each accepted posture and residual, the seed's first, and
    ends its own descent (`live` False) when it converges, is stationary
    or stalls; none of these tests reads the solve's iteration count.  At
    that end it hands its finger's solve its `length` (`_FingerSolve.ended`):
    the iterations from its seed to the re-seed after it, one past its last
    record when stationary.  It also stops, with no length, once it holds
    `max_iterations + 1` records, as the result reads none past them.
    `pending` is the posture the next round walks: the seed while
    `seeding`, else a damping trial, which `_steps` makes.  The accepted
    posture `q` keeps its Jacobian `J` and error `e` for the trials that
    follow it.
    """

    __slots__ = ("solve", "index", "pending", "seeding", "live", "length", "q", "J", "e",
                 "residual", "lam", "trial_lam", "retries", "residuals", "postures")

    def __init__(self, solve: "_FingerSolve", index: int, seed: np.ndarray):
        self.solve, self.index, self.pending = solve, index, seed
        self.seeding = self.live = True
        self.length = None
        self.residuals, self.postures = [], []

    def walked(self, e: np.ndarray, residual: float, cfg: IkConfig) -> bool:
        """Take the walk of `pending`: its error and residual.  True when the
        descent goes on from `pending`, and so needs its Jacobian as `J`."""
        stalled = False
        if self.seeding:
            self.seeding = False
            self.lam = cfg.damping_lambda
        elif residual < self.residual:
            self.lam = max(self.trial_lam / 1.5, _MIN_LAMBDA)
            stalled = self.residual - residual < _STALL_GAIN * residual
        else:
            self.trial_lam *= 2.0
            self.retries += 1
            if self.retries > _MAX_RETRIES:  # stationary at every damping level
                self.live = False
                self.solve.ended(self, len(self.residuals), cfg)
            return False
        self.q, self.e, self.residual = self.pending, e, residual
        self.residuals.append(residual)
        self.postures.append(self.pending)
        if stalled or residual <= cfg.residual_threshold:
            self.live = False
            self.solve.ended(self, len(self.residuals) - 1, cfg)
        elif len(self.residuals) > cfg.max_iterations:
            self.live = False
        else:
            self.trial_lam, self.retries = self.lam, 0
        return self.live


class _FingerSolve:
    """One finger's solve: its descent rows, the start's and, once the start
    ends unconverged, all five re-seeds', and the pass over their records
    that gives its result (`finish`)."""

    __slots__ = ("name", "target", "seeds", "group", "rows", "iterations",
                 "best_q", "best_residual", "ended_by")

    def __init__(self, chain: KinematicChain, name: str, target, start: np.ndarray,
                 groups: dict, cfg: IkConfig):
        chain.finger(name)  # an unknown name raises UnknownFingerError
        self.name, self.target = name, _finger_target(name, target)
        self.seeds = chain.finger_seeds[name]
        self.group = groups.setdefault(chain.finger_walks[name][0].fingers, _Group())
        self.rows = []
        self._start_rows([_Row(self, 0, start.take(self.seeds.columns))], cfg)

    def _start_rows(self, rows: list, cfg: IkConfig) -> None:
        """Add new descent rows.  A row whose seed has the bytes of its seed
        walk's posture (start: the neutral one, re-seed r: entry r; a -0.0
        can walk to other bits than 0.0) takes its first record from that
        walk at once, so it steps from the next round on.  The others walk
        their seed first."""
        self.rows += rows
        self.group.rows += rows
        for r in rows:
            if r.pending.tobytes() != self.seeds.postures[r.index].tobytes():
                continue
            e = self.target - self.seeds.tips[r.index]
            if r.walked(e, math.sqrt(e.dot(e)), cfg):
                r.J = self.seeds.jacobians[r.index]

    def ended(self, row: _Row, length: int, cfg: IkConfig) -> None:
        """`row` ended its descent after `length` iterations.  When the start
        ends unconverged, every re-seed starts, each as a row of its own."""
        row.length = length
        if row.index == 0 and row.residuals[-1] > cfg.residual_threshold:
            self._start_rows([_Row(self, r, self.seeds.postures[r])
                              for r in range(1, len(_RESTART_FRACTIONS) + 1)], cfg)

    def finish(self, cfg: IkConfig) -> None:
        """The result: the records of the descents concatenated in re-seed
        order and cut at the budget, the first converged record or else the
        best by strict `<`.  The solve ends `converged`, on a `plateau` (the
        sixth descent ended inside the budget) or by its `budget`."""
        top = cfg.max_iterations
        self.best_q, self.best_residual = self.rows[0].postures[0], self.rows[0].residuals[0]
        count = 0  # the iteration count at the start of each descent
        for row in self.rows:
            for k, (q, r) in enumerate(zip(row.postures, row.residuals)):
                if count + k > top:
                    break
                if r < self.best_residual:
                    self.best_q, self.best_residual = q, r
                if r <= cfg.residual_threshold:
                    self.iterations, self.ended_by = count + k, "converged"
                    return
            if row.length is None or count + row.length > top:
                break
            count += row.length
        else:  # all six descents ended inside the budget
            self.iterations, self.ended_by = count, "plateau"
            return
        self.iterations, self.ended_by = top, "budget"

    def result(self, chain: KinematicChain, start: np.ndarray) -> IkResult:
        """The solve as an `IkResult`: its best posture in its columns of `start`."""
        q = start.copy()
        q[self.seeds.columns] = self.best_q
        return IkResult(state=_joint_state(chain, q), residual=self.best_residual,
                        iterations=self.iterations, converged=self.ended_by == "converged")


def _finger_target(name: str, target) -> np.ndarray:
    """The position of finger `name`'s target: three finite numbers."""
    try:
        p = _target_position(target)
    except (TypeError, ValueError):
        p = None
    if p is None or not np.isfinite(p).all():
        raise KinematicsError(f"finger {name!r}: IK target must be three finite numbers, "
                              f"got {target!r}")
    return p


@_GESV_ERRORS
def _steps(rows: list, cfg: IkConfig) -> None:
    """The next damping trial of each of `rows` (one walk group): the DLS
    step, the clamping loop for the rows with a pinned joint, then the clamp
    into the joint limits.

    The clamping loop drops the Jacobian column of each pinned joint that
    the step pushes outward (a zero column moves it by +-0.0), and solves
    the step again, until no pinned joint is pushed out.  Several rows take
    one batched step, and every pass of the loop re-solves all their pushed
    rows in one batch; the batched step rounds each row as `_dls_step`
    does, so one row takes that cheaper 2-D call, and its loop runs on
    Python lists.  Sending one row through the batched path instead made
    the `ik_reach` benchmark's median op 19 % slower (90th percentile
    10 %), with the direct gufunc calls of both.

    Runs in `_GESV_ERRORS`, so a singular damped system raises
    `LinAlgError`.
    """
    if len(rows) == 1:
        (r,) = rows
        s = r.solve.seeds  # `lower_l`, `upper_l`: floats beat numpy on a few joints
        dq = _dls_step(r.J, r.J @ r.J.T, r.trial_lam, r.e, cfg.step_scale)
        qs = r.q.tolist()
        if any(a <= lo or a >= hi for a, lo, hi in zip(qs, s.lower_l, s.upper_l)):
            at_lower = [a <= lo for a, lo in zip(qs, s.lower_l)]
            at_upper = [a >= hi for a, hi in zip(qs, s.upper_l)]
            free_J = r.J
            pushed = _pushed_out(at_lower, at_upper, dq)
            while any(pushed):
                free_J = free_J * [0.0 if k else 1.0 for k in pushed]
                dq = _dls_step(free_J, free_J @ free_J.T, r.trial_lam, r.e, cfg.step_scale)
                pushed = _pushed_out(at_lower, at_upper, dq)
        r.pending = _clamp(r.q + dq, s.lower, s.upper)
        return
    # each row of Jt is the transpose of the walk's layout, as J.T
    Jt, e = _stack([r.J.T for r in rows]), _stack([r.e for r in rows])
    lams = [r.trial_lam for r in rows]
    dq = _stacked_dls_step(Jt.transpose(0, 2, 1), lams, e, cfg.step_scale)
    seeds = [r.solve.seeds for r in rows]
    q, lower, upper = (_stack([r.q for r in rows]), _stack([s.lower for s in seeds]),
                       _stack([s.upper for s in seeds]))
    at_lower, at_upper = q <= lower, q >= upper
    pushed = (at_lower & (dq < 0.0)) | (at_upper & (dq > 0.0))
    active = np.arange(len(rows))
    while True:
        keep = np.logical_or.reduce(pushed, 1)
        active = active[keep]
        if not len(active):
            break
        at_lower, at_upper = at_lower[keep], at_upper[keep]
        Jt = Jt[keep] * ~pushed[keep][..., None]  # x False is the zero of x's sign
        step = _stacked_dls_step(Jt.transpose(0, 2, 1), [lams[i] for i in active], e[active],
                                 cfg.step_scale)
        dq[active] = step
        pushed = (at_lower & (step < 0.0)) | (at_upper & (step > 0.0))
    for r, trial in zip(rows, _clamp(q + dq, lower, upper)):
        r.pending = trial


class _Group:
    """Every row started in one walk group, and the walk and targets it
    last gathered, for the live rows `walked`."""

    __slots__ = ("rows", "walked", "walk", "target")

    def __init__(self):
        self.rows, self.walked = [], None


def _solve(chain: KinematicChain, targets: dict, q: np.ndarray,
           cfg: IkConfig) -> tuple[np.ndarray, dict[str, _FingerSolve], tuple[int, int, int]]:
    """The lockstep core: every finger of `targets` solved from angles `q`
    (`chain.movable` order).  Returns the start (`q` clamped into the
    limits), each finger's `_FingerSolve` in the order of `targets`, and
    the rounds, stacked walks and row trials (postures walked) it made.
    """
    start = _clamp(q, chain.lower, chain.upper)
    groups: dict[tuple, _Group] = {}
    solves = {name: _FingerSolve(chain, name, target, start, groups, cfg)
              for name, target in targets.items()}

    rounds = walks = trials = 0
    while True:
        round_walks = 0
        for group in groups.values():
            rows = [r for r in group.rows if r.live]
            if not rows:
                continue
            stepping = [r for r in rows if not r.seeding]
            if stepping:
                _steps(stepping, cfg)
            if rows != group.walked:
                group.walked = rows
                group.walk = finger_walk(chain, [r.solve.name for r in rows])
                group.target = _stack([r.solve.target for r in rows])
            p, jacobian = group.walk(_stack([r.pending for r in rows]))
            e = group.target - p
            # the residual as np.linalg.norm takes it
            going_on = [i for i, (r, e_r) in enumerate(zip(rows, e))
                        if r.walked(e_r, math.sqrt(e_r.dot(e_r)), cfg)]
            if going_on:
                J = jacobian()
                for i in going_on:
                    rows[i].J = J[i]
            round_walks += 1
            trials += len(rows)
        if not round_walks:
            break
        rounds += 1
        walks += round_walks
    for s in solves.values():
        s.finish(cfg)
    return start, solves, (rounds, walks, trials)


def _solve_state(chain: KinematicChain, targets: dict, seed: JointState,
                 config: IkConfig | None) -> tuple[dict[str, IkResult], tuple[int, int, int]]:
    """`_solve` on the angles of `seed`, its results as `IkResult`s, and its
    counts.  A NaN seed angle raises: the start would stay the best posture,
    as no residual is `< nan`.  The clamp takes +-inf to a limit."""
    q = _angles(chain, seed)
    if np.isnan(q).any():
        ji = chain.movable[int(np.isnan(q).argmax())]
        raise KinematicsError(f"IK seed angle of joint {chain.joints[ji].name!r} is NaN")
    cfg = config or IkConfig()
    start, solves, counts = _solve(chain, targets, q, cfg)
    return {name: s.result(chain, start) for name, s in solves.items()}, counts


def solve_finger_ik(chain: KinematicChain, finger: str, target,
                    seed: JointState, config: IkConfig | None = None) -> IkResult:
    """Solve one finger's joints so its end effector reaches `target`.

    Only the finger's own joints move; every other angle of `seed` is
    carried through, clamped into its limits as every iterate is, so the
    result is always a feasible posture.  The one-row call of the lockstep
    core.
    """
    return _solve_state(chain, {finger: target}, seed, config)[0][finger]


def solve_hand_ik(chain: KinematicChain, targets: dict, seed: JointState,
                  config: IkConfig | None = None) -> dict[str, IkResult]:
    """Per-finger solves from a shared seed, in lockstep rounds.

    Fingers do not interact mechanically: the parser admits only hands
    whose fingers are separate serial chains off the palm, so each solve
    only touches its own joints, and each result is the one
    `solve_finger_ik` gives for its finger alone.  Leaves one DEBUG
    record: the rounds, stacked walks and row trials.
    """
    results, counts = _solve_state(chain, targets, seed, config)
    _log.debug(_LOCKSTEP, *counts)
    return results


def merge_hand_results(chain: KinematicChain, seed: JointState,
                       results: dict[str, IkResult]) -> JointState:
    """Fold per-finger solutions into one full state on top of `seed`, clamped."""
    q = _clamp(_angles(chain, seed), chain.lower, chain.upper)
    for finger, result in results.items():
        columns = [chain.column_of[ji] for ji in chain.finger(finger).joints]
        q[columns] = _angles(chain, result.state)[columns]
    return _joint_state(chain, q)
