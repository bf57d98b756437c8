"""Two-level grasp execution: phase sequencing over a first-order joint servo.

Phases:
  pre_grasp    stage fingertips 3 cm outside their contact targets
  contact_opt  drive to the true targets; a finger with an established
               contact stops advancing its flexor so it presses instead of
               shoving, and a finger that lets go resumes it
  monitor      freeze the posture and re-validate until 50 consecutive
               stable steps (or the step budget runs out)

The servo integrates theta' = clamp(gain * (goal - theta), +-rate) at 1/hz
with explicit Euler and clamps every iterate to joint limits.  The loop
and the IK core work on joint angles in `chain.movable` order; the one
`JointState` made is the final state.

The goal of `pre_grasp` is fixed and the phase reads no contacts, so it is
a function of the servo's states alone: the servo runs step by step, and
the logged rows of each block of up to _APPROACH_BLOCK steps go through
one pass, which counts their contacts.  Only a one-step budget ends the
run in this phase; `_judge` then judges its posture in a one-row pass, as
`monitor` does a first step that changes bits.

Between events a `contact_opt` step is a function of the angles alone too,
under one goal per block: the contact goal with each latched finger's
flexor held at its angle when the block starts.  A held flexor's servo
velocity is exactly 0, so it stays at that angle through the block.  A
finger that lets go is not latched in the next block, whose goal resumes
its flexor.  So the phase speculates, then rolls back.  The servo runs
ahead up to _CONTACT_BLOCK rows under the block's latched set; one pass
detects their contacts as arrays and one `_assess_rows` call gives every
row's verdict and established fingers, a mask (rows, fingers).  The first
row whose mask differs from the latched one, or whose verdict is stable, is
the event; the rows after it are dropped and the next block starts from its
angles.  Each block leaves one DEBUG record: its first step, the rows it ran
and the rows it kept.

In `monitor` the goal is the frozen posture, so the servo velocity is
exactly 0.  The first step returns the angles it was given, except that a
-0.0 angle becomes +0.0 (x + 0.0), and a step from there toward the same
goal keeps every bit; since `step_servo` is a function of the angles and
the goal alone, every later step repeats it.  So the phase makes at most
one step that changes bits, with a one-row pass when it does; that
posture's contacts, verdict and fingertip positions then stand for every
remaining step, up to VALIDATED_HOLD_STEPS stable ones or the step budget,
and its logged rows are one broadcast of the held row.  Every output is
bit for bit that of one pass per step.

The log is kept as arrays (see `TrajectoryLog`).  Each stacked pass writes
the fingertip positions of its logged rows with one gather of the
end-effector origins and one stacked product with the hand base, which
rounds each row as the one-row `R_b @ t + t_b` does.  The CSV writer
formats each row's time once, and a row whose positions keep the bits of
the row before it reuses that row's formatted positions.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from ._checks import ConfigError, check_numbers
from .contact import _stacked_contacts, closest_point_box
from .grasp_validation import ValidationConfig, _assess_rows, _assessment
from .ik_solver import _LOCKSTEP, IkConfig, _solve
from .kinematics import _clamp, _joint_state, _neutral, _stacked_frames
from .robot_model import KinematicChain
from .scene import Scene, base_from_world

PHASE_PRE_GRASP = "pre_grasp"
PHASE_CONTACT_OPT = "contact_opt"
PHASE_MONITOR = "monitor"

PRE_GRASP_OFFSET = 0.03  # m outward along the approach normal
PRE_GRASP_JOINT_TOL = 1e-3  # rad; phase-1 convergence test
PRE_GRASP_BUDGET_FRACTION = 0.2
VALIDATED_HOLD_STEPS = 50

# Most pre_grasp steps stacked into one kinematics and contact pass, which
# bounds the pass's memory whatever the step budget
_APPROACH_BLOCK = 256
# Most contact_opt rows run ahead of the next event in one stacked pass;
# rows after the event are rolled back, so a longer block wastes more
_CONTACT_BLOCK = 16

# DEBUG records: each finger's IK outcome per solve, each phase transition and
# each contact_opt block
_log = logging.getLogger("graspforge")


@dataclass(frozen=True)
class RunConfig:
    hz: float = 240.0
    max_steps: int = 1000
    joint_rate_limit: float = 4.0  # rad/s; 0 freezes all motion
    servo_gain: float = 20.0  # 1/s
    log_every: int = 1

    def __post_init__(self):
        check_numbers(self)
        if not self.hz > 0.0:
            raise ConfigError("hz must be > 0")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.joint_rate_limit < 0.0:
            raise ConfigError("joint_rate_limit must be >= 0")
        if self.servo_gain < 0.0:
            raise ConfigError("servo_gain must be >= 0")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")


@dataclass(frozen=True)
class LogStep:
    time: float
    positions: dict  # finger -> world end-effector position (3,)
    contact_count: int
    phase: str


# a log row's phase code indexes this tuple
PHASES = (PHASE_PRE_GRASP, PHASE_CONTACT_OPT, PHASE_MONITOR)
_PRE_GRASP, _CONTACT_OPT, _MONITOR = range(len(PHASES))


@dataclass
class TrajectoryLog:
    """The logged control steps, one row each, as arrays: the step indices
    (T,), the world end-effector position of each finger in `fingers` order
    (T, F, 3), the contact counts (T,) and the phase codes (T,), indices
    into PHASES.  A row's time is its step * (1.0 / hz).  `end_step` is the
    step the run ended at, logged or not.
    """

    fingers: tuple[str, ...]
    hz: float
    end_step: int
    control_steps: np.ndarray
    positions: np.ndarray
    contact_counts: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        self.control_steps = np.asarray(self.control_steps, dtype=np.int64)
        self.contact_counts = np.asarray(self.contact_counts, dtype=np.int64)
        self.phases = np.asarray(self.phases, dtype=np.int8)
        self.positions = np.asarray(self.positions, dtype=float).reshape(
            len(self.control_steps), len(self.fingers), 3)

    @property
    def times(self) -> np.ndarray:
        """Each row's time in seconds, step * (1.0 / hz) as the servo counts it."""
        return self.control_steps * (1.0 / self.hz)

    @property
    def steps(self) -> tuple[LogStep, ...]:
        """The rows as `LogStep`s, built on each read from copies of the
        arrays: a view for readers that want records, not one to compute on."""
        return tuple(
            LogStep(time=time, positions=dict(zip(self.fingers, tips.copy())),
                    contact_count=count, phase=PHASES[code])
            for time, tips, count, code in zip(self.times.tolist(), self.positions,
                                               self.contact_counts.tolist(),
                                               self.phases.tolist()))


def step_servo(q: np.ndarray, goal: np.ndarray, run: RunConfig,
               chain: KinematicChain) -> np.ndarray:
    """One explicit-Euler servo step from angles `q` toward `goal` (both in
    `chain.movable` order), limit-clamped.

    With the rate limit inactive the per-step error decay factor is
    1 - servo_gain/hz.
    """
    rate = run.joint_rate_limit
    velocity = _clamp(run.servo_gain * (goal - q), -rate, rate)
    return _clamp(q + velocity * (1.0 / run.hz), chain.lower, chain.upper)


def _fingertips(scene: Scene, t: np.ndarray) -> np.ndarray:
    """World end-effector positions (N, F, 3), fingers in `chain.fingers`
    order, from N rows of link origins (N, L, 3): one gather and one stacked
    product with the hand base, which rounds each row as `R_b @ t + t_b`."""
    ee = [f.end_effector for f in scene.chain.fingers.values()]
    return (scene.hand_base.rotation() @ t[:, ee, :, None])[..., 0] + scene.hand_base.position


def _approach_goal(scene: Scene, targets: dict) -> dict:
    """Pre-grasp waypoints: each target pushed 3 cm out along the box normal.

    Targets arrive in the world frame; the IK works in the hand-base frame.
    """
    staged = {}
    for finger, pose in targets.items():
        _, normal, _ = closest_point_box(pose.position, scene.object)
        staged[finger] = base_from_world(scene, pose.position + PRE_GRASP_OFFSET * normal)
    return staged


def _solve_goal(chain: KinematicChain, targets: dict, q: np.ndarray, ik: IkConfig,
                phase: str) -> np.ndarray:
    """Per-finger IK toward `targets` from angles `q`: `q` clamped, each
    finger's best posture in its columns.  Leaves `solve_hand_ik`'s DEBUG
    record, then one per finger saying why its solve ended, as the solve
    records it: `converged`, `plateau` (its re-seeds spent inside the
    budget) or `budget` (cut by `max_iterations`).
    """
    goal, solves, counts = _solve(chain, targets, q, ik)
    _log.debug(_LOCKSTEP, *counts)
    for finger, s in solves.items():
        _log.debug("%s IK %s: residual %.3g m after %d iterations, converged=%s, ended by %s",
                   phase, finger, s.best_residual, s.iterations, s.ended_by == "converged",
                   s.ended_by)
        goal[s.seeds.columns] = s.best_q
    return goal


def _base_targets(scene: Scene, targets: dict) -> dict:
    return {finger: base_from_world(scene, pose.position)
            for finger, pose in targets.items()}


def _approach(scene: Scene, q: np.ndarray, goal: np.ndarray, run: RunConfig,
              budget: int, rows: list):
    """The pre_grasp phase: servo toward `goal` until every joint is within
    PRE_GRASP_JOINT_TOL of it or `budget` steps are spent (at least one),
    with one stacked pass per _APPROACH_BLOCK steps over the logged ones
    (see the module notes).

    Returns the last angles and their step.  The last step leaves the
    phase, so its log row reads PHASE_CONTACT_OPT.
    """
    chain = scene.chain
    step, done = 0, False
    while not done:
        block = []
        while not done and len(block) < _APPROACH_BLOCK:
            q = step_servo(q, goal, run, chain)
            step += 1
            block.append(q)
            done = step >= budget or (abs(q - goal) < PRE_GRASP_JOINT_TOL).all()
        first = step - len(block) + 1
        steps = [s for s in range(first, step + 1) if s % run.log_every == 0]
        R, t = _stacked_frames(chain, np.array(block)[np.array(steps, dtype=int) - first])
        counts = np.bincount(_stacked_contacts(scene, (R, t))[0], minlength=len(steps))
        rows.append((steps, _fingertips(scene, t), counts.tolist(),
                     [_CONTACT_OPT if done and s == step else _PRE_GRASP for s in steps]))
    return q, step


def _close(scene: Scene, q: np.ndarray, step: int, contact_goal: np.ndarray,
           run: RunConfig, validation: ValidationConfig, rows: list):
    """The contact_opt phase from angles `q` at `step`, at least one step:
    servo toward `contact_goal`, each latched finger's flexor held at its
    angle when the block starts, until the verdict is stable or the step
    budget is spent, in speculated blocks of up to _CONTACT_BLOCK rows (see
    the module notes).  Each block has one goal; a finger that lets go is
    not latched in the next block, whose goal resumes its flexor.

    Returns the angles, step, contact count, verdict and fingertip
    positions (F, 3) of the last kept row.
    """
    chain = scene.chain
    # flexor = second-to-last joint of each finger chain (before the distal)
    flexors = np.array([chain.column_of[f.joints[-2]] for f in chain.fingers.values()])
    finger_of = np.array([list(chain.fingers).index(f) for f in chain.finger_shapes.fingers], int)
    latched = np.zeros(len(flexors), dtype=bool)
    while True:
        goal = contact_goal.copy()
        goal[flexors[latched]] = q[flexors[latched]]
        block = []
        for _ in range(min(_CONTACT_BLOCK, run.max_steps - step)):
            q = step_servo(q, goal, run, chain)
            block.append(q)
        R, t = _stacked_frames(chain, np.array(block))
        at, shape_rows, positions, normals, _, forces = _stacked_contacts(scene, (R, t))
        verdicts = _assess_rows(at, positions, normals, forces, len(block), validation)
        held = verdicts[0]
        established = np.zeros((len(block), len(flexors)), dtype=bool)
        established[at[held], finger_of[shape_rows[held]]] = True
        event = (established != latched).any(axis=1) | (verdicts[-1] == 0)
        kept = int(np.argmax(event)) + 1 if event.any() else len(block)
        assessment = _assessment(verdicts, kept - 1)
        counts = np.bincount(at, minlength=len(block))
        first, step = step + 1, step + kept
        _log.debug("contact_opt block from step %d: %d rows run, %d kept",
                   first, len(block), kept)
        tips = _fingertips(scene, t[:kept])
        logged = [i for i in range(kept) if (first + i) % run.log_every == 0]
        # only the last kept row can be stable: a stable verdict ends the block
        rows.append(([first + i for i in logged], tips[logged], counts[logged].tolist(),
                     [_MONITOR if assessment.stable and i == kept - 1 else _CONTACT_OPT
                      for i in logged]))
        q, latched = block[kept - 1], established[kept - 1]
        if assessment.stable or step >= run.max_steps:
            return q, step, int(counts[kept - 1]), assessment, tips[kept - 1]


def _judge(scene: Scene, q: np.ndarray, validation: ValidationConfig):
    """The verdict, contact count and fingertip positions (F, 3) of the
    angles `q`, from one one-row pass."""
    R, t = _stacked_frames(scene.chain, q[None])
    at, _, positions, normals, _, forces = _stacked_contacts(scene, (R, t))
    return (_assessment(_assess_rows(at, positions, normals, forces, 1, validation), 0),
            len(at), _fingertips(scene, t)[0])


def _monitor(scene: Scene, q: np.ndarray, step: int, count: int, assessment,
             tips: np.ndarray, run: RunConfig, validation: ValidationConfig, rows: list):
    """The monitor phase from the stable posture `q` at `step`, with its
    contact count, verdict and fingertip positions (F, 3): hold the posture
    until VALIDATED_HOLD_STEPS consecutive stable steps or the step budget is
    spent.  At most the first step changes bits; the steps from there on
    repeat it (see the module notes).  Returns the angles, the step the phase
    ended at and the verdict.
    """
    start = step
    # freeze: servo toward the current posture, which moves only a -0.0 angle
    moved = step_servo(q, q, run, scene.chain) if step < run.max_steps else q
    if moved.tobytes() != q.tobytes():
        step, q = step + 1, moved
        assessment, count, tips = _judge(scene, q, validation)
        if step % run.log_every == 0:
            rows.append(([step], tips[None], [count], [_MONITOR]))
    # the steps left repeat the last one, so their logged rows are one broadcast
    end = min(run.max_steps, start + VALIDATED_HOLD_STEPS) if assessment.stable else run.max_steps
    steps = range((step // run.log_every + 1) * run.log_every, end + 1, run.log_every)
    rows.append((steps, np.broadcast_to(tips, (len(steps),) + tips.shape),
                 [count] * len(steps), [_MONITOR] * len(steps)))
    return q, end, assessment


def execute_grasp(scene: Scene, targets: dict, run: RunConfig | None = None,
                  ik: IkConfig | None = None,
                  validation: ValidationConfig | None = None):
    """Run the full grasp sequence; returns (final state, log, assessment)."""
    run = run or RunConfig()
    ik = ik or IkConfig()
    validation = validation or ValidationConfig()
    chain = scene.chain
    q = _neutral(chain)
    # the log's rows, a block of (steps, positions, contact counts, phase
    # codes) per pass
    rows = []

    pre_goal = _solve_goal(chain, _approach_goal(scene, targets), q, ik, PHASE_PRE_GRASP)
    q, step = _approach(
        scene, q, pre_goal, run, int(PRE_GRASP_BUDGET_FRACTION * run.max_steps), rows)
    _log.debug("phase %s -> %s at step %d", PHASE_PRE_GRASP, PHASE_CONTACT_OPT, step)
    contact_goal = _solve_goal(chain, _base_targets(scene, targets), q, ik, PHASE_CONTACT_OPT)
    if step < run.max_steps:
        q, step, count, assessment, tips = _close(
            scene, q, step, contact_goal, run, validation, rows)
        if assessment.stable:
            _log.debug("phase %s -> %s at step %d", PHASE_CONTACT_OPT, PHASE_MONITOR, step)
            q, step, assessment = _monitor(scene, q, step, count, assessment, tips, run,
                                           validation, rows)
    else:
        # the approach spent the step budget (only at max_steps = 1): judge
        # its last step
        assessment = _judge(scene, q, validation)[0]
    steps, tips, counts, phases = zip(*rows)
    flat = itertools.chain.from_iterable
    log = TrajectoryLog(fingers=tuple(chain.fingers), hz=run.hz, end_step=step,
                        control_steps=list(flat(steps)), positions=np.concatenate(tips),
                        contact_counts=list(flat(counts)), phases=list(flat(phases)))
    return _joint_state(chain, q), log, assessment


def write_trajectory_csv(log: TrajectoryLog, fh) -> None:
    """One line per finger per logged row.  Each row's time is formatted
    once, and a row whose positions keep every bit of the row before it
    (the held monitor rows) reuses that row's formatted positions."""
    lines = ["time,finger,x,y,z,contact_count,phase\n"]
    bits = np.ascontiguousarray(log.positions).view(np.uint64)
    repeats = [False] + (bits[1:] == bits[:-1]).all(axis=(1, 2)).tolist()
    for time, tips, count, code, repeat in zip(
            log.times.tolist(), log.positions.tolist(), log.contact_counts.tolist(),
            log.phases.tolist(), repeats):
        if not repeat:
            xyz = [f"{x!r},{y!r},{z!r}" for x, y, z in tips]
        head, tail = f"{time!r},", f",{count},{PHASES[code]}\n"
        lines.extend(f"{head}{finger},{p}{tail}" for finger, p in zip(log.fingers, xyz))
    fh.write("".join(lines))
