"""Two-level grasp execution: phase sequencing over a first-order joint servo.

Phases:
  pre_grasp    stage fingertips 3 cm outside their contact targets
  contact_opt  drive to the true targets; a finger with an established
               contact (`is_established`, the test validation counts by)
               stops advancing its flexor so it presses instead of shoving
  monitor      freeze the posture and re-validate until 50 consecutive
               stable steps (or the step budget runs out)

The servo integrates theta' = clamp(gain * (goal - theta), +-rate) at 1/hz
with explicit Euler and clamps every iterate to joint limits.  The loop
carries one array of joint angles in `chain.movable` order; a `JointState`
is made only for the IK's seed and merged goal and for the final state.

The goal of `pre_grasp` is fixed and the phase reads no contacts, so it
is a function of the servo's states alone: the servo runs step by step, and
the rows that are read (the logged steps and the last step of each block of
up to _APPROACH_BLOCK) go through one stacked forward-kinematics pass and
one stacked contact detection, from which the log entries are written.  The
last row gives the contacts of the step that leaves the phase.

Between events a `contact_opt` step is a function of the angles alone too:
its goal is the contact goal with each latched finger's flexor held at its
current angle.  So the phase speculates, then rolls back.  The servo runs
ahead up to _CONTACT_BLOCK rows under the current latched set, the rows go
through one stacked pass, and they are checked in order: each row's
established fingers, verdict and log entry.  The first row whose
established set differs from the assumed one, or whose verdict is stable,
is the event; the rows after it are dropped and the next block starts from
its angles.  Each block leaves one DEBUG record: its first step, the rows
it ran and the rows it kept.

In `monitor` the goal is the frozen posture, so the servo velocity is
exactly 0 and a step usually returns the angles it was given.  When every
angle keeps its bits (signed zeros included: a step from -0.0 returns
+0.0), the step reuses the last step's contacts, verdict and fingertip
positions, which are functions of the angles alone, instead of computing
them again; otherwise it makes the one-row pass.  Every output is bit for
bit that of one pass per step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._checks import ConfigError, check_numbers
from .contact import _stacked_contacts, closest_point_box
from .grasp_validation import ValidationConfig, is_established, validate_grasp
from .ik_solver import IkConfig, merge_hand_results, solve_hand_ik
from .kinematics import _angles, _clamp, _joint_state, _stacked_frames
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


@dataclass
class TrajectoryLog:
    fingers: tuple[str, ...]
    steps: list[LogStep] = field(default_factory=list)


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


def _ee_positions(scene: Scene, t: np.ndarray) -> dict:
    """World end-effector position per finger, from one row's link origins (L, 3)."""
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    return {finger: R_b @ t[f.end_effector] + t_b for finger, f in scene.chain.fingers.items()}


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
    """Per-finger IK toward `targets` from angles `q`, merged into one goal
    posture, returned as angles.

    Each finger's DEBUG record says why its solve ended: `converged`,
    `plateau` (stopped early, its restarts spent) or `budget` (all
    `max_iterations` used).
    """
    seed = _joint_state(chain, q)
    results = solve_hand_ik(chain, targets, seed, ik)
    for finger, r in results.items():
        ended = ("converged" if r.converged
                 else "plateau" if r.iterations < ik.max_iterations else "budget")
        _log.debug("%s IK %s: residual %.3g m after %d iterations, converged=%s, ended by %s",
                   phase, finger, r.residual, r.iterations, r.converged, ended)
    return _angles(chain, merge_hand_results(chain, seed, results))


def _base_targets(scene: Scene, targets: dict) -> dict:
    return {finger: base_from_world(scene, pose.position)
            for finger, pose in targets.items()}


def _log_step(log: TrajectoryLog, run: RunConfig, step: int, positions: dict,
              contacts: list, phase: str) -> None:
    log.steps.append(LogStep(time=step * (1.0 / run.hz), positions=positions,
                             contact_count=len(contacts), phase=phase))


def _approach(scene: Scene, q: np.ndarray, goal: np.ndarray, run: RunConfig,
              budget: int, log: TrajectoryLog):
    """The pre_grasp phase: servo toward `goal` until every joint is within
    PRE_GRASP_JOINT_TOL of it or `budget` steps are spent (at least one),
    with one stacked pass per _APPROACH_BLOCK steps over the steps it reads:
    the logged ones and the block's last (see the module notes).

    Returns the last angles, their step and contacts.  The last step leaves
    the phase, so its log entry reads PHASE_CONTACT_OPT.
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
        read = [s for s in range(first, step + 1) if s % run.log_every == 0 or s == step]
        R, t = _stacked_frames(chain, np.array([block[s - first] for s in read]))
        contacts = _stacked_contacts(scene, (R, t))
        for i, logged in enumerate(read):
            if logged % run.log_every == 0:
                _log_step(log, run, logged, _ee_positions(scene, t[i]), contacts[i],
                          PHASE_CONTACT_OPT if done and logged == step else PHASE_PRE_GRASP)
    return q, step, contacts[-1]


def _close(scene: Scene, q: np.ndarray, step: int, contact_goal: np.ndarray,
           run: RunConfig, validation: ValidationConfig, log: TrajectoryLog):
    """The contact_opt phase from angles `q` at `step`, at least one step:
    servo toward `contact_goal`, each latched finger's flexor held where it
    is, until the verdict is stable or the step budget is spent, in
    speculated blocks of up to _CONTACT_BLOCK rows (see the module notes).

    Returns the angles, step, contacts, verdict and fingertip positions of
    the last kept row; the positions are None unless the row was logged or
    its verdict is stable.
    """
    chain = scene.chain
    # flexor = second-to-last joint of each finger chain (before the distal)
    flexor_of = {name: chain.column_of[f.joints[-2]] for name, f in chain.fingers.items()}
    goal, latched = contact_goal, set()
    while True:
        flexors = [flexor_of[finger] for finger in latched]
        rows, goals = [], []
        for _ in range(min(_CONTACT_BLOCK, run.max_steps - step)):
            if latched:
                goal = contact_goal.copy()
                goal[flexors] = q[flexors]
            q = step_servo(q, goal, run, chain)
            rows.append(q)
            goals.append(goal)
        R, t = _stacked_frames(chain, np.array(rows))
        for kept, contacts in enumerate(_stacked_contacts(scene, (R, t)), start=1):
            step += 1
            assessment = validate_grasp(contacts, validation)
            logged = step % run.log_every == 0
            positions = (_ee_positions(scene, t[kept - 1])
                         if logged or assessment.stable else None)
            if logged:
                _log_step(log, run, step, positions, contacts,
                          PHASE_MONITOR if assessment.stable else PHASE_CONTACT_OPT)
            established = {c.finger for c in contacts if is_established(c, validation)}
            if established != latched or assessment.stable:
                break
        _log.debug("contact_opt block from step %d: %d rows run, %d kept",
                   step - kept + 1, len(rows), kept)
        q, goal, latched = rows[kept - 1], goals[kept - 1], established
        if assessment.stable or step >= run.max_steps:
            return q, step, contacts, assessment, positions


def _monitor(scene: Scene, q: np.ndarray, step: int, contacts: list, assessment,
             positions: dict, run: RunConfig, validation: ValidationConfig,
             log: TrajectoryLog):
    """The monitor phase from the stable posture `q` at `step`, with its
    contacts, verdict and fingertip positions: hold the posture until
    VALIDATED_HOLD_STEPS consecutive stable steps or the step budget is
    spent.  A step that returns its angles bit for bit reuses the last
    step's contacts, verdict and positions.  Returns the angles and verdict.
    """
    chain = scene.chain
    goal, hold_count = q, 0  # freeze: servo toward the current posture
    while step < run.max_steps and hold_count < VALIDATED_HOLD_STEPS:
        step += 1
        moved = step_servo(q, goal, run, chain)
        held = moved.tobytes() == q.tobytes()
        q = moved
        if not held:
            R, t = _stacked_frames(chain, q[None])
            contacts = _stacked_contacts(scene, (R, t))[0]
            assessment = validate_grasp(contacts, validation)
            positions = None
        hold_count = hold_count + 1 if assessment.stable else 0
        if step % run.log_every == 0:
            if positions is None:
                positions = _ee_positions(scene, t[0])
            _log_step(log, run, step, positions, contacts, PHASE_MONITOR)
    return q, assessment


def execute_grasp(scene: Scene, targets: dict, run: RunConfig | None = None,
                  ik: IkConfig | None = None,
                  validation: ValidationConfig | None = None):
    """Run the full grasp sequence; returns (final state, log, assessment)."""
    run = run or RunConfig()
    ik = ik or IkConfig()
    validation = validation or ValidationConfig()
    chain = scene.chain
    q = _clamp(np.zeros(len(chain.movable)), chain.lower, chain.upper)  # neutral_state

    log = TrajectoryLog(fingers=tuple(chain.fingers))

    pre_goal = _solve_goal(chain, _approach_goal(scene, targets), q, ik, PHASE_PRE_GRASP)
    q, step, contacts = _approach(
        scene, q, pre_goal, run, int(PRE_GRASP_BUDGET_FRACTION * run.max_steps), log)
    _log.debug("phase %s -> %s at step %d", PHASE_PRE_GRASP, PHASE_CONTACT_OPT, step)
    contact_goal = _solve_goal(chain, _base_targets(scene, targets), q, ik, PHASE_CONTACT_OPT)
    if step >= run.max_steps:
        # the approach spent the step budget: report the contacts its last
        # step detected
        return _joint_state(chain, q), log, validate_grasp(contacts, validation)
    q, step, contacts, assessment, positions = _close(
        scene, q, step, contact_goal, run, validation, log)
    if assessment.stable:
        _log.debug("phase %s -> %s at step %d", PHASE_CONTACT_OPT, PHASE_MONITOR, step)
        q, assessment = _monitor(scene, q, step, contacts, assessment, positions, run,
                                 validation, log)
    return _joint_state(chain, q), log, assessment


def write_trajectory_csv(log: TrajectoryLog, fh) -> None:
    fh.write("time,finger,x,y,z,contact_count,phase\n")
    for entry in log.steps:
        for finger in log.fingers:
            x, y, z = entry.positions[finger].tolist()
            fh.write(f"{entry.time!r},{finger},{x!r},{y!r},{z!r},"
                     f"{entry.contact_count},{entry.phase}\n")
