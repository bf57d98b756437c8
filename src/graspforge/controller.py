"""Two-level grasp execution: phase sequencing over a first-order joint servo.

Phases:
  pre_grasp    stage fingertips 3 cm outside their contact targets
  contact_opt  drive to the true targets; a finger with an established
               contact (`is_established`, the test validation counts by)
               stops advancing its flexor so it presses instead of shoving
  monitor      freeze the posture and re-validate until 50 consecutive
               stable steps (or the step budget runs out)

The servo integrates theta' = clamp(gain * (goal - theta), +-rate) at 1/hz
with explicit Euler and clamps every iterate to joint limits.

The goal of `pre_grasp` is fixed and the phase reads no contacts, so it
is a function of the servo's states alone: the servo runs step by step,
each state becomes a row, and the rows (up to _APPROACH_BLOCK at a time)
go through one stacked forward-kinematics pass and one stacked contact
detection, from which the log entries are written.  The last row gives the
frames and contacts of the step that leaves the phase.  Each `contact_opt`
step makes one forward-kinematics pass (`link_frames`), which feeds both
contact detection and the fingertip log.  In `monitor` the goal is the
frozen posture, so the servo velocity is exactly 0 and a step usually
returns the state it was given.  When every joint value keeps its bits
(signed zeros included: a step from -0.0 returns +0.0), the step reuses the
last step's frames, contacts, verdict and fingertip positions, which are
functions of the state alone, instead of computing them again.  Every
output is bit for bit that of one pass per step.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .contact import _stacked_contacts, closest_point_box, detect_contacts
from .grasp_validation import ValidationConfig, is_established, validate_grasp
from .ik_solver import IkConfig, merge_hand_results, solve_hand_ik
from .kinematics import JointState, _stacked_frames, clamp_to_limits, link_frames, neutral_state
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

# DEBUG records: each finger's IK outcome per solve and each phase transition
_log = logging.getLogger("graspforge")


class RunConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    hz: float = 240.0
    max_steps: int = 1000
    joint_rate_limit: float = 4.0  # rad/s; 0 freezes all motion
    servo_gain: float = 20.0  # 1/s
    log_every: int = 1

    def __post_init__(self):
        for name in ("max_steps", "log_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise RunConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("hz", "joint_rate_limit", "servo_gain"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise RunConfigError(f"{name} must be a finite number, got {value!r}")
        if not self.hz > 0.0:
            raise RunConfigError("hz must be > 0")
        if self.max_steps < 1:
            raise RunConfigError("max_steps must be >= 1")
        if self.joint_rate_limit < 0.0:
            raise RunConfigError("joint_rate_limit must be >= 0")
        if self.servo_gain < 0.0:
            raise RunConfigError("servo_gain must be >= 0")
        if self.log_every < 1:
            raise RunConfigError("log_every must be >= 1")


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


def step_servo(state: JointState, goal: JointState, run: RunConfig,
               chain: KinematicChain) -> JointState:
    """One explicit-Euler servo step toward `goal`, limit-clamped.

    Joints absent from `goal` hold their current value.  With the rate limit
    inactive the per-step error decay factor is 1 - servo_gain/hz.
    """
    dt = 1.0 / run.hz
    rate = run.joint_rate_limit
    new_values = {}
    for ji, theta in state.values.items():
        target = goal.values.get(ji, theta)
        velocity = run.servo_gain * (target - theta)
        velocity = min(max(velocity, -rate), rate)
        new_values[ji] = theta + velocity * dt
    return clamp_to_limits(chain, JointState(values=new_values))


def _same_bits(a: JointState, b: JointState) -> bool:
    """True when both states hold the same joints with bitwise equal values.

    Signed zeros count: a servo step from -0.0 returns +0.0, whose frames
    may differ in the last bit.
    """
    return a.values.keys() == b.values.keys() and all(
        x == b.values[ji] and math.copysign(1.0, x) == math.copysign(1.0, b.values[ji])
        for ji, x in a.values.items())


def _ee_positions(scene: Scene, frames: tuple) -> dict:
    """World end-effector position per finger, from the step's `link_frames`."""
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    _, t = frames
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


def _solve_goal(chain: KinematicChain, targets: dict, state: JointState, ik: IkConfig,
                phase: str) -> JointState:
    """Per-finger IK toward `targets` from `state`, merged into one goal posture.

    Each finger's DEBUG record says why its solve ended: `converged`,
    `plateau` (stopped early, its restarts spent) or `budget` (all
    `max_iterations` used).
    """
    results = solve_hand_ik(chain, targets, state, ik)
    for finger, r in results.items():
        ended = ("converged" if r.converged
                 else "plateau" if r.iterations < ik.max_iterations else "budget")
        _log.debug("%s IK %s: residual %.3g m after %d iterations, converged=%s, ended by %s",
                   phase, finger, r.residual, r.iterations, r.converged, ended)
    return merge_hand_results(chain, state, results)


def _base_targets(scene: Scene, targets: dict) -> dict:
    return {finger: base_from_world(scene, pose.position)
            for finger, pose in targets.items()}


def _approach(scene: Scene, state: JointState, goal: JointState, run: RunConfig,
              budget: int, log: TrajectoryLog):
    """The pre_grasp phase: servo toward `goal` until every joint is within
    PRE_GRASP_JOINT_TOL of it or `budget` steps are spent (at least one),
    with one stacked pass per _APPROACH_BLOCK steps (see the module notes).

    Returns the last state, its step, frames and contacts.  The last step
    leaves the phase, so its log entry reads PHASE_CONTACT_OPT.
    """
    chain = scene.chain
    step, done = 0, False
    while not done:
        rows = []
        while not done and len(rows) < _APPROACH_BLOCK:
            state = step_servo(state, goal, run, chain)
            step += 1
            rows.append([state.values[ji] for ji in chain.movable])
            done = step >= budget or all(
                abs(state.values[ji] - goal.values[ji]) < PRE_GRASP_JOINT_TOL
                for ji in state.values)
        R, t = _stacked_frames(chain, np.array(rows, dtype=float))
        contacts = _stacked_contacts(scene, (R, t))
        for i, logged in enumerate(range(step - len(rows) + 1, step + 1)):
            if logged % run.log_every == 0:
                log.steps.append(LogStep(
                    time=logged * (1.0 / run.hz),
                    positions=_ee_positions(scene, (R[i], t[i])),
                    contact_count=len(contacts[i]),
                    phase=PHASE_CONTACT_OPT if done and logged == step else PHASE_PRE_GRASP,
                ))
    return state, step, (R[-1], t[-1]), contacts[-1]


def execute_grasp(scene: Scene, targets: dict, run: RunConfig | None = None,
                  ik: IkConfig | None = None,
                  validation: ValidationConfig | None = None):
    """Run the full grasp sequence; returns (final state, log, assessment)."""
    run = run or RunConfig()
    ik = ik or IkConfig()
    validation = validation or ValidationConfig()
    chain = scene.chain
    state = neutral_state(chain)

    log = TrajectoryLog(fingers=tuple(chain.fingers))
    dt = 1.0 / run.hz

    pre_goal = _solve_goal(chain, _approach_goal(scene, targets), state, ik, PHASE_PRE_GRASP)
    state, step, frames, contacts = _approach(
        scene, state, pre_goal, run, int(PRE_GRASP_BUDGET_FRACTION * run.max_steps), log)
    phase = PHASE_CONTACT_OPT
    _log.debug("phase %s -> %s at step %d", PHASE_PRE_GRASP, phase, step)
    contact_goal = _solve_goal(chain, _base_targets(scene, targets), state, ik,
                               PHASE_CONTACT_OPT)
    goal = contact_goal
    # flexor = second-to-last joint of each finger chain (before the distal)
    flexor_of = {name: f.joints[-2] for name, f in chain.fingers.items()}
    latched: set = set()
    hold_count = 0

    while step < run.max_steps:
        step += 1
        if phase == PHASE_CONTACT_OPT and latched:
            goal = contact_goal.copy()
            for finger in latched:
                ji = flexor_of[finger]
                goal.values[ji] = state.values[ji]
        moved = step_servo(state, goal, run, chain)
        # a monitor step that returns its input bit for bit reuses the last
        # step's frames, contacts, verdict and fingertip positions
        held = phase == PHASE_MONITOR and _same_bits(moved, state)
        state = moved
        if not held:
            frames = link_frames(chain, state)
            contacts = detect_contacts(scene, state, frames=frames)
            positions = None

        if phase == PHASE_CONTACT_OPT:
            latched = {c.finger for c in contacts if is_established(c, validation)}
            assessment = validate_grasp(contacts, validation)
            if assessment.stable:
                phase = PHASE_MONITOR
                _log.debug("phase %s -> %s at step %d", PHASE_CONTACT_OPT, phase, step)
                goal = state.copy()  # freeze: servo toward the current posture
                hold_count = 0
        else:  # monitor
            if not held:
                assessment = validate_grasp(contacts, validation)
            hold_count = hold_count + 1 if assessment.stable else 0

        if step % run.log_every == 0:
            if positions is None:
                positions = _ee_positions(scene, frames)
            log.steps.append(LogStep(
                time=step * dt,
                positions=positions,
                contact_count=len(contacts),
                phase=phase,
            ))
        if hold_count >= VALIDATED_HOLD_STEPS:
            break

    if phase != PHASE_MONITOR:
        # budget ran out before validation ever passed: report the end state,
        # whose contacts the last step detected
        assessment = validate_grasp(contacts, validation)
    return state, log, assessment


def write_trajectory_csv(log: TrajectoryLog, fh) -> None:
    fh.write("time,finger,x,y,z,contact_count,phase\n")
    for entry in log.steps:
        for finger in log.fingers:
            x, y, z = (float(v) for v in entry.positions[finger])
            fh.write(f"{entry.time!r},{finger},{x!r},{y!r},{z!r},"
                     f"{entry.contact_count},{entry.phase}\n")
