"""Two-level grasp execution: phase sequencing over a first-order joint servo.

Phases:
  pre_grasp    stage fingertips 3 cm outside their contact targets
  contact_opt  drive to the true targets; a finger in contact stops
               advancing its flexor so it presses instead of shoving
  monitor      freeze the posture and re-validate until 50 consecutive
               stable steps (or the step budget runs out)

The servo integrates theta' = clamp(gain * (goal - theta), +-rate) at 1/hz
with explicit Euler and clamps every iterate to joint limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import closest_point_box, detect_contacts
from .grasp_validation import (FAILURE_TOO_FEW, GraspAssessment, ValidationConfig,
                               validate_grasp)
from .ik_solver import IkConfig, merge_hand_results, solve_hand_ik
from .kinematics import JointState, clamp_to_limits, link_transform, neutral_state
from .robot_model import KinematicChain
from .scene import Scene, base_from_world

PHASE_PRE_GRASP = "pre_grasp"
PHASE_CONTACT_OPT = "contact_opt"
PHASE_MONITOR = "monitor"

PRE_GRASP_OFFSET = 0.03  # m outward along the approach normal
PRE_GRASP_JOINT_TOL = 1e-3  # rad; phase-1 convergence test
PRE_GRASP_BUDGET_FRACTION = 0.2
VALIDATED_HOLD_STEPS = 50


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
    joints: dict  # joint index -> angle
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


def _ee_positions(scene: Scene, state: JointState) -> dict:
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    out = {}
    for finger, f in scene.chain.fingers.items():
        _, p = link_transform(scene.chain, state, f.end_effector)
        out[finger] = R_b @ p + t_b
    return out


def _approach_goal(scene: Scene, targets: dict) -> dict:
    """Pre-grasp waypoints: each target pushed 3 cm out along the box normal.

    Targets arrive in the world frame; the IK works in the hand-base frame.
    """
    staged = {}
    for finger, pose in targets.items():
        _, normal, _ = closest_point_box(pose.position, scene.object)
        staged[finger] = base_from_world(scene, pose.position + PRE_GRASP_OFFSET * normal)
    return staged


def _base_targets(scene: Scene, targets: dict) -> dict:
    return {finger: base_from_world(scene, pose.position)
            for finger, pose in targets.items()}


def execute_grasp(scene: Scene, targets: dict, run: RunConfig | None = None,
                  ik: IkConfig | None = None,
                  validation: ValidationConfig | None = None,
                  initial_state: JointState | None = None):
    """Run the full grasp sequence; returns (final state, log, assessment)."""
    run = run or RunConfig()
    ik = ik or IkConfig()
    validation = validation or ValidationConfig()
    chain = scene.chain
    state = clamp_to_limits(chain, initial_state.copy()) if initial_state is not None \
        else neutral_state(chain)

    log = TrajectoryLog(fingers=tuple(chain.fingers))
    dt = 1.0 / run.hz

    pre_goal = merge_hand_results(
        chain, state, solve_hand_ik(chain, _approach_goal(scene, targets), state, ik))

    phase = PHASE_PRE_GRASP
    phase1_budget = int(PRE_GRASP_BUDGET_FRACTION * run.max_steps)
    goal = pre_goal
    # flexor = second-to-last joint of each finger chain (before the distal)
    flexor_of = {name: f.joints[-2] for name, f in chain.fingers.items()}
    latched: set = set()
    hold_count = 0
    assessment = GraspAssessment(stable=False, contact_count=0, center=np.zeros(3),
                                 max_distance=0.0, closure_residual=0.0,
                                 failure_reason=FAILURE_TOO_FEW)

    contact_goal = None
    step = 0
    while step < run.max_steps:
        step += 1
        if phase == PHASE_CONTACT_OPT and latched:
            goal = contact_goal.copy()
            for finger in latched:
                ji = flexor_of[finger]
                goal.values[ji] = state.values[ji]
        state = step_servo(state, goal, run, chain)
        contacts = detect_contacts(scene, state)

        if phase == PHASE_PRE_GRASP:
            done = all(abs(state.values[ji] - pre_goal.values.get(ji, state.values[ji]))
                       < PRE_GRASP_JOINT_TOL for ji in state.values)
            if done or step >= phase1_budget:
                phase = PHASE_CONTACT_OPT
                contact_goal = merge_hand_results(
                    chain, state, solve_hand_ik(chain, _base_targets(scene, targets), state, ik))
                goal = contact_goal
        elif phase == PHASE_CONTACT_OPT:
            latched = {c.finger for c in contacts
                       if c.normal_force > validation.min_contact_force}
            assessment = validate_grasp(contacts, validation)
            if assessment.stable:
                phase = PHASE_MONITOR
                goal = state.copy()  # freeze: servo toward the current posture
                hold_count = 0
        else:  # monitor
            assessment = validate_grasp(contacts, validation)
            hold_count = hold_count + 1 if assessment.stable else 0

        if step % run.log_every == 0:
            log.steps.append(LogStep(
                time=step * dt,
                positions=_ee_positions(scene, state),
                joints=dict(state.values),
                contact_count=len(contacts),
                phase=phase,
            ))
        if hold_count >= VALIDATED_HOLD_STEPS:
            break

    if phase != PHASE_MONITOR:
        # budget ran out before validation ever passed: report the end state
        assessment = validate_grasp(detect_contacts(scene, state), validation)
    return state, log, assessment


def write_trajectory_csv(log: TrajectoryLog, fh) -> None:
    fh.write("time,finger,x,y,z,contact_count,phase\n")
    for entry in log.steps:
        for finger in log.fingers:
            x, y, z = (float(v) for v in entry.positions[finger])
            fh.write(f"{entry.time!r},{finger},{x!r},{y!r},{z!r},"
                     f"{entry.contact_count},{entry.phase}\n")
