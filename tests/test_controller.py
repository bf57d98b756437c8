import io

import numpy as np
import pytest

from graspforge.controller import (PHASE_CONTACT_OPT, PHASE_MONITOR, PHASE_PRE_GRASP,
                                   LogStep, RunConfig, RunConfigError, TrajectoryLog,
                                   execute_grasp, step_servo, write_trajectory_csv)
from graspforge.kinematics import neutral_state
from graspforge.scene import Scene, default_scene, make_box_object
from graspforge.kinematics import Pose

PHASE_ORDER = {PHASE_PRE_GRASP: 0, PHASE_CONTACT_OPT: 1, PHASE_MONITOR: 2}


class TestRunConfig:
    @pytest.mark.parametrize("kwargs", [
        {"hz": 0.0},
        {"hz": -240.0},
        {"max_steps": 0},
        {"joint_rate_limit": -1.0},
        {"servo_gain": -0.5},
        {"log_every": 0},
        {"max_steps": 2.5},
        {"max_steps": True},
        {"log_every": 1.5},
        {"log_every": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(RunConfigError):
            RunConfig(**kwargs)

    def test_defaults(self):
        run = RunConfig()
        assert run.hz == 240.0
        assert run.log_every == 1


class TestStepServo:
    def test_small_error_decays_by_gain_over_hz(self, chain):
        state = neutral_state(chain)
        ji = chain.fingers["index"].joints[1]
        goal = state.copy()
        goal.values[ji] = state.values[ji] + 0.001
        run = RunConfig(servo_gain=20.0, hz=240.0, joint_rate_limit=4.0)
        nxt = step_servo(state, goal, run, chain)
        # velocity = gain * err, well below the rate limit
        assert nxt.values[ji] - state.values[ji] == pytest.approx(0.001 * 20.0 / 240.0)

    def test_large_error_hits_the_rate_limit(self, chain):
        state = neutral_state(chain)
        ji = chain.fingers["index"].joints[1]
        goal = state.copy()
        goal.values[ji] = state.values[ji] + 10.0
        run = RunConfig(servo_gain=20.0, hz=240.0, joint_rate_limit=4.0)
        nxt = step_servo(state, goal, run, chain)
        assert nxt.values[ji] - state.values[ji] == pytest.approx(4.0 / 240.0)

    def test_joints_missing_from_goal_hold_still(self, chain):
        state = neutral_state(chain)
        from graspforge.kinematics import JointState
        nxt = step_servo(state, JointState(values={}), RunConfig(), chain)
        assert nxt.values == state.values

    def test_result_is_always_within_limits(self, chain):
        state = neutral_state(chain)
        ji = chain.fingers["index"].joints[1]
        goal = state.copy()
        goal.values[ji] = 100.0
        run = RunConfig(joint_rate_limit=1e6, servo_gain=1e6)
        nxt = step_servo(state, goal, run, chain)
        assert nxt.values[ji] == chain.joints[ji].upper_limit


class TestExecuteGrasp:
    def test_bundled_scenario_reaches_a_stable_grasp(self, scenario, grasp_run):
        state, log, assessment = grasp_run
        assert assessment.stable
        assert assessment.contact_count >= scenario.validation.min_contacts
        assert len(log.steps) <= scenario.run.max_steps

    def test_bundled_run_steps_are_pinned(self, scenario, grasp_run):
        """The bundled grasp first validates at step 115 and holds 50 steps."""
        _, log, _ = grasp_run
        assert scenario.run.log_every == 1  # one log entry per control step
        assert len(log.steps) == 165
        first_monitor = next(step for step, s in enumerate(log.steps, start=1)
                             if s.phase == PHASE_MONITOR)
        assert first_monitor == 115

    def test_phases_advance_in_order(self, grasp_run):
        _, log, _ = grasp_run
        ranks = [PHASE_ORDER[s.phase] for s in log.steps]
        assert ranks[0] == PHASE_ORDER[PHASE_PRE_GRASP]
        assert ranks[-1] == PHASE_ORDER[PHASE_MONITOR]
        assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))

    def test_contact_count_never_drops_during_the_run(self, grasp_run):
        _, log, _ = grasp_run
        counts = [s.contact_count for s in log.steps]
        assert counts == sorted(counts)
        assert counts[-1] >= 4

    def test_monitor_phase_holds_every_finger_still(self, grasp_run):
        _, log, _ = grasp_run
        monitor = [s for s in log.steps if s.phase == PHASE_MONITOR]
        assert len(monitor) >= 2
        first = monitor[0]
        for s in monitor[1:]:
            for finger, p in s.positions.items():
                assert np.array_equal(p, first.positions[finger])

    def test_final_fingertips_land_near_their_targets(self, scenario, grasp_run):
        _, log, _ = grasp_run
        last = log.steps[-1]
        for finger, pose in scenario.targets.items():
            err = np.linalg.norm(last.positions[finger] - pose.position)
            assert err < 0.1, f"{finger} missed by {err:.4f} m"

    def test_log_timing_matches_the_rate(self, scenario, grasp_run):
        _, log, _ = grasp_run
        dt = 1.0 / scenario.run.hz
        for i, s in enumerate(log.steps, start=1):
            assert s.time == pytest.approx(i * dt)

    def test_runs_are_bit_deterministic(self, scenario):
        run = RunConfig(max_steps=25)
        a = execute_grasp(scenario.scene, scenario.targets, run, scenario.ik,
                          scenario.validation)
        b = execute_grasp(scenario.scene, scenario.targets, run, scenario.ik,
                          scenario.validation)
        for sa, sb in zip(a[1].steps, b[1].steps):
            assert sa.joints == sb.joints
            for f in sa.positions:
                assert np.array_equal(sa.positions[f], sb.positions[f])

    def test_zero_rate_limit_freezes_the_hand(self, scenario):
        run = RunConfig(max_steps=5, joint_rate_limit=0.0)
        state, log, assessment = execute_grasp(scenario.scene, scenario.targets,
                                               run, scenario.ik, scenario.validation)
        start = neutral_state(scenario.scene.chain)
        assert state.values == start.values
        assert not assessment.stable

    def test_unreachable_object_reports_too_few_contacts(self, scenario):
        from graspforge.grasp_validation import FAILURE_TOO_FEW
        scene = scenario.scene
        far = make_box_object(scene.object.half_extents,
                              Pose(position=(5.0, 0.0, 0.188)), scene.object.mass,
                              scene.object.params)
        far_scene = Scene(chain=scene.chain, hand_base=scene.hand_base, object=far)
        run = RunConfig(max_steps=30)
        _, log, assessment = execute_grasp(far_scene, scenario.targets, run,
                                           scenario.ik, scenario.validation)
        assert not assessment.stable
        assert assessment.failure_reason == FAILURE_TOO_FEW
        assert len(log.steps) == 30  # never validated, so never broke out early

    def test_log_every_thins_the_log(self, scenario):
        run = RunConfig(max_steps=7, log_every=3)
        _, log, _ = execute_grasp(scenario.scene, scenario.targets, run,
                                  scenario.ik, scenario.validation)
        times = [s.time for s in log.steps]
        assert times == pytest.approx([3 / 240.0, 6 / 240.0])


def test_trajectory_csv_golden():
    log = TrajectoryLog(fingers=("index",), steps=[
        LogStep(time=0.5, positions={"index": np.array([0.1, -0.2, 0.3])},
                joints={0: 0.0}, contact_count=2, phase="monitor"),
    ])
    buf = io.StringIO()
    write_trajectory_csv(log, buf)
    assert buf.getvalue() == ("time,finger,x,y,z,contact_count,phase\n"
                              "0.5,index,0.1,-0.2,0.3,2,monitor\n")


def test_trajectory_csv_has_no_numpy_reprs(grasp_run):
    _, log, _ = grasp_run
    buf = io.StringIO()
    write_trajectory_csv(log, buf)
    text = buf.getvalue()
    assert "np.float64" not in text
    # one row per finger per logged step, plus the header
    assert len(text.splitlines()) == 1 + 5 * len(log.steps)
