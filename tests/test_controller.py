import dataclasses
import hashlib
import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.config import ConfigError, default_scenario_path, load_scenario
from graspforge.contact import ContactPoint, detect_contacts
from graspforge.controller import (PHASE_CONTACT_OPT, PHASE_MONITOR, PHASE_PRE_GRASP, PHASES,
                                   VALIDATED_HOLD_STEPS, RunConfig, TrajectoryLog, _solve_goal,
                                   execute_grasp, step_servo, write_trajectory_csv)
from graspforge.grasp_validation import validate_grasp
from graspforge.ik_solver import IkConfig
from graspforge.kinematics import Pose, _angles, _joint_state, link_frames, neutral_state
from graspforge.robot_model import parse_robot_description
from graspforge.scene import Scene, default_scene, make_box_object

from conftest import TWO_LINK_ARM, joint_rows
from reference import reference_step_servo

PHASE_ORDER = {PHASE_PRE_GRASP: 0, PHASE_CONTACT_OPT: 1, PHASE_MONITOR: 2}


def _phases(log):
    """The phase name of each log row."""
    return [PHASES[code] for code in log.phases.tolist()]


def _passes_per_step(events):
    """Per control step: (servo left the state's bits unchanged, frames passes)."""
    steps = []
    for e in events:
        if isinstance(e, bool):
            steps.append([e, 0])
        elif e == "frames":
            steps[-1][1] += 1
    return [tuple(s) for s in steps]


def _fresh_tips(scene, state):
    """World fingertip positions (F, 3) of `state`, one `R_b @ t + t_b` per finger."""
    _, t = link_frames(scene.chain, state)
    R_b, t_b = scene.hand_base.rotation(), scene.hand_base.position
    return np.array([R_b @ t[f.end_effector] + t_b for f in scene.chain.fingers.values()])


def _row_contacts(chain, contacts, row):
    """The `ContactPoint`s of one row of a `_stacked_contacts` set, in order."""
    at, shape_rows, positions, normals, depths, forces = contacts
    shapes, mine = chain.finger_shapes, at == row
    return [ContactPoint(finger=shapes.fingers[s], link=int(shapes.links[s]), position=p,
                         normal=n, penetration_depth=d, normal_force=f)
            for s, p, n, d, f in zip(shape_rows[mine].tolist(), positions[mine], normals[mine],
                                     depths[mine].tolist(), forces[mine].tolist())]


def _assert_hold_matches_final_state(scenario, state, log, assessment, held):
    """The verdict and the log rows `held` (a slice or mask) equal a fresh
    pass on the final state."""
    scene = scenario.scene
    contacts = detect_contacts(scene, state)
    expected = validate_grasp(contacts, scenario.validation)
    assert assessment.to_dict() == expected.to_dict()
    assert assessment.center.tobytes() == expected.center.tobytes()
    tips = _fresh_tips(scene, state)
    assert len(log.control_steps[held])
    assert (log.phases[held] == PHASES.index(PHASE_MONITOR)).all()
    assert (log.contact_counts[held] == len(contacts)).all()
    for row in log.positions[held]:
        assert row.tobytes() == tips.tobytes()


def _far_box_scene(scenario):
    """The bundled scene with the box moved out of the hand's reach."""
    scene = scenario.scene
    far = make_box_object(scene.object.half_extents, Pose(position=(5.0, 0.0, 0.188)),
                          scene.object.mass, scene.object.params)
    return Scene(chain=scene.chain, hand_base=scene.hand_base, object=far)


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
        {"hz": float("inf")},
        {"hz": float("nan")},
        {"joint_rate_limit": float("nan")},
        {"joint_rate_limit": float("inf")},
        {"servo_gain": float("nan")},
        {"servo_gain": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_defaults(self):
        run = RunConfig()
        assert run.hz == 240.0
        assert run.log_every == 1


class TestStepServo:
    def test_small_error_decays_by_gain_over_hz(self, chain):
        q = _angles(chain, neutral_state(chain))
        c = chain.column_of[chain.fingers["index"].joints[1]]
        goal = q.copy()
        goal[c] += 0.001
        run = RunConfig(servo_gain=20.0, hz=240.0, joint_rate_limit=4.0)
        nxt = step_servo(q, goal, run, chain)
        # velocity = gain * err, well below the rate limit
        assert nxt[c] - q[c] == pytest.approx(0.001 * 20.0 / 240.0)
        assert np.delete(nxt, c).tobytes() == np.delete(q, c).tobytes()

    def test_large_error_hits_the_rate_limit(self, chain):
        q = _angles(chain, neutral_state(chain))
        c = chain.column_of[chain.fingers["index"].joints[1]]
        goal = q.copy()
        goal[c] += 10.0
        run = RunConfig(servo_gain=20.0, hz=240.0, joint_rate_limit=4.0)
        nxt = step_servo(q, goal, run, chain)
        assert nxt[c] - q[c] == pytest.approx(4.0 / 240.0)

    def test_result_is_always_within_limits(self, chain):
        q = _angles(chain, neutral_state(chain))
        c = chain.column_of[chain.fingers["index"].joints[1]]
        goal = q.copy()
        goal[c] = 100.0
        run = RunConfig(joint_rate_limit=1e6, servo_gain=1e6)
        nxt = step_servo(q, goal, run, chain)
        assert nxt[c] == chain.upper[c]

    @given(st.data(),
           st.sampled_from([0, 0.0, 1e-3, 0.5, 4.0, 1e6]) | st.floats(0.0, 10.0),
           st.sampled_from([0.0, 20.0, 1e6]) | st.floats(0.0, 100.0),
           st.sampled_from([240.0, 1.0]) | st.floats(1.0, 1000.0))
    def test_equals_the_dict_reference_bitwise(self, chain, data, rate, gain, hz):
        """Angles drawn as `conftest.joint_rows` (+-0.0 and limit-pinned
        values), goals up to 1 rad outside the limits or equal to the angles
        (zero velocity), and rates that freeze, bind or stay loose."""
        run = RunConfig(hz=hz, joint_rate_limit=rate, servo_gain=gain)
        rows = data.draw(joint_rows(chain))
        goals = data.draw(joint_rows(chain, margin=1.0))
        still = data.draw(st.integers(0, len(rows) - 1))
        for k, q in enumerate(rows):
            goal = q if k == still else goals[k % len(goals)]
            expected = reference_step_servo(_joint_state(chain, q), _joint_state(chain, goal),
                                             run, chain)
            assert step_servo(q, goal, run, chain).tobytes() == _angles(chain, expected).tobytes()

    @given(st.data(), st.sampled_from([0.0, 20.0]), st.sampled_from([0.0, 4.0]))
    def test_a_step_toward_its_own_angles_is_a_fixed_point(self, chain, data, gain, rate):
        """The monitor's frozen goal: a step from `q` toward `q` turns a -0.0
        angle into +0.0 and keeps every other bit, and a second step toward
        `q` keeps the first step's bits, so the monitor makes at most one
        step that changes bits.  Angles drawn as `conftest.joint_rows`."""
        run = RunConfig(servo_gain=gain, joint_rate_limit=rate)
        for q in data.draw(joint_rows(chain)):
            once = step_servo(q, q, run, chain)
            assert once.tobytes() == np.where((q == 0.0) & np.signbit(q), 0.0, q).tobytes()
            assert step_servo(once, q, run, chain).tobytes() == once.tobytes()


class TestExecuteGrasp:
    def test_bundled_scenario_reaches_a_stable_grasp(self, scenario, grasp_run):
        state, log, assessment = grasp_run
        assert assessment.stable
        assert assessment.contact_count >= scenario.validation.min_contacts
        assert len(log.control_steps) <= scenario.run.max_steps

    def test_bundled_run_steps_are_pinned(self, scenario, grasp_run):
        """The bundled grasp first validates at step 115 and holds 50 steps."""
        _, log, _ = grasp_run
        assert scenario.run.log_every == 1  # one log entry per control step
        assert log.control_steps.tolist() == list(range(1, 166))
        assert log.end_step == 165
        first_monitor = log.control_steps[_phases(log).index(PHASE_MONITOR)]
        assert first_monitor == 115

    def test_phases_advance_in_order(self, grasp_run):
        _, log, _ = grasp_run
        ranks = [PHASE_ORDER[phase] for phase in _phases(log)]
        assert ranks[0] == PHASE_ORDER[PHASE_PRE_GRASP]
        assert ranks[-1] == PHASE_ORDER[PHASE_MONITOR]
        assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))

    def test_contact_count_never_drops_during_the_run(self, grasp_run):
        _, log, _ = grasp_run
        counts = log.contact_counts.tolist()
        assert counts == sorted(counts)
        assert counts[-1] >= 4

    def test_monitor_phase_holds_every_finger_still(self, grasp_run):
        _, log, _ = grasp_run
        monitor = log.positions[log.phases == PHASES.index(PHASE_MONITOR)]
        assert len(monitor) >= 2
        for tips in monitor[1:]:
            assert np.array_equal(tips, monitor[0])

    def test_final_fingertips_land_near_their_targets(self, scenario, grasp_run):
        _, log, _ = grasp_run
        last = dict(zip(log.fingers, log.positions[-1]))
        for finger, pose in scenario.targets.items():
            err = np.linalg.norm(last[finger] - pose.position)
            assert err < 0.1, f"{finger} missed by {err:.4f} m"

    def test_log_timing_matches_the_rate(self, scenario, grasp_run):
        _, log, _ = grasp_run
        dt = 1.0 / scenario.run.hz
        for i, time in enumerate(log.times.tolist(), start=1):
            assert time == pytest.approx(i * dt)

    def test_runs_are_bit_deterministic(self, scenario):
        run = RunConfig(max_steps=25)
        a = execute_grasp(scenario.scene, scenario.targets, run, scenario.ik,
                          scenario.validation)
        b = execute_grasp(scenario.scene, scenario.targets, run, scenario.ik,
                          scenario.validation)
        assert len(a[1].control_steps) == 25
        assert np.array_equal(a[1].positions, b[1].positions)
        assert a[0].values == b[0].values

    def test_zero_rate_limit_freezes_the_hand(self, scenario):
        run = RunConfig(max_steps=5, joint_rate_limit=0.0)
        state, log, assessment = execute_grasp(scenario.scene, scenario.targets,
                                               run, scenario.ik, scenario.validation)
        start = neutral_state(scenario.scene.chain)
        assert state.values == start.values
        assert not assessment.stable

    def test_unreachable_object_reports_too_few_contacts(self, scenario):
        from graspforge.grasp_validation import FAILURE_TOO_FEW
        run = RunConfig(max_steps=30)
        _, log, assessment = execute_grasp(_far_box_scene(scenario), scenario.targets, run,
                                           scenario.ik, scenario.validation)
        assert not assessment.stable
        assert assessment.failure_reason == FAILURE_TOO_FEW
        assert len(log.control_steps) == 30  # never validated, so never broke out early

    def test_the_grasp_makes_one_joint_state_and_no_dict_clamp(self, scenario, monkeypatch):
        """The servo, the IK core and the goal work on angle arrays: the one
        JointState made is the final state, and `clamp_to_limits` is never
        called, under any name a module binds it to."""
        import sys

        import graspforge.kinematics as kinematics

        made, clamped = [], []
        make, clamp = kinematics.JointState.__init__, kinematics.clamp_to_limits

        def counting_make(self, *args, **kwargs):
            made.append(1)
            make(self, *args, **kwargs)

        def counting_clamp(*args):
            clamped.append(1)
            return clamp(*args)

        monkeypatch.setattr(kinematics.JointState, "__init__", counting_make)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "graspforge" and getattr(module, "clamp_to_limits",
                                                               None) is clamp:
                monkeypatch.setattr(module, "clamp_to_limits", counting_clamp)
        state, _, assessment = execute_grasp(scenario.scene, scenario.targets, scenario.run,
                                             scenario.ik, scenario.validation)
        assert assessment.stable and len(state.values) == len(scenario.scene.chain.movable)
        assert (len(made), len(clamped)) == (1, 0)

    def test_one_link_frames_pass_per_control_step(self, scenario, monkeypatch):
        """The step's frames feed both contact detection and the fingertip log.

        The 80 pre_grasp steps make one stacked pass, after their last servo
        step.  The contact_opt steps 81-115 make one stacked pass per block
        of 16 speculated rows: 81-96 keeps 14 (middle is established at
        step 94), 95-110 keeps 13 (thumb too at step 107) and 108-123 keeps
        8 (stable at step 115), so 13 servo rows are rolled back.  Each
        block's 16 rows are validated in one call of the validation core.
        A pass is a `_stacked_frames` call and a `_stacked_contacts` call on
        its frames, and each pass gathers the fingertips of its logged rows
        once.  The bundled posture is a bitwise fixed point of the servo
        from the first monitor step on, so the hold runs the servo once and
        its 50 steps make no pass: 165 steps, 129 servo steps, 4 passes, 3
        validation calls of 16 rows each and 4 fingertip gathers.
        """
        import graspforge.controller
        from graspforge.contact import _stacked_contacts
        from graspforge.controller import _fingertips
        from graspforge.grasp_validation import _assess_rows
        from graspforge.kinematics import _stacked_frames
        events, servo = [], []

        def counted_stacked(chain, angles):
            events.append(("frames", len(servo), len(angles)))
            return _stacked_frames(chain, angles)

        def counted_contacts(scene, frames):
            events.append("contacts")
            return _stacked_contacts(scene, frames)

        def counted_servo(q, goal, run, chain):
            moved = step_servo(q, goal, run, chain)
            servo.append(moved.tobytes() == q.tobytes())
            return moved

        def counted_assess(rows, positions, normals, forces, count, config):
            events.append(("assess", count))
            return _assess_rows(rows, positions, normals, forces, count, config)

        def counted_tips(scene, t):
            events.append(("tips", len(t)))
            return _fingertips(scene, t)

        monkeypatch.setattr(graspforge.controller, "_stacked_frames", counted_stacked)
        monkeypatch.setattr(graspforge.controller, "_stacked_contacts", counted_contacts)
        monkeypatch.setattr(graspforge.controller, "step_servo", counted_servo)
        monkeypatch.setattr(graspforge.controller, "_assess_rows", counted_assess)
        monkeypatch.setattr(graspforge.controller, "_fingertips", counted_tips)
        state, log, assessment = execute_grasp(scenario.scene, scenario.targets, scenario.run,
                                               scenario.ik, scenario.validation)
        assert _phases(log)[-1] == PHASE_MONITOR
        assert len(log.control_steps) == 165
        passes = [e[1:] for e in events if e[0] == "frames"]
        # (servo calls so far, rows): pre_grasp, then three contact_opt blocks
        assert passes == [(80, 80), (96, 16), (112, 16), (128, 16)]
        assert events.count("contacts") == 4
        # one validation call per contact_opt block, over all of its rows
        assert [e[1] for e in events if e[0] == "assess"] == [16, 16, 16]
        # one gather per pass, over its logged rows (the kept ones in contact_opt)
        assert [e[1] for e in events if e[0] == "tips"] == [80, 14, 13, 8]
        # 80 + 48 speculated rows (35 kept) + the first held monitor step
        assert len(servo) == 129
        assert servo[128:] == [True]

        # the reused verdict and every monitor log row equal a recompute
        # from the final state
        _assert_hold_matches_final_state(scenario, state, log, assessment,
                                         log.phases == PHASES.index(PHASE_MONITOR))

        # a run that ends by its step budget validates the contacts its last
        # step detected, with no further pass: one stacked pass for the 6
        # pre_grasp steps, then a full block and one the budget cuts to 8,
        # each validated in one call
        events.clear()
        servo.clear()
        far_scene = _far_box_scene(scenario)
        state, log, assessment = execute_grasp(far_scene, scenario.targets,
                                               RunConfig(max_steps=30), scenario.ik,
                                               scenario.validation)
        assert _phases(log)[-1] != PHASE_MONITOR
        assert len(log.control_steps) == 30
        assert [e[1:] for e in events if e[0] == "frames"] == [(6, 6), (22, 16), (30, 8)]
        assert [e[1] for e in events if e[0] == "assess"] == [16, 8]
        assert len(servo) == 30
        expected = validate_grasp(detect_contacts(far_scene, state), scenario.validation)
        assert assessment.to_dict() == expected.to_dict()

    def test_a_signed_zero_makes_the_first_held_step_recompute(self, scenario, monkeypatch):
        """A servo step from -0.0 returns +0.0: not the same bits, so no reuse."""
        import graspforge.controller
        from graspforge.controller import _monitor
        from graspforge.kinematics import _stacked_frames
        chain = scenario.scene.chain
        yaw = next(ji for ji in chain.movable if chain.joints[ji].name == "middle_yaw")
        entry = 115  # the step that enters monitor (see the DEBUG-record test)
        servo_calls, passes = [], []

        def servo(q, goal, run, chain):
            servo_calls.append(None)
            return step_servo(q, goal, run, chain)

        def monitor(scene, q, step, *args):
            # middle_yaw is 8.4e-6 rad here; hold the posture at -0.0
            assert step == entry
            q = q.copy()
            q[chain.column_of[yaw]] = -0.0
            return _monitor(scene, q, step, *args)

        def counted_stacked(chain, angles):
            passes.append(len(servo_calls))
            return _stacked_frames(chain, angles)

        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_monitor", monitor)
        monkeypatch.setattr(graspforge.controller, "_stacked_frames", counted_stacked)
        state, log, assessment = execute_grasp(scenario.scene, scenario.targets, scenario.run,
                                               scenario.ik, scenario.validation)
        assert _phases(log)[entry - 2:entry] == [PHASE_CONTACT_OPT, PHASE_MONITOR]
        assert len(log.control_steps) == 165
        # the frozen goal holds -0.0; the first monitor step (servo call 129,
        # after 80 pre_grasp and 48 speculated contact_opt calls) returns
        # +0.0 and recomputes; the 49 after it repeat it without a servo call,
        # since a second step would keep its bits (TestStepServo's fixed point)
        assert math.copysign(1.0, state.values[yaw]) == 1.0 and state.values[yaw] == 0.0
        assert passes == [80, 96, 112, 128, 129]
        assert len(servo_calls) == 129
        _assert_hold_matches_final_state(scenario, state, log, assessment, slice(entry, None))

    def test_a_contact_at_the_minimum_force_latches_its_finger(self, scenario, monkeypatch):
        """A contact exactly at `min_contact_force` is established for both
        validation and the flexor latch: the next step's goal holds the
        finger's flexor where it is."""
        import graspforge.controller
        from graspforge.contact import _stacked_contacts
        chain = scenario.scene.chain
        servo_calls, detected = [], {}

        def servo(q, goal, run, chain):
            servo_calls.append((q, goal))
            return step_servo(q, goal, run, chain)

        def detect(scene, frames):
            # keyed by the step of the last row: the pre_grasp steps detect in
            # one stacked pass, each contact_opt step in a one-row pass
            contacts = _stacked_contacts(scene, frames)
            detected[len(servo_calls)] = _row_contacts(chain, contacts, len(frames[0]) - 1)
            return contacts

        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_stacked_contacts", detect)
        # one contact_opt row per block, so that each servo call and each
        # detection is one step (the block size changes no output)
        monkeypatch.setattr(graspforge.controller, "_CONTACT_BLOCK", 1)
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                      scenario.validation)
        # the first contact_opt step with contacts, and the finger whose
        # strongest contact there is the weakest of all fingers: with the
        # minimum at exactly that force, only an inclusive test latches it
        step, contacts = next((s, c) for s, c in detected.items() if c)
        strongest = {}
        for c in contacts:
            strongest[c.finger] = max(strongest.get(c.finger, 0.0), c.normal_force)
        finger = min(strongest, key=strongest.get)
        flexor = chain.column_of[chain.fingers[finger].joints[-2]]
        validation = dataclasses.replace(scenario.validation,
                                         min_contact_force=strongest[finger])
        servo_calls.clear()
        detected.clear()
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik, validation)
        assert [c.normal_force for c in detected[step]] == [c.normal_force for c in contacts]
        q, goal = servo_calls[step]  # the call of the step after it
        assert goal[flexor] == q[flexor]
        assert validate_grasp(contacts, validation).contact_count == sum(
            c.normal_force >= strongest[finger] for c in contacts)

    def test_a_finger_that_lets_go_resumes_its_flexor(self, scenario, monkeypatch):
        """Middle is established at step 94, in the first contact_opt block,
        so the second block holds its flexor.  With every contact dropped
        from the second contact_opt pass on, that block's first row has no
        established finger: the block keeps that row, and each servo goal
        from the next block on is the contact goal, with no flexor held."""
        import graspforge.controller
        from graspforge.contact import _stacked_contacts
        chain = scenario.scene.chain
        middle = chain.column_of[chain.fingers["middle"].joints[-2]]
        goals, passes, solved = [], [], []

        def solve(chain, targets, q, ik, phase):
            solved.append(_solve_goal(chain, targets, q, ik, phase))
            return solved[-1]

        def servo(q, goal, run, chain):
            goals.append(goal.copy())
            return step_servo(q, goal, run, chain)

        def detect(scene, frames):
            # the pre_grasp pass and the first contact_opt block's see the box
            passes.append(len(goals))
            found = _stacked_contacts(scene, frames)
            return found if len(passes) <= 2 else tuple(a[:0] for a in found)

        monkeypatch.setattr(graspforge.controller, "_solve_goal", solve)
        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_stacked_contacts", detect)
        _, log, assessment = execute_grasp(scenario.scene, scenario.targets, scenario.run,
                                           scenario.ik, scenario.validation)
        contact_goal = solved[1]
        assert (log.end_step, assessment.failure_reason) == (400, "too_few_contacts")
        # 80 pre_grasp rows, then two blocks of 16: 14 kept, then 1
        assert passes[:3] == [80, 96, 112]
        held = goals[96:112]
        assert all(g[middle] != contact_goal[middle] for g in held)
        assert all(np.array_equal(np.delete(g, middle), np.delete(contact_goal, middle))
                   for g in held)
        # steps 96-400, 305 rows, each under the contact goal
        later = goals[112:]
        assert len(later) == 305
        assert [i for i, g in enumerate(later) if g.tobytes() != contact_goal.tobytes()] == []

    def test_debug_log_reports_ik_outcomes_and_phase_steps(self, scenario, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="graspforge")
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                      scenario.validation)
        records = [r for r in caplog.records if r.name == "graspforge"]
        assert all(r.levelno == logging.DEBUG for r in records)
        ik = [r.args for r in records if " IK " in r.msg]
        assert len(ik) == 10  # five fingers, pre-grasp and contact solves
        assert [args[0] for args in ik] == [PHASE_PRE_GRASP] * 5 + [PHASE_CONTACT_OPT] * 5
        pre_grasp = {finger: (iterations, converged, ended)
                     for phase, finger, _, iterations, converged, ended in ik[:5]}
        # middle and ring cannot reach their waypoints 3 cm off the box and
        # stop on a plateau; index and pinky reach theirs with a pitch joint
        # pinned at its limit
        assert pre_grasp["middle"] == (25, False, "plateau")
        assert pre_grasp["ring"] == (31, False, "plateau")
        for finger in ("thumb", "index", "pinky"):
            assert pre_grasp[finger][1:] == (True, "converged")
        assert pre_grasp["index"][0] == pre_grasp["pinky"][0] == 9
        assert all(args[4:] == (True, "converged") for args in ik[5:])
        assert [r.getMessage() for r in records if r.msg.startswith("phase")] == [
            "phase pre_grasp -> contact_opt at step 80",
            "phase contact_opt -> monitor at step 115",
        ]
        assert capsys.readouterr().out == ""

    def test_debug_log_reports_each_lockstep_hand_solve(self, scenario, caplog):
        """One DEBUG record per hand solve: its rounds, stacked walks and
        row trials.  The pre-grasp solve starts from neutral, so every
        start row takes its first record from the chain's seed walks, and
        so do the five re-seeds that middle and ring run as parallel rows.
        It runs 9 rounds in 15 stacked walks (the thumb walks alone in 6),
        where one descent at a time took 39 rounds, the ring finger's 39
        walks.  Its 83 trials are the 98 walks the fingers would make one
        at a time, less those 15 seed walks: no row walks a posture that
        the result does not read.
        The contact solve seeds from step 80's posture, not from a seed
        walk; it runs 8 rounds in 15 walks and 34 trials, and re-seeds no
        finger.  The per-finger IK records keep their text."""
        caplog.set_level(logging.DEBUG, logger="graspforge")
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                      scenario.validation)
        records = [r for r in caplog.records if r.name == "graspforge"]
        assert [r.args for r in records if r.msg.startswith("IK lockstep")] == [
            (9, 15, 83), (8, 15, 34)]
        assert [r.getMessage() for r in records if " IK " in r.msg] == _BUNDLED_IK_RECORDS

    def test_debug_log_reports_each_contact_block(self, scenario, caplog):
        """One DEBUG record per speculated contact_opt block: its first step,
        the rows it ran and the rows it kept.  The bundled grasp runs three
        blocks of 16 and rolls back 13 rows: 2 after step 94, 3 after step
        107 and 8 after step 115."""
        caplog.set_level(logging.DEBUG, logger="graspforge")
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                      scenario.validation)
        blocks = [r.args for r in caplog.records
                  if r.name == "graspforge" and r.msg.startswith("contact_opt block")]
        assert blocks == [(81, 16, 14), (95, 16, 13), (108, 16, 8)]
        assert sum(run - kept for _, run, kept in blocks) == 13
        # the kept rows are the contact_opt steps 81-115, back to back
        assert [first + kept for first, _, kept in blocks] == [95, 108, 116]

    def test_debug_log_names_a_spent_iteration_budget(self, scenario, caplog):
        caplog.set_level(logging.DEBUG, logger="graspforge")
        execute_grasp(scenario.scene, scenario.targets, RunConfig(max_steps=1),
                      IkConfig(max_iterations=2), scenario.validation)
        ik = [r.args for r in caplog.records if r.name == "graspforge" and " IK " in r.msg]
        assert len(ik) == 10
        assert all(args[3:] == (2, False, "budget") for args in ik)

    @pytest.mark.parametrize("budget, ended", [(9, "budget"), (10, "plateau"), (11, "plateau")])
    def test_debug_log_names_the_end_the_solve_recorded(self, caplog, budget, ended):
        """The two-link arm toward a far target ends on its sixth descent's
        stall at 10 iterations: at a budget of 10 that is a plateau, the
        result it reaches at 11, not a spent budget."""
        caplog.set_level(logging.DEBUG, logger="graspforge")
        _solve_goal(parse_robot_description(TWO_LINK_ARM), {"arm": [10.0, 0.0, 0.0]},
                    np.array([0.1, 0.1]), IkConfig(max_iterations=budget), PHASE_PRE_GRASP)
        (args,) = [r.args for r in caplog.records if " IK " in r.msg]
        assert args[1] == "arm" and args[3:] == (min(budget, 10), False, ended)

    @pytest.mark.parametrize("budget, middle, ring", [
        (20, (20, "budget"), (20, "budget")),
        (27, (25, "plateau"), (27, "budget")),
        (100, (25, "plateau"), (31, "plateau"))])
    def test_pre_grasp_plateaus_end_at_their_true_iteration_counts(self, scenario, caplog,
                                                                   budget, middle, ring):
        """Middle and ring re-seed in the pre-grasp solve, and their re-seeds
        run as parallel rows; the budget still reads each re-seed's true
        iteration count.  At a budget of 20 it cuts middle inside its fifth
        descent and ring at the start of its fifth; at 27 middle's sixth
        descent stalls at 25, as at 100, and the budget cuts ring's sixth,
        which at 100 stalls at 31.  Measured with one descent at a time."""
        caplog.set_level(logging.DEBUG, logger="graspforge")
        execute_grasp(scenario.scene, scenario.targets, RunConfig(max_steps=1),
                      dataclasses.replace(scenario.ik, max_iterations=budget),
                      scenario.validation)
        pre_grasp = {args[1]: (args[3], args[5]) for args in (
            r.args for r in caplog.records if r.name == "graspforge" and " IK " in r.msg)
            if args[0] == PHASE_PRE_GRASP}
        assert (pre_grasp["middle"], pre_grasp["ring"]) == (middle, ring)
        assert all(pre_grasp[f] == (pre_grasp["index"][0], "converged")
                   for f in ("index", "pinky"))

    def test_log_every_thins_the_log(self, scenario):
        run = RunConfig(max_steps=7, log_every=3)
        _, log, _ = execute_grasp(scenario.scene, scenario.targets, run,
                                  scenario.ik, scenario.validation)
        assert log.times.tolist() == pytest.approx([3 / 240.0, 6 / 240.0])


def _grasp_outputs(overrides, caplog):
    """(log rows, CSV digest, assessment digest, final-state digest, phase
    records) of `execute_grasp` on the bundled scenario with `overrides`."""
    sc = load_scenario(default_scenario_path(), overrides)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graspforge"):
        state, log, assessment = execute_grasp(sc.scene, sc.targets, sc.run, sc.ik,
                                               sc.validation)
    csv = io.StringIO()
    write_trajectory_csv(log, csv)
    final = np.array([state.values[ji] for ji in sorted(state.values)])

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    return (len(log.control_steps), digest(csv.getvalue().encode()),
            digest(json.dumps(assessment.to_dict(), sort_keys=True).encode()),
            digest(final.tobytes()),
            [r.getMessage() for r in caplog.records if r.msg.startswith("phase")])


def _grasp_snapshot(overrides, caplog):
    """Every output of `execute_grasp` on the bundled scenario with
    `overrides`, floats by their bits: each log row and the step the run
    ended at, the final state, the assessment and the DEBUG records other
    than the contact_opt block records; and, apart, the (first step, rows
    run, rows kept) of each block."""
    sc = load_scenario(default_scenario_path(), overrides)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graspforge"):
        state, log, assessment = execute_grasp(sc.scene, sc.targets, sc.run, sc.ik,
                                               sc.validation)
    entries = list(zip(log.times.tolist(), log.contact_counts.tolist(), _phases(log),
                       [tips.tobytes() for tips in log.positions])) + [log.end_step]
    final = np.array([state.values[ji] for ji in sorted(state.values)]).tobytes()
    verdict = (json.dumps(assessment.to_dict(), sort_keys=True), assessment.center.tobytes())
    records = [r for r in caplog.records if r.name == "graspforge"]
    blocks = [r.args for r in records if r.msg.startswith("contact_opt block")]
    others = [r.getMessage() for r in records if not r.msg.startswith("contact_opt block")]
    return (entries, final, verdict, others), blocks


_STABLE_AT_80 = ["phase pre_grasp -> contact_opt at step 80",
                 "phase contact_opt -> monitor at step 115"]
_STABLE_AT_118 = ["phase pre_grasp -> contact_opt at step 118",
                  "phase contact_opt -> monitor at step 154"]
_AT_1 = ["phase pre_grasp -> contact_opt at step 1"]
_BUNDLED_IK_RECORDS = [
    "pre_grasp IK thumb: residual 2.62e-06 m after 6 iterations, converged=True, ended by converged",
    "pre_grasp IK index: residual 8.15e-07 m after 9 iterations, converged=True, ended by converged",
    "pre_grasp IK middle: residual 0.0209 m after 25 iterations, converged=False, ended by plateau",
    "pre_grasp IK ring: residual 0.0141 m after 31 iterations, converged=False, ended by plateau",
    "pre_grasp IK pinky: residual 8.15e-07 m after 9 iterations, converged=True, ended by converged",
    "contact_opt IK thumb: residual 1.19e-06 m after 6 iterations, converged=True, ended by converged",
    "contact_opt IK index: residual 8.87e-06 m after 5 iterations, converged=True, ended by converged",
    "contact_opt IK middle: residual 1.64e-06 m after 6 iterations, converged=True, ended by converged",
    "contact_opt IK ring: residual 7.41e-07 m after 7 iterations, converged=True, ended by converged",
    "contact_opt IK pinky: residual 8.87e-06 m after 5 iterations, converged=True, ended by converged",
]


class TestRunConfigCorners:
    """`execute_grasp` outputs pinned to their float64 bits (x86-64): the log
    length, SHA-256 prefixes of the trajectory CSV, the assessment and the
    final joint values, and the phase records.

    Budgets of 1, 3 and 6 steps end pre_grasp at step 1; 1000 and 2000 steps
    give pre_grasp a budget it does not use up (it converges at step 118);
    log_every 7 and 3 log steps that straddle the phase transitions; a zero
    rate limit never moves the hand and runs out of steps in contact_opt.
    Two IK corners: a budget of 7 iterations, which the thumb's pre-grasp
    solve converges within and the other four fingers' spend; and damping
    0.3 with half steps, whose solves take 16 to 50 iterations, two of them
    ending on a plateau.
    """

    @pytest.mark.parametrize("overrides, expected", [
        ([], (165, "99e865ea3a31221e", "ca9bf72bbadb07f3", "ed69dc427d0a06b3",
              _STABLE_AT_80)),
        (["run.steps=1"], (1, "782984c50c291ffa", "25c51a52070eda65", "ffc3dd42a6874b1a",
                           _AT_1)),
        (["run.steps=3"], (3, "8f9c498d761a7042", "25c51a52070eda65", "3d92f9b109ad5d26",
                           _AT_1)),
        (["run.steps=6"], (6, "086f3bff7ea8c756", "25c51a52070eda65", "0106fc922740a33b",
                           _AT_1)),
        (["run.steps=1000"], (204, "2646eff5d3010f0c", "48d6997269698c83", "a1e1ed28f5922097",
                              _STABLE_AT_118)),
        (["run.log_every=7"], (23, "ab162e64232e4001", "ca9bf72bbadb07f3", "ed69dc427d0a06b3",
                               _STABLE_AT_80)),
        (["run.steps=2000", "run.log_every=3"],
         (68, "44e1134c8b1d4f87", "48d6997269698c83", "a1e1ed28f5922097", _STABLE_AT_118)),
        (["run.joint_rate_limit=0"],
         (400, "74d55e588cbfae15", "25c51a52070eda65", "0388ce834d5783b4",
          _STABLE_AT_80[:1])),
        (["ik.max_iterations=7"],
         (165, "219c12883a4abe19", "b4a72a6efc72f81e", "7cd95f8a4dd34726", _STABLE_AT_80)),
        (["ik.damping_lambda=0.3", "ik.step_scale=0.5"],
         (165, "49ecc54f9ec1ae55", "f68d727a73149c87", "1e0c92ea542a2a51", _STABLE_AT_80)),
    ])
    def test_outputs_are_pinned(self, overrides, expected, caplog):
        assert _grasp_outputs(overrides, caplog) == expected

    @pytest.mark.parametrize("overrides, transition, sizes", [
        ([], 80, [7] * 11 + [3]),
        # each block of 7 steps reads its multiples of 3, two or three
        # (steps 3 and 6 of the first), and so does the last block, steps
        # 113-118 (114 and 117)
        (["run.steps=2000", "run.log_every=3"], 118, [2, 2, 3] * 5 + [2, 2])])
    def test_a_small_approach_block_changes_no_output(self, overrides, transition, sizes,
                                                      caplog, monkeypatch):
        """pre_grasp stacked 7 steps at a time, so its 80 or 118 steps span
        12 or 17 passes, the last one partial, gives the bytes of the default.
        A pass stacks only the block's logged steps."""
        import graspforge.controller
        from graspforge.kinematics import _stacked_frames
        default = _grasp_outputs(overrides, caplog)
        servo_calls, passes = [], []

        def servo(*args):
            servo_calls.append(None)
            return step_servo(*args)

        def counted_stacked(chain, angles):
            # the approach passes; the one-row contact_opt passes come after
            if len(servo_calls) <= transition:
                passes.append(len(angles))
            return _stacked_frames(chain, angles)

        monkeypatch.setattr(graspforge.controller, "_APPROACH_BLOCK", 7)
        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_stacked_frames", counted_stacked)
        assert _grasp_outputs(overrides, caplog) == default
        assert passes == sizes


    @pytest.mark.parametrize("overrides", [
        [], ["run.steps=100"], ["run.steps=120"], ["run.log_every=3"], ["run.log_every=7"],
        ["run.steps=1000", "run.log_every=7"]])
    def test_the_contact_block_size_changes_no_output(self, overrides, caplog, monkeypatch):
        """contact_opt speculated 1, 2, 7 or the default number of rows at a
        time gives the same log entries, final state, verdict and phase and
        IK records.  Budgets of 100 and 120 steps end contact_opt in a block
        the budget cuts short; log_every 3 and 7 log rows inside blocks."""
        import graspforge.controller
        from graspforge.controller import _CONTACT_BLOCK
        reference, blocks = _grasp_snapshot(overrides, caplog)
        for size in (1, 2, 7):
            monkeypatch.setattr(graspforge.controller, "_CONTACT_BLOCK", size)
            outputs, size_blocks = _grasp_snapshot(overrides, caplog)
            assert outputs == reference, size
            if size == 1:
                # every contact_opt step is a block of its own
                assert [b[1:] for b in size_blocks] == [(1, 1)] * len(size_blocks)
                steps = [first for first, _, _ in size_blocks]
        # the default keeps the same contact_opt steps, block after block
        assert [first for first, _, _ in blocks] == [steps[0]] + [
            first + kept for first, _, kept in blocks[:-1]]
        assert sum(kept for _, _, kept in blocks) == len(steps)
        assert all(kept <= run <= _CONTACT_BLOCK for _, run, kept in blocks)

    def test_a_stable_verdict_is_an_event_on_its_own(self, caplog, monkeypatch):
        """A row whose verdict is stable ends its block even when its set of
        established fingers is the assumed one.  Here every verdict from
        step 100 on reads stable, while only middle has been established
        since step 94: each block size enters monitor at step 100.  The
        servo's calls give each row's step: a row's angles are those of the
        step after the angles it was stepped from."""
        import graspforge.controller
        from graspforge.controller import _CONTACT_BLOCK
        from graspforge.grasp_validation import _REASONS, FAILURE_NONE, _assess_rows
        from graspforge.kinematics import _stacked_frames
        step_of, block_steps, counts = {}, [], {}
        stable = _REASONS.index(FAILURE_NONE)

        def servo(q, goal, run, chain):
            moved = step_servo(q, goal, run, chain)
            step_of[moved.tobytes()] = step_of.get(q.tobytes(), 0) + 1
            return moved

        def frames(chain, angles):
            block_steps.append([step_of[q.tobytes()] for q in angles])
            return _stacked_frames(chain, angles)

        def stable_from_step_100(rows, positions, normals, forces, count, config):
            held, n, centers, spreads, closures, reasons = _assess_rows(
                rows, positions, normals, forces, count, config)
            steps = np.array(block_steps[-1])
            counts.update(zip(steps.tolist(), n.tolist()))
            return held, n, centers, spreads, closures, np.where(steps >= 100, stable, reasons)

        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_stacked_frames", frames)
        monkeypatch.setattr(graspforge.controller, "_assess_rows", stable_from_step_100)
        outputs = []
        for size in (1, 7, _CONTACT_BLOCK):
            monkeypatch.setattr(graspforge.controller, "_CONTACT_BLOCK", size)
            step_of.clear()
            counts.clear()
            outputs.append(_grasp_snapshot([], caplog))
            assert [counts[99], counts[100]] == [1, 1]  # middle only
        (entries, _, _, records), blocks = outputs[-1]
        assert all(out[0] == outputs[0][0] for out in outputs)
        assert "phase contact_opt -> monitor at step 100" in records
        assert [e[2] for e in entries[98:100]] == [PHASE_CONTACT_OPT, PHASE_MONITOR]
        assert blocks == [(81, 16, 14), (95, 16, 6)]


def _stepwise_hold(scene, q, step, run, validate):
    """The monitor phase from posture `q` at `step`, one servo step and one
    fresh one-row pass per step, verdicts by `validate`: the reference the
    broadcast of the held rows must equal.  Returns its logged rows (step,
    fingertip bits, contact count), the step it ended at, the angles and
    the verdict."""
    chain = scene.chain
    goal, hold_count, rows = q, 0, []
    while step < run.max_steps and hold_count < VALIDATED_HOLD_STEPS:
        step += 1
        q = step_servo(q, goal, run, chain)
        state = _joint_state(chain, q)
        contacts = detect_contacts(scene, state)
        verdict = validate(contacts)
        hold_count = hold_count + 1 if verdict.stable else 0
        if step % run.log_every == 0:
            rows.append((step, _fresh_tips(scene, state).tobytes(), len(contacts)))
    return rows, step, q, verdict


@pytest.mark.parametrize("overrides, unstable", [
    ([], False), (["run.log_every=7"], False), (["run.steps=1000", "run.log_every=7"], False),
    ([], True)])
def test_the_held_broadcast_equals_the_stepwise_hold(overrides, unstable, monkeypatch):
    """The monitor rows written as one broadcast of the held row equal the
    hold run step by step, bit for bit: the logged rows, the end step, the
    final angles and the verdict.  With the held verdict forced unstable the
    hold never completes and runs to the step budget."""
    import graspforge.controller
    from graspforge.controller import _monitor
    from graspforge.grasp_validation import _REASONS, FAILURE_CLOSURE, _assess_rows
    sc = load_scenario(default_scenario_path(), overrides)
    entries = []

    def unstable_verdict(verdict):
        return dataclasses.replace(verdict, stable=False, failure_reason=FAILURE_CLOSURE)

    def validate(contacts, config=sc.validation):
        verdict = validate_grasp(contacts, config)
        return unstable_verdict(verdict) if unstable else verdict

    def assess_unstable(*args):
        held, counts, centers, spreads, closures, reasons = _assess_rows(*args)
        return (held, counts, centers, spreads, closures,
                np.full_like(reasons, _REASONS.index(FAILURE_CLOSURE)))

    def monitor(scene, q, step, count, assessment, *args):
        entries.append((q, step))
        if unstable:
            monkeypatch.setattr(graspforge.controller, "_assess_rows", assess_unstable)
            assessment = unstable_verdict(assessment)
        return _monitor(scene, q, step, count, assessment, *args)

    monkeypatch.setattr(graspforge.controller, "_monitor", monitor)
    state, log, assessment = execute_grasp(sc.scene, sc.targets, sc.run, sc.ik, sc.validation)
    (q, entry), = entries
    rows, end, q_end, verdict = _stepwise_hold(sc.scene, q, entry, sc.run, validate)
    held = log.control_steps > entry
    assert rows == list(zip(log.control_steps[held].tolist(),
                            [tips.tobytes() for tips in log.positions[held]],
                            log.contact_counts[held].tolist()))
    assert _phases(log)[-len(rows):] == [PHASE_MONITOR] * len(rows)
    assert log.end_step == end == (sc.run.max_steps if unstable else entry + VALIDATED_HOLD_STEPS)
    assert _angles(sc.scene.chain, state).tobytes() == q_end.tobytes()
    assert assessment.to_dict() == verdict.to_dict()
    assert assessment.center.tobytes() == verdict.center.tobytes()
    assert assessment.stable is not unstable


def test_the_time_column_is_the_step_times_the_period(scenario, grasp_run):
    """A row's time is step * (1.0 / hz), not step / hz: at 240 Hz the two
    differ in the last bit at step 23, which the bundled run logs.  The
    `steps` view and the CSV carry the same bits."""
    _, log, _ = grasp_run
    hz = scenario.run.hz
    steps = log.control_steps.tolist()
    row = steps.index(23)
    assert (23 * (1.0 / hz)).hex() != (23 / hz).hex()
    assert [t.hex() for t in log.times.tolist()] == [(s * (1.0 / hz)).hex() for s in steps]
    assert log.steps[row].time.hex() == (23 * (1.0 / hz)).hex()
    buf = io.StringIO()
    write_trajectory_csv(log, buf)
    lines = buf.getvalue().splitlines()[1:]
    times = {float(line.split(",")[0]).hex() for line in lines[5 * row:5 * row + 5]}
    assert times == {(23 * (1.0 / hz)).hex()}


def test_the_steps_view_builds_records_from_the_arrays(grasp_run):
    _, log, _ = grasp_run
    view = log.steps
    assert len(view) == len(log.control_steps)
    for i, entry in enumerate(view):
        assert entry.time == log.times[i]
        assert entry.contact_count == log.contact_counts[i]
        assert entry.phase == PHASES[log.phases[i]]
        assert list(entry.positions) == list(log.fingers)
        assert np.array([entry.positions[f] for f in log.fingers]).tobytes() == \
            log.positions[i].tobytes()
    # the records hold copies: writing to one leaves the log as it was
    before = log.positions.tobytes()
    view[0].positions[log.fingers[0]][:] = 9.0
    assert log.positions.tobytes() == before


def test_the_csv_writer_compares_rows_by_their_bits():
    """Rows that differ only in the sign of a zero are equal as values but
    not as bits: the writer formats each of them anew."""
    tips = [[[0.0, 0.1, -0.0]], [[-0.0, 0.1, -0.0]], [[-0.0, 0.1, -0.0]], [[0.0, 0.1, 0.0]]]
    log = TrajectoryLog(fingers=("index",), hz=4.0, end_step=4, control_steps=[1, 2, 3, 4],
                        positions=tips, contact_counts=[0, 0, 1, 1],
                        phases=[PHASES.index("monitor")] * 4)
    buf = io.StringIO()
    write_trajectory_csv(log, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "0.25,index,0.0,0.1,-0.0,0,monitor",
        "0.5,index,-0.0,0.1,-0.0,0,monitor",
        "0.75,index,-0.0,0.1,-0.0,1,monitor",
        "1.0,index,0.0,0.1,0.0,1,monitor",
    ]


def test_trajectory_csv_golden():
    log = TrajectoryLog(fingers=("index",), hz=2.0, end_step=1, control_steps=[1],
                        positions=[[[0.1, -0.2, 0.3]]], contact_counts=[2],
                        phases=[PHASES.index("monitor")])
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
    assert len(text.splitlines()) == 1 + 5 * len(log.control_steps)
