import math

import numpy as np
import pytest

from graspforge.ik_solver import (IkConfig, IkConfigError, merge_hand_results,
                                  solve_finger_ik, solve_hand_ik)
from graspforge.kinematics import (JointState, forward_kinematics, mid_range_state,
                                   within_limits)


def test_two_link_analytic_solution(two_link):
    """Planar reach to (1, 1, 0) from a near-zero seed lands on (0, pi/2)."""
    seed = JointState(values={0: 0.1, 1: 0.1})
    res = solve_finger_ik(two_link, "arm", np.array([1.0, 1.0, 0.0]), seed)
    assert res.converged
    assert res.residual <= 1e-5
    assert res.state.values[0] == pytest.approx(0.0, abs=1e-4)
    assert res.state.values[1] == pytest.approx(math.pi / 2, abs=1e-4)


def test_target_at_seed_needs_no_iterations(two_link):
    seed = JointState(values={0: 0.1, 1: 0.1})
    target = forward_kinematics(two_link, seed, "tip").position
    res = solve_finger_ik(two_link, "arm", target, seed)
    assert res.converged
    assert res.iterations <= 1
    assert res.residual <= 1e-5


def test_unreachable_target_reports_honest_residual(two_link):
    seed = JointState(values={0: 0.1, 1: 0.1})
    res = solve_finger_ik(two_link, "arm", np.array([10.0, 0.0, 0.0]), seed)
    assert not res.converged
    assert res.iterations == IkConfig().max_iterations
    # best it can do is full extension: residual = 10 - (1 + 1)
    assert res.residual == pytest.approx(8.0, abs=1e-3)


def test_pose_target_accepted(two_link):
    from graspforge.kinematics import Pose
    seed = JointState(values={0: 0.1, 1: 0.1})
    res = solve_finger_ik(two_link, "arm", Pose(position=(1.0, 1.0, 0.0)), seed)
    assert res.converged


def test_solution_respects_joint_limits(chain):
    rng = np.random.default_rng(3)
    seed = mid_range_state(chain)
    for _ in range(20):
        target = rng.uniform([-0.1, -0.1, -0.1], [0.25, 0.1, 0.1])
        res = solve_finger_ik(chain, "index", target, seed)
        assert within_limits(chain, res.state)


def test_only_the_fingers_joints_move(chain):
    seed = mid_range_state(chain)
    state = JointState(values={
        ji: rngv for ji, rngv in zip(chain.movable,
                                     np.random.default_rng(5).uniform(-0.1, 0.3, 21))})
    target = forward_kinematics(chain, state, "index_tip").position
    res = solve_finger_ik(chain, "index", target, seed)
    index_joints = set(chain.fingers["index"].joints)
    for ji in chain.movable:
        if ji not in index_joints:
            assert res.state.values[ji] == seed.values[ji]


def test_reachable_targets_converge_from_mid_range(chain):
    rng = np.random.default_rng(17)
    seed = mid_range_state(chain)
    for finger in chain.fingers:
        random_state = JointState(values={
            ji: rng.uniform(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit)
            for ji in chain.movable})
        tip = chain.fingers[finger].end_effector
        target = forward_kinematics(chain, random_state, tip).position
        res = solve_finger_ik(chain, finger, target, seed)
        assert res.converged, f"{finger}: residual {res.residual}"


def test_solve_hand_ik_runs_every_finger_independently(chain):
    seed = mid_range_state(chain)
    targets = {f: forward_kinematics(chain, seed, chain.fingers[f].end_effector).position
               for f in chain.fingers}
    results = solve_hand_ik(chain, targets, seed)
    assert set(results) == set(chain.fingers)
    assert all(r.converged for r in results.values())


def test_merge_hand_results_folds_all_fingers(chain):
    rng = np.random.default_rng(9)
    posture = JointState(values={
        ji: rng.uniform(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit)
        for ji in chain.movable})
    seed = mid_range_state(chain)
    targets = {f: forward_kinematics(chain, posture, chain.fingers[f].end_effector).position
               for f in ("index", "thumb")}
    results = solve_hand_ik(chain, targets, seed)
    merged = merge_hand_results(chain, seed, results)
    for f, res in results.items():
        for ji in chain.fingers[f].joints:
            assert merged.values[ji] == res.state.values[ji]
    untouched = set(chain.movable) - set(chain.fingers["index"].joints) \
        - set(chain.fingers["thumb"].joints)
    for ji in untouched:
        assert merged.values[ji] == seed.values[ji]


def test_step_scale_shrinks_updates(two_link):
    seed = JointState(values={0: 0.1, 1: 0.1})
    full = solve_finger_ik(two_link, "arm", np.array([1.0, 1.0, 0.0]), seed,
                           IkConfig(step_scale=1.0))
    damped = solve_finger_ik(two_link, "arm", np.array([1.0, 1.0, 0.0]), seed,
                             IkConfig(step_scale=0.2))
    assert damped.converged
    assert damped.iterations >= full.iterations


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": 0},
    {"residual_threshold": 0.0},
    {"residual_threshold": -1e-9},
    {"damping_lambda": -0.1},
    {"step_scale": 0.0},
    {"step_scale": 1.5},
    {"max_iterations": 1.5},
    {"max_iterations": True},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(IkConfigError):
        IkConfig(**kwargs)


def test_unknown_finger_raises(chain):
    from graspforge.robot_model import UnknownFingerError
    with pytest.raises(UnknownFingerError):
        solve_finger_ik(chain, "tentacle", np.zeros(3), mid_range_state(chain))
