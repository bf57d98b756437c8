import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspforge.config import ConfigError
from graspforge.ik_solver import (_MIN_LAMBDA, IkConfig, IkResult, _dls_step,
                                  _stacked_dls_step, _steps, merge_hand_results,
                                  solve_finger_ik, solve_hand_ik)
from graspforge.kinematics import (JointState, KinematicsError, _angles, _joint_state,
                                   link_transform, neutral_state, within_limits)
from graspforge.robot_model import parse_robot_description

from conftest import TWO_LINK_ARM, WRIST_HAND, mid_range_state, perfbench_workload
from reference import reference_solve


@pytest.fixture()
def two_link_pinned():
    """The two-link arm with its shoulder limited to [0, 1.5] rad."""
    return parse_robot_description(TWO_LINK_ARM.replace(
        'lower="-3.1415926535897931" upper="3.1415926535897931"', 'lower="0.0" upper="1.5"', 1))


def _bits(result: IkResult):
    """Everything in a result, floats by their bit pattern (so -0.0 != 0.0)."""
    return (float(result.residual).hex(), result.iterations, result.converged,
            [(ji, float(v).hex()) for ji, v in result.state.values.items()])


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
    target = link_transform(two_link, seed, "tip")[1]
    res = solve_finger_ik(two_link, "arm", target, seed)
    assert res.converged
    assert res.iterations <= 1
    assert res.residual <= 1e-5


def test_unreachable_target_reports_honest_residual(two_link):
    seed = JointState(values={0: 0.1, 1: 0.1})
    res = solve_finger_ik(two_link, "arm", np.array([10.0, 0.0, 0.0]), seed)
    assert not res.converged
    # it stalls at full extension and at each of the five re-seeds, then stops
    assert res.iterations == 10
    # best it can do is full extension: residual = 10 - (1 + 1)
    assert res.residual == pytest.approx(8.0, abs=1e-3)


def _two_link_tip(shoulder, elbow) -> np.ndarray:
    """Tip of the two-link arm (unit links, planar) at the given angles; broadcasts."""
    x = np.cos(shoulder) + np.cos(shoulder + elbow)
    y = np.sin(shoulder) + np.sin(shoulder + elbow)
    return np.stack(np.broadcast_arrays(x, y, 0.0), axis=-1)


def test_a_pinned_joint_pushed_outward_leaves_the_step(two_link_pinned):
    """The target is reachable only with the shoulder at its 0 limit, and the
    seed sits there.  The plain clamped step keeps pushing the shoulder out
    and creeps (0.63 m after 5 iterations, 0.49 m after 100); dropping the
    shoulder's column lets the elbow move alone, and the solve converges."""
    target = _two_link_tip(0.0, 2.0)
    res = solve_finger_ik(two_link_pinned, "arm", target, JointState(values={0: 0.0, 1: -1.0}))
    assert res.converged and res.iterations < 20
    assert res.state.values[0] == 0.0
    assert res.state.values[1] == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("shoulder", [-0.6, -0.3, 1.8, 2.1])
def test_limit_bound_targets_reach_the_brute_force_minimum(two_link_pinned, shoulder):
    """Targets of postures with the shoulder past its [0, 1.5] limits: some are
    reachable through the other elbow branch, some only at a limit, some not
    at all.  The residual is at most the minimum over a grid of the joint box
    plus the grid's error bound.

    With spacing <= h on both joints, every posture lies within h/2 of a grid
    point on each joint.  The tip moves at most |tip| <= 2 per radian of
    shoulder and 1 per radian of elbow, so the grid minimum exceeds the true
    minimum by at most (2 + 1) h / 2.

    Targets far beyond the reach of both links are not covered: there a
    stall can end a descent that is still improving, a few percent above
    the least residual (the `ik_solver` module docstring).
    """
    h = 0.005
    axes = []
    for ji in two_link_pinned.movable:
        lo, hi = two_link_pinned.joints[ji].lower_limit, two_link_pinned.joints[ji].upper_limit
        axes.append(np.linspace(lo, hi, math.ceil((hi - lo) / h) + 1))
    grid = _two_link_tip(axes[0][:, None], axes[1][None, :])
    seed = JointState(values={0: 0.1, 1: 0.1})
    for elbow in (-2.0, -1.0, 0.5, 1.5):
        target = _two_link_tip(shoulder, elbow)
        grid_min = float(np.linalg.norm(grid - target, axis=-1).min())
        res = solve_finger_ik(two_link_pinned, "arm", target, seed)
        assert res.residual <= grid_min + 1.5 * h, (elbow, res.residual, grid_min)


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
    target = link_transform(chain, state, "index_tip")[1]
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
        target = link_transform(chain, random_state, tip)[1]
        res = solve_finger_ik(chain, finger, target, seed)
        assert res.converged, f"{finger}: residual {res.residual}"


def test_solve_hand_ik_runs_every_finger_independently(chain):
    seed = mid_range_state(chain)
    targets = {f: link_transform(chain, seed, chain.fingers[f].end_effector)[1]
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
    targets = {f: link_transform(chain, posture, chain.fingers[f].end_effector)[1]
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
    {"damping_lambda": 0.0},
    # under the floor a descent relaxes to; 1e-20 and below made a singular system
    {"damping_lambda": 1e-9},
    {"damping_lambda": 1e-20},
    {"damping_lambda": 1e-100},
    {"damping_lambda": 1e-300},
    # its squared doublings overflow
    {"damping_lambda": 1e151},
    {"step_scale": 0.0},
    {"step_scale": 1.5},
    {"max_iterations": 1.5},
    {"max_iterations": True},
    {"residual_threshold": float("inf")},
    {"damping_lambda": float("inf")},
    {"residual_threshold": "abc"},
    {"damping_lambda": "abc"},
    {"step_scale": "abc"},
])
def test_config_rejects_bad_values(kwargs):
    (key,) = kwargs
    with pytest.raises(ConfigError, match=key):  # the message names the key
        IkConfig(**kwargs)


@pytest.mark.parametrize("damping", [1e-6, 1e150])
def test_the_damping_bounds_are_accepted(damping):
    assert IkConfig(damping_lambda=damping).damping_lambda == damping


def _damped_systems(count: int, rows: int):
    """Seeded damped systems as `_steps` makes them: J (rows, 3, n) with each
    row the transpose of a C-ordered (n, 3) array, as a walk lays it out,
    some columns zeroed as the clamping loop zeroes a pushed pinned joint,
    dampings log-uniform in [_MIN_LAMBDA, 1e3], errors e (rows, 3)."""
    rng = np.random.default_rng(20251)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        Jt = rng.normal(scale=0.05, size=(rows, n, 3))
        pushed = rng.random((rows, n)) < 0.3
        Jt = Jt * ~pushed[..., None]  # as `_steps` zeroes a column: x False
        lams = (10.0 ** rng.uniform(math.log10(_MIN_LAMBDA), 3.0, rows)).tolist()
        e = rng.normal(scale=0.02, size=(rows, 3))
        yield Jt.transpose(0, 2, 1), lams, e, float(rng.choice([1.0, 0.5]))


def test_the_damped_steps_equal_a_linalg_solve_formulation_bitwise():
    """The damped steps call LAPACK's gufunc directly; their bits are those
    of `np.linalg.solve` on the same arrays, one row and stacked."""
    eye = np.eye(3)
    for J, lams, e, scale in _damped_systems(150, 1):
        J2, lam, e2 = J[0], lams[0], e[0]
        JJt = J2 @ J2.T
        expected = scale * (J2.T @ np.linalg.solve(JJt + lam ** 2 * eye, e2))
        assert _dls_step(J2, JJt, lam, e2, scale).tobytes() == expected.tobytes()
    for rows in (2, 5):
        for J, lams, e, scale in _damped_systems(60, rows):
            Jt = J.transpose(0, 2, 1)
            damping = np.array([lam ** 2 for lam in lams])[:, None, None] * eye
            expected = scale * (Jt @ np.linalg.solve(J @ Jt + damping, e[..., None]))[..., 0]
            step = _stacked_dls_step(J, lams, e, scale)
            assert step.tobytes() == expected.tobytes()
            for k in range(rows):  # and each row the one-row step
                one = _dls_step(J[k], J[k] @ J[k].T, lams[k], e[k], scale)
                assert step[k].tobytes() == one.tobytes()


@pytest.mark.parametrize("rows", [1, 3])
def test_a_singular_damped_system_raises_linalg_error(rows):
    """`_steps` solves one row by `_dls_step` and more by `_stacked_dls_step`.
    A damped system that is exactly singular, a zero Jacobian with a
    damping whose square underflows to zero, raises numpy's `LinAlgError`
    as `np.linalg.solve` does, not a RuntimeWarning and NaN steps."""
    seeds = SimpleNamespace(lower=np.full(3, -1.0), upper=np.full(3, 1.0),
                            lower_l=[-1.0] * 3, upper_l=[1.0] * 3)
    stub = SimpleNamespace(solve=SimpleNamespace(seeds=seeds), J=np.zeros((3, 3)),
                           e=np.array([0.01, 0.0, 0.0]), q=np.zeros(3), trial_lam=1e-200)
    stubs = [SimpleNamespace(**vars(stub)) for _ in range(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _steps(stubs, IkConfig())


def test_unknown_finger_raises(chain):
    from graspforge.robot_model import UnknownFingerError
    with pytest.raises(UnknownFingerError):
        solve_finger_ik(chain, "tentacle", np.zeros(3), mid_range_state(chain))


_WRIST_HAND = parse_robot_description(WRIST_HAND)
_TWO_LINK = parse_robot_description(TWO_LINK_ARM)


@st.composite
def _ik_problems(draw, chains, neutral=False):
    """(chain, finger, target, seed, config) over reachable, limit-pinned and far targets.

    Seeds and target postures reach 0.5 rad past the joint limits, so the
    seed is clamped and a target posture outside the limits pins a joint.
    With `neutral`, the seed is the neutral posture, whose walk the chain
    keeps.
    """
    chain = draw(st.sampled_from(chains))
    finger = draw(st.sampled_from(sorted(chain.fingers)))

    def posture():
        return {ji: draw(st.floats(chain.joints[ji].lower_limit - 0.5,
                                   chain.joints[ji].upper_limit + 0.5))
                for ji in chain.movable}

    seed = neutral_state(chain) if neutral else JointState(values=posture())
    ee = chain.fingers[finger].end_effector
    if draw(st.booleans()):
        target = link_transform(chain, JointState(values=posture()), ee)[1]
    else:  # well outside the finger's reach
        direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))) + [0.0, 0.0, 1.5]
        scale = float(np.linalg.norm(link_transform(chain, seed, ee)[1])) + 0.1
        target = 3.0 * scale * direction
    config = IkConfig(max_iterations=draw(st.integers(1, 100)),
                      damping_lambda=draw(st.sampled_from([0.05, 0.01, 0.3])),
                      step_scale=draw(st.sampled_from([1.0, 0.5])))
    return chain, finger, target, seed, config


@settings(max_examples=40)
@given(problem=st.data())
def test_matches_the_reference_loop_bitwise(chain, problem):
    """Bundled fingers, the two-link arm and the wrist hand's index finger."""
    robot, finger, target, seed, config = problem.draw(
        _ik_problems([chain, _TWO_LINK, _WRIST_HAND]))
    result = solve_finger_ik(robot, finger, target, seed, config)
    assert _bits(result) == _bits(reference_solve(robot, finger, target, seed, config))


@settings(max_examples=20)
@given(problem=st.data())
def test_neutral_seeded_solves_match_the_reference_loop_bitwise(chain, problem):
    """As above, from the neutral posture: the start row and the re-seed
    rows take their first records from the chain's seed walks."""
    robot, finger, target, seed, config = problem.draw(
        _ik_problems([chain, _TWO_LINK, _WRIST_HAND], neutral=True))
    result = solve_finger_ik(robot, finger, target, seed, config)
    assert _bits(result) == _bits(reference_solve(robot, finger, target, seed, config))


@pytest.mark.parametrize("finger", ["thumb", "index", "middle", "ring", "pinky"])
def test_bundled_fingers_match_the_reference_loop(chain, finger):
    """Each finger from neutral: a reachable, a limit-pinned and a far target."""
    rng = np.random.default_rng(11)
    seed = mid_range_state(chain)
    ee = chain.fingers[finger].end_effector
    inside = JointState(values={ji: rng.uniform(chain.joints[ji].lower_limit,
                                                chain.joints[ji].upper_limit)
                                for ji in chain.movable})
    pinned = JointState(values={ji: chain.joints[ji].upper_limit + 0.4 for ji in chain.movable})
    targets = [link_transform(chain, inside, ee)[1],
               link_transform(chain, pinned, ee)[1],
               np.array([0.0, 0.0, 1.0])]
    for target in targets:
        result = solve_finger_ik(chain, finger, target, seed)
        assert _bits(result) == _bits(reference_solve(chain, finger, target, seed, IkConfig()))


def test_a_seed_missing_a_movable_joint_raises(chain):
    """A seed is every movable joint's angle: one with only the joints on
    the finger's path (not the other fingers') names the first one missing,
    in the solves and in the merge."""
    target = np.array([0.05, 0.02, 0.15])
    full = mid_range_state(chain)
    path = chain.path_to_link[chain.fingers["index"].end_effector]
    partial = JointState(values={ji: v for ji, v in full.values.items() if ji in path})
    missing = next(ji for ji in chain.movable if ji not in path)
    results = solve_hand_ik(chain, {"index": target}, full)
    for call in (lambda: solve_finger_ik(chain, "index", target, partial),
                 lambda: solve_hand_ik(chain, {"index": target}, partial),
                 lambda: merge_hand_results(chain, partial, results)):
        with pytest.raises(KinematicsError, match=f"no value for joint index {missing}$"):
            call()


def test_a_nan_seed_angle_raises_naming_its_joint_before_any_walk(chain, monkeypatch):
    """A NaN seed angle would stay the best posture, since no later residual
    is `< nan`; +-inf is clamped to a limit and solves as the limit does."""
    import graspforge.ik_solver as ik_solver

    target = np.array([0.05, 0.02, 0.15])
    ji = chain.fingers["index"].joints[1]
    name = chain.joints[ji].name
    seed = neutral_state(chain)
    seed.values[ji] = math.nan

    def no_walk(*args):
        raise AssertionError("walked")

    with monkeypatch.context() as m:
        m.setattr(ik_solver, "finger_walk", no_walk)
        with pytest.raises(KinematicsError, match=f"IK seed angle of joint '{name}' is NaN"):
            solve_finger_ik(chain, "index", target, seed)
        with pytest.raises(KinematicsError, match=f"joint '{name}'"):
            solve_hand_ik(chain, {"thumb": target, "index": target}, seed)
    for value in (math.inf, -math.inf):
        seed.values[ji] = value
        result = solve_finger_ik(chain, "index", target, seed)
        assert np.isfinite(list(result.state.values.values())).all()
        assert _bits(result) == _bits(reference_solve(chain, "index", target, seed, IkConfig()))


def _assert_hand_matches_reference(chain, targets, seed, config, results=None):
    """`solve_hand_ik`'s results, or `results`, keep the targets' order, and
    each finger's result is the reference loop's for that finger alone, bit
    for bit."""
    if results is None:
        results = solve_hand_ik(chain, targets, seed, config)
    assert list(results) == list(targets)
    for finger, target in targets.items():
        assert _bits(results[finger]) == _bits(
            reference_solve(chain, finger, target, seed, config or IkConfig()))


def _bundled_hand_solves(monkeypatch, overrides=(), run=None):
    """The bundled scenario with `overrides`, and the (targets, seed,
    config, results) of each lockstep core call its grasp makes (under
    `run`, or its own run config): the seed angles as a JointState, and the
    solves the controller took as IkResults."""
    import graspforge.controller as controller
    from graspforge.config import default_scenario_path, load_scenario
    from graspforge.ik_solver import _solve

    sc = load_scenario(default_scenario_path(), list(overrides))
    calls = []

    def recording(chain, targets, q, config):
        seed = _joint_state(chain, q)
        start, solves, counts = _solve(chain, targets, q, config)
        calls.append((targets, seed, config,
                      {name: s.result(chain, start) for name, s in solves.items()}))
        return start, solves, counts

    monkeypatch.setattr(controller, "_solve", recording)
    controller.execute_grasp(sc.scene, sc.targets, run or sc.run, sc.ik, sc.validation)
    monkeypatch.undo()
    return sc, calls


def test_the_bundled_hand_solves_match_the_reference_loop(monkeypatch):
    """The two solves of the bundled grasp, as `execute_grasp` makes them:
    the pre-grasp waypoints from neutral, then the contact targets from the
    posture that ends pre_grasp (step 80)."""
    sc, calls = _bundled_hand_solves(monkeypatch)
    chain = sc.scene.chain
    assert len(calls) == 2
    assert calls[0][1] == neutral_state(chain) and calls[1][1] != calls[0][1]
    for targets, seed, config, results in calls:
        assert set(targets) == set(chain.fingers)
        _assert_hand_matches_reference(chain, targets, seed, config, results)


@st.composite
def _hand_problems(draw, chains, neutral=False):
    """(chain, targets, seed, config): one drawn problem per finger of one
    chain, in a drawn order, with a shared seed and config.

    A finger's target is the fingertip of a posture within its limits
    (reachable), of a posture up to 0.5 rad past them (limit-pinned), or a
    point well outside its reach (far).  With `neutral`, the seed is the
    neutral posture.
    """
    chain = draw(st.sampled_from(chains))

    def posture(margin):
        return JointState(values={
            ji: draw(st.floats(chain.joints[ji].lower_limit - margin,
                               chain.joints[ji].upper_limit + margin))
            for ji in chain.movable})

    seed = neutral_state(chain) if neutral else posture(0.5)
    targets = {}
    for finger in draw(st.permutations(sorted(chain.fingers))):
        ee = chain.fingers[finger].end_effector
        kind = draw(st.sampled_from(["reachable", "pinned", "far"]))
        if kind == "far":
            direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))) + [0.0, 0.0, 1.5]
            scale = float(np.linalg.norm(link_transform(chain, seed, ee)[1])) + 0.1
            targets[finger] = 3.0 * scale * direction
        else:
            targets[finger] = link_transform(
                chain, posture(0.0 if kind == "reachable" else 0.5), ee)[1]
    config = IkConfig(max_iterations=draw(st.integers(1, 100)),
                      damping_lambda=draw(st.sampled_from([0.05, 0.01, 0.3])),
                      step_scale=draw(st.sampled_from([1.0, 0.5])))
    return chain, targets, seed, config


@settings(max_examples=25)
@given(problem=st.data())
def test_hand_solves_match_the_reference_loop_bitwise(chain, problem):
    """Bundled hand, the two-link arm and the wrist hand."""
    robot, targets, seed, config = problem.draw(_hand_problems([chain, _TWO_LINK, _WRIST_HAND]))
    _assert_hand_matches_reference(robot, targets, seed, config)


@settings(max_examples=15)
@given(problem=st.data())
def test_neutral_seeded_hand_solves_match_the_reference_loop_bitwise(chain, problem):
    """As above, from the neutral posture, whose walks the chain keeps."""
    robot, targets, seed, config = problem.draw(
        _hand_problems([chain, _TWO_LINK, _WRIST_HAND], neutral=True))
    _assert_hand_matches_reference(robot, targets, seed, config)


def test_a_finger_subset_keeps_the_targets_order(chain):
    rng = np.random.default_rng(23)
    posture = JointState(values={
        ji: rng.uniform(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit)
        for ji in chain.movable})
    targets = {f: link_transform(chain, posture, chain.fingers[f].end_effector)[1]
               for f in ("ring", "thumb", "index")}
    targets["middle"] = np.array([0.0, 0.0, 1.0])  # out of reach
    _assert_hand_matches_reference(chain, targets, mid_range_state(chain), None)


def test_an_unknown_finger_in_a_hand_solve_raises(chain):
    from graspforge.robot_model import UnknownFingerError
    with pytest.raises(UnknownFingerError):
        solve_hand_ik(chain, {"index": np.zeros(3), "tentacle": np.zeros(3)},
                      mid_range_state(chain))


# --------------------------------------------------------------------------
# re-seeds as parallel rows: every result equals the one-descent-at-a-time
# reference loop's, bit for bit


def _ik_reach_inputs(seed: int) -> list:
    """The inputs of the benchmark's `ik_reach` workload for `seed`:
    (index, finger, target, reachable), and its chain, start and config."""
    wl = perfbench_workload("ik_reach", seed)
    return wl.inputs, wl.chain, wl.seed_state, wl.scenario.ik


def test_the_far_ik_reach_inputs_match_the_reference_loop():
    """Every out-of-reach input of `ik_reach` seed 1 runs its re-seeds as
    parallel rows, and seed 18's input 12, a reachable target, stalls short
    of the threshold: each result is the reference loop's."""
    inputs, chain, start, config = _ik_reach_inputs(1)
    far = [x for x in inputs if not x[3]]
    assert len(far) == 40
    inputs18, _, _, _ = _ik_reach_inputs(18)
    for _, finger, target, _ in far + [inputs18[12]]:
        result = solve_finger_ik(chain, finger, target, start, config)
        assert _bits(result) == _bits(reference_solve(chain, finger, target, start, config))
    assert not solve_finger_ik(chain, *inputs18[12][1:3], start, config).converged


def _events(monkeypatch):
    """Record, per descent that ends itself, (descent, its length, its
    record count, the later rows live once it ended), and per solve that
    finishes, (how it ended, its iterations)."""
    from graspforge.ik_solver import _FingerSolve
    ended, finished = [], []
    end, finish = _FingerSolve.ended, _FingerSolve.finish

    def recording_end(self, row, length, cfg):
        end(self, row, length, cfg)  # the start's end adds the re-seed rows
        ended.append((row.index, length, len(row.residuals),
                      sum(r.live for r in self.rows[row.index + 1:])))

    def recording_finish(self, cfg):
        finish(self, cfg)
        finished.append((self.ended_by, self.iterations))

    monkeypatch.setattr(_FingerSolve, "ended", recording_end)
    monkeypatch.setattr(_FingerSolve, "finish", recording_finish)
    return ended, finished


def _solve_once(chain, finger, target, seed, config):
    """`_solve` on one finger, checked against the reference loop."""
    from graspforge.ik_solver import _solve_state
    results, counts = _solve_state(chain, {finger: target}, seed, config)
    assert _bits(results[finger]) == _bits(reference_solve(chain, finger, target, seed, config))
    return results[finger], counts


_FAR_SEED, _FAR_TARGET = JointState(values={0: 0.1, 1: 0.1}), np.array([10.0, 0.0, 0.0])


@pytest.mark.parametrize("budget, walked", zip(range(1, 13), [25] + [77] * 11))
def test_a_budget_that_ends_inside_a_reseed_matches_the_reference_loop(monkeypatch, budget,
                                                                       walked):
    """The two-link arm toward a far target: the start stalls after one
    iteration, re-seeds 1 to 3 and 5 are stationary after two and re-seed 4
    after one, so the solve ends on a plateau at 10 iterations, and a
    smaller budget cuts it inside or at the start of a re-seed.

    The re-seeds take their first records from the chain's seed walks, and
    all five walk as parallel rows at every budget.  No row stops another:
    each runs until it ends itself or holds `budget` + 1 records.  At a
    budget of 1 that cap stops re-seeds 1 to 3 and 5 at their second
    records; from 2 on every row ends itself, so the solve walks the 77 row
    trials it walks with no budget cut."""
    ended, finished = _events(monkeypatch)
    result, (rounds, _, trials) = _solve_once(_TWO_LINK, "arm", _FAR_TARGET, _FAR_SEED,
                                              IkConfig(max_iterations=budget))
    assert not result.converged
    assert finished == [("budget", budget) if budget < 10 else ("plateau", 10)]
    lengths = [(0, 1), (1, 2), (2, 2), (3, 2), (4, 1), (5, 2)]
    assert sorted(e[:2] for e in ended) == (lengths if budget > 1 else [(0, 1), (4, 1)])
    assert trials > rounds  # the re-seeds ran as parallel rows
    assert trials == walked


def test_a_result_does_not_depend_on_a_budget_it_did_not_reach():
    """Every `ik_reach` seed 1 solve ends under its budget of 100, and gives
    the same result at a budget of its own iteration count and one more; so
    does the two-link arm toward a far target, which ends on its sixth
    descent's stall at 10 iterations, at budgets 10, 11 and 100."""
    from dataclasses import replace

    inputs, chain, start, config = _ik_reach_inputs(1)
    for _, finger, target, _ in inputs:
        result = solve_finger_ik(chain, finger, target, start, config)
        assert result.iterations < config.max_iterations
        for budget in (max(result.iterations, 1), result.iterations + 1):
            assert _bits(solve_finger_ik(chain, finger, target, start,
                                         replace(config, max_iterations=budget))) == _bits(result)
    seed = JointState(values={0: 0.1, 1: 0.1})
    results = [_bits(solve_finger_ik(_TWO_LINK, "arm", np.array([10.0, 0.0, 0.0]), seed,
                                     IkConfig(max_iterations=budget)))
               for budget in (10, 11, 100)]
    assert results[0][1] == 10 and results[1:] == results[:1] * 2


def test_a_converged_reseed_is_the_result_while_the_later_rows_run_on(monkeypatch):
    """Found by a scan of the two-link arm: the start is stationary after one
    step, re-seed 4 converges while re-seed 5 still runs, and re-seed 1
    converges while re-seeds 2 and 3 still run.  Re-seeds 2, 3 and 5 run on
    to their own ends, and the result is re-seed 1's converged record, the
    first in re-seed order."""
    ended, finished = _events(monkeypatch)
    seed = JointState(values={0: 1.3769793659039902, 1: 0.261749948792537})
    target = np.array([1.8161245400219759, 0.4691974133755914, 0.0])
    result, _ = _solve_once(_TWO_LINK, "arm", target, seed, IkConfig(max_iterations=83))
    assert result.converged and result.iterations == 9
    assert ended == [(0, 2, 2, 5), (4, 5, 6, 1), (5, 6, 7, 0), (1, 7, 8, 2), (2, 2, 3, 1),
                     (3, 2, 2, 0)]
    assert finished == [("converged", 9)]


def test_a_reseed_row_stops_at_its_own_stall(monkeypatch):
    """Found by a scan of the two-link arm: re-seeds 2 and 3 stall on their
    third records while re-seed 1, whose end fixes the counts they start
    at, still runs; each row ends there, its stall its last record, and
    the result is the reference loop's."""
    ended, finished = _events(monkeypatch)
    seed = JointState(values={0: 2.6918966828234634, 1: -1.1290112879370873})
    target = np.array([0.05910812350128358, 2.2523184816296764, 0.0])
    result, _ = _solve_once(_TWO_LINK, "arm", target, seed, IkConfig())
    assert not result.converged and result.iterations == 22
    assert ended[1:4] == [(2, 2, 3, 3), (3, 2, 3, 2), (1, 6, 7, 2)]
    assert finished == [("plateau", 22)]


def test_no_row_records_more_than_the_budget_and_one(chain):
    """The result reads no record past `max_iterations` of any descent, so a
    row stops once it holds `max_iterations` + 1: the two-link far target
    at budgets 1 to 12, and a far index target from the bundled neutral
    posture, whose start row holds five records with no budget cut."""
    from graspforge.ik_solver import _solve

    def most_records(robot, finger, target, seed, budget):
        _, solves, _ = _solve(robot, {finger: target}, _angles(robot, seed),
                              IkConfig(max_iterations=budget))
        return max(len(r.residuals) for r in solves[finger].rows)

    for budget in range(1, 13):
        assert most_records(_TWO_LINK, "arm", _FAR_TARGET, _FAR_SEED, budget) <= budget + 1
    far, neutral = _near_and_far(chain, "index")[1], neutral_state(chain)
    for budget in (1, 2, 3):
        assert most_records(chain, "index", far, neutral, budget) == budget + 1
    assert most_records(chain, "index", far, neutral, 100) == 5


@pytest.mark.parametrize("budget", [20, 27])
def test_the_bundled_pre_grasp_solve_under_a_smaller_budget_matches_the_reference_loop(
        monkeypatch, budget):
    """Middle and ring re-seed in parallel rows; the budget cuts both at 20,
    inside and at the start of a re-seed, and ring's last re-seed at 27."""
    from graspforge.controller import RunConfig

    sc, calls = _bundled_hand_solves(monkeypatch, [f"ik.max_iterations={budget}"],
                                     RunConfig(max_steps=1))
    targets, seed, config, results = calls[0]
    assert config.max_iterations == budget
    _assert_hand_matches_reference(sc.scene.chain, targets, seed, config, results)


# --------------------------------------------------------------------------
# seed walks: a row seeded at the neutral posture, and every re-seed row,
# takes its first record from the walks the chain keeps


def _near_and_far(robot, finger):
    """A reachable target of `finger` (its tip at mid-range) and one well
    outside its reach."""
    ee = robot.fingers[finger].end_effector
    tip = link_transform(robot, mid_range_state(robot), ee)[1]
    return tip, np.array([0.0, 0.0, 3.0 * (float(np.linalg.norm(tip)) + 0.1)])


@pytest.mark.parametrize("budget", [1, 2, 3, 100])
def test_neutral_seeds_match_the_reference_loop(chain, budget):
    """From the neutral posture, near and far targets on the three chains:
    at a budget of 1 to 3 the solve ends on a record that came from a seed
    walk (the start's, or a re-seed's)."""
    config = IkConfig(max_iterations=budget)
    for robot in (chain, _TWO_LINK, _WRIST_HAND):
        seed = neutral_state(robot)
        pairs = {f: _near_and_far(robot, f) for f in robot.fingers}
        for k in (0, 1):
            _assert_hand_matches_reference(robot, {f: p[k] for f, p in pairs.items()}, seed,
                                           config)
        for finger, (_, far) in pairs.items():
            result = solve_finger_ik(robot, finger, far, seed, config)
            assert _bits(result) == _bits(reference_solve(robot, finger, far, seed, config))


@pytest.mark.parametrize("robot, finger, off_neutral", [
    (TWO_LINK_ARM, "arm", {0: -0.0, 1: -0.0}),  # own joints
], ids=["own joints at -0.0"])
def test_a_seed_off_neutral_by_its_bytes_walks(robot, finger, off_neutral):
    """A start row takes the neutral seed walk only when its seed is the
    neutral posture by its bytes (-0.0 is not 0.0).  The seed walk that
    must not be read here has a NaN fingertip: the results are the
    reference loop's, while a neutral seed reads it."""
    from dataclasses import replace

    robot = parse_robot_description(robot)
    seeds = robot.finger_seeds[finger]
    tips = seeds.tips.copy()
    tips[0] = np.nan
    robot.finger_seeds[finger] = replace(seeds, tips=tips)
    neutral = neutral_state(robot)
    seed = neutral.copy()
    seed.values.update(off_neutral)
    for target in _near_and_far(robot, finger):
        result = solve_finger_ik(robot, finger, target, seed)
        assert _bits(result) == _bits(reference_solve(robot, finger, target, seed, IkConfig()))
        assert math.isnan(solve_finger_ik(robot, finger, target, neutral).residual)


@pytest.mark.parametrize("target", [[np.nan, 0.0, 0.1], [0.0, -np.inf, 0.1], [0.05, 0.02],
                                    "far"])
def test_a_bad_target_raises_naming_its_finger_before_any_walk(chain, monkeypatch, target):
    """A target that is not three finite numbers, alone or among five."""
    import graspforge.ik_solver as ik_solver

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(ik_solver, "finger_walk", no_walk)
    seed = mid_range_state(chain)  # not neutral: every start row walks
    with pytest.raises(KinematicsError, match="finger 'middle': IK target must be three finite"):
        solve_finger_ik(chain, "middle", target, seed)
    targets = {f: link_transform(chain, seed, chain.fingers[f].end_effector)[1]
               for f in chain.fingers}
    targets["ring"] = target
    with pytest.raises(KinematicsError, match="finger 'ring'"):
        solve_hand_ik(chain, targets, neutral_state(chain))


def test_lockstep_counts_do_not_depend_on_earlier_solves(monkeypatch):
    """The bundled grasp's two hand solves make the same rounds, stacked
    walks and row trials on a freshly loaded chain as after other solves in
    the process, on that chain and on another with the same finger names:
    the seed walks are built with the chain, not filled by solves."""
    from graspforge.ik_solver import _solve
    from graspforge.robot_model import bundled_hand_path, load_robot_description

    _, calls = _bundled_hand_solves(monkeypatch)

    def counts(robot):
        return [_solve(robot, targets, _angles(robot, seed), config)[2]
                for targets, seed, config, _ in calls]

    fresh = counts(load_robot_description(bundled_hand_path()))
    assert fresh == [(9, 15, 83), (8, 15, 34)]
    used, other = (load_robot_description(bundled_hand_path()) for _ in range(2))
    for robot in (used, other):
        for finger in robot.fingers:
            for target in _near_and_far(robot, finger):
                solve_finger_ik(robot, finger, target, mid_range_state(robot))
        solve_hand_ik(robot, {f: _near_and_far(robot, f)[1] for f in robot.fingers},
                      neutral_state(robot))
    assert counts(used) == fresh
    assert counts(load_robot_description(bundled_hand_path())) == fresh
