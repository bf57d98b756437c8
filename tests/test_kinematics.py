import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspforge.kinematics import (JointState, KinematicsError, Pose, _joint_state, _neutral,
                                   _rodrigues, _stacked_frames, clamp_to_limits, finger_walk,
                                   jacobian, link_frames, link_transform, neutral_state,
                                   within_limits)
from graspforge.robot_model import parse_robot_description
from graspforge.transforms import rodrigues_terms, rpy_matrix

from conftest import TWO_LINK_ARM, WRIST_HAND, joint_rows, mid_range_state
from reference import (axis_angle_matrix, reference_frame, reference_jacobian,
                       reference_link_transform)

# A branching tree whose joints are listed tip-first, so file order is not
# parent-first; tilted axes, rpy origins and fixed joints at every level.
# With b_branch hung off mid, finger b below finger a's a_mid, the parser
# rejects it.
TIP_FIRST_TREE = """
<robot name="tip_first">
  <link name="tip_b"/>
  <link name="tip_a"/>
  <link name="distal"/>
  <link name="branch"/>
  <link name="mid"/>
  <link name="base"/>
  <joint name="a_tip" type="fixed">
    <parent link="distal"/><child link="tip_a"/>
    <origin xyz="0.02 -0.01 0.03" rpy="0.3 -0.2 0.1"/>
  </joint>
  <joint name="a_distal" type="revolute">
    <parent link="mid"/><child link="distal"/>
    <origin xyz="0.04 0.0 0.01" rpy="-0.5 0.25 1.0"/>
    <axis xyz="0.6 0 0.8"/><limit lower="-2" upper="2"/>
  </joint>
  <joint name="b_tip" type="revolute">
    <parent link="branch"/><child link="tip_b"/>
    <origin xyz="0.0 0.03 -0.02" rpy="0.7 0.0 -0.4"/>
    <axis xyz="1 1 1"/><limit lower="-2" upper="2"/>
  </joint>
  <joint name="b_branch" type="fixed">
    <parent link="base"/><child link="branch"/>
    <origin xyz="-0.01 0.02 0.05" rpy="1.2 -0.9 0.3"/>
  </joint>
  <joint name="a_mid" type="revolute">
    <parent link="base"/><child link="mid"/>
    <origin xyz="0.01 0.02 0.03" rpy="0.1 0.2 -0.3"/>
    <axis xyz="0 1 0"/><limit lower="-2" upper="2"/>
  </joint>
</robot>
"""


def test_two_link_fk_matches_planar_geometry(two_link):
    for q1, q2 in [(0.0, 0.0), (0.3, -0.4), (1.2, 0.5), (0.0, math.pi / 2)]:
        p = link_transform(two_link, JointState(values={0: q1, 1: q2}), "tip")[1]
        expected = [math.cos(q1) + math.cos(q1 + q2),
                    math.sin(q1) + math.sin(q1 + q2), 0.0]
        assert np.allclose(p, expected, atol=1e-12)


def test_two_link_jacobian_analytic(two_link):
    q1, q2 = 0.0, math.pi / 2
    J = jacobian(two_link, JointState(values={0: q1, 1: q2}), "tip")
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    expected = np.array([[-(s1 + s12), -s12], [c1 + c12, c12], [0.0, 0.0]])
    assert np.allclose(J, expected, atol=1e-12)


def test_intermediate_link_transform(two_link):
    # the elbow link frame sits at the end of the first segment
    R, t = link_transform(two_link, JointState(values={0: math.pi / 2, 1: 0.0}), "fore")
    assert np.allclose(t, [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_root_link_is_identity(chain):
    R, t = link_transform(chain, neutral_state(chain), chain.root)
    assert np.allclose(R, np.eye(3))
    assert np.allclose(t, 0.0)


def test_link_accepts_name_or_index(chain):
    state = neutral_state(chain)
    li = chain.link_index["index_tip"]
    by_name = link_transform(chain, state, "index_tip")[1]
    by_index = link_transform(chain, state, li)[1]
    assert np.array_equal(by_name, by_index)


def test_unknown_link_raises(chain):
    with pytest.raises(KinematicsError):
        link_transform(chain, neutral_state(chain), "no_such_link")
    with pytest.raises(KinematicsError):
        link_transform(chain, neutral_state(chain), 10 ** 6)


def test_missing_joint_value_raises(chain):
    partial = neutral_state(chain)
    del partial.values[chain.movable[3]]
    for state in (JointState(values={}), partial):
        for read in (lambda s: link_transform(chain, s, "index_tip"),
                     lambda s: jacobian(chain, s, "index_tip"),
                     lambda s: within_limits(chain, s)):
            with pytest.raises(KinematicsError):
                read(state)


def test_neutral_state_covers_every_movable_joint(chain):
    """In `chain.movable` order, the bits of the controller's start posture."""
    neutral = neutral_state(chain)
    assert list(neutral.values) == list(chain.movable)
    assert np.array(list(neutral.values.values())).tobytes() == _neutral(chain).tobytes()


def test_neutral_state_is_clamped_zero(chain):
    neutral = neutral_state(chain)
    assert within_limits(chain, neutral)
    for ji, v in neutral.values.items():
        j = chain.joints[ji]
        assert v == min(max(0.0, j.lower_limit), j.upper_limit)


def test_mid_range_state_is_interior(chain):
    mid = mid_range_state(chain)
    for ji, v in mid.values.items():
        j = chain.joints[ji]
        assert j.lower_limit < v < j.upper_limit


@given(st.lists(st.floats(-6, 6), min_size=21, max_size=21))
def test_clamp_is_idempotent_and_feasible(chain, values):
    state = JointState(values=dict(zip(chain.movable, values)))
    clamped = clamp_to_limits(chain, state)
    assert within_limits(chain, clamped)
    assert clamp_to_limits(chain, clamped).values == clamped.values


def test_within_limits_tolerance(chain):
    state = neutral_state(chain)
    ji = chain.movable[0]
    state.values[ji] = chain.joints[ji].upper_limit + 1e-6
    assert not within_limits(chain, state)
    assert within_limits(chain, state, tol=1e-5)


def test_joint_state_copy_is_independent(chain):
    a = neutral_state(chain)
    b = a.copy()
    b.values[chain.movable[0]] += 0.1
    assert a.values[chain.movable[0]] != b.values[chain.movable[0]]


@given(st.integers(0, 2 ** 32 - 1))
def test_jacobian_matches_finite_differences(chain, seed):
    """Analytic tip jacobian agrees with a central-difference estimate."""
    rng = np.random.default_rng(seed)
    state = JointState(values={
        ji: rng.uniform(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit)
        for ji in chain.movable})
    tip = "middle_tip"
    J = jacobian(chain, state, tip)
    h = 1e-6
    # one stacked pass over the rows q + h e_j, then the rows q - h e_j
    q = np.array([state.values[ji] for ji in chain.movable])
    steps = h * np.eye(len(q))
    _, t = _stacked_frames(chain, np.concatenate([q + steps, q - steps]))
    p = t[:, chain.link_index[tip]]
    for col in range(len(q)):
        fd = (p[col] - p[len(q) + col]) / (2 * h)
        assert np.allclose(J[:, col], fd, atol=1e-6)


def test_jacobian_zero_for_unrelated_fingers(chain):
    state = mid_range_state(chain)
    J = jacobian(chain, state, "index_tip")
    thumb_cols = [list(chain.movable).index(ji) for ji in chain.fingers["thumb"].joints]
    assert np.allclose(J[:, thumb_cols], 0.0)


class TestPose:
    @pytest.mark.parametrize("rpy", [(math.pi, 0.0, 0.0), (0.0, 0.0, 0.3), (0.2, -0.4, 1.1),
                                     (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_from_rpy_keeps_the_rpy_matrix_bitwise(self, rpy):
        p = Pose.from_rpy((1, 2, 3), rpy)
        assert p.rotation().tobytes() == rpy_matrix(*rpy).tobytes()
        assert p.position.tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()

    @given(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    def test_from_rpy_keeps_drawn_rpy_matrices_bitwise(self, rpy):
        assert Pose.from_rpy((0, 0, 0), rpy).rotation().tobytes() == rpy_matrix(*rpy).tobytes()

    @pytest.mark.parametrize("rotation, match", [
        (np.full((3, 3), np.nan), "finite 3x3"),
        (np.where(np.eye(3) > 0, np.inf, 0.0), "finite 3x3"),
        (np.eye(2), "finite 3x3"),
        (np.eye(4), "finite 3x3"),
        (2.0 * np.eye(3), "orthonormal"),
        (np.diag([1.0, 1.0, -1.0]), "orthonormal"),  # a reflection, det -1
        (np.eye(3) + 1e-8, "orthonormal"),
    ])
    def test_rejects_a_rotation_that_is_not_one(self, rotation, match):
        with pytest.raises(ValueError, match=match):
            Pose(position=(0, 0, 0), rotation_matrix=rotation)

    def test_rejects_a_non_finite_rpy(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite 3x3"):
            Pose.from_rpy((0, 0, 0), (0, 0, float("inf")))

    def test_accepts_a_rotation_within_the_tolerance(self):
        R = rpy_matrix(0.2, -0.4, 1.1)
        R[0, 0] += 1e-12
        assert Pose(position=(0, 0, 0), rotation_matrix=R).rotation()[0, 0] == R[0, 0]

    def test_equality_is_exact(self):
        a = Pose(position=(1, 2, 3))
        assert a == Pose(position=(1, 2, 3))
        assert a != Pose(position=(1, 2, 3.0000001))
        b = Pose.from_rpy((1, 2, 3), (0.0, 0.0, 0.3))
        assert b == Pose(position=(1, 2, 3), rotation_matrix=rpy_matrix(0.0, 0.0, 0.3))
        R = rpy_matrix(0.0, 0.0, 0.3)
        R[0, 1] = np.nextafter(R[0, 1], 1.0)
        assert b != Pose(position=(1, 2, 3), rotation_matrix=R)
        assert a != Pose.from_rpy((1, 2, 3), (0.0, 0.0, 0.3))

    def test_rotation_is_made_once_and_read_only(self):
        R_in = rpy_matrix(0.1, -0.7, 2.3)
        p = Pose(position=(1, 2, 3), rotation_matrix=R_in)
        R = p.rotation()
        assert R is p.rotation()
        assert R.tobytes() == rpy_matrix(0.1, -0.7, 2.3).tobytes()
        with pytest.raises(ValueError):  # shared by every caller, so read-only
            R[0, 0] = 2.0
        R_in[0, 0] = 2.0  # the pose keeps its own copy
        assert R.tobytes() == rpy_matrix(0.1, -0.7, 2.3).tobytes()


@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
                .filter(lambda v: 1e-3 < math.hypot(*v)), min_size=1, max_size=6),
       st.data())
def test_rodrigues_equals_the_one_axis_formula_bitwise(raw_axes, data):
    """`_rodrigues` on `rodrigues_terms`, the route of every joint rotation,
    is `axis_angle_matrix` on each axis and angle bit for bit, at +-0 and
    +-pi and on a stack of rows."""
    axes = np.array([np.array(v) / math.hypot(*v) for v in raw_axes])
    angle = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-3.2, 3.2))
    angles = np.array([[data.draw(angle) for _ in axes] for _ in range(2)])
    rot = _rodrigues(rodrigues_terms(axes), angles)
    assert rot.shape == (2, len(axes), 3, 3)
    for row, a in zip(rot, angles):
        for R, axis, theta in zip(row, axes, a.tolist()):
            assert R.tobytes() == axis_angle_matrix(axis, theta).tobytes()


_angles = st.floats(-3.2, 3.2, allow_nan=False)


@given(st.lists(_angles, min_size=21, max_size=21))
def test_link_frames_equal_link_transform_bitwise(chain, values):
    """Every row of `link_frames` is the reference walk's frame of its link."""
    state = JointState(values=dict(zip(chain.movable, values)))
    R, t = link_frames(chain, state)
    assert R.shape == (len(chain.links), 3, 3) and t.shape == (len(chain.links), 3)
    for li in range(len(chain.links)):
        R_walk, t_walk = reference_link_transform(chain, state, li)
        # bytes, so that a -0.0 where the walk has +0.0 counts
        assert R[li].tobytes() == R_walk.tobytes() and t[li].tobytes() == t_walk.tobytes()


@given(st.data())
def test_stacked_frames_equal_link_frames_bitwise(chain, data):
    """Every row of one stacked pass, on the bundled hand and on a tip-first
    tree, is bit for bit the one-row `link_frames` of that row."""
    for tree in (chain, parse_robot_description(TIP_FIRST_TREE)):
        rows = data.draw(joint_rows(tree))
        R, t = _stacked_frames(tree, rows)
        assert R.shape == (len(rows), len(tree.links), 3, 3)
        assert t.shape == (len(rows), len(tree.links), 3)
        for i, row in enumerate(rows.tolist()):
            R_one, t_one = link_frames(tree, JointState(values=dict(zip(tree.movable, row))))
            assert R[i].tobytes() == R_one.tobytes() and t[i].tobytes() == t_one.tobytes()


@given(st.lists(_angles, min_size=3, max_size=3))
def test_link_frames_on_a_tip_first_tree(values):
    tree = parse_robot_description(TIP_FIRST_TREE)
    # file order is tip-first; the pass must still see parents first
    assert [j.name for j in tree.joints][0] == "a_tip"
    state = JointState(values=dict(zip(tree.movable, values)))
    R, t = link_frames(tree, state)
    assert R.shape == (len(tree.links), 3, 3) and t.shape == (len(tree.links), 3)
    for li in range(len(tree.links)):
        R_walk, t_walk = reference_link_transform(tree, state, li)
        assert R[li].tobytes() == R_walk.tobytes() and t[li].tobytes() == t_walk.tobytes()
        R_ref, t_ref = reference_frame(tree, state.values, li)
        assert np.allclose(R[li], R_ref, rtol=0.0, atol=1e-12)
        assert np.allclose(t[li], t_ref, rtol=0.0, atol=1e-12)


@given(st.data())
def test_stacked_finger_walks_and_steps_equal_the_one_row_routes_bitwise(chain, data):
    """Rows of the fingers of each walk group, walked together from a drawn
    posture, in a drawn order and often with a finger in two rows:
    each row's fingertip and Jacobian are the bits of the reference walk's
    fingertip and a column selection of its Jacobian, in that selection's
    memory layout, and the stacked DLS step on the stacked Jacobians is
    `_dls_step`'s on each row.  The bundled hand walks its four long fingers
    in one group and the thumb alone; on the wrist hand, the index finger's
    walk passes a fixed joint between two of its own.

    Cross products gathered with `take` keep the rows C-ordered; gathered
    with fancy indexing, they leave J in another layout, in which J @ J.T
    and J.T @ x round differently, and this test fails.
    """
    from graspforge.ik_solver import _dls_step, _stacked_dls_step

    for robot, group_sizes in ((chain, [1, 4]), (parse_robot_description(WRIST_HAND), [1])):
        base_q = np.array([data.draw(_angles) for _ in robot.movable])
        base = _joint_state(robot, base_q)
        groups = {group.fingers for group, _ in robot.finger_walks.values()}
        assert sorted(map(len, groups)) == group_sizes
        for fingers in groups:
            # the group's fingers in a drawn order, the last row's finger redrawn
            names = list(data.draw(st.permutations(fingers)))
            names[-1] = data.draw(st.sampled_from(fingers))
            q = np.array([[data.draw(_angles) for _ in robot.fingers[n].joints] for n in names])
            p, jacobian = finger_walk(robot, names)(q)
            J = jacobian()
            lams = [data.draw(st.floats(1e-6, 1.0)) for _ in names]
            e = np.array([[data.draw(st.floats(-0.2, 0.2)) for _ in range(3)] for _ in names])
            dq = _stacked_dls_step(J, lams, e, 0.5)
            for i, name in enumerate(names):
                f = robot.fingers[name]
                state = base.copy()
                state.values.update(zip(f.joints, q[i].tolist()))
                J_ref = _own_jacobian(robot, state, f)
                tip = reference_link_transform(robot, state, f.end_effector)[1]
                assert p[i].tobytes() == tip.tobytes()
                assert J[i].tobytes(order="A") == J_ref.tobytes(order="A")
                assert J[i].strides == J_ref.strides
                step = _dls_step(J_ref, J_ref @ J_ref.T, lams[i], e[i], 0.5)
                assert dq[i].tobytes() == step.tobytes()


def _own_jacobian(robot, state, finger):
    """The reference Jacobian's columns of the finger's own joints."""
    return reference_jacobian(robot, state, finger.end_effector)[
        :, [robot.column_of[ji] for ji in finger.joints]]


@pytest.mark.parametrize("robot", ["bundled", "two_link", "wrist"])
def test_each_seed_walk_equals_a_fresh_walk_of_its_posture(chain, robot):
    """Each finger's IK constants, built with the chain: its limits, and its
    seed walks, entry 0 at the neutral posture, entry r at re-seed r's
    posture (the reference loop's arithmetic).  Each tip and Jacobian is the
    bits of a `finger_walk` of that posture alone, and the Jacobian has its
    memory layout, which J @ J.T reads."""
    robot = {"bundled": chain, "two_link": parse_robot_description(TWO_LINK_ARM),
             "wrist": parse_robot_description(WRIST_HAND)}[robot]
    neutral = neutral_state(robot)
    assert robot.finger_seeds.keys() == robot.fingers.keys()
    for finger, seeds in robot.finger_seeds.items():
        joints = robot.fingers[finger].joints
        lower = [robot.joints[ji].lower_limit for ji in joints]
        upper = [robot.joints[ji].upper_limit for ji in joints]
        assert seeds.lower.tolist() == list(seeds.lower_l) == lower
        assert seeds.upper.tolist() == list(seeds.upper_l) == upper
        assert seeds.columns.tolist() == [robot.column_of[ji] for ji in joints]
        # no other finger's movable joint lies on the finger's path
        assert [ji for ji in robot.path_to_link[robot.fingers[finger].end_effector]
                if ji in robot.column_of] == list(joints)
        postures = [[neutral.values[ji] for ji in joints]] + [
            [lo + frac * (hi - lo) for lo, hi in zip(lower, upper)]
            for frac in (0.75, 0.1, 0.9, 0.5, 0.25)]
        for k, posture in enumerate(np.array(postures)):
            assert seeds.postures[k].tobytes() == posture.tobytes()
            p, jacobian = finger_walk(robot, [finger])(posture[None])
            J, J_seed = jacobian()[0], seeds.jacobians[k]
            assert seeds.tips[k].tobytes() == p[0].tobytes()
            assert J_seed.tobytes(order="A") == J.tobytes(order="A")
            assert J_seed.strides == J.strides


def test_a_walk_group_keeps_a_bounded_number_of_gathers(chain):
    """A walk keeps its gather per sequence of finger names; past
    `_GATHERS` the group starts afresh, and a walk gives the same bits
    either way."""
    from itertools import product

    from graspforge.kinematics import _GATHERS

    group = chain.finger_walks["index"][0]
    q = np.array([[0.1, 0.2, 0.3, 0.4]] * 5)
    names = list(product(group.fingers, repeat=5))[:3 * _GATHERS]
    first = [finger_walk(chain, n)(q)[0].tobytes() for n in names]
    assert 0 < len(group.gathers) <= _GATHERS
    assert [finger_walk(chain, n)(q)[0].tobytes() for n in names] == first


def test_link_frames_needs_every_movable_joint(chain):
    state = neutral_state(chain)
    del state.values[chain.movable[-1]]
    with pytest.raises(KinematicsError):
        link_frames(chain, state)


@settings(max_examples=30)  # each example makes two passes per link of three hands
@given(st.data())
def test_link_transform_and_jacobian_equal_the_reference_walk_bitwise(chain, data):
    """The public one-link reads of `link_frames`, on the bundled hand, the
    two-link arm and the wrist hand: every link's frame and Jacobian are the
    bits of the per-joint reference walk, the Jacobian in its memory layout."""
    for robot in (chain, parse_robot_description(TWO_LINK_ARM),
                  parse_robot_description(WRIST_HAND)):
        row = data.draw(joint_rows(robot, max_rows=1))[0]
        state = JointState(values=dict(zip(robot.movable, row.tolist())))
        for li in range(len(robot.links)):
            R, t = link_transform(robot, state, li)
            R_ref, t_ref = reference_link_transform(robot, state, li)
            assert R.tobytes() == R_ref.tobytes() and t.tobytes() == t_ref.tobytes()
            J, J_ref = jacobian(robot, state, li), reference_jacobian(robot, state, li)
            assert J.tobytes(order="A") == J_ref.tobytes(order="A")
            assert J.strides == J_ref.strides
