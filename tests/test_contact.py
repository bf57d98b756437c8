import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.contact import (_closest_point_local, _deepest_on_segments, _stacked_contacts,
                                closest_point_box, detect_contacts)
from graspforge.controller import execute_grasp, step_servo
from graspforge.kinematics import JointState, Pose, _stacked_frames, link_transform
from graspforge.robot_model import parse_robot_description
from graspforge.scene import PhysicalParams, Scene, make_box_object
from graspforge.transforms import rpy_matrix

from conftest import joint_rows
from reference import (axis_angle_matrix, quat_to_matrix, reference_closest_point_local,
                       reference_detect_contacts)

# single revolute finger carrying a sphere fingertip 50 mm out along +x
SPHERE_FINGER = """
<robot name="probe">
  <link name="palm"/>
  <link name="ball">
    <collision>
      <origin xyz="0.05 0 0"/>
      <geometry><sphere radius="0.01"/></geometry>
    </collision>
  </link>
  <joint name="poke_pitch" type="revolute">
    <parent link="palm"/><child link="ball"/>
    <axis xyz="0 0 1"/><limit lower="-1" upper="1"/>
  </joint>
</robot>
"""

# same layout but a capsule lying along +x, covering x in [0.03, 0.07]
CAPSULE_FINGER = """
<robot name="probe">
  <link name="palm"/>
  <link name="rod">
    <collision>
      <origin xyz="0.05 0 0" rpy="0 1.5707963267948966 0"/>
      <geometry><capsule radius="0.01" length="0.04"/></geometry>
    </collision>
  </link>
  <joint name="poke_pitch" type="revolute">
    <parent link="palm"/><child link="rod"/>
    <axis xyz="0 0 1"/><limit lower="-1" upper="1"/>
  </joint>
</robot>
"""


def _mini_scene(urdf, box_center, half=(0.02, 0.02, 0.02), rotation=np.eye(3)):
    chain = parse_robot_description(urdf)
    params = PhysicalParams()
    obj = make_box_object(half, Pose(position=box_center, rotation_matrix=rotation), 0.1, params)
    scene = Scene(chain=chain, hand_base=Pose(position=(0, 0, 0)), object=obj)
    return scene, JointState(values={0: 0.0})


def _box(center=(0.0, 0.0, 0.0), half=(0.1, 0.1, 0.1), rpy=(0.0, 0.0, 0.0)):
    return make_box_object(half, Pose.from_rpy(center, rpy), 1.0, PhysicalParams())


@st.composite
def _box_probes(draw):
    """Half extents and (M, 3) box-frame probes, M in [0, 8]: in a face,
    edge or corner region (one, two or three axes outside the slab), inside,
    on a face, or inside with two face gaps a few ulps apart, a near-tie
    within _TIE_TOLERANCE."""
    half = np.array(draw(st.lists(st.floats(0.005, 0.05), min_size=3, max_size=3)))
    probes = []
    for kind in draw(st.lists(st.sampled_from(["face", "edge", "corner", "inside", "surface",
                                               "near_tie"]), max_size=8)):
        inner = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        p = inner * half
        sign = np.where(draw(st.lists(st.booleans(), min_size=3, max_size=3)), 1.0, -1.0)
        axes = draw(st.permutations(range(3)))
        if kind in ("face", "edge", "corner"):
            out = axes[:{"face": 1, "edge": 2, "corner": 3}[kind]]
            beyond = np.array(draw(st.lists(st.floats(1e-9, 0.05), min_size=3, max_size=3)))
            p[out] = sign[out] * (half[out] + beyond[out])
        elif kind == "surface":
            p[axes[0]] = sign[axes[0]] * half[axes[0]]
        elif kind == "near_tie":
            i, j = axes[:2]
            gap = draw(st.floats(0.0, 0.9)) * min(half[i], half[j])
            p[i], p[j] = half[i] - gap, half[j] - gap
            for _ in range(draw(st.integers(0, 3))):
                p[j] = np.nextafter(p[j], 0.0 if draw(st.booleans()) else 1.0)
            p[[i, j]] *= sign[[i, j]]
        probes.append(p)
    return half, np.array(probes).reshape(-1, 3)


class TestClosestPointBox:
    def test_outside_face_region(self):
        cp, n, sd = closest_point_box([0.3, 0.0, 0.0], _box())
        assert np.allclose(cp, [0.1, 0.0, 0.0])
        assert np.allclose(n, [1.0, 0.0, 0.0])
        assert sd == pytest.approx(0.2)

    def test_outside_corner_region(self):
        cp, n, sd = closest_point_box([0.2, 0.2, 0.2], _box())
        assert np.allclose(cp, [0.1, 0.1, 0.1])
        assert np.allclose(n, np.ones(3) / np.sqrt(3))
        assert sd == pytest.approx(0.1 * np.sqrt(3))

    def test_inside_nearest_face_wins(self):
        cp, n, sd = closest_point_box([0.02, 0.05, -0.09], _box())
        assert np.allclose(n, [0.0, 0.0, -1.0])
        assert np.allclose(cp, [0.02, 0.05, -0.1])
        assert sd == pytest.approx(-0.01)

    def test_inside_center_ties_break_on_x(self):
        cp, n, sd = closest_point_box([0.0, 0.0, 0.0], _box())
        assert np.allclose(n, [1.0, 0.0, 0.0])
        assert np.allclose(cp, [0.1, 0.0, 0.0])
        assert sd == pytest.approx(-0.1)

    def test_inside_near_tie_breaks_on_x(self):
        # z's gap is smaller than x's by one rounding step (3.5e-18 m), which
        # is within _TIE_TOLERANCE, so x wins; a 1e-12 m lead is not a tie
        half = np.array([0.03, 0.025, 0.03])
        x = 0.0221
        _, n, sd = _closest_point_local(np.array([[x, 0.0, np.nextafter(x, 1.0)],
                                                  [x, 0.0, x + 1e-12]]), half)
        assert n.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]] and sd[0] == x - 0.03

    def test_oriented_box_rotates_the_answer(self):
        box = _box(rpy=(0.0, 0.0, np.pi / 4))
        R = box.pose.rotation()
        cp, n, sd = closest_point_box(R @ [0.15, 0.0, 0.0], box)
        assert np.allclose(cp, R @ [0.1, 0.0, 0.0], atol=1e-12)
        assert np.allclose(n, R @ [1.0, 0.0, 0.0], atol=1e-12)
        assert sd == pytest.approx(0.05)

    @given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
           st.floats(-3, 3), st.floats(-1.4, 1.4), st.floats(-3, 3))
    def test_reconstruction_invariant(self, x, y, z, roll, pitch, yaw):
        """p = surface_point + signed_distance * normal, inside or out."""
        box = _box(center=(0.05, -0.02, 0.01), rpy=(roll, pitch, yaw))
        p = np.array([x, y, z])
        cp, n, sd = closest_point_box(p, box)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(cp - p) == pytest.approx(abs(sd), abs=1e-9)
        assert np.allclose(cp + sd * n, p, atol=1e-9)
        # the surface point really is on the box
        local = box.pose.rotation().T @ (cp - box.pose.position)
        gaps = np.asarray(box.half_extents) - np.abs(local)
        assert gaps.min() == pytest.approx(0.0, abs=1e-9)
        assert gaps.max() >= -1e-9

    @given(_box_probes(), st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
    def test_stacked_probes_equal_the_one_probe_reference_bitwise(self, box_probes, rpy):
        """Every row of the stacked surface probe, and `closest_point_box`
        on each probe's world point, give the bytes of the one-probe loop."""
        half, probes = box_probes
        surface, normal, sd = _closest_point_local(probes, half)
        assert (surface.shape, normal.shape, sd.shape) == (probes.shape, probes.shape,
                                                           probes.shape[:1])
        box = _box(center=(0.01, -0.02, 0.03), half=tuple(half), rpy=rpy)
        R, c = box.pose.rotation(), box.pose.position
        for p, q, n, d in zip(probes, surface, normal, sd.tolist()):
            q_ref, n_ref, d_ref = reference_closest_point_local(p, half)
            assert (q.tobytes(), n.tobytes(), d.hex()) == (q_ref.tobytes(), n_ref.tobytes(),
                                                           d_ref.hex())
            point = R @ p + c
            q_ref, n_ref, d_ref = reference_closest_point_local(R.T @ (point - c), half)
            cp, n_box, d_box = closest_point_box(point, box)
            assert (cp.tobytes(), n_box.tobytes(), d_box.hex()) == (
                (R @ q_ref + c).tobytes(), (R @ n_ref).tobytes(), d_ref.hex())

    def test_matches_dense_surface_sampling(self):
        box = _box(half=(0.03, 0.025, 0.03))
        samples = _surface_grid(np.asarray(box.half_extents), step=2e-3)
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = rng.uniform(-0.08, 0.08, size=3)
            _, _, sd = closest_point_box(p, box)
            d_sampled = np.min(np.linalg.norm(samples - p, axis=1))
            assert d_sampled >= abs(sd) - 1e-12
            assert d_sampled - abs(sd) <= 1.5e-3  # grid cell resolution


def _surface_grid(half, step):
    """Points covering all six faces of an axis-aligned box at the origin."""
    axes = [np.linspace(-h, h, int(np.ceil(2 * h / step)) + 1) for h in half]
    faces = []
    for ax in range(3):
        u, v = [a for a in range(3) if a != ax]
        grid_u, grid_v = np.meshgrid(axes[u], axes[v], indexing="ij")
        for side in (-half[ax], half[ax]):
            face = np.empty((grid_u.size, 3))
            face[:, ax] = side
            face[:, u] = grid_u.ravel()
            face[:, v] = grid_v.ravel()
            faces.append(face)
    return np.concatenate(faces)


def _sdf_oracle(points, box):
    """Box signed distance of world points, by the textbook formula."""
    local = (np.atleast_2d(points) - box.pose.position) @ box.pose.rotation()
    q = np.abs(local) - np.asarray(box.half_extents)
    return (np.linalg.norm(np.maximum(q, 0.0), axis=1)
            + np.minimum(np.max(q, axis=1), 0.0))


def _deepest_on_segment(a, d, half):
    """The batched narrow phase applied to the single segment a + t d."""
    return _deepest_on_segments(np.asarray(a, dtype=float)[None], np.asarray(d, dtype=float)[None],
                                np.asarray(half, dtype=float))[0]


def _segment_min(box, a, b):
    """(t, signed distance) that the narrow phase picks on world segment ab."""
    R = box.pose.rotation()
    a_local = R.T @ (a - box.pose.position)
    t = _deepest_on_segment(a_local, R.T @ (b - a), np.asarray(box.half_extents))
    assert 0.0 <= t <= 1.0
    return t, closest_point_box(a + t * (b - a), box)[2]


_ORACLE_BOX = dict(center=(0.01, -0.02, 0.03), half=(0.03, 0.02, 0.04), rpy=(0.4, -0.7, 1.1))
_HX, _HY, _HZ = _ORACLE_BOX["half"]


def _box_to_world(points):
    box = _box(**_ORACLE_BOX)
    return box.pose.rotation() @ np.asarray(points, dtype=float) + box.pose.position


class TestDeepestOnSegment:
    @pytest.mark.parametrize("a_local, b_local", [
        # fully inside
        ((-0.02, -0.01, -0.03), (0.025, 0.015, 0.02)),
        # parallel to the +z face, outside, overlapping it in x
        ((-0.05, 0.0, 0.05), (0.01, 0.0, 0.05)),
        # parallel to the +y face, inside
        ((-0.025, 0.015, -0.03), (0.025, 0.015, 0.03)),
        # grazing the (+x, +y) edge: crosses the edge line at distance 0
        ((_HX + 0.01, _HY - 0.01, 0.0), (_HX - 0.01, _HY + 0.01, 0.0)),
        # grazing the same edge from outside, 1 um clear
        ((_HX + 0.01 + 1e-6, _HY - 0.01 + 1e-6, 0.0), (_HX - 0.01 + 1e-6, _HY + 0.01 + 1e-6, 0.0)),
        # zero length, outside and inside
        ((0.05, 0.04, -0.06), (0.05, 0.04, -0.06)),
        ((0.01, 0.0, 0.01), (0.01, 0.0, 0.01)),
        # through the box, corner to corner and beyond
        ((-0.06, -0.05, -0.07), (0.06, 0.05, 0.07)),
        # passing a corner region, far outside
        ((0.1, 0.1, -0.2), (0.2, -0.05, 0.1)),
    ])
    def test_matches_dense_segment_sampling(self, a_local, b_local):
        box = _box(**_ORACLE_BOX)
        a, b = _box_to_world(a_local), _box_to_world(b_local)
        _, sd = _segment_min(box, a, b)
        ts = np.linspace(0.0, 1.0, 20001)
        dense = _sdf_oracle(a + ts[:, None] * (b - a), box).min()
        assert sd <= dense + 1e-12
        # the SDF is 1-Lipschitz, so no point of ab lies below the sampled
        # minimum by more than half a sample spacing
        assert sd >= dense - np.linalg.norm(b - a) / 40000 - 1e-12

    def test_random_segments_match_dense_sampling(self):
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 20001)
        for _ in range(100):
            box = _box(center=rng.uniform(-0.05, 0.05, 3), half=rng.uniform(0.005, 0.05, 3),
                       rpy=rng.uniform(-np.pi, np.pi, 3))
            a = rng.uniform(-0.1, 0.1, 3)
            b = a + rng.normal(size=3) * rng.uniform(0.0, 0.08)
            _, sd = _segment_min(box, a, b)
            dense = _sdf_oracle(a + ts[:, None] * (b - a), box).min()
            assert sd <= dense + 1e-12
            assert sd >= dense - np.linalg.norm(b - a) / 40000 - 1e-12

    @given(st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
           st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
           st.lists(st.floats(0.002, 0.06), min_size=3, max_size=3),
           st.floats(-3, 3), st.floats(-1.5, 1.5), st.floats(-3, 3),
           st.booleans(), st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_no_sampled_point_is_deeper(self, a, b, half, roll, pitch, yaw, degenerate, extra_ts):
        """The returned point's SDF is <= the SDF at any sampled t, + 1e-12."""
        box = _box(center=(0.01, 0.0, -0.02), half=half, rpy=(roll, pitch, yaw))
        a = np.asarray(a)
        b = a.copy() if degenerate else np.asarray(b)
        _, sd = _segment_min(box, a, b)
        ts = np.concatenate((np.linspace(0.0, 1.0, 401), extra_ts))
        assert sd <= _sdf_oracle(a + ts[:, None] * (b - a), box).min() + 1e-12

    def test_ties_go_to_the_smallest_t(self):
        # parallel to the +z face, 1 cm under it: the SDF is -0.01 wherever
        # |x| <= 0.09, i.e. on t in [0.275, 0.725]
        half = np.array([0.1, 0.1, 0.1])
        a, b = np.array([-0.2, 0.03, 0.09]), np.array([0.2, 0.03, 0.09])
        t = _deepest_on_segment(a, b - a, half)
        assert t == pytest.approx(0.275, abs=1e-12)
        t_rev = _deepest_on_segment(b, a - b, half)
        assert t_rev == pytest.approx(0.275, abs=1e-12)
        # a segment inside the flat stretch from end to end resolves to t = 0
        c = np.array([-0.05, 0.03, 0.09])
        assert _deepest_on_segment(c, np.array([0.1, 0.0, 0.0]), half) == 0.0

    def test_zero_length_segment_returns_its_start(self):
        a = np.array([0.3, -0.2, 0.05])
        assert _deepest_on_segment(a, np.zeros(3), np.array([0.1, 0.1, 0.1])) == 0.0

    def test_batch_rows_match_single_rows(self):
        # rows with different numbers of in-range crossings and candidates
        half = np.array([0.03, 0.02, 0.04])
        rows = [
            ((-0.02, -0.01, -0.03), (0.045, 0.025, 0.05)),  # inside
            ((0.04, 0.01, 0.0), (-0.02, 0.02, 0.0)),  # grazing the (+x, +y) edge
            ((-0.025, 0.015, -0.03), (0.05, 0.0, 0.0)),  # parallel to +y, inside
            ((-0.05, 0.0, 0.05), (0.06, 0.0, 0.0)),  # parallel to +z, outside
            ((0.01, 0.0, 0.01), (0.0, 0.0, 0.0)),  # zero length, inside
            ((0.05, 0.04, -0.06), (0.0, 0.0, 0.0)),  # zero length, outside
            ((0.3, 0.3, -0.2), (0.1, -0.15, 0.3)),  # far
            ((0.2, 0.0, 0.0), (-0.1, 0.0, 0.0)),  # heading for the box, stopping short
            ((-0.06, -0.05, -0.07), (0.12, 0.1, 0.14)),  # through, corner to corner
        ]
        a = np.array([r[0] for r in rows], dtype=float)
        d = np.array([r[1] for r in rows], dtype=float)
        batch = _deepest_on_segments(a, d, half)
        assert batch.shape == (len(rows),)
        assert ((batch >= 0.0) & (batch <= 1.0)).all()
        for i in range(len(rows)):
            alone = _deepest_on_segments(a[i:i + 1], d[i:i + 1], half)
            assert batch[i] == alone[0]
        # and in reverse order, so no row borrows another's padding
        assert np.array_equal(_deepest_on_segments(a[::-1], d[::-1], half), batch[::-1])


def _assert_same_contacts(scene, state, sphere_reject=True):
    got = detect_contacts(scene, state)
    expected = reference_detect_contacts(scene, state, sphere_reject)
    assert len(got) == len(expected)
    for c, (finger, link, position, normal, depth, force) in zip(got, expected):
        assert (c.finger, c.link, type(c.link)) == (finger, link, int)
        assert c.position.tobytes() == position.tobytes()
        assert c.normal.tobytes() == normal.tobytes()
        assert c.penetration_depth.hex() == depth.hex()
        assert c.normal_force.hex() == force.hex()
    return got


_unit = st.floats(0.0, 1.0)


def _hand_state(chain, grasp, fractions, near_grasp):
    """A bundled-hand posture: `grasp` moved up to 0.1 rad per joint, or
    anywhere in the joint box, by 21 fractions in [0, 1]."""
    lower = np.array([chain.joints[ji].lower_limit for ji in chain.movable])
    upper = np.array([chain.joints[ji].upper_limit for ji in chain.movable])
    if near_grasp:
        q = np.array([grasp.values[ji] for ji in chain.movable])
        q = np.clip(q + 0.2 * (np.array(fractions) - 0.5), lower, upper)
    else:
        q = lower + np.array(fractions) * (upper - lower)
    return JointState(values=dict(zip(chain.movable, map(float, q))))


def _count_batches(monkeypatch):
    """Record the row count of every narrow-phase batch `detect_contacts` runs."""
    import graspforge.contact
    batches = []

    def counted(a, d, half):
        batches.append(len(a))
        return _deepest_on_segments(a, d, half)

    monkeypatch.setattr(graspforge.contact, "_deepest_on_segments", counted)
    return batches


class TestArrayFrontEnd:
    """The array front end of `detect_contacts` against the per-link loop, by bytes."""

    @given(st.lists(_unit, min_size=21, max_size=21), st.booleans(),
           st.lists(st.floats(-0.02, 0.02), min_size=3, max_size=3),
           st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
           st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3))
    def test_bundled_hand_matches_the_per_link_loop(self, scenario, grasp_run, fractions,
                                                    near_grasp, offset, rpy, scale):
        box = scenario.scene.object
        state = _hand_state(scenario.scene.chain, grasp_run[0], fractions, near_grasp)
        pose = Pose.from_rpy(box.pose.position + np.array(offset), rpy)
        obj = make_box_object(tuple(np.array(box.half_extents) * scale), pose, box.mass,
                              box.params)
        _assert_same_contacts(dataclasses.replace(scenario.scene, object=obj), state)

    @given(st.floats(-1.0, 1.0),
           st.lists(st.floats(-0.03, 0.03), min_size=3, max_size=3),
           st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
           st.lists(st.floats(0.005, 0.04), min_size=3, max_size=3))
    def test_sphere_finger_matches_the_per_link_loop(self, angle, offset, rpy, half):
        chain = parse_robot_description(SPHERE_FINGER)
        obj = make_box_object(half, Pose.from_rpy(np.array([0.075, 0.0, 0.0]) + offset, rpy),
                              0.1, PhysicalParams())
        scene = Scene(chain=chain, hand_base=Pose(position=(0, 0, 0)), object=obj)
        _assert_same_contacts(scene, JointState(values={0: angle}))

    def test_the_final_grasp_matches_the_per_link_loop(self, scenario, grasp_run):
        assert len(_assert_same_contacts(scenario.scene, grasp_run[0])) >= 4


def _contact_bytes(c):
    return (c.finger, c.link, c.position.tobytes(), c.normal.tobytes(),
            c.penetration_depth.hex(), c.normal_force.hex())


class TestStackedContacts:
    @given(st.data(), st.floats(-np.radians(10.0), np.radians(10.0)),
           st.lists(st.floats(-0.0005, 0.0005), min_size=3, max_size=3))
    def test_each_row_equals_detect_contacts(self, scenario, grasp_run, data, yaw, offset):
        """Stacked rows near the final grasp, on a box yawed and moved as in
        the hold probes, give per row the bytes of a one-row detection: the
        contacts of row i are the ones whose row index is i, in order.  The
        final grasp is the last row, so the stack always holds contacts."""
        chain = scenario.scene.chain
        final = grasp_run[0]
        rows = np.vstack([data.draw(joint_rows(chain, center=final)),
                          [final.values[ji] for ji in chain.movable]])
        box = scenario.scene.object
        obj = make_box_object(box.half_extents,
                              Pose.from_rpy(box.pose.position + offset, (0.0, 0.0, yaw)),
                              box.mass, box.params)
        scene = dataclasses.replace(scenario.scene, object=obj)
        at, shape_rows, positions, normals, depths, forces = _stacked_contacts(
            scene, _stacked_frames(chain, rows))
        assert (np.diff(at) >= 0).all() and at[-1] == len(rows) - 1
        shapes = chain.finger_shapes
        for i, row in enumerate(rows.tolist()):
            one = detect_contacts(scene, JointState(values=dict(zip(chain.movable, row))))
            mine = at == i
            stacked = [(shapes.fingers[s], int(shapes.links[s]), p.tobytes(), n.tobytes(),
                        d.hex(), f.hex())
                       for s, p, n, d, f in zip(shape_rows[mine].tolist(), positions[mine],
                                                normals[mine], depths[mine].tolist(),
                                                forces[mine].tolist())]
            assert stacked == list(map(_contact_bytes, one))


class TestOverlapReject:
    """The box-axis reject skips only shapes that cannot touch the box."""

    @given(st.lists(_unit, min_size=21, max_size=21), st.booleans(), st.integers(0, 14),
           st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
           st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
           st.sets(st.integers(0, 2), min_size=1),
           st.lists(st.booleans(), min_size=3, max_size=3), st.floats(1e-9, 1e-6), st.booleans(),
           st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_equals_the_narrow_phase_on_every_shape(self, scenario, grasp_run, fractions,
                                                    near_grasp, row, rpy, scale, bound_axes,
                                                    negative, offset, outside, inner):
        # one shape placed just inside or just outside the reject bound on
        # one box axis (at a face), two (an edge) or three (a corner), and
        # inside the box's slab on the others
        scene = scenario.scene
        chain = scene.chain
        shapes = chain.finger_shapes
        assert len(shapes.links) == 15
        state = _hand_state(chain, grasp_run[0], fractions, near_grasp)
        R_l, t_l = link_transform(chain, state, int(shapes.links[row]))
        R_b, t_b = scene.hand_base.rotation(), scene.hand_base.position
        center = R_b @ (R_l @ shapes.translation[row] + t_l) + t_b
        axis = R_b @ R_l @ shapes.axis[row]
        box = scene.object
        half = np.array(box.half_extents) * scale
        R = rpy_matrix(*rpy)
        extent = np.abs(R.T @ axis) * shapes.half_length[row] + shapes.radius[row]
        local = np.array(inner) * half
        for i in bound_axes:
            bound = half[i] + extent[i] + (offset if outside else -offset)
            local[i] = -bound if negative[i] else bound
        pose = Pose(position=center - R @ local, rotation_matrix=R)
        obj = make_box_object(tuple(half), pose, box.mass, box.params)
        _assert_same_contacts(dataclasses.replace(scene, object=obj), state, sphere_reject=False)

    @pytest.mark.parametrize("slack, touches", [(1e-6, True), (-1e-6, False)])
    def test_tight_at_a_face(self, monkeypatch, slack, touches):
        # the rod tip (0.07, 0, 0) against the box's -x face: the face axis
        # bound |c_x| - (length/2 + radius) <= h_x is exact here, so a rod
        # 1e-6 m short of the face never reaches the narrow phase
        batches = _count_batches(monkeypatch)
        scene, state = _mini_scene(CAPSULE_FINGER, box_center=(0.1 - slack, 0.0, 0.0))
        contacts = detect_contacts(scene, state)
        if not touches:
            assert contacts == () and batches == []
            return
        assert batches == [1]
        (c,) = contacts
        assert np.allclose(c.position, [0.08 - slack, 0.0, 0.0], atol=1e-12)
        assert np.allclose(c.normal, [-1.0, 0.0, 0.0], atol=1e-12)
        assert c.penetration_depth == pytest.approx(slack, abs=1e-12)

    @pytest.mark.parametrize("slack, touches", [(1e-6, True), (-1e-6, False)])
    def test_edge_contact_is_decided_by_the_narrow_phase(self, monkeypatch, slack, touches):
        # a box yawed 45 degrees turns its (-x, -y) edge to the rod tip; the
        # box-axis bound lets the rod pass up to (sqrt 2 - 1) radius beyond
        # the edge, so the narrow phase runs on both sides of contact
        batches = _count_batches(monkeypatch)
        h = 0.02
        center = (0.07 + 0.01 + h * np.sqrt(2.0) - slack, 0.0, 0.0)
        scene, state = _mini_scene(CAPSULE_FINGER, box_center=center, half=(h, h, h),
                                   rotation=quat_to_matrix((0.0, 0.0, np.sin(np.pi / 8),
                                                            np.cos(np.pi / 8))))
        contacts = detect_contacts(scene, state)
        assert batches == [1]
        if not touches:
            assert contacts == ()
            return
        (c,) = contacts
        assert np.allclose(c.position, [0.08 - slack, 0.0, 0.0], atol=1e-12)
        assert np.allclose(c.normal, [-1.0, 0.0, 0.0], atol=1e-12)
        assert c.penetration_depth == pytest.approx(slack, abs=1e-12)

    def test_bundled_grasp_runs_the_narrow_phase_only_near_the_box(self, scenario, monkeypatch):
        """22 steps of 39 capsules per bundled grasp, none before step 94:
        no shape is within reach of the box in the 80 pre_grasp steps, whose
        one stacked detection runs no batch.

        The contact_opt steps 81-115 are detected in three blocks of 16
        speculated rows, whose first 14, 13 and 8 rows are kept (steps
        81-94, 95-107 and 108-115); each block solves its capsules in one
        batch.  Replayed one row at a time, the kept rows run the narrow
        phase as one pass per step does.
        """
        import graspforge.controller
        batches = _count_batches(monkeypatch)
        detections, servo_calls = [], []

        def servo(*args):
            servo_calls.append(None)
            return step_servo(*args)

        def stacked_detect(scene, frames):
            before = len(batches)
            contacts = _stacked_contacts(scene, frames)
            detections.append((len(servo_calls), frames, batches[before:]))
            return contacts

        monkeypatch.setattr(graspforge.controller, "step_servo", servo)
        monkeypatch.setattr(graspforge.controller, "_stacked_contacts", stacked_detect)
        execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                      scenario.validation)
        # (servo calls so far, rows, batch sizes) per stacked detection: 3
        # batches of 88 capsule rows, 49 of them in rolled-back rows
        assert [(calls, len(R), sizes) for calls, (R, _), sizes in detections] == [
            (80, 80, []), (96, 16, [3]), (112, 16, [21]), (128, 16, [64])]
        capsules = {}  # kept step -> capsule rows of its one-row replay
        for (_, (R, t), sizes), first, kept in zip(detections[1:], (81, 95, 108), (14, 13, 8)):
            replayed = []
            for i in range(len(R)):
                before = len(batches)
                _stacked_contacts(scenario.scene, (R[i:i + 1], t[i:i + 1]))
                replayed.append(sum(batches[before:]))
                if i < kept:
                    capsules[first + i] = replayed[-1]
            assert sum(replayed) == sum(sizes)  # the rows are independent
        assert sorted(capsules) == list(range(81, 116))
        assert sum(n > 0 for n in capsules.values()) == 22
        assert sum(capsules.values()) == 39
        assert min(step for step, n in capsules.items() if n) == 94


class TestDetectContacts:
    def test_sphere_penetration_depth_and_force(self):
        # ball center (0.05,0,0), box -x face at 0.055: 5 mm gap, 10 mm radius
        scene, state = _mini_scene(SPHERE_FINGER, box_center=(0.075, 0.0, 0.0))
        contacts = detect_contacts(scene, state)
        assert len(contacts) == 1
        c = contacts[0]
        assert c.finger == "poke"
        assert np.allclose(c.position, [0.055, 0.0, 0.0], atol=1e-12)
        assert np.allclose(c.normal, [-1.0, 0.0, 0.0], atol=1e-12)
        assert c.penetration_depth == pytest.approx(0.005)
        assert c.normal_force == pytest.approx(
            scene.object.params.contact_stiffness * c.penetration_depth)

    def test_sphere_clear_of_box_reports_nothing(self):
        scene, state = _mini_scene(SPHERE_FINGER, box_center=(0.2, 0.0, 0.0))
        assert detect_contacts(scene, state) == ()

    def test_capsule_deepest_point_at_end_cap(self):
        # rod tip (0.07,0,0) against the box corner at (0.075,0,-0.005)
        scene, state = _mini_scene(CAPSULE_FINGER, box_center=(0.095, 0.0, -0.025))
        contacts = detect_contacts(scene, state)
        assert len(contacts) == 1
        c = contacts[0]
        gap = np.hypot(0.005, 0.005)
        assert np.allclose(c.position, [0.075, 0.0, -0.005], atol=1e-6)
        assert np.allclose(c.normal, [-np.sqrt(0.5), 0.0, np.sqrt(0.5)], atol=1e-6)
        assert c.penetration_depth == pytest.approx(0.01 - gap, abs=1e-8)

    def test_capsule_parallel_to_a_face_touches_at_its_start(self):
        # rod x in [0.03, 0.07] at z = 0, 5 mm under the box's top face and
        # >= 20 mm from its x faces: every rod point is equally deep, so the
        # tie rule picks the segment start, x = 0.03
        scene, state = _mini_scene(CAPSULE_FINGER, box_center=(0.05, 0.0, -0.015),
                                   half=(0.04, 0.02, 0.02))
        contacts = detect_contacts(scene, state)
        assert len(contacts) == 1
        c = contacts[0]
        assert np.allclose(c.position, [0.03, 0.0, 0.005], atol=1e-12)
        assert np.allclose(c.normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert c.penetration_depth == pytest.approx(0.015, abs=1e-12)

    @pytest.mark.parametrize("slack, touches", [(1e-6, True), (-1e-6, False)])
    def test_bounding_sphere_reject_is_tight_at_a_corner(self, monkeypatch, slack, touches):
        # box corner pointing straight at the rod tip: the capsule reaches the
        # box only along this line, where |center - box center| is exactly
        # length/2 + radius + |half|, the bounding-sphere bound of the
        # reference.  The box-axis reject lets the rod pass up to
        # (sqrt 3 - 1) radius beyond the corner, so here the narrow phase
        # decides, on both sides of contact.
        batches = _count_batches(monkeypatch)
        half = np.array([0.02, 0.02, 0.02])
        diagonal = np.ones(3) / np.sqrt(3.0)
        x = np.array([1.0, 0.0, 0.0])
        axis = np.cross(diagonal, x)
        R = axis_angle_matrix(axis / np.linalg.norm(axis), np.arccos(diagonal @ x))
        reach = 0.02 + 0.01 + np.linalg.norm(half)  # length/2 + radius + |half|
        center = (0.05 + reach - slack, 0.0, 0.0)
        scene, state = _mini_scene(CAPSULE_FINGER, box_center=center, half=half,
                                   rotation=R)
        contacts = detect_contacts(scene, state)
        assert batches == [1]
        if not touches:
            assert contacts == ()
            return
        assert len(contacts) == 1
        c = contacts[0]
        assert np.allclose(c.position, [0.08 - slack, 0.0, 0.0], atol=1e-9)
        assert c.penetration_depth == pytest.approx(slack, abs=1e-9)

    def test_capsule_far_from_box_reports_nothing(self):
        for center in [(1.0, 0.0, 0.0), (0.05, 0.2, 0.0), (-0.5, -0.5, 0.5)]:
            scene, state = _mini_scene(CAPSULE_FINGER, box_center=center)
            assert detect_contacts(scene, state) == ()

    def test_joint_motion_moves_the_contact(self):
        scene, _ = _mini_scene(SPHERE_FINGER, box_center=(0.075, 0.0, 0.0))
        # swing the finger away; the sphere leaves the box
        assert detect_contacts(scene, JointState(values={0: 0.8})) == ()

    def test_run_contacts_obey_force_law(self, scenario, grasp_run):
        state, _, _ = grasp_run
        contacts = detect_contacts(scenario.scene, state)
        assert len(contacts) >= 4
        k = scenario.scene.object.params.contact_stiffness
        half = np.asarray(scenario.scene.object.half_extents)
        R = scenario.scene.object.pose.rotation()
        center = scenario.scene.object.pose.position
        for c in contacts:
            assert np.linalg.norm(c.normal) == pytest.approx(1.0, abs=1e-9)
            assert c.penetration_depth >= 0.0
            assert c.normal_force == pytest.approx(k * c.penetration_depth)
            local = R.T @ (c.position - center)
            assert (np.abs(local) <= half + 1e-9).all()

    def test_near_tie_goes_to_the_smallest_t(self, scenario, monkeypatch):
        # A benchmark probe (hold_probe, seed 1, probe 21): the ring finger's
        # middle capsule lies inside the box, deepest where its +x and +z face
        # gaps are equal (h_x = h_z).  Two candidates, the crossings of the
        # +x/+z and the -x/-z pieces, name that point; rounding puts them at
        # t = 0.5810656781970722 and ...0724, with signed distances 4e-18 m
        # apart.  Under exact-equality ties the second one, deeper only by
        # rounding, would win; the tie rule takes the smaller t.  At that
        # point the two face gaps differ only by rounding, so the face tie
        # rule puts the contact on the lower axis, +x.
        q = [-0.4589573982073162, 0.8631101419175071, 0.8641307642834559, 0.8836538087531643,
             0.44643498500146206, 1.2912518236946715, 1.635739218370535, 1.540412184599325,
             0.0988012960951481, 0.5651488777290232, 0.4024731560637122, 0.16093530017810298,
             0.026315734362056142, 1.2799927836191565, 0.953525212192866, 0.005858828151915347,
             -0.3452362725657961, 0.4159526691516302, -0.12983724518131878, 0.6284089875417862,
             0.4485771568636173]
        pose = Pose(position=(0.05972624785755627, -0.0003373486350292923, 0.18784760417535556),
                    rotation_matrix=quat_to_matrix(
                        (0.0, 0.0, 0.07852080514001814, 0.9969124751753101)))
        chain = scenario.scene.chain
        box = scenario.scene.object
        assert box.half_extents[0] == box.half_extents[2]
        scene = dataclasses.replace(
            scenario.scene, object=make_box_object(box.half_extents, pose, box.mass, box.params))
        ring_middle = chain.finger_links["ring"][2]
        segments = []

        def recorded(a, d, half):
            t = _deepest_on_segments(a, d, half)
            segments.extend(zip(a, d, t))
            return t

        import graspforge.contact
        monkeypatch.setattr(graspforge.contact, "_deepest_on_segments", recorded)
        (c,) = [c for c in detect_contacts(scene, JointState(values=dict(zip(chain.movable, q))))
                if c.link == ring_middle]
        R = pose.rotation()
        assert np.allclose(c.normal, R[:, 0], atol=1e-12)
        local = R.T @ (c.position - pose.position)
        assert local[0] == pytest.approx(box.half_extents[0], abs=1e-12)
        # the deepest point: 7.91 mm under both the +x and the +z face
        assert box.half_extents[2] - local[2] == pytest.approx(0.0079102, abs=1e-7)
        assert c.penetration_depth == pytest.approx(0.015910231868418633, abs=1e-15)
        # the capsule's probe is its core point at the smaller t
        (t,) = [t for a, d, t in segments
                if np.allclose((a + t * d)[1:], local[1:], atol=1e-12)]
        assert t == 0.5810656781970722

    def test_detection_is_deterministic_and_ordered(self, scenario, grasp_run):
        state, _, _ = grasp_run
        first = detect_contacts(scenario.scene, state)
        second = detect_contacts(scenario.scene, state)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.finger == b.finger and a.link == b.link
            assert np.array_equal(a.position, b.position)
            assert a.normal_force == b.normal_force
        finger_order = list(scenario.scene.chain.fingers)
        keys = [(finger_order.index(c.finger), c.link) for c in first]
        assert keys == sorted(keys)
