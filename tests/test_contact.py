import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.contact import closest_point_box, detect_contacts
from graspforge.kinematics import JointState, Pose
from graspforge.robot_model import parse_robot_description
from graspforge.scene import PhysicalParams, Scene, make_box_object

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


def _mini_scene(urdf, box_center, half=(0.02, 0.02, 0.02)):
    chain = parse_robot_description(urdf)
    params = PhysicalParams()
    obj = make_box_object(half, Pose(position=box_center), 0.1, params)
    scene = Scene(chain=chain, hand_base=Pose(position=(0, 0, 0)), object=obj)
    return scene, JointState(values={0: 0.0})


def _box(center=(0.0, 0.0, 0.0), half=(0.1, 0.1, 0.1), rpy=(0.0, 0.0, 0.0)):
    return make_box_object(half, Pose.from_rpy(center, rpy), 1.0, PhysicalParams())


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
        assert detect_contacts(scene, state) == []

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

    def test_joint_motion_moves_the_contact(self):
        scene, _ = _mini_scene(SPHERE_FINGER, box_center=(0.075, 0.0, 0.0))
        # swing the finger away; the sphere leaves the box
        assert detect_contacts(scene, JointState(values={0: 0.8})) == []

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
