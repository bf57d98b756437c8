import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.config import (ConfigError, apply_overrides, build_scenario,
                               default_scenario_path, load_scenario)
from graspforge.kinematics import Pose
from graspforge.scene import (DEFAULT_BOX_HALF_EXTENTS, DEFAULT_BOX_POSITION,
                              PhysicalParams, SceneError, base_from_world,
                              default_grasp_targets, default_scene, make_box_object,
                              world_from_base)

coords = st.floats(-0.5, 0.5, allow_nan=False)


class TestScene:
    def test_default_scene_layout(self, chain):
        scene = default_scene(chain)
        assert scene.object.half_extents == DEFAULT_BOX_HALF_EXTENTS
        assert np.allclose(scene.object.pose.position, DEFAULT_BOX_POSITION)
        assert np.allclose(scene.hand_base.position, (0.0, 0.0, 0.25))

    def test_base_frame_is_inverted_under_the_mount(self, chain):
        scene = default_scene(chain)
        # roll-pi mount: base +z points down, +y flips
        assert np.allclose(world_from_base(scene, (0, 0, 0)), (0, 0, 0.25))
        assert np.allclose(world_from_base(scene, (0.01, 0.02, 0.03)),
                           (0.01, -0.02, 0.22))

    @given(coords, coords, coords)
    def test_frame_round_trip(self, chain, x, y, z):
        scene = default_scene(chain)
        p = np.array([x, y, z])
        assert np.allclose(base_from_world(scene, world_from_base(scene, p)), p,
                           atol=1e-12)

    def test_default_targets_cover_all_fingers(self, chain):
        targets = default_grasp_targets(default_scene(chain))
        assert set(targets) == set(chain.fingers)
        for pose in targets.values():
            assert isinstance(pose, Pose)
            assert np.array_equal(pose.rotation(), np.eye(3))

    def test_index_and_pinky_mirror_across_xz(self, chain):
        targets = default_grasp_targets(default_scene(chain))
        i, p = targets["index"].position, targets["pinky"].position
        assert i[0] == pytest.approx(p[0])
        assert i[1] == pytest.approx(-p[1])
        assert i[2] == pytest.approx(p[2])

    def test_targets_track_the_box(self, chain):
        scene = default_scene(chain)
        base = default_grasp_targets(scene)
        shifted_obj = make_box_object(scene.object.half_extents,
                                      Pose(position=np.asarray(DEFAULT_BOX_POSITION)
                                           + [0.01, 0.0, 0.0]),
                                      scene.object.mass)
        moved = default_grasp_targets(type(scene)(chain=scene.chain,
                                                  hand_base=scene.hand_base,
                                                  object=shifted_obj))
        for f in base:
            delta = moved[f].position - base[f].position
            assert np.allclose(delta, [0.01, 0.0, 0.0], atol=1e-12)

    def test_rotated_box_is_rejected(self, chain):
        scene = default_scene(chain)
        rotated = make_box_object(scene.object.half_extents,
                                  Pose.from_rpy(DEFAULT_BOX_POSITION, (0, 0, 0.3)),
                                  scene.object.mass)
        bad = type(scene)(chain=chain, hand_base=scene.hand_base, object=rotated)
        with pytest.raises(SceneError, match="axis-aligned"):
            default_grasp_targets(bad)

    @pytest.mark.parametrize("half,mass", [
        ((0.0, 0.01, 0.01), 1.0),
        ((-0.01, 0.01, 0.01), 1.0),
        ((0.01, 0.01, 0.01), 0.0),
        ((0.01, 0.01, 0.01), -2.0),
        (0.03, 0.2),  # a bare number, not three
        (None, 0.2),
    ])
    def test_box_construction_guards(self, half, mass):
        with pytest.raises(SceneError, match="half-extents" if mass > 0.0 else "mass"):
            make_box_object(half, Pose(position=(0, 0, 0)), mass)

    @pytest.mark.parametrize("kwargs", [
        {"lateral_friction": -0.1},
        {"contact_stiffness": 0.0},
        {"contact_stiffness": float("nan")},
    ])
    def test_physical_params_guards(self, kwargs):
        with pytest.raises(SceneError):
            PhysicalParams(**kwargs)


class TestScenarioFile:
    def test_bundled_scenario_loads(self, scenario):
        assert scenario.run.hz == 240.0
        assert scenario.run.max_steps == 400
        assert scenario.perturb.seed == 42
        assert scenario.validation.min_contacts == 4
        assert set(scenario.targets) == set(scenario.scene.chain.fingers)

    def test_the_bundled_box_starts_clear_of_the_hand(self, scenario):
        from graspforge.contact import detect_contacts
        from graspforge.kinematics import neutral_state
        assert detect_contacts(scenario.scene, neutral_state(scenario.scene.chain)) == []

    def test_a_box_inside_the_hand_names_object_pose(self):
        with pytest.raises(ConfigError, match=r"^object\.pose: .* with 7 contacts"):
            build_scenario({"object": {"pose": {"position": [0.03, 0.0, 0.22]}}})

    def test_bundled_targets_match_the_procedural_ones(self, scenario):
        procedural = default_grasp_targets(scenario.scene)
        for finger, pose in scenario.targets.items():
            assert np.allclose(pose.position, procedural[finger].position, atol=1e-9)

    def test_empty_mapping_uses_all_defaults(self):
        sc = build_scenario({})
        assert sc.run.hz == 240.0
        assert sc.perturb.seed == 0
        assert set(sc.targets) == set(sc.scene.chain.fingers)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            build_scenario({"runn": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key run.speed"):
            build_scenario({"run": {"speed": 3}})

    def test_steps_maps_to_max_steps(self):
        sc = build_scenario({"run": {"steps": 7}})
        assert sc.run.max_steps == 7

    def test_bad_vector_shape(self):
        with pytest.raises(ConfigError, match="3-element"):
            build_scenario({"object": {"half_extents": [1, 2]}})

    def test_invalid_physics_value_is_wrapped(self):
        with pytest.raises(ConfigError, match=r"^physics\.contact_stiffness must be > 0$"):
            build_scenario({"physics": {"contact_stiffness": -5}})

    def test_a_dotless_exponent_is_a_float_in_the_file_and_in_overrides(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("ik: {damping_lambda: 1e-3, residual_threshold: 2E-6}\n"
                        "run: {hz: 2.4e2, servo_gain: +.2e2}\n")
        sc = load_scenario(str(path), ["perturb.force_bound=5e-1", "run.seed=7"])
        assert (sc.ik.damping_lambda, sc.ik.residual_threshold) == (0.001, 2e-6)
        assert (sc.run.hz, sc.run.servo_gain, sc.perturb.force_bound) == (240.0, 20.0, 0.5)
        assert sc.perturb.seed == 7  # an integer stays an int
        assert apply_overrides({}, ["a.b='1e-3'", "a.c=1e3x", "a.d=0x1e"]) == {
            "a": {"b": "1e-3", "c": "1e3x", "d": 30}}

    def test_unknown_target_finger(self):
        with pytest.raises(ConfigError, match="unknown finger"):
            build_scenario({"targets": {"tail": {"position": [0, 0, 0]}}})

    def test_target_pose_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            build_scenario({"targets": {"index": {"position": [0, 0, 0],
                                                  "speed": 1}}})

    def test_output_dir_must_be_string(self):
        with pytest.raises(ConfigError, match="output_dir"):
            build_scenario({"output_dir": 3})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("run: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_scenario(str(p))

    def test_scenario_relative_description_path(self, tmp_path):
        from graspforge.robot_model import bundled_hand_path
        urdf = tmp_path / "local_hand.urdf"
        urdf.write_text(open(bundled_hand_path()).read())
        scenario_file = tmp_path / "s.yaml"
        scenario_file.write_text("hand:\n  description_path: local_hand.urdf\n")
        sc = load_scenario(str(scenario_file))
        assert set(sc.scene.chain.fingers) == {"thumb", "index", "middle", "ring",
                                               "pinky"}


class TestOverrides:
    def test_set_nested_value(self):
        data = apply_overrides({}, ["run.steps=25", "perturb.force_bound=2.5"])
        assert data == {"run": {"steps": 25}, "perturb": {"force_bound": 2.5}}

    def test_values_parse_as_yaml_scalars(self):
        data = apply_overrides({}, ["object.half_extents=[0.01, 0.02, 0.03]"])
        assert data["object"]["half_extents"] == [0.01, 0.02, 0.03]

    def test_existing_values_are_replaced(self):
        data = apply_overrides({"run": {"steps": 1, "hz": 60}}, ["run.steps=9"])
        assert data["run"] == {"steps": 9, "hz": 60}

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key.path=value"):
            apply_overrides({}, ["run.steps"])

    def test_empty_key_segment(self):
        with pytest.raises(ConfigError, match="empty key"):
            apply_overrides({}, ["run..steps=3"])

    def test_override_feeds_validation(self):
        with pytest.raises(ConfigError):
            build_scenario(apply_overrides({}, ["run.hz=0"]))

    def test_seed_override_reaches_perturb_config(self):
        sc = build_scenario(apply_overrides({}, ["run.seed=99"]))
        assert sc.perturb.seed == 99
