import json
import os
import re
import warnings

import pytest

from graspforge.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSTABLE, main
from graspforge.robot_model import bundled_hand_path

# a box the hand cannot reach: cheap runs that exercise the full pipeline
FAR_BOX = "object.pose.position=[5.0, 0.0, 0.188]"


def run_cli(*argv):
    return main(list(argv))


def stable_fixture():
    r = 0.03
    return [
        {"position": [r, 0, 0], "normal": [1, 0, 0], "force": 1.0},
        {"position": [-r, 0, 0], "normal": [-1, 0, 0], "force": 1.0},
        {"position": [0, r, 0], "normal": [0, 1, 0], "force": 1.0},
        {"position": [0, -r, 0], "normal": [0, -1, 0], "force": 1.0},
    ]


class TestRun:
    def test_unreachable_box_exits_unstable(self, tmp_path, capsys):
        # the scenario pins explicit targets, so fingers still reach them,
        # but the displaced box leaves nothing to touch
        code = run_cli("run", "--set", FAR_BOX, "--steps", "20",
                       "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == EXIT_UNSTABLE
        assert "grasp unstable: too_few_contacts" in out
        assert out.count("\n") == 6  # five finger lines plus the verdict
        for name in ("trajectory.csv", "metrics.csv", "metrics.json",
                     "assessment.json"):
            assert (tmp_path / name).exists()

    def test_unreachable_target_reports_a_miss(self, tmp_path, capsys):
        code = run_cli("run", "--set", FAR_BOX,
                       "--set", "targets.index.position=[5.0, 0.0, 0.2]",
                       "--steps", "5", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code == EXIT_UNSTABLE
        assert "index: " in out and "miss" in out

    def test_output_files_are_well_formed(self, tmp_path):
        run_cli("run", "--set", FAR_BOX, "--steps", "5", "--out", str(tmp_path))
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics) == {"fingers", "aggregate"}
        assert len(metrics["fingers"]) == 5
        assessment = json.loads((tmp_path / "assessment.json").read_text())
        assert assessment["stable"] is False
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0].startswith("# generated ")
        assert traj[1] == "time,finger,x,y,z,contact_count,phase"
        assert len(traj) == 2 + 5 * 5

    def test_no_timestamp_strips_the_comment(self, tmp_path):
        run_cli("run", "--set", FAR_BOX, "--steps", "3", "--no-timestamp",
                "--out", str(tmp_path))
        for name in ("trajectory.csv", "metrics.csv"):
            assert not (tmp_path / name).read_text().startswith("#")
        # JSON reports never carry a timestamp either way
        assert (tmp_path / "metrics.json").read_text().startswith("{")

    def test_steps_flag_controls_the_log_length(self, tmp_path):
        run_cli("run", "--set", FAR_BOX, "--steps", "7", "--no-timestamp",
                "--out", str(tmp_path))
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 1 + 7 * 5

    def test_efficiency_basis_flag(self, tmp_path):
        code = run_cli("run", "--set", FAR_BOX, "--steps", "3",
                       "--efficiency-basis", "straight_line", "--out", str(tmp_path))
        assert code == EXIT_UNSTABLE


class TestPerturb:
    def test_unstable_grasp_fails_before_any_round(self, tmp_path, capsys):
        code = run_cli("perturb", "--set", FAR_BOX, "--steps", "5",
                       "--out", str(tmp_path))
        assert code == EXIT_UNSTABLE
        assert "perturbation: FAIL (0 rounds" in capsys.readouterr().out
        report = json.loads((tmp_path / "perturbation.json").read_text())
        assert report["passed"] is False
        assert report["iterations_run"] == 0
        samples = (tmp_path / "perturbation_samples.csv").read_text().splitlines()
        assert samples[-1] == "iteration,fx,fy,fz,displacement"

    def test_iterations_flag_overrides_the_scenario(self, tmp_path):
        run_cli("perturb", "--set", FAR_BOX, "--steps", "3", "--iterations", "7",
                "--out", str(tmp_path))
        report = json.loads((tmp_path / "perturbation.json").read_text())
        # the run never validated, so rounds stay at zero; the config still parsed
        assert report["iterations_run"] == 0

    def test_bad_iterations_value_is_a_config_error(self, tmp_path, capsys):
        code = run_cli("perturb", "--set", FAR_BOX, "--iterations", "0",
                       "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_repeat_runs_land_in_numbered_subdirs(self, tmp_path):
        code = run_cli("perturb", "--set", FAR_BOX, "--steps", "3", "--repeat", "2",
                       "--seed", "10", "--out", str(tmp_path))
        assert code == EXIT_UNSTABLE
        seeds = [json.loads((tmp_path / sub / "perturbation.json").read_text())["seed"]
                 for sub in ("000", "001")]
        assert seeds == [10, 11]
        assert not (tmp_path / "002").exists()

    def test_repeats_detect_the_final_contacts_once(self, tmp_path, monkeypatch):
        """The seed reaches only the rounds: one detection serves every repeat.
        The scenario's load makes one more, its check that the box starts
        clear of the hand."""
        import graspforge.contact
        detections = []
        detect = graspforge.contact._stacked_contacts

        def counted(scene, frames):
            detections.append(len(frames[0]))
            return detect(scene, frames)

        monkeypatch.setattr(graspforge.contact, "_stacked_contacts", counted)
        code = run_cli("perturb", "--no-timestamp", "--repeat", "3", "--iterations", "1",
                       "--out", str(tmp_path))
        assert code == EXIT_OK
        assert detections == [1, 1]
        assert len(list(tmp_path.glob("00[0-2]/perturbation.json"))) == 3

    def test_repeats_judge_the_final_contacts_once(self, tmp_path, judged):
        """Every repeat's precheck gets the verdict of the one detected set."""
        code = run_cli("perturb", "--no-timestamp", "--repeat", "3", "--iterations", "1",
                       "--out", str(tmp_path))
        assert code == EXIT_OK
        assert judged == [1]


class TestValidate:
    def test_stable_contacts(self, tmp_path, capsys):
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps(stable_fixture()))
        code = run_cli("validate", str(p))
        assert code == EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["stable"] is True
        assert blob["contact_count"] == 4

    def test_wrapped_contacts_key_accepted(self, tmp_path):
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps({"contacts": stable_fixture()}))
        assert run_cli("validate", str(p)) == EXIT_OK

    def test_aligned_normals_exit_unstable(self, tmp_path, capsys):
        contacts = [dict(c, normal=[0, 0, 1]) for c in stable_fixture()]
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps(contacts))
        code = run_cli("validate", str(p))
        assert code == EXIT_UNSTABLE
        assert json.loads(capsys.readouterr().out)["failure_reason"] == \
            "closure_exceeded"

    def test_non_unit_normal_is_an_error(self, tmp_path, capsys):
        contacts = stable_fixture()
        contacts[0]["normal"] = [0.5, 0, 0]
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps(contacts))
        code = run_cli("validate", str(p))
        assert code == EXIT_ERROR
        assert "normal has length 0.500000, not unit" in capsys.readouterr().err

    def test_normal_force_alias_and_default(self, tmp_path, capsys):
        contacts = stable_fixture()
        for c in contacts:
            c["normal_force"] = c.pop("force")
        contacts[0].pop("normal_force")  # defaults to 0.0 -> not established
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps(contacts))
        code = run_cli("validate", str(p))
        assert code == EXIT_UNSTABLE
        assert json.loads(capsys.readouterr().out)["contact_count"] == 3

    # the number rule of scenario files (`_checks`): a vector entry or a
    # force is a finite number, and a bool, a quoted number or a nested
    # list is not one
    @pytest.mark.parametrize("field, value, message", [
        ("position", [float("nan"), -0.03, 0],
         "contact 3: position: entries must be finite numbers, got [nan, -0.03, 0]"),
        ("position", [0, float("-inf"), 0],
         "contact 3: position: entries must be finite numbers, got [0, -inf, 0]"),
        ("normal", [0, float("nan"), 0],
         "contact 3: normal: entries must be finite numbers, got [0, nan, 0]"),
        ("normal", [float("inf"), 0, 0],
         "contact 3: normal: entries must be finite numbers, got [inf, 0, 0]"),
        ("force", float("inf"), "contact 3: force must be a finite number, got inf"),
        ("force", float("nan"), "contact 3: force must be a finite number, got nan"),
        ("link", "abc", "contact 3: link must be an integer, got 'abc'"),
        ("link", 2.7, "contact 3: link must be an integer, got 2.7"),
        ("link", True, "contact 3: link must be an integer, got True"),
        # booleans would read as 1 and 0: a 1 N contact, a coordinate of 1 m
        ("force", True, "contact 3: force must be a finite number, got True"),
        ("normal_force", False, "contact 3: normal_force must be a finite number, got False"),
        ("position", [0, True, 0],
         "contact 3: position: entries must be finite numbers, got [0, True, 0]"),
        ("normal", [False, 0, 1],
         "contact 3: normal: entries must be finite numbers, got [False, 0, 1]"),
        # a quoted number stays a string, and a nested list is no vector,
        # though float() and numpy would read each as the number
        ("position", ["0.03", 0, 0],
         "contact 3: position: entries must be finite numbers, got ['0.03', 0, 0]"),
        ("force", "1.0", "contact 3: force must be a finite number, got '1.0'"),
        ("position", [[0.03], [0], [0]],
         "contact 3: position: entries must be finite numbers, got [[0.03], [0], [0]]"),
        ("position", [[0.03, 0, 0]],
         "contact 3: position: expected a 3-element list, got [[0.03, 0, 0]]"),
        ("normal_force", "1e-3", "contact 3: normal_force must be a finite number, got '1e-3'"),
        ("normal", [0, 0, "1e0"],
         "contact 3: normal: entries must be finite numbers, got [0, 0, '1e0']"),
        # float() of an int past the largest float overflows
        pytest.param("force", 10 ** 400,
                     f"contact 3: force must be a finite number, got {10 ** 400}",
                     id="force-int-past-the-largest-float"),
    ])
    def test_bad_contact_field_is_an_error(self, tmp_path, capsys, field, value, message):
        # json writes NaN and Infinity, and json.load reads them back
        contacts = stable_fixture()
        contacts[3][field] = value
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps(contacts))
        assert run_cli("validate", str(p)) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_position_field(self, tmp_path, capsys):
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps([{"normal": [0, 0, 1]}]))
        assert run_cli("validate", str(p)) == EXIT_ERROR
        assert "contact 0" in capsys.readouterr().err

    def test_not_a_list(self, tmp_path, capsys):
        p = tmp_path / "contacts.json"
        p.write_text(json.dumps({"contacts": "nope"}))
        assert run_cli("validate", str(p)) == EXIT_ERROR

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "contacts.json"
        p.write_text("{not json")
        assert run_cli("validate", str(p)) == EXIT_ERROR


def _assert_json_form(record, form):
    """`record`'s keys are `form`'s, in order, and each value has its JSON
    type: a Python type, or (float, n) for a list of n floats."""
    assert list(record) == list(form)
    for key, kind in form.items():
        if isinstance(kind, tuple):
            assert [type(v) for v in record[key]] == [kind[0]] * kind[1], key
        else:
            assert type(record[key]) is kind, key


ASSESSMENT_FORM = {"stable": bool, "contact_count": int, "center": (float, 3),
                   "max_distance": float, "closure_residual": float, "failure_reason": str}


def test_each_json_report_holds_its_keys_in_order_with_their_types(tmp_path, capsys):
    """The bundled run and perturb and a validate contact file: every report
    key in its record's field order, each value of its JSON type."""
    assert run_cli("run", "--no-timestamp", "--out", str(tmp_path / "run")) == EXIT_OK
    _assert_json_form(json.loads((tmp_path / "run" / "assessment.json").read_text()),
                      ASSESSMENT_FORM)
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert list(metrics) == ["fingers", "aggregate"]
    assert [m["finger"] for m in metrics["fingers"]] == ["index", "middle", "ring", "pinky",
                                                         "thumb"]
    for m in metrics["fingers"]:
        _assert_json_form(m, {"finger": str, "distance_to_target": float,
                              "total_movement": float, "efficiency": float, "success": bool,
                              "directional_error": (float, 3)})
    _assert_json_form(metrics["aggregate"], {
        "mean_distance": float, "std_distance": float, "success_rate": float,
        "errors_x": (float, 5), "errors_y": (float, 5), "errors_z": (float, 5)})

    assert run_cli("perturb", "--no-timestamp", "--out", str(tmp_path / "perturb")) == EXIT_OK
    report = json.loads((tmp_path / "perturb" / "perturbation.json").read_text())
    _assert_json_form(report, {"passed": bool, "iterations_run": int, "max_displacement": float,
                               "failure_iteration": type(None), "seed": int, "samples": list})
    assert len(report["samples"]) == report["iterations_run"] == 100
    for sample in report["samples"]:
        _assert_json_form(sample, {"force": (float, 3), "displacement": float})

    capsys.readouterr()
    contacts = tmp_path / "contacts.json"
    contacts.write_text(json.dumps(stable_fixture()))
    assert run_cli("validate", str(contacts)) == EXIT_OK
    _assert_json_form(json.loads(capsys.readouterr().out), ASSESSMENT_FORM)


class TestErrorHandling:
    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "ghost.yaml"),
                       "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_override(self, tmp_path, capsys):
        code = run_cli("run", "--set", "no_equals_sign", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "key.path=value" in capsys.readouterr().err

    def test_unknown_scenario_key_in_override(self, tmp_path, capsys):
        code = run_cli("run", "--set", "run.warp=9", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "unknown key" in capsys.readouterr().err

    def test_repeat_must_be_positive(self, tmp_path, capsys):
        code = run_cli("perturb", "--repeat", "0", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert "--repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["ik.max_iterations=1.5", "perturb.iterations=2.5",
                                     "run.seed=1.7", "run.seed=true", "run.steps=2.5",
                                     "run.log_every=1.5", "validation.min_contacts=2.5",
                                     "validation.min_contacts=true"])
    def test_non_integer_count_is_a_config_error(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer" in err

    @pytest.mark.parametrize("key", ["run.seed=[1]", "run.steps=[1]", "object.mass=[1]",
                                     "object.half_extents=[true, 0.025, 0.03]",
                                     "hand.base_position=[0.0, false, 0.1]",
                                     "targets.index.position=[0.08, true, 0.22]"])
    def test_list_for_a_number_is_a_config_error(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_log_period_past_the_budget_is_rejected_before_the_grasp(self, tmp_path,
                                                                          capsys, monkeypatch):
        import graspforge.cli

        def no_grasp(*args):
            raise AssertionError("the grasp ran")

        monkeypatch.setattr(graspforge.cli, "execute_grasp", no_grasp)
        code = run_cli("run", "--steps", "3", "--set", "run.log_every=7",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.log_every (7)" in err
        assert not (tmp_path / "out").exists()
        # perturb writes no trajectory, so the same settings still run it
        monkeypatch.undo()
        code = run_cli("perturb", "--set", FAR_BOX, "--steps", "3", "--set", "run.log_every=7",
                       "--out", str(tmp_path / "perturb"))
        assert code == EXIT_UNSTABLE
        assert (tmp_path / "perturb" / "perturbation.json").exists()

    def test_a_run_that_ends_before_its_first_logged_step(self, tmp_path, capsys):
        """The 1000-step bundled grasp completes its hold at step 204, before
        step 250: the error names the setting and that step, and no output
        directory is left behind."""
        code = run_cli("run", "--steps", "1000", "--set", "run.log_every=250",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "run.log_every (250)" in err and "ended at step 204" in err
        assert not (tmp_path / "out").exists()

    # NaN, infinity, a quoted number or an int past the largest float in any
    # entry of any vector
    @pytest.mark.parametrize("bad", [".nan", ".inf", '"0.0"',
                                     pytest.param(str(10 ** 400), id="huge")])
    @pytest.mark.parametrize("key,vector", [
        ("hand.base_position", "[{}, 0.0, 0.25]"),
        ("hand.base_rpy", "[3.14, {}, 0.0]"),
        ("object.half_extents", "[0.03, 0.025, {}]"),
        ("object.pose.position", "[{}, 0.0, 0.188]"),
        ("object.pose.rpy", "[0.0, 0.0, {}]"),
        ("targets.index.position", "[0.08, {}, 0.22]"),
    ])
    def test_bad_vector_entry_is_a_config_error(self, tmp_path, capsys, key, vector, bad):
        code = run_cli("run", "--steps", "3", "--set", f"{key}={vector.format(bad)}",
                       "--out", str(tmp_path))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: entries must be finite numbers")
        assert err.count("\n") == 1

    # the IK is position-only: a target takes no rpy, whatever its value
    @pytest.mark.parametrize("bad", [".nan", ".inf", '"0.0"', "0.0"])
    def test_a_target_rpy_is_an_unknown_key(self, tmp_path, capsys, bad):
        code = run_cli("run", "--steps", "3", "--set", f"targets.index.rpy=[{bad}, 0.0, 0.0]",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: targets.index: unknown key 'rpy'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("targets.index", "{}"), ("object.pose", "{}"),
        ("object.pose", "{rpy: [0, 0, 0.05]}")])
    def test_a_pose_without_a_position_is_rejected(self, tmp_path, capsys, key, value):
        # no default position: the world origin is not a target or a box pose
        code = run_cli("run", "--steps", "3", "--set", f"{key}={value}",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {key}: missing key 'position'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "perturb"])
    def test_a_box_inside_the_hand_is_rejected(self, tmp_path, capsys, command):
        # the bundled box starts clear of the hand; this one overlaps its
        # fingers at the neutral posture, where 7 contacts are found
        code = run_cli(command, "--set", "object.pose.position=[0.03, 0.0, 0.22]",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: object.pose: the box starts inside the hand, with 7 contacts at the "
            "neutral posture\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["123", "[a]", "null"])
    def test_non_string_description_path_is_a_config_error(self, tmp_path, capsys, value):
        code = run_cli("run", "--set", f"hand.description_path={value}", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: hand.description_path must be a string")

    def test_bad_description_names_the_key_and_the_file(self, tmp_path, capsys):
        urdf = tmp_path / "nan_limits.urdf"
        with open(bundled_hand_path(), encoding="utf-8") as fh:
            urdf.write_text(re.sub(r'lower="[^"]*"', 'lower="nan"', fh.read()))
        code = run_cli("run", "--set", f"hand.description_path={urdf}", "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: hand.description_path {str(urdf)!r}: joint 'index_yaw' lower limit: "
            "expected a finite number, got 'nan'\n")

    def test_a_box_on_a_finger_link_names_the_link(self, tmp_path, capsys):
        with open(bundled_hand_path(), encoding="utf-8") as fh:
            urdf = fh.read()
        start = urdf.index('<link name="index_distal">')
        end = urdf.index("</link>", start)
        box = tmp_path / "box_distal.urdf"
        box.write_text(urdf[:start] + re.sub(r"<capsule [^>]*/>", '<box size="0.02 0.02 0.02"/>',
                                             urdf[start:end]) + urdf[end:])
        code = run_cli("run", "--set", f"hand.description_path={box}",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: hand.description_path {str(box)!r}: finger link 'index_distal': box "
            "collision geometry is not supported, only a capsule or a sphere\n")
        assert not (tmp_path / "out").exists()

    def test_a_mimic_joint_is_an_error_line(self, tmp_path, capsys):
        mimic = tmp_path / "mimic.urdf"
        mimic.write_text(open(bundled_hand_path()).read().replace(
            '<joint name="index_dip" type="revolute">',
            '<joint name="index_dip" type="revolute">'
            '<mimic joint="index_flexor" multiplier="0.8"/>'))
        code = run_cli("run", "--set", f"hand.description_path={mimic}",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: hand.description_path {str(mimic)!r}: joint 'index_dip': "
            "unsupported element <mimic>\n")
        assert not (tmp_path / "out").exists()

    def test_a_finger_below_another_fingers_joint_is_an_error_line(self, tmp_path, capsys):
        # index_dip renamed: a one-joint finger "nail" below the index joints
        nail = tmp_path / "nail.urdf"
        nail.write_text(open(bundled_hand_path()).read().replace(
            '<joint name="index_dip"', '<joint name="nail_dip"'))
        code = run_cli("run", "--set", f"hand.description_path={nail}",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: hand.description_path {str(nail)!r}: finger 'index': its path from the "
            "root passes joint 'nail_dip' of finger 'nail'; each finger must hang off the root "
            "through fixed joints and its own joints only\n")
        assert not (tmp_path / "out").exists()

    def test_rounds_too_many_to_allocate_are_an_error_line(self, tmp_path, capsys):
        # 1e13 rounds of forces need 218 TiB, more than any address space
        # maps, so the allocation fails at once
        code = run_cli("perturb", "--iterations", "10000000000000",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["run.servo_gain=.nan", "run.joint_rate_limit=.nan",
                                     "run.hz=.inf", "perturb.force_bound=.inf",
                                     "ik.residual_threshold=.inf", "ik.damping_lambda=.inf",
                                     "ik.step_scale=abc", "ik.damping_lambda=abc",
                                     # a quoted number stays a string
                                     'ik.damping_lambda="1e-3"',
                                     "physics.contact_stiffness=abc",
                                     "object.mass=.nan", 'object.mass="0.2"',
                                     # float() of an int past the largest float overflows
                                     pytest.param(f"object.mass={10 ** 400}",
                                                  id="object.mass-huge"),
                                     pytest.param(f"ik.step_scale=-{10 ** 400}",
                                                  id="ik.step_scale-huge"),
                                     "validation.distribution_threshold=.inf",
                                     "validation.force_closure_threshold=.inf",
                                     "validation.min_contact_force=abc",
                                     "perturb.displacement_threshold=.inf",
                                     "perturb.displacement_threshold=abc",
                                     # YAML booleans are not numbers
                                     "run.hz=true", "run.joint_rate_limit=false",
                                     "run.servo_gain=true", "ik.residual_threshold=true",
                                     "ik.damping_lambda=true", "ik.step_scale=true",
                                     "validation.distribution_threshold=true",
                                     "validation.force_closure_threshold=true",
                                     "validation.min_contact_force=true",
                                     "perturb.force_bound=true",
                                     "perturb.displacement_threshold=true",
                                     "physics.lateral_friction=true",
                                     "physics.contact_stiffness=true"])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a finite number" in err
        assert f"error: {key.split('=')[0]} " in err  # the message names the section and key

    @pytest.mark.parametrize("key", ["run.steps=0", "run.steps=2.5", "run.hz=0",
                                     "validation.min_contacts=0", "perturb.iterations=0",
                                     "physics.contact_stiffness=0", "ik.step_scale=2",
                                     # 1e151 overflowed in a traceback, and 1e-20 to 1e-300
                                     # made a singular system: out of the damping's range
                                     "ik.damping_lambda=1.0e+151", "ik.damping_lambda=1.0e-20",
                                     "ik.damping_lambda=1.0e-100", "ik.damping_lambda=1.0e-300",
                                     "ik.damping_lambda=1.0e-9", "ik.damping_lambda=0.0"])
    def test_a_bad_section_value_names_its_section_and_key(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key.split('=')[0]} must ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_a_singular_damped_system_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """With the damping floor lowered, 1e-20 makes an exactly singular
        damped system in the first solve.  It ends the run as
        `np.linalg.solve` would: one error line and exit 1, with no
        RuntimeWarning (an error here) and no NaN steps."""
        import graspforge.ik_solver
        monkeypatch.setattr(graspforge.ik_solver, "_MIN_LAMBDA", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "--set", "ik.damping_lambda=1.0e-20",
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: Singular matrix\n"
        assert not (tmp_path / "out").exists()

    def test_an_exponent_without_a_dot_is_a_float(self, tmp_path):
        """YAML 1.1 reads `1e-3` as a string; the scenario loader reads it
        as YAML 1.2 and JSON do, so it runs as 0.001 does."""
        for value in ("1e-3", "0.001"):
            code = run_cli("run", "--steps", "30", "--no-timestamp",
                           "--set", f"ik.damping_lambda={value}", "--out", str(tmp_path / value))
            assert code == EXIT_UNSTABLE
        exponent, decimal = tmp_path / "1e-3", tmp_path / "0.001"
        names = sorted(os.listdir(decimal))
        assert names and sorted(os.listdir(exponent)) == names
        for name in names:
            assert (exponent / name).read_bytes() == (decimal / name).read_bytes()

    def test_non_mapping_scenario_root_with_overrides(self, tmp_path, capsys):
        scenario = tmp_path / "list.yaml"
        scenario.write_text("- run\n- steps\n")
        code = run_cli("run", "--scenario", str(scenario), "--set", "run.steps=3",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: scenario root must be a mapping\n"

    def test_partial_targets_name_the_missing_fingers(self, tmp_path, capsys):
        scenario = tmp_path / "partial.yaml"
        scenario.write_text("targets:\n"
                            "  index: {position: [0.08, -0.03, 0.22]}\n"
                            "  thumb: {position: [0.0, 0.05, 0.2]}\n")
        code = run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: targets: ") and err.count("\n") == 1
        assert "'middle', 'ring', 'pinky'" in err
        assert not (tmp_path / "out").exists()

    def test_built_in_targets_on_other_finger_names(self, tmp_path, capsys):
        # no targets section, and a hand whose thumb joints are named thb_
        hand = tmp_path / "thb.urdf"
        hand.write_text(open(bundled_hand_path()).read().replace(
            '<joint name="thumb_', '<joint name="thb_'))
        scenario = tmp_path / "no_targets.yaml"
        scenario.write_text("hand: {description_path: thb.urdf}\n")
        code = run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: targets: unknown finger 'thumb'") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_built_in_targets_on_a_hand_with_an_extra_finger(self, tmp_path, capsys):
        # no targets section, and the bundled hand with a copy of its pinky
        urdf = open(bundled_hand_path()).read()
        start, end = urdf.index("  <!-- pinky -->"), urdf.index("  <!-- thumb")
        hand = tmp_path / "six.urdf"
        hand.write_text(urdf.replace("</robot>",
                                     urdf[start:end].replace("pinky", "sixth") + "</robot>"))
        scenario = tmp_path / "no_targets.yaml"
        scenario.write_text("hand: {description_path: six.urdf}\n")
        code = run_cli("run", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: targets: no target given for finger(s) 'sixth' "
            "(the built-in targets; give this hand a targets section)\n")
        assert not (tmp_path / "out").exists()

    def test_built_in_targets_on_a_rotated_box(self, tmp_path, capsys):
        scenario = tmp_path / "rotated.yaml"
        scenario.write_text("object: {pose: {position: [0.06, 0.0, 0.19], rpy: [0, 0, 0.3]}}\n")
        code = run_cli("perturb", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: targets: default grasp targets require an axis-aligned box, and "
            "object.pose rotates it (the built-in targets; give this hand a targets section)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["perturb", "--seed", "-3", "--repeat", "2"],
                                      ["perturb", "--set", "run.seed=-1"],
                                      ["run", "--set", "run.seed=-1"]])
    def test_negative_seed_names_run_seed(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: run.seed") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # argparse's own status for these is 2, which would read as an unstable grasp
    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"],
        ["run", "--steps", "abc"],
        ["run", "--seed", "5"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(tmp_path))
        assert exc.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: graspforge") and "error: " in err


def test_out_dir_defaults_to_scenario_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "s.yaml"
    scenario.write_text(f"output_dir: {tmp_path / 'reports'}\n"
                        "run: {steps: 3}\n"
                        "object:\n  pose: {position: [5.0, 0.0, 0.188]}\n")
    code = run_cli("run", "--scenario", str(scenario))
    assert code == EXIT_UNSTABLE
    assert (tmp_path / "reports" / "metrics.json").exists()
