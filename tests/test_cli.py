import json
import os

import pytest

from graspforge.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSTABLE, main

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
                                     "run.log_every=1.5"])
    def test_non_integer_count_is_a_config_error(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path))
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be an integer" in err

    @pytest.mark.parametrize("key", ["run.seed=[1]", "run.steps=[1]", "object.mass=[1]"])
    def test_list_for_a_number_is_a_config_error(self, tmp_path, capsys, key):
        code = run_cli("perturb", "--set", key, "--out", str(tmp_path))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

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
