"""Command-line interface: run grasps, perturb them, validate contact files.

Exit codes: 0 success/stable, 2 completed-but-unstable (or unsuccessful),
1 usage, configuration or I/O error.  All file outputs are deterministic for a
given scenario + seed; CSV files carry an ISO-8601 timestamp comment line
unless --no-timestamp is passed (JSON reports are always timestamp-free).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from ._checks import is_finite_number, require_vec3
from .config import ConfigError, default_scenario_path, load_scenario
from .contact import ContactPoint, detect_contacts
from .controller import execute_grasp, write_trajectory_csv
from .grasp_validation import ValidationConfig, validate_grasp
from .metrics import summarize_run, write_metrics_csv
from .perturbation import perturb_contacts, write_samples_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2

_NORMAL_TOL = 1e-3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but this CLI reserves 2 for unstable grasps."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graspforge",
        description="Five-finger grasp synthesis and stability validation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_args = argparse.ArgumentParser(add_help=False)
    scenario_args.add_argument("--scenario", default=None, metavar="PATH",
                               help="scenario YAML (default: bundled scenario)")
    scenario_args.add_argument("--steps", type=int, default=None,
                               help="override run.steps")
    scenario_args.add_argument("--hz", type=float, default=None)
    scenario_args.add_argument("--out", default=None, metavar="DIR")
    scenario_args.add_argument("--set", dest="overrides", action="append", default=[],
                               metavar="KEY=VALUE",
                               help="override any scenario key, e.g. object.mass=0.3")
    scenario_args.add_argument("--no-timestamp", action="store_true",
                               help="omit the timestamp comment from CSV outputs")

    p_run = sub.add_parser("run", parents=[scenario_args],
                           help="execute the grasp and report metrics")
    p_run.add_argument("--efficiency-basis", default="final_error",
                       choices=["final_error", "straight_line"])

    p_perturb = sub.add_parser("perturb", parents=[scenario_args],
                               help="execute the grasp, then stress it with random forces")
    p_perturb.add_argument("--iterations", type=int, default=None)
    p_perturb.add_argument("--seed", type=int, default=None,
                           help="override run.seed, the perturbation seed")
    p_perturb.add_argument("--repeat", type=int, default=1, metavar="N",
                           help="perturb the grasp N times with consecutive seeds"
                                " in numbered subdirectories")

    p_val = sub.add_parser("validate", help="judge a JSON file of contact points")
    p_val.add_argument("contacts_json", metavar="CONTACTS_JSON")
    return parser


def _flag_overrides(args) -> list[str]:
    overrides = list(args.overrides)
    if args.steps is not None:
        overrides.append(f"run.steps={args.steps}")
    if args.hz is not None:
        overrides.append(f"run.hz={args.hz}")
    return overrides


def _write_text(path: str, write_body, timestamp: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        write_body(fh)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _out_dir(args, scenario) -> str:
    if args.out:
        return args.out
    if scenario.output_dir:
        return scenario.output_dir
    return "graspforge_out"


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario or default_scenario_path(),
                             _flag_overrides(args))
    run = scenario.run
    if run.log_every > run.max_steps:
        raise ConfigError(f"run.log_every ({run.log_every}) exceeds run.steps "
                          f"({run.max_steps}): the run would log no step")
    _, log, assessment = execute_grasp(
        scenario.scene, scenario.targets, run, scenario.ik, scenario.validation)
    if not len(log.control_steps):
        raise ConfigError(f"run.log_every ({run.log_every}) logs no step: the run "
                          f"ended at step {log.end_step}")
    metrics, summary = summarize_run(log, scenario.targets,
                                     efficiency_basis=args.efficiency_basis)

    out_dir = _out_dir(args, scenario)
    os.makedirs(out_dir, exist_ok=True)
    timestamp = not args.no_timestamp
    _write_text(os.path.join(out_dir, "trajectory.csv"),
                lambda fh: write_trajectory_csv(log, fh), timestamp)
    _write_text(os.path.join(out_dir, "metrics.csv"),
                lambda fh: write_metrics_csv(metrics, fh), timestamp)
    _write_json(os.path.join(out_dir, "metrics.json"),
                {"fingers": [m.to_dict() for m in metrics],
                 "aggregate": summary.to_dict()})
    _write_json(os.path.join(out_dir, "assessment.json"), assessment.to_dict())

    for m in metrics:
        verdict = "success" if m.success else "miss"
        print(f"{m.finger}: distance {m.distance_to_target:.4f} m, "
              f"movement {m.total_movement:.4f} m, "
              f"efficiency {m.efficiency:.3f}, {verdict}")
    ok = assessment.stable and all(m.success for m in metrics)
    if not assessment.stable:
        print(f"grasp unstable: {assessment.failure_reason}")
    return EXIT_OK if ok else EXIT_UNSTABLE


def cmd_perturb(args) -> int:
    if args.repeat < 1:
        raise ConfigError("--repeat must be at least 1")
    overrides = _flag_overrides(args)
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.iterations is not None:
        overrides.append(f"perturb.iterations={args.iterations}")
    scenario = load_scenario(args.scenario or default_scenario_path(), overrides)
    out_root = _out_dir(args, scenario)

    # the seed reaches only the rounds: one grasp and its contacts serve every repeat
    state, _, _ = execute_grasp(scenario.scene, scenario.targets,
                                scenario.run, scenario.ik, scenario.validation)
    contacts = detect_contacts(scenario.scene, state)
    all_passed = True
    for i in range(args.repeat):
        config = replace(scenario.perturb, seed=scenario.perturb.seed + i)
        report = perturb_contacts(scenario.scene.object, contacts, config, scenario.validation)
        out_dir = out_root if args.repeat == 1 else os.path.join(out_root, f"{i:03d}")
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "perturbation.json"), report.to_dict())
        _write_text(os.path.join(out_dir, "perturbation_samples.csv"),
                    lambda fh: write_samples_csv(report, fh), not args.no_timestamp)
        verdict = "pass" if report.passed else "FAIL"
        print(f"perturbation: {verdict} ({report.iterations_run} rounds, "
              f"max displacement {report.max_displacement:.6f} m, seed {report.seed})")
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_UNSTABLE


def _load_contact_file(path: str) -> list[ContactPoint]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("contacts")
    if not isinstance(data, list):
        raise ValueError("contacts file must hold a list of contact records")
    contacts = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"contact {i}: expected a mapping")
        position = require_vec3(entry.get("position"), f"contact {i}: position")
        normal = require_vec3(entry.get("normal"), f"contact {i}: normal")
        for name in ("force", "normal_force"):
            if not is_finite_number(entry.get(name, 0.0)):
                raise ValueError(f"contact {i}: {name} must be a finite number, "
                                 f"got {entry[name]!r}")
        force = float(entry.get("force", entry.get("normal_force", 0.0)))
        link = entry.get("link", -1)
        if isinstance(link, bool) or not isinstance(link, int):
            raise ValueError(f"contact {i}: link must be an integer, got {link!r}")
        norm = float(np.linalg.norm(normal))
        if abs(norm - 1.0) > _NORMAL_TOL:
            raise ValueError(f"contact {i}: normal has length {norm:.6f}, not unit")
        contacts.append(ContactPoint(
            finger=str(entry.get("finger", "external")),
            link=link,
            position=position, normal=normal,
            penetration_depth=0.0, normal_force=force))
    return contacts


def cmd_validate(args) -> int:
    contacts = _load_contact_file(args.contacts_json)
    assessment = validate_grasp(contacts, ValidationConfig())
    print(json.dumps(assessment.to_dict(), indent=2))
    return EXIT_OK if assessment.stable else EXIT_UNSTABLE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "perturb":
            return cmd_perturb(args)
        return cmd_validate(args)
    # a MemoryError is an array too large to allocate, such as the rounds
    # of a perturbation count no machine can hold
    except (ConfigError, ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
