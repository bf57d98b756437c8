"""Scenario configuration: YAML schema, overrides, and object construction.

A scenario file is a nested mapping with the sections below; every key but
a given pose's position is optional, and unknown keys are rejected so typos
fail loudly instead of silently running defaults.

  hand:       description_path, base_position, base_rpy
  object:     half_extents, pose {position, rpy}, mass
  physics:    contact_stiffness (k in the contact force F = k * depth),
              lateral_friction (validated; no computation reads it yet)
  targets:    finger -> {position}   (world frame, every finger; omit
              the section for the built-ins, which name the bundled hand's
              five fingers, so a hand with other or more needs it)
  run:        seed (the perturbation seed, >= 0), steps, hz,
              joint_rate_limit, servo_gain, log_every; seed, steps and
              log_every are integers
  ik:         max_iterations, residual_threshold, damping_lambda, step_scale
  validation: min_contacts, distribution_threshold, force_closure_threshold,
              min_contact_force
  perturb:    iterations, force_bound, displacement_threshold
  output_dir: path for reports

Every number, in every field and every vec3 entry, must be finite, and a
boolean is not a number; an integer field takes an int only.  This is the
number rule of `_checks`, which `graspforge validate` applies to contact
files too; each vec3 is read by `_checks.require_vec3`.  The key sets
of physics, ik, validation and perturb are the fields of their dataclasses,
which check their own values (`_checks.check_numbers`).  A bad value raises
ConfigError naming its key with its section, such as `ik.damping_lambda`.

The scenario file and each `--set` value are read by one YAML loader:
PyYAML's safe loader, which also reads a plain number with an exponent and
no dot, such as `1e-3` or `2.4e2`, as a float, as YAML 1.2 and JSON do
(YAML 1.1 reads it as a string).  A quoted number stays a string.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields

import yaml

from ._checks import ConfigError, is_finite_number, require_vec3
from .contact import detect_contacts
from .controller import RunConfig
from .grasp_validation import ValidationConfig
from .ik_solver import IkConfig
from .kinematics import Pose, neutral_state
from .perturbation import PerturbConfig
from .robot_model import (RobotDescriptionError, ValidationError, bundled_data_dir,
                          load_robot_description)
from .scene import (DEFAULT_BOX_HALF_EXTENTS, DEFAULT_BOX_MASS, DEFAULT_BOX_POSITION,
                    DEFAULT_HAND_BASE_POSITION, DEFAULT_HAND_BASE_RPY, PhysicalParams, Scene,
                    SceneError, default_grasp_targets, make_box_object)


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


_SCHEMA = {
    "hand": {"description_path", "base_position", "base_rpy"},
    "object": {"half_extents", "pose", "mass"},
    "physics": _field_names(PhysicalParams),
    "targets": None,  # free finger names, each {position}
    # `seed` goes to perturb.seed, `steps` to RunConfig.max_steps
    "run": {"seed", "steps", "hz", "joint_rate_limit", "servo_gain", "log_every"},
    "ik": _field_names(IkConfig),
    "validation": _field_names(ValidationConfig),
    "perturb": _field_names(PerturbConfig) - {"seed"},
    "output_dir": None,
}


class _Loader(yaml.SafeLoader):
    """The safe loader, with YAML 1.2's floats that YAML 1.1 lacks."""


# tried after YAML 1.1's own resolvers, so it only takes what they leave a string
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _load_yaml(stream):
    return yaml.load(stream, Loader=_Loader)


def default_scenario_path() -> str:
    return os.path.join(bundled_data_dir(), "default_scenario.yaml")


@dataclass
class ScenarioConfig:
    scene: Scene
    targets: dict[str, Pose]
    run: RunConfig
    ik: IkConfig
    validation: ValidationConfig
    perturb: PerturbConfig
    output_dir: str | None = None


def _check_keys(data: dict) -> None:
    for section, content in data.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown scenario key {section!r}")
        allowed = _SCHEMA[section]
        if allowed is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key in content:
            if key not in allowed:
                raise ConfigError(f"unknown key {section}.{key}")


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply --set key.path=value pairs; values parse as YAML scalars."""
    if not isinstance(data, dict):
        raise ConfigError("scenario root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        path, raw_value = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key segment")
        try:
            value = _load_yaml(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: bad value ({exc})") from None
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r} descends through a non-mapping")
        node[keys[-1]] = value
    return data


def _section(section: str, cls, values: dict, keys: dict | None = None):
    """`cls(**values)`, a dataclass that checks its fields and names the
    field first in its error; that error as a ConfigError naming the key as
    `section.key`.  `keys` maps a field to a key of another name."""
    try:
        return cls(**values)
    except (ConfigError, SceneError) as exc:
        field, rest = str(exc).split(" ", 1)
        raise ConfigError(f"{section}.{(keys or {}).get(field, field)} {rest}") from None


def _resolve_path(path: str, scenario_dir: str | None) -> str:
    if os.path.isabs(path):
        return path
    if scenario_dir is not None:
        candidate = os.path.join(scenario_dir, path)
        if os.path.exists(candidate):
            return candidate
    return os.path.join(bundled_data_dir(), path)


def _pose_from_mapping(value, where: str, keys=("position", "rpy")) -> Pose:
    """The pose of a mapping of `keys`, position required.  A target's mapping
    has no rpy (the IK is position-only), and its pose keeps the identity."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping with {'/'.join(keys)}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown.pop()!r}")
    if "position" not in value:
        raise ConfigError(f"{where}: missing key 'position'")
    position = require_vec3(value["position"], f"{where}.position")
    if "rpy" not in keys:
        return Pose(position=position)
    rpy = require_vec3(value.get("rpy", (0.0, 0.0, 0.0)), f"{where}.rpy")
    return Pose.from_rpy(position, rpy)


def build_scenario(data: dict, scenario_dir: str | None = None) -> ScenarioConfig:
    """Construct concrete objects from a validated scenario mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("scenario root must be a mapping")
    _check_keys(data)

    params = _section("physics", PhysicalParams, data.get("physics", {}))

    hand = data.get("hand", {})
    description_path = hand.get("description_path", "hand.urdf")
    if not isinstance(description_path, str):
        raise ConfigError(f"hand.description_path must be a string path, got {description_path!r}")
    description_path = _resolve_path(description_path, scenario_dir)
    try:
        chain = load_robot_description(description_path)
    except OSError as exc:
        raise ConfigError(f"hand.description_path: {exc}") from None
    except (RobotDescriptionError, ValidationError) as exc:
        raise ConfigError(f"hand.description_path {description_path!r}: {exc}") from None
    base_position = require_vec3(hand.get("base_position", DEFAULT_HAND_BASE_POSITION),
                                 "hand.base_position")
    base_rpy = require_vec3(hand.get("base_rpy", DEFAULT_HAND_BASE_RPY), "hand.base_rpy")

    obj_data = data.get("object", {})
    half_extents = require_vec3(obj_data.get("half_extents", DEFAULT_BOX_HALF_EXTENTS),
                                "object.half_extents")
    pose = _pose_from_mapping(obj_data.get("pose", {"position": DEFAULT_BOX_POSITION}),
                              "object.pose")
    mass = obj_data.get("mass", DEFAULT_BOX_MASS)
    if not is_finite_number(mass):
        raise ConfigError(f"object.mass must be a finite number, got {mass!r}")
    try:
        obj = make_box_object(half_extents, pose, float(mass), params)
    except SceneError as exc:
        raise ConfigError(f"object: {exc}") from None

    scene = Scene(chain=chain, hand_base=Pose.from_rpy(base_position, base_rpy),
                  object=obj)
    inside = len(detect_contacts(scene, neutral_state(chain)))
    if inside:
        raise ConfigError(f"object.pose: the box starts inside the hand, with {inside} contacts "
                          "at the neutral posture")

    if "targets" in data:
        if not isinstance(data["targets"], dict) or not data["targets"]:
            raise ConfigError("targets must map finger names to poses")
        targets = {finger: _pose_from_mapping(value, f"targets.{finger}", ("position",))
                   for finger, value in data["targets"].items()}
        source = ""
    else:
        source = " (the built-in targets; give this hand a targets section)"
        try:
            targets = default_grasp_targets(scene)
        except SceneError as exc:
            raise ConfigError(f"targets: {exc}, and object.pose rotates it{source}") from None
    unknown = [finger for finger in targets if finger not in chain.fingers]
    if unknown:
        raise ConfigError(f"targets: unknown finger {unknown[0]!r}{source}")
    missing = [finger for finger in chain.fingers if finger not in targets]
    if missing:
        raise ConfigError(f"targets: no target given for finger(s) "
                          f"{', '.join(map(repr, missing))}"
                          f"{source or '; give every finger a target'}")

    run_data = dict(data.get("run", {}))
    # run.seed is the perturbation seed, which PerturbConfig checks
    seed = _section("run", PerturbConfig, {"seed": run_data.pop("seed", 0)}).seed
    if "steps" in run_data:
        run_data["max_steps"] = run_data.pop("steps")
    run = _section("run", RunConfig, run_data, {"max_steps": "steps"})
    ik = _section("ik", IkConfig, data.get("ik", {}))
    validation = _section("validation", ValidationConfig, data.get("validation", {}))
    perturb = _section("perturb", PerturbConfig, dict(data.get("perturb", {}), seed=seed))

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    return ScenarioConfig(scene=scene, targets=targets, run=run, ik=ik,
                          validation=validation, perturb=perturb,
                          output_dir=output_dir)


def load_scenario(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _load_yaml(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario {path!r} is not valid YAML: {exc}") from None
    if data is None:
        data = {}
    if overrides:
        data = apply_overrides(data, overrides)
    return build_scenario(data, scenario_dir=os.path.dirname(os.path.abspath(path)))
