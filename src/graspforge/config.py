"""Scenario configuration: YAML schema, overrides, and object construction.

A scenario file is a nested mapping with the sections below; every key is
optional and unknown keys are rejected so typos fail loudly instead of
silently running defaults.

  hand:       description_path, base_position, base_rpy
  object:     half_extents, pose {position, rpy}, mass
  physics:    contact_stiffness (k in the contact force F = k * depth),
              lateral_friction (validated; no computation reads it yet)
  targets:    finger -> {position, rpy}   (world frame; omit for built-ins)
  run:        seed (the perturbation seed), steps, hz, joint_rate_limit,
              servo_gain, log_every; seed, steps and log_every are integers
  ik:         max_iterations, residual_threshold, damping_lambda, step_scale
  validation: min_contacts, distribution_threshold, force_closure_threshold,
              min_contact_force
  perturb:    iterations, force_bound, displacement_threshold
  output_dir: path for reports
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import yaml

from .controller import RunConfig
from .grasp_validation import ValidationConfig
from .ik_solver import IkConfig
from .kinematics import Pose
from .perturbation import PerturbConfig
from .robot_model import bundled_data_dir, load_robot_description
from .scene import (DEFAULT_HAND_BASE_POSITION, DEFAULT_HAND_BASE_RPY, PhysicalParams,
                    Scene, default_grasp_targets, default_scene, make_box_object)


class ConfigError(ValueError):
    """Malformed scenario file, unknown key, or invalid parameter value."""


_SCHEMA = {
    "hand": {"description_path", "base_position", "base_rpy"},
    "object": {"half_extents", "pose", "mass"},
    "physics": {"lateral_friction", "contact_stiffness"},
    "targets": None,  # free finger names, each {position, rpy}
    "run": {"seed", "steps", "hz", "joint_rate_limit", "servo_gain", "log_every"},
    "ik": {"max_iterations", "residual_threshold", "damping_lambda", "step_scale"},
    "validation": {"min_contacts", "distribution_threshold",
                   "force_closure_threshold", "min_contact_force"},
    "perturb": {"iterations", "force_bound", "displacement_threshold"},
    "output_dir": None,
}


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


def _require_vec3(value, where: str):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where}: expected a 3-element list, got {value!r}")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: entries must be numbers, got {value!r}") from None


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
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key.path=value")
        path, raw_value = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key segment")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: bad value ({exc})") from None
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r} descends through a non-mapping")
        node[keys[-1]] = value
    return data


def _resolve_path(path: str, scenario_dir: str | None) -> str:
    if os.path.isabs(path):
        return path
    if scenario_dir is not None:
        candidate = os.path.join(scenario_dir, path)
        if os.path.exists(candidate):
            return candidate
    return os.path.join(bundled_data_dir(), path)


def _pose_from_mapping(value, where: str) -> Pose:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping with position/rpy")
    unknown = set(value) - {"position", "rpy"}
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown.pop()!r}")
    position = _require_vec3(value.get("position", (0.0, 0.0, 0.0)), f"{where}.position")
    rpy = _require_vec3(value.get("rpy", (0.0, 0.0, 0.0)), f"{where}.rpy")
    return Pose.from_rpy(position, rpy)


def build_scenario(data: dict, scenario_dir: str | None = None) -> ScenarioConfig:
    """Construct concrete objects from a validated scenario mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("scenario root must be a mapping")
    _check_keys(data)

    physics_kwargs = dict(data.get("physics", {}))
    try:
        params = PhysicalParams(**physics_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"physics: {exc}") from None

    hand = data.get("hand", {})
    description_path = _resolve_path(hand.get("description_path", "hand.urdf"), scenario_dir)
    try:
        chain = load_robot_description(description_path)
    except OSError as exc:
        raise ConfigError(f"hand.description_path: {exc}") from None
    base_position = _require_vec3(hand.get("base_position", DEFAULT_HAND_BASE_POSITION),
                                  "hand.base_position")
    base_rpy = _require_vec3(hand.get("base_rpy", DEFAULT_HAND_BASE_RPY), "hand.base_rpy")

    obj_data = data.get("object", {})
    defaults = default_scene(chain)
    half_extents = _require_vec3(obj_data.get("half_extents", defaults.object.half_extents),
                                 "object.half_extents")
    pose = _pose_from_mapping(obj_data.get("pose", {"position": list(defaults.object.pose.position)}),
                              "object.pose")
    mass = obj_data.get("mass", defaults.object.mass)
    if isinstance(mass, bool) or not isinstance(mass, (int, float)):
        raise ConfigError(f"object.mass must be a number, got {mass!r}")
    try:
        obj = make_box_object(half_extents, pose, float(mass), params)
    except ValueError as exc:
        raise ConfigError(f"object: {exc}") from None

    scene = Scene(chain=chain, hand_base=Pose.from_rpy(base_position, base_rpy),
                  object=obj)

    if "targets" in data:
        if not isinstance(data["targets"], dict) or not data["targets"]:
            raise ConfigError("targets must map finger names to poses")
        targets = {}
        for finger, value in data["targets"].items():
            if finger not in chain.fingers:
                raise ConfigError(f"targets: unknown finger {finger!r}")
            targets[finger] = _pose_from_mapping(value, f"targets.{finger}")
    else:
        targets = default_grasp_targets(scene)

    run_data = dict(data.get("run", {}))
    seed = run_data.pop("seed", 0)
    if "steps" in run_data:
        run_data["max_steps"] = run_data.pop("steps")
    try:
        run = RunConfig(**run_data)
        ik = IkConfig(**data.get("ik", {}))
        validation = ValidationConfig(**data.get("validation", {}))
        perturb = PerturbConfig(seed=seed, **data.get("perturb", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    return ScenarioConfig(scene=scene, targets=targets, run=run, ik=ik,
                          validation=validation, perturb=perturb,
                          output_dir=output_dir)


def load_scenario(path: str, overrides: list[str] | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario {path!r} is not valid YAML: {exc}") from None
    if data is None:
        data = {}
    if overrides:
        data = apply_overrides(data, overrides)
    return build_scenario(data, scenario_dir=os.path.dirname(os.path.abspath(path)))
