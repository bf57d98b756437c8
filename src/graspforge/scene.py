"""World state: hand base pose, target object, and contact physics parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_numbers, is_finite_number
from .kinematics import Pose
from .robot_model import KinematicChain, bundled_hand_path, load_robot_description

__all__ = [
    "SceneError",
    "PhysicalParams",
    "SceneObject",
    "Scene",
    "make_box_object",
    "default_scene",
    "default_grasp_targets",
    "world_from_base",
    "base_from_world",
    "DEFAULT_HAND_BASE_POSITION",
    "DEFAULT_HAND_BASE_RPY",
    "DEFAULT_BOX_HALF_EXTENTS",
    "DEFAULT_BOX_POSITION",
    "DEFAULT_BOX_MASS",
]


class SceneError(ValueError):
    """Raised for invalid scene parameters (non-positive dimensions, bad physics values)."""


@dataclass(frozen=True)
class PhysicalParams:
    """Contact constants of the object surface."""

    lateral_friction: float = 1.0
    contact_stiffness: float = 10000.0  # N/m

    def __post_init__(self):
        check_numbers(self, SceneError)
        if self.lateral_friction < 0.0:
            raise SceneError(f"lateral_friction must be >= 0, got {self.lateral_friction!r}")
        if self.contact_stiffness <= 0.0:
            raise SceneError("contact_stiffness must be > 0")


@dataclass(frozen=True)
class SceneObject:
    """A box-shaped graspable body."""

    half_extents: tuple[float, float, float]
    pose: Pose
    mass: float
    params: PhysicalParams = field(default_factory=PhysicalParams)


@dataclass(frozen=True)
class Scene:
    """Hand + object world.

    The bundled defaults keep 2 cm of clearance between palm surface and
    box.  `config.build_scenario` rejects a scenario whose box starts inside
    the hand (with contacts at `neutral_state`); a `Scene` made directly is
    not checked.
    """

    chain: KinematicChain
    hand_base: Pose
    object: SceneObject


def make_box_object(
    half_extents,
    pose: Pose,
    mass: float,
    params: PhysicalParams | None = None,
) -> SceneObject:
    """Build a box object, validating dimensions and mass."""
    try:
        values = tuple(half_extents)
    except TypeError:  # not a sequence, such as a bare number
        values = ()
    if len(values) != 3 or not all(is_finite_number(v) and v > 0.0 for v in values):
        raise SceneError(f"box half-extents must be 3 positive numbers, got {half_extents!r}")
    if not (is_finite_number(mass) and mass > 0.0):
        raise SceneError(f"mass must be positive, got {mass!r}")
    return SceneObject(
        half_extents=tuple(float(v) for v in values),
        pose=pose,
        mass=float(mass),
        params=params if params is not None else PhysicalParams(),
    )


# Hand hangs palm-down: roll pi flips base z toward the work volume below.
DEFAULT_HAND_BASE_POSITION = (0.0, 0.0, 0.25)
DEFAULT_HAND_BASE_RPY = (math.pi, 0.0, 0.0)

# Box sized and placed so the palm-facing face sits 2 cm under the palm
# surface (palm half-thickness 0.012 + clearance 0.020 = 0.032 in base z).
DEFAULT_BOX_HALF_EXTENTS = (0.030, 0.025, 0.030)
DEFAULT_BOX_POSITION = (0.060, 0.0, 0.188)
DEFAULT_BOX_MASS = 0.2


def default_scene(chain: KinematicChain | None = None) -> Scene:
    """Bundled hand above the default box; deterministic and value-comparable."""
    if chain is None:
        chain = load_robot_description(bundled_hand_path())
    hand_base = Pose.from_rpy(DEFAULT_HAND_BASE_POSITION, DEFAULT_HAND_BASE_RPY)
    obj = make_box_object(
        DEFAULT_BOX_HALF_EXTENTS,
        Pose.from_rpy(DEFAULT_BOX_POSITION, (0.0, 0.0, 0.0)),
        DEFAULT_BOX_MASS,
    )
    return Scene(chain=chain, hand_base=hand_base, object=obj)


def world_from_base(scene: Scene, p_base) -> np.ndarray:
    """Map a point from the hand-base frame into the world frame."""
    R = scene.hand_base.rotation()
    return R @ np.asarray(p_base, dtype=float) + scene.hand_base.position


def base_from_world(scene: Scene, p_world) -> np.ndarray:
    R = scene.hand_base.rotation()
    return R.T @ (np.asarray(p_world, dtype=float) - scene.hand_base.position)


# Tip-frame distance from the surface feature.  On the bundled hand the
# `<finger>_tip` frame is the center of the distal capsule's end cap (radius
# 8 mm), so a target this close puts the cap 3.5 mm inside the box and the
# servo presses until latched.
_TARGET_OFFSET = 0.0045

# Edge-press direction for index/pinky: mostly lateral with an upward tilt
# that parks the tip frame ~0.9 mm palm-side of the top-face plane.  The lateral
# sweep of these two fingers is the last motion before the grasp validates,
# so the contact normals keep a z component between the first-touch value
# (~0.15) and the at-rest value (0.20) -- enough out-of-plane stiffness to
# resist palm-axis pushes while the sum of the four unit normals stays
# inside the closure budget.
_EDGE_TILT = (0.0, 0.9797958971132712, -0.2)


def default_grasp_targets(scene: Scene) -> dict[str, Pose]:
    """Per-finger tip-frame target positions for a four-contact box pinch.

    Index and pinky press the two palm-side lateral edges of the box, middle
    hooks over and presses the far face back toward the palm, the thumb
    presses the near face, and the ring parks above the far face out of
    contact. All points are expressed in the world frame.
    """
    R_obj = scene.object.pose.rotation()
    if not np.allclose(R_obj, np.eye(3), atol=1e-12):
        raise SceneError("default grasp targets require an axis-aligned box")
    c = base_from_world(scene, scene.object.pose.position)
    hx, hy, hz = scene.object.half_extents
    top = c[2] - hz  # palm-facing face height in base frame
    tilt = np.asarray(_EDGE_TILT)

    index_c = np.array([c[0] + 0.020, c[1] + hy, top]) + _TARGET_OFFSET * tilt
    pinky_c = np.array([c[0] + 0.020, c[1] - hy, top]) + _TARGET_OFFSET * (tilt * (1.0, -1.0, 1.0))
    middle_c = np.array([c[0] + hx + _TARGET_OFFSET, c[1] + 0.011, top + 0.010])
    # Thumb presses near the top of the near face: low enough for a face-interior
    # contact, high enough that the middle phalanx clears the palm-side edge.
    thumb_c = np.array([c[0] - hx - _TARGET_OFFSET, c[1] + 0.010, top + 0.010])
    # Ring parks past the far top edge, radially off the edge so the whole
    # finger stays > 5 mm clear of the box throughout the close.
    ring_c = np.array([c[0] + hx + 0.0119, c[1] - 0.011, top + 0.0061])

    targets_base = {
        "thumb": thumb_c,
        "index": index_c,
        "middle": middle_c,
        "ring": ring_c,
        "pinky": pinky_c,
    }
    return {name: Pose(position=world_from_base(scene, p)) for name, p in targets_base.items()}
