"""Robot description parsing for the five-finger hand.

Reads a URDF-style XML subset (links with optional box / capsule / sphere
collision geometry, revolute and fixed joints with origin / axis / limit
tags) into an immutable kinematic tree.  Visual, inertial, material and
joint dynamics elements are ignored; anything else unrecognized is an error,
and so is a number that is not finite.  A joint's `<mimic>` is one such
error: every movable joint is independent, so a coupling the chain would
drop is rejected, not ignored.  A finger link's collision geometry
is a capsule or a sphere, which contact detection probes; a box there is a
`ValidationError`.  A box on any other link, such as the bundled palm, is
accepted, but contact detection does not use it.

Finger grouping is inferred from joint names: every movable joint named
``<finger>_<something>`` belongs to finger ``<finger>``.  Each finger is
its own serial chain off the root: every movable joint on the path from the
root to a finger's end effector is one of that finger's joints, and fixed
joints may lie anywhere on it.  A hand in which a finger lies below another
finger's movable joint is a `ValidationError`, because the hand IK solves
each finger apart, moving only its own joints, and each finger link's shape
must belong to one finger.  When a finger named "thumb" exists the
hand-layout rule is enforced too: the thumb has exactly 5 movable joints
and every finger other than the thumb has exactly 4.

Each link's joint path from the root (`path_to_link`) is built once, in one
memoized upward walk that also rejects a cycle; finger order, the serial-chain
check, end effectors, `finger_links` and the FK levels all read that table.
Fixed joints stay in the tree as zero-DOF constant transforms, composed like
any other joint (one origin rotation and translation each).
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .transforms import Transform, rodrigues_terms

THUMB_DOF = 5
OTHER_FINGER_DOF = 4


class RobotDescriptionError(ValueError):
    """The description text itself is malformed (XML or required fields)."""


class ValidationError(ValueError):
    """The description parsed but violates a kinematic-tree invariant."""


class UnknownFingerError(KeyError):
    """Requested finger name does not exist on this chain."""


# --------------------------------------------------------------------------
# geometry variants (collision only; all dimensions in meters)


@dataclass(frozen=True)
class BoxGeometry:
    half_extents: tuple[float, float, float]


@dataclass(frozen=True)
class CapsuleGeometry:
    """Cylinder of `length` along local +Z capped by hemispheres of `radius`."""
    radius: float
    length: float


@dataclass(frozen=True)
class SphereGeometry:
    radius: float


Geometry = Union[BoxGeometry, CapsuleGeometry, SphereGeometry]


@dataclass(frozen=True)
class LinkSpec:
    name: str
    geometry: Optional[Geometry] = None
    geometry_origin: Transform = Transform()


@dataclass(frozen=True)
class JointSpec:
    name: str
    kind: str  # "revolute" or "fixed"
    parent: int  # link index
    child: int  # link index
    origin: Transform
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    lower_limit: float = 0.0
    upper_limit: float = 0.0


@dataclass(frozen=True)
class Finger:
    """One finger: its movable joints base-to-tip and its end-effector link."""
    joints: tuple[int, ...]
    end_effector: int


@dataclass(frozen=True)
class FkLevel:
    """The joints of one tree depth, composed in one batch by `_stacked_frames`.

    Per joint of the level: its parent and child link, and its origin
    rotation (k, 3, 3) and translation (k, 3, 1).  `moving` are the rows of
    the movable joints among them and `columns` their positions in
    `KinematicChain.movable`.
    """
    parents: np.ndarray
    children: np.ndarray
    origin_rotation: np.ndarray
    origin_translation: np.ndarray
    moving: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class WalkGroup:
    """The fingers of one walk shape, whose rows `kinematics.finger_walk`
    walks in one stack.

    `shape` tells of each joint from the root to the end effector whether
    it is the finger's own (True) or fixed (the same for every finger of
    the group).  Per step and finger: the joint's origin rotation
    (S, F, 3, 3) and translation (S, F, 3); per finger, the Rodrigues terms
    of its own joints (F, n, 9), and per own joint and finger its axis
    (n, F, 3).  A walk gathers its rows with `take` along the finger axis,
    and keeps what it gathered for each sequence of finger names in
    `gathers`.  The first joint's frame, the root frame (the identity at the
    origin) composed with the joint's origin, is a constant too:
    `first_rotation` (F, 3, 3) and `first_translation` (F, 3, 1), made by
    the stacked products the walk would make.  The IK constants that the
    chain builds with a walk of the group are each finger's `FingerSeeds`.
    """
    fingers: tuple[str, ...]
    shape: tuple[bool, ...]
    origin_rotation: np.ndarray
    origin_translation: np.ndarray
    first_rotation: np.ndarray
    first_translation: np.ndarray
    terms: tuple[np.ndarray, np.ndarray]
    axes: np.ndarray
    gathers: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class FingerSeeds:
    """A finger's IK constants, built with the chain by
    `kinematics.finger_seeds`: its own joints' columns in
    `KinematicChain.movable` (n,) and their limits, as arrays and as tuples
    of floats, and its seed walks, the walk at each posture an IK descent
    can start from without reading the seed angles.  `postures` (6, n) are
    the neutral posture and the five re-seed postures, in re-seed order.
    `tips` (6, 3) and `jacobians` (6, 3, n) come from one stacked walk of
    the finger's walk group, so each entry, a Jacobian's memory layout
    included, is what a walk of its posture alone gives.
    """
    columns: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lower_l: tuple[float, ...]
    upper_l: tuple[float, ...]
    postures: np.ndarray
    tips: np.ndarray
    jacobians: np.ndarray


@dataclass(frozen=True)
class FingerShapes:
    """The finger links that carry a capsule or a sphere, in `finger_links` order.

    Per row: its finger and link, the shape radius, the core length and half
    of it (0 for a sphere), and the collision origin's translation and local
    +Z axis (a capsule's core direction) in the link frame, (n, 3).
    """
    fingers: tuple[str, ...]
    links: np.ndarray
    radius: np.ndarray
    length: np.ndarray
    half_length: np.ndarray
    translation: np.ndarray
    axis: np.ndarray


@dataclass
class KinematicChain:
    """Immutable kinematic tree. Treat as read-only after construction.

    Every derived constant is built here, once: the FK levels, the finger
    shapes, the fingers' walk groups (`WalkGroup`) and each finger's IK
    constants, its seed walks included (`FingerSeeds`).  Only a walk
    group's `gathers` fill later, as walks ask for them; no result depends
    on what they hold.
    """

    links: tuple[LinkSpec, ...]
    joints: tuple[JointSpec, ...]
    root: int
    movable: tuple[int, ...]  # joint indices, tree order
    fingers: dict[str, Finger]
    # link -> its joints from the root, in link order; built by `_build_chain`
    path_to_link: dict[int, tuple[int, ...]] = field(compare=False, repr=False)
    # derived lookups and per-joint / per-link constants, excluded from equality
    link_index: dict[str, int] = field(default_factory=dict, compare=False, repr=False)
    finger_links: dict[str, tuple[int, ...]] = field(default_factory=dict, compare=False, repr=False)
    # per joint: origin rotation and translation
    origin_rotation: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)
    origin_translation: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)
    # unit axes of the movable joints stacked in `movable` order, shape (n, 3)
    movable_axes: np.ndarray = field(default=None, compare=False, repr=False)
    # joint limits in `movable` order, each shape (n,)
    lower: np.ndarray = field(default=None, compare=False, repr=False)
    upper: np.ndarray = field(default=None, compare=False, repr=False)
    # `rodrigues_terms(movable_axes)`: the angle-free factors of the
    # movable joints' rotations, each (n, 9)
    movable_rodrigues: tuple[np.ndarray, np.ndarray] = field(default=(), compare=False,
                                                             repr=False)
    # movable joint index -> its position in `movable`: its row of
    # `movable_axes` and its Jacobian column
    column_of: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    # the joints grouped by the depth of their child link, shallowest first,
    # so every parent link lies in an earlier level (or is the root)
    fk_levels: tuple[FkLevel, ...] = field(default=(), compare=False, repr=False)
    finger_shapes: FingerShapes = field(default=None, compare=False, repr=False)
    # finger name -> its walk group and its row in it
    finger_walks: dict[str, tuple[WalkGroup, int]] = field(default_factory=dict, compare=False,
                                                           repr=False)
    # finger name -> its IK constants: its limits and seed walks
    finger_seeds: dict[str, FingerSeeds] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.link_index = {l.name: i for i, l in enumerate(self.links)}
        for name, finger in self.fingers.items():
            members = [li for li, path in self.path_to_link.items() if finger.joints[0] in path]
            self.finger_links[name] = tuple(sorted(members, key=lambda li: len(self.path_to_link[li])))
        self.origin_rotation = tuple(_frozen(j.origin.rotation()) for j in self.joints)
        self.origin_translation = tuple(_frozen(j.origin.translation()) for j in self.joints)
        movable = [self.joints[ji] for ji in self.movable]
        self.movable_axes = _frozen(np.array([j.axis for j in movable], dtype=float).reshape(-1, 3))
        self.lower, self.upper = _frozen(np.array(
            [[j.lower_limit for j in movable], [j.upper_limit for j in movable]],
            dtype=float).reshape(2, -1))
        self.movable_rodrigues = tuple(_frozen(a) for a in rodrigues_terms(self.movable_axes))
        self.column_of = {ji: c for c, ji in enumerate(self.movable)}
        levels: dict[int, list[int]] = {}
        for ji, j in enumerate(self.joints):
            levels.setdefault(len(self.path_to_link[j.child]), []).append(ji)
        self.fk_levels = tuple(self._fk_level(levels[depth]) for depth in sorted(levels))
        self.finger_shapes = self._finger_shapes()
        shapes: dict[tuple[bool, ...], list[str]] = {}
        for name, finger in self.fingers.items():
            path = self.path_to_link[finger.end_effector]
            shapes.setdefault(tuple(ji in finger.joints for ji in path), []).append(name)
        # the seed walks are walks of the groups; `kinematics` imports this
        # module, so it is imported here
        from .kinematics import finger_seeds
        for shape, names in shapes.items():
            group = self._walk_group(shape, names)
            self.finger_walks.update((name, (group, row)) for row, name in enumerate(names))
            self.finger_seeds.update(finger_seeds(self, group))

    def _fk_level(self, level: list[int]) -> FkLevel:
        moving = [row for row, ji in enumerate(level) if ji in self.column_of]
        return FkLevel(
            parents=_frozen(np.array([self.joints[ji].parent for ji in level])),
            children=_frozen(np.array([self.joints[ji].child for ji in level])),
            origin_rotation=_frozen(np.array([self.origin_rotation[ji] for ji in level])),
            origin_translation=_frozen(
                np.array([self.origin_translation[ji] for ji in level])[:, :, None]),
            moving=_frozen(np.array(moving, dtype=int)),
            columns=_frozen(np.array([self.column_of[level[row]] for row in moving], dtype=int)))

    def _walk_group(self, shape: tuple[bool, ...], names: list[str]) -> WalkGroup:
        # per step of the walk, the joint of each finger
        steps = list(zip(*(self.path_to_link[self.fingers[f].end_effector] for f in names)))
        columns = np.array([[self.column_of[ji] for ji in self.fingers[f].joints] for f in names])
        origin_rotation = np.array([[self.origin_rotation[ji] for ji in js] for js in steps])
        origin_translation = np.array([[self.origin_translation[ji] for ji in js]
                                       for js in steps])
        root = np.array([np.eye(3)] * len(names))
        return WalkGroup(
            fingers=tuple(names), shape=shape,
            origin_rotation=_frozen(origin_rotation),
            origin_translation=_frozen(origin_translation),
            first_rotation=_frozen(root @ origin_rotation[0]),
            first_translation=_frozen(root @ origin_translation[0][..., None]
                                      + np.zeros((len(names), 3, 1))),
            terms=tuple(_frozen(a.take(columns, 0)) for a in self.movable_rodrigues),
            axes=_frozen(self.movable_axes.take(columns.T, 0)))

    def _finger_shapes(self) -> FingerShapes:
        rows = [(name, li) for name, members in self.finger_links.items() for li in members
                if self.links[li].geometry is not None]
        for _, li in rows:
            if isinstance(self.links[li].geometry, BoxGeometry):
                raise ValidationError(f"finger link {self.links[li].name!r}: box collision "
                                      f"geometry is not supported, only a capsule or a sphere")
        specs = [self.links[li] for _, li in rows]
        length = np.array([l.geometry.length if isinstance(l.geometry, CapsuleGeometry) else 0.0
                           for l in specs])
        radius = np.array([l.geometry.radius for l in specs])
        return FingerShapes(
            fingers=tuple(name for name, _ in rows),
            links=_frozen(np.array([li for _, li in rows], dtype=int)),
            radius=_frozen(radius),
            length=_frozen(length),
            half_length=_frozen(0.5 * length),
            translation=_frozen(np.array([l.geometry_origin.translation() for l in specs],
                                         dtype=float).reshape(-1, 3)),
            axis=_frozen(np.array([l.geometry_origin.rotation()[:, 2] for l in specs],
                                  dtype=float).reshape(-1, 3)))

    def finger(self, name: str) -> Finger:
        try:
            return self.fingers[name]
        except KeyError:
            raise UnknownFingerError(name) from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# --------------------------------------------------------------------------
# parsing


def _parse_float(text: Optional[str], what: str) -> float:
    """One finite number from attribute text."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        pass
    else:
        if math.isfinite(value):
            return value
    raise RobotDescriptionError(f"{what}: expected a finite number, got {text!r}")


def _parse_vec3(text: Optional[str], default=(0.0, 0.0, 0.0), what: str = "vector") -> tuple[float, float, float]:
    if text is None:
        return tuple(float(v) for v in default)
    parts = text.split()
    if len(parts) != 3:
        raise RobotDescriptionError(f"{what}: expected 3 numbers, got {text!r}")
    return tuple(_parse_float(p, what) for p in parts)


def _parse_origin(elem: Optional[ET.Element], where: str) -> Transform:
    if elem is None:
        return Transform()
    xyz = _parse_vec3(elem.get("xyz"), what=f"{where} origin xyz")
    rpy = _parse_vec3(elem.get("rpy"), what=f"{where} origin rpy")
    return Transform(xyz=xyz, rpy=rpy)


def _parse_geometry(geom: ET.Element, where: str) -> Geometry:
    shapes = [c for c in geom]
    if len(shapes) != 1:
        raise RobotDescriptionError(f"{where}: geometry must hold exactly one shape")
    shape = shapes[0]
    if shape.tag == "box":
        size = _parse_vec3(shape.get("size"), what=f"{where} box size")
        if any(s <= 0.0 for s in size):
            raise RobotDescriptionError(f"{where}: box size must be positive, got {size}")
        return BoxGeometry(half_extents=tuple(s / 2.0 for s in size))
    if shape.tag == "sphere":
        radius = _parse_float(shape.get("radius"), f"{where} sphere radius")
        if not radius > 0.0:
            raise RobotDescriptionError(f"{where}: sphere radius must be positive")
        return SphereGeometry(radius=radius)
    if shape.tag == "capsule":
        radius = _parse_float(shape.get("radius"), f"{where} capsule radius")
        length = _parse_float(shape.get("length"), f"{where} capsule length")
        if not radius > 0.0 or not length >= 0.0:
            raise RobotDescriptionError(f"{where}: capsule needs radius > 0 and length >= 0")
        return CapsuleGeometry(radius=radius, length=length)
    raise RobotDescriptionError(f"{where}: unsupported geometry <{shape.tag}>")


_IGNORED_LINK_CHILDREN = {"visual", "inertial", "contact"}
_IGNORED_JOINT_CHILDREN = {"calibration", "dynamics", "safety_controller"}
_JOINT_CHILDREN = {"parent", "child", "origin", "axis", "limit"} | _IGNORED_JOINT_CHILDREN


def parse_robot_description(text: str) -> KinematicChain:
    """Parse URDF-subset XML text into a KinematicChain.

    Raises RobotDescriptionError for malformed text and ValidationError for
    well-formed text that breaks a structural invariant (cycles, multiple
    roots, missing revolute limits, bad finger layout, a finger below
    another finger's movable joint, a box on a finger link).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise RobotDescriptionError(f"XML parse failure at line {exc.position[0]}: {exc.msg}") from None
    if root.tag != "robot":
        raise RobotDescriptionError(f"top-level element must be <robot>, got <{root.tag}>")

    links: list[LinkSpec] = []
    link_idx: dict[str, int] = {}
    joint_elems: list[ET.Element] = []
    for child in root:
        if child.tag == "link":
            name = child.get("name")
            if not name:
                raise RobotDescriptionError("<link> missing name attribute")
            if name in link_idx:
                raise RobotDescriptionError(f"duplicate link name {name!r}")
            geometry = None
            geometry_origin = Transform()
            collision = child.find("collision")
            if collision is not None:
                geom = collision.find("geometry")
                if geom is None:
                    raise RobotDescriptionError(f"link {name!r}: <collision> without <geometry>")
                geometry = _parse_geometry(geom, f"link {name!r}")
                geometry_origin = _parse_origin(collision.find("origin"), f"link {name!r} collision")
            for sub in child:
                if sub.tag not in _IGNORED_LINK_CHILDREN and sub.tag != "collision":
                    raise RobotDescriptionError(f"link {name!r}: unsupported element <{sub.tag}>")
            link_idx[name] = len(links)
            links.append(LinkSpec(name=name, geometry=geometry, geometry_origin=geometry_origin))
        elif child.tag == "joint":
            joint_elems.append(child)
        elif child.tag in ("material", "gazebo"):
            continue
        else:
            raise RobotDescriptionError(f"unsupported top-level element <{child.tag}>")

    joints: list[JointSpec] = []
    joint_names: set[str] = set()
    for elem in joint_elems:
        name = elem.get("name")
        kind = elem.get("type")
        if not name:
            raise RobotDescriptionError("<joint> missing name attribute")
        if name in joint_names:
            raise RobotDescriptionError(f"duplicate joint name {name!r}")
        joint_names.add(name)
        if kind not in ("revolute", "fixed"):
            raise RobotDescriptionError(f"joint {name!r}: unsupported type {kind!r}")
        for sub in elem:
            if sub.tag not in _JOINT_CHILDREN:
                raise RobotDescriptionError(f"joint {name!r}: unsupported element <{sub.tag}>")
        parent_el = elem.find("parent")
        child_el = elem.find("child")
        if parent_el is None or child_el is None:
            raise RobotDescriptionError(f"joint {name!r}: needs <parent> and <child>")
        try:
            parent = link_idx[parent_el.get("link")]
            child_link = link_idx[child_el.get("link")]
        except KeyError as exc:
            raise RobotDescriptionError(f"joint {name!r}: unknown link {exc.args[0]!r}") from None
        origin = _parse_origin(elem.find("origin"), f"joint {name!r}")
        if kind == "fixed":
            joints.append(JointSpec(name=name, kind=kind, parent=parent, child=child_link,
                                    origin=origin))
            continue
        axis_el = elem.find("axis")
        axis = np.array(_parse_vec3(axis_el.get("xyz") if axis_el is not None else None,
                                    default=(0.0, 0.0, 1.0), what=f"joint {name!r} axis"))
        norm = float(np.linalg.norm(axis))
        if norm < 1e-9:
            raise RobotDescriptionError(f"joint {name!r}: axis must be nonzero")
        axis = axis / norm
        limit_el = elem.find("limit")
        if limit_el is None or limit_el.get("lower") is None or limit_el.get("upper") is None:
            raise ValidationError(f"revolute joint {name!r} is missing lower/upper limits")
        lower = _parse_float(limit_el.get("lower"), f"joint {name!r} lower limit")
        upper = _parse_float(limit_el.get("upper"), f"joint {name!r} upper limit")
        if lower > upper:
            raise ValidationError(f"joint {name!r}: lower limit exceeds upper limit")
        joints.append(JointSpec(name=name, kind=kind, parent=parent, child=child_link,
                                origin=origin, axis=tuple(float(a) for a in axis),
                                lower_limit=lower, upper_limit=upper))

    return _build_chain(tuple(links), tuple(joints))


def _build_chain(links: tuple[LinkSpec, ...], joints: tuple[JointSpec, ...]) -> KinematicChain:
    if not links:
        raise ValidationError("description has no links")
    parent_of: dict[int, int] = {}
    for ji, j in enumerate(joints):
        if j.child in parent_of:
            raise ValidationError(f"link {links[j.child].name!r} has multiple parent joints")
        parent_of[j.child] = ji
    roots = [li for li in range(len(links)) if li not in parent_of]
    if len(roots) != 1:
        names = [links[li].name for li in roots]
        raise ValidationError(f"expected a single root link, found {names or 'none (cycle)'}")
    root = roots[0]
    # with one root and one parent joint per other link, a walk up either
    # reaches a link whose path is known or revisits a link
    path_to_link: dict[int, tuple[int, ...]] = {root: ()}
    for li in range(len(links)):
        walk = []
        cur = li
        while cur not in path_to_link:
            if cur in walk:
                raise ValidationError(f"cycle detected at link {links[cur].name!r}")
            walk.append(cur)
            cur = joints[parent_of[cur]].parent
        for link in reversed(walk):
            path_to_link[link] = path_to_link[cur] + (parent_of[link],)
            cur = link
    path_to_link = dict(sorted(path_to_link.items()))  # in link order

    movable = tuple(ji for ji, j in enumerate(joints) if j.kind == "revolute")
    groups: dict[str, list[int]] = {}
    for ji in movable:
        groups.setdefault(joints[ji].name.split("_", 1)[0], []).append(ji)

    finger_of = {ji: name for name, members in groups.items() for ji in members}
    fingers: dict[str, Finger] = {}
    for name, members in groups.items():
        # base to tip: by the number of joints above each one, fixed included
        members.sort(key=lambda ji: len(path_to_link[joints[ji].parent]))
        # consecutive joints must chain: each one's parent link lies below
        # the previous one through fixed joints only
        for a, b in zip(members, members[1:]):
            above = path_to_link[joints[b].parent]
            if a not in above or any(joints[ji].kind != "fixed"
                                     for ji in above[above.index(a) + 1:]):
                raise ValidationError(f"finger {name!r}: joints do not form a single serial chain")
        # end effector: the leaf of the links below the last joint, which
        # must form a path, one link per depth
        tail = [li for li, path in path_to_link.items() if members[-1] in path]
        by_depth = {len(path_to_link[li]): li for li in tail}
        if len(by_depth) < len(tail):
            raise ValidationError(f"finger {name!r}: branches below its last joint")
        end_effector = by_depth[max(by_depth)]
        # every movable joint above the tip is the finger's own: the hand IK
        # moves one finger's joints alone, and a link's shape belongs to one finger
        for ji in path_to_link[end_effector]:
            if finger_of.get(ji, name) != name:
                raise ValidationError(
                    f"finger {name!r}: its path from the root passes joint {joints[ji].name!r} "
                    f"of finger {finger_of[ji]!r}; each finger must hang off the root through "
                    f"fixed joints and its own joints only")
        fingers[name] = Finger(joints=tuple(members), end_effector=end_effector)

    if "thumb" in fingers:
        if len(fingers["thumb"].joints) != THUMB_DOF:
            raise ValidationError(
                f"thumb must have {THUMB_DOF} movable joints, found {len(fingers['thumb'].joints)}")
        for name in fingers:
            if name != "thumb" and len(fingers[name].joints) != OTHER_FINGER_DOF:
                raise ValidationError(
                    f"finger {name!r} must have {OTHER_FINGER_DOF} movable joints, "
                    f"found {len(fingers[name].joints)}")

    return KinematicChain(links=links, joints=joints, root=root, movable=movable, fingers=fingers,
                          path_to_link=path_to_link)


def load_robot_description(path: str) -> KinematicChain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_robot_description(fh.read())


def bundled_data_dir() -> str:
    """Directory holding packaged assets; override with GRASPFORGE_DATA_DIR."""
    override = os.environ.get("GRASPFORGE_DATA_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def bundled_hand_path() -> str:
    return os.path.join(bundled_data_dir(), "hand.urdf")
