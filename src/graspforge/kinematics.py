"""Forward kinematics and Jacobians over a parsed kinematic chain.

All poses are expressed in the chain's root-link frame unless a caller
composes in a base transform.  Positions are meters, rotations 3x3
matrices.

The joint origins, axes and Jacobian columns are constants of the chain,
computed once when it is built, as are the joints grouped by tree depth
(`chain.fk_levels`), the angle-free factors of the movable joints'
rotations (`chain.movable_rodrigues`) and the fingers' walk groups
(`chain.finger_walks`).  A `Pose` keeps one read-only rotation matrix,
checked when it is made.  Two routes compute frames:

- `_stacked_frames` gives every link's frame for each of T joint-angle rows
  as stacked arrays, rotations (T, L, 3, 3) and translations (T, L, 3),
  composing one tree depth per batch with stacked `matmul`, with the
  rotations of all movable joints of all rows from one vectorized Rodrigues
  evaluation.  The controller calls it on its angle rows; `link_frames` is
  its one-row call, and `link_transform` and `jacobian` read their link's
  frames from it.
- `finger_walk` serves the IK: for G rows of fingers of one walk group
  (fingers with the same kinds of joints from the root to the tip: their
  own or fixed, as the chain admits no other finger's joint there), it
  gathers the group's constants for the rows (once per sequence of finger
  names); each call makes one stacked walk from the root to the
  fingertips, with the rotations of all the rows' own joints from one
  vectorized Rodrigues evaluation, and gives the fingertips (G, 3) and,
  when asked, their Jacobians (G, 3, n).  A walk reads only its rows' own
  angles.
  `finger_seeds` makes, with the chain, the walks of every finger at the
  postures an IK descent starts from without reading its seed: neutral
  and the five re-seeds.

Both make the compose sequence R = R_parent @ R_origin, t = R_parent @
t_origin + t_parent, then R @ R_joint for a movable joint:
`_stacked_frames` per level, `finger_walk` per joint on (G, 3, 3) and
(G, 3, 1) stacks, from its first joint's frame, which the chain composes
once from the identity root by the same products.  A stacked `matmul`
rounds each slice exactly as the 2-D product does, whatever the number of
rows, so both routes agree bit for bit with a per-joint walk of 2-D
products, which tests/reference.py keeps as their oracle.  Every joint
rotation comes from the vectorized Rodrigues (`_rodrigues`); it and the
cross products repeat the arithmetic of the one-axis Rodrigues formula
(its oracle in tests/reference.py) and of `np.cross` entry for entry.  A
Jacobian, alone or as a row of a stack, keeps the memory layout of a
column selection of `jacobian`'s result (the transpose of a C-ordered
(n, 3) array, which `take` gives the cross products): products such as
J @ J.T and J.T @ x take another route on another layout, and round
differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .robot_model import FingerSeeds, KinematicChain, WalkGroup, _frozen
from .transforms import rpy_matrix


# The cyclic shifts of a cross product's components (`take` keeps rows
# C-ordered).
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])
# the identity, read-only
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


class KinematicsError(ValueError):
    """Unknown link, a joint value missing from the state, or a bad IK input."""


@dataclass(frozen=True)
class Pose:
    """Position + rotation matrix (3x3, orthonormal with det +1, read-only)."""

    position: np.ndarray
    rotation_matrix: np.ndarray = field(default_factory=lambda: _EYE3)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        R = np.array(self.rotation_matrix, dtype=float)
        if R.shape != (3, 3) or not np.isfinite(R).all():
            raise ValueError(f"rotation must be a finite 3x3 matrix, got {R.tolist()}")
        # orthonormal with det +1; NaN fails too
        if not (np.abs(R.T @ R - _EYE3).max() <= 1e-9 and abs(np.linalg.det(R) - 1.0) <= 1e-9):
            raise ValueError(f"rotation must be orthonormal with det +1, got {R.tolist()}")
        R.setflags(write=False)
        object.__setattr__(self, "rotation_matrix", R)

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return (np.array_equal(self.position, other.position)
                and np.array_equal(self.rotation_matrix, other.rotation_matrix))

    def rotation(self) -> np.ndarray:
        """The rotation matrix, made once per pose (read-only)."""
        return self.rotation_matrix

    @classmethod
    def from_rpy(cls, position, rpy=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(position=position, rotation_matrix=rpy_matrix(*rpy))


def _target_position(target) -> np.ndarray:
    """The position of a `Pose` target, or a bare 3-vector as a float array."""
    if isinstance(target, Pose):
        return target.position
    return np.asarray(target, dtype=float).reshape(3)


@dataclass
class JointState:
    """Joint angles in radians keyed by joint index into chain.joints, the
    public format; inside the package angles are arrays in `chain.movable` order."""

    values: dict[int, float]

    def copy(self) -> "JointState":
        return JointState(values=dict(self.values))

    def get(self, joint: int) -> float:
        try:
            return self.values[joint]
        except KeyError:
            raise KinematicsError(f"state has no value for joint index {joint}") from None


def clamp_to_limits(chain: KinematicChain, state: JointState) -> JointState:
    """Clamp every provided joint value into its [lower, upper] range."""
    clamped = {}
    for ji, value in state.values.items():
        j = chain.joints[ji]
        clamped[ji] = min(max(value, j.lower_limit), j.upper_limit)
    return JointState(values=clamped)


def _clamp(q: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """`clamp_to_limits`'s min(max(q, lower), upper) per entry, bit for bit: a
    value at a limit is kept (-0.0 at a 0.0 limit stays -0.0), NaN stays NaN."""
    q = np.where(lower > q, lower, q)
    return np.where(upper < q, upper, q)


def _angles(chain: KinematicChain, state: JointState) -> np.ndarray:
    """The angles of `state` as a float array in `chain.movable` order."""
    return np.array([state.get(ji) for ji in chain.movable], dtype=float)


def _joint_state(chain: KinematicChain, q: np.ndarray) -> JointState:
    """The JointState of angles `q` in `chain.movable` order."""
    return JointState(values=dict(zip(chain.movable, q.tolist())))


def _neutral(chain: KinematicChain) -> np.ndarray:
    """All-zero angles clamped into limits: the controller's start posture."""
    return _clamp(np.zeros(len(chain.movable)), chain.lower, chain.upper)


def neutral_state(chain: KinematicChain) -> JointState:
    """The JointState of the neutral posture (`_neutral`)."""
    return _joint_state(chain, _neutral(chain))


def within_limits(chain: KinematicChain, state: JointState, tol: float = 0.0) -> bool:
    """Every movable joint's angle lies within its limits widened by `tol`."""
    q = _angles(chain, state)
    return bool(np.all((chain.lower - tol <= q) & (q <= chain.upper + tol)))


# --------------------------------------------------------------------------
# pose walks


def _resolve_link(chain: KinematicChain, link) -> int:
    if isinstance(link, str):
        try:
            return chain.link_index[link]
        except KeyError:
            raise KinematicsError(f"unknown link {link!r}") from None
    li = int(link)
    if not 0 <= li < len(chain.links):
        raise KinematicsError(f"link index {li} out of range")
    return li


def _jacobian_columns(axes: list, origins: list, p: np.ndarray) -> np.ndarray:
    """Columns axis x (p - origin), shape (3, k).

    The cross product is `np.cross`'s arithmetic (a1 b2 - a2 b1, and so on)
    without its per-call set-up.  The result is the transpose of a C-ordered
    (k, 3) array, the layout a column selection `jacobian(...)[:, cols]` has
    too: J @ J.T takes another BLAS route for a C-ordered J, and rounds
    differently.
    """
    a = np.array(axes)
    b = p - np.array(origins)
    return (a.take(_NEXT, 1) * b.take(_PREV, 1) - a.take(_PREV, 1) * b.take(_NEXT, 1)).T


def _rodrigues(terms: tuple[np.ndarray, np.ndarray], angle: np.ndarray) -> np.ndarray:
    """Rotation about each axis of `terms` (`rodrigues_terms`, n axes) by its
    angle, for angles of shape (..., n): shape (..., n, 3, 3).

    Entry for entry the arithmetic of the one-axis formula (its oracle in
    tests/reference.py): c + xx C on the diagonal (the skew
    term there is a zero, which cannot change a sum that is >= +0) and
    xy C - z s off it (as xy C + (-z) s, the same IEEE operation), so each
    slice equals that function's result bit for bit.
    The terms broadcast over the leading axes of `angle`.
    """
    products, skew = terms
    c, s = np.cos(angle)[..., None], np.sin(angle)[..., None]
    rot = products * (1.0 - c) + skew * s
    rot[..., ::4] += c
    return rot.reshape(*angle.shape, 3, 3)


def _stacked_frames(chain: KinematicChain, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (T, L, 3, 3) and translations (T, L, 3) of every link in the
    root frame, one row per row of `angles` (T, n), angles in `chain.movable` order.

    One batch per tree depth (`chain.fk_levels`), shallowest first, so each
    level reads its parent frames from the levels before it.  A batch makes
    the compose sequence with stacked `matmul`, which rounds each slice
    exactly as a 2-D `@` does: R_parent @ R_origin, R_parent @ t_origin +
    t_parent, then R @ R_joint for the movable joints only (a fixed joint
    makes no rotation product).  So every frame of every row is bit for bit
    the one a per-joint walk of 2-D products gives.
    """
    rot = _rodrigues(chain.movable_rodrigues, angles)
    R = np.empty((len(angles), len(chain.links), 3, 3))
    t = np.empty((len(angles), len(chain.links), 3))
    R[:, chain.root] = np.eye(3)
    t[:, chain.root] = 0.0
    # `take` along the link axis: a fancy index after a slice costs more
    for level in chain.fk_levels:
        R_parent = R.take(level.parents, axis=1)
        R_joint = R_parent @ level.origin_rotation
        t[:, level.children] = ((R_parent @ level.origin_translation)[..., 0]
                                + t.take(level.parents, axis=1))
        moving = R_joint.take(level.moving, axis=1)
        R_joint[:, level.moving] = moving @ rot.take(level.columns, axis=1)
        R[:, level.children] = R_joint
    return R, t


def link_frames(chain: KinematicChain, state: JointState) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (L, 3, 3) and translations (L, 3) of every link in the root
    frame: the one-row call of `_stacked_frames`."""
    R, t = _stacked_frames(chain, _angles(chain, state)[None])
    return R[0], t[0]


def link_transform(chain: KinematicChain, state: JointState, link) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of `link` in the root frame: its row of `link_frames`."""
    li = _resolve_link(chain, link)
    R, t = link_frames(chain, state)
    return R[li], t[li]


def _stack(arrays: list) -> np.ndarray:
    """The arrays stacked on a new first axis; one array is only viewed so.

    `np.array` stacks a short list of small arrays several times faster than
    `np.stack`, and gives the same C-ordered copy."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


# An IK descent re-seeds a finger at these fractions of its joints' ranges,
# in turn (escapes fold minima)
_RESTART_FRACTIONS = (0.25, 0.75, 0.1, 0.9, 0.5)
# the gathers a walk group keeps; a walk past this many starts afresh.  A
# one-finger solve uses at most 5 per finger, one per count of its live rows
# (its start's 1, then its five re-seeds' 5 down to 1): the `ik_reach`
# benchmark uses 25 over the bundled hand's two groups, and the bundled
# grasp's two hand solves 10
_GATHERS = 64


def finger_walk(chain: KinematicChain, fingers):
    """End-effector positions and Jacobians of G rows of fingers of one walk
    group (`chain.finger_walks`), as a function of the rows' own angles.

    `fingers` names the finger of each row; a finger may fill several rows.
    Every other joint on a finger's path is fixed, so no other angle is
    read.  The walk constants are the group's, built with the chain, and
    gathered for the rows once per sequence of names (`WalkGroup.gathers`).
    The returned `walk(q)` takes the rows' angles, shape (G, n) with each
    row base to tip, and makes one stacked walk from the root: a stacked
    `matmul` per joint, with all rotations from one vectorized Rodrigues
    evaluation.  It returns the positions (G, 3) and a `jacobian()` that
    gives the Jacobians over the fingers' joints (G, 3, n) from the same
    walk, so a caller that reads no Jacobian (a rejected damping trial)
    makes none.  Each row is bit for bit what `link_transform` and
    `jacobian(...)[:, cols]` give for the same angles.  A Jacobian row keeps
    the memory layout of that column selection (the transpose of a
    C-ordered (n, 3) array), so that J @ J.T and J.T @ x round the same way.
    """
    fingers = tuple(fingers)
    group = chain.finger_walks[fingers[0]][0]
    gathered = group.gathers.get(fingers)
    if gathered is None:
        if len(group.gathers) >= _GATHERS:
            group.gathers.clear()
        gathered = group.gathers[fingers] = _gather(
            group, [chain.finger_walks[f][1] for f in fingers])
    return _group_walk(group, gathered)


def _gather(group: WalkGroup, rows) -> tuple:
    """Walk group `group`'s walk constants gathered for its rows `rows`."""
    # per step, (G, 3, 3) rotations and (G, 3, 1) positions, the shape
    # R @ t_origin takes
    origin_rotation = list(group.origin_rotation.take(rows, 1))
    origin_translation = list(group.origin_translation.take(rows, 1)[..., None])
    terms = tuple(a.take(rows, 0) for a in group.terms)
    # the joints' axes, (n, G, 3, 1), as the stacked joint frames take them
    axes = group.axes.take(rows, 1)[..., None]
    first = group.first_rotation.take(rows, 0), group.first_translation.take(rows, 0)
    return origin_rotation, origin_translation, terms, axes, first


def _group_walk(group: WalkGroup, gathered: tuple):
    """`finger_walk` of walk group `group`'s rows whose constants are
    `gathered` (`_gather`)."""
    origin_rotation, origin_translation, terms, axes, first = gathered
    shape = group.shape
    last = len(shape) - 1

    def walk(q: np.ndarray):
        rotations = _rodrigues(terms, q)
        R, t = first
        frames, origins = [], []
        for s, own in enumerate(shape):
            # the compose sequence, the first joint's made with the chain;
            # the last joint's child rotation is not needed
            if s:
                t = R @ origin_translation[s] + t
                if own or s < last:
                    R = R @ origin_rotation[s]
            if own:
                frames.append(R)
                origins.append(t)
                if s < last:
                    R = R @ rotations[:, len(frames) - 1]

        def jacobian() -> np.ndarray:
            # the cross products axis x (p - origin) of `_jacobian_columns`,
            # (G, n, 3): `take` gathers C-ordered copies of the (n, G, 3) stacks
            a = (np.array(frames) @ axes)[..., 0].transpose(1, 0, 2)
            b = (t - np.array(origins))[..., 0].transpose(1, 0, 2)
            J = a.take(_NEXT, 2) * b.take(_PREV, 2) - a.take(_PREV, 2) * b.take(_NEXT, 2)
            return J.transpose(0, 2, 1)

        return t[..., 0], jacobian

    return walk


def finger_seeds(chain: KinematicChain, group: WalkGroup) -> dict[str, FingerSeeds]:
    """The IK constants of walk group `group`'s fingers, for the chain to
    keep (`FingerSeeds`): each finger's columns and limits, and its
    posture, fingertip and Jacobian at the neutral posture and at each
    re-seed posture, restart 1 to 5 (fraction `_RESTART_FRACTIONS[r % 5]`
    of each joint's range from its lower limit).

    The postures are the values an IK solve computes for them, and one
    stacked walk of the group at all of them gives the tips and Jacobians,
    so each entry equals the walk of its posture alone, bit for bit.
    """
    neutral = _neutral(chain)
    columns = _frozen(np.array([[chain.column_of[ji] for ji in chain.fingers[f].joints]
                                for f in group.fingers]))
    lower, upper = _frozen(chain.lower.take(columns, 0)), _frozen(chain.upper.take(columns, 0))
    fractions = np.array([_RESTART_FRACTIONS[r % len(_RESTART_FRACTIONS)]
                          for r in range(1, len(_RESTART_FRACTIONS) + 1)])[:, None]
    postures = _frozen(np.concatenate(
        [neutral.take(columns)[:, None], lower[:, None] + fractions * (upper - lower)[:, None]],
        axis=1))
    F, k, n = postures.shape
    p, jacobian = _group_walk(group, _gather(group, np.repeat(np.arange(F), k)))(
        postures.reshape(F * k, n))
    tips = _frozen(p.reshape(F, k, 3))
    # split the rows of the C-ordered (G, n, 3) cross products, so that every
    # entry keeps the strides of a one-row walk's Jacobian, size-1 axes too
    J = _frozen(jacobian().transpose(0, 2, 1).reshape(F, k, n, 3).transpose(0, 1, 3, 2))
    return {name: FingerSeeds(
        columns=columns[row], lower=lower[row], upper=upper[row],
        lower_l=tuple(lower[row].tolist()), upper_l=tuple(upper[row].tolist()),
        postures=postures[row], tips=tips[row], jacobians=J[row])
        for row, name in enumerate(group.fingers)}


def jacobian(chain: KinematicChain, state: JointState, link) -> np.ndarray:
    """Positional Jacobian of `link`'s origin, shape (3, len(chain.movable)).

    Column for movable joint j is axis_j x (p_link - p_joint_j) when j lies
    on the path to the link, zero otherwise.
    """
    li = _resolve_link(chain, link)
    R, t = link_frames(chain, state)
    joints = [ji for ji in chain.path_to_link[li] if ji in chain.column_of]
    J = np.zeros((3, len(chain.movable)))
    if joints:
        # a joint's world axis is (R_parent @ R_origin) @ axis, the frame
        # the tree pass forms first; its origin is its child link's
        axes = [R[chain.joints[ji].parent] @ chain.origin_rotation[ji]
                @ chain.movable_axes[chain.column_of[ji]] for ji in joints]
        origins = [t[chain.joints[ji].child] for ji in joints]
        J[:, [chain.column_of[ji] for ji in joints]] = _jacobian_columns(axes, origins, t[li])
    return J
