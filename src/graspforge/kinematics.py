"""Forward kinematics and Jacobians over a parsed kinematic chain.

All poses are expressed in the chain's root-link frame unless a caller
composes in a base transform.  Positions are meters, orientations unit
quaternions (x, y, z, w).

The joint origins, axes and Jacobian columns are constants of the chain,
computed once when it is built.  `link_frames` gives every link's frame in
one pass over the tree (parent-first), with the rotations of all movable
joints in one vectorized Rodrigues evaluation; callers that need many links
per control step (contact detection, the controller's fingertip log) use it
once.  `link_transform` and `jacobian` walk a single link's path from the
root.  Every route composes R = R_parent @ R_origin, t = R_parent @ t_origin
+ t_parent, then R @ R_joint, in that order, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .robot_model import KinematicChain
from .transforms import axis_angle_matrix, compose_rt, matrix_to_quat, quat_to_matrix, rpy_matrix


class KinematicsError(ValueError):
    """Unknown link or a joint value missing from the state."""


@dataclass(frozen=True)
class Pose:
    """Position + orientation quaternion (x, y, z, w)."""

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        q = np.asarray(self.orientation, dtype=float).reshape(4)
        n = np.linalg.norm(q)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"orientation quaternion must be unit norm, got |q| = {n}")
        object.__setattr__(self, "orientation", q)

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return (np.array_equal(self.position, other.position)
                and np.array_equal(self.orientation, other.orientation))

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    @classmethod
    def from_rpy(cls, position, rpy=(0.0, 0.0, 0.0)) -> "Pose":
        return cls(position=np.asarray(position, dtype=float),
                   orientation=matrix_to_quat(rpy_matrix(*rpy)))


@dataclass
class JointState:
    """Joint angles in radians keyed by joint index into chain.joints."""

    values: dict[int, float]

    def copy(self) -> "JointState":
        return JointState(values=dict(self.values))

    def get(self, joint: int) -> float:
        try:
            return self.values[joint]
        except KeyError:
            raise KinematicsError(f"state has no value for joint index {joint}") from None


def zero_state(chain: KinematicChain) -> JointState:
    return JointState(values={ji: 0.0 for ji in chain.movable})


def neutral_state(chain: KinematicChain) -> JointState:
    """All-zero angles clamped into limits: the controller's start posture."""
    return clamp_to_limits(chain, zero_state(chain))


def mid_range_state(chain: KinematicChain) -> JointState:
    return JointState(values={
        ji: 0.5 * (chain.joints[ji].lower_limit + chain.joints[ji].upper_limit)
        for ji in chain.movable})


def clamp_to_limits(chain: KinematicChain, state: JointState) -> JointState:
    """Clamp every provided joint value into its [lower, upper] range."""
    clamped = {}
    for ji, value in state.values.items():
        j = chain.joints[ji]
        clamped[ji] = min(max(value, j.lower_limit), j.upper_limit)
    return JointState(values=clamped)


def within_limits(chain: KinematicChain, state: JointState, tol: float = 0.0) -> bool:
    return all(chain.joints[ji].lower_limit - tol <= v <= chain.joints[ji].upper_limit + tol
               for ji, v in state.values.items())


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


def link_transform(chain: KinematicChain, state: JointState, link) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of `link` in the root frame, walked from the root."""
    li = _resolve_link(chain, link)
    R = np.eye(3)
    t = np.zeros(3)
    for ji in chain.path_to_link[li]:
        R, t = compose_rt(R, t, chain.origin_rotation[ji], chain.origin_translation[ji])
        col = chain.column_of.get(ji)
        if col is not None:
            R = R @ axis_angle_matrix(chain.movable_axes[col], state.get(ji))
    return R, t


def _joint_rotations(chain: KinematicChain, state: JointState) -> np.ndarray:
    """Rodrigues rotation of every movable joint, shape (n, 3, 3), `movable` order.

    Element for element the same arithmetic as `axis_angle_matrix`, so each
    slice equals that function's result bit for bit.
    """
    angle = np.array([state.get(ji) for ji in chain.movable], dtype=float)
    x, y, z = chain.movable_axes.T
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    rot = np.empty((len(angle), 3, 3))
    rot[:, 0, 0] = c + x * x * C
    rot[:, 0, 1] = x * y * C - z * s
    rot[:, 0, 2] = x * z * C + y * s
    rot[:, 1, 0] = y * x * C + z * s
    rot[:, 1, 1] = c + y * y * C
    rot[:, 1, 2] = y * z * C - x * s
    rot[:, 2, 0] = z * x * C - y * s
    rot[:, 2, 1] = z * y * C + x * s
    rot[:, 2, 2] = c + z * z * C
    return rot


def link_frames(chain: KinematicChain, state: JointState) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rotation, translation) of every link in the root frame, indexed by link.

    One pass over the joints in parent-first order.  Each joint composes its
    parent link's frame exactly as `link_transform` does along its walk, so
    every frame is bit-for-bit the one `link_transform` returns.
    """
    rot = _joint_rotations(chain, state)
    frames: list = [None] * len(chain.links)
    frames[chain.root] = (np.eye(3), np.zeros(3))
    for ji in chain.joint_order:
        j = chain.joints[ji]
        Rp, tp = frames[j.parent]
        R, t = compose_rt(Rp, tp, chain.origin_rotation[ji], chain.origin_translation[ji])
        col = chain.column_of.get(ji)
        if col is not None:
            R = R @ rot[col]
        frames[j.child] = (R, t)
    return frames


def forward_kinematics(chain: KinematicChain, state: JointState, link) -> Pose:
    """Pose of `link` (name or index) in the root frame."""
    R, t = link_transform(chain, state, link)
    return Pose(position=t, orientation=matrix_to_quat(R))


def jacobian(chain: KinematicChain, state: JointState, link) -> np.ndarray:
    """Positional Jacobian of `link`'s origin, shape (3, len(chain.movable)).

    Column for movable joint j is axis_j x (p_link - p_joint_j) when j lies
    on the path to the link, zero otherwise.
    """
    li = _resolve_link(chain, link)
    J = np.zeros((3, len(chain.movable)))
    R = np.eye(3)
    t = np.zeros(3)
    cols, axes, origins = [], [], []  # per revolute joint on the path
    for ji in chain.path_to_link[li]:
        R, t = compose_rt(R, t, chain.origin_rotation[ji], chain.origin_translation[ji])
        col = chain.column_of.get(ji)
        if col is not None:
            axis = chain.movable_axes[col]
            cols.append(col)
            axes.append(R @ axis)
            origins.append(t)
            R = R @ axis_angle_matrix(axis, state.get(ji))
    if cols:
        J[:, cols] = np.cross(np.array(axes), t - np.array(origins)).T
    return J
