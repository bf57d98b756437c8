"""Analytic contact detection between finger geometry and the box object.

Finger links carry sphere or capsule collision shapes; the object is an
oriented box.  Each (finger link, box) pair contributes at most one contact:
the deepest penetrating point of the link surface.  Forces follow the
quasi-static spring law F = k * depth with the object's contact stiffness.

Narrow phase, all in the box frame:
  * A shape whose bounding sphere cannot reach the box's bounding sphere,
    |center - box center| > length/2 + radius + |half extents|, is skipped.
    The test is exact: such a shape cannot touch the box.
  * A sphere's deepest point is its center.  A capsule's is the point of
    its core segment with the smallest box signed distance, found in closed
    form (Ericson, Real-Time Collision Detection, 2005, ch. 5).  Along the
    segment p(t) = a + t d, t in [0, 1], the signed distance is convex in t.
    Outside the box the squared distance is piecewise quadratic, with knots
    where a coordinate crosses -h, 0 or +h; each piece's stationary point is
    clipped to its interval.  Inside the box the signed distance is
    max_i(+-p_i(t) - h_i), a convex piecewise-linear function whose minimum
    lies at an endpoint or where two of the six affine pieces are equal.
    The signed distance is evaluated at this candidate set and the minimum
    taken.
  * Tie rule: when the minimizer is not unique (a segment parallel to a
    face, for instance), the smallest t among the candidates that reach the
    minimum wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import JointState, link_transform
from .robot_model import CapsuleGeometry, SphereGeometry
from .scene import Scene, SceneObject

# Pairs of the seven affine functions of t whose crossings bound the pieces
# of the segment signed distance: +p_i - h_i and -p_i - h_i for each axis,
# and the constant 0 (its crossings are the +-h knots).
_PAIR_I, _PAIR_J = np.triu_indices(7, 1)


@dataclass(frozen=True)
class ContactPoint:
    finger: str
    link: int
    position: np.ndarray  # on the object surface
    normal: np.ndarray  # unit, object-outward
    penetration_depth: float
    normal_force: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float).reshape(3))


def _closest_point_local(p: np.ndarray, half: np.ndarray):
    """Closest surface point / outward normal / signed distance, box frame."""
    q = np.clip(p, -half, half)
    if np.any(np.abs(p) > half):  # outside: clamp projects onto the surface
        offset = p - q
        dist = float(np.linalg.norm(offset))
        return q, offset / dist, dist
    # inside: push out through the nearest face, ties broken by axis order
    gaps = half - np.abs(p)
    axis = int(np.argmin(gaps))
    normal = np.zeros(3)
    normal[axis] = 1.0 if p[axis] >= 0.0 else -1.0
    surface = p.copy()
    surface[axis] = half[axis] * normal[axis]
    return surface, normal, -float(gaps[axis])


def closest_point_box(point, box: SceneObject):
    """Exact closest point on an oriented box.

    Returns (surface point, outward normal, signed distance); the distance is
    negative for points inside the box.  Face regions yield the face normal,
    edge/corner regions the normalized offset, interior points the nearest
    face normal with ties broken in x, y, z order.
    """
    R = box.pose.rotation()
    c = box.pose.position
    p_local = R.T @ (np.asarray(point, dtype=float) - c)
    q_local, n_local, sd = _closest_point_local(p_local, np.asarray(box.half_extents))
    return R @ q_local + c, R @ n_local, sd


def _box_sdf(points: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Signed distance of each row of `points` to the box, box frame."""
    q = np.abs(points) - half
    outside = np.maximum(q, 0.0)
    return np.where(np.any(q > 0.0, axis=1),
                    np.sqrt(np.sum(outside * outside, axis=1)),
                    np.max(q, axis=1))


def _deepest_on_segment(a: np.ndarray, d: np.ndarray, half: np.ndarray) -> float:
    """Smallest t in [0, 1] minimizing the box signed distance at a + t d (box frame)."""
    slope = np.concatenate((d, -d, (0.0,)))
    offset = np.concatenate((a - half, -a - half, (0.0,)))
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (offset[_PAIR_J] - offset[_PAIR_I]) / (slope[_PAIR_I] - slope[_PAIR_J])
    knots = np.sort(np.concatenate(((0.0, 1.0), cross[(cross > 0.0) & (cross < 1.0)])))
    # On each interval the set of axes outside their slab, and the side, is
    # fixed; the squared distance sum (p_i - s_i h_i)^2 over those axes is
    # stationary at t = sum d_i (s_i h_i - a_i) / sum d_i^2.
    lo, hi = knots[:-1], knots[1:]
    mid = a + (0.5 * (lo + hi))[:, None] * d
    active = np.abs(mid) > half
    num = np.sum(np.where(active, d * (np.copysign(half, mid) - a), 0.0), axis=1)
    den = np.sum(np.where(active, d * d, 0.0), axis=1)
    moving = den > 0.0
    stationary = np.clip(num[moving] / den[moving], lo[moving], hi[moving])
    candidates = np.sort(np.concatenate((knots, stationary)))
    # argmin returns the first minimum, so ties go to the smallest t
    return float(candidates[np.argmin(_box_sdf(a + candidates[:, None] * d, half))])


def detect_contacts(scene: Scene, state: JointState) -> list[ContactPoint]:
    """One contact per penetrating (finger link, box) pair.

    A link touches when its shape surface reaches the box: signed distance of
    the deepest probe point minus the shape radius is <= 0.  Output order is
    deterministic: fingers in chain order, links base-to-tip within a finger.
    No force threshold is applied here; validation filters weak contacts.
    """
    box = scene.object
    R = box.pose.rotation()
    c = box.pose.position
    half = np.asarray(box.half_extents)
    box_reach = float(np.linalg.norm(half))
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    k = box.params.contact_stiffness
    contacts: list[ContactPoint] = []
    for finger, links in scene.chain.finger_links.items():
        for link in links:
            link_spec = scene.chain.links[link]
            geom = link_spec.geometry
            if isinstance(geom, CapsuleGeometry):
                half_length = 0.5 * geom.length
            elif isinstance(geom, SphereGeometry):
                half_length = 0.0
            else:  # bare links and finger-link boxes have no contact model
                continue
            R_l, t_l = link_transform(scene.chain, state, link)
            R_w = R_b @ R_l
            og = link_spec.geometry_origin
            center = R_w @ og.translation() + (R_b @ t_l + t_b)
            if np.linalg.norm(center - c) > half_length + geom.radius + box_reach:
                continue
            p = R.T @ (center - c)
            if half_length > 0.0:
                axis = R.T @ (R_w @ og.rotation()[:, 2])
                a = p - half_length * axis
                d = geom.length * axis
                p = a + _deepest_on_segment(a, d, half) * d
            surface, normal, sd = _closest_point_local(p, half)
            depth = geom.radius - sd
            if depth < 0.0:
                continue
            contacts.append(ContactPoint(
                finger=finger,
                link=link,
                position=R @ surface + c,
                normal=R @ normal,
                penetration_depth=float(depth),
                normal_force=float(k * depth),
            ))
    return contacts
