"""Analytic contact detection between finger geometry and the box object.

Finger links carry sphere or capsule collision shapes; the object is an
oriented box.  Geometry on the other links, such as the bundled palm's box,
is not used.  Each (finger link, box) pair contributes at most one contact:
the deepest penetrating point of the link surface.  Forces follow the
quasi-static spring law F = k * depth with the object's contact stiffness.

Front end, after a forward-kinematics pass gives every link's frame: the
chain's table of finger shapes (`chain.finger_shapes`, built once with the
chain) is processed as stacked arrays, with no loop over links, for T
joint-angle rows at once (`_stacked_contacts`, over frames of shape
(T, L, ...)), and the contacts of every row come out as one set of arrays,
which the controller validates as they are.  `detect_contacts`, the one-row
call from a joint state, is the one place that makes `ContactPoint`s.  It
returns them as an immutable set, a tuple that also carries the stacked
positions (M, 3), normals (M, 3) and forces (M,) it was made from, all
read-only, with each point's `position` and `normal` a row view of them;
validation and perturbation read those arrays instead of rebuilding them
from the points, and validation keeps its verdict on the set.  Each
stacked `matmul` rounds every slice exactly as a 2-D `@` does, so the
probes are bit for bit those of a per-link loop, whatever the number of rows.
  * World transform of every shape, its box-frame center c (a sphere's probe
    point) and core axis u, then the overlap reject (separating axes on the
    box faces; Gottschalk, Lin & Manocha, "OBBTree", SIGGRAPH 1996): a shape
    is kept only if |c_i| - (|u_i| length/2 + radius) <= h_i + _OVERLAP_SLACK
    on each box axis i.  When none is kept, the narrow phase does not run.
Narrow phase, all in the box frame:
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
    taken.  The capsules of all T rows that pass the reject are solved in
    one batch; batch rows with fewer candidates are padded with inf.
  * Tie rule: when the minimizer is not unique (a segment parallel to a
    face, or two candidates naming the same kink), the smallest t whose
    signed distance is within _TIE_TOLERANCE of the minimum wins, so float
    rounding of equal distances does not pick the winner.
  * The surface point, normal and depth of every kept probe of every row
    at once (`_closest_point_local` over the (M, 3) probes).  A probe's
    distance is the square root of its own self-product, `(D[:, None, :] @
    D[:, :, None])`, and its world point and normal are stacked
    matrix-vector products, `(R @ S[:, :, None])`; each rounds as the
    one-probe `np.linalg.norm` and `R @ s` do, where a row-wise
    `np.linalg.norm`, the 2-D `S @ R.T` or `einsum` can differ in the last
    bit.  An interior probe leaves through its nearest face, under the same
    tie rule: of the faces whose gaps are within _TIE_TOLERANCE of the
    smallest, the lowest axis wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import JointState, link_frames
from .scene import Scene, SceneObject

# Pairs of the seven affine functions of t whose crossings bound the pieces
# of the segment signed distance: +p_i - h_i and -p_i - h_i for each axis,
# and the constant 0 (its crossings are the +-h knots).
_PAIR_I, _PAIR_J = np.triu_indices(7, 1)

# Float-error bound on the signed distance at a candidate, in meters.  Box
# frame coordinates of a hand-scale scene are below 1 m, where one float64
# ulp is 2.2e-16 m; the signed distance at a candidate is a handful of
# roundings from the segment data (crossing, a + t d, |p| - h, the norm), so
# candidates whose distances differ by less than ~4.5 ulps are ties.
_TIE_TOLERANCE = 1e-15

# Slack of the overlap reject, in meters: far above the ~1e-16 m rounding of
# a + t d and of its signed distance, so no shape that can touch is skipped.
_OVERLAP_SLACK = 1e-12


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


class _ContactSet(tuple):
    """The `ContactPoint`s of one detection, with the read-only arrays they
    were made from: `positions` (M, 3), `normals` (M, 3) and `forces` (M,).
    `verdicts` is where `validate_grasp` keeps its verdict per
    `ValidationConfig`; the set cannot change, so a verdict never goes stale."""

    def __new__(cls, points, positions, normals, forces):
        self = super().__new__(cls, points)
        self.positions, self.normals, self.forces = positions, normals, forces
        self.verdicts = {}
        return self

    def __reduce__(self):  # copies and pickles are plain tuples, judged afresh
        return tuple, (tuple(self),)


def _contact_arrays(contacts) -> tuple:
    """(positions (M, 3), normals (M, 3), forces (M,)) of a contact sequence:
    a detected set's own arrays, or arrays built from any other sequence."""
    if isinstance(contacts, _ContactSet):
        return contacts.positions, contacts.normals, contacts.forces
    return (np.array([c.position for c in contacts], dtype=float).reshape(-1, 3),
            np.array([c.normal for c in contacts], dtype=float).reshape(-1, 3),
            np.array([c.normal_force for c in contacts], dtype=float))


def _norms(v: np.ndarray) -> np.ndarray:
    """The length of each row of `v` (N, 3), rounded as `np.linalg.norm` is."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _closest_point_local(p: np.ndarray, half: np.ndarray):
    """Closest surface points / outward normals / signed distances of the
    (M, 3) box-frame points `p`."""
    gaps = half - np.abs(p)
    nearest = gaps.min(axis=1)
    outside = (nearest < 0.0)[:, None]  # h - |p| < 0 exactly where |p| > h
    # outside: clamp projects onto the surface
    q = p.clip(-half, half)
    offset = p - q
    dist = _norms(offset)
    # inside: push out through the nearest face, near-ties to the lowest axis
    rows = np.arange(len(p))
    axis = np.argmax(gaps <= nearest[:, None] + _TIE_TOLERANCE, axis=1)
    normal = np.zeros_like(p)
    normal[rows, axis] = np.where(p[rows, axis] >= 0.0, 1.0, -1.0)
    surface = p.copy()
    surface[rows, axis] = half[axis] * normal[rows, axis]
    np.divide(offset, dist[:, None], out=normal, where=outside)
    np.copyto(surface, q, where=outside)
    return surface, normal, np.where(outside[:, 0], dist, -gaps[rows, axis])


def closest_point_box(point, box: SceneObject):
    """Exact closest point on an oriented box.

    Returns (surface point, outward normal, signed distance); the distance is
    negative for points inside the box.  Face regions yield the face normal,
    edge/corner regions the normalized offset, interior points the nearest
    face normal; faces within _TIE_TOLERANCE of the nearest tie, and the
    lowest of x, y, z among them wins.
    """
    R = box.pose.rotation()
    c = box.pose.position
    p_local = R.T @ (np.asarray(point, dtype=float) - c)
    q_local, n_local, sd = _closest_point_local(p_local[None], np.asarray(box.half_extents))
    return R @ q_local[0] + c, R @ n_local[0], float(sd[0])


def _box_sdf(points: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Signed distance to the box of each point along the last axis, box frame."""
    q = np.abs(points) - half
    outside = np.maximum(q, 0.0)
    return np.where((q > 0.0).any(axis=-1),
                    np.sqrt((outside * outside).sum(axis=-1)),
                    q.max(axis=-1))


def _deepest_on_segments(a: np.ndarray, d: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Per row, the t in [0, 1] that minimizes the box signed distance at a + t d.

    `a` and `d` are (n, 3) segment starts and directions in the box frame.
    Of the candidates within _TIE_TOLERANCE of a row's minimum, the one
    with the smallest t is returned.
    Rows have different numbers of knots and candidates; the unused slots of
    each row are padded with inf and never win.  Each row's answer is what
    that row alone would give.
    """
    slope = np.concatenate((d, -d, np.zeros((len(d), 1))), axis=1)
    offset = np.concatenate((a - half, -a - half, np.zeros((len(a), 1))), axis=1)
    # parallel pieces divide by zero and near-parallel ones overflow; both
    # land outside (0, 1) and are dropped, as are the padded intervals
    with np.errstate(all="ignore"):
        cross = (offset[:, _PAIR_J] - offset[:, _PAIR_I]) / (slope[:, _PAIR_I] - slope[:, _PAIR_J])
        inside = (cross > 0.0) & (cross < 1.0)
        ends = np.broadcast_to((0.0, 1.0), (len(a), 2))
        knots = np.concatenate((ends, np.where(inside, cross, np.inf)), axis=1)
        knots.sort(axis=1)
        knots = knots[:, :2 + inside.sum(axis=1).max()]  # drop all-padding columns
        # On each interval the set of axes outside their slab, and the side,
        # is fixed; the squared distance sum (p_i - s_i h_i)^2 over those axes
        # is stationary at t = sum d_i (s_i h_i - a_i) / sum d_i^2.
        lo, hi = knots[:, :-1], knots[:, 1:]
        mid = a[:, None, :] + (0.5 * (lo + hi))[:, :, None] * d[:, None, :]
        active = np.abs(mid) > half
        num = np.where(active, d[:, None, :] * (np.copysign(half, mid) - a[:, None, :]), 0.0).sum(axis=2)
        den = np.where(active, d[:, None, :] * d[:, None, :], 0.0).sum(axis=2)
        moving = (den > 0.0) & (hi < np.inf)
        stationary = np.where(moving, (num / np.where(moving, den, 1.0)).clip(lo, hi), np.inf)
    candidates = np.concatenate((knots, stationary), axis=1)
    candidates.sort(axis=1)
    valid = candidates < np.inf
    width = valid.sum(axis=1).max()  # drop all-padding columns
    candidates, valid = candidates[:, :width], valid[:, :width]
    t = np.where(valid, candidates, 0.0)
    sdf = np.where(valid, _box_sdf(a[:, None, :] + t[:, :, None] * d[:, None, :], half), np.inf)
    # candidates are sorted, so the first one within _TIE_TOLERANCE of the
    # row minimum is the smallest such t
    near = sdf <= sdf.min(axis=1, keepdims=True) + _TIE_TOLERANCE
    return t[np.arange(len(t)), np.argmax(near, axis=1)]


def _stacked_contacts(scene: Scene, frames: tuple) -> tuple:
    """`detect_contacts` for each row of stacked link frames, rotations (T, L,
    3, 3) and translations (T, L, 3), as arrays over every contact of every
    row: its row (M,), ascending, `chain.finger_shapes` row (M,), position
    (M, 3), normal (M, 3), depth (M,) and force k * depth (M,).  The rows
    go through the front end and the narrow phase together, independently.
    """
    chain = scene.chain
    shapes = chain.finger_shapes
    box = scene.object
    R = box.pose.rotation()
    c = box.pose.position
    half = np.asarray(box.half_extents)
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    R_l, t_l = frames
    # every shape at once: world frame, box-frame center and axis, the reject;
    # then a capsule's probe moves from its center to its deepest core point
    R_w = R_b @ R_l[:, shapes.links]
    t_w = R_b @ t_l[:, shapes.links, :, None] + t_b[:, None]
    probes = (R.T @ ((R_w @ shapes.translation[:, :, None] + t_w)[..., 0] - c)[..., None])[..., 0]
    axes = (R.T @ (R_w @ shapes.axis[:, :, None]))[..., 0]
    gaps = np.abs(probes) - (np.abs(axes) * shapes.half_length[:, None] + shapes.radius[:, None])
    steps, rows = np.nonzero((gaps <= half + _OVERLAP_SLACK).all(axis=-1))
    capsule = shapes.half_length[rows] > 0.0
    if capsule.any():
        at = steps[capsule], rows[capsule]
        a = probes[at] - shapes.half_length[at[1], None] * axes[at]
        d = shapes.length[at[1], None] * axes[at]
        probes[at] = a + _deepest_on_segments(a, d, half)[:, None] * d
    surface, normal, sd = _closest_point_local(probes[steps, rows], half)
    depth = shapes.radius[rows] - sd
    hit = ~(depth < 0.0)
    steps, rows, depth = steps[hit], rows[hit], depth[hit]
    positions = (R @ surface[hit, :, None])[..., 0] + c
    normals = (R @ normal[hit, :, None])[..., 0]
    return steps, rows, positions, normals, depth, box.params.contact_stiffness * depth


def detect_contacts(scene: Scene, state: JointState) -> tuple[ContactPoint, ...]:
    """One contact per penetrating (finger link, box) pair, as a tuple.

    A link touches when its shape surface reaches the box: signed distance of
    the deepest probe point minus the shape radius is <= 0.  Output order is
    deterministic: fingers in chain order, links base-to-tip within a finger.
    No force threshold is applied here; validation filters weak contacts.
    This is the one-row call of `_stacked_contacts`.  Each point's `position`
    and `normal` are read-only.
    """
    R_l, t_l = link_frames(scene.chain, state)
    _, rows, positions, normals, depths, forces = _stacked_contacts(scene, (R_l[None], t_l[None]))
    shapes = scene.chain.finger_shapes
    for array in (positions, normals, forces):  # before the points take their row views
        array.flags.writeable = False
    points = [ContactPoint(shapes.fingers[row], link, position, n, depth, force)
              for row, link, position, n, depth, force in zip(
                  rows.tolist(), shapes.links[rows].tolist(), positions, normals,
                  depths.tolist(), forces.tolist())]
    return _ContactSet(points, positions, normals, forces)
