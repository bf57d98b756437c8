"""The oracles of the bitwise tests: loops that compute, one joint, link or
finger at a time, what `graspforge` computes on stacked arrays.

- `reference_link_transform` and `reference_jacobian` walk one link's path
  from the root, composing one joint at a time on 2-D arrays (`_compose`).
  The stacked tree pass (`kinematics._stacked_frames`, with `link_frames`,
  `link_transform` and `jacobian` on it) and the stacked finger walk
  (`kinematics.finger_walk`) must give the same bits.
- `reference_frame` recurses from the raw joint table, with rotations from
  the rpy and Taylor-series formulas; it agrees to rounding only.
- `reference_step_servo` is the servo on joint dicts, `reference_solve` the
  damped-least-squares loop of one finger on a joint dict and
  `reference_detect_contacts` contact detection as a loop over the finger
  links, with `reference_closest_point_local` its surface probe, one probe
  at a time.
- `reference_validate` is the grasp verdict as a loop over the contacts of
  one set, with one `np.linalg.norm` per contact and per normal, and
  `reference_compliance` the stiffness K = sum k n n^T summed one contact
  at a time: the oracles of `grasp_validation._assess_rows` and
  `perturbation._compliance`.
- `reference_perturb` runs the perturbation rounds one at a time, one force
  draw and one `reference_displacement` per round, and stops at the first
  displacement above the threshold; its precheck and K are
  `reference_validate` and `reference_compliance`.
- `axis_angle_matrix` is the one-axis Rodrigues rotation, the oracle of the
  vectorized `kinematics._rodrigues`, and `quat_to_matrix` the rotation of a
  unit quaternion, for tests that pin a box built from one.

Tests import them as `from reference import ...`.
"""

import math

import numpy as np

from graspforge.contact import _TIE_TOLERANCE, _deepest_on_segments
from graspforge.grasp_validation import (FAILURE_CLOSURE, FAILURE_NONE, FAILURE_SPREAD,
                                         FAILURE_TOO_FEW, GraspAssessment, ValidationConfig)
from graspforge.ik_solver import _STALL_GAIN, IkResult
from graspforge.kinematics import JointState, _jacobian_columns, _resolve_link, clamp_to_limits
from graspforge.perturbation import _NULL_SPACE_RTOL, FREE_SLIDE_GAIN, PerturbationReport
from graspforge.robot_model import CapsuleGeometry, KinematicChain, SphereGeometry


# --------------------------------------------------------------------------
# one rotation at a time


def axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


def quat_to_matrix(q) -> np.ndarray:
    """Unit quaternion (x, y, z, w) -> rotation matrix."""
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


# --------------------------------------------------------------------------
# the per-joint walk


def compose_rt(Ra: np.ndarray, ta: np.ndarray,
               Rb: np.ndarray, tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose two (rotation, translation) pairs: result = A ∘ B."""
    return Ra @ Rb, Ra @ tb + ta


def _compose(chain: KinematicChain, ji: int, R: np.ndarray, t: np.ndarray, rotation):
    """Frame of joint `ji` from its parent link's frame (R, t).

    The per-joint compose sequence: R, t = R @ R_origin, R @ t_origin + t,
    then R @ rotation for a movable joint (`rotation` is None for a fixed
    one).  Returns (R_joint, t, R_child): R_joint is the frame the joint
    turns in (its world axis is R_joint @ axis), t the joint origin, which
    is also the child link's origin, and R_child the child link's rotation.
    """
    R, t = compose_rt(R, t, chain.origin_rotation[ji], chain.origin_translation[ji])
    return R, t, (R if rotation is None else R @ rotation)


def _walk(chain: KinematicChain, path, R: np.ndarray, t: np.ndarray, rotations: dict,
          record=()):
    """Compose (R, t) through the joints of `path`, parent first.

    `rotations` maps every movable joint of `path` to its rotation.  Returns
    the final (R, t) and, for the joints of `record` in path order, their
    world axes and origins: the inputs of `_jacobian_columns`.
    """
    axes, origins = [], []
    for ji in path:
        R_joint, t, R = _compose(chain, ji, R, t, rotations.get(ji))
        if ji in record:
            axes.append(R_joint @ chain.movable_axes[chain.column_of[ji]])
            origins.append(t)
    return R, t, axes, origins


def _path_rotations(chain: KinematicChain, path, state: JointState) -> dict:
    """Rotation of each movable joint of `path` at its `state` angle, in path order."""
    return {ji: axis_angle_matrix(chain.movable_axes[chain.column_of[ji]], state.get(ji))
            for ji in path if ji in chain.column_of}


def reference_link_transform(chain: KinematicChain, state: JointState,
                             link) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of `link` in the root frame, walked from the root."""
    path = chain.path_to_link[_resolve_link(chain, link)]
    R, t, _, _ = _walk(chain, path, np.eye(3), np.zeros(3), _path_rotations(chain, path, state))
    return R, t


def reference_jacobian(chain: KinematicChain, state: JointState, link) -> np.ndarray:
    """Positional Jacobian of `link`'s origin, shape (3, len(chain.movable)),
    from one walk of its path."""
    path = chain.path_to_link[_resolve_link(chain, link)]
    rotations = _path_rotations(chain, path, state)
    _, t, axes, origins = _walk(chain, path, np.eye(3), np.zeros(3), rotations, rotations)
    J = np.zeros((3, len(chain.movable)))
    if axes:
        J[:, [chain.column_of[ji] for ji in rotations]] = _jacobian_columns(axes, origins, t)
    return J


# --------------------------------------------------------------------------
# the frame from the raw joint table


def _rpy_reference(roll, pitch, yaw):
    def rx(a):
        return np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])

    def ry(a):
        return np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])

    def rz(a):
        return np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])

    return rz(yaw) @ ry(pitch) @ rx(roll)


def _axis_angle_reference(axis, angle):
    """exp of the skew matrix of `angle * axis`, by its Taylor series."""
    k = angle * np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    R, term = np.eye(3), np.eye(3)
    for n in range(1, 40):
        term = term @ k / n
        R = R + term
    return R


def reference_frame(chain, values, link):
    """(R, t) of `link` from the raw joint table, recursing to the root."""
    parent = {j.child: j for j in chain.joints}
    if link not in parent:
        return np.eye(3), np.zeros(3)
    j = parent[link]
    R, t = reference_frame(chain, values, j.parent)
    t = R @ np.array(j.origin.xyz) + t
    R = R @ _rpy_reference(*j.origin.rpy)
    if j.kind == "revolute":
        R = R @ _axis_angle_reference(np.array(j.axis), values[chain.joints.index(j)])
    return R, t


# --------------------------------------------------------------------------
# the servo, the IK loop and contact detection


def reference_step_servo(state, goal, run, chain):
    """The servo on joint dicts, one joint at a time: the bitwise reference
    of the array `step_servo`."""
    dt = 1.0 / run.hz
    rate = run.joint_rate_limit
    new_values = {}
    for ji, theta in state.values.items():
        velocity = run.servo_gain * (goal.values[ji] - theta)
        velocity = min(max(velocity, -rate), rate)
        new_values[ji] = theta + velocity * dt
    return clamp_to_limits(chain, JointState(values=new_values))


def reference_solve(chain, finger, target, seed, cfg) -> IkResult:
    """The damped-least-squares loop on a joint dict and the reference walks.

    Kept as the oracle for `solve_finger_ik`, which must return the same
    result bit for bit: one `reference_link_transform` per damping trial,
    one `reference_jacobian` per iteration and `clamp_to_limits` on every
    trial state.  A joint at a limit that a trial step pushes outward gets a
    zero Jacobian column and the step is solved again, until no such joint
    is pushed out (the clamping loop).  A stationary iterate, or an accepted
    step above the threshold that gains less than `_STALL_GAIN` of its
    residual (a stall), re-seeds the finger; the sixth such point ends the
    solve with the best state seen.  One descent runs at a time, and no
    test but the budget reads the iteration count.
    """
    f = chain.finger(finger)
    ee = f.end_effector
    target_p = np.asarray(target, dtype=float)
    cols = [chain.column_of[ji] for ji in f.joints]
    limits = [(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit) for ji in f.joints]

    def residual_of(s):
        _, p = reference_link_transform(chain, s, ee)
        return float(np.linalg.norm(target_p - p)), p

    def dls_step(J, lam, e):
        A = J @ J.T + lam ** 2 * np.eye(3)
        return cfg.step_scale * (J.T @ np.linalg.solve(A, e))

    def pushed_out(state, dq):
        return [(state.values[ji] <= lo and d < 0.0) or (state.values[ji] >= hi and d > 0.0)
                for ji, (lo, hi), d in zip(f.joints, limits, dq)]

    state = clamp_to_limits(chain, seed.copy())
    residual, p = residual_of(state)
    iterations, lam, restarts = 0, cfg.damping_lambda, 0
    best_state, best_residual = state, residual
    for it in range(1, cfg.max_iterations + 1):
        if residual <= cfg.residual_threshold:
            break
        iterations = it
        e = target_p - p
        J = reference_jacobian(chain, state, ee)[:, cols]
        accepted = stalled = False
        trial_lam = lam
        for _ in range(13):
            dq = dls_step(J, trial_lam, e)
            free = np.ones(len(cols), dtype=bool)
            while any(pushed_out(state, dq)):
                free &= ~np.array(pushed_out(state, dq))
                dq = dls_step(J * free, trial_lam, e)
            trial = state.copy()
            for ji, d in zip(f.joints, dq):
                trial.values[ji] = trial.values[ji] + float(d)
            trial = clamp_to_limits(chain, trial)
            trial_residual, trial_p = residual_of(trial)
            if trial_residual < residual:
                gain = residual - trial_residual
                stalled = (trial_residual > cfg.residual_threshold
                           and gain < _STALL_GAIN * trial_residual)
                state, residual, p = trial, trial_residual, trial_p
                lam = max(trial_lam / 1.5, 1e-6)
                accepted = True
                break
            trial_lam *= 2.0
        if stalled or not accepted:
            if residual < best_residual:
                best_state, best_residual = state, residual
            if restarts == 5:
                break
            restarts += 1
            frac = (0.25, 0.75, 0.1, 0.9, 0.5)[restarts % 5]
            state = state.copy()
            for ji in f.joints:
                j = chain.joints[ji]
                state.values[ji] = j.lower_limit + frac * (j.upper_limit - j.lower_limit)
            residual, p = residual_of(state)
            lam = cfg.damping_lambda
    if residual < best_residual:
        best_state, best_residual = state, residual
    return IkResult(state=best_state, residual=best_residual, iterations=iterations,
                    converged=best_residual <= cfg.residual_threshold)


def reference_closest_point_local(p: np.ndarray, half: np.ndarray):
    """Closest surface point / outward normal / signed distance of one
    box-frame point `p`."""
    q = p.clip(-half, half)
    if (np.abs(p) > half).any():  # outside: clamp projects onto the surface
        offset = p - q
        dist = float(np.linalg.norm(offset))
        return q, offset / dist, dist
    # inside: push out through the nearest face, near-ties to the lowest axis
    gaps = half - np.abs(p)
    axis = int(np.argmax(gaps <= gaps.min() + _TIE_TOLERANCE))
    normal = np.zeros(3)
    normal[axis] = 1.0 if p[axis] >= 0.0 else -1.0
    surface = p.copy()
    surface[axis] = half[axis] * normal[axis]
    return surface, normal, -float(gaps[axis])


def reference_detect_contacts(scene, state, sphere_reject=True):
    """`detect_contacts` as a loop over the finger links, one shape at a time.

    The front end of an earlier version, kept as the bitwise reference of
    the array one: per link its frame from `reference_link_transform`, the
    world transform, the bounding-sphere reject (a shape with |center - box
    center| > length/2 + radius + |half extents| cannot touch the box; it is
    looser than `detect_contacts`' box-axis reject) and the box-frame probe
    point and capsule axis; then the same batched segment minimum and
    surface probe.  With `sphere_reject=False` every shape goes to the
    narrow phase.
    """
    chain = scene.chain
    box = scene.object
    R = box.pose.rotation()
    c = box.pose.position
    half = np.asarray(box.half_extents)
    box_reach = float(np.linalg.norm(half))
    R_b = scene.hand_base.rotation()
    t_b = scene.hand_base.position
    probes = []
    starts, directions, capsule_rows = [], [], []
    for finger, links in chain.finger_links.items():
        for link in links:
            spec = chain.links[link]
            geom = spec.geometry
            if isinstance(geom, CapsuleGeometry):
                half_length = 0.5 * geom.length
            elif isinstance(geom, SphereGeometry):
                half_length = 0.0
            else:
                continue
            R_l, t_l = reference_link_transform(chain, state, link)
            R_w = R_b @ R_l
            center = R_w @ spec.geometry_origin.translation() + (R_b @ t_l + t_b)
            offset = center - c
            if sphere_reject and np.linalg.norm(offset) > half_length + geom.radius + box_reach:
                continue
            p = R.T @ offset
            if half_length > 0.0:
                axis = R.T @ (R_w @ spec.geometry_origin.rotation()[:, 2].copy())
                starts.append(p - half_length * axis)
                directions.append(geom.length * axis)
                capsule_rows.append(len(probes))
            probes.append([finger, link, geom.radius, p])
    if capsule_rows:
        a, d = np.array(starts), np.array(directions)
        ts = _deepest_on_segments(a, d, half)
        for row, a_i, d_i, t in zip(capsule_rows, a, d, ts):
            probes[row][3] = a_i + t * d_i
    k = box.params.contact_stiffness
    contacts = []
    for finger, link, radius, p in probes:
        surface, normal, sd = reference_closest_point_local(p, half)
        depth = radius - sd
        if depth < 0.0:
            continue
        contacts.append((finger, link, R @ surface + c, R @ normal, float(depth),
                         float(k * depth)))
    return contacts


# --------------------------------------------------------------------------
# validation and the stiffness, one contact at a time


def reference_validate(contacts, config=None) -> GraspAssessment:
    """The verdict of a list of `ContactPoint`s, one contact at a time: the
    established ones (force >= min_contact_force), their mean position, the
    largest distance from it and the norm of their summed unit normals.  A
    NaN distance or norm fails its check."""
    cfg = config or ValidationConfig()
    held = [c for c in contacts if c.normal_force >= cfg.min_contact_force]
    if held:
        center = np.mean([c.position for c in held], axis=0)
        max_distance = max(float(np.linalg.norm(c.position - center)) for c in held)
        normals = [c.normal / np.linalg.norm(c.normal) for c in held]
        closure_residual = float(np.linalg.norm(np.sum(normals, axis=0)))
    else:
        center = np.zeros(3)
        max_distance = 0.0
        closure_residual = 0.0
    if len(held) < cfg.min_contacts:
        reason = FAILURE_TOO_FEW
    elif not max_distance <= cfg.distribution_threshold:  # NaN fails
        reason = FAILURE_SPREAD
    elif not closure_residual <= cfg.force_closure_threshold:
        reason = FAILURE_CLOSURE
    else:
        reason = FAILURE_NONE
    return GraspAssessment(stable=reason == FAILURE_NONE, contact_count=len(held),
                           center=center, max_distance=max_distance,
                           closure_residual=closure_residual, failure_reason=reason)


def reference_compliance(obj, contacts):
    """Eigen-decomposition of K = sum_i k n_i n_i^T, added one contact at a
    time from zero, and its null-space cutoff."""
    k = obj.params.contact_stiffness
    K = np.zeros((3, 3))
    for c in contacts:
        n = c.normal / np.linalg.norm(c.normal)
        K += k * np.outer(n, n)
    eigenvalues, eigenvectors = np.linalg.eigh(K)
    return eigenvalues, eigenvectors, eigenvalues[-1] * _NULL_SPACE_RTOL


# --------------------------------------------------------------------------
# perturbation, one round at a time


def reference_displacement(compliance, F: np.ndarray) -> np.ndarray:
    """Object displacement under one force, summed over K's eigenpairs."""
    eigenvalues, eigenvectors, cutoff = compliance
    displacement = np.zeros(3)
    for lam, v in zip(eigenvalues, eigenvectors.T):
        component = float(v @ F)
        if lam > cutoff:
            displacement += (component / lam) * v
        else:
            displacement += FREE_SLIDE_GAIN * component * v
    return displacement


def reference_perturb(obj, contacts, cfg, validation=None) -> PerturbationReport:
    """`perturb_contacts` as a loop over the rounds: one draw of three
    values per round, and a stop at the first round over the threshold."""
    if not reference_validate(contacts, validation).stable:
        return PerturbationReport(passed=False, iterations_run=0,
                                  max_displacement=0.0, samples=[],
                                  failure_iteration=None, seed=cfg.seed)
    compliance = reference_compliance(obj, contacts)
    rng = np.random.default_rng(cfg.seed)
    samples = []
    max_displacement = 0.0
    for i in range(1, cfg.iterations + 1):
        F = rng.uniform(-cfg.force_bound, cfg.force_bound, size=3)
        d = float(np.linalg.norm(reference_displacement(compliance, F)))
        samples.append((F, d))
        max_displacement = max(max_displacement, d)
        if d > cfg.displacement_threshold:
            return PerturbationReport(passed=False, iterations_run=i,
                                      max_displacement=max_displacement,
                                      samples=samples, failure_iteration=i,
                                      seed=cfg.seed)
    return PerturbationReport(passed=True, iterations_run=cfg.iterations,
                              max_displacement=max_displacement,
                              samples=samples, failure_iteration=None,
                              seed=cfg.seed)
