"""Minimal rigid-transform helpers shared by the kinematics stack.

Conventions:
  - rotation matrices are 3x3 numpy arrays, right-handed, acting on column vectors
  - rpy means fixed-axis roll/pitch/yaw: R = Rz(yaw) @ Ry(pitch) @ Rx(roll)
  - quaternions are (x, y, z, w), unit norm, w >= 0 canonical form
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from fixed-axis roll-pitch-yaw angles."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


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


# Component gathers (`take` keeps rows C-ordered): the row and column factor
# of each entry of a row-major 3x3 outer product, and the axis component and
# sign of each skew-matrix entry.
_ROW, _COLUMN = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
_SKEW_AXIS = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def rodrigues_terms(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per unit axis (x, y, z), the row-major 3x3 of products (xx xy xz / yx yy yz
    / zx zy zz) and of the skew matrix (0 -z y / z 0 -x / -y x 0), shape (n, 9).

    The angle-free factors of `axis_angle_matrix`, for evaluating the
    rotations of many axes at once.  Each row depends only on its own axis.
    """
    products = axes.take(_ROW, 1) * axes.take(_COLUMN, 1)
    skew = axes.take(_SKEW_AXIS, 1) * _SKEW_SIGN
    return products, skew


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix -> unit quaternion (x, y, z, w) with w >= 0."""
    t = np.trace(R)
    if t > 0.0:
        w = np.sqrt(1.0 + t) / 2.0
        f = 1.0 / (4.0 * w)
        q = np.array([(R[2, 1] - R[1, 2]) * f,
                      (R[0, 2] - R[2, 0]) * f,
                      (R[1, 0] - R[0, 1]) * f, w])
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[k, k], 0.0)) * 2.0
        q = np.empty(4)
        q[i] = s / 4.0
        q[j] = (R[j, i] + R[i, j]) / s
        q[k] = (R[k, i] + R[i, k]) / s
        q[3] = (R[k, j] - R[j, k]) / s
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) -> rotation matrix."""
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


# --------------------------------------------------------------------------
# fixed rigid transform kept as the (xyz, rpy) pair the robot description
# authors; rotation() and translation() give its matrix form


@dataclass(frozen=True)
class Transform:
    """Rigid transform authored as a translation + fixed-axis rpy rotation."""

    xyz: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def rotation(self) -> np.ndarray:
        return rpy_matrix(*self.rpy)

    def translation(self) -> np.ndarray:
        return np.array(self.xyz, dtype=float)
