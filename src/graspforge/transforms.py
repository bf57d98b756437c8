"""Minimal rigid-transform helpers shared by the kinematics stack.

Conventions:
  - rotation matrices are 3x3 numpy arrays, right-handed, acting on column vectors
  - rpy means fixed-axis roll/pitch/yaw: R = Rz(yaw) @ Ry(pitch) @ Rx(roll)
  - a movable joint turns about its unit axis a by the Rodrigues rotation
    R = c I + (1 - c) a a^T + s [a]x; `rodrigues_terms` gives its angle-free
    factors
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


# Component gathers (`take` keeps rows C-ordered): the row and column factor
# of each entry of a row-major 3x3 outer product, and the axis component and
# sign of each skew-matrix entry.
_ROW, _COLUMN = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)
_SKEW_AXIS = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


def rodrigues_terms(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per unit axis (x, y, z), the row-major 3x3 of products (xx xy xz / yx yy yz
    / zx zy zz) and of the skew matrix (0 -z y / z 0 -x / -y x 0), shape (n, 9).

    The angle-free factors of the Rodrigues rotation, for evaluating the
    rotations of many axes at once.  Each row depends only on its own axis.
    """
    products = axes.take(_ROW, 1) * axes.take(_COLUMN, 1)
    skew = axes.take(_SKEW_AXIS, 1) * _SKEW_SIGN
    return products, skew


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
