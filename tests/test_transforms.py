import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.transforms import rpy_matrix

from reference import axis_angle_matrix, compose_rt

angles = st.floats(-np.pi, np.pi, allow_nan=False)
# keep pitch away from the +-pi/2 gimbal band so rpy triples are unique
safe_pitch = st.floats(-1.4, 1.4)


def test_rpy_yaw_quarter_turn_sends_x_to_y():
    R = rpy_matrix(0.0, 0.0, np.pi / 2)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_rpy_roll_quarter_turn_sends_y_to_z():
    R = rpy_matrix(np.pi / 2, 0.0, 0.0)
    assert np.allclose(R @ [0, 1, 0], [0, 0, 1], atol=1e-12)


def test_rpy_pitch_quarter_turn_sends_x_to_minus_z():
    R = rpy_matrix(0.0, np.pi / 2, 0.0)
    assert np.allclose(R @ [1, 0, 0], [0, 0, -1], atol=1e-12)


@given(angles, safe_pitch, angles)
def test_rpy_matrix_is_special_orthogonal(roll, pitch, yaw):
    R = rpy_matrix(roll, pitch, yaw)
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_axis_angle_about_z_matches_rpy_yaw():
    R = axis_angle_matrix(np.array([0.0, 0.0, 1.0]), 0.7)
    assert np.allclose(R, rpy_matrix(0.0, 0.0, 0.7), atol=1e-12)


def test_axis_angle_zero_is_identity():
    assert np.allclose(axis_angle_matrix(np.array([1.0, 0.0, 0.0]), 0.0), np.eye(3))


@given(angles, safe_pitch, angles, st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_compose_rt_with_inverse_is_identity(roll, pitch, yaw, x, y, z):
    R = rpy_matrix(roll, pitch, yaw)
    t = np.array([x, y, z])
    Rc, tc = compose_rt(R, t, R.T, -(R.T @ t))
    assert np.allclose(Rc, np.eye(3), atol=1e-12)
    assert np.allclose(tc, 0.0, atol=1e-12)
