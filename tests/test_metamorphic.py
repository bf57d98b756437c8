"""End-to-end metamorphic relations: transformations of a scenario whose
effect on `execute_grasp` is known without running it.

A rigid motion x -> R x + p of the hand base, the box and the targets
together is the same grasp seen from another frame.  The controller works
in the hand-base frame, so only rounding in the world-frame products
differs: the same steps, phases, contact counts and verdict, and the same
joint angles and base-frame fingertips up to that rounding.

Measured on the bundled scenario (165 steps, stable), largest differences
from the unmoved run in joint angle and mapped-back fingertip position:

  translation (0.4, -1.2, 0.7) m            3.7e-14 rad   5.8e-16 m
  yaw 30 degrees                            3.0e-15 rad   5.6e-17 m
  rpy (0.3, -0.7, 1.1), (-0.3, 0.5, 0.25) m  1.4e-14 rad   2.8e-16 m

The tolerance is 50 times the 2e-14 rad that the rigid motions measured
when this relation was first checked, and the fingertip tolerance is that
angle over a 0.2 m lever, longer than any finger of the bundled hand.
"""

import numpy as np
import pytest

from graspforge.controller import execute_grasp
from graspforge.kinematics import Pose, _angles
from graspforge.scene import Scene, make_box_object
from graspforge.transforms import rpy_matrix

ANGLE_TOL = 50 * 2e-14  # rad
TIP_TOL = ANGLE_TOL * 0.2  # m


def _moved(scenario, R, p):
    """The scenario's scene and targets moved by x -> R x + p."""
    scene, box = scenario.scene, scenario.scene.object

    def move(pose):
        return Pose(position=R @ pose.position + p, rotation_matrix=R @ pose.rotation())

    moved = Scene(chain=scene.chain, hand_base=move(scene.hand_base),
                  object=make_box_object(box.half_extents, move(box.pose), box.mass,
                                         box.params))
    # explicit targets: the built-in ones take only an axis-aligned box
    return moved, {f: Pose(position=R @ t.position + p) for f, t in scenario.targets.items()}


@pytest.mark.parametrize("R, p", [
    (np.eye(3), np.array([0.4, -1.2, 0.7])),
    (rpy_matrix(0.0, 0.0, np.pi / 6), np.zeros(3)),
    (rpy_matrix(0.3, -0.7, 1.1), np.array([-0.3, 0.5, 0.25])),
], ids=["translation", "yaw-30-degrees", "rpy-and-translation"])
def test_a_rigid_motion_of_the_whole_scene_keeps_the_grasp(scenario, grasp_run, R, p):
    state, log, assessment = grasp_run
    scene, targets = _moved(scenario, R, p)
    moved_state, moved_log, moved_assessment = execute_grasp(
        scene, targets, scenario.run, scenario.ik, scenario.validation)
    assert moved_log.end_step == log.end_step == 165
    assert (moved_assessment.stable, moved_assessment.failure_reason) == (True, "none")
    assert np.array_equal(moved_log.control_steps, log.control_steps)
    assert np.array_equal(moved_log.phases, log.phases)
    assert np.array_equal(moved_log.contact_counts, log.contact_counts)
    chain = scenario.scene.chain
    assert np.abs(_angles(chain, moved_state) - _angles(chain, state)).max() <= ANGLE_TOL
    # the world fingertips mapped back by the inverse motion, R^T (x - p)
    assert np.abs((moved_log.positions - p) @ R - log.positions).max() <= TIP_TOL
