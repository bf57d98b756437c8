"""Shared fixtures: the bundled hand/scenario and one full controller run.

The controller run takes a few seconds, so it is computed once per session
and treated as read-only by every test that inspects it.
"""

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    settings = None

from graspforge.config import default_scenario_path, load_scenario
from graspforge.controller import execute_grasp
from graspforge.kinematics import JointState
from graspforge.robot_model import bundled_hand_path, load_robot_description

if settings is not None:
    # numerical property tests on the 21-joint chain can outrun the default
    # per-example deadline on slow runners; wall-clock is bounded by max_examples
    settings.register_profile("graspforge", deadline=None)
    settings.load_profile("graspforge")


TWO_LINK_ARM = """
<robot name="planar_arm">
  <link name="base"/>
  <link name="upper"/>
  <link name="fore"/>
  <link name="tip"/>
  <joint name="arm_shoulder" type="revolute">
    <parent link="base"/>
    <child link="upper"/>
    <origin xyz="0 0 0"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.1415926535897931" upper="3.1415926535897931"/>
  </joint>
  <joint name="arm_elbow" type="revolute">
    <parent link="upper"/>
    <child link="fore"/>
    <origin xyz="1 0 0"/>
    <axis xyz="0 0 1"/>
    <limit lower="-3.1415926535897931" upper="3.1415926535897931"/>
  </joint>
  <joint name="arm_tip" type="fixed">
    <parent link="fore"/>
    <child link="tip"/>
    <origin xyz="1 0 0"/>
  </joint>
</robot>
"""


# One 4-joint index finger whose first joint, a roll, lies below the root
# and above a fixed palm mount, so a fixed joint lies between two of its own
# joints; tilted axes, rpy origins and fixed joints between.  With the roll
# renamed to wrist_roll, a wrist finger above the index, the parser rejects it.
WRIST_HAND = """
<robot name="wrist_hand">
  <link name="forearm"/>
  <link name="wrist"/>
  <link name="palm"/>
  <link name="proximal"/>
  <link name="middle"/>
  <link name="distal"/>
  <link name="tip"/>
  <joint name="index_roll" type="revolute">
    <parent link="forearm"/><child link="wrist"/>
    <origin xyz="0.0 0.0 0.05" rpy="0.1 -0.2 0.3"/>
    <axis xyz="0.6 0.0 0.8"/><limit lower="-1.5" upper="1.5"/>
  </joint>
  <joint name="palm_mount" type="fixed">
    <parent link="wrist"/><child link="palm"/>
    <origin xyz="0.02 -0.01 0.06" rpy="-0.4 0.2 0.9"/>
  </joint>
  <joint name="index_base" type="revolute">
    <parent link="palm"/><child link="proximal"/>
    <origin xyz="0.03 0.01 0.02" rpy="0.0 0.3 0.0"/>
    <axis xyz="0 1 0"/><limit lower="-0.5" upper="1.6"/>
  </joint>
  <joint name="index_middle" type="revolute">
    <parent link="proximal"/><child link="middle"/>
    <origin xyz="0.04 0.0 0.0" rpy="0.2 0.0 -0.1"/>
    <axis xyz="0 0.8 0.6"/><limit lower="0.0" upper="1.7"/>
  </joint>
  <joint name="index_distal" type="revolute">
    <parent link="middle"/><child link="distal"/>
    <origin xyz="0.03 0.0 0.0"/>
    <axis xyz="0 1 0"/><limit lower="0.0" upper="1.4"/>
  </joint>
  <joint name="index_tip" type="fixed">
    <parent link="distal"/><child link="tip"/>
    <origin xyz="0.02 0.0 0.005" rpy="0.5 0.0 0.0"/>
  </joint>
</robot>
"""


def mid_range_state(chain):
    """Every movable joint at the middle of its limits."""
    return JointState(values={
        ji: 0.5 * (chain.joints[ji].lower_limit + chain.joints[ji].upper_limit)
        for ji in chain.movable})


def joint_rows(chain, center=None, spread=0.05, max_rows=4, margin=0.0):
    """Hypothesis strategy: a (T, n) float array of joint-angle rows in
    `chain.movable` order, all within the joint limits widened by `margin`.

    Each angle is either drawn from its range (within `spread` of `center`'s
    value when a center state is given) or is one of its limits, +0.0 or
    -0.0 where they lie in range.  Up to `max_rows` distinct rows are drawn,
    and the stack picks from them with repeats, up to twice that many rows.
    """
    from hypothesis import strategies as st

    def angle(ji):
        lo, hi = chain.joints[ji].lower_limit, chain.joints[ji].upper_limit
        special = [v for v in (lo, hi, 0.0, -0.0) if lo - margin <= v <= hi + margin]
        lo, hi = lo - margin, hi + margin
        if center is not None:
            c = center.values[ji]
            lo, hi = max(lo, c - spread), min(hi, c + spread)
        return st.floats(lo, hi) | st.sampled_from(special)

    distinct = st.lists(st.tuples(*map(angle, chain.movable)), min_size=1, max_size=max_rows)
    return distinct.flatmap(lambda rows: st.lists(
        st.sampled_from(rows), min_size=1, max_size=2 * max_rows).map(np.array))


@pytest.fixture(scope="session")
def chain():
    return load_robot_description(bundled_hand_path())


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def grasp_run(scenario):
    """(final state, trajectory log, assessment) for the bundled scenario."""
    return execute_grasp(scenario.scene, scenario.targets, scenario.run,
                         scenario.ik, scenario.validation)


@pytest.fixture()
def two_link():
    from graspforge.robot_model import parse_robot_description
    return parse_robot_description(TWO_LINK_ARM)
