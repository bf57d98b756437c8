import numpy as np
import pytest

from graspforge.robot_model import (OTHER_FINGER_DOF, THUMB_DOF, CapsuleGeometry, Finger,
                                    RobotDescriptionError, UnknownFingerError,
                                    ValidationError, bundled_data_dir, bundled_hand_path,
                                    load_robot_description, parse_robot_description)

from conftest import WRIST_HAND
from test_kinematics import TIP_FIRST_TREE


def _doc(links, joints):
    return f"<robot name='t'>{links}{joints}</robot>"


_REV = ("<joint name='{name}' type='revolute'><parent link='{p}'/><child link='{c}'/>"
        "<axis xyz='0 0 1'/><limit lower='-1' upper='1'/>{extra}</joint>")


def _rev(name, p, c, extra=""):
    return _REV.format(name=name, p=p, c=c, extra=extra)


def _fixed(name, p, c):
    return f"<joint name='{name}' type='fixed'><parent link='{p}'/><child link='{c}'/></joint>"


class TestBundledHand:
    def test_all_five_fingers_present(self, chain):
        assert set(chain.fingers) == {"thumb", "index", "middle", "ring", "pinky"}

    def test_dof_counts(self, chain):
        assert len(chain.fingers["thumb"].joints) == THUMB_DOF
        for name in ("index", "middle", "ring", "pinky"):
            assert len(chain.fingers[name].joints) == OTHER_FINGER_DOF
        assert len(chain.movable) == THUMB_DOF + 4 * OTHER_FINGER_DOF

    def test_finger_joints_are_base_to_tip(self, chain):
        for f in chain.fingers.values():
            # each joint hangs off the previous one's subtree
            for a, b in zip(f.joints, f.joints[1:]):
                assert len(chain.path_to_link[chain.joints[b].child]) > \
                    len(chain.path_to_link[chain.joints[a].child])

    def test_end_effectors_are_tip_frames(self, chain):
        for name, f in chain.fingers.items():
            assert chain.links[f.end_effector].name == f"{name}_tip"

    def test_phalange_capsules(self, chain):
        lengths = sorted({l.geometry.length for l in chain.links
                          if isinstance(l.geometry, CapsuleGeometry)})
        assert lengths == [0.020, 0.025, 0.045]
        assert all(l.geometry.radius == 0.008 for l in chain.links
                   if isinstance(l.geometry, CapsuleGeometry))

    def test_unknown_finger(self, chain):
        with pytest.raises(UnknownFingerError):
            chain.finger("tentacle")

    def test_chain_constants(self, chain):
        placed = {chain.root}
        joint_of_child = {j.child: ji for ji, j in enumerate(chain.joints)}
        for level in chain.fk_levels:
            # a level reads only the frames of earlier levels
            assert set(level.parents.tolist()) <= placed
            placed.update(level.children.tolist())
            joints = [joint_of_child[li] for li in level.children.tolist()]
            assert level.parents.tolist() == [chain.joints[ji].parent for ji in joints]
            for row, ji in enumerate(joints):
                assert np.array_equal(level.origin_rotation[row], chain.origin_rotation[ji])
                assert np.array_equal(level.origin_translation[row, :, 0],
                                      chain.origin_translation[ji])
            assert level.moving.tolist() == [row for row, ji in enumerate(joints)
                                             if ji in chain.column_of]
            assert level.columns.tolist() == [chain.column_of[joints[row]]
                                              for row in level.moving.tolist()]
        assert sorted(joint_of_child[li] for level in chain.fk_levels
                      for li in level.children.tolist()) == list(range(len(chain.joints)))
        assert [chain.column_of[ji] for ji in chain.movable] == list(range(len(chain.movable)))
        products, skew = chain.movable_rodrigues
        for c, ji in enumerate(chain.movable):
            x, y, z = axis = chain.joints[ji].axis
            assert np.array_equal(chain.movable_axes[c], axis)
            assert np.array_equal(products[c], np.outer(axis, axis).ravel())
            assert np.array_equal(skew[c], [0.0, -z, y, z, 0.0, -x, -y, x, 0.0])
            assert chain.lower[c] == chain.joints[ji].lower_limit
            assert chain.upper[c] == chain.joints[ji].upper_limit
        assert chain.lower.shape == chain.upper.shape == (len(chain.movable),)
        for j, R, t in zip(chain.joints, chain.origin_rotation, chain.origin_translation):
            assert np.array_equal(R, j.origin.rotation())
            assert np.array_equal(t, j.origin.translation())
        shapes = chain.finger_shapes
        rows = [(finger, li) for finger, links in chain.finger_links.items() for li in links
                if chain.links[li].geometry is not None]
        assert list(zip(shapes.fingers, shapes.links.tolist())) == rows
        for row, (_, li) in enumerate(rows):
            link = chain.links[li]
            assert shapes.radius[row] == link.geometry.radius
            assert shapes.length[row] == link.geometry.length
            assert shapes.half_length[row] == 0.5 * link.geometry.length
            assert np.array_equal(shapes.translation[row], link.geometry_origin.translation())
            assert np.array_equal(shapes.axis[row], link.geometry_origin.rotation()[:, 2])
        with pytest.raises(ValueError):  # shared across callers, so read-only
            chain.origin_rotation[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            chain.fk_levels[0].origin_rotation[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            shapes.translation[0, 0] = 2.0
        with pytest.raises(ValueError):
            chain.upper[0] = 2.0
        with pytest.raises(ValueError):
            products[0, 0] = 2.0

    def test_joint_order_is_parent_first_when_the_file_is_not(self):
        links = "<link name='a'/><link name='b'/><link name='c'/>"
        joints = _rev("f_two", "b", "c") + _rev("f_one", "a", "b")
        chain = parse_robot_description(_doc(links, joints))
        levels = [[chain.joints[ji].name for ji, j in enumerate(chain.joints)
                   if j.child in level.children.tolist()] for level in chain.fk_levels]
        assert levels == [["f_one"], ["f_two"]]

    def test_fixed_joint_inside_a_finger(self):
        # f_one -> fixed mount -> f_two -> fixed tip, listed out of order:
        # one serial finger, base to tip, ending at the leaf
        links = "".join(f"<link name='{n}'/>" for n in ("palm", "tip", "p2", "p1b", "p1"))
        joints = (_fixed("f_tip", "p2", "tip") + _rev("f_two", "p1b", "p2")
                  + _fixed("f_mount", "p1", "p1b") + _rev("f_one", "palm", "p1"))
        chain = parse_robot_description(_doc(links, joints))
        ji = {j.name: i for i, j in enumerate(chain.joints)}
        li = chain.link_index
        assert chain.fingers == {"f": Finger(joints=(ji["f_one"], ji["f_two"]),
                                             end_effector=li["tip"])}
        assert chain.finger_links["f"] == (li["p1"], li["p1b"], li["p2"], li["tip"])
        assert chain.path_to_link[li["tip"]] == (ji["f_one"], ji["f_mount"], ji["f_two"],
                                                 ji["f_tip"])
        assert list(chain.path_to_link) == list(range(len(chain.links)))



class TestParserErrors:
    def test_not_xml(self):
        with pytest.raises(RobotDescriptionError, match="parse failure"):
            parse_robot_description("not xml at all <")

    def test_wrong_top_level(self):
        with pytest.raises(RobotDescriptionError, match="robot"):
            parse_robot_description("<model name='x'/>")

    def test_duplicate_link(self):
        with pytest.raises(RobotDescriptionError, match="duplicate link"):
            parse_robot_description(_doc("<link name='a'/><link name='a'/>", ""))

    def test_duplicate_joint(self):
        doc = _doc("<link name='a'/><link name='b'/><link name='c'/>",
                   _rev("f_j", "a", "b") + _rev("f_j", "b", "c"))
        with pytest.raises(RobotDescriptionError, match="duplicate joint"):
            parse_robot_description(doc)

    def test_unknown_parent_link(self):
        doc = _doc("<link name='a'/><link name='b'/>", _rev("f_j", "ghost", "b"))
        with pytest.raises(RobotDescriptionError, match="unknown link"):
            parse_robot_description(doc)

    def test_unsupported_joint_type(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   "<joint name='j' type='prismatic'>"
                   "<parent link='a'/><child link='b'/></joint>")
        with pytest.raises(RobotDescriptionError, match="unsupported type"):
            parse_robot_description(doc)

    def test_unsupported_geometry(self):
        doc = _doc("<link name='a'><collision><geometry>"
                   "<cylinder radius='0.1' length='1'/>"
                   "</geometry></collision></link>", "")
        with pytest.raises(RobotDescriptionError, match="unsupported geometry"):
            parse_robot_description(doc)

    def test_nonpositive_sphere(self):
        doc = _doc("<link name='a'><collision><geometry>"
                   "<sphere radius='0'/></geometry></collision></link>", "")
        with pytest.raises(RobotDescriptionError, match="radius"):
            parse_robot_description(doc)

    def test_zero_axis(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   "<joint name='f_j' type='revolute'><parent link='a'/>"
                   "<child link='b'/><axis xyz='0 0 0'/>"
                   "<limit lower='-1' upper='1'/></joint>")
        with pytest.raises(RobotDescriptionError, match="axis"):
            parse_robot_description(doc)

    def test_unknown_joint_child(self):
        # a misspelt <axis> must not fall back to the default +Z axis
        doc = _doc("<link name='a'/><link name='b'/>",
                   "<joint name='f_j' type='revolute'><parent link='a'/>"
                   "<child link='b'/><axes xyz='1 0 0'/>"
                   "<limit lower='-1' upper='1'/></joint>")
        with pytest.raises(RobotDescriptionError, match="unsupported element <axes>"):
            parse_robot_description(doc)

    def test_a_mimic_joint_is_rejected(self):
        # every movable joint is independent: a coupling is not dropped
        mimic = "<mimic joint='f_one' multiplier='0.8'/>"
        links = "<link name='a'/><link name='b'/><link name='c'/>"
        with pytest.raises(RobotDescriptionError,
                           match="joint 'f_two': unsupported element <mimic>"):
            parse_robot_description(_doc(links, _rev("f_one", "a", "b")
                                         + _rev("f_two", "b", "c", extra=mimic)))


    @pytest.mark.parametrize("attr,where", [
        ("lower='nan' upper='1'", "lower limit"),
        ("lower='-1' upper='inf'", "upper limit"),
        ("lower='abc' upper='1'", "lower limit"),
    ])
    def test_non_finite_limit(self, attr, where):
        doc = _doc("<link name='a'/><link name='b'/>",
                   _rev("f_j", "a", "b").replace("lower='-1' upper='1'", attr))
        with pytest.raises(RobotDescriptionError, match=f"joint 'f_j' {where}: expected a finite"):
            parse_robot_description(doc)

    @pytest.mark.parametrize("extra,where", [
        ("<origin xyz='nan 0 0'/>", "joint 'f_j' origin xyz"),
        ("<origin rpy='0 inf 0'/>", "joint 'f_j' origin rpy"),
    ])
    def test_non_finite_origin(self, extra, where):
        doc = _doc("<link name='a'/><link name='b'/>", _rev("f_j", "a", "b", extra))
        with pytest.raises(RobotDescriptionError, match=f"{where}: expected a finite"):
            parse_robot_description(doc)

    def test_non_finite_axis(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   _rev("f_j", "a", "b").replace("xyz='0 0 1'", "xyz='0 0 inf'"))
        with pytest.raises(RobotDescriptionError, match="joint 'f_j' axis: expected a finite"):
            parse_robot_description(doc)

    @pytest.mark.parametrize("shape,where", [
        ("<sphere radius='inf'/>", "sphere radius"),
        ("<sphere radius='abc'/>", "sphere radius"),
        ("<capsule radius='nan' length='0.1'/>", "capsule radius"),
        ("<capsule radius='0.01' length='inf'/>", "capsule length"),
        ("<box size='nan 1 1'/>", "box size"),
    ])
    def test_non_finite_geometry(self, shape, where):
        doc = _doc(f"<link name='a'><collision><geometry>{shape}</geometry></collision></link>", "")
        with pytest.raises(RobotDescriptionError, match=f"link 'a' {where}: expected a finite"):
            parse_robot_description(doc)


class TestStructuralValidation:
    def test_missing_revolute_limits(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   "<joint name='f_j' type='revolute'>"
                   "<parent link='a'/><child link='b'/><axis xyz='0 0 1'/></joint>")
        with pytest.raises(ValidationError, match="limits"):
            parse_robot_description(doc)

    def test_inverted_limits(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   _rev("f_j", "a", "b").replace("lower='-1' upper='1'",
                                                 "lower='1' upper='-1'"))
        with pytest.raises(ValidationError, match="lower limit exceeds"):
            parse_robot_description(doc)

    def test_two_roots(self):
        doc = _doc("<link name='a'/><link name='b'/><link name='c'/>",
                   _rev("f_j", "a", "b"))
        with pytest.raises(ValidationError, match="single root"):
            parse_robot_description(doc)

    def test_link_with_two_parents(self):
        doc = _doc("<link name='a'/><link name='b'/>",
                   _rev("f_j", "a", "b") + _rev("g_j", "a", "b"))
        with pytest.raises(ValidationError, match="multiple parent"):
            parse_robot_description(doc)

    def test_cycle_beside_the_root(self):
        # 'a' is the one root; 'c' and 'd' are each other's parent
        doc = _doc("<link name='a'/><link name='b'/><link name='c'/><link name='d'/>",
                   _rev("f_j", "a", "b") + _rev("g_j", "c", "d") + _rev("g_k", "d", "c"))
        with pytest.raises(ValidationError, match="cycle detected at link 'c'"):
            parse_robot_description(doc)

    def test_a_box_on_a_finger_link_is_rejected(self):
        # contact detection probes only capsules and spheres; a box on the
        # root, which is no finger's link, is accepted as the palm's is
        box = "<collision><geometry><box size='0.02 0.02 0.02'/></geometry></collision>"
        joints = _rev("f_j", "a", "b")
        parse_robot_description(_doc(f"<link name='a'>{box}</link><link name='b'/>", joints))
        with pytest.raises(ValidationError, match="finger link 'b': box collision geometry"):
            parse_robot_description(_doc(f"<link name='a'/><link name='b'>{box}</link>", joints))

    def test_thumb_dof_enforced_when_thumb_present(self):
        # a 1-dof "thumb" plus nothing else must be rejected
        doc = _doc("<link name='a'/><link name='b'/>", _rev("thumb_yaw", "a", "b"))
        with pytest.raises(ValidationError, match="thumb"):
            parse_robot_description(doc)

    def test_forked_finger_rejected(self):
        doc = _doc("<link name='a'/><link name='b'/><link name='c'/><link name='d'/>",
                   _rev("f_one", "a", "b") + _rev("f_two", "a", "c")
                   + _rev("f_three", "b", "d"))
        with pytest.raises(ValidationError, match="serial chain"):
            parse_robot_description(doc)

    @pytest.mark.parametrize("joints,message", [
        # another finger's revolute joint between two of f's
        (_rev("f_one", "a", "b") + _rev("g_one", "b", "c") + _rev("f_two", "c", "d"),
         "finger 'f': joints do not form a single serial chain"),
        # two fixed branches below f's last joint
        (_rev("f_one", "a", "b") + _fixed("f_c", "b", "c") + _fixed("f_d", "b", "d"),
         "finger 'f': branches below its last joint"),
    ], ids=["other_finger_between", "branch_below_last"])
    def test_finger_that_is_not_one_chain(self, joints, message):
        doc = _doc("<link name='a'/><link name='b'/><link name='c'/><link name='d'/>", joints)
        with pytest.raises(ValidationError, match=message):
            parse_robot_description(doc)

    @pytest.mark.parametrize("text,old,new,message", [
        # the roll as a joint of finger "wrist", above the index finger,
        # so the wrist finger's tip, the index tip, lies below index_base
        (WRIST_HAND, "index_roll", "wrist_roll",
         "finger 'wrist': its path from the root passes joint 'index_base' of finger 'index'"),
        # b_branch hung off mid, below finger a's first joint; finger b
        # comes second in joint order
        (TIP_FIRST_TREE, '<parent link="base"/><child link="branch"/>',
         '<parent link="mid"/><child link="branch"/>',
         "finger 'b': its path from the root passes joint 'a_mid' of finger 'a'"),
    ], ids=["wrist_above_index", "branch_below_other_finger"])
    def test_a_finger_below_another_fingers_joint_is_rejected(self, text, old, new, message):
        parse_robot_description(text)
        assert old in text
        with pytest.raises(ValidationError, match=f"^{message}; each finger must hang off"):
            parse_robot_description(text.replace(old, new))


def test_data_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("GRASPFORGE_DATA_DIR", str(tmp_path))
    assert bundled_data_dir() == str(tmp_path)
    assert bundled_hand_path().startswith(str(tmp_path))
    monkeypatch.delenv("GRASPFORGE_DATA_DIR")
    assert bundled_data_dir().endswith("data")


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_robot_description(str(tmp_path / "nope.urdf"))
