import math

import numpy as np
import pytest

from graspforge.config import ConfigError
from graspforge.contact import ContactPoint
from graspforge.grasp_validation import (FAILURE_CLOSURE, FAILURE_NONE, FAILURE_SPREAD,
                                         FAILURE_TOO_FEW, GraspAssessment,
                                         ValidationConfig,
                                         grasp_center, validate_grasp)


def cp(position, normal, force=1.0, finger="f", link=0):
    return ContactPoint(finger=finger, link=link, position=position, normal=normal,
                        penetration_depth=1e-3, normal_force=force)


def opposing_square(force=1.0, r=0.03):
    """Four contacts around a box: normals cancel pairwise."""
    return [
        cp((r, 0, 0), (1, 0, 0), force),
        cp((-r, 0, 0), (-1, 0, 0), force),
        cp((0, r, 0), (0, 1, 0), force),
        cp((0, -r, 0), (0, -1, 0), force),
    ]


def brute_force_verdict(contacts, cfg):
    """Plain-python recomputation of the verdict, no shared code paths."""
    held = [c for c in contacts if c.normal_force >= cfg.min_contact_force]
    if len(held) < cfg.min_contacts:
        return False, FAILURE_TOO_FEW
    pts = [[float(v) for v in c.position] for c in held]
    center = [sum(p[i] for p in pts) / len(pts) for i in range(3)]
    worst = max(math.dist(p, center) for p in pts)
    if worst > cfg.distribution_threshold:
        return False, FAILURE_SPREAD
    total = [0.0, 0.0, 0.0]
    for c in held:
        mag = math.sqrt(sum(float(v) ** 2 for v in c.normal))
        for i in range(3):
            total[i] += float(c.normal[i]) / mag
    if math.sqrt(sum(v * v for v in total)) > cfg.force_closure_threshold:
        return False, FAILURE_CLOSURE
    return True, FAILURE_NONE


def test_opposing_contacts_are_stable():
    a = validate_grasp(opposing_square())
    assert a.stable
    assert a.failure_reason == FAILURE_NONE
    assert a.contact_count == 4
    assert a.closure_residual == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(a.center, 0.0, atol=1e-12)


def test_aligned_normals_fail_closure():
    contacts = [cp((0.01 * i, 0, 0), (0, 0, 1)) for i in range(4)]
    a = validate_grasp(contacts)
    assert not a.stable
    assert a.failure_reason == FAILURE_CLOSURE
    assert a.closure_residual == pytest.approx(4.0)


def test_three_contacts_are_too_few():
    a = validate_grasp(opposing_square()[:3])
    assert not a.stable
    assert a.failure_reason == FAILURE_TOO_FEW
    assert a.contact_count == 3


def test_scattered_contacts_fail_spread():
    a = validate_grasp(opposing_square(r=0.2))
    assert not a.stable
    assert a.failure_reason == FAILURE_SPREAD
    assert a.max_distance == pytest.approx(0.2)


def test_too_few_outranks_spread_and_closure():
    # two distant, aligned contacts: every check is violated at once
    contacts = [cp((0.5, 0, 0), (0, 0, 1)), cp((-0.5, 0, 0), (0, 0, 1))]
    assert validate_grasp(contacts).failure_reason == FAILURE_TOO_FEW


def test_weak_contacts_are_not_established():
    contacts = opposing_square() + [cp((0, 0, 0.02), (0, 0, 1), force=0.49)]
    a = validate_grasp(contacts)
    assert a.contact_count == 4  # the weak one never entered the count
    assert a.stable


def test_force_threshold_is_inclusive():
    a = validate_grasp(opposing_square(force=0.5))
    assert a.contact_count == 4
    assert a.stable


def test_normals_are_renormalized_before_summing():
    contacts = opposing_square()
    doubled = [cp(c.position, 2.0 * np.asarray(c.normal)) for c in contacts]
    assert validate_grasp(doubled).closure_residual == pytest.approx(0.0, abs=1e-12)


def test_verdict_is_permutation_invariant():
    contacts = opposing_square()
    forward = validate_grasp(contacts)
    backward = validate_grasp(list(reversed(contacts)))
    assert forward.stable == backward.stable
    assert forward.failure_reason == backward.failure_reason
    assert forward.max_distance == pytest.approx(backward.max_distance)


def test_verdict_is_rigid_motion_invariant():
    from graspforge.transforms import rpy_matrix
    rng = np.random.default_rng(4)
    for _ in range(25):
        contacts = _random_contacts(rng)
        R = rpy_matrix(*rng.uniform(-np.pi, np.pi, 3))
        t = rng.uniform(-1, 1, 3)
        moved = [cp(R @ np.asarray(c.position) + t, R @ np.asarray(c.normal),
                    c.normal_force) for c in contacts]
        a, b = validate_grasp(contacts), validate_grasp(moved)
        assert a.stable == b.stable
        assert a.failure_reason == b.failure_reason


def _random_contacts(rng):
    n = int(rng.integers(1, 9))
    scale = float(rng.choice([0.02, 0.08, 0.3]))
    contacts = []
    for _ in range(n):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        contacts.append(cp(rng.uniform(-scale, scale, 3), normal,
                           force=float(rng.uniform(0.0, 2.0))))
    return contacts


def test_matches_brute_force_recomputation():
    rng = np.random.default_rng(21)
    cfg = ValidationConfig()
    for _ in range(300):
        contacts = _random_contacts(rng)
        a = validate_grasp(contacts, cfg)
        stable, reason = brute_force_verdict(contacts, cfg)
        assert (a.stable, a.failure_reason) == (stable, reason)


def test_closure_residual_bounded_by_contact_count():
    rng = np.random.default_rng(8)
    for _ in range(50):
        contacts = _random_contacts(rng)
        a = validate_grasp(contacts)
        assert a.closure_residual <= a.contact_count + 1e-9


def test_grasp_center_mean_and_empty():
    assert np.allclose(grasp_center(opposing_square()), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        grasp_center([])


def test_no_contacts_at_all():
    a = validate_grasp([])
    assert not a.stable
    assert a.failure_reason == FAILURE_TOO_FEW
    assert a.contact_count == 0
    assert np.allclose(a.center, 0.0)


def test_assessment_to_dict_round_trips_through_json():
    import json
    a = validate_grasp(opposing_square())
    blob = json.loads(json.dumps(a.to_dict()))
    assert blob["stable"] is True
    assert blob["contact_count"] == 4
    assert blob["failure_reason"] == FAILURE_NONE
    assert len(blob["center"]) == 3


@pytest.mark.parametrize("kwargs", [
    {"min_contacts": 0},
    {"distribution_threshold": 0.0},
    {"force_closure_threshold": -0.5},
    {"min_contact_force": 0.0},
    {"min_contacts": 2.5},
    {"min_contacts": True},
    {"distribution_threshold": math.inf},
    {"force_closure_threshold": math.inf},
    {"min_contact_force": math.inf},
    {"distribution_threshold": "abc"},
    {"force_closure_threshold": "abc"},
    {"min_contact_force": "abc"},
])
def test_config_rejects_bad_values(kwargs):
    (key,) = kwargs
    with pytest.raises(ConfigError, match=key):  # the message names the key
        ValidationConfig(**kwargs)


def test_custom_min_contacts():
    cfg = ValidationConfig(min_contacts=2)
    contacts = opposing_square()[:2]
    a = validate_grasp(contacts, cfg)
    assert a.stable  # the +-x pair alone cancels


def test_assessment_center_matches_held_contacts_only():
    contacts = opposing_square() + [cp((1.0, 1.0, 1.0), (0, 0, 1), force=0.1)]
    a = validate_grasp(contacts)
    assert np.allclose(a.center, 0.0, atol=1e-12)
