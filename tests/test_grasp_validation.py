import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graspforge.config import ConfigError
from graspforge.contact import ContactPoint
from graspforge.controller import execute_grasp
from graspforge.grasp_validation import (FAILURE_CLOSURE, FAILURE_NONE, FAILURE_SPREAD,
                                         FAILURE_TOO_FEW, GraspAssessment,
                                         ValidationConfig, _REASONS, _assess_rows,
                                         _assessment, validate_grasp)

from reference import reference_validate


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


def test_center_is_the_mean_of_the_held_positions():
    contacts = [cp((0.01, 0.02, 0.0), (1, 0, 0)), cp((0.03, 0.0, 0.0), (-1, 0, 0)),
                cp((0.5, 0.5, 0.5), (0, 0, 1), force=0.1)]
    a = validate_grasp(contacts)
    assert a.contact_count == 2
    assert np.allclose(a.center, [0.02, 0.01, 0.0], atol=1e-15)


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


# --------------------------------------------------------------------------
# the validation core against the per-contact oracle, bit for bit


def _bits(a):
    return (a.stable, a.contact_count, a.center.tobytes(), float(a.max_distance).hex(),
            float(a.closure_residual).hex(), a.failure_reason)


def _assert_rows_equal_the_oracle(at, positions, normals, forces, count, cfg):
    """Every row of one `_assess_rows` call equals `reference_validate` on
    that row's contacts, and so does `validate_grasp` on them as a list."""
    verdicts = _assess_rows(at, positions, normals, forces, count, cfg)
    assert verdicts[0].tolist() == (forces >= cfg.min_contact_force).tolist()
    for row in range(count):
        mine = at == row
        contacts = [cp(p, n, f) for p, n, f in zip(positions[mine], normals[mine],
                                                   forces[mine].tolist())]
        expected = _bits(reference_validate(contacts, cfg))
        assert _bits(_assessment(verdicts, row)) == expected
        assert _bits(validate_grasp(contacts, cfg)) == expected


_CONFIGS = [ValidationConfig(),
            ValidationConfig(min_contacts=1, distribution_threshold=0.03,
                             force_closure_threshold=1.0),
            ValidationConfig(min_contacts=2, distribution_threshold=10.0,
                             force_closure_threshold=10.0)]


def _drawn_rows(seed: int):
    """A contact set of 1 to 40 rows as arrays, from one seed: rows of 0 to
    8 contacts, and now and then 15; coordinates of +-0.0 and of a few
    grid values, so that rows repeat contacts; unit, axis and slightly
    long normals; forces at, just under and above the 0.5 N minimum."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 41))
    sizes = np.where(rng.random(count) < 0.1, 15, rng.integers(0, 9, size=count))
    at = np.repeat(np.arange(count), sizes)
    m = len(at)
    grid = np.array([0.0, -0.0, 0.01, -0.01, 0.025, 0.0125])
    positions = np.where(rng.random((m, 3)) < 0.5, rng.choice(grid, size=(m, 3)),
                         rng.normal(0.0, 0.04, size=(m, 3)))
    normals = rng.normal(size=(m, 3))
    normals /= np.sqrt((normals * normals).sum(axis=1))[:, None]
    axis = rng.random(m) < 0.3
    normals[axis] = np.eye(3)[rng.integers(0, 3, size=axis.sum())] * rng.choice(
        [1.0, -1.0], size=(axis.sum(), 1))
    normals[rng.random(m) < 0.1] *= 1.0 + 1e-6
    forces = rng.choice([0.5, np.nextafter(0.5, 0.0), 0.2, 1.0, 16.0], size=m)
    return at, positions, normals, forces, count


@given(st.integers(0, 2**32 - 1), st.sampled_from(_CONFIGS))
def test_every_row_of_the_core_equals_the_oracle_bitwise(seed, cfg):
    _assert_rows_equal_the_oracle(*_drawn_rows(seed), cfg)


def test_the_oracle_cases_reach_every_verdict():
    """The drawn sets reach every failure reason, and rows of 0 and 1
    established contacts."""
    reasons, held = set(), set()
    for seed in range(40):
        for cfg in _CONFIGS:
            at, positions, normals, forces, count = _drawn_rows(seed)
            _, counts, _, _, _, codes = _assess_rows(at, positions, normals, forces, count, cfg)
            reasons.update(_REASONS[code] for code in codes.tolist())
            held.update(counts.tolist())
    assert reasons == {FAILURE_NONE, FAILURE_TOO_FEW, FAILURE_SPREAD, FAILURE_CLOSURE}
    assert {0, 1} <= held


def test_the_bundled_speculated_rows_equal_the_oracle_bitwise(scenario, monkeypatch):
    """The 48 rows of the bundled grasp's three contact_opt blocks, the 13
    rolled-back rows among them, each equal the per-contact oracle."""
    import graspforge.controller
    calls = []

    def recorded(*args):
        calls.append(args)
        return _assess_rows(*args)

    monkeypatch.setattr(graspforge.controller, "_assess_rows", recorded)
    execute_grasp(scenario.scene, scenario.targets, scenario.run, scenario.ik,
                  scenario.validation)
    assert [args[4] for args in calls] == [16, 16, 16]
    assert sum(len(args[0]) for args in calls) > 0
    for args in calls:
        _assert_rows_equal_the_oracle(*args)
