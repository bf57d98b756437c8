import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graspforge.config import ConfigError
from graspforge.contact import ContactPoint, detect_contacts
from graspforge.grasp_validation import ValidationConfig
from graspforge.kinematics import Pose
from graspforge.perturbation import (FREE_SLIDE_GAIN, PerturbConfig,
                                     PerturbationReport, _compliance, _displacements,
                                     perturb_contacts, perturbation_test,
                                     write_samples_csv)
from graspforge.scene import PhysicalParams, make_box_object

from reference import reference_compliance, reference_displacement, reference_perturb

STIFFNESS = 10000.0


def _obj():
    return make_box_object((0.03, 0.025, 0.03), Pose(position=(0, 0, 0)), 0.2,
                           PhysicalParams())


def _response(obj, contacts, F):
    """Object displacement under force F, computed as the perturbation rounds are."""
    normals = np.array([c.normal for c in contacts]).reshape(-1, 3)
    return _displacements(_compliance(obj, normals), F[None])[0]


def _cp(position, normal, force=2.0):
    return ContactPoint(finger="f", link=0, position=position, normal=normal,
                        penetration_depth=1e-3, normal_force=force)


def tetra_contacts():
    """Four normals at tetrahedral angles: stiffness (4/3)k along every axis."""
    s = 1.0 / np.sqrt(3.0)
    normals = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    return [_cp(-0.01 * np.asarray(n), n) for n in normals]


def square_contacts():
    # +-x and +-y pairs; nothing resists z
    return [_cp((0.03, 0, 0), (1, 0, 0)), _cp((-0.03, 0, 0), (-1, 0, 0)),
            _cp((0, 0.03, 0), (0, 1, 0)), _cp((0, -0.03, 0), (0, -1, 0))]


class TestObjectResponse:
    def test_aligned_force_moves_by_spring_compliance(self):
        d = _response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                      np.array([0.0, 0.0, -1.0]))
        assert np.allclose(d, [0.0, 0.0, -1.0 / STIFFNESS], atol=1e-12)

    def test_unresisted_force_slides_freely(self):
        d = _response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                      np.array([1.0, 0.0, 0.0]))
        assert np.allclose(d, [FREE_SLIDE_GAIN, 0.0, 0.0], atol=1e-12)

    def test_mixed_force_splits_into_both_regimes(self):
        d = _response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                      np.array([1.0, 0.0, -1.0]))
        assert np.allclose(d, [FREE_SLIDE_GAIN, 0.0, -1.0 / STIFFNESS], atol=1e-12)

    def test_lateral_escape_threshold_sits_at_0_4_newtons(self):
        contact = [_cp((0, 0, 0.03), (0, 0, 1))]
        slip_big = np.linalg.norm(_response(_obj(), contact, np.array([0.41, 0, 0])))
        slip_small = np.linalg.norm(_response(_obj(), contact, np.array([0.39, 0, 0])))
        assert slip_big > 0.02
        assert slip_small < 0.02

    def test_tetrahedral_normals_resist_isotropically(self):
        contacts = tetra_contacts()
        for F in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1.0, 1.0])):
            d = _response(_obj(), contacts, F)
            # K = (4/3) k I, so displacement is parallel to the force
            assert np.allclose(d, F / (4.0 / 3.0 * STIFFNESS), atol=1e-12)

    def test_no_contacts_means_pure_slide(self):
        d = _response(_obj(), [], np.array([0.2, -0.1, 0.3]))
        assert np.allclose(d, FREE_SLIDE_GAIN * np.array([0.2, -0.1, 0.3]), atol=1e-12)


class TestPerturbContacts:
    def test_zero_bound_probe_passes_with_zero_motion(self):
        rep = perturb_contacts(_obj(), square_contacts(), PerturbConfig(force_bound=0.0))
        assert rep.passed
        assert rep.iterations_run == 100
        assert rep.max_displacement == 0.0
        assert rep.failure_iteration is None

    def test_no_contacts_fail_before_any_round(self):
        rep = perturb_contacts(_obj(), [], PerturbConfig())
        assert not rep.passed
        assert rep.iterations_run == 0
        assert rep.samples == []
        assert rep.max_displacement == 0.0

    def test_single_contact_fails_the_precheck(self):
        rep = perturb_contacts(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))], PerturbConfig())
        assert not rep.passed
        assert rep.iterations_run == 0

    def test_tetrahedral_grasp_passes_every_seed(self):
        contacts = tetra_contacts()
        bound = np.sqrt(3.0) / STIFFNESS  # analytic worst case for |F| <= sqrt(3)
        for seed in range(10):
            rep = perturb_contacts(_obj(), contacts, PerturbConfig(seed=seed))
            assert rep.passed
            assert rep.iterations_run == 100
            assert len(rep.samples) == 100
            assert 0.0 < rep.max_displacement <= bound

    def test_runs_are_seed_deterministic(self):
        a = perturb_contacts(_obj(), tetra_contacts(), PerturbConfig(seed=7))
        b = perturb_contacts(_obj(), tetra_contacts(), PerturbConfig(seed=7))
        assert a.max_displacement == b.max_displacement
        assert all(np.array_equal(fa, fb) and da == db
                   for (fa, da), (fb, db) in zip(a.samples, b.samples))

    def test_samples_equal_object_response(self, scenario, grasp_run):
        # the rounds share one compliance build; each sample must still be
        # exactly what a fresh compliance build gives for its force
        state, _, _ = grasp_run
        cases = [(_obj(), tetra_contacts(), PerturbConfig(seed=4)),
                 (_obj(), square_contacts(), PerturbConfig(force_bound=50.0, seed=3)),
                 (scenario.scene.object, detect_contacts(scenario.scene, state),
                  PerturbConfig(seed=11))]
        for obj, contacts, cfg in cases:
            rep = perturb_contacts(obj, contacts, cfg)
            assert rep.samples
            for F, d in rep.samples:
                assert d == np.linalg.norm(_response(obj, contacts, F))

    def test_failure_stops_at_first_bad_round(self):
        # +-x/+-y square leaves z unresisted; a big bound slides past 0.02 m
        rep = perturb_contacts(_obj(), square_contacts(),
                               PerturbConfig(force_bound=50.0, seed=3))
        assert not rep.passed
        assert rep.failure_iteration is not None
        assert rep.iterations_run == rep.failure_iteration
        assert len(rep.samples) == rep.failure_iteration
        assert rep.max_displacement > 0.02

    def test_displacement_grows_with_force_bound(self):
        contacts = tetra_contacts()
        for seed in range(50):
            small = perturb_contacts(_obj(), contacts,
                                     PerturbConfig(force_bound=0.5, seed=seed))
            large = perturb_contacts(_obj(), contacts,
                                     PerturbConfig(force_bound=2.0, seed=seed))
            assert large.max_displacement >= small.max_displacement

    def test_unstable_validation_config_is_respected(self):
        # a 2-contact grasp passes only if min_contacts allows it
        pair = square_contacts()[:2]
        strict = perturb_contacts(_obj(), pair, PerturbConfig(force_bound=0.0))
        lax = perturb_contacts(_obj(), pair, PerturbConfig(force_bound=0.0),
                               ValidationConfig(min_contacts=2))
        assert not strict.passed and strict.iterations_run == 0
        assert lax.passed


_direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


@st.composite
def _normal_sets(draw):
    """1 to 6 contact normals: drawn directions, antipodal pairs, normals in
    one plane, or box-axis normals.  Fewer than three independent normals
    leave K a null space, where the free-slide gain applies."""
    kind = draw(st.sampled_from(["drawn", "antipodal", "coplanar", "axes"]))
    n = draw(st.integers(1, 6))
    if kind == "axes":
        normals = [np.eye(3)[i] * s for i, s in
                   draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1.0, -1.0])),
                                 min_size=n, max_size=n))]
    else:
        normals = [np.array(draw(_direction)) for _ in range(n)]
    if kind == "antipodal":
        normals = normals[:(n + 1) // 2]
        normals = (normals + [-v for v in normals])[:n]
    elif kind == "coplanar":  # the plane z = 0, and a rotation of it
        R = np.linalg.qr(np.array([draw(_direction) for _ in range(3)]))[0]
        normals = [R @ np.array([v[0], v[1], 0.0]) for v in normals
                   if np.hypot(v[0], v[1]) > 1e-3] or [R[:, 0]]
    return normals


_force_component = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0])


@given(_normal_sets(),
       st.lists(st.lists(_force_component, min_size=3, max_size=3), min_size=1, max_size=8))
def test_displacement_rows_equal_the_one_round_reference_bitwise(normals, forces):
    compliance = _compliance(_obj(), np.array(normals))
    forces = np.array(forces)
    rows = _displacements(compliance, forces)
    assert rows.shape == forces.shape
    for F, row in zip(forces, rows):
        assert row.tobytes() == reference_displacement(compliance, F).tobytes()


@given(_normal_sets())
def test_compliance_equals_the_per_contact_reference_bitwise(normals):
    """K summed over the normals array, and so its eigenpairs and cutoff,
    keep the bits of the loop that adds one contact at a time; the box-axis
    normals carry signed zeros."""
    obj = _obj()
    ours = _compliance(obj, np.array(normals))
    theirs = reference_compliance(obj, [_cp(np.zeros(3), n) for n in normals])
    assert [np.asarray(v).tobytes() for v in ours] == [np.asarray(v).tobytes() for v in theirs]


def _report_bytes(rep):
    return (rep.passed, rep.iterations_run, type(rep.max_displacement),
            rep.max_displacement.hex(), rep.failure_iteration, rep.seed,
            [(type(F), F.shape, F.tobytes(), type(d), d.hex()) for F, d in rep.samples])


# validates any nonempty set of the drawn unit normals as stable
_LAX = ValidationConfig(min_contacts=1, distribution_threshold=1.0,
                        force_closure_threshold=10.0)


_TETRA_NORMALS = [c.normal for c in tetra_contacts()]


@example(normals=_TETRA_NORMALS, seed=0, iterations=1, force_bound=1.0, exit_at="none",
         lax=True)
@example(normals=_TETRA_NORMALS, seed=5, iterations=100, force_bound=0.0, exit_at="none",
         lax=True)
@example(normals=_TETRA_NORMALS, seed=5, iterations=100, force_bound=1.0, exit_at="first",
         lax=True)
@example(normals=_TETRA_NORMALS, seed=5, iterations=100, force_bound=1.0, exit_at="last",
         lax=True)
@example(normals=_TETRA_NORMALS, seed=5, iterations=1, force_bound=1.0, exit_at="last",
         lax=True)
@given(_normal_sets(), st.integers(0, 2**32 - 1), st.integers(1, 100),
       st.just(0.0) | st.floats(0.0, 50.0), st.sampled_from(["none", "first", "last"]),
       st.sampled_from([True, True, True, False]))  # mostly past the precheck
def test_perturb_contacts_equals_the_per_round_reference_bitwise(normals, seed, iterations,
                                                                   force_bound, exit_at, lax):
    """Every field and sample byte of the stacked report equal the per-round
    loop's, whether the rounds pass, stop at round 1 or stop at the last
    round, on one round, at zero force, and when the precheck fails."""
    obj = _obj()
    contacts = [_cp(np.zeros(3), n) for n in normals]
    validation = _LAX if lax else None
    threshold, failure = 1e-3, None
    if exit_at != "none":
        # the norms of an uncut run place the threshold just below round 1,
        # or just below the largest round, which then ends the run
        uncut = reference_perturb(obj, contacts, PerturbConfig(
            iterations, force_bound, np.finfo(float).max, seed), validation)
        norms = [d for _, d in uncut.samples]
        failure = 1 if exit_at == "first" else int(np.argmax(norms or [0.0])) + 1
        if norms and norms[failure - 1] > 0.0:
            threshold = max(norms[:failure - 1], default=np.nextafter(norms[0], 0.0))
            if exit_at == "last":
                iterations = failure
        else:
            failure = None
    cfg = PerturbConfig(iterations, force_bound, threshold, seed)
    rep = perturb_contacts(obj, contacts, cfg, validation)
    assert _report_bytes(rep) == _report_bytes(reference_perturb(obj, contacts, cfg, validation))
    if failure is not None:
        assert rep.failure_iteration == rep.iterations_run == failure


def test_perturbation_test_on_the_executed_grasp(scenario, grasp_run):
    state, _, assessment = grasp_run
    assert assessment.stable
    rep = perturbation_test(scenario.scene, state, scenario.perturb,
                            scenario.validation)
    assert rep.passed
    assert rep.iterations_run == scenario.perturb.iterations
    assert rep.max_displacement < scenario.perturb.displacement_threshold


def test_report_to_dict_is_json_ready():
    import json
    rep = perturb_contacts(_obj(), tetra_contacts(), PerturbConfig(iterations=3))
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["passed"] is True
    assert blob["iterations_run"] == 3
    assert len(blob["samples"]) == 3
    assert set(blob["samples"][0]) == {"force", "displacement"}


def test_samples_csv_is_plain_numbers():
    rep = PerturbationReport(passed=True, iterations_run=2, max_displacement=0.5,
                             samples=[(np.array([1.0, 2.0, 3.0]), 0.25),
                                      (np.array([0.0, -1.0, 0.5]), 0.5)])
    buf = io.StringIO()
    write_samples_csv(rep, buf)
    assert buf.getvalue() == ("iteration,fx,fy,fz,displacement\n"
                              "1,1.0,2.0,3.0,0.25\n"
                              "2,0.0,-1.0,0.5,0.5\n")


@pytest.mark.parametrize("kwargs", [
    {"iterations": 0},
    {"force_bound": -1.0},
    {"displacement_threshold": 0.0},
    {"iterations": 2.5},
    {"iterations": True},
    {"seed": 1.7},
    {"seed": True},
    {"seed": -1},
    {"force_bound": float("inf")},
    {"force_bound": float("nan")},
    {"displacement_threshold": float("inf")},
    {"displacement_threshold": "abc"},
])
def test_config_rejects_bad_values(kwargs):
    (key,) = kwargs
    with pytest.raises(ConfigError, match=key):  # the message names the key
        PerturbConfig(**kwargs)
