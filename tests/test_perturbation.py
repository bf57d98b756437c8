import io

import numpy as np
import pytest

from graspforge.contact import ContactPoint
from graspforge.grasp_validation import ValidationConfig
from graspforge.kinematics import Pose
from graspforge.perturbation import (FREE_SLIDE_GAIN, PerturbConfig, PerturbConfigError,
                                     PerturbationReport, object_response,
                                     perturb_contacts, perturbation_test,
                                     write_samples_csv)
from graspforge.scene import PhysicalParams, make_box_object

STIFFNESS = 10000.0


def _obj():
    return make_box_object((0.03, 0.025, 0.03), Pose(position=(0, 0, 0)), 0.2,
                           PhysicalParams())


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
        d = object_response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                            np.array([0.0, 0.0, -1.0]))
        assert np.allclose(d, [0.0, 0.0, -1.0 / STIFFNESS], atol=1e-12)

    def test_unresisted_force_slides_freely(self):
        d = object_response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                            np.array([1.0, 0.0, 0.0]))
        assert np.allclose(d, [FREE_SLIDE_GAIN, 0.0, 0.0], atol=1e-12)

    def test_mixed_force_splits_into_both_regimes(self):
        d = object_response(_obj(), [_cp((0, 0, 0.03), (0, 0, 1))],
                            np.array([1.0, 0.0, -1.0]))
        assert np.allclose(d, [FREE_SLIDE_GAIN, 0.0, -1.0 / STIFFNESS], atol=1e-12)

    def test_lateral_escape_threshold_sits_at_0_4_newtons(self):
        contact = [_cp((0, 0, 0.03), (0, 0, 1))]
        slip_big = np.linalg.norm(object_response(_obj(), contact, np.array([0.41, 0, 0])))
        slip_small = np.linalg.norm(object_response(_obj(), contact, np.array([0.39, 0, 0])))
        assert slip_big > 0.02
        assert slip_small < 0.02

    def test_tetrahedral_normals_resist_isotropically(self):
        contacts = tetra_contacts()
        for F in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1.0, 1.0])):
            d = object_response(_obj(), contacts, F)
            # K = (4/3) k I, so displacement is parallel to the force
            assert np.allclose(d, F / (4.0 / 3.0 * STIFFNESS), atol=1e-12)

    def test_no_contacts_means_pure_slide(self):
        d = object_response(_obj(), [], np.array([0.2, -0.1, 0.3]))
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
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(PerturbConfigError):
        PerturbConfig(**kwargs)
