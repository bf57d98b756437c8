import io
import json

import numpy as np
import pytest

from graspforge.controller import PHASES, TrajectoryLog
from graspforge.grasp_validation import GraspAssessment
from graspforge.metrics import (EPSILON, SUCCESS_THRESHOLD, FingerMetrics, MetricsError,
                                RunSummary, movement_efficiency, path_length, positional_error,
                                summarize_run, write_metrics_csv)
from graspforge.perturbation import PerturbationReport

# published reference run: (distance to target, total movement) in meters
TABLE = {
    "thumb": (0.0519, 0.0344),
    "index": (0.0283, 0.0184),
    "middle": (0.0276, 0.0185),
    "ring": (0.0275, 0.0185),
    "pinky": (0.0267, 0.0187),
}


def make_log(tracks):
    """TrajectoryLog from {finger: [positions]}, one row per position every
    0.1 s; all tracks equal length."""
    fingers = tuple(tracks)
    n = len(next(iter(tracks.values())))
    positions = np.stack([np.asarray(tracks[f], dtype=float).reshape(n, 3) for f in fingers],
                         axis=1)
    return TrajectoryLog(fingers=fingers, hz=10.0, end_step=n - 1, control_steps=range(n),
                         positions=positions, contact_counts=[0] * n,
                         phases=[PHASES.index("monitor")] * n)


class TestMovementEfficiency:
    def test_guard_epsilon_value(self):
        assert movement_efficiency(1.0, 2.0) == pytest.approx(1.0 / (2.0 + EPSILON),
                                                              rel=1e-15)

    def test_zero_travel_is_finite(self):
        assert movement_efficiency(0.05, 0.0) == pytest.approx(0.05 / EPSILON)

    def test_zero_over_zero(self):
        assert movement_efficiency(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("d_t,d_m", [(-0.1, 1.0), (1.0, -0.1)])
    def test_negative_distances_rejected(self, d_t, d_m):
        with pytest.raises(MetricsError):
            movement_efficiency(d_t, d_m)


class TestPathLength:
    def test_polyline(self):
        assert path_length([[0, 0, 0], [1, 0, 0], [1, 1, 0]]) == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert path_length([[3, 2, 1]]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            path_length([])

    def test_back_and_forth_accumulates(self):
        assert path_length([[0, 0, 0], [1, 0, 0], [0, 0, 0]]) == pytest.approx(2.0)


def test_positional_error_vector_and_norm():
    e, d = positional_error([1.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    assert np.allclose(e, [1.0, 2.0, 2.0])
    assert d == pytest.approx(3.0)


class TestSummarizeRun:
    def test_exact_single_finger_numbers(self):
        log = make_log({"index": [[0, 0, 0], [0.03, 0, 0], [0.03, 0.04, 0]]})
        metrics, summary = summarize_run(log, {"index": np.array([0.03, 0.05, 0.0])})
        m = metrics[0]
        assert m.distance_to_target == pytest.approx(0.01)
        assert m.total_movement == pytest.approx(0.07)
        assert m.efficiency == pytest.approx(0.01 / (0.07 + EPSILON))
        assert m.success
        assert np.allclose(m.directional_error, [0.0, -0.01, 0.0])
        assert summary.mean_distance == pytest.approx(0.01)
        assert summary.std_distance == 0.0
        assert summary.success_rate == 1.0

    def test_success_threshold_is_strict(self):
        log = make_log({"a": [[SUCCESS_THRESHOLD, 0, 0]],
                        "b": [[SUCCESS_THRESHOLD - 1e-9, 0, 0]]})
        metrics, summary = summarize_run(log, {"a": np.zeros(3), "b": np.zeros(3)})
        by_name = {m.finger: m for m in metrics}
        assert not by_name["a"].success  # exactly at the threshold is a miss
        assert by_name["b"].success
        assert summary.success_rate == 0.5

    def test_population_std(self):
        log = make_log({"a": [[0.02, 0, 0]], "b": [[0.04, 0, 0]]})
        _, summary = summarize_run(log, {"a": np.zeros(3), "b": np.zeros(3)})
        assert summary.mean_distance == pytest.approx(0.03)
        assert summary.std_distance == pytest.approx(0.01)  # divide by n, not n-1

    def test_straight_line_basis_uses_first_position(self):
        track = [[0.0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]]
        log = make_log({"f": track})
        target = np.array([0.1, 0.0, 0.0])
        (final_m,), _ = summarize_run(log, {"f": target})
        (line_m,), _ = summarize_run(log, {"f": target},
                                     efficiency_basis="straight_line")
        assert final_m.efficiency == pytest.approx(0.0)
        assert line_m.efficiency == pytest.approx(0.1 / (0.1 + EPSILON))

    def test_published_distances_average_to_32_4_mm(self):
        tracks = {f: [[d, 0.0, 0.0]] for f, (d, _) in TABLE.items()}
        log = make_log(tracks)
        targets = {f: np.zeros(3) for f in TABLE}
        metrics, summary = summarize_run(log, targets)
        assert summary.success_rate == 1.0
        assert summary.mean_distance == pytest.approx(0.0324, abs=5e-5)
        for m in metrics:
            assert m.distance_to_target == pytest.approx(TABLE[m.finger][0])

    def test_ratio_of_published_columns_exceeds_one(self):
        # distance / movement from the reference run lands near 1.5, not below 1
        computed = {f: movement_efficiency(d, m) for f, (d, m) in TABLE.items()}
        assert computed["thumb"] == pytest.approx(1.5087, abs=1e-3)
        assert all(v > 1.4 for v in computed.values())

    def test_empty_log_rejected(self):
        log = TrajectoryLog(fingers=("a",), hz=10.0, end_step=0, control_steps=[],
                            positions=[], contact_counts=[], phases=[])
        with pytest.raises(MetricsError, match="empty"):
            summarize_run(log, {"a": np.zeros(3)})

    def test_missing_target_rejected(self):
        log = make_log({"a": [[0, 0, 0]]})
        with pytest.raises(MetricsError, match="no target"):
            summarize_run(log, {})

    def test_unknown_basis_rejected(self):
        log = make_log({"a": [[0, 0, 0]]})
        with pytest.raises(MetricsError, match="basis"):
            summarize_run(log, {"a": np.zeros(3)}, efficiency_basis="bogus")

    def test_pose_targets_accepted(self):
        from graspforge.kinematics import Pose
        log = make_log({"a": [[0.01, 0, 0]]})
        (m,), _ = summarize_run(log, {"a": Pose(position=(0, 0, 0))})
        assert m.distance_to_target == pytest.approx(0.01)


def test_metrics_csv_golden():
    log = make_log({"index": [[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]]})
    metrics, _ = summarize_run(log, {"index": np.array([0.02, 0.0, 0.0])})
    buf = io.StringIO()
    write_metrics_csv(metrics, buf)
    assert buf.getvalue() == (
        "finger,distance_to_target_m,total_movement_m,efficiency,success,ex,ey,ez\n"
        "index,0.0,0.02,0.0,true,0.0,0.0,0.0\n")


def test_metrics_csv_has_no_numpy_reprs(grasp_run, scenario):
    _, log, _ = grasp_run
    metrics, _ = summarize_run(log, scenario.targets)
    buf = io.StringIO()
    write_metrics_csv(metrics, buf)
    assert "np.float64" not in buf.getvalue()


def test_an_int_given_to_a_float_field_is_written_as_a_float():
    """Each record's JSON form writes a real-valued field and each vector
    entry as a float, also when it was given as an int; int fields stay ints."""
    finger = FingerMetrics(finger="index", distance_to_target=0, total_movement=1,
                           efficiency=2, success=True, directional_error=[0, 0, 0])
    assert json.dumps(finger.to_dict()) == (
        '{"finger": "index", "distance_to_target": 0.0, "total_movement": 1.0, '
        '"efficiency": 2.0, "success": true, "directional_error": [0.0, 0.0, 0.0]}')
    summary = RunSummary(mean_distance=0, std_distance=0, success_rate=1,
                         errors_x=(0,), errors_y=(1,), errors_z=(np.int64(2),))
    assert json.dumps(summary.to_dict()) == (
        '{"mean_distance": 0.0, "std_distance": 0.0, "success_rate": 1.0, '
        '"errors_x": [0.0], "errors_y": [1.0], "errors_z": [2.0]}')
    assessment = GraspAssessment(stable=False, contact_count=0, center=[0, 0, 0],
                                 max_distance=0, closure_residual=0,
                                 failure_reason="too_few_contacts")
    assert json.dumps(assessment.to_dict()) == (
        '{"stable": false, "contact_count": 0, "center": [0.0, 0.0, 0.0], '
        '"max_distance": 0.0, "closure_residual": 0.0, "failure_reason": "too_few_contacts"}')
    report = PerturbationReport(passed=True, iterations_run=1, max_displacement=0, seed=3,
                                samples=[(np.array([1.0, 0.0, 0.0]), 0)])
    assert json.dumps(report.to_dict()) == (
        '{"passed": true, "iterations_run": 1, "max_displacement": 0.0, '
        '"failure_iteration": null, "seed": 3, '
        '"samples": [{"force": [1.0, 0.0, 0.0], "displacement": 0.0}]}')
