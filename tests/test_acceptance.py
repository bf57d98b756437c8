"""End-to-end acceptance gate.

Each test checks one contract of the toolkit at its stated tolerance and
prints a single PASS/FAIL line (bypassing capture) so the verdicts are
visible in plain pytest output.  Order: IK convergence, jacobian accuracy,
validation vs. brute force, perturbation fixtures, published-run metrics,
controller execution, output determinism, closest-point oracle, and the
efficiency-column discrepancy.
"""

import json
import math

import numpy as np
import pytest

from graspforge.cli import main as cli_main
from graspforge.contact import ContactPoint, closest_point_box
from graspforge.controller import PHASE_MONITOR, PHASES, TrajectoryLog
from graspforge.grasp_validation import (FAILURE_CLOSURE, FAILURE_NONE, FAILURE_SPREAD,
                                         FAILURE_TOO_FEW, ValidationConfig,
                                         validate_grasp)
from graspforge.ik_solver import IkConfig, solve_finger_ik
from graspforge.kinematics import JointState, jacobian, link_frames, link_transform, within_limits
from graspforge.metrics import movement_efficiency, summarize_run
from graspforge.perturbation import PerturbConfig, perturb_contacts
from graspforge.scene import PhysicalParams, make_box_object
from graspforge.kinematics import Pose

from conftest import mid_range_state

STIFFNESS = 10000.0

# (distance to target, total movement, efficiency) of the published run, SI
PUBLISHED = {
    "thumb": (0.0519, 0.0344, 0.879),
    "index": (0.0283, 0.0184, 0.996),
    "middle": (0.0276, 0.0185, 0.979),
    "ring": (0.0275, 0.0185, 0.990),
    "pinky": (0.0267, 0.0187, 0.966),
}


@pytest.fixture()
def report(capsys):
    def _report(name, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return _report


def _random_state(chain, rng):
    return JointState(values={
        ji: rng.uniform(chain.joints[ji].lower_limit, chain.joints[ji].upper_limit)
        for ji in chain.movable})


def test_ik_convergence_contract(chain, report):
    """>=95% of 200 reachable tip targets solve to 1e-5; limits always hold."""
    rng = np.random.default_rng(7)
    fingers = list(chain.fingers)
    seed = mid_range_state(chain)
    cfg = IkConfig()
    converged = 0
    in_limits = 0
    for i in range(200):
        finger = fingers[i % len(fingers)]
        tip = chain.fingers[finger].end_effector
        target = link_transform(chain, _random_state(chain, rng), tip)[1]
        res = solve_finger_ik(chain, finger, target, seed, cfg)
        converged += bool(res.converged and res.residual <= 1e-5)
        in_limits += within_limits(chain, res.state)
        assert res.iterations <= cfg.max_iterations
    report("ik convergence contract", converged >= 190 and in_limits == 200,
           f"{converged}/200 converged to 1e-5 within 100 iterations (need >=190), "
           f"{in_limits}/200 inside joint limits (need 200)")


def test_jacobian_matches_finite_differences(chain, report):
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    tips = [f.end_effector for f in chain.fingers.values()]
    for _ in range(100):
        state = _random_state(chain, rng)
        jacobians = [jacobian(chain, state, tip) for tip in tips]
        for col, ji in enumerate(chain.movable):
            hi, lo = state.copy(), state.copy()
            hi.values[ji] += h
            lo.values[ji] -= h
            # every fingertip from one pair of passes
            fd = (link_frames(chain, hi)[1][tips] - link_frames(chain, lo)[1][tips]) / (2 * h)
            for J, fd_tip in zip(jacobians, fd):
                worst = max(worst, float(np.max(np.abs(J[:, col] - fd_tip))))
    report("jacobian vs central differences", worst <= 1e-5,
           f"max deviation {worst:.3e} over 100 random states (tolerance 1e-5)")


def _contact(position, normal, force=2.0):
    return ContactPoint(finger="f", link=0, position=position, normal=normal,
                        penetration_depth=1e-3, normal_force=force)


def _brute_force_verdict(contacts, cfg):
    held = [c for c in contacts if c.normal_force >= cfg.min_contact_force]
    if len(held) < cfg.min_contacts:
        return False, FAILURE_TOO_FEW
    pts = [[float(v) for v in c.position] for c in held]
    center = [sum(p[i] for p in pts) / len(pts) for i in range(3)]
    if max(math.dist(p, center) for p in pts) > cfg.distribution_threshold:
        return False, FAILURE_SPREAD
    total = [0.0, 0.0, 0.0]
    for c in held:
        mag = math.sqrt(sum(float(v) ** 2 for v in c.normal))
        for i in range(3):
            total[i] += float(c.normal[i]) / mag
    if math.sqrt(sum(v * v for v in total)) > cfg.force_closure_threshold:
        return False, FAILURE_CLOSURE
    return True, FAILURE_NONE


def test_validation_matches_brute_force(report):
    rng = np.random.default_rng(13)
    cfg = ValidationConfig()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        scale = float(rng.choice([0.02, 0.08, 0.3]))
        contacts = []
        for _ in range(n):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            contacts.append(_contact(rng.uniform(-scale, scale, 3), normal,
                                     force=float(rng.uniform(0.0, 2.0))))
        a = validate_grasp(contacts, cfg)
        expected = _brute_force_verdict(contacts, cfg)
        mismatches += (a.stable, a.failure_reason) != expected

    r = 0.03
    antipodal = validate_grasp([
        _contact((r, 0, 0), (1, 0, 0)), _contact((-r, 0, 0), (-1, 0, 0)),
        _contact((0, r, 0), (0, 1, 0)), _contact((0, -r, 0), (0, -1, 0))])
    aligned = validate_grasp([_contact((0.01 * i, 0, 0), (0, 0, 1))
                              for i in range(4)])
    trio = validate_grasp([
        _contact((r, 0, 0), (1, 0, 0)), _contact((-r, 0, 0), (-1, 0, 0)),
        _contact((0, r, 0), (0, 1, 0))])
    fixtures_ok = (antipodal.stable
                   and not aligned.stable
                   and aligned.failure_reason == FAILURE_CLOSURE
                   and not trio.stable
                   and trio.failure_reason == FAILURE_TOO_FEW)
    report("grasp validation vs brute force", mismatches == 0 and fixtures_ok,
           f"{1000 - mismatches}/1000 random verdicts identical; fixtures "
           f"(opposed stable / aligned unstable / 3-contact rejected) "
           f"{'ok' if fixtures_ok else 'WRONG'}")


def test_perturbation_fixtures(report):
    obj = make_box_object((0.03, 0.025, 0.03), Pose(position=(0, 0, 0)), 0.2,
                          PhysicalParams())
    s = 1.0 / math.sqrt(3.0)
    tetra = [_contact(-0.01 * np.array(n), n) for n in
             [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]]
    bound = math.sqrt(3.0) / STIFFNESS  # worst |F| over stiffness (4/3)k
    stable_passes = 0
    worst = 0.0
    for seed in range(50):
        rep = perturb_contacts(obj, tetra, PerturbConfig(seed=seed))
        stable_passes += rep.passed and rep.iterations_run == 100
        worst = max(worst, rep.max_displacement)

    single = [_contact((0, 0, 0.03), (0, 0, 1))]
    single_fails = sum(
        (not rep.passed) and rep.iterations_run == 0
        for rep in (perturb_contacts(obj, single, PerturbConfig(seed=seed))
                    for seed in range(50)))
    ok = stable_passes == 50 and worst <= bound and single_fails == 50
    report("perturbation fixtures", ok,
           f"tetrahedral grasp passed {stable_passes}/50 seeds "
           f"(worst displacement {worst:.3e} <= {bound:.3e} << 0.02), "
           f"single contact rejected {single_fails}/50")


def test_published_distance_metrics(report):
    fingers = tuple(PUBLISHED)
    log = TrajectoryLog(fingers=fingers, hz=240.0, end_step=0, control_steps=[0],
                        positions=[[[PUBLISHED[f][0], 0.0, 0.0] for f in fingers]],
                        contact_counts=[4], phases=[PHASES.index("monitor")])
    targets = {f: np.zeros(3) for f in fingers}
    _, summary = summarize_run(log, targets)
    ok = (summary.success_rate == 1.0
          and abs(summary.mean_distance - 0.0324) <= 5e-5)
    report("published distances through the metrics pipeline", ok,
           f"success rate {summary.success_rate:.0%} at 0.1 m, "
           f"mean distance {summary.mean_distance * 1000:.2f} mm (want 32.40 +- 0.05)")


def test_grasp_execution_run(scenario, grasp_run, report):
    state, log, assessment = grasp_run
    steps = len(log.control_steps)
    errors = {}
    last = dict(zip(log.fingers, log.positions[-1]))
    for finger, pose in scenario.targets.items():
        errors[finger] = float(np.linalg.norm(last[finger] - pose.position))

    plateau_violation = 0.0
    for i in range(1, steps):
        if log.control_steps[i] <= 150:
            continue
        delta = max(float(np.linalg.norm(cur - prev))
                    for prev, cur in zip(log.positions[i - 1], log.positions[i]))
        plateau_violation = max(plateau_violation, delta)

    ok = (assessment.stable
          and PHASES[log.phases[-1]] == PHASE_MONITOR
          and steps <= 1000
          and scenario.run.hz == 240.0
          and all(e < 0.1 for e in errors.values())
          and plateau_violation < 1e-4)
    worst_err = max(errors.values())
    report("grasp execution on the bundled scene", ok,
           f"stable in {steps} steps at 240 Hz (limit 1000), worst fingertip "
           f"error {worst_err * 1000:.2f} mm (< 100), per-step motion after "
           f"step 150 {plateau_violation:.2e} m (< 1e-4)")


def test_deterministic_outputs(tmp_path, report):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["run", "--no-timestamp", "--out", str(out_a)])
    code_b = cli_main(["run", "--no-timestamp", "--out", str(out_b)])
    same = {}
    for name in ("trajectory.csv", "metrics.csv"):
        same[name] = (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ok = code_a == code_b == 0 and all(same.values())
    report("repeat runs are byte-identical", ok,
           f"exit codes ({code_a}, {code_b}), trajectory.csv "
           f"{'identical' if same['trajectory.csv'] else 'DIFFERS'}, metrics.csv "
           f"{'identical' if same['metrics.csv'] else 'DIFFERS'}")


def test_box_closest_point_oracle(report):
    """1000 random queries vs a dense surface grid (2.5e-5 m spacing).

    The grid covers each face as a full Cartesian product, so the minimum
    distance over all its points factors into independent per-axis minima;
    the evaluation below is exactly the brute-force minimum over the grid.
    """
    half = np.array([0.030, 0.025, 0.030])
    center = np.array([0.060, 0.0, 0.188])
    box = make_box_object(half, Pose(position=center), 0.2, PhysicalParams())
    spacing = 2.5e-5
    axes = [np.linspace(-h, h, int(np.ceil(2 * h / spacing)) + 1) for h in half]

    def sampled_distance(p_local):
        best = np.inf
        for ax in range(3):
            u, v = [a for a in range(3) if a != ax]
            du = np.min((axes[u] - p_local[u]) ** 2)
            dv = np.min((axes[v] - p_local[v]) ** 2)
            for side in (-half[ax], half[ax]):
                best = min(best, du + dv + (p_local[ax] - side) ** 2)
        return math.sqrt(best)

    rng = np.random.default_rng(29)
    worst = 0.0
    undercut = 0.0  # analytic result must never beat the true surface
    for _ in range(1000):
        q = center + rng.uniform(-0.09, 0.09, size=3)
        _, _, sd = closest_point_box(q, box)
        d_grid = sampled_distance(q - center)
        worst = max(worst, d_grid - abs(sd))
        undercut = max(undercut, abs(sd) - d_grid)
    ok = worst <= 1e-4 and undercut <= 1e-9
    report("closest-point queries vs dense surface sampling", ok,
           f"max sampling excess {worst:.3e} m over 1000 queries "
           f"(tolerance 1e-4), analytic undercut {undercut:.1e}")


def test_efficiency_ratio_discrepancy(report):
    """The published efficiency column is not distance/(movement + 1e-6)."""
    computed = {f: movement_efficiency(d, m) for f, (d, m, _) in PUBLISHED.items()}
    gaps = {f: abs(computed[f] - PUBLISHED[f][2]) for f in PUBLISHED}
    thumb_pinned = abs(computed["thumb"] - 1.5087) <= 1e-3
    ok = thumb_pinned and all(g > 0.3 for g in gaps.values())
    report("published efficiency column is inconsistent with the ratio", ok,
           f"recomputed thumb ratio {computed['thumb']:.4f} (pinned 1.5087 +- 1e-3) "
           f"vs published 0.879; smallest gap across fingers {min(gaps.values()):.3f} "
           f"(all > 0.3); see README for the recorded discrepancy")
