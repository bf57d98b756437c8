"""graspforge benchmark: one workload in one process, a closed loop with one client.

    python3 perfbench/run.py --workload ik_reach --seed 1 --seconds 40 --trace 0

Each op starts only after the previous one has finished and been checked.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes over the same inputs and
reports the per-module metrics.  The last line of standard output is the
result object; the line before it records the environment, the sample count
behind each timing, and the timings before host-speed scaling.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import TYPE_CHECKING

from tracer import Tracer, assert_untraced

if TYPE_CHECKING:
    from hostspeed import HostSpeed

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 9

# public functions timed by the traced run, as (module, function)
TRACED = [
    ("contact", "detect_contacts"),
    ("contact", "closest_point_box"),
    ("kinematics", "link_transform"),
    ("kinematics", "jacobian"),
    ("kinematics", "clamp_to_limits"),
    ("ik_solver", "solve_finger_ik"),
    ("perturbation", "perturb_contacts"),
    ("grasp_validation", "validate_grasp"),
    ("controller", "execute_grasp"),
    ("controller", "step_servo"),
    ("metrics", "summarize_run"),
    ("config", "load_scenario"),
    ("robot_model", "load_robot_description"),
]


def _parse_args(workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def _setup(workload: str, seed: int):
    """Import, load the scenario and generate the inputs; returns (seconds, workload)."""
    t0 = time.perf_counter()
    import graspforge
    import workloads
    wl = workloads.make(workload, seed)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(graspforge.__file__)) != os.path.join(SRC, "graspforge"):
        raise RuntimeError(f"graspforge imported from {graspforge.__file__}, not from {SRC}")
    return elapsed, wl


def _setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.splitlines()[-1])


class Loop:
    """Closed loop over a workload's inputs, in passes, timing every op.

    With a `HostSpeed` running, each op's time excludes the kernel time
    drawn inside it, and `per_input` can scale it to the reference speed by
    the kernel samples around it.
    """

    def __init__(self, wl, speed: HostSpeed | None = None):
        self.wl = wl
        self.speed = speed
        self.ops: list[tuple[int, float, float, float]] = []  # (input, start, end, seconds)
        self.last: dict[int, float] = {}  # input -> wall time of its latest op
        self.attempted = 0
        self.failed = 0

    def run(self, deadline: float, count: int) -> None:
        """Run up to `count` ops from input 0 on.

        Once every input has run at least once, starts no op that would end
        after `deadline` if it took as long as that input's previous op.
        """
        wl, speed = self.wl, self.speed
        for n in range(count):
            i = n % len(wl.inputs)
            if (self.attempted >= len(wl.inputs)
                    and time.perf_counter() + self.last[i] > deadline):
                return
            x = wl.inputs[i]
            spent = speed.spent_s if speed else 0.0
            t0 = time.perf_counter()
            try:
                out = wl.run(x)
                t1 = time.perf_counter()
                ok = wl.check(x, out)
            except Exception:
                t1 = time.perf_counter()
                traceback.print_exc()
                ok = False
            sampling = (speed.spent_s - spent) if speed else 0.0
            self.last[i] = t1 - t0
            self.attempted += 1
            self.failed += not ok
            self.ops.append((i, t0, t1, t1 - t0 - sampling))

    def per_input(self, scaled: bool = True) -> dict[int, float]:
        """Input -> the median of its op times, at the reference speed when `scaled`."""
        times: dict[int, list[float]] = {}
        for i, t0, t1, seconds in self.ops:
            if scaled and self.speed:
                seconds *= self.speed.scale(t0, t1)
            times.setdefault(i, []).append(seconds)
        return {i: statistics.median(v) for i, v in times.items()}


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _timings(per_input: dict[int, float]) -> dict[str, float]:
    times = list(per_input.values())
    return {"op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": _p90(times) * 1e3,
            "ops_per_s": len(times) / sum(times)}


def end_to_end(args, wl, setup_samples):
    # loaded here, not at the top, so that set-up imports numpy inside its
    # timed span
    from hostspeed import HostSpeed

    assert_untraced()
    with HostSpeed() as speed:
        loop = Loop(wl, speed)
        loop.run(time.perf_counter() + args.seconds, sys.maxsize)
    per_input = loop.per_input()
    metrics = {
        **_timings(per_input),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
        "ik_converged_frac": wl.ik_converged_frac(),
    }
    info = {
        "samples": {"inputs": len(per_input), "ops": loop.attempted,
                    "kernel": len(speed.samples), "setup_s": len(setup_samples)},
        "kernel_ms_median": statistics.median(speed.samples) * 1e3,
        "unscaled": _timings(loop.per_input(scaled=False)),
    }
    return metrics, info, loop.attempted, loop.failed


def per_layer(args, wl):
    """Alternate untraced and traced passes over the inputs until --seconds is spent."""
    import graspforge.grasp_validation as gv
    import workloads

    counts = Counter()

    def on_contacts(call_args, kwargs, contacts):
        chain = (call_args[0] if call_args else kwargs["scene"]).chain
        counts["probes"] += sum(chain.links[li].geometry is not None
                                for links in chain.finger_links.values() for li in links)
        counts["hits"] += len(contacts)

    def on_ik(call_args, kwargs, result):
        counts["iterations"] += result.iterations
        counts["converged"] += result.converged

    def on_perturb(call_args, kwargs, report):
        counts["rounds"] += report.iterations_run

    def on_validate(call_args, kwargs, assessment):
        counts["stable"] += assessment.stable
        counts["reason." + assessment.failure_reason] += 1

    tracer = Tracer(TRACED, {"contact.detect_contacts": on_contacts,
                             "ik_solver.solve_finger_ik": on_ik,
                             "perturbation.perturb_contacts": on_perturb,
                             "grasp_validation.validate_grasp": on_validate})
    with tracer:
        scenario = workloads.load(args.seed)
    base, traced = Loop(wl), Loop(wl)
    deadline = time.perf_counter() + args.seconds
    while True:
        before = base.attempted + traced.attempted
        assert_untraced()
        base.run(deadline, len(wl.inputs))
        with tracer:
            traced.run(deadline, len(wl.inputs))
        if base.attempted + traced.attempted == before:
            break

    stats = tracer.stats

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for key, st in stats.items():
        metrics[f"{key}.calls"] = st.calls
        metrics[f"{key}.us_per_call"] = ratio(st.total_s, st.calls) * 1e6
        metrics[f"{key}.self_s"] = st.self_s
    ik_calls = stats["ik_solver.solve_finger_ik"].calls
    validations = stats["grasp_validation.validate_grasp"].calls
    base_times, traced_times = base.per_input(), traced.per_input()
    both = traced_times.keys() & base_times.keys()
    metrics.update({
        "contact.probes": counts["probes"],
        "contact.hit_ratio": ratio(counts["hits"], counts["probes"]),
        "ik_solver.iterations": ratio(counts["iterations"], ik_calls),
        "ik_solver.converged_frac": ratio(counts["converged"], ik_calls),
        "perturbation.rounds": counts["rounds"],
        "perturbation.us_per_round":
            ratio(stats["perturbation.perturb_contacts"].total_s, counts["rounds"]) * 1e6,
        "grasp_validation.stable_frac": ratio(counts["stable"], validations),
        "controller.steps_to_stable": getattr(wl, "steps_to_stable", 0),
        "controller.step_budget_ratio":
            ratio(stats["controller.execute_grasp"].total_s,
                  stats["controller.step_servo"].calls) * scenario.run.hz,
        "trace.overhead_frac": (sum(traced_times[i] for i in both)
                                / sum(base_times[i] for i in both) - 1.0),
    })
    for reason in (gv.FAILURE_NONE, gv.FAILURE_TOO_FEW, gv.FAILURE_SPREAD, gv.FAILURE_CLOSURE):
        metrics[f"grasp_validation.reason.{reason}"] = counts["reason." + reason]
    info = {"samples": {"inputs": len(both), "untraced_ops": base.attempted,
                        "traced_ops": traced.attempted}}
    return (metrics, info, base.attempted + traced.attempted,
            base.failed + traced.failed)


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "graspforge", "__init__.py")):
        print(f"error: no graspforge sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    args = _parse_args([w["name"] for w in bench["workloads"]])
    sys.path.insert(0, SRC)

    if args.setup_only:
        print(_setup(args.workload, args.seed)[0])
        return 0

    setup_samples = []
    if not args.trace:
        setup_samples = [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    elapsed, wl = _setup(args.workload, args.seed)
    setup_samples.append(elapsed)

    if args.trace:
        metrics, info, attempted, failed = per_layer(args, wl)
        declared = bench["per_layer"]
    else:
        metrics, info, attempted, failed = end_to_end(args, wl, setup_samples)
        declared = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    import numpy
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **info,
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": numpy.__version__,
                "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
