"""Run one workload of the varproj benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-n128 --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout, never from an
installed copy. BLAS is pinned to one thread before numpy loads.

An untraced run (``--trace 0``) repeats the workload's cycle of operations
for the given number of seconds, and at least once, and reports end-to-end
metrics. A traced run (``--trace 1``) makes one pass in which every
operation runs once untraced and once traced, back to back. It reports
per-layer metrics from the traced copies and writes its spans to
``.bench_out/``.

The last line of standard output is the result object. The line before it
holds the environment block and run details.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "linops.apply.count": "count", "linops.apply.us": "us",
    "linops.apply.gbs_computed": "GB/s",
    "linops.build.count": "count", "linops.build.us": "us",
    "lsqr.calls": "count", "lsqr.iters": "count", "lsqr.us_per_iter": "us",
    "lsqr.self_s": "s", "lsqr.applies_per_iter": "count", "lsqr.unconverged": "count",
    "lsqr.unconverged_iters": "count", "lsqr.stall_iters": "count", "lsqr.useful_frac": "frac",
    "direct.count": "count", "direct.ms": "ms", "direct.self_s": "s",
    "svd.count": "count", "svd.s": "s",
    "outer.iters": "count", "outer.self_s": "s",
    "jacobian.count": "count", "jacobian.ms": "ms",
    "gn_step.count": "count", "gn_step.us": "us",
    "grid.points": "count", "grid.us_per_point": "us",
    "solve_s.gp": "s", "solve_s.constant": "s", "solve_s.linear": "s",
    "solve_s.exponential": "s",
    "solve_s.fixed-small": "s", "scan_s": "s",
    "trace.overhead_frac": "frac", "fail_frac": "frac",
}


def _import_library():
    """Import varproj from the checkout's src/, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "varproj" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'varproj'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import varproj

    if Path(varproj.__file__).resolve().parent != (src / "varproj").resolve():
        sys.exit(f"error: imported varproj from {varproj.__file__}, not from {src}")


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, default=1, help="noise seed of the problem")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement length of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _solve_time(ops, op_times: dict, kind: str) -> float:
    """Mean over the workload's operations of one kind of their solve times."""
    values = [op_times[op.name] for op in ops if op.kind == kind]
    return sum(values) / len(values) if values else 0.0


def _fresh_setup_seconds(args) -> float:
    """Set-up time of a fresh process, which includes the imports."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def timed_run(inst, seconds: float, take_setup, setups: int):
    """Repeat the workload's cycle for ``seconds``, and at least once.

    An operation starts only before the deadline, so a run overshoots it by
    at most one operation. ``take_setup`` is called ``setups`` times, spread
    evenly over the run between operations, so that set-up is sampled
    across the machine's speed regimes as the operations are.
    """
    from workloads import run_op

    cycle = inst.workload.cycle
    samples = {op.name: [] for op in cycle}
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    taken = 0
    i = 0
    while i < len(cycle) or time.perf_counter() < deadline:
        if taken < setups and time.perf_counter() >= start + taken * seconds / setups:
            take_setup()
            taken += 1
        out = run_op(inst, cycle[i % len(cycle)])
        outcomes.append(out)
        samples[out.op.name].append(out.seconds)
        i += 1
    for _ in range(taken, setups):
        take_setup()
    # Means, not medians: the machine's speed shifts between regimes lasting
    # seconds, and a median over one run's samples jumps from one regime to
    # the other between runs, while a mean averages them.
    means = {name: statistics.mean(values) for name, values in samples.items()}
    metrics = {"pass_s": sum(means.values())}
    lsqr_iters = {o.op.name: sum(rec.inner_iterations for rec in o.trace.records)
                  for o in outcomes if o.trace is not None}
    return outcomes, metrics, {"op_samples_s": samples, "op_lsqr_iters": lsqr_iters}


@dataclass
class TracedResult:
    outcomes: list
    metrics: dict
    tracer: object
    mismatches: int


def traced_run(inst) -> TracedResult:
    """One pass; each operation untraced and traced back to back, order alternating."""
    from spans import Tracer, layer_metrics
    from workloads import KINDS, run_op

    tracer = Tracer()
    outcomes = []
    traced_s = 0.0
    untraced = {}
    outer_iters = 0
    mismatches = 0
    for solve_id, op in enumerate(inst.workload.ops):
        pair = {}
        for traced in ((False, True) if solve_id % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(), tracer.span("solve", solve=solve_id) as span:
                    out = run_op(inst, op)
                span.attrs.update(kind=op.kind, y0=op.y0)
            else:
                out = run_op(inst, op)
            pair[traced] = out
            outcomes.append(out)
        traced_s += pair[True].seconds
        untraced[op.name] = pair[False].seconds
        if pair[True].trace is not None:
            outer_iters += len(pair[True].trace.records)
        a, b = pair[False].y_history, pair[True].y_history
        if a is None or b is None or not (a.shape == b.shape and (a == b).all()):
            mismatches += 1
            pair[True].failure = pair[True].failure or "traced y history differs from untraced"

    metrics = layer_metrics(tracer.spans)
    metrics["outer.iters"] = outer_iters
    metrics["trace.overhead_frac"] = traced_s / sum(untraced.values()) - 1.0
    metrics["fail_frac"] = sum(o.failure is not None for o in outcomes) / len(outcomes)
    for kind in KINDS:
        key = "scan_s" if kind == "scan" else f"solve_s.{kind}"
        metrics[key] = _solve_time(inst.workload.ops, untraced, kind)
    return TracedResult(outcomes, metrics, tracer, mismatches)


def main(argv=None) -> int:
    # The library and the modules that import it load only after BLAS is pinned.
    from environment import pin_thread_env

    pin_thread_env()
    _import_library()
    from environment import blas_threads_pinned, environment_block, pin_loaded_openblas
    from workloads import WORKLOADS, cross_check, reference_minimizer, setup_instance

    args = _parse_args(argv, WORKLOADS)
    blas_report = pin_loaded_openblas()
    if not blas_threads_pinned(blas_report):
        sys.exit(f"error: BLAS is not single-threaded: {blas_report}")
    workload = WORKLOADS[args.workload]
    inst = setup_instance(workload, args.seed)
    setup_times = [time.perf_counter() - T_START]
    if args.setup_only:
        print(setup_times[0])
        return 0
    inst.y_ref = reference_minimizer(inst.problem)
    env = environment_block(args.workload, args.seed, blas_report)

    if args.trace:
        traced = traced_run(inst)
        outcomes, metrics = traced.outcomes, traced.metrics
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        traced.tracer.write(path, {"environment": env})
        detail = {"spans_file": str(path.relative_to(ROOT)),
                  "trace_mismatches": traced.mismatches}
        units = PER_LAYER_UNITS
    else:
        # Set-up includes the imports, so its repeats run in fresh processes.
        outcomes, metrics, detail = timed_run(
            inst, args.seconds, lambda: setup_times.append(_fresh_setup_seconds(args)),
            SETUP_REPEATS - 1)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS

    failures = [f"{o.op.name}: {o.failure}" for o in outcomes if o.failure is not None]
    cross = cross_check(inst, outcomes)
    if cross is not None:
        failures.append(cross)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    detail.update(y_ref=inst.y_ref, setup_repeats_s=setup_times)
    print(json.dumps({"environment": env, "detail": detail}))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
