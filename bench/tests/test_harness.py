"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python -m pytest bench/tests -q

They pin BLAS to one thread, as the benchmark does, and use shortened
versions of the workloads except where a recorded baseline is compared.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from environment import blas_threads_pinned, pin_loaded_openblas, pin_thread_env  # noqa: E402

pin_thread_env()
pin_loaded_openblas()

import run  # noqa: E402
from spans import Tracer, stall_iterations  # noqa: E402
from workloads import (  # noqa: E402
    KINDS,
    WORKLOADS,
    Op,
    call_op,
    reference_minimizer,
    setup_instance,
)

COUNTS = ("lsqr.iters", "outer.iters", "direct.count", "linops.apply.count", "grid.points",
          "lsqr.calls", "jacobian.count", "gn_step.count", "linops.build.count", "svd.count")


def _short(name: str, **changes):
    # Five outer iterations need not reach the minimiser, so the accuracy
    # bands are opened: these tests compare passes with each other.
    workload = replace(WORKLOADS[name], outer_iterations=5,
                       bands=dict.fromkeys(KINDS, math.inf), **changes)
    inst = setup_instance(workload, seed=1)
    inst.y_ref = reference_minimizer(inst.problem)
    return inst


@pytest.fixture(scope="module")
def short_instances():
    return [_short("paper-n128"), _short("exact-n128", scan=(2.0, 4.0, 1e-2))]


def test_blas_is_single_threaded():
    assert blas_threads_pinned(pin_loaded_openblas())


def test_work_counts_repeat_between_passes(short_instances):
    for inst in short_instances:
        first = run.traced_run(inst)
        second = run.traced_run(inst)
        for key in COUNTS:
            assert first.metrics[key] == second.metrics[key], (inst.workload.name, key)


def test_tracing_does_not_perturb_results(short_instances):
    for inst in short_instances:
        result = run.traced_run(inst)
        assert result.mismatches == 0
        assert result.metrics["fail_frac"] == 0.0


def test_self_time_within_span_duration(short_instances):
    result = run.traced_run(short_instances[0])
    assert result.tracer.spans
    for span in result.tracer.spans:
        assert span.end >= span.start
        assert -1e-9 <= span.self_s <= span.duration


def test_paper_lsqr_counts_match_baseline():
    """The y0 = 2 LSQR iteration counts of paper-n128 at seed 1, 50 iterations."""
    baseline = json.loads((BENCH / "baseline_counts.json").read_text())
    expected = {op: iters for op, iters in baseline["paper-n128"]["lsqr_iters_by_op"].items()
                if op.endswith("@y0=2")}
    assert expected == {"constant@y0=2": 3922, "linear@y0=2": 9830,
                        "exponential@y0=2": 49836, "fixed-small@y0=2": 44260}
    inst = setup_instance(WORKLOADS["paper-n128"], seed=1)
    for name, iters in expected.items():
        tracer = Tracer()
        with tracer.installed(), tracer.span("solve", solve=0):
            call_op(inst, Op(name.split("@")[0], 2.0))
        assert sum(s.attrs["iters"] for s in tracer.spans if s.name == "lsqr") == iters, name


def test_stall_iterations_follow_the_ten_percent_rule():
    assert stall_iterations([1.0, 0.5, 0.49, 0.48, 0.47]) == 3
    assert stall_iterations([1.0, 0.5, 0.4]) == 0
    assert stall_iterations([]) == 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-n128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
