"""The library names that the benchmark's tracer wraps.

``bench/spans.py`` replaces these module attributes with timing wrappers
during a traced pass. A renamed or removed attribute breaks the traced
benchmark, and a solver that binds one of them before the call (say, as a
default argument) silently loses its spans; tier-1 does not run the
benchmark's own tests, so both are checked here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import varproj as vp
from varproj import cli, deconv, linops, varpro
from varproj.inner_solvers import lsqr_solve

WRAPPED = [
    (varpro, "lsqr_solve"),
    (varpro, "DirectFactorization"),
    (varpro, "condition_number"),
    (varpro, "exact_jacobian"),
    (varpro, "approx_jacobian"),
    (varpro, "gauss_newton_step"),
    (varpro, "stack"),
    (deconv, "stack"),
    (deconv, "gaussian_toeplitz"),
    (deconv, "gaussian_toeplitz_derivative"),
    (deconv, "objective_grid"),
]


@pytest.mark.parametrize("module,name", WRAPPED,
                         ids=[f"{m.__name__}.{n}" for m, n in WRAPPED])
def test_wrapped_attribute_exists(module, name):
    assert callable(getattr(module, name))


def test_cli_initial_tolerances_exist():
    assert set(cli.DEFAULT_INITIAL_TOLERANCES) == {2.0, 4.0}


def test_benchmark_imported_names_exist():
    # The imports are read with ast, not executed, so tier-1 does not
    # import the benchmark.
    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(source.read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("varproj")
                for alias in node.names]
    assert {module for module, _ in imported} == {"varproj", "varproj.cli"}
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_library_takes_no_svd():
    # kappa_2(S) and ||S||_2 come from the Gram matrix alone, so no module
    # of the library calls an SVD routine (numpy's or scipy's svd, svdvals)
    # or names the error that an SVD's rank test once raised. Read with ast,
    # so a call that no test reaches is caught too.
    package = Path(vp.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if "svd" in name.lower():
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [node.name] if isinstance(node, (ast.ClassDef, ast.alias)) else [])
            if "RankDeficiencyError" in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names RankDeficiencyError")
    assert found == []


@pytest.mark.parametrize("solver,schedule", [
    ("genvarpro", None),
    ("inexact_genvarpro", vp.ToleranceSchedule("fixed-small")),
    ("inexact_genvarpro", vp.ToleranceSchedule("constant", 0.5)),
], ids=["genvarpro", "inexact_genvarpro", "inexact_genvarpro-warns"])
def test_solvers_look_up_wrapped_names_at_call_time(small_problem, monkeypatch, solver,
                                                      schedule):
    calls = Counter()
    for name in ("lsqr_solve", "DirectFactorization", "condition_number", "exact_jacobian",
                 "gauss_newton_step", "stack"):
        def counting(*args, _name=name, _original=getattr(varpro, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(varpro, name, counting)
    p = small_problem
    opts = vp.OuterOptions(max_outer_iterations=2, schedule=schedule)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = getattr(vp, solver)(p.model, p.b, p.L, p.lam, np.array([1.5]), opts)
    assert len(trace) == 3
    # Two steps and the closing record: one stack, factorization and
    # Jacobian per record; the inexact solver adds the LSQR solves, and its
    # kappa0 check reads the first factorization. No solve calls the SVD
    # condition_number: the warning fires whenever the certificate cannot
    # settle eps0 * kappa0 < 1, as with eps0 = 0.5.
    expected = {"stack": 3, "DirectFactorization": 3, "exact_jacobian": 3, "gauss_newton_step": 2}
    warns = schedule is not None and schedule.kind == "constant"
    if solver == "inexact_genvarpro":
        expected.update(lsqr_solve=3)
    assert calls == expected
    assert sum(issubclass(w.category, varpro.ToleranceWarning) for w in caught) == warns


@pytest.mark.parametrize("n,y0", [(128, 2.0), (128, 4.0), (1024, 2.0)])
def test_benchmark_kappa0_checks_need_no_eigensolver_or_svd(monkeypatch, n, y0):
    # The benchmark's inexact operations start from the shipped eps0 at
    # n = 128 (eps0 kappa0 = 0.83 and 0.76) and from initial_tolerance(kappa0)
    # at n = 1024 (0.1). The shifted Cholesky certifies each of these, so no
    # eigensolver and no SVD runs inside the solve.
    p = vp.build_problem(vp.BenchConfig(n=n, rng_seed=1))
    eps0 = (cli.DEFAULT_INITIAL_TOLERANCES[y0] if n == 128 else
            vp.initial_tolerance(vp.condition_number(deconv.stacked_operator(p, y0))))
    calls = Counter()
    for module, name in ((varpro, "condition_number"), (scipy.linalg, "eigvals_banded"),
                         (scipy.linalg, "eigh")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    opts = vp.OuterOptions(max_outer_iterations=1,
                           schedule=vp.ToleranceSchedule("constant", eps0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", varpro.ToleranceWarning)
        trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([y0]), opts)
    assert not trace.failed
    assert calls == {}


@pytest.mark.parametrize("tolerance,cap", [(1e-8, 10000), (1e-14, 25)],
                         ids=["converged", "capped"])
def test_lsqr_applies_per_iteration(problem, monkeypatch, tolerance, cap):
    # The tracer counts applies through the public LinearOperator.matvec and
    # rmatvec for its linops.apply.count and lsqr.applies_per_iter. LSQR
    # makes one rmatvec to start and two applies per Golub-Kahan step, plus
    # a matvec and an rmatvec for each checked iteration, one per entry of
    # criterion_history. Every call is counted here, nested ones too: the
    # stacked operator applies its blocks through their unchecked methods
    # and adds none.
    calls = Counter()
    for name in ("matvec", "rmatvec"):
        def counting(op, v, _name=name, _original=getattr(linops.LinearOperator, name)):
            calls[_name] += 1
            return _original(op, v)
        monkeypatch.setattr(linops.LinearOperator, name, counting)
    op = deconv.stacked_operator(problem, 3.0)
    d = np.concatenate([problem.b, np.zeros(problem.L.rows)])
    sol = lsqr_solve(op, d, tolerance, max_iterations=cap)
    assert sol.converged == (cap == 10000)
    assert sol.iterations > 1
    checks = len(sol.criterion_history)
    if sol.converged:
        # The screen skips the test on the early iterations.
        assert checks < sol.iterations
    assert calls == {"matvec": sol.iterations + checks, "rmatvec": sol.iterations + checks + 1}


def test_pinned_n128_lsqr_count():
    # The benchmark pins the LSQR work of each n = 128 operation exactly in
    # bench/baseline_counts.json, but tier-1 does not run its tests. The
    # constant schedule from y0 = 2 is the cheapest pinned operation, and a
    # change that moves n = 128 LSQR work moves it too.
    counts = Path(__file__).resolve().parents[1] / "bench" / "baseline_counts.json"
    pinned = json.loads(counts.read_text())["paper-n128"]["lsqr_iters_by_op"]["constant@y0=2"]
    p = vp.build_problem(vp.BenchConfig(n=128, rng_seed=1))
    opts = vp.OuterOptions(max_outer_iterations=50, step_tolerance=0.0,
                           schedule=vp.ToleranceSchedule(
                               "constant", cli.DEFAULT_INITIAL_TOLERANCES[2.0]))
    trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([2.0]), opts)
    assert sum(rec.inner_iterations for rec in trace.records) == pinned


def test_pinned_n128_linear_count_single_threaded():
    # Byte-identical outputs hold at a fixed BLAS thread count, and the
    # benchmark runs single-threaded. The linear schedule from y0 = 2 is the
    # pinned operation that moves first when the rounding of the n = 128
    # normal equations or of LSQR changes, so it runs in a fresh process with
    # every BLAS thread variable set to 1 (the count is read, never written).
    root = Path(__file__).resolve().parents[1]
    counts = root / "bench" / "baseline_counts.json"
    pinned = json.loads(counts.read_text())["paper-n128"]["lsqr_iters_by_op"]["linear@y0=2"]
    script = (
        "import numpy as np, varproj as vp\n"
        "from varproj import cli\n"
        "p = vp.build_problem(vp.BenchConfig(n=128, rng_seed=1))\n"
        "opts = vp.OuterOptions(max_outer_iterations=50, step_tolerance=0.0,\n"
        "    schedule=vp.ToleranceSchedule('linear', cli.DEFAULT_INITIAL_TOLERANCES[2.0]))\n"
        "trace = vp.inexact_genvarpro(p.model, p.b, p.L, p.lam, np.array([2.0]), opts)\n"
        "print(sum(rec.inner_iterations for rec in trace.records))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **dict.fromkeys(cli.BLAS_THREAD_VARS, "1"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == pinned
