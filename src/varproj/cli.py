"""Benchmark command line: solver comparisons, bound verification, checks.

Four subcommands operate on the blind-deconvolution benchmark:

* ``compare`` runs the exact solver and the inexact solver under the
  configured tolerance schedules, writing per-iteration CSV traces and
  per-schedule gap files.
* ``bounds`` reruns the inexact solver with ||S||_2 in the stopping test
  and verifies the a-posteriori solution/residual bounds at every iteration.
* ``gradcheck`` validates the analytic Jacobian and gradient against
  central finite differences.
* ``table`` emits reconstruction-error/parameter/gradient tables for the
  first seven iterations of the exact and exponential-schedule runs.

Config files are INI-style with sections [problem], [solver] and
[schedules], and are the only source of run settings; every key has a
default, so an empty (or absent) file runs the default benchmark
experiment. Exit codes: 0 success, 1 config or I/O
error, 2 solver failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bounds import BoundInvalidError, initial_tolerance, residual_bound, solution_bound
from .deconv import BenchConfig, ConfigError, ProblemInstance, build_problem, stacked_operator
from .inner_solvers import NumericalBreakdownError, SingularSystemError, condition_number
from .linops import check_kernel_width
from .varpro import (
    NORM_MODE_EXPLICIT,
    OuterOptions,
    SolverTrace,
    ToleranceSchedule,
    exact_jacobian,
    exact_residual,
    genvarpro,
    gradient,
    inexact_genvarpro,
)

SCHEDULE_NAMES = {"b": "constant", "lb": "linear", "ab": "exponential", "s": "fixed-small"}

# Shipped starting tolerances for the standard (and default) initial guesses;
# other y0 values fall back to initial_tolerance(kappa0).
DEFAULT_INITIAL_TOLERANCES = {2.0: 1.8718e-4, 4.0: 1.1239e-4}

# Violations at certified tolerances below this are reported only: there the
# rounding of the reference x(y) from the normal equations (relative order
# kappa^2 u) is within a few orders of magnitude of the bound, ~2 kappa^2 eps.
MUST_HOLD_EPSILON = 1e3 * float(np.finfo(float).eps)

# Thread-count variables of the common BLAS builds. Outputs repeat byte for
# byte only at a fixed BLAS thread count, so the manifest records them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved run configuration (every default made explicit)."""

    problem: BenchConfig
    outer: OuterOptions = OuterOptions()
    y0_list: tuple[float, ...] = tuple(DEFAULT_INITIAL_TOLERANCES)
    schedules: tuple[str, ...] = tuple(SCHEDULE_NAMES)
    epsilon0: float | None = None  # None: resolve per y0

    def resolved(self) -> dict:
        out: dict[str, dict] = {}
        for section, key, field, _ in _CONFIG_KEYS:
            owner, _, name = field.rpartition(".")
            value = getattr(getattr(self, owner) if owner else self, name)
            if value is None:
                value = "auto"
            elif isinstance(value, tuple):
                value = list(value)
            out.setdefault(section, {})[key] = value
        return out


def _distinct(items: list) -> tuple:
    """A nonempty list with no value twice: a repeat would rerun a solve and
    overwrite its outputs."""
    if not items:
        raise ConfigError("the list is empty")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{item!r} is listed twice")
    return tuple(items)


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return _distinct([float(part) for part in raw.split(",") if part.strip()])


def _parse_schedule_list(raw: str) -> tuple[str, ...]:
    names = [part.strip().lower() for part in raw.split(",") if part.strip()]
    for name in names:
        if name not in SCHEDULE_NAMES:
            raise ConfigError(f"unknown schedule {name!r} "
                              f"(expected one of {sorted(SCHEDULE_NAMES)})")
    return _distinct(names)


def _parse_epsilon0(raw: str) -> float | None:
    if raw.strip().lower() == "auto":
        return None
    epsilon0 = float(raw)
    if not 0.0 < epsilon0 < np.inf:
        raise ConfigError(f"must be positive and finite, got {epsilon0}")
    return epsilon0


# Every config key as (section, key, field, parser). The field is a
# RunSettings field, or "problem.<name>" for a BenchConfig field and
# "outer.<name>" for an OuterOptions field; a missing key takes the field's
# default.
_CONFIG_KEYS = (
    ("problem", "n", "problem.n", int),
    ("problem", "sigma_true", "problem.sigma_true", float),
    ("problem", "noise_level", "problem.noise_level", float),
    ("problem", "lambda", "problem.lam", float),
    ("problem", "seed", "problem.rng_seed", int),
    ("problem", "tau", "problem.tau", float),
    ("solver", "y0", "y0_list", _parse_float_list),
    ("solver", "max_outer_iterations", "outer.max_outer_iterations", int),
    ("schedules", "run", "schedules", _parse_schedule_list),
    ("schedules", "epsilon0", "epsilon0", _parse_epsilon0),
)


def load_settings(config_path: str | None) -> RunSettings:
    """Read a UTF-8 INI config file, applying defaults for every missing key.

    A ``#`` that starts a line or follows whitespace starts a comment, ``%``
    is an ordinary character, and ``[DEFAULT]`` is an unknown section like
    any other.
    """
    # No section name maps to the parser's defaults: the header "[]" never
    # parses, so "[DEFAULT]" is read as a section of its own.
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",),
                                       default_section="")
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    known_keys = {(section, key) for section, key, _, _ in _CONFIG_KEYS}
    known_sections = {section for section, _ in known_keys}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in known_keys:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    raw = {(section, key): parser.get(section, key)
           for section, key, _, _ in _CONFIG_KEYS if parser.has_option(section, key)}
    values: dict[str, dict] = {"problem": {}, "outer": {}, "": {}}
    for section, key, field, parse in _CONFIG_KEYS:
        if (section, key) not in raw:
            continue
        try:
            value = parse(raw[section, key])
        except ValueError as exc:  # a ConfigError keeps the parser's own message
            detail = exc if isinstance(exc, ConfigError) else f"cannot parse {raw[section, key]!r}"
            raise ConfigError(f"[{section}] {key}: {detail}") from exc
        owner, _, name = field.rpartition(".")
        values[owner][name] = value

    try:
        problem = BenchConfig(**values["problem"])
    except ConfigError as exc:
        raise ConfigError(f"[problem] {exc}") from exc
    try:
        outer = OuterOptions(**values["outer"])
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc
    settings = RunSettings(problem=problem, outer=outer, **values[""])
    for y0 in settings.y0_list:
        try:
            check_kernel_width(y0)
        except ValueError as exc:
            raise ConfigError(f"[solver] y0: {exc}") from None
    return settings


def resolve_epsilon0(settings: RunSettings, problem: ProblemInstance, y0: float) -> float:
    """Starting tolerance for one run: explicit config value, the shipped
    default for the standard initial guesses, or initial_tolerance(kappa0)."""
    if settings.epsilon0 is not None:
        return settings.epsilon0
    if y0 in DEFAULT_INITIAL_TOLERANCES:
        return DEFAULT_INITIAL_TOLERANCES[y0]
    return initial_tolerance(condition_number(stacked_operator(problem, y0)))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _trace_rows(trace: SolverTrace) -> list[list]:
    rows = []
    for rec in trace.records:
        rows.append([rec.k, rec.y[0], rec.f_value, float(np.linalg.norm(rec.gradient)),
                     rec.epsilon, rec.inner_iterations])
    return rows


_TRACE_HEADER = ["k", "y", "f_value", "grad_norm", "epsilon", "inner_iterations"]


def _y0_tag(y0: float) -> str:
    """The y0 part of output names: the short ``:g`` form when it reads back
    as y0, else the exact ``repr``, so distinct y0 values never share files."""
    short = f"{y0:g}"
    return (short if float(short) == y0 else repr(y0)).replace(".", "p")


def _blas_build(module) -> str | None:
    """Name and version of the BLAS that numpy or scipy was built with, or
    None where its ``show_config`` does not report them."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # no mode="dicts" before numpy 1.25, scipy 1.11
        return None


def _environment() -> dict:
    """Interpreter, library and BLAS build versions, BLAS thread settings and
    CPU count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np),
        "scipy_blas": _blas_build(scipy),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _gnuplot_script(gap_files: list[str]) -> str:
    lines = [
        "# Parameter gaps between the exact and inexact runs, log scale.",
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'outer iteration k'",
        "set ylabel '|y_exact - y_inexact|'",
    ]
    plots = [f"'{name}' skip 1 using 1:2 with lines title '{name}'" for name in gap_files]
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


class _Outputs:
    """One command's outputs: the files it writes into ``out_dir``, the
    timings of its solver runs, whether a run failed, and the closing
    ``manifest.json``."""

    def __init__(self, command: str, settings: RunSettings, out_dir: Path):
        self.command = command
        self.settings = settings
        self.out_dir = out_dir
        self.problem = build_problem(settings.problem)
        # Made only after the problem is built, so a bad config leaves none.
        out_dir.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []
        self.timings: dict[str, float] = {}
        self.failed = False
        # Each y0's starting tolerance, or the error that kept it unresolved.
        self.epsilon0: dict[float, float | SingularSystemError] = {}

    def solve(self, timing: str, y0: float, sched_name: str | None = None,
              **overrides) -> SolverTrace:
        """Run ``genvarpro`` from y0, or ``inexact_genvarpro`` under the named
        schedule started at y0's ``resolve_epsilon0``, with the configured
        options and ``overrides``. The run's time is added to timing
        ``timing``; the tolerance is resolved once per y0, untimed, and one
        that cannot be is a failed run with status ``inner-failure``. A failed
        run is reported on stderr and marks the command failed."""
        if sched_name is not None and y0 not in self.epsilon0:
            try:
                self.epsilon0[y0] = resolve_epsilon0(self.settings, self.problem, y0)
            except SingularSystemError as exc:
                self.epsilon0[y0] = exc
        epsilon0 = None if sched_name is None else self.epsilon0[y0]
        if isinstance(epsilon0, SingularSystemError):
            trace = SolverTrace(status="inner-failure", warnings=[f"epsilon0: {epsilon0}"])
        else:
            schedule = (None if sched_name is None
                        else ToleranceSchedule(SCHEDULE_NAMES[sched_name], epsilon0))
            opts = replace(self.settings.outer, schedule=schedule, **overrides)
            solver = genvarpro if schedule is None else inexact_genvarpro
            p = self.problem
            tic = time.perf_counter()
            trace = solver(p.model, p.b, p.L, p.lam, np.array([y0]), opts)
            self.timings[timing] = self.timings.get(timing, 0.0) + time.perf_counter() - tic
        if trace.failed:
            self.failed = True
            label = "genvarpro" if sched_name is None else f"inexact ({sched_name})"
            print(f"solver failure in {label} y0={y0}: status={trace.status}", file=sys.stderr)
            for message in trace.warnings:
                print(f"  {message}", file=sys.stderr)
        return trace

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> None:
        with open(self.out_dir / name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.files.append(name)

    def write_text(self, name: str, text: str) -> None:
        with open(self.out_dir / name, "w") as handle:
            handle.write(text)
        self.files.append(name)

    def finish(self, **extra) -> int:
        """Write ``manifest.json``; the exit code is 2 if a solver run failed, else 0."""
        payload = {
            "command": self.command,
            "package_version": __version__,
            "config": self.settings.resolved(),
            "environment": _environment(),
            "outputs": sorted(self.files),
            "timings_seconds": self.timings,
            **extra,
        }
        with open(self.out_dir / "manifest.json", "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return EXIT_SOLVER if self.failed else EXIT_OK


def cmd_compare(settings: RunSettings, out_dir: Path) -> int:
    """Run the exact solver and every configured schedule, emit traces and gaps."""
    out = _Outputs("compare", settings, out_dir)
    gap_files: list[str] = []
    for y0 in settings.y0_list:
        tag = _y0_tag(y0)
        trace_gp = out.solve(f"genvarpro_y0_{tag}", y0)
        out.write_csv(f"gp_y0_{tag}.csv", _TRACE_HEADER, _trace_rows(trace_gp))
        if trace_gp.failed:
            continue
        y_gp = trace_gp.y_history[:, 0]
        for sched_name in settings.schedules:
            trace = out.solve(f"lsqr_{sched_name}_y0_{tag}", y0, sched_name)
            out.write_csv(f"lsqr_{sched_name}_y0_{tag}.csv", _TRACE_HEADER, _trace_rows(trace))
            if trace.failed:
                continue
            y_in = trace.y_history[:, 0]
            count = min(y_gp.size, y_in.size)
            gap_name = f"gap_{sched_name}_y0_{tag}.csv"
            out.write_csv(gap_name, ["k", "gap"],
                          [[k, abs(y_gp[k] - y_in[k])] for k in range(count)])
            gap_files.append(gap_name)
    if gap_files:
        out.write_text("plot_gaps.gp", _gnuplot_script(gap_files))
    return out.finish()


def cmd_bounds(settings: RunSettings, out_dir: Path) -> int:
    """Verify the solution/residual bounds along every inexact run.

    The inexact runs take ||S||_2 in the stopping test, since the bounds are
    stated for the 2-norm. Each record is checked at the tolerance eps its
    inner solve certified, max(eps_k, achieved criterion). Its iterate is
    factored once more for x(y), and kappa and ||S||_2 are read from that
    factorization (``condition_number``, and the square root of the largest
    eigenvalue of its Gram, from the same eigen-solve). Rows with
    eps * kappa >= 1 get NaN bounds; violations above ``MUST_HOLD_EPSILON``
    are check failures, and below it are reported only.
    """
    out = _Outputs("bounds", settings, out_dir)
    problem = out.problem
    b_norm = float(np.linalg.norm(problem.b))
    violations: list[dict] = []
    fatal = False
    for y0 in settings.y0_list:
        tag = _y0_tag(y0)
        for sched_name in settings.schedules:
            trace = out.solve(f"bounds_{sched_name}_y0_{tag}", y0, sched_name,
                              norm_estimate_mode=NORM_MODE_EXPLICIT)
            if trace.failed:
                continue
            rows = []
            for rec in trace.records:
                fact, x_exact, _ = exact_residual(problem.model, rec.y, problem.b,
                                                  problem.L, problem.lam)
                kappa = fact.condition_number()
                eps = max(rec.epsilon, rec.inner_criterion)
                op_norm = float(np.sqrt(fact.extreme_eigenvalues()[1]))
                measured_x = float(np.linalg.norm(x_exact - rec.x))
                op = fact.op
                measured_r = float(np.linalg.norm(op.matvec(rec.x) - op.matvec(x_exact)))
                try:
                    bound_x = solution_bound(kappa, b_norm, op_norm, eps)
                    bound_r = residual_bound(kappa, b_norm, eps)
                except BoundInvalidError:
                    bound_x = bound_r = float("nan")
                violated = measured_x >= bound_x or measured_r >= bound_r
                rows.append([rec.k, eps, kappa, eps * kappa, measured_x, bound_x,
                             measured_r, bound_r, int(violated)])
                if violated:
                    entry = {"schedule": sched_name, "y0": y0, "k": rec.k,
                             "epsilon": eps, "eps_kappa": eps * kappa,
                             "fatal": eps > MUST_HOLD_EPSILON}
                    violations.append(entry)
                    fatal = fatal or entry["fatal"]
                    print(f"bound violation: schedule={sched_name} y0={y0} k={rec.k} "
                          f"eps*kappa={eps * kappa:.3e}"
                          + ("" if entry["fatal"] else " (below rounding floor, not fatal)"),
                          file=sys.stderr)
            out.write_csv(f"bounds_{sched_name}_y0_{tag}.csv",
                          ["k", "epsilon", "kappa", "eps_kappa", "measured_x_err", "x_bound",
                           "measured_r_err", "r_bound", "violation"], rows)
    code = out.finish(violations=violations)
    return EXIT_CHECK if fatal and code == EXIT_OK else code


def cmd_gradcheck(settings: RunSettings) -> int:
    """Finite-difference validation of the Jacobian and gradient at random y."""
    problem = build_problem(settings.problem)
    model = problem.model
    rng = np.random.default_rng(settings.problem.rng_seed + 1000003)
    sigma_true = settings.problem.sigma_true
    worst = 0.0
    for _ in range(5):
        y = np.array([rng.uniform(0.6 * sigma_true, 1.4 * sigma_true)])
        h = 1e-6 * max(1.0, abs(y[0]))
        fact, x, fvec = exact_residual(model, y, problem.b, problem.L, problem.lam)
        J = exact_jacobian(model, y, fact, x, problem.b)
        fvec_plus = exact_residual(model, y + h, problem.b, problem.L, problem.lam)[2]
        fvec_minus = exact_residual(model, y - h, problem.b, problem.L, problem.lam)[2]
        J_fd = ((fvec_plus - fvec_minus) / (2.0 * h))[:, None]
        err_jac = float(np.linalg.norm(J - J_fd, 2) / max(np.linalg.norm(J, 2), 1e-30))
        grad = gradient(J, fvec)
        f_plus = 0.5 * float(fvec_plus @ fvec_plus)
        f_minus = 0.5 * float(fvec_minus @ fvec_minus)
        err_grad = float(abs((f_plus - f_minus) / (2 * h) - grad[0]) / (1.0 + abs(grad[0])))
        err = max(err_jac, err_grad)
        worst = max(worst, err)
        print(f"y={y[0]:.6f}  jacobian rel err {err_jac:.3e}  gradient rel err {err_grad:.3e}")
    print(f"max relative error: {worst:.3e}")
    return EXIT_OK if worst <= 1e-4 else EXIT_CHECK


def cmd_table(settings: RunSettings, out_dir: Path) -> int:
    """Reconstruction-error table over the first seven iterations.

    Runs the exact solver and the exponential-schedule inexact solver for
    exactly seven steps from each configured y0 and tabulates the relative
    reconstruction error, the parameter iterates, and the exact gradient
    magnitudes at both solvers' iterates.
    """
    out = _Outputs("table", settings, out_dir)
    problem = out.problem
    x_true_norm = float(np.linalg.norm(problem.x_true))
    header = ["k", "rre_gp", "rre_ab", "y_gp", "y_ab", "grad_gp", "grad_ab"]
    seven_steps = dict(max_outer_iterations=7)
    for y0 in settings.y0_list:
        tag = _y0_tag(y0)
        trace_gp = out.solve(f"table_gp_y0_{tag}", y0, **seven_steps)
        trace_ab = out.solve(f"table_ab_y0_{tag}", y0, "ab", **seven_steps)
        if trace_gp.failed or trace_ab.failed:
            continue
        rows = []
        for k in range(min(len(trace_gp), len(trace_ab))):
            rec_gp = trace_gp.records[k]
            rec_ab = trace_ab.records[k]
            fact, x_exact, fvec = exact_residual(problem.model, rec_ab.y, problem.b,
                                                 problem.L, problem.lam)
            J = exact_jacobian(problem.model, rec_ab.y, fact, x_exact, problem.b)
            rows.append([
                k,
                float(np.linalg.norm(rec_gp.x - problem.x_true)) / x_true_norm,
                float(np.linalg.norm(rec_ab.x - problem.x_true)) / x_true_norm,
                rec_gp.y[0],
                rec_ab.y[0],
                float(np.linalg.norm(rec_gp.gradient)),
                float(np.linalg.norm(gradient(J, fvec))),
            ])
        out.write_csv(f"table_y0_{tag}.csv", header, rows)
        lines = [f"{'k':>2s} {'RRE(x_GP)':>10s} {'RRE(x_ab)':>10s} "
                 f"{'y_GP':>8s} {'y_ab':>8s} {'|grad_GP|':>10s} {'|grad_ab|':>10s}\n"]
        lines += [f"{row[0]:2d} {row[1]:10.4f} {row[2]:10.4f} "
                  f"{row[3]:8.4f} {row[4]:8.4f} {row[5]:10.2e} {row[6]:10.2e}\n" for row in rows]
        out.write_text(f"table_y0_{tag}.txt", "".join(lines))
    return out.finish()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varproj",
        description="Blind-deconvolution benchmark for variable-projection solvers "
                    "with certified inexact inner solves.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("compare", "run exact and inexact solvers under the configured schedules"),
        ("bounds", "verify the a-posteriori error bounds along the inexact runs"),
        ("gradcheck", "finite-difference validation of the Jacobian and gradient"),
        ("table", "reconstruction-error tables for the first seven iterations"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", default=None, help="INI config file (all keys optional)")
        if name != "gradcheck":
            cmd.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        settings = load_settings(args.config)
        if args.command == "gradcheck":
            return cmd_gradcheck(settings)
        out_dir = Path(args.out)
        if args.command == "compare":
            return cmd_compare(settings, out_dir)
        if args.command == "bounds":
            return cmd_bounds(settings, out_dir)
        return cmd_table(settings, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystemError, NumericalBreakdownError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
