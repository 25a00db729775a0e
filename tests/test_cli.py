"""Command-line interface: exit codes, file outputs, reproducibility."""

import configparser
import csv
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

import varproj as vp
import varproj.cli as cli
from varproj import deconv, inner_solvers
from varproj.cli import main
from varproj.inner_solvers import SingularSystemError

from test_inner_solvers import assert_certified_kappa

SMALL_CONFIG = """\
[problem]
n = 48
sigma_true = 2.0
noise_level = 0.05
lambda = 0.02
seed = 7

[solver]
y0 = 1.6
max_outer_iterations = 8

[schedules]
run = ab, s
epsilon0 = 1e-4
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def _read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    return header, rows


def _failing_inexact(starts):
    """A stand-in for inexact_genvarpro whose every run fails at once; it
    records the schedule kind of each run in ``starts``."""
    def failing(*args, **kwargs):
        starts.append(args[5].schedule.kind)
        return vp.SolverTrace(records=[], status="inner-failure", warnings=["boom"])
    return failing


class TestConfig:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["compare", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nblur = 3\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "blur" in capsys.readouterr().err

    def test_removed_lsqr_cap_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("[solver]\nlsqr_max_iterations = 10000\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key 'lsqr_max_iterations'" in capsys.readouterr().err

    # A config that sets a removed setting fails like any other unknown
    # section or key.
    @pytest.mark.parametrize("text,named", [
        ("[output]\ngnuplot = true\n", "unknown config section [output]"),
        ("[problem]\nsignal = piecewise\n", "unknown key 'signal'"),
        ("[solver]\nnorm_estimate_mode = explicit-svd\n", "unknown key 'norm_estimate_mode'"),
        ("[schedules]\nsafety = 0.1\n", "unknown key 'safety'"),
        ("[solver]\nstep_tolerance = 1e-4\n", "unknown key 'step_tolerance'"),
    ])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(text)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err

    def test_unknown_section_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[plotting]\nx = 1\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "plotting" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nn = many\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "n" in err and "many" in err

    def test_bad_ini_syntax_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 128\n")  # a key before any section header
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {cfg}")
        assert not (tmp_path / "o").exists()

    def test_inline_comment_is_stripped(self, tmp_path):
        cfg = tmp_path / "comments.cfg"
        cfg.write_text("[problem]\nn = 48  # signal length\n# a whole-line comment\n"
                       "[solver]\ny0 = 1.5, 2.5  # two runs\n")
        settings = cli.load_settings(str(cfg))
        assert settings.problem.n == 48 and settings.y0_list == (1.5, 2.5)

    def test_percent_is_an_ordinary_character(self, tmp_path, capsys):
        # configparser's default interpolation would raise on "%".
        cfg = tmp_path / "percent.cfg"
        cfg.write_text("[solver]\ny0 = 2%\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: [solver] y0: cannot parse '2%'\n"

    def test_undecodable_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[problem]\n# width \xb5m\nn = 48\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                      "[DEFAULT]\nseed = 3\n[solver]\ny0 = 2.0\n",
                                      "[DEFAULT]\n"],
                             ids=["alone", "with-solver", "empty"])
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        # configparser would otherwise read [DEFAULT]'s keys as keys of
        # every section.
        cfg = tmp_path / "default.cfg"
        cfg.write_text(text)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: unknown config section [DEFAULT]\n"

    # A kernel width whose cube underflows or overflows gave NaN kernel rows
    # or an OverflowError; it is a config error, for the true width and for
    # every starting width alike.
    @pytest.mark.parametrize("section,key,value", [
        ("solver", "y0", "1e-120"), ("solver", "y0", "2.0, 1e120"),
        ("problem", "sigma_true", "1e-120"), ("problem", "sigma_true", "1e-200"),
        ("problem", "sigma_true", "1e120"),
    ])
    def test_kernel_width_out_of_range_is_config_error(self, tmp_path, capsys, section, key,
                                                       value):
        cfg = tmp_path / "width.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {key}: kernel width must be positive")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_empty_list_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[solver]\ny0 = ,\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: [solver] y0: the list is empty")

    def test_out_naming_a_file_is_io_error(self, small_cfg, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["compare", "--config", str(small_cfg), "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert taken.read_text() == ""

    def test_bad_schedule_name(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[schedules]\nrun = b, turbo\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "turbo" in capsys.readouterr().err

    def test_full_kind_name_is_unknown_schedule(self, tmp_path, capsys):
        cfg = tmp_path / "full.cfg"
        cfg.write_text("[schedules]\nrun = exponential\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown schedule 'exponential'" in capsys.readouterr().err

    # A repeated value would rerun a solve and overwrite its outputs.
    @pytest.mark.parametrize("section,key,value,repeated", [
        ("schedules", "run", "b, ab, b", "'b'"),
        ("solver", "y0", "2, 2.0", "2.0"),
    ])
    def test_repeated_value_names_key(self, tmp_path, capsys, section, key, value, repeated):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {key}: {repeated} is listed twice")
        assert not (tmp_path / "o").exists()

    # The config file is the only source of the seed and the schedules.
    @pytest.mark.parametrize("flag,value", [("--seed", "123"), ("--schedules", "ab")])
    def test_setting_flags_are_usage_errors(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--out", str(tmp_path / "o"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # Each invalid value is a config error naming its section and key.
    # Infinite values are rejected too.
    @pytest.mark.parametrize("section,key,value,named", [
        ("solver", "max_outer_iterations", "0", "max_outer_iterations"),
        # `step_tolerance` is no longer a key: every run takes all its steps.
        ("solver", "step_tolerance", "-1", "step_tolerance"),
        # Nor is `gradient_tolerance`: the loop stops on an exactly zero gradient.
        ("solver", "gradient_tolerance", "-1", "gradient_tolerance"),
        ("solver", "step_tolerance", "nan", "step_tolerance"),
        # `safety` is no longer a key: any value of it is an unknown key.
        ("schedules", "safety", "0", "safety"),
        ("solver", "y0", "-1", "y0"),
        ("schedules", "epsilon0", "0", "epsilon0"),
        ("problem", "lambda", "0", "lambda"),
        ("problem", "lambda", "inf", "lambda"),
        ("problem", "noise_level", "inf", "noise_level"),
        ("problem", "tau", "inf", "tau"),
        ("problem", "sigma_true", "inf", "sigma_true"),
        ("problem", "n", "1", "n"),
        ("problem", "n", "4", "n must be at least 8"),
        ("problem", "seed", "-5", "seed"),
        ("solver", "y0", "inf", "y0"),
        ("schedules", "epsilon0", "inf", "epsilon0"),
        ("schedules", "safety", "inf", "safety"),
    ])
    def test_invalid_value_names_key(self, tmp_path, capsys, section, key, value, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] ") and named in err
        assert not (tmp_path / "o").exists()

    def test_defaults_without_config(self):
        settings = cli.load_settings(None)
        assert settings.problem.n == 128
        assert settings.problem.lam == 0.0379
        assert settings.y0_list == (2.0, 4.0)
        assert settings.schedules == ("b", "lb", "ab", "s")
        assert settings.epsilon0 is None
        # Every run takes all its outer steps: the library default is the CLI's.
        assert settings.outer == vp.OuterOptions() and settings.outer.step_tolerance == 0.0

    def test_readme_schema_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"### Config file schema.*?```ini\n(.*?)```", readme, re.S).group(1)
        schema = configparser.ConfigParser(inline_comment_prefixes=("#",))
        schema.read_string(block)
        documented = {(section, key) for section in schema.sections()
                      for key in schema.options(section)}
        assert documented == {(section, key) for section, key, _, _ in cli._CONFIG_KEYS}

    def test_readme_schema_gives_the_defaults(self, tmp_path):
        # The README's schema, saved as written with its comments, is the
        # default run.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"### Config file schema.*?```ini\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        assert cli.load_settings(str(cfg)).resolved() == cli.load_settings(None).resolved()

    def test_readme_library_example_runs(self, capsys):
        # The README's "Library example" runs as written and prints what its
        # comments say: the status and final width, then a finite bound
        # that the record's inner iterate meets against the exact inner
        # solution, read from the example's own namespace.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
        namespace = {}
        exec(compile(example, "README.md", "exec"), namespace)
        status_line, bound_line = capsys.readouterr().out.splitlines()
        status, y = status_line.split(" ", 1)
        assert status == "max-iterations"
        assert float(y.strip("[]")) == pytest.approx(3.075, abs=1e-3)
        assert 0.0 < float(bound_line) < np.inf
        fact, rec = namespace["fact"], namespace["rec"]
        error = float(np.linalg.norm(fact.solve_rhs(namespace["problem"].b) - rec.x))
        assert error < float(bound_line)

    def test_epsilon0_resolution(self, problem):
        settings = cli.load_settings(None)
        assert cli.resolve_epsilon0(settings, problem, 2.0) == 1.8718e-4
        assert cli.resolve_epsilon0(settings, problem, 4.0) == 1.1239e-4
        auto = cli.resolve_epsilon0(settings, problem, 2.5)
        assert 0.0 < auto < 1e-3


class TestCompare:
    def test_outputs_and_manifest(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(small_cfg), "--out", str(out)]) == 0
        expected = {"gp_y0_1p6.csv", "lsqr_ab_y0_1p6.csv", "lsqr_s_y0_1p6.csv",
                    "gap_ab_y0_1p6.csv", "gap_s_y0_1p6.csv", "plot_gaps.gp",
                    "manifest.json"}
        assert {p.name for p in out.iterdir()} == expected
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert sorted(manifest["outputs"]) == manifest["outputs"]
        assert set(manifest["outputs"]) == expected - {"manifest.json"}
        assert manifest["config"]["problem"]["n"] == 48
        assert manifest["config"]["schedules"]["epsilon0"] == 1e-4
        assert all(t >= 0 for t in manifest["timings_seconds"].values())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "numpy_blas", "scipy_blas",
                            "blas_thread_env", "cpu_count"}
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        # numpy and scipy may each bundle their own BLAS build.
        for name, module in (("numpy_blas", np), ("scipy_blas", scipy)):
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert env[name] == f"{blas['name']} {blas['version']}"
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas_thread_env"] == {var: os.environ.get(var)
                                          for var in cli.BLAS_THREAD_VARS}
        assert "OPENBLAS_NUM_THREADS" in env["blas_thread_env"]

    def test_csv_round_trip_and_gap_consistency(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(small_cfg), "--out", str(out)]) == 0
        header, gp_rows = _read_csv(out / "gp_y0_1p6.csv")
        assert header == ["k", "y", "f_value", "grad_norm", "epsilon", "inner_iterations"]
        _, ab_rows = _read_csv(out / "lsqr_ab_y0_1p6.csv")
        _, gap_rows = _read_csv(out / "gap_ab_y0_1p6.csv")
        for k, row in enumerate(gap_rows):
            gap = abs(float(gp_rows[k][1]) - float(ab_rows[k][1]))
            assert float(row[1]) == gap  # 17 significant digits round-trip
        # exact-run rows leave the schedule columns empty
        assert gp_rows[0][4] == ""
        assert ab_rows[0][4] != ""

    def test_y0_values_that_print_alike_keep_their_own_outputs(self, tmp_path):
        # 1.6 and 1.6000001 both print as 1.6 under :g. Each run keeps its
        # own files and timings, and a y0 that :g prints exactly keeps its
        # short name.
        assert cli._y0_tag(1.6) == "1p6" and cli._y0_tag(2.0) == "2"
        assert cli._y0_tag(1.6000001) == "1p6000001"
        cfg = tmp_path / "near.cfg"
        cfg.write_text(SMALL_CONFIG.replace("y0 = 1.6", "y0 = 1.6, 1.6000001")
                       .replace("run = ab, s", "run = s"))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(set(manifest["outputs"])) == manifest["outputs"]
        assert len(manifest["outputs"]) == 7  # gp, lsqr_s and gap_s per y0, plot_gaps.gp
        assert len(manifest["timings_seconds"]) == 4
        for name in ("gp_y0_{}.csv", "lsqr_s_y0_{}.csv", "gap_s_y0_{}.csv"):
            first, second = (out / name.format(tag) for tag in ("1p6", "1p6000001"))
            assert first.read_bytes() != second.read_bytes()

    def test_byte_identical_rerun(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["compare", "--config", str(small_cfg), "--out", str(out1)]) == 0
        assert main(["compare", "--config", str(small_cfg), "--out", str(out2)]) == 0
        for name in ["gp_y0_1p6.csv", "lsqr_ab_y0_1p6.csv", "gap_s_y0_1p6.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_outputs(self, small_cfg, tmp_path):
        reseeded = tmp_path / "reseeded.cfg"
        reseeded.write_text(SMALL_CONFIG.replace("seed = 7", "seed = 123"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["compare", "--config", str(small_cfg), "--out", str(out1)]) == 0
        assert main(["compare", "--config", str(reseeded), "--out", str(out2)]) == 0
        assert (out1 / "gp_y0_1p6.csv").read_bytes() != (out2 / "gp_y0_1p6.csv").read_bytes()

    def test_emitted_gap_file_slope_on_default_problem(self, tmp_path):
        # Fit on the emitted data: the exponential schedule's gap decays
        # geometrically over k in [2, 20].
        cfg = tmp_path / "default2.cfg"
        cfg.write_text("[solver]\ny0 = 2.0\n[schedules]\nrun = ab\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "gap_ab_y0_2.csv", "gp_y0_2.csv", "lsqr_ab_y0_2.csv", "manifest.json",
            "plot_gaps.gp"]
        _, rows = _read_csv(out / "gap_ab_y0_2.csv")
        gaps = np.array([float(r[1]) for r in rows])
        ks = np.arange(2, 21)
        slope = np.polyfit(ks, np.log2(np.maximum(gaps[2:21], 1e-18)), 1)[0]
        assert slope <= -0.25

    # An S^T S that overflows is a solver failure (exit 2), not a traceback,
    # under every warnings filter: in dsyrk (lambda alone, n = 128), in
    # add_gram on the band route (n = 1024), and in to_dense, where lambda
    # times the weights of tau = 1e-320 overflows.
    OVERFLOWS = ["lambda = 1e160", "tau = 1e-320", "n = 1024\nlambda = 1e160",
                 "lambda = 1e160\ntau = 1e-320"]

    @pytest.mark.parametrize("setting", OVERFLOWS,
                             ids=[setting.replace("\n", ", ") for setting in OVERFLOWS])
    def test_overflowed_gram_is_a_solver_failure(self, tmp_path, capsys, setting):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(f"[problem]\n{setting}\n[solver]\ny0 = 2.0\nmax_outer_iterations = 2\n"
                       "[schedules]\nrun = b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "status=inner-failure" in err and "non-finite entry" in err
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_solver_failure_exit_code(self, small_cfg, tmp_path, monkeypatch):
        import varproj.varpro as varpro_mod

        def failing(*args, **kwargs):
            return varpro_mod.SolverTrace(records=[], status="inner-failure",
                                          warnings=["boom"])

        monkeypatch.setattr(cli, "genvarpro", failing)
        assert main(["compare", "--config", str(small_cfg),
                     "--out", str(tmp_path / "o")]) == 2
        # partial outputs retained
        assert (tmp_path / "o" / "gp_y0_1p6.csv").exists()
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_failed_inexact_run_goes_on(self, small_cfg, tmp_path, monkeypatch, capsys):
        # Each failed schedule is reported and the next one runs; no gap file
        # is written for it, and the manifest still closes the command.
        starts = []
        monkeypatch.setattr(cli, "inexact_genvarpro", _failing_inexact(starts))
        out = tmp_path / "o"
        assert main(["compare", "--config", str(small_cfg), "--out", str(out)]) == 2
        assert starts == ["exponential", "fixed-small"]
        err = capsys.readouterr().err
        assert "inexact (ab) y0=1.6" in err and "inexact (s) y0=1.6" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["gp_y0_1p6.csv", "lsqr_ab_y0_1p6.csv",
                                       "lsqr_s_y0_1p6.csv"]

    def test_solver_exception_exit_code(self, small_cfg, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularSystemError("normal equations are not positive definite")

        monkeypatch.setattr(cli, "genvarpro", singular)
        assert main(["compare", "--config", str(small_cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "solver error" in capsys.readouterr().err

    def test_programming_error_propagates(self, small_cfg, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword argument")

        monkeypatch.setattr(cli, "genvarpro", broken)
        with pytest.raises(TypeError):
            main(["compare", "--config", str(small_cfg), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["compare", "bounds", "table"])
def test_unresolvable_epsilon0_is_a_failed_run(tmp_path, capsys, command):
    # At y0 = 2.5, epsilon0 = auto takes kappa0 from the Gram at y0, which
    # overflows at lambda = 1e160. Each command reports the failed runs,
    # closes with its manifest and exits 2; compare never resolves epsilon0,
    # since its exact run at y0 fails first. A run that never started has
    # no timing.
    cfg = tmp_path / "auto.cfg"
    cfg.write_text("[problem]\nlambda = 1e160\n[solver]\ny0 = 2.5\nmax_outer_iterations = 1\n"
                   "[schedules]\nrun = b\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    failed = {"compare": ["genvarpro"], "bounds": ["inexact (b)"],
              "table": ["genvarpro", "inexact (ab)"]}[command]
    for label in failed:
        assert f"solver failure in {label} y0=2.5: status=inner-failure" in err
    assert ("epsilon0: the Gram matrix S^T S has a non-finite entry" in err) == (
        command != "compare")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == (["gp_y0_2p5.csv"] if command == "compare" else [])
    assert not any("_b_" in key or "_ab_" in key for key in manifest["timings_seconds"])


def test_epsilon0_resolved_once_per_y0(small_cfg, tmp_path, monkeypatch, capsys):
    # Every schedule from one y0 starts at the same epsilon0, resolved once;
    # one that cannot be resolved fails each of them without a retry, and
    # the exact run goes on.
    calls = []

    def unresolvable(settings, problem, y0):
        calls.append(y0)
        raise SingularSystemError("cannot bound the condition number")

    monkeypatch.setattr(cli, "resolve_epsilon0", unresolvable)
    out = tmp_path / "o"
    assert main(["compare", "--config", str(small_cfg), "--out", str(out)]) == 2
    assert calls == [1.6]
    err = capsys.readouterr().err
    assert err.count("epsilon0: cannot bound the condition number") == 2
    assert "inexact (ab) y0=1.6" in err and "inexact (s) y0=1.6" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["gp_y0_1p6.csv", "lsqr_ab_y0_1p6.csv",
                                   "lsqr_s_y0_1p6.csv"]


class TestBounds:
    def test_no_violations_on_small_benchmark(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(small_cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "bounds_ab_y0_1p6.csv")
        assert header[:4] == ["k", "epsilon", "kappa", "eps_kappa"]
        for row in rows:
            eps_kappa = float(row[3])
            if eps_kappa < 1.0 and float(row[1]) > cli.MUST_HOLD_EPSILON:
                assert float(row[4]) < float(row[5])   # measured x err < bound
                assert float(row[6]) < float(row[7])   # measured r err < bound
                assert row[8] == "0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["violations"] == []

    def test_kappa_column_is_svd_condition_number(self, small_cfg, tmp_path, monkeypatch):
        traces = []

        def recording(*args, _solve=cli.inexact_genvarpro, **kwargs):
            traces.append(_solve(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "inexact_genvarpro", recording)
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(small_cfg), "--out", str(out)]) == 0
        problem = vp.build_problem(cli.load_settings(str(small_cfg)).problem)
        assert len(traces) == 2
        for name, trace in zip(["ab", "s"], traces):
            _, rows = _read_csv(out / f"bounds_{name}_y0_1p6.csv")
            assert len(rows) == len(trace) == 9
            for rec, row in zip(trace.records, rows):
                # kappa is condition_number's certified upper bound, which
                # lies within its bracket around the SVD's kappa.
                op = vp.stacked_operator(problem, rec.y[0])
                assert float(row[2]) == vp.condition_number(op)
                assert assert_certified_kappa(op) is not None

    def test_band_route_takes_no_svd(self, tmp_path, monkeypatch):
        # At n = 512 the Gram of widths up to about 2.37 is a band, so bounds
        # takes kappa and ||S||_2 from its eigenvalues and never materializes
        # S. Each kappa is a certified upper bound on the SVD's.
        cfg = tmp_path / "band.cfg"
        cfg.write_text("[problem]\nn = 512\nsigma_true = 2.0\n[solver]\ny0 = 2.0\n"
                       "max_outer_iterations = 2\n[schedules]\nrun = b\n")
        traces = []

        def recording(*args, _solve=cli.inexact_genvarpro, **kwargs):
            traces.append(_solve(*args, **kwargs))
            return traces[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("bounds took an SVD or materialized S")

        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "inexact_genvarpro", recording)
            patch.setattr(np.linalg, "svd", refuse)
            patch.setattr(vp.StackedOperator, "to_dense", refuse)
            assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        problem = vp.build_problem(cli.load_settings(str(cfg)).problem)
        _, rows = _read_csv(out / "bounds_b_y0_2.csv")
        assert len(traces) == 1 and len(rows) == len(traces[0]) == 3
        for rec, row in zip(traces[0].records, rows):
            op = vp.stacked_operator(problem, rec.y[0])
            assert vp.linops.normal_band(op) is not None
            s = np.linalg.svd(op.to_dense(), compute_uv=False)
            assert float(row[2]) >= s[0] / s[-1]

    def test_one_gram_per_record_beyond_the_run(self, tmp_path, monkeypatch):
        # The run factors a Gram at each of its 4 records. bounds factors
        # each record once more, for x(y), and reads kappa and ||S||_2 from
        # that factorization: 8 Grams, and 8 materializations of the dense
        # n = 128 S, the kappa0 check's included.
        cfg = tmp_path / "four.cfg"
        cfg.write_text("[solver]\ny0 = 2.0\nmax_outer_iterations = 3\n[schedules]\nrun = b\n")
        calls = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(inner_solvers._Gram, "__init__",
                            counting("gram", inner_solvers._Gram.__init__))
        monkeypatch.setattr(vp.StackedOperator, "to_dense",
                            counting("to_dense", vp.StackedOperator.to_dense))
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(_read_csv(out / "bounds_b_y0_2.csv")[1]) == 4
        assert calls == {"gram": 8, "to_dense": 8}

    def test_failed_run_goes_on(self, small_cfg, tmp_path, monkeypatch, capsys):
        starts = []
        monkeypatch.setattr(cli, "inexact_genvarpro", _failing_inexact(starts))
        out = tmp_path / "o"
        assert main(["bounds", "--config", str(small_cfg), "--out", str(out)]) == 2
        assert starts == ["exponential", "fixed-small"]
        err = capsys.readouterr().err
        assert "inexact (ab) y0=1.6" in err and "inexact (s) y0=1.6" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [] and manifest["violations"] == []

    def test_fatal_violation_exit_code(self, small_cfg, tmp_path, monkeypatch):
        # Force a violation by shrinking every computed bound to zero.
        monkeypatch.setattr(cli, "solution_bound", lambda *a: 0.0)
        assert main(["bounds", "--config", str(small_cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_each_record_checked_at_its_certified_tolerance(self, tmp_path, monkeypatch):
        # From k = 25 on, the explicit-norm exponential run's inner solves
        # stall near 6e-12, short of their eps_k. Each row is checked at the
        # tolerance its solve certified, max(eps_k, achieved criterion), so
        # the bounds hold at every record.
        cfg = tmp_path / "ab2.cfg"
        cfg.write_text("[solver]\ny0 = 2.0\n[schedules]\nrun = ab\n")
        traces = []

        def recording(*args, _solve=cli.inexact_genvarpro, **kwargs):
            traces.append(_solve(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "inexact_genvarpro", recording)
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["violations"] == []
        _, rows = _read_csv(out / "bounds_ab_y0_2.csv")
        assert len(rows) == len(traces[0]) == 51
        assert not all(rec.inner_converged for rec in traces[0].records)
        for rec, row in zip(traces[0].records, rows):
            assert float(row[1]) == max(rec.epsilon, rec.inner_criterion)
            assert row[8] == "0"

    def test_default_benchmark_all_schedules(self, tmp_path):
        # On the standard benchmark the bounds hold at every iteration for
        # the constant, linear and fixed-small schedules; the exponential
        # schedule may violate only below the solver's rounding floor.
        cfg = tmp_path / "default2.cfg"
        cfg.write_text("[solver]\ny0 = 2.0\nmax_outer_iterations = 50\n")
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for violation in manifest["violations"]:
            assert violation["schedule"] == "ab"
            assert violation["epsilon"] <= cli.MUST_HOLD_EPSILON
            assert not violation["fatal"]
        for name in ["bounds_b_y0_2.csv", "bounds_lb_y0_2.csv", "bounds_s_y0_2.csv"]:
            _, rows = _read_csv(out / name)
            assert len(rows) == 51
            assert all(row[8] == "0" for row in rows)


class TestGradcheck:
    def test_passes_on_benchmark(self, small_cfg, capsys):
        assert main(["gradcheck", "--config", str(small_cfg)]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_corrupted_derivative_fails(self, small_cfg, monkeypatch):
        # Negative control: a derivative 5% off must fail the check.
        clean = deconv.gaussian_toeplitz_derivative
        monkeypatch.setattr(deconv, "gaussian_toeplitz_derivative",
                            lambda sigma, n: vp.DenseOperator(1.05 * clean(sigma, n).to_dense()))
        assert main(["gradcheck", "--config", str(small_cfg)]) == 3

    @pytest.mark.parametrize("command,flags", [("gradcheck", ["--config"]),
                                               ("compare", ["--config", "--out"])],
                             ids=["gradcheck", "compare"])
    def test_help_lists_only_config_and_out(self, capsys, command, flags):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", usage)) == {"--help", *flags}


def test_output_digests_cover_every_command(capsys):
    # tools/output_digests.py runs WRITING_COMMANDS with --out and gradcheck
    # for its stdout; a command outside both would drop out of the check.
    spec = importlib.util.spec_from_file_location(
        "output_digests", Path(__file__).resolve().parents[1] / "tools" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(commands) == sorted([*digests.WRITING_COMMANDS, "gradcheck"])
    writing = []
    for command in commands:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        if "--out" in capsys.readouterr().out:
            writing.append(command)
    assert sorted(writing) == sorted(digests.WRITING_COMMANDS)


def test_code_lines_lists_every_module():
    # tools/code_lines.py counts the code lines of each library module and
    # their sum; a module it skipped would drop out of a refactor's count.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "tools" / "code_lines.py"), str(root)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *modules, total = [line.split() for line in done.stdout.splitlines()]
    assert [name for _, _, name in modules] == sorted(
        path.name for path in (root / "src" / "varproj").glob("*.py"))
    assert total[2] == "total"
    for column in (0, 1):
        assert int(total[column]) == sum(int(module[column]) for module in modules)
    for code, lines, name in modules:
        assert 0 < int(code) <= int(lines)
        assert int(lines) == len((root / "src" / "varproj" / name).read_text().splitlines())
    # The rule: docstrings, full-line comments and blank lines do not count.
    spec = importlib.util.spec_from_file_location("code_lines", root / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = ('"""Module.\n\nDocstring."""\n\n# comment\nx = 1  # kept\n\n'
              'class C:\n    """Doc."""\n\n    def f(self):\n        """Doc."""\n'
              '        return "#"\n')
    assert tool.count(source) == (4, 13)


class TestTable:
    def test_default_benchmark_table_properties(self, tmp_path):
        cfg = tmp_path / "default2.cfg"
        cfg.write_text("[solver]\ny0 = 2.0\n")
        out = tmp_path / "out"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = _read_csv(out / "table_y0_2.csv")
        assert len(rows) == 8
        grad_gp = [float(r[5]) for r in rows]
        grad_ab = [float(r[6]) for r in rows]
        # gradient columns are nonincreasing after k = 2 and small by k = 7
        assert all(np.diff(grad_gp[2:]) <= 0.0)
        assert all(np.diff(grad_ab[2:]) <= 0.0)
        assert grad_gp[7] <= 1e-3 and grad_ab[7] <= 1e-3
        # parameter columns agree to ~4 decimals by k = 7
        assert abs(float(rows[7][3]) - float(rows[7][4])) <= 1e-3
        # the k = 0 row sits at y0 with the reconstruction error of the
        # inner solves there
        assert float(rows[0][3]) == 2.0 and float(rows[0][4]) == 2.0
        assert float(rows[0][1]) > 0.0 and float(rows[0][2]) > 0.0

    def test_solver_failure_runs_every_y0(self, tmp_path, monkeypatch, capsys):
        import varproj.varpro as varpro_mod
        starts = []

        def failing(*args, **kwargs):
            starts.append(float(args[4][0]))
            return varpro_mod.SolverTrace(records=[], status="inner-failure",
                                          warnings=["boom"])

        monkeypatch.setattr(cli, "genvarpro", failing)
        cfg = tmp_path / "two.cfg"
        cfg.write_text(SMALL_CONFIG.replace("y0 = 1.6", "y0 = 1.6, 2.0"))
        out = tmp_path / "o"
        assert main(["table", "--config", str(cfg), "--out", str(out)]) == 2
        assert starts == [1.6, 2.0]
        err = capsys.readouterr().err
        assert "genvarpro y0=1.6" in err and "genvarpro y0=2.0" in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "table"
        assert manifest["outputs"] == []

    def test_table_files(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["table", "--config", str(small_cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "table_y0_1p6.csv")
        assert header == ["k", "rre_gp", "rre_ab", "y_gp", "y_ab", "grad_gp", "grad_ab"]
        assert len(rows) == 8  # k = 0..7
        assert rows[0][0] == "0"
        # k = 0 rows start from y0 for both solvers
        assert float(rows[0][3]) == 1.6 and float(rows[0][4]) == 1.6
        for row in rows:
            assert all(np.isfinite(float(v)) for v in row)
        text = (out / "table_y0_1p6.txt").read_text()
        assert text.splitlines()[0].split() == ["k", "RRE(x_GP)", "RRE(x_ab)",
                                                "y_GP", "y_ab", "|grad_GP|", "|grad_ab|"]
        assert len(text.splitlines()) == 9
        # one timing per solver run
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["timings_seconds"]) == {"table_gp_y0_1p6", "table_ab_y0_1p6"}


def _compare_help_from(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", module, "compare", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: varproj compare")


def test_python_m_varproj_runs_the_cli():
    _compare_help_from("varproj")


def test_python_m_varproj_cli_runs_the_cli():
    _compare_help_from("varproj.cli")
