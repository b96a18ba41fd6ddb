import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bilq
from bilq.cli import main
from bilq.core import RngStream, config_from_dict, config_to_dict
from bilq.presets import orthogonal_config, scalar_config
from bilq.sim import PolicyConfig, SimConfig, monte_carlo, write_trajectory_csv


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    return result


def status_line(result):
    return json.loads(result.output.strip().splitlines()[-1])


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def scalar_config_file(tmp_path, horizon=2, runs=6, seed=4):
    sys_, noise, cost = scalar_config()
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(config_to_dict(sys_, noise, cost, horizon,
                                              runs, seed)))
    return path


class TestScalarLandscape:
    def test_row_count_contract(self, runner, tmp_path):
        out = tmp_path / "landscape.csv"
        result = invoke(runner, ["scalar-landscape", "--grid", "-3", "3", "2001",
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 2002

    def test_zero_offset_classification_report(self, runner, tmp_path):
        out = tmp_path / "landscape.csv"
        result = invoke(runner, ["scalar-landscape", "--offset", "0",
                                 "--out", str(out)])
        assert result.exit_code == 0
        report = read_rows(tmp_path / "landscape_critical_points.csv")
        kinds = [row["kind"] for row in report]
        assert kinds.count("local_max") == 1
        assert kinds.count("local_min") == 2
        max_u = float([r["u"] for r in report if r["kind"] == "local_max"][0])
        assert max_u == pytest.approx(-0.05257796257796257, abs=1e-9)

    def test_unit_offset_global_minimizer_near_lqg(self, runner, tmp_path):
        out = tmp_path / "landscape.csv"
        result = invoke(runner, ["scalar-landscape", "--offset", "-1.0",
                                 "--grid", "-3", "3", "120001", "--out", str(out)])
        assert result.exit_code == 0
        rows = read_rows(out)
        us = np.array([float(r["u"]) for r in rows])
        f = np.array([float(r["f_total"]) for r in rows])
        assert abs(us[np.argmin(f)] - (-0.05257796257796257)) < 0.02

    def test_wide_offset_warns(self, runner, tmp_path):
        out = tmp_path / "landscape.csv"
        result = invoke(runner, ["scalar-landscape", "--offset", "1.5",
                                 "--grid", "-3", "3", "51", "--out", str(out)])
        assert result.exit_code == 0
        assert "offset outside" in result.stderr


class TestDoubleIntegrator:
    def test_orderings_and_outputs(self, runner, tmp_path):
        out = tmp_path / "di"
        result = invoke(runner, ["double-integrator", "--runs", "12",
                                 "--seed", "0", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert status_line(result)["status"] == "ok"
        for name in ("perfect", "linear", "bilinear"):
            assert (out / f"trajectories_{name}.csv").exists()
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 3 * 5 * 101

        def p50(obs, metric, t):
            for row in summary:
                if (row["obs_model"] == obs and row["metric"] == metric
                        and row["t"] == str(t)):
                    return float(row["p50"])
            raise KeyError((obs, metric, t))

        assert p50("bilinear", "cum_cost", 100) > p50("linear", "cum_cost", 100)
        assert p50("bilinear", "cov_trace", 100) > 2 * p50("bilinear", "cov_trace", 20)
        assert abs(p50("linear", "cov_trace", 100)
                   - p50("linear", "cov_trace", 20)) <= 0.1 * p50("linear", "cov_trace", 20)

    def test_noise_paired_across_models(self, runner, tmp_path):
        out = tmp_path / "di"
        invoke(runner, ["double-integrator", "--runs", "3", "--seed", "7",
                        "--out", str(out)])
        lin = read_rows(out / "trajectories_linear.csv")
        bil = read_rows(out / "trajectories_bilinear.csv")
        # same sampled initial state and estimate per run: est_err at t=0 equal
        for run in range(3):
            a = [r for r in lin if r["run"] == str(run) and r["t"] == "0"][0]
            b = [r for r in bil if r["run"] == str(run) and r["t"] == "0"][0]
            assert a["est_err"] == b["est_err"]
            assert a["cov_trace"] == b["cov_trace"]


class TestOrthogonal:
    def test_both_variants(self, runner, tmp_path):
        reports = {}
        for variant in ("a", "b"):
            out = tmp_path / variant
            result = invoke(runner, ["orthogonal", "--runs", "4", "--seed", "0",
                                     "--variant", variant, "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports[variant] = json.loads((out / "prop1_report.json").read_text())
            assert reports[variant]["ok"] is True
        sys_a = json.loads((tmp_path / "a" / "system_a.json").read_text())
        sys_b = json.loads((tmp_path / "b" / "system_b.json").read_text())
        assert sys_a["system"]["a"] == sys_b["system"]["a"]
        assert sys_a["system"]["b"] == sys_b["system"]["b"]
        assert sys_a["system"]["ck"] == sys_b["system"]["ck"]
        assert sys_a["system"]["c0"] != sys_b["system"]["c0"]

    def test_linear_variant_is_bilinear_system_without_ck(self, runner, tmp_path):
        out = tmp_path / "o"
        result = invoke(runner, ["orthogonal", "--runs", "3", "--seed", "12",
                                 "--out", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "system_a.json").read_text())
        data["system"]["ck"] = np.zeros_like(data["system"]["ck"]).tolist()
        system, noise, cost, horizon, runs, seed = config_from_dict(data)
        policy = PolicyConfig("separation_lqg", "sampled_from_prior")
        res = monte_carlo(SimConfig(system, noise, cost, policy, horizon), runs, seed)
        write_trajectory_csv(tmp_path / "linear.csv", res.records)
        assert ((tmp_path / "linear.csv").read_bytes()
                == (out / "trajectories_linear.csv").read_bytes())

    def test_single_run_percentiles_collapse(self, runner, tmp_path):
        out = tmp_path / "o1"
        result = invoke(runner, ["orthogonal", "--runs", "1", "--seed", "2",
                                 "--variant", "a", "--out", str(out)])
        assert result.exit_code == 0
        for row in read_rows(out / "summary.csv"):
            assert row["p25"] == row["p50"] == row["p75"]


class TestSimulate:
    def test_runs_and_summary(self, runner, tmp_path):
        config = scalar_config_file(tmp_path, horizon=2, runs=6, seed=4)
        out = tmp_path / "sim"
        result = invoke(runner, ["simulate", "--config", str(config),
                                 "--policy", "scalar_nonlinear_t2",
                                 "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "trajectories.csv")
        assert len(rows) == 6 * 3
        assert status_line(result)["overrides"]["runs"] == 6

    def test_overrides_respected(self, runner, tmp_path):
        config = scalar_config_file(tmp_path, horizon=2, runs=6, seed=4)
        out = tmp_path / "sim"
        result = invoke(runner, ["simulate", "--config", str(config),
                                 "--runs", "2", "--seed", "9", "--out", str(out)])
        assert status_line(result)["overrides"] == {
            "runs": 2, "seed": 9, "policy": "separation_lqg",
            "init_estimate": "sampled_from_prior"}
        assert len(read_rows(out / "trajectories.csv")) == 2 * 3

    def test_parse_error_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system":\n !}')
        result = runner.invoke(main, ["simulate", "--config", str(bad),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code != 0
        assert "line 2" in result.output

    def test_invalid_config_fails_with_summary(self, runner, tmp_path):
        sys_, noise, cost = scalar_config()
        data = config_to_dict(sys_, noise, cost, 2, 2, 0)
        data["noise"]["sigma_z"] = [[0.0]]
        config = tmp_path / "invalid.json"
        config.write_text(json.dumps(data))
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        status = status_line(result)
        assert status["status"] == "fail"
        assert any("sigma_z not positive definite" in f for f in status["failures"])


class TestObservabilityCommand:
    def test_orthogonal_config_verdict(self, runner, tmp_path):
        sys_, noise, cost = orthogonal_config(RngStream(12), "a")
        config = tmp_path / "ortho.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 100, 5, 1)))
        result = invoke(runner, ["observability", "--config", str(config),
                                 "--horizon", "20"])
        assert result.exit_code == 0
        assert "proposition1_ok,True" in result.output
        assert "probe_exceeded_threshold,False" in result.output

    def test_degenerate_config_growth(self, runner, tmp_path):
        sys_, noise, cost = scalar_config()
        sys_ = replace(sys_, c0=[[0.0]])
        data = config_to_dict(sys_, noise, cost, 50, 1, 0)
        data["system"]["a"] = [[1.1]]
        data["noise"]["x0_mean"] = [0.0]
        config = tmp_path / "degen.json"
        config.write_text(json.dumps(data))
        result = invoke(runner, ["observability", "--config", str(config),
                                 "--horizon", "40"])
        assert result.exit_code == 0
        assert "proposition1_ok,False" in result.output
        lines = result.output.splitlines()
        gram_rows = [l for l in lines[1:] if l.split(",")[0].isdigit()]
        assert all(float(row.split(",")[1]) == 0.0 for row in gram_rows)
        trace = float([l for l in lines if l.startswith("probe_final_trace")][0]
                      .split(",")[1])
        assert trace > 10.0

    def test_delta_above_min_eigenvalue(self, runner, tmp_path):
        sys_, noise, cost = orthogonal_config(RngStream(12), "a")
        config = tmp_path / "ortho.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 100, 5, 1)))
        result = invoke(runner, ["observability", "--config", str(config),
                                 "--horizon", "10", "--delta", "1.0"])
        assert result.exit_code == 0
        gram_rows = [l for l in result.output.splitlines()
                     if l and l.split(",")[0].isdigit()]
        assert all(row.endswith("False") for row in gram_rows)


class TestCriticalPointsCommand:
    def test_default_config(self, runner):
        result = invoke(runner, ["critical-points", "--x0hat", "0.1"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines()[1:] if "," in l
                 and not l.startswith("{")]
        kinds = [l.split(",")[1] for l in lines]
        assert kinds.count("local_min") == 2
        assert kinds.count("local_max") == 1

    def test_static_coefficient_rejected(self, runner):
        result = runner.invoke(main, ["critical-points", "--c1", "0"])
        assert result.exit_code != 0
        assert "LQG closed form" in result.output


class TestDeterminism:
    def test_reruns_byte_identical(self, runner, tmp_path):
        args = ["double-integrator", "--runs", "6", "--seed", "3"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        invoke(runner, args + ["--out", str(out1)])
        invoke(runner, args + ["--out", str(out2)])
        for name in ("trajectories_perfect.csv", "trajectories_linear.csv",
                     "trajectories_bilinear.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_orthogonal_reruns_byte_identical(self, runner, tmp_path):
        args = ["orthogonal", "--runs", "6", "--seed", "1", "--variant", "a"]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        invoke(runner, args + ["--out", str(out1)])
        invoke(runner, args + ["--out", str(out2)])
        for name in ("trajectories_linear.csv", "trajectories_bilinear.csv",
                     "summary.csv", "prop1_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_landscape_rerun_identical(self, runner, tmp_path):
        files = []
        for sub in ("x", "y"):
            out = tmp_path / sub / "l.csv"
            invoke(runner, ["scalar-landscape", "--offset", "0.5",
                            "--grid", "-2", "2", "801", "--out", str(out)])
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestInputRanges:
    @pytest.mark.parametrize("command, option, value", [
        ("double-integrator", "--runs", "0"),
        ("double-integrator", "--seed", "-1"),
        ("orthogonal", "--seed", "-1"),
        ("orthogonal", "--seed", str(2 ** 64)),
        ("orthogonal", "--runs", "-3"),
        ("double-integrator", "--c1", "nan"),
        ("scalar-landscape", "--offset", "nan"),
        ("scalar-landscape", "--c1", "nan"),
        ("scalar-landscape", "--grid", "0 1 -1"),
        ("scalar-landscape", "--grid", "0 1 0"),
        ("scalar-landscape", "--grid", "1 0 5"),
        ("scalar-landscape", "--grid", "0 inf 5"),
        ("critical-points", "--c0", "nan"),
        ("critical-points", "--c1", "inf"),
        ("critical-points", "--x0hat", "nan"),
        ("observability", "--delta", "nan"),
        ("observability", "--delta", "-1"),
    ])
    def test_out_of_range_option_rejected_before_output(self, runner, tmp_path,
                                                        command, option, value):
        # critical-points and observability print to stdout; the others write to --out
        out = tmp_path / "out"
        rest = {"critical-points": [],
                "observability": ["--config", str(scalar_config_file(tmp_path))]}
        result = runner.invoke(main, [command, option, *value.split()]
                               + rest.get(command, ["--out", str(out)]))
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not out.exists()
        assert '"status"' not in result.output

    def test_landscape_static_coefficient_rejected(self, runner, tmp_path):
        out = tmp_path / "landscape.csv"
        result = runner.invoke(main, ["scalar-landscape", "--c1", "0", "--out", str(out)])
        assert result.exit_code == 1
        assert "use LQG closed form (c1 = 0)" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_simulate_runs_override_rejected(self, runner, tmp_path):
        config = scalar_config_file(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--runs", "0", "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--runs'" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("runs", 0), ("horizon", 0),
                                              ("seed", -1), ("seed", 2 ** 64)])
    def test_config_field_out_of_range_named(self, runner, tmp_path, field, value):
        config = scalar_config_file(tmp_path)
        data = json.loads(config.read_text())
        data[field] = value
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "config field invalid" in result.output
        assert f"{field} must be" in result.output
        assert "Traceback" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not out.exists()


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # package and its CLI must not load it
    src = Path(bilq.__file__).resolve().parents[1]
    code = ("import sys, bilq, bilq.cli; print(bilq.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    imported_from, scipy_modules = out.stdout.splitlines()
    assert Path(imported_from).resolve().is_relative_to(src)
    assert scipy_modules == "[]"
