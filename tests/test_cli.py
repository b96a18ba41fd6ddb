import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bilq
import bilq.cli
import bilq.control
import bilq.sim
from bilq.cli import main
from bilq.core import PSD_TOL, RngStream, config_from_dict, config_to_dict
from bilq.presets import double_integrator_config, orthogonal_config, scalar_config
from bilq.sim import METRICS, PolicyConfig, SimConfig, monte_carlo, write_trajectory_csv

from helpers import failing_lqg


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


def assert_failed_on(result, failure):
    """The command printed its status line and failed on one postcondition, whose
    entry starts with `failure`: exit 1 and no traceback."""
    assert result.exit_code == 1, result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    status = status_line(result)
    assert status["status"] == "fail"
    assert len(status["failures"]) == 1 and status["failures"][0].startswith(failure)


def perturb_result(monkeypatch, name, perturb):
    """bilq.cli's imported `name` hands the command its result passed through perturb."""
    original = getattr(bilq.cli, name)
    monkeypatch.setattr(bilq.cli, name, lambda *args, **kw: perturb(original(*args, **kw)))


def with_series(result, metric, **series):
    """A Monte Carlo result with one metric's percentile series changed."""
    percentiles = dict(result.percentiles)
    percentiles[metric] = replace(percentiles[metric], **series)
    return replace(result, percentiles=percentiles)


# faults in the first critical point of the default scalar objective, a strict local minimum
CRITICAL_POINT_FAULTS = [
    (lambda points: [replace(points[0], u=np.nan), *points[1:]], "non-finite critical point"),
    (lambda points: [replace(points[0], kind=bilq.control.LOCAL_MAX), *points[1:]],
     "classification inconsistent at u=")]
CRITICAL_POINT_IDS = ["non-finite", "misclassified"]


class TestScalarLandscape:
    @pytest.mark.parametrize("perturb, failure", [
        *((lambda table, fault=fault: replace(
            table, critical_points=tuple(fault(table.critical_points))), failure)
          for fault, failure in CRITICAL_POINT_FAULTS),
        (lambda table: replace(table, f_total=np.full_like(table.f_total, np.nan)),
         "non-finite landscape values")], ids=[*CRITICAL_POINT_IDS, "landscape"])
    def test_failed_postcondition_named(self, runner, tmp_path, monkeypatch, perturb, failure):
        perturb_result(monkeypatch, "landscape_sweep", perturb)
        result = runner.invoke(main, ["scalar-landscape", "--grid", "-3", "3", "51",
                                      "--out", str(tmp_path / "landscape.csv")])
        assert_failed_on(result, failure)

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

    def test_one_metric_table_per_result(self, runner, tmp_path, monkeypatch):
        # the table that gives the percentiles also writes the trajectory CSV
        built = []
        metric_table = bilq.sim.metric_table

        def counted(records):
            built.append(len(records))
            return metric_table(records)

        monkeypatch.setattr(bilq.sim, "metric_table", counted)
        result = invoke(runner, ["double-integrator", "--runs", "2", "--seed", "0",
                                 "--out", str(tmp_path / "di")])
        assert result.exit_code == 0, result.output
        assert built == [2, 2, 2]

    def test_each_variant_is_its_config_run_alone(self, runner, tmp_path):
        # the command runs its variants in one call; each CSV is the bytes
        # of its config's Monte Carlo alone
        out = tmp_path / "di"
        result = invoke(runner, ["double-integrator", "--runs", "3", "--seed", "12",
                                 "--c1", "0.9", "--out", str(out)])
        assert result.exit_code == 0, result.output
        for name, kind in (("perfect", "perfect_state_lqr"), ("linear", "separation_lqg"),
                           ("bilinear", "separation_lqg")):
            system, noise, cost = double_integrator_config(name, c1=0.9)
            config = SimConfig(system, noise, cost,
                               PolicyConfig(kind, "sampled_from_prior"), 100)
            write_trajectory_csv(tmp_path / f"{name}.csv",
                                 monte_carlo(config, 3, 12).table)
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (out / f"trajectories_{name}.csv").read_bytes()), name

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


    # the results come in variant order: perfect, linear, bilinear
    @pytest.mark.parametrize("variant, metric, p50, failure", [
        (2, "cum_cost", np.zeros_like, "bilinear median cumulative cost does not exceed linear"),
        (2, "cov_trace", np.ones_like, "bilinear median covariance trace did not double from t=20"),
        (1, "cov_trace", lambda p50: np.linspace(1.0, 2.0, p50.size),
         "linear median covariance trace not stable")], ids=["cost", "growth", "plateau"])
    def test_failed_postcondition_named(self, runner, tmp_path, monkeypatch,
                                        variant, metric, p50, failure):
        def perturb(results):
            results = list(results)
            series = results[variant].percentiles[metric]
            results[variant] = with_series(results[variant], metric, p50=p50(series.p50))
            return results

        perturb_result(monkeypatch, "monte_carlo", perturb)
        result = runner.invoke(main, ["double-integrator", "--runs", "10", "--seed", "1",
                                      "--out", str(tmp_path / "di")])
        assert_failed_on(result, failure)


def growing_tail(probe):
    """The probe with every norm after step 50 at twice its largest."""
    norms = probe.norms.copy()
    norms[51:] = 2.0 * norms.max()
    return replace(probe, norms=norms)


class TestOrthogonal:
    @pytest.mark.parametrize("name, perturb, failure", [
        ("check_proposition1", lambda prop: replace(prop, ok=False),
         "sufficient observability condition failed"),
        ("covariance_boundedness_probe", growing_tail,
         "covariance norm still growing in the second half")], ids=["condition", "tail"])
    def test_failed_postcondition_named(self, runner, tmp_path, monkeypatch,
                                        name, perturb, failure):
        perturb_result(monkeypatch, name, perturb)
        result = runner.invoke(main, ["orthogonal", "--runs", "2", "--seed", "0",
                                      "--out", str(tmp_path / "o")])
        assert_failed_on(result, failure)

    def test_both_variants(self, runner, tmp_path):
        reports = {}
        for variant in ("a", "b"):
            out = tmp_path / variant
            result = invoke(runner, ["orthogonal", "--runs", "4", "--seed", "0",
                                     "--variant", variant, "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports[variant] = json.loads((out / "prop1_report.json").read_text())
            assert reports[variant]["ok"] is True
            assert sorted(reports[variant]) == [
                "min_eigenvalue", "norm_o1", "norm_o2", "norm_o3", "ok", "probe_head_max",
                "probe_max_norm", "probe_tail_max", "variant"]
            assert np.isfinite([reports[variant][f"norm_o{k}"] for k in (1, 2, 3)]).all()
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
        write_trajectory_csv(tmp_path / "linear.csv", res.table)
        assert ((tmp_path / "linear.csv").read_bytes()
                == (out / "trajectories_linear.csv").read_bytes())

    def test_single_run_percentiles_collapse(self, runner, tmp_path):
        out = tmp_path / "o1"
        result = invoke(runner, ["orthogonal", "--runs", "1", "--seed", "2",
                                 "--variant", "a", "--out", str(out)])
        assert result.exit_code == 0
        for row in read_rows(out / "summary.csv"):
            assert row["p25"] == row["p50"] == row["p75"]


def negative_cost(result):
    """The result with run 0's first stage cost at -1."""
    table = result.table.copy()
    table[0, 0, METRICS.index("stage_cost")] = -1.0
    return replace(result, table=table)


class TestSimulate:
    @pytest.mark.parametrize("perturb, failure", [
        (lambda res: with_series(res, "cum_cost", p25=res.percentiles["cum_cost"].p50 + 1.0),
         "percentile ordering violated for cum_cost"),
        (negative_cost, "negative realized cost")], ids=["ordering", "cost"])
    def test_failed_postcondition_named(self, runner, tmp_path, monkeypatch, perturb, failure):
        perturb_result(monkeypatch, "monte_carlo", perturb)
        result = runner.invoke(main, ["simulate", "--config", str(scalar_config_file(tmp_path)),
                                      "--out", str(tmp_path / "sim")])
        assert_failed_on(result, failure)

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

    def test_ck_count_mismatch_named(self, runner, tmp_path):
        config = scalar_config_file(tmp_path)
        data = json.loads(config.read_text())
        data["system"]["ck"] = []
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "config field invalid: ck count 0 != 1 columns of b" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_non_integer_horizon_rejected(self, runner, tmp_path):
        config = scalar_config_file(tmp_path)
        data = json.loads(config.read_text())
        data["horizon"] = 2.9
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "config field invalid: horizon must be an integer, got 2.9" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("section, name, value, message", [
        (None, "runs", 2.5, "runs must be an integer, got 2.5"),
        ("system", "a", [["0.9"]], "a entries must be numbers, got '0.9'"),
        ("noise", "x0_mean", [[0.1]], "x0_mean must be a 1-d vector, got shape (1, 1)"),
    ], ids=["runs", "a", "x0_mean"])
    def test_non_number_entry_rejected(self, runner, tmp_path, section, name, value, message):
        config = scalar_config_file(tmp_path)
        data = json.loads(config.read_text())
        (data if section is None else data[section])[name] = value
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert f"config field invalid: {message}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("config, failure", [
        (lambda: config_to_dict(*scalar_config(), 3, 2, 1),
         "scalar_nonlinear_t2 requires horizon 2"),
        (lambda: config_to_dict(*double_integrator_config("bilinear"), 16, 2, 1),
         "scalar_nonlinear_t2 requires a scalar system"),
    ], ids=["scalar horizon 3", "bilinear double integrator"])
    def test_scalar_nonlinear_t2_restrictions(self, runner, tmp_path, config, failure):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config()))
        result = invoke(runner, ["simulate", "--config", str(path),
                                 "--policy", "scalar_nonlinear_t2", "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        status = status_line(result)
        assert status["status"] == "fail"
        assert status["failures"] == [failure]
        assert not (tmp_path / "x").exists()

    def test_known_initial_state_runs(self, runner, tmp_path):
        # sigma_0 = 0 is PSD: every run starts at the prior mean
        config = scalar_config_file(tmp_path, horizon=2, runs=4, seed=1)
        data = json.loads(config.read_text())
        data["noise"]["sigma_0"] = [[0.0]]
        config.write_text(json.dumps(data))
        result = invoke(runner, ["simulate", "--config", str(config),
                                 "--policy", "scalar_nonlinear_t2",
                                 "--out", str(tmp_path / "x")])
        assert result.exit_code == 0, result.output
        assert status_line(result)["status"] == "ok"
        rows = read_rows(tmp_path / "x" / "trajectories.csv")
        assert {float(row["cov_trace"]) for row in rows if row["t"] == "0"} == {0.0}

    @staticmethod
    def noiseless_config(tmp_path):
        # no process noise: the filter's covariance turns singular, which the
        # stage objective's innovation form accepts (see tests/test_sim.py::
        # TestFailureLocalization)
        sys_, noise, cost = orthogonal_config(RngStream(0), "a")
        noise = replace(noise, sigma_w=np.zeros((6, 6)))
        config = tmp_path / "noiseless.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 10, 3, 1)))
        return config

    def test_noiseless_numeric_bellman_succeeds(self, runner, tmp_path):
        result = invoke(runner, ["simulate", "--config", str(self.noiseless_config(tmp_path)),
                                 "--policy", "numeric_bellman", "--out", str(tmp_path / "x")])
        assert result.exit_code == 0 and status_line(result)["status"] == "ok"
        rows = read_rows(tmp_path / "x" / "trajectories.csv")
        assert len(rows) == 3 * 11
        values = np.array([[float(row[k]) for k in row] for row in rows])
        assert np.isfinite(values).all()
        assert min(float(row["cov_trace"]) for row in rows) >= -PSD_TOL

    def test_policy_failure_fails_with_status_line(self, runner, tmp_path, monkeypatch):
        monkeypatch.setitem(bilq.sim.POLICIES, "numeric_bellman", failing_lqg(2))
        result = invoke(runner, ["simulate", "--config", str(self.noiseless_config(tmp_path)),
                                 "--policy", "numeric_bellman", "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        status = status_line(result)
        assert status["status"] == "fail"
        assert status["failures"] == ["numeric_bellman decision failed: step 2, told to fail"]
        assert not (tmp_path / "x").exists()


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


    def test_known_initial_state(self, runner, tmp_path):
        sys_, noise, cost = double_integrator_config("bilinear")
        noise = replace(noise, sigma_0=np.zeros((2, 2)))
        config = tmp_path / "di.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 20, 1, 0)))
        result = invoke(runner, ["observability", "--config", str(config),
                                 "--horizon", "20"])
        assert result.exit_code == 0, result.output
        assert status_line(result)["status"] == "ok"

    def test_horizon_below_n_is_a_usage_error(self, runner, tmp_path):
        # the probe's own count rule, reported without a traceback
        sys_, noise, cost = orthogonal_config(RngStream(12), "a")
        config = tmp_path / "ortho.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 100, 5, 1)))
        result = runner.invoke(main, ["observability", "--config", str(config),
                                      "--horizon", "3"])
        assert result.exit_code == 1
        assert result.output == "Error: horizon must be at least 6, got 3\n"
        assert isinstance(result.exception, SystemExit)


def test_twin_sensor_failure_named_by_both_closed_loops(runner, tmp_path):
    # two identical, all but noiseless sensors: the innovation covariance is
    # singular at step 0 of the probe's run and of every Monte Carlo run
    sys_, noise, cost = scalar_config()
    sys_ = replace(sys_, c0=[[1.0], [1.0]], ck=([[0.0], [0.0]],))
    noise = replace(noise, sigma_z=1e-16 * np.eye(2))
    config = tmp_path / "twin.json"
    config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 5, 3, 1)))
    result = runner.invoke(main, ["observability", "--config", str(config)])
    assert result.exit_code == 1
    assert result.output == ("Error: innovation covariance singular: step 0, "
                             "condition number inf\n")
    assert isinstance(result.exception, SystemExit)
    result = invoke(runner, ["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert result.exit_code == 1 and "Traceback" not in result.output
    status = status_line(result)
    assert status["status"] == "fail"
    assert status["failures"] == ["innovation covariance singular: run 0, step 0, "
                                  "condition number inf"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["double-integrator", "orthogonal", "observability"])
def test_one_riccati_table_per_command(runner, tmp_path, monkeypatch, command):
    # double-integrator's three variants, orthogonal's two and its probe, and
    # observability's probe each run on one table
    sys_, noise, cost = orthogonal_config(RngStream(12), "a")
    config = tmp_path / "ortho.json"
    config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 100, 5, 1)))
    calls = []
    riccati = bilq.control.riccati_recursion

    def counted(*args):
        calls.append(args)
        return riccati(*args)

    for module in (bilq.control, bilq.sim, bilq.cli):
        monkeypatch.setattr(module, "riccati_recursion", counted)
    args = (["--config", str(config)] if command == "observability"
            else ["--runs", "2", "--seed", "1", "--out", str(tmp_path / "out")])
    result = invoke(runner, [command, *args])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_in_process_calls_leave_no_captured_stream_alive(runner, tmp_path):
    # click.echo's default stream is cached per stream, and the cache keeps
    # the stream alive; each buffer captured around an in-process call must
    # be freed with its text as the test runner captures it
    sys_, noise, cost = orthogonal_config(RngStream(12), "a")
    config = tmp_path / "ortho.json"
    config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 100, 5, 1)))
    buffers = []
    for args in (["observability", "--config", str(config), "--horizon", "8"],
                 ["critical-points"],
                 ["scalar-landscape", "--offset", "2", "--out", str(tmp_path / "l.csv")]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args, standalone_mode=False)
        expected = invoke(runner, args)
        assert (out.getvalue(), err.getvalue()) == (expected.stdout, expected.stderr)
        assert json.loads(out.getvalue().splitlines()[-1])["status"] == "ok"
        buffers += [weakref.ref(out), weakref.ref(err)]
    assert expected.stderr == "warning: offset outside [-1, 1]\n"
    del out, err
    gc.collect()
    assert [buffer() for buffer in buffers] == [None] * 6


class TestCriticalPointsCommand:
    def test_default_config(self, runner):
        result = invoke(runner, ["critical-points", "--x0hat", "0.1"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines()[1:] if "," in l
                 and not l.startswith("{")]
        kinds = [l.split(",")[1] for l in lines]
        assert kinds.count("local_min") == 2
        assert kinds.count("local_max") == 1

    @pytest.mark.parametrize("perturb, failure", CRITICAL_POINT_FAULTS, ids=CRITICAL_POINT_IDS)
    def test_failed_postcondition_named(self, runner, monkeypatch, perturb, failure):
        perturb_result(monkeypatch, "scalar_critical_points", perturb)
        assert_failed_on(runner.invoke(main, ["critical-points"]), failure)

    def test_static_coefficient_rejected(self, runner):
        result = runner.invoke(main, ["critical-points", "--c1", "0"])
        assert result.exit_code != 0
        assert "LQG closed form" in result.output

    @staticmethod
    def config_file(tmp_path, **noise):
        sys_, base, cost = scalar_config()
        config = tmp_path / "scalar.json"
        config.write_text(json.dumps(config_to_dict(sys_, replace(base, **noise), cost,
                                                     2, 1, 0)))
        return config

    def test_invalid_config_fails_with_summary(self, runner, tmp_path):
        config = self.config_file(tmp_path, sigma_z=[[0.0]])
        result = runner.invoke(main, ["critical-points", "--config", str(config)])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1  # the status line alone
        status = status_line(result)
        assert status["status"] == "fail" and status["config"] == str(config)
        assert status["failures"] == ["config invalid: sigma_z not positive definite"]

    def test_non_scalar_config_is_a_usage_error(self, runner, tmp_path):
        # scalar_gap_params' own check, reported without a traceback
        config = tmp_path / "di.json"
        config.write_text(json.dumps(config_to_dict(*double_integrator_config("bilinear"),
                                                     2, 1, 0)))
        result = runner.invoke(main, ["critical-points", "--config", str(config)])
        assert result.exit_code == 1
        assert result.output == "Error: gap parameters require a scalar system\n"
        assert isinstance(result.exception, SystemExit)

    def test_zero_prior_variance_is_a_usage_error(self, runner, tmp_path):
        config = self.config_file(tmp_path, sigma_0=[[0.0]])
        result = runner.invoke(main, ["critical-points", "--config", str(config)])
        assert result.exit_code == 1
        assert result.output == "Error: prior variance must be positive\n"
        assert isinstance(result.exception, SystemExit)


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

    @pytest.mark.parametrize("grid, message", [
        ("0 1 1", "grid points must be at least 2, got 1"),
        ("1 0 5", "landscape sweep requires a finite grid lo < hi"),
        ("0 nan 5", "landscape sweep requires a finite grid lo < hi")])
    def test_grid_refused_in_the_sweeps_words(self, runner, tmp_path, grid, message):
        # the option reads core.grid_points, the rule landscape_sweep applies
        out = tmp_path / "landscape.csv"
        result = runner.invoke(main, ["scalar-landscape", "--grid", *grid.split(),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '--grid': {message}" in result.output
        assert not out.exists()

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
