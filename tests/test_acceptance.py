"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every criterion asserts its stated numeric tolerance and runtime
budget.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from click.testing import CliRunner

from bilq.cli import main as cli_main
from bilq.core import (BeliefState, BilinearSystem, CostSpec, NoiseSpec,
                       RngStream, config_to_dict)
from bilq.kalman import grid_bayes_oracle, kf_step
from bilq.control import (COMPLEX_PAIR, LOCAL_MAX, LOCAL_MIN, ScalarGapParams,
                          affine_falsification_test, lqg_policy,
                          riccati_recursion, scalar_cost_to_go,
                          scalar_critical_points, scalar_gap_params)
from bilq.observability import check_proposition1, covariance_boundedness_probe
from bilq.presets import (double_integrator_config, orthogonal_config,
                          scalar_config)
from bilq.sim import PolicyConfig, SimConfig, monte_carlo

from helpers import (cov_update_information_form, grid_local_minima, random_spd,
                     standard_lqg_rollout)

U_LQG = -0.05257796257796257


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, (
            f"runtime {elapsed:.2f}s exceeds {limit_seconds}s budget")
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description} [{elapsed:.2f}s]")


def test_criterion_1_gap_parameter_reproduction():
    with criterion(1, "gap-parameter reproduction on the scalar setup", 1.0):
        sys_, noise, cost = scalar_config()
        p = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        assert abs(p.alpha - 2.405) < 1e-9
        assert abs(p.kappa - 0.045) < 1e-9
        assert abs(p.gamma - 0.0295245) < 1e-9
        assert abs(p.gamma - 0.03) < 5e-4
        # formula value; the widely quoted 0.126 is beta times the estimate
        assert abs(p.beta - 1.2645) < 1e-9
        assert abs(p.beta * p.x_hat0 - 0.126) < 5e-4


def test_criterion_2_two_stage_landscape():
    with criterion(2, "two-stage landscape: local max, twin minima, offsets", 10.0):
        sys_, noise, cost = scalar_config()
        base = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        step = 1e-5
        grid = np.arange(-3.0, 3.0 + step, step)

        params0 = replace(base, c0=base.c1 * base.beta * base.x_hat0 / base.alpha)
        points = scalar_critical_points(params0)
        maxima = [p for p in points if p.kind == LOCAL_MAX]
        minima = sorted((p for p in points if p.kind == LOCAL_MIN),
                        key=lambda p: p.u)
        assert len(maxima) == 1 and len(minima) == 2
        assert abs(maxima[0].u - U_LQG) < 1e-9
        assert maxima[0].second_derivative < 0.0
        ubars = [params0.c0 + params0.c1 * p.u for p in minima]
        assert abs(ubars[0] + ubars[1]) < 1e-9

        ubar = np.sqrt(-params0.kappa
                       + params0.c1 * np.sqrt(params0.gamma / params0.alpha))
        closed = sorted(((ubar - params0.c0) / params0.c1,
                         (-ubar - params0.c0) / params0.c1))
        for got, want in zip((p.u for p in minima), closed):
            assert abs(got - want) < 1e-6

        values = scalar_cost_to_go(params0, grid)
        oracle_minima = grid[grid_local_minima(grid, values)]
        assert oracle_minima.size == 2
        for got, want in zip((p.u for p in minima), sorted(oracle_minima)):
            assert abs(got - want) < 1e-4

        for offset in (0.5, -0.5, 1.0, -1.0):
            params = replace(base, c0=base.c1 * (base.beta * base.x_hat0
                                                 / base.alpha - offset))
            values = scalar_cost_to_go(params, grid)
            minimizer = grid[np.argmin(values)]
            blind_spot = -params.c0 / params.c1
            if abs(offset) == 1.0:
                assert abs(minimizer - U_LQG) < 0.02
            else:
                # pushed off the certainty-equivalent action, away from the
                # estimation-penalty peak, but still well inside its basin
                assert 0.001 < abs(minimizer - U_LQG) < 0.25
                assert np.sign(minimizer - U_LQG) == -np.sign(offset)
            assert abs(minimizer - blind_spot) > 0.2


def test_criterion_3_quintic_gradient_consistency():
    with criterion(3, "quintic roots coincide with gradient sign changes", 30.0):
        rng = np.random.default_rng(12345)
        step = 1e-4
        us = np.arange(-5.0, 5.0 + step, step)
        for _ in range(100):
            p = ScalarGapParams(alpha=rng.uniform(0.5, 5.0),
                                beta=rng.uniform(-2.0, 2.0),
                                gamma=rng.uniform(1e-3, 0.5),
                                kappa=rng.uniform(1e-3, 0.5),
                                c0=rng.uniform(-1.0, 1.0),
                                c1=float(rng.choice([-1.0, 1.0]))
                                * rng.uniform(0.5, 3.0),
                                x_hat0=rng.uniform(-0.5, 0.5))
            vals = scalar_cost_to_go(p, us)
            grad = (vals[2:] - vals[:-2]) / (2 * step)
            flips = np.where(grad[:-1] * grad[1:] < 0)[0]
            crossings = 0.5 * (us[1:-1][flips] + us[1:-1][flips + 1])
            roots = np.array([q.u for q in scalar_critical_points(p)
                              if q.kind != COMPLEX_PAIR])
            assert crossings.size > 0 and roots.size > 0
            for root in roots[np.abs(roots) <= 4.99]:
                assert np.abs(crossings - root).min() < 1e-3
            for crossing in crossings:
                assert np.abs(roots - crossing).min() < 1e-3


def test_criterion_4_filter_correctness():
    with criterion(4, "filter: information form, grid oracle, static reference", 60.0):
        # (a) direct vs information-form covariance, 200 random steps
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            sys_ = BilinearSystem(a=rng.standard_normal((n, n)) * 0.6,
                                  b=rng.standard_normal((n, p)),
                                  c0=rng.standard_normal((m, n)),
                                  ck=tuple(rng.standard_normal((m, n))
                                           for _ in range(p)))
            noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.1),
                              sigma_z=random_spd(rng, m, 0.1),
                              x0_mean=np.zeros(n), sigma_0=np.eye(n))
            cov = random_spd(rng, n)
            u = rng.standard_normal(p)
            belief = BeliefState(mean=np.zeros(n), cov=cov)
            direct = kf_step(belief, sys_, noise, u, np.zeros(m)).next_belief.cov
            info = cov_update_information_form(cov, sys_, noise, u)
            assert np.linalg.norm(info - direct) <= 1e-9 * np.linalg.norm(direct)

        # (b) scalar posterior vs dense-grid reference, 10 random 5-step runs
        for scenario in range(10):
            srng = np.random.default_rng(100 + scenario)
            sys_ = BilinearSystem(a=[[srng.uniform(0.5, 1.05)]],
                                  b=[[srng.uniform(0.5, 1.5)]],
                                  c0=[[srng.uniform(0.2, 1.0)]],
                                  ck=([[srng.uniform(-1.0, 1.0)]],))
            noise = NoiseSpec(sigma_w=[[srng.uniform(0.01, 0.05)]],
                              sigma_z=[[srng.uniform(0.05, 0.2)]],
                              x0_mean=[srng.uniform(-0.5, 0.5)],
                              sigma_0=[[srng.uniform(0.5, 2.0)]])
            stream = RngStream(9000 + scenario)
            x = (noise.x0_mean[0]
                 + np.sqrt(noise.sigma_0[0, 0]) * stream.standard_normal(1)[0])
            belief = BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
            inputs, outputs = [], []
            for _ in range(5):
                u = srng.uniform(-1.0, 1.0)
                c = sys_.c0[0, 0] + sys_.ck[0][0, 0] * u
                y = c * x + (np.sqrt(noise.sigma_z[0, 0])
                             * stream.standard_normal(1)[0])
                inputs.append(u)
                outputs.append(y)
                belief = kf_step(belief, sys_, noise, [u], [y]).next_belief
                x = (sys_.a[0, 0] * x + sys_.b[0, 0] * u
                     + np.sqrt(noise.sigma_w[0, 0]) * stream.standard_normal(1)[0])
            mean, var = grid_bayes_oracle(sys_, noise, inputs, outputs)
            assert abs(mean - belief.mean[0]) < 1e-4
            assert abs(var - belief.cov[0, 0]) <= 1e-4 * belief.cov[0, 0]

        # (c) static observation: seed-matched independent reference rollout
        sys_ = BilinearSystem(a=[[0.95, 0.2], [0.0, 0.9]], b=[[0.0], [1.0]],
                              c0=[[1.0, 0.0]], ck=([[0.0, 0.0]],))
        noise = NoiseSpec(sigma_w=0.02 * np.eye(2), sigma_z=[[0.05]],
                          x0_mean=[0.5, -0.3], sigma_0=0.5 * np.eye(2))
        cost = CostSpec(q=np.eye(2), q_t=2.0 * np.eye(2), r=[[0.5]])
        from bilq.sim import rollout
        rec = rollout(sys_, noise, cost,
                      PolicyConfig("separation_lqg", "prior_mean"), 40,
                      RngStream(4242, 0))
        ref = standard_lqg_rollout(sys_.a, sys_.b, sys_.c0, cost.q, cost.q_t,
                                   cost.r, noise.sigma_w, noise.sigma_z,
                                   noise.x0_mean, noise.sigma_0, 40,
                                   RngStream(4242, 0))
        for mine, theirs in ((rec.states, ref["states"]),
                             (rec.inputs, ref["inputs"]),
                             (rec.outputs, ref["outputs"]),
                             (rec.means, ref["means"]),
                             (rec.covs, ref["covs"])):
            assert np.abs(mine - theirs).max() < 1e-10


def test_criterion_5_double_integrator_reproduction():
    with criterion(5, "double integrator: bilinear costlier, covariance grows", 60.0):
        horizon, runs, seed = 100, 50, 0
        results = {}
        for model, kind in (("linear", "separation_lqg"),
                            ("bilinear", "separation_lqg")):
            sys_, noise, cost = double_integrator_config(model)
            config = SimConfig(sys_, noise, cost,
                               PolicyConfig(kind, "sampled_from_prior"), horizon)
            results[model] = monte_carlo(config, runs, seed)
        bil = results["bilinear"].percentiles
        lin = results["linear"].percentiles
        assert bil["cum_cost"].p50[100] > lin["cum_cost"].p50[100]
        assert bil["cov_trace"].p50[100] > 2.0 * bil["cov_trace"].p50[20]
        assert abs(lin["cov_trace"].p50[100] - lin["cov_trace"].p50[20]) \
            <= 0.1 * lin["cov_trace"].p50[20]


def test_criterion_6_orthogonal_boundedness():
    with criterion(6, "orthogonal observations keep the covariance bounded", 120.0):
        for seed in range(10):
            for variant in ("a", "b"):
                sys_, noise, cost = orthogonal_config(RngStream(seed), variant)
                assert check_proposition1(sys_).ok
                tables = riccati_recursion(cost, sys_, 100)
                probe = covariance_boundedness_probe(
                    sys_, noise, lambda t, mean: lqg_policy(tables, t, mean), 100)
                head = probe.norms[1:51].max()
                tail = probe.norms[50:101].max()
                assert tail <= 1.05 * head


def test_criterion_7_affine_falsification():
    with criterion(7, "first-stage policy is provably not affine", 30.0):
        sys_, noise, cost = scalar_config()
        base = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        grid = np.arange(-0.4, 0.41, 0.1)
        report = affine_falsification_test(replace(base, c0=0.1), grid)
        assert report.falsified
        assert report.max_residual > 1e-4 * np.abs(report.u_star).max()
        control = affine_falsification_test(replace(base, c1=0.0), grid)
        assert not control.falsified
        assert control.max_residual < 1e-10


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI reruns are byte-identical", 120.0):
        runner = CliRunner()

        def run(args):
            result = runner.invoke(cli_main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output
            return result.output

        # landscape: file bytes across reruns
        lots = []
        for tag in ("l1", "l2"):
            out = tmp_path / tag / "landscape.csv"
            run(["scalar-landscape", "--offset", "0.25", "--grid", "-2", "2",
                 "801", "--out", str(out)])
            lots.append((out.read_bytes(),
                         out.with_name("landscape_critical_points.csv").read_bytes()))
        assert lots[0] == lots[1]

        # double integrator: reruns
        payloads = []
        for tag in ("d1", "d2", "d3"):
            out = tmp_path / tag
            run(["double-integrator", "--runs", "8", "--seed", "3",
                 "--out", str(out)])
            payloads.append(tuple((out / name).read_bytes() for name in (
                "trajectories_perfect.csv", "trajectories_linear.csv",
                "trajectories_bilinear.csv", "summary.csv")))
        assert payloads[0] == payloads[1] == payloads[2]

        # orthogonal: reruns
        ortho = []
        for tag in ("o1", "o2"):
            out = tmp_path / tag
            run(["orthogonal", "--runs", "4", "--seed", "1", "--variant", "b",
                 "--out", str(out)])
            ortho.append(tuple((out / name).read_bytes() for name in (
                "trajectories_linear.csv", "trajectories_bilinear.csv",
                "summary.csv", "system_b.json", "prop1_report.json")))
        assert ortho[0] == ortho[1]

        # simulate: reruns on a config file
        sys_, noise, cost = scalar_config()
        config = tmp_path / "scalar.json"
        config.write_text(json.dumps(config_to_dict(sys_, noise, cost, 2, 6, 4)))
        sims = []
        for tag in ("s1", "s2"):
            out = tmp_path / tag
            run(["simulate", "--config", str(config), "--policy",
                 "scalar_nonlinear_t2", "--out", str(out)])
            sims.append(((out / "trajectories.csv").read_bytes(),
                         (out / "summary.csv").read_bytes()))
        assert sims[0] == sims[1]

        # report-only commands: stdout equality
        ortho_cfg = tmp_path / "ortho.json"
        osys, onoise, ocost = orthogonal_config(RngStream(12), "a")
        ortho_cfg.write_text(json.dumps(config_to_dict(osys, onoise, ocost,
                                                       100, 5, 1)))
        obs = [run(["observability", "--config", str(ortho_cfg),
                    "--horizon", "20"]) for _ in range(2)]
        assert obs[0] == obs[1]
        cps = [run(["critical-points", "--x0hat", "0.2", "--c0", "0.1"])
               for _ in range(2)]
        assert cps[0] == cps[1]
