import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.stats import chi2

from bilq.core import (PSD_TOL, BeliefState, BilinearSystem, CostSpec, NoiseSpec,
                       RngStream, observation_matrix, sample_gaussian)
from bilq.kalman import kf_step, kf_step_batch
from bilq.control import (BellmanObjectiveParams, bellman_minimize_Tm2,
                          lqg_policy, riccati_recursion, scalar_cost_to_go,
                          scalar_gap_params, scalar_optimal_controller_T2, unit_design)
from bilq.presets import (double_integrator_config, orthogonal_config,
                          scalar_config)
from bilq.sim import (INIT_ESTIMATES, METRICS, PolicyConfig, SimConfig,
                      TrajectoryRecord, aggregate_percentiles, landscape_sweep,
                      metric_table, monte_carlo, rollout, write_landscape_csv,
                      write_summary_csv, write_trajectory_csv)

import bilq
import bilq.control
import bilq.kalman
import bilq.sim
from helpers import (BLOCK_EDGES, FAILURE_KINDS, SHIPPED_BLOCK, failing_lqg,
                     outcome_corrupted, per_step_lqg_rollout, random_spd, reference_metric,
                     reference_simulate,
                     reference_trajectory_csv, standard_lqg_rollout,
                     standard_riccati_gains)

RECORD_ARRAYS = ("states", "inputs", "outputs", "means", "covs", "stage_costs")


def assert_same_records(result, alone, label):
    assert len(result.records) == len(alone.records), label
    for run, (rec, ref) in enumerate(zip(result.records, alone.records)):
        for field in RECORD_ARRAYS:
            assert (getattr(rec, field).tobytes()
                    == getattr(ref, field).tobytes()), (label, run, field)
        assert rec.terminal_cost == ref.terminal_cost, (label, run)
    assert result.table.tobytes() == alone.table.tobytes(), label


def lqg_testbed():
    """Two-state system with a static observation row (no bilinear part)."""
    sys_ = BilinearSystem(a=[[0.95, 0.2], [0.0, 0.9]], b=[[0.0], [1.0]],
                          c0=[[1.0, 0.0]], ck=([[0.0, 0.0]],))
    noise = NoiseSpec(sigma_w=0.02 * np.eye(2), sigma_z=[[0.05]],
                      x0_mean=[0.5, -0.3], sigma_0=0.5 * np.eye(2))
    cost = CostSpec(q=np.eye(2), q_t=2.0 * np.eye(2), r=[[0.5]])
    return sys_, noise, cost


class TestRollout:
    def test_noise_free_perfect_state_matches_lqr_cost(self):
        sys_, _, cost = lqg_testbed()
        noise = NoiseSpec(sigma_w=np.zeros((2, 2)), sigma_z=[[0.0]],
                          x0_mean=[1.0, -0.5], sigma_0=np.zeros((2, 2)))
        T = 12
        rec = rollout(sys_, noise, cost, PolicyConfig("perfect_state_lqr"), T,
                      RngStream(0))
        _, gains = standard_riccati_gains(sys_.a, sys_.b, cost.q, cost.q_t,
                                          cost.r, T)
        x = np.array([1.0, -0.5])
        expected = 0.0
        for t in range(T):
            u = gains[t] @ x
            expected += x @ cost.q @ x + u @ cost.r @ u
            x = sys_.a @ x + sys_.b @ u
        expected += x @ cost.q_t @ x
        table = metric_table([rec])[0]
        assert table[-1, METRICS.index("cum_cost")] == pytest.approx(expected, rel=1e-9)
        assert table[:, METRICS.index("est_err")].max() == 0.0

    def test_perfect_state_lqr_is_lqg_on_means_that_are_the_states(self):
        # one rule serves both: without a prior the closed loop's means are its states
        assert bilq.sim.POLICIES["perfect_state_lqr"] is bilq.sim.POLICIES["separation_lqg"]
        sys_, noise, cost = double_integrator_config("bilinear")
        rec = rollout(sys_, noise, cost, PolicyConfig("perfect_state_lqr", "sampled_from_prior"),
                      8, RngStream(4))
        assert rec.means.tobytes() == rec.states.tobytes() and not rec.covs.any()

    def test_static_observation_matches_independent_lqg(self):
        sys_, noise, cost = lqg_testbed()
        T = 25
        rec = rollout(sys_, noise, cost,
                      PolicyConfig("separation_lqg", "prior_mean"), T,
                      RngStream(123, 4))
        ref = standard_lqg_rollout(sys_.a, sys_.b, sys_.c0, cost.q, cost.q_t,
                                   cost.r, noise.sigma_w, noise.sigma_z,
                                   noise.x0_mean, noise.sigma_0, T,
                                   RngStream(123, 4))
        np.testing.assert_allclose(rec.states, ref["states"], atol=1e-10)
        np.testing.assert_allclose(rec.inputs, ref["inputs"], atol=1e-10)
        np.testing.assert_allclose(rec.outputs, ref["outputs"], atol=1e-10)
        np.testing.assert_allclose(rec.means, ref["means"], atol=1e-10)
        np.testing.assert_allclose(rec.covs, ref["covs"], atol=1e-10)

    def test_bit_identical_replay(self):
        sys_, noise, cost = double_integrator_config("bilinear")
        a = rollout(sys_, noise, cost,
                    PolicyConfig("separation_lqg", "sampled_from_prior"), 30,
                    RngStream(9, 2))
        b = rollout(sys_, noise, cost,
                    PolicyConfig("separation_lqg", "sampled_from_prior"), 30,
                    RngStream(9, 2))
        for field in ("states", "inputs", "outputs", "means", "covs",
                      "stage_costs"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.terminal_cost == b.terminal_cost

    def test_actions_recomputable_from_information_set(self):
        # u_t must be a function of past inputs/outputs only: replaying the
        # filter over the recorded record reproduces every action
        sys_, noise, cost = double_integrator_config("bilinear")
        T = 20
        rec = rollout(sys_, noise, cost,
                      PolicyConfig("separation_lqg", "sampled_from_prior"), T,
                      RngStream(31, 0))
        tables = riccati_recursion(cost, sys_, T)
        belief = BeliefState(mean=rec.means[0], cov=noise.sigma_0)
        for t in range(T):
            u = lqg_policy(tables, t, belief.mean)
            np.testing.assert_allclose(u, rec.inputs[t], atol=1e-12)
            belief = kf_step(belief, sys_, noise, rec.inputs[t],
                             rec.outputs[t]).next_belief

    def test_noise_paired_across_observation_models(self):
        policy = PolicyConfig("separation_lqg", "sampled_from_prior")
        stream_args = (77, 3)
        recs = {}
        for model in ("linear", "bilinear"):
            sys_, noise, cost = double_integrator_config(model)
            recs[model] = rollout(sys_, noise, cost, policy, 15,
                                  RngStream(*stream_args))
        lin, bil = recs["linear"], recs["bilinear"]
        assert np.array_equal(lin.states[0], bil.states[0])
        assert np.array_equal(lin.means[0], bil.means[0])
        a = double_integrator_config("linear")[0].a
        b = double_integrator_config("linear")[0].b
        w_lin = lin.states[1:] - lin.states[:-1] @ a.T - lin.inputs @ b.T
        w_bil = bil.states[1:] - bil.states[:-1] @ a.T - bil.inputs @ b.T
        np.testing.assert_allclose(w_lin, w_bil, atol=1e-12)

    def test_scalar_t2_policy(self):
        sys_, noise, cost = scalar_config()
        rec = rollout(sys_, noise, cost,
                      PolicyConfig("scalar_nonlinear_t2", "prior_mean"), 2,
                      RngStream(5, 0))
        # stage-0 action is the deterministic tie-break among the two
        # symmetric minimizers: the one with smaller magnitude
        assert rec.inputs[0, 0] == pytest.approx(0.14310033865891658, abs=1e-9)
        # stage-1 action is the linear terminal rule on the updated estimate
        assert rec.inputs[1, 0] == pytest.approx(-0.45 * rec.means[1, 0], abs=1e-12)
        params = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        assert rec.inputs[1, 0] == scalar_optimal_controller_T2(params).u1_gain * rec.means[1, 0]

    @pytest.mark.parametrize("kind", ["perfect_state_lqr", "separation_lqg", "numeric_bellman"])
    def test_engine_asks_the_policy_at_every_step(self, monkeypatch, kind):
        # the engine holds no policy's rule: the last step's action is the policy's too
        original, steps = bilq.sim.POLICIES[kind], []
        monkeypatch.setitem(bilq.sim.POLICIES, kind,
                            lambda tables, run, t: steps.append(t) or original(tables, run, t))
        sys_, noise, cost = double_integrator_config("bilinear")
        rollout(sys_, noise, cost, PolicyConfig(kind, "sampled_from_prior"), 5, RngStream(2))
        assert steps == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("preset, horizon", [("orthogonal", 3), ("bilinear_integrator", 4),
                                                 ("scalar", 3)])
    def test_numeric_bellman_last_action_is_certainty_equivalent(self, preset, horizon):
        # the last stage has no estimation penalty: numeric_bellman takes lqg_policy's action
        sys_, noise, cost = {"orthogonal": lambda: orthogonal_config(RngStream(0), "a"),
                             "bilinear_integrator": lambda: double_integrator_config("bilinear"),
                             "scalar": scalar_config}[preset]()
        records = monte_carlo(SimConfig(sys_, noise, cost, PolicyConfig("numeric_bellman"),
                                        horizon), 4, 1).records
        means = np.stack([rec.means[horizon - 1] for rec in records])
        actions = np.stack([rec.inputs[horizon - 1] for rec in records])
        tables = riccati_recursion(cost, sys_, horizon)
        assert actions.tobytes() == lqg_policy(tables, horizon - 1, means).tobytes()

    def test_numeric_bellman_matches_t2_policy_on_scalar(self):
        sys_, noise, cost = scalar_config()
        rec_t2 = rollout(sys_, noise, cost,
                         PolicyConfig("scalar_nonlinear_t2", "prior_mean"), 2,
                         RngStream(5, 0))
        rec_nb = rollout(sys_, noise, cost,
                         PolicyConfig("numeric_bellman", "prior_mean"), 2,
                         RngStream(5, 0))
        # the numeric minimizer lands on one of the two tied minimizers
        assert min(abs(rec_nb.inputs[0, 0] - 0.14310033865891658),
                   abs(rec_nb.inputs[0, 0] + 0.24825626381484173)) < 1e-6
        assert rec_nb.inputs[1, 0] == pytest.approx(
            -0.45 * rec_nb.means[1, 0], abs=1e-10)
        assert np.array_equal(rec_t2.states[0], rec_nb.states[0])

    def test_numeric_bellman_beyond_three_inputs(self):
        rng = np.random.default_rng(4)
        n, m, p = 3, 2, 4
        sys_ = BilinearSystem(a=0.5 * rng.standard_normal((n, n)),
                              b=rng.standard_normal((n, p)),
                              c0=rng.standard_normal((m, n)),
                              ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))
        noise = NoiseSpec(sigma_w=0.05 * np.eye(n), sigma_z=0.1 * np.eye(m),
                          x0_mean=rng.standard_normal(n), sigma_0=np.eye(n))
        cost = CostSpec(q=np.eye(n), q_t=np.eye(n), r=np.eye(p))
        rec = rollout(sys_, noise, cost, PolicyConfig("numeric_bellman"), 3,
                      RngStream(1))
        assert rec.inputs.shape == (3, p) and np.isfinite(rec.inputs).all()
        bp = BellmanObjectiveParams(tables=riccati_recursion(cost, sys_, 3), t=0,
                                    prior_cov=noise.sigma_0, x_hat=noise.x0_mean,
                                    sys=sys_, noise=noise)
        assert rec.inputs[0].tobytes() == bellman_minimize_Tm2(bp)[0].tobytes()

    @pytest.mark.parametrize("preset", ["orthogonal", "bilinear_integrator"])
    @pytest.mark.parametrize("scale", [1e5, 1e8])
    def test_cost_units_do_not_change_decisions(self, preset, scale):
        # scaling q, q_t and r together changes the units of the cost, not
        # the policy; A'P A has rank <= p < n, so its smallest eigenvalues
        # are roundoff of the cost's size, which no absolute check may read
        if preset == "orthogonal":
            (sys_, noise, cost), horizon = orthogonal_config(RngStream(0), "a"), 20
        else:
            (sys_, noise, cost), horizon = double_integrator_config("bilinear"), 16
        scaled = CostSpec(q=scale * cost.q, q_t=scale * cost.q_t, r=scale * cost.r)
        policy = PolicyConfig("numeric_bellman")
        want = monte_carlo(SimConfig(sys_, noise, cost, policy, horizon), 2, 1)
        got = monte_carlo(SimConfig(sys_, noise, scaled, policy, horizon), 2, 1)
        for rec, ref in zip(got.records, want.records):
            assert np.all(np.abs(rec.inputs - ref.inputs) <= 1e-12 * (1.0 + np.abs(ref.inputs)))

    def test_numeric_bellman_three_input_decision_time(self):
        # one decision on the orthogonal preset (p = 3) within a loose budget
        sys_, noise, cost = orthogonal_config(RngStream(3), variant="a")
        assert sys_.p == 3
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            rollout(sys_, noise, cost, PolicyConfig("numeric_bellman"), 3, RngStream(0))
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) / 2 < 0.5       # T = 3: two numeric decisions

    def test_policy_validation(self):
        sys_, noise, cost = double_integrator_config("bilinear")
        with pytest.raises(ValueError, match="scalar"):
            rollout(sys_, noise, cost, PolicyConfig("scalar_nonlinear_t2"), 2,
                    RngStream(0))
        s_sys, s_noise, s_cost = scalar_config()
        with pytest.raises(ValueError, match="horizon 2"):
            rollout(s_sys, s_noise, s_cost, PolicyConfig("scalar_nonlinear_t2"),
                    3, RngStream(0))
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyConfig("mystery")
        with pytest.raises(ValueError, match="^unknown init_estimate 'posterior'$"):
            PolicyConfig("separation_lqg", "posterior")

    def test_costs_nonnegative_and_cumulative_monotone(self):
        sys_, noise, cost = double_integrator_config("bilinear")
        rec = rollout(sys_, noise, cost,
                      PolicyConfig("separation_lqg", "sampled_from_prior"), 40,
                      RngStream(2, 0))
        assert rec.stage_costs.min() >= 0.0
        assert rec.terminal_cost >= 0.0
        cum = metric_table([rec])[0, :, METRICS.index("cum_cost")]
        assert np.all(np.diff(cum) >= 0.0)


class TestScalarNonlinearT2:
    """scalar_nonlinear_t2 is numeric_bellman on the scalar system at T = 2,
    checked against the closed-form controller's np.roots candidates."""

    def test_is_numeric_bellman(self):
        assert bilq.sim.POLICIES["scalar_nonlinear_t2"] is bilq.sim.POLICIES["numeric_bellman"]
        sys_, noise, cost = scalar_config()
        symmetric = (replace(sys_, c0=[[0.0]]), replace(noise, x0_mean=[0.0]), cost)
        for config in (scalar_config(), scalar_config(offset=0.25),
                       scalar_config(c1=2.0, offset=-0.6), symmetric):
            for init in INIT_ESTIMATES:
                t2, nb = (monte_carlo(SimConfig(*config, PolicyConfig(kind, init), 2), 5, 3)
                          for kind in ("scalar_nonlinear_t2", "numeric_bellman"))
                assert_same_records(t2, nb, init)

    @pytest.mark.filterwarnings("ignore:outside closed-form regime")
    @settings(max_examples=40, deadline=None)
    @given(c0=st.floats(-1.0, 1.0), c1=st.floats(0.2, 3.0), negative=st.booleans(),
           x0_mean=st.floats(-1.0, 1.0), sigma_0=st.floats(0.05, 5.0),
           init=st.sampled_from(INIT_ESTIMATES), seed=st.integers(0, 2 ** 32 - 1))
    def test_first_action_is_closed_form_minimizer(self, c0, c1, negative, x0_mean, sigma_0,
                                                   init, seed):
        sys_, noise, cost = scalar_config()
        sys_ = replace(sys_, c0=[[c0]], ck=([[-c1 if negative else c1]],))
        noise = replace(noise, x0_mean=[x0_mean], sigma_0=[[sigma_0]])
        res = monte_carlo(SimConfig(sys_, noise, cost, PolicyConfig("scalar_nonlinear_t2", init),
                                    2), 3, seed)
        for rec in res.records:
            params = scalar_gap_params(sys_, noise, cost, prior_var=rec.covs[0, 0, 0],
                                       x_hat0=rec.means[0, 0])
            candidates = scalar_optimal_controller_T2(params).u0_candidates
            u0 = rec.inputs[0, 0]
            assert min(abs(u0 - u) for u in candidates) <= 1e-9, (u0, candidates)
            best = min(scalar_cost_to_go(params, u) for u in candidates)
            assert scalar_cost_to_go(params, u0) <= best + 1e-12 * (1.0 + abs(best))

    def test_symmetric_tie_goes_to_negative_minimizer(self):
        # x_hat = c0 = 0: the objective is even in u, and +-u* tie exactly
        sys_, noise, cost = scalar_config()
        sys_, noise = replace(sys_, c0=[[0.0]]), replace(noise, x0_mean=[0.0])
        params = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        low, high = scalar_optimal_controller_T2(params).u0_candidates
        assert low == pytest.approx(-high, rel=1e-12) and low < -0.19
        res = monte_carlo(SimConfig(sys_, noise, cost,
                                    PolicyConfig("scalar_nonlinear_t2", "prior_mean"), 2), 4, 1)
        for rec in res.records:
            assert rec.inputs[0, 0] == pytest.approx(low, abs=1e-12)

    def test_zero_prior_variance_takes_lqg_action(self):
        # no measurement reduces a zero variance: the penalty is 0 for every u
        sys_, noise, cost = scalar_config()
        noise = replace(noise, sigma_0=[[0.0]])
        u_lqg = lqg_policy(riccati_recursion(cost, sys_, 2), 0, noise.x0_mean)[0]
        for init in INIT_ESTIMATES:
            res = monte_carlo(SimConfig(sys_, noise, cost,
                                        PolicyConfig("scalar_nonlinear_t2", init), 2), 3, 2)
            for rec in res.records:
                assert rec.inputs[0, 0] == pytest.approx(u_lqg, rel=1e-12)


class TestMonteCarlo:
    def test_single_run_percentiles_collapse(self):
        sys_, noise, cost = lqg_testbed()
        config = SimConfig(sys_, noise, cost,
                           PolicyConfig("separation_lqg", "sampled_from_prior"), 10)
        res = monte_carlo(config, 1, 3)
        for series in res.percentiles.values():
            assert np.array_equal(series.p25, series.p50)
            assert np.array_equal(series.p50, series.p75)

    def test_symmetric_synthetic_data(self):
        # runs whose stage costs are symmetric around the median must give
        # symmetric quartiles (up to interpolation)
        records = []
        for r in range(50):
            value = 10.0 + (r - 24.5) * 0.2
            records.append(TrajectoryRecord(
                states=np.zeros((2, 1)), inputs=np.zeros((1, 1)),
                outputs=np.zeros((1, 1)), means=np.zeros((2, 1)),
                covs=np.zeros((2, 1, 1)), stage_costs=np.array([value]),
                terminal_cost=0.0))
        percentiles = aggregate_percentiles(metric_table(records))
        series = percentiles["stage_cost"]
        assert series.p75[0] - series.p50[0] == pytest.approx(
            series.p50[0] - series.p25[0], abs=1e-12)

    def test_result_hands_back_its_riccati_table(self):
        # the table a config's runs used, riccati_recursion's bits: one object
        # for every config of the call on one system and cost, another for
        # the config whose cost differs
        sys_, noise, cost = double_integrator_config("linear")
        configs = [SimConfig(*double_integrator_config(name),
                             PolicyConfig(kind, "sampled_from_prior"), 6)
                   for name, kind in (("linear", "separation_lqg"),
                                      ("perfect", "perfect_state_lqr"),
                                      ("bilinear", "separation_lqg"))]
        scaled = replace(cost, r=2.0 * cost.r)
        configs.append(replace(configs[0], cost=scaled))
        results = monte_carlo(configs, 2, 1)
        for res, c in ((results[0], cost), (results[3], scaled)):
            fresh = riccati_recursion(c, sys_, 6)
            for name, seq in vars(fresh).items():
                assert all(x.tobytes() == y.tobytes()
                           for x, y in zip(getattr(res.riccati, name), seq, strict=True)), name
        assert results[1].riccati is results[0].riccati is results[2].riccati
        assert results[3].riccati is not results[0].riccati
        assert monte_carlo(configs[0], 2, 1).riccati.horizon == 6

    def test_output_independent_of_batch_size(self):
        # every record of a lockstep batch equals the same stream's rollout
        # alone, bit for bit, for every policy kind
        di = double_integrator_config("bilinear")
        cases = (("perfect_state_lqr", di, 20, 6),
                 ("separation_lqg", di, 20, 6),
                 ("scalar_nonlinear_t2", scalar_config(), 2, 4),
                 ("numeric_bellman", di, 4, 3))
        for kind, (sys_, noise, cost), horizon, runs in cases:
            policy = PolicyConfig(kind, "sampled_from_prior")
            res = monte_carlo(SimConfig(sys_, noise, cost, policy, horizon),
                              runs, 11)
            assert len(res.records) == runs
            for run, rec in enumerate(res.records):
                alone = rollout(sys_, noise, cost, policy, horizon,
                                RngStream(11, run))
                for field in ("states", "inputs", "outputs", "means", "covs",
                              "stage_costs"):
                    assert (getattr(rec, field).tobytes()
                            == getattr(alone, field).tobytes()), (kind, run, field)
                assert rec.terminal_cost == alone.terminal_cost

    def test_lockstep_matches_per_step_reference(self):
        # stacking the runs changes no bit of the per-step 2-d arithmetic
        ortho = orthogonal_config(RngStream(3), variant="a")
        cases = [(kind, double_integrator_config(model), init)
                 for kind, model in (("perfect_state_lqr", "perfect"),
                                     ("separation_lqg", "linear"),
                                     ("separation_lqg", "bilinear"))
                 for init in INIT_ESTIMATES]
        cases.append(("separation_lqg", ortho, "sampled_from_prior"))
        for kind, (sys_, noise, cost), init in cases:
            res = monte_carlo(SimConfig(sys_, noise, cost, PolicyConfig(kind, init), 25),
                              4, 17)
            gains = riccati_recursion(cost, sys_, 25).gain_seq
            for run, rec in enumerate(res.records):
                stream = RngStream(17, run)
                init_mean = (sample_gaussian(stream.substream(0), noise.x0_mean,
                                             noise.sigma_0)
                             if init == "sampled_from_prior" else noise.x0_mean)
                ref = per_step_lqg_rollout(sys_, noise, cost, gains,
                                           kind == "perfect_state_lqr", init_mean,
                                           stream)
                for field in ("states", "inputs", "outputs", "means", "covs",
                              "stage_costs"):
                    assert (getattr(rec, field).tobytes()
                            == ref[field].tobytes()), (kind, init, run, field)
                assert rec.terminal_cost == ref["terminal_cost"]

    def test_covariances_identical_across_runs_when_static(self):
        sys_, noise, cost = double_integrator_config("linear")
        config = SimConfig(sys_, noise, cost,
                           PolicyConfig("separation_lqg", "sampled_from_prior"), 15)
        res = monte_carlo(config, 4, 0)
        reference = res.records[0].covs
        for rec in res.records[1:]:
            assert not np.array_equal(rec.inputs, res.records[0].inputs)
            np.testing.assert_array_equal(rec.covs, reference)

    def test_peak_memory_follows_the_result(self):
        # each step's next beliefs are held once, in their history slots, the
        # noise tape goes once w, z and x_0 are drawn, and the belief check
        # keeps no symmetrized copy of a block: at 200 runs (T = 100) the traced
        # peak is 1.61 times what the result holds (2.06 without the three)
        config = SimConfig(*orthogonal_config(RngStream(1), "a"),
                           PolicyConfig("separation_lqg", "sampled_from_prior"), 100)
        monte_carlo(config, 2, 1)  # one-time allocations are not the result's
        tracemalloc.start()
        try:
            result = monte_carlo(config, 200, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == 200
        assert peak < 1.7 * held, f"peak {peak / held:.3f} times the result"

    def test_runs_validated(self):
        sys_, noise, cost = lqg_testbed()
        config = SimConfig(sys_, noise, cost, PolicyConfig("separation_lqg"), 5)
        with pytest.raises(ValueError):
            monte_carlo(config, 0, 1)


class TestStackedVariants:
    """Configs that differ only in c0/ck advance as one batch, and each
    result is the bits of its config run alone."""

    @pytest.mark.parametrize("kind, init, p, horizons, part", [
        ("perfect_state_lqr", "prior_mean", 2, (1, 8), None),
        ("separation_lqg", "prior_mean", 2, (1, 8), None),
        ("separation_lqg", "sampled_from_prior", 1, (1, 8), None),
        ("numeric_bellman", "sampled_from_prior", 1, (2, 3), None),
        ("numeric_bellman", "prior_mean", 2, (2, 3), None),
        ("numeric_bellman", "sampled_from_prior", 2, (2, 3), 2),
    ], ids=["perfect", "lqg-prior-mean", "lqg-sampled", "bellman-p1", "bellman-p2",
            "bellman-p2-parts"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), variants=st.integers(1, 3),
           runs=st.integers(1, 6), horizon_pick=st.integers(0, 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_each_result_is_its_config_alone(self, kind, init, p, horizons, part, n, m,
                                             variants, runs, horizon_pick, seed):
        # part: the minimizer searches the group's one stack of beliefs in
        # parts of that many beliefs, each config alone in one part
        rng = np.random.default_rng(seed)
        lo, hi = horizons
        horizon = lo + horizon_pick % (hi - lo + 1)
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05), sigma_z=random_spd(rng, m, 0.1),
                          x0_mean=rng.standard_normal(n), sigma_0=random_spd(rng, n, 0.3))
        cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n), r=random_spd(rng, p))
        a, b = 0.5 * rng.standard_normal((n, n)), rng.standard_normal((n, p))
        configs = [SimConfig(BilinearSystem(a=a, b=b, c0=rng.standard_normal((m, n)),
                                            ck=tuple(rng.standard_normal((m, n))
                                                     for _ in range(p))),
                             noise, cost, PolicyConfig(kind, init), horizon)
                   for _ in range(variants)]
        with pytest.MonkeyPatch.context() as patch:
            if part:
                patch.setattr(bilq.control, "DESIGN_BUDGET", part * len(unit_design(p)))
            results = monte_carlo(configs, runs, seed)
        assert isinstance(results, tuple) and len(results) == variants
        for v, (config, res) in enumerate(zip(configs, results)):
            assert_same_records(res, monte_carlo(config, runs, seed), v)

    def test_scalar_t2_decides_on_each_config_system(self):
        sys_, noise, cost = scalar_config()
        configs = [SimConfig(replace(sys_, c0=[[c0]], ck=([[c1]],)), noise, cost,
                             PolicyConfig("scalar_nonlinear_t2"), 2)
                   for c0, c1 in ((sys_.c0[0, 0], sys_.ck[0][0, 0]), (0.5, -1.0))]
        results = monte_carlo(configs, 3, 4)
        for v, (config, res) in enumerate(zip(configs, results)):
            assert_same_records(res, monte_carlo(config, 3, 4), v)
        assert results[0].records[0].inputs[0, 0] != results[1].records[0].inputs[0, 0]

    def test_mixed_call_returns_results_in_config_order(self, monkeypatch):
        # the double integrator's variants with the perfect one between the
        # two that stack: two groups on one system and cost, one Riccati table
        calls = []
        riccati = bilq.sim.riccati_recursion

        def counted(*args):
            calls.append(args)
            return riccati(*args)

        monkeypatch.setattr(bilq.sim, "riccati_recursion", counted)
        configs = [SimConfig(*double_integrator_config(name),
                             PolicyConfig(kind, "sampled_from_prior"), 30)
                   for name, kind in (("linear", "separation_lqg"),
                                      ("perfect", "perfect_state_lqr"),
                                      ("bilinear", "separation_lqg"))]
        results = monte_carlo(configs, 4, 9)
        assert len(calls) == 1
        monkeypatch.undo()
        for v, (config, res) in enumerate(zip(configs, results)):
            assert_same_records(res, monte_carlo(config, 4, 9), v)
        # the linear and bilinear results differ; the perfect one has no filter
        assert results[0].records[0].covs.tobytes() != results[2].records[0].covs.tobytes()
        assert not results[1].records[0].covs.any()


class TestFailureLocalization:
    @staticmethod
    def blind_config(horizon):
        # second output row u * x_2 with sigma_z = diag(1, 1e-15): at u = 0
        # the innovation covariance is diag(2, 1e-15), condition 2e15
        sys_ = BilinearSystem(a=0.9 * np.eye(2), b=[[1.0], [0.0]],
                              c0=[[1.0, 0.0], [0.0, 0.0]],
                              ck=([[0.0, 0.0], [0.0, 1.0]],))
        noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=np.diag([1.0, 1e-15]),
                          x0_mean=[0.0, 0.0], sigma_0=np.eye(2))
        cost = CostSpec(q=np.eye(2), q_t=np.eye(2), r=[[1.0]])
        return SimConfig(sys_, noise, cost,
                         PolicyConfig("separation_lqg", "prior_mean"), horizon)

    def test_monte_carlo_names_run_step_and_condition_number(self):
        # the prior mean is 0, so every run's first action is 0
        with pytest.raises(ValueError, match=r"^innovation covariance singular: "
                                             r"run 0, step 0, "
                                             r"condition number 2\.000e\+15$"):
            monte_carlo(self.blind_config(5), 3, 1)

    def test_rollout_names_its_stream(self):
        config = self.blind_config(5)
        with pytest.raises(ValueError, match=r"run 7, step 0,"):
            rollout(config.system, config.noise, config.cost, config.policy,
                    config.horizon, RngStream(1, 7))

    def test_stacked_batch_names_the_failing_config(self):
        # a config that sees both states at u = 0 stacked before the blind
        # one: the failure names the blind config, its run and its step
        blind = self.blind_config(5)
        healthy = replace(blind, system=replace(blind.system, c0=np.eye(2)))
        with pytest.raises(ValueError, match=r"^innovation covariance singular: "
                                             r"config 1, run 0, step 0, "
                                             r"condition number 2\.000e\+15$"):
            monte_carlo([healthy, blind], 3, 1)

    def test_belief_check_names_step(self):
        # an unstable, unobserved mode: the covariance overflows to inf
        sys_ = BilinearSystem(a=[[1e30]], b=[[1.0]], c0=[[0.0]], ck=([[0.0]],))
        noise = NoiseSpec(sigma_w=[[1.0]], sigma_z=[[1.0]], x0_mean=[0.0],
                          sigma_0=[[1.0]])
        cost = CostSpec(q=[[1.0]], q_t=[[1.0]], r=[[1.0]])
        config = SimConfig(sys_, noise, cost,
                           PolicyConfig("separation_lqg", "prior_mean"), 20)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^cov has non-finite entries: run 0, step \d+$"):
            monte_carlo(config, 2, 0)


    @staticmethod
    def noiseless_orthogonal(init, variant="a"):
        # without process noise the filter's covariance turns singular within
        # 10 steps; the stage objective's innovation form needs it PSD only
        sys_, noise, cost = orthogonal_config(RngStream(0), variant)
        return SimConfig(sys_, replace(noise, sigma_w=np.zeros((6, 6))), cost,
                         PolicyConfig("numeric_bellman", init), 10)

    @staticmethod
    def assert_decided(records):
        assert len(records) == 3
        for rec in records:
            assert all(np.isfinite(getattr(rec, name)).all() for name in RECORD_ARRAYS)
        low = np.linalg.eigvalsh(np.stack([rec.covs for rec in records])).min(-1)
        assert low.min() >= -PSD_TOL
        assert low[:, -3].max() < 1e-15    # the last numeric decision met a singular prior

    @pytest.mark.parametrize("init", INIT_ESTIMATES)
    def test_noiseless_numeric_bellman_decides(self, init):
        self.assert_decided(monte_carlo(self.noiseless_orthogonal(init), 3, 1).records)

    def test_stacked_noiseless_variants_decide(self):
        # the variants differ only in c0, so they decide as one stack
        configs = [self.noiseless_orthogonal("prior_mean", v) for v in ("a", "b")]
        for result in monte_carlo(configs, 3, 1):
            self.assert_decided(result.records)

    def test_policy_decision_failure_names_policy_and_step(self, monkeypatch):
        monkeypatch.setitem(bilq.sim.POLICIES, "numeric_bellman", failing_lqg(3))
        with pytest.raises(ValueError, match=r"^numeric_bellman decision failed: step 3, "
                                             r"told to fail$") as err:
            monte_carlo(self.noiseless_orthogonal("prior_mean"), 3, 1)
        assert str(err.value).endswith(str(err.value.__cause__))

    def test_stacked_policy_failure_names_the_configs(self, monkeypatch):
        monkeypatch.setitem(bilq.sim.POLICIES, "numeric_bellman", failing_lqg(3))
        configs = [self.noiseless_orthogonal("prior_mean", v) for v in ("a", "b")]
        with pytest.raises(ValueError, match=r"^numeric_bellman decision failed: "
                                             r"config 0, config 1, step 3, told to fail$"):
            monte_carlo(configs, 3, 1)


def assert_engine_checks_match(n, m, p, variants, runs, horizon, kind, step, entry,
                               fail_step, seed):
    """monte_carlo with the filter's step `step` corrupted as `kind` says on
    entry `entry` raises what reference_simulate raises, returning its
    message and warnings, or returns its records bit for bit; fail_step None
    runs separation_lqg, otherwise numeric_bellman is failing_lqg(fail_step)."""
    # step == horizon corrupts nothing
    rng = np.random.default_rng(seed)
    noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05), sigma_z=random_spd(rng, m, 0.1),
                      x0_mean=rng.standard_normal(n), sigma_0=random_spd(rng, n, 0.3))
    cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n), r=random_spd(rng, p))
    a, b = 0.5 * rng.standard_normal((n, n)), rng.standard_normal((n, p))
    policy = PolicyConfig("separation_lqg" if fail_step is None else "numeric_bellman",
                          "sampled_from_prior")
    configs = [SimConfig(BilinearSystem(a=a, b=b, c0=rng.standard_normal((m, n)),
                                        ck=tuple(rng.standard_normal((m, n))
                                                 for _ in range(p))),
                         noise, cost, policy, horizon)
               for _ in range(variants)]
    labels = [f"config {v}, " if variants > 1 else "" for v in range(variants)]
    streams = [RngStream(seed, run) for run in range(runs)]
    step, entry = step % (horizon + 1), entry % (variants * runs)
    original = bilq.sim.POLICIES["numeric_bellman"]
    bilq.sim.POLICIES["numeric_bellman"] = failing_lqg(fail_step)
    try:
        results, caught = outcome_corrupted(lambda: monte_carlo(configs, runs, seed),
                                            kind, step, entry)
        reference, ref_caught = outcome_corrupted(
            lambda: reference_simulate(configs, streams, labels), kind, step, entry)
    finally:
        bilq.sim.POLICIES["numeric_bellman"] = original
    assert set(caught) <= set(ref_caught)
    if isinstance(reference, str):
        assert results == reference
        return results, caught
    assert not isinstance(results, str), results
    records = [rec for res in results for rec in res.records]
    assert len(records) == len(reference)
    for v, (rec, ref) in enumerate(zip(records, reference)):
        for field in RECORD_ARRAYS:
            assert getattr(rec, field).tobytes() == getattr(ref, field).tobytes(), (v, field)
        assert rec.terminal_cost == ref.terminal_cost, v


class TestChecksMatchPerStepReference:
    """The engine's filter checks, made once per block of steps, raise what
    checks made in every step raise, and a run that passes them is the
    per-step engine's bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), p=st.integers(1, 2),
           variants=st.integers(1, 2), runs=st.integers(1, 3), horizon=st.integers(1, 20),
           kind=st.sampled_from(FAILURE_KINDS), step=st.integers(0, 20),
           entry=st.integers(0, 5), fail_step=st.none() | st.integers(0, 20),
           seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 5))
    def test_injected_failure(self, n, m, p, variants, runs, horizon, kind, step, entry,
                              fail_step, seed, block):
        # blocks of 1-5 steps put block ends inside horizons of 1-20
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bilq.kalman, "CHECK_BLOCK", block)
            assert_engine_checks_match(n, m, p, variants, runs, horizon, kind, step, entry,
                                       fail_step, seed)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    @pytest.mark.parametrize("horizon, step", BLOCK_EDGES)
    @pytest.mark.parametrize("fails_next", [False, True])
    def test_block_edges(self, kind, horizon, step, fails_next):
        # fails_next: the decision after the corrupted step raises, and
        # numeric_bellman's decisions raise on a covariance that is not PSD
        assert_engine_checks_match(2, 2, 1, 2, 2, horizon, kind, step, 3,
                                   step + 1 if fails_next else None, 11)

    @pytest.mark.parametrize("step", [SHIPPED_BLOCK // 2, SHIPPED_BLOCK + SHIPPED_BLOCK // 2])
    def test_indefinite_innovation_mid_block(self, step):
        # the gain's LU solve takes it and the steps after it run; the
        # block's check still names its step, with no RuntimeWarning
        message, caught = assert_engine_checks_match(
            2, 2, 1, 2, 2, 2 * SHIPPED_BLOCK, "innovation_indefinite", step, 3, None, 11)
        assert message == (f"innovation covariance singular: config 1, run 1, step {step}, "
                           "condition number inf")
        assert caught == []


def stacked(records, field):
    return np.stack([getattr(rec, field) for rec in records])


def run_summed_nis(records, sys_, sigma_z, means, covs):
    """Per step t, the innovations' e^T S^-1 e summed over the records' runs: e = y_t -
    C(u_t) x_hat_t, S = C(u_t) Sigma_t C(u_t)^T + sigma_z, from beliefs (runs, T, ...)."""
    inputs, outputs = stacked(records, "inputs"), stacked(records, "outputs")
    runs, horizon, p = inputs.shape
    cs = observation_matrix(sys_, inputs.reshape(-1, p)).reshape(runs, horizon, sys_.m, sys_.n)
    e = outputs - np.einsum("rtij,rtj->rti", cs, means)
    s = cs @ covs @ cs.swapaxes(-1, -2) + sigma_z
    return np.einsum("rti,rti->t", e, np.linalg.solve(s, e[..., None])[..., 0])


class TestInnovationConsistency:
    """Given u_t the filter is exact, so its innovation is N(0, S_t), independent
    across steps and runs, and the run-summed NIS of each step is chi^2 with
    runs x m degrees of freedom (Bar-Shalom, Li & Kirubarajan, 2001, ch. 5).
    Under prior_mean only: sampled_from_prior draws x_hat_0 apart from x_0, so
    the initial error covariance is 2 Sigma_0, not the filter's Sigma_0."""

    RUNS, HORIZON, SEED = 200, 100, 3

    def records(self, config, kind):
        sys_, noise, cost = config
        return monte_carlo(SimConfig(sys_, noise, cost, PolicyConfig(kind, "prior_mean"),
                                     self.HORIZON), self.RUNS, self.SEED).records

    def in_band(self, nis, m):
        """Which steps' NIS lie in two-sided 99.9% bands, and whether their total does."""
        dof = self.RUNS * m
        lo, hi = chi2.ppf([0.0005, 0.9995], dof)
        total_lo, total_hi = chi2.ppf([0.0005, 0.9995], dof * len(nis))
        return (nis >= lo) & (nis <= hi), total_lo <= nis.sum() <= total_hi

    @pytest.mark.parametrize("preset, kind", [("orthogonal", "separation_lqg"),
                                              ("bilinear_integrator", "numeric_bellman")])
    def test_run_summed_nis_is_chi_square(self, preset, kind):
        config = {"orthogonal": lambda: orthogonal_config(RngStream(0), "a"),
                  "bilinear_integrator": lambda: double_integrator_config("bilinear")}[preset]()
        records = self.records(config, kind)
        nis = run_summed_nis(records, config[0], config[1].sigma_z,
                             stacked(records, "means")[:, :-1], stacked(records, "covs")[:, :-1])
        steps, total = self.in_band(nis, config[0].m)
        assert steps.all() and total

    def test_filter_told_four_times_the_noise_fails(self):
        # the records' outputs replayed through kf_step_batch told 4 sigma_z
        sys_, noise, cost = config = orthogonal_config(RngStream(0), "a")
        records = self.records(config, "separation_lqg")
        told = replace(noise, sigma_z=4.0 * noise.sigma_z)
        inputs, outputs = stacked(records, "inputs"), stacked(records, "outputs")
        means = np.empty((self.RUNS, self.HORIZON, sys_.n))
        covs = np.empty((self.RUNS, self.HORIZON, sys_.n, sys_.n))
        mean, cov = np.tile(noise.x0_mean, (self.RUNS, 1)), np.tile(noise.sigma_0,
                                                                    (self.RUNS, 1, 1))
        for t in range(self.HORIZON):
            means[:, t], covs[:, t] = mean, cov
            _, _, mean, cov = kf_step_batch(mean, cov, sys_, told, inputs[:, t], outputs[:, t])
        steps, total = self.in_band(run_summed_nis(records, sys_, told.sigma_z, means, covs),
                                    sys_.m)
        assert not total and steps.mean() < 0.1


class TestLandscapeSweep:
    def test_zero_offset_local_max_at_lqg_action(self):
        u_lqg = -0.05257796257796257
        step = 1e-3
        table = landscape_sweep(*scalar_config(offset=0.0),
                                grid=(u_lqg - 1.0, u_lqg + 1.0, 2001))
        center = 1000
        assert table.u[center] == pytest.approx(u_lqg, abs=1e-12)
        assert table.f_total[center - 1] < table.f_total[center]
        assert table.f_total[center + 1] < table.f_total[center]
        kinds = [p.kind for p in table.critical_points]
        assert kinds.count("local_max") == 1
        assert kinds.count("local_min") == 2

    def test_unit_offset_minimizer_near_lqg_action(self):
        u_lqg = -0.05257796257796257
        for offset in (1.0, -1.0):
            table = landscape_sweep(*scalar_config(offset=offset),
                                    grid=(-3.0, 3.0, 600001))
            minimizer = table.u[np.argmin(table.f_total)]
            assert abs(minimizer - u_lqg) < 0.02

    def test_penalty_peaks_at_observation_blind_point(self):
        for offset in (0.0, 0.5, -0.7):
            system, noise, cost = scalar_config(offset=offset)
            table = landscape_sweep(system, noise, cost, grid=(-3.0, 3.0, 60001))
            blind = -system.c0[0, 0] / system.ck[0][0, 0]
            peak = table.u[np.argmax(table.g)]
            assert abs(peak - blind) <= (table.u[1] - table.u[0])


    @pytest.mark.parametrize("grid", [(np.nan, 3.0, 5), (3.0, -3.0, 5), (1.0, 1.0, 5),
                                      (-3.0, np.inf, 5)])
    def test_grid_the_oracle_refuses_is_refused(self, grid):
        # core.grid_points, the oracle's rule: a finite lo < hi, then the count
        with pytest.raises(ValueError, match="^landscape sweep requires a finite grid lo < hi$"):
            landscape_sweep(*scalar_config(), grid=grid)


    @pytest.mark.parametrize("grid, message", [
        (("-3", "3", 5), "grid lo entries must be numbers, got '-3'"),
        ((-3.0, "3", 5), "grid hi entries must be numbers, got '3'"),
        ((False, True, 3), "grid lo entries must be numbers, got False"),
        ((-3.0, np.array([3.0, 4.0]), 5), "grid hi must be a number, got shape (2,)")])
    def test_grid_bounds_read_by_the_number_rule(self, grid, message):
        # core.real: a bool or a numeric string is no bound
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            landscape_sweep(*scalar_config(), grid=grid)


def random_records(rng, runs, horizon, n, m, p):
    """Records of random arrays; stage costs from a few values, so that the
    percentiles meet ties."""
    return [TrajectoryRecord(states=rng.standard_normal((horizon + 1, n)),
                             inputs=rng.standard_normal((horizon, p)),
                             outputs=rng.standard_normal((horizon, m)),
                             means=rng.standard_normal((horizon + 1, n)),
                             covs=rng.standard_normal((horizon + 1, n, n)),
                             stage_costs=rng.choice([0.0, 0.1, 0.3, 7.0], horizon),
                             terminal_cost=float(rng.exponential()))
            for _ in range(runs)]


class TestMetricTable:
    """The stacked metric table gives what the metrics computed one record
    and one metric at a time give, bit for bit: in each record's own table,
    in the percentiles and in the trajectory CSV."""

    @settings(max_examples=60, deadline=None)
    @given(runs=st.integers(1, 4), horizon=st.integers(1, 20), n=st.integers(1, 3),
           m=st.integers(1, 3), p=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(runs=1, horizon=1, n=1, m=1, p=1, seed=0)
    @example(runs=1, horizon=20, n=3, m=2, p=3, seed=1)
    @example(runs=4, horizon=1, n=2, m=3, p=2, seed=2)
    def test_matches_per_record_route(self, runs, horizon, n, m, p, seed):
        records = random_records(np.random.default_rng(seed), runs, horizon, n, m, p)
        for rec in records:
            for j, name in enumerate(METRICS):
                assert (metric_table([rec])[0, :, j].tobytes()
                        == reference_metric(rec, name).tobytes())
        percentiles = aggregate_percentiles(metric_table(records))
        assert list(percentiles) == list(METRICS)
        for name, series in percentiles.items():
            expected = np.percentile(np.stack([reference_metric(rec, name) for rec in records]),
                                     [25.0, 50.0, 75.0], axis=0, method="linear")
            assert (np.stack([series.p25, series.p50, series.p75]).tobytes()
                    == expected.tobytes()), name
        with tempfile.TemporaryDirectory() as tmp:
            write_trajectory_csv(f"{tmp}/table.csv", metric_table(records))
            reference_trajectory_csv(f"{tmp}/reference.csv", records)
            with open(f"{tmp}/table.csv", "rb") as got, open(f"{tmp}/reference.csv", "rb") as ref:
                assert got.read() == ref.read()


class TestAggregatePercentiles:
    @pytest.mark.parametrize("runs", [1, 2, 3, 4, 10, 201])
    def test_one_sort_matches_numpy_percentile(self, runs):
        # ties (costs from a few values, repeated rows) and a column with a NaN
        rng = np.random.default_rng(runs)
        table = rng.choice([0.0, 0.1, 0.3, 7.0], (runs, 6, len(METRICS)))
        table[:, :, 2:] = rng.standard_normal((runs, 6, len(METRICS) - 2))
        table[runs // 2:, 1] = table[0, 1]
        table[rng.integers(runs), 4, 3] = np.nan
        expected = np.percentile(table, [25.0, 50.0, 75.0], axis=0, method="linear")
        percentiles = aggregate_percentiles(table)
        got = np.stack([[percentiles[name].p25, percentiles[name].p50, percentiles[name].p75]
                        for name in METRICS], -1)
        assert got.tobytes() == expected.tobytes()

    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        # np.percentile imports numpy.ma (by way of np.unique) on numpy 2.4;
        # the percentiles' own sort does not
        src = Path(bilq.__file__).resolve().parents[1]
        code = (
            "import contextlib, io, json, sys\n"
            "from bilq.cli import main\n"
            "from bilq.core import config_to_dict\n"
            "from bilq.presets import scalar_config\n"
            "out = sys.argv[1]\n"
            "json.dump(config_to_dict(*scalar_config(), 2, 5, 1), open(f'{out}/c.json', 'w'))\n"
            "for args in (['double-integrator', '--runs', '3', '--seed', '1', '--out', f'{out}/di'],\n"
            "             ['simulate', '--config', f'{out}/c.json', '--out', f'{out}/sim']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(args, standalone_mode=False)\n"
            "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout == "False\n"
        assert (tmp_path / "di" / "summary.csv").exists()
        assert (tmp_path / "sim" / "summary.csv").exists()


class TestCsvWriters:
    def test_trajectory_rows_and_round_trip(self, tmp_path):
        sys_, noise, cost = lqg_testbed()
        config = SimConfig(sys_, noise, cost,
                           PolicyConfig("separation_lqg", "sampled_from_prior"), 7)
        res = monte_carlo(config, 3, 5)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, res.table)
        lines = path.read_text().splitlines()
        assert lines[0] == "run,t,stage_cost,cum_cost,u_norm,est_err,cov_trace"
        assert len(lines) == 1 + 3 * 8
        # 17 significant digits round-trip exactly
        first = lines[1].split(",")
        assert float(first[3]) == res.table[0, 0, METRICS.index("cum_cost")]

    def test_summary_rows(self, tmp_path):
        sys_, noise, cost = lqg_testbed()
        config = SimConfig(sys_, noise, cost,
                           PolicyConfig("separation_lqg", "sampled_from_prior"), 7)
        res = monte_carlo(config, 2, 5)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [(res.percentiles, "separation_lqg", "linear")])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,metric,p25,p50,p75,policy,obs_model"
        assert len(lines) == 1 + 5 * 8
        assert lines[1].endswith("separation_lqg,linear")

    def test_rewrites_identical(self, tmp_path):
        table = landscape_sweep(*scalar_config(offset=0.25), grid=(-2.0, 2.0, 501))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_landscape_csv(p1, table)
        write_landscape_csv(p2, table)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == 502
