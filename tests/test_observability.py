from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bilq.kalman
from bilq.core import BilinearSystem, CostSpec, NoiseSpec, RngStream, matvec, observation_matrix
from bilq.control import lqg_policy, riccati_recursion
from bilq.kalman import closed_loop
from bilq.observability import (check_proposition1, covariance_boundedness_probe,
                                gramian, gramian_decomposition,
                                orthogonal_complement_c0, window_gramians)
from bilq.presets import double_integrator_config, orthogonal_config, scalar_config

from helpers import (BLOCK_EDGES, FAILURE_KINDS, REFUSED_ENTRIES, SHIPPED_BLOCK,
                     assert_refused_quietly, outcome_corrupted, per_step_probe_covs, random_spd,
                     reference_boundedness_probe, reference_gramian)


def random_bilinear(rng, n=3, m=2, p=2, spectral=0.9):
    a = rng.standard_normal((n, n))
    a *= spectral / np.abs(np.linalg.eigvals(a)).max()
    return BilinearSystem(a=a, b=rng.standard_normal((n, p)),
                          c0=rng.standard_normal((m, n)),
                          ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))


class TestGramian:
    def test_identity_system(self):
        n = 3
        sys_ = BilinearSystem(a=np.eye(n), b=np.ones((n, 1)), c0=np.eye(n),
                              ck=(np.zeros((n, n)),))
        report = gramian(sys_, [np.zeros(1)] * n)
        np.testing.assert_array_equal(report.gramian, n * np.eye(n))
        assert report.min_eigenvalue == pytest.approx(n, abs=1e-12)
        assert report.uniformly_observable

    def test_zero_observation(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)),
                              c0=np.zeros((1, 2)), ck=(np.ones((1, 2)),))
        report = gramian(sys_, [np.zeros(1)] * 2)
        assert np.array_equal(report.gramian, np.zeros((2, 2)))
        assert not report.uniformly_observable

    def test_double_integrator_constant_input(self):
        sys_, _, _ = double_integrator_config("bilinear", c1=1.0)
        report = gramian(sys_, [np.ones(1), np.ones(1)])
        # direct 2x2 evaluation: row [1, 0] then [1, 0] @ A = [1, 0.3]
        expected = np.array([[1.0, 0.0], [0.0, 0.0]]) + np.array(
            [[1.0, 0.3], [0.3, 0.09]])
        np.testing.assert_allclose(report.gramian, expected, atol=1e-14)
        assert report.min_eigenvalue > 0.0

    def test_too_few_inputs(self):
        sys_, _, _ = double_integrator_config("bilinear")
        with pytest.raises(ValueError, match="at least 2"):
            gramian(sys_, [np.ones(1)])

    @pytest.mark.parametrize("entry, check", REFUSED_ENTRIES)
    @pytest.mark.parametrize("entry_point", [gramian, window_gramians, gramian_decomposition])
    def test_inputs_read_by_the_number_rule(self, entry_point, entry, check):
        # the filter's rule (core._numbers), a NaN refused rather than read as
        # "not uniformly observable", and no arithmetic run on an infinite entry
        sys_, _, _ = double_integrator_config("bilinear")
        assert_refused_quietly(f"input {check}", entry_point, sys_, [[0.5], [entry]])

    def test_delta_threshold_semantics(self):
        sys_, _, _ = double_integrator_config("bilinear", c1=1.0)
        report = gramian(sys_, [np.ones(1)] * 2, delta=1e-8)
        stricter = gramian(sys_, [np.ones(1)] * 2, delta=report.min_eigenvalue * 2)
        assert report.uniformly_observable
        assert not stricter.uniformly_observable


class TestOrthogonalComplement:
    def test_already_orthogonal_is_fixed_point(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)),
                              c0=[[0.0, 1.0]], ck=([[1.0, 0.0]],))
        np.testing.assert_allclose(orthogonal_complement_c0(sys_), sys_.c0,
                                   atol=1e-12)

    def test_contained_in_span_projects_to_zero(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)),
                              c0=[[2.0, 4.0]], ck=([[1.0, 2.0]],))
        np.testing.assert_allclose(orthogonal_complement_c0(sys_),
                                   np.zeros((1, 2)), atol=1e-12)

    def test_explicit_decomposition(self):
        c1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = np.array([[4.0, -2.0], [0.0, 0.0]])
        assert abs(np.sum(c1 * d)) < 1e-14
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)), c0=c1 + d, ck=(c1,))
        np.testing.assert_allclose(orthogonal_complement_c0(sys_), d, atol=1e-12)

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            sys_ = random_bilinear(rng)
            perp = orthogonal_complement_c0(sys_)
            for ck in sys_.ck:
                assert abs(np.sum(ck * perp)) < 1e-9
            again = orthogonal_complement_c0(
                BilinearSystem(a=sys_.a, b=sys_.b, c0=perp, ck=sys_.ck))
            np.testing.assert_allclose(again, perp, atol=1e-12)

    def test_collinear_directions_dropped(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 2)),
                              c0=[[1.0, 1.0]],
                              ck=([[1.0, 0.0]], [[2.0, 0.0]]))
        np.testing.assert_allclose(orthogonal_complement_c0(sys_),
                                   [[0.0, 1.0]], atol=1e-12)


class TestDecomposition:
    def test_parts_sum_to_whole(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sys_ = random_bilinear(rng)
            inputs = [rng.standard_normal(sys_.p) for _ in range(sys_.n)]
            o1, o2, o3 = gramian_decomposition(sys_, inputs)
            total = gramian(sys_, inputs).gramian
            np.testing.assert_allclose(o1 + o2 + o3, total, atol=1e-10)

    def test_input_part_psd(self):
        rng = np.random.default_rng(10)
        sys_ = random_bilinear(rng)
        inputs = [rng.standard_normal(sys_.p) for _ in range(sys_.n)]
        _, _, o3 = gramian_decomposition(sys_, inputs)
        assert np.linalg.eigvalsh(o3).min() >= -1e-12


class TestProposition1:
    def test_generated_orthogonal_system_passes(self):
        sys_, _, _ = orthogonal_config(RngStream(12), "a")
        report = check_proposition1(sys_)
        assert report.ok
        assert report.min_eigenvalue > 1e-8

    def test_zero_static_matrix_fails(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)),
                              c0=np.zeros((1, 2)), ck=(np.ones((1, 2)),))
        assert not check_proposition1(sys_).ok

    def test_rank_deficient_single_term_fails(self):
        sys_ = BilinearSystem(a=np.zeros((2, 2)), b=np.ones((2, 1)),
                              c0=[[1.0, 0.0]], ck=(np.zeros((1, 2)),))
        report = check_proposition1(sys_)
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_diagnostics_along_inputs(self):
        sys_, _, _ = orthogonal_config(RngStream(12), "a")
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal(sys_.p) for _ in range(sys_.n)]
        # the spectral norms that `orthogonal` writes to prop1_report.json
        parts = gramian_decomposition(sys_, inputs)
        norm_o1, norm_o2, norm_o3 = (float(np.linalg.norm(o, 2)) for o in parts)
        assert np.isfinite(norm_o1)
        assert np.isfinite(norm_o2)
        assert np.isfinite(norm_o3)
        # the static test matrix is the decomposition's first part, bit for bit,
        # along any inputs
        other = gramian_decomposition(sys_, [2.0 * u for u in inputs])
        assert float(np.linalg.norm(other[0], 2)) == norm_o1
        report = check_proposition1(sys_)
        assert report.min_eigenvalue == float(np.linalg.eigvalsh(parts[0]).min())
        assert report.min_eigenvalue == float(np.linalg.eigvalsh(other[0]).min())

    def test_full_test_dominates_static_part(self):
        # for systems passing the sufficient condition, adding inputs never
        # pushes the minimum eigenvalue below the static part's
        rng = np.random.default_rng(14)
        for seed in range(5):
            sys_, _, _ = orthogonal_config(RngStream(seed), "a")
            static_min = check_proposition1(sys_).min_eigenvalue
            for _ in range(4):
                inputs = [rng.standard_normal(sys_.p) for _ in range(sys_.n)]
                full = gramian(sys_, inputs)
                assert full.min_eigenvalue >= static_min - 1e-6


class TestBoundednessProbe:
    def test_orthogonal_system_bounded(self):
        sys_, noise, cost = orthogonal_config(RngStream(12), "a")
        tables = riccati_recursion(cost, sys_, 100)
        report = covariance_boundedness_probe(
            sys_, noise, lambda t, mean: lqg_policy(tables, t, mean), 100)
        assert not report.exceeded
        assert report.norms[50:].max() <= 1.05 * report.norms[1:51].max()

    def test_vanishing_inputs_divergence(self):
        sys_, noise, _ = double_integrator_config("bilinear", c1=1.0)
        report = covariance_boundedness_probe(
            sys_, noise, lambda t, mean: np.zeros(1), 100)
        assert report.traces[-1] > report.traces[2]
        assert report.traces[-1] > 2.0 * report.traces[20]

    def test_static_identity_observation_bounded(self):
        sys_ = BilinearSystem(a=0.9 * np.eye(2), b=np.ones((2, 1)),
                              c0=np.eye(2), ck=(np.zeros((2, 2)),))
        noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=0.01 * np.eye(2),
                          x0_mean=np.zeros(2), sigma_0=np.eye(2))
        report = covariance_boundedness_probe(
            sys_, noise, lambda t, mean: np.zeros(1), 200)
        assert not report.exceeded
        # settles to the stationary filter: tail is flat
        assert abs(report.norms[-1] - report.norms[-2]) < 1e-12

    def test_uniformly_observable_inputs_never_diverge(self):
        rng = np.random.default_rng(21)
        sys_, noise, _ = orthogonal_config(RngStream(5), "b")
        inputs = rng.standard_normal((200, sys_.p))
        for start in range(0, 194, 30):
            assert gramian(sys_, inputs[start:start + sys_.n]).uniformly_observable
        report = covariance_boundedness_probe(
            sys_, noise, lambda t, mean: inputs[t], 200)
        assert not report.exceeded

    def test_horizon_checked(self):
        sys_, noise, _ = orthogonal_config(RngStream(12), "a")
        with pytest.raises(ValueError, match="at least"):
            covariance_boundedness_probe(sys_, noise, lambda t, mean: np.zeros(3),
                                         3)

    def test_failure_names_its_step(self):
        # two identical noiseless sensors: the innovation covariance is
        # singular at the first step
        sys_ = BilinearSystem(a=[[0.9]], b=[[1.0]], c0=[[1.0], [1.0]],
                              ck=([[0.0], [0.0]],))
        noise = NoiseSpec(sigma_w=[[0.01]], sigma_z=1e-16 * np.eye(2),
                          x0_mean=[0.0], sigma_0=[[1.0]])
        with pytest.raises(ValueError, match=r"^innovation covariance singular: "
                                             r"step 0, condition number inf$"):
            covariance_boundedness_probe(sys_, noise, lambda t, mean: np.zeros(1), 5)


def assert_matches_reference(sys_, noise, policy, horizon):
    report = covariance_boundedness_probe(sys_, noise, policy, horizon)
    norms, traces, inputs = reference_boundedness_probe(sys_, noise, policy, horizon)
    assert np.array_equal(report.norms, norms)
    assert np.array_equal(report.traces, traces)
    assert np.array_equal(report.inputs, inputs)
    assert report.max_norm == norms.max()


class TestProbeMatchesReference:
    """The probe on the stacked step is the per-step probe bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 3), p=st.integers(1, 3),
           horizon_extra=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_systems(self, n, m, p, horizon_extra, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_bilinear(rng, n, m, p, spectral=rng.uniform(0.5, 1.2))
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.01),
                          sigma_z=random_spd(rng, m, 0.05),
                          x0_mean=rng.standard_normal(n), sigma_0=random_spd(rng, n))
        cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n),
                        r=random_spd(rng, p))
        horizon = n + horizon_extra
        tables = riccati_recursion(cost, sys_, horizon)
        fixed = rng.standard_normal(p)
        assert_matches_reference(sys_, noise, partial(lqg_policy, tables), horizon)
        assert_matches_reference(sys_, noise, lambda t, mean: fixed, horizon)

    @pytest.mark.parametrize("config", [
        scalar_config(),
        double_integrator_config("bilinear"),
        orthogonal_config(RngStream(3), "b"),
    ])
    def test_presets(self, config):
        sys_, noise, cost = config
        tables = riccati_recursion(cost, sys_, 100)
        assert_matches_reference(sys_, noise, partial(lqg_policy, tables), 100)


class TestProbeIsTheNoiseFreeClosedLoop:
    """The probe's premise: one closed-loop run without noise from the prior
    mean emits the filter's predicted outputs, so its innovations are zero and
    its states are its means; the probe reports that run's covariances and inputs."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), m=st.integers(1, 3), p=st.integers(1, 3),
           horizon_extra=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_systems(self, n, m, p, horizon_extra, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_bilinear(rng, n, m, p, spectral=rng.uniform(0.5, 1.2))
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.01), sigma_z=random_spd(rng, m, 0.05),
                          x0_mean=rng.standard_normal(n), sigma_0=random_spd(rng, n))
        cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n), r=random_spd(rng, p))
        T = n + horizon_extra
        tables = riccati_recursion(cost, sys_, T)
        fixed = rng.standard_normal(p)
        for policy in (partial(lqg_policy, tables), lambda t, mean: fixed):
            run = closed_loop(sys_, noise, noise.x0_mean, (noise.x0_mean, noise.sigma_0),
                              lambda r, t: np.reshape(policy(t, r.means[0, t]), (1, p)),
                              np.zeros((1, T, n)), np.zeros((1, T, m)), lambda t, _: f"step {t}")
            predicted = matvec(observation_matrix(sys_, run.inputs[0]), run.means[0, :T])
            assert (run.outputs[0] - predicted == 0.0).all()
            assert np.array_equal(run.states, run.means)
            report = covariance_boundedness_probe(sys_, noise, policy, T)
            covs = run.covs[0]
            assert report.norms.tobytes() == np.linalg.norm(covs, 2, axis=(1, 2)).tobytes()
            assert report.traces.tobytes() == np.trace(covs, axis1=1, axis2=2).tobytes()
            assert report.inputs.tobytes() == run.inputs[0].tobytes()


def assert_probe_checks_match(n, m, p, horizon, kind, step, fail_step, seed):
    """The probe with the filter's step `step` corrupted as `kind` says, under
    an input policy that fails at fail_step, raises what per_step_probe_covs
    raises, returning its message and warnings, or reports its covariances
    and inputs bit for bit."""
    rng = np.random.default_rng(seed)
    sys_ = random_bilinear(rng, n, m, p, spectral=rng.uniform(0.5, 1.2))
    noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.01), sigma_z=random_spd(rng, m, 0.05),
                      x0_mean=rng.standard_normal(n), sigma_0=random_spd(rng, n))
    cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n), r=random_spd(rng, p))
    tables = riccati_recursion(cost, sys_, horizon)

    def policy(t, mean):  # an input policy that fails at fail_step
        if t == fail_step:
            raise ValueError("told to fail")
        return lqg_policy(tables, t, mean)

    step = step % (horizon + 1)  # horizon: nothing corrupted
    report, caught = outcome_corrupted(
        lambda: covariance_boundedness_probe(sys_, noise, policy, horizon), kind, step, 0)
    reference, ref_caught = outcome_corrupted(
        lambda: per_step_probe_covs(sys_, noise, policy, horizon), kind, step, 0)
    assert set(caught) <= set(ref_caught)
    if isinstance(reference, str):
        assert report == reference
        return report, caught
    assert not isinstance(report, str), report
    covs, inputs = reference
    assert report.norms.tobytes() == np.linalg.norm(covs, 2, axis=(1, 2)).tobytes()
    assert report.traces.tobytes() == np.trace(covs, axis1=1, axis2=2).tobytes()
    assert report.inputs.tobytes() == inputs.tobytes()


class TestProbeChecksMatchPerStepReference:
    """The probe's filter checks, made once per block of steps, raise what
    checks made in every step raise."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 2),
           horizon_extra=st.integers(0, 25), kind=st.sampled_from(FAILURE_KINDS),
           step=st.integers(0, 30), fail_step=st.none() | st.integers(0, 30),
           seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 5))
    def test_injected_failure(self, n, m, p, horizon_extra, kind, step, fail_step, seed,
                              block):
        # blocks of 1-5 steps put block ends inside horizons of 1-29
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bilq.kalman, "CHECK_BLOCK", block)
            assert_probe_checks_match(n, m, p, n + horizon_extra, kind, step, fail_step, seed)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    @pytest.mark.parametrize("horizon, step", BLOCK_EDGES)
    @pytest.mark.parametrize("fails_next", [False, True])
    def test_block_edges(self, kind, horizon, step, fails_next):
        assert_probe_checks_match(2, 2, 1, horizon, kind, step,
                                  step + 1 if fails_next else None, 5)

    @pytest.mark.parametrize("step", [SHIPPED_BLOCK // 2, SHIPPED_BLOCK + SHIPPED_BLOCK // 2])
    def test_indefinite_innovation_mid_block(self, step):
        # the gain's LU solve takes it and the steps after it run; the
        # block's check still names its step, with no RuntimeWarning
        message, caught = assert_probe_checks_match(
            2, 2, 1, 2 * SHIPPED_BLOCK, "innovation_indefinite", step, None, 5)
        assert message == f"innovation covariance singular: step {step}, condition number inf"
        assert caught == []


def assert_windows_match_gramian(sys_, inputs):
    totals, lows = window_gramians(sys_, inputs)
    assert totals.shape == (len(inputs) - sys_.n + 1, sys_.n, sys_.n)
    for start, (total, low) in enumerate(zip(totals, lows)):
        window = inputs[start:start + sys_.n]
        report = gramian(sys_, window)
        assert total.tobytes() == report.gramian.tobytes()
        assert total.tobytes() == reference_gramian(sys_, window).tobytes()
        assert low == report.min_eigenvalue


class TestWindowGramians:
    """Every window of the stacked gramians is its own gramian call bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 3), p=st.integers(1, 3),
           extra=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_systems(self, n, m, p, extra, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_bilinear(rng, n, m, p, spectral=rng.uniform(0.5, 1.2))
        assert_windows_match_gramian(sys_, rng.standard_normal((n + extra, p)))

    @pytest.mark.parametrize("config", [
        scalar_config(),
        double_integrator_config("bilinear"),
        orthogonal_config(RngStream(3), "b"),
    ])
    def test_presets_along_lqg_probe(self, config):
        sys_, noise, cost = config
        tables = riccati_recursion(cost, sys_, 100)
        probe = covariance_boundedness_probe(sys_, noise, partial(lqg_policy, tables), 100)
        assert_windows_match_gramian(sys_, probe.inputs)

    def test_too_few_inputs(self):
        sys_ = orthogonal_config(RngStream(3), "b")[0]
        with pytest.raises(ValueError, match="need at least 6 inputs, got 5"):
            window_gramians(sys_, np.zeros((5, sys_.p)))
