import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilq.core import (BatchCheckError, BeliefState, BilinearSystem, NoiseSpec,
                       RngStream, observation_matrix)
from bilq.kalman import grid_bayes_oracle, kf_step, kf_step_batch

from helpers import (cov_update_information_form, dense_grid_oracle, kalman_gain,
                     standard_kf_update_predict, random_spd)


def scalar_setup(a=0.9, b=1.0, c0=0.0, c1=1.0, sw=0.01, sz=0.09, x0=0.1, s0=2.0):
    sys_ = BilinearSystem(a=[[a]], b=[[b]], c0=[[c0]], ck=([[c1]],))
    noise = NoiseSpec(sigma_w=[[sw]], sigma_z=[[sz]], x0_mean=[x0], sigma_0=[[s0]])
    return sys_, noise


def random_system(rng, n, m, p):
    return BilinearSystem(a=rng.standard_normal((n, n)) * 0.5,
                          b=rng.standard_normal((n, p)),
                          c0=rng.standard_normal((m, n)),
                          ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))


class TestKalmanGain:
    def test_zero_observation_zero_gain(self):
        sys_, noise = scalar_setup(c0=0.0, c1=1.0)
        belief = BeliefState(mean=[0.1], cov=[[2.0]])
        gain = kalman_gain(belief, sys_, noise, [0.0])
        assert np.array_equal(gain, np.zeros((1, 1)))

    def test_scalar_hand_value(self):
        sys_, noise = scalar_setup(a=1.0, c0=1.0, c1=0.0, sz=1.0)
        belief = BeliefState(mean=[0.0], cov=[[1.0]])
        gain = kalman_gain(belief, sys_, noise, [0.0])
        assert gain[0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_scalar_gain_formula_in_input(self):
        sys_, noise = scalar_setup()
        belief = BeliefState(mean=[0.1], cov=[[2.0]])
        for c in (0.3, 1.0, 2.5):
            gain = kalman_gain(belief, sys_, noise, [c])  # c0=0, c1=1 so C(u)=u
            assert gain[0, 0] == pytest.approx(-1.8 * c / (2 * c * c + 0.09), rel=1e-14)
        gain_at_one = kalman_gain(belief, sys_, noise, [1.0])
        assert gain_at_one[0, 0] == pytest.approx(-0.861244019138756, abs=1e-12)

    def test_singular_innovation_covariance(self):
        sys_, _ = scalar_setup()
        noise = NoiseSpec(sigma_w=[[0.01]], sigma_z=[[0.0]], x0_mean=[0.0],
                          sigma_0=[[1.0]])
        belief = BeliefState(mean=[0.0], cov=[[1.0]])
        with pytest.raises(ValueError, match="innovation covariance singular"):
            kalman_gain(belief, sys_, noise, [0.0])


class TestKfStep:
    def test_zero_gain_open_loop(self):
        sys_, noise = scalar_setup()
        belief = BeliefState(mean=[0.3], cov=[[1.5]])
        step = kf_step(belief, sys_, noise, [0.0], [0.7])
        assert step.next_belief.mean[0] == pytest.approx(0.9 * 0.3, abs=1e-15)
        assert step.next_belief.cov[0, 0] == pytest.approx(0.81 * 1.5 + 0.01, abs=1e-15)

    def test_scalar_hand_evaluation(self):
        # oracle recomputed inline with plain floats
        a, b, sw, sz = 0.9, 1.0, 0.01, 0.09
        prior_var, x_hat, u, y, c = 2.0, 0.1, 0.0, 0.5, 1.0
        gain = -a * prior_var * c / (c * prior_var * c + sz)
        mean_expected = a * x_hat + b * u - gain * (y - c * x_hat)
        var_expected = a * prior_var * a + gain * c * prior_var * a + sw

        sys_ = BilinearSystem(a=[[a]], b=[[b]], c0=[[1.0]], ck=([[1.0]],))
        noise = NoiseSpec(sigma_w=[[sw]], sigma_z=[[sz]], x0_mean=[x_hat],
                          sigma_0=[[prior_var]])
        belief = BeliefState(mean=[x_hat], cov=[[prior_var]])
        step = kf_step(belief, sys_, noise, [0.0], [y])  # C(0)=c0=1
        assert step.next_belief.mean[0] == pytest.approx(mean_expected, abs=1e-15)
        assert step.next_belief.cov[0, 0] == pytest.approx(var_expected, abs=1e-15)
        assert mean_expected == pytest.approx(0.43449760765550244, abs=1e-15)
        assert var_expected == pytest.approx(0.07976076555023924, abs=1e-15)

    def test_matches_textbook_filter_when_observation_static(self):
        rng = np.random.default_rng(5)
        n, m, p = 3, 2, 2
        sys_ = BilinearSystem(a=rng.standard_normal((n, n)) * 0.4,
                              b=rng.standard_normal((n, p)),
                              c0=rng.standard_normal((m, n)),
                              ck=tuple(np.zeros((m, n)) for _ in range(p)))
        sigma_w = random_spd(rng, n, 0.1)
        sigma_z = random_spd(rng, m, 0.1)
        noise = NoiseSpec(sigma_w=sigma_w, sigma_z=sigma_z,
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        mean = rng.standard_normal(n)
        cov = random_spd(rng, n)
        belief = BeliefState(mean=mean, cov=cov)
        for _ in range(15):
            u = rng.standard_normal(p)
            y = rng.standard_normal(m)
            step = kf_step(belief, sys_, noise, u, y)
            ref_mean, ref_cov = standard_kf_update_predict(
                belief.mean, belief.cov, sys_.a, sys_.b, sys_.c0,
                sigma_w, sigma_z, u, y)
            np.testing.assert_allclose(step.next_belief.mean, ref_mean, atol=1e-10)
            np.testing.assert_allclose(step.next_belief.cov, ref_cov, atol=1e-10)
            belief = step.next_belief

    def test_covariance_dominates_process_noise(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n, m, p = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3)
            sys_ = random_system(rng, n, m, p)
            sigma_w = random_spd(rng, n, 0.05)
            noise = NoiseSpec(sigma_w=sigma_w, sigma_z=random_spd(rng, m, 0.1),
                              x0_mean=np.zeros(n), sigma_0=np.eye(n))
            belief = BeliefState(mean=rng.standard_normal(n), cov=random_spd(rng, n))
            step = kf_step(belief, sys_, noise, rng.standard_normal(p),
                           rng.standard_normal(m))
            cov = step.next_belief.cov
            assert np.array_equal(cov, cov.T)
            slack = np.linalg.eigvalsh(cov - sigma_w).min()
            assert slack >= -1e-9

    def test_covariance_input_independent_iff_static(self):
        rng = np.random.default_rng(31)
        sys_static = BilinearSystem(a=[[1.0, 0.3], [0.0, 1.0]], b=[[0.0], [0.3]],
                                    c0=[[1.0, 0.0]], ck=([[0.0, 0.0]],))
        sys_bilinear = BilinearSystem(a=[[1.0, 0.3], [0.0, 1.0]], b=[[0.0], [0.3]],
                                      c0=[[1.0, 0.0]], ck=([[1.0, 0.0]],))
        noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=[[0.01]],
                          x0_mean=[0.0, 0.0], sigma_0=np.eye(2))

        def cov_sequence(sys_, inputs):
            belief = BeliefState(mean=[0.0, 0.0], cov=np.eye(2))
            covs = []
            for u in inputs:
                belief = kf_step(belief, sys_, noise, [u], [0.0]).next_belief
                covs.append(belief.cov)
            return np.array(covs)

        u1 = rng.standard_normal(10)
        u2 = rng.standard_normal(10)
        np.testing.assert_array_equal(cov_sequence(sys_static, u1),
                                      cov_sequence(sys_static, u2))
        assert not np.allclose(cov_sequence(sys_bilinear, u1),
                               cov_sequence(sys_bilinear, u2))


class TestKfStepBatch:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 2),
           runs=st.integers(1, 5), steps=st.integers(1, 6),
           input_scale=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_run_steps_and_textbook_filter(self, n, m, p, runs, steps,
                                                       input_scale, seed):
        # the stacked step is per-run kf_step bit for bit, and agrees with
        # the textbook update-then-predict filter on C(u)
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, n, m, p)
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05),
                          sigma_z=random_spd(rng, m, 0.1),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        means = rng.standard_normal((runs, n))
        covs = np.stack([random_spd(rng, n) for _ in range(runs)])
        beliefs = [BeliefState(mean=mu, cov=s) for mu, s in zip(means, covs)]
        for _ in range(steps):
            inputs = input_scale * rng.standard_normal((runs, p))
            outputs = rng.standard_normal((runs, m))
            gains, innovations, means, covs = kf_step_batch(
                means, covs, sys_, noise, inputs, outputs)
            for r, belief in enumerate(beliefs):
                step = kf_step(belief, sys_, noise, inputs[r], outputs[r])
                assert gains[r].tobytes() == step.gain.tobytes()
                assert innovations[r].tobytes() == step.innovation.tobytes()
                assert means[r].tobytes() == step.next_belief.mean.tobytes()
                assert covs[r].tobytes() == step.next_belief.cov.tobytes()
                ref_mean, ref_cov = standard_kf_update_predict(
                    belief.mean, belief.cov, sys_.a, sys_.b,
                    observation_matrix(sys_, inputs[r]), noise.sigma_w,
                    noise.sigma_z, inputs[r], outputs[r])
                np.testing.assert_allclose(means[r], ref_mean, rtol=1e-9,
                                           atol=1e-9 * np.abs(ref_mean).max())
                np.testing.assert_allclose(covs[r], ref_cov, rtol=1e-9,
                                           atol=1e-9 * np.abs(ref_cov).max())
                beliefs[r] = step.next_belief

    def test_innovation_check_names_first_failing_entry(self):
        # the second output row is u * x_2, blind at u = 0, where the
        # innovation covariance is diag(., 1e-15)
        sys_ = BilinearSystem(a=0.9 * np.eye(2), b=[[1.0], [0.0]],
                              c0=[[1.0, 0.0], [0.0, 0.0]],
                              ck=([[0.0, 0.0], [0.0, 1.0]],))
        noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=np.diag([1.0, 1e-15]),
                          x0_mean=[0.0, 0.0], sigma_0=np.eye(2))
        means = np.zeros((4, 2))
        covs = np.stack([np.eye(2)] * 4)
        inputs = np.array([[1.0], [0.5], [0.0], [0.0]])
        with pytest.raises(BatchCheckError,
                           match=r"^innovation covariance singular "
                                 r"\(condition number 2\.000e\+15\)$") as info:
            kf_step_batch(means, covs, sys_, noise, inputs, np.zeros((4, 2)))
        assert info.value.index == 2


class TestInformationForm:
    def test_no_observation(self):
        sys_, noise = scalar_setup()
        out = cov_update_information_form(np.array([[1.5]]), sys_, noise, [0.0])
        assert out[0, 0] == pytest.approx(0.81 * 1.5 + 0.01, abs=1e-15)

    def test_scalar_reference_value(self):
        sys_, noise = scalar_setup()
        out = cov_update_information_form(np.array([[2.0]]), sys_, noise, [1.0])
        expected = 0.81 / (1.0 / 2.0 + 1.0 / 0.09) + 0.01
        assert out[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_agrees_with_direct_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, m, p = 3, 2, 2
            sys_ = random_system(rng, n, m, p)
            noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.1),
                              sigma_z=random_spd(rng, m, 0.1),
                              x0_mean=np.zeros(n), sigma_0=np.eye(n))
            cov = random_spd(rng, n)
            u = rng.standard_normal(p)
            belief = BeliefState(mean=np.zeros(n), cov=cov)
            direct = kf_step(belief, sys_, noise, u, np.zeros(m)).next_belief.cov
            info = cov_update_information_form(cov, sys_, noise, u)
            assert np.linalg.norm(info - direct) <= 1e-9 * np.linalg.norm(direct)

    def test_requires_pd(self):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match="information form requires PD"):
            cov_update_information_form(np.array([[0.0]]), sys_, noise, [0.0])


class TestGridBayesOracle:
    def test_no_observations_returns_prior(self):
        sys_, noise = scalar_setup()
        mean, var = grid_bayes_oracle(sys_, noise, [], [])
        assert (mean, var) == (0.1, 2.0)

    def test_one_step_matches_filter(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            sys_, noise = scalar_setup(a=rng.uniform(0.5, 1.0),
                                       c0=rng.uniform(0.2, 1.0),
                                       c1=rng.uniform(-1.0, 1.0),
                                       x0=rng.uniform(-0.3, 0.3))
            u = rng.uniform(-1.0, 1.0)
            stream = RngStream(rng.integers(1000))
            x0 = noise.x0_mean[0] + np.sqrt(2.0) * stream.standard_normal(1)[0]
            c = sys_.c0[0, 0] + sys_.ck[0][0, 0] * u
            y = c * x0 + np.sqrt(0.09) * stream.standard_normal(1)[0]
            belief = BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
            step = kf_step(belief, sys_, noise, [u], [y])
            mean, var = grid_bayes_oracle(sys_, noise, [u], [y])
            assert mean == pytest.approx(step.next_belief.mean[0], abs=1e-4)
            assert var == pytest.approx(step.next_belief.cov[0, 0], rel=1e-4)

    def test_five_step_agreement(self):
        rng = np.random.default_rng(4)
        sys_, noise = scalar_setup(c0=0.4, c1=0.8)
        stream = RngStream(99)
        x = noise.x0_mean[0] + np.sqrt(2.0) * stream.standard_normal(1)[0]
        belief = BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
        inputs, outputs = [], []
        for _ in range(5):
            u = rng.uniform(-1.0, 1.0)
            c = 0.4 + 0.8 * u
            y = c * x + np.sqrt(0.09) * stream.standard_normal(1)[0]
            inputs.append(u)
            outputs.append(y)
            belief = kf_step(belief, sys_, noise, [u], [y]).next_belief
            x = 0.9 * x + u + np.sqrt(0.01) * stream.standard_normal(1)[0]
        mean, var = grid_bayes_oracle(sys_, noise, inputs, outputs)
        assert mean == pytest.approx(belief.mean[0], abs=1e-4)
        assert var == pytest.approx(belief.cov[0, 0], rel=1e-4)

    def test_truncation_detected(self):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match="grid truncation"):
            grid_bayes_oracle(sys_, noise, [0.5], [0.2], grid=(-0.5, 0.5, 101))

    def test_vector_system_rejected(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)), c0=np.ones((1, 2)),
                              ck=(np.zeros((1, 2)),))
        noise = NoiseSpec(sigma_w=np.eye(2), sigma_z=[[1.0]],
                          x0_mean=[0.0, 0.0], sigma_0=np.eye(2))
        with pytest.raises(ValueError, match="scalar"):
            grid_bayes_oracle(sys_, noise, [], [])

    @settings(max_examples=12, deadline=None)
    @given(a=st.one_of(st.just(0.0), st.floats(-1.1, 1.1)),
           b=st.floats(-1.5, 1.5), c0=st.floats(0.2, 1.0), c1=st.floats(-1.0, 1.0),
           s0=st.floats(0.5, 2.0), log_ratio=st.floats(-4.0, 0.0),
           steps=st.integers(1, 5), grid_points=st.sampled_from([None, 801, 1601, 2401]),
           pad=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_banded_kernel_matches_dense_reference(self, a, b, c0, c1, s0, log_ratio,
                                                   steps, grid_points, pad, seed):
        # sigma_w / sigma_0 from 1e-4 (a band of a few grid points) to 1;
        # an explicit grid is the default envelope padded, with fewer points
        sw = s0 * 10.0 ** log_ratio
        sys_, noise = scalar_setup(a=a, b=b, c0=c0, c1=c1, sw=sw, s0=s0)
        rng = np.random.default_rng(seed)
        x = 0.1 + np.sqrt(s0) * rng.standard_normal()
        inputs, outputs = [], []
        mu, sd = 0.1, np.sqrt(s0)
        lo, hi = mu - 8.0 * sd, mu + 8.0 * sd
        for _ in range(steps):
            u = rng.uniform(-1.0, 1.0)
            inputs.append(u)
            outputs.append((c0 + c1 * u) * x + 0.3 * rng.standard_normal())
            x = a * x + b * u + np.sqrt(sw) * rng.standard_normal()
            mu, sd = a * mu + b * u, np.sqrt(a * a * sd * sd + sw)
            lo, hi = min(lo, mu - 8.0 * sd), max(hi, mu + 8.0 * sd)
        grid = None if grid_points is None else (lo - pad, hi + pad, grid_points)
        mean, var = grid_bayes_oracle(sys_, noise, inputs, outputs, grid=grid)
        ref_mean, ref_var = dense_grid_oracle(sys_, noise, inputs, outputs, grid=grid)
        assert abs(mean - ref_mean) <= 1e-10
        assert abs(var - ref_var) <= 1e-10 * ref_var

    @pytest.mark.parametrize("grid, truncated", [((-3.0, 3.0, 1201), False),
                                                 ((-0.8, 0.8, 401), True)])
    def test_band_clipped_at_grid_edge(self, grid, truncated):
        # 8 sigma_w = 0.8: the bands of the outermost columns leave the grid
        sys_, noise = scalar_setup(sw=0.01, x0=0.0, s0=0.05)
        lo, hi, _ = grid
        assert 0.9 * hi + 0.3 + 0.8 > hi and -0.9 * hi + 0.3 - 0.8 < lo
        try:
            ref = dense_grid_oracle(sys_, noise, [0.3], [0.1], grid=grid)
        except ValueError as err:
            assert truncated and str(err) == "grid truncation"
            with pytest.raises(ValueError, match="^grid truncation$"):
                grid_bayes_oracle(sys_, noise, [0.3], [0.1], grid=grid)
        else:
            assert not truncated
            mean, var = grid_bayes_oracle(sys_, noise, [0.3], [0.1], grid=grid)
            assert abs(mean - ref[0]) <= 1e-10
            assert abs(var - ref[1]) <= 1e-10 * ref[1]

    @pytest.mark.parametrize("grid", [(-1.0, 1.0, 1), (-1.0, 1.0, 2), (10.0, -10.0, 4001),
                                      (1.0, 1.0, 11), (np.nan, 1.0, 11),
                                      (-1.0, np.inf, 11)])
    def test_invalid_grid_rejected(self, grid):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match="finite grid lo < hi, points >= 3"):
            grid_bayes_oracle(sys_, noise, [0.5], [0.2], grid=grid)

    @pytest.mark.parametrize("inputs, outputs", [([np.nan], [0.2]), ([0.5], [np.inf]),
                                                 ([0.5, -np.inf], [0.2, 0.1]),
                                                 ([-np.inf], [np.nan])])
    def test_non_finite_inputs_or_outputs_rejected(self, inputs, outputs):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match="finite inputs and outputs"):
            grid_bayes_oracle(sys_, noise, inputs, outputs)

    def test_output_off_the_grid_is_truncation(self):
        # the likelihood of y = 1e6 underflows to zero on the whole grid
        sys_, noise = scalar_setup(c0=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="^grid truncation$"):
            grid_bayes_oracle(sys_, noise, [0.5], [1e6])
