import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bilq.core
import bilq.kalman
from bilq.core import (PSD_TOL, BatchCheckError, BeliefState, BilinearSystem, NoiseSpec,
                       RngStream, check_beliefs, observation_matrix)
from bilq.kalman import (COND_LIMIT, _check_step, _hermite_kernel, grid_bayes_oracle, kf_step,
                         kf_step_batch)
from bilq.presets import double_integrator_config, scalar_config

from helpers import (FAILURE_KINDS, REFUSED_ENTRIES, assert_refused_quietly, corrupted_filter,
                     cov_update_information_form, dense_grid_oracle, kalman_gain,
                     reference_check_beliefs, reference_check_step, standard_kf_update_predict,
                     random_spd)


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

    @staticmethod
    def two_sensor_setup():
        sys_ = BilinearSystem(a=0.9 * np.eye(2), b=[[1.0], [0.0]], c0=np.eye(2),
                              ck=(np.zeros((2, 2)),))
        noise = NoiseSpec(sigma_w=0.01 * np.eye(2), sigma_z=0.1 * np.eye(2),
                          x0_mean=[0.0, 0.0], sigma_0=np.eye(2))
        return sys_, noise, BeliefState(mean=[0.3, -0.2], cov=np.eye(2))

    @pytest.mark.parametrize("y", [[0.5], [0.5, 0.5, 0.5]])
    def test_output_of_wrong_length_refused(self, y):
        # a single output was spread over both rows; three failed to broadcast
        sys_, noise, belief = self.two_sensor_setup()
        u = np.zeros((1, 1))
        with pytest.raises(ValueError, match=rf"^output length {len(y)} != m = 2$"):
            kf_step(belief, sys_, noise, [0.0], y)
        with pytest.raises(ValueError, match=rf"^output length {len(y)} != m = 2$"):
            kf_step_batch(belief.mean[None], belief.cov[None], sys_, noise, u, [y])

    @pytest.mark.parametrize("name", ["input", "output"])
    @pytest.mark.parametrize("entry, check", REFUSED_ENTRIES)
    def test_inputs_and_outputs_read_by_the_number_rule(self, name, entry, check):
        # the grid oracle's number rule (core._numbers); a non-finite entry is refused
        # in its own name before any arithmetic, which would warn, runs on it
        sys_, noise, _ = double_integrator_config("bilinear")
        belief = BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
        u, y = {"input": ([entry], [0.1]), "output": ([0.5], [entry])}[name]
        assert_refused_quietly(f"{name} {check}", kf_step, belief, sys_, noise, u, y)

    def test_outputs_for_another_number_of_beliefs_refused(self):
        sys_, noise, belief = self.two_sensor_setup()
        u = np.zeros((3, 1))
        with pytest.raises(ValueError, match=r"^outputs shape \(1, 2\) != \(R, m\) = \(3, 2\)$"):
            kf_step_batch(np.stack([belief.mean] * 3), np.stack([belief.cov] * 3), sys_, noise,
                          u, np.zeros((1, 2)))
        # and inputs: one row would otherwise broadcast to all three beliefs
        with pytest.raises(ValueError, match=r"^inputs shape \(1, 1\) != \(R, p\) = \(3, 1\)$"):
            kf_step_batch(np.stack([belief.mean] * 3), np.stack([belief.cov] * 3), sys_, noise,
                          u[:1], np.zeros((3, 2)))

    @pytest.mark.parametrize("kind", [k for k in FAILURE_KINDS if not k.startswith("innovation")])
    def test_next_belief_checked_once(self, monkeypatch, kind):
        # kf_step raises the text kf_step_batch raises on a bad next belief, from one check
        sys_, noise, belief = self.two_sensor_setup()
        u, y = np.array([[0.5]]), np.array([[0.1, 0.4]])
        messages = []
        for step in (lambda: kf_step_batch(belief.mean[None], belief.cov[None], sys_, noise,
                                           u, y),
                     lambda: kf_step(belief, sys_, noise, u[0], y[0])):
            with corrupted_filter(kind, 0, 0), pytest.raises(ValueError) as info:
                step()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        checks = []
        for module in (bilq.core, bilq.kalman):
            monkeypatch.setattr(module, "check_beliefs", lambda *args, check=module.check_beliefs:
                                checks.append(1) or check(*args))
        kf_step(belief, sys_, noise, u[0], y[0])
        assert len(checks) == 1

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

    @pytest.mark.parametrize("name", ["input", "output"])
    @pytest.mark.parametrize("entry, check", REFUSED_ENTRIES)
    def test_inputs_and_outputs_read_by_the_number_rule(self, name, entry, check):
        # kf_step's rule, on an entry of the second of three beliefs
        sys_, noise, _ = double_integrator_config("bilinear")
        rows = {"input": [[0.5], [0.5], [0.5]], "output": [[0.1], [0.1], [0.1]]}
        rows[name][1][0] = entry
        assert_refused_quietly(f"{name} {check}", kf_step_batch, np.zeros((3, 2)),
                               np.stack([noise.sigma_0] * 3), sys_, noise, rows["input"],
                               rows["output"])

    def test_per_belief_system_steps_each_belief_on_its_own(self):
        # a system whose c0/ck are stacked (R, m, n), as sim._simulate builds one,
        # observes belief i through C(u) of system i: kf_step on it, bit for bit
        rng = np.random.default_rng(17)
        n, m, p = 3, 2, 2
        shared = random_system(rng, n, m, p)
        systems = [replace(shared, c0=rng.standard_normal((m, n)),
                           ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))
                   for _ in range(3)]
        stacked = SimpleNamespace(a=shared.a, b=shared.b, m=m, p=p,
                                  c0=np.stack([s.c0 for s in systems]),
                                  ck=tuple(map(np.stack, zip(*(s.ck for s in systems)))))
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05), sigma_z=random_spd(rng, m, 0.1),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        means = rng.standard_normal((3, n))
        covs = np.stack([random_spd(rng, n) for _ in range(3)])
        beliefs = [BeliefState(mean=mu, cov=s) for mu, s in zip(means, covs)]
        for _ in range(4):
            inputs, outputs = rng.standard_normal((3, p)), rng.standard_normal((3, m))
            gains, innovations, means, covs = kf_step_batch(means, covs, stacked, noise,
                                                            inputs, outputs)
            for r, (system, belief) in enumerate(zip(systems, beliefs)):
                step = kf_step(belief, system, noise, inputs[r], outputs[r])
                assert gains[r].tobytes() == step.gain.tobytes()
                assert innovations[r].tobytes() == step.innovation.tobytes()
                assert means[r].tobytes() == step.next_belief.mean.tobytes()
                assert covs[r].tobytes() == step.next_belief.cov.tobytes()
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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), runs=st.integers(1, 4),
           value=st.sampled_from([np.inf, np.nan]), bad=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, m=1, runs=1, value=np.inf, bad=0, seed=0)
    def test_non_finite_covariance_fails_the_innovation_check(self, n, m, runs, value, bad,
                                                             seed):
        # an entry of +inf or NaN in a prior covariance makes its innovation
        # covariance non-finite, which the step refuses before it solves for a gain
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, n, m, 1)
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05), sigma_z=random_spd(rng, m, 0.1),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        covs = np.stack([random_spd(rng, n) for _ in range(runs)])
        bad %= runs
        covs[bad, -1, -1] = value
        inputs = rng.standard_normal((runs, 1))
        with pytest.raises(BatchCheckError, match=r"^innovation covariance has non-finite "
                                                  r"entries$") as info:
            kf_step_batch(rng.standard_normal((runs, n)), covs, sys_, noise, inputs,
                          np.zeros((runs, m)))
        assert info.value.index == bad


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

    def test_no_observations_refuse_a_negative_prior_variance(self):
        # a known state (sigma_0 = 0) is exact without observations; a negative
        # variance is no moment to hand back
        sys_, noise = scalar_setup()
        assert grid_bayes_oracle(sys_, replace(noise, sigma_0=[[0.0]]), [], []) == (0.1, 0.0)
        with pytest.raises(ValueError, match="^grid oracle requires nonnegative prior variance$"):
            grid_bayes_oracle(sys_, replace(noise, sigma_0=[[-1.0]]), [], [])

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

    @pytest.mark.parametrize("field, value, name", [("sigma_0", 0.0, "prior variance"),
                                                    ("sigma_0", -1.0, "prior variance"),
                                                    ("sigma_z", 0.0, "measurement noise")])
    def test_non_positive_variance_rejected(self, field, value, name):
        # as non-positive process noise is: the density would divide by zero
        # (or take the root of a negative variance) before any grid truncation
        sys_, noise, _ = scalar_config()
        noise = replace(noise, **{field: [[value]]})
        with pytest.raises(ValueError, match=f"^grid oracle requires positive {name}$"):
            grid_bayes_oracle(sys_, noise, [0.3], [0.1])

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
    # narrow posteriors on which one whole-grid FFT, not blocked, spread its
    # roundoff to relative variance errors of 1.4e-10 and 1.6e-10
    @example(a=0.0, b=-1.0, c0=0.25, c1=0.25, s0=1.5, log_ratio=-4.0, steps=4,
             grid_points=1601, pad=2.0, seed=0)
    @example(a=-0.2, b=-0.8, c0=0.25, c1=0.25, s0=1.5, log_ratio=-4.0, steps=5,
             grid_points=1601, pad=2.0, seed=4)
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

    def test_hermite_terms_grow_as_process_noise_shrinks(self):
        # on a grid step of 0.01 the kernel spans 2 band + 1 cells; the last
        # two bands are 3 and 2 cells, at the coarsest step the oracle accepts
        counts = []
        for sigma_w in (1.0, 0.2, 0.05, 0.01, 0.0025, 0.00125):
            step = 0.01 / sigma_w
            band, rows = _hermite_kernel(step)
            assert band == int(np.ceil(8.0 / step)) + 1 and rows.shape[1] == 2 * band + 1
            # the terms rebuild exp(-(t - h)^2 / 2) at the largest offset |h| = step / 2
            t = np.arange(-band, band + 1) * step
            for h in (-0.5 * step, 0.5 * step):
                weights = [h ** k / math.sqrt(math.factorial(k)) for k in range(len(rows))]
                kernel = np.exp(-0.5 * (t - h) ** 2)
                assert np.abs(np.array(weights) @ rows - kernel).max() <= 1e-13
            counts.append(len(rows))
        assert all(fewer < more for fewer, more in zip(counts, counts[1:])) and counts[-1] < 100

    def test_grid_step_above_eight_sigma_rejected(self):
        # 8 sigma_w = 0.08 against a grid step of 0.1
        sys_, noise = scalar_setup(sw=1e-4)
        with pytest.raises(ValueError, match="grid step at most 8 sigma_w"):
            grid_bayes_oracle(sys_, noise, [0.5], [0.2], grid=(-5.0, 5.0, 101))

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

    @pytest.mark.parametrize("grid, message", [
        ((-1.0, 1.0, 1), "grid points must be at least 3, got 1"),
        ((-1.0, 1.0, 2), "grid points must be at least 3, got 2"),
        *(((lo, hi, n), "grid oracle requires a finite grid lo < hi")
          for lo, hi, n in ((10.0, -10.0, 4001), (1.0, 1.0, 11), (np.nan, 1.0, 11),
                            (-1.0, np.inf, 11))),
        # the bounds follow core.real: a bool or a numeric string is no bound
        ((True, 5.0, 801), "grid lo entries must be numbers, got True"),
        ((-5.0, "5", 801), "grid hi entries must be numbers, got '5'")])
    def test_invalid_grid_rejected(self, grid, message):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_bayes_oracle(sys_, noise, [0.5], [0.2], grid=grid)

    @pytest.mark.parametrize("inputs, outputs", [([np.nan], [0.2]), ([0.5], [np.inf]),
                                                 ([0.5, -np.inf], [0.2, 0.1]),
                                                 ([-np.inf], [np.nan])])
    def test_non_finite_inputs_or_outputs_rejected(self, inputs, outputs):
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match="finite inputs and outputs"):
            grid_bayes_oracle(sys_, noise, inputs, outputs)

    def test_push_memory_is_one_term(self):
        # a one-step scenario of the benchmark's kind (sigma_w / sigma_0 = 0.02,
        # 4001 points): the push holds one Hermite term's lane and transform at a
        # time, not all K of them (2.4 MiB when they were stacked)
        sys_, noise = scalar_setup(a=1.05, c0=0.6, c1=0.5, sw=0.04, sz=0.1, x0=0.0, s0=2.0)
        tracemalloc.start()
        try:
            grid_bayes_oracle(sys_, noise, [0.5], [0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2 ** 20

    @pytest.mark.parametrize("inputs, outputs, message", [
        ([True], [0.1], "input entries must be numbers, got True"),
        ([0.3], [np.bool_(False)], "output entries must be numbers, got np.False_"),
        (["0.3"], [0.1], "input entries must be numbers, got '0.3'"),
        ([[0.3, 0.2]], [0.1], "input must be a number, got shape (2,)"),
        ([0.3, 0.2], [0.1], "inputs and outputs must have equal length")])
    def test_inputs_and_outputs_are_numbers(self, inputs, outputs, message):
        # core.real: the number rule of config matrices, on one number a step
        sys_, noise = scalar_setup()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid_bayes_oracle(sys_, noise, inputs, outputs)

    def test_scalar_or_length_one_array_per_step(self):
        sys_, noise = scalar_setup()
        expected = grid_bayes_oracle(sys_, noise, [0.5, -0.2], [0.2, 0.1])
        assert grid_bayes_oracle(sys_, noise, [np.array([0.5]), np.float64(-0.2)],
                                 [np.array([[0.2]]), 0.1]) == expected

    def test_output_off_the_grid_is_truncation(self):
        # the likelihood of y = 1e6 underflows to zero on the whole grid
        sys_, noise = scalar_setup(c0=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="^grid truncation$"):
            grid_bayes_oracle(sys_, noise, [0.5], [1e6])


def check_outcome(check, *args):
    """check(*args)'s verdict: "passed", or its exception's type, message and,
    for a BatchCheckError, index; with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check(*args)
            verdict = "passed"
        except BatchCheckError as exc:
            verdict = ("BatchCheckError", str(exc), exc.index)
        except ValueError as exc:  # LinAlgError too
            verdict = (type(exc).__name__, str(exc))
    return verdict, [w.category for w in caught]


def spectral_stack(rng, kinds, k, log_scales, margin):
    """One symmetric k x k matrix per kind, rotated diag(eigenvalues):
    eigenvalues in [1, 10] times 10**log_scale, but for "edge" one of them
    moved to the check's edge (`margin` of them), for "negative" one of them
    negated, for "singular" one zero, for "nan" and "inf" one entry pair so,
    and "zero" the zero matrix."""
    stack = []
    for kind, log_scale in zip(kinds, log_scales):
        q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        eigs = 10.0 ** log_scale * rng.uniform(1.0, 10.0, k)
        if kind in ("edge", "negative", "singular"):
            eigs[0] = {"edge": margin(eigs), "negative": -eigs[0], "singular": 0.0}[kind]
        s = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
        if kind in ("nan", "inf"):
            i, j = rng.integers(k, size=2)
            s[i, j] = s[j, i] = np.nan if kind == "nan" else np.inf
        stack.append(0.0 * s if kind == "zero" else s)
    return np.stack(stack)


ROW_KINDS = ("good", "good", "good", "edge", "edge", "negative", "singular", "nan", "inf",
             "zero")


class TestCertifiedChecks:
    """The checks certify definiteness by Cholesky and take eigenvalues only
    where that fails: they raise exactly what the eigvalsh-only checks raise,
    and give no RuntimeWarning of their own."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 5), kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1,
                                                 max_size=6),
           log_scale=st.floats(-250.0, 250.0), log_excess=st.floats(-2.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(m=1, kinds=["inf"], log_scale=0.0, log_excess=0.0, seed=0)
    @example(m=1, kinds=["good", "nan"], log_scale=0.0, log_excess=0.0, seed=0)
    @example(m=3, kinds=["singular", "inf", "nan"], log_scale=0.0, log_excess=0.0, seed=0)
    def test_innovation_check_matches_eigvalsh(self, m, kinds, log_scale, log_excess, seed):
        # "edge" rows have condition numbers from COND_LIMIT / 100 to 10 COND_LIMIT
        rng = np.random.default_rng(seed)
        scales = log_scale + rng.uniform(-2.0, 2.0, len(kinds))
        stack = spectral_stack(rng, kinds, m, scales,
                               lambda eigs: eigs.max() / (COND_LIMIT * 10.0 ** log_excess))
        verdict, caught = check_outcome(_check_step, stack)
        assert (verdict, caught) == check_outcome(reference_check_step, stack)
        assert caught == []
        # a non-finite row fails first, before the certificate or eigvalsh reads it
        bad = [kind in ("nan", "inf") for kind in kinds]
        if any(bad):
            assert verdict == ("BatchCheckError", "innovation covariance has non-finite entries",
                               bad.index(True))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), kinds=st.lists(st.sampled_from(ROW_KINDS + ("asymmetric",)),
                                                 min_size=1, max_size=6),
           log_scale=st.floats(-3.0, 8.0), tols=st.floats(-0.5, 0.5) | st.floats(-3.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_belief_check_matches_eigvalsh(self, n, kinds, log_scale, tols, seed):
        # "edge" rows have a min eigenvalue within 3 PSD_TOL of -PSD_TOL, before
        # roundoff; scales from 1e-4 to 1e10 span the certified one (1e3 to 1e4)
        rng = np.random.default_rng(seed)
        covs = spectral_stack(rng, kinds, n, log_scale + rng.uniform(-1.0, 1.0, len(kinds)),
                              lambda eigs: -PSD_TOL * (1.0 + tols))
        covs[[kind == "asymmetric" for kind in kinds], 0, -1] += 1e-3
        means = rng.standard_normal((len(kinds), n))
        verdict, caught = check_outcome(check_beliefs, means, covs)
        assert verdict == check_outcome(reference_check_beliefs, means, covs)[0]
        assert caught == []

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("cond", [0.05, 0.2, 0.9, 1.1, 1.5, 3.0])
    def test_condition_bound_reached_by_all_ones(self, m, cond):
        # ones + delta I has lambda_max = m max |S_ij|, the bound the certificate
        # assumes, and condition number cond * COND_LIMIT
        stack = np.ones((1, m, m)) + m / (cond * COND_LIMIT) * np.eye(m)
        assert check_outcome(_check_step, stack) == check_outcome(reference_check_step, stack)

    @pytest.mark.parametrize("kind", ["edge", "negative", "singular", "nan", "inf", "zero"])
    def test_one_bad_row_among_good_ones(self, kind):
        rng = np.random.default_rng(7)
        kinds = ["good"] * 40
        kinds[17] = kind
        stack = spectral_stack(rng, kinds, 3, np.zeros(40), lambda eigs: eigs.max() / 1e15)
        verdict, caught = check_outcome(_check_step, stack)
        assert verdict == check_outcome(reference_check_step, stack)[0]
        assert verdict[0] == "BatchCheckError" and verdict[2] == 17
        assert caught == []

    def test_eigenvalues_only_where_cholesky_cannot_certify(self, monkeypatch):
        # innovation covariances over 200 decades, all certified, and one belief
        # covariance above the certified scale, which alone takes eigvalsh
        rows = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
        rng = np.random.default_rng(3)
        covs = spectral_stack(rng, ["good"] * 30, 4, np.r_[np.zeros(29), 6.0], None)
        innov = spectral_stack(rng, ["good"] * 30, 2, np.linspace(-100.0, 100.0, 30), None)
        _check_step(innov, np.zeros((30, 4)), covs)
        assert rows == [1]
