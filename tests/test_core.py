import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from bilq.core import (BeliefState, BilinearSystem, CostSpec, NoiseSpec,
                       RngStream, chol_solve, config_from_dict,
                       config_to_dict, load_config, observation_matrix,
                       sample_gaussian, validate_system)
from bilq.presets import double_integrator_config, orthogonal_config, scalar_config

from helpers import random_spd


def identity_setup(n=2, m=2, p=1):
    sys_ = BilinearSystem(a=np.eye(n), b=np.ones((n, p)), c0=np.eye(m, n),
                          ck=tuple(np.zeros((m, n)) for _ in range(p)))
    noise = NoiseSpec(sigma_w=np.eye(n), sigma_z=np.eye(m),
                      x0_mean=np.zeros(n), sigma_0=np.eye(n))
    cost = CostSpec(q=np.eye(n), q_t=np.eye(n), r=np.eye(p))
    return sys_, noise, cost


class TestValidation:
    def test_identity_config_ok(self):
        assert validate_system(*identity_setup()).ok

    def test_sigma_z_zero_flagged(self):
        sys_, _, cost = identity_setup(n=1, m=1)
        noise = NoiseSpec(sigma_w=[[1.0]], sigma_z=[[0.0]], x0_mean=[0.0],
                          sigma_0=[[1.0]])
        report = validate_system(sys_, noise, cost)
        assert "sigma_z not positive definite" in report.violations

    def test_ck_count_mismatch_flagged(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 2)), c0=np.eye(2), ck=())
        _, noise, _ = identity_setup(n=2, m=2, p=2)
        cost = CostSpec(q=np.eye(2), q_t=np.eye(2), r=np.eye(2))
        report = validate_system(sys_, noise, cost)
        assert "ck count mismatch" in report.violations

    def test_asymmetric_cost_flagged(self):
        sys_, noise, _ = identity_setup()
        cost = CostSpec(q=[[1.0, 0.5], [0.0, 1.0]], q_t=np.eye(2), r=[[1.0]])
        report = validate_system(sys_, noise, cost)
        assert any("q not symmetric" in v for v in report.violations)

    def test_accepts_all_experiment_presets(self):
        assert validate_system(*scalar_config()).ok
        assert validate_system(*double_integrator_config("linear")).ok
        assert validate_system(*double_integrator_config("bilinear")).ok
        assert validate_system(*orthogonal_config(RngStream(3), "a")).ok


class TestConstruction:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            BilinearSystem(a=[[np.nan]], b=[[1.0]], c0=[[1.0]], ck=([[1.0]],))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BilinearSystem(a=np.eye(2), b=np.ones((3, 1)), c0=np.eye(2),
                           ck=(np.zeros((2, 2)),))

    def test_belief_requires_symmetric_psd(self):
        with pytest.raises(ValueError, match="not symmetric"):
            BeliefState(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not PSD"):
            BeliefState(mean=[0.0], cov=[[-1.0]])

    def test_types_are_frozen(self):
        sys_, _, _ = identity_setup()
        with pytest.raises(AttributeError):
            sys_.a = np.zeros((2, 2))
        with pytest.raises(ValueError):
            sys_.a[0, 0] = 5.0


class TestObservationMatrix:
    def test_zero_input_returns_c0(self):
        sys_, _, _ = identity_setup()
        assert np.array_equal(observation_matrix(sys_, [0.0]), sys_.c0)

    def test_scaling(self):
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 1)),
                              c0=np.zeros((2, 2)), ck=(np.eye(2),))
        assert np.array_equal(observation_matrix(sys_, [2.0]), 2.0 * np.eye(2))

    def test_scalar_affine_map(self):
        sys_ = BilinearSystem(a=[[1.0]], b=[[1.0]], c0=[[0.5]], ck=([[2.0]],))
        assert observation_matrix(sys_, [0.25])[0, 0] == pytest.approx(1.0, abs=0)

    def test_wrong_input_length(self):
        sys_, _, _ = identity_setup()
        with pytest.raises(ValueError, match="input length"):
            observation_matrix(sys_, [1.0, 2.0])

    def test_affine_in_input(self):
        rng = np.random.default_rng(11)
        sys_ = BilinearSystem(a=np.eye(2), b=np.ones((2, 3)),
                              c0=rng.standard_normal((2, 2)),
                              ck=tuple(rng.standard_normal((2, 2)) for _ in range(3)))
        for _ in range(20):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            lhs = observation_matrix(sys_, u + v) - observation_matrix(sys_, u)
            rhs = observation_matrix(sys_, v) - observation_matrix(sys_, [0.0] * 3)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRngStream:
    def test_repeatable(self):
        a = RngStream(42, 7).standard_normal(100)
        b = RngStream(42, 7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).standard_normal(100)
        b = RngStream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_does_not_disturb_owner(self):
        s1 = RngStream(5, 3)
        first = s1.standard_normal(4)
        _ = s1.substream(0).standard_normal(10)
        s2 = RngStream(5, 3)
        _ = s2.standard_normal(4)
        assert np.array_equal(s1.standard_normal(4), s2.standard_normal(4))
        assert not np.array_equal(first, RngStream(5, 3).substream(0).standard_normal(4))

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2 ** 64)


class TestSampleGaussian:
    def test_zero_cov_returns_mean_exactly(self):
        mean = np.array([1.25, -0.5])
        out = sample_gaussian(RngStream(0), mean, np.zeros((2, 2)))
        assert np.array_equal(out, mean)

    def test_moments_at_fixed_seed(self):
        draws = RngStream(2024).standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_determinism(self):
        a = sample_gaussian(RngStream(9, 1), [0.0, 0.0], np.eye(2))
        b = sample_gaussian(RngStream(9, 1), [0.0, 0.0], np.eye(2))
        assert np.array_equal(a, b)

    def test_psd_singular_ok_not_psd_rejected(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        out = sample_gaussian(RngStream(1), [0.0, 0.0], cov)
        assert np.isfinite(out).all()
        with pytest.raises(ValueError, match="not PSD"):
            sample_gaussian(RngStream(1), [0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_psd_tolerance_is_the_package_one(self):
        # the rule BeliefState and validate_system use: min eigenvalue >= -1e-10
        with pytest.raises(ValueError, match=r"not PSD: min eigenvalue -1\.000e-09"):
            sample_gaussian(RngStream(1), [0.0, 0.0], np.diag([1.0, -1e-9]))
        out = sample_gaussian(RngStream(1), [0.0, 0.0], np.diag([1.0, -1e-11]))
        assert np.isfinite(out).all()

    def test_covariance_of_batch(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        stream = RngStream(17)
        draws = np.array([sample_gaussian(stream, [0.0, 0.0], cov)
                          for _ in range(20000)])
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.1)


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        sys_, noise, cost = double_integrator_config("bilinear")
        data = config_to_dict(sys_, noise, cost, horizon=100, runs=50, seed=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        sys2, noise2, cost2, horizon, runs, seed = load_config(path)
        assert np.array_equal(sys2.a, sys_.a)
        assert np.array_equal(sys2.ck[0], sys_.ck[0])
        assert np.array_equal(noise2.sigma_w, noise.sigma_w)
        assert np.array_equal(cost2.r, cost.r)
        assert (horizon, runs, seed) == (100, 50, 3)

    def test_parse_error_has_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": \n  broken}')
        with pytest.raises(ValueError, match="line 2"):
            load_config(path)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="noise"):
            config_from_dict({"system": {"a": [[1.0]], "b": [[1.0]],
                                         "c0": [[1.0]], "ck": []}})

    @pytest.mark.parametrize("section, name", [("system", "c0"), ("noise", "sigma_z"),
                                               ("cost", "q_t")])
    def test_missing_matrix_field_named(self, section, name):
        data = config_to_dict(*scalar_config(), horizon=2, runs=1, seed=0)
        del data[section][name]
        with pytest.raises(ValueError, match=f"^config missing field '{name}'$"):
            config_from_dict(data)


# backward-error constant of a Cholesky solve: ||a x - b|| <= C n eps ||a|| ||x||
# (Frobenius norms); the largest ratio seen on these inputs, for bilq and for
# scipy alike, is about 2
BACKWARD_C = 8.0
EPS = np.finfo(float).eps


class TestCholSolve:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 6), runs=st.integers(1, 4),
           scale=st.sampled_from([1e-6, 1.0, 1e6]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_within_backward_error(self, n, k, runs, scale, seed):
        rng = np.random.default_rng(seed)
        mats = np.stack([random_spd(rng, n, scale) for _ in range(runs)])
        rhs = rng.standard_normal((runs, n, k))
        for a, b2 in zip(mats, rhs):
            bound = BACKWARD_C * n * EPS * np.linalg.norm(a)
            for b in (b2, b2[:, 0], np.asfortranarray(b2)):
                got = chol_solve(a, b)
                want = cho_solve(cho_factor(a, lower=True), b)
                assert got.shape == want.shape and got.flags["C_CONTIGUOUS"]
                # bilq's solution and scipy's are each within the backward-error
                # bound, and so agree to the forward error that it implies
                norms = [np.linalg.norm(x) for x in (got, want)]
                for x, norm in zip((got, want), norms):
                    assert np.linalg.norm(a @ x - b) <= bound * norm
                assert (np.linalg.norm(got - want)
                        <= np.linalg.norm(np.linalg.inv(a)) * bound * sum(norms))
        # a stack against a stack, and one matrix or one right-hand side shared
        for a, b in ((mats, rhs), (mats[0], rhs), (mats, rhs[0])):
            stacked = chol_solve(a, b)
            assert stacked.shape == (runs, n, k) and stacked.flags["C_CONTIGUOUS"]
            items = zip(a if a.ndim == 3 else [a] * runs, b if b.ndim == 3 else [b] * runs)
            for i, (item, item_rhs) in enumerate(items):
                assert stacked[i].tobytes() == chol_solve(item, item_rhs).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        a, b = np.eye(3), np.ones((3, 2))
        for where in ("a", "b"):
            a_bad, b_bad = a.copy(), b.copy()
            (a_bad if where == "a" else b_bad)[1, 1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(a_bad, b_bad)
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(np.stack([a, a_bad]), np.stack([b, b_bad]))

    def test_three_linalg_calls_whatever_the_stack(self, monkeypatch):
        calls = []
        for name in ("cholesky", "solve"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        rng = np.random.default_rng(3)
        for runs in (1, 50):
            mats = np.stack([random_spd(rng, 3) for _ in range(runs)])
            calls.clear()
            chol_solve(mats, rng.standard_normal((runs, 3, 2)))
            assert calls == ["cholesky", "solve", "solve"]

    def test_not_pd_names_its_index(self):
        mats = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(np.linalg.LinAlgError,
                           match="2-th leading minor of matrix 2 is not positive definite"):
            chol_solve(mats, np.ones((3, 2, 1)))
        with pytest.raises(np.linalg.LinAlgError, match="1-th leading minor of the matrix"):
            chol_solve(np.diag([0.0, 1.0]), np.ones(2))
        # the first leading minor that is not PD, as LAPACK's potrf reports it
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor of matrix 1 "):
            chol_solve(np.stack([np.eye(3), bad]), np.ones((3, 1)))
