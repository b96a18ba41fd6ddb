import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from bilq.core import (BatchCheckError, BeliefState, BilinearSystem, CostSpec, NoiseSpec,
                       RngStream, check_beliefs, chol_solve, config_from_dict,
                       config_to_dict, gaussian_draws, load_config, normal_tape,
                       observation_matrix, sample_gaussian, validate_system)
from bilq.control import BellmanObjectiveParams, riccati_recursion
from bilq.kalman import grid_bayes_oracle
from bilq.observability import covariance_boundedness_probe
from bilq.presets import double_integrator_config, orthogonal_config, scalar_config
from bilq.sim import PolicyConfig, SimConfig, landscape_sweep, monte_carlo

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

    def test_psd_sigma_0_accepted(self):
        # a known initial state: sigma_0 = 0 is PSD, as sigma_w may be
        sys_, noise, cost = identity_setup()
        assert validate_system(sys_, replace(noise, sigma_0=np.zeros((2, 2))), cost).ok
        report = validate_system(sys_, replace(noise, sigma_0=-np.eye(2)), cost)
        assert report.violations == ["sigma_0 not positive semidefinite"]

    def test_violations_in_field_order(self):
        sys_, _, _ = identity_setup(n=2, m=1, p=1)
        noise = NoiseSpec(sigma_w=[[1.0, 2.0], [0.0, 1.0]], sigma_z=[[-1.0]],
                          x0_mean=[0.0], sigma_0=np.eye(3))
        cost = CostSpec(q=np.eye(2), q_t=-np.eye(2), r=np.eye(2))
        assert validate_system(sys_, noise, cost).violations == [
            "sigma_w not symmetric", "sigma_z not positive definite",
            "x0_mean length 1 != 2", "sigma_0 shape (3, 3) != (2, 2)",
            "q_t not positive definite", "r shape (2, 2) != (1, 1)"]

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

    @pytest.mark.parametrize("preset, message", [
        (lambda: double_integrator_config("quadratic"), "unknown obs_model 'quadratic'"),
        (lambda: orthogonal_config(RngStream(3), "c"), "variant must be one of ['a', 'b']")])
    def test_presets_refuse_an_unknown_choice(self, preset, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            preset()


class TestConstruction:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            BilinearSystem(a=[[np.nan]], b=[[1.0]], c0=[[1.0]], ck=([[1.0]],))

    def test_ck_count_mismatch_rejected(self):
        # one ck per column of b, checked once, at construction
        with pytest.raises(ValueError, match=r"^ck count 0 != 2 columns of b$"):
            BilinearSystem(a=np.eye(2), b=np.ones((2, 2)), c0=np.eye(2), ck=())

    @pytest.mark.parametrize("fields, message", [
        ({"b": np.ones((3, 1))}, "b must have 2 rows, got (3, 1)"),
        ({"a": np.ones((2, 3))}, "a must be square, got (2, 3)"),
        ({"c0": np.eye(2, 3)}, "c0 must have 2 columns, got (2, 3)"),
        ({"ck": (np.zeros((1, 2)),)}, "ck[0] shape (1, 2) != c0 shape (2, 2)")])
    def test_shape_mismatch_rejected(self, fields, message):
        matrices = {"a": np.eye(2), "b": np.ones((2, 1)), "c0": np.eye(2),
                    "ck": (np.zeros((2, 2)),)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BilinearSystem(**{**matrices, **fields})

    @pytest.mark.parametrize("n, m, p", [(0, 2, 1), (2, 0, 1), (2, 2, 0)],
                             ids=["no-states", "no-outputs", "no-inputs"])
    def test_empty_dimension_refused(self, n, m, p):
        # refused at construction, before validate_system, the filter or the
        # minimizer reduce over an empty axis
        with pytest.raises(ValueError, match=rf"^n, m, p must be at least 1, got {n}, {m}, {p}$"):
            identity_setup(n, m, p)

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


class TestNormalTape:
    """normal_tape is what its docstring says: the successive
    standard_normal(k) draws of each stream, concatenated, and each stream
    left where those draws would leave it."""

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(0, 9), max_size=12),
           stream_ids=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 64 - 1), after=st.integers(1, 7))
    @example(sizes=[], stream_ids=[0], seed=0, after=1)
    @example(sizes=[0, 1, 0, 3, 2, 0], stream_ids=[5, 6, 7], seed=3, after=5)
    def test_matches_successive_draws(self, sizes, stream_ids, seed, after):
        streams = [RngStream(seed, i) for i in stream_ids]
        tape = normal_tape(streams, sizes)
        assert tape.shape == (len(streams), sum(sizes))
        for row, stream, i in zip(tape, streams, stream_ids):
            twin = RngStream(seed, i)
            draws = np.concatenate([np.empty(0)] + [twin.standard_normal(k) for k in sizes])
            assert row.tobytes() == draws.tobytes()
            assert stream.standard_normal(after).tobytes() == twin.standard_normal(after).tobytes()


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
        with pytest.raises(ValueError, match=r"^cov not PSD \(min eigenvalue -1\.000e-09\)$"):
            sample_gaussian(RngStream(1), [0.0, 0.0], np.diag([1.0, -1e-9]))
        out = sample_gaussian(RngStream(1), [0.0, 0.0], np.diag([1.0, -1e-11]))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mean", "cov"])
    def test_non_finite_argument_refused(self, name, value):
        # numpy's Cholesky takes NaN without raising: the draws would be NaN
        args = {"mean": np.zeros(2), "cov": np.eye(2)}
        args[name] = args[name].copy()
        args[name].flat[0] = value
        for draw in (lambda: gaussian_draws(args["mean"], args["cov"], np.ones(2)),
                     lambda: sample_gaussian(RngStream(1), args["mean"], args["cov"])):
            with pytest.raises(ValueError, match=rf"^{name} has non-finite entries$"):
                draw()

    def test_covariance_of_batch(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        stream = RngStream(17)
        draws = np.array([sample_gaussian(stream, [0.0, 0.0], cov)
                          for _ in range(20000)])
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.1)


# beliefs (mean, cov) that the belief rule refuses, and the check each fails:
# non-finite entries, a cov not shaped for its mean, an asymmetry of 1e-6 and
# a min eigenvalue of -1e-9 (PSD_TOL is 1e-10)
BAD_BELIEFS = {
    **{f"{value} in mean": ([value, 0.0], np.eye(2), "mean has non-finite entries")
       for value in (np.nan, np.inf, -np.inf)},
    **{f"{value} in cov": ([0.0, 0.0], [[1.0, value], [value, 1.0]], "cov has non-finite entries")
       for value in (np.nan, np.inf, -np.inf)},
    "(1, 2) cov for n = 1": ([0.0], [[1.0, 0.0]], "cov shape"),
    "asymmetric cov": ([0.0, 0.0], [[1.0, 1e-6], [0.0, 1.0]], "cov not symmetric"),
    "min eigenvalue -1e-9": ([0.0, 0.0], np.diag([1.0, -1e-9]), "cov not PSD"),
}


def _stage(n):
    """BellmanObjectiveParams on the scalar preset (n = 1) or the double
    integrator (n = 2) for the given beliefs."""
    sys_, noise, cost = scalar_config() if n == 1 else double_integrator_config("bilinear")
    tables = riccati_recursion(cost, sys_, 3)
    return lambda means, covs: BellmanObjectiveParams(tables=tables, t=0, prior_cov=covs,
                                                      x_hat=means, sys=sys_, noise=noise)


def _verdict(call):
    """The check a refused call failed: BatchCheckError.check, else the message."""
    with pytest.raises(ValueError) as info:
        call()
    return getattr(info.value, "check", str(info.value)), getattr(info.value, "index", None)


class TestBeliefRule:
    """One verdict per belief at every entry that takes one: check_beliefs's."""

    @pytest.mark.parametrize("case", BAD_BELIEFS)
    def test_every_entry_refuses_with_the_same_check(self, case):
        mean, cov, check = BAD_BELIEFS[case]
        mean, cov = np.array(mean), np.array(cov)
        want, index = _verdict(lambda: check_beliefs(mean, cov))
        assert want.startswith(check) and index in (None, 0)
        entries = {
            "BeliefState": lambda: BeliefState(mean=mean, cov=cov),
            "gaussian_draws": lambda: gaussian_draws(mean, cov, np.zeros((4, mean.size))),
            "sample_gaussian": lambda: sample_gaussian(RngStream(1), mean, cov),
            "BellmanObjectiveParams": lambda: _stage(mean.size)(mean, cov),
        }
        for name, call in entries.items():
            assert _verdict(call)[0] == want, name

    @pytest.mark.parametrize("case", BAD_BELIEFS)
    def test_a_stack_names_its_bad_belief(self, case):
        # three beliefs, the middle one bad; a cov not shaped for its mean
        # leaves the whole stack misshapen
        mean, cov, check = BAD_BELIEFS[case]
        mean, cov = np.array(mean), np.array(cov)
        n = mean.size
        means, covs = np.zeros((3, n)), np.stack([np.eye(n, cov.shape[-1])] * 3)
        means[1], covs[1] = mean, cov
        want = _verdict(lambda: check_beliefs(means, covs))
        assert want[0].startswith(check)
        assert want[1] == (None if check == "cov shape" else 1)
        assert _verdict(lambda: _stage(n)(means, covs)) == want

    def test_eigenvalue_within_the_tolerance_accepted_by_all(self):
        mean, cov = np.zeros(2), np.diag([1.0, -1e-11])
        check_beliefs(mean, cov)
        BeliefState(mean=mean, cov=cov)
        assert np.isfinite(gaussian_draws(mean, cov, np.ones((4, 2)))).all()
        assert np.isfinite(sample_gaussian(RngStream(1), mean, cov)).all()
        _stage(2)(mean, cov)
        _stage(2)(np.zeros((3, 2)), np.stack([np.eye(2), cov, np.eye(2)]))

    def test_monte_carlo_refuses_an_asymmetric_process_noise(self):
        # Cholesky reads the lower triangle: the plant would draw w with
        # [[.01, -.008], [-.008, .01]] while its filter models sigma_w
        sys_, noise, cost = double_integrator_config("bilinear")
        noise = replace(noise, sigma_w=[[0.01, 0.008], [-0.008, 0.01]])
        assert validate_system(sys_, noise, cost).violations == ["sigma_w not symmetric"]
        config = SimConfig(sys_, noise, cost, PolicyConfig("separation_lqg"), 5)
        with pytest.raises(BatchCheckError, match="^cov not symmetric$"):
            monte_carlo(config, 2, 1)

    def test_stage_objective_names_a_short_estimate(self):
        sys_, noise, cost = orthogonal_config(RngStream(1), "a")
        with pytest.raises(ValueError, match=r"^x_hat length 5 != n = 6$"):
            BellmanObjectiveParams(tables=riccati_recursion(cost, sys_, 3), t=0,
                                   prior_cov=noise.sigma_0, x_hat=np.zeros(5), sys=sys_,
                                   noise=noise)


def _config_count(name):
    def load(value):
        data = config_to_dict(*scalar_config(), horizon=2, runs=1, seed=0)
        counts = config_from_dict({**data, name: value})[3:]
        return dict(zip(("horizon", "runs", "seed"), counts))[name]
    return load


def _scalar_sim(horizon):
    return SimConfig(*scalar_config(), PolicyConfig("separation_lqg"), horizon)


# every entry point of core.count: (name in its message, the call, its least
# count, a count it accepts); each call returns what it made of the count
COUNT_ENTRY_POINTS = {
    "config horizon": ("horizon", _config_count("horizon"), 1, 3),
    "config runs": ("runs", _config_count("runs"), 1, 3),
    "config seed": ("seed", _config_count("seed"), 0, 3),
    "RngStream seed": ("seed", lambda v: RngStream(v).seed, 0, 3),
    "RngStream stream_id": ("stream_id", lambda v: RngStream(0, v).stream_id, 0, 3),
    "RngStream.standard_normal": ("n", lambda v: len(RngStream(0).standard_normal(v)), 0, 3),
    "riccati_recursion": ("horizon", lambda v: riccati_recursion(
        scalar_config()[2], scalar_config()[0], v).horizon, 1, 3),
    "SimConfig": ("horizon", lambda v: _scalar_sim(v).horizon, 1, 3),
    "monte_carlo runs": ("runs", lambda v: len(monte_carlo(_scalar_sim(2), v, 0).records), 1, 3),
    "probe horizon": ("horizon", lambda v: len(covariance_boundedness_probe(
        *scalar_config()[:2], lambda t, mean: [0.0], v).inputs), 1, 3),
    "grid_bayes_oracle": ("grid points", lambda v: grid_bayes_oracle(
        *scalar_config()[:2], [0.3], [0.1], grid=(-12.0, 12.0, v)), 3, 401),
    "landscape_sweep": ("grid points", lambda v: len(landscape_sweep(
        *scalar_config(), grid=(-3.0, 3.0, v)).u), 2, 3),
}


class TestCount:
    """One integer rule for every count: no truncation, no bool, no string."""

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [2.9, 2.0, True, "3", None])
    def test_non_integers_refused(self, entry, value):
        name, call, _, _ = COUNT_ENTRY_POINTS[entry]
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_numpy_integer_accepted(self, entry):
        _, call, _, accepted = COUNT_ENTRY_POINTS[entry]
        assert call(np.int64(accepted)) == call(accepted)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_below_least_refused(self, entry):
        name, call, low, _ = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"{name} must be at least {low}"):
            call(low - 1)


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

    @pytest.mark.parametrize("name, value", [("horizon", 2.9), ("horizon", 2.0),
                                             ("runs", True), ("runs", None), ("seed", "7"),
                                             ("seed", 1e20)])
    def test_counts_must_be_json_integers(self, name, value):
        # no truncation: 2.9 is no horizon of 2, true no run count of 1
        data = config_to_dict(*scalar_config(), horizon=2, runs=1, seed=0)
        data[name] = value
        message = f"config field invalid: {name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    @pytest.mark.parametrize("preset, section, name, value, message", [
        (scalar_config, "system", "a", [["0.9"]], "a entries must be numbers, got '0.9'"),
        (scalar_config, "cost", "r", [[True]], "r entries must be numbers, got True"),
        # numpy reads this one as the float matrix [[1, 1], [0, 1]]
        (lambda: double_integrator_config("linear"), "cost", "q", [[1.0, True], [False, 1.0]],
         "q entries must be numbers, got True"),
        (scalar_config, "noise", "x0_mean", [[0.1]],
         "x0_mean must be a 1-d vector, got shape (1, 1)"),
    ], ids=["string", "bool", "bool in a float matrix", "vector not 1-d"])
    def test_entries_must_be_numbers(self, preset, section, name, value, message):
        data = config_to_dict(*preset(), horizon=2, runs=1, seed=0)
        data[section][name] = value
        with pytest.raises(ValueError, match=f"^{re.escape('config field invalid: ' + message)}$"):
            config_from_dict(data)

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

    def test_two_linalg_calls_whatever_the_stack(self, monkeypatch):
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
            assert calls == ["cholesky", "solve"]

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
