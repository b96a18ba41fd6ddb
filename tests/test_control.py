from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilq import control
from bilq.core import BeliefState, BilinearSystem, CostSpec, NoiseSpec
from bilq.control import (COMPLEX_PAIR, LOCAL_MAX, LOCAL_MIN, ScalarGapParams,
                          affine_falsification_test, bellman_minimize_Tm2,
                          bellman_objective_Tm2, bellman_params_at_stage,
                          gradient_polynomial_coefficients, lqg_policy,
                          riccati_recursion, scalar_cost_to_go,
                          scalar_critical_points, scalar_gap_params,
                          scalar_optimal_controller_T2, unit_design)
from bilq.kalman import kf_step
from bilq.presets import double_integrator_config, scalar_config

from helpers import information_form_taylor, random_spd, reference_minimize_Tm2

U_LQG = -0.05257796257796257
U_MINUS = -0.24825626381484173
U_PLUS = 0.14310033865891658
F_AT_MINIMA = 0.19623742367854877


def random_stage(seed, n, m, p, t=0, runs=None, noise_scale=0.1):
    """Stage objective data of a random bilinear system (the distribution of
    TestObjectiveMatchesFilter) at one random belief, or at a stack of runs;
    noise_scale scales the observation noise."""
    rng = np.random.default_rng(seed)
    sys_ = BilinearSystem(a=rng.standard_normal((n, n)) * 0.5,
                          b=rng.standard_normal((n, p)),
                          c0=rng.standard_normal((m, n)),
                          ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))
    noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05),
                      sigma_z=random_spd(rng, m, noise_scale),
                      x0_mean=np.zeros(n), sigma_0=np.eye(n))
    cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n),
                    r=random_spd(rng, p))
    tables = riccati_recursion(cost, sys_, 3)
    means = rng.standard_normal((runs or 1, n))
    covs = np.stack([random_spd(rng, n) for _ in range(runs or 1)])
    belief = (means, covs) if runs else (means[0], covs[0])
    return bellman_params_at_stage(sys_, noise, cost, tables, t, belief)


def scalar_io_stage(seed, n, runs, t, rank, ck_scale, noise_scale=0.1, spread=1.0):
    """random_stage at one output and one input (m = p = 1), a stack of runs
    beliefs whose priors have the given rank and scale spread, and ck
    scaled by ck_scale."""
    bp = random_stage(seed, n, 1, 1, t, runs, noise_scale)
    factor = spread * np.random.default_rng([seed, 1]).standard_normal((runs, n, rank))
    return replace(bp, sys=replace(bp.sys, ck=(ck_scale * bp.sys.ck[0],)),
                   prior_cov=factor @ factor.swapaxes(-1, -2))


def grid_minimum(bp):
    """The least stage objective of one belief (p = 1) on 20,001 points of
    a box 10 times as wide as the minimizer's design box."""
    half = 10.0 * max(3.0 * abs(bp.u_lqg[0]), 1.0)
    return bellman_objective_Tm2(bp, bp.u_lqg + np.linspace(-half, half, 20_001)[:, None]).min()


def bilinear_integrator_stage(cov, mean=(0.0, 0.0), ck=1.0, horizon=16, t=0):
    """The bilinear double integrator (c0 = 0) with input weight 1 instead
    of 1000, which gives its stage objective a +-u pair of minimizers at
    x_hat = 0 and a correlated prior."""
    sys_, noise, cost = double_integrator_config("bilinear", c1=ck)
    cost = replace(cost, r=[[1.0]])
    tables = riccati_recursion(cost, sys_, horizon)
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    return bellman_params_at_stage(sys_, noise, cost, tables, t, (mean, cov))


def central_differences(f, u, h):
    """Gradient and Hessian of f at u by central differences of step h."""
    eye = h * np.eye(len(u))
    grad = np.array([(f(u + e) - f(u - e)) / (2.0 * h) for e in eye])
    hess = np.array([[(f(u + e + d) - f(u + e - d) - f(u - e + d) + f(u - e - d))
                      / (4.0 * h * h) for d in eye] for e in eye])
    return grad, hess


def richardson_differences(f, u, h):
    """central_differences at steps h and h/2, combined to cancel their
    O(h^2) error terms."""
    coarse, fine = central_differences(f, u, h), central_differences(f, u, 0.5 * h)
    return tuple((4.0 * b - a) / 3.0 for a, b in zip(coarse, fine))


@pytest.fixture
def fig_params():
    sys_, noise, cost = scalar_config()
    return scalar_gap_params(sys_, noise, cost, prior_var=2.0)


class TestRiccati:
    def test_scalar_two_stage_values(self):
        sys_, noise, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        assert tables.k_seq[2][0, 0] == 1.0
        assert tables.k_seq[1][0, 0] == pytest.approx(1.405, abs=1e-12)
        assert tables.p_seq[1][0, 0] == pytest.approx(0.405, abs=1e-12)

    def test_zero_input_matrix(self):
        sys_ = BilinearSystem(a=[[0.9]], b=[[0.0]], c0=[[1.0]], ck=([[0.0]],))
        cost = CostSpec(q=[[1.0]], q_t=[[2.0]], r=[[1.0]])
        tables = riccati_recursion(cost, sys_, 3)
        for t in range(3):
            assert tables.p_seq[t][0, 0] == 0.0
            assert tables.gain_seq[t][0, 0] == 0.0
            assert tables.k_seq[t][0, 0] == pytest.approx(
                0.81 * tables.k_seq[t + 1][0, 0] + 1.0, abs=1e-12)

    def test_memoryless_state(self):
        sys_ = BilinearSystem(a=[[0.0]], b=[[1.0]], c0=[[1.0]], ck=([[0.0]],))
        cost = CostSpec(q=[[3.0]], q_t=[[7.0]], r=[[1.0]])
        tables = riccati_recursion(cost, sys_, 4)
        for t in range(4):
            assert tables.k_seq[t][0, 0] == 3.0
            assert tables.gain_seq[t][0, 0] == 0.0

    def test_value_matrices_dominate_stage_cost(self):
        sys_, _, cost = double_integrator_config("bilinear")
        tables = riccati_recursion(cost, sys_, 100)
        for t in range(100):
            k = tables.k_seq[t]
            assert np.abs(k - k.T).max() <= 1e-10
            assert np.linalg.eigvalsh(k - cost.q).min() >= -1e-9

    def test_bad_horizon(self):
        sys_, _, cost = scalar_config()
        with pytest.raises(ValueError):
            riccati_recursion(cost, sys_, 0)


class TestLqgPolicy:
    def test_zero_estimate(self):
        sys_, _, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        assert lqg_policy(tables, 0, [0.0])[0] == 0.0

    def test_first_stage_value(self):
        sys_, _, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        assert lqg_policy(tables, 0, [0.1])[0] == pytest.approx(U_LQG, abs=1e-12)

    def test_final_stage_matches_terminal_gain(self):
        sys_, _, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        # -(a * q_t * b) / (b^2 q_t + r) with the terminal cost only
        assert tables.gain_seq[1][0, 0] == pytest.approx(-0.45, abs=1e-12)
        assert lqg_policy(tables, 1, [0.2])[0] == pytest.approx(-0.09, abs=1e-12)

    def test_stage_out_of_range(self):
        sys_, _, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        with pytest.raises(ValueError, match="out of range"):
            lqg_policy(tables, 2, [0.1])


class TestScalarGapParams:
    def test_reference_values(self, fig_params):
        assert fig_params.alpha == pytest.approx(2.405, abs=1e-12)
        assert fig_params.beta == pytest.approx(1.2645, abs=1e-12)
        assert fig_params.gamma == pytest.approx(0.0295245, abs=1e-12)
        assert fig_params.kappa == pytest.approx(0.045, abs=1e-12)
        assert fig_params.u1_gain == pytest.approx(-0.45, abs=1e-12)

    def test_printed_constant_is_beta_times_estimate(self, fig_params):
        # the commonly quoted 0.126 is the product beta * x_hat0, not beta
        assert fig_params.beta * fig_params.x_hat0 == pytest.approx(0.126, abs=5e-4)
        assert fig_params.beta == pytest.approx(1.2645, abs=1e-12)

    def test_noise_free_limit(self):
        sys_, _, cost = scalar_config()
        for sz in (1e-4, 1e-6):
            noise = NoiseSpec(sigma_w=[[0.01]], sigma_z=[[sz]], x0_mean=[0.1],
                              sigma_0=[[2.0]])
            p = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
            assert p.gamma == pytest.approx(sz * 0.81 * 0.405, rel=1e-12)
            assert p.kappa == pytest.approx(sz / 2.0, rel=1e-12)

    def test_zero_prior_variance_rejected(self):
        sys_, noise, cost = scalar_config()
        with pytest.raises(ValueError, match="prior variance"):
            scalar_gap_params(sys_, noise, cost, prior_var=0.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            ScalarGapParams(alpha=0.0, beta=0.0, gamma=0.1, kappa=0.1,
                            c0=0.0, c1=1.0, x_hat0=0.0)
        with pytest.raises(ValueError, match="kappa"):
            ScalarGapParams(alpha=1.0, beta=0.0, gamma=0.1, kappa=0.0,
                            c0=0.0, c1=1.0, x_hat0=0.0)


class TestScalarCostToGo:
    def test_static_observation_reduces_to_quadratic(self, fig_params):
        p = replace(fig_params, c1=0.0, c0=0.7)
        us = np.linspace(-1.0, 1.0, 201)
        expected = (p.alpha * us ** 2 + 2 * p.beta * p.x_hat0 * us
                    + p.gamma / (0.49 + p.kappa))
        np.testing.assert_allclose(scalar_cost_to_go(p, us), expected, rtol=1e-14)
        grid = np.linspace(-1.0, 1.0, 200001)
        vals = scalar_cost_to_go(p, grid)
        assert grid[np.argmin(vals)] == pytest.approx(p.u_lqg, abs=1e-5)

    def test_stationary_at_special_point(self, fig_params):
        h = 1e-6
        derivative = (scalar_cost_to_go(fig_params, fig_params.u_lqg + h)
                      - scalar_cost_to_go(fig_params, fig_params.u_lqg - h)) / (2 * h)
        assert abs(derivative) < 1e-8

    def test_quadratic_asymptotics(self, fig_params):
        for u in (1e3, -1e3, 1e5):
            ratio = scalar_cost_to_go(fig_params, u) / (fig_params.alpha * u * u)
            assert ratio == pytest.approx(1.0, rel=1e-2)


class TestScalarCriticalPoints:
    def test_reference_configuration(self, fig_params):
        points = scalar_critical_points(fig_params)
        real = [p for p in points if p.kind != COMPLEX_PAIR]
        pairs = [p for p in points if p.kind == COMPLEX_PAIR]
        assert len(real) == 3 and len(pairs) == 1
        minima = sorted(p.u for p in real if p.kind == LOCAL_MIN)
        maxima = [p.u for p in real if p.kind == LOCAL_MAX]
        assert maxima == [pytest.approx(U_LQG, abs=1e-9)]
        assert minima[0] == pytest.approx(U_MINUS, abs=1e-9)
        assert minima[1] == pytest.approx(U_PLUS, abs=1e-9)
        # shifted coordinates of the two minima are symmetric about zero
        ubars = [fig_params.c0 + fig_params.c1 * u for u in minima]
        assert abs(ubars[0] + ubars[1]) < 1e-9

    def test_heavy_noise_leaves_single_minimum(self):
        p = ScalarGapParams(alpha=2.0, beta=0.5, gamma=0.1, kappa=1.0,
                            c0=0.05, c1=1.0, x_hat0=0.2)
        assert p.alpha * p.kappa ** 2 > p.gamma * p.c1 ** 2
        points = scalar_critical_points(p)
        real = [q for q in points if q.kind != COMPLEX_PAIR]
        assert len(real) == 1 and real[0].kind == LOCAL_MIN
        assert real[0].u == pytest.approx(p.u_lqg, abs=1e-12)
        assert sum(q.kind == COMPLEX_PAIR for q in points) == 2

    def test_degenerate_boundary_classified_min(self):
        p = ScalarGapParams(alpha=1.0, beta=0.5, gamma=1.0, kappa=1.0,
                            c0=0.1, c1=1.0, x_hat0=0.2)
        assert p.alpha * p.kappa ** 2 == p.gamma * p.c1 ** 2
        points = scalar_critical_points(p)
        real = [q for q in points if q.kind != COMPLEX_PAIR]
        assert real and all(q.kind == LOCAL_MIN for q in real)
        assert all(abs(q.u - p.u_lqg) < 1e-6 for q in real)

    def test_static_coefficient_rejected(self, fig_params):
        with pytest.raises(ValueError, match="LQG closed form"):
            scalar_critical_points(replace(fig_params, c1=0.0))

    def test_quintic_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(777)
        step = 1e-4
        us = np.arange(-5.0, 5.0 + step, step)
        for _ in range(20):
            p = ScalarGapParams(alpha=rng.uniform(0.5, 5.0),
                                beta=rng.uniform(-2.0, 2.0),
                                gamma=rng.uniform(1e-3, 0.5),
                                kappa=rng.uniform(1e-3, 0.5),
                                c0=rng.uniform(-1.0, 1.0),
                                c1=float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 3.0),
                                x_hat0=rng.uniform(-0.5, 0.5))
            vals = scalar_cost_to_go(p, us)
            grad = (vals[2:] - vals[:-2]) / (2 * step)
            flips = np.where(grad[:-1] * grad[1:] < 0)[0]
            crossings = 0.5 * (us[1:-1][flips] + us[1:-1][flips + 1])
            real_roots = np.array([q.u for q in scalar_critical_points(p)
                                   if q.kind != COMPLEX_PAIR])
            for root in real_roots[np.abs(real_roots) <= 4.99]:
                assert np.abs(crossings - root).min() < 1e-3
            for cx in crossings:
                assert np.abs(real_roots - cx).min() < 1e-3

    def test_analytic_gradient_matches_finite_difference(self, fig_params):
        # df/du = 2 * poly(ubar) / (c1 * (ubar^2 + kappa)^2): the quintic is
        # the shifted derivative scaled by c1^2 (ubar^2+kappa)^2 / 2, and the
        # chain rule contributes one factor of c1
        coeffs = gradient_polynomial_coefficients(fig_params)
        h = 1e-6
        for u in np.linspace(-2.0, 2.0, 41):
            ubar = fig_params.c0 + fig_params.c1 * u
            poly = float(np.polyval(coeffs, ubar))
            analytic = 2.0 * poly / ((ubar ** 2 + fig_params.kappa) ** 2
                                     * fig_params.c1)
            fd = (scalar_cost_to_go(fig_params, u + h)
                  - scalar_cost_to_go(fig_params, u - h)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestT2Controller:
    def test_reference_candidates(self, fig_params):
        res = scalar_optimal_controller_T2(fig_params)
        assert res.in_closed_form_regime
        assert sorted(res.u0_candidates) == [pytest.approx(U_MINUS, abs=1e-9),
                                             pytest.approx(U_PLUS, abs=1e-9)]
        f_values = [scalar_cost_to_go(fig_params, u) for u in res.u0_candidates]
        assert abs(f_values[0] - f_values[1]) < 1e-9
        assert f_values[0] == pytest.approx(F_AT_MINIMA, abs=1e-12)

    def test_closed_form_agreement(self, fig_params):
        p = fig_params
        ubar = np.sqrt(-p.kappa + p.c1 * np.sqrt(p.gamma / p.alpha))
        closed = sorted([(ubar - p.c0) / p.c1, (-ubar - p.c0) / p.c1])
        res = scalar_optimal_controller_T2(p)
        for got, want in zip(sorted(res.u0_candidates), closed):
            assert got == pytest.approx(want, abs=1e-6)

    def test_noise_bound_value(self):
        # the closed-form hypothesis bound evaluated on the reference setup
        sys_, noise, cost = scalar_config()
        p = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        a, b, s0 = 0.9, 1.0, 2.0
        k1, p1 = 1.405, 0.405
        bound = p.c1 ** 2 * a ** 2 * s0 ** 2 * p1 / (b ** 2 * k1 + 1.0)
        assert bound == pytest.approx(3.155841, abs=1e-9)
        assert noise.sigma_z[0, 0] <= bound
        # same inequality in gap form
        assert p.alpha * p.kappa ** 2 <= p.gamma * p.c1 ** 2

    def test_outside_regime_flagged_but_solved(self, fig_params):
        shifted = replace(fig_params, c0=0.4)
        with pytest.warns(UserWarning, match="outside closed-form regime"):
            res = scalar_optimal_controller_T2(shifted)
        assert not res.in_closed_form_regime
        assert res.u0_candidates
        grid = np.linspace(-2.0, 2.0, 400001)
        vals = scalar_cost_to_go(shifted, grid)
        assert min(res.u0_candidates, key=lambda u: scalar_cost_to_go(shifted, u)) \
            == pytest.approx(grid[np.argmin(vals)], abs=1e-4)

    def test_boundary_unique_minimizer(self):
        p = ScalarGapParams(alpha=1.0, beta=0.5, gamma=1.0, kappa=1.0,
                            c0=0.1, c1=1.0, x_hat0=0.2)
        res = scalar_optimal_controller_T2(p)
        assert res.in_closed_form_regime
        assert len(res.u0_candidates) == 1
        assert res.u0_candidates[0] == pytest.approx(p.u_lqg, abs=1e-6)

    def test_u1_rule(self, fig_params):
        res = scalar_optimal_controller_T2(fig_params)
        assert res.u1_rule(0.3) == pytest.approx(-0.135, abs=1e-12)
        bare = replace(fig_params, u1_gain=None)
        assert scalar_optimal_controller_T2(bare).u1_rule is None


class TestBellmanObjective:
    def test_static_observation_constant_penalty(self):
        rng = np.random.default_rng(3)
        sys_, noise, cost = double_integrator_config("linear")
        tables = riccati_recursion(cost, sys_, 5)
        belief = ([0.4, -0.2], np.eye(2))
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 3, belief)
        u0 = np.zeros(1)
        base = bellman_objective_Tm2(bp, u0)
        for _ in range(10):
            u = rng.standard_normal(1)
            quad = float(u @ bp.cal_a @ u + 2.0 * (bp.cal_b @ bp.x_hat) @ u)
            assert bellman_objective_Tm2(bp, u) - quad == pytest.approx(base, abs=1e-12)

    def test_scalar_consistency_with_gap_form(self):
        sys_, noise, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        belief = ([0.1], [[2.0]])
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 0, belief)
        params = scalar_gap_params(sys_, noise, cost, prior_var=2.0)
        for u in np.linspace(-1.5, 1.5, 31):
            lhs = bellman_objective_Tm2(bp, [u]) - bellman_objective_Tm2(bp, [0.0])
            rhs = scalar_cost_to_go(params, u) - scalar_cost_to_go(params, 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_small_input_pays_estimation_penalty(self):
        sys_, noise, cost = double_integrator_config("bilinear")
        tables = riccati_recursion(cost, sys_, 4)
        belief = ([1.0, 0.0], np.eye(2))
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 2, belief)

        def penalty(u):
            quad = float(np.atleast_1d(u) @ bp.cal_a @ np.atleast_1d(u)
                         + 2.0 * (bp.cal_b @ bp.x_hat) @ np.atleast_1d(u))
            return bellman_objective_Tm2(bp, u) - quad

        assert penalty([0.0]) > penalty([1.0])

    def test_invariants(self):
        sys_, noise, _ = scalar_config()
        from bilq.control import BellmanObjectiveParams
        with pytest.raises(ValueError, match="cal_a"):
            BellmanObjectiveParams(cal_a=[[0.0]], cal_b=[[1.0]], cal_g=[[1.0]],
                                   prior_cov=[[1.0]], x_hat=[0.0],
                                   sys=sys_, noise=noise)
        with pytest.raises(ValueError, match="prior_cov"):
            BellmanObjectiveParams(cal_a=[[1.0]], cal_b=[[1.0]], cal_g=[[1.0]],
                                   prior_cov=[[-1.0]], x_hat=[0.0],
                                   sys=sys_, noise=noise)
        # a singular prior is PSD: no measurement can reduce a zero variance
        bp = BellmanObjectiveParams(cal_a=[[1.0]], cal_b=[[1.0]], cal_g=[[1.0]],
                                    prior_cov=[[0.0]], x_hat=[0.0], sys=sys_, noise=noise)
        assert bellman_objective_Tm2(bp, [0.5]) == 0.25


class TestObjectiveMatchesFilter:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 3),
           t=st.integers(0, 1), input_scale=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_penalty_is_weighted_next_covariance(self, n, m, p, t, input_scale, seed):
        # the estimation penalty at u is tr(P_{t+1} (S_{t+1}(u) - sigma_w)),
        # S_{t+1}(u) the next covariance of the direct-form filter step
        rng = np.random.default_rng(seed)
        sys_ = BilinearSystem(a=rng.standard_normal((n, n)) * 0.5,
                              b=rng.standard_normal((n, p)),
                              c0=rng.standard_normal((m, n)),
                              ck=tuple(rng.standard_normal((m, n)) for _ in range(p)))
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05),
                          sigma_z=random_spd(rng, m, 0.1),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n),
                        r=random_spd(rng, p))
        tables = riccati_recursion(cost, sys_, 3)
        belief = BeliefState(mean=rng.standard_normal(n), cov=random_spd(rng, n))
        bp = bellman_params_at_stage(sys_, noise, cost, tables, t, (belief.mean, belief.cov))
        u = input_scale * rng.standard_normal(p)
        quad = u @ bp.cal_a @ u + 2.0 * (bp.cal_b @ bp.x_hat) @ u
        penalty = bellman_objective_Tm2(bp, u) - quad
        step = kf_step(belief, sys_, noise, u, rng.standard_normal(m))
        p_next = tables.p_seq[t + 1]
        want = np.trace(p_next @ (step.next_belief.cov - noise.sigma_w))
        # 1e-6 relative, plus the rounding of the two subtractions above
        rounding = 1e-13 * (abs(quad) + np.abs(p_next).sum() * np.abs(noise.sigma_w).max())
        assert abs(penalty - want) <= 1e-6 * abs(want) + rounding
        # a stack of inputs in one call: each value bit for bit its single call
        stack = np.vstack([u, rng.standard_normal((5, p)) * [[0.1], [1.0], [3.0], [10.0], [0.0]]])
        values = bellman_objective_Tm2(bp, stack)
        assert values.shape == (6,)
        assert np.array_equal(values, [bellman_objective_Tm2(bp, v) for v in stack])
        assert type(bellman_objective_Tm2(bp, u)) is float


class TestInnovationForm:
    """The stage objective in innovation form, tr(Sigma G) - tr(S^-1 N),
    against the information form tr(I(u)^-1 G) of tests/helpers.py, central
    differences, and the limit of a singular prior."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), m=st.integers(1, 3), p=st.integers(1, 3),
           runs=st.integers(1, 3), t=st.integers(0, 1),
           input_scale=st.sampled_from([0.0, 0.3, 1.0, 3.0]), rank=st.integers(0, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_information_form(self, n, m, p, runs, t, input_scale, rank, seed):
        rng = np.random.default_rng(seed)
        bp = random_stage(seed, n, m, p, t, runs)
        u = input_scale * rng.standard_normal((runs, p))
        values = bellman_objective_Tm2(bp, u)
        _, roundoff, grad, hess = control._taylor(bp, u, np.arange(runs))
        scale = roundoff / 1e-14            # 1 + the summed magnitudes of f's terms
        for r in range(runs):
            f_ref, g_ref, h_ref, h_terms = information_form_taylor(bp, u[r], r)
            assert abs(values[r] - f_ref) <= 1e-12 * scale[r]
            assert np.abs(grad[r] - g_ref).max() <= 1e-10 * (1.0 + np.abs(g_ref).max())
            # the reference's rounding, about cond(I) eps times its terms,
            # sets this bound (2e-9 relative to H seen, while the innovation
            # form matched a 40-digit evaluation within 4e-16)
            assert np.abs(hess[r] - h_ref).max() <= 1e-9 * (1.0 + h_terms.max())
            alone = replace(bp, x_hat=bp.x_hat[r], prior_cov=bp.prior_cov[r])
            g_fd, h_fd = richardson_differences(lambda v: bellman_objective_Tm2(alone, v),
                                                u[r], 1e-3)
            assert np.abs(grad[r] - g_fd).max() <= 1e-7 * scale[r]
            assert np.abs(hess[r] - h_fd).max() <= 1e-5 * scale[r]
        # a prior of rank < n: finite, and the limit of the reference at
        # Sigma + eps I (Richardson's 2 f(eps) - f(2 eps), error O(eps^2))
        factor = rng.standard_normal((runs, n, rank % n))
        singular = replace(bp, prior_cov=factor @ factor.swapaxes(-1, -2))
        values = bellman_objective_Tm2(singular, u)
        _, roundoff, grad, hess = control._taylor(singular, u, np.arange(runs))
        assert all(np.isfinite(x).all() for x in (values, grad, hess))
        for r in range(runs):
            eps = 1e-6 * max(1.0, np.abs(singular.prior_cov[r]).max())
            near = [information_form_taylor(replace(singular, prior_cov=singular.prior_cov
                                                    + e * np.eye(n)), u[r], r)[0]
                    for e in (eps, 2.0 * eps)]
            assert abs(values[r] - (2.0 * near[0] - near[1])) <= 1e-6 * roundoff[r] / 1e-14


class TestBellmanMinimize:
    def test_static_observation_recovers_lqg_action(self):
        rng = np.random.default_rng(8)
        n, p = 3, 2
        a = rng.standard_normal((n, n)) * 0.5
        b = rng.standard_normal((n, p))
        sys_ = BilinearSystem(a=a, b=b, c0=rng.standard_normal((2, n)),
                              ck=tuple(np.zeros((2, n)) for _ in range(p)))
        noise = NoiseSpec(sigma_w=0.1 * np.eye(n), sigma_z=0.1 * np.eye(2),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        cost = CostSpec(q=np.eye(n), q_t=np.eye(n), r=np.eye(p))
        tables = riccati_recursion(cost, sys_, 4)
        belief = (rng.standard_normal(n) * 0.1, np.eye(n))
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 2, belief)
        u_star, f_star = bellman_minimize_Tm2(bp)
        np.testing.assert_allclose(u_star, bp.u_lqg, atol=1e-7)
        assert f_star <= bellman_objective_Tm2(bp, bp.u_lqg) + 1e-12

    def test_scalar_regime_matches_closed_form(self):
        sys_, noise, cost = scalar_config()
        tables = riccati_recursion(cost, sys_, 2)
        belief = ([0.1], [[2.0]])
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 0, belief)
        u_star, _ = bellman_minimize_Tm2(bp)
        assert min(abs(u_star[0] - U_MINUS), abs(u_star[0] - U_PLUS)) < 1e-6

    def test_degenerate_symmetric_case(self):
        sys_, noise, cost = scalar_config()
        sys_ = replace(sys_, c0=[[0.0]])
        tables = riccati_recursion(cost, sys_, 2)
        belief = ([0.0], [[2.0]])
        bp = bellman_params_at_stage(sys_, noise, cost, tables, 0, belief)
        u_star, f_star = bellman_minimize_Tm2(bp)
        assert f_star <= bellman_objective_Tm2(bp, [0.0]) + 1e-12


    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 2),
           t=st.integers(0, 1), seed=st.integers(0, 2 ** 32 - 1))
    def test_never_worse_than_reference(self, n, m, p, t, seed):
        # the grid-plus-golden-section minimizer this search replaced
        bp = random_stage(seed, n, m, p, t)
        _, f = bellman_minimize_Tm2(bp)
        _, f_ref = reference_minimize_Tm2(bp)
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))

    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_never_worse_than_reference_three_inputs(self, n, m, seed):
        bp = random_stage(seed, n, m, 3)
        _, f = bellman_minimize_Tm2(bp)
        _, f_ref = reference_minimize_Tm2(bp)
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))

    def test_five_inputs_local_minimum(self):
        bp = random_stage(5, n=4, m=3, p=5)
        u, f = bellman_minimize_Tm2(bp)
        assert f == bellman_objective_Tm2(bp, u)
        # no worse than any start: u_lqg and the design points on the box
        half = max(3.0 * np.linalg.norm(bp.u_lqg), 1.0)
        starts = np.vstack([bp.u_lqg, bp.u_lqg + half * unit_design(5)])
        assert f <= bellman_objective_Tm2(bp, starts).min()
        grad, hess = central_differences(lambda v: bellman_objective_Tm2(bp, v), u, 1e-4)
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + abs(f))
        assert np.linalg.eigvalsh(hess).min() >= -1e-5 * (1.0 + np.abs(hess).max())

    def test_stack_matches_single(self):
        # every belief of a stack decides bit for bit as it would alone; at
        # m = p = 1 the stack mixes regular quintics with ones that fall back
        # to u_lqg (a prior with C1 Sigma = 0, a zero prior)
        covs = [np.eye(2), np.diag([0.0, 1.0]), np.zeros((2, 2)), [[1.0, 0.9], [0.9, 1.0]]]
        means = [[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2], [0.0, 0.0]]
        for bp in (random_stage(11, n=3, m=2, p=2, t=1, runs=4),
                   bilinear_integrator_stage(np.array(covs), np.array(means))):
            p = bp.cal_a.shape[0]
            u, f = bellman_minimize_Tm2(bp)
            assert u.shape == (4, p) and f.shape == (4,)
            for r in range(4):
                alone = replace(bp, x_hat=bp.x_hat[r], prior_cov=bp.prior_cov[r])
                u_r, f_r = bellman_minimize_Tm2(alone)
                assert u_r.tobytes() == u[r].tobytes() and f_r == f[r]
                assert type(f_r) is float and u_r.shape == (p,)

    def test_narrow_basin(self):
        # a stress draw (strong ck, low observation noise) whose minimum is a
        # basin about 0.05 wide in a box 6 wide; a 21^2 design misses it
        rng = np.random.default_rng(44)
        n, m, p = rng.integers(1, 5), rng.integers(1, 4), 2
        sys_ = BilinearSystem(a=rng.standard_normal((n, n)) * 0.5,
                              b=rng.standard_normal((n, p)),
                              c0=rng.standard_normal((m, n)),
                              ck=tuple(rng.standard_normal((m, n)) * rng.choice([0.3, 1, 3])
                                       for _ in range(p)))
        noise = NoiseSpec(sigma_w=random_spd(rng, n, 0.05),
                          sigma_z=random_spd(rng, m, rng.choice([0.01, 0.1, 1])),
                          x0_mean=np.zeros(n), sigma_0=np.eye(n))
        cost = CostSpec(q=random_spd(rng, n), q_t=random_spd(rng, n),
                        r=random_spd(rng, p, rng.choice([0.1, 1, 10])))
        tables = riccati_recursion(cost, sys_, 3)
        belief = (rng.standard_normal(n) * rng.choice([0.1, 1, 3]),
                  random_spd(rng, n, rng.choice([0.1, 1, 5])))
        bp = bellman_params_at_stage(sys_, noise, cost, tables, int(rng.integers(0, 2)), belief)
        _, f = bellman_minimize_Tm2(bp)
        _, f_ref = reference_minimize_Tm2(bp)
        assert f_ref < 30.0
        assert f <= f_ref + 1e-9 * (1.0 + abs(f_ref))

    def test_stack_in_parts_matches_one_search(self, monkeypatch):
        bp = random_stage(7, n=2, m=2, p=1, t=0, runs=7)
        u, f = bellman_minimize_Tm2(bp)
        monkeypatch.setattr(control, "DESIGN_BUDGET", 2 * len(unit_design(1)))
        u_parts, f_parts = bellman_minimize_Tm2(bp)
        assert u_parts.tobytes() == u.tobytes() and f_parts.tobytes() == f.tobytes()

    def test_ties_go_to_smallest_then_most_negative_input(self):
        # symmetric cases: the two minimizers +-u* tie exactly; on the double
        # integrator the quintic's two roots differ in their last bits, and
        # those |u| count as equal
        sys_, noise, cost = scalar_config()
        sys_ = replace(sys_, c0=[[0.0]])
        tables = riccati_recursion(cost, sys_, 2)
        scalar = bellman_params_at_stage(sys_, noise, cost, tables, 0,
                                         ([0.0], [[2.0]]))
        for bp in (scalar, bilinear_integrator_stage(10.0 * np.eye(2)),
                   bilinear_integrator_stage([[1.0, 0.9], [0.9, 1.0]], horizon=3)):
            u, f = bellman_minimize_Tm2(bp)
            assert u[0] < -0.1
            assert f <= bellman_objective_Tm2(bp, -u) + 1e-9 * (1.0 + abs(f))

    def test_complex_roots_do_not_compete(self):
        # c0 = 0 and x_hat = 1e-8: a complex pair's real part lies nearer 0
        # than the minimizer and ties with it within f's roundoff
        sys_, noise, cost = scalar_config()
        sys_ = replace(sys_, c0=[[0.0]], ck=([[0.5]],))
        bp = bellman_params_at_stage(sys_, noise, cost, riccati_recursion(cost, sys_, 2), 0,
                                     ([1e-8], [[1.0]]))
        params = scalar_gap_params(sys_, noise, cost, prior_var=1.0, x_hat0=1e-8)
        points = scalar_critical_points(params)
        assert [pt.kind for pt in points] == [LOCAL_MIN, COMPLEX_PAIR, COMPLEX_PAIR]
        u, _ = bellman_minimize_Tm2(bp)
        assert u[0] == pytest.approx(points[0].u, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), runs=st.integers(1, 3), t=st.integers(0, 1),
           rank=st.integers(0, 4), ck_scale=st.sampled_from([1.0, 1e-3, 1e-6]),
           noise_scale=st.sampled_from([0.01, 0.1, 1.0]), spread=st.sampled_from([1.0, 3.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_global_at_one_input_one_output(self, n, runs, t, rank, ck_scale, noise_scale,
                                            spread, seed):
        # m = p = 1: no worse than the reference search or a dense grid on a
        # box 10 times the design's, singular priors and tiny ck included
        bp = scalar_io_stage(seed, n, runs, t, rank % (n + 1), ck_scale, noise_scale, spread)
        _, f = bellman_minimize_Tm2(bp)
        for r in range(runs):
            alone = replace(bp, x_hat=bp.x_hat[r], prior_cov=bp.prior_cov[r])
            bound = 1e-12 * (1.0 + abs(f[r]))
            assert f[r] <= reference_minimize_Tm2(alone)[1] + bound
            assert f[r] <= grid_minimum(alone) + bound

    def test_global_where_the_design_search_is_local(self):
        # a draw whose global minimizer, u = -2.03, lies outside the design
        # box (half width 1 around u_lqg); the design-and-Newton search of
        # the other shapes settles at u = 0.515, 12% higher
        bp = scalar_io_stage(4282104764, n=4, runs=2, t=1, rank=3, ck_scale=1.0,
                             noise_scale=0.01, spread=3.0)
        u, f = bellman_minimize_Tm2(bp)
        alone = replace(bp, x_hat=bp.x_hat[0], prior_cov=bp.prior_cov[0])
        assert f[0] <= grid_minimum(alone) + 1e-12 * (1.0 + abs(f[0]))
        assert u[0, 0] < -2.0

    @pytest.mark.parametrize("ck, cov", [(0.0, np.eye(2)), (1.0, np.diag([0.0, 1.0]))],
                             ids=["static", "unobserved"])
    def test_flat_quintic_decides_lqg_action(self, ck, cov):
        # C1 Sigma C1' = 0 leaves the objective quadratic: the decision is
        # u_lqg, with a finite value
        bp = bilinear_integrator_stage(cov, mean=[0.3, -0.2], ck=ck)
        u, f = bellman_minimize_Tm2(bp)
        assert u.tobytes() == bp.u_lqg.tobytes()
        assert np.isfinite(f) and f == bellman_objective_Tm2(bp, bp.u_lqg)

    @pytest.mark.parametrize("ck", [1e-160, 1e-80, 1e100])
    def test_extreme_ck_decides(self, ck):
        # a leading coefficient that would overflow the companion matrix
        # (tiny ck), or an s2^2 that would overflow unscaled (huge ck)
        for mean in ([0.0, 0.0], [0.3, -0.2]):
            bp = bilinear_integrator_stage([[1.0, 0.5], [0.5, 1.0]], mean=mean, ck=ck, horizon=4)
            _, f = bellman_minimize_Tm2(bp)
            assert np.isfinite(f) and f <= bellman_objective_Tm2(bp, bp.u_lqg)
            assert f <= grid_minimum(bp) + 1e-12 * (1.0 + abs(f))


class TestStackedObjective:
    def test_stacked_beliefs_match_single(self):
        bp = random_stage(4, n=3, m=2, p=2, t=0, runs=3)
        rng = np.random.default_rng(0)
        per_belief = rng.standard_normal((3, 2))
        grid = rng.standard_normal((5, 3, 2))
        values = bellman_objective_Tm2(bp, per_belief)
        on_grid = bellman_objective_Tm2(bp, grid)
        shared = bellman_objective_Tm2(bp, per_belief[0])
        assert values.shape == (3,) and on_grid.shape == (5, 3) and shared.shape == (3,)
        for r in range(3):
            alone = replace(bp, x_hat=bp.x_hat[r], prior_cov=bp.prior_cov[r])
            assert values[r] == bellman_objective_Tm2(alone, per_belief[r])
            assert np.array_equal(on_grid[:, r], bellman_objective_Tm2(alone, grid[:, r]))
            assert shared[r] == bellman_objective_Tm2(alone, per_belief[0])
        np.testing.assert_allclose(bp.u_lqg[1], replace(bp, x_hat=bp.x_hat[1],
                                                        prior_cov=bp.prior_cov[1]).u_lqg)


class TestAffineFalsification:
    def grid(self):
        return np.arange(-0.4, 0.41, 0.1)

    def test_reference_family_not_affine(self, fig_params):
        report = affine_falsification_test(replace(fig_params, c0=0.1), self.grid())
        assert report.falsified
        assert report.max_residual > 1e-4 * report.scale
        assert report.max_residual == pytest.approx(0.0159083206319956, abs=1e-9)

    def test_static_observation_is_affine(self, fig_params):
        report = affine_falsification_test(replace(fig_params, c1=0.0), self.grid())
        assert not report.falsified
        assert report.max_residual < 1e-10
        assert report.slope == pytest.approx(-fig_params.beta / fig_params.alpha,
                                             rel=1e-12)

    def test_memoryless_dynamics_are_affine(self):
        p = ScalarGapParams(alpha=2.405, beta=0.0, gamma=0.0, kappa=0.045,
                            c0=0.1, c1=2.405, x_hat0=0.1)
        report = affine_falsification_test(p, self.grid())
        assert not report.falsified
        assert report.max_residual < 1e-10

    def test_needs_nine_points(self, fig_params):
        with pytest.raises(ValueError, match="at least 9"):
            affine_falsification_test(fig_params, np.linspace(-0.1, 0.1, 5))
