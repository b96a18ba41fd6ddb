"""Controller synthesis: finite-horizon Riccati tables, the stage objective
that couples the input to the next-stage estimation covariance, and the
scalar two-stage nonlinear optimal controller with full critical-point
classification.

The scalar stage cost-to-go is

    f(u) = alpha*u^2 + 2*beta*xhat*u + gamma / ((c0 + c1*u)^2 + kappa),

and its critical points are the roots of a quintic in the shifted
coordinate ubar = c0 + c1*u, found via companion-matrix eigenvalues and
classified by the sign of the shifted second derivative (one-sided
gradient signs in the degenerate case).
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (chol_solve, is_symmetric, matvec, min_eigenvalue,
                   observation_matrix, quadratic, symmetrize)
from .kalman import information_matrix

LOCAL_MIN = "local_min"
LOCAL_MAX = "local_max"
SADDLE_OR_DEGENERATE = "saddle_or_degenerate"
COMPLEX_PAIR = "complex_pair"

REAL_ROOT_TOL = 1e-8
CURVATURE_TOL = 1e-10
ONE_SIDED_H = 1e-6


@dataclass(frozen=True)
class RiccatiTables:
    """Backward-recursion tables indexed by stage: k_seq[t] = K_t (len T+1),
    p_seq[t] = P_t and gain_seq[t] = feedback gain at stage t (len T)."""

    k_seq: tuple
    p_seq: tuple
    gain_seq: tuple

    @property
    def horizon(self):
        return len(self.gain_seq)


def riccati_recursion(cost, sys, horizon):
    """Finite-horizon Riccati tables with terminal value k_seq[T] = q_t.

    Stage update:
        P_t = A^T K_{t+1} B (B^T K_{t+1} B + R)^-1 B^T K_{t+1} A
        K_t = A^T K_{t+1} A - P_t + Q
        gain_t = -(B^T K_{t+1} B + R)^-1 B^T K_{t+1} A
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    a, b = sys.a, sys.b
    k_seq = [None] * (horizon + 1)
    p_seq = [None] * horizon
    gain_seq = [None] * horizon
    k_seq[horizon] = cost.q_t
    for t in reversed(range(horizon)):
        k_next = k_seq[t + 1]
        g = symmetrize(b.T @ k_next @ b + cost.r)
        m = b.T @ k_next @ a
        sol = chol_solve(g, m)
        p_seq[t] = symmetrize(m.T @ sol)
        gain_seq[t] = -sol
        k_seq[t] = symmetrize(a.T @ k_next @ a - p_seq[t] + cost.q)
    return RiccatiTables(k_seq=tuple(k_seq), p_seq=tuple(p_seq),
                         gain_seq=tuple(gain_seq))


def lqg_policy(tables, t, x_hat):
    """Certainty-equivalent action gain_seq[t] @ x_hat; a stack of
    estimates (R, n) gives one action per estimate, (R, p)."""
    if not 0 <= t < tables.horizon:
        raise ValueError(f"stage {t} out of range for horizon {tables.horizon}")
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.ndim != 2:
        x_hat = x_hat.reshape(-1)
    return matvec(tables.gain_seq[t], x_hat)


@dataclass(frozen=True)
class ScalarGapParams:
    """Scalars of the stage cost-to-go for n = m = p = 1.

    alpha/beta weight the quadratic control cost, gamma/kappa the
    estimation penalty; c0/c1 define the observation coefficient
    c0 + c1*u; u1_gain (when known) is the final-stage feedback gain.
    """

    alpha: float
    beta: float
    gamma: float
    kappa: float
    c0: float
    c1: float
    x_hat0: float
    u1_gain: float = None

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")

    @property
    def u_lqg(self):
        return -self.beta * self.x_hat0 / self.alpha


def scalar_gap_params(sys, noise, cost, prior_var, x_hat0=None):
    """Gap parameters of the scalar stage objective.

    prior_var is the predicted state variance entering the stage; the
    stage-independent pieces come from one backward Riccati step off the
    terminal cost (the values at stage T-1 do not depend on T).
    """
    if not (sys.n == 1 and sys.m == 1 and sys.p == 1):
        raise ValueError("gap parameters require a scalar system")
    prior_var = float(prior_var)
    if prior_var <= 0.0:
        raise ValueError("prior variance must be positive")
    tables = riccati_recursion(cost, sys, 1)
    k_last = float(tables.k_seq[0][0, 0])
    p_last = float(tables.p_seq[0][0, 0])
    a = float(sys.a[0, 0])
    b = float(sys.b[0, 0])
    r = float(cost.r[0, 0])
    sz = float(noise.sigma_z[0, 0])
    if x_hat0 is None:
        x_hat0 = float(noise.x0_mean[0])
    return ScalarGapParams(
        alpha=b * b * k_last + r,
        beta=b * k_last * a,
        gamma=sz * a * a * p_last,
        kappa=sz / prior_var,
        c0=float(sys.c0[0, 0]),
        c1=float(sys.ck[0][0, 0]),
        x_hat0=float(x_hat0),
        u1_gain=float(tables.gain_seq[0][0, 0]),
    )


def scalar_cost_to_go(params, u):
    """Evaluate the stage objective; accepts scalars or arrays."""
    u = np.asarray(u, dtype=float)
    c = params.c0 + params.c1 * u
    val = (params.alpha * u * u + 2.0 * params.beta * params.x_hat0 * u
           + params.gamma / (c * c + params.kappa))
    return float(val) if val.ndim == 0 else val


def _shifted_gradient(params, ubar):
    c1 = params.c1
    lin = (params.alpha * (ubar - params.c0) / c1 + params.beta * params.x_hat0)
    return 2.0 * lin / c1 - 2.0 * params.gamma * ubar / (ubar * ubar + params.kappa) ** 2


def _shifted_second_derivative(params, ubar):
    c1sq = params.c1 * params.c1
    den = (ubar * ubar + params.kappa) ** 3
    return 2.0 * params.alpha / c1sq + 2.0 * params.gamma * (3.0 * ubar * ubar - params.kappa) / den


def gradient_polynomial_coefficients(params):
    """Descending coefficients of the quintic whose roots (in the shifted
    coordinate) are the critical points of the stage objective."""
    if params.c1 == 0.0:
        raise ValueError("use LQG closed form")
    al, ka, ga = params.alpha, params.kappa, params.gamma
    d = params.c1 * params.beta * params.x_hat0 - params.c0 * params.alpha
    return np.array([al, d, 2.0 * ka * al, 2.0 * ka * d,
                     al * ka * ka - ga * params.c1 * params.c1, ka * ka * d])


@dataclass(frozen=True)
class CriticalPoint:
    u: float
    kind: str
    f_value: float
    second_derivative: float


def scalar_critical_points(params):
    """All five critical points of the stage objective.

    Real roots are classified via the shifted second derivative; when that
    vanishes (|.| <= 1e-10) the one-sided gradient signs decide.  Complex
    conjugate pairs are reported once each with kind "complex_pair".
    """
    coeffs = gradient_polynomial_coefficients(params)
    roots = np.roots(coeffs)
    real_mask = np.abs(roots.imag) < REAL_ROOT_TOL * (1.0 + np.abs(roots.real))
    points = []
    for ubar in sorted(roots[real_mask].real):
        u = (ubar - params.c0) / params.c1
        curv = _shifted_second_derivative(params, ubar)
        if curv > CURVATURE_TOL:
            kind = LOCAL_MIN
        elif curv < -CURVATURE_TOL:
            kind = LOCAL_MAX
        else:
            left = _shifted_gradient(params, ubar - ONE_SIDED_H)
            right = _shifted_gradient(params, ubar + ONE_SIDED_H)
            if left < 0.0 < right:
                kind = LOCAL_MIN
            elif left > 0.0 > right:
                kind = LOCAL_MAX
            else:
                kind = SADDLE_OR_DEGENERATE
        points.append(CriticalPoint(u=float(u), kind=kind,
                                    f_value=scalar_cost_to_go(params, u),
                                    second_derivative=float(curv)))
    pairs = roots[~real_mask & (roots.imag > 0.0)]
    for ubar in sorted(pairs, key=lambda z: (z.real, z.imag)):
        u = (ubar - params.c0) / params.c1
        points.append(CriticalPoint(u=float(u.real), kind=COMPLEX_PAIR,
                                    f_value=float("nan"),
                                    second_derivative=float("nan")))
    return points


@dataclass(frozen=True)
class T2ControllerResult:
    """Two-stage controller: first-stage global minimizers (all ties), the
    linear final-stage rule, and whether the closed-form regime held."""

    u0_candidates: tuple
    u1_rule: object
    in_closed_form_regime: bool
    notes: tuple
    critical_points: tuple


def _minima(points):
    """The local minima (else every finite point), and the u of those tied
    with the best value within 1e-9 relative."""
    minima = [p for p in points if p.kind == LOCAL_MIN]
    if not minima:
        minima = [p for p in points if np.isfinite(p.f_value)]
    f_best = min(p.f_value for p in minima)
    tie_tol = 1e-9 * (1.0 + abs(f_best))
    return minima, [p.u for p in minima if p.f_value <= f_best + tie_tol]


def scalar_optimal_controller_T2(params):
    """First-stage minimizers of the scalar stage objective plus the
    final-stage linear rule.

    Checks the closed-form hypotheses (noise bound, expressed as
    alpha*kappa^2 <= gamma*c1^2, and c0 = -u_lqg*c1); when violated the
    numeric result is still returned, flagged and warned as outside the
    closed-form regime.
    """
    notes = []
    bound_lhs = params.alpha * params.kappa ** 2
    bound_rhs = params.gamma * params.c1 ** 2
    if bound_lhs > bound_rhs * (1.0 + 1e-9):
        notes.append("noise bound violated (alpha*kappa^2 > gamma*c1^2)")
    c0_target = -params.u_lqg * params.c1
    if abs(params.c0 - c0_target) > 1e-9 * max(1.0, abs(c0_target)):
        notes.append("c0 != -u_lqg*c1")
    in_regime = not notes
    if not in_regime:
        warnings.warn("outside closed-form regime: " + "; ".join(notes))
    points = scalar_critical_points(params)
    _, tied = _minima(points)
    candidates = []
    for u in sorted(tied):
        # collapse repeated roots of the same point (degenerate multiplicities)
        if not candidates or abs(u - candidates[-1]) > 1e-7 * (1.0 + abs(u)):
            candidates.append(u)
    candidates = tuple(candidates)
    u1_rule = None
    if params.u1_gain is not None:
        gain = float(params.u1_gain)
        u1_rule = lambda x_hat: gain * float(x_hat)  # noqa: E731
    return T2ControllerResult(u0_candidates=candidates, u1_rule=u1_rule,
                              in_closed_form_regime=in_regime,
                              notes=tuple(notes), critical_points=tuple(points))


def select_rollout_action(candidates):
    """Deterministic pick among tied minimizers: smallest |u|, then most negative."""
    return min(candidates, key=lambda u: (abs(u), u))


@dataclass(frozen=True)
class BellmanObjectiveParams:
    """Quadratic weights and estimation-penalty data of the stage objective."""

    cal_a: np.ndarray
    cal_b: np.ndarray
    cal_g: np.ndarray
    prior_cov: np.ndarray
    x_hat: np.ndarray
    sys: object
    noise: object

    def __post_init__(self):
        cal_a = symmetrize(np.asarray(self.cal_a, dtype=float))
        if min_eigenvalue(cal_a) <= 0.0:
            raise ValueError("cal_a must be positive definite")
        cal_g = np.asarray(self.cal_g, dtype=float)
        if not is_symmetric(cal_g) or min_eigenvalue(cal_g) < -1e-10:
            raise ValueError("cal_g must be symmetric PSD")
        prior_cov = symmetrize(np.asarray(self.prior_cov, dtype=float))
        if min_eigenvalue(prior_cov) <= 0.0:
            raise ValueError("prior_cov must be positive definite")
        object.__setattr__(self, "cal_a", cal_a)
        object.__setattr__(self, "cal_b", np.asarray(self.cal_b, dtype=float))
        object.__setattr__(self, "cal_g", symmetrize(cal_g))
        object.__setattr__(self, "prior_cov", prior_cov)
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float).reshape(-1))
        object.__setattr__(self, "cal_b_x_hat", self.cal_b @ self.x_hat)
        object.__setattr__(self, "prior_cov_inv", chol_solve(prior_cov, np.eye(len(prior_cov))))

    @property
    def u_lqg(self):
        return -chol_solve(self.cal_a, self.cal_b_x_hat)


def bellman_params_at_stage(sys, noise, cost, tables, t, belief):
    """Stage objective data at stage t.

    Exact for the last-but-two stage (t = T - 2).  At earlier stages the
    estimation penalty is still weighted by the LQR table p_seq[t+1], so
    minimizing it is a one-step look-ahead, not the optimal decision.
    """
    if not 0 <= t <= tables.horizon - 2:
        raise ValueError(f"stage {t} has no estimation-penalty objective")
    k_next = tables.k_seq[t + 1]
    p_next = tables.p_seq[t + 1]
    return BellmanObjectiveParams(
        cal_a=sys.b.T @ k_next @ sys.b + cost.r,
        cal_b=sys.b.T @ k_next @ sys.a,
        cal_g=sys.a.T @ p_next @ sys.a,
        prior_cov=belief.cov,
        x_hat=belief.mean,
        sys=sys,
        noise=noise,
    )


def bellman_objective_Tm2(bp, u):
    """Quadratic control cost plus the estimation penalty tr(I(u)^-1 cal_g),
    I(u) the filter's :func:`bilq.kalman.information_matrix` at input u.

    One input (p,) gives a float; a stack of inputs (N, p) gives (N,)
    values, each bit for bit its own single call."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    quad = quadratic(u, bp.cal_a) + 2.0 * (u[..., None, :] @ bp.cal_b_x_hat)[..., 0]
    info = information_matrix(bp.prior_cov_inv, observation_matrix(bp.sys, u),
                              bp.noise.sigma_z)
    val = quad + chol_solve(info, bp.cal_g).diagonal(0, -2, -1).sum(-1)
    return float(val) if val.ndim == 0 else val


def _golden_section(f, a, b, tol):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bellman_minimize_Tm2(bp):
    """Numerically minimize the stage objective (local guarantee only).

    The objective is nonconvex, so a 51^p grid around the certainty-
    equivalent action (half width 3*|u_lqg| floored at 1 per axis) is
    evaluated first, in one stacked call; then coordinatewise golden-section
    refinement until a pass moves u by less than 1e-8 (at most 200 passes).
    Windows recenter each pass, so the iterate may leave the grid's box.
    """
    u_lqg = bp.u_lqg
    p = u_lqg.size
    if p > 3:
        raise ValueError("numeric minimizer supports p <= 3")
    half = max(3.0 * float(np.linalg.norm(u_lqg)), 1.0)
    axes, step = np.linspace(u_lqg - half, u_lqg + half, 51, retstep=True)
    candidates = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, p)
    u = candidates[int(np.argmin(bellman_objective_Tm2(bp, candidates)))].copy()
    for _ in range(200):
        u_prev = u.copy()
        for i in range(p):
            def along(v, i=i):
                trial = u.copy()
                trial[i] = v
                return bellman_objective_Tm2(bp, trial)
            u[i] = _golden_section(along, u[i] - step[i], u[i] + step[i], tol=1e-10)
        if float(np.abs(u - u_prev).max()) < 1e-8:
            break
    return u, bellman_objective_Tm2(bp, u)


@dataclass(frozen=True)
class AffineFalsificationReport:
    """Best affine fit to the first-stage policy over an estimate grid."""

    x_hat_values: np.ndarray
    u_star: np.ndarray
    slope: float
    intercept: float
    max_residual: float
    scale: float
    falsified: bool


def affine_falsification_test(params, x_hat_grid=None):
    """Fit u*(x_hat) with an affine map and report the worst residual.

    The minimizer branch is tracked continuously in x_hat starting from
    the positive branch, so residuals measure curvature of the policy,
    not branch jumps.  falsified is True when the residual exceeds
    1e-4 times the policy scale.
    """
    if x_hat_grid is None:
        x_hat_grid = np.linspace(-0.4, 0.4, 9)
    x_hat_grid = np.asarray(x_hat_grid, dtype=float)
    if x_hat_grid.size < 9:
        raise ValueError("need at least 9 estimate values")
    u_star = np.empty_like(x_hat_grid)
    previous = None
    for i, x_hat in enumerate(x_hat_grid):
        pt = replace(params, x_hat0=float(x_hat))
        if pt.c1 == 0.0:
            u_star[i] = pt.u_lqg
            continue
        minima, tied = _minima(scalar_critical_points(pt))
        if previous is None:
            u_star[i] = max(tied)
        else:
            u_star[i] = min((p.u for p in minima), key=lambda u: abs(u - previous))
        previous = u_star[i]
    design = np.stack([x_hat_grid, np.ones_like(x_hat_grid)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, u_star, rcond=None)
    fit = design @ np.array([slope, intercept])
    max_residual = float(np.abs(u_star - fit).max())
    scale = float(np.abs(u_star).max())
    return AffineFalsificationReport(
        x_hat_values=x_hat_grid, u_star=u_star, slope=float(slope),
        intercept=float(intercept), max_residual=max_residual, scale=scale,
        falsified=max_residual > 1e-4 * scale,
    )
