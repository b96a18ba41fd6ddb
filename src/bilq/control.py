"""Controller synthesis: finite-horizon Riccati tables, the stage objective
that couples the input to the next-stage estimation covariance with its
stacked minimizer (the roots of a quintic at one input and one output,
damped Newton elsewhere), and the scalar two-stage nonlinear optimal
controller with full critical-point classification.

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

from .core import check_beliefs, chol_solve, count, matvec, quadratic, real, symmetrize

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
    p_seq[t] = P_t, gain_seq[t] = feedback gain at stage t, and the stage
    objective's input weight cal_a_seq[t] = B'K_{t+1}B + R (PD: the recursion
    factored it) and cross weight cal_b_seq[t] = B'K_{t+1}A (len T)."""

    k_seq: tuple
    p_seq: tuple
    gain_seq: tuple
    cal_a_seq: tuple
    cal_b_seq: tuple

    @property
    def horizon(self):
        return len(self.gain_seq)


def riccati_recursion(cost, sys, horizon):
    """Finite-horizon Riccati tables with terminal value k_seq[T] = q_t.

    Stage update:
        P_t = A^T K_{t+1} B (B^T K_{t+1} B + R)^-1 B^T K_{t+1} A
        K_t = A^T K_{t+1} A - P_t + Q
        gain_t = -(B^T K_{t+1} B + R)^-1 B^T K_{t+1} A

    q and q_t must be n x n and r p x p (shapes only: a singular q is valid LQR).
    """
    horizon = count("horizon", horizon, 1)
    a, b = sys.a, sys.b
    n, p = b.shape
    for name, mat, dim in (("q", cost.q, n), ("q_t", cost.q_t, n), ("r", cost.r, p)):
        if mat.shape != (dim, dim):
            raise ValueError(f"{name} shape {mat.shape} != ({dim}, {dim})")
    k_seq = [None] * (horizon + 1)
    p_seq, gain_seq, cal_a_seq, cal_b_seq = ([None] * horizon for _ in range(4))
    k_seq[horizon] = cost.q_t
    for t in reversed(range(horizon)):
        k_next = k_seq[t + 1]
        bk = b.T @ k_next
        g = cal_a_seq[t] = symmetrize(bk @ b + cost.r)
        m = cal_b_seq[t] = bk @ a
        sol = chol_solve(g, m)
        p_seq[t] = symmetrize(m.T @ sol)
        gain_seq[t] = -sol
        k_seq[t] = symmetrize(a.T @ k_next @ a - p_seq[t] + cost.q)
    return RiccatiTables(k_seq=tuple(k_seq), p_seq=tuple(p_seq), gain_seq=tuple(gain_seq),
                         cal_a_seq=tuple(cal_a_seq), cal_b_seq=tuple(cal_b_seq))


def lqg_policy(tables, t, x_hat):
    """Certainty-equivalent action gain_seq[t] @ x_hat at stage t (see core.count) for
    one estimate (n,); a stack of estimates (R, n) gives one action per estimate, (R, p)."""
    t = count("stage", t, 0)
    if t >= tables.horizon:
        raise ValueError(f"stage {t} out of range for horizon {tables.horizon}")
    x_hat, n = np.asarray(x_hat, dtype=float), tables.gain_seq[t].shape[1]
    if x_hat.ndim not in (1, 2):
        raise ValueError(f"x_hat must be (n,) or (R, n), got shape {x_hat.shape}")
    if x_hat.shape[-1] != n:
        raise ValueError(f"x_hat length {x_hat.shape[-1]} != n = {n}")
    return matvec(tables.gain_seq[t], x_hat)


@dataclass(frozen=True)
class ScalarGapParams:
    """Scalars of the stage cost-to-go for n = m = p = 1, each one finite.

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
        for name, value in vars(self).items():
            if value is not None and not np.isfinite(value):
                raise ValueError(f"gap parameter {name} must be finite, got {value!r}")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")

    @property
    def u_lqg(self):
        return -self.beta * self.x_hat0 / self.alpha


def scalar_gap_params(sys, noise, cost, prior_var=None, x_hat0=None):
    """Gap parameters of the scalar stage objective.

    prior_var is the predicted state variance entering the stage (default noise.sigma_0),
    x_hat0 the estimate (default noise.x0_mean); the stage-independent pieces come from
    one backward Riccati step off the terminal cost (stage T-1's values do not depend on T).
    """
    if not (sys.n == 1 and sys.m == 1 and sys.p == 1):
        raise ValueError("gap parameters require a scalar system")
    prior_var = real(noise.sigma_0 if prior_var is None else prior_var, "prior_var")
    x_hat0 = float(noise.x0_mean[0]) if x_hat0 is None else real(x_hat0, "x_hat0")
    if not prior_var > 0.0:
        raise ValueError("prior variance must be positive")
    if not np.isfinite([prior_var, x_hat0]).all():
        raise ValueError(f"gap parameters require a finite prior_var and x_hat0, "
                         f"got {prior_var!r} and {x_hat0!r}")
    tables = riccati_recursion(cost, sys, 1)
    k_last = float(tables.k_seq[0][0, 0])
    p_last = float(tables.p_seq[0][0, 0])
    a = float(sys.a[0, 0])
    b = float(sys.b[0, 0])
    r = float(cost.r[0, 0])
    sz = float(noise.sigma_z[0, 0])
    return ScalarGapParams(
        alpha=b * b * k_last + r,
        beta=b * k_last * a,
        gamma=sz * a * a * p_last,
        kappa=sz / prior_var,
        c0=float(sys.c0[0, 0]),
        c1=float(sys.ck[0][0, 0]),
        x_hat0=x_hat0,
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
        raise ValueError("use LQG closed form (c1 = 0)")
    al, ka, ga = params.alpha, params.kappa, params.gamma
    d = params.c1 * params.beta * params.x_hat0 - params.c0 * params.alpha
    return np.array([al, d, 2.0 * ka * al, 2.0 * ka * d,
                     al * ka * ka - ga * params.c1 * params.c1, ka * ka * d])


def _is_real_root(roots):
    """The roots read as real: |imag| < REAL_ROOT_TOL (1 + |real|)."""
    return np.abs(roots.imag) < REAL_ROOT_TOL * (1.0 + np.abs(roots.real))


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
    roots = np.roots(gradient_polynomial_coefficients(params))
    real_mask = _is_real_root(roots)
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
    """Two-stage controller: first-stage global minimizers (all ties), the final-stage
    gain (u1 = u1_gain * x_hat, None if unknown) and whether the closed-form regime held."""

    u0_candidates: tuple
    u1_gain: float
    in_closed_form_regime: bool


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
    final-stage gain.

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
    _, tied = _minima(scalar_critical_points(params))
    candidates = []
    for u in sorted(tied):
        # collapse repeated roots of the same point (degenerate multiplicities)
        if not candidates or abs(u - candidates[-1]) > 1e-7 * (1.0 + abs(u)):
            candidates.append(u)
    return T2ControllerResult(u0_candidates=tuple(candidates), u1_gain=params.u1_gain,
                              in_closed_form_regime=in_regime)


@dataclass(frozen=True)
class BellmanObjectiveParams:
    """The stage objective at stage t <= T - 2 of a Riccati table (exact at T - 2, a
    one-step look-ahead earlier) for one belief, x_hat (n,) and prior_cov Sigma (n, n),
    or a stack, (R, n) and (R, n, n), checked by check_beliefs once x_hat has sys's n;
    sys's c0 and ck[k] (m, n) or per belief (R, m, n).  Its weights cal_a and cal_b are
    the table's, checked once by the recursion; cal_g = A'P_{t+1}A.  Stacked for one
    belief too (R = 1): cal_b_x_hat (R, p), trace_g = tr(Sigma cal_g) (R,) and blocks
    (R, p+1, -1), row l the m x m C_k Sigma C_l', C_k Sigma cal_g Sigma C_l' of C = (c0, *ck)."""

    tables: RiccatiTables
    t: int
    prior_cov: np.ndarray
    x_hat: np.ndarray
    sys: object
    noise: object

    def __post_init__(self):
        object.__setattr__(self, "t", count("stage", self.t, 0))
        if self.t > self.tables.horizon - 2:
            raise ValueError(f"stage {self.t} has no estimation-penalty objective")
        n, m, k = self.sys.a.shape[0], self.sys.m, self.sys.p + 1
        x_hat = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        if x_hat.shape[-1] != n:
            raise ValueError(f"x_hat length {x_hat.shape[-1]} != n = {n}")
        prior_cov = np.asarray(self.prior_cov, dtype=float)
        check_beliefs(x_hat, prior_cov)
        cal_g = symmetrize(self.sys.a.T @ self.tables.p_seq[self.t + 1] @ self.sys.a)
        covs = symmetrize(prior_cov).reshape(-1, n, n)
        c_all = np.concatenate([self.sys.c0, *self.sys.ck], axis=-2)
        if c_all.ndim == 3 and len(c_all) != len(covs):
            raise ValueError(f"per-belief c0/ck: {len(c_all)} stacked for {len(covs)} beliefs")
        c_cov = c_all @ covs                    # rows C_k Sigma, k = 0..p
        blocks = np.stack([c_cov @ c_all.swapaxes(-1, -2),
                           c_cov @ cal_g @ c_cov.swapaxes(-1, -2)], 1)
        blocks = blocks.reshape(len(covs), 2, k, m, k, m).transpose(0, 4, 2, 1, 3, 5)
        object.__setattr__(self, "cal_a", self.tables.cal_a_seq[self.t])
        object.__setattr__(self, "cal_b", self.tables.cal_b_seq[self.t])
        object.__setattr__(self, "cal_g", cal_g)
        object.__setattr__(self, "prior_cov", covs.reshape(prior_cov.shape))
        object.__setattr__(self, "x_hat", x_hat)
        object.__setattr__(self, "cal_b_x_hat", matvec(self.cal_b, x_hat.reshape(-1, n)))
        object.__setattr__(self, "trace_g", (covs @ cal_g).diagonal(0, -2, -1).sum(-1))
        object.__setattr__(self, "blocks", blocks.reshape(len(covs), k, -1))

    @property
    def u_lqg(self):
        """The certainty-equivalent action -cal_a^-1 cal_b x_hat, (p,) or (R, p)."""
        u = -chol_solve(self.cal_a, self.cal_b_x_hat[..., None])[..., 0]
        return u.reshape(self.x_hat.shape[:-1] + u.shape[-1:])


def _innovations(bp, u, runs):
    """The rows C_k Sigma C' and C_k Sigma cal_g Sigma C' contracted with (1, u),
    (..., p + 1, 2, m, m), S = C(u) Sigma C(u)' + sigma_z and N = C(u) Sigma cal_g
    Sigma C(u)', (..., m, m), at inputs u (..., p) under the beliefs runs: bp.blocks
    contracted with (1, u) twice."""
    (*lead, p), m = u.shape, bp.sys.m
    coef = np.concatenate([np.ones((*lead, 1)), u], -1)[..., None, :]
    rows = (coef @ bp.blocks[runs]).reshape(*lead, p + 1, 2, m, m)
    s_n = (coef @ rows.reshape(*lead, p + 1, -1)).reshape(*lead, 2, m, m)
    return rows, symmetrize(s_n[..., 0, :, :] + bp.noise.sigma_z), s_n[..., 1, :, :]


def _value(bp, u, runs, gain):
    """The stage objective given gain = tr(S^-1 N), and the summed magnitudes of its terms."""
    quad = quadratic(u, bp.cal_a)
    linear = 2.0 * (u[..., None, :] @ bp.cal_b_x_hat[runs][..., :, None])[..., 0, 0]
    trace_g = bp.trace_g[runs]
    return (quad + linear + trace_g - gain,
            np.abs(quad) + np.abs(linear) + np.abs(trace_g) + np.abs(gain))


def _stage_terms(bp, u, runs, derivatives=False):
    """The stage objective at inputs u (..., p) under the beliefs runs
    (broadcast against u), the summed magnitudes of its terms, and the one
    solve S^-1 N or, with derivatives (u (P, p)), S^-1 [N | I | dS/du_k | dN/du_k]."""
    (*lead, p), m = u.shape, bp.sys.m
    rows, s, n = _innovations(bp, u, runs)
    rhs = n
    if derivatives:                     # dS/du_k and dN/du_k, k = 1..p
        d = rows[:, 1:] + rows[:, 1:].swapaxes(-1, -2)
        rhs = np.empty((*lead, m, 2 * (p + 1) * m))
        rhs[..., :m], rhs[..., m:2 * m] = n, np.eye(m)
        rhs[..., 2 * m:] = d.transpose(0, 3, 2, 1, 4).reshape(*lead, m, -1)
    sol = chol_solve(s, rhs)
    return (*_value(bp, u, runs, sol[..., :m].diagonal(0, -2, -1).sum(-1)), sol)


# the design pass's closed form takes an S whose leading minors d_k are at least this
# share of s_11 ... s_kk; its cancellation grows as eps / d_k, and at this margin it
# stayed within 1e-13 of the solve (relative to the terms' magnitudes) on random stages
ADJUGATE_MARGIN = 1e-3


def _adjugate_trace(s, n):
    """tr(S^-1 N) as tr(adj(S) N) / det S for stacks of symmetric m x m S and of N
    (..., m, m), m <= 3, by cofactors, if Sylvester's criterion certifies every S PD
    with a margin: every s_ii > 0 and each leading minor d_k >= ADJUGATE_MARGIN
    s_11 ... s_kk, all finite; else None.  The test runs with overflow and invalid
    values unflagged (they fail it), so only certified S are divided by."""
    m = s.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if m == 1:
            adj = np.ones_like(s)
        elif m == 2:
            adj = np.stack([s[..., 1, 1], -s[..., 0, 1], -s[..., 1, 0], s[..., 0, 0]],
                           -1).reshape(s.shape)
        else:                           # adj_ij = the cofactor of s_ji
            i, j = np.indices((3, 3))
            adj = (s[..., (j + 1) % 3, (i + 1) % 3] * s[..., (j + 2) % 3, (i + 2) % 3]
                   - s[..., (j + 1) % 3, (i + 2) % 3] * s[..., (j + 2) % 3, (i + 1) % 3])
        det = (s[..., 0, :] * adj[..., :, 0]).sum(-1)
        bound = ADJUGATE_MARGIN * np.cumprod(s.diagonal(0, -2, -1), -1)
        # d_1, d_(m-1) (the cofactor of s_mm) and d_m: every leading minor at m <= 3
        leading = zip((1, m - 1, m), (s[..., 0, 0], adj[..., -1, -1], det))
        certified = ((s.diagonal(0, -2, -1) > 0.0).all() and np.isfinite(bound).all()
                     and all((minor >= bound[..., k - 1]).all() for k, minor in leading if k))
    return (adj * n.swapaxes(-1, -2)).sum((-2, -1)) / det if certified else None


def _design_values(bp, u, runs):
    """_stage_terms' values at the design points u (..., p), with the solve's
    tr(S^-1 N) taken by _adjugate_trace at m <= 3 where it certifies every S
    (the same within 1e-12 (1 + the summed magnitudes of the terms))."""
    gain = _adjugate_trace(*_innovations(bp, u, runs)[1:]) if bp.sys.m <= 3 else None
    return (_stage_terms(bp, u, runs) if gain is None else _value(bp, u, runs, gain))[0]


def bellman_objective_Tm2(bp, u):
    """Quadratic control cost plus the estimation penalty tr(I(u)^-1 cal_g),
    I(u) = Sigma^-1 + C(u)' sigma_z^-1 C(u) the filter's information matrix,
    in innovation form by the matrix inversion lemma: tr(Sigma cal_g) -
    tr(S^-1 N), S = C(u) Sigma C(u)' + sigma_z the innovation covariance and
    N = C(u) Sigma cal_g Sigma C(u)'.  Sigma need only be PSD (a singular one
    gives the limit of Sigma + eps I); the solves are m x m.

    Inputs (..., p) broadcast against a stack of beliefs (R,).  One input
    and one belief give a float, else an array, each value bit for bit its
    own single call."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    runs = np.arange(len(bp.blocks)).reshape(bp.x_hat.shape[:-1])
    u = np.ascontiguousarray(np.broadcast_to(
        u, np.broadcast_shapes(u.shape[:-1], runs.shape) + u.shape[-1:]))
    val = _stage_terms(bp, u, runs)[0]
    return float(val) if val.ndim == 0 else val


def _taylor(bp, u, runs):
    """The stage objective with a bound on its roundoff, and its gradient
    (P, p) and Hessian (P, p, p), at inputs u (P, p), input i under belief
    runs[i], from _stage_terms' one solve: X = S^-1 N, Y_k = S^-1 dS/du_k,
    Z_k = S^-1 dN/du_k, W = X S^-1, B_kl = C_k Sigma C_l', D_kl alike with
    Sigma cal_g Sigma, and each trace a vec(A) . vec(B'):
        g_k = 2 (cal_a u + cal_b x_hat)_k - tr(Z_k - Y_k X),
        H_kl = 2 cal_a_kl + 2 tr(Z_k Y_l) - 2 tr(Y_k X Y_l)
               - 2 tr(S^-1 D_kl) + 2 tr(W B_kl), symmetrized.
    f is a difference of terms that can be much larger than f, so the
    roundoff bound is 1e-14 (1 + the sum of their magnitudes)."""
    f, scale, sol = _stage_terms(bp, u, runs, derivatives=True)
    (points, p), m = u.shape, bp.sys.m
    x, s_inv = sol[..., :m], sol[..., m:2 * m]
    y, z = sol[..., 2 * m:].reshape(points, m, 2, p, m).transpose(2, 0, 3, 1, 4)
    z_yx = z - y @ x[:, None]
    # tr((Z_k - Y_k X) Y_l), the second and third terms of H_kl halved
    cross = (z_yx.reshape(points, p, -1)
             @ y.swapaxes(-1, -2).reshape(points, p, -1).swapaxes(-1, -2))
    weights = np.concatenate([-(x @ s_inv), s_inv], -2).reshape(points, -1, 1)
    blocks = bp.blocks[runs].reshape(points, p + 1, p + 1, -1)[:, 1:, 1:]
    curvature = (blocks.reshape(points, p * p, -1) @ weights).reshape(points, p, p)
    grad = (2.0 * (matvec(bp.cal_a, u) + bp.cal_b_x_hat[runs])
            - z_yx.diagonal(0, -2, -1).sum(-1))
    hess = symmetrize(2.0 * (bp.cal_a + cross - curvature))
    return f, 1e-14 * (1.0 + scale), grad, hess


def _damped_newton(bp, u, runs, cap):
    """Damped Newton from each start u[i] (P, p) under belief runs[i], steps
    capped at cap[i]; moves u in place.  A start stops once the decrease
    that its Newton step predicts (half the Newton decrement) is within the
    roundoff of f, after taking that step in full; once its line search
    (step lengths down to 1e-10) decreases f by no more than that roundoff;
    or after 100 iterations."""
    state = (u, *_taylor(bp, u, runs))
    _, f, roundoff, grad, hess = state
    active = np.arange(len(u))
    for _ in range(100):
        eig = np.linalg.eigvalsh(hess[active])
        shift = np.maximum(0.0, 1e-10 * (1.0 + np.abs(eig).max(-1)) - eig[:, 0])
        step = -chol_solve(hess[active] + shift[:, None, None] * np.eye(u.shape[1]),
                           grad[active, :, None])[..., 0]
        slope = (grad[active, None, :] @ step[..., None])[:, 0, 0]   # minus the decrement
        done = -0.5 * slope <= roundoff[active]
        u[active[done]] += step[done]
        active, step, slope = active[~done], step[~done], slope[~done]
        scale = cap[active] / np.maximum(np.linalg.norm(step, axis=1), cap[active])
        step, slope = step * scale[:, None], slope * scale
        todo, length, f_before = np.arange(len(active)), 1.0, f[active]
        while todo.size and length > 1e-10:         # Armijo backtracking
            points = active[todo]
            trial = u[points] + length * step[todo]
            new = (trial, *_taylor(bp, trial, runs[points]))
            ok = new[1] <= f[points] + 1e-4 * length * slope[todo]
            for old, value in zip(state, new):
                old[points[ok]] = value[ok]
            todo, length = todo[~ok], 0.5 * length
        active = active[f_before - f[active] > roundoff[active]]
        if not active.size:
            break
    return u


def unit_design(p):
    """Starting design on [-1, 1]^p: a grid of 51, 51^2 or 11^3 points for
    p <= 3, else the first 1000 points of the Kronecker (R_p) sequence."""
    if p <= 3:
        axis = np.linspace(-1.0, 1.0, (51, 51, 11)[p - 1])
        return np.stack(np.meshgrid(*[axis] * p, indexing="ij"), axis=-1).reshape(-1, p)
    phi = 2.0       # the positive root of x^(p+1) = x + 1, by fixed-point iteration
    for _ in range(100):
        phi = (1.0 + phi) ** (1.0 / (p + 1))
    return 2.0 * ((0.5 + np.arange(1, 1001)[:, None] / phi ** np.arange(1, p + 1)) % 1.0) - 1.0


# design points evaluated in one stacked call: a larger stack of beliefs is
# searched in parts, so memory does not grow with the number of beliefs.
# A part's temporaries (12 beliefs at p = 3, 6 at p = 2) stay near cache
# size; larger parts take more memory and no less time
DESIGN_BUDGET = 16_384


def _quintic_candidates(bp, u_lqg):
    """For m = p = 1: the five roots of each belief's stationarity quintic,
    (5, R, 1), from one stacked eigvals call.  The real part of a complex
    root (not _is_real_root, scalar_critical_points' rule too) is no
    critical point, so such a root is replaced by a real root of its belief;
    a real matrix of odd order has at least one.

    With s(u) = s0 + 2 s1 u + s2 u^2 the innovation variance (B blocks plus
    sigma_z) and n(u) = n0 + 2 n1 u + n2 u^2 alike from the D blocks,
    f = a u^2 + 2 b u + tr(Sigma cal_g) - n/s, a = cal_a, b = cal_b x_hat,
    and f'(u) s^2 / 2 is the quintic
        (a u + b) s^2 - [(n1 s0 - n0 s1) + (n2 s0 - n0 s2) u + (n2 s1 - n1 s2) u^2].
    s and n are divided by s0 + s2 first, so the coefficients stay in
    range.  If s2 = 0, Sigma PSD forces s1 = n1 = n2 = 0 and f is
    quadratic; that case, and a leading coefficient small enough to
    overflow the companion matrix, give u_lqg for all five roots.
    scalar_critical_points cannot serve: its ScalarGapParams form holds
    only where n is affine in s (n = Sigma g (s - sigma_z) at n = 1), so
    that n(u) has no linear term of its own."""
    beliefs = len(u_lqg)
    blocks = bp.blocks.reshape(beliefs, 2, 2, 2)    # [run, l, k, (B_kl, D_kl)]
    s_n = np.stack([blocks[:, 0, 0], 0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0]),
                    blocks[:, 1, 1]])               # (3, R, 2): s and n, ascending
    s_n[0, :, 0] += bp.noise.sigma_z[0, 0]
    s_n /= (s_n[0, :, 0] + s_n[2, :, 0])[:, None]
    (s0, n0), (s1, n1), (s2, n2) = s_n.transpose(0, 2, 1)
    a, b = bp.cal_a[0, 0], bp.cal_b_x_hat[:, 0]
    square = np.stack([s0 * s0, 4.0 * s0 * s1, 4.0 * s1 * s1 + 2.0 * s0 * s2,
                       4.0 * s1 * s2, s2 * s2])     # s^2, ascending
    coef = np.zeros((6, beliefs))
    coef[:5] += b * square
    coef[1:] += a * square
    coef[:3] -= [n1 * s0 - n0 * s1, n2 * s0 - n0 * s2, n2 * s1 - n1 * s2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = (coef[4::-1] / coef[5]).T
    exact = np.isfinite(monic).all(1)
    companion = np.zeros((beliefs, 5, 5))
    companion[:, 0] = -np.where(exact[:, None], monic, 0.0)
    companion[:, 1:, :-1] = np.eye(4)
    roots = np.linalg.eigvals(companion)
    real = _is_real_root(roots)
    roots = np.where(real, roots.real, roots.real[np.arange(beliefs), real.argmax(1), None])
    return np.where(exact[:, None], roots, u_lqg).T[..., None]


def _pick(u, f, slack, norm_tol):
    """Per belief, the candidate of u (K, R, p) with the lowest value f
    (K, R): values within slack of the lowest tie, and ties go to the
    smallest |u|, norms within norm_tol |u| of it counting as equal,
    then to the lexicographically most negative u.  Returns u (R, p) and f (R,)."""
    tied = f <= f.min(0) + slack
    norm = np.linalg.norm(u, axis=-1)
    small = np.where(tied, norm, np.inf).min(0)
    shortest = tied & (norm <= small * (1.0 + norm_tol))
    pick = np.lexsort((*u.transpose(2, 0, 1)[::-1], ~shortest), axis=0)[0]
    runs = np.arange(u.shape[1])
    return u[pick, runs], f[pick, runs]


def bellman_minimize_Tm2(bp):
    """Minimize the stage objective for one belief, or for each of a stack
    in one stacked call: globally for m = p = 1 (one output, one input),
    elsewhere as the best of several local solutions, a local guarantee only.

    The objective is nonconvex.  At m = p = 1 it is coercive (cal_a > 0 and
    n/s bounded), so a global minimizer is a real root of its stationarity
    quintic: every belief's real roots (_quintic_candidates) are evaluated
    in one call.  Values within f's roundoff, 1e-14 (1 + the summed
    magnitudes of its terms), tie; |u| within 1e-9 |u| count as equal, so
    that of a +-u pair whose roots differ in their last bits the negative
    wins.
    Elsewhere, unit_design, scaled to the box around the certainty-
    equivalent action u_lqg (half width max(3 |u_lqg|, 1)), is evaluated
    DESIGN_BUDGET design points at a time, in slices of the stack, which
    leaves every result's bits unchanged; a basin narrower than its spacing,
    or outside the box, can be missed.  Damped Newton (Hessian shifted to PD,
    steps capped at the half width, Armijo backtracking; Nocedal & Wright,
    ch. 3) runs from u_lqg and the 4 best design points, every start of every
    belief in one array per iteration; values within 1e-9 (1 + |f|) tie.
    Per belief the lowest value of bellman_objective_Tm2 wins; ties go to
    the smallest |u|, then to the lexicographically most negative u.
    Returns (u, f): (p,) and a float for one belief, (R, p) and (R,) for a
    stack.
    """
    u_lqg = bp.u_lqg.reshape(-1, bp.cal_a.shape[0])
    beliefs, p = u_lqg.shape
    runs = np.arange(beliefs)
    if p == 1 and bp.sys.m == 1:
        u = _quintic_candidates(bp, u_lqg)
        f, scale, _ = _stage_terms(bp, u, runs)
        slack, norm_tol = 1e-14 * (1.0 + scale), 1e-9
    else:
        design = unit_design(p)
        size = max(1, DESIGN_BUDGET // len(design))
        half = np.maximum(3.0 * np.linalg.norm(u_lqg, axis=1), 1.0)
        best = []
        for part in np.split(runs, range(size, beliefs, size)):
            grid = u_lqg[part] + half[part, None] * design[:, None]
            order = np.argsort(_design_values(bp, grid, part), axis=0, kind="stable")
            best.append(np.take_along_axis(grid, order[:4, :, None], 0))
        starts = np.concatenate([u_lqg[None], np.concatenate(best, 1)])
        owners = np.tile(runs, len(starts))         # the belief of each start
        u = _damped_newton(bp, starts.reshape(-1, p), owners, half[owners]).reshape(starts.shape)
        f = _stage_terms(bp, u, runs)[0]
        slack, norm_tol = 1e-9 * (1.0 + np.abs(f.min(0))), 0.0
    u, f = _pick(u, f, slack, norm_tol)
    return (u[0], float(f[0])) if bp.x_hat.ndim == 1 else (u, f)


@dataclass(frozen=True)
class AffineFalsificationReport:
    """Best affine fit to the first-stage policy over an estimate grid."""

    u_star: np.ndarray
    slope: float
    max_residual: float
    scale: float
    falsified: bool


def affine_falsification_test(params, x_hat_grid):
    """Fit u*(x_hat) with an affine map and report the worst residual.

    The minimizer branch is tracked continuously in x_hat starting from
    the positive branch, so residuals measure curvature of the policy,
    not branch jumps.  falsified is True when the residual exceeds
    1e-4 times the policy scale.
    """
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
    coef, *_ = np.linalg.lstsq(design, u_star, rcond=None)
    fit = design @ coef
    max_residual = float(np.abs(u_star - fit).max())
    scale = float(np.abs(u_star).max())
    return AffineFalsificationReport(
        u_star=u_star, slope=float(coef[0]), max_residual=max_residual, scale=scale,
        falsified=max_residual > 1e-4 * scale,
    )
