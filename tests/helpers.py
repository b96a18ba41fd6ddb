"""Independent reference implementations used as test oracles.

Everything here is deliberately coded on a different route from the
package (textbook predict/update filter with explicit inverses,
update-then-predict ordering) so agreement is a real cross-check.  The
exceptions are `per_step_lqg_rollout`, which repeats the package's own
arithmetic one run and one 2-d operation at a time, as a bit-for-bit
reference for the stacked engine, `reference_boundedness_probe`, the
covariance probe one BeliefState and one kf_step at a time, as a
bit-for-bit reference for the probe on the stacked step, and
`kalman_gain`, which reads the gain off one package filter step, and
`reference_gramian`, the observability test matrix one window and one
2-d block at a time, as a bit-for-bit reference for the stacked windows.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from bilq.control import bellman_objective_Tm2
from bilq.core import (BeliefState, chol_solve, min_eigenvalue, observation_matrix,
                       symmetrize)
from bilq.kalman import kf_step


def standard_riccati_gains(a, b, q, q_t, r, horizon):
    """Finite-horizon LQR feedback gains via a plain backward loop."""
    ks = [None] * (horizon + 1)
    gains = [None] * horizon
    ks[horizon] = np.asarray(q_t, dtype=float)
    for t in reversed(range(horizon)):
        kn = ks[t + 1]
        inner = np.linalg.inv(b.T @ kn @ b + r)
        gains[t] = -inner @ (b.T @ kn @ a)
        ks[t] = a.T @ kn @ a - a.T @ kn @ b @ inner @ b.T @ kn @ a + q
    return ks, gains


def standard_kf_update_predict(mean, cov, a, b, c, sigma_w, sigma_z, u, y):
    """Textbook filter step: measurement update, then time update."""
    innov = y - c @ mean
    s = c @ cov @ c.T + sigma_z
    gain = cov @ c.T @ np.linalg.inv(s)
    mean_f = mean + gain @ innov
    cov_f = (np.eye(cov.shape[0]) - gain @ c) @ cov
    mean_next = a @ mean_f + b @ u
    cov_next = a @ cov_f @ a.T + sigma_w
    return mean_next, cov_next


def kalman_gain(belief, sys, noise, u):
    """The filter's gain at input u, read off one kf_step."""
    return kf_step(belief, sys, noise, u, np.zeros(sys.m)).gain


def cov_update_information_form(cov, sys, noise, u):
    """Covariance propagation via A (S^-1 + C^T sigma_z^-1 C)^-1 A^T + sigma_w.

    Requires a strictly PD input covariance; an independent route (scipy's
    Cholesky solves) used to cross-check kf_step's direct form.
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    if min_eigenvalue(cov) <= 0.0:
        raise ValueError("information form requires PD covariance")
    c = observation_matrix(sys, u)
    info = symmetrize(cho_solve(cho_factor(cov), np.eye(sys.n))
                      + c.T @ cho_solve(cho_factor(symmetrize(noise.sigma_z)), c))
    inner = cho_solve(cho_factor(info), np.eye(sys.n))
    return symmetrize(sys.a @ inner @ sys.a.T + noise.sigma_w)


def standard_lqg_rollout(a, b, c, q, q_t, r, sigma_w, sigma_z, x0_mean,
                         sigma_0, horizon, stream):
    """Closed-loop LQG rollout with a time-invariant observation matrix.

    Consumes stream draws in the same order as the package rollout
    (initial state, then per step process noise then measurement noise)
    so seed-matched comparisons see identical noise realizations.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a.shape[0]
    m = c.shape[0]
    _, gains = standard_riccati_gains(a, b, q, q_t, r, horizon)

    chol0 = np.linalg.cholesky(sigma_0)
    x = x0_mean + chol0 @ stream.standard_normal(n)
    mean = np.asarray(x0_mean, dtype=float).copy()
    cov = np.asarray(sigma_0, dtype=float).copy()
    chol_w = np.linalg.cholesky(sigma_w)
    chol_z = np.linalg.cholesky(sigma_z)

    states = [x.copy()]
    inputs = []
    outputs = []
    means = [mean.copy()]
    covs = [cov.copy()]
    for t in range(horizon):
        u = gains[t] @ mean
        w = chol_w @ stream.standard_normal(n)
        z = chol_z @ stream.standard_normal(m)
        y = c @ x + z
        inputs.append(u.copy())
        outputs.append(y.copy())
        mean, cov = standard_kf_update_predict(mean, cov, a, b, c, sigma_w,
                                               sigma_z, u, y)
        x = a @ x + b @ u + w
        states.append(x.copy())
        means.append(mean.copy())
        covs.append(cov.copy())
    return {
        "states": np.array(states),
        "inputs": np.array(inputs),
        "outputs": np.array(outputs),
        "means": np.array(means),
        "covs": np.array(covs),
    }


def per_step_lqg_rollout(sys_, noise, cost, gains, perfect, init_mean, stream):
    """Certainty-equivalent rollout, one 2-d operation at a time.

    The package's arithmetic in its order (Cholesky noise factors; gain
    -(C S C' + Sz)^-1 C S A' by the package's 2-d chol_solve, in C order;
    covariance A S A' + L C S A' + Sw, symmetrized), with the draws x0,
    then w_t and z_t per step.  A bit-for-bit reference for the lockstep
    engine, which stacks these operations over runs; `init_mean` is the
    filter's initial mean, `gains` the package's Riccati gains.
    """
    def sym(s):
        return 0.5 * (s + s.T)

    a, b = sys_.a, sys_.b
    n, m = sys_.n, sys_.m
    x = noise.x0_mean + np.linalg.cholesky(noise.sigma_0) @ stream.standard_normal(n)
    mean, cov = np.array(init_mean, dtype=float), noise.sigma_0.copy()
    chol_w = np.linalg.cholesky(noise.sigma_w)
    chol_z = np.linalg.cholesky(noise.sigma_z)
    rows = {"states": [x], "inputs": [], "outputs": [], "means": [x if perfect else mean],
            "covs": [np.zeros((n, n)) if perfect else cov], "stage_costs": []}
    for gain_t in gains:
        u = gain_t @ (x if perfect else mean)
        w = np.zeros(n) + chol_w @ stream.standard_normal(n)
        z = np.zeros(m) + chol_z @ stream.standard_normal(m)
        c = sys_.c0.copy()
        for k in range(sys_.p):
            c = c + u[k] * sys_.ck[k]
        y = c @ x + z
        rows["inputs"].append(u)
        rows["outputs"].append(y)
        rows["stage_costs"].append(x @ cost.q @ x + u @ cost.r @ u)
        if not perfect:
            innov_cov = sym(c @ cov @ c.T + noise.sigma_z)
            gain = -np.ascontiguousarray(chol_solve(innov_cov, c @ cov @ a.T).T)
            mean = a @ mean + b @ u - gain @ (y - c @ mean)
            cov = sym(a @ cov @ a.T + gain @ c @ cov @ a.T + noise.sigma_w).copy()
        x = a @ x + b @ u + w
        rows["states"].append(x)
        rows["means"].append(x if perfect else mean)
        rows["covs"].append(np.zeros((n, n)) if perfect else cov)
    out = {key: np.array(val) for key, val in rows.items()}
    out["terminal_cost"] = x @ cost.q_t @ x
    return out


def reference_boundedness_probe(sys, noise, input_policy, horizon):
    """The covariance boundedness probe before it ran on the stacked step:
    one BeliefState advanced by kf_step per step, its spectral norm and
    trace taken per step.  input_policy(t, mean) as in the package's probe;
    returns (norms, traces, inputs).
    """
    belief = BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
    norms = np.empty(horizon + 1)
    traces = np.empty(horizon + 1)
    inputs = np.empty((horizon, sys.p))
    norms[0] = np.linalg.norm(belief.cov, 2)
    traces[0] = np.trace(belief.cov)
    for t in range(horizon):
        u = np.asarray(input_policy(t, belief.mean), dtype=float).reshape(-1)
        inputs[t] = u
        y_predicted = observation_matrix(sys, u) @ belief.mean
        belief = kf_step(belief, sys, noise, u, y_predicted).next_belief
        norms[t + 1] = np.linalg.norm(belief.cov, 2)
        traces[t + 1] = np.trace(belief.cov)
    return norms, traces, inputs


def reference_gramian(sys, inputs):
    """The observability test matrix of the first n inputs, one 2-d block
    at a time: symmetrize(sum over k < n of (C(u_k) A^k)^T (C(u_k) A^k))."""
    total, a_pow = 0, np.eye(sys.n)
    for u in inputs[:sys.n]:
        block = observation_matrix(sys, u) @ a_pow
        total = total + block.T @ block
        a_pow = sys.a @ a_pow
    return symmetrize(total)


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n))


def grid_local_minima(us, values):
    """Indices of strict interior local minima of a sampled function."""
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    return np.where(interior)[0] + 1


def dense_grid_oracle(sys, noise, inputs, outputs, grid=None):
    """Posterior moments of the latest predicted state from a dense grid.

    The package's grid oracle before its transition kernel became banded:
    the full points x points kernel on every step, a reference for the
    banded one.

    Scalar systems only.  Pushes a discretized density through the
    dynamics (convolution against the process-noise kernel) and the
    Gaussian output likelihoods, and returns the mean/variance of the
    resulting predicted posterior.  With no observations, returns the
    prior moments.  Raises "grid truncation" if posterior mass touches
    the grid boundary.
    """
    if not (sys.n == 1 and sys.m == 1 and sys.p == 1):
        raise ValueError("grid oracle requires a scalar system")
    a = float(sys.a[0, 0])
    b = float(sys.b[0, 0])
    sw = float(noise.sigma_w[0, 0])
    sz = float(noise.sigma_z[0, 0])
    mu0 = float(noise.x0_mean[0])
    v0 = float(noise.sigma_0[0, 0])
    inputs = [float(np.asarray(u).reshape(-1)[0]) for u in inputs]
    outputs = [float(np.asarray(y).reshape(-1)[0]) for y in outputs]
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must have equal length")
    if not inputs:
        return mu0, v0
    if sw <= 0.0:
        raise ValueError("grid oracle requires positive process noise")

    if grid is None:
        # envelope of the open-loop predictive moments, +/- 8 sigma
        mu, var = mu0, v0
        lo = mu - 8.0 * np.sqrt(var)
        hi = mu + 8.0 * np.sqrt(var)
        for u in inputs:
            mu = a * mu + b * u
            var = a * a * var + sw
            lo = min(lo, mu - 8.0 * np.sqrt(var))
            hi = max(hi, mu + 8.0 * np.sqrt(var))
        points = 4001
    else:
        lo, hi, points = float(grid[0]), float(grid[1]), int(grid[2])
    xs = np.linspace(lo, hi, points)
    dx = xs[1] - xs[0]

    def normalized(rho):
        rho = rho / (rho.sum() * dx)
        if (rho[0] + rho[-1]) * dx > 1e-6:
            raise ValueError("grid truncation")
        return rho

    density = normalized(np.exp(-0.5 * (xs - mu0) ** 2 / v0))
    shift = xs[:, None] - a * xs[None, :]
    kernel = np.empty_like(shift)
    for u, y in zip(inputs, outputs):
        c = float(observation_matrix(sys, [u])[0, 0])
        density = normalized(density * np.exp(-0.5 * (y - c * xs) ** 2 / sz))
        # exp(-0.5 * (shift - b u)^2 / sw), one operation at a time in one buffer
        np.subtract(shift, b * u, out=kernel)
        np.square(kernel, out=kernel)
        np.multiply(-0.5, kernel, out=kernel)
        np.divide(kernel, sw, out=kernel)
        np.exp(kernel, out=kernel)
        density = normalized(kernel @ density * dx / np.sqrt(2.0 * np.pi * sw))
    mean = float((xs * density).sum() * dx)
    var = float(((xs - mean) ** 2 * density).sum() * dx)
    return mean, var


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


def reference_minimize_Tm2(bp):
    """The package's stage minimizer before it became a stacked Newton
    search: a reference for it on one belief.

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
