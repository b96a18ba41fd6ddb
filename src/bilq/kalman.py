"""Kalman filtering with an input-dependent observation matrix.

The gain here carries a leading minus sign and the mean update subtracts
gain times innovation; the covariance recursion is the matching
``A S A^T + L C S A^T + sigma_w`` form, symmetrized after evaluation.
Beside the filter sits a grid Bayes oracle for scalar systems whose
transition kernel is banded at 8 sigma of process noise: O(points x band)
per step, not O(points^2).
"""

from dataclasses import dataclass

import numpy as np

from .core import (BeliefState, check_beliefs, chol_solve, matvec,
                   observation_matrix, raise_first_failure, symmetrize)

COND_LIMIT = 1e14


@dataclass(frozen=True)
class KalmanStep:
    """One filter step: gain, innovation, and the next predicted belief."""

    gain: np.ndarray
    innovation: np.ndarray
    next_belief: BeliefState


def _advance(means, covs, sys, noise, inputs, outputs):
    """kf_step_batch's arithmetic without the next-belief checks: gains
    -A S C^T (C S C^T + sigma_z)^(-1), innovations, next means and covs.

    Each innovation covariance must be PD with condition number at most
    COND_LIMIT, else BatchCheckError names the first one that is not.
    """
    cs = observation_matrix(sys, inputs)
    innov_cov = symmetrize(cs @ covs @ cs.swapaxes(-1, -2) + noise.sigma_z)
    vals = np.linalg.eigvalsh(innov_cov)
    low, high = vals.min(axis=-1), vals.max(axis=-1)
    cond = np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0.0)
    raise_first_failure(cond > COND_LIMIT, "innovation covariance singular",
                        lambda i: f"condition number {cond[i]:.3e}")
    # solve for (innov_cov)^(-1) C S A^T, then transpose; keeps the solve SPD
    sol = chol_solve(innov_cov, cs @ covs @ sys.a.T)
    gains = -np.ascontiguousarray(sol.swapaxes(-1, -2))
    innovations = outputs - matvec(cs, means)
    means_next = (matvec(sys.a, means) + matvec(sys.b, inputs)
                  - matvec(gains, innovations))
    covs_next = symmetrize(sys.a @ covs @ sys.a.T
                           + gains @ cs @ covs @ sys.a.T
                           + noise.sigma_w)
    return gains, innovations, means_next, covs_next


def kf_step_batch(means, covs, sys, noise, inputs, outputs):
    """Advance R predicted beliefs, means (R, n) and covs (R, n, n), through
    one input/output pair each, inputs (R, p) and outputs (R, m).

    Every check of kf_step runs on all R at once: innovation covariance
    conditioning (see _advance), then finite, symmetric and PSD next
    beliefs (see check_beliefs); a failure raises BatchCheckError naming
    the first failing entry.  Returns (gains, innovations, next means,
    next covs); entry i is bit for bit what kf_step gives on belief i.
    """
    gains, innovations, means_next, covs_next = _advance(
        means, covs, sys, noise, inputs, outputs)
    check_beliefs(means_next, covs_next)
    return gains, innovations, means_next, covs_next


def kf_step(belief, sys, noise, u, y):
    """Advance the predicted belief through one input/output pair: the
    stacked step on a batch of one, its next-belief checks made by
    BeliefState."""
    u = np.asarray(u, dtype=float).reshape(1, -1)
    y = np.asarray(y, dtype=float).reshape(1, -1)
    gains, innovations, means, covs = _advance(
        belief.mean[None], belief.cov[None], sys, noise, u, y)
    return KalmanStep(gain=gains[0], innovation=innovations[0],
                      next_belief=BeliefState(mean=means[0], cov=covs[0]))


def grid_bayes_oracle(sys, noise, inputs, outputs, grid=None):
    """Posterior moments of the latest predicted state from a uniform grid.

    Scalar systems only.  Pushes a discretized density through the dynamics
    (a transition kernel banded at 8 sigma of process noise: terms below
    exp(-32) of its peak dropped) and the Gaussian output likelihoods, and
    returns the mean/variance of the resulting predicted posterior.  With no
    observations, returns the prior moments.  Raises "grid truncation" if
    posterior mass touches the grid boundary.
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
    if not np.isfinite(inputs + outputs).all():
        raise ValueError("grid oracle requires finite inputs and outputs")
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
        if not (np.isfinite([lo, hi]).all() and lo < hi and points >= 3):
            raise ValueError("grid oracle requires a finite grid lo < hi, points >= 3")
    xs = np.linspace(lo, hi, points)
    dx = xs[1] - xs[0]

    def normalized(rho):
        rho = rho / (rho.sum() * dx)
        if not (rho[0] + rho[-1]) * dx <= 1e-6:  # NaN: all mass left the grid
            raise ValueError("grid truncation")
        return rho

    # column j reaches the rows within 8 sigma_w of a x_j + b u: `width` rows
    # from starts[j], moved inward at the grid edges; about 2^16 entries a block
    half = 8.0 * np.sqrt(sw)
    width = int(min(np.ceil(2.0 * half / dx) + 2.0, points))
    windows = np.lib.stride_tricks.sliding_window_view(xs, width)
    density = normalized(np.exp(-0.5 * (xs - mu0) ** 2 / v0))
    for u, y in zip(inputs, outputs):
        c = float(observation_matrix(sys, [u])[0, 0])
        density = normalized(density * np.exp(-0.5 * (y - c * xs) ** 2 / sz))
        starts = np.ceil((a * xs + b * u - half - lo) / dx).clip(0, points - width).astype(int)
        pushed = np.zeros(points)
        for cols in np.array_split(np.arange(points), max(1, points * width // 2 ** 16)):
            kernel = np.exp(-0.5 * (windows[starts[cols]] - a * xs[cols, None] - b * u) ** 2 / sw)
            pushed += np.bincount((starts[cols, None] + np.arange(width)).ravel(),
                                  (kernel * density[cols, None]).ravel(), points)
        density = normalized(pushed * dx / np.sqrt(2.0 * np.pi * sw))
    mean = float((xs * density).sum() * dx)
    var = float(((xs - mean) ** 2 * density).sum() * dx)
    return mean, var
