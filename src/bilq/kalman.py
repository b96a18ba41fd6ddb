"""Kalman filtering with an input-dependent observation matrix.

The gain here carries a leading minus sign and the mean update subtracts
gain times innovation; the covariance recursion is the matching
``A S A^T + L C S A^T + sigma_w`` form, symmetrized after evaluation.
closed_loop runs it with plant and policy over steps, its checks stacked over blocks;
it builds the runs' histories from their first slot and returns them.
The checks prove definiteness by Cholesky, with eigvalsh (whose verdicts they give)
where that fails; so the gain is one LU solve with the innovation covariance.
Beside the filter sits a grid Bayes oracle for scalar systems.  Its kernel, cut
at 8 sigma, is K Hermite terms convolved by blocked FFTs (the fast Gauss transform
of Greengard & Strain, 1991): O(points x K) per step plus FFTs, not O(points^2).
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (EPS, BatchCheckError, BeliefState, _as_array, _numbers, check_beliefs,
                   cholesky_certified, grid_points, matvec, observation_matrix,
                   raise_first_failure, real, symmetrize)

COND_LIMIT = 1e14
CHECK_BLOCK = 25  # steps per closed_loop check; vs 4, 2 vCPUs: monte_carlo wall_s -4%, RSS +0.7%


@dataclass(frozen=True)
class KalmanStep:
    """One filter step: gain, innovation, and the next predicted belief."""

    gain: np.ndarray
    innovation: np.ndarray
    next_belief: BeliefState


def _innovation_cov(cs_covs, noise, cs):  # cs_covs: C S
    return symmetrize(cs_covs @ cs.swapaxes(-1, -2) + noise.sigma_z)


def _check_step(innov_cov, means=None, covs=None):
    """Innovation covariances S (R, m, m) finite, PD, condition number <= COND_LIMIT;
    check_beliefs if given.  A Cholesky of S / s - c I, s = max |S_ij|, c =
    10 m / COND_LIMIT + m (m + 3) EPS (twice its error), proves lambda_min(S)
    >= 10 m s / COND_LIMIT >= lambda_max(S) * 10 / COND_LIMIT; eigvalsh otherwise."""
    raise_first_failure(~np.isfinite(innov_cov).all(axis=(-2, -1)),
                        "innovation covariance has non-finite entries")
    m, scale = innov_cov.shape[-1], np.abs(innov_cov).max(axis=(-2, -1))
    fit = scale > 0.0
    c = 10.0 * m / COND_LIMIT + m * (m + 3) * EPS
    rest = ~cholesky_certified(innov_cov[fit] / scale[fit, None, None] - c * np.eye(m), fit)
    if rest.any():
        vals, cond = np.linalg.eigvalsh(innov_cov[rest]), np.zeros(len(innov_cov))
        low, high = vals.min(axis=-1), vals.max(axis=-1)
        cond[rest] = np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0.0)
        raise_first_failure(cond > COND_LIMIT, "innovation covariance singular",
                            lambda i: f"condition number {cond[i]:.3e}")
    if means is not None:
        check_beliefs(means, covs)


def _advance(means, covs, sys, noise, inputs, outputs, cs, cs_covs, innov_cov):
    """kf_step_batch's arithmetic without its checks, cs_covs = C S: gains
    -A S C^T (C S C^T + sigma_z)^(-1), innovations, next means and covs."""
    # (innov_cov)^(-1) C S A^T by LU, transposed; the checks prove innov_cov PD
    sol = np.linalg.solve(innov_cov, cs_covs @ sys.a.T)
    gains = -np.ascontiguousarray(sol.swapaxes(-1, -2))
    innovations = outputs - matvec(cs, means)
    means_next = (matvec(sys.a, means) + matvec(sys.b, inputs)
                  - matvec(gains, innovations))
    covs_next = symmetrize(sys.a @ covs @ sys.a.T
                           + gains @ cs @ covs @ sys.a.T
                           + noise.sigma_w)
    return gains, innovations, means_next, covs_next


def _rows(values, name, beliefs, width, letter):
    """values as core._as_array reads a matrix (numbers, all finite), (beliefs, width)."""
    values = _as_array(values, name)
    if values.shape != (beliefs, width):
        length = values.shape[1]
        raise ValueError(f"{name} length {length} != {letter} = {width}" if length != width else
                         f"{name}s shape {values.shape} != (R, {letter}) = ({beliefs}, {width})")
    return values


def _step(means, covs, sys, noise, inputs, outputs):
    """kf_step_batch without its check of the next beliefs."""
    inputs = _rows(inputs, "input", len(means), sys.p, "p")
    outputs = _rows(outputs, "output", len(means), sys.m, "m")
    cs = observation_matrix(sys, inputs)
    cs_covs = cs @ covs
    innov_cov = _innovation_cov(cs_covs, noise, cs)
    _check_step(innov_cov)
    return _advance(means, covs, sys, noise, inputs, outputs, cs, cs_covs, innov_cov)


def kf_step_batch(means, covs, sys, noise, inputs, outputs):
    """Advance R predicted beliefs, means (R, n) and covs (R, n, n), through one
    input/output pair each, inputs (R, p) and outputs (R, m) of finite numbers,
    observed through C(u) of each input (per belief when sys holds stacks c0 and
    ck[k], (R, m, n)); _check_step's checks run on all R at once, a failure raising
    BatchCheckError naming the first failing entry.  Returns (gains, innovations,
    next means, next covs), entry i bit for bit kf_step's on belief i."""
    result = _step(means, covs, sys, noise, inputs, outputs)
    check_beliefs(*result[2:])
    return result


def kf_step(belief, sys, noise, u, y):
    """Advance the predicted belief through one input/output pair:
    kf_step_batch on a stack of one belief, whose next belief BeliefState checks."""
    gains, innovations, means, covs = _step(
        belief.mean[None], belief.cov[None], sys, noise, _numbers(u, "input").reshape(1, -1),
        _numbers(y, "output").reshape(1, -1))
    return KalmanStep(gain=gains[0], innovation=innovations[0],
                      next_belief=BeliefState(mean=means[0], cov=covs[0]))


def _at(where, step, check, *args):
    try:
        check(*args)
    except BatchCheckError as exc:
        raise exc.localized(where(step, exc.index)) from exc


def _check_pending(pending, where):
    """kf_step_batch's checks on pending, {step: _check_step's args}, emptied first:
    all at once, unless a step's arithmetic raised; a failure is replayed step by step."""
    steps = list(pending.items())
    pending.clear()
    try:
        if steps and len(steps[-1][1]) == 3:
            return _check_step(*map(np.concatenate, zip(*(args for _, args in steps))))
    except ValueError:  # LinAlgError too
        pass
    for step, args in steps:
        _at(where, step, _check_step, *args)


def closed_loop(system, noise, states0, prior, act, w, z, where):
    """R closed-loop runs on system and noise over T steps, w (R, T, n) and z (R, T, m)
    their noises: returns their histories, states and means (R, T + 1, n), covs
    (R, T + 1, n, n), inputs (R, T, p) and outputs (R, T, m), beside system and noise.
    Slot 0 holds states0 and prior = (means0, covs0); with prior None the means are the
    states and the covs stay zero.  Step t takes u_t = act(run, t), which reads slot t,
    emits C(u_t) x_t + z_t, runs the filter's step from slot t to t + 1 unless prior is
    None, and sets x_{t+1} = A x_t + B u_t + w_t.
    kf_step_batch's checks run on the prior, then stacked over the steps x runs of each
    CHECK_BLOCK steps, at a non-finite belief (no step runs on one) and after the loop,
    also before any of its exceptions propagates.  A failure, replayed step by step,
    raises what per-step checks raise first: "<check>: <where(step, index)>[, <detail>]",
    also for an indefinite innovation covariance that a step's LU solve took."""
    (R, T, n), pending = w.shape, {}
    states, covs = np.empty((R, T + 1, n)), np.zeros((R, T + 1, n, n))
    means = states if prior is None else np.empty((R, T + 1, n))
    run = SimpleNamespace(system=system, noise=noise, states=states, means=means, covs=covs,
                          inputs=np.empty((R, T, system.p)), outputs=np.empty((R, T, system.m)))
    states[:, 0] = states0
    if prior is not None:
        means[:, 0], covs[:, 0] = prior
        _at(where, 0, check_beliefs, means[:, 0], covs[:, 0])
    try:
        for t in range(T):
            x = states[:, t]
            run.inputs[:, t] = u = act(run, t)
            cs = observation_matrix(system, u)
            run.outputs[:, t] = y = matvec(cs, x) + z[:, t]
            if prior is not None:
                cs_covs = cs @ covs[:, t]
                pending[t] = (_innovation_cov(cs_covs, noise, cs),)  # checked if the solve raises
                means[:, t + 1], covs[:, t + 1] = _advance(means[:, t], covs[:, t], system, noise,
                                                           u, y, cs, cs_covs, pending[t][0])[2:]
                belief = means[:, t + 1], covs[:, t + 1]  # views: pending holds no copy
                pending[t] += belief
                if len(pending) == CHECK_BLOCK or not all(np.isfinite(v).all() for v in belief):
                    _check_pending(pending, where)
            states[:, t + 1] = matvec(system.a, x) + matvec(system.b, u) + w[:, t]
    finally:
        _check_pending(pending, where)  # before any failure of the loop: an earlier step's first
    return run


def _hermite_kernel(step):
    """exp(-(t - h)^2 / 2) at t = d step, |d| <= band = ceil(8 / step) + 1, as
    rows k of exp(-t^2 / 2) He_k(t) / sqrt(k!), each weighted by h^k / sqrt(k!);
    at |h| <= step / 2 term k is at most 1.09 (step / 2)^k / sqrt(k!) of the
    peak (Cramer's inequality), and rows stop where that falls to 1e-17."""
    band = int(np.ceil(8.0 / step)) + 1
    t = np.arange(-band, band + 1) * step
    rows, bound = [0.0 * t, np.exp(-0.5 * t * t)], 1.09 * (0.5 * step)
    while bound > 1e-17:
        k = len(rows) - 1
        rows.append((t * rows[-1] - np.sqrt(k - 1) * rows[-2]) / np.sqrt(k))
        bound *= 0.5 * step / np.sqrt(k + 1)
    return band, np.array(rows[1:])  # without the zero row that seeds the recurrence


def grid_bayes_oracle(sys, noise, inputs, outputs, grid=None):
    """Posterior moments of the latest predicted state from a uniform grid.

    Scalar systems only.  Pushes a discretized density through the Gaussian
    output likelihoods and the dynamics (kernel cut at 8 sigma of process
    noise, its Hermite terms below 1e-17 of its peak: see _hermite_kernel)
    and returns the predicted posterior's mean/variance, at O(points x K)
    per step for K terms plus FFTs.  With no observations, returns the prior
    moments (sigma_0 >= 0).  Raises "grid truncation" if posterior mass touches the grid boundary;
    the variances must be positive, the grid step at most 8 sigma of process noise.
    """
    if not (sys.n == 1 and sys.m == 1 and sys.p == 1):
        raise ValueError("grid oracle requires a scalar system")
    a = float(sys.a[0, 0])
    b = float(sys.b[0, 0])
    sw = float(noise.sigma_w[0, 0])
    sz = float(noise.sigma_z[0, 0])
    mu0 = float(noise.x0_mean[0])
    v0 = float(noise.sigma_0[0, 0])
    inputs = [real(u, "input") for u in inputs]
    outputs = [real(y, "output") for y in outputs]
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must have equal length")
    if not np.isfinite(inputs + outputs).all():
        raise ValueError("grid oracle requires finite inputs and outputs")
    if not inputs:
        if v0 < 0.0:
            raise ValueError("grid oracle requires nonnegative prior variance")
        return mu0, v0
    for name, value in (("process noise", sw), ("measurement noise", sz), ("prior variance", v0)):
        if value <= 0.0:
            raise ValueError(f"grid oracle requires positive {name}")

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
        lo, hi, points = grid_points(grid, 3, "grid oracle")
    xs, dx = np.linspace(lo, hi, points, retstep=True)  # xs[1] - xs[0] is off by ~1e-12
    step = dx / np.sqrt(sw)
    if step > 8.0:  # beyond, Hermite terms outgrow the kernel by over exp(4)
        raise ValueError("grid oracle requires a grid step at most 8 sigma_w")

    def normalized(rho):
        rho = rho / (rho.sum() * dx)
        if not (rho[0] + rho[-1]) * dx <= 1e-6:  # NaN: all mass left the grid
            raise ValueError("grid truncation")
        return rho

    # cells -band .. points - 1 + band in blocks of `width`: a block and the kernel
    # fill nfft >= 8 band, spilling into the next block only, so roundoff stays local
    band, kernel = _hermite_kernel(step)
    terms = len(kernel)
    nfft = 1 << (8 * band - 1).bit_length()
    width = nfft - 2 * band
    blocks = -(-(points + 2 * band) // width)
    spectrum = np.fft.rfft(kernel, nfft)
    density = normalized(np.exp(-0.5 * (xs - mu0) ** 2 / v0))
    for u, y in zip(inputs, outputs):
        c = float(observation_matrix(sys, [u])[0, 0])
        density = normalized(density * np.exp(-0.5 * (y - c * xs) ** 2 / sz))
        # a x_j + b u = cell + h sigma_w with |h| <= step / 2; coefs: rho_j h^k / sqrt(k!)
        offsets = (a * xs + b * u - lo) / dx
        cells = np.rint(offsets)
        keep = (cells >= -band) & (cells < points + band)
        lane, shift = cells[keep].astype(int) + band, (offsets - cells)[keep] * step
        # term by term, in order: a term's coefs are the last term's times h step / sqrt(k);
        # their lane's transform times the term's kernel row adds to the total
        for k in range(terms):
            coef = coef * (shift / np.sqrt(k)) if k else density[keep]
            term = np.fft.rfft(np.bincount(lane, coef, blocks * width).reshape(blocks, width),
                               nfft) * spectrum[k]
            total = total + term if k else term
        spread = np.fft.irfft(total, nfft)
        spread[1:, :2 * band] += spread[:-1, width:]  # the last spill is past the grid
        density = normalized(spread[:, :width].ravel()[2 * band:2 * band + points])
    mean = float((xs * density).sum() * dx)
    var = float(((xs - mean) ** 2 * density).sum() * dx)
    return mean, var
