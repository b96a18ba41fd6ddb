"""Independent reference implementations used as test oracles.

Everything here is deliberately coded on a different route from the
package (textbook predict/update filter with explicit inverses,
update-then-predict ordering) so agreement is a real cross-check.  The
exceptions are `per_step_lqg_rollout`, which repeats the package's own
arithmetic one run and one 2-d operation at a time, as a bit-for-bit
reference for the stacked engine, `reference_boundedness_probe`, the
covariance probe one BeliefState and one kf_step at a time, as a
bit-for-bit reference for the probe on the stacked step,
`per_step_probe_covs` and `reference_simulate`, the probe's loop and the
lockstep engine with the filter's checks made in each step, as references
for their results and failure messages, `kalman_gain`, which reads the
gain off one package filter step, `reference_gramian`, the
observability test matrix one window and one 2-d block at a time, as a
bit-for-bit reference for the stacked windows, and `reference_metric` and
`reference_trajectory_csv`, the metric series and trajectory CSV one
record at a time, as bit-for-bit references for the stacked metric table,
and `reference_check_step` and `reference_check_beliefs`, the filter's
checks by eigenvalues alone, as references for the Cholesky-certified
checks' verdicts and messages.
"""

import itertools
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import bilq.kalman
import bilq.sim as sim
from bilq.control import bellman_objective_Tm2, riccati_recursion
from bilq.core import (PSD_TOL, SYM_TOL, BatchCheckError, BeliefState, check_beliefs,
                       chol_solve, gaussian_draws, matvec, min_eigenvalue, normal_tape,
                       observation_matrix, quadratic, raise_first_failure, symmetrize)
from bilq.kalman import COND_LIMIT, kf_step, kf_step_batch


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


def information_form_taylor(bp, u, belief=0):
    """The stage objective, its gradient and its Hessian at one input u (p,)
    under belief `belief` of bp, in information form: with
    I(u) = Sigma^-1 + C(u)' sigma_z^-1 C(u), M = I(u)^-1, W = M cal_g M,
    I_k = dI/du_k and I_kl = d2I/du_k du_l (scipy's Cholesky solves),
        f = u' cal_a u + 2 u' cal_b x_hat + tr(M cal_g),
        g_k = 2 (cal_a u + cal_b x_hat)_k - tr(I_k W),
        H_kl = 2 cal_a_kl + 2 tr(I_k M I_l W) - tr(I_kl W),
    and the summed magnitudes of H's three terms, which can be far larger
    than H.  Needs a PD Sigma; an independent route to the package's
    innovation form."""
    u = np.asarray(u, dtype=float)
    cov = bp.prior_cov.reshape(-1, *bp.prior_cov.shape[-2:])[belief]
    x_hat = bp.x_hat.reshape(-1, bp.x_hat.shape[-1])[belief]
    n = cov.shape[0]
    c = observation_matrix(bp.sys, u)
    sz_inv = cho_solve(cho_factor(bp.noise.sigma_z), np.eye(bp.sys.m))
    info = cho_solve(cho_factor(cov), np.eye(n)) + c.T @ sz_inv @ c
    m = cho_solve(cho_factor(info), np.eye(n))
    w = m @ bp.cal_g @ m
    i_k = [ck.T @ sz_inv @ c + c.T @ sz_inv @ ck for ck in bp.sys.ck]
    i_kl = [[ck.T @ sz_inv @ cl + cl.T @ sz_inv @ ck for cl in bp.sys.ck] for ck in bp.sys.ck]
    grad = 2.0 * (bp.cal_a @ u + bp.cal_b @ x_hat) - np.array([np.trace(ik @ w) for ik in i_k])
    cross = np.array([[2.0 * np.trace(ik @ m @ il @ w) for il in i_k] for ik in i_k])
    second = np.array([[np.trace(ikl @ w) for ikl in row] for row in i_kl])
    f = u @ bp.cal_a @ u + 2.0 * u @ bp.cal_b @ x_hat + np.trace(m @ bp.cal_g)
    return (f, grad, 2.0 * bp.cal_a + cross - second,
            2.0 * np.abs(bp.cal_a) + np.abs(cross) + np.abs(second))


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


def per_step_probe_covs(sys, noise, input_policy, horizon):
    """The covariance probe's loop with every filter check made in its step:
    one kf_step_batch per step on a stack of one, a failure localized as it
    happens.  Returns (covs (horizon + 1, n, n), inputs); its messages are
    the ones the probe must raise."""
    means = noise.x0_mean[None]
    covs = np.empty((horizon + 1, sys.n, sys.n))
    covs[0] = noise.sigma_0
    inputs = np.empty((horizon, sys.p))
    t = 0
    try:
        check_beliefs(means, covs[:1])
        for t in range(horizon):
            inputs[t] = np.asarray(input_policy(t, means[0]), dtype=float).reshape(-1)
            u = inputs[t:t + 1]
            cs = observation_matrix(sys, u)
            _, _, means, cov_next = kf_step_batch(means, covs[t:t + 1], sys, noise,
                                                  u, matvec(cs, means))
            covs[t + 1] = cov_next[0]
    except BatchCheckError as exc:
        raise exc.localized(f"step {t}") from exc
    return covs, inputs


def reference_simulate(group, streams, labels):
    """The lockstep engine with every filter check made in its step: one
    kf_step_batch per step, a failure localized as it happens.  Arguments
    and result as bilq.sim._simulate's, the Riccati table built afresh; a
    bit-for-bit reference for the engine's checks made per block of steps,
    its messages the ones the engine must raise.
    """
    shared, noise, cost, policy = (group[0].system, group[0].noise, group[0].cost,
                                   group[0].policy)
    T = group[0].horizon
    act = sim.POLICIES[policy.kind]
    n, m, p = shared.n, shared.m, shared.p
    R = len(streams)
    N = R * len(group)
    config_of, stream_of = np.divmod(np.arange(N), R)
    # the group's system: shared a and b, each run's own c0 and ck[k]
    sys = SimpleNamespace(a=shared.a, b=shared.b, m=m, p=p,
                          c0=np.stack([c.system.c0 for c in group])[config_of],
                          ck=tuple(np.stack(ck)[config_of]
                                   for ck in zip(*(c.system.ck for c in group), strict=True)))
    names = [f"{labels[v]}run {streams[r].stream_id}" for v, r in zip(config_of, stream_of)]
    tape = normal_tape(streams, [n] + [n, m] * T)[stream_of]
    step_normals = tape[:, n:].reshape(N, T, n + m)
    w = gaussian_draws(np.zeros(n), noise.sigma_w, step_normals[..., :n])
    z = gaussian_draws(np.zeros(m), noise.sigma_z, step_normals[..., n:])
    filtered = policy.kind != "perfect_state_lqr"
    states = np.empty((N, T + 1, n))
    inputs = np.empty((N, T, p))
    outputs = np.empty((N, T, m))
    tables = riccati_recursion(cost, shared, T)
    batch = SimpleNamespace(system=sys, noise=noise, states=states,
                            means=np.empty((N, T + 1, n)) if filtered else states,
                            covs=np.zeros((N, T + 1, n, n)), inputs=inputs, outputs=outputs)
    states[:, 0] = gaussian_draws(noise.x0_mean, noise.sigma_0, tape[:, :n])
    if filtered:
        if policy.init_estimate == "sampled_from_prior":
            init = normal_tape([s.substream(sim.INIT_ESTIMATE_SUBSTREAM) for s in streams], [n])
            batch.means[:, 0] = gaussian_draws(noise.x0_mean, noise.sigma_0, init[stream_of])
        else:
            batch.means[:, 0] = noise.x0_mean
        batch.covs[:, 0] = noise.sigma_0
        try:
            check_beliefs(batch.means[:, 0], batch.covs[:, 0])
        except BatchCheckError as exc:
            raise exc.localized(f"{names[exc.index]}, step 0") from exc

    stage_costs = np.empty((N, T))
    for t in range(T):
        x = states[:, t]
        try:
            u = np.asarray(act(tables, batch, t), dtype=float).reshape(N, p)
        except ValueError as exc:
            raise ValueError(f"{policy.kind} decision failed: {''.join(labels)}step {t}, "
                             f"{exc}") from exc
        cs = observation_matrix(sys, u)
        y = matvec(cs, x) + z[:, t]
        inputs[:, t] = u
        outputs[:, t] = y
        stage_costs[:, t] = quadratic(x, cost.q) + quadratic(u, cost.r)
        if filtered:
            try:
                _, _, batch.means[:, t + 1], batch.covs[:, t + 1] = kf_step_batch(
                    batch.means[:, t], batch.covs[:, t], sys, noise, u, y)
            except BatchCheckError as exc:
                raise exc.localized(f"{names[exc.index]}, step {t}") from exc
        states[:, t + 1] = matvec(sys.a, x) + matvec(sys.b, u) + w[:, t]

    terminal_costs = quadratic(states[:, T], cost.q_t)
    return tuple(sim.TrajectoryRecord(states=states[r], inputs=inputs[r],
                                      outputs=outputs[r], means=batch.means[r],
                                      covs=batch.covs[r], stage_costs=stage_costs[r],
                                      terminal_cost=float(terminal_costs[r]))
                 for r in range(N))


def reference_check_step(innov_cov, means=None, covs=None):
    """bilq.kalman._check_step by eigvalsh alone, as it was before its
    Cholesky certificate: innovation covariances finite, then PD with condition
    number <= COND_LIMIT, then reference_check_beliefs if given."""
    raise_first_failure(~np.isfinite(innov_cov).all(axis=(-2, -1)),
                        "innovation covariance has non-finite entries")
    vals = np.linalg.eigvalsh(innov_cov)
    low, high = vals.min(axis=-1), vals.max(axis=-1)
    cond = np.divide(high, low, out=np.full_like(high, np.inf), where=low > 0.0)
    raise_first_failure(cond > COND_LIMIT, "innovation covariance singular",
                        lambda i: f"condition number {cond[i]:.3e}")
    if means is not None:
        reference_check_beliefs(means, covs)


def reference_check_beliefs(means, covs):
    """bilq.core.check_beliefs by eigvalsh alone, as it was before its
    Cholesky certificate."""
    raise_first_failure(~np.isfinite(means).all(axis=-1), "mean has non-finite entries")
    raise_first_failure(~np.isfinite(covs).all(axis=(-2, -1)), "cov has non-finite entries")
    if covs.shape[-1] == 0:
        return
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
    asym = np.abs(covs - covs.swapaxes(-1, -2)).max(axis=(-2, -1))
    raise_first_failure(asym > SYM_TOL * scale, "cov not symmetric")
    low = np.linalg.eigvalsh(symmetrize(covs)).min(axis=-1)
    raise_first_failure(low < -PSD_TOL, "cov not PSD",
                        lambda i: f"min eigenvalue {low[i]:.3e}")


# (horizon, corrupted step) at the edges of the shipped filter check block:
# the last step of a block, the first of the next, and the last of a horizon
# that is not a multiple of the block
SHIPPED_BLOCK = bilq.kalman.CHECK_BLOCK
BLOCK_EDGES = ((2 * SHIPPED_BLOCK, SHIPPED_BLOCK - 1), (2 * SHIPPED_BLOCK, SHIPPED_BLOCK),
               (2 * SHIPPED_BLOCK + 3, 2 * SHIPPED_BLOCK + 2))
FAILURE_KINDS = ("cov_not_psd", "cov_not_symmetric", "cov_not_finite", "mean_not_finite",
                 "innovation_singular", "innovation_ill_conditioned", "innovation_not_finite")


@contextmanager
def corrupted_filter(kind, step, index):
    """Within the block, the filter's step `step` (counted over every filter
    step taken, from 0) hands on entry `index` of its stack corrupted as
    `kind` says (FAILURE_KINDS and one more): its next covariance shifted to a
    min eigenvalue of -1e-3, made asymmetric or NaN, its next mean +inf,
    or its innovation covariance zero, of condition number 1e15 (for
    m > 1) or +inf in its last diagonal entry, or, as
    "innovation_indefinite", its innovation covariance
    given eigenvalues 1, ..., 1, -1, which the gain's LU solve takes.
    Patches bilq.kalman's _advance or _innovation_cov, which both the
    per-step and the deferred checks read."""
    name = "_innovation_cov" if kind.startswith("innovation") else "_advance"
    original = getattr(bilq.kalman, name)
    calls = itertools.count()

    def corrupted(*args):
        result = original(*args)
        if next(calls) != step:
            return result
        if name == "_innovation_cov":
            result = result.copy()
            m = result.shape[-1]
            last = {"innovation_ill_conditioned": 1e-15, "innovation_indefinite": -1.0,
                    "innovation_not_finite": np.inf}
            result[index] = 0.0 if kind == "innovation_singular" else np.diag(
                np.r_[np.ones(m - 1), last[kind]])
            return result
        gains, innovations, means, covs = result
        means, covs = means.copy(), covs.copy()
        n = covs.shape[-1]
        if kind == "cov_not_psd":
            covs[index] -= (np.linalg.eigvalsh(covs[index]).min() + 1e-3) * np.eye(n)
        elif kind == "cov_not_symmetric":
            covs[index, 0, -1] += 1.0
        elif kind == "cov_not_finite":
            covs[index, -1, -1] = np.nan
        else:
            means[index, 0] = np.inf
        return gains, innovations, means, covs

    setattr(bilq.kalman, name, corrupted)
    try:
        yield
    finally:
        setattr(bilq.kalman, name, original)


def failing_lqg(fail_step):
    """separation_lqg that fails at step fail_step and, like numeric_bellman,
    on a covariance that is not PSD."""
    def decide(tables, run, t):
        if t == fail_step:
            raise ValueError("told to fail")
        if np.linalg.eigvalsh(run.covs[:, t]).min() < -PSD_TOL:
            raise ValueError("covariance not PSD")
        return sim.POLICIES["separation_lqg"](tables, run, t)
    return decide


def outcome_corrupted(call, kind, step, index):
    """call() within corrupted_filter(kind, step, index): its result, or its
    ValueError's message, and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with corrupted_filter(kind, step, index):
            try:
                return call(), [str(w.message) for w in caught]
            except ValueError as exc:
                return str(exc), [str(w.message) for w in caught]


def reference_metric(rec, name):
    """One record's series of metric `name`, t = 0..T, computed for one
    metric of one record at a time, as a bit-for-bit reference for the
    stacked metric table."""
    if name == "stage_cost":
        return np.concatenate([rec.stage_costs, [rec.terminal_cost]])
    if name == "cum_cost":
        running = np.cumsum(rec.stage_costs)
        return np.concatenate([running, [running[-1] + rec.terminal_cost]])
    if name == "u_norm":
        return np.concatenate([np.linalg.norm(rec.inputs, axis=1), [0.0]])
    if name == "est_err":
        return np.linalg.norm(rec.states - rec.means, axis=1)
    if name == "cov_trace":
        return np.trace(rec.covs, axis1=1, axis2=2)
    raise ValueError(f"unknown metric {name!r}")


def reference_trajectory_csv(path, records):
    """The trajectory CSV built one record and one metric at a time from
    reference_metric, each value at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("run,t," + ",".join(sim.METRICS) + "\n")
        for run, rec in enumerate(records):
            series = np.column_stack([reference_metric(rec, name) for name in sim.METRICS])
            for t, values in enumerate(series.tolist()):
                fh.write(f"{run},{t}," + ",".join(f"{v:.17g}" for v in values) + "\n")


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
    the full points x points kernel evaluated on every step, a reference
    for the package's Hermite-expanded lattice convolution.

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


# (entry, check): entries the number rule of core._as_array refuses, a string,
# bools and non-finite floats, with the check's words after the array's name
REFUSED_ENTRIES = tuple(pytest.param(entry, check, id=name) for name, entry, check in (
    ("string", "0.5", "entries must be numbers, got '0.5'"),
    ("bool", True, "entries must be numbers, got True"),
    ("numpy-bool", np.False_, "entries must be numbers, got np.False_"),
    ("nan", np.nan, "has non-finite entries"), ("inf", np.inf, "has non-finite entries"),
    ("-inf", -np.inf, "has non-finite entries")))


def assert_refused_quietly(message, call, *args):
    """call(*args) raises ValueError reading exactly message, with no
    RuntimeWarning on the way (no arithmetic ran on the refused entry)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call(*args)
        except ValueError as exc:
            assert str(exc) == message
        else:
            raise AssertionError(f"{call.__name__} took what it should refuse: {message}")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
