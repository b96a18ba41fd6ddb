"""Closed-loop rollouts and Monte Carlo aggregation.

Rollout protocol per step t: the action u_t is computed from information
available before the output y_t exists (the controller never reads y_t or,
except in the perfect-observation mode, x_t); then the process and
measurement noises enter in a fixed order (w_t, then z_t), the output is
emitted, the filter advances, and the state transitions.

All rollouts of one config -- the R runs of a Monte Carlo batch, or the
single run of :func:`rollout` -- go through one lockstep engine that
advances every run together with stacked (R, n) and (R, n, n) numpy
operations.  The Riccati tables and the noise covariance factors are
computed once per config.  Each run owns a stream, (seed, run index) in
Monte Carlo, and its draws are materialized up front as a noise tape: the
x_0 draw first, then (w_t, z_t) for each step t, sliced from the stream's
raw words exactly as successive ``standard_normal`` calls would slice them.
A run's record is therefore bit for bit the same in any batch, and runs
with the same (seed, run index) share noise realizations across
controller and observation variants, which pairs the comparisons.

Policies are a table of functions of (batch, t) returning one action per
run.  The certainty-equivalent ones are one stacked matrix-vector product
per step; ``numeric_bellman`` is one stacked minimizer call per step for
all runs, and ``scalar_nonlinear_t2`` decides run by run.  The last stage
has no estimation penalty: there the engine takes the certainty-equivalent
action for every filtered policy.
``numeric_bellman`` minimizes the stage objective of
:func:`bilq.control.bellman_objective_Tm2` with the estimation penalty
weighted by the LQR table ``p_seq[t+1]``: exact for T = 2, a one-step
look-ahead for T > 2, not the optimal policy.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (BatchCheckError, RngStream, check_beliefs,
                   gaussian_draws, matvec, normal_tape, observation_matrix,
                   quadratic)
from .kalman import kf_step_batch
from .control import (bellman_minimize_Tm2, bellman_params_at_stage, lqg_policy,
                      riccati_recursion, scalar_critical_points,
                      scalar_gap_params, scalar_optimal_controller_T2,
                      select_rollout_action)

INIT_ESTIMATES = ("prior_mean", "sampled_from_prior")
METRICS = ("stage_cost", "cum_cost", "u_norm", "est_err", "cov_trace")

INIT_ESTIMATE_SUBSTREAM = 0


@dataclass
class _Batch:
    """State of R runs of one config at the current step: true states x
    (R, n), and predicted means (R, n) and covs (R, n, n) (None for the
    perfect-observation policy)."""

    sys: object
    noise: object
    cost: object
    tables: object
    x: np.ndarray
    means: np.ndarray = None
    covs: np.ndarray = None


def _perfect_state_lqr(batch, t):
    return lqg_policy(batch.tables, t, batch.x)


def _separation_lqg(batch, t):
    return lqg_policy(batch.tables, t, batch.means)


def _scalar_nonlinear_t2(batch, t):
    """Scalar two-stage optimum at t = 0, per run: the tie-broken global
    minimizer of the stage objective at the run's prior (regime warnings
    silenced)."""
    actions = []
    for mean, cov in zip(batch.means, batch.covs):
        params = scalar_gap_params(batch.sys, batch.noise, batch.cost,
                                   prior_var=cov[0, 0], x_hat0=mean[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            actions.append([select_rollout_action(
                scalar_optimal_controller_T2(params).u0_candidates)])
    return np.array(actions)


def _numeric_bellman(batch, t):
    """Per run, the numeric minimizer of the stage objective whose
    estimation penalty is weighted by p_seq[t+1], all runs in one call.
    Optimal for T = 2; for T > 2 a one-step look-ahead, not the optimal
    policy."""
    return bellman_minimize_Tm2(bellman_params_at_stage(
        batch.sys, batch.noise, batch.cost, batch.tables, t, (batch.means, batch.covs)))[0]


POLICIES = {
    "perfect_state_lqr": _perfect_state_lqr,
    "separation_lqg": _separation_lqg,
    "scalar_nonlinear_t2": _scalar_nonlinear_t2,
    "numeric_bellman": _numeric_bellman,
}
POLICY_KINDS = tuple(POLICIES)


@dataclass(frozen=True)
class PolicyConfig:
    kind: str
    init_estimate: str = "prior_mean"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.init_estimate not in INIT_ESTIMATES:
            raise ValueError(f"unknown init_estimate {self.init_estimate!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One rollout: states x_0..x_T, inputs u_0..u_{T-1}, outputs y_0..y_{T-1},
    predicted estimates/covariances, and realized costs."""

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    stage_costs: np.ndarray
    terminal_cost: float

    @property
    def horizon(self):
        return self.inputs.shape[0]

    def metric(self, name):
        """Per-step series for t = 0..T; the t = T slot of stage_cost and
        cum_cost carries the terminal cost (u_norm is 0 there)."""
        if name == "stage_cost":
            return np.concatenate([self.stage_costs, [self.terminal_cost]])
        if name == "cum_cost":
            running = np.cumsum(self.stage_costs)
            return np.concatenate([running, [running[-1] + self.terminal_cost]])
        if name == "u_norm":
            return np.concatenate([np.linalg.norm(self.inputs, axis=1), [0.0]])
        if name == "est_err":
            return np.linalg.norm(self.states - self.means, axis=1)
        if name == "cov_trace":
            return np.trace(self.covs, axis1=1, axis2=2)
        raise ValueError(f"unknown metric {name!r}")


def _validate_policy(policy, sys, horizon):
    if policy.kind == "scalar_nonlinear_t2":
        if not (sys.n == 1 and sys.m == 1 and sys.p == 1):
            raise ValueError("scalar_nonlinear_t2 requires a scalar system")
        if horizon != 2:
            raise ValueError("scalar_nonlinear_t2 requires horizon 2")


def _localized(exc, streams, t):
    """A failed stacked check, restated with the failing run and step."""
    detail = "" if exc.detail is None else f", {exc.detail}"
    return ValueError(f"{exc.check}: run {streams[exc.index].stream_id}, "
                      f"step {t}{detail}")


def _simulate(sys, noise, cost, policy, horizon, streams):
    """The lockstep engine: one closed-loop rollout per stream, all
    advanced together; returns a tuple of TrajectoryRecords."""
    T = int(horizon)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    _validate_policy(policy, sys, T)
    act = POLICIES[policy.kind]
    n, m, p = sys.n, sys.m, sys.p
    R = len(streams)

    tape = normal_tape(streams, [n] + [n, m] * T)
    step_normals = tape[:, n:].reshape(R, T, n + m)
    w = gaussian_draws(np.zeros(n), noise.sigma_w, step_normals[..., :n])
    z = gaussian_draws(np.zeros(m), noise.sigma_z, step_normals[..., n:])
    batch = _Batch(sys=sys, noise=noise, cost=cost,
                   tables=riccati_recursion(cost, sys, T),
                   x=gaussian_draws(noise.x0_mean, noise.sigma_0, tape[:, :n]))
    filtered = policy.kind != "perfect_state_lqr"
    if filtered:
        if policy.init_estimate == "sampled_from_prior":
            init = normal_tape([s.substream(INIT_ESTIMATE_SUBSTREAM) for s in streams], [n])
            batch.means = gaussian_draws(noise.x0_mean, noise.sigma_0, init)
        else:
            batch.means = np.broadcast_to(noise.x0_mean, (R, n)).copy()
        batch.covs = np.broadcast_to(noise.sigma_0, (R, n, n)).copy()
        try:
            check_beliefs(batch.means, batch.covs)
        except BatchCheckError as exc:
            raise _localized(exc, streams, 0) from exc

    states = np.empty((R, T + 1, n))
    inputs = np.empty((R, T, p))
    outputs = np.empty((R, T, m))
    means = np.empty((R, T + 1, n))
    covs = np.zeros((R, T + 1, n, n))
    stage_costs = np.empty((R, T))

    for t in range(T + 1):
        x = batch.x
        states[:, t] = x
        means[:, t] = batch.means if filtered else x
        if filtered:
            covs[:, t] = batch.covs
        if t == T:
            break
        decide = _separation_lqg if filtered and t == T - 1 else act
        u = np.asarray(decide(batch, t), dtype=float).reshape(R, p)
        y = matvec(observation_matrix(sys, u), x) + z[:, t]
        inputs[:, t] = u
        outputs[:, t] = y
        stage_costs[:, t] = quadratic(x, cost.q) + quadratic(u, cost.r)
        if filtered:
            try:
                _, _, batch.means, batch.covs = kf_step_batch(
                    batch.means, batch.covs, sys, noise, u, y)
            except BatchCheckError as exc:
                raise _localized(exc, streams, t) from exc
        batch.x = matvec(sys.a, x) + matvec(sys.b, u) + w[:, t]

    terminal_costs = quadratic(batch.x, cost.q_t)
    return tuple(TrajectoryRecord(states=states[r], inputs=inputs[r],
                                  outputs=outputs[r], means=means[r],
                                  covs=covs[r], stage_costs=stage_costs[r],
                                  terminal_cost=float(terminal_costs[r]))
                 for r in range(R))


def rollout(sys, noise, cost, policy, horizon, stream):
    """Simulate one closed-loop trajectory; deterministic given the stream
    (the lockstep engine on a batch of one)."""
    return _simulate(sys, noise, cost, policy, horizon, [stream])[0]


@dataclass(frozen=True)
class PercentileSeries:
    metric: str
    p25: np.ndarray
    p50: np.ndarray
    p75: np.ndarray


@dataclass(frozen=True)
class SimConfig:
    system: object
    noise: object
    cost: object
    policy: PolicyConfig
    horizon: int


@dataclass(frozen=True)
class MonteCarloResult:
    records: tuple
    percentiles: dict


def monte_carlo(config, runs, seed):
    """Rollouts on streams (seed, 0..runs-1), advanced in lockstep, with
    percentile aggregation; record k is bit for bit
    ``rollout(..., RngStream(seed, k))``."""
    runs = int(runs)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    records = _simulate(config.system, config.noise, config.cost, config.policy,
                        config.horizon, [RngStream(seed, run) for run in range(runs)])
    return MonteCarloResult(records=records,
                            percentiles=aggregate_percentiles(records))


def aggregate_percentiles(records):
    """Linear-interpolation order-statistic percentiles per metric and step."""
    percentiles = {}
    for name in METRICS:
        data = np.stack([rec.metric(name) for rec in records])
        q = np.percentile(data, [25.0, 50.0, 75.0], axis=0, method="linear")
        percentiles[name] = PercentileSeries(metric=name, p25=q[0], p50=q[1], p75=q[2])
    return percentiles


@dataclass(frozen=True)
class LandscapeTable:
    u: np.ndarray
    f_total: np.ndarray
    f_lqg: np.ndarray
    g: np.ndarray
    params: object
    critical_points: tuple


def landscape_sweep(sys, noise, cost, offset, grid=(-3.0, 3.0, 1201)):
    """Sweep the scalar stage objective with the observation offset placed
    `offset` away from the certainty-equivalent action.

    The static coefficient is set so that the estimation penalty peaks at
    u_lqg + offset; returns the decomposed objective on the grid plus the
    critical points.
    """
    base = scalar_gap_params(sys, noise, cost, prior_var=float(noise.sigma_0[0, 0]))
    c0 = base.c1 * (base.beta * base.x_hat0 / base.alpha - float(offset))
    params = replace(base, c0=c0)
    lo, hi, points = float(grid[0]), float(grid[1]), int(grid[2])
    us = np.linspace(lo, hi, points)
    f_lqg = params.alpha * us * us + 2.0 * params.beta * params.x_hat0 * us
    cvals = params.c0 + params.c1 * us
    g = params.gamma / (cvals * cvals + params.kappa)
    return LandscapeTable(u=us, f_total=f_lqg + g, f_lqg=f_lqg, g=g,
                          params=params,
                          critical_points=tuple(scalar_critical_points(params)))


def format_float(x):
    return f"{float(x):.17g}"


def _write_rows(path, header, row_format, rows):
    """A header line, then each row tuple formatted with row_format (one
    %-format string; its %.17g gives format_float's digits)."""
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def write_trajectory_csv(path, records):
    """One row per (run, t); the t = T row carries the terminal cost."""
    rows = []
    for run, rec in enumerate(records):
        series = np.column_stack([rec.metric(name) for name in METRICS]).tolist()
        rows += [(run, t, *values) for t, values in enumerate(series)]
    _write_rows(path, "run,t," + ",".join(METRICS),
                "%d,%d" + ",%.17g" * len(METRICS), rows)


def write_summary_csv(path, blocks):
    """blocks: iterable of (percentiles dict, policy label, obs_model label)."""
    rows = []
    for percentiles, policy, obs_model in blocks:
        for name in METRICS:
            s = percentiles[name]
            quartiles = np.column_stack([s.p25, s.p50, s.p75]).tolist()
            rows += [(t, name, *q, policy, obs_model) for t, q in enumerate(quartiles)]
    _write_rows(path, "t,metric,p25,p50,p75,policy,obs_model",
                "%d,%s,%.17g,%.17g,%.17g,%s,%s", rows)


def write_landscape_csv(path, table):
    _write_rows(path, "u,f_total,f_lqg,g", "%.17g,%.17g,%.17g,%.17g",
                zip(table.u.tolist(), table.f_total.tolist(),
                    table.f_lqg.tolist(), table.g.tolist()))


def write_critical_points_csv(path, critical_points):
    _write_rows(path, "u,kind,f_value,second_derivative", "%.17g,%s,%.17g,%.17g",
                ((pt.u, pt.kind, pt.f_value, pt.second_derivative)
                 for pt in critical_points))
