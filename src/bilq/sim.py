"""Closed-loop rollouts and Monte Carlo aggregation.

Rollout protocol per step t: the action u_t is computed from information
available before the output y_t exists (the controller never reads y_t or,
except in the perfect-observation mode, x_t); then the process and
measurement noises enter in a fixed order (w_t, then z_t), the output is
emitted, the filter advances, and the state transitions.

All rollouts go through one lockstep engine that advances every run
together with stacked (N, n) and (N, n, n) numpy operations: the run of
:func:`rollout`, or in :func:`monte_carlo` the runs of every config of the
call that is the same bits as another in all but c0/ck (an experiment's
linear and bilinear variants).  Such a group shares one noise tape and one
filter step per time step, each run observed through its own config's C(u);
groups on the same system and cost share one Riccati table.  Each run owns a
stream, (seed, run index) in Monte Carlo, and its draws are materialized up
front as a noise tape: the x_0 draw, then (w_t, z_t) for each step t, sliced
from the stream's raw words as successive ``standard_normal`` calls would
slice them.  So a run's record is the same bits in any batch, and runs with
the same (seed, run index) share noise across controller and observation
variants, which pairs the comparisons.  Filter checks run stacked over blocks
of steps (kalman.FilterSteps); a failure names the run, the step and, among
several configs, the config's index, as checks made every step would.

Policies are a table of functions of (batch, t) returning one action per
run.  The certainty-equivalent ones are one stacked matrix-vector product
per step; ``numeric_bellman`` is one stacked minimizer call per step for
the runs of each config, on its system, and ``scalar_nonlinear_t2`` is
``numeric_bellman`` restricted to the scalar system at T = 2.  The last
stage has no estimation penalty: there the engine takes the
certainty-equivalent action for every filtered policy.
``numeric_bellman`` minimizes the stage objective of
:func:`bilq.control.bellman_objective_Tm2` with the estimation penalty
weighted by the LQR table ``p_seq[t+1]``: a one-step look-ahead for T > 2,
not the optimal policy.  For T = 2 it is exactly optimal at one input and
one output, where the minimizer is global, and locally optimal elsewhere.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (RngStream, gaussian_draws, matvec, normal_tape, observation_matrix,
                   quadratic)
from .kalman import FilterSteps
from .control import (bellman_minimize_Tm2, bellman_params_at_stage, lqg_policy,
                      riccati_recursion, scalar_critical_points, scalar_gap_params)

INIT_ESTIMATES = ("prior_mean", "sampled_from_prior")
METRICS = ("stage_cost", "cum_cost", "u_norm", "est_err", "cov_trace")

INIT_ESTIMATE_SUBSTREAM = 0


@dataclass
class _Batch:
    """State of N runs at the current step: (system, slice of its runs) per
    config, true states x (N, n), and predicted means (N, n) and covs
    (N, n, n) (None for the perfect-observation policy)."""

    configs: list
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


def _numeric_bellman(batch, t):
    """Per run, the numeric minimizer of its system's stage objective whose
    estimation penalty is weighted by p_seq[t+1], one call per config.
    For T > 2 a one-step look-ahead, not the optimal policy; for T = 2
    exactly optimal at m = p = 1 (a global minimizer), locally elsewhere."""
    return np.concatenate([bellman_minimize_Tm2(bellman_params_at_stage(
        sys, batch.noise, batch.cost, batch.tables, t,
        (batch.means[runs], batch.covs[runs])))[0] for sys, runs in batch.configs])


POLICIES = {
    "perfect_state_lqr": _perfect_state_lqr,
    "separation_lqg": _separation_lqg,
    "scalar_nonlinear_t2": _numeric_bellman,
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


@dataclass(frozen=True)
class SimConfig:
    system: object
    noise: object
    cost: object
    policy: PolicyConfig
    horizon: int


def _simulate(group, streams, labels, tables):
    """The lockstep engine: one closed-loop rollout per (config, stream) of
    configs that differ at most in c0/ck, all advanced together; labels[v]
    prefixes config v's runs in failure messages; tables holds the Riccati
    tables by their inputs' bits.  Returns the TrajectoryRecords config-major."""
    sys, noise, cost, policy = (group[0].system, group[0].noise, group[0].cost,
                                group[0].policy)
    T = int(group[0].horizon)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    _validate_policy(policy, sys, T)
    act = POLICIES[policy.kind]
    n, m, p = sys.n, sys.m, sys.p
    R = len(streams)
    N = R * len(group)
    config_of, stream_of = np.divmod(np.arange(N), R)
    names = [f"{labels[v]}run {streams[r].stream_id}" for v, r in zip(config_of, stream_of)]
    tape = normal_tape(streams, [n] + [n, m] * T)[stream_of]
    step_normals = tape[:, n:].reshape(N, T, n + m)
    w = gaussian_draws(np.zeros(n), noise.sigma_w, step_normals[..., :n])
    z = gaussian_draws(np.zeros(m), noise.sigma_z, step_normals[..., n:])
    key = (T, *((x.shape, x.tobytes()) for x in (sys.a, sys.b, *vars(cost).values())))
    tables[key] = tables.get(key) or riccati_recursion(cost, sys, T)
    batch = _Batch(configs=[(c.system, slice(v * R, v * R + R)) for v, c in enumerate(group)],
                   noise=noise, cost=cost, tables=tables[key],
                   x=gaussian_draws(noise.x0_mean, noise.sigma_0, tape[:, :n]))
    # each run's own c0 and ck[k], from which observation_matrix builds its C(u)
    observed = SimpleNamespace(p=p, c0=np.stack([c.system.c0 for c in group])[config_of],
                               ck=tuple(np.stack(ck)[config_of]
                                        for ck in zip(*(c.system.ck for c in group), strict=True)))
    steps = FilterSteps(lambda t, i: f"{names[i]}, step {t}")
    filtered = policy.kind != "perfect_state_lqr"
    if filtered:
        if policy.init_estimate == "sampled_from_prior":
            init = normal_tape([s.substream(INIT_ESTIMATE_SUBSTREAM) for s in streams], [n])
            batch.means = gaussian_draws(noise.x0_mean, noise.sigma_0, init[stream_of])
        else:
            batch.means = np.broadcast_to(noise.x0_mean, (N, n)).copy()
        batch.covs = np.broadcast_to(noise.sigma_0, (N, n, n)).copy()
        steps.check_prior(batch.means, batch.covs)

    states = np.empty((N, T + 1, n))
    inputs = np.empty((N, T, p))
    outputs = np.empty((N, T, m))
    means = np.empty((N, T + 1, n))
    covs = np.zeros((N, T + 1, n, n))
    stage_costs = np.empty((N, T))

    try:
        for t in range(T + 1):
            x = batch.x
            states[:, t] = x
            means[:, t] = batch.means if filtered else x
            if filtered:
                covs[:, t] = batch.covs
            if t == T:
                break
            decide = _separation_lqg if filtered and t == T - 1 else act
            try:
                u = np.asarray(decide(batch, t), dtype=float).reshape(N, p)
            except ValueError as exc:  # LinAlgError too
                raise ValueError(f"{policy.kind} decision failed: {''.join(labels)}step {t}, "
                                 f"{exc}") from exc
            cs = observation_matrix(observed, u)
            y = matvec(cs, x) + z[:, t]
            inputs[:, t] = u
            outputs[:, t] = y
            stage_costs[:, t] = quadratic(x, cost.q) + quadratic(u, cost.r)
            if filtered:
                _, _, batch.means, batch.covs = steps.step(batch.means, batch.covs, sys,
                                                           noise, u, y, cs)
            batch.x = matvec(sys.a, x) + matvec(sys.b, u) + w[:, t]
    finally:
        steps.check()  # before any failure of the loop: an earlier step's comes first

    terminal_costs = quadratic(batch.x, cost.q_t)
    return tuple(TrajectoryRecord(states=states[r], inputs=inputs[r],
                                  outputs=outputs[r], means=means[r],
                                  covs=covs[r], stage_costs=stage_costs[r],
                                  terminal_cost=float(terminal_costs[r]))
                 for r in range(N))


def rollout(sys, noise, cost, policy, horizon, stream):
    """Simulate one closed-loop trajectory; deterministic given the stream
    (the lockstep engine on a batch of one)."""
    return _simulate([SimConfig(sys, noise, cost, policy, horizon)], [stream], [""], {})[0]


@dataclass(frozen=True)
class PercentileSeries:
    metric: str
    p25: np.ndarray
    p50: np.ndarray
    p75: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    records: tuple
    percentiles: dict


def monte_carlo(configs, runs, seed):
    """Rollouts on streams (seed, 0..runs-1), advanced in lockstep, with
    percentile aggregation: one SimConfig gives one MonteCarloResult, a
    sequence of them a tuple in config order.  Record k of each result is
    bit for bit ``rollout(..., RngStream(seed, k))`` of its config."""
    single = isinstance(configs, SimConfig)
    configs = [configs] if single else list(configs)
    runs = int(runs)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    groups = {}
    for i, c in enumerate(configs):
        # configs that are the same bits in all but c0/ck advance as one batch
        arrays = (c.system.a, c.system.b, *vars(c.noise).values(), *vars(c.cost).values())
        key = (c.policy, int(c.horizon), *((x.shape, x.tobytes()) for x in arrays))
        groups.setdefault(key, []).append(i)
    results = [None] * len(configs)
    tables = {}  # one Riccati table per distinct system and cost of this call
    for indices in groups.values():
        records = _simulate([configs[i] for i in indices],
                            [RngStream(seed, run) for run in range(runs)],
                            [f"config {i}, " if len(configs) > 1 else "" for i in indices],
                            tables)
        for v, i in enumerate(indices):
            own = records[v * runs:(v + 1) * runs]
            results[i] = MonteCarloResult(records=own, percentiles=aggregate_percentiles(own))
    return results[0] if single else tuple(results)


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


def landscape_sweep(sys, noise, cost, grid=(-3.0, 3.0, 1201)):
    """Sweep the scalar stage objective of the system as given (see
    scalar_config's offset for placing its observation-blind point);
    returns the decomposed objective on the grid plus the critical points.
    """
    params = scalar_gap_params(sys, noise, cost, prior_var=float(noise.sigma_0[0, 0]))
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
