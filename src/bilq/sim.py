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
linear and bilinear variants).  Such a group is one system, each run's c0/ck
stacked, with one noise tape and one filter step per time step; groups on one
system and cost share the Riccati table their results hold.  Each run owns a
stream, (seed, run index) in Monte Carlo, and its draws are materialized up
front as a noise tape: the x_0 draw, then (w_t, z_t) for each step t, sliced
from the stream's raw words as successive ``standard_normal`` calls would
slice them.  So a run's record is the same bits in any batch, and runs with
the same (seed, run index) share noise across controller and observation
variants, which pairs the comparisons.  The steps are kalman.closed_loop's,
whose filter checks run stacked over blocks of steps; a failure names the run,
the step and, among several configs, the config's index, as checks made every
step would.

Policies are a table of functions of (tables, run, t) returning one action per
run.  The certainty-equivalent ones are one stacked matrix-vector product
per step; ``numeric_bellman`` is one minimizer call per step for every
run of the group, on its stacked system, and ``scalar_nonlinear_t2`` is
``numeric_bellman`` restricted to the scalar system at T = 2.  The engine
draws x_0 and picks the prior (none under ``perfect_state_lqr``, whose means
are then its states); closed_loop builds the runs' histories, which policies
read at slot t and each step extends to slot t + 1.  The engine holds no
policy's rule and calls the policy at every step.  ``numeric_bellman``
minimizes the stage objective of :func:`bilq.control.bellman_objective_Tm2`
with the estimation penalty weighted by the LQR table ``p_seq[t+1]``: a
one-step look-ahead for T > 2, not the optimal policy.  For T = 2 it is
exactly optimal at one input and one output, where the minimizer is global,
and locally optimal elsewhere.  The last stage, t = T - 1, has no estimation
penalty: there it takes the certainty-equivalent action.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import RngStream, count, gaussian_draws, normal_tape, quadratic
from .kalman import closed_loop
from .control import (BellmanObjectiveParams, bellman_minimize_Tm2, lqg_policy,
                      riccati_recursion, scalar_critical_points, scalar_gap_params)

INIT_ESTIMATES = ("prior_mean", "sampled_from_prior")
METRICS = ("stage_cost", "cum_cost", "u_norm", "est_err", "cov_trace")

INIT_ESTIMATE_SUBSTREAM = 0


def _lqg(tables, run, t):
    # perfect_state_lqr too: with closed_loop's prior None the means are the states
    return lqg_policy(tables, t, run.means[:, t])


def _numeric_bellman(tables, run, t):
    """Per run, the numeric minimizer of its own observation's stage objective
    whose estimation penalty is weighted by p_seq[t+1], one call for all runs; at
    t = T - 1, which has no estimation penalty, the certainty-equivalent action.
    For T > 2 a one-step look-ahead, not the optimal policy; for T = 2
    exactly optimal at m = p = 1 (a global minimizer), locally elsewhere."""
    if t == tables.horizon - 1:
        return _lqg(tables, run, t)
    return bellman_minimize_Tm2(BellmanObjectiveParams(
        tables=tables, t=t, prior_cov=run.covs[:, t], x_hat=run.means[:, t],
        sys=run.system, noise=run.noise))[0]


POLICIES = {
    "perfect_state_lqr": _lqg,
    "separation_lqg": _lqg,
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

    def metric(self, name):
        """Per-step series for t = 0..T, a column of metric_table; the t = T slot
        of stage_cost and cum_cost carries the terminal cost (u_norm is 0 there)."""
        if name not in METRICS:
            raise ValueError(f"unknown metric {name!r}")
        return metric_table([self])[0, :, METRICS.index(name)]


@dataclass(frozen=True)
class SimConfig:
    """One experiment: a horizon T >= 1 (an integer, see core.count), and
    scalar_nonlinear_t2 on a scalar system at T = 2 only."""

    system: object
    noise: object
    cost: object
    policy: PolicyConfig
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", count("horizon", self.horizon, 1))
        if self.policy.kind == "scalar_nonlinear_t2":
            if not self.system.n == self.system.m == self.system.p == 1:
                raise ValueError("scalar_nonlinear_t2 requires a scalar system")
            if self.horizon != 2:
                raise ValueError("scalar_nonlinear_t2 requires horizon 2")


def _simulate(group, streams, labels, tables):
    """The lockstep engine: one closed-loop rollout per (config, stream) of configs
    differing at most in c0/ck, advanced together, TrajectoryRecords config-major;
    labels[v] prefixes config v's runs in failure messages; tables: their Riccati table."""
    shared, noise, cost, policy = (group[0].system, group[0].noise, group[0].cost,
                                   group[0].policy)
    T = group[0].horizon
    n, m, p = shared.n, shared.m, shared.p
    R = len(streams)
    N = R * len(group)
    config_of, stream_of = np.divmod(np.arange(N), R)
    sys = SimpleNamespace(a=shared.a, b=shared.b, m=m, p=p,
                          c0=np.stack([c.system.c0 for c in group])[config_of],
                          ck=tuple(np.stack(ck)[config_of]
                                   for ck in zip(*(c.system.ck for c in group), strict=True)))
    tape = normal_tape(streams, [n] + [n, m] * T)[stream_of]
    step_normals = tape[:, n:].reshape(N, T, n + m)
    w = gaussian_draws(np.zeros(n), noise.sigma_w, step_normals[..., :n])
    z = gaussian_draws(np.zeros(m), noise.sigma_z, step_normals[..., n:])
    x0 = gaussian_draws(noise.x0_mean, noise.sigma_0, tape[:, :n])
    del tape, step_normals  # w, z and x0 are copies: the tape need not outlive them
    prior = None
    if policy.kind != "perfect_state_lqr":
        means0 = noise.x0_mean
        if policy.init_estimate == "sampled_from_prior":
            init = normal_tape([s.substream(INIT_ESTIMATE_SUBSTREAM) for s in streams], [n])
            means0 = gaussian_draws(noise.x0_mean, noise.sigma_0, init[stream_of])
        prior = (means0, noise.sigma_0)
    decide = POLICIES[policy.kind]

    def act(run, t):
        try:
            return np.asarray(decide(tables, run, t), dtype=float).reshape(N, p)
        except ValueError as exc:  # LinAlgError too
            raise ValueError(f"{policy.kind} decision failed: {''.join(labels)}step {t}, "
                             f"{exc}") from exc

    run = closed_loop(sys, noise, x0, prior, act, w, z,
                      lambda t, i: f"{labels[config_of[i]]}run "
                                   f"{streams[stream_of[i]].stream_id}, step {t}")
    stage_costs = quadratic(run.states[:, :T], cost.q) + quadratic(run.inputs, cost.r)
    terminal_costs = quadratic(run.states[:, T], cost.q_t)
    return tuple(TrajectoryRecord(states=run.states[r], inputs=run.inputs[r],
                                  outputs=run.outputs[r], means=run.means[r],
                                  covs=run.covs[r], stage_costs=stage_costs[r],
                                  terminal_cost=float(terminal_costs[r]))
                 for r in range(N))


def rollout(sys, noise, cost, policy, horizon, stream):
    """Simulate one closed-loop trajectory; deterministic given the stream
    (the lockstep engine on a batch of one)."""
    return _simulate([SimConfig(sys, noise, cost, policy, horizon)], [stream], [""],
                     riccati_recursion(cost, sys, horizon))[0]


@dataclass(frozen=True)
class PercentileSeries:
    metric: str
    p25: np.ndarray
    p50: np.ndarray
    p75: np.ndarray


@dataclass(frozen=True)
class MonteCarloResult:
    """A config's records, their metric_table and its aggregate_percentiles, and the
    Riccati table its runs used, one object per horizon, a, b and cost in a call."""

    records: tuple
    table: np.ndarray
    percentiles: dict
    riccati: object


def _bits(*arrays):
    return tuple((x.shape, x.tobytes()) for x in arrays)


def monte_carlo(configs, runs, seed):
    """Rollouts on streams (seed, 0..runs-1), advanced in lockstep, with percentile
    aggregation: one SimConfig gives one MonteCarloResult, a sequence of them a tuple in
    config order, record k bit for bit ``rollout(..., RngStream(seed, k))`` of its config."""
    single = isinstance(configs, SimConfig)
    configs = [configs] if single else list(configs)
    runs = count("runs", runs, 1)
    groups = {}
    for i, c in enumerate(configs):
        # configs on one horizon, a, b and cost share a Riccati table; those that
        # are the same bits in all but c0/ck advance as one batch
        table_key = (c.horizon, *_bits(c.system.a, c.system.b, *vars(c.cost).values()))
        groups.setdefault((table_key, c.policy, *_bits(*vars(c.noise).values())), []).append(i)
    results, tables = [None] * len(configs), {}
    for (key, *_), indices in groups.items():
        c = configs[indices[0]]
        tables[key] = tables.get(key) or riccati_recursion(c.cost, c.system, c.horizon)
        records = _simulate([configs[i] for i in indices],
                            [RngStream(seed, run) for run in range(runs)],
                            [f"config {i}, " if len(configs) > 1 else "" for i in indices],
                            tables[key])
        for v, i in enumerate(indices):
            own = records[v * runs:(v + 1) * runs]
            table = metric_table(own)
            results[i] = MonteCarloResult(records=own, table=table,
                                          percentiles=aggregate_percentiles(table),
                                          riccati=tables[key])
    return results[0] if single else tuple(results)


def metric_table(records):
    """Every record's METRICS at t = 0..T, stacked (runs, T + 1, len(METRICS)): stage
    costs (terminal at T), their cumsum, |u_t| (0 at T), |x_t - x_hat_t|, tr(Sigma_t)."""
    def stacked(field):
        return np.stack([getattr(rec, field) for rec in records])
    costs = np.concatenate([stacked("stage_costs"), stacked("terminal_cost")[:, None]], axis=1)
    return np.stack([costs, np.cumsum(costs, axis=1),  # u_norm is the norm of a zero u_T
                     np.linalg.norm(np.pad(stacked("inputs"), ((0, 0), (0, 1), (0, 0))), axis=-1),
                     np.linalg.norm(stacked("states") - stacked("means"), axis=-1),
                     np.trace(stacked("covs"), axis1=-2, axis2=-1)], axis=-1)


def aggregate_percentiles(table):
    """Linear percentiles per metric and step of a metric_table, in one np.percentile call."""
    q = np.percentile(table, [25.0, 50.0, 75.0], axis=0, method="linear")
    return {name: PercentileSeries(metric=name, p25=q[0, :, j], p50=q[1, :, j], p75=q[2, :, j])
            for j, name in enumerate(METRICS)}


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
    lo, hi, points = float(grid[0]), float(grid[1]), count("grid points", grid[2], 2)
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


def write_trajectory_csv(path, table):
    """One row per (run, t) of a metric_table; the t = T row carries the terminal cost."""
    rows = [(run, t, *values) for run, series in enumerate(table.tolist())
            for t, values in enumerate(series)]
    _write_rows(path, "run,t," + ",".join(METRICS),
                "%d,%d" + ",%.17g" * len(METRICS), rows)


def write_summary_csv(path, blocks):
    """blocks: iterable of (percentiles dict, policy label, obs_model label)."""
    rows = [(t, name, *q, policy, obs_model) for percentiles, policy, obs_model in blocks
            for name, s in zip(METRICS, map(percentiles.__getitem__, METRICS))
            for t, q in enumerate(zip(s.p25.tolist(), s.p50.tolist(), s.p75.tolist()))]
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
