"""Command-line entry point.

Each command writes CSV artifacts (17-significant-digit doubles, '\\n'
line endings) and ends by printing one JSON status line; the exit code is
0 iff every asserted postcondition held.
"""

import json
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import click
import numpy as np

from .core import RngStream, config_to_dict, load_config, validate_system
from .control import (lqg_policy, riccati_recursion, scalar_critical_points,
                      scalar_gap_params, LOCAL_MAX, LOCAL_MIN)
from .observability import (DEFAULT_DELTA, check_proposition1, covariance_boundedness_probe,
                            gramian_decomposition, window_gramians)
from .presets import double_integrator_config, orthogonal_config, scalar_config
from .sim import (INIT_ESTIMATES, METRICS, POLICY_KINDS, PolicyConfig, SimConfig,
                  format_float, landscape_sweep, monte_carlo, write_critical_points_csv,
                  write_landscape_csv, write_summary_csv, write_trajectory_csv)

DEFAULT_HORIZON = 100
RUNS = click.IntRange(min=1)
SEED = click.IntRange(0, 2 ** 64 - 1)


def _finite(ctx, param, value):
    if value is not None and not np.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number.")
    return value


def _grid(ctx, param, grid):
    lo, hi, points = grid
    if not (np.isfinite([lo, hi]).all() and lo < hi and points >= 2):
        raise click.BadParameter(f"needs finite LO < HI and N >= 2, got {grid!r}.")
    return grid


def _echo(text, err=False):
    """click.echo to sys.stdout (or sys.stderr) as it is at call time.
    click's default stream is cached in a WeakKeyDictionary that maps a
    stream to itself, so a buffer captured around an in-process call
    (redirect_stdout) would never be freed."""
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _finish(command, config, out, overrides, failures):
    """Print the status line (the overrides are the effective ones); exit 1
    on any failed postcondition."""
    status = {"command": command,
              "config": config,
              "out": out,
              "overrides": overrides,
              "status": "fail" if failures else "ok",
              "failures": list(failures)}
    _echo(json.dumps(status, sort_keys=True))
    if failures:
        raise SystemExit(1)


def _load_config_or_fail(path):
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc))


def _fail_if_invalid(status, system, noise, cost):
    """End the command with a fail status line listing validate_system's
    violations, if any, each as "config invalid: <violation>"."""
    report = validate_system(system, noise, cost)
    if not report.ok:
        _finish(*status, [f"config invalid: {v}" for v in report.violations])


def _lqg_probe(system, noise, riccati):
    """The covariance boundedness probe under certainty-equivalent LQG on riccati."""
    return covariance_boundedness_probe(system, noise, partial(lqg_policy, riccati),
                                        riccati.horizon)


def _monte_carlo_variants(outdir, variants, runs, seed):
    """Monte Carlo of every (name, SimConfig) in one call, on the same streams
    (paired noise); writes the CSVs and returns the results by name."""
    results = dict(zip([name for name, _ in variants],
                       monte_carlo([c for _, c in variants], runs, seed)))
    for name, res in results.items():
        write_trajectory_csv(outdir / f"trajectories_{name}.csv", res.table)
    write_summary_csv(outdir / "summary.csv",
                      [(results[name].percentiles, config.policy.kind, name)
                       for name, config in variants])
    return results


def _check_classifications(points):
    failures = []
    for pt in points:
        if not np.isfinite(pt.u):
            failures.append(f"non-finite critical point {pt!r}")
        if np.isfinite(pt.second_derivative) and abs(pt.second_derivative) > 1e-10:
            expected = LOCAL_MIN if pt.second_derivative > 0 else LOCAL_MAX
            if pt.kind != expected:
                failures.append(f"classification inconsistent at u={pt.u!r}")
    return failures


@click.group()
def main():
    """Estimation/control experiments for bilinear-observation systems."""


@main.command("scalar-landscape")
@click.option("--offset", type=float, default=0.0, show_default=True, callback=_finite,
              help="Distance from the certainty-equivalent action to the "
                   "estimation-penalty peak.")
@click.option("--grid", type=(float, float, int), default=(-3.0, 3.0, 1201),
              show_default=True, metavar="LO HI N", callback=_grid)
@click.option("--c1", type=float, default=None, callback=_finite,
              help="Input-dependent observation coefficient (default: the "
                   "quadratic stage weight).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_scalar_landscape(offset, grid, c1, out):
    """Sweep the scalar stage objective and classify its critical points."""
    if abs(offset) > 1.0:
        _echo("warning: offset outside [-1, 1]", err=True)
    try:
        table = landscape_sweep(*scalar_config(c1=c1, offset=offset), grid)
    except ValueError as exc:  # c1 = 0: use LQG closed form
        raise click.ClickException(str(exc))
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_landscape_csv(out, table)
    report_path = out.with_name(out.stem + "_critical_points.csv")
    write_critical_points_csv(report_path, table.critical_points)
    failures = _check_classifications(table.critical_points)
    if not np.all(np.isfinite(table.f_total)):
        failures.append("non-finite landscape values")
    _finish("scalar-landscape", None, str(out),
            {"offset": offset, "grid": list(grid), "c1": c1}, failures)


@main.command("double-integrator")
@click.option("--runs", type=RUNS, default=50, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--c1", type=float, default=1.0, show_default=True, callback=_finite,
              help="Force scaling of the bilinear position sensor.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def cmd_double_integrator(runs, seed, c1, out):
    """Compare perfect / linear / bilinear observations on the integrator.

    All three variants share noise realizations run-by-run.  With runs >=
    10 the headline orderings (bilinear costs more, its covariance trace
    grows, the linear one plateaus) are asserted.
    """
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    horizon = DEFAULT_HORIZON
    variants = []
    for name, kind in (("perfect", "perfect_state_lqr"), ("linear", "separation_lqg"),
                       ("bilinear", "separation_lqg")):
        system, noise, cost = double_integrator_config(name, c1=c1)
        variants.append((name, SimConfig(system, noise, cost,
                                         PolicyConfig(kind, "sampled_from_prior"),
                                         horizon)))
    results = _monte_carlo_variants(outdir, variants, runs, seed)

    failures = []
    if runs >= 10:
        bil = results["bilinear"].percentiles
        lin = results["linear"].percentiles
        if not bil["cum_cost"].p50[horizon] > lin["cum_cost"].p50[horizon]:
            failures.append("bilinear median cumulative cost does not exceed linear")
        if not bil["cov_trace"].p50[horizon] > 2.0 * bil["cov_trace"].p50[20]:
            failures.append("bilinear median covariance trace did not double from t=20")
        lin_20 = lin["cov_trace"].p50[20]
        lin_end = lin["cov_trace"].p50[horizon]
        if not abs(lin_end - lin_20) <= 0.1 * lin_20:
            failures.append("linear median covariance trace not stable")
    _finish("double-integrator", None, str(outdir),
            {"runs": runs, "seed": seed, "c1": c1}, failures)


@main.command("orthogonal")
@click.option("--runs", type=RUNS, default=50, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--variant", type=click.Choice(["a", "b"]), default="a",
              show_default=True, help="Which static observation draw to use.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
def cmd_orthogonal(runs, seed, variant, out):
    """Random system whose static observation matrix is orthogonal to the
    input-dependent ones; covariance must stay bounded for any inputs."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    horizon = DEFAULT_HORIZON
    base_stream = RngStream(seed)
    sys_bil, noise, cost = orthogonal_config(base_stream, variant=variant)
    sys_lin = replace(sys_bil, ck=tuple(np.zeros_like(c) for c in sys_bil.ck))
    policy = PolicyConfig("separation_lqg", "sampled_from_prior")
    variants = [(name, SimConfig(system, noise, cost, policy, horizon))
                for name, system in (("linear", sys_lin), ("bilinear", sys_bil))]
    results = _monte_carlo_variants(outdir, variants, runs, seed)

    probe = _lqg_probe(sys_bil, noise, results["bilinear"].riccati)
    prop = check_proposition1(sys_bil)
    # spectral norms of the test matrix's static, cross and input parts along the probe's inputs
    norms = {f"norm_o{k}": float(np.linalg.norm(o, 2)) for k, o in
             enumerate(gramian_decomposition(sys_bil, probe.inputs[:sys_bil.n]), 1)}
    tail = float(probe.norms[50:horizon + 1].max())
    head = float(probe.norms[1:51].max())

    (outdir / f"system_{variant}.json").write_text(
        json.dumps(config_to_dict(sys_bil, noise, cost, horizon, runs, seed),
                   sort_keys=True, indent=1),
        encoding="utf-8")
    (outdir / "prop1_report.json").write_text(
        json.dumps({"variant": variant, **asdict(prop), **norms, "probe_max_norm": probe.max_norm,
                    "probe_head_max": head, "probe_tail_max": tail}, sort_keys=True, indent=1),
        encoding="utf-8")

    failures = []
    if not prop.ok:
        failures.append("sufficient observability condition failed")
    if tail > 1.05 * head:
        failures.append("covariance norm still growing in the second half")
    _finish("orthogonal", None, str(outdir),
            {"runs": runs, "seed": seed, "variant": variant}, failures)


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True)
@click.option("--runs", type=RUNS, default=None, help="Override config runs.")
@click.option("--seed", type=SEED, default=None, help="Override config seed.")
@click.option("--policy", type=click.Choice(POLICY_KINDS),
              default="separation_lqg", show_default=True)
@click.option("--init-estimate", type=click.Choice(INIT_ESTIMATES),
              default="sampled_from_prior", show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def cmd_simulate(config_path, runs, seed, policy, init_estimate, out):
    """Monte Carlo rollouts of a JSON-configured system."""
    system, noise, cost, horizon, cfg_runs, cfg_seed = _load_config_or_fail(config_path)
    runs = cfg_runs if runs is None else runs
    seed = cfg_seed if seed is None else seed
    status = ("simulate", str(config_path), str(out),
              {"runs": runs, "seed": seed, "policy": policy,
               "init_estimate": init_estimate})
    _fail_if_invalid(status, system, noise, cost)
    try:
        res = monte_carlo(SimConfig(system, noise, cost, PolicyConfig(policy, init_estimate),
                                    horizon), runs, seed)
    except ValueError as exc:
        _finish(*status, [str(exc)])
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(outdir / "trajectories.csv", res.table)
    write_summary_csv(outdir / "summary.csv",
                      [(res.percentiles, policy, "config")])
    failures = []
    for name, series in res.percentiles.items():
        if not (np.all(series.p25 <= series.p50 + 1e-15)
                and np.all(series.p50 <= series.p75 + 1e-15)):
            failures.append(f"percentile ordering violated for {name}")
    if res.table[..., METRICS.index("stage_cost")].min() < 0.0:
        failures.append("negative realized cost")
    _finish(*status, failures)


@main.command("observability")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True)
@click.option("--horizon", type=int, default=DEFAULT_HORIZON, show_default=True)
@click.option("--delta", type=click.FloatRange(min=0.0), default=DEFAULT_DELTA,
              show_default=True, callback=_finite,
              help="Positive-definiteness margin for the observability test.")
def cmd_observability(config_path, horizon, delta):
    """Observability diagnostics along a simulated closed-loop input sequence."""
    system, noise, cost, _, _, _ = _load_config_or_fail(config_path)
    status = ("observability", str(config_path), None,
              {"horizon": horizon, "delta": delta})
    _fail_if_invalid(status, system, noise, cost)
    try:
        probe = _lqg_probe(system, noise, riccati_recursion(cost, system, horizon))
    except ValueError as exc:  # a horizon below n; a failed filter check
        raise click.ClickException(str(exc))
    _, lows = window_gramians(system, probe.inputs)
    prop = check_proposition1(system, delta=delta)
    _echo("\n".join(["window_start,gramian_min_eigenvalue,uniformly_observable",
                     *(f"{start},{format_float(low)},{low > delta}"
                       for start, low in enumerate(lows)),
                     f"proposition1_ok,{prop.ok}",
                     f"proposition1_min_eigenvalue,{format_float(prop.min_eigenvalue)}",
                     f"probe_max_norm,{format_float(probe.max_norm)}",
                     f"probe_exceeded_threshold,{probe.exceeded}",
                     f"probe_final_trace,{format_float(probe.traces[-1])}"]))
    _finish(*status, [])


@main.command("critical-points")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              default=None, help="Scalar system config (default: built-in).")
@click.option("--x0hat", type=float, default=None, callback=_finite)
@click.option("--c0", type=float, default=None, callback=_finite)
@click.option("--c1", type=float, default=None, callback=_finite)
def cmd_critical_points(config_path, x0hat, c0, c1):
    """Classify the critical points of the scalar stage objective."""
    if config_path is not None:
        system, noise, cost, _, _, _ = _load_config_or_fail(config_path)
    else:
        system, noise, cost = scalar_config()
    status = ("critical-points", None if config_path is None else str(config_path), None,
              {"x0hat": x0hat, "c0": c0, "c1": c1})
    _fail_if_invalid(status, system, noise, cost)
    try:
        params = scalar_gap_params(system, noise, cost,
                                   prior_var=float(noise.sigma_0[0, 0]), x_hat0=x0hat)
        points = scalar_critical_points(replace(params, **{
            k: v for k, v in (("c0", c0), ("c1", c1)) if v is not None}))
    except ValueError as exc:  # not scalar; a zero prior variance; c1 = 0: LQG closed form
        raise click.ClickException(str(exc))
    _echo("u,kind,f_value,second_derivative")
    for pt in points:
        _echo(f"{format_float(pt.u)},{pt.kind},{format_float(pt.f_value)},"
              f"{format_float(pt.second_derivative)}")
    _finish(*status, _check_classifications(points))


if __name__ == "__main__":
    main()
