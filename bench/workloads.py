"""The benchmark workloads: inputs generated from a seed, and one pass of
commands over the public CLI and library.

`monte_carlo` runs the double-integrator part (n=2) and the orthogonal part
(n=6) of the Monte Carlo path; `solvers` runs the numeric-Bellman part and
the scalar-oracle part.  Every workload runs serially in one process with BILQ_THREADS unset and
passes no ``max_workers``.  Functions of bilq are looked up as module
attributes at call time, so the tracer's rebinding reaches them.
"""

import contextlib
import io
import json
import time
import zlib

import numpy as np

import bilq.cli
import bilq.control
import bilq.core
import bilq.kalman
import bilq.presets
import bilq.sim

from gates import action_matches, oracle_agrees, status_ok

HORIZON = 100          # the CLI's fixed Monte Carlo horizon
# small sizes keep passes short, so each command is timed more often in a
# run and meets more fast moments of a shared machine; 10 runs is the least
# at which the double-integrator command asserts its orderings
DI_RUNS = 10
ORTHO_RUNS = 10
# the same variant for every seed: the variants differ in cost, and one
# chosen by the seed would make the pass time follow the seed
ORTHO_VARIANT = "a"
BELLMAN_DI_RUNS, BELLMAN_DI_HORIZON = 1, 16
BELLMAN_P2_SYSTEMS, BELLMAN_P2_HORIZON = 2, 2
BELLMAN_P2_INPUT_WEIGHT = 10.0
ORACLE_SCENARIOS, ORACLE_STEPS = 4, 1
ORACLE_LOG_RATIO = (np.log10(0.005), np.log10(0.1))
T2_RUNS = 20


def _rng(workload, seed):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _write_config(path, system, noise, cost, horizon, runs, seed):
    data = bilq.core.config_to_dict(system, noise, cost, horizon, runs, seed)
    path.write_text(json.dumps(data, sort_keys=True, indent=1), encoding="utf-8")
    return path


class PassLog:
    """Operations of one pass: counts, failures, and artifacts to hash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.items = 0
        self.files = []      # (label, path) hashed after the pass
        self.texts = []      # (label, captured stdout)
        self.times = []      # seconds of each command, in pass order

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}".rstrip(": "))


class Runner:
    """Runs commands of a pass, each inside a span of the tracer."""

    def __init__(self, tracer, outdir):
        self.tracer = tracer
        self.outdir = outdir

    def cli(self, log, args, outputs=(), keep_stdout=False):
        args = [str(a) for a in args]
        buf = io.StringIO()
        code = 0
        start = time.perf_counter()
        with self.tracer.span("cli." + args[0]):
            try:
                with contextlib.redirect_stdout(buf):
                    bilq.cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a failed command is counted, not fatal
                log.check(args[0], False, f"{type(exc).__name__}: {exc}")
                return
            finally:
                log.times.append(time.perf_counter() - start)
        out = buf.getvalue()
        log.check(args[0], status_ok(out, code), out.strip()[-300:])
        for path in outputs:
            log.files.append((str(path.relative_to(self.outdir)), path))
        if keep_stdout:
            log.texts.append((args[0] + ".stdout", out))

    def lib(self, log, label, fn):
        """Run a library check fn() -> (ok, detail)."""
        start = time.perf_counter()
        with self.tracer.span("lib." + label):
            try:
                ok, detail = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        log.times.append(time.perf_counter() - start)
        log.check(label, ok, detail)


# --- mc_di ---------------------------------------------------------------

def mc_di_inputs(seed, indir):
    rng = _rng("mc_di", seed)
    return {"seed": seed, "c1": float(rng.uniform(0.8, 1.2))}


def mc_di_pass(inp, run, log):
    out = run.outdir / "di"
    run.cli(log, ["double-integrator", "--runs", DI_RUNS, "--seed", inp["seed"],
                  "--c1", repr(inp["c1"]), "--out", out],
            outputs=[out / f"trajectories_{v}.csv" for v in ("perfect", "linear", "bilinear")]
            + [out / "summary.csv"])
    log.items += 3 * DI_RUNS * HORIZON


# --- mc_ortho ------------------------------------------------------------

def mc_ortho_inputs(seed, indir):
    return {"seed": seed}


def mc_ortho_pass(inp, run, log):
    out = run.outdir / "ortho"
    run.cli(log, ["orthogonal", "--runs", ORTHO_RUNS, "--seed", inp["seed"],
                  "--variant", ORTHO_VARIANT, "--out", out],
            outputs=[out / "trajectories_linear.csv", out / "trajectories_bilinear.csv",
                     out / "summary.csv", out / f"system_{ORTHO_VARIANT}.json",
                     out / "prop1_report.json"])
    run.cli(log, ["observability", "--config", out / f"system_{ORTHO_VARIANT}.json",
                  "--horizon", HORIZON], keep_stdout=True)
    log.items += 2 * ORTHO_RUNS * HORIZON


# --- bellman -------------------------------------------------------------

def random_p2_system(rng, n=3, m=2, p=2):
    """Random bilinear system with two input channels, checked by
    validate_system before it is used.

    The input weight r = 10 I keeps the stage objective's two inputs weakly
    coupled, so the minimizer's work is the 51x51 grid plus a few
    refinement passes on every draw.  With r = I a few draws in forty need
    up to 3x the mean number of objective evaluations, and the workload's
    time would follow the seed more than the code.
    """
    a = rng.standard_normal((n, n))
    a *= 0.95 / float(np.abs(np.linalg.eigvals(a)).max())
    system = bilq.core.BilinearSystem(
        a=a, b=rng.standard_normal((n, p)) / np.sqrt(n),
        c0=rng.standard_normal((m, n)) / np.sqrt(m),
        ck=tuple(rng.standard_normal((m, n)) / np.sqrt(m) for _ in range(p)))
    noise = bilq.core.NoiseSpec(sigma_w=0.01 * np.eye(n), sigma_z=0.05 * np.eye(m),
                                x0_mean=rng.uniform(-1.0, 1.0, n), sigma_0=np.eye(n))
    cost = bilq.core.CostSpec(q=np.eye(n), q_t=np.eye(n), r=BELLMAN_P2_INPUT_WEIGHT * np.eye(p))
    report = bilq.core.validate_system(system, noise, cost)
    if not report.ok:
        raise ValueError(f"generated p=2 system invalid: {report.violations}")
    return system, noise, cost


def bellman_inputs(seed, indir):
    """The bilinear integrator at p=1, and several random p=2 systems with one
    run (one decision) each."""
    rng = _rng("bellman", seed)
    di = bilq.presets.double_integrator_config("bilinear", c1=float(rng.uniform(0.8, 1.2)))
    configs = [("bell_di", _write_config(indir / "di_bilinear.json", *di,
                                         BELLMAN_DI_HORIZON, BELLMAN_DI_RUNS, seed),
                BELLMAN_DI_RUNS * (BELLMAN_DI_HORIZON - 1))]
    for k in range(BELLMAN_P2_SYSTEMS):
        configs.append((f"bell_p2_{k}",
                        _write_config(indir / f"random_p2_{k}.json", *random_p2_system(rng),
                                      BELLMAN_P2_HORIZON, 1, seed),
                        BELLMAN_P2_HORIZON - 1))
    return {"seed": seed, "configs": configs}


def scalar_t2_first_action(seed):
    """Numeric Bellman's first action on the scalar T=2 config against the
    tied minimizers of the closed-form controller."""
    system, noise, cost = bilq.presets.scalar_config()
    policy = bilq.sim.PolicyConfig("numeric_bellman", "prior_mean")
    rec = bilq.sim.rollout(system, noise, cost, policy, 2, bilq.core.RngStream(seed))
    params = bilq.control.scalar_gap_params(system, noise, cost,
                                            prior_var=float(noise.sigma_0[0, 0]),
                                            x_hat0=float(noise.x0_mean[0]))
    candidates = bilq.control.scalar_optimal_controller_T2(params).u0_candidates
    action = float(rec.inputs[0, 0])
    return action_matches(action, candidates), f"u0={action!r} candidates={candidates!r}"


def bellman_pass(inp, run, log):
    for label, config, decisions in inp["configs"]:
        out = run.outdir / label
        run.cli(log, ["simulate", "--config", config, "--policy", "numeric_bellman",
                      "--out", out],
                outputs=[out / "trajectories.csv", out / "summary.csv"])
        log.items += decisions
    run.lib(log, "scalar_t2_first_action", lambda: scalar_t2_first_action(inp["seed"]))
    log.items += 1


# --- scalar_oracle -------------------------------------------------------

def oracle_scenario(rng, stream, steps, log_ratio):
    """A scalar bilinear system, its inputs, and outputs of a simulated truth.

    log_ratio is log10 of the process-to-prior noise ratio sigma_w/sigma_0,
    which sets how narrow the oracle's transition kernel is relative to its
    grid, and with it the cost of building the kernel.
    """
    sigma_0 = rng.uniform(0.5, 2.0)
    sigma_w = sigma_0 * 10.0 ** log_ratio
    system = bilq.core.BilinearSystem(a=[[rng.uniform(0.5, 1.05)]],
                                      b=[[rng.uniform(0.5, 1.5)]],
                                      c0=[[rng.uniform(0.2, 1.0)]],
                                      ck=([[rng.uniform(-1.0, 1.0)]],))
    noise = bilq.core.NoiseSpec(sigma_w=[[sigma_w]], sigma_z=[[rng.uniform(0.05, 0.2)]],
                                x0_mean=[rng.uniform(-0.5, 0.5)], sigma_0=[[sigma_0]])
    a, b = system.a[0, 0], system.b[0, 0]
    x = noise.x0_mean[0] + np.sqrt(sigma_0) * stream.standard_normal(1)[0]
    inputs, outputs = [], []
    for _ in range(steps):
        u = float(rng.uniform(-1.0, 1.0))
        c = system.c0[0, 0] + system.ck[0][0, 0] * u
        outputs.append(float(c * x + np.sqrt(noise.sigma_z[0, 0]) * stream.standard_normal(1)[0]))
        inputs.append(u)
        x = a * x + b * u + np.sqrt(sigma_w) * stream.standard_normal(1)[0]
    return system, noise, inputs, outputs


def oracle_check(system, noise, inputs, outputs):
    belief = bilq.core.BeliefState(mean=noise.x0_mean, cov=noise.sigma_0)
    for u, y in zip(inputs, outputs):
        belief = bilq.kalman.kf_step(belief, system, noise, [u], [y]).next_belief
    mean, var = bilq.kalman.grid_bayes_oracle(system, noise, inputs, outputs)
    kf_mean, kf_var = float(belief.mean[0]), float(belief.cov[0, 0])
    return (oracle_agrees(mean, var, kf_mean, kf_var),
            f"oracle ({mean!r}, {var!r}) filter ({kf_mean!r}, {kf_var!r})")


def scalar_oracle_inputs(seed, indir):
    rng = _rng("scalar_oracle", seed)
    # one scenario per equal slice of the log ratio range, so every seed
    # spans the range the same way
    lo, hi = ORACLE_LOG_RATIO
    width = (hi - lo) / ORACLE_SCENARIOS
    scenarios = [oracle_scenario(rng, bilq.core.RngStream(seed, k), ORACLE_STEPS,
                                 lo + width * (k + rng.uniform()))
                 for k in range(ORACLE_SCENARIOS)]
    offset = float(rng.uniform(-0.5, 0.5))
    t2 = bilq.presets.scalar_config(offset=offset)
    return {
        "scenarios": scenarios,
        "landscape_offset": offset,
        "x0hat": float(rng.uniform(-0.3, 0.3)),
        "c1": float(rng.uniform(1.5, 3.0)),
        "t2_config": _write_config(indir / "scalar_t2.json", *t2, 2, T2_RUNS, seed),
    }


def scalar_oracle_pass(inp, run, log):
    for k, scenario in enumerate(inp["scenarios"]):
        run.lib(log, f"oracle_scenario_{k}", lambda s=scenario: oracle_check(*s))
        log.items += len(scenario[2])
    out = run.outdir / "scalar"
    run.cli(log, ["scalar-landscape", "--offset", repr(inp["landscape_offset"]),
                  "--out", out / "landscape.csv"],
            outputs=[out / "landscape.csv", out / "landscape_critical_points.csv"])
    run.cli(log, ["critical-points", "--x0hat", repr(inp["x0hat"]), "--c1", repr(inp["c1"])],
            keep_stdout=True)
    run.cli(log, ["simulate", "--config", inp["t2_config"], "--policy", "scalar_nonlinear_t2",
                  "--out", out / "t2"],
            outputs=[out / "t2" / "trajectories.csv", out / "t2" / "summary.csv"])


# workload -> parts run in order in every pass: (what an item is, make the
# part's inputs, run the part)
WORKLOADS = {
    "monte_carlo": (("rollout_steps", mc_di_inputs, mc_di_pass),
                    ("rollout_steps", mc_ortho_inputs, mc_ortho_pass)),
    "solvers": (("decisions", bellman_inputs, bellman_pass),
                ("oracle_steps", scalar_oracle_inputs, scalar_oracle_pass)),
}
