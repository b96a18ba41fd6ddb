"""bilq benchmark: end-to-end and per-layer metrics of its workloads.

One run:

    python3 bench/run.py --workload monte_carlo --seed 1 --seconds 50 --trace 0

generates the workload's inputs from the seed, times ``--seconds`` seconds
of repeated passes over the workload's commands, checks every output, and
prints one JSON object as its last stdout line.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a traced run.  Everything else printed, and the detailed result under
``.bench_work/results``, is for people.

    python3 bench/run.py --report [--seeds 1 2 3] [--seconds 50] [--record NOTE]

runs every workload untraced and traced, prints every end-to-end metric
with units and sample counts, and with ``--record`` appends an entry to
bench/history.json.  ``--self-check`` checks that every gate can fail.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 2
CHILD_TIMEOUT_S = 170

# ROADMAP "Baseline" per-call figures: (workload, per-layer metric, value, unit)
ROADMAP_BASELINE = (
    ("monte_carlo", "kalman.kf_step.us_per_call", 141.0, "us"),
    ("monte_carlo", "core.sample_gaussian.us_per_call", 30.0, "us"),
    ("monte_carlo", "control.riccati_recursion.ms_per_call", 5.1, "ms"),
    ("solvers", "control.bellman_objective_Tm2.us_per_eval", 106.0, "us"),
    ("solvers", "kalman.grid_bayes_oracle.s_per_step", 0.3, "s"),
)
THROUGHPUT_NAMES = {"rollout_steps": "rollout_steps_per_s", "decisions": "decisions_per_s",
                    "oracle_steps": "oracle_steps_per_s"}


def import_bilq():
    """Import bilq from this checkout's src/ only; exit non-zero otherwise."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import bilq
    except ImportError as exc:
        sys.exit(f"bench: cannot import bilq from {SRC}: {exc}")
    if not Path(bilq.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: bilq imported from {bilq.__file__}, not from {SRC}")


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts(seed):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "BILQ_THREADS")},
    }


def make_inputs(workload, seed, indir):
    """The inputs of each part of the workload, in part order."""
    from workloads import WORKLOADS
    indir.mkdir(parents=True, exist_ok=True)
    return [make(seed, indir) for _, make, _ in WORKLOADS[workload]]


def measure_setup(workload, seed):
    """Median time of fresh interpreters that import bilq and make the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                 "--workload", workload, "--seed", str(seed)],
                                cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait ends when the child does; wait(timeout=...) polls in
        # steps of up to 50 ms, which would quantize the measured time
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        code = proc.wait()
        times.append(time.perf_counter() - start)
        killer.cancel()
        if code != 0:
            sys.exit(f"bench: set-up probe exited with {code}")
    return statistics.median(times), times


def run_passes(workload, inputs, seconds, traced, rundir):
    """Warm-up pass, then timed passes until `seconds` have passed.

    Untraced runs time every pass after the warm-up; traced runs alternate
    traced and untraced passes so the tracing overhead is measured in the
    same process.  The warm-up pass writes the reference artifact digests.
    """
    from gates import same_bytes, sha256
    from spans import LayerStats, Tracer
    from workloads import WORKLOADS, PassLog, Runner

    parts = WORKLOADS[workload]
    tracer = Tracer()
    runner = Runner(tracer, rundir)
    stats = LayerStats(keep_samples={"control.bellman_minimize_Tm2"})
    walls = {"plain": [], "traced": []}
    command_s = {"plain": [], "traced": []}     # per timed pass: seconds per command
    part_walls = []      # per untraced timed pass: {item kind: seconds}
    totals = {"attempted": 0, "failed": 0, "failures": [], "items": {}}
    reference = None
    first_spans = None
    # The CPUs of a shared host each turn slow for seconds at a time, and
    # not together; a pass pinned to each usable CPU in turn lets every
    # command meet a fast CPU in some pass.  A traced run switches CPU
    # every two passes, so both modes run on every CPU.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        mode = "plain" if index == 0 or not traced or index % 2 == 0 else "traced"
        if cpus:
            os.sched_setaffinity(0, {cpus[index // (2 if traced else 1) % len(cpus)]})
        if mode == "traced":
            tracer.install()
        log = PassLog()
        items, part_s = {}, {}
        start = time.perf_counter()
        with tracer.span("bench.pass"):
            for (item, _, run_part), part_inputs in zip(parts, inputs):
                before, part_start = log.items, time.perf_counter()
                run_part(part_inputs, runner, log)
                part_s[item] = part_s.get(item, 0.0) + time.perf_counter() - part_start
                items[item] = items.get(item, 0) + log.items - before
        wall = time.perf_counter() - start
        tracer.uninstall()
        digests = {label: sha256(path.read_bytes()) for label, path in log.files
                   if path.exists()}
        digests.update({label: sha256(text.encode()) for label, text in log.texts})
        missing = [label for label, path in log.files if not path.exists()]
        log.check("artifacts written", not missing, ", ".join(missing))
        if reference is None:
            reference = digests
        else:
            changed = same_bytes(reference, digests)
            log.check("repeat writes identical bytes", not changed, ", ".join(changed))
        if mode == "traced":
            spans = tracer.take()
            stats.add(spans, nested_pairs=(
                ("control.riccati_recursion", "sim.monte_carlo"),
                ("control.bellman_objective_Tm2", "control.bellman_minimize_Tm2")))
            if first_spans is None:
                first_spans = spans
        if index > 0:
            walls[mode].append(wall)
            command_s[mode].append(log.times)
            if mode == "plain":
                part_walls.append(part_s)
        totals["attempted"] += log.attempted
        totals["failed"] += log.failed
        totals["failures"] += [f"pass {index}: {f}" for f in log.failures]
        totals["items"] = items
        index += 1
        if traced:
            enough = walls["plain"] and walls["traced"]
        else:
            enough = len(walls["plain"]) >= MIN_TIMED_PASSES
        if time.perf_counter() >= deadline and enough:
            break
    if cpus:
        os.sched_setaffinity(0, cpus)
    return {"walls": walls, "command_s": command_s, "part_walls": part_walls, "totals": totals,
            "digests": reference, "stats": stats, "spans": first_spans or [],
            "absent": tracer.absent}


def fastest_pass(command_s):
    """A pass's time as the sum over its commands of each one's fastest time.

    A shared machine's speed changes over seconds, so a whole pass seldom
    runs at full speed throughout, while each command of a few tenths of a
    second does in some pass; the sum of those fastest times follows the
    code, not the moment.
    """
    return sum(min(times) for times in zip(*command_s))


def layer_metrics(stats, passes, overhead_s):
    """Per-layer metrics per pass, from the traced passes' spans."""
    import numpy as np

    def calls(name):
        return stats.calls.get(name, 0) / passes

    def self_s(name):
        return stats.self_s.get(name, 0.0) / passes

    def per_call(name, scale):
        n = stats.calls.get(name, 0)
        return scale * stats.incl_s.get(name, 0.0) / n if n else 0.0

    def extra_sum(name):
        return float(sum(stats.extras.get(name, ())))

    m = {}
    for name in ("core.sample_gaussian", "kalman.kf_step"):
        m[name + ".calls"] = calls(name)
        m[name + ".us_per_call"] = per_call(name, 1e6)
        m[name + ".self_s"] = self_s(name)
    drawn = [int(n) for n in stats.extras.get("core.RngStream.standard_normal", ())]
    generated = sum(2 * ((n + 1) // 2) for n in drawn if n > 0)
    m["core.RngStream.standard_normal.normals_used_frac"] = (
        sum(n for n in drawn if n > 0) / generated if generated else 0.0)
    m["core.observation_matrix.calls"] = calls("core.observation_matrix")
    m["core.observation_matrix.self_s"] = self_s("core.observation_matrix")

    oracle = "kalman.grid_bayes_oracle"
    steps = extra_sum(oracle)
    m[oracle + ".calls"] = calls(oracle)
    m[oracle + ".steps"] = steps / passes
    m[oracle + ".s_per_step"] = stats.incl_s.get(oracle, 0.0) / steps if steps else 0.0
    m[oracle + ".self_s"] = self_s(oracle)

    ric = "control.riccati_recursion"
    configs = stats.calls.get("sim.monte_carlo", 0)
    m[ric + ".calls"] = calls(ric)
    m[ric + ".calls_per_config"] = (stats.nested.get((ric, "sim.monte_carlo"), 0) / configs
                                    if configs else 0.0)
    m[ric + ".ms_per_call"] = per_call(ric, 1e3)
    m[ric + ".self_s"] = self_s(ric)
    m["control.lqg_policy.calls"] = calls("control.lqg_policy")
    m["control.lqg_policy.self_s"] = self_s("control.lqg_policy")

    mini = "control.bellman_minimize_Tm2"
    for p in (1, 2):
        sel = [(dur, own) for dur, own, extra in stats.samples.get(mini, ()) if extra == p]
        durations = np.array([dur for dur, _ in sel])
        key = f"{mini}.p{p}"
        m[key + ".calls"] = len(sel) / passes
        m[key + ".ms_p50"] = 1e3 * float(np.median(durations)) if sel else 0.0
        m[key + ".ms_p90"] = (1e3 * float(np.percentile(durations, 90))
                              if len(sel) >= 100 else 0.0)
        m[key + ".self_s"] = sum(own for _, own in sel) / passes
    obj = "control.bellman_objective_Tm2"
    decisions = stats.calls.get(mini, 0)
    m[obj + ".evals"] = calls(obj)
    m[obj + ".evals_per_decision"] = (stats.nested.get((obj, mini), 0) / decisions
                                      if decisions else 0.0)
    m[obj + ".us_per_eval"] = per_call(obj, 1e6)

    m["control.scalar_critical_points.calls"] = calls("control.scalar_critical_points")
    m["control.scalar_critical_points.us_per_call"] = per_call(
        "control.scalar_critical_points", 1e6)
    m["control.scalar_optimal_controller_T2.calls"] = calls(
        "control.scalar_optimal_controller_T2")
    for name in ("gramian", "check_proposition1", "covariance_boundedness_probe"):
        m[f"observability.{name}.calls"] = calls(f"observability.{name}")
        m[f"observability.{name}.self_s"] = self_s(f"observability.{name}")
    m["presets.orthogonal_config.self_s"] = self_s("presets.orthogonal_config")
    for name in ("rollout", "aggregate_percentiles"):
        m[f"sim.{name}.self_s"] = self_s(f"sim.{name}")
    for name in ("write_trajectory_csv", "write_summary_csv"):
        m[f"sim.{name}.bytes"] = extra_sum(f"sim.{name}") / passes
        m[f"sim.{name}.self_s"] = self_s(f"sim.{name}")
    m["cli.self_s"] = sum(v for k, v in stats.self_s.items() if k.startswith("cli.")) / passes
    m["trace_overhead_s"] = overhead_s
    return m


def run_workload(args, bench):
    from gates import self_check
    from spans import write_spans

    os.environ.pop("BILQ_THREADS", None)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    problems = self_check()
    setup_s, setup_samples = measure_setup(args.workload, args.seed)

    rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    inputs = make_inputs(args.workload, args.seed, rundir / "inputs")
    result = run_passes(args.workload, inputs, args.seconds, bool(args.trace), rundir)
    shutil.rmtree(rundir, ignore_errors=True)

    walls, totals = result["walls"], result["totals"]
    wall_s = fastest_pass(result["command_s"]["plain"])
    # throughput of each part from its fastest timed pass, for people
    throughput = {THROUGHPUT_NAMES[item]: n / min(p[item] for p in result["part_walls"])
                  for item, n in totals["items"].items()}
    if args.trace:
        traced_passes = len(walls["traced"])
        overhead = fastest_pass(result["command_s"]["traced"]) - wall_s
        values = layer_metrics(result["stats"], traced_passes, overhead)
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values:
            sys.exit(f"bench: metric {name} is not computed")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    attempted = totals["attempted"] + 1
    failed = totals["failed"] + (1 if problems else 0)
    failures = totals["failures"] + [f"self-check: {p}" for p in problems]
    detail = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "machine": machine_facts(args.seed),
        "passes": {"warm_up": 1, "timed_untraced": len(walls["plain"]),
                   "timed_traced": len(walls["traced"])},
        "wall_s_samples": walls, "command_s_samples": result["command_s"],
        "setup_s_samples": setup_samples,
        "items_per_pass": totals["items"], "throughput_per_s": throughput,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures[:50], "artifact_sha256": result["digests"],
        "absent_layers": result["absent"], "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        write_spans(results / f"{stem}-spans.jsonl", result["spans"])
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True),
                                          encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls['plain'])} untraced + {len(walls['traced'])} traced timed passes "
          f"after 1 warm-up; per pass {totals['items']}")
    print(f"  untraced pass: sum of fastest commands {wall_s:.4g} s, fastest pass "
          f"{min(walls['plain']):.4g} s, median pass {statistics.median(walls['plain']):.4g} s")
    for name, value in throughput.items():
        print(f"  {name} = {value:.6g} 1/s")
    print(f"  fail_frac = {failed}/{attempted}; absent layers: {result['absent'] or 'none'}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print(f"  detail: {results / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_report(args, bench):
    """Every workload, untraced and traced, for each seed; one table."""
    rows = []
    entry = {"note": args.record, "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "machine": machine_facts(args.seeds), "seconds": args.seconds, "workloads": {}}
    for wl in [w["name"] for w in bench["workloads"]]:
        per_trace = {}
        for trace in (0, 1):
            samples = {}
            for seed in args.seeds:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S + args.seconds)
                if proc.returncode != 0:
                    sys.exit(f"bench: {' '.join(cmd[1:])} failed:\n{proc.stderr}")
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                detail_path = WORK / "results" / f"{wl}-s{seed}-t{trace}.json"
                detail = json.loads(detail_path.read_text(encoding="utf-8"))
                for name, metric in out["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                samples.setdefault("fail_frac", []).append(out["failed"] / out["attempted"])
                samples.setdefault("passes", []).append(
                    detail["passes"]["timed_traced" if trace else "timed_untraced"])
                if not trace:
                    for name, value in detail["throughput_per_s"].items():
                        samples.setdefault(name, []).append(value)
            per_trace[trace] = samples
        entry["workloads"][wl] = {"end_to_end": per_trace[0], "per_layer": per_trace[1]}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units.update({name: "1/s" for name in per_trace[0] if name.endswith("_per_s")})
        units["fail_frac"] = "frac"
        for trace, names in ((0, list(units)), (1, ["trace_overhead_s"])):
            samples = per_trace[trace]
            for name in names:
                vals = samples[name]
                rows.append((wl, name, units.get(name, "s"), statistics.median(vals),
                             min(vals), max(vals), len(vals), sum(samples["passes"])))
    print(f"{'workload':<14}{'metric':<22}{'unit':<6}{'median':>12}{'min':>12}{'max':>12}"
          f"{'runs':>6}{'passes':>8}")
    for wl, name, unit, med, lo, hi, runs, passes in rows:
        print(f"{wl:<14}{name:<22}{unit:<6}{med:>12.5g}{lo:>12.5g}{hi:>12.5g}{runs:>6}{passes:>8}")
    print("per run: wall_s sums each command's fastest time and *_per_s the items of a part over "
          f"that part's fastest time; setup_s is the median of {SETUP_PROBES} probes; "
          "'passes' sums timed passes over runs")
    print("ROADMAP baseline per-call figures, traced runs:")
    comparison = []
    for wl, name, baseline, unit in ROADMAP_BASELINE:
        vals = entry["workloads"][wl]["per_layer"][name]
        med, lo, hi = statistics.median(vals), min(vals), max(vals)
        outside = abs(med - baseline) > hi - lo
        comparison.append({"workload": wl, "metric": name, "unit": unit, "roadmap": baseline,
                           "median": med, "min": lo, "max": hi,
                           "disagrees_beyond_spread": outside})
        print(f"  {name:<44}{med:>10.4g} {unit:<3} (range {lo:.4g}..{hi:.4g}); "
              f"roadmap {baseline:g}{'  DISAGREES' if outside else ''}")
    entry["roadmap_baseline"] = comparison
    if args.record:
        history = BENCH_DIR / "history.json"
        records = json.loads(history.read_text(encoding="utf-8")) if history.exists() else []
        records.append(entry)
        history.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"appended entry to {history}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--record", default=None,
                        help="with --report: append the results to bench/history.json")
    args = parser.parse_args()

    import_bilq()
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.self_check:
        from gates import self_check
        problems = self_check()
        print("\n".join(problems) or "every gate rejects its perturbed result")
        sys.exit(1 if problems else 0)
    if args.report:
        run_report(args, bench)
        return
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.setup_probe:
        probe_dir = WORK / f"setup-{os.getpid()}"
        make_inputs(args.workload, args.seed, probe_dir)
        shutil.rmtree(probe_dir, ignore_errors=True)
        return
    run_workload(args, bench)


if __name__ == "__main__":
    main()
