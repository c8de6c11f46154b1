"""Benchmark of the commoninfo workbench: one workload per run.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout: the program is imported from ``src/``
and nothing is installed.  A run sets up its workload from the seed, repeats
whole rounds of the workload's operations until ``--seconds`` of rounds have
been timed (at least one round), checks every output against the closed forms
and properties in ``references.py``, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics: the times are processor
times of this single-threaded process, so that time the host gives to other
processes is not counted, scaled to a reference host speed
(``hostspeed.py``).  ``--trace 1`` wraps the program's layers
(``tracing.py``), reports the per-layer metrics and writes the spans to
``perfbench/out/``.  ``--repeat N`` runs N untraced runs and one
traced run of each workload in child processes, one seed each, and reports
the median, the quartiles and the spread of every metric.
"""

import time

_C0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper_suite", "ci_sources", "finite_n")
#: the workload's inputs are made this many times in set-up
SETUP_BUILDS = 5
CHILD_TIMEOUT_S = 240
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def one_thread() -> None:
    """Run numeric libraries on one thread; must run before numpy is
    imported.  With two, OpenBLAS's second thread spins beside the first,
    doubles the processor time and makes the wall time depend on whether a
    second core is free."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``commoninfo`` from this checkout's ``src/`` and nowhere else."""
    pkg = os.path.join(SRC, "commoninfo")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise BenchError(f"no program source at {pkg}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import commoninfo
    if os.path.dirname(os.path.abspath(commoninfo.__file__)) != pkg:
        raise BenchError(f"commoninfo imported from {commoninfo.__file__}, "
                         f"not from {pkg}")


def set_up(workload: str, seed: int):
    """Imports, then input generation and plan parsing SETUP_BUILDS times.
    Returns the workload, the processor seconds from the start of this file
    to the end of the imports plus the median processor time of one build,
    and setup_s: the same at the reference host speed, sampled from the
    import of numpy on."""
    one_thread()
    import hostspeed                     # numpy, for the speed samples
    with hostspeed.HostSpeed() as speed:
        import_program()
        import workloads
        imported_s = time.process_time() - _C0
    builds = []
    for _ in range(SETUP_BUILDS):
        c0 = time.process_time()
        wl = workloads.WORKLOADS[workload](seed)
        builds.append(time.process_time() - c0)
    build_s = statistics.median(builds)
    return (wl, imported_s + build_s,
            speed.rescale(imported_s) + speed.scale(build_s))


def _clear_program_caches() -> None:
    # synthesis keeps a module-global normalizer cache that outlives a call;
    # a fresh process starts with it empty, so every round does too
    from commoninfo import synthesis
    cache = getattr(synthesis, "_COND_LAW_CACHE", None)
    if cache is not None:
        cache.clear()


def run_rounds(wl, seconds: float, trace: bool):
    import hostspeed
    import tracing
    from commoninfo import ci_solver, experiments, exponents, synthesis
    from commoninfo import typicality
    outputs, walls, cpus, norm_cpus, tracers = [], [], [], [], []
    peak_rss_mib = None
    while True:
        _clear_program_caches()
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install(tracing.layer_targets(
                experiments, ci_solver, exponents, synthesis, typicality))
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with hostspeed.HostSpeed() as speed:
                outputs.append(wl.run_round())
        finally:
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            norm_cpus.append(speed.rescale(cpus[-1]))
            if peak_rss_mib is None:
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.uninstall()
                tracers.append((tracer, t0))
        if sum(walls) >= seconds:
            return outputs, walls, cpus, norm_cpus, tracers, peak_rss_mib


def measure(args) -> dict:
    wl, raw_setup_s, setup_s = set_up(args.workload, args.seed)
    outputs, walls, cpus, norm_cpus, tracers, peak_rss_mib = run_rounds(
        wl, args.seconds, bool(args.trace))

    attempted = failed = 0
    for output in outputs:
        for o in wl.check(output):
            attempted += 1
            if o.failed:
                failed += 1
                sys.stderr.write(f"FAILED {o.label}: {o.error or o.wrong}\n")

    if args.trace:
        metrics = trace_metrics(args, tracers, walls, norm_cpus)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_cpu_s": {"value": statistics.median(norm_cpus),
                           "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} "
          f"round(s), {attempted} operations attempted, {failed} failed; "
          f"median round {statistics.median(walls):.4g} s wall, "
          f"{statistics.median(cpus):.4g} s processor time; set-up "
          f"{raw_setup_s:.4g} s processor time")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace_metrics(args, tracers, walls, norm_cpus) -> dict:
    import tracing
    per_round = [tr.metrics() for tr, _ in tracers]
    metrics = {name: {"value": statistics.median(r[name] for r in per_round),
                      "unit": unit}
               for name, unit, _ in tracing.METRICS}
    spans = len(tracers[0][0].spans)
    cost = tracing.span_cost()
    overhead = {"spans_per_round": spans, "span_cost_s": cost,
                "estimated_overhead_s": spans * cost,
                "traced_round_wall_s": walls,
                "traced_round_norm_cpu_s": norm_cpus,
                "estimated_overhead_share": spans * cost / statistics.median(
                    walls)}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "overhead": overhead,
                   "rounds": [tr.dump(t0) for tr, t0 in tracers]}, fh)
    print(f"trace: {spans} spans per round, ~{cost * 1e6:.2f} us each, "
          f"estimated overhead {overhead['estimated_overhead_share']:.3%} "
          f"of the traced round; spans in {os.path.relpath(path, ROOT)}")
    return metrics


# ---------------------------------------------------------------------------
# repeat mode
# ---------------------------------------------------------------------------

def _child_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workload.split(",") if args.workload
             else [w["name"] for w in spec["workloads"]])
    summary = {}
    for w in names:
        runs = []
        for i in range(args.repeat):
            runs.append(_child_run(w, args.seed + i, args.seconds, 0))
            got = runs[-1]["metrics"]
            print(f"  {w} seed {args.seed + i}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in got.items()), flush=True)
        traced = _child_run(w, args.seed, args.seconds, 1)
        row = {"failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in runs}),
               "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": bound, "values": vals}
        row["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        with open(os.path.join(OUT, f"trace-{w}-seed{args.seed}.json")) as fh:
            traced = json.load(fh)["overhead"]["traced_round_norm_cpu_s"]
        row["trace_overhead_share"] = (statistics.median(traced)
                                       / row["metrics"]["norm_cpu_s"]["median"]
                                       - 1)
        summary[w] = row
        print(f"{w}: correct={row['correct']} failed share "
              f"{row['failed_share']}, traced norm_cpu_s / untraced median "
              f"- 1 = {row['trace_overhead_share']:+.2%}")
        for name, m in row["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- wide"
            print(f"  {name:14s} median {m['median']:.6g}  q1 {m['q1']:.6g}  "
                  f"q3 {m['q3']:.6g}  spread {m['spread']:.2%} "
                  f"(bound {m['bound']:.0%}){flag}", flush=True)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{'+'.join(names)}-seed{args.seed}"
                             f"-x{args.repeat}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"written to {os.path.relpath(path, ROOT)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help=f"one of {', '.join(WORKLOAD_NAMES)} (--repeat: "
                             "a comma list, default those of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload in repeat mode")
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            repeat(args)
            return 0
        if args.workload not in WORKLOAD_NAMES:
            raise BenchError(f"--workload must be one of {WORKLOAD_NAMES}")
        result = measure(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            ImportError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
