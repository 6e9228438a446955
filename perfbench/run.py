"""hh1lab benchmark: three workloads, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is corpus_report, j1_stretch or category_probe; `all` runs each of
them in a fresh process, one after another.  A run repeats whole passes of
its workload and stops at the pass boundary nearest to S seconds (after at
least one pass); it checks every output against pinned values.  The last
line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics, whose spans also go to perfbench/out/.  The exit code
is 1 when a check fails and 2 when the package cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("corpus_report", "j1_stretch", "category_probe")
# set-up runs in this many fresh interpreters before the passes and as many
# after them; setup_s is the median of all of them
SETUP_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload):
    """Import the package from this checkout's src/ and load what the
    workload reads.  This is the work setup_s measures."""
    sys.path.insert(0, SRC)
    import hh1lab
    found = os.path.dirname(os.path.abspath(hh1lab.__file__))
    if found != os.path.join(SRC, "hh1lab"):
        raise SystemExit(f"hh1lab imported from {found}, not from {SRC}")
    import workloads
    workloads.prepare(workload)


def measure_setup(args):
    """Wall times of SETUP_SAMPLES fresh interpreters that only set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def run_passes(args, tally, fn):
    """Run whole passes and stop at the pass boundary nearest to
    args.seconds; each pass reports its wall and cpu time beside what the
    workload returns."""
    passes = []
    start = perf_counter()
    os.makedirs(OUT, exist_ok=True)
    while not passes or (perf_counter() - start
                         + median_of(passes, "wall_s") / 2 < args.seconds):
        cpu0, wall0 = cpu_seconds(), perf_counter()
        result = fn(tally, args.seed, OUT)
        result["wall_s"] = perf_counter() - wall0
        result["cpu_s"] = cpu_seconds() - cpu0
        passes.append(result)
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def run_workload(args):
    import spans
    import workloads
    from hh1lab import cli

    # set-up is timed around the passes only in untraced runs
    setup_times = [] if args.trace else measure_setup(args)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    tally = workloads.Tally(tracer)
    stats = dict(cli.CACHE_STATS)
    if args.trace:
        tracer.install()
    try:
        passes = run_passes(args, tally, workloads.WORKLOADS[args.workload])
    finally:
        if args.trace:
            tracer.restore()
    if not args.trace:
        setup_times += measure_setup(args)
    n = len(passes)
    shown = {k: (statistics.median(p["shown"][k][0] for p in passes), unit)
             for k, (_, unit) in passes[0]["shown"].items()}
    if args.trace:
        hits = (cli.CACHE_STATS["hits"] - stats["hits"]) / n
        misses = (cli.CACHE_STATS["misses"] - stats["misses"]) / n
        metrics = tracer.layer_metrics(n)
        metrics.update({
            "cli.cache_hits": hits, "cli.cache_misses": misses,
            "cli.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cli.jobs_efficiency": statistics.median(
                p.get("layer", {}).get("cli.jobs_efficiency", 0.0)
                for p in passes),
            "trace.wall_s": median_of(passes, "wall_s"),
        })
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "wall_s": median_of(passes, "wall_s"),
            "cpu_s": median_of(passes, "cpu_s"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = load_units()
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"passes {n}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6f} {units[name]}")
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<34} {value:>16.6f} {unit}")
    lines.append(f"  {'failed_frac':<34} "
                 f"{tally.failed / max(tally.attempted, 1):>16.6f} ratio "
                 f"({tally.failed} of {tally.attempted} items)")
    print("\n".join(lines))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_child(args, workload, trace):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def run_all(args):
    """Each workload in its own process, one after another; with --trace 1
    also a traced run, and the tracing overhead beside it."""
    ok = True
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            code, result = run_child(args, workload, trace)
            if result is None:
                print(f"{workload}: no result (exit {code})")
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}.{name}"] = m
        traced = metrics.get(f"{workload}.trace.wall_s")
        plain = metrics.get(f"{workload}.wall_s")
        if traced and plain:
            overhead = traced["value"] - plain["value"]
            print(f"  {'trace overhead (traced - untraced wall_s)':<34} "
                  f"{overhead:>16.6f} s")
            metrics[f"{workload}.trace.overhead_s"] = {"value": overhead,
                                                       "unit": "s"}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        setup(args.workload)
    except ImportError as exc:
        print(f"cannot set up hh1lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
