"""lichlab benchmark: one workload, timed from outside the package.

Run from the root of a lichlab checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Set-up time is the median time to import lichlab in a fresh interpreter
plus the median of several builds of the workload's inputs.  Then whole
rounds of its operations run, one after the other (a closed loop
with one caller), until the next round would end after --seconds.  At
least one round always runs.  Every round's results are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics of tracing.PER_LAYER (one set-up plus
the mean round) with --trace 1.  Results, and with --trace 1 the spans,
are also written under .perfbench_out/.

The run is one process: LICHLAB_WORKERS is unset, and BLAS gets
min(2, cores) threads.  The thread count is pinned because it sets the
order of BLAS reductions, and the 64^3 Newton path depends on that order
(25 MINRES calls with 2 threads, 29 with 1).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 2
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

# BENCHMARK.json's end_to_end list: name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("largest_op_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package(root):
    """Import lichlab from the checkout's src/, or return an error text."""
    pkg = root / "src" / "lichlab"
    if not (pkg / "__init__.py").is_file():
        return f"no lichlab source at {pkg}; run from the root of a checkout"
    os.environ.pop("LICHLAB_WORKERS", None)
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(root / "src"))
    import lichlab
    if Path(lichlab.__file__).resolve().parent != pkg.resolve():
        return f"lichlab imported from {lichlab.__file__}, not from {pkg}"
    return None


def import_seconds(root):
    """Median time to import lichlab, each time in a fresh interpreter.

    One import in this process is a single noisy sample; the interpreter
    state after it cannot be undone, so the repeats run in children.
    """
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(root / 'src')!r}); import lichlab; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_rounds(case, seconds, tracer):
    """Whole rounds until the next would end after `seconds`."""
    rounds = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        results, times = {}, {}
        t_round = time.perf_counter()
        for op in case.ops:
            if tracer is not None:
                tracer.run_id = f"round{len(rounds)}"
            t0 = time.perf_counter()
            attempted += op.work
            try:
                results[op.label] = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += op.work
                print(f"operation {op.label} failed: {exc!r}", file=sys.stderr)
            times[op.label] = time.perf_counter() - t0
        rounds.append({"wall": time.perf_counter() - t_round,
                       "times": times, "results": results})
        walls = [r["wall"] for r in rounds]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return rounds, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    error = import_package(root)
    if error:
        print(error, file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = None if args.trace else import_seconds(root)
    build = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer().install() if args.trace else None
    count = tracer.add if tracer else (lambda key, amount=1: None)
    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        case = build(args.seed, root, count)
        setups.append(time.perf_counter() - t0)

    rounds, attempted, failed = run_rounds(case, args.seconds, tracer)
    # the checks below allocate arrays of their own; read the peak first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems = []
    whole = [r for r in rounds if len(r["results"]) == len(case.ops)]
    for i, r in enumerate(whole):
        problems += [f"round {i}: {p}" for p in case.check(r["results"])]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        done = attempted - failed
        # Round times are averaged, not their median taken: the host
        # alternates between a fast and a slow state lasting seconds, and
        # the median of a few rounds jumps from one state to the other.
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.mean(r["wall"] for r in rounds),
            "largest_op_s": statistics.mean(
                case.largest(r["results"], r["times"]) for r in whole)
            if whole else None,
            "ops_per_s": done / sum(r["wall"] for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        summary = tracer.summary(["setup"])
        summary.add_scaled(tracer.summary(
            [f"round{i}" for i in range(len(rounds))]), 1.0 / len(rounds))
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        # counts of identical rounds average to whole numbers
        metrics = {name: int(v) if unit != "s" and float(v).is_integer() else v
                   for name, unit, _, fn in tracing.PER_LAYER
                   for v in [fn(summary)]}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    out = root / workloads.OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, inputs=case.inputs, rounds=len(rounds),
                  setups_s=setups, import_s=import_s,
                  round_walls_s=[r["wall"] for r in rounds],
                  op_times_s=[r["times"] for r in rounds], problems=problems)
    (out / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        with open(out / f"trace-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, run in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
