"""Layered benchmark of kssbij: both directions of the KSS map and `verify`.

Run from the repository root:

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload path-to-rc --seed 3 --seconds 10 --trace 0

Each workload runs in its own single-threaded process. With --trace 0 the
last line of stdout is one JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics instead, taken by wrapping the
program's functions. Raw records and trace files go to perfbench/runs/.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
WORKLOAD_NAMES = ("path-to-rc", "rc-to-path", "verify-default")
# a run, or one verify round, that takes longer than this is stopped
CHILD_TIMEOUT_S = 170


def quantile(groups, q):
    """Nearest-rank quantile of per-operation time; groups holds
    (seconds, operations) pairs, each operation taking its group's mean."""
    ordered = sorted((sec / ops, ops) for sec, ops in groups)
    rank = q * sum(ops for _, ops in ordered)
    seen = 0
    for value, ops in ordered:
        seen += ops
        if seen >= rank:
            return value
    raise ValueError("no operations")


def end_to_end(record):
    """The end-to-end metrics of a workload record."""
    groups = record["ops_s"]
    return {
        "ops_per_s": {"value": sum(ops for _, ops in groups) / sum(sec for sec, _ in groups), "unit": "1/s"},
        "op_p50_ms": {"value": quantile(groups, 0.50) * 1e3, "unit": "ms"},
        "op_p95_ms": {"value": quantile(groups, 0.95) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": record["setup_s"], "unit": "s"},
    }


def spawn_verify_round(trace):
    """Runs one verify round in a fresh interpreter and returns its data."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--verify-round", "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("verify round exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    import tracer as tracing
    import workloads

    if args.workload == "verify-default":
        record = workloads.run_verify(args.seed, args.seconds, args.trace, spawn_verify_round)
        dump = tracing.merge(record.pop("trace_dumps")) if args.trace else None
    else:
        tracer = tracing.Tracer() if args.trace else None
        record = workloads.run_in_process(args.workload, args.seed, args.seconds, tracer)
        dump = tracer.dump() if tracer is not None else None
    if dump is not None:
        import checks

        suites = list(checks.verify_case_counts(*workloads.VERIFY_BOUNDS))
        metrics = tracing.layer_metrics(dump, suites)
    else:
        metrics = end_to_end(record)
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    stem = os.path.join(RUNS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(RUNS, exist_ok=True)
    tracing.write(stem + ".json", {"result": result, "record": record,
                                   "seconds": args.seconds, "seed": args.seed})
    if dump is not None:
        tracing.write(stem + ".trace.json", dump)
    for name, m in sorted(metrics.items()):
        sys.stderr.write("%-48s %14.6g %s\n" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own process; prints a table and, last, all results."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("%s: exited with code %d" % (name, proc.returncode))
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        r = results[name]
        print("%s: correct=%s attempted=%d failed=%d" % (name, r["correct"], r["attempted"], r["failed"]))
        for metric, m in sorted(r["metrics"].items()):
            print("  %-46s %14.6g %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify-round", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kssbij", "__init__.py")):
        sys.stderr.write("error: program source not found at %s\n" % os.path.join(SRC, "kssbij"))
        return 2
    sys.path.insert(0, SRC)
    if args.verify_round:
        import workloads

        print(json.dumps(workloads.verify_round(args.trace)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
