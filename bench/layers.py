"""Per-suite `verify` times, the carrier sweep and box removal layers and
end-to-end benchmark pairs, written as one BENCH_*.json.

Run from the repository root:

    python3 bench/layers.py --out BENCH_26.json --parent HEAD~1
    python3 bench/layers.py --out bench.json --bounds 1,1,1 --rounds 1   # smallest size

Suite times: each round runs `harness.run_verify` untraced in a fresh
process, once per set of bounds (by default the `verify` defaults 2,3,2 and
`--max-n 3`), and reads each suite's elapsed time from `Report.results`,
with the total time and the process's max RSS. The file holds the median and
quartiles of each over the rounds.

Sweep layer: on this working tree only, each round times two passes of one
sweep function over evolution-linearization's (p, a, l) items at the first
set of bounds, in a fresh process per function: `evolution._evolve`, the
rows sweep that `verify` runs (and perfbench's tracer does not see), and
`evolution.carrier_sweep`, the public one. The first pass starts on an
empty step cache (cold), the second reuses it (warm).

Box removal layer: per side (this working tree, and REV's copy with
--parent), each round times `kss.phi_inverse` in a fresh process over the
phi images of the first set of bounds' `family(...)`, round-trip's inputs,
and over ROADMAP's Baseline B^{1,1} chains (n = 3, letters from one
`Random(3)`, drawn for L = 200 and then 400). Each input set takes the best
of 5 passes; the file holds the spread over the rounds of the seconds per
call. Every input is checked to come back as its path first.

With --parent REV, the suite and box removal rounds also run on a `git archive` copy of REV,
the two sides alternating which runs first, and then 10 alternating pairs
of `perfbench/run.py --workload W --seed i --seconds S --trace 0` run end
to end for each --workload, pair i with seed i on both sides, S being
BENCHMARK.json's run_seconds. Each run gets a fresh copy of `src` and
`perfbench` (REV's, or this working tree's without `__pycache__`), so
neither side runs on a warm bytecode cache. Per metric of BENCHMARK.json,
the file holds each side's median and quartiles and how many pairs the
working tree won (ties count for neither side).

`perfbench/` is read and run, never edited. The copies live in a new
temporary directory, removed at the end.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what perfbench/run.py needs from a checkout
PARTS = ("src", "perfbench")
DEFAULT_BOUNDS = ("2,3,2", "3,3,2")
# left out of every copy: bytecode, which would warm a later run, and
# perfbench's own records
SKIP = ("__pycache__", "runs")
# a suite round or a benchmark run that takes longer than this is stopped
TIMEOUT_S = 900
# end-to-end pairs per workload
PAIRS = 10
SWEEPS = ("_evolve", "carrier_sweep")
# box removal's inputs besides the family: B^{1,1} chain lengths, and the
# passes over each input set of which a round keeps the fastest
CHAINS = (200, 400)
PASSES = 5

SUITE_ROUND = """
import json, resource, sys
from kssbij.cli.harness import run_verify
report = run_verify(*map(int, sys.argv[1:4]))
print(json.dumps({
    "cases": report.total_cases,
    "failures": report.total_failures,
    "total_s": report.elapsed,
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "suites": [[name, cases, elapsed] for name, cases, _, elapsed in report.results],
}))
"""

SWEEP_ROUND = """
import json, sys, time
from kssbij import evolution
from kssbij.cli.harness import family
sweep = getattr(evolution, sys.argv[1])
max_n, max_l, max_s = map(int, sys.argv[2:5])
items = [(p, a, l) for p in family(max_n, max_l, max_s).paths
         for a in range(1, p.rank_n + 1) for l in range(1, max_l + 1)]
passes = []
for _ in range(2):
    start = time.perf_counter()
    for item in items:
        sweep(*item)
    passes.append(time.perf_counter() - start)
print(json.dumps({"items": len(items), "cold_s": passes[0], "warm_s": passes[1]}))
"""

PHI_INVERSE_ROUND = """
import json, random, sys, time
from kssbij.cli.harness import family
from kssbij.evolution import Path
from kssbij.kss import phi_energy, phi_inverse
from kssbij.tableaux import Tableau
max_n, max_l, max_s, passes = map(int, sys.argv[1:5])
inputs = {"family": list(family(max_n, max_l, max_s).paths)}
rng = random.Random(3)
for length in map(int, sys.argv[5:]):
    inputs["chain_%d" % length] = [
        Path(3, [Tableau(3, [[rng.randint(1, 4)]]) for _ in range(length)])]
out = {}
for name, paths in inputs.items():
    rcs = [phi_energy(p) for p in paths]
    if [phi_inverse(rc) for rc in rcs] != paths:
        sys.exit("%s: phi_inverse(phi(p)) != p" % name)
    best = None
    for _ in range(passes):
        start = time.perf_counter()
        for rc in rcs:
            phi_inverse(rc)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    out[name] = {"inputs": len(rcs), "per_call_s": best / len(rcs)}
print(json.dumps(out))
"""


def spread(values):
    """Median and quartiles of a list of numbers, with its length."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(runs, metrics):
    """Per metric, each side's spread and the working tree's wins over the
    parent. runs: dicts with "pair", "side" ("parent" or "change") and
    "metrics" (name -> value); metrics: name -> "higher" or "lower", the
    better direction. Pairs missing a side are left out."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        diffs = [sign * (p["change"][name] - p["parent"][name]) for p in pairs]
        out[name] = {
            "better": better,
            "parent": spread([p["parent"][name] for p in pairs]),
            "change": spread([p["change"][name] for p in pairs]),
            "change_wins": sum(d > 0 for d in diffs),
            "parent_wins": sum(d < 0 for d in diffs),
            "pairs": len(pairs),
        }
    return out


def copy_tree(dest):
    """This working tree's src and perfbench, without bytecode or benchmark runs."""
    for part in PARTS:
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns(*SKIP))


def archive(rev, dest):
    """REV's src and perfbench, from `git archive`."""
    dest.mkdir(parents=True)
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, *PARTS], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def digest(copy):
    """sha256 over the relative paths and contents of the files of a copy,
    which names the source measured whether or not it was committed."""
    h = hashlib.sha256()
    files = [p for p in copy.rglob("*") if p.is_file() and SKIP[0] not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(copy)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git(*args):
    """The stripped output of a git command in the repository, or None
    outside a git checkout."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child(copy, script, *args):
    """The JSON that a script prints when run on a copy's src in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=copy,
        env=dict(os.environ, PYTHONPATH=str(copy / "src")),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit("round %s failed:\n%s" % (args, proc.stderr))
    return json.loads(proc.stdout)


def suite_times(sides, bounds, rounds):
    """Per side, the spread of each suite's time, the total time and max RSS
    over the rounds, with the case count (which must not differ by round)."""
    data = {side: [] for side in sides}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for side in order:
            data[side].append(child(sides[side], SUITE_ROUND, *bounds))
    out = {"bounds": list(bounds), "rounds": rounds}
    for side, results in data.items():
        counts = {(res["cases"], res["failures"]) for res in results}
        if len(counts) != 1:
            raise SystemExit("%s: case counts differ between rounds: %s" % (side, counts))
        (cases, failures), = counts
        names = [name for name, _, _ in results[0]["suites"]]
        out[side] = {
            "cases": cases,
            "failures": failures,
            "total_s": spread([res["total_s"] for res in results]),
            "max_rss_mb": spread([res["max_rss_mb"] for res in results]),
            "suites": {
                name: {
                    "cases": results[0]["suites"][i][1],
                    "seconds": spread([res["suites"][i][2] for res in results]),
                }
                for i, name in enumerate(names)
            },
        }
    return out


def sweep_times(copy, bounds, rounds):
    """Per sweep function, the spread of its cold and warm pass over the
    rounds, with the item count."""
    out = {"bounds": list(bounds), "rounds": rounds}
    for name in SWEEPS:
        results = [child(copy, SWEEP_ROUND, name, *bounds) for _ in range(rounds)]
        out["items"] = results[0]["items"]
        out[name] = {key: spread([res[key] for res in results]) for key in ("cold_s", "warm_s")}
    return out


def phi_inverse_times(sides, bounds, rounds):
    """Per side, the spread over the rounds of phi_inverse's seconds per call
    on each input set, with the number of inputs."""
    data = {side: [] for side in sides}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for side in order:
            data[side].append(child(sides[side], PHI_INVERSE_ROUND, *bounds, PASSES, *CHAINS))
    out = {"bounds": list(bounds), "rounds": rounds, "chains": list(CHAINS), "passes": PASSES}
    for side, results in data.items():
        out[side] = {
            name: {
                "inputs": first["inputs"],
                "per_call_s": spread([res[name]["per_call_s"] for res in results]),
            }
            for name, first in results[0].items()
        }
    return out


def benchmark_run(source, scratch, workload, seed, seconds):
    """One end-to-end run of perfbench/run.py on a fresh copy of source."""
    if scratch.exists():
        shutil.rmtree(scratch)
    shutil.copytree(source, scratch, ignore=shutil.ignore_patterns(*SKIP))
    try:
        proc = subprocess.run(
            [sys.executable, str(scratch / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch)
    if proc.returncode != 0:
        raise SystemExit("benchmark run failed:\n%s" % proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def end_to_end(sides, workdir, workload, seconds, metrics):
    runs = []
    for i in range(1, PAIRS + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for side in order:
            run = benchmark_run(sides[side], workdir / "run", workload, i, seconds)
            run.update(pair=i, side=side, seed=i)
            runs.append(run)
            sys.stderr.write("%s pair %d %s: %s\n" % (workload, i, side, json.dumps(run["metrics"])))
    return {
        "workload": workload,
        "seconds": seconds,
        "pairs": PAIRS,
        "runs": runs,
        "metrics": compare(runs, metrics),
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--bounds", action="append", help="max_n,max_l,max_s (repeatable); "
                        "default %s" % " and ".join(DEFAULT_BOUNDS))
    parser.add_argument("--rounds", type=int, default=11, help="fresh processes per side and bounds")
    parser.add_argument("--parent", help="the revision to compare with")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="end-to-end workload (repeatable); default verify-default")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    bounds = []
    for text in args.bounds or DEFAULT_BOUNDS:
        try:
            b = tuple(int(x) for x in text.split(","))
        except ValueError:
            b = ()
        if len(b) != 3 or min(b) < 1:
            parser.error("--bounds takes three positive integers, as 2,3,2")
        bounds.append(b)

    workloads = args.workload or ["verify-default"]
    seconds = spec["run_seconds"]
    workdir = Path(tempfile.mkdtemp(prefix="kssbij-bench-"))
    try:
        sides = {}
        if args.parent:
            archive(args.parent, workdir / "parent")
            sides["parent"] = workdir / "parent"
        copy_tree(workdir / "change")
        sides["change"] = workdir / "change"
        status = git("status", "--porcelain", "--", *PARTS)
        report = {
            "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "parent": git("rev-parse", args.parent) if args.parent else None,
            "sources": {side: digest(copy) for side, copy in sides.items()},
            "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "settings": {"bounds": bounds, "rounds": args.rounds, "pairs": PAIRS,
                         "workloads": workloads, "seconds": seconds},
            "suite_times": [suite_times(sides, b, args.rounds) for b in bounds],
            "sweep": sweep_times(sides["change"], bounds[0], args.rounds),
            "phi_inverse": phi_inverse_times(sides, bounds[0], args.rounds),
            "end_to_end": None,
        }
        if args.parent:
            metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
            report["end_to_end"] = [
                end_to_end(sides, workdir, w, seconds, metrics) for w in workloads
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
