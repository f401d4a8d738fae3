"""Per-suite `verify` times, the carrier sweep and box removal layers and
end-to-end benchmark pairs, written as one BENCH_*.json.

Run from the repository root:

    python3 bench/layers.py --out BENCH_<n>.json --parent <rev>

A layer is a snippet that prints one JSON object per fresh process. It runs
ROUNDS (11) times on each side, this working tree and with --parent REV a
`git archive` copy of REV, the sides alternating which goes first. One rule
turns the rounds into the record: an integer is a count, the same in every
round or the run stops naming the layer and key, and a float becomes its
median and quartiles. The layers:

- Suite times at each of BOUNDS (`verify`'s defaults and `--max-n 3`):
  `harness.run_verify` untraced, each suite's cases and time from
  `Report.results`, the total cases, failures and time, and max RSS.
- Sweep, per function, at the first BOUNDS: two passes over
  evolution-linearization's (p, a, l) items, cold (empty step cache) then
  warm, of `evolution._evolve`, the rows sweep that `verify` runs and
  perfbench's tracer does not see, and of the public `carrier_sweep`.
- Box removal: `kss.phi_inverse` per call, the best of 5 passes, over the
  phi images of the first BOUNDS' `family(...)` (round-trip's inputs) and
  over ROADMAP's Baseline B^{1,1} chains (n = 3, letters from one
  `Random(3)`, drawn for L = 200 and then 400); each input must first come
  back as its path.

With --parent, 10 alternating pairs of `perfbench/run.py --workload W --seed
i --seconds S --trace 0` then run for every workload W of BENCHMARK.json,
pair i with seed i, S its run_seconds. Each run gets a fresh copy of `src`
and `perfbench` (REV's, or this tree's without `__pycache__`), so neither
side runs on a warm bytecode cache. Per metric of BENCHMARK.json, the file
holds each side's median and quartiles and how many pairs the working tree
won (ties count for neither side).

`perfbench/` is read and run, never edited. The copies live in a new
temporary directory, removed at the end. `measure` also takes smaller
bounds, rounds and workloads, which the tests use for the smallest size.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# what perfbench/run.py needs from a checkout
PARTS = ("src", "perfbench")
BOUNDS = ((2, 3, 2), (3, 3, 2))
ROUNDS = 11
# left out of every copy: bytecode, which would warm a later run, and
# perfbench's own records
SKIP = ("__pycache__", "runs")
# a layer round or a benchmark run that takes longer than this is stopped
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
    "suites": {name: {"cases": cases, "seconds": elapsed}
               for name, cases, _, elapsed in report.results},
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


def summary(layer, rounds, key=""):
    """One record of a layer's rounds (what its snippet printed, one per
    round): dicts key by key, a float as its spread, and anything else, a
    count, as its one value; a count that differs between rounds stops the
    run with the layer and key."""
    first = rounds[0]
    if isinstance(first, dict):
        return {k: summary(layer, [r[k] for r in rounds], key + "/" + k) for k in first}
    if isinstance(first, float):
        return spread(rounds)
    if any(r != first for r in rounds):
        raise SystemExit("%s: %s differs between rounds: %s" % (layer, key[1:], rounds))
    return first


def alternate(sides, rounds):
    """(round, side) for each round and side, the sides taking turns at
    going first."""
    for r in range(rounds):
        for side in list(sides)[:: 1 if r % 2 == 0 else -1]:
            yield r, side


def layer(sides, rounds, name, script, *args):
    """Per side, the summary of what script prints in a fresh process on
    that side's copy, once per round."""
    results = {side: [] for side in sides}
    for _, side in alternate(sides, rounds):
        results[side].append(child(sides[side], script, *args))
    return {side: summary(name, res) for side, res in results.items()}


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


def end_to_end(sides, workdir, workload):
    """PAIRS alternating end-to-end runs of a workload, and their comparison."""
    seconds = SPEC["run_seconds"]
    runs = []
    for r, side in alternate(sides, PAIRS):
        run = benchmark_run(sides[side], workdir / "run", workload, r + 1, seconds)
        run.update(pair=r + 1, side=side, seed=r + 1)
        runs.append(run)
        sys.stderr.write("%s pair %d %s: %s\n" % (workload, r + 1, side, json.dumps(run["metrics"])))
    return {
        "workload": workload,
        "seconds": seconds,
        "pairs": PAIRS,
        "runs": runs,
        "metrics": compare(runs, {m["name"]: m["better"] for m in SPEC["end_to_end"]}),
    }


def measure(parent=None, bounds=BOUNDS, rounds=ROUNDS,
            workloads=tuple(w["name"] for w in SPEC["workloads"])):
    """The record: every layer on this working tree and, given parent (a
    revision), on its copy too, then the end-to-end pairs of each workload."""
    workdir = Path(tempfile.mkdtemp(prefix="kssbij-bench-"))
    try:
        sides = {}
        if parent:
            archive(parent, workdir / "parent")
            sides["parent"] = workdir / "parent"
        copy_tree(workdir / "change")
        sides["change"] = workdir / "change"
        status = git("status", "--porcelain", "--", *PARTS)
        first = bounds[0]
        report = {
            "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "parent": git("rev-parse", parent) if parent else None,
            "sources": {side: digest(copy) for side, copy in sides.items()},
            "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "settings": {"bounds": bounds, "rounds": rounds, "pairs": PAIRS,
                         "workloads": list(workloads) if parent else [],
                         "seconds": SPEC["run_seconds"]},
            "suite_times": [
                dict(bounds=b, rounds=rounds,
                     **layer(sides, rounds, "suites at %d,%d,%d" % b, SUITE_ROUND, *b))
                for b in bounds
            ],
            "sweep": dict(bounds=first, rounds=rounds, **{
                name: layer(sides, rounds, "sweep " + name, SWEEP_ROUND, name, *first)
                for name in SWEEPS
            }),
            "phi_inverse": dict(
                bounds=first, rounds=rounds, chains=CHAINS, passes=PASSES,
                **layer(sides, rounds, "phi_inverse", PHI_INVERSE_ROUND, *first, PASSES, *CHAINS),
            ),
            "end_to_end": [end_to_end(sides, workdir, w) for w in workloads] if parent else None,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--parent", help="the revision to compare with, end to end too")
    args = parser.parse_args(argv)
    # both are checked before any round runs, which can take half an hour
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        parser.exit(2, "%s: --out %s: not a file in an existing directory\n" % (parser.prog, out))
    if args.parent and git("rev-parse", "--verify", "--quiet", args.parent + "^{commit}") is None:
        parser.exit(2, "%s: --parent %s: no such revision\n" % (parser.prog, args.parent))
    report = measure(args.parent)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
