"""Per-suite `verify` times and work counts, the carrier sweep, box removal,
forward map, `phi_energy` and CLI layers and end-to-end benchmark pairs,
written as one BENCH_*.json.

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
  `Report.results`, the total cases, failures and time, and max RSS. Then
  one count pass per side, a cold `run_verify` in a fresh process: its
  `rmatrix._product` calls (the product passes) and the `cache_info` of each
  cache in `rmatrix`. Counts need no rounds: the same source gives the same
  counts.
- Sweep, per function, at the first BOUNDS: seconds per pass over
  evolution-linearization's (p, a, l) items, cold (each pass starting with
  empty step and row caches) then warm, of `evolution._evolve`, the rows
  sweep that `verify` runs and perfbench's tracer does not see, and of the
  public `carrier_sweep`. Each is repeated until its passes last SWEEP_S
  (0.2 s) together; the pass count varies, so it is not recorded.
- Box removal: `kss.phi_inverse` per call, the best of 5 passes, over the
  phi images of the first BOUNDS' `family(...)` (round-trip's inputs) and
  over ROADMAP's Baseline B^{1,1} chains (n = 3, letters from one
  `Random(3)`, drawn for L = 200 and then 400); each input must first come
  back as its path.
- Forward map: per call, the best of 5 passes over the same paths, of box
  addition (`kss.phi`), the function that the `phi` verb computes with.
  Each result must first come back through `kss.phi_inverse`, so the timed
  passes run on warm caches.
- phi_energy: `kss.phi_energy` per call, cold (the step and row caches
  emptied before each call, outside the timed span), the best of 5 passes
  over perfbench's path-to-rc inputs (`inputs.path_round` of
  `Random(PATH_SEED)`, PATH_ROUNDS rounds of 16 paths), each required to
  come back through `kss.phi_inverse` first. Then, under tracemalloc, the
  MB that one warm pass over them leaves allocated, which is mostly the
  step cache.
- CLI: per call, the best of 5 passes of CALLS (20) calls, `cli.run` of
  `phi --format json` on `tests/golden/path_3factor.json` (whose output
  must first match `rc_3factor.json`) and of `phi-inverse --format json`
  on `rc_a1.json`, each required to exit 0, and `cli.build_parser` for
  `phi` and with no verb.

REV must have box addition (`kss.phi`) and a `cli.build_parser` that takes
the verb, as the layers call both.

With --parent, 10 alternating pairs of `perfbench/run.py --workload W --seed
i --seconds S --trace 0` then run for every workload W of BENCHMARK.json,
pair i with seed i, S its run_seconds. Each run gets a fresh copy of `src`
and `perfbench` (REV's, or this tree's without `__pycache__`), so neither
side runs on a warm bytecode cache. Per metric of BENCHMARK.json, the file
holds each side's median and quartiles and how many pairs the working tree
won (ties count for neither side).

`perfbench/` is read and run, never edited. The copies live in a new
temporary directory, removed at the end. `measure` also takes smaller
bounds, rounds, workloads and path rounds, which the tests use for the
smallest size.
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
# the CLI layer's calls per pass, and the golden files it runs on
CALLS = 20
GOLDEN = ROOT / "tests" / "golden"
# the sweep layer repeats each pass until its passes last this long together
SWEEP_S = 0.2
# the phi_energy layer's inputs: path-to-rc rounds of one seed
PATH_SEED = 1
PATH_ROUNDS = 20

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

COUNT_ROUND = """
import json, sys
from kssbij import rmatrix
from kssbij.cli.harness import run_verify
calls = []
product_pass = rmatrix._product
rmatrix._product = lambda u, b: calls.append(u) or product_pass(u, b)
report = run_verify(*map(int, sys.argv[1:4]))
print(json.dumps({
    "cases": report.total_cases,
    "product_calls": len(calls),
    "caches": {name: f.cache_info()._asdict() for name, f in vars(rmatrix).items()
               if hasattr(f, "cache_info")},
}))
"""

# the step and row caches, and a function that empties them: every cache
# that `evolution` or `rmatrix` holds by name, which takes in the row builder
# `tableaux._constant_rows` that `evolution` imports
CLEAR_CACHES = """
from kssbij import evolution, rmatrix
caches = [f for module in (evolution, rmatrix) for f in vars(module).values()
          if hasattr(f, "cache_clear")]


def clear_caches():
    for cache in caches:
        cache.cache_clear()
"""

SWEEP_ROUND = CLEAR_CACHES + """
import json, sys, time
from kssbij.cli.harness import family
sweep = getattr(evolution, sys.argv[1])
max_n, max_l, max_s = map(int, sys.argv[2:5])
least_s = float(sys.argv[5])
items = [(p, a, l) for p in family(max_n, max_l, max_s).paths
         for a in range(1, p.rank_n + 1) for l in range(1, max_l + 1)]


def per_pass(cold):
    # seconds per pass, over as many passes as last least_s together; a
    # cold pass starts with the step and row caches empty
    total = passes = 0
    while total < least_s:
        if cold:
            clear_caches()
        start = time.perf_counter()
        for item in items:
            sweep(*item)
        total += time.perf_counter() - start
        passes += 1
    return total / passes


print(json.dumps({"items": len(items), "cold_s": per_pass(True), "warm_s": per_pass(False)}))
"""

# the best of the given passes over args, per call of fn
PER_CALL = """
import json, sys, time


def per_call(fn, args, passes):
    best = None
    for _ in range(passes):
        start = time.perf_counter()
        for arg in args:
            fn(arg)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {"inputs": len(args), "per_call_s": best / len(args)}
"""

# the box layers' inputs by name
BOX_INPUTS = PER_CALL + """
import random
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
"""

PHI_INVERSE_ROUND = BOX_INPUTS + """
out = {}
for name, paths in inputs.items():
    rcs = [phi_energy(p) for p in paths]
    if [phi_inverse(rc) for rc in rcs] != paths:
        sys.exit("%s: phi_inverse(phi(p)) != p" % name)
    out[name] = per_call(phi_inverse, rcs, passes)
print(json.dumps(out))
"""

PHI_ROUND = BOX_INPUTS + """
from kssbij.kss import phi
out = {}
for name, paths in inputs.items():
    if [phi_inverse(phi(p)) for p in paths] != paths:
        sys.exit("%s: phi_inverse(phi(p)) != p" % name)
    out[name] = per_call(phi, paths, passes)
print(json.dumps(out))
"""

PHI_ENERGY_ROUND = CLEAR_CACHES + """
import json, random, sys, time, tracemalloc
sys.path.insert(0, "perfbench")
import inputs
from kssbij.evolution import Path
from kssbij.kss import phi_energy, phi_inverse
from kssbij.tableaux import Tableau
seed, rounds, passes = map(int, sys.argv[1:4])
rng, distinct = random.Random(seed), inputs.Distinct()
paths = [Path(d["n"], [Tableau(d["n"], rows) for rows in d["factors"]])
         for i in range(rounds) for _, d in inputs.path_round(rng, distinct, i)]
if [phi_inverse(phi_energy(p)) for p in paths] != paths:
    sys.exit("phi_inverse(phi_energy(p)) != p")
best = None
for _ in range(passes):
    elapsed = 0.0
    for p in paths:
        clear_caches()
        start = time.perf_counter()
        phi_energy(p)
        elapsed += time.perf_counter() - start
    best = elapsed if best is None else min(best, elapsed)
clear_caches()
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for p in paths:
    phi_energy(p)
kept = tracemalloc.get_traced_memory()[0] - before
tracemalloc.stop()
print(json.dumps({"inputs": len(paths), "per_call_s": best / len(paths),
                  "kept_mb": kept / 2 ** 20}))
"""

CLI_ROUND = PER_CALL + """
import contextlib, io
from pathlib import Path
from kssbij import cli
golden = Path(sys.argv[1])
passes, calls = map(int, sys.argv[2:4])
phi = ["phi", str(golden / "path_3factor.json"), "--format", "json"]
phi_inverse = ["phi-inverse", str(golden / "rc_a1.json"), "--format", "json"]


def run(argv):
    code = cli.run(argv)
    if code != 0:
        sys.exit("%s exited %s" % (" ".join(argv), code))


out = {}
with contextlib.redirect_stdout(io.StringIO()) as sink:
    run(phi)
if sink.getvalue() != (golden / "rc_3factor.json").read_text():
    sys.exit("phi differs from rc_3factor.json")
with contextlib.redirect_stdout(io.StringIO()):
    out["run_phi"] = per_call(run, [phi] * calls, passes)
    out["run_phi_inverse"] = per_call(run, [phi_inverse] * calls, passes)
out["build_parser_phi"] = per_call(cli.build_parser, ["phi"] * calls, passes)
out["build_parser_all"] = per_call(cli.build_parser, [None] * calls, passes)
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
            workloads=tuple(w["name"] for w in SPEC["workloads"]), path_rounds=PATH_ROUNDS):
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
                     counts=layer(sides, 1, "counts at %d,%d,%d" % b, COUNT_ROUND, *b),
                     **layer(sides, rounds, "suites at %d,%d,%d" % b, SUITE_ROUND, *b))
                for b in bounds
            ],
            "sweep": dict(bounds=first, rounds=rounds, least_s=SWEEP_S, **{
                name: layer(sides, rounds, "sweep " + name, SWEEP_ROUND, name, *first, SWEEP_S)
                for name in SWEEPS
            }),
            "phi_inverse": dict(
                bounds=first, rounds=rounds, chains=CHAINS, passes=PASSES,
                **layer(sides, rounds, "phi_inverse", PHI_INVERSE_ROUND, *first, PASSES, *CHAINS),
            ),
            "phi": dict(
                bounds=first, rounds=rounds, chains=CHAINS, passes=PASSES,
                **layer(sides, rounds, "phi", PHI_ROUND, *first, PASSES, *CHAINS),
            ),
            "phi_energy": dict(
                seed=PATH_SEED, path_rounds=path_rounds, rounds=rounds, passes=PASSES,
                **layer(sides, rounds, "phi_energy", PHI_ENERGY_ROUND,
                        PATH_SEED, path_rounds, PASSES),
            ),
            "cli": dict(
                rounds=rounds, passes=PASSES, calls=CALLS,
                **layer(sides, rounds, "cli", CLI_ROUND, GOLDEN, PASSES, CALLS),
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
