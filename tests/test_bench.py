"""bench/layers.py at its smallest size: the schema of what it writes, not
its times. The script is loaded by path; its layers run as child processes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kssbij.cli.harness import suite_names

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"
SMALLEST = ((1, 1, 1),)
# one path-to-rc round: 16 paths
PATH_ROUNDS = 1


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_spread(d, n):
    return set(d) == {"median", "q1", "q3", "n"} and d["n"] == n and d["q1"] <= d["median"] <= d["q3"]


def smallest(*args, **kwargs):
    """The record that measure gives at SMALLEST in one round, as written."""
    report = load_layers().measure(
        *args, bounds=SMALLEST, rounds=1, path_rounds=PATH_ROUNDS, **kwargs
    )
    return json.loads(json.dumps(report))


def verify_counts(src):
    """Per suite, the cases of the `verify` in a source tree at SMALLEST."""
    bounds = [str(b) for b in SMALLEST[0]]
    proc = subprocess.run(
        [sys.executable, "-m", "kssbij", "verify", "--max-n", bounds[0], "--max-l", bounds[1],
         "--max-s", bounds[2], "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {s["name"]: s["cases"] for s in json.loads(proc.stdout)["suites"]}


def check_layers(report, counts):
    """The keys and counts of every layer of a one-round record at SMALLEST.
    counts holds, per side recorded, the cases per suite of that side's own
    `verify` at SMALLEST."""
    sides = list(counts)
    assert set(report) == {
        "cli", "commit", "dirty", "end_to_end", "machine", "parent", "phi", "phi_energy",
        "phi_inverse", "settings", "sources", "suite_times", "sweep",
    }
    assert set(report["machine"]) == {"cores", "platform", "python"}
    assert set(report["sources"]) == set(sides)
    assert all(len(h) == 64 for h in report["sources"].values())
    (times,) = report["suite_times"]
    assert set(times) == {"bounds", "rounds", "counts", *sides}
    assert (times["bounds"], times["rounds"]) == ([1, 1, 1], 1)
    assert set(times["counts"]) == set(sides)
    energy = report["phi_energy"]
    assert set(energy) == {"seed", "path_rounds", "rounds", "passes", *sides}
    assert (energy["seed"], energy["path_rounds"], energy["passes"]) == (1, PATH_ROUNDS, 5)
    sweep = report["sweep"]
    assert set(sweep) == {"bounds", "rounds", "least_s", "_evolve", "carrier_sweep"}
    assert (sweep["bounds"], sweep["rounds"], sweep["least_s"]) == ([1, 1, 1], 1, 0.2)
    removal, forward = report["phi_inverse"], report["phi"]
    for box in (removal, forward):
        assert set(box) == {"bounds", "rounds", "chains", "passes", *sides}
        assert (box["bounds"], box["rounds"], box["chains"]) == ([1, 1, 1], 1, [200, 400])
    cli = report["cli"]
    assert set(cli) == {"rounds", "passes", "calls", *sides}
    assert (cli["rounds"], cli["passes"], cli["calls"]) == (1, 5, 20)
    # each side's suite cases are its own verify's, and through them the
    # sweep's items and box removal's inputs
    for side in sides:
        suites = times[side]
        assert {name: s["cases"] for name, s in suites["suites"].items()} == counts[side]
        assert (suites["cases"], suites["failures"]) == (sum(counts[side].values()), 0)
        assert is_spread(suites["total_s"], 1) and is_spread(suites["max_rss_mb"], 1)
        assert all(is_spread(s["seconds"], 1) for s in suites["suites"].values())
        # the count pass: every step miss is one product pass
        counts_pass = times["counts"][side]
        assert counts_pass["cases"] == suites["cases"]
        step = counts_pass["caches"]["_sweep_step"]
        assert set(step) == {"hits", "misses", "maxsize", "currsize"}
        misses = sum(c["misses"] for c in counts_pass["caches"].values())
        assert counts_pass["product_calls"] == misses > 0
        # phi_energy per call, cold, over one path-to-rc round
        assert energy[side]["inputs"] == 16 * PATH_ROUNDS
        assert is_spread(energy[side]["per_call_s"], 1) and is_spread(energy[side]["kept_mb"], 1)
        for name in ("_evolve", "carrier_sweep"):
            assert set(sweep[name]) == set(sides)
            assert set(sweep[name][side]) == {"items", "cold_s", "warm_s"}
            assert sweep[name][side]["items"] == suites["suites"]["evolution-linearization"]["cases"]
            assert is_spread(sweep[name][side]["cold_s"], 1)
            assert is_spread(sweep[name][side]["warm_s"], 1)
        # round-trip's inputs: one phi image per family path
        inputs = {"family": suites["suites"]["round-trip"]["cases"], "chain_200": 1, "chain_400": 1}
        assert {name: t["inputs"] for name, t in removal[side].items()} == inputs
        assert all(is_spread(t["per_call_s"], 1) for t in removal[side].values())
        # box addition, the phi verb's forward map, on the same paths
        assert {name: t["inputs"] for name, t in forward[side].items()} == inputs
        assert all(is_spread(t["per_call_s"], 1) for t in forward[side].values())
        # the CLI per call
        timed = cli[side]
        assert set(timed) == {"run_phi", "run_phi_inverse", "build_parser_phi", "build_parser_all"}
        assert all(t["inputs"] == 20 and is_spread(t["per_call_s"], 1) for t in timed.values())


def test_smallest_run_schema():
    report = smallest()
    counts = verify_counts(ROOT / "src")
    assert sorted(counts) == sorted(suite_names()) and sum(counts.values()) == 61
    check_layers(report, {"change": counts})
    assert report["settings"] == {
        "bounds": [[1, 1, 1]], "rounds": 1, "pairs": 10, "workloads": [],
        "seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    }
    assert report["end_to_end"] is None and report["parent"] is None


def test_smallest_run_on_both_sides(tmp_path):
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    report = smallest("HEAD", workloads=())
    layers = load_layers()
    layers.archive("HEAD", tmp_path / "head")
    counts = {"parent": verify_counts(tmp_path / "head" / "src"), "change": verify_counts(ROOT / "src")}
    check_layers(report, counts)
    assert report["parent"] == head.stdout.strip() and report["end_to_end"] == []
    # a side that records a count its own verify does not give fails
    report["suite_times"][0]["parent"]["suites"]["round-trip"]["cases"] += 1
    with pytest.raises(AssertionError):
        check_layers(report, counts)


def test_summary_keeps_counts_and_spreads_floats():
    summary = load_layers().summary
    rounds = [{"cases": 4, "s": {"t": 1.0}}, {"cases": 4, "s": {"t": 3.0}}, {"cases": 4, "s": {"t": 2.0}}]
    assert summary("layer", rounds) == {
        "cases": 4, "s": {"t": {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 3}},
    }
    rounds[1] = {"cases": 4, "s": {"t": 1.0, "n": 6}}
    rounds[0]["s"]["n"] = rounds[2]["s"]["n"] = 5
    with pytest.raises(SystemExit, match="^layer: s/n differs between rounds"):
        summary("layer", rounds)


def test_command_line(tmp_path, monkeypatch, capsys):
    layers = load_layers()
    with pytest.raises(SystemExit) as help_exit:
        layers.main(["--help"])
    assert help_exit.value.code == 0
    options = {w.strip(",") for w in capsys.readouterr().out.split() if w.startswith("--")}
    assert options == {"--help", "--out", "--parent"}

    # a bad --out or --parent stops the run before any round
    def no_rounds(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(layers, "measure", no_rounds)
    missing = tmp_path / "missing" / "bench.json"
    for argv, named in (
        (["--out", str(missing)], str(missing)),
        (["--out", str(tmp_path)], str(tmp_path)),
        (["--out", str(tmp_path / "bench.json"), "--parent", "nosuchrev"], "nosuchrev"),
    ):
        with pytest.raises(SystemExit) as bad:
            layers.main(argv)
        err = capsys.readouterr().err
        assert bad.value.code == 2 and err.count("\n") == 1 and named in err, (argv, err)

    monkeypatch.setattr(layers, "measure", lambda parent: {"parent": parent})
    assert layers.main(["--out", str(tmp_path / "bench.json")]) == 0
    assert json.loads((tmp_path / "bench.json").read_text()) == {"parent": None}


def test_wins_follow_each_metric_direction():
    layers = load_layers()
    runs = [
        {"pair": 1, "side": "parent", "metrics": {"up": 1.0, "down": 5.0}},
        {"pair": 1, "side": "change", "metrics": {"up": 2.0, "down": 4.0}},
        {"pair": 2, "side": "change", "metrics": {"up": 1.0, "down": 6.0}},
        {"pair": 2, "side": "parent", "metrics": {"up": 1.0, "down": 5.0}},
        # a pair with one side is left out
        {"pair": 3, "side": "parent", "metrics": {"up": 9.0, "down": 0.0}},
    ]
    got = layers.compare(runs, {"up": "higher", "down": "lower"})
    assert (got["up"]["change_wins"], got["up"]["parent_wins"], got["up"]["pairs"]) == (1, 0, 2)
    assert (got["down"]["change_wins"], got["down"]["parent_wins"]) == (1, 1)
    assert got["up"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 2}
    assert got["down"]["change"]["median"] == 5.0
