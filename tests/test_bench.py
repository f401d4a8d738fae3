"""bench/layers.py at its smallest size: the schema of what it writes, not
its times. The script is loaded by path and run as a child process."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from kssbij.cli.harness import suite_names

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_spread(d, n):
    return set(d) == {"median", "q1", "q3", "n"} and d["n"] == n and d["q1"] <= d["median"] <= d["q3"]


def test_smallest_run_schema(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(LAYERS), "--out", str(out), "--bounds", "1,1,1", "--rounds", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {
        "commit", "dirty", "end_to_end", "machine", "parent", "phi_inverse", "settings", "sources",
        "suite_times", "sweep",
    }
    assert report["settings"] == {
        "bounds": [[1, 1, 1]], "rounds": 1, "pairs": 10, "workloads": ["verify-default"],
        "seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    }
    assert report["end_to_end"] is None and report["parent"] is None
    assert set(report["machine"]) == {"cores", "platform", "python"}
    assert set(report["sources"]) == {"change"} and len(report["sources"]["change"]) == 64
    (times,) = report["suite_times"]
    assert (times["bounds"], times["rounds"]) == ([1, 1, 1], 1) and "parent" not in times
    change = times["change"]
    assert (change["cases"], change["failures"]) == (55, 0)
    assert is_spread(change["total_s"], 1) and is_spread(change["max_rss_mb"], 1)
    assert sorted(change["suites"]) == sorted(suite_names())
    assert sum(s["cases"] for s in change["suites"].values()) == 55
    assert all(is_spread(s["seconds"], 1) for s in change["suites"].values())
    sweep = report["sweep"]
    assert set(sweep) == {"bounds", "rounds", "items", "_evolve", "carrier_sweep"}
    assert (sweep["bounds"], sweep["rounds"]) == ([1, 1, 1], 1)
    assert sweep["items"] == change["suites"]["evolution-linearization"]["cases"]
    for name in ("_evolve", "carrier_sweep"):
        assert set(sweep[name]) == {"cold_s", "warm_s"}
        assert all(is_spread(v, 1) for v in sweep[name].values())
    removal = report["phi_inverse"]
    assert set(removal) == {"bounds", "rounds", "chains", "passes", "change"}
    assert (removal["bounds"], removal["rounds"], removal["chains"]) == ([1, 1, 1], 1, [200, 400])
    # round-trip's inputs: one phi image per family path
    inputs = {"family": change["suites"]["round-trip"]["cases"], "chain_200": 1, "chain_400": 1}
    assert {name: t["inputs"] for name, t in removal["change"].items()} == inputs
    assert all(is_spread(t["per_call_s"], 1) for t in removal["change"].values())


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
