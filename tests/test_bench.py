"""bench/layers.py at its smallest size: the schema of what it writes, not
its times. The script is loaded by path; its layers run as child processes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from kssbij.cli.harness import suite_names

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"
SMALLEST = ((1, 1, 1),)


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def is_spread(d, n):
    return set(d) == {"median", "q1", "q3", "n"} and d["n"] == n and d["q1"] <= d["median"] <= d["q3"]


def smallest(*args, **kwargs):
    """The record that measure gives at SMALLEST in one round, as written."""
    report = load_layers().measure(*args, bounds=SMALLEST, rounds=1, **kwargs)
    return json.loads(json.dumps(report))


def check_layers(report, sides):
    """The keys and counts of every layer of a one-round record at SMALLEST,
    recorded on each of sides."""
    assert set(report) == {
        "commit", "dirty", "end_to_end", "machine", "parent", "phi", "phi_inverse", "settings",
        "sources", "suite_times", "sweep",
    }
    assert set(report["machine"]) == {"cores", "platform", "python"}
    assert set(report["sources"]) == set(sides)
    assert all(len(h) == 64 for h in report["sources"].values())
    (times,) = report["suite_times"]
    assert set(times) == {"bounds", "rounds", *sides}
    assert (times["bounds"], times["rounds"]) == ([1, 1, 1], 1)
    sweep = report["sweep"]
    assert set(sweep) == {"bounds", "rounds", "_evolve", "carrier_sweep"}
    assert (sweep["bounds"], sweep["rounds"]) == ([1, 1, 1], 1)
    removal, forward = report["phi_inverse"], report["phi"]
    for box in (removal, forward):
        assert set(box) == {"bounds", "rounds", "chains", "passes", *sides}
        assert (box["bounds"], box["rounds"], box["chains"]) == ([1, 1, 1], 1, [200, 400])
    # equal counts on every side: each suite's cases, and through them the
    # sweep's items and box removal's inputs
    per_suite = [{k: s["cases"] for k, s in times[side]["suites"].items()} for side in sides]
    assert all(cases == per_suite[0] for cases in per_suite)
    for side in sides:
        suites = times[side]
        assert (suites["cases"], suites["failures"]) == (61, 0)
        assert is_spread(suites["total_s"], 1) and is_spread(suites["max_rss_mb"], 1)
        assert sorted(suites["suites"]) == sorted(suite_names())
        assert sum(s["cases"] for s in suites["suites"].values()) == 61
        assert all(is_spread(s["seconds"], 1) for s in suites["suites"].values())
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
        # the forward map on the same paths, by the function the phi verb calls
        timed = dict(forward[side])
        assert timed.pop("function") == "phi"
        assert {name: t["inputs"] for name, t in timed.items()} == inputs
        assert all(is_spread(t["per_call_s"], 1) for t in timed.values())


def test_smallest_run_schema():
    report = smallest()
    check_layers(report, ["change"])
    assert report["settings"] == {
        "bounds": [[1, 1, 1]], "rounds": 1, "pairs": 10, "workloads": [],
        "seconds": json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    }
    assert report["end_to_end"] is None and report["parent"] is None


def test_smallest_run_on_both_sides():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    report = smallest("HEAD", workloads=())
    check_layers(report, ["parent", "change"])
    assert report["parent"] == head.stdout.strip() and report["end_to_end"] == []


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
