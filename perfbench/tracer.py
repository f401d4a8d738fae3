"""Per-layer tracing by wrapping the program's public functions from outside.

`Tracer.install` replaces each chosen function with a wrapper that records
calls, inclusive time and self time (inclusive time minus the time of wrapped
callees), plus per caller-callee edge counts. Where a module imported a
function by name (`from kssbij.rmatrix import apply_R`), the name is rebound in
that module too, so every call site goes through the wrapper. The program's
source is not touched. Aggregates stay in memory and are written out once, at
the end of the run.
"""

import json
import sys
import time
from collections import defaultdict

# module -> public names to wrap. phi_inverse_trace is left inside
# kss.phi_inverse so that its self time is the box removal itself.
WRAPPED = {
    "kssbij.tableaux": ["insert", "insert_word", "inverse_insert", "enumerate_kr", "highest_element"],
    "kssbij.kernels": ["bump", "insert_word", "inverse_bump"],
    "kssbij.rmatrix": ["product_tableau", "energy_H", "apply_R", "apply_affine_R"],
    "kssbij.evolution": ["carrier_sweep", "time_evolution", "energy_matrix",
                         "local_energy_distribution", "total_energy"],
    "kssbij.kss": ["phi_energy", "phi_inverse", "extract_groups", "compute_rigging",
                   "remove_row", "removal_order_equivalence", "linearized_image"],
    "kssbij.rigged": ["validate"],
    "kssbij.cli.codec": ["parse_json", "decode_tableau", "decode_path", "decode_rc",
                         "encode_tableau", "encode_path", "encode_rc", "encode_led", "dump"],
    "kssbij.cli.render": ["render_tableau", "render_path", "render_pair", "render_rc", "render_led"],
    "kssbij.cli": ["build_parser"],
}
# constructors whose calls are counted
CONSTRUCTORS = {"kssbij.tableaux": "Tableau", "kssbij.rmatrix": "TensorPair"}
# inclusive time of the outermost call in each group
GROUPS = {
    "cli.codec.decode_s": ("kssbij.cli.codec.parse_json", "kssbij.cli.codec.decode_"),
    "cli.codec.encode_s": ("kssbij.cli.codec.encode_", "kssbij.cli.codec.dump"),
    "cli.render_s": ("kssbij.cli.render.",),
    "cli.build_parser_s": ("kssbij.cli.build_parser",),
}
# functions whose argument pairs are tracked for repeats
PAIR_FUNCTIONS = ("kssbij.rmatrix.energy_H", "kssbij.rmatrix.apply_R")


def short(name):
    """kssbij.rmatrix.apply_R -> rmatrix.apply_R"""
    return name[len("kssbij."):] if name.startswith("kssbij.") else name


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.group_time = defaultdict(float)
        self.group_depth = defaultdict(int)
        self.pairs_seen = set()
        self.pair_calls = 0
        self.pair_repeats = 0
        # one frame per open wrapped call: [name, time spent in wrapped callees]
        self.stack = []

    def _wrap(self, name, fn, pair_key=False):
        groups = [g for g, prefixes in GROUPS.items() if name.startswith(prefixes)]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pair_key:
                p = args[0]
                key = (name, p.left.rank_n, p.left.rows, p.right.rows)
                tracer.pair_calls += 1
                if key in tracer.pairs_seen:
                    tracer.pair_repeats += 1
                else:
                    tracer.pairs_seen.add(key)
            stack = tracer.stack
            tracer.edges[(stack[-1][0] if stack else None, name)] += 1
            for g in groups:
                tracer.group_depth[g] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.inclusive[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                for g in groups:
                    tracer.group_depth[g] -= 1
                    if tracer.group_depth[g] == 0:
                        tracer.group_time[g] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, harness=None):
        """Wraps the functions in WRAPPED and CONSTRUCTORS, and the suites of
        `harness` when given, rebinding every module-level name that refers to them."""
        replaced = {}
        for mod_name, names in WRAPPED.items():
            module = sys.modules[mod_name]
            for attr in names:
                fn = getattr(module, attr)
                full = "%s.%s" % (mod_name, attr)
                replaced[id(fn)] = (fn, self._wrap(full, fn, full in PAIR_FUNCTIONS), mod_name)
        for mod_name, cls_name in CONSTRUCTORS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            cls.__init__ = self._wrap("%s.%s" % (mod_name, cls_name), cls.__init__)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "kssbij" or mod_name.startswith("kssbij."):
                for attr, value in list(vars(module).items()):
                    hit = replaced.get(id(value))
                    if hit is None or hit[0] is not value:
                        continue
                    # calls inside a kernel's own implementation module stay
                    # inside the kernels layer
                    if mod_name == value.__module__ and mod_name != hit[2]:
                        continue
                    setattr(module, attr, hit[1])
        if harness is not None:
            harness.SUITES[:] = [
                (name, self._wrap("kssbij.cli.harness.%s" % name, fn)) for name, fn in harness.SUITES
            ]
        self.active = True

    def dump(self):
        """Everything recorded, as plain JSON data."""
        return {
            "functions": {
                short(name): {"calls": self.calls[name], "inclusive_s": self.inclusive[name],
                              "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "edges": [
                {"caller": short(caller) if caller else None, "callee": short(callee), "calls": n}
                for (caller, callee), n in sorted(self.edges.items(), key=lambda kv: -kv[1])
            ],
            "groups": dict(self.group_time),
            "pair_calls": self.pair_calls,
            "pair_repeats": self.pair_repeats,
        }


def layer_metrics(dump, suite_names):
    """The per-layer metrics, by the names BENCHMARK.json lists, from a `dump()`."""
    functions = dump["functions"]

    def calls(name):
        return {"value": functions.get(name, {}).get("calls", 0), "unit": "count"}

    def self_s(name):
        return {"value": functions.get(name, {}).get("self_s", 0.0), "unit": "s"}

    out = {}
    for name in ("tableaux.Tableau", "rmatrix.TensorPair"):
        out[name + ".count"] = calls(name)
    for name in ("tableaux.insert_word", "kernels.inverse_bump", "rmatrix.apply_R",
                 "rmatrix.energy_H", "rmatrix.apply_affine_R", "evolution.carrier_sweep",
                 "evolution.local_energy_distribution", "evolution.total_energy",
                 "evolution.time_evolution", "kss.phi_inverse", "rigged.validate"):
        out[name + ".calls"] = calls(name)
    for name in ("tableaux.Tableau", "tableaux.insert_word", "kernels.insert_word",
                 "kernels.inverse_bump", "rmatrix.apply_R", "rmatrix.energy_H",
                 "rmatrix.apply_affine_R", "evolution.carrier_sweep",
                 "evolution.local_energy_distribution", "evolution.total_energy",
                 "kss.phi_energy", "kss.phi_inverse", "kss.removal_order_equivalence",
                 "rigged.validate"):
        out[name + ".self_s"] = self_s(name)
    ratio = dump["pair_repeats"] / dump["pair_calls"] if dump["pair_calls"] else 0.0
    out["rmatrix.repeat_ratio"] = {"value": ratio, "unit": "ratio"}
    for group in GROUPS:
        out[group] = {"value": dump["groups"].get(group, 0.0), "unit": "s"}
    for suite in suite_names:
        rec = functions.get("cli.harness." + suite, {})
        out["cli.harness.%s.wall_s" % suite] = {"value": rec.get("inclusive_s", 0.0), "unit": "s"}
    return out


def merge(dumps):
    """Sums the `dump()` of several processes (the verify rounds)."""
    functions = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    edges = defaultdict(int)
    groups = defaultdict(float)
    pair_calls = pair_repeats = 0
    for d in dumps:
        for name, rec in d["functions"].items():
            for k, v in rec.items():
                functions[name][k] += v
        for e in d["edges"]:
            edges[(e["caller"], e["callee"])] += e["calls"]
        for g, v in d["groups"].items():
            groups[g] += v
        pair_calls += d["pair_calls"]
        pair_repeats += d["pair_repeats"]
    return {
        "functions": dict(functions),
        "edges": [{"caller": c, "callee": e, "calls": n} for (c, e), n in edges.items()],
        "groups": dict(groups),
        "pair_calls": pair_calls,
        "pair_repeats": pair_repeats,
    }


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
