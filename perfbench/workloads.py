"""The three workloads. Each operation goes through `kssbij.cli.run` in
process, with its JSON input on stdin and stdout captured, in a closed loop
with one client: the next operation starts when the previous one returns.

Only the `cli.run` calls are timed. Input generation and the output checks
run between rounds, outside the timed region and with tracing paused. A run
attempts whole rounds until the timed total reaches the requested seconds,
so every run of a workload has the same mix of operations.
"""

import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import types

import calibrate
import checks
import inputs

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
# Warm-up inputs come from this fixed seed, so set-up does the same work on every run.
WARMUP_SEED = 0
VERIFY_BOUNDS = (2, 3, 2)  # the `verify` defaults: max_n, max_l, max_s


def import_program():
    """Imports the program afresh, dropping any earlier copy of its modules."""
    for name in [m for m in sys.modules if m == "kssbij" or m.startswith("kssbij.")]:
        del sys.modules[name]
    names = ("cli", "kss", "evolution", "tableaux", "rigged")
    lib = types.SimpleNamespace(**{n: importlib.import_module("kssbij." + n) for n in names})
    lib.harness = importlib.import_module("kssbij.cli.harness")
    return lib


def call_cli(cli, argv, text):
    """One CLI operation: (exit code, stdout, start, end) with perf_counter
    times. A raised exception counts as exit code None, since the user would
    see a traceback."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.run(argv)
    except Exception:  # the CLI must not raise; record it as a failed operation
        code = None
    finally:
        t1 = time.perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), t0, t1


def _rc_of(lib, rc):
    mu = [[tuple(row) for row in level["rows"]] for level in rc["mu"]]
    return lib.rigged.RiggedConfiguration(rc["n"], rc["nu"], mu, rc.get("origins"))


def _path_of(lib, n, factors):
    return lib.evolution.Path(n, [lib.tableaux.Tableau(n, rows) for rows in factors])


def _output(code, out):
    if code != 0:
        return None, ["exit code %r" % code]
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, ["output is not JSON: %s" % exc]


class PathToRc:
    """`phi --format json` on seeded random paths of mixed B^{r,s}."""

    argv = ("phi", "--format", "json")

    def __init__(self, lib, rng, distinct):
        self.lib = lib
        self.rng = rng
        self.distinct = distinct
        self.rounds = 0

    def round(self):
        """A list of (in_domain, input text, path)."""
        batch = inputs.path_round(self.rng, self.distinct, self.rounds)
        self.rounds += 1
        return [(True, text, path) for text, path in batch]

    def check(self, item, code, out):
        _, _, path = item
        rc, problems = _output(code, out)
        if problems:
            return problems
        n, factors = path["n"], path["factors"]
        problems = checks.check_nu(factors, n, rc["nu"], rc.get("origins"))
        problems += checks.check_weight(factors, n, rc["mu"])
        problems += checks.check_riggings(factors, rc["mu"])
        if problems:
            return problems
        back = self.lib.kss.phi_inverse(_rc_of(self.lib, rc))
        if [[list(row) for row in b.rows] for b in back.factors] != factors:
            problems.append("phi_inverse does not give the path back")
        return problems


class RcToPath:
    """`phi-inverse --format json` on highest-weight configurations, images of
    random paths and the fixed out-of-image family."""

    argv = ("phi-inverse", "--format", "json")

    def __init__(self, lib, rng, distinct):
        self.lib = lib
        self.rounds = inputs.RcRounds(rng, distinct, lib)

    def round(self):
        return [(kind != "outside", text, (kind, rc, source))
                for kind, text, rc, source in self.rounds.round()]

    def _phi(self, n, factors, rc):
        back = self.lib.kss.phi_energy(_path_of(self.lib, n, factors))
        want = checks.canonical_rc(rc["nu"], rc["mu"])
        got = checks.canonical_rc(back.nu, [{"rows": level} for level in back.mu])
        return [] if got == want else ["phi_energy of the path is %r, not the input" % (got,)]

    def check(self, item, code, out):
        _, _, (kind, rc, source) = item
        if kind == "outside" and code == 3:
            return []
        path, problems = _output(code, out)
        if problems:
            return problems
        if kind == "image":
            return [] if path == source else ["not the path the configuration came from"]
        n, factors = path["n"], path["factors"]
        if kind == "outside":
            return self._phi(n, factors, rc)
        problems = checks.check_semistandard(factors, n)
        problems += checks.check_nu(factors, n, rc["nu"], rc.get("origins"))
        problems += checks.check_weight(factors, n, rc["mu"])
        problems += checks.check_lattice(factors)
        return problems or self._phi(n, factors, rc)


WORKLOADS = {"path-to-rc": PathToRc, "rc-to-path": RcToPath}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload_cls):
    """Imports the program afresh and runs the fixed warm-up round,
    SETUP_REPEATS times; returns (the perf_counter span of each, the last
    lib, its distinct-input set holding the warm-up inputs)."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_program()
        distinct = inputs.Distinct()
        warm = workload_cls(lib, random.Random(WARMUP_SEED), distinct)
        for _, text, _ in warm.round():
            call_cli(lib.cli, list(warm.argv), text)
        spans.append((t0, time.perf_counter()))
    return spans, lib, distinct


def run_in_process(name, seed, seconds, tracer):
    """Runs `path-to-rc` or `rc-to-path` in this process; returns its record.
    Rounds are generated and run until the operations have taken `seconds`."""
    workload_cls = WORKLOADS[name]
    sampler = calibrate.Sampler()
    sampler.start()
    setup_spans, lib, distinct = set_up(workload_cls)
    workload = workload_cls(lib, random.Random(seed), distinct)
    if tracer is not None:
        tracer.install()
        tracer.active = False
    argv = list(workload.argv)
    spans = []
    timed = 0.0
    attempted = failed = 0
    problems = []
    while timed < seconds:
        batch = workload.round()
        results = []
        if tracer is not None:
            tracer.active = True
        for item in batch:
            code, out, t0, t1 = call_cli(lib.cli, argv, item[1])
            results.append((code, out))
            spans.append((t0, t1))
            timed += t1 - t0
        if tracer is not None:
            tracer.active = False
        for item, (code, out) in zip(batch, results):
            attempted += 1
            bad = workload.check(item, code, out)
            if bad:
                failed += 1
                if item[0]:
                    problems.append({"input": item[1], "problems": bad})
    sampler.stop()
    peak_rss_mb = _peak_rss_mb()
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "raw_s": [t1 - t0 for t0, t1 in spans],
        "ops_s": [[sampler.scaled(t0, t1), 1] for t0, t1 in spans],
        "setup_s": statistics.median(sampler.scaled(t0, t1) for t0, t1 in setup_spans),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:20],
    }


def verify_round(trace):
    """One `verify` at its defaults, suite by suite, in this fresh process.
    Returns what the parent needs as plain JSON data."""
    sampler = calibrate.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    lib = import_program()
    call_cli(lib.cli, ["verify", "--max-n", "1", "--max-l", "1", "--max-s", "1", "--format", "json"], "")
    setup = (t0, time.perf_counter())
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(lib.harness)
    max_n, max_l, max_s = VERIFY_BOUNDS
    suites = []
    for name in checks.verify_case_counts(max_n, max_l, max_s):
        argv = ["verify", "--suite", name, "--max-n", str(max_n), "--max-l", str(max_l),
                "--max-s", str(max_s), "--format", "json"]
        if tracer is not None:
            tracer.active = True
        code, out, t0, t1 = call_cli(lib.cli, argv, "")
        if tracer is not None:
            tracer.active = False
        suites.append({"name": name, "code": code, "stdout": out, "span": (t0, t1)})
    sampler.stop()
    for suite in suites:
        t0, t1 = suite.pop("span")
        suite["seconds"] = t1 - t0
        suite["scaled_s"] = sampler.scaled(t0, t1)
    setup_s = sampler.scaled(*setup)
    return {
        "setup_s": setup_s,
        "suites": suites,
        "peak_rss_mb": _peak_rss_mb(),
        "trace": tracer.dump() if tracer is not None else None,
    }


def run_verify(seed, seconds, trace, spawn):
    """Runs `verify-default`: rounds in fresh processes, started by `spawn`
    (which returns a round's JSON data), until the timed total reaches
    `seconds`. A suite's time is its median over the rounds. The seed is
    unused: the inputs are the suites' fixed families."""
    del seed
    want = checks.verify_case_counts(*VERIFY_BOUNDS)
    suite_s = {name: [] for name in want}
    attempted = failed = 0
    problems = []
    setups = []
    rss = []
    dumps = []
    timed = 0.0
    while timed < seconds:
        data = spawn(trace)
        setups.append(data["setup_s"])
        rss.append(data["peak_rss_mb"])
        if data["trace"] is not None:
            dumps.append(data["trace"])
        for suite in data["suites"]:
            name, cases = suite["name"], want[suite["name"]]
            timed += suite["seconds"]
            suite_s[name].append(suite["scaled_s"])
            attempted += cases
            report, bad = _output(suite["code"], suite["stdout"])
            if report is not None:
                bad = checks.check_verify_report(report, name, cases)
            if bad:
                problems.append({"suite": name, "problems": bad})
                failed += cases
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "ops_s": [[statistics.median(suite_s[name]), want[name]] for name in want],
        "suite_s": suite_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "rounds": len(setups),
        "problems": problems[:20],
        "trace_dumps": dumps,
    }
