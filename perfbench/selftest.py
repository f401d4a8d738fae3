"""Fast self-test of the benchmark's own checkers, on tiny inputs.

Each checker must accept the program's correct outputs and reject a
deliberately corrupted one. Run from the repository root:

    python3 perfbench/selftest.py
"""

import copy
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

# Highest weight: the worked example of the acceptance tests.
HIGHEST_PATH = {"n": 4, "factors": [[[1, 1, 1, 1]], [[1, 2], [2, 3], [3, 4]],
                                    [[1, 1, 2, 4], [2, 2, 3, 5]]]}
NOT_HIGHEST_PATH = {"n": 3, "factors": [[[1, 2, 2], [2, 3, 3]], [[1, 1]], [[1, 1, 2, 2], [2, 3, 3, 3]]]}

FAILURES = []


def expect(cond, what):
    if not cond:
        FAILURES.append(what)


def run_cli(lib, argv, obj):
    code, out, _, _ = workloads.call_cli(lib.cli, argv, json.dumps(obj))
    expect(code == 0, "%s exited %r" % (" ".join(argv), code))
    return json.loads(out)


def test_lattice():
    expect(not checks.check_lattice(HIGHEST_PATH["factors"]), "lattice test rejects a highest path")
    expect(checks.check_lattice(NOT_HIGHEST_PATH["factors"]), "lattice test accepts a non-highest path")
    swapped = HIGHEST_PATH["factors"][::-1]
    expect(checks.check_lattice(swapped), "lattice test accepts swapped factors")


def test_vacancy_matches_program(lib):
    rng = random.Random(5)
    for _ in range(50):
        rc = inputs.highest_weight_rc(rng)
        config = workloads._rc_of(lib, rc)
        shapes = [(a + 1, s) for a, level in enumerate(rc["nu"]) for s in level]
        lengths = checks.row_lengths(rc["mu"])
        for a in range(1, rc["n"] + 1):
            for l in range(1, 6):
                expect(checks.vacancy(shapes, lengths, a, l) == lib.rigged.vacancy(config, a, l),
                       "vacancy p_%d^(%d) differs from the program's on %s" % (l, a, json.dumps(rc)))


def test_kr_count(lib):
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for s in (1, 2, 3):
                got = len(list(lib.tableaux.enumerate_kr(r, s, n)))
                expect(checks.kr_count(r, s, n) == got, "|B^{%d,%d}| for n=%d" % (r, s, n))


def test_path_to_rc(lib):
    job = workloads.PathToRc(lib, random.Random(1), inputs.Distinct())
    for path in (HIGHEST_PATH, NOT_HIGHEST_PATH):
        text = json.dumps(path)
        code, out, _, _ = workloads.call_cli(lib.cli, list(job.argv), text)
        item = (True, text, path)
        expect(not job.check(item, code, out), "path-to-rc check rejects phi of %s" % text)
        rc = json.loads(out)
        bad = copy.deepcopy(rc)
        next(lv for lv in bad["mu"] if lv["rows"])["rows"][0][1] += 100
        expect(job.check(item, 0, json.dumps(bad)), "path-to-rc accepts a raised rigging")
        bad = copy.deepcopy(rc)
        next(lv for lv in bad["mu"] if lv["rows"])["rows"][0][0] += 1
        expect(job.check(item, 0, json.dumps(bad)), "path-to-rc accepts a longer row")
        bad = copy.deepcopy(rc)
        bad["nu"] = bad["nu"][::-1]
        expect(job.check(item, 0, json.dumps(bad)), "path-to-rc accepts a wrong quantum space")
        expect(job.check(item, 3, ""), "path-to-rc accepts exit code 3")


def test_rc_to_path(lib):
    job = workloads.RcToPath(lib, random.Random(2), inputs.Distinct())
    kinds = set()
    for item in job.round() + job.round():
        kind = item[2][0]
        kinds.add(kind)
        code, out, _, _ = workloads.call_cli(lib.cli, list(job.argv), item[1])
        bad = job.check(item, code, out)
        if kind == "outside":
            expect(not lib.rigged.validate(workloads._rc_of(lib, item[2][1]), "unrestricted"),
                   "an out-of-image input fails validate")
            expect(not job.check(item, 3, ""), "rc-to-path rejects exit 3 outside the image")
            continue
        expect(not bad, "rc-to-path check rejects a correct %s answer: %s" % (kind, bad))
        expect(job.check(item, 3, ""), "rc-to-path accepts exit 3 inside the image")
        path = json.loads(out)
        if len(path["factors"]) > 1:
            swapped = copy.deepcopy(path)
            swapped["factors"][0], swapped["factors"][-1] = swapped["factors"][-1], swapped["factors"][0]
            if swapped != path:
                expect(job.check(item, 0, json.dumps(swapped)), "rc-to-path accepts swapped factors")
        if path["factors"]:
            changed = copy.deepcopy(path)
            row = changed["factors"][-1][-1]
            row[-1] += 1 if row[-1] <= path["n"] else -1
            expect(job.check(item, 0, json.dumps(changed)), "rc-to-path accepts a changed letter")
    expect(kinds == {"highest", "image", "outside"}, "a round lacks a kind of input")
    # the reproducer of the phi_inverse domain hole and the answer given today
    rc = {"n": 1, "nu": [[1]], "mu": [{"rows": [[5, -9]]}]}
    item = (False, json.dumps(rc), ("outside", rc, None))
    expect(job.check(item, 0, json.dumps({"n": 1, "factors": [[[2]]]})),
           "rc-to-path accepts a path whose phi is not the input")


def test_verify_counts(lib):
    want = checks.verify_case_counts(1, 2, 1)
    for name, cases in want.items():
        argv = ["verify", "--suite", name, "--max-n", "1", "--max-l", "2", "--max-s", "1", "--format", "json"]
        report = run_cli(lib, argv, {})
        expect(not checks.check_verify_report(report, name, cases), "%s: %d cases expected" % (name, cases))
        expect(checks.check_verify_report(report, name, cases + 1), "%s: a count off by one passes" % name)
        failing = copy.deepcopy(report)
        failing["suites"][0]["failures"] = ["made up"]
        expect(checks.check_verify_report(failing, name, cases), "%s: a failure passes" % name)
    defaults = checks.verify_case_counts(*workloads.VERIFY_BOUNDS)
    expect(sum(defaults.values()) == 18800, "the defaults should give 18,800 cases")


def main():
    lib = workloads.import_program()
    test_lattice()
    test_vacancy_matches_program(lib)
    test_kr_count(lib)
    test_path_to_rc(lib)
    test_rc_to_path(lib)
    test_verify_counts(lib)
    for what in FAILURES:
        print("FAIL: %s" % what)
    print("selftest: %s" % ("%d failures" % len(FAILURES) if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
