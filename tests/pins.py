"""The pinned `verify` counts, one row per bound, and the one in-process run
that checks a bound against its row.

A row holds every suite's case count, the total, and a ceiling on the
product passes (`rmatrix._product` calls) and step cache misses of a cold
run; every suite must report 0 failures. Counts, unlike times, do not move with the machine's
speed, and every product pass is counted, so a cache regression fails the
check instead of hiding in wall-time noise. At the defaults the run fits in
the step cache and makes exactly its ceiling of passes, one per distinct
move.

Tier-1 checks the defaults (`tests/test_cli.py`, `tests/test_rmatrix.py`);
CI checks each larger rank bound in a fresh process:

    PYTHONPATH=src python tests/pins.py 3

runs `verify --max-n 3` and exits 1 on any difference from the row.
"""

import contextlib
import io
import json
import sys

from kssbij import cli, rmatrix
from kssbij.cli import harness

# rows by --max-n, at the default --max-l 3 and --max-s 2
PINS = {
    2: {
        "suites": {
            "yang-baxter": 11914,
            "involutivity": 349,
            "energy-zero-highest": 20,
            "energy-padding": 82,
            "two-letter-reduction": 28,
            "energy-equals-q": 3243,
            "round-trip": 402,
            "removal-order": 467,
            "evolution-linearization": 2295,
            "energy-formula": 402,
        },
        "total": 19202,
        "product_passes": 545,
    },
    3: {
        "suites": {
            "yang-baxter": 326842,
            "involutivity": 3265,
            "energy-zero-highest": 56,
            "energy-padding": 406,
            "two-letter-reduction": 114,
            "energy-equals-q": 43383,
            "round-trip": 3402,
            "removal-order": 3591,
            "evolution-linearization": 29295,
            "energy-formula": 3402,
        },
        "total": 413756,
        "product_passes": 48476,
    },
    4: {
        "suites": {
            "yang-baxter": 8518842,
            "involutivity": 28865,
            "energy-zero-highest": 120,
            "energy-padding": 1686,
            "two-letter-reduction": 288,
            "energy-equals-q": 519323,
            "round-trip": 29157,
            "removal-order": 29591,
            "evolution-linearization": 338355,
            "energy-formula": 29157,
        },
        "total": 9495384,
        "product_passes": 865285,
    },
}
DEFAULT = 2


def run(max_n):
    """(exit code, JSON report, product passes, step misses) of a cold
    `verify --max-n max_n --format json` through `cli.run` in this process:
    the step cache and the kept family are emptied first."""
    passes = 0
    product_pass = rmatrix._product

    def counted(u, b):
        # a count, not a list of the carriers, which would keep every
        # evicted one alive
        nonlocal passes
        passes += 1
        return product_pass(u, b)

    rmatrix._sweep_step.cache_clear()
    harness.family.cache_clear()
    rmatrix._product = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(["verify", "--max-n", str(max_n), "--format", "json"])
    finally:
        rmatrix._product = product_pass
    return code, json.loads(out.getvalue()), passes, rmatrix._sweep_step.cache_info().misses


def differences(max_n, code, report, passes, misses, pins=PINS):
    """What in one run differs from the row of max_n, one line each; empty
    when the run matches."""
    row = pins[max_n]
    out = []
    if code != 0:
        out.append("exit code %s, not 0" % code)
    got = {s["name"]: (s["cases"], len(s["failures"])) for s in report["suites"]}
    want = {name: (cases, 0) for name, cases in row["suites"].items()}
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            out.append("%s: (cases, failures) %s, pinned %s" % (name, got.get(name), want.get(name)))
    if (report["total_cases"], report["total_failures"]) != (row["total"], 0):
        out.append("total (cases, failures) (%d, %d), pinned (%d, 0)"
                   % (report["total_cases"], report["total_failures"], row["total"]))
    for what, count in (("product passes", passes), ("step misses", misses)):
        if count > row["product_passes"]:
            out.append("%d %s, more than %d" % (count, what, row["product_passes"]))
    return out


def main(argv):
    max_n = int(argv[0])
    code, report, passes, misses = run(max_n)
    for suite in report["suites"]:
        print("verify --max-n %d --suite %s: %d cases, %d failures, %.2f s" % (
            max_n, suite["name"], suite["cases"], len(suite["failures"]),
            suite["elapsed_seconds"]))
    print("verify --max-n %d: %d cases, %d failures, %d step misses, %d product passes"
          % (max_n, report["total_cases"], report["total_failures"], misses, passes))
    diffs = differences(max_n, code, report, passes, misses)
    for line in diffs:
        print("pin differs: " + line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
