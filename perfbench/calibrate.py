"""Machine-speed calibration.

The 2-core machine this benchmark was tuned on changes speed by up to 60%
for minutes at a time, and by 10-40% from one tenth of a second to the next
(other tenants' load: the process's own CPU time slows just as its wall time
does, so CPU time does not help). A fixed pure-Python loop timed next to the
program's operations slows in much the same way: over 15-second windows the
ratio of an operation's time to the loop's time moved by 3-5% while the raw
times moved by 30%. Every reported time is therefore scaled to a reference
speed, seconds * REFERENCE_S / (the loop's time measured next to them). The
raw records keep the unscaled times.
"""

import argparse
import json
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# Best time of `loop()` on the reference machine (2-core Xeon VM, Python 3.11)
# in its fast state. It only fixes the unit; any constant would do.
REFERENCE_S = 0.0006


class _Cell:
    __slots__ = ("row", "value")

    def __init__(self, row, value):
        self.row = row
        self.value = value


def _sorted_inserts():
    rows = []
    seen = {}
    cells = []
    for i in range(150):
        x = (i * 7919) % 101
        rows.insert(bisect_right(rows, x), x)
        seen[(x, i % 13)] = tuple(rows[-4:])
        cells.append(_Cell(i % 7, x))
    return len(seen) + sum(c.value for c in cells if c.row == 3)


def _records():
    xs = [{"k": (i * 31) % 97, "v": (i, i + 1, str(i))} for i in range(80)]
    xs.sort(key=lambda d: (d["k"], d["v"][0]))
    return len(json.dumps(xs[:40]))


def _parser():
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="verb").add_parser("verb", help="a verb")
    sub.add_argument("input", nargs="?", default="-")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--n", type=int, default=1)
    return parser.parse_args(["verb", "--format", "json"])


def loop():
    """Fixed interpreter work of the program's kinds: sorted-list insertion
    with small tuples and objects; building, sorting and encoding records;
    and building an argparse parser. Of the loops tried, this mix tracked the
    speed of both `phi` and `phi-inverse` operations best."""
    _sorted_inserts()
    _records()
    _parser()


class Sampler:
    """Times `loop()` every PERIOD_S from a SIGALRM handler, which runs in the
    main thread between the program's bytecodes, so the machine's speed is
    sampled inside every timed region, a long `verify` suite included.

    `scaled(t0, t1)` turns the perf_counter interval [t0, t1] into seconds at
    reference speed: the time the handler itself took inside the interval is
    taken off, and the rest is scaled by the median loop time of the samples
    within WINDOW_S of the interval, which follows the machine's speed while
    ignoring a single disturbed sample.
    """

    PERIOD_S = 0.05
    WINDOW_S = 0.25

    def __init__(self):
        self.ends = []      # perf_counter at the end of each sample
        self.loops = []     # loop time of each sample
        self.spent = []     # time each sample took the handler, loop included
        self._saved = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        self.loops.append(t1 - t0)
        self.ends.append(t1)
        self.spent.append(time.perf_counter() - t0)

    def start(self):
        self._sample()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()

    def scaled(self, t0, t1):
        lo = bisect_left(self.ends, t0)
        hi = bisect_right(self.ends, t1)
        busy = sum(self.spent[lo:hi])
        near_lo = bisect_left(self.ends, t0 - self.WINDOW_S)
        near_hi = max(bisect_right(self.ends, t1 + self.WINDOW_S), near_lo + 1)
        loop_s = statistics.median(self.loops[near_lo:near_hi])
        return (t1 - t0 - busy) * REFERENCE_S / loop_s
