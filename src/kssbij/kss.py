"""The KSS correspondence between paths and rigged configurations, both ways.

phi_energy reads the rigged configuration straight off the local energy
distribution: positive entries are grouped into soliton chains, group lengths
become configuration rows, riggings come from a closed-form count. phi_inverse
is the classical box-removal reconstruction; removing a quantum-space row of
length s at level a produces one path factor in B^{a+1,s}, column by column.
Box removal works on a mutable copy of the configuration in which the box in
transport is a length-1 quantum row, so rigged.vacancy gives every vacancy
number and one driver, _remove_rows, serves phi_inverse, remove_row and
removal_order_equivalence.
"""

from collections import namedtuple

from kssbij.evolution import Path, local_energy_distribution
from kssbij.rigged import RiggedConfiguration, _integer, vacancy, validate
from kssbij.rmatrix import TensorPair, apply_R
from kssbij.tableaux import Tableau


class SolitonGroup:
    """One chain of positive entries in a level's table.

    cardinality is the number of chosen entries (= rows spanned); endpoint is
    the (j, k) column of the lowest chosen entry.
    """

    __slots__ = ("level", "cardinality", "endpoint", "cells")

    def __init__(self, level, cardinality, endpoint, cells):
        self.level = level
        self.cardinality = cardinality
        self.endpoint = endpoint
        self.cells = list(cells)

    def __repr__(self):
        return "SolitonGroup(a=%d, size=%d, endpoint=%r)" % (
            self.level,
            self.cardinality,
            self.endpoint,
        )


def extract_groups(led, a):
    """Splits the level-a table into groups, rightmost first.

    Each pass starts at the rightmost positive entry of row 1 and descends,
    choosing the rightmost positive entry strictly right of the current
    column, then decrements the chosen entries. Repeats until the table is
    zero. Same-column entries never chain: a unit of multiplicity at the
    current column belongs to a later group.
    """
    rows = [list(r) for r in led.tables[a - 1]]
    columns = led.columns
    ncols = len(columns)
    budget = sum(sum(r) for r in rows)
    groups = []
    for _ in range(budget):
        start = None
        if rows:
            for c in range(ncols - 1, -1, -1):
                if rows[0][c] > 0:
                    start = c
                    break
        if start is None:
            break
        rows[0][start] -= 1
        cells = [(1, columns[start])]
        cur = start
        l = 1
        while l < len(rows):
            nxt = None
            for c in range(ncols - 1, cur, -1):
                if rows[l][c] > 0:
                    nxt = c
                    break
            if nxt is None:
                break
            rows[l][nxt] -= 1
            cells.append((l + 1, columns[nxt]))
            cur = nxt
            l += 1
        groups.append(SolitonGroup(a, len(cells), cells[-1][1], cells))
    if any(any(x for x in r) for r in rows):
        raise AssertionError("group extraction stuck with positive entries left")
    return groups


def compute_rigging(p, led, group):
    """Rigging of one group: shape contribution plus windowed table sums.

    The window, the columns (j, k) up to the endpoint, is a prefix of
    led.columns, which is in lexicographic order.
    """
    a = group.level
    mu_s = group.cardinality
    j_s, k_s = group.endpoint
    shape_part = 0
    for j, (alpha, beta) in enumerate(p.shapes(), start=1):
        if alpha != a:
            continue
        if j < j_s:
            shape_part += min(mu_s, beta)
        elif j == j_s:
            shape_part += min(mu_s, k_s)
    width = led.columns.index(group.endpoint) + 1
    # w[b]: the first mu_s rows of table b inside the window; 0 off levels 1..n
    w = [0] + [sum(sum(r[:width]) for r in rows[:mu_s]) for rows in led.tables] + [0]
    return shape_part + w[a - 1] - 2 * w[a] + w[a + 1]


def quantum_space_of(p):
    """Scans factors left to right; B^{a+1,s} appends s to nu^(a). Returns (nu, origins)."""
    nu = [[] for _ in range(p.rank_n)]
    origins = [[] for _ in range(p.rank_n)]
    for j, b in enumerate(p.factors, start=1):
        a = b.n_rows - 1
        if a >= p.rank_n:
            raise ValueError("factor %d has too many rows for rank %d" % (j, p.rank_n))
        nu[a].append(b.width())
        origins[a].append(j)
    return nu, origins


def phi_energy(p):
    """The rigged configuration of a path, read off its local energy distribution."""
    led = local_energy_distribution(p)
    mu = []
    for a in range(1, p.rank_n + 1):
        groups = extract_groups(led, a)
        rows = [(g.cardinality, compute_rigging(p, led, g)) for g in groups]
        # partition order: row lengths weakly decreasing
        rows.sort(key=lambda t: (-t[0], -t[1]))
        mu.append(tuple(rows))
    nu, origins = quantum_space_of(p)
    return RiggedConfiguration(p.rank_n, nu, mu, origins)


def linearized_image(rc, a, l):
    """The configuration predicted for one box-ball update: riggings at level
    a grow by min(l, row length), everything else fixed.

    On a finite path the prediction is realized exactly when it is still a
    valid unrestricted configuration; otherwise the soliton exits the path
    (the carrier comes back loaded) and the corresponding rows vanish instead.
    """
    mu = [
        tuple((m, r + min(l, m)) for m, r in level) if lev == a - 1 else level
        for lev, level in enumerate(rc.mu)
    ]
    return RiggedConfiguration(rc.rank_n, rc.nu, mu, rc.origins)


TraceStep = namedtuple("TraceStep", ["level", "letter", "removed", "state"])
RowTrace = namedtuple("RowTrace", ["flat_index", "level", "columns"])


class RemovalTrace:
    """Diagnostic record of phi_inverse_trace: per removed row, per produced column,
    the transport steps with letters, removed boxes and state snapshots."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = list(rows)


class _State:
    """Mutable working copy of a rigged configuration during box removal.

    It has the fields of a RiggedConfiguration that rigged.vacancy reads, as
    lists: rank_n, nu (row lengths) and mu ([length, rigging] rows), so
    vacancy(state, a, l) gives every vacancy number. flats mirrors nu with
    each quantum row's flat index. The box in transport is a length-1 row at
    the end of its level with flat index None, so while present it counts
    toward the vacancy numbers one level up. A row is deleted when its
    length reaches 0.
    """

    def __init__(self, rc):
        self.rank_n = rc.rank_n
        self.nu = [list(level) for level in rc.nu]
        self.mu = [[[m, r] for m, r in level] for level in rc.mu]
        self.flats = [[] for _ in rc.nu]
        self.origin = {}
        for flat, a, _, _, origin in rc.quantum_rows():
            self.flats[a].append(flat)
            self.origin[flat] = origin

    def view(self):
        """The state as a RiggedConfiguration; the box in transport has no origin."""
        origins = [[self.origin.get(flat) for flat in level] for level in self.flats]
        return RiggedConfiguration(self.rank_n, self.nu, self.mu, origins)


def _micro_step(state, i, pos):
    """Moves the last box of row pos of nu^(i) one level down; returns
    (letter, removed boxes).

    The row is a quantum row or the box in transport (pos = -1). Walks
    levels i+1, i+2, ... choosing the shortest singular row that is not
    shorter than the previous choice (first choice: not shorter than the row
    the box leaves); ties go to the smallest storage index. The letter is
    the first level where no choice exists. All removals are simultaneous;
    the box lands at the end of nu^(i-1) (it leaves at i = 0), and shortened
    rows get their new vacancy number as rigging.
    """
    col_x = state.nu[i][pos]
    chosen = []
    prev = col_x
    m = i + 1
    while m <= state.rank_n:
        best = None
        best_len = None
        for idx, (length, rig) in enumerate(state.mu[m - 1]):
            if length < prev:
                continue
            if best_len is not None and length >= best_len:
                continue
            if vacancy(state, m, length) == rig:
                best, best_len = idx, length
        if best is None:
            break
        chosen.append((m, best))
        prev = best_len
        m += 1
    letter = m

    removed = [("nu", i, col_x)]
    state.nu[i][pos] -= 1
    if not state.nu[i][pos]:
        del state.nu[i][pos]
        del state.flats[i][pos]
    for lev, idx in chosen:
        removed.append(("mu", lev, state.mu[lev - 1][idx][0]))
        state.mu[lev - 1][idx][0] -= 1
    if i >= 1:
        state.nu[i - 1].append(1)
        state.flats[i - 1].append(None)
    for lev, idx in chosen:
        row = state.mu[lev - 1][idx]
        if row[0] > 0:
            row[1] = vacancy(state, lev, row[0])
    for lev, idx in chosen:
        if state.mu[lev - 1][idx][0] == 0:
            del state.mu[lev - 1][idx]
    cols = [c for _, _, c in removed]
    if cols != sorted(cols):
        raise AssertionError("removed box columns must weakly increase with level")
    return letter, removed


def _remove_row(state, level, flat, traced):
    """Dismantles one quantum row box by box, right to left.

    Returns (factor tableau in B^{level+1, s}, per-column trace steps); the
    steps, with a view of the state after each micro-step, are only
    recorded when traced, else None. Letters of each box form the leftmost
    empty column, top to bottom.
    """
    a = level
    pos = state.flats[level].index(flat)
    s = state.nu[level][pos]
    columns = []
    col_traces = [] if traced else None
    for _ in range(s):
        column = [None] * (a + 1)
        steps = []
        for i in range(a, -1, -1):
            letter, removed = _micro_step(state, i, pos if i == a else -1)
            column[i] = letter
            if traced:
                steps.append(TraceStep(i, letter, removed, state.view()))
        if any(None in flats for flats in state.flats):
            raise AssertionError("transported box left behind")
        for t in range(a):
            if column[t] >= column[t + 1]:
                raise AssertionError("reconstructed column is not strictly increasing")
        columns.append(column)
        if traced:
            col_traces.append(steps)
    if flat in state.flats[level]:
        raise AssertionError("quantum row not exhausted")
    rows = [[columns[b][t] for b in range(s)] for t in range(a + 1)]
    try:
        tab = Tableau(state.rank_n, rows)
    except ValueError as exc:
        raise AssertionError("reconstructed factor is not semistandard: %s" % exc) from exc
    return tab, col_traces


def default_order(rc):
    """Reverse provenance order when known, else reverse flat order."""
    rows = rc.quantum_rows()
    if rows and all(org is not None for _, _, _, _, org in rows):
        return [flat for flat, _, _, _, org in sorted(rows, key=lambda t: -t[4])]
    return [flat for flat, _, _, _, _ in reversed(rows)]


def _check_valid(rc, flats=()):
    """Rejects an invalid rc, and flat indices of rows that rc does not have."""
    problems = validate(rc, "unrestricted")
    if problems:
        raise ValueError("invalid rigged configuration: " + "; ".join(problems))
    n_rows = len(rc.quantum_rows())
    for flat in flats:
        if not 0 <= flat < n_rows:
            raise ValueError("no quantum row %d" % flat)


def _remove_rows(rc, order, traces=None):
    """The box-removal driver: removes the quantum rows of a valid rc in the
    given order of flat indices; returns (factors in removal order, remaining
    state). Appends one RowTrace per row to traces when it is a list."""
    rows = rc.quantum_rows()
    state = _State(rc)
    produced = []
    for flat in order:
        level = rows[flat][1]
        tab, col_traces = _remove_row(state, level, flat, traces is not None)
        produced.append(tab)
        if traces is not None:
            traces.append(RowTrace(flat, level, col_traces))
    return produced, state


def _phi_inverse(rc, order, traces):
    _check_valid(rc)
    n_rows = len(rc.quantum_rows())
    if order is None:
        order = default_order(rc)
    order = [_integer(x, "order entry") for x in order]
    if sorted(order) != list(range(n_rows)):
        raise ValueError("order must be a permutation of 0..%d" % (n_rows - 1))
    produced, state = _remove_rows(rc, order, traces)
    left = ["level %d: %s" % (a, level) for a, level in enumerate(state.mu, 1) if level]
    if left:
        raise ValueError(
            "rigged configuration is outside the image of phi: boxes of mu remain "
            "after the last quantum row is removed (%s)" % "; ".join(left)
        )
    return Path(rc.rank_n, tuple(reversed(produced)))


def phi_inverse_trace(rc, order=None):
    """phi_inverse with its full diagnostic trace; returns (Path, RemovalTrace)."""
    traces = []
    path = _phi_inverse(rc, order, traces)
    return path, RemovalTrace(traces)


def phi_inverse(rc, order=None):
    """Reconstructs the path; the first removed row gives the rightmost factor.

    order, when given, is the removal order: a permutation of the flat
    indices of the quantum rows, each an int (a bool or a float raises
    ValueError). By default it is `default_order(rc)`.

    Raises ValueError when boxes of mu are left once every quantum row is
    removed: such a configuration is not the image of any path.
    """
    return _phi_inverse(rc, order, None)


def remove_row(rc, flat_index):
    """Removes a single quantum row; returns (factor tableau, remaining rc)."""
    _check_valid(rc, [flat_index])
    (tab,), state = _remove_rows(rc, [flat_index])
    return tab, state.view()


def removal_order_equivalence(rc, row_a, row_b):
    """Removes row_a then row_b and the other way round; True iff the two
    factor pairs correspond under the combinatorial R."""
    if row_a == row_b:
        raise ValueError("rows must be distinct")
    _check_valid(rc, [row_a, row_b])
    (a1, b1), _ = _remove_rows(rc, [row_a, row_b])
    (b2, a2), _ = _remove_rows(rc, [row_b, row_a])
    return apply_R(TensorPair(b1, a1)) == TensorPair(a2, b2)
