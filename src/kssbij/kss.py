"""The KSS correspondence between paths and rigged configurations, both ways.

phi_energy reads the rigged configuration straight off the local energy
distribution: positive entries are grouped into soliton chains, group lengths
become configuration rows, riggings come from a closed-form count. phi_inverse
is the classical box-removal reconstruction; removing a quantum-space row of
length s at level a produces one path factor in B^{a+1,s}, column by column.
Box removal works on a mutable copy of the configuration in which the box in
transport is a length-1 quantum row, so the vacancy formula of rigged gives
every vacancy number and one driver, _remove_rows, serves phi_inverse,
remove_row and removal_order_equivalence. Each of these checks the
configuration and its flat indices once, in _checked_rows; after that box
removal re-derives nothing it builds. A micro-step holds its chosen rows by
reference, and _remove_row checks each letter against its neighbours as it
comes, so the factors and the path are wrapped without being validated
again.
"""

from collections import namedtuple
from operator import itemgetter

from kssbij.evolution import Path, local_energy_distribution
from kssbij.rigged import RiggedConfiguration, _integer, _vacancy, validate
from kssbij.rmatrix import _sweep_step
from kssbij.tableaux import Tableau, check_kr


# One chain of positive entries in a level's table: cardinality is the
# number of chosen entries (= rows spanned), endpoint the (j, k) column of
# the lowest one, cells the chosen (row, (j, k)) entries from the top.
SolitonGroup = namedtuple("SolitonGroup", ["level", "cardinality", "endpoint", "cells"])


def extract_groups(led, a):
    """Splits the level-a table into groups, rightmost first.

    While row 1 holds a positive entry, a group walks down the rows, each
    time taking the rightmost positive entry strictly right of the current
    column (-1 at first), and decrements the entries it takes. Same-column
    entries never chain: a unit of multiplicity at the current column
    belongs to a later group.
    """
    rows = [list(r) for r in led.tables[a - 1]]
    columns = led.columns
    groups = []
    while True:
        cells = []
        cur = -1
        for l, row in enumerate(rows, start=1):
            c = len(row) - 1
            while c > cur and row[c] <= 0:
                c -= 1
            if c == cur:
                break
            row[c] -= 1
            cells.append((l, columns[c]))
            cur = c
        if not cells:
            break
        groups.append(SolitonGroup(a, len(cells), columns[cur], cells))
    if any(map(any, rows)):
        raise AssertionError("group extraction stuck with positive entries left")
    return groups


def compute_rigging(p, led, group):
    """Rigging of one group: shape contribution plus table sums, both over
    the window of columns (j, k) up to the endpoint, a prefix of
    led.columns, which is in lexicographic order.
    """
    a = group.level
    mu_s = group.cardinality
    width = led.columns.index(group.endpoint) + 1
    # min(mu_s, columns of factor j in the window), summed over factors in B^{a,*}
    shape_part = 0
    for j, k in led.columns[:width]:
        if k <= mu_s and p.factors[j - 1].n_rows == a:
            shape_part += 1
    # the first mu_s rows of the tables of levels a - 1, a and a + 1 inside
    # the window, 0 off levels 1..n; no other level's table is read
    w = [
        sum(sum(r[:width]) for r in led.tables[b - 1][:mu_s]) if 1 <= b <= p.rank_n else 0
        for b in (a - 1, a, a + 1)
    ]
    return shape_part + w[0] - 2 * w[1] + w[2]


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
    # valid by construction: positive row lengths and int riggings from a
    # validated path, its factor indices as distinct origins
    return RiggedConfiguration._trusted(
        p.rank_n, tuple(map(tuple, nu)), tuple(mu), tuple(map(tuple, origins))
    )


def linearized_image(rc, a, l):
    """The configuration predicted for one box-ball update: riggings at level
    a grow by min(l, row length), everything else fixed.

    On a finite path the prediction is realized exactly when it is still a
    valid unrestricted configuration; otherwise the soliton exits the path
    (the carrier comes back loaded) and the corresponding rows vanish instead.

    a must be an int in 1..n and l an int >= 1; anything else raises
    ValueError.
    """
    check_kr(a, l, rc.rank_n)
    mu = list(rc.mu)
    mu[a - 1] = tuple([(m, r + (m if m < l else l)) for m, r in mu[a - 1]])
    return RiggedConfiguration._trusted(rc.rank_n, rc.nu, tuple(mu), rc.origins)


class _State:
    """Mutable working copy of a rigged configuration during box removal.

    It has the fields of a RiggedConfiguration that rigged._vacancy reads, as
    lists: rank_n, nu (row lengths) and mu ([length, rigging] rows, which a
    micro-step holds by reference while it moves boxes), so
    _vacancy(state, a, l) gives every vacancy number. flats mirrors nu with
    each quantum row's flat index, and origins[flat] is that row's origin.
    The box in transport is a length-1 row at the end of its level with flat
    index None, so while present it counts toward the vacancy numbers one
    level up. A row is deleted when its length reaches 0.
    """

    __slots__ = ("rank_n", "nu", "mu", "flats", "origins")

    def __init__(self, rc, quantum_rows):
        self.rank_n = rc.rank_n
        self.nu = list(map(list, rc.nu))
        self.mu = [list(map(list, level)) for level in rc.mu]
        self.flats = flats = [[] for _ in rc.nu]
        self.origins = []
        for flat, a, _, _, origin in quantum_rows:
            flats[a].append(flat)
            self.origins.append(origin)

    def view(self):
        """The state as a RiggedConfiguration; the box in transport has no origin."""
        origins = self.origins
        # valid by construction: box removal keeps row lengths >= 1 and
        # distinct origins, and sets riggings to ints from rigged._vacancy
        return RiggedConfiguration._trusted(
            self.rank_n,
            tuple(map(tuple, self.nu)),
            tuple(tuple(map(tuple, level)) for level in self.mu),
            tuple(
                tuple(None if flat is None else origins[flat] for flat in level)
                for level in self.flats
            ),
        )


def _micro_step(state, i, pos):
    """Moves the last box of row pos of nu^(i) one level down; returns its
    letter.

    The row is a quantum row or the box in transport (pos = -1). Walks
    levels i+1, i+2, ... choosing the shortest singular row that is not
    shorter than the previous choice (first choice: not shorter than the row
    the box leaves); ties go to the first in storage order. The letter is
    the first level where no choice exists. All removals are simultaneous;
    the box lands at the end of nu^(i-1) (it leaves at i = 0), and shortened
    rows get their new vacancy number as rigging.
    """
    mu = state.mu
    level = state.nu[i]
    col_x = level[pos]
    n = state.rank_n
    chosen = []
    prev = col_x
    m = i + 1
    while m <= n:
        best = None
        # nothing moves until every level is chosen, so a candidate as long
        # as the one before reuses its vacancy number (a dict over all
        # lengths saves few more calls and costs small inputs about 4%)
        last = None
        for row in mu[m - 1]:
            length = row[0]
            if prev <= length and (best is None or length < best[0]):
                if length != last:
                    last = length
                    p = _vacancy(state, m, length)
                if p == row[1]:
                    best = row
        if best is None:
            break
        chosen.append(best)
        prev = best[0]
        m += 1

    if col_x > 1:
        level[pos] = col_x - 1
    else:
        del level[pos]
        del state.flats[i][pos]
    if i:
        state.nu[i - 1].append(1)
        state.flats[i - 1].append(None)
    # the selection takes no row shorter than the one before, so a column
    # can only go down here when one row sits at two levels (a corrupt state)
    prev = col_x
    for row in chosen:
        length = row[0]
        if length < prev:
            raise AssertionError("removed box columns must weakly increase with level")
        row[0] = length - 1
        prev = length
    # a row of length 0 adds nothing to any Q, and each level holds at most
    # one chosen row, so deleting one leaves the others' vacancies alone
    for lev, row in enumerate(chosen, i + 1):
        if row[0]:
            row[1] = _vacancy(state, lev, row[0])
        else:
            mu[lev - 1].remove(row)
    return m


def _remove_row(state, a, flat):
    """Dismantles one quantum row of nu^(a) box by box, right to left, and
    returns its factor tableau in B^{a+1, s}.

    The letters of each box form the leftmost empty column, top to bottom.
    Each letter is checked as it comes against the one below it and the one
    to its left, so the factor is semistandard when it is wrapped.
    """
    flats = state.flats
    pos = flats[a].index(flat)
    s = state.nu[a][pos]
    # columns bottom to top; the first is checked against a column of zeros
    columns = []
    left = (0,) * (a + 1)
    for b in range(1, s + 1):
        column = []
        below = state.rank_n + 2
        p = pos
        for i, to_left in zip(range(a, -1, -1), left):
            letter = _micro_step(state, i, p)
            p = -1
            if letter >= below:
                raise AssertionError(
                    "reconstructed factor is not semistandard: "
                    "column %d not strictly increasing" % b
                )
            if to_left > letter:
                raise AssertionError(
                    "reconstructed factor is not semistandard: "
                    "row %d not weakly increasing" % (i + 1)
                )
            column.append(letter)
            below = letter
        for level in flats:
            if None in level:
                raise AssertionError("transported box left behind")
        columns.append(column)
        left = column
    if flat in flats[a]:
        raise AssertionError("quantum row not exhausted")
    # valid by construction: letters lie in 1..n+1, and the checks above
    # make the rows weakly and the columns strictly increasing
    return Tableau._trusted(state.rank_n, tuple(zip(*columns))[::-1])


def _default_order(rows):
    # origins are pairwise distinct, so a reverse sort leaves no ties
    if rows and None not in [row[4] for row in rows]:
        rows = sorted(rows, key=itemgetter(4), reverse=True)
    else:
        rows = reversed(rows)
    return [row[0] for row in rows]


def _checked_rows(rc, flats=()):
    """rc.quantum_rows() of a valid rc whose quantum rows include every flat
    index in flats; raises ValueError for an invalid rc and for a flat index
    that is not an int (a bool or a float) or names no quantum row."""
    problems = validate(rc, "unrestricted")
    if problems:
        raise ValueError("invalid rigged configuration: " + "; ".join(problems))
    rows = rc.quantum_rows()
    for flat in flats:
        if not 0 <= _integer(flat, "flat index") < len(rows):
            raise ValueError("no quantum row %d" % flat)
    return rows


def _remove_rows(rc, rows, order):
    """The box-removal driver: removes the quantum rows (rows =
    _checked_rows(rc, order)) of a valid rc in the given order of flat
    indices; returns (factors in removal order, remaining state)."""
    state = _State(rc, rows)
    return [_remove_row(state, rows[flat][1], flat) for flat in order], state


def phi_inverse(rc, order=None):
    """Reconstructs the path; the first removed row gives the rightmost factor.

    order, when given, is the removal order: a permutation of the flat
    indices of the quantum rows, each an int (a bool or a float raises
    ValueError). By default the rows are removed in reverse origin order
    when every quantum row has an origin, else in reverse flat order.

    Raises ValueError when boxes of mu are left once every quantum row is
    removed: such a configuration is not the image of any path.
    """
    if order is None:
        rows = _checked_rows(rc)
        order = _default_order(rows)
    else:
        order = list(order)
        rows = _checked_rows(rc, order)
        if sorted(order) != list(range(len(rows))):
            raise ValueError("order must be a permutation of 0..%d" % (len(rows) - 1))
    produced, state = _remove_rows(rc, rows, order)
    if any(state.mu):
        left = ["level %d: %s" % (a, level) for a, level in enumerate(state.mu, 1) if level]
        raise ValueError(
            "rigged configuration is outside the image of phi: boxes of mu remain "
            "after the last quantum row is removed (%s)" % "; ".join(left)
        )
    # valid by construction: each factor is a non-empty rectangle over rc.rank_n
    return Path._trusted(rc.rank_n, tuple(produced[::-1]))


def remove_row(rc, flat_index):
    """Removes a single quantum row; returns (factor tableau, remaining rc)."""
    rows = _checked_rows(rc, [flat_index])
    (tab,), state = _remove_rows(rc, rows, [flat_index])
    return tab, state.view()


def removal_order_equivalence(rc, row_a, row_b):
    """Removes row_a then row_b and the other way round; True iff the two
    factor pairs correspond under the combinatorial R. The R image of the
    first pair is read as rows from the memoized step (`rmatrix._sweep_step`)
    and compared with the second pair's rows, so no pair is built."""
    rows = _checked_rows(rc, [row_a, row_b])
    if row_a == row_b:
        raise ValueError("rows must be distinct")
    (a1, b1), _ = _remove_rows(rc, rows, [row_a, row_b])
    (b2, a2), _ = _remove_rows(rc, rows, [row_b, row_a])
    return _sweep_step(b1.rows, a1.rows)[:2] == (a2.rows, b2.rows)
