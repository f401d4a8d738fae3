"""The KSS correspondence between paths and rigged configurations, both ways.

Both directions move boxes, as Kirillov-Schilling-Shimozono define the map.
phi_inverse is box removal: removing a quantum-space row of length s at
level a produces one path factor in B^{a+1,s}, column by column. phi is box
addition, box removal undone step by step: the factors go in left to right,
and each letter is one _add_box, the inverse of box removal's _micro_step.
phi_energy is the paper's construction of the same map: it reads the rigged
configuration straight off the local energy distribution, where positive
entries are grouped into soliton chains, group lengths become configuration
rows and riggings come from a closed-form count. `verify`'s energy-formula
suite checks that phi_energy and phi agree, which is the paper's main
theorem.

phi_inverse, remove_row and removal_order_equivalence each build one working
state, _State, in one pass: it validates the configuration, reads its
quantum rows once and checks the flat indices. In the state the box in
transport is a length-1 quantum row, so rigged's vacancy formula, fed the
state's level lists, gives every vacancy number; box addition keeps the same
level lists. A micro-step holds its chosen rows by reference, and
_remove_row checks each letter against its neighbours as it comes, so the
factors and the path are wrapped without being validated again.
"""

from collections import namedtuple

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
    """Box removal's working copy of a valid rigged configuration, built in
    one pass: _State(rc, order) validates rc (ValueError), reads
    rc.quantum_rows() once and takes from that loop each row's flat index
    (flats mirrors nu), level (levels[flat]) and origin (origins[flat]).
    order is the removal order: the given flat indices, each checked
    (ValueError for one that is not an int or names no row), or by default
    reverse origin order when every row has an origin, else reverse flats.

    rank_n, nu (row lengths) and mu ([length, rigging] rows, which a
    micro-step holds by reference) are lists, read like a configuration's;
    padded is mu between two empty levels, so padded[m - 1 : m + 2] are the
    levels that the vacancy numbers of level m sum. The box in transport is
    a length-1 row at the end of its level with flat index None, so it
    counts toward the vacancy numbers one level up. Empty rows are deleted.
    """

    __slots__ = ("rank_n", "nu", "mu", "padded", "flats", "levels", "origins", "order")

    def __init__(self, rc, order):
        problems = validate(rc, "unrestricted")
        if problems:
            raise ValueError("invalid rigged configuration: " + "; ".join(problems))
        self.rank_n = rc.rank_n
        self.flats = flats = [[] for _ in rc.nu]
        self.levels = levels = []
        self.origins = origins = []
        for flat, a, _, _, origin in rc.quantum_rows():
            flats[a].append(flat)
            levels.append(a)
            origins.append(origin)
        if order is None:
            # origins are pairwise distinct, so a reverse sort leaves no ties
            order = range(len(levels) - 1, -1, -1)
            if None not in origins:
                order = sorted(order, key=origins.__getitem__, reverse=True)
        else:
            for flat in order:
                if not 0 <= _integer(flat, "flat index") < len(levels):
                    raise ValueError("no quantum row %d" % flat)
        self.order = order
        self.nu = list(map(list, rc.nu))
        self.mu = [[[m, r] for m, r in level] for level in rc.mu]
        self.padded = [(), *self.mu, ()]

    def copy(self):
        """A copy that box removal can change apart from this state."""
        other = object.__new__(_State)
        other.rank_n, other.levels, other.origins = self.rank_n, self.levels, self.origins
        other.order = self.order
        other.nu, other.flats = [level[:] for level in self.nu], [level[:] for level in self.flats]
        other.mu = [[row[:] for row in level] for level in self.mu]
        other.padded = [(), *other.mu, ()]
        return other

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
    nu = state.nu
    mu = state.padded
    level = nu[i]
    col_x = level[pos]
    chosen = []
    prev = col_x
    m = i + 1
    for here in state.mu[i:] if i else state.mu:  # mu^(i+1), mu^(i+2), ...
        best = None
        # nothing moves until every level is chosen, so a candidate as long
        # as the one before reuses its vacancy number (a dict over all
        # lengths saves few more calls and costs small inputs about 4%)
        last = None
        for row in here:
            length = row[0]
            if prev <= length and (best is None or length < best_length):
                if length != last:
                    last = length
                    p = _vacancy(nu[m - 1], mu[m - 1], here, mu[m + 1], length)
                if p == row[1]:
                    best = row
                    best_length = length
        if best is None:
            break
        chosen.append(best)
        prev = best_length
        m += 1

    if col_x > 1:
        level[pos] = col_x - 1
    else:
        del level[pos]
        del state.flats[i][pos]
    if i:
        nu[i - 1].append(1)
        state.flats[i - 1].append(None)
    if chosen:
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
        lev = i
        for row in chosen:
            lev += 1
            if row[0]:
                row[1] = _vacancy(nu[lev - 1], mu[lev - 1], mu[lev], mu[lev + 1], row[0])
            else:
                mu[lev].remove(row)
    return m


def _add_box(nu, mu, i, a, x):
    """Undoes a _micro_step at level i that gave the letter x, in a factor
    whose quantum row is the last row of nu^(a); mu is padded as
    _State.padded, and each of its levels keeps its rows longest first.

    From level x-1 down to i+1, takes the longest singular row that is no
    longer than the row taken one level up (no bound at x-1), or a new row
    of length 0 when there is none. Then the box moves up: the box in
    transport leaves the end of nu^(i-1) (there is none at i = 0) and lands
    on nu^(i), as a new box in transport at i < a, or on the quantum row at
    i = a. The taken rows grow together and get their new vacancy number as
    rigging, so they are singular again, as _micro_step found them.
    """
    chosen = []
    bound = None
    for m in range(x - 1, i, -1):
        here = mu[m]
        # rows longest first: the first singular row in reach is the longest,
        # and rows of one length are adjacent and share a vacancy number
        last = None
        for k, row in enumerate(here):
            length = row[0]
            if bound is not None and length > bound:
                continue
            if length != last:
                last = length
                first = k
                p = _vacancy(nu[m - 1], mu[m - 1], here, mu[m + 1], length)
            if p == row[1]:
                # first in its run, so that it stays in order once it grows
                here[k], here[first] = here[first], row
                break
        else:
            # a row of length 0 adds nothing to any Q
            row = [0, 0]
            here.append(row)
        chosen.append(row)
        bound = row[0]

    if i:
        nu[i - 1].pop()
    if i < a:
        nu[i].append(1)
    else:
        nu[a][-1] += 1
    for row in chosen:
        row[0] += 1
    m = x
    for row in chosen:
        m -= 1
        row[1] = _vacancy(nu[m - 1], mu[m - 1], mu[m], mu[m + 1], row[0])


def phi(p):
    """KSS's own map: the rigged configuration of a path by box addition,
    the inverse of box removal (phi_inverse) step by step.

    Starting from the empty configuration, the factors are added left to
    right, each factor's columns right to left and each column top letter
    first, one _add_box per letter. The quantum space and origins are
    quantum_space_of(p), which raises ValueError for a factor with more
    than n rows; mu's rows sort as phi_energy sorts them. The paper's main
    theorem says that phi_energy(p) is the same configuration; `verify`'s
    energy-formula suite checks it.
    """
    nu, origins = quantum_space_of(p)
    work = [[] for _ in nu]
    mu = [[] for _ in nu]
    padded = [(), *mu, ()]
    add = _add_box
    for b in p.factors:
        a = b.n_rows - 1
        work[a].append(0)
        for column in reversed(list(zip(*b.rows))):
            for i, x in enumerate(column):
                add(work, padded, i, a, x)
    # valid by construction: every row of mu has grown from length 0, each
    # rigging is an int from rigged._vacancy, and nu and origins are
    # quantum_space_of's
    return RiggedConfiguration._trusted(
        p.rank_n,
        tuple(map(tuple, nu)),
        tuple(tuple(sorted(map(tuple, level), reverse=True)) for level in mu),
        tuple(map(tuple, origins)),
    )


def _remove_row(state, flat):
    """Dismantles quantum row flat, of nu^(a), box by box, right to left,
    and returns its factor tableau in B^{a+1, s}.

    The letters of each box form the leftmost empty column, top to bottom.
    Each letter is checked as it comes against the one below it and the one
    to its left, so the factor is semistandard when it is wrapped.
    """
    a = state.levels[flat]
    flats = state.flats
    pos = flats[a].index(flat)
    step = _micro_step
    top = state.rank_n + 2
    # columns bottom to top; the first is checked against a column of zeros
    columns = []
    left = (0,) * (a + 1)
    for b in range(1, state.nu[a][pos] + 1):
        column = []
        below = top
        p = pos
        i = a
        for to_left in left:
            letter = step(state, i, p)
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
            p = -1
            i -= 1
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


def phi_inverse(rc, order=None):
    """Reconstructs the path; the first removed row gives the rightmost factor.

    order, when given, is the removal order: a permutation of the flat
    indices of the quantum rows, each an int (a bool or a float raises
    ValueError). By default the rows are removed in reverse origin order
    when every quantum row has an origin, else in reverse flat order.

    Raises ValueError when boxes of mu are left once every quantum row is
    removed: such a configuration is not the image of any path.
    """
    state = _State(rc, None if order is None else list(order))
    if order is not None and sorted(state.order) != list(range(len(state.levels))):
        raise ValueError("order must be a permutation of 0..%d" % (len(state.levels) - 1))
    produced = [_remove_row(state, flat) for flat in state.order]
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
    state = _State(rc, [flat_index])
    return _remove_row(state, flat_index), state.view()


def removal_order_equivalence(rc, row_a, row_b):
    """Removes row_a then row_b and the other way round; True iff the two
    factor pairs correspond under the combinatorial R. The R image of the
    first pair is read as rows from the memoized step (`rmatrix._sweep_step`)
    and compared with the second pair's rows, so no pair is built."""
    first = _State(rc, [row_a, row_b])
    if row_a == row_b:
        raise ValueError("rows must be distinct")
    second = first.copy()
    a1, b1 = _remove_row(first, row_a), _remove_row(first, row_b)
    b2, a2 = _remove_row(second, row_b), _remove_row(second, row_a)
    return _sweep_step(b1.rows, a1.rows)[:2] == (a2.rows, b2.rows)
