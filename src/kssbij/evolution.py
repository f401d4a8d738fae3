"""Paths, carriers, box-ball time evolution, energy matrices and their double differences.

A path is a tensor product b_1 (x) ... (x) b_L of rectangular tableaux. The
time evolution T_l^(a) threads the highest element of B^{a,l} through the
path from the left; the energies collected along the way, doubly differenced,
form the local energy distribution.

Column prefixes: within a factor, the k-th prefix is its rightmost k columns
(left and right are reversed between a factor and its table columns;
`rmatrix._sweep_step` reads prefixes this way).

Every sweep is one `_sweep_rows` through `rmatrix._sweep_step`, the one
memoized step (an LRU cache of `rmatrix.CACHE_SIZE` entries) that
also serves `apply_R`, `energy_H` and the affine R: each carrier move
u (x) b gives the R image b' (x) u' and the energies of u against every
column prefix of b together. The sweep keeps each carrier compressed, with
its spare vacuum columns (1, ..., a) set aside, and gives the step only as
many of them as b is wide, which changes nothing (the lemma is in
`_sweep_rows`); so carriers of every width l share cache entries. Only
`carrier_sweep` expands carriers to full rows. Carriers and R images become
tableaux without re-validation, since their rows come from the validated
path.
"""

from functools import lru_cache

from kssbij.rmatrix import _sweep_step
from kssbij.tableaux import Tableau, check_kr


class Path:
    """Ordered tensor product of rectangular tableaux over one alphabet."""

    __slots__ = ("rank_n", "factors")

    def __init__(self, rank_n, factors):
        factors = tuple(factors)
        # a path without factors has no tableau that would check its rank
        if type(rank_n) is not int or rank_n < 1:
            raise ValueError("rank_n must be an integer >= 1")
        for b in factors:
            if b.rank_n != rank_n:
                raise ValueError("factor alphabet differs from path alphabet")
            if not b.is_rectangular() or b.is_empty():
                raise ValueError("factors must be non-empty rectangular tableaux")
        object.__setattr__(self, "rank_n", rank_n)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Path is immutable")

    def __len__(self):
        return len(self.factors)

    def shapes(self):
        """Per-factor (rows, cols) = (alpha_j, beta_j)."""
        return [(b.n_rows, b.width()) for b in self.factors]

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.rank_n == other.rank_n and self.factors == other.factors

    def __hash__(self):
        return hash((self.rank_n, self.factors))

    def __repr__(self):
        return "Path(n=%d, %s)" % (
            self.rank_n,
            " (x) ".join(repr(b) for b in self.factors),
        )


@lru_cache(maxsize=None)
def _vacuum(a, m):
    # the rows of m columns (1, ..., a), m at most the widest factor
    return tuple((i,) * m for i in range(1, a + 1))


def _expand(a, carrier):
    """The rows of a compressed carrier (k, u): k columns V, then u."""
    k, u = carrier
    return tuple([(i,) * k + row for i, row in enumerate(u, start=1)])


def _sweep_rows(p, a, l):
    """One pass of the carrier u_l^(a), on compressed carriers.

    Returns (out, carriers, energies): out[j] holds the rows of the R image
    of factor j+1, energies[j][k-1] = E[l][j+1][k] for k = 1..beta_{j+1},
    and carriers[j] is the carrier after j factors (carriers[0] = u_l^(a)),
    kept as (k, u): k columns V = (1, ..., a) set aside, in front of the
    rows u (`_expand` gives the full rows).

    Before the move against a factor b of width s, the carrier's leading V
    columns are split so that u holds min(total, s) of them: u is trimmed
    when it holds more, and padded from k when it holds fewer. So the
    memoized `_sweep_step` always sees V^min(total, s) (+) core, where core
    is the carrier without its leading V columns, and carriers that differ
    only in spare vacuum share one cache entry, within a sweep, across
    widths l and across paths. While the factor widths stay the same and
    the carrier keeps its vacuum, the step's output goes back in as it is.
    This is exact by the following lemma, applied k times.

    Lemma. If u in B^{a,l} begins with m >= s columns V and b is a rectangle
    of width s, then _sweep_step(V (+) u, b) = (b', V (+) u', hs), where
    (b', u', hs) = _sweep_step(u, b).

    Proof. Compare the column insertion of b's letters into the columns of
    u and of V (+) u. (i) A column whose top a entries are 1..a passes a
    letter x <= a on unchanged, since x bumps the equal letter; so letters
    <= a cross the leading columns and meet the same core in both runs.
    (ii) A letter x > a bumps only entries below the top a rows there, and
    the bumped letter is > a again; it stops by opening a cell below the
    top a rows. The shape lambda of every product (prefix_k <- row(u)) has
    a nonzero Littlewood-Richardson coefficient with mu = (l^a) and
    nu = (k^r), so lambda_{a+j} <= mu_{a+1} + nu_j = k <= s; as the shape
    only grows, the cell is in one of the first s <= m columns, whose tops
    are V in both runs: such letters never reach the core or the added
    column. So at every stage the product of V (+) u is that of u with one
    more letter i+1 at the front of each row i < a. (iii) Rows < a then
    gain one cell and their caps in `_excess` gain one too, rows >= a are
    unchanged, so every H_k is the same. (iv) `_peel_strips` takes the same
    cells, shifted one column right in rows < a; an inverse bump replaces
    the rightmost entry < x of each row above, which in u's run lies at
    some position j >= 0, so in the other run it lies at j + 1 and the
    added column is never entered. The ejected letters, hence b', are the
    same, and the rows left are V (+) u'.

    The bound is tight: for every class (a, r, s) with n <= 3 some u with
    m = s - 1 leading columns V breaks the identity. (The trailing columns
    obey a mirror lemma, which is not used: it saves misses but no time.)

    (a, l) is not checked here: each public sweep checks it once with
    `tableaux.check_kr`, which builds no highest element.
    """
    carrier = (l, ((),) * a)
    out, carriers, energies = [], [carrier], []
    for b in p.factors:
        k, u = carrier
        b = b.rows
        s = len(b[0])
        # a column of u is V exactly when its bottom letter is a
        v = u[-1].count(a)
        if v > s:
            u = tuple([row[v - s:] for row in u])
            k += v - s
        elif v < s and k:
            m = min(k, s - v)
            u = tuple(map(tuple.__add__, _vacuum(a, m), u))
            k -= m
        b2, u, hs = _sweep_step(u, b)
        carrier = (k, u)
        out.append(b2)
        carriers.append(carrier)
        energies.append(hs)
    return out, carriers, energies


def carrier_sweep(p, a, l):
    """Threads the carrier u_l^(a) through the whole path.

    Returns (new_factors, carriers) where carriers[j] is the carrier after
    passing the first j factors (carriers[0] is the initial highest element).
    """
    check_kr(a, l, p.rank_n)
    n = p.rank_n
    out, carriers, _ = _sweep_rows(p, a, l)
    return (
        [Tableau._trusted(n, rows) for rows in out],
        [Tableau._trusted(n, _expand(a, c)) for c in carriers],
    )


def time_evolution(p, a, l):
    """The box-ball update T_l^(a) applied to the path."""
    check_kr(a, l, p.rank_n)
    n = p.rank_n
    return Path(n, [Tableau._trusted(n, rows) for rows in _sweep_rows(p, a, l)[0]])


class EnergyMatrix:
    """Carrier energies E[l][j][k] of one level a, with zero boundaries.

    E(l, j, k) is the energy of the carrier after j-1 factors against the
    rightmost-k-column prefix of factor j. E(0, j, k) = E(l, j, 0) = 0.
    """

    __slots__ = ("a", "l_max", "betas", "_rows")

    def __init__(self, a, l_max, betas, rows):
        self.a = a
        self.l_max = l_max
        self.betas = tuple(betas)
        self._rows = rows

    def E(self, l, j, k):
        if l == 0 or k == 0:
            return 0
        return self._rows[l - 1][j - 1][k - 1]


def energy_matrix(p, a, l_max):
    """Computes E[l][j][k] for l = 1..l_max over the whole path."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    check_kr(a, l_max, p.rank_n)
    rows = [_sweep_rows(p, a, l)[2] for l in range(1, l_max + 1)]
    return EnergyMatrix(a, l_max, [b.width() for b in p.factors], rows)


class LocalEnergyDistribution:
    """Double differences of carrier energies, one table per level a = 1..n.

    tables[a-1] is a list of rows; row l-1 holds the entries for row l in
    column order columns = [(j, k), ...], lexicographic. Each table ends with
    its first all-zero row. Entries below the stored rows are zero.
    """

    __slots__ = ("rank_n", "columns", "tables")

    def __init__(self, rank_n, columns, tables):
        self.rank_n = rank_n
        self.columns = list(columns)
        self.tables = tables


def local_energy_distribution(p):
    """Tables of epsilon[l][(j,k)] for every level, each cut at its first all-zero row."""
    betas = [b.width() for b in p.factors]
    alphas = [b.n_rows for b in p.factors]
    columns = [(j + 1, k) for j in range(len(betas)) for k in range(1, betas[j] + 1)]
    cap = 1 + sum(a * b for a, b in zip(alphas, betas))
    tables = []
    for a in range(1, p.rank_n + 1):
        rows = []
        d_prev = [0] * len(columns)
        for l in range(1, cap + 1):
            # differences in k first (E[l][j][0] = 0), flattened in column order
            e_cur = _sweep_rows(p, a, l)[2]
            d_cur = [e - prev for es in e_cur for prev, e in zip((0,) + es, es)]
            row = [x - y for x, y in zip(d_cur, d_prev)]  # then in l
            if any(x < 0 for x in row):
                raise AssertionError("negative local energy entry")
            rows.append(row)
            if not any(row):
                break
            d_prev = d_cur
        else:
            raise AssertionError("no all-zero row within %d rows" % cap)
        tables.append(rows)
    return LocalEnergyDistribution(p.rank_n, columns, tables)


def total_energy(p, a, l):
    """E_l^(a): summed full-factor carrier energies along the path."""
    check_kr(a, l, p.rank_n)
    return sum(hs[-1] for hs in _sweep_rows(p, a, l)[2])
