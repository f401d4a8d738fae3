"""Paths, carriers, box-ball time evolution, energy matrices and their double differences.

A path is a tensor product b_1 (x) ... (x) b_L of rectangular tableaux. The
time evolution T_l^(a) threads the highest element of B^{a,l} through the
path from the left; the energies collected along the way, doubly differenced,
form the local energy distribution.

Column prefixes: within a factor, the k-th prefix is its rightmost k columns
(left and right are reversed between a factor and its table columns;
`rmatrix._sweep_step` reads prefixes this way).

Every sweep is one `_sweep_rows` through `rmatrix._sweep_step`, the
memoized step (an LRU cache of `rmatrix.CACHE_SIZE` entries) that also
serves `apply_R`, `energy_H` and the affine R: each carrier move u (x) b
gives the R image b' (x) u' and the energies of u against every column
prefix of b together, so the sweeps that read only energies (`total_energy`,
`energy_matrix`, `local_energy_distribution`) and those that read images
share every entry. The sweep keeps each carrier compressed, with its spare
vacuum columns V = (1, ..., a) set aside in front and its spare top columns
A = (n-a+2, ..., n+1) behind (the rows of both come from
`tableaux._constant_rows`, which also builds the highest element), and gives
the step only as many of each as b is wide, which changes nothing (the two
lemmas are in `_sweep_rows`); so carriers of every width l, and carriers
that have taken up different numbers of top letters, share cache entries.
Only `carrier_sweep` expands carriers to full rows; `_evolve` gives T's
factor rows and reads off the last compressed carrier whether it came back
as u_l^(a), for `time_evolution` and for verify's linearization check, which
builds no tableau. Carriers and R images become tableaux without
re-validation, since their rows come from the validated path.
"""

from collections import namedtuple
from itertools import accumulate

from kssbij.rigged import check_rank
from kssbij.rmatrix import _sweep_step
from kssbij.tableaux import Tableau, _constant_rows, check_kr


class Path:
    """Ordered tensor product of rectangular tableaux over one alphabet.

    The hash is computed on first use and kept in the slot `_hash`, since
    `verify` looks the same family paths up in its Family's phi suite after
    suite; neither constructor fills it, so a path that is never hashed
    pays nothing for it."""

    __slots__ = ("rank_n", "factors", "_hash")

    def __init__(self, rank_n, factors):
        factors = tuple(factors)
        # a path without factors has no tableau that would check its rank
        check_rank(rank_n)
        for b in factors:
            if b.rank_n != rank_n:
                raise ValueError("factor alphabet differs from path alphabet")
            if not b.is_rectangular() or b.is_empty():
                raise ValueError("factors must be non-empty rectangular tableaux")
        object.__setattr__(self, "rank_n", rank_n)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _trusted(cls, rank_n, factors):
        """Internal constructor that skips validation; factors must be a
        tuple of non-empty rectangular tableaux over rank_n by construction,
        as the factors `kss.phi_inverse` and `time_evolution` build are."""
        p = object.__new__(cls)
        object.__setattr__(p, "rank_n", rank_n)
        object.__setattr__(p, "factors", factors)
        return p

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
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rank_n, self.factors))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "Path(n=%d, %s)" % (
            self.rank_n,
            " (x) ".join(repr(b) for b in self.factors),
        )


def _expand(n, a, carrier):
    """The rows of a compressed carrier (k, u, t): k columns V, then u, then
    t columns A."""
    k, u, t = carrier
    if t:
        u = map(tuple.__add__, u, _constant_rows(n - a + 2, a, t))
    if k:
        u = map(tuple.__add__, _constant_rows(1, a, k), u)
    return tuple(u)


def _sweep_rows(p, a, l):
    """One pass of the carrier u_l^(a), on compressed carriers.

    Returns (out, carriers, energies): out[j] holds the rows of the R image
    of factor j+1, energies[j][k-1] = E[l][j+1][k] for k = 1..beta_{j+1},
    and carriers[j] is the carrier after j factors (carriers[0] = u_l^(a)),
    kept as (k, u, t): k columns V = (1, ..., a) set aside in front of the
    rows u, and t columns A = (n-a+2, ..., n+1), the highest column of
    height a, set aside behind them (`_expand` gives the full rows).

    Before the move against a factor b of width s, the carrier's columns V
    and its columns A are each split so that u holds min(total, s) of them:
    u is trimmed when it holds more, and padded from k (or t) when it holds
    fewer. So the memoized `_sweep_step` always sees
    V^min(k', s) (+) core (+) A^min(t', s), where k' and t' count the
    carrier's columns V and A and core is the rest (V != A, as a <= n), and
    carriers that differ only in spare V or A columns share one cache
    entry, within a sweep, across widths l and across paths. While the
    factor widths stay the same and the carrier keeps both kinds of column,
    the step's output goes back in as it is. This is exact by the two
    lemmas below, applied once per spare column.

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
    unchanged, so every H_k is the same. (iv) `_peel` picks strip cells by
    the row lengths and these caps, so it picks the same cells, shifted one
    column right in rows < a; an inverse bump replaces the rightmost entry
    < x of each row above, which in u's run lies at some position j >= 0,
    so in the other run it lies at j + 1 and the added column is never
    entered. The ejected letters, hence b', are the same, and the rows left
    are V (+) u'.

    Mirror lemma. If u in B^{a,l} ends with m >= s columns A and b is a
    rectangle of width s, then _sweep_step(u (+) A, b) = (b', u' (+) A, hs),
    where (b', u', hs) = _sweep_step(u, b).

    Proof. Letters move left to right, so columns 1..l evolve alike in both
    runs; it remains to show that in the run of u (+) A the added column
    l + 1 passes every letter that reaches it. Call one of the m + 1
    trailing columns A modified once a letter has changed it. (i) A letter
    x reaching an unmodified column A either equals an entry of it and
    passes on unchanged, or (x < n-a+2) bumps its top n-a+2, which equals
    the top of every later unmodified column and passes them. So the
    modified columns are a prefix of the trailing ones, each letter
    modifies at most one more (an advance), and every letter that leaves
    an unmodified column is an entry of A. (ii) Each advance leaves one
    more letter n-a+2 in row 1 to the right of the trailing columns, and no
    later letter moves it: only entries of A, all >= n-a+2, get there. The
    product's shape has lambda_1 <= (l + 1) + s (the Littlewood-Richardson
    bound of the lemma above), so at most s <= m advances happen: the last
    trailing column, the added one, is never modified, and so passes every
    letter (its bottom n+1 takes no cell below it). Hence every product of
    u (+) A is that of u with the column A inserted after column l: rows
    < a gain one cell and one cap, and every H_k is the same, as in (iii)
    above. (iv) `_peel` then picks the same strip cells, shifted one column
    right in rows < a. An inverse bump raises the entry it replaces and
    keeps the tableau semistandard; were the lowest entry an ejection
    raises in the added column in row i < a - 1, the entry below it would
    still be n-a+3+i and no longer larger, and in row a - 1 it would exceed
    n+1. So no ejection enters the added column, the rightmost entry < x of
    each row is the same entry in both runs, the ejected letters, hence b',
    are the same, and the rows left are u' (+) A.

    Both bounds are tight: for every class (a, r, s) with n <= 3 and s >= 2
    some u with m = s - 1 leading columns V, and some u with m = s - 1
    trailing columns A, breaks the identity.

    Successive widths could share more than cache entries: up to the first
    factor wider than width l's whole V run, width l + 1 is width l with one
    more spare column V, so the LED could start width l + 1 there. That
    skips about a third of the LED's moves on the largest benchmark paths,
    but the skipped moves are cache hits, and it saved about 4% of their
    cold LED time and nothing end to end, so it is not done.

    (a, l) is not checked here: each public sweep checks it once with
    `tableaux.check_kr`, which builds no highest element.
    """
    n = p.rank_n
    top = n - a + 2
    k, u, t = carrier = (l, ((),) * a, 0)
    out, carriers, energies = [], [carrier], []
    for b in p.factors:
        b = b.rows
        s = len(b[0])
        # a column of u is V exactly when its bottom letter is a, and A
        # exactly when its top letter is n - a + 2
        v = u[-1].count(a)
        if v > s:
            u = tuple([row[v - s:] for row in u])
            k += v - s
        elif v < s and k:
            # min(k, s - v) without the call, which is slow next to a cache hit
            m = s - v if k > s - v else k
            u = tuple(map(tuple.__add__, _constant_rows(1, a, m), u))
            k -= m
        # with no spare A columns, u has some only if its last column is A
        if t or u[0][-1] == top:
            w = u[0].count(top)
            if w > s:
                u = tuple([row[: s - w] for row in u])
                t += w - s
            elif w < s and t:
                m = s - w if t > s - w else t
                u = tuple(map(tuple.__add__, u, _constant_rows(top, a, m)))
                t -= m
        b2, u, hs = _sweep_step(u, b)
        out.append(b2)
        carriers.append((k, u, t))
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
        [Tableau._trusted(n, _expand(n, a, c)) for c in carriers],
    )


def _evolve(p, a, l):
    """T_l^(a)(p) on rows: (its factor rows, a tuple of row tuples, and
    whether the carrier came back as u_l^(a)), with no tableau built.

    The carrier is u_l^(a) exactly when it keeps no spare columns A and
    every letter of its core's bottom row is a: a column of height a that
    ends in a is V = (1, ..., a), and A is not V. (a, l) is not checked.
    """
    out, carriers, _ = _sweep_rows(p, a, l)
    _, u, t = carriers[-1]
    return tuple(out), not t and u[-1].count(a) == len(u[-1])


def time_evolution(p, a, l):
    """The box-ball update T_l^(a) applied to the path. Its factors are R
    images of the validated path's rows, so the result is not re-validated."""
    check_kr(a, l, p.rank_n)
    n = p.rank_n
    return Path._trusted(n, tuple(Tableau._trusted(n, rows) for rows in _evolve(p, a, l)[0]))


def energy_matrix(p, a, l_max):
    """The carrier energies of level a for the widths l = 1..l_max.

    Returns E with E[l-1][j-1][k-1] the energy of the carrier u_l^(a), after
    the first j - 1 factors, against the rightmost k columns of factor j, for
    k = 1..beta_j: lists over l and j of tuples over k.
    """
    check_kr(a, l_max, p.rank_n)
    return [_sweep_rows(p, a, l)[2] for l in range(1, l_max + 1)]


# Double differences of carrier energies, one table per level a = 1..n:
# tables[a-1][l-1] is row l in the column order columns = [(j, k), ...],
# lexicographic. Each table ends with its first all-zero row; entries below
# it are zero.
LocalEnergyDistribution = namedtuple(
    "LocalEnergyDistribution", ["rank_n", "columns", "tables"]
)


def _level_weights(p):
    """W_a for a = 1..n: the letters > a in the first a rows of the factors.

    The LED rows of level a sum to W_a, so W_a is where its table ends. A
    letter x in row i counts toward W_i, ..., W_{x-1} (row i holds letters
    >= i), so one pass over the cells fills a difference array whose prefix
    sums are the W_a.
    """
    diff = [0] * (p.rank_n + 2)
    for b in p.factors:
        for i, row in enumerate(b.rows, 1):
            diff[i] += len(row)
            for x in row:
                diff[x] -= 1
    return list(accumulate(diff[1:-1]))


def local_energy_distribution(p):
    """Tables of epsilon[l][(j,k)] for every level, each cut at its first all-zero row.

    Level a sweeps l = 1, 2, ... until its rows sum to W_a, the letters > a
    in the first a rows of the factors (`_level_weights`), then appends the
    zero row; a level with W_a = 0 gets the zero row alone and sweeps
    nothing. So the cost grows with the largest letter the path uses, not
    with the rank.
    """
    shapes = p.shapes()
    columns = [(j, k) for j, (_, beta) in enumerate(shapes, 1) for k in range(1, beta + 1)]
    zero = [0] * len(columns)
    tables = []
    for a, weight in enumerate(_level_weights(p), start=1):
        rows = []
        total = 0
        d_prev = zero
        l = 0
        while total < weight:
            l += 1
            # differences in k first (E[l][j][0] = 0), flattened in column order
            e_cur = _sweep_rows(p, a, l)[2]
            d_cur = [e - prev for es in e_cur for prev, e in zip((0,) + es, es)]
            row = [x - y for x, y in zip(d_cur, d_prev)]  # then in l
            if min(row) < 0:
                raise AssertionError("negative local energy entry")
            if not any(row):
                raise AssertionError(
                    "level %d: zero row %d before the rows sum to W = %d" % (a, l, weight)
                )
            rows.append(row)
            total += sum(row)
            d_prev = d_cur
        if total > weight:
            raise AssertionError("level %d: rows sum to %d, past W = %d" % (a, total, weight))
        rows.append(list(zero))
        tables.append(rows)
    return LocalEnergyDistribution(p.rank_n, columns, tables)


def total_energy(p, a, l):
    """E_l^(a): summed full-factor carrier energies along the path."""
    check_kr(a, l, p.rank_n)
    return sum([hs[-1] for hs in _sweep_rows(p, a, l)[2]])
