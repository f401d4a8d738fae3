"""Combinatorial R-matrix and energy function on tensor pairs of rectangular tableaux.

The R image of b (x) b' is the unique pair bt' (x) bt with
(b' <- row(b)) = (bt <- row(bt')); it is computed by peeling vertical strips
off the product tableau: undoing the insertions of each strip's cells ejects
one column of bt'.

R and H are pure functions of the two factors' rows, so they are computed
on row tuples by one memoized step, `_sweep_step`. Its product pass,
`_product`, column-inserts the columns of b into those of u, which gives H
of u against every column prefix of b on the way; the step then peels R off
the last product, one `kernels.eject_strip` per vertical strip, and checks
each ejected column. It serves every caller: the carrier sweeps of
`evolution` use every prefix energy, and hand it carriers cut down to as
many leading vacuum columns and trailing top columns as b is wide, so
sweeps at every carrier width share entries; `apply_R`, `energy_H` and
`apply_affine_R` use R and the last energy. Every move of every sweep goes
through it, so a move computed once serves the sweeps that read only
energies and those that read images alike. The cache holds CACHE_SIZE
entries (sized below). `apply_R` wraps the cached image in tableaux without
re-validating its rows: they come from factors that were checked when they
were built.
`apply_affine_R` works on row tuples with modes and builds no tableau or
pair. `product_tableau` builds the product by row insertion instead,
through `tableaux.insert_word`, the one checked entry into row insertion;
it is the tests' oracle for the step.
"""

from bisect import bisect_left
from functools import lru_cache
from operator import le, lt

from kssbij import kernels
from kssbij.tableaux import Tableau, insert_word, row_word

# Entries kept by `_sweep_step`, the one cache behind R and H. Each `verify`
# suite walks its finite family in order, so a cache smaller than the working
# set evicts each entry before it comes round again. The count passes of
# `BENCH_33.json` (`suite_times`) give the sizes: `verify` at its defaults
# touches 545 distinct moves, which fit, so each misses once; at --max-n 3
# the working set outgrows the cache and the step misses 48,476 times.
# The bound keeps memory flat where moves rarely repeat, as in carrier sweeps
# over random paths. 1,536 entries hold about the bytes that two caches of
# 1,024 held, one of full steps and one of the energies alone of the sweeps'
# last moves, which R and H used before: BENCH_33's `phi_energy` layer reads
# what one pass over perfbench's path-to-rc inputs leaves allocated.
# In the benchmark it is rc-to-path's untimed check (`RcToPath._phi` calls
# `phi_energy`) that fills this cache, so the number of entries moves that
# workload's peak_rss_mb. verify-default fits at any size of at least 545,
# and path-to-rc (box addition) never reaches the cache. The `led`, `bbs`,
# `energy` and `rmatrix` verbs use it too.
CACHE_SIZE = 1536


class TensorPair:
    """Ordered pair left (x) right of rectangular tableaux over one alphabet."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.rank_n != right.rank_n:
            raise ValueError("factors use different alphabets")
        if not left.is_rectangular() or not right.is_rectangular():
            raise ValueError("factors must be rectangular")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPair is immutable")

    @property
    def rank_n(self):
        return self.left.rank_n

    def __eq__(self, other):
        if not isinstance(other, TensorPair):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return "TensorPair(%r, %r)" % (self.left, self.right)


def product_tableau(p):
    """(right <- row(left)), by row insertion (`tableaux.insert_word`): the
    tests' oracle for the step, which builds the same product by column
    insertion."""
    return insert_word(p.right, row_word(p.left))


def _excess(lengths, r, s, rp, sp):
    # cells of a product tableau with these row lengths outside the
    # coordinate-wise sum of the rectangular shapes (s^r) and (sp^rp)
    h = 0
    for i, w in enumerate(lengths):
        cap = (s if i < r else 0) + (sp if i < rp else 0)
        if w > cap:
            h += w - cap
    return h


def _product(u, b):
    # the product pass of a move u (x) b, both non-empty: column-insert the
    # columns of b right to left, each top letter first, into the columns of
    # u. Returns (cols, lengths, (H_1, ..., H_beta)): the columns and row
    # lengths of the last product (b <- row(u)), and H_k read off the row
    # lengths once the k-th column is in.
    a, l = len(u), len(u[0])
    rb, beta = len(b), len(b[0])
    cols = [list(col) for col in zip(*u)]
    lengths = [l] * a
    energies = []
    for k in range(1, beta + 1):
        for row in b:
            # x bumps the smallest entry >= x of each column in turn
            x = row[-k]
            for col in cols:
                i = bisect_left(col, x)
                if i == len(col):
                    col.append(x)
                    break
                x, col[i] = col[i], x
            else:
                cols.append([x])
                i = 0
            if i == len(lengths):
                lengths.append(1)
            else:
                lengths[i] += 1
        energies.append(_excess(lengths, a, l, rb, k))
    return cols, lengths, tuple(energies)


def _peel(rows, r, s, rp, sp):
    # the R image (left', right') of a pair left (x) right of shapes (s^r)
    # and (sp^rp) whose product tableau is rows (lists, consumed), as row
    # tuples. Peels sp vertical strips of rp cells off the cells outside the
    # (s^r) rectangle, each as high as possible: rows top to bottom, at most
    # one cell per row, its last. Undoing the insertions of a strip's cells
    # bottom to top ejects a column of left', top letter first; the strips
    # give its columns right to left. A row's available cells are always the
    # columns caps[i] .. ends[i] - 1. Cells left outside the rectangle after
    # the last strip leave rows that fail the shape check.
    caps = [s if i < r else 0 for i in range(len(rows))]
    ends = [len(row) for row in rows]
    last = len(ends) - 1
    cols = []
    for _ in range(sp):
        strip = []
        for i, cap in enumerate(caps):
            if ends[i] > cap:
                ends[i] -= 1
                strip.append(i)
                if len(strip) == rp:
                    break
        else:
            raise AssertionError("malformed complement")
        # each cell is ejected after those below it, when row i + 1 has
        # ends[i + 1] cells and row i has ends[i] + 1
        for i in strip:
            if i < last and ends[i + 1] > ends[i]:
                raise AssertionError("strip cell is not a corner")
        col = kernels.eject_strip(rows, strip)
        # left' is the row insertion of its column word, the ejected letters
        # in reverse, exactly when it is semistandard: each column strictly
        # increasing and weakly below the column to its right
        if not all(map(lt, col, col[1:])) or cols and not all(map(le, col, cols[-1])):
            raise AssertionError("R image left factor is not semistandard")
        cols.append(col)
    if [len(row) for row in rows] != [s] * r:
        raise AssertionError("R image has wrong shapes")
    return tuple(zip(*reversed(cols))), tuple(map(tuple, rows))


@lru_cache(maxsize=CACHE_SIZE)
def _sweep_step(u, b):
    """One carrier move u (x) b -> b' (x) u' on row tuples.

    Returns (b', u', (H_1, ..., H_beta)) with H_k = H(u (x) prefix_k), where
    prefix_k is the rightmost k columns of b; so b' (x) u' is the R image and
    H_beta = H(u (x) b). The product (prefix_k <- row(u)) is
    P(col(prefix_k) row(u)), so one pass, `_product`, gives them all; its
    last product is (b <- row(u)), which is peeled for R. When either factor
    is empty, R is the flip and H = 0: the result is (b, u, (0,)).
    """
    if not u or not b:
        return b, u, (0,)
    cols, lengths, energies = _product(u, b)
    rows = [[col[i] for col in cols[:w]] for i, w in enumerate(lengths)]
    b_new, u_new = _peel(rows, len(u), len(u[0]), len(b), len(b[0]))
    return b_new, u_new, energies


def apply_R(p):
    """The combinatorial R image of the pair, as a TensorPair."""
    left, right, _ = _sweep_step(p.left.rows, p.right.rows)
    n = p.rank_n
    return TensorPair(Tableau._trusted(n, left), Tableau._trusted(n, right))


def energy_H(p):
    """Number of product-tableau cells outside the sum of the two shapes."""
    return _sweep_step(p.left.rows, p.right.rows)[2][-1]


def apply_affine_R(x, y):
    """Affine R on (rows, mode) pairs: x (x) y -> y' (x) x'.

    x = (u, m) and y = (v, k) are row tuples of rectangular tableaux over one
    alphabet with integer modes. The rows of y' (x) x' are the R image of
    u (x) v, and the modes shift by h = H(u (x) v): y' has mode k - h and x'
    has mode m + h. Nothing is validated: the rows must come from valid
    tableaux.
    """
    (u, m), (v, k) = x, y
    v_new, u_new, hs = _sweep_step(u, v)
    h = hs[-1]
    return (v_new, k - h), (u_new, m + h)
