"""Combinatorial R-matrix and energy function on tensor pairs of rectangular tableaux.

The R image of b (x) b' is the unique pair bt' (x) bt with
(b' <- row(b)) = (bt <- row(bt')); it is computed by peeling vertical strips
off the product tableau: undoing the insertions of each strip's cells ejects
one column of bt'.

R and H are pure functions of the two factors' rows, so they are computed
on row tuples by one memoized step, `_sweep_step` (an LRU cache of
CACHE_SIZE entries, sized below). It builds the product of u and b by column
insertion, which gives H of u against every column prefix of b on the way
and R from the last product. It serves every caller: the carrier sweeps of
`evolution` use every prefix energy, and hand it carriers cut down to as
many leading vacuum columns as b is wide, so sweeps at every carrier width
share entries; `apply_R`, `energy_H` and `apply_affine_R` use R and the
last energy. `apply_R` wraps the cached image
in tableaux without re-validating its rows: they come from factors that were
checked when they were built. `apply_affine_R` works on row tuples with
modes and builds no tableau or pair.
The step uses two kernels, `kernels.col_bump` to build the product and
`kernels.inverse_bump` to peel it. `product_tableau` builds the product by
row insertion instead; it is the tests' oracle for the step.
"""

from functools import lru_cache

from kssbij import kernels
from kssbij.tableaux import Tableau

# Entries kept by the one step cache behind R and H. Each `verify` suite walks
# its finite family in order, so a cache smaller than the working set evicts
# each step before it comes round again. `verify` at its defaults touches 557
# distinct steps, which 1024 holds (4,803 misses at 256, 557 at 1024); at
# --max-n 3 it touches 5,820, and misses fall from 236,537 to 82,390. An entry
# costs about 0.7-0.8 KB, and the bound keeps memory flat on workloads whose
# pairs rarely repeat (carrier sweeps over random paths): 2048 added 1.4 MB
# (+6.6%) to the peak RSS of the rc-to-path benchmark.
CACHE_SIZE = 1024


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
    """(right <- row(left))."""
    rows = [list(row) for row in p.right.rows]
    kernels.insert_word(rows, [x for row in reversed(p.left.rows) for x in row])
    return Tableau(p.rank_n, rows)


def _excess(lengths, r, s, rp, sp):
    # cells of a product tableau with these row lengths outside the
    # coordinate-wise sum of the rectangular shapes (s^r) and (sp^rp)
    h = 0
    for i, w in enumerate(lengths):
        cap = (s if i < r else 0) + (sp if i < rp else 0)
        if w > cap:
            h += w - cap
    return h


def _peel(rows, r, s, rp, sp):
    # the R image (left', right') of a pair left (x) right of shapes (s^r)
    # and (sp^rp) whose product tableau is rows (lists, consumed), as row
    # tuples. Peels sp vertical strips of rp cells off the cells outside the
    # (s^r) rectangle, each as high as possible: rows top to bottom, at most
    # one cell per row, its last. Undoing the insertions of a strip's cells
    # bottom to top ejects a column of left', top letter first; the strips
    # give its columns right to left. A row's available cells are always the
    # columns caps[i] .. ends[i] - 1.
    caps = [s if i < r else 0 for i in range(len(rows))]
    ends = [len(row) for row in rows]
    cols = []
    for _ in range(sp):
        strip = []
        for i, cap in enumerate(caps):
            if len(strip) == rp:
                break
            if ends[i] > cap:
                ends[i] -= 1
                strip.append(i)
        if len(strip) != rp:
            raise AssertionError("malformed complement")
        col = []
        for i in reversed(strip):
            if ends[i] != len(rows[i]) - 1:
                raise AssertionError("strip cell is not a corner")
            col.append(kernels.inverse_bump(rows, i))
        cols.append(col)
    if any(end > cap for end, cap in zip(ends, caps)):
        raise AssertionError("malformed complement")
    if [len(row) for row in rows] != [s] * r:
        raise AssertionError("R image has wrong shapes")
    # left' is the row insertion of its column word, the ejected letters in
    # reverse, exactly when it is semistandard
    left = tuple(zip(*reversed(cols)))
    for i, row in enumerate(left):
        if list(row) != sorted(row) or i and any(x >= y for x, y in zip(left[i - 1], row)):
            raise AssertionError("R image left factor is not semistandard")
    return left, tuple(map(tuple, rows))


@lru_cache(maxsize=CACHE_SIZE)
def _sweep_step(u, b):
    """One carrier move u (x) b -> b' (x) u' on row tuples.

    Returns (b', u', (H_1, ..., H_beta)) with H_k = H(u (x) prefix_k), where
    prefix_k is the rightmost k columns of b; so b' (x) u' is the R image and
    H_beta = H(u (x) b). The product (prefix_k <- row(u)) is
    P(col(prefix_k) row(u)), so one pass gives them all: start from the
    columns of u and column-insert the columns of b right to left, each top
    letter first; after the k-th column read H_k off the row lengths. The
    last product is (b <- row(u)), which is peeled for R. When either factor
    is empty, R is the flip and H = 0: the result is (b, u, (0,)).
    """
    if not u or not b:
        return b, u, (0,)
    a, l = len(u), len(u[0])
    rb, beta = len(b), len(b[0])
    cols = [list(col) for col in zip(*u)]
    lengths = [l] * a  # row lengths of the product
    energies = []
    for k in range(1, beta + 1):
        for row in b:
            i, _ = kernels.col_bump(cols, row[-k])
            if i == len(lengths):
                lengths.append(1)
            else:
                lengths[i] += 1
        energies.append(_excess(lengths, a, l, rb, k))
    rows = [[col[i] for col in cols[:w]] for i, w in enumerate(lengths)]
    b_new, u_new = _peel(rows, a, l, rb, beta)
    return b_new, u_new, tuple(energies)


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
