"""Combinatorial R-matrix and energy function on tensor pairs of rectangular tableaux.

The R image of b (x) b' is the unique pair bt' (x) bt with
(b' <- row(b)) = (bt <- row(bt')); it is computed by peeling vertical strips
off the product tableau and undoing their insertions.

R and H are pure functions of the two factors' rows, so both are computed on
row tuples and memoized, each in an LRU cache of CACHE_SIZE (256) entries;
the public functions wrap the cached results in tableaux. The R image is
built without re-validating its rows: they come from factors that were
checked when they were built.
"""

from functools import lru_cache

from kssbij import kernels
from kssbij.tableaux import Tableau

# Entries kept by each of the R and H caches. The bound keeps memory flat on
# workloads whose pairs rarely repeat (carrier sweeps over random paths).
CACHE_SIZE = 256


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


class AffineElement:
    """Tableau with an integer mode."""

    __slots__ = ("tableau", "mode")

    def __init__(self, tableau, mode):
        object.__setattr__(self, "tableau", tableau)
        object.__setattr__(self, "mode", int(mode))

    def __setattr__(self, name, value):
        raise AttributeError("AffineElement is immutable")

    def __eq__(self, other):
        if not isinstance(other, AffineElement):
            return NotImplemented
        return self.tableau == other.tableau and self.mode == other.mode

    def __hash__(self):
        return hash((self.tableau, self.mode))

    def __repr__(self):
        return "AffineElement(%r, mode=%d)" % (self.tableau, self.mode)


def _product_rows(left, right):
    # (right <- row(left)) as lists; the letters of left are already checked
    # against the alphabet that right shares
    rows = [list(row) for row in right]
    kernels.insert_word(rows, [x for row in reversed(left) for x in row])
    return rows


def product_tableau(p):
    """(right <- row(left))."""
    return Tableau(p.rank_n, _product_rows(p.left.rows, p.right.rows))


@lru_cache(maxsize=CACHE_SIZE)
def _energy(left, right):
    # cells of the product tableau outside the coordinate-wise sum of the
    # two rectangular shapes
    r, s = len(left), len(left[0]) if left else 0
    rp, sp = len(right), len(right[0]) if right else 0
    h = 0
    for i, row in enumerate(_product_rows(left, right)):
        cap = (s if i < r else 0) + (sp if i < rp else 0)
        if len(row) > cap:
            h += len(row) - cap
    return h


def energy_H(p):
    """Number of product-tableau cells outside the sum of the two shapes."""
    return _energy(p.left.rows, p.right.rows)


def _peel_strips(shape, r, s, r_strip, n_strips):
    """Label the cells outside the upper-left (s^r) rectangle.

    Peels n_strips vertical strips of r_strip cells each, always as high as
    possible: scan rows top to bottom, take at most one available cell per
    row, in the rightmost available column. Returns cells in label order
    (each strip numbered bottom to top), 0-based (row, col).
    """
    remaining = []
    for i, w in enumerate(shape):
        cap = s if i < r else 0
        remaining.append(set(range(cap, w)))
    order = []
    for _ in range(n_strips):
        strip = []
        for i in range(len(shape)):
            if len(strip) == r_strip:
                break
            if remaining[i]:
                j = max(remaining[i])
                remaining[i].remove(j)
                strip.append((i, j))
        if len(strip) != r_strip:
            raise AssertionError("malformed complement")
        order.extend(reversed(strip))
    if any(remaining[i] for i in range(len(shape))):
        raise AssertionError("malformed complement")
    return order


@lru_cache(maxsize=CACHE_SIZE)
def _image(left, right):
    # the R image (left', right') of left (x) right, all rows as tuples
    if not left or not right:
        # empty factor: R is the flip
        return right, left
    r, s = len(left), len(left[0])
    rp, sp = len(right), len(right[0])
    rows = _product_rows(left, right)
    order = _peel_strips([len(row) for row in rows], r, s, rp, sp)
    ejected = []
    for i, j in order:
        if j != len(rows[i]) - 1:
            raise AssertionError("strip cell is not a corner")
        ejected.append(kernels.inverse_bump(rows, i))
    left_new = []
    kernels.insert_word(left_new, reversed(ejected))
    if [len(row) for row in left_new] != [sp] * rp or [len(row) for row in rows] != [s] * r:
        raise AssertionError("R image has wrong shapes")
    return tuple(map(tuple, left_new)), tuple(map(tuple, rows))


def apply_R(p):
    """The combinatorial R image of the pair, as a TensorPair."""
    left, right = _image(p.left.rows, p.right.rows)
    n = p.rank_n
    return TensorPair(Tableau._trusted(n, left), Tableau._trusted(n, right))


def apply_affine_R(x, y):
    """Affine R: modes shift by the energy of the classical pair."""
    pair = TensorPair(x.tableau, y.tableau)
    left, right = pair.left.rows, pair.right.rows
    h = _energy(left, right)
    left_new, right_new = _image(left, right)
    n = pair.rank_n
    return (
        AffineElement(Tableau._trusted(n, left_new), y.mode - h),
        AffineElement(Tableau._trusted(n, right_new), x.mode + h),
    )
