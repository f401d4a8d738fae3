"""Combinatorial R-matrix and energy function on tensor pairs of rectangular tableaux.

The R image of b (x) b' is the unique pair bt' (x) bt with
(b' <- row(b)) = (bt <- row(bt')); it is computed by peeling vertical strips
off the product tableau and undoing their insertions.
"""

from kssbij import kernels
from kssbij.tableaux import Cell, Tableau, empty_tableau, insert_word, row_word


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


def _product_rows(p):
    # (right <- row(left)) as lists; the letters of left are already checked
    # against the alphabet that right shares
    rows = p.right.to_lists()
    kernels.insert_word(rows, row_word(p.left))
    return rows


def product_tableau(p):
    """(right <- row(left))."""
    return Tableau(p.rank_n, _product_rows(p))


def _sum_shape(p):
    # coordinate-wise sum of the two rectangular shapes
    r, s = p.left.n_rows, p.left.width()
    rp, sp = p.right.n_rows, p.right.width()
    return tuple(
        (s if i < r else 0) + (sp if i < rp else 0) for i in range(max(r, rp))
    )


def energy_H(p):
    """Number of product-tableau cells outside the sum of the two shapes."""
    bound = _sum_shape(p)
    h = 0
    for i, row in enumerate(_product_rows(p)):
        cap = bound[i] if i < len(bound) else 0
        if len(row) > cap:
            h += len(row) - cap
    return h


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


def apply_R(p):
    """The combinatorial R image of the pair, as a TensorPair."""
    r, s = p.left.n_rows, p.left.width()
    rp, sp = p.right.n_rows, p.right.width()
    if r == 0 or rp == 0:
        # empty factor: R is the flip
        return TensorPair(p.right, p.left)
    rows = _product_rows(p)
    order = _peel_strips([len(row) for row in rows], r, s, rp, sp)
    ejected = []
    for i, j in order:
        if j != len(rows[i]) - 1:
            raise AssertionError("strip cell is not a corner")
        ejected.append(kernels.inverse_bump(rows, i))
    left_new = insert_word(empty_tableau(p.rank_n), list(reversed(ejected)))
    right_new = Tableau(p.rank_n, rows)
    if left_new.shape != p.right.shape or right_new.shape != p.left.shape:
        raise AssertionError("R image has wrong shapes")
    return TensorPair(left_new, right_new)


def apply_affine_R(x, y):
    """Affine R: modes shift by the energy of the classical pair."""
    pair = TensorPair(x.tableau, y.tableau)
    h = energy_H(pair)
    image = apply_R(pair)
    return (
        AffineElement(image.left, y.mode - h),
        AffineElement(image.right, x.mode + h),
    )
