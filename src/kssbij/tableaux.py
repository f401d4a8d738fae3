"""Semistandard Young tableaux over {1..n+1}, row words, Schensted insertion.

Elements of the Kirillov-Reshetikhin crystal B^{r,s} are the rectangular
tableaux with r rows of length s. Cells are addressed (row, col), 1-based,
with col counted from the left.
"""

from collections import namedtuple

from kssbij import kernels
from kssbij.rigged import _integer

Cell = namedtuple("Cell", ["row", "col"])


class Tableau:
    """Immutable semistandard Young tableau.

    Args:
        rank_n: rank; the alphabet is {1, ..., rank_n + 1}.
        rows: iterable of weakly increasing integer rows, lengths weakly
            decreasing top to bottom. May be empty (the empty tableau).
    """

    __slots__ = ("rank_n", "rows")

    def __init__(self, rank_n, rows):
        rows = tuple(tuple(r) for r in rows)
        if type(rank_n) is not int or rank_n < 1:
            raise ValueError("rank_n must be an integer >= 1")
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row")
            if i > 0 and len(row) > len(rows[i - 1]):
                raise ValueError("row lengths must weakly decrease")
            for j, x in enumerate(row):
                # type(), not isinstance(): a bool is an int
                if type(x) is not int or not 1 <= x <= rank_n + 1:
                    raise ValueError(
                        "entry %r at row %d col %d outside alphabet 1..%d"
                        % (x, i + 1, j + 1, rank_n + 1)
                    )
                if j > 0 and row[j - 1] > x:
                    raise ValueError("row %d not weakly increasing" % (i + 1))
                if i > 0 and j < len(rows[i - 1]) and rows[i - 1][j] >= x:
                    raise ValueError("column %d not strictly increasing" % (j + 1))
        object.__setattr__(self, "rank_n", rank_n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rank_n, rows):
        """Internal constructor that skips validation; rows must be a tuple of
        tuples that is semistandard by construction. The library uses it
        where that holds: the R images of `rmatrix.apply_R`, the factors and
        carriers of the `evolution` sweeps (all from rows of tableaux that
        were already validated) and highest_element (rows of constant i).
        These are built on every R move and sweep, where a re-check would
        cost more than the move. Tableaux from user data, from insertion and
        from box removal go through the validating constructor."""
        t = object.__new__(cls)
        object.__setattr__(t, "rank_n", rank_n)
        object.__setattr__(t, "rows", rows)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    @property
    def n_rows(self):
        return len(self.rows)

    def width(self):
        return len(self.rows[0]) if self.rows else 0

    def is_rectangular(self):
        return len(set(map(len, self.rows))) <= 1

    def is_empty(self):
        return not self.rows

    def to_lists(self):
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return self.rank_n == other.rank_n and self.rows == other.rows

    def __hash__(self):
        return hash((self.rank_n, self.rows))

    def __repr__(self):
        if self.is_empty():
            return "Tableau(n=%d, empty)" % self.rank_n
        body = "|".join(" ".join(str(x) for x in r) for r in self.rows)
        return "Tableau(n=%d, %s)" % (self.rank_n, body)


def row_word(t):
    """Letters of t read row by row, bottom to top, each row left to right."""
    out = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def insert(t, x):
    """Schensted row insertion of one letter. Returns (new tableau, new cell)."""
    if not 1 <= x <= t.rank_n + 1:
        raise ValueError("letter %r outside alphabet 1..%d" % (x, t.rank_n + 1))
    rows = t.to_lists()
    i, j = kernels.bump(rows, x)
    return Tableau(t.rank_n, rows), Cell(i + 1, j + 1)


def insert_word(t, letters):
    """Insert letters left to right; (t <- xy) = ((t <- x) <- y)."""
    # one list, so that an iterator is both checked and inserted
    letters = list(letters)
    for x in letters:
        if not 1 <= x <= t.rank_n + 1:
            raise ValueError("letter %r outside alphabet 1..%d" % (x, t.rank_n + 1))
    rows = t.to_lists()
    kernels.insert_word(rows, letters)
    return Tableau(t.rank_n, rows)


def is_corner(t, cell):
    """True if cell is the last cell of its row and removable."""
    i, j = cell.row - 1, cell.col - 1
    if not (0 <= i < t.n_rows and j == len(t.rows[i]) - 1):
        return False
    if i + 1 < t.n_rows and len(t.rows[i + 1]) > j:
        return False
    return True


def inverse_insert(t, cell):
    """Exact inverse of insert: removes the given corner, returns (tableau, ejected letter)."""
    if not is_corner(t, cell):
        raise ValueError("not a corner: %r" % (cell,))
    rows = t.to_lists()
    x = kernels.inverse_bump(rows, cell.row - 1)
    return Tableau(t.rank_n, rows), x


def check_kr(a, l, rank_n):
    """Raises ValueError unless B^{a,l} exists over rank n: a and l ints
    (a bool or a float raises), 1 <= a <= rank_n and l >= 1. The sweeps check
    their carrier u_l^(a) with this, without building it."""
    if not 1 <= _integer(a, "level") <= rank_n:
        raise ValueError("need 1 <= a <= rank_n, got a=%d, rank_n=%d" % (a, rank_n))
    if _integer(l, "width") < 1:
        raise ValueError("width must be >= 1")


def highest_element(a, l, rank_n):
    """The element of B^{a,l} whose i-th row is filled with i."""
    check_kr(a, l, rank_n)
    return Tableau._trusted(rank_n, tuple((i,) * l for i in range(1, a + 1)))


def _fillings(shape, rank_n):
    # all semistandard fillings of the given shape, backtracking cell by cell
    rows = [[0] * w for w in shape]

    def fill(i, j):
        if i == len(shape):
            yield [list(r) for r in rows]
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for x in range(lo, rank_n + 2):
            rows[i][j] = x
            yield from fill(ni, nj)

    yield from fill(0, 0)


def enumerate_kr(r, s, rank_n):
    """Yields every element of B^{r,s} exactly once, ordered by row word.

    The order is lexicographic on row_word; the full set is materialized
    internally, which is fine at the intended small sizes. r and s are
    checked by check_kr.
    """
    check_kr(r, s, rank_n)
    found = [Tableau(rank_n, rows) for rows in _fillings((s,) * r, rank_n)]
    found.sort(key=row_word)
    yield from found
