"""Semistandard Young tableaux over {1..n+1}, row words, Schensted insertion.

Elements of the Kirillov-Reshetikhin crystal B^{r,s} are the rectangular
tableaux with r rows of length s. Cells are addressed (row, col), 1-based,
with col counted from the left.
"""

from functools import lru_cache

from kssbij import kernels
from kssbij.rigged import _integer, check_rank


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
        check_rank(rank_n)
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
        were already validated), highest_element (rows of constant i),
        enumerate_kr (`_fillings` bounds each letter by its neighbours below
        and to the left) and the factors of box removal (`kss._remove_row`
        checks each letter against its neighbours as it places it). These
        are built on every R move, sweep, enumerated element and removed
        row, where a re-check would cost more than the work. Tableaux from
        user data and from insertion go through the validating
        constructor."""
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


def _letter(t, x):
    # the letter check of row insertion: an int (a bool or a float raises)
    # in t's alphabet
    if not 1 <= _integer(x, "letter") <= t.rank_n + 1:
        raise ValueError("letter %r outside alphabet 1..%d" % (x, t.rank_n + 1))
    return x


def insert(t, x):
    """Schensted row insertion of one letter. Returns (new tableau, (row, col)),
    the new cell, 1-based."""
    rows = t.to_lists()
    i, j = kernels.bump(rows, _letter(t, x))
    return Tableau(t.rank_n, rows), (i + 1, j + 1)


def insert_word(t, letters):
    """Insert letters left to right; (t <- xy) = ((t <- x) <- y). Every
    letter is checked before any is inserted."""
    letters = [_letter(t, x) for x in letters]
    rows = t.to_lists()
    kernels.insert_word(rows, letters)
    return Tableau(t.rank_n, rows)


def inverse_insert(t, cell):
    """Exact inverse of insert: removes the corner cell = (row, col), 1-based,
    and returns (tableau, ejected letter).

    cell must be a pair of ints (anything else, a bool or a float too, raises
    ValueError), and the last cell of its row, with the row below it (if
    any) shorter.
    """
    try:
        row, col = cell
    except (TypeError, ValueError):
        raise ValueError("cell %r is not a (row, col) pair" % (cell,)) from None
    i, j = _integer(row, "row") - 1, _integer(col, "col") - 1
    if not (
        0 <= i < t.n_rows
        and j == len(t.rows[i]) - 1
        and (i + 1 == t.n_rows or len(t.rows[i + 1]) <= j)
    ):
        raise ValueError("not a corner: %r" % (cell,))
    rows = t.to_lists()
    x = kernels.inverse_bump(rows, i)
    return Tableau(t.rank_n, rows), x


def check_kr(a, l, rank_n):
    """Raises ValueError unless B^{a,l} exists over rank n: a and l ints
    (a bool or a float raises), 1 <= a <= rank_n and l >= 1. The sweeps check
    their carrier u_l^(a) with this, without building it."""
    if not 1 <= _integer(a, "level") <= rank_n:
        raise ValueError("rows must be in 1..%d (got %d)" % (rank_n, a))
    if _integer(l, "width") < 1:
        raise ValueError("width must be >= 1")


# The one builder of constant rows: the highest element's, and the sweeps'
# spare columns V and A (`evolution._sweep_rows`). An entry of level a holds
# a rows and a rank-n path reaches n levels, so an unbounded cache would grow
# as n^2: the LED of the one-box path 2001 at n = 2000 peaked at 290 MB with
# one, and at 279 MB with this bound.
@lru_cache(maxsize=256)
def _constant_rows(first, a, l):
    # the rows (first,) * l, ..., (first + a - 1,) * l
    return tuple([(i,) * l for i in range(first, first + a)])


def highest_element(a, l, rank_n):
    """The element of B^{a,l} whose i-th row is filled with i."""
    check_rank(rank_n)
    check_kr(a, l, rank_n)
    return Tableau._trusted(rank_n, _constant_rows(1, a, l))


def _fillings(r, s, rank_n):
    # the semistandard fillings of the r x s rectangle in row-word order, by
    # backtracking cell by cell as row_word reads them (rows bottom to top,
    # each left to right) on an explicit cell index, so any size stays within
    # Python's recursion limit. A cell of row i (from 0) holds at least its
    # left neighbour and i + 1, and less than the cell below it, so no
    # partial filling is a dead end. A cell holds 0 until it is first
    # filled, and goes back to 0 when its letters run out.
    cells = [(i, j) for i in range(r - 1, -1, -1) for j in range(s)]
    rows = [[0] * s for _ in range(r)]
    k = 0
    while k >= 0:
        if k == len(cells):
            yield tuple(map(tuple, rows))
            k -= 1
            continue
        i, j = cells[k]
        x = rows[i][j] + 1
        if x == 1:
            x = rows[i][j - 1] if j else i + 1
        if x > (rows[i + 1][j] - 1 if i + 1 < r else rank_n + 1):
            rows[i][j] = 0
            k -= 1
        else:
            rows[i][j] = x
            k += 1


def enumerate_kr(r, s, rank_n):
    """Yields every element of B^{r,s} exactly once, ordered by row word.

    The order is lexicographic on row_word, and each element is yielded as
    soon as it is found. r and s are checked by check_kr, after the rank by
    check_rank.
    """
    check_rank(rank_n)
    check_kr(r, s, rank_n)
    # valid by construction: _fillings gives only semistandard fillings
    for rows in _fillings(r, s, rank_n):
        yield Tableau._trusted(rank_n, rows)
