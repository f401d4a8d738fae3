"""Row insertion primitives on plain list-of-lists tableaux.

`bump`, `insert_word`, `eject_strip` and `inverse_bump` act on a tableau
stored as its rows (weakly increasing, lengths weakly decreasing) and
mutate it in place.

The memoized step of `rmatrix`, behind every R and H, builds its products
by a column insertion written inline and peels the R image off with one
`eject_strip` per vertical strip. Row insertion (`bump`, `insert_word`) and
`inverse_bump`, a one-cell `eject_strip`, serve only the tableau API of
`tableaux`, which checks every letter and cell before they run; the
row-insertion oracle `rmatrix.product_tableau` goes through
`tableaux.insert_word` too.
"""

from bisect import bisect_right, bisect_left


def bump(rows, x):
    """Schensted row insertion of letter x. Returns (row, col) of the new cell, 0-based."""
    i = 0
    while i < len(rows):
        row = rows[i]
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            return i, len(row) - 1
        x, row[j] = row[j], x
        i += 1
    rows.append([x])
    return len(rows) - 1, 0


def insert_word(rows, letters):
    """Insert letters left to right."""
    for x in letters:
        bump(rows, x)


def eject_strip(rows, strip):
    """Undo the insertions that created the last cells of the rows in strip.

    strip lists row indices top to bottom. The cells are ejected bottom to
    top, and each must be a removable corner when its turn comes: the row
    below it (if any) strictly shorter. Returns the ejected letters in that
    order.
    """
    out = []
    for i in reversed(strip):
        x = rows[i].pop()
        if not rows[i]:
            del rows[i]
        while i > 0:
            i -= 1
            row = rows[i]
            # rightmost entry strictly smaller than x
            j = bisect_left(row, x) - 1
            x, row[j] = row[j], x
        out.append(x)
    return out


def inverse_bump(rows, i):
    """Undo the insertion that created the last cell of row i. Returns the ejected letter.

    The cell must be a removable corner: row i+1 (if any) must be strictly
    shorter than row i.
    """
    return eject_strip(rows, (i,))[0]
