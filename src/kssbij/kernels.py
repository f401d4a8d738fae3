"""Row and column insertion primitives on plain list-of-lists tableaux.

The single insertion module behind tableaux and the combinatorial R. `bump`,
`insert_word` and `inverse_bump` act on a tableau stored as its rows (weakly
increasing, lengths weakly decreasing); `col_bump` acts on one stored as its
columns (strictly increasing, lengths weakly decreasing). All functions
mutate their tableau in place.

The memoized step of `rmatrix`, behind every R and H, uses two of them:
`col_bump` builds its product tableaux and `inverse_bump` peels the R image
off. Row insertion (`bump`, `insert_word`) serves only the tableau API of
`tableaux` and the row-insertion oracle `rmatrix.product_tableau`.
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


def col_bump(cols, x):
    """Column insertion of letter x into a tableau stored as its columns.

    x bumps the smallest entry >= x of each column in turn. Column-inserting
    a word right to left gives the tableau that row-inserting it left to
    right does. Returns (row, col) of the new cell, 0-based.
    """
    for j, col in enumerate(cols):
        i = bisect_left(col, x)
        if i == len(col):
            col.append(x)
            return i, j
        x, col[i] = col[i], x
    cols.append([x])
    return 0, len(cols) - 1


def insert_word(rows, letters):
    """Insert letters left to right."""
    for x in letters:
        bump(rows, x)


def inverse_bump(rows, i):
    """Undo the insertion that created the last cell of row i. Returns the ejected letter.

    The cell must be a removable corner: row i+1 (if any) must be strictly
    shorter than row i.
    """
    x = rows[i].pop()
    if not rows[i]:
        del rows[i]
    while i > 0:
        i -= 1
        row = rows[i]
        # rightmost entry strictly smaller than x
        j = bisect_left(row, x) - 1
        x, row[j] = row[j], x
    return x
