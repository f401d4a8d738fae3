"""Row insertion primitives on plain list-of-lists tableaux.

The single insertion kernel behind tableaux and the combinatorial R. Rows
must be weakly increasing, lengths weakly decreasing. All functions mutate
`rows` in place.
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
