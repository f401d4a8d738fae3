"""Checkers that judge the program's outputs without calling the code under test.

Everything here works on plain JSON data (paths as factor rows, rigged
configurations as nu / mu lists) and is written from the definitions in
Kirillov-Schilling-Shimozono (Selecta Math. 8, 2002):

- the vacancy number p_l^(a) of a configuration over a path's factor shapes;
- the weight identity |mu^(a)| = #{letters > a} - sum_j s_j max(r_j - a, 0);
- the lattice-word (highest-weight) test on a path;
- |B^{r,s}| by the hook-content formula, and from it the case count of every
  `verify` suite at given bounds.

Each function returns a list of problems; an empty list means the check holds.
"""

from itertools import product


def shapes_of(factors):
    """Per-factor (rows, columns) of a path given as factor rows."""
    return [(len(rows), len(rows[0])) for rows in factors]


def vacancy(shapes, lengths, a, l):
    """p_l^(a) = sum_j min(l, s_j)[r_j = a] + Q_l^(a-1) - 2 Q_l^(a) + Q_l^(a+1).

    shapes: factor (r_j, s_j) pairs; lengths[a-1]: the row lengths of mu^(a).
    """
    n = len(lengths)

    def q(b):
        if b < 1 or b > n:
            return 0
        return sum(min(l, m) for m in lengths[b - 1])

    base = sum(min(l, s) for r, s in shapes if r == a)
    return base + q(a - 1) - 2 * q(a) + q(a + 1)


def row_lengths(mu):
    """mu as JSON levels ({"rows": [[length, rigging], ...]}) to row lengths per level."""
    return [[m for m, _ in level["rows"]] for level in mu]


def canonical_rc(nu, mu):
    """Ordered quantum space plus per-level multisets of (length, rigging)."""
    return (
        tuple(tuple(level) for level in nu),
        tuple(tuple(sorted((m, r) for m, r in level["rows"])) for level in mu),
    )


def check_nu(factors, n, nu, origins):
    """nu^(a-1) lists the widths of the B^{a,s} factors in path order, and
    origins (when given) name those factors."""
    want_nu = [[] for _ in range(n)]
    want_origins = [[] for _ in range(n)]
    for j, (r, s) in enumerate(shapes_of(factors), start=1):
        if r > n:
            return ["factor %d has %d rows, more than rank %d" % (j, r, n)]
        want_nu[r - 1].append(s)
        want_origins[r - 1].append(j)
    problems = []
    if [list(level) for level in nu] != want_nu:
        problems.append("nu %r does not match factor shapes %r" % (nu, want_nu))
    if origins is not None and [list(level) for level in origins] != want_origins:
        problems.append("origins %r do not match factor order %r" % (origins, want_origins))
    return problems


def check_weight(factors, n, mu):
    """|mu^(a)| = #{letters > a} - sum_j s_j max(r_j - a, 0) for a = 1..n."""
    letters = [x for rows in factors for row in rows for x in row]
    shapes = shapes_of(factors)
    problems = []
    for a in range(1, n + 1):
        size = sum(m for m, _ in mu[a - 1]["rows"])
        want = sum(1 for x in letters if x > a) - sum(s * max(r - a, 0) for r, s in shapes)
        if size != want:
            problems.append("|mu^(%d)| = %d, weight gives %d" % (a, size, want))
    return problems


def check_riggings(factors, mu):
    """Every rigging is at most the vacancy number of its row."""
    shapes = shapes_of(factors)
    lengths = row_lengths(mu)
    problems = []
    for a, level in enumerate(mu, start=1):
        for m, r in level["rows"]:
            p = vacancy(shapes, lengths, a, m)
            if r > p:
                problems.append("rigging %d above vacancy %d at level %d, length %d" % (r, p, a, m))
    return problems


def is_admissible(shapes, lengths):
    """All vacancy numbers p_l^(a) >= 0 (the highest-weight condition on mu)."""
    horizon = max([s for _, s in shapes] + [m for level in lengths for m in level] + [1])
    return all(
        vacancy(shapes, lengths, a, l) >= 0
        for a in range(1, len(lengths) + 1)
        for l in range(1, horizon + 1)
    )


def check_lattice(factors):
    """Highest-weight test: reading factors left to right, each factor's rows
    top to bottom and each row right to left, every prefix has at least as
    many letters i as letters i+1."""
    counts = {}
    pos = 0
    for rows in factors:
        for row in rows:
            for x in reversed(row):
                pos += 1
                counts[x] = counts.get(x, 0) + 1
                if x > 1 and counts[x] > counts.get(x - 1, 0):
                    return ["not a lattice word: letter %d at position %d" % (x, pos)]
    return []


def check_semistandard(factors, n):
    """Rectangular, rows weakly increasing, columns strictly, entries in 1..n+1."""
    for j, rows in enumerate(factors, start=1):
        if not rows or any(len(row) != len(rows[0]) or not row for row in rows):
            return ["factor %d is not a non-empty rectangle" % j]
        for i, row in enumerate(rows):
            for k, x in enumerate(row):
                if not 1 <= x <= n + 1:
                    return ["factor %d entry %d outside 1..%d" % (j, x, n + 1)]
                if k and row[k - 1] > x:
                    return ["factor %d row %d decreases" % (j, i + 1)]
                if i and rows[i - 1][k] >= x:
                    return ["factor %d column %d not strictly increasing" % (j, k + 1)]
    return []


def kr_count(r, s, n):
    """|B^{r,s}| over the letters 1..n+1: hook-content formula on the r x s rectangle."""
    num = 1
    den = 1
    for i in range(r):
        for j in range(s):
            num *= n + 1 + j - i
            den *= (r - i - 1) + (s - j - 1) + 1
    return num // den


def verify_case_counts(max_n, max_l, max_s):
    """Case count of each `verify` suite, from |B^{r,s}| and the suites' families:
    chains are all L-fold products of B^{1,1} (L <= max_l), pairs all products
    of two factors from the menu {B^{r,s}: r <= n, s <= max_s}."""
    counts = dict.fromkeys(
        [
            "yang-baxter",
            "involutivity",
            "energy-zero-highest",
            "energy-padding",
            "two-letter-reduction",
            "energy-equals-q",
            "round-trip",
            "removal-order",
            "evolution-linearization",
        ],
        0,
    )
    for n in range(1, max_n + 1):
        menu = [(r, s) for r in range(1, n + 1) for s in range(1, max_s + 1)]
        size = {shape: kr_count(shape[0], shape[1], n) for shape in menu}
        elements = sum(size.values())
        chains = {length: kr_count(1, 1, n) ** length for length in range(1, max_l + 1)}
        pairs = elements * elements
        family = sum(chains.values()) + pairs
        counts["yang-baxter"] += 2 * elements ** 3
        counts["involutivity"] += pairs
        counts["energy-zero-highest"] += len(menu) ** 2
        counts["energy-padding"] += elements * n * max_s
        for a, s in product(range(1, n), range(1, max_s + 1)):
            # s + 1 two-letter elements; (k, l) runs over k != a + 1, l <= max_l
            counts["two-letter-reduction"] += (s + 1) ** 2 + (s + 1) * (n - 1) * max_l
        # one case per level a and per l up to the total width plus one
        eq = sum(n * (length + 1) * c for length, c in chains.items())
        eq += sum(n * (s1 + s2 + 1) * size[(r1, s1)] * size[(r2, s2)]
                  for (r1, s1), (r2, s2) in product(menu, repeat=2))
        counts["energy-equals-q"] += eq
        counts["round-trip"] += family
        # one case per pair of quantum rows, on paths of two or three factors
        counts["removal-order"] += sum(
            c * length * (length - 1) // 2 for length, c in chains.items() if 2 <= length <= 3
        ) + pairs
        counts["evolution-linearization"] += family * n * max_l
    return counts


def check_verify_report(report, name, want_cases):
    """One suite of a `verify --format json` report: the expected count, no failures."""
    problems = []
    suites = report.get("suites", [])
    if [s.get("name") for s in suites] != [name]:
        return ["report lists suites %r, expected [%r]" % ([s.get("name") for s in suites], name)]
    suite = suites[0]
    if suite.get("cases") != want_cases:
        problems.append("%s ran %r cases, expected %d" % (name, suite.get("cases"), want_cases))
    if suite.get("failures"):
        problems.append("%s reported %d failures" % (name, len(suite["failures"])))
    return problems
