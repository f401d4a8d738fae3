"""Invariant checks, each run on a family given as data.

Each check_* returns (cases, failure descriptions). Yang-Baxter takes an
element pool and mode triples, the checks that need phi of a path take a
`Family` (and items drawn from it), and the others take an iterable. `verify`
binds each to its families in SUITES: for every rank n up to the bound,
elements (every element of the shape menu r <= n, s <= max_s), chains (paths
in B^{1,1} tensored L times, L <= max_l) and pairs (two-factor paths over the
shape menu). Criteria 5-10 of the acceptance gate run the same checks on its
families A and B:

  check_yang_baxter           (elements, mode triples); verify: elements;
                              gate, rmatrix tests: the n = 2 pool of shapes
                              (1,1), (1,2), (2,1)
  check_involutivity          verify: pairs of elements
  check_swapping_pairs        verify: highest pairs, highest u past two-letter
                              v; gate: highest pairs with r, s <= 3, n = 3
  check_energy_padding        verify: single factors; gate: A and B
  check_two_letter_reduction  verify: widths s = s'; gate: widths s, s' <= 3
  check_energy_equals_q, check_round_trip, check_linearization
                              verify: chains and pairs; gate: A and B
  check_energy_formula        verify: chains and pairs
  check_removal_order         verify: 2-3 factors, i < j; gate: A and B, i != j

Failure messages name their input in the codec's JSON, so it can be fed back
to the CLI: a path to `led`, `phi` or `bbs`, a pair to `rmatrix` or `energy`.
Yang-Baxter names its mode triple and x (x) y (x) z as a path.

Yang-Baxter runs on interned affine elements; `check_yang_baxter`,
`_AffineTable` and `_Moves` say how. The checks that need phi of a path
read it from the `Family` they walk, which `family` keeps for one set of
bounds, so the phi suites of one `verify` share it; `Family` and `family`
say how.
"""

import time
from functools import lru_cache
from itertools import chain, combinations, product

from kssbij import kss
from kssbij.cli import codec
from kssbij.evolution import Path, _evolve, total_energy
from kssbij.kss import linearized_image, phi_inverse, removal_order_equivalence
from kssbij.rigged import q_l, validate
from kssbij.rmatrix import TensorPair, apply_R, apply_affine_R, energy_H
from kssbij.tableaux import Tableau, _constant_rows, enumerate_kr, highest_element

class Report:
    """Per-suite case and failure counts and wall times, plus the total time.

    results holds (name, cases, failures, elapsed seconds) per suite.
    """

    def __init__(self, results, elapsed):
        self.results = results
        self.elapsed = elapsed

    @property
    def total_cases(self):
        return sum(c for _, c, _, _ in self.results)

    @property
    def total_failures(self):
        return sum(len(f) for _, _, f, _ in self.results)

    @property
    def ok(self):
        return self.total_failures == 0

    def render(self):
        lines = []
        for name, cases, failures, elapsed in self.results:
            lines.append(
                "%-26s cases=%-7d failures=%-4d %.2fs"
                % (name, cases, len(failures), elapsed)
            )
            for msg in failures[:10]:
                lines.append("    %s" % msg)
            if len(failures) > 10:
                lines.append("    ... %d more" % (len(failures) - 10))
        lines.append(
            "total: %d cases, %d failures, %.2fs"
            % (self.total_cases, self.total_failures, self.elapsed)
        )
        return "\n".join(lines)

    def to_json(self):
        return {
            "suites": [
                {
                    "name": name,
                    "cases": cases,
                    "failures": failures,
                    "elapsed_seconds": round(elapsed, 3),
                }
                for name, cases, failures, elapsed in self.results
            ],
            "total_cases": self.total_cases,
            "total_failures": self.total_failures,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def shape_menu(n, max_s):
    return [(r, s) for r in range(1, n + 1) for s in range(1, max_s + 1)]


def elements(n, max_s):
    """Every element of the shape menu, shape by shape."""
    return [b for r, s in shape_menu(n, max_s) for b in enumerate_kr(r, s, n)]


def chain_paths(n, max_l):
    """All paths of 1..max_l single-box factors."""
    boxes = list(enumerate_kr(1, 1, n))
    for length in range(1, max_l + 1):
        for combo in product(boxes, repeat=length):
            yield Path(n, combo)


def pair_paths(n, max_s):
    """All two-factor paths over the shape menu."""
    menu = shape_menu(n, max_s)
    sets = {shape: list(enumerate_kr(shape[0], shape[1], n)) for shape in menu}
    for s1, s2 in product(menu, repeat=2):
        for b1, b2 in product(sets[s1], sets[s2]):
            yield Path(n, (b1, b2))


class Family:
    """The paths of a family and their phi. paths is a tuple with one object
    per tuple of factors, and index maps (rank, the factors' rows) to it (a
    path that is both a chain and a pair is one object in both places). The
    rank is part of the key: the rank-1 path 1 (x) 2 and the rank-2 path
    1 (x) 2 have the same rows.

    phi(p) is kss.phi_energy(p), kept in phis, so it is computed at most once
    per path while the Family lives. phis holds results of filled_by, the
    kss.phi_energy of the Family's construction. The function is looked up
    at each call, and one that is not filled_by empties phis first, so a
    tracer or a patch of kss.phi_energy sees every path that phis misses, and
    never a result of the function it replaced."""

    def __init__(self, paths):
        self.index = {}
        self.paths = tuple(
            self.index.setdefault((p.rank_n, tuple([b.rows for b in p.factors])), p)
            for p in paths
        )
        self.phis = {}
        self.filled_by = kss.phi_energy

    def phi(self, p):
        phi_energy = kss.phi_energy
        if phi_energy is not self.filled_by:
            self.phis.clear()
            self.filled_by = phi_energy
        rc = self.phis.get(p)
        if rc is None:
            rc = self.phis[p] = phi_energy(p)
        return rc


@lru_cache(maxsize=1)
def family(max_n, max_l, max_s):
    """The Family of the chains and pairs of every rank up to max_n, in a
    fixed order: per rank, `chain_paths` then `pair_paths`. One Family is
    kept for the process (a new set of bounds replaces it), so the phi
    suites share its paths and their phi."""
    return Family(
        p
        for n in range(1, max_n + 1)
        for p in chain(chain_paths(n, max_l), pair_paths(n, max_s))
    )


def highest_pairs(n, menu):
    """(u, v) for every ordered pair of shapes in menu, u and v highest."""
    for (r1, s1), (r2, s2) in product(menu, repeat=2):
        yield highest_element(r1, s1, n), highest_element(r2, s2, n)


def two_letter(n, a, s):
    """Elements of B^{a+1,s} whose top a rows are highest and whose bottom row
    uses only the letters a+1 and a+2."""
    top = _constant_rows(1, a, s)
    bottoms = ((a + 1,) * c + (a + 2,) * (s - c) for c in range(s, -1, -1))
    return [Tableau(n, top + (bottom,)) for bottom in bottoms]


def _bottom_row(v):
    # the bottom row of a two-letter element, re-read over {1, 2}
    a = v.n_rows - 1
    return Tableau(1, [[x - a for x in v.rows[-1]]])


def _path_json(p):
    return codec.dump(codec.encode_path(p)).rstrip()


def _pair_json(left, right):
    return codec.dump([codec.encode_tableau(left), codec.encode_tableau(right)]).rstrip()


def _stabilization_l(p):
    return sum(b.width() for b in p.factors) + 1


class _Moves(dict):
    """The affine R moves of one interned element x of a table: the id of y
    maps to (id of y', id of x') for x (x) y -> y' (x) x'. A missing entry is
    filled by one call of the module-global apply_affine_R."""

    __slots__ = ("x", "table")

    def __missing__(self, j):
        table = self.table
        y_new, x_new = apply_affine_R(self.x, table[j].x)
        image = self[j] = table.intern(y_new), table.intern(x_new)
        return image


class _AffineTable(list):
    """The affine R on interned elements, for one mode triple of the
    Yang-Baxter check: table[i] holds the moves (`_Moves`) of element i, and
    table[i][j] is (id of y', id of x') for the move of element i past
    element j. Elements are (rows, mode) pairs and get ids by value, modes
    included, so an entry is exact for any deterministic affine R."""

    __slots__ = ("ids",)

    def __init__(self):
        self.ids = {}

    def intern(self, element):
        # the id of an affine element: its index in the table, added if new
        i = self.ids.get(element)
        if i is None:
            i = self.ids[element] = len(self)
            moves = _Moves()
            moves.x, moves.table = element, self
            self.append(moves)
        return i


def check_yang_baxter(elements, modes):
    """The affine R satisfies the Yang-Baxter equation on each triple x (x) y (x) z:
    (R x 1)(1 x R)(R x 1) = (1 x R)(R x 1)(1 x R), for x, y and z each over
    the list of rank-n Tableaux elements and each mode triple; an affine
    element is a (rows, mode) pair. len(elements) ** 3 * len(modes) cases.

    Each mode triple has its own `_AffineTable`, which maps the ids of a pair
    x, y to the ids of the image y', x', computed by one apply_affine_R call
    the first time the pair is needed (5,312 calls over verify's default
    family, for 53,040 lookups). A case is then four table lookups and a
    comparison of ids. No table outlives its mode triple, so a patch of
    apply_affine_R between calls is always seen, and each table is emptied
    when its mode triple is done, so it is freed then and not left to the
    cycle collector. A failure names its modes and x (x) y (x) z as a
    path."""
    cases, failures = 0, []
    for mode in modes:
        table = _AffineTable()
        pools = xs, ys, zs = [[table.intern((b.rows, m)) for b in elements] for m in mode]
        cases += len(xs) * len(ys) * len(zs)
        # R(y (x) z) is shared across every x, R(x (x) y) across every z
        yz = [[table[y][z] for z in zs] for y in ys]
        for x in xs:
            x_moves = table[x]
            for y, y_z in zip(ys, yz):
                p, q = x_moves[y]
                p_moves, q_moves = table[p], table[q]
                for z, (e, f) in zip(zs, y_z):
                    b, c = q_moves[z]
                    a, b = p_moves[b]
                    d, e = x_moves[e]
                    e, f = table[e][f]
                    if a != d or b != e or c != f:
                        triple = [elements[ids.index(i)] for ids, i in zip(pools, (x, y, z))]
                        failures.append(
                            "yang-baxter mismatch at modes (%d, %d, %d) for %s"
                            % (*mode, _path_json(Path(triple[0].rank_n, triple)))
                        )
        # each _Moves points back at the table: break the cycle
        table.clear()
    return cases, failures


def check_involutivity(pairs):
    """R is an involution on each pair, and H is invariant under it."""
    cases, failures = 0, []
    for pair in pairs:
        cases += 1
        image = apply_R(pair)
        if apply_R(image) != pair:
            failures.append("R not involutive on %s" % _pair_json(pair.left, pair.right))
        elif energy_H(image) != energy_H(pair):
            failures.append("H changed under R on %s" % _pair_json(pair.left, pair.right))
    return cases, failures


def check_swapping_pairs(pairs):
    """H(u (x) v) = 0 and R(u (x) v) = v (x) u for each (u, v)."""
    cases, failures = 0, []
    for u, v in pairs:
        cases += 1
        pair = TensorPair(u, v)
        if energy_H(pair) != 0:
            failures.append("H != 0 on %s" % _pair_json(u, v))
        elif apply_R(pair) != TensorPair(v, u):
            failures.append("R does not swap %s" % _pair_json(u, v))
    return cases, failures


def check_energy_padding(items):
    """Padding a path with a highest u on either side keeps every E_l^(a),
    l up to stabilization + 1, and H(b (x) u) = 0 for every factor b.
    items: (path, pads), one case per pad u. A failure names the padded
    path whose E changed, or the pair b (x) u, with the path."""
    cases, failures = 0, []
    for p, pads in items:
        n = p.rank_n
        levels, horizon = range(1, n + 1), range(1, _stabilization_l(p) + 2)
        base = {(a, l): total_energy(p, a, l) for a in levels for l in horizon}
        for u in pads:
            cases += 1
            padded = Path(n, (u,) + p.factors), Path(n, p.factors + (u,))
            for (a, l), e in base.items():
                q = next((q for q in padded if total_energy(q, a, l) != e), None)
                if q is not None:
                    failures.append(
                        "padding changed E_%d^(%d) for %s, padded from %s"
                        % (l, a, _path_json(q), _path_json(p))
                    )
                    break
            else:
                b = next((b for b in p.factors if energy_H(TensorPair(b, u)) != 0), None)
                if b is not None:
                    failures.append(
                        "H(b (x) u) != 0 on %s, b a factor of %s"
                        % (_pair_json(b, u), _path_json(p))
                    )
    return cases, failures


def check_two_letter_reduction(pairs):
    """For two-letter v, w of one height, H(v (x) w) and R(v (x) w) reduce to
    the pair of their bottom rows; R moves w's top rows to the left factor and
    v's to the right one."""
    cases, failures = 0, []
    for v, w in pairs:
        cases += 1
        pair = TensorPair(v, w)
        small = TensorPair(_bottom_row(v), _bottom_row(w))
        if energy_H(pair) != energy_H(small):
            failures.append("H reduction failed on %s" % _pair_json(v, w))
            continue
        big, little = apply_R(pair), apply_R(small)
        if (
            _bottom_row(big.left) != little.left
            or _bottom_row(big.right) != little.right
            or big.left.rows[:-1] != w.rows[:-1]
            or big.right.rows[:-1] != v.rows[:-1]
        ):
            failures.append("R reduction failed on %s" % _pair_json(v, w))
    return cases, failures


def check_energy_equals_q(fam):
    """E_l^(a)(p) = Q_l^(a)(phi(p)) for every path p of the Family fam, every
    level a and l up to stabilization."""
    cases, failures = 0, []
    for p in fam.paths:
        rc = fam.phi(p)
        for a in range(1, p.rank_n + 1):
            for l in range(1, _stabilization_l(p) + 1):
                cases += 1
                if total_energy(p, a, l) != q_l(rc, a, l):
                    failures.append(
                        "E_%d^(%d) != Q_%d^(%d) for %s" % (l, a, l, a, _path_json(p))
                    )
    return cases, failures


def check_energy_formula(fam):
    """The paper's main theorem: for every path p of the Family fam, phi(p)
    read from fam (kss.phi_energy, the paper's construction) equals
    kss.phi(p), KSS's box addition, in nu, in mu with its row order and in
    origins. A failure names the first field that differs, and p."""
    cases, failures = 0, []
    for p in fam.paths:
        cases += 1
        energy, boxes = fam.phi(p), kss.phi(p)
        for field in ("nu", "mu", "origins"):
            if getattr(energy, field) != getattr(boxes, field):
                failures.append(
                    "phi_energy and box addition differ in %s for %s" % (field, _path_json(p))
                )
                break
    return cases, failures


def check_round_trip(fam):
    """phi_inverse(phi(p)) = p for every path p of the Family fam, and phi is
    injective on it. phi_inverse validates phi(p) first; its ValueError is a
    failure."""
    cases, failures = 0, []
    seen = {}
    for p in fam.paths:
        cases += 1
        rc = fam.phi(p)
        try:
            back = phi_inverse(rc)
        except ValueError as exc:
            failures.append("phi_inverse rejected phi(%s): %s" % (_path_json(p), exc))
            continue
        # the fields, not Path.__eq__: one Python call fewer per case
        if (back.rank_n, back.factors) != (p.rank_n, p.factors):
            failures.append("round trip failed for %s" % _path_json(p))
            continue
        # configurations compare by rank, quantum space and riggings, which
        # with the origins fix every factor's shape; the paths of a Family
        # are distinct objects with distinct factors
        first = seen.setdefault((rc.origins, rc), p)
        if first is not p:
            failures.append(
                "phi not injective: %s and %s collide" % (_path_json(first), _path_json(p))
            )
    return cases, failures


def check_removal_order(fam, items):
    """Removing quantum rows i and j of phi(p) in either order gives factor
    pairs related by R. items: (path, i, j), phi read from the Family fam.
    The equivalence validates phi(p) first; its ValueError is a failure."""
    cases, failures = 0, []
    for p, i, j in items:
        cases += 1
        rc = fam.phi(p)
        try:
            if removal_order_equivalence(rc, i, j):
                continue
            failure = "failed for %s" % _path_json(p)
        except ValueError as exc:
            failure = "rejected phi(%s): %s" % (_path_json(p), exc)
        failures.append("removal order swap (%d,%d) %s" % (i, j, failure))
    return cases, failures


def check_linearization(fam, items):
    """Box-ball updates act on riggings as r += min(l, row length) whenever the
    shifted configuration is still valid; otherwise the soliton exits the
    finite path, certified by the carrier coming back loaded. items: (path,
    a, l), phi read from the Family fam. The sweep runs on rows
    (`evolution._evolve`) and builds no tableau: T(p) keeps factor shapes,
    so it is looked up in fam.index by its rank and factor rows; one outside
    fam is a failure. Returns (cases, failures, loaded sweeps)."""
    cases = loaded = 0
    failures = []
    for p, a, l in items:
        cases += 1
        shifted = linearized_image(fam.phi(p), a, l)
        rows, clean = _evolve(p, a, l)
        valid = not validate(shifted, "unrestricted")
        loaded += not clean
        if clean != valid:
            state = "clean despite invalid" if clean else "loaded despite valid"
            failures.append(
                "carrier %s shift: T_%d^(%d) %s" % (state, l, a, _path_json(p))
            )
        elif valid:
            evolved = fam.index.get((p.rank_n, rows))
            if evolved is None:
                failures.append(
                    "T_%d^(%d) leaves the family for %s" % (l, a, _path_json(p))
                )
            elif fam.phi(evolved) != shifted:
                failures.append(
                    "T_%d^(%d) did not linearize for %s" % (l, a, _path_json(p))
                )
    return cases, failures, loaded


def suite_yang_baxter(max_n, max_l, max_s):
    modes = ((0, 0, 0), (5, 3, 1))
    per_n = [check_yang_baxter(elements(n, max_s), modes) for n in range(1, max_n + 1)]
    return sum(c for c, _ in per_n), [msg for _, f in per_n for msg in f]


def suite_involutivity(max_n, max_l, max_s):
    pairs = (uv for n in range(1, max_n + 1) for uv in product(elements(n, max_s), repeat=2))
    return check_involutivity(TensorPair(*uv) for uv in pairs)


def suite_energy_zero_highest(max_n, max_l, max_s):
    return check_swapping_pairs(
        uv
        for n in range(1, max_n + 1)
        for uv in highest_pairs(n, shape_menu(n, max_s))
    )


def suite_energy_padding(max_n, max_l, max_s):
    def items(n):
        pads = [highest_element(a, k, n) for a, k in shape_menu(n, max_s)]
        return ((Path(n, (b,)), pads) for b in elements(n, max_s))

    return check_energy_padding(it for n in range(1, max_n + 1) for it in items(n))


def suite_two_letter_reduction(max_n, max_l, max_s):
    # the reductions, then highest elements of other heights commuting past v
    fams = [
        (n, a, two_letter(n, a, s))
        for n in range(2, max_n + 1)
        for a in range(1, n)
        for s in range(1, max_s + 1)
    ]
    reductions = check_two_letter_reduction(
        vw for _, _, fam in fams for vw in product(fam, repeat=2)
    )
    commuting = check_swapping_pairs(
        (highest_element(k, l, n), v)
        for n, a, fam in fams
        for v in fam
        for k in range(1, n + 1)
        if k != a + 1
        for l in range(1, max_l + 1)
    )
    return reductions[0] + commuting[0], reductions[1] + commuting[1]


def suite_energy_equals_q(max_n, max_l, max_s):
    return check_energy_equals_q(family(max_n, max_l, max_s))


def suite_energy_formula(max_n, max_l, max_s):
    return check_energy_formula(family(max_n, max_l, max_s))


def suite_round_trip(max_n, max_l, max_s):
    return check_round_trip(family(max_n, max_l, max_s))


def suite_removal_order(max_n, max_l, max_s):
    fam = family(max_n, max_l, max_s)
    return check_removal_order(
        fam,
        (
            (p, i, j)
            for p in fam.paths
            if 2 <= len(p) <= 3
            for i, j in combinations(range(len(p)), 2)
        ),
    )


def suite_evolution_linearization(max_n, max_l, max_s):
    fam = family(max_n, max_l, max_s)
    cases, failures, _ = check_linearization(
        fam,
        (
            (p, a, l)
            for p in fam.paths
            for a in range(1, p.rank_n + 1)
            for l in range(1, max_l + 1)
        ),
    )
    return cases, failures


SUITES = [
    ("yang-baxter", suite_yang_baxter),
    ("involutivity", suite_involutivity),
    ("energy-zero-highest", suite_energy_zero_highest),
    ("energy-padding", suite_energy_padding),
    ("two-letter-reduction", suite_two_letter_reduction),
    ("energy-equals-q", suite_energy_equals_q),
    ("round-trip", suite_round_trip),
    ("removal-order", suite_removal_order),
    ("evolution-linearization", suite_evolution_linearization),
    ("energy-formula", suite_energy_formula),
]


def suite_names():
    return [name for name, _ in SUITES]


def run_verify(max_n=2, max_l=3, max_s=2, suites=None):
    if max_n < 1 or max_l < 1 or max_s < 1:
        raise ValueError("bounds must be positive")
    chosen = suites or suite_names()
    unknown = [s for s in chosen if s not in suite_names()]
    if unknown:
        raise ValueError("unknown suite(s): %s" % ", ".join(unknown))
    start = time.perf_counter()
    results = []
    for name, fn in SUITES:
        if name not in chosen:
            continue
        t0 = time.perf_counter()
        cases, failures = fn(max_n, max_l, max_s)
        results.append((name, cases, failures, time.perf_counter() - t0))
    return Report(results, time.perf_counter() - start)
