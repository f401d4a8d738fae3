"""Invariant checks, each run on a family given as data.

Each check_* but Yang-Baxter takes its family as an iterable, and each
returns (cases, failure descriptions). `verify` binds each to its families in
SUITES: for every rank n up to the bound, chains (paths in B^{1,1} tensored L
times, L <= max_l) and pairs (two-factor paths over the shape menu r <= n,
s <= max_s). Criteria 5-10 of the acceptance gate run the same checks on its
families A and B:

  check_yang_baxter           (n, shape triples, mode triples), walking every
                              element of each shape; verify: shape-menu
                              triples; gate, rmatrix tests: n = 2 triples of
                              shapes (1,1), (1,2), (2,1)
  check_involutivity          verify: pairs
  check_swapping_pairs        verify: highest pairs, highest u past two-letter
                              v; gate: highest pairs with r, s <= 3, n = 3
  check_energy_padding        verify: single factors; gate: A and B
  check_two_letter_reduction  verify: widths s = s'; gate: widths s, s' <= 3
  check_energy_equals_q, check_round_trip, check_linearization
                              verify: chains and pairs; gate: A and B
  check_removal_order         verify: 2-3 factors, i < j; gate: A and B, i != j

Failure messages name their input in the codec's JSON, so it can be fed back
to the CLI: a path to `led`, `phi` or `bbs`, a pair to `rmatrix` or `energy`.
Yang-Baxter names its (rows, mode) triples, which no verb reads.

The checks that need phi of a path (energy-equals-q, round-trip,
removal-order, evolution-linearization) read it through `phi`, a bounded
memo: phi of a family path is computed once per process and shared by the
suites, so a suite's reported time leaves out any phi that an earlier suite
(or an earlier `run_verify`) already computed. The four suites share the
family objects as well: `family_paths` builds one tuple per set of bounds and
keeps it for the process, so every suite hands the memo the very Path objects
that key it, each lookup matches by identity (no `Path.__eq__`) and each
path's hash is computed once.
"""

import time
from functools import lru_cache
from itertools import chain, combinations, product

from kssbij import kss
from kssbij.cli import codec
from kssbij.evolution import Path, carrier_sweep, total_energy
from kssbij.kss import linearized_image, phi_inverse, removal_order_equivalence
from kssbij.rigged import q_l, validate
from kssbij.rmatrix import TensorPair, apply_R, apply_affine_R, energy_H
from kssbij.tableaux import Tableau, enumerate_kr, highest_element

# Entries of the phi memo. `verify` touches 389 distinct family paths at its
# defaults and 3,373 at --max-n 3, where the suites ask for phi 18,890 times;
# 4096 holds that whole family, so each path misses once (verify --max-n 3
# max RSS 19.7 -> 20.5 MB). The library keeps no such memo: the CLI's phi
# and phi-inverse inputs do not repeat, and it would only add to their memory.
# The family is kept too (`family_paths`), held while the process lives.
# Up to --max-n 3 its paths are the memo's keys, so it adds one tuple and
# verify --max-n 3 max RSS stays at 20.7-20.8 MB; at --max-n 4 it holds
# 29,157 paths, more than the memo keeps.
PHI_CACHE_SIZE = 4096


@lru_cache(maxsize=PHI_CACHE_SIZE)
def _phi_memo(phi_energy, p):
    return phi_energy(p)


def phi(p):
    """kss.phi_energy(p), memoized. The function is looked up at each call
    and is part of the key, so a tracer or a patch of kss.phi_energy sees
    every path the memo computes, and never a result of the function it
    replaced."""
    return _phi_memo(kss.phi_energy, p)


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


@lru_cache(maxsize=1)
def family_paths(max_n, max_l, max_s):
    """The chains and pairs of every rank up to max_n, deterministic order:
    per rank, `chain_paths` then `pair_paths`.

    One tuple per set of bounds, kept for the process (a new set replaces
    it), so the phi suites share its Path objects. A path that is both a
    chain and a pair (two single boxes) is one object in both places."""
    seen = {}
    return tuple(
        seen.setdefault(p, p)
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
    top = [[i] * s for i in range(1, a + 1)]
    bottoms = ([a + 1] * c + [a + 2] * (s - c) for c in range(s, -1, -1))
    return [Tableau(n, top + [bottom]) for bottom in bottoms]


def _bottom_row(v):
    # the bottom row of a two-letter element, re-read over {1, 2}
    a = v.n_rows - 1
    return Tableau(1, [[x - a for x in v.rows[-1]]])


def _path_json(p):
    return codec.dump(codec.encode_path(p)).rstrip()


def _pair_json(left, right):
    return codec.dump([codec.encode_tableau(left), codec.encode_tableau(right)]).rstrip()


def _tableau_json(t):
    return codec.dump(codec.encode_tableau(t)).rstrip()


def _stabilization_l(p):
    return sum(b.width() for b in p.factors) + 1


def check_yang_baxter(n, shape_triples, modes):
    """The affine R satisfies the Yang-Baxter equation on each triple x (x) y (x) z:
    (R x 1)(1 x R)(R x 1) = (1 x R)(R x 1)(1 x R), over all rank-n elements of
    each shape triple and each mode triple; an affine element is a (rows, mode)
    pair. R(x (x) y) is shared across every z, and R(y (x) z) across every x."""
    cases, failures = 0, []
    shape_triples = list(shape_triples)
    pools = {sh: [b.rows for b in enumerate_kr(*sh, n)] for sh in set().union(*shape_triples)}
    for shapes, mode in product(shape_triples, modes):
        xs, ys, zs = ([(u, m) for u in pools[sh]] for sh, m in zip(shapes, mode))
        cases += len(xs) * len(ys) * len(zs)
        yz = [[apply_affine_R(y, z) for z in zs] for y in ys]
        for x in xs:
            for y, y_z in zip(ys, yz):
                xy = apply_affine_R(x, y)
                for z, (e, f) in zip(zs, y_z):
                    a, b = xy
                    b, c = apply_affine_R(b, z)
                    a, b = apply_affine_R(a, b)
                    d, e = apply_affine_R(x, e)
                    e, f = apply_affine_R(e, f)
                    if (a, b, c) != (d, e, f):
                        failures.append("yang-baxter mismatch %r %r %r" % (x, y, z))
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
    items: (path, pads), one case per pad u."""
    cases, failures = 0, []
    for p, pads in items:
        n = p.rank_n
        levels, horizon = range(1, n + 1), range(1, _stabilization_l(p) + 2)
        base = {(a, l): total_energy(p, a, l) for a in levels for l in horizon}
        for u in pads:
            cases += 1
            left, right = Path(n, (u,) + p.factors), Path(n, p.factors + (u,))
            for (a, l), e in base.items():
                if total_energy(left, a, l) != e or total_energy(right, a, l) != e:
                    failures.append(
                        "padding with %s changed E_%d^(%d) for %s"
                        % (_tableau_json(u), l, a, _path_json(p))
                    )
                    break
            else:
                if any(energy_H(TensorPair(b, u)) != 0 for b in p.factors):
                    failures.append(
                        "H(b (x) %s) != 0 for a factor b of %s"
                        % (_tableau_json(u), _path_json(p))
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


def check_energy_equals_q(paths):
    """E_l^(a)(p) = Q_l^(a)(phi(p)) for every level a and l up to stabilization."""
    cases, failures = 0, []
    for p in paths:
        rc = phi(p)
        for a in range(1, p.rank_n + 1):
            for l in range(1, _stabilization_l(p) + 1):
                cases += 1
                if total_energy(p, a, l) != q_l(rc, a, l):
                    failures.append(
                        "E_%d^(%d) != Q_%d^(%d) for %s" % (l, a, l, a, _path_json(p))
                    )
    return cases, failures


def check_round_trip(paths):
    """phi_inverse(phi(p)) = p, and phi is injective on the family. phi_inverse
    validates phi(p) first; its ValueError is a failure."""
    cases, failures = 0, []
    seen = {}
    for p in paths:
        cases += 1
        rc = phi(p)
        try:
            back = phi_inverse(rc)
        except ValueError as exc:
            failures.append("phi_inverse rejected phi(%s): %s" % (_path_json(p), exc))
            continue
        # the fields, not Path.__eq__: one Python call fewer per case
        if (back.rank_n, back.factors) != (p.rank_n, p.factors):
            failures.append("round trip failed for %s" % _path_json(p))
            continue
        # configurations compare by rank, quantum space and riggings
        first = seen.setdefault((tuple(p.shapes()), rc), p)
        if first is not p and first != p:
            failures.append(
                "phi not injective: %s and %s collide" % (_path_json(first), _path_json(p))
            )
    return cases, failures


def check_removal_order(items):
    """Removing quantum rows i and j of phi(p) in either order gives factor
    pairs related by R. items: (path, i, j); consecutive items that hold one
    Path object share its phi."""
    cases, failures = 0, []
    last = None
    for p, i, j in items:
        if p is not last:
            last, rc = p, phi(p)
        cases += 1
        if not removal_order_equivalence(rc, i, j):
            failures.append(
                "removal order swap (%d,%d) failed for %s" % (i, j, _path_json(p))
            )
    return cases, failures


def check_linearization(items):
    """Box-ball updates act on riggings as r += min(l, row length) whenever the
    shifted configuration is still valid; otherwise the soliton exits the
    finite path, certified by the carrier coming back loaded. items: (path,
    a, l); consecutive items that hold one Path object share its phi.
    Returns (cases, failures, loaded sweeps)."""
    cases = loaded = 0
    failures = []
    last = None
    for p, a, l in items:
        if p is not last:
            last, rc = p, phi(p)
        cases += 1
        shifted = linearized_image(rc, a, l)
        factors, carriers = carrier_sweep(p, a, l)
        clean = carriers[-1] == carriers[0]
        valid = not validate(shifted, "unrestricted")
        loaded += not clean
        if clean != valid:
            state = "clean despite invalid" if clean else "loaded despite valid"
            failures.append(
                "carrier %s shift: T_%d^(%d) %s" % (state, l, a, _path_json(p))
            )
        elif valid and phi(Path(p.rank_n, factors)) != shifted:
            failures.append(
                "T_%d^(%d) did not linearize for %s" % (l, a, _path_json(p))
            )
    return cases, failures, loaded


def suite_yang_baxter(max_n, max_l, max_s):
    modes = ((0, 0, 0), (5, 3, 1))
    per_n = [check_yang_baxter(n, product(shape_menu(n, max_s), repeat=3), modes)
             for n in range(1, max_n + 1)]
    return sum(c for c, _ in per_n), [msg for _, f in per_n for msg in f]


def suite_involutivity(max_n, max_l, max_s):
    pairs = (p for n in range(1, max_n + 1) for p in pair_paths(n, max_s))
    return check_involutivity(TensorPair(*p.factors) for p in pairs)


def suite_energy_zero_highest(max_n, max_l, max_s):
    return check_swapping_pairs(
        uv
        for n in range(1, max_n + 1)
        for uv in highest_pairs(n, shape_menu(n, max_s))
    )


def suite_energy_padding(max_n, max_l, max_s):
    def items(n):
        pads = [highest_element(a, k, n) for a, k in shape_menu(n, max_s)]
        for r, s in shape_menu(n, max_s):
            for b in enumerate_kr(r, s, n):
                yield Path(n, (b,)), pads

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
    return check_energy_equals_q(family_paths(max_n, max_l, max_s))


def suite_round_trip(max_n, max_l, max_s):
    return check_round_trip(family_paths(max_n, max_l, max_s))


def suite_removal_order(max_n, max_l, max_s):
    return check_removal_order(
        (p, i, j)
        for p in family_paths(max_n, max_l, max_s)
        if 2 <= len(p) <= 3
        for i, j in combinations(range(len(p)), 2)
    )


def suite_evolution_linearization(max_n, max_l, max_s):
    cases, failures, _ = check_linearization(
        (p, a, l)
        for p in family_paths(max_n, max_l, max_s)
        for a in range(1, p.rank_n + 1)
        for l in range(1, max_l + 1)
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
