"""Exhaustive invariant suites over small enumerated families.

Families (per rank n up to the bound):
  chains — all paths in B^{1,1} tensored L times, L up to max_l;
  pairs  — all two-factor paths over the shape menu {(r,s): r <= n, s <= max_s}.

Each suite returns (cases, failure descriptions); the report is deterministic.
"""

import time
from itertools import product

from kssbij.evolution import Path, carrier_sweep, time_evolution, total_energy
from kssbij.kss import (
    linearized_image,
    phi_energy,
    phi_inverse,
    removal_order_equivalence,
)
from kssbij.rigged import q_l, validate
from kssbij.rmatrix import (
    AffineElement,
    TensorPair,
    apply_R,
    apply_affine_R,
    energy_H,
)
from kssbij.tableaux import Tableau, enumerate_kr, highest_element


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
        for b1 in sets[s1]:
            for b2 in sets[s2]:
                yield Path(n, (b1, b2))


def family_paths(max_n, max_l, max_s):
    """Yields (n, path) over both families, deterministic order."""
    for n in range(1, max_n + 1):
        for p in chain_paths(n, max_l):
            yield n, p
        for p in pair_paths(n, max_s):
            yield n, p


def _stabilization_l(p):
    return sum(b.width() for b in p.factors) + 1


def suite_yang_baxter(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        menu = shape_menu(n, max_s)
        sets = {shape: list(enumerate_kr(shape[0], shape[1], n)) for shape in menu}
        for sh in product(menu, repeat=3):
            for b1, b2, b3 in product(sets[sh[0]], sets[sh[1]], sets[sh[2]]):
                for modes in ((0, 0, 0), (5, 3, 1)):
                    cases += 1
                    x = AffineElement(b1, modes[0])
                    y = AffineElement(b2, modes[1])
                    z = AffineElement(b3, modes[2])
                    if _yb_left(x, y, z) != _yb_right(x, y, z):
                        failures.append(
                            "yang-baxter mismatch n=%d %r %r %r modes=%r"
                            % (n, b1, b2, b3, modes)
                        )
    return cases, failures


def _yb_left(x, y, z):
    # (R x 1)(1 x R)(R x 1)
    x, y = apply_affine_R(x, y)
    y, z = apply_affine_R(y, z)
    x, y = apply_affine_R(x, y)
    return x, y, z


def _yb_right(x, y, z):
    # (1 x R)(R x 1)(1 x R)
    y, z = apply_affine_R(y, z)
    x, y = apply_affine_R(x, y)
    y, z = apply_affine_R(y, z)
    return x, y, z


def suite_involutivity(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        for p in pair_paths(n, max_s):
            cases += 1
            pair = TensorPair(p.factors[0], p.factors[1])
            image = apply_R(pair)
            back = apply_R(image)
            if back != pair:
                failures.append("R not involutive on %r" % (pair,))
            elif energy_H(image) != energy_H(pair):
                failures.append("H changed under R on %r" % (pair,))
    return cases, failures


def suite_energy_zero_highest(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        menu = shape_menu(n, max_s)
        for (r1, s1), (r2, s2) in product(menu, repeat=2):
            cases += 1
            u = highest_element(r1, s1, n)
            v = highest_element(r2, s2, n)
            pair = TensorPair(u, v)
            if energy_H(pair) != 0:
                failures.append("H(u (x) u') != 0 for %r" % (pair,))
            elif apply_R(pair) != TensorPair(v, u):
                failures.append("R does not swap highest pair %r" % (pair,))
    return cases, failures


def suite_energy_padding(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n in range(1, max_n + 1):
        menu = shape_menu(n, max_s)
        elements = [b for shape in menu for b in enumerate_kr(shape[0], shape[1], n)]
        pads = [(a, k) for a in range(1, n + 1) for k in range(1, max_s + 1)]
        for b in elements:
            p = Path(n, (b,))
            horizon = _stabilization_l(p) + 1
            base = {
                (r, l): total_energy(p, r, l)
                for r in range(1, n + 1)
                for l in range(1, horizon + 1)
            }
            for a, k in pads:
                u = highest_element(a, k, n)
                left = Path(n, (u, b))
                right = Path(n, (b, u))
                cases += 1
                bad = False
                for (r, l), e in base.items():
                    if total_energy(left, r, l) != e or total_energy(right, r, l) != e:
                        failures.append(
                            "padding changed E_%d^(%d) for %r with u_%d^(%d)"
                            % (l, r, b, k, a)
                        )
                        bad = True
                        break
                if not bad and energy_H(TensorPair(b, u)) != 0:
                    failures.append("H(v (x) u_%d^(%d)) != 0 for %r" % (k, a, b))
    return cases, failures


def _two_letter_family(n, a, s):
    """Elements of B^{a+1,s} whose top a rows are highest and whose bottom row
    uses only the letters a+1 and a+2."""
    out = []
    for c in range(s, -1, -1):
        rows = [[i] * s for i in range(1, a + 1)]
        rows.append([a + 1] * c + [a + 2] * (s - c))
        out.append(Tableau(n, rows))
    return out


def _bottom_as_rank1(v, a):
    row = [x - a for x in v.rows[-1]]
    return Tableau(1, [row])


def suite_two_letter_reduction(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n in range(2, max_n + 1):
        for a in range(1, n):
            for s in range(1, max_s + 1):
                fam = _two_letter_family(n, a, s)
                for v, w in product(fam, repeat=2):
                    cases += 1
                    pair = TensorPair(v, w)
                    small = TensorPair(_bottom_as_rank1(v, a), _bottom_as_rank1(w, a))
                    if energy_H(pair) != energy_H(small):
                        failures.append("H reduction failed on %r" % (pair,))
                        continue
                    big = apply_R(pair)
                    little = apply_R(small)
                    if (
                        _bottom_as_rank1(big.left, a) != little.left
                        or _bottom_as_rank1(big.right, a) != little.right
                        or big.left.rows[:-1] != v.rows[:-1]
                        or big.right.rows[:-1] != w.rows[:-1]
                    ):
                        failures.append("R reduction failed on %r" % (pair,))
                for v in fam:
                    for k in range(1, n + 1):
                        if k == a + 1:
                            continue
                        for l in range(1, max_l + 1):
                            cases += 1
                            u = highest_element(k, l, n)
                            pair = TensorPair(u, v)
                            if energy_H(pair) != 0:
                                failures.append("H(u (x) v) != 0 on %r" % (pair,))
                            elif apply_R(pair) != TensorPair(v, u):
                                failures.append("u did not commute past %r" % (v,))
    return cases, failures


def suite_energy_equals_q(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n, p in family_paths(max_n, max_l, max_s):
        rc = phi_energy(p)
        for a in range(1, n + 1):
            for l in range(1, _stabilization_l(p) + 1):
                cases += 1
                if total_energy(p, a, l) != q_l(rc, a, l):
                    failures.append(
                        "E_%d^(%d) != Q_%d^(%d) for %r" % (l, a, l, a, p)
                    )
    return cases, failures


def suite_round_trip(max_n, max_l, max_s):
    cases = 0
    failures = []
    seen = {}
    for n, p in family_paths(max_n, max_l, max_s):
        cases += 1
        rc = phi_energy(p)
        back = phi_inverse(rc)
        if back != p:
            failures.append("round trip failed for %r" % (p,))
            continue
        key = (
            n,
            tuple(p.shapes()),
            tuple(tuple(level) for level in rc.nu),
            tuple(tuple(sorted(level)) for level in rc.mu),
        )
        if key in seen and seen[key] != p:
            failures.append("phi not injective: %r and %r collide" % (seen[key], p))
        seen[key] = p
    return cases, failures


def suite_removal_order(max_n, max_l, max_s):
    cases = 0
    failures = []
    for n, p in family_paths(max_n, max_l, max_s):
        if len(p.factors) < 2 or len(p.factors) > 3:
            continue
        rc = phi_energy(p)
        rows = rc.quantum_rows()
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                cases += 1
                if not removal_order_equivalence(rc, i, j):
                    failures.append(
                        "removal order swap (%d,%d) failed for %r" % (i, j, p)
                    )
    return cases, failures


def suite_evolution_linearization(max_n, max_l, max_s):
    """Box-ball updates act on riggings as r += min(l, row length) whenever the
    shifted configuration is still valid; otherwise the soliton exits the
    finite path, certified by the carrier coming back loaded."""
    cases = 0
    failures = []
    for n, p in family_paths(max_n, max_l, max_s):
        rc = phi_energy(p)
        for a in range(1, n + 1):
            for l in range(1, max_l + 1):
                cases += 1
                shifted = linearized_image(rc, a, l)
                _, carriers = carrier_sweep(p, a, l)
                clean = carriers[-1] == highest_element(a, l, n)
                if not validate(shifted, "unrestricted"):
                    if phi_energy(time_evolution(p, a, l)) != shifted:
                        failures.append(
                            "T_%d^(%d) did not linearize for %r" % (l, a, p)
                        )
                    elif not clean:
                        failures.append(
                            "carrier loaded despite valid shift: T_%d^(%d) %r"
                            % (l, a, p)
                        )
                elif clean:
                    failures.append(
                        "carrier clean despite invalid shift: T_%d^(%d) %r"
                        % (l, a, p)
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
