"""Acceptance gate: one test per numbered criterion.

Each test prints one pass/fail line under pytest -v. Time limits are pinned
as constants next to the criterion they guard. Families:

  family A: all paths in B^{1,1} tensor L, L <= 4, n <= 2
  family B: all paths in B^{1,2} (x) B^{2,1} and B^{2,2} (x) B^{1,1}
            for n in {2, 3} (two-row factors need n >= 2)

Criteria 5-10 run the invariant checks of kssbij.cli.harness, the ones that
`verify` runs, on these families and assert that they report no failure.
"""

import itertools
import time

from kssbij import kss
from kssbij.cli.harness import (
    Family,
    check_energy_equals_q,
    check_energy_padding,
    check_linearization,
    check_removal_order,
    check_round_trip,
    check_swapping_pairs,
    check_two_letter_reduction,
    check_yang_baxter,
    highest_pairs,
    shape_menu,
    two_letter,
)
from kssbij.evolution import Path, local_energy_distribution
from kssbij.kss import phi_energy, phi_inverse
from kssbij.rigged import RiggedConfiguration, vacancy, validate
from kssbij.rmatrix import TensorPair, apply_R, energy_H
from kssbij.tableaux import Tableau, enumerate_kr, highest_element

MS = 1e-3

R_EXAMPLE_LIMIT = 1 * MS        # criterion 1
LED_EXAMPLE_LIMIT = 10 * MS     # criterion 2
NON_HIGHEST_LIMIT = 50 * MS     # criterion 3
BOX_REMOVAL_LIMIT = 10 * MS     # criterion 4
ROUND_TRIP_LIMIT = 60.0         # criterion 5
YANG_BAXTER_LIMIT = 60.0        # criterion 7

EXAMPLE_PATH = Path(
    4,
    [
        Tableau(4, [[1, 1, 1, 1]]),
        Tableau(4, [[1, 2], [2, 3], [3, 4]]),
        Tableau(4, [[1, 1, 2, 4], [2, 2, 3, 5]]),
    ],
)

EXAMPLE_RC = RiggedConfiguration(
    4,
    [[4], [4], [2], []],
    [[(3, 1)], [(3, 0), (1, 0)], [(2, 0), (1, 0)], [(1, 0)]],
)

NON_HIGHEST_PATH = Path(
    3,
    [
        Tableau(3, [[1, 2, 2], [2, 3, 3]]),
        Tableau(3, [[1, 1]]),
        Tableau(3, [[1, 1, 2, 2], [2, 3, 3, 3]]),
        Tableau(3, [[1, 1, 1], [2, 2, 2], [3, 3, 4]]),
        Tableau(3, [[1, 1, 2, 3, 3], [2, 3, 4, 4, 4]]),
        Tableau(3, [[1, 1, 1, 2], [2, 2, 2, 3], [3, 3, 3, 4]]),
    ],
)


def timed(limit, fn):
    # warm import-time caches, then take the best of three runs
    fn()
    best = min(_once(fn) for _ in range(3))
    assert best < limit, f"took {best * 1e3:.3f} ms, limit {limit * 1e3:.0f} ms"
    return best


def _once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def family_a():
    for n in (1, 2):
        cells = list(enumerate_kr(1, 1, n))
        for length in (1, 2, 3, 4):
            for combo in itertools.product(cells, repeat=length):
                yield Path(n, list(combo))


def family_b():
    for n in (2, 3):
        for left, right in (((1, 2), (2, 1)), ((2, 2), (1, 1))):
            lefts = list(enumerate_kr(*left, n))
            rights = list(enumerate_kr(*right, n))
            for a, b in itertools.product(lefts, rights):
                yield Path(n, [a, b])


def families():
    yield from family_a()
    yield from family_b()


FAMILY_SIZE = 326  # 30 + 120 paths in A, 18 + 60 + 18 + 80 in B


def test_criterion_01_r_matrix_example():
    p = TensorPair(
        Tableau(5, [[1, 1], [2, 4]]), Tableau(5, [[3, 4], [4, 5], [5, 6]])
    )

    def work():
        image = apply_R(p)
        h = energy_H(p)
        assert image.left.to_lists() == [[1, 1], [2, 4], [3, 5]]
        assert image.right.to_lists() == [[4, 4], [5, 6]]
        assert h == 3

    timed(R_EXAMPLE_LIMIT, work)


def test_criterion_02_led_tables_and_rc():
    blank4 = [0, 0, 0, 0]
    want_tables = [
        [
            blank4 + [1, 0] + [0, 0, 0, 0],
            blank4 + [0, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + [0, 1, 0, 0],
            blank4 + [0, 0] + blank4,
        ],
        [
            blank4 + [1, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + [0, 1, 0, 0],
            blank4 + [0, 0] + blank4,
        ],
        [
            blank4 + [1, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + blank4,
        ],
        [
            blank4 + [0, 0] + [1, 0, 0, 0],
            blank4 + [0, 0] + blank4,
        ],
    ]

    def work():
        led = local_energy_distribution(EXAMPLE_PATH)
        assert [[list(r) for r in t] for t in led.tables] == want_tables
        rc = phi_energy(EXAMPLE_PATH)
        assert rc.nu == ((4,), (4,), (2,), ())
        assert rc == EXAMPLE_RC

    timed(LED_EXAMPLE_LIMIT, work)


def test_criterion_03_non_highest_example():
    def work():
        rc = phi_energy(NON_HIGHEST_PATH)
        # printed quantum space is sorted; production order is by factor
        assert [sorted(level, reverse=True) for level in rc.nu] == [
            [2],
            [5, 4, 3],
            [4, 3],
        ]
        assert sorted(rc.mu[0], reverse=True) == [(4, -2), (2, -2), (2, -2)]
        assert sorted(rc.mu[1], reverse=True) == [(4, 0), (4, 0), (2, 0), (2, 0)]
        assert sorted(rc.mu[2], reverse=True) == [(3, 4), (2, 3)]
        assert validate(rc, "unrestricted") == []

    timed(NON_HIGHEST_LIMIT, work)


def test_criterion_04_box_removal_example():
    def work():
        rc = EXAMPLE_RC
        # printed initial vacancy numbers
        assert vacancy(rc, 1, 3) == 1
        assert vacancy(rc, 2, 3) == 1
        assert vacancy(rc, 2, 1) == 0
        assert vacancy(rc, 3, 2) == 0
        assert vacancy(rc, 3, 1) == 0
        assert vacancy(rc, 4, 1) == 0
        assert phi_inverse(rc, order=[1, 2, 0]) == EXAMPLE_PATH
        # during the first box removal the transit box raises p_3^(1) to 2,
        # and it reads 1 again once the box has left
        state = kss._State(rc, rc.quantum_rows())
        kss._micro_step(state, 1, state.flats[1].index(1))
        assert vacancy(state, 1, 3) == 2
        kss._micro_step(state, 0, -1)
        assert vacancy(state, 1, 3) == 1

    timed(BOX_REMOVAL_LIMIT, work)


def test_criterion_05_round_trip():
    def work():
        # phi_inverse validates phi(p) before it removes a box
        cases, failures = check_round_trip(Family(families()))
        assert failures == []
        assert cases == FAMILY_SIZE

    elapsed = _once(work)
    assert elapsed < ROUND_TRIP_LIMIT


def test_criterion_06_energy_equals_q():
    cases, failures = check_energy_equals_q(Family(families()))
    assert failures == []
    assert cases > 0


def test_criterion_07_yang_baxter():
    def work():
        shapes = ((1, 1), (1, 2), (2, 1))
        pool = [b for sh in shapes for b in enumerate_kr(*sh, 2)]
        cases, failures = check_yang_baxter(pool, ((0, 0, 0), (5, 3, 1)))
        assert failures == []
        assert cases == 2 * (3 + 6 + 3) ** 3

    elapsed = _once(work)
    assert elapsed < YANG_BAXTER_LIMIT


def test_criterion_08_energy_identities():
    # highest pairs carry no energy, and R swaps them
    cases, failures = check_swapping_pairs(highest_pairs(3, shape_menu(3, 3)))
    assert failures == []
    assert cases == 81

    # padding with a highest factor leaves every total energy unchanged
    pads = {
        n: [highest_element(r, k, n) for r, k in ((1, 1), (1, 2), (min(2, n), 1))]
        for n in (1, 2, 3)
    }
    cases, failures = check_energy_padding((p, pads[p.rank_n]) for p in families())
    assert failures == []
    assert cases == 3 * FAMILY_SIZE

    # pairs built from highest rows over a two-letter bottom alphabet carry
    # exactly the energy, and the R image, of their bottom rows read as
    # one-row tableaux
    checked, failures = check_two_letter_reduction(
        (v, w)
        for n in (2, 3)
        for a in range(1, n)
        for s, sp in itertools.product((1, 2, 3), repeat=2)
        for v, w in itertools.product(two_letter(n, a, s), two_letter(n, a, sp))
    )
    assert failures == []
    assert checked > 100


def test_criterion_09_removal_order_swaps():
    # phi(p) has one quantum row per factor of p
    fam = Family(families())
    cases, failures = check_removal_order(
        fam,
        (
            (p, i, j)
            for p in fam.paths
            for i, j in itertools.permutations(range(len(p)), 2)
        ),
    )
    assert failures == []
    assert cases > 0


def test_criterion_10_evolution_linearization():
    # On a path of finite length the rigging-shift identity holds precisely
    # when the carrier comes back unloaded; a loaded carrier has dragged
    # content across the right edge and the identity provably cannot hold
    # (iterating it would grow riggings without bound on a finite state
    # space). Both directions are asserted: clean sweeps must linearize
    # exactly, and every loaded sweep must have an invalid shifted
    # configuration. For a loaded sweep, evolved != shifted follows: the
    # evolved path lies in the same family (A and B hold every element of
    # their factor shapes, so time evolution keeps them inside), and
    # criterion 5 shows that phi of every path of the family is valid.
    fam = Family(families())
    cases, failures, escapes = check_linearization(
        fam,
        ((p, a, l) for p in fam.paths for a in range(1, p.rank_n + 1) for l in (1, 2, 3)),
    )
    assert failures == []
    eligible = cases - escapes
    assert eligible > 0 and escapes > 0
    print(
        f"\nlinearization: {eligible}/{cases} clean sweeps linearized exactly,"
        f" {escapes} loaded-carrier sweeps certified"
    )
