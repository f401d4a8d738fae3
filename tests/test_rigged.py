import random

import pytest

from kssbij.cli.harness import family_paths
from kssbij.kss import phi_energy
from kssbij.rigged import (
    RiggedConfiguration,
    q_l,
    vacancy,
    validate,
)


def rc_a1():
    # quantum space (4),(4),(2),() with mu^(1)=(3)@1, mu^(2)=(3,1)@0,
    # mu^(3)=(2,1)@0, mu^(4)=(1)@0
    return RiggedConfiguration(
        4,
        [[4], [4], [2], []],
        [[(3, 1)], [(3, 0), (1, 0)], [(2, 0), (1, 0)], [(1, 0)]],
    )


def reference_vacancy(rc, a, l):
    # the generator-and-min form that rigged.vacancy replaced
    n = rc.rank_n
    p = sum(min(l, x) for x in rc.nu[a - 1]) - 2 * sum(min(l, m) for m, _ in rc.mu[a - 1])
    if a > 1:
        p += sum(min(l, m) for m, _ in rc.mu[a - 2])
    if a < n:
        p += sum(min(l, m) for m, _ in rc.mu[a])
    return p


def assert_vacancy_matches_reference(rc):
    """vacancy = the reference for a = 1..n and l = 0..(longest row + 1)."""
    top = max([x for level in rc.nu for x in level] + [m for level in rc.mu for m, _ in level] + [0])
    for a in range(1, rc.rank_n + 1):
        for l in range(top + 2):
            assert vacancy(rc, a, l) == reference_vacancy(rc, a, l), (rc, a, l)


class TestConstruction:
    def test_level_counts_enforced(self):
        with pytest.raises(ValueError):
            RiggedConfiguration(2, [[1]], [[(1, 0)], []])
        with pytest.raises(ValueError):
            RiggedConfiguration(2, [[1], []], [[(1, 0)]])

    def test_rejects_nonpositive_quantum_rows(self):
        with pytest.raises(ValueError):
            RiggedConfiguration(1, [[0]], [[]])

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            RiggedConfiguration(1, [[1]], [[(0, 0)]])

    def test_rejects_non_integers(self):
        # int() used to truncate 2.9 to 2 and take True as 1
        for nu, mu in (
            ([[2.9]], [[(1.7, 0.4)]]),
            ([[True]], [[(1, 0)]]),
            ([[2]], [[(1.7, 0)]]),
            ([[2]], [[(True, 0)]]),
            ([[2]], [[(1, 0.4)]]),
            ([[2]], [[(1, False)]]),
            ([["2"]], [[(1, 0)]]),
        ):
            with pytest.raises(ValueError, match="not an integer"):
                RiggedConfiguration(1, nu, mu)
        with pytest.raises(ValueError):
            RiggedConfiguration(True, [[2]], [[(1, 0)]])

    def test_rejects_bad_origins(self):
        # origins are 1-based factor indices: ints >= 1, known ones distinct
        for nu, origins, match in (
            ([[2]], [[True]], "not an integer"),
            ([[2]], [[2.5]], "not an integer"),
            ([[2]], [["1"]], "not an integer"),
            ([[2]], [[0]], ">= 1"),
            ([[2]], [[-1]], ">= 1"),
            ([[1, 1]], [[2, 2]], "distinct"),
        ):
            with pytest.raises(ValueError, match=match):
                RiggedConfiguration(1, nu, [[]], origins)
        with pytest.raises(ValueError, match="distinct"):
            RiggedConfiguration(2, [[1], [1]], [[], []], [[2], [2]])
        rc = RiggedConfiguration(2, [[1], [1, 3]], [[], []], [[None], [4, None]])
        assert rc.origins == ((None,), (4, None))

    def test_empty_is_fine(self):
        rc = RiggedConfiguration(2, [[], []], [[], []])
        assert validate(rc, "restricted") == []


class TestQ:
    def test_column_counts(self):
        rc = RiggedConfiguration(2, [[], []], [[], [(3, 0), (1, 0)]])
        assert q_l(rc, 2, 2) == 3
        assert q_l(rc, 2, 0) == 0
        assert q_l(rc, 2, 1) == 2
        assert q_l(rc, 2, 99) == 4

    def test_out_of_band_levels_vanish(self):
        rc = rc_a1()
        assert q_l(rc, 0, 5) == 0
        assert q_l(rc, 5, 5) == 0

    def test_example_level_one(self):
        assert q_l(rc_a1(), 1, 3) == 3

    def test_rejects_bad_widths(self):
        # q_l(rc, 1, -1) used to be -1 and q_l(rc, 1, 2.5) 2.5
        for a in (0, 1, 5):
            for l in (-1, 2.5, True, None):
                with pytest.raises(ValueError):
                    q_l(rc_a1(), a, l)

    def test_concave_nondecreasing(self):
        rc = rc_a1()
        for a in (1, 2, 3, 4):
            vals = [q_l(rc, a, l) for l in range(8)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))
            diffs = [y - x for x, y in zip(vals, vals[1:])]
            assert all(x >= y for x, y in zip(diffs, diffs[1:]))
            assert vals[-1] == sum(m for m, _ in rc.mu[a - 1])


class TestVacancy:
    def test_initial_values(self):
        rc = rc_a1()
        assert vacancy(rc, 1, 3) == 1
        assert vacancy(rc, 2, 3) == 1
        assert vacancy(rc, 2, 1) == 0
        assert vacancy(rc, 3, 2) == 0
        assert vacancy(rc, 3, 1) == 0
        assert vacancy(rc, 4, 1) == 0

    def test_empty_configuration_reduces_to_quantum(self):
        rc = RiggedConfiguration(2, [[3, 1], []], [[], []])
        assert vacancy(rc, 1, 2) == min(2, 3) + min(2, 1)
        assert vacancy(rc, 2, 2) == 0

    def test_matches_reference_on_family_images(self):
        # every phi image of the `verify` family at its defaults (n <= 2)
        for p in family_paths(2, 3, 2):
            assert_vacancy_matches_reference(phi_energy(p))

    def test_matches_reference_on_random_configurations(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 4)
            nu = [[rng.randint(1, 5) for _ in range(rng.randint(0, 3))] for _ in range(n)]
            mu = [
                [(rng.randint(1, 5), rng.randint(-6, 6)) for _ in range(rng.randint(0, 3))]
                for _ in range(n)
            ]
            assert_vacancy_matches_reference(RiggedConfiguration(n, nu, mu))

    def test_rejects_bad_level_or_width(self):
        # vacancy(rc, 1, 2.5) used to be -0.5, vacancy(rc, 1, -1) 0, and a
        # = True ran as a = 1
        rc = RiggedConfiguration(2, [[3, 1], []], [[(2, 0)], []])
        for a, l in ((1, 2.5), (1, -1), (1, True), (1, None), (True, 2), (1.0, 2), (0, 1), (3, 1)):
            with pytest.raises(ValueError):
                vacancy(rc, a, l)
        assert vacancy(rc, 1, 0) == 0

    def test_permuting_equal_rows_invariant(self):
        a = RiggedConfiguration(2, [[2], []], [[(1, 0), (1, 1)], []])
        b = RiggedConfiguration(2, [[2], []], [[(1, 1), (1, 0)], []])
        for l in (1, 2, 3):
            assert vacancy(a, 1, l) == vacancy(b, 1, l)


class TestValidate:
    def test_restricted_passes_example(self):
        assert validate(rc_a1(), "restricted") == []

    def test_negative_rigging_only_unrestricted(self):
        rc = RiggedConfiguration(2, [[1], [1]], [[(1, -2)], []])
        assert validate(rc, "unrestricted") == []
        problems = validate(rc, "restricted")
        assert problems
        assert any("rigging" in str(v) for v in problems)

    def test_rigging_above_vacancy_fails_both(self):
        rc = RiggedConfiguration(1, [[1]], [[(1, 2)]])
        assert validate(rc, "restricted")
        assert validate(rc, "unrestricted")

    def test_negative_vacancy_restricted_only(self):
        # no quantum space at level 0 but a row in mu^(1): p goes negative
        rc = RiggedConfiguration(2, [[], []], [[(2, -4)], []])
        assert validate(rc, "restricted")
        assert validate(rc, "unrestricted") == []

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            validate(rc_a1(), "strict")


class TestEquality:
    def test_row_order_within_level_ignored(self):
        a = RiggedConfiguration(2, [[2], []], [[(2, 0), (1, 1)], []])
        b = RiggedConfiguration(2, [[2], []], [[(1, 1), (2, 0)], []])
        assert a == b
        assert hash(a) == hash(b)

    def test_quantum_space_order_matters(self):
        a = RiggedConfiguration(2, [[2, 1], []], [[], []])
        b = RiggedConfiguration(2, [[1, 2], []], [[], []])
        assert a != b

    def test_origins_do_not_affect_equality(self):
        a = RiggedConfiguration(1, [[1, 1]], [[]], origins=[[1, 2]])
        b = RiggedConfiguration(1, [[1, 1]], [[]], origins=[[2, 1]])
        assert a == b

    def test_riggings_matter(self):
        a = RiggedConfiguration(1, [[2]], [[(1, 0)]])
        b = RiggedConfiguration(1, [[2]], [[(1, 1)]])
        assert a != b
