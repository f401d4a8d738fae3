from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kssbij import evolution
from kssbij.cli.harness import check_energy_padding
from kssbij.evolution import (
    Path,
    carrier_sweep,
    energy_matrix,
    local_energy_distribution,
    time_evolution,
    total_energy,
)
from kssbij.rmatrix import _sweep_step
from kssbij.tableaux import Tableau, enumerate_kr, highest_element


def path(n, *factor_rows):
    return Path(n, [Tableau(n, rows) for rows in factor_rows])


# running example used throughout: three factors over the rank 4 alphabet
EXAMPLE = path(4, [[1, 1, 1, 1]], [[1, 2], [2, 3], [3, 4]], [[1, 1, 2, 4], [2, 2, 3, 5]])


class TestTimeEvolution:
    def test_ball_transport(self):
        p = path(1, [[2]], [[2]], [[1]], [[1]], [[1]])
        out = time_evolution(p, 1, 2)
        assert [f.to_lists() for f in out.factors] == [
            [[1]],
            [[1]],
            [[2]],
            [[2]],
            [[1]],
        ]

    def test_fixed_on_highest_path(self):
        p = Path(2, [highest_element(1, 2, 2), highest_element(2, 1, 2)])
        for a, l in ((1, 1), (1, 3), (2, 2)):
            assert time_evolution(p, a, l) == p

    def test_shapes_preserved(self):
        out = time_evolution(EXAMPLE, 2, 3)
        assert out.shapes() == EXAMPLE.shapes()

    def test_level_out_of_range(self):
        # a bad level or width, and every sweep that would use the carrier
        for fn in (carrier_sweep, time_evolution, total_energy, energy_matrix):
            for a, l in ((0, 1), (5, 1), (1, 0), (2, -1)):
                with pytest.raises(ValueError):
                    fn(EXAMPLE, a, l)

    def test_non_integer_level_or_width(self):
        # a float used to raise TypeError, and a bool ran as 1
        for fn in (carrier_sweep, time_evolution, total_energy, energy_matrix):
            for a, l in ((1.0, 1), (1, 2.0), (True, 1), (1, True)):
                with pytest.raises(ValueError, match="not an integer"):
                    fn(EXAMPLE, a, l)

    def test_path_rank_checked_without_factors(self):
        for n in (0, -1, True, 2.0):
            with pytest.raises(ValueError):
                Path(n, [])

    def test_sweep_returns_all_carriers(self):
        out, carriers = carrier_sweep(EXAMPLE, 1, 2)
        assert len(carriers) == len(EXAMPLE.factors) + 1
        assert carriers[0] == highest_element(1, 2, 4)
        assert len(out) == len(EXAMPLE.factors)
        assert Path(4, out) == time_evolution(EXAMPLE, 1, 2)


class TestEnergyMatrix:
    def test_boundary_zeros(self):
        em = energy_matrix(EXAMPLE, 1, 3)
        for j in (1, 2, 3):
            for k in range(EXAMPLE.factors[j - 1].shape[0] + 1):
                assert em.E(0, j, k) == 0
            for l in (1, 2, 3):
                assert em.E(l, j, 0) == 0

    def test_monotone_in_l_and_k(self):
        for a in (1, 2, 3, 4):
            em = energy_matrix(EXAMPLE, a, 4)
            for j, b in enumerate(EXAMPLE.factors, start=1):
                for l in range(1, 5):
                    for k in range(1, b.shape[0] + 1):
                        assert em.E(l, j, k) >= em.E(l - 1, j, k)
                        assert em.E(l, j, k) >= em.E(l, j, k - 1)


class TestTotalEnergy:
    def test_example_values(self):
        assert total_energy(EXAMPLE, 1, 1) == 1
        assert total_energy(EXAMPLE, 1, 3) == 3

    def test_padding_by_highest_factor(self):
        pads = [highest_element(a, k, 4) for k, a in ((1, 1), (2, 1), (1, 2))]
        assert check_energy_padding([(EXAMPLE, pads)]) == (3, [])

    def test_conserved_under_evolution(self):
        # conservation holds whenever the carrier returns to the highest
        # element after the sweep; a loaded carrier removes balls across the
        # right edge and the quantity may drop, so such sweeps are skipped
        vacuum = [highest_element(1, 1, 2)] * 4
        p = Path(2, [Tableau(2, r) for r in ([[1], [2]], [[1, 1]], [[2]], [[3]])] + vacuum)
        checked = 0
        for r, k in ((1, 1), (1, 2), (2, 1), (2, 3)):
            _, carriers = carrier_sweep(p, r, k)
            if carriers[-1] != highest_element(r, k, 2):
                continue
            q = time_evolution(p, r, k)
            for a in (1, 2):
                for l in (1, 2, 3):
                    assert total_energy(q, a, l) == total_energy(p, a, l)
                    checked += 1
        assert checked >= 12

    def test_loaded_carrier_can_break_conservation(self):
        p = path(2, [[1], [2]], [[1, 1]], [[2]], [[3]])
        _, carriers = carrier_sweep(p, 1, 1)
        assert carriers[-1] != highest_element(1, 1, 2)
        q = time_evolution(p, 1, 1)
        assert total_energy(q, 1, 1) < total_energy(p, 1, 1)


class TestLocalEnergyDistribution:
    def test_example_a1_table(self):
        led = local_energy_distribution(EXAMPLE)
        t = led.tables[0]
        ones = {
            (l + 1, led.columns[c])
            for l, row in enumerate(t)
            for c, v in enumerate(row)
            if v
        }
        assert ones == {(1, (2, 1)), (2, (3, 1)), (3, (3, 2))}
        assert all(v in (0, 1) for row in t for v in row)

    def test_example_a4_table(self):
        led = local_energy_distribution(EXAMPLE)
        t = led.tables[3]
        ones = {
            (l + 1, led.columns[c])
            for l, row in enumerate(t)
            for c, v in enumerate(row)
            if v
        }
        assert ones == {(1, (3, 1))}

    def test_columns_lexicographic(self):
        led = local_energy_distribution(EXAMPLE)
        assert list(led.columns) == sorted(led.columns)
        widths = [b.shape[0] for b in EXAMPLE.factors]
        assert list(led.columns) == [
            (j, k) for j, w in enumerate(widths, start=1) for k in range(1, w + 1)
        ]

    def test_rows_nonnegative_last_zero_and_capped(self):
        cells = sum(r * s for r, s in EXAMPLE.shapes())
        led = local_energy_distribution(EXAMPLE)
        for t in led.tables:
            assert all(v >= 0 for row in t for v in row)
            assert all(v == 0 for v in t[-1])
            assert len(t) <= 1 + cells

    def test_tables_match_double_differences(self):
        led = local_energy_distribution(EXAMPLE)
        for a in (1, 2, 3, 4):
            rows = led.tables[a - 1]
            em = energy_matrix(EXAMPLE, a, len(rows))
            want = [
                [
                    (em.E(l, j, k) - em.E(l, j, k - 1))
                    - (em.E(l - 1, j, k) - em.E(l - 1, j, k - 1))
                    for j, k in led.columns
                ]
                for l in range(1, len(rows) + 1)
            ]
            assert [list(row) for row in rows] == want

    def test_single_highest_factor_all_zero(self):
        p = Path(3, [highest_element(2, 2, 3)])
        led = local_energy_distribution(p)
        for t in led.tables:
            assert all(v == 0 for row in t for v in row)


class TestPathType:
    def test_equality_and_shapes(self):
        p = path(2, [[1, 2]], [[2]])
        assert p == path(2, [[1, 2]], [[2]])
        assert p.shapes() == [(1, 2), (1, 1)]


def pad(rows):
    """One more vacuum column (1, ..., a) in front of the rows of B^{a,l}."""
    return tuple((i,) + row for i, row in enumerate(rows, start=1))


def vacuum_columns(rows):
    # a column is (1, ..., a) exactly when its bottom letter is a
    return rows[-1].count(len(rows))


def reference_sweep(p, a, l):
    """The carrier u_l^(a) threaded through p on full rows, uncached."""
    u = highest_element(a, l, p.rank_n).rows
    out, carriers, energies = [], [u], []
    for b in p.factors:
        b2, u, hs = _sweep_step.__wrapped__(u, b.rows)
        out.append(b2)
        carriers.append(u)
        energies.append(hs)
    return out, carriers, energies


class TestVacuumLemma:
    def test_padding_commutes_with_the_step(self):
        # u with m >= s leading vacuum columns against every b of width s:
        # step(V + u, b) = (b', V + u', hs) where step(u, b) = (b', u', hs)
        step = _sweep_step.__wrapped__
        checked = 0
        for n in (1, 2, 3):
            for a, l, r, s in product(range(1, n + 1), range(1, 5), range(1, n + 1), range(1, 4)):
                us = [u.rows for u in enumerate_kr(a, l, n) if vacuum_columns(u.rows) >= s]
                for u, b in product(us, [b.rows for b in enumerate_kr(r, s, n)]):
                    b2, u2, hs = step(u, b)
                    assert step(pad(u), b) == (b2, pad(u2), hs)
                    checked += 1
        assert checked == 6558

    def test_threshold_is_tight(self):
        # m = s - 1 = 1 vacuum column against a factor of width 2
        step = _sweep_step.__wrapped__
        u, b = ((1,),), ((2, 2),)
        assert step(u, b) == (((1, 2),), ((2,),), (1, 1))
        assert step(pad(u), b) == (((1, 1),), ((2, 2),), (1, 2))


class TestCompressedSweep:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_row_sweep(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        shapes = data.draw(
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, 3)), min_size=1, max_size=5
            )
        )
        p = Path(n, [data.draw(st.sampled_from(list(enumerate_kr(r, s, n)))) for r, s in shapes])
        a = data.draw(st.integers(1, n))
        l = data.draw(st.integers(1, 6))
        out, carriers, energies = reference_sweep(p, a, l)
        keys = []
        with mock.patch.object(
            evolution, "_sweep_step", lambda u, b: keys.append(u) or _sweep_step(u, b)
        ):
            got_out, got_carriers, got_energies = evolution._sweep_rows(p, a, l)
        assert (got_out, got_energies) == (out, energies)
        assert [evolution._expand(a, c) for c in got_carriers] == carriers
        # the step sees each carrier with min(its vacuum, s) leading V columns
        for u, key, b in zip(carriers, keys, p.factors):
            spare = max(0, vacuum_columns(u) - b.width())
            assert key == tuple(row[spare:] for row in u)
        factors, tableaux = carrier_sweep(p, a, l)
        assert [f.rows for f in factors] == out
        assert [t.rows for t in tableaux] == carriers
        assert total_energy(p, a, l) == sum(hs[-1] for hs in energies)

    def test_widths_share_step_entries(self, monkeypatch):
        p = path(2, [[2]], [[1, 1]], [[1, 2], [2, 3]], [[1]], [[1]])
        keys = []
        monkeypatch.setattr(
            evolution, "_sweep_step", lambda u, b: keys.append((u, b)) or _sweep_step(u, b)
        )
        by_width = {}
        for l in range(1, 8):
            keys.clear()
            evolution._sweep_rows(p, 1, l)
            by_width[l] = set(keys)
        # the first step sees V^min(l, 1) at every width
        assert all(by_width[l] & by_width[l + 1] for l in range(1, 7))
        # once the carrier never runs short of vacuum, every step key repeats
        assert by_width[6] == by_width[7]
        _sweep_step.cache_clear()
        local_energy_distribution(p)
        assert _sweep_step.cache_info().hits > 0
