import re
from collections import Counter
from itertools import product
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kssbij import evolution
from kssbij.cli.harness import check_energy_padding, family
from kssbij.evolution import (
    Path,
    carrier_sweep,
    energy_matrix,
    local_energy_distribution,
    time_evolution,
    total_energy,
)
from kssbij.kss import phi_energy, phi_inverse
from kssbij.rmatrix import _sweep_step
from kssbij.tableaux import Tableau, enumerate_kr, highest_element


def path(n, *factor_rows):
    return Path(n, [Tableau(n, rows) for rows in factor_rows])


# running example used throughout: three factors over the rank 4 alphabet
EXAMPLE = path(4, [[1, 1, 1, 1]], [[1, 2], [2, 3], [3, 4]], [[1, 1, 2, 4], [2, 2, 3, 5]])


def energy(em, l, j, k):
    # E(l, j, k) of an energy_matrix, with the zero boundaries
    # E(0, j, k) = E(l, j, 0) = 0
    return em[l - 1][j - 1][k - 1] if l and k else 0


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

    def test_result_is_not_revalidated(self, monkeypatch):
        # the factors are R images of the validated path's rows
        want = time_evolution(EXAMPLE, 2, 3)

        def refuse(self, rank_n, factors):
            raise AssertionError("Path validated again")

        monkeypatch.setattr(Path, "__init__", refuse)
        assert time_evolution(EXAMPLE, 2, 3) == want

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

    def test_rows_sweep_matches_carrier_sweep(self):
        # verify's linearization check reads T(p) and the returning carrier
        # off _evolve; carrier_sweep, with full carrier tableaux, is the
        # reference, over every (p, a, l) of the suite at the defaults
        fam = family(2, 3, 2)
        returned = Counter()
        for p in fam.paths:
            for a in range(1, p.rank_n + 1):
                for l in range(1, 4):
                    factors, carriers = carrier_sweep(p, a, l)
                    clean = carriers[-1] == carriers[0]
                    assert evolution._evolve(p, a, l) == (tuple(f.rows for f in factors), clean)
                    returned[clean] += 1
        assert returned == {True: 634, False: 1661}

    def test_sweep_returns_all_carriers(self):
        out, carriers = carrier_sweep(EXAMPLE, 1, 2)
        assert len(carriers) == len(EXAMPLE.factors) + 1
        assert carriers[0] == highest_element(1, 2, 4)
        assert len(out) == len(EXAMPLE.factors)
        assert Path(4, out) == time_evolution(EXAMPLE, 1, 2)


class TestEnergyMatrix:
    def test_boundary_zeros(self):
        # the matrix holds l = 1..l_max and k = 1..beta_j, no boundary
        em = energy_matrix(EXAMPLE, 1, 3)
        assert len(em) == 3
        for row in em:
            assert [len(es) for es in row] == [b.width() for b in EXAMPLE.factors]
        for j in (1, 2, 3):
            for k in range(EXAMPLE.factors[j - 1].shape[0] + 1):
                assert energy(em, 0, j, k) == 0
            for l in (1, 2, 3):
                assert energy(em, l, j, 0) == 0

    def test_monotone_in_l_and_k(self):
        for a in (1, 2, 3, 4):
            em = energy_matrix(EXAMPLE, a, 4)
            for j, b in enumerate(EXAMPLE.factors, start=1):
                for l in range(1, 5):
                    for k in range(1, b.shape[0] + 1):
                        assert energy(em, l, j, k) >= energy(em, l - 1, j, k)
                        assert energy(em, l, j, k) >= energy(em, l, j, k - 1)


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
                    (energy(em, l, j, k) - energy(em, l, j, k - 1))
                    - (energy(em, l - 1, j, k) - energy(em, l - 1, j, k - 1))
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

    def test_no_sweep_from_the_largest_letter_on(self, monkeypatch):
        # largest letter 4 at rank 6: levels 4, 5 and 6 have W_a = 0
        p = path(6, [[1, 2]], [[1, 3], [2, 4]], [[2]])
        levels = []
        sweep = evolution._sweep_rows
        monkeypatch.setattr(
            evolution, "_sweep_rows", lambda p, a, *args: levels.append(a) or sweep(p, a, *args)
        )
        led = local_energy_distribution(p)
        assert set(levels) == {1, 2, 3}
        assert led.tables[3:] == [[[0] * 5]] * 3
        assert led.tables == reference_tables(p)

    def test_rows_sum_to_the_level_weight(self):
        for p in (EXAMPLE, path(2, [[2]], [[1]], [[2]], [[1]]), path(3, [[1, 2], [3, 4]])):
            weights = evolution._level_weights(p)
            led = local_energy_distribution(p)
            assert [sum(map(sum, t)) for t in led.tables] == weights
            assert led.tables == reference_tables(p)

    @pytest.mark.parametrize(
        "shift, message",
        [(1, "level 1: zero row 2 before the rows sum to W = 3"),
         (-1, "level 1: rows sum to 2, past W = 1")],
    )
    def test_wrong_level_weight_raises(self, monkeypatch, shift, message):
        # level 1: one row that sums to 2 (two solitons of length 1), then zeros
        p = path(2, [[2]], [[1]], [[2]], [[1]])
        weights = evolution._level_weights
        monkeypatch.setattr(
            evolution, "_level_weights", lambda p: [weights(p)[0] + shift] + weights(p)[1:]
        )
        with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
            local_energy_distribution(p)


class TestPathType:
    def test_equality_and_shapes(self):
        p = path(2, [[1, 2]], [[2]])
        assert p == path(2, [[1, 2]], [[2]])
        assert p.shapes() == [(1, 2), (1, 1)]

    def test_not_equal_to_other_types(self):
        p = path(2, [[1, 2]], [[2]])
        for other in (1, "x"):
            assert p.__eq__(other) is NotImplemented
            assert p != other

    def test_hash_is_cached_and_agrees_across_constructors(self):
        p = path(2, [[1, 2]], [[2]])
        trusted = Path._trusted(2, tuple(Tableau._trusted(2, b.rows) for b in p.factors))
        back = phi_inverse(phi_energy(p))
        # neither constructor computes the hash
        assert not any(hasattr(x, "_hash") for x in (p, trusted, back))
        assert p == trusted == back
        first = hash(p)
        assert hash(trusted) == hash(back) == first
        assert hash(p) == p._hash == first
        with pytest.raises(AttributeError, match="^Path is immutable$"):
            p._hash = 0
        assert hash(p) == first
        assert repr(p) == "Path(n=2, %r (x) %r)" % p.factors


def pad(rows):
    """One more vacuum column (1, ..., a) in front of the rows of B^{a,l}."""
    return tuple((i,) + row for i, row in enumerate(rows, start=1))


def vacuum_columns(rows):
    # a column is (1, ..., a) exactly when its bottom letter is a
    return rows[-1].count(len(rows))


def top_columns(n, rows):
    # a column is A = (n - a + 2, ..., n + 1) exactly when its top letter is n - a + 2
    return rows[0].count(n - len(rows) + 2)


def append_top(n, rows):
    """One more column A = (n - a + 2, ..., n + 1) behind the rows of B^{a,l}."""
    return tuple(row + (n - len(rows) + i,) for i, row in enumerate(rows, start=2))


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


def reference_tables(p):
    """The LED tables of p from `reference_sweep`: double differences of the
    energies, each table cut at its first all-zero row."""
    tables = []
    for a in range(1, p.rank_n + 1):
        rows, d_prev, l = [], None, 0
        while not rows or any(rows[-1]):
            l += 1
            d = [e - e0 for hs in reference_sweep(p, a, l)[2] for e0, e in zip((0,) + hs, hs)]
            rows.append([x - y for x, y in zip(d, d_prev or [0] * len(d))])
            d_prev = d
        tables.append(rows)
    return tables


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


class TestMirrorLemma:
    def test_trailing_column_commutes_with_the_step(self):
        # u with m >= s trailing columns A against every b of width s:
        # step(u + A, b) = (b', u' + A, hs) where step(u, b) = (b', u', hs)
        step = _sweep_step.__wrapped__
        checked = 0
        for n in (1, 2, 3):
            for a, l, r, s in product(range(1, n + 1), range(1, 6), range(1, n + 1), range(1, 4)):
                us = [u.rows for u in enumerate_kr(a, l, n) if top_columns(n, u.rows) >= s]
                for u, b in product(us, [b.rows for b in enumerate_kr(r, s, n)]):
                    b2, u2, hs = step(u, b)
                    assert step(append_top(n, u), b) == (b2, append_top(n, u2), hs)
                    checked += 1
        assert checked == 16902

    def test_threshold_is_tight(self):
        # m = s - 1 = 1 column A = (2) at n = 1 against a factor of width 2
        step = _sweep_step.__wrapped__
        u, b = ((2,),), ((1, 1),)
        assert step(u, b) == (((1, 2),), ((1,),), (0, 0))
        assert step(append_top(1, u), b) == (((2, 2),), ((1, 1),), (0, 0))


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
        assert [evolution._expand(n, a, c) for c in got_carriers] == carriers
        # the step sees each carrier with min(V, s) leading columns V and
        # min(A, s) trailing columns A
        for u, key, b in zip(carriers, keys, p.factors):
            lead = max(0, vacuum_columns(u) - b.width())
            trail = max(0, top_columns(n, u) - b.width())
            assert key == tuple(row[lead : len(row) - trail] for row in u)
        factors, tableaux = carrier_sweep(p, a, l)
        assert [f.rows for f in factors] == out
        assert [t.rows for t in tableaux] == carriers
        assert evolution._evolve(p, a, l) == (tuple(out), carriers[-1] == carriers[0])
        # the energy sweeps against the full-row reference
        assert total_energy(p, a, l) == sum(hs[-1] for hs in energies)
        em = energy_matrix(p, a, l)
        columns = [(j, k) for j, b in enumerate(p.factors, 1) for k in range(1, b.width() + 1)]
        assert [[energy(em, m, j, k) for j, k in columns] for m in range(1, l + 1)] == [
            [e for hs in reference_sweep(p, a, m)[2] for e in hs] for m in range(1, l + 1)
        ]
        assert local_energy_distribution(p).tables == reference_tables(p)

    def test_evolution_reuses_the_energy_sweeps_steps(self):
        # every move of an energy sweep is a full step, its last one too, so
        # evolving at each (a, l) that the LED swept (level a sweeps every
        # width but that of its closing zero row) misses no step
        p = path(2, [[1], [2]], [[1, 2]], [[2, 2, 3]])
        _sweep_step.cache_clear()
        tables = local_energy_distribution(p).tables
        misses = _sweep_step.cache_info().misses
        swept = [(a, l) for a, rows in enumerate(tables, 1) for l in range(1, len(rows))]
        assert len(swept) == 4
        for a, l in swept:
            evolution._evolve(p, a, l)
        assert _sweep_step.cache_info().misses == misses

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
        # the LED sweeps only until a level's rows sum to W_a: level 1 of q
        # (a soliton of length 2) takes widths 1 and 2, which share entries
        q = path(2, [[2]], [[2]], [[1]], [[1]])
        _sweep_step.cache_clear()
        assert len(local_energy_distribution(q).tables[0]) == 3
        assert _sweep_step.cache_info().hits > 0

    def test_top_columns_share_step_entries(self, monkeypatch):
        # at n = 1 the carrier of level 1 fills with the top letter 2, whose
        # column is A: the step sees at most s = 1 of its columns A, so the
        # 30 steps of widths 1..6 use 5 keys, though the carriers hold up to
        # three columns A
        p = path(1, [[2]], [[2]], [[2]], [[1]], [[2]])
        keys = []
        monkeypatch.setattr(
            evolution, "_sweep_step", lambda u, b: keys.append((u, b)) or _sweep_step(u, b)
        )
        for l in range(1, 7):
            _, carriers, _ = evolution._sweep_rows(p, 1, l)
            # one column A is in u, the others are set aside
            assert max(t for _, _, t in carriers) == min(l, 3) - 1
            assert [evolution._expand(1, 1, c) for c in carriers] == reference_sweep(p, 1, l)[1]
        assert len(keys) == 30
        assert set(keys) == {
            (((1,),), ((2,),)),
            (((1, 2),), ((2,),)),
            (((2,),), ((2,),)),
            (((2,),), ((1,),)),
            (((1, 2),), ((1,),)),
        }


def random_factor(rng, r, s, n):
    # a semistandard r x s tableau over 1..n+1, each cell uniform on its range
    rows = []
    for i in range(r):
        row = []
        for j in range(s):
            lo = max(row[j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
            row.append(rng.randint(lo, n + 1 - (r - 1 - i)))
        rows.append(row)
    return Tableau(n, rows)


class TestHeavyPaths:
    def test_led_and_round_trip_against_the_reference(self, monkeypatch):
        # the largest paths of the path-to-rc benchmark: n = 4, six factors
        # B^{r,s} with r, s <= 4, where carriers set aside both kinds of
        # column; the oracle sweeps full rows, uncached, at every width
        spare = []
        sweep = evolution._sweep_rows

        def recording(p, a, l):
            out = sweep(p, a, l)
            spare.extend((k > 0, t > 0) for k, _, t in out[1][1:])
            return out

        monkeypatch.setattr(evolution, "_sweep_rows", recording)
        rng = Random(20261019)
        for _ in range(8):
            p = Path(4, [random_factor(rng, rng.randint(1, 4), rng.randint(1, 4), 4)
                         for _ in range(6)])
            assert local_energy_distribution(p).tables == reference_tables(p)
            assert phi_inverse(phi_energy(p)) == p
        # carriers past the first factor hold spare V and spare A columns
        assert (True, True) in spare
