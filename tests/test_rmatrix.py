import functools
import gc
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kssbij import kernels, rmatrix
from kssbij.cli import harness, run
from kssbij.cli.codec import decode_path, dump, encode_path
from kssbij.cli.harness import (
    check_involutivity,
    check_swapping_pairs,
    check_yang_baxter,
    elements,
    run_verify,
    shape_menu,
)
from kssbij.evolution import Path
from kssbij.rmatrix import (
    TensorPair,
    apply_R,
    apply_affine_R,
    energy_H,
    product_tableau,
)
from kssbij.tableaux import Tableau, enumerate_kr, highest_element, row_word

import pins


def pair(n, left_rows, right_rows):
    return TensorPair(Tableau(n, left_rows), Tableau(n, right_rows))


WORKED = pair(5, [[1, 1], [2, 4]], [[3, 4], [4, 5], [5, 6]])


class TestProductTableau:
    def test_worked_example(self):
        assert product_tableau(WORKED).to_lists() == [
            [1, 1, 4],
            [2, 4],
            [3, 5],
            [4, 6],
            [5],
        ]

    def test_highest_pair(self):
        p = pair(1, [[1, 1]], [[1, 1]])
        assert product_tableau(p).to_lists() == [[1, 1, 1, 1]]

    def test_invariant_under_R(self):
        for p in _all_pairs(2, ((1, 2), (2, 1))):
            assert product_tableau(apply_R(p)) == product_tableau(p)


class TestEnergy:
    def test_worked_example(self):
        assert energy_H(WORKED) == 3

    def test_single_boxes(self):
        assert energy_H(pair(2, [[1]], [[2]])) == 1
        assert energy_H(pair(2, [[2]], [[1]])) == 0

    def test_highest_pairs_have_zero_energy(self):
        pairs = [
            (highest_element(r, s, 3), highest_element(rp, sp, 3))
            for r, s, rp, sp in itertools.product((1, 2, 3), repeat=4)
        ]
        cases, failures = check_swapping_pairs(pairs)
        assert failures == []
        assert cases == 81

    def test_right_highest_has_zero_energy(self):
        # H(v (x) u) = 0 for arbitrary rectangular v
        for v in enumerate_kr(2, 2, 2):
            for k, a in ((1, 1), (2, 1), (1, 2), (2, 2)):
                p = TensorPair(v, highest_element(a, k, 2))
                assert energy_H(p) == 0


class TestApplyR:
    def test_worked_example(self):
        image = apply_R(WORKED)
        assert image.left.to_lists() == [[1, 1], [2, 4], [3, 5]]
        assert image.right.to_lists() == [[4, 4], [5, 6]]

    def test_highest_pairs_swap(self):
        p = TensorPair(highest_element(1, 2, 2), highest_element(2, 1, 2))
        image = apply_R(p)
        assert image.left == p.right
        assert image.right == p.left

    def test_identity_on_equal_components(self):
        for r, s in ((1, 1), (2, 1), (1, 2)):
            for b in enumerate_kr(r, s, 2):
                for bp in enumerate_kr(r, s, 2):
                    p = TensorPair(b, bp)
                    assert apply_R(p) == p

    def test_involutive(self):
        cases, failures = check_involutivity(
            _all_pairs(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
        )
        assert failures == []
        assert cases > 0

    def test_conserves_letters(self):
        for p in _all_pairs(2, ((1, 2), (2, 2))):
            image = apply_R(p)
            assert _letters(image) == _letters(p)

    def test_rejects_mixed_ranks(self):
        with pytest.raises(ValueError):
            TensorPair(Tableau(1, [[1]]), Tableau(2, [[1]]))


class TestTensorPair:
    def test_immutable(self):
        p = TensorPair(Tableau(2, [[1, 2]]), Tableau(2, [[3]]))
        with pytest.raises(AttributeError, match="immutable"):
            p.left = p.right
        assert p.left == Tableau(2, [[1, 2]])

    def test_not_equal_to_other_types(self):
        p = TensorPair(Tableau(2, [[1, 2]]), Tableau(2, [[3]]))
        for other in (1, "x"):
            assert p.__eq__(other) is NotImplemented
            assert p != other

    def test_hash_agrees_with_eq_and_repr_names_both_factors(self):
        u, v = Tableau(2, [[1, 2]]), Tableau(2, [[1], [3]])
        p = TensorPair(u, v)
        same = TensorPair(Tableau(2, [[1, 2]]), Tableau(2, [[1], [3]]))
        assert p == same and hash(p) == hash(same)
        assert len({p, same, TensorPair(v, u)}) == 2
        assert repr(p) == "TensorPair(%r, %r)" % (u, v)


class TestAffine:
    """The affine R on (rows, mode) pairs: (u, m) (x) (v, k) -> (v', k - h) (x)
    (u', m + h) with v' (x) u' the R image and h = H(u (x) v). The worked
    example and the product-tableau count pin the sign of h, which the
    Yang-Baxter suite cannot see."""

    def test_worked_example_modes(self):
        x, y = apply_affine_R((WORKED.left.rows, 0), (WORKED.right.rows, 0))
        assert x == (((1, 1), (2, 4), (3, 5)), -3)
        assert y == (((4, 4), (5, 6)), 3)

    def test_highest_pair_keeps_modes(self):
        u = highest_element(1, 2, 2).rows
        v = highest_element(2, 1, 2).rows
        assert apply_affine_R((u, 5), (v, 7)) == ((v, 7), (u, 5))

    def test_mode_sum_preserved(self):
        for p in _all_pairs(2, ((1, 1), (2, 1))):
            (_, m), (_, k) = apply_affine_R((p.left.rows, 4), (p.right.rows, -1))
            assert m + k == 3

    def test_modes_shift_by_product_energy(self):
        # x' gains and y' loses the cells of (v <- row(u)) outside the sum of
        # the two shapes; product_tableau inserts by rows, apart from the step
        for n in (1, 2):
            for p in _all_pairs(n, shape_menu(n, 2)):
                h = _cells_outside(p)
                for m, k in ((0, 0), (5, -1)):
                    y, x = apply_affine_R((p.left.rows, m), (p.right.rows, k))
                    assert (x[1] - m, k - y[1]) == (h, h)


def _yang_baxter_reference(n, shape_triples, modes):
    """The six-call loop that check_yang_baxter shares moves of: every case
    applies the affine R three times on each side, shape triple by shape
    triple."""
    failures = []
    for shapes in shape_triples:
        pools = [list(enumerate_kr(*sh, n)) for sh in shapes]
        for (u, v, w), (m1, m2, m3) in itertools.product(itertools.product(*pools), modes):
            x, y, z = (u.rows, m1), (v.rows, m2), (w.rows, m3)
            a, b = harness.apply_affine_R(x, y)
            b, c = harness.apply_affine_R(b, z)
            a, b = harness.apply_affine_R(a, b)
            e, f = harness.apply_affine_R(y, z)
            d, e = harness.apply_affine_R(x, e)
            e, f = harness.apply_affine_R(e, f)
            if (a, b, c) != (d, e, f):
                failures.append(
                    "yang-baxter mismatch at modes (%d, %d, %d) for %s"
                    % (m1, m2, m3, dump(encode_path(Path(n, (u, v, w)))).rstrip())
                )
    return failures


def _mode_dependent_shift(x, y):
    # x' gains one more when its mode and the energy are both positive
    image, (u_new, m_new) = apply_affine_R(x, y)
    m = x[1]
    return image, (u_new, m_new + 1 if m > 0 and m_new > m else m_new)


def _flip_on_one_shape_pair(x, y):
    # u (x) v -> v (x) u, modes shifted as by R, for u in B^{2,1}, v in B^{1,2}
    y_new, x_new = apply_affine_R(x, y)
    (u, _), (v, _) = x, y
    if (len(u), len(u[0]), len(v), len(v[0])) == (2, 1, 1, 2):
        return (v, y_new[1]), (u, x_new[1])
    return y_new, x_new


class TestYangBaxter:
    def test_small_triple(self):
        pool = [b for sh in ((1, 1), (1, 2), (2, 1)) for b in enumerate_kr(*sh, 2)]
        cases, failures = check_yang_baxter(pool, [(0, 0, 0)])
        assert failures == []
        assert cases == (3 + 6 + 3) ** 3

    @pytest.mark.parametrize(
        "mutant, expected",
        [(_mode_dependent_shift, 2646), (_flip_on_one_shape_pair, 960)],
    )
    def test_shared_moves_compare_every_case(self, monkeypatch, mutant, expected):
        # a wrong affine R fails the same cases as in the unshared six-call
        # loop, over verify's default Yang-Baxter family
        monkeypatch.setattr(harness, "apply_affine_R", mutant)
        modes = ((0, 0, 0), (5, 3, 1))
        shared, reference = Counter(), Counter()
        cases = 0
        for n in (1, 2):
            triples = list(itertools.product(shape_menu(n, 2), repeat=3))
            c, failures = check_yang_baxter(elements(n, 2), modes)
            cases += c
            shared.update(failures)
            reference.update(_yang_baxter_reference(n, triples, modes))
        assert cases == 11914
        assert shared == reference
        assert sum(shared.values()) == expected

    def test_no_table_outlives_a_call(self, monkeypatch):
        # a clean run, then the same call under a mutant: the mutant's
        # failures show, so no move of the clean run was reused
        triples = list(itertools.product(shape_menu(2, 2), repeat=3))
        modes = ((0, 0, 0), (5, 3, 1))
        assert check_yang_baxter(elements(2, 2), modes) == (11664, [])
        monkeypatch.setattr(harness, "apply_affine_R", _mode_dependent_shift)
        cases, failures = check_yang_baxter(elements(2, 2), modes)
        assert cases == 11664 and failures
        assert Counter(failures) == Counter(_yang_baxter_reference(2, triples, modes))

    def test_tables_freed_without_the_cycle_collector(self):
        # each _Moves points back at its table; with the collector off, a
        # table that is not emptied would stay alive as a cycle
        gc.collect()
        gc.disable()
        try:
            assert check_yang_baxter(elements(2, 2), ((0, 0, 0), (5, 3, 1))) == (11664, [])
            alive = [o for o in gc.get_objects() if type(o) in (harness._AffineTable, harness._Moves)]
        finally:
            gc.enable()
        assert alive == []

    def test_each_move_computed_once_per_scope(self, monkeypatch):
        # verify's default family looks 53,040 moves up; a scope (one rank's
        # pool, one mode triple) computes each distinct pair once
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return apply_affine_R(x, y)

        monkeypatch.setattr(harness, "apply_affine_R", counting)
        report = run_verify(suites=["yang-baxter"])
        assert report.ok and report.total_cases == 11914
        assert len(calls) == 5312

    def test_no_pair_computed_twice_under_one_mode_triple(self, monkeypatch):
        # over verify's default family, one check per rank and mode triple:
        # its table holds the rank's whole pool, so no (x, y) repeats
        calls = Counter()

        def counting(x, y):
            calls[x, y] += 1
            return apply_affine_R(x, y)

        monkeypatch.setattr(harness, "apply_affine_R", counting)
        for n in (1, 2):
            for mode in ((0, 0, 0), (5, 3, 1)):
                calls.clear()
                assert check_yang_baxter(elements(n, 2), [mode])[1] == []
                assert calls and max(calls.values()) == 1, (n, mode)

    def test_failures_name_replayable_paths(self, monkeypatch, tmp_path, capsys):
        # each failure decodes to x (x) y (x) z, a three-factor path of pool
        # elements, and the led verb reads it
        monkeypatch.setattr(harness, "apply_affine_R", _flip_on_one_shape_pair)
        pool = elements(2, 2)
        _, failures = check_yang_baxter(pool, ((0, 0, 0), (5, 3, 1)))
        assert len(failures) == 960
        for msg in failures:
            head, doc = msg.split(" for ", 1)
            assert head in ("yang-baxter mismatch at modes (0, 0, 0)",
                            "yang-baxter mismatch at modes (5, 3, 1)")
            p = decode_path(json.loads(doc))
            assert len(p) == 3 and all(b in pool for b in p.factors)
        (tmp_path / "path.json").write_text(doc)
        assert run(["led", str(tmp_path / "path.json")]) == 0
        out, err = capsys.readouterr()
        assert out and not err


class TestSweepStep:
    """rmatrix._sweep_step(u, b) = (b', u', (H_1, ..., H_beta)) against the
    row-insertion product tableau, which shares no code with column insertion:
    b' (x) u' has the two shapes swapped and the same product as u (x) b, and
    H_k counts the cells of the product of u (x) prefix_k outside the sum of
    the two rectangles, where prefix_k is the rightmost k columns of b."""

    @staticmethod
    def _check(p):
        u, b = p.left, p.right
        b_new, u_new, energies = rmatrix._sweep_step.__wrapped__(u.rows, b.rows)
        image = TensorPair(Tableau(p.rank_n, b_new), Tableau(p.rank_n, u_new))
        assert (image.left.shape, image.right.shape) == (b.shape, u.shape)
        assert product_tableau(image) == product_tableau(p)
        assert energies == tuple(
            _cells_outside(TensorPair(u, Tableau(p.rank_n, [row[-k:] for row in b.rows])))
            for k in range(1, b.width() + 1)
        )

    def test_exhaustive_small_menus(self):
        # 4,385 pairs: n = 1 and 3 with s <= 2, n = 2 with s <= 3
        for n, max_s in ((1, 2), (2, 3), (3, 2)):
            for p in _all_pairs(n, shape_menu(n, max_s)):
                self._check(p)

    def test_uses_no_row_insertion(self, monkeypatch):
        # column insertion builds the products and eject_strip peels the R
        # image off
        pairs = [(p.left.rows, p.right.rows) for p in _all_pairs(2, shape_menu(2, 2))]
        want = [rmatrix._sweep_step.__wrapped__(*rows) for rows in pairs]

        def row_insertion(*args):
            raise RuntimeError("the step called row insertion")

        monkeypatch.setattr(kernels, "bump", row_insertion)
        monkeypatch.setattr(kernels, "insert_word", row_insertion)
        monkeypatch.setattr(kernels, "inverse_bump", row_insertion)
        assert [rmatrix._sweep_step.__wrapped__(*rows) for rows in pairs] == want

    def test_wrong_ejected_letter_raises(self, monkeypatch):
        # every ejected letter 1: the three-row left factor of the image has
        # no strictly increasing column, so the step raises, caches nothing
        # and computes the image again once the kernel is right
        eject_strip = kernels.eject_strip

        def eject_ones(rows, strip):
            return [1 for _ in eject_strip(rows, strip)]

        rows = (WORKED.left.rows, WORKED.right.rows)
        step = rmatrix._sweep_step
        step.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "eject_strip", eject_ones)
            for fn in (step, step.__wrapped__):
                with pytest.raises(AssertionError, match="not semistandard"):
                    fn(*rows)
        assert step.cache_info().currsize == 0
        assert step(*rows)[:2] == (apply_R(WORKED).left.rows, apply_R(WORKED).right.rows)

    def test_seeded_random_pairs(self):
        # n <= 4, r, s <= 3
        elements = {
            n: [list(enumerate_kr(r, s, n)) for r, s in shape_menu(min(n, 3), 3)]
            for n in (1, 2, 3, 4)
        }
        rng = random.Random(20071)
        for _ in range(400):
            n = rng.randint(1, 4)
            u, b = (rng.choice(rng.choice(elements[n])) for _ in range(2))
            self._check(TensorPair(u, b))


class TestPeelChecks:
    """`_peel` on corrupted product tableaux: each of its checks fires on a
    product that no pair of rectangles has."""

    @pytest.mark.parametrize(
        "rows, shapes, message",
        [
            # one cell outside the (1^1) rectangle for a strip of two
            ([[1, 2]], (1, 1, 2, 1), "malformed complement"),
            # the strip's cell ends row 1, but row 2 is as long
            ([[1, 2], [3, 4]], (1, 1, 1, 1), "strip cell is not a corner"),
            # the strip leaves rows of lengths (2, 1), not (2, 2)
            ([[1, 1, 2], [2]], (2, 2, 1, 1), "R image has wrong shapes"),
            # a cell stays outside the rectangle after the last strip
            ([[1, 2, 3]], (1, 1, 1, 1), "R image has wrong shapes"),
            # the strips eject the columns (2), then (3) to its left: the
            # row (3, 2) is not weakly increasing
            ([[1, 3, 2]], (1, 1, 1, 2), "not semistandard"),
        ],
    )
    def test_corrupted_product_raises(self, rows, shapes, message):
        with pytest.raises(AssertionError, match=message):
            rmatrix._peel(rows, *shapes)


class TestProductPass:
    """`rmatrix._product`, the uncached product pass of the step."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_right_to_left_matches_row_insertion(self, data):
        # Knuth equivalence: column-inserting the columns of b right to left,
        # each top letter first, into the columns of u gives the tableau that
        # row-inserting row(u) into b does
        n = data.draw(st.integers(1, 4))

        def element():
            r, s = data.draw(st.integers(1, n)), data.draw(st.integers(1, 3))
            return data.draw(st.sampled_from(_elements(n, r, s)))

        u, b = element(), element()
        cols, lengths, _ = rmatrix._product(u.rows, b.rows)
        rows = product_tableau(TensorPair(u, b)).rows
        assert cols == [[row[j] for row in rows if len(row) > j] for j in range(len(rows[0]))]
        assert lengths == [len(row) for row in rows]


class TestEmptyFactors:
    """With an empty factor on either side or both, R flips the pair, H = 0
    and each mode stays with its tableau."""

    def test_flip_zero_energy_modes_kept(self):
        empty = Tableau(2, ())
        for b in (Tableau(2, [[1, 2]]), Tableau(2, [[1], [3]]), highest_element(2, 2, 2), empty):
            for left, right in ((empty, b), (b, empty)):
                p = TensorPair(left, right)
                assert apply_R(p) == TensorPair(right, left)
                assert energy_H(p) == 0
                x, y = apply_affine_R((left.rows, 4), (right.rows, -1))
                assert (x, y) == ((right.rows, -1), (left.rows, 4))


class TestCaches:
    def test_cached_equals_uncached_while_evicting(self):
        # every pair on the shape menu for n <= 3, s <= 2, forward then
        # backward: more pairs than the cache holds
        pairs = []
        for n in (1, 2, 3):
            pairs.extend(_all_pairs(n, shape_menu(n, 2)))
        assert len(pairs) > rmatrix.CACHE_SIZE
        step = rmatrix._sweep_step
        step.cache_clear()
        for p in pairs + pairs[::-1]:
            rows = (p.left.rows, p.right.rows)
            assert step(*rows) == step.__wrapped__(*rows)
            image = apply_R(p)
            assert apply_R(image) == p
            assert energy_H(image) == energy_H(p)
        info = step.cache_info()
        assert info.currsize == info.maxsize == rmatrix.CACHE_SIZE
        assert info.misses > rmatrix.CACHE_SIZE

    def test_bounded_after_verify(self):
        # verify at its defaults fits in the one step cache: each of its
        # distinct moves misses once and runs the one product pass of its
        # miss, as many as the defaults' row of tests/pins.py allows. The run
        # empties the step cache and the kept family first
        code, report, passes, misses = pins.run(pins.DEFAULT)
        assert (code, report["total_failures"]) == (0, 0)
        info = rmatrix._sweep_step.cache_info()
        assert info.misses == info.currsize == passes == misses == 545
        assert passes == pins.PINS[pins.DEFAULT]["product_passes"]
        assert info.maxsize == rmatrix.CACHE_SIZE


def _cells_outside(p):
    # cells of the product tableau outside the coordinate-wise sum of the
    # rectangles (s^r) and (s'^r') of the two factors
    (r, s), (rp, sp) = ((t.n_rows, t.width()) for t in (p.left, p.right))
    return sum(
        max(0, w - (s if i < r else 0) - (sp if i < rp else 0))
        for i, w in enumerate(product_tableau(p).shape)
    )


@functools.lru_cache(maxsize=None)
def _elements(n, r, s):
    return list(enumerate_kr(r, s, n))


def _all_pairs(n, shapes):
    for (r, s), (rp, sp) in itertools.product(shapes, repeat=2):
        for b in enumerate_kr(r, s, n):
            for bp in enumerate_kr(rp, sp, n):
                yield TensorPair(b, bp)


def _letters(p):
    return sorted(row_word(p.left) + row_word(p.right))
