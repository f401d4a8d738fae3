import itertools
import random

import pytest

from kssbij import kernels, rmatrix
from kssbij.cli.harness import (
    _phi_memo,
    affine_triples,
    check_involutivity,
    check_swapping_pairs,
    check_yang_baxter,
    run_verify,
    shape_menu,
)
from kssbij.rmatrix import (
    TensorPair,
    apply_R,
    apply_affine_R,
    energy_H,
    product_tableau,
)
from kssbij.tableaux import Tableau, enumerate_kr, highest_element, row_word


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


class TestYangBaxter:
    def test_small_triple(self):
        triples = affine_triples(2, [((1, 1), (1, 2), (2, 1))], [(0, 0, 0)])
        cases, failures = check_yang_baxter(triples)
        assert failures == []
        assert cases == 3 * 6 * 3


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
        # col_bump builds the products and inverse_bump peels the R image off
        pairs = [(p.left.rows, p.right.rows) for p in _all_pairs(2, shape_menu(2, 2))]
        want = [rmatrix._sweep_step.__wrapped__(*rows) for rows in pairs]

        def row_insertion(*args):
            raise RuntimeError("the step called row insertion")

        monkeypatch.setattr(kernels, "bump", row_insertion)
        monkeypatch.setattr(kernels, "insert_word", row_insertion)
        assert [rmatrix._sweep_step.__wrapped__(*rows) for rows in pairs] == want

    def test_wrong_ejected_letter_raises(self, monkeypatch):
        # every ejected letter 1: the three-row left factor of the image has
        # no strictly increasing column, so the step raises, caches nothing
        # and computes the image again once the kernel is right
        inverse_bump = kernels.inverse_bump

        def eject_one(rows, i):
            inverse_bump(rows, i)
            return 1

        rows = (WORKED.left.rows, WORKED.right.rows)
        step = rmatrix._sweep_step
        step.cache_clear()
        with monkeypatch.context() as patched:
            patched.setattr(kernels, "inverse_bump", eject_one)
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
        # a warm phi memo would skip the steps of the phi suites
        step = rmatrix._sweep_step
        step.cache_clear()
        _phi_memo.cache_clear()
        run_verify(1, 2, 1)
        info = step.cache_info()
        assert info.misses > 0
        assert isinstance(info.maxsize, int)
        assert info.currsize <= info.maxsize
        # verify at its defaults fits in the cache: every step misses once
        step.cache_clear()
        _phi_memo.cache_clear()
        run_verify(2, 3, 2)
        info = step.cache_info()
        assert info.misses == info.currsize


def _cells_outside(p):
    # cells of the product tableau outside the coordinate-wise sum of the
    # rectangles (s^r) and (s'^r') of the two factors
    (r, s), (rp, sp) = ((t.n_rows, t.width()) for t in (p.left, p.right))
    return sum(
        max(0, w - (s if i < r else 0) - (sp if i < rp else 0))
        for i, w in enumerate(product_tableau(p).shape)
    )


def _all_pairs(n, shapes):
    for (r, s), (rp, sp) in itertools.product(shapes, repeat=2):
        for b in enumerate_kr(r, s, n):
            for bp in enumerate_kr(rp, sp, n):
                yield TensorPair(b, bp)


def _letters(p):
    return sorted(row_word(p.left) + row_word(p.right))
