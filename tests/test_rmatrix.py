import itertools

import pytest

from kssbij import rmatrix
from kssbij.cli.harness import (
    affine_triples,
    check_yang_baxter,
    run_verify,
    shape_menu,
)
from kssbij.rmatrix import (
    AffineElement,
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
        for r, s, rp, sp in itertools.product((1, 2, 3), repeat=4):
            p = TensorPair(highest_element(r, s, 3), highest_element(rp, sp, 3))
            assert energy_H(p) == 0, (r, s, rp, sp)

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
        for p in _all_pairs(2, ((1, 1), (1, 2), (2, 1), (2, 2))):
            assert apply_R(apply_R(p)) == p

    def test_conserves_letters(self):
        for p in _all_pairs(2, ((1, 2), (2, 2))):
            image = apply_R(p)
            assert _letters(image) == _letters(p)

    def test_rejects_mixed_ranks(self):
        with pytest.raises(ValueError):
            TensorPair(Tableau(1, [[1]]), Tableau(2, [[1]]))


class TestAffine:
    def test_worked_example_modes(self):
        x, y = apply_affine_R(
            AffineElement(WORKED.left, 0), AffineElement(WORKED.right, 0)
        )
        assert x.mode == -3
        assert y.mode == 3
        assert x.tableau.to_lists() == [[1, 1], [2, 4], [3, 5]]
        assert y.tableau.to_lists() == [[4, 4], [5, 6]]

    def test_highest_pair_keeps_modes(self):
        u = highest_element(1, 2, 2)
        v = highest_element(2, 1, 2)
        x, y = apply_affine_R(AffineElement(u, 5), AffineElement(v, 7))
        assert (x.tableau, x.mode) == (v, 7)
        assert (y.tableau, y.mode) == (u, 5)

    def test_mode_sum_preserved(self):
        for p in _all_pairs(2, ((1, 1), (2, 1))):
            x, y = apply_affine_R(
                AffineElement(p.left, 4), AffineElement(p.right, -1)
            )
            assert x.mode + y.mode == 3


class TestYangBaxter:
    def test_small_triple(self):
        triples = affine_triples(2, [((1, 1), (1, 2), (2, 1))], [(0, 0, 0)])
        cases, failures = check_yang_baxter(triples)
        assert failures == []
        assert cases == 3 * 6 * 3


class TestCaches:
    def test_cached_equals_uncached_while_evicting(self):
        # every pair on the shape menu for n <= 2, s <= 2, forward then
        # backward: more pairs than the caches hold
        pairs = []
        for n in (1, 2):
            pairs.extend(_all_pairs(n, shape_menu(n, 2)))
        assert len(pairs) > rmatrix.CACHE_SIZE
        rmatrix._image.cache_clear()
        rmatrix._energy.cache_clear()
        for p in pairs + pairs[::-1]:
            rows = (p.left.rows, p.right.rows)
            assert rmatrix._image(*rows) == rmatrix._image.__wrapped__(*rows)
            assert rmatrix._energy(*rows) == rmatrix._energy.__wrapped__(*rows)
            image = apply_R(p)
            assert apply_R(image) == p
            assert energy_H(image) == energy_H(p)
        for cached in (rmatrix._image, rmatrix._energy):
            info = cached.cache_info()
            assert info.currsize == info.maxsize == rmatrix.CACHE_SIZE
            assert info.misses > rmatrix.CACHE_SIZE

    def test_bounded_after_verify(self):
        run_verify(1, 2, 1)
        for cached in (rmatrix._image, rmatrix._energy):
            info = cached.cache_info()
            assert isinstance(info.maxsize, int)
            assert info.currsize <= info.maxsize


def _all_pairs(n, shapes):
    for (r, s), (rp, sp) in itertools.product(shapes, repeat=2):
        for b in enumerate_kr(r, s, n):
            for bp in enumerate_kr(rp, sp, n):
                yield TensorPair(b, bp)


def _letters(p):
    return sorted(row_word(p.left) + row_word(p.right))
