import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kssbij.tableaux import (
    Tableau,
    enumerate_kr,
    highest_element,
    insert,
    insert_word,
    inverse_insert,
    row_word,
)


class TestValidation:
    def test_accepts_semistandard(self):
        t = Tableau(3, [[1, 1, 2], [2, 3, 3]])
        assert t.shape == (3, 3)

    def test_rejects_row_decrease(self):
        with pytest.raises(ValueError):
            Tableau(3, [[2, 1]])

    def test_rejects_column_tie(self):
        with pytest.raises(ValueError):
            Tableau(3, [[1, 1], [1, 2]])

    def test_rejects_letter_out_of_range(self):
        with pytest.raises(ValueError):
            Tableau(2, [[4]])
        with pytest.raises(ValueError):
            Tableau(2, [[0]])

    def test_rejects_non_integer_entries(self):
        for rows in ([[True, 2]], [[1, 2.0]], [[1], [False]], [["1"]]):
            with pytest.raises(ValueError, match="outside alphabet"):
                Tableau(1, rows)
        for rank in (True, 1.0):
            with pytest.raises(ValueError):
                Tableau(rank, [[1, 2]])

    def test_rejects_growing_rows(self):
        with pytest.raises(ValueError):
            Tableau(3, [[1], [2, 2]])

    def test_empty_tableau(self):
        t = Tableau(2, ())
        assert t.is_empty()
        assert t.shape == ()
        assert t.is_rectangular()

    def test_immutable_and_hashable(self):
        t = Tableau(2, [[1, 2]])
        assert t == Tableau(2, [[1, 2]])
        assert hash(t) == hash(Tableau(2, [[1, 2]]))
        assert t != Tableau(3, [[1, 2]])
        with pytest.raises(AttributeError):
            t.rows = ()


class TestInsertion:
    def test_bump_chain_worked_example(self):
        t = Tableau(
            5,
            [
                [1, 1, 1, 1, 2, 2, 3, 4, 5, 5],
                [2, 2, 3, 3, 3, 4, 4, 5],
                [3, 4, 5, 5, 6],
            ],
        )
        out, cell = insert(t, 2)
        assert out.to_lists() == [
            [1, 1, 1, 1, 2, 2, 2, 4, 5, 5],
            [2, 2, 3, 3, 3, 3, 4, 5],
            [3, 4, 4, 5, 6],
            [5],
        ]
        assert cell == (4, 1)

    def test_append_when_largest(self):
        out, cell = insert(Tableau(3, [[1, 2]]), 4)
        assert out.to_lists() == [[1, 2, 4]]
        assert cell == (1, 3)

    def test_insert_into_empty(self):
        out, cell = insert(Tableau(3, ()), 2)
        assert out.to_lists() == [[2]]
        assert cell == (1, 1)

    def test_word_rebuilds_tableau(self):
        # inserting the row word of a tableau reproduces it
        t = Tableau(4, [[1, 1, 2, 4], [2, 2, 3, 5]])
        assert insert_word(Tableau(4, ()), row_word(t)) == t

    def test_word_from_iterator(self):
        # an iterator's letters are both checked and inserted
        assert insert_word(Tableau(2, ()), iter([2, 1, 3])).to_lists() == [[1, 3], [2]]
        with pytest.raises(ValueError):
            insert_word(Tableau(2, ()), iter([1, 4]))

    def test_rejects_non_integer_letters(self):
        # a str or None raised TypeError, and 2.0 or True reached the
        # tableau's own check, which named a cell of the result
        t = Tableau(2, [[1, 2]])
        for x in ("a", None, 2.0, True):
            with pytest.raises(ValueError, match="letter .* is not an integer"):
                insert(t, x)
            with pytest.raises(ValueError, match="letter .* is not an integer"):
                insert_word(Tableau(2, ()), [1, x])
        with pytest.raises(ValueError, match="outside alphabet 1..3"):
            insert(t, 4)

    def test_row_word_order(self):
        t = Tableau(4, [[1, 2], [3, 4], [5, 5]])
        assert row_word(t) == (5, 5, 3, 4, 1, 2)


class TestInverseInsertion:
    def test_inverts_insert(self):
        t = Tableau(5, [[1, 1, 2], [2, 3]])
        for x in (1, 2, 3, 4, 5, 6):
            out, cell = insert(t, x)
            back, letter = inverse_insert(out, cell)
            assert back == t
            assert letter == x

    def test_rejects_non_corner(self):
        t = Tableau(3, [[1, 1], [2, 2]])
        back, letter = inverse_insert(t, (2, 2))
        assert (back.to_lists(), letter) == ([[1, 2], [2]], 1)
        for cell in ((1, 2), (1, 1), (2, 1), (2, 3), (3, 1), (0, 2)):
            with pytest.raises(ValueError, match="not a corner"):
                inverse_insert(t, cell)

    def test_rejects_malformed_cell(self):
        # a float raised TypeError, and a bool or an integral float removed
        # the box of row 1 or col 1
        t = Tableau(2, [[1]])
        for cell in ((1.0, 1), (1, 1.0), (True, 1), (1, True), ("1", 1)):
            with pytest.raises(ValueError, match="not an integer"):
                inverse_insert(t, cell)
        for cell in (1, None, (1,), (1, 1, 1)):
            with pytest.raises(ValueError, match=r"not a \(row, col\) pair"):
                inverse_insert(t, cell)
        assert inverse_insert(t, (1, 1))[1] == 1

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12)
    )
    @settings(max_examples=60)
    def test_random_words_round_trip(self, letters):
        t = Tableau(3, ())
        trail = []
        for x in letters:
            t, cell = insert(t, x)
            trail.append((cell, x))
        for cell, x in reversed(trail):
            t, letter = inverse_insert(t, cell)
            assert letter == x
        assert t.is_empty()


class TestHighestElements:
    def test_shape_and_content(self):
        u = highest_element(3, 4, 4)
        assert u.to_lists() == [[1] * 4, [2] * 4, [3] * 4]

    def test_row_limit(self):
        with pytest.raises(ValueError):
            highest_element(3, 1, 2)


class TestEnumeration:
    # cardinalities frozen from the hook content formula
    COUNTS = {
        (1, 1, 1): 2,
        (1, 1, 2): 3,
        (1, 2, 2): 6,
        (2, 1, 2): 3,
        (2, 2, 2): 6,
        (2, 2, 3): 20,
        (1, 3, 1): 4,
        (3, 1, 3): 4,
    }

    def test_counts(self):
        for (r, s, n), want in self.COUNTS.items():
            got = list(enumerate_kr(r, s, n))
            assert len(got) == want, (r, s, n)

    def test_rejects_rows_beyond_rank(self):
        with pytest.raises(ValueError):
            list(enumerate_kr(2, 1, 1))

    def test_rejects_non_integer_shape(self):
        # (1, 2.0, 2) used to raise TypeError and (True, 1, 2) ran as r = 1
        for r, s in ((1, 2.0), (True, 1), (1, True), (1.0, 1), (0, 1), (1, 0)):
            with pytest.raises(ValueError):
                list(enumerate_kr(r, s, 2))

    def test_elements_distinct_valid_and_sorted(self):
        seen = list(enumerate_kr(2, 2, 3))
        assert len(set(seen)) == len(seen)
        words = [row_word(t) for t in seen]
        assert words == sorted(words)
        for t in seen:
            assert t.shape == (2, 2)
            assert t.rank_n == 3

    def test_contains_highest(self):
        assert highest_element(2, 2, 3) in set(enumerate_kr(2, 2, 3))

    def test_built_without_revalidation(self, monkeypatch):
        # each element equals the validated tableau of its rows, although
        # the validating constructor never runs
        calls = []
        init = Tableau.__init__

        def counted(self, rank_n, rows):
            calls.append(rows)
            init(self, rank_n, rows)

        monkeypatch.setattr(Tableau, "__init__", counted)
        shapes = [(r, s, n) for n in (1, 2, 3) for r in range(1, n + 1) for s in (1, 2, 3)]
        found = {(r, s, n): list(enumerate_kr(r, s, n)) for r, s, n in shapes}
        assert calls == []
        monkeypatch.undo()
        for (r, s, n), elements in found.items():
            assert elements == [Tableau(n, t.rows) for t in elements]
            for t in elements:
                assert type(t.rows) is tuple
                assert all(type(row) is tuple for row in t.rows)
                assert all(type(x) is int for row in t.rows for x in row)
