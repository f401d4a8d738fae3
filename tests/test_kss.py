import importlib.util
import io
import itertools
import json
import random
import sys
from pathlib import Path as FilePath

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kssbij import kss, rigged, rmatrix
from kssbij.cli import run as cli_run
from kssbij.cli.codec import decode_rc, encode_rc
from kssbij.cli.harness import (
    Family,
    check_energy_equals_q,
    check_energy_formula,
    check_removal_order,
    family,
)
from kssbij.evolution import LocalEnergyDistribution, Path, local_energy_distribution
from kssbij.kss import (
    compute_rigging,
    extract_groups,
    linearized_image,
    phi_energy,
    phi_inverse,
    quantum_space_of,
    remove_row,
    removal_order_equivalence,
)
from kssbij.rigged import RiggedConfiguration, vacancy, validate
from kssbij.rmatrix import TensorPair, apply_R
from kssbij.tableaux import Tableau, _constant_rows, enumerate_kr, highest_element


def path(n, *factor_rows):
    return Path(n, [Tableau(n, rows) for rows in factor_rows])


EXAMPLE = path(4, [[1, 1, 1, 1]], [[1, 2], [2, 3], [3, 4]], [[1, 1, 2, 4], [2, 2, 3, 5]])

NON_HIGHEST = path(
    3,
    [[1, 2, 2], [2, 3, 3]],
    [[1, 1]],
    [[1, 1, 2, 2], [2, 3, 3, 3]],
    [[1, 1, 1], [2, 2, 2], [3, 3, 4]],
    [[1, 1, 2, 3, 3], [2, 3, 4, 4, 4]],
    [[1, 1, 1, 2], [2, 2, 2, 3], [3, 3, 3, 4]],
)


def rc_a1():
    return RiggedConfiguration(
        4,
        [[4], [4], [2], []],
        [[(3, 1)], [(3, 0), (1, 0)], [(2, 0), (1, 0)], [(1, 0)]],
    )


class TestGroupExtraction:
    def test_example_level_one(self):
        led = local_energy_distribution(EXAMPLE)
        groups = extract_groups(led, 1)
        assert len(groups) == 1
        assert groups[0].cardinality == 3
        assert groups[0].endpoint == (3, 2)

    def test_example_level_two(self):
        # the rightmost top entry has no chainable cell strictly to its
        # right, so it forms a singleton; the size-3 chain starts second
        led = local_energy_distribution(EXAMPLE)
        groups = extract_groups(led, 2)
        assert [g.cardinality for g in groups] == [1, 3]
        assert groups[0].endpoint == (3, 1)
        assert groups[1].endpoint == (3, 2)

    def test_all_zero_table(self):
        p = Path(3, [highest_element(2, 2, 3)])
        led = local_energy_distribution(p)
        for a in (1, 2, 3):
            assert extract_groups(led, a) == []

    def test_chain_moves_strictly_right(self):
        led = local_energy_distribution(NON_HIGHEST)
        for a in (1, 2, 3):
            for g in extract_groups(led, a):
                cols = [c for _, c in g.cells]
                assert all(x < y for x, y in zip(cols, cols[1:]))
                assert len(g.cells) == g.cardinality

    @pytest.mark.parametrize(
        "table",
        [
            # row 1 empties while row 2 is still positive
            [[0, 1], [1, 0]],
            # row 1 is zero from the start
            [[0, 0], [1, 0], [0, 0]],
        ],
    )
    def test_stuck_table_raises(self, table):
        led = LocalEnergyDistribution(1, [(1, 1), (1, 2)], [table])
        with pytest.raises(AssertionError, match="stuck"):
            extract_groups(led, 1)


class TestRigging:
    def test_example_values(self):
        led = local_energy_distribution(EXAMPLE)
        assert compute_rigging(EXAMPLE, led, extract_groups(led, 1)[0]) == 1
        assert [
            compute_rigging(EXAMPLE, led, g) for g in extract_groups(led, 2)
        ] == [0, 0]
        assert compute_rigging(EXAMPLE, led, extract_groups(led, 4)[0]) == 0

    def test_reads_only_neighbouring_levels(self):
        # a group of level a reads the tables of levels a - 1, a and a + 1;
        # the other tables raise when read
        class Unread:
            def __getitem__(self, i):
                raise AssertionError("table read")

            def __iter__(self):
                raise AssertionError("table read")

        led = local_energy_distribution(EXAMPLE)
        checked = 0
        for a in range(1, EXAMPLE.rank_n + 1):
            tables = [t if abs(b - a) <= 1 else Unread() for b, t in enumerate(led.tables, 1)]
            for g in extract_groups(led, a):
                got = compute_rigging(EXAMPLE, led._replace(tables=tables), g)
                assert got == compute_rigging(EXAMPLE, led, g)
                checked += 1
        assert checked == 6


class TestQuantumSpace:
    def test_example_shapes(self):
        nu, origins = quantum_space_of(EXAMPLE)
        assert nu == [[4], [4], [2], []]
        assert origins == [[1], [3], [2], []]

    def test_empty_path(self):
        nu, origins = quantum_space_of(Path(2, []))
        assert nu == [[], []]

    def test_single_highest(self):
        nu, _ = quantum_space_of(Path(3, [highest_element(2, 3, 3)]))
        assert nu == [[], [3], []]

    def test_factor_too_tall(self):
        with pytest.raises(ValueError):
            quantum_space_of(Path(1, [Tableau(1, [[1], [2]])]))


class TestPhi:
    def test_worked_example(self):
        rc = phi_energy(EXAMPLE)
        assert rc.nu == ((4,), (4,), (2,), ())
        assert rc == rc_a1()
        assert validate(rc, "restricted") == []

    def test_non_highest_example(self):
        rc = phi_energy(NON_HIGHEST)
        assert [sorted(level) for level in rc.nu] == [[2], [3, 4, 5], [3, 4]]
        assert sorted(rc.mu[0], reverse=True) == [(4, -2), (2, -2), (2, -2)]
        assert sorted(rc.mu[1], reverse=True) == [(4, 0), (4, 0), (2, 0), (2, 0)]
        assert sorted(rc.mu[2], reverse=True) == [(3, 4), (2, 3)]
        assert validate(rc, "unrestricted") == []
        assert validate(rc, "restricted")

    def test_single_highest_factor(self):
        rc = phi_energy(Path(3, [highest_element(2, 3, 3)]))
        assert all(level == () for level in rc.mu)
        assert rc.nu == ((), (3,), ())

    def test_energy_equals_q(self):
        cases, failures = check_energy_equals_q(Family([EXAMPLE]))
        assert failures == []
        assert cases == 4 * 11  # a <= 4, l <= 10 columns + 1


def fields(rc):
    return rc.nu, rc.mu, rc.origins


class TestBoxAddition:
    """kss.phi, KSS's box addition, against phi_energy, the paper's
    construction, field by field."""

    @pytest.mark.parametrize("p", [EXAMPLE, NON_HIGHEST])
    def test_examples(self, p):
        rc = kss.phi(p)
        assert fields(rc) == fields(phi_energy(p))
        assert phi_inverse(rc) == p

    def test_family_at_max_n_3(self):
        # the paper's main theorem on every path of verify's --max-n 3 family
        assert check_energy_formula(family(3, 3, 2)) == (3402, [])

    def test_factor_too_tall_is_quantum_space_of_error(self, monkeypatch):
        p = Path(1, [Tableau(1, [[1], [2]])])
        with pytest.raises(ValueError, match="^factor 1 has too many rows for rank 1$"):
            kss.phi(p)

        def refused(q):
            raise ValueError("refused")

        # the check is quantum_space_of's own, made before any box moves
        monkeypatch.setattr(kss, "quantum_space_of", refused)
        with pytest.raises(ValueError, match="^refused$"):
            kss.phi(EXAMPLE)

    def test_longest_singular_row_comes_first(self, monkeypatch):
        # a 200-box chain of B^{1,1}, n = 3: with each level's rows in
        # storage order, box addition asked for 2,438 vacancy numbers; kept
        # longest first, a level's scan stops at its first singular row
        rng = random.Random(3)
        p = Path(3, [Tableau(3, [[rng.randint(1, 4)]]) for _ in range(200)])
        calls = []
        vacancy_ = kss._vacancy

        def counted(*args):
            calls.append(args)
            return vacancy_(*args)

        monkeypatch.setattr(kss, "_vacancy", counted)
        rc = kss.phi(p)
        assert len(calls) <= 1037
        monkeypatch.undo()
        assert fields(rc) == fields(phi_energy(p))


class TestPhiInverse:
    def test_worked_example(self):
        assert phi_inverse(rc_a1(), order=[1, 2, 0]) == EXAMPLE

    def test_single_box(self):
        rc = RiggedConfiguration(1, [[1]], [[]])
        assert phi_inverse(rc) == path(1, [[1]])

    def test_rejects_invalid(self):
        rc = RiggedConfiguration(1, [[1]], [[(1, 2)]])
        with pytest.raises(ValueError):
            phi_inverse(rc)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            phi_inverse(rc_a1(), order=[0, 0, 1])
        with pytest.raises(ValueError):
            phi_inverse(rc_a1(), order=[0, 1])

    def test_rejects_non_integer_order(self):
        # int() used to truncate [1.9, 2.2, 0.1] to the valid order [1, 2, 0]
        for order in ([1.9, 2.2, 0.1], [1.0, 2, 0], [True, 2, 0], ["1", 2, 0]):
            with pytest.raises(ValueError, match="not an integer"):
                phi_inverse(rc_a1(), order)

    def test_default_order_prefers_origins(self):
        # reverse origin order, which here is not reverse flat order
        rc = phi_energy(EXAMPLE)
        assert rc.origins == ((1,), (3,), (2,), ())
        assert phi_inverse(rc) == phi_inverse(rc, [1, 2, 0]) == EXAMPLE

    def test_default_order_without_origins(self):
        assert phi_inverse(rc_a1()) == phi_inverse(rc_a1(), [2, 1, 0])


class TestTrace:
    def test_checkpoints_and_step_invariant(self):
        # the first micro-steps of removing quantum row 1 (flat index 1)
        rc = rc_a1()
        state = kss._State(rc, None)
        assert vacancy(state, 1, 3) == 1
        assert kss._micro_step(state, 1, state.flats[1].index(1)) == 2
        # while the transit box sits at level 0, p_3^(1) reads 2
        assert vacancy(state, 1, 3) == 2
        # once the box settles the vacancy returns to 1
        assert kss._micro_step(state, 0, -1) == 1
        assert vacancy(state, 1, 3) == 1


class TestRemoveRow:
    def test_splits_example(self):
        t, rest = remove_row(rc_a1(), 1)
        assert t.to_lists() == [[1, 1, 2, 4], [2, 2, 3, 5]]
        assert rest.nu == ((4,), (), (2,), ())
        assert validate(rest, "restricted") == []

    def test_bad_index(self):
        with pytest.raises(ValueError, match="no quantum row 3$"):
            remove_row(rc_a1(), 3)
        with pytest.raises(ValueError, match="no quantum row -1$"):
            remove_row(rc_a1(), -1)

    def test_rejects_non_integer_index(self):
        # 1.0 used to raise TypeError and True removed row 1
        for bad in (1.0, True, "1", None):
            with pytest.raises(ValueError, match="not an integer"):
                remove_row(rc_a1(), bad)
            with pytest.raises(ValueError, match="not an integer"):
                removal_order_equivalence(rc_a1(), 0, bad)

    def test_reads_quantum_rows_once(self, monkeypatch):
        calls = []
        quantum_rows = RiggedConfiguration.quantum_rows

        def counted(rc):
            calls.append(rc)
            return quantum_rows(rc)

        monkeypatch.setattr(RiggedConfiguration, "quantum_rows", counted)
        rc = rc_a1()
        for run in (
            lambda: phi_inverse(rc),
            lambda: phi_inverse(rc, [1, 2, 0]),
            lambda: remove_row(rc, 1),
            lambda: removal_order_equivalence(rc, 0, 2),
        ):
            calls.clear()
            run()
            assert calls == [rc]

    def test_equal_lengths_share_a_vacancy(self, monkeypatch):
        # a 200-box chain of B^{1,1}, n = 3: a micro-step asked for the
        # vacancy of every candidate row (6,696 calls); candidates of one
        # length at one level now share one
        rng = random.Random(3)
        p = Path(3, [Tableau(3, [[rng.randint(1, 4)]]) for _ in range(200)])
        rc = phi_energy(p)
        calls = []
        vacancy_ = kss._vacancy

        def counted(*args):
            calls.append(args)
            return vacancy_(*args)

        monkeypatch.setattr(kss, "_vacancy", counted)
        assert phi_inverse(rc) == p
        assert len(calls) <= 6696 // 3

    def test_family_costs_no_more(self, monkeypatch):
        # phi_inverse over the 402 phi images of family(2, 3, 2), which are
        # round-trip's inputs: the vacancy numbers that validate and box
        # removal compute and the quantum-row reads stay within the counts
        # of the two-pass state before the one-pass one (2,815 and 402)
        rcs = [phi_energy(p) for p in family(2, 3, 2).paths]
        counts = {"vacancy": 0, "quantum_rows": 0}
        vacancy_ = rigged._vacancy
        quantum_rows = RiggedConfiguration.quantum_rows

        def counted_vacancy(*args):
            counts["vacancy"] += 1
            return vacancy_(*args)

        def counted_rows(rc):
            counts["quantum_rows"] += 1
            return quantum_rows(rc)

        monkeypatch.setattr(rigged, "_vacancy", counted_vacancy)
        monkeypatch.setattr(kss, "_vacancy", counted_vacancy)
        monkeypatch.setattr(RiggedConfiguration, "quantum_rows", counted_rows)
        for rc in rcs:
            phi_inverse(rc)
        assert len(rcs) == 402
        assert 0 < counts["vacancy"] <= 2815
        assert counts["quantum_rows"] <= 402


class TestWorkCounts:
    """Ceilings on deterministic work counts of the forward and inverse maps
    on scaling inputs, so that a cost regression fails here rather than
    hiding in timing noise."""

    @staticmethod
    def chain_400():
        # the L = 400 B^{1,1} chain at n = 3: the second draw from one
        # Random(3), taken after the L = 200 chain
        rng = random.Random(3)
        chains = [[rng.randint(1, 4) for _ in range(length)] for length in (200, 400)]
        return Path(3, [Tableau(3, [[x]]) for x in chains[1]])

    def test_vacancy_calls_on_the_long_chain(self, monkeypatch):
        p = self.chain_400()
        calls = []
        vacancy_ = kss._vacancy

        def counted(*args):
            calls.append(args)
            return vacancy_(*args)

        monkeypatch.setattr(kss, "_vacancy", counted)
        rc = kss.phi(p)
        assert len(calls) <= 2370
        calls.clear()
        assert phi_inverse(rc) == p
        assert len(calls) <= 4916

    def test_soliton_energy_takes_three_product_passes(self, monkeypatch):
        # one soliton of 200: by the two compression lemmas every carrier
        # of every width meets the same few compressed moves
        passes = []
        product_pass = rmatrix._product
        monkeypatch.setattr(
            rmatrix, "_product", lambda u, b: passes.append(u) or product_pass(u, b)
        )
        rmatrix._sweep_step.cache_clear()
        _constant_rows.cache_clear()
        p = Path(1, [Tableau(1, [[2]])] * 200)
        rc = phi_energy(p)
        assert len(passes) <= 3
        assert rc == kss.phi(p) and rc.mu == (((200, -200),),)


class TestRemovalOrder:
    def test_example_swap(self):
        assert removal_order_equivalence(rc_a1(), 0, 2)
        assert removal_order_equivalence(rc_a1(), 1, 0)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            removal_order_equivalence(rc_a1(), 1, 1)

    @pytest.mark.parametrize("side", [0, 1])
    def test_compares_both_image_factors(self, monkeypatch, side):
        # the R image is compared as rows, its left factor and its right one
        step = kss._sweep_step

        def altered(u, b):
            image = list(step(u, b))
            image[side] = tuple(tuple(x + 100 for x in row) for row in image[side])
            return tuple(image)

        monkeypatch.setattr(kss, "_sweep_step", altered)
        assert not removal_order_equivalence(rc_a1(), 0, 2)

    @pytest.mark.parametrize("i, j, bad", [(0, 99, 99), (99, 0, 99), (2, 3, 3)])
    def test_bad_index_named_as_given(self, i, j, bad):
        with pytest.raises(ValueError, match="no quantum row %d$" % bad):
            removal_order_equivalence(rc_a1(), i, j)

    def test_matches_two_removals_per_order(self):
        # the definition by remove_row: two calls per order, the second
        # index shifted past the row removed first
        def by_remove_row(rc, i, j):
            a1, rc1 = remove_row(rc, i)
            b1, _ = remove_row(rc1, j - 1 if j > i else j)
            b2, rc2 = remove_row(rc, j)
            a2, _ = remove_row(rc2, i - 1 if i > j else i)
            return apply_R(TensorPair(b1, a1)) == TensorPair(a2, b2)

        rng = random.Random(10)
        checked = outside = 0
        while checked < 200:
            # the bounds of TestRoundTrip.test_random_configurations
            n = rng.randint(1, 3)
            nu = [[rng.randint(1, 3) for _ in range(rng.randint(0, 2))] for _ in range(n)]
            mu = [
                [(rng.randint(1, 3), rng.randint(-3, 2)) for _ in range(rng.randint(0, 3))]
                for _ in range(n)
            ]
            rc = RiggedConfiguration(n, nu, mu)
            rows = len(rc.quantum_rows())
            if rows < 2 or validate(rc, "unrestricted"):
                continue
            checked += 1
            try:
                phi_inverse(rc)
            except ValueError:
                outside += 1
            for i, j in itertools.permutations(range(rows), 2):
                assert removal_order_equivalence(rc, i, j) == by_remove_row(rc, i, j)
        assert outside > 0

    def test_all_pairs_small(self):
        p = path(2, [[1], [2]], [[1, 2]], [[2]])
        pairs = itertools.permutations(range(3), 2)
        assert check_removal_order(Family([p]), ((p, i, j) for i, j in pairs)) == (6, [])


# Corrupted micro-steps: each wraps the real one, step, and breaks one thing
def _leave_box(step, state, i, pos):
    # the box goes on sitting at level 0 after it has left
    letter = step(state, i, pos)
    if i == 0:
        state.nu[0].append(1)
        state.flats[0].append(None)
    return letter


def _keep_row(step, state, i, pos):
    # the quantum row's last box is never taken
    if pos >= 0 and state.nu[i][pos] == 1:
        state.nu[i][pos] = 2
    return step(state, i, pos)


def _same_letter(step, state, i, pos):
    step(state, i, pos)
    return 1


def _falling_letters(step, state, i, pos):
    # one row: 2 in its first column, 1 in its second
    step(state, i, pos)
    return 2 if state.nu[0] else 1


class _AliasedState(kss._State):
    """A corrupt state: one row object sits at levels 1, 2 and 3, with a
    rigging that is singular at levels 1 and 2, so a micro-step chooses it
    twice and takes a box from it twice."""

    def __init__(self, rc, order):
        super().__init__(rc, order)
        row = self.mu[0][0]
        row[1] = 0
        self.mu[1].append(row)
        self.mu[2].append(row)


class TestRemovalChecks:
    """Each check of box removal fires on a corrupted micro-step or state,
    in every entry point, and the CLI reports it as exit 4."""

    CASES = [
        (path(1, [[1]]), _leave_box, "transported box left behind"),
        (path(1, [[1, 1]]), _keep_row, "quantum row not exhausted"),
        (
            path(2, [[1], [2]]),
            _same_letter,
            "reconstructed factor is not semistandard: column 1 not strictly increasing",
        ),
        (
            path(1, [[1, 2]]),
            _falling_letters,
            "reconstructed factor is not semistandard: row 1 not weakly increasing",
        ),
        # phi gives mu^(1) = ((1, -1)) and no other rows
        (path(3, [[2]]), _AliasedState, "removed box columns must weakly increase with level"),
    ]

    @pytest.mark.parametrize("p, corrupt, message", CASES)
    def test_check_fires(self, monkeypatch, capsys, p, corrupt, message):
        rc = phi_energy(p)
        if corrupt is _AliasedState:
            monkeypatch.setattr(kss, "_State", corrupt)
        else:
            step = kss._micro_step
            monkeypatch.setattr(kss, "_micro_step", lambda *args: corrupt(step, *args))
        for run in (lambda: phi_inverse(rc), lambda: remove_row(rc, 0)):
            with pytest.raises(AssertionError) as info:
                run()
            assert str(info.value) == message
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(encode_rc(rc))))
        code = cli_run(["phi-inverse", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err == "internal error: %s\n" % message

    def test_cases_pass_uncorrupted(self):
        for p, _, _ in self.CASES:
            assert phi_inverse(phi_energy(p)) == p
        assert phi_energy(path(3, [[2]])).mu == (((1, -1),), (), ())


class TestLinearization:
    def test_shifts_level_riggings(self):
        rc = rc_a1()
        out = linearized_image(rc, 1, 2)
        assert out.mu[0] == ((3, 1 + 2),)
        assert out.mu[1:] == rc.mu[1:]
        assert out.nu == rc.nu

    def test_shift_capped_by_row_length(self):
        rc = RiggedConfiguration(1, [[3, 3]], [[(1, 0), (3, 0)]])
        out = linearized_image(rc, 1, 2)
        assert sorted(out.mu[0]) == [(1, 1), (3, 2)]


    def test_rejects_bad_level_or_width(self):
        # with n = 2, a = 0 or 3 used to return rc unchanged, l = -2 lowered
        # the riggings and True ran as 1
        rc = phi_energy(path(2, [[2]], [[1]], [[3]]))
        for a, l in ((0, 1), (3, 1), (1, 0), (1, -2), (True, 1), (1, True), (1.0, 1), (1, 2.0)):
            with pytest.raises(ValueError):
                linearized_image(rc, a, l)


def assert_constructor_agrees(rc):
    """rc has the fields the validating constructor gives it: tuples of
    tuples of ints (origins: ints or None), in the same order."""
    again = RiggedConfiguration(rc.rank_n, rc.nu, rc.mu, rc.origins)
    fields = (rc.rank_n, rc.nu, rc.mu, rc.origins)
    assert fields == (again.rank_n, again.nu, again.mu, again.origins)
    assert type(rc.nu) is type(rc.mu) is type(rc.origins) is tuple
    assert all(type(level) is tuple for level in rc.nu + rc.mu + rc.origins)
    assert all(type(row) is tuple for level in rc.mu for row in level)
    values = [x for level in rc.nu for x in level]
    values += [x for level in rc.mu for row in level for x in row]
    values += [x for level in rc.origins for x in level if x is not None]
    assert all(type(x) is int for x in [rc.rank_n] + values)


class TestTrustedResults:
    """Configurations built without validation equal the validated ones."""

    def test_phi_and_linearized_images_over_the_family(self):
        # the `verify` family at its defaults, every (a, l) of its
        # linearization suite, and one row removal of each image
        for p in family(2, 3, 2).paths:
            rc = phi_energy(p)
            assert_constructor_agrees(rc)
            assert_constructor_agrees(kss.phi(p))
            for a in range(1, p.rank_n + 1):
                for l in range(1, 4):
                    assert_constructor_agrees(linearized_image(rc, a, l))
            assert_constructor_agrees(remove_row(rc, 0)[1])


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_paths(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        shapes = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=min(n, 2)),
                    st.integers(min_value=1, max_value=2),
                ),
                min_size=1,
                max_size=3,
            )
        )
        factors = [
            data.draw(st.sampled_from(list(enumerate_kr(r, s, n))))
            for r, s in shapes
        ]
        p = Path(n, factors)
        rc = phi_energy(p)
        assert validate(rc, "unrestricted") == []
        assert phi_inverse(rc) == p
        assert fields(kss.phi(p)) == fields(rc)

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_configurations(self, data):
        # reverse direction: phi_inverse rejects rc, or phi maps its path back to rc
        n = data.draw(st.integers(min_value=1, max_value=3))
        nu = [
            data.draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
            for _ in range(n)
        ]
        row = st.tuples(
            st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=2)
        )
        mu = [data.draw(st.lists(row, max_size=3)) for _ in range(n)]
        rc = RiggedConfiguration(n, nu, mu)
        assume(validate(rc, "unrestricted") == [])
        try:
            p = phi_inverse(rc)
        except ValueError:
            return
        assert phi_energy(p) == kss.phi(p) == rc

    def test_benchmark_configurations(self, monkeypatch):
        # highest-weight configurations drawn as the benchmark draws them,
        # not as phi of a family path; perfbench/inputs.py is loaded by path
        # and read, not changed, and imports its sibling checks.py
        perfbench = FilePath(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        spec = importlib.util.spec_from_file_location("perfbench_inputs", perfbench / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        rng = random.Random(2027)
        for _ in range(200):
            rc = decode_rc(inputs.highest_weight_rc(rng))
            back = phi_energy(phi_inverse(rc))
            assert back == rc
            assert back.origins == rc.origins
