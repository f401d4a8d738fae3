import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path as FsPath
from random import Random

import pytest

from kssbij import evolution, kss
from kssbij.cli import run
from kssbij.cli.codec import (
    decode_path,
    decode_rc,
    decode_tableau,
    encode_path,
    encode_rc,
    encode_tableau,
)
from kssbij import cli as cli_module
from kssbij.cli import harness
from kssbij.cli.harness import run_verify
from kssbij.evolution import Path, local_energy_distribution
from kssbij.kss import phi_energy
from kssbij.rigged import RiggedConfiguration
from kssbij.rmatrix import TensorPair
from kssbij.tableaux import Tableau, enumerate_kr

import pins

GOLDEN = FsPath(__file__).parent / "golden"
README = FsPath(__file__).parent.parent / "README.md"
SRC = FsPath(__file__).parent.parent / "src"


def cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


def readme_blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README.read_text(), re.S)


class TestEnergyVerb:
    def test_text(self):
        code, out, _ = cli(
            "energy",
            stdin='[{"n":5,"rows":[[1,1],[2,4]]},{"n":5,"rows":[[3,4],[4,5],[5,6]]}]',
        )
        assert code == 0
        assert out == "H = 3\n"

    def test_json(self):
        code, out, _ = cli(
            "energy",
            "--format",
            "json",
            stdin='[{"n":5,"rows":[[1,1],[2,4]]},{"n":5,"rows":[[3,4],[4,5],[5,6]]}]',
        )
        assert code == 0
        assert json.loads(out) == {"H": 3}


class TestRmatrixVerb:
    def test_worked_pair(self):
        code, out, _ = cli(
            "rmatrix",
            "--format",
            "json",
            stdin='[{"n":5,"rows":[[1,1],[2,4]]},{"n":5,"rows":[[3,4],[4,5],[5,6]]}]',
        )
        assert code == 0
        assert json.loads(out) == [
            {"n": 5, "rows": [[1, 1], [2, 4], [3, 5]]},
            {"n": 5, "rows": [[4, 4], [5, 6]]},
        ]

    def test_needs_two_tableaux(self):
        code, _, err = cli("rmatrix", stdin='[{"n":1,"rows":[[1]]}]')
        assert code == 2
        assert "error:" in err


class TestEmptyFactors:
    def test_rmatrix_flips_and_energy_is_zero(self):
        empty, row = '{"n":2,"rows":[]}', '{"n":2,"rows":[[1,2]]}'
        for left, right in ((empty, row), (row, empty), (empty, empty)):
            stdin = "[%s,%s]" % (left, right)
            code, out, _ = cli("rmatrix", "--format", "json", stdin=stdin)
            assert (code, json.loads(out)) == (0, [json.loads(right), json.loads(left)])
            code, out, _ = cli("rmatrix", stdin=stdin)
            assert code == 0 and "(empty tableau)" in out
            assert cli("energy", stdin=stdin) == (0, "H = 0\n", "")
            assert cli("energy", "--format", "json", stdin=stdin) == (0, '{"H": 0}\n', "")


class TestPhiVerbs:
    def test_phi_matches_golden(self):
        code, out, _ = cli(
            "phi", str(GOLDEN / "path_3factor.json"), "--format", "json"
        )
        assert code == 0
        assert out == golden("rc_3factor.json")

    def test_phi_six_factor(self):
        code, out, _ = cli(
            "phi", str(GOLDEN / "path_6factor.json"), "--format", "json"
        )
        assert code == 0
        assert out == golden("rc_6factor.json")

    def test_phi_check_roundtrip(self):
        code, _, _ = cli(
            "phi", str(GOLDEN / "path_3factor.json"), "--check-roundtrip"
        )
        assert code == 0

    def test_phi_inverse_with_order(self):
        code, out, _ = cli(
            "phi-inverse",
            str(GOLDEN / "rc_a1.json"),
            "--order",
            "1,2,0",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out) == json.loads(golden("path_3factor.json"))

    @pytest.mark.parametrize("order", ["1,,2,0", "1,2,0,", ",1,2,0"])
    def test_phi_inverse_order_with_empty_field(self, order):
        # an empty field is an error, not a dropped index
        code, out, err = cli("phi-inverse", str(GOLDEN / "rc_a1.json"), "--order", order)
        assert (code, out) == (2, "")
        assert err == "error: --order: expected comma-separated integers\n"

    @pytest.mark.parametrize("order", ["", " "])
    def test_phi_inverse_empty_order_is_not_the_default(self, order):
        # an explicit empty order names no row, so it is no permutation of
        # the three quantum rows; only an omitted --order means the default
        code, out, err = cli("phi-inverse", str(GOLDEN / "rc_a1.json"), "--order", order)
        assert (code, out) == (3, "")
        assert err == "error: order must be a permutation of 0..2\n"

    def test_phi_inverse_default_order_uses_origins(self):
        code, out, _ = cli(
            "phi-inverse", str(GOLDEN / "rc_3factor.json"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == json.loads(golden("path_3factor.json"))

    def test_round_trip_through_both_verbs(self):
        code, rc_json, _ = cli(
            "phi", str(GOLDEN / "path_6factor.json"), "--format", "json"
        )
        assert code == 0
        code, out, _ = cli("phi-inverse", "--format", "json", stdin=rc_json)
        assert code == 0
        assert json.loads(out) == json.loads(golden("path_6factor.json"))

    def test_invalid_rc_is_semantic_error(self):
        code, _, err = cli(
            "phi-inverse", stdin='{"n":1,"nu":[[1]],"mu":[{"rows":[[1,5]]}]}'
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("origins", ["[[2],[2]]", "[[0],[1]]"])
    def test_bad_origins_are_semantic_errors(self, origins):
        # origins name distinct factors, counted from 1
        stdin = '{"n":2,"nu":[[1],[1]],"mu":[{"rows":[]},{"rows":[]}],"origins":%s}'
        code, out, err = cli("phi-inverse", stdin=stdin % origins)
        assert (code, out) == (3, "")
        assert err.startswith("error:")

    def test_factor_too_tall_for_the_rank(self):
        # a factor with n + 1 rows decodes, but it lies in no B^{r,s} of rank
        # n; phi names it as quantum_space_of does, before any box moves
        code, out, err = cli("phi", stdin='{"n":1,"factors":[[[1],[2]]]}')
        assert (code, out, err) == (3, "", "error: factor 1 has too many rows for rank 1\n")

    def test_out_of_image_rc_is_semantic_error(self):
        # valid as an unrestricted configuration, but a box of mu outlives
        # every quantum row, so no path maps to it
        code, out, err = cli(
            "phi-inverse", stdin='{"n":1,"nu":[[1]],"mu":[{"rows":[[5,-9]]}]}'
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestReadme:
    def test_python_block_runs(self):
        (block,) = readme_blocks("python")
        exec(compile(block, str(README), "exec"), {})

    def test_json_examples_round_trip(self):
        path_json, rc_json = readme_blocks("json")
        code, rc_out, _ = cli("phi", "--format", "json", stdin=path_json)
        assert code == 0
        code, out, _ = cli("phi-inverse", "--format", "json", stdin=rc_out)
        assert code == 0
        assert json.loads(out) == json.loads(path_json)
        code, path_out, _ = cli("phi-inverse", "--format", "json", stdin=rc_json)
        assert code == 0
        code, out, _ = cli("phi", "--format", "json", stdin=path_out)
        assert code == 0
        assert decode_rc(json.loads(out)) == decode_rc(json.loads(rc_json))


class TestLedVerb:
    def test_text_matches_golden(self):
        code, out, _ = cli("led", str(GOLDEN / "path_3factor.json"))
        assert code == 0
        assert out == golden("led_3factor.txt")

    def test_json_round_trips(self):
        code, out, _ = cli(
            "led", str(GOLDEN / "path_3factor.json"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [t["a"] for t in payload] == [1, 2, 3, 4]
        assert payload[0]["columns"] == [[1, k] for k in (1, 2, 3, 4)] + [
            [2, 1],
            [2, 2],
        ] + [[3, k] for k in (1, 2, 3, 4)]
        led = local_energy_distribution(decode_path(json.loads(golden("path_3factor.json"))))
        assert [t["rows"] for t in payload] == led.tables


class TestLargeRank:
    """The LED sweeps no level at or above a path's largest letter, so a
    one-box path at a large rank is cheap (each verb ran for over 20 s
    when every level swept)."""

    DOC = '{"n": 100000, "factors": [[[1]]]}'

    def test_phi(self):
        code, out, err = cli("phi", "--format", "json", stdin=self.DOC)
        assert code == 0, err
        rc = json.loads(out)
        assert rc["nu"][0] == [1] and not any(rc["nu"][1:])
        assert all(level == {"rows": []} for level in rc["mu"])

    def test_led(self):
        code, out, err = cli("led", "--format", "json", stdin=self.DOC)
        assert code == 0, err
        tables = json.loads(out)
        assert len(tables) == 100000
        assert all(t["rows"] == [[0]] for t in tables)


class TestBbsVerb:
    def test_states_include_origin(self):
        code, out, _ = cli(
            "bbs",
            "--a",
            "1",
            "--l",
            "2",
            "--steps",
            "2",
            "--format",
            "json",
            stdin='{"n":1,"factors":[[[2]],[[2]],[[1]],[[1]],[[1]]]}',
        )
        assert code == 0
        states = json.loads(out)["states"]
        assert len(states) == 3
        assert states[1]["factors"] == [[[1]], [[1]], [[2]], [[2]], [[1]]]
        assert states[2]["factors"] == [[[1]], [[1]], [[1]], [[1]], [[2]]]

    def test_rejects_bad_level(self):
        code, _, err = cli(
            "bbs",
            "--a",
            "3",
            "--l",
            "1",
            "--steps",
            "1",
            stdin='{"n":1,"factors":[[[1]]]}',
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "a, l, steps, message",
        [
            ("0", "1", "1", "error: rows must be in 1..2 (got 0)"),
            ("3", "1", "1", "error: rows must be in 1..2 (got 3)"),
            ("1", "0", "1", "error: width must be >= 1"),
            ("3", "1", "0", "error: rows must be in 1..2 (got 3)"),
            ("1", "0", "0", "error: width must be >= 1"),
            ("1", "1", "-1", "error: --steps must be >= 0"),
        ],
    )
    def test_rejects_bad_carrier_at_any_steps(self, a, l, steps, message):
        code, out, err = cli(
            "bbs", "--a", a, "--l", l, "--steps", steps,
            stdin='{"n":2,"factors":[[[1,2]],[[3]]]}',
        )
        assert (code, out, err) == (3, "", message + "\n")

    def test_zero_steps_echoes_the_path(self):
        code, out, _ = cli(
            "bbs", "--a", "2", "--l", "1", "--steps", "0", "--format", "json",
            stdin='{"n":2,"factors":[[[1,2]],[[3]]]}',
        )
        assert code == 0
        assert json.loads(out) == {"states": [{"n": 2, "factors": [[[1, 2]], [[3]]]}]}


class TestValidateVerb:
    def test_valid_rc(self):
        code, out, _ = cli(
            "rc-validate", str(GOLDEN / "rc_a1.json"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_empty_rc(self):
        code, _, _ = cli("rc-validate", stdin='{"n":1,"nu":[[]],"mu":[{"rows":[]}]}')
        assert code == 0

    def test_negative_rigging_default_unrestricted(self):
        rc = '{"n":1,"nu":[[2]],"mu":[{"rows":[[1,-1]]}]}'
        code, _, _ = cli("rc-validate", stdin=rc)
        assert code == 0
        code, out, _ = cli(
            "rc-validate", "--mode", "restricted", "--format", "json", stdin=rc
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["violations"]

    @pytest.mark.parametrize("verb", ["rc-validate", "phi-inverse"])
    def test_bad_configuration_rank_message(self, verb):
        # a configuration's rank gets the check and message of enumerate's
        code, out, err = cli(verb, stdin='{"n": 0, "nu": [], "mu": []}')
        assert (code, out, err) == (3, "", "error: rank_n must be an integer >= 1\n")

    @pytest.mark.parametrize("verb", ["rc-validate", "phi-inverse"])
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_rank_checked_before_levels(self, verb, n):
        # the rank is checked first, so no message names -1 or -3 levels
        code, out, err = cli(verb, stdin='{"n": %d, "nu": [], "mu": []}' % n)
        assert (code, out, err) == (3, "", "error: rank_n must be an integer >= 1\n")


class TestEnumerateVerb:
    def test_counts(self):
        code, out, _ = cli(
            "enumerate", "--r", "2", "--s", "2", "--n", "3", "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)) == 20

    def test_bad_shape(self):
        code, _, _ = cli("enumerate", "--r", "2", "--s", "1", "--n", "1")
        assert code == 3

    @pytest.mark.parametrize(
        "r, s, message",
        [
            ("2", "1", "error: rows must be in 1..1 (got 2)"),
            ("0", "1", "error: rows must be in 1..1 (got 0)"),
            ("1", "0", "error: width must be >= 1"),
        ],
    )
    def test_bad_shape_message(self, r, s, message):
        # the rows message named the bbs carrier's a for --r
        code, out, err = cli("enumerate", "--r", r, "--s", s, "--n", "1")
        assert (code, out, err) == (3, "", message + "\n")

    def test_thousand_cells(self):
        # B^{1,1000} of rank 1; a generator per cell passed the recursion limit
        code, out, err = cli("enumerate", "--r", "1", "--s", "1000", "--n", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "1001 elements of B^{1,1000}, n=1" and len(lines) == 1002
        assert lines[1] == " ".join(["1"] * 1000) and lines[-1] == " ".join(["2"] * 1000)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_rank_message(self, n):
        # the rank is checked first, so no message names a range 1..n
        code, out, err = cli("enumerate", "--r", "1", "--s", "1", "--n", n)
        assert (code, out, err) == (3, "", "error: rank_n must be an integer >= 1\n")


class TestInsertVerb:
    def test_sequence(self):
        code, out, _ = cli(
            "tableau-insert",
            "--letters",
            "2,1",
            "--format",
            "json",
            stdin='{"n":5,"rows":[[1,1],[2,3]]}',
        )
        assert code == 0
        assert json.loads(out) == {"n": 5, "rows": [[1, 1, 1], [2, 2], [3]]}


    @pytest.mark.parametrize("letters", ["1,,2", "1,2,", ",1", "1, ,2"])
    def test_empty_field_is_malformed(self, letters):
        code, out, err = cli(
            "tableau-insert", "--letters", letters, stdin='{"n":1,"rows":[[1,2]]}'
        )
        assert (code, out) == (2, "")
        assert err == "error: --letters: expected comma-separated integers\n"

    def test_no_letters_insert_nothing(self):
        code, out, _ = cli(
            "tableau-insert", "--letters", "", "--format", "json",
            stdin='{"n":1,"rows":[[1,2]]}',
        )
        assert (code, json.loads(out)) == (0, {"n": 1, "rows": [[1, 2]]})


class TestReplayableFailures:
    def test_path_message_decodes_to_the_path(self, monkeypatch):
        real = harness.q_l
        monkeypatch.setattr(harness, "q_l", lambda rc, a, l: real(rc, a, l) + 1)
        p = decode_path({"n": 2, "factors": [[[1, 3]], [[2], [3]]]})
        cases, failures = harness.check_energy_equals_q(harness.Family([p]))
        assert len(failures) == cases > 0
        for msg in failures:
            assert msg.startswith("E_")
            assert decode_path(json.loads(msg.split(" for ", 1)[1])) == p

    def test_pair_message_feeds_the_energy_verb(self, monkeypatch):
        monkeypatch.setattr(harness, "energy_H", lambda pair: 1)
        u, v = Tableau(2, [[1, 1]]), Tableau(2, [[1], [2]])
        _, failures = harness.check_swapping_pairs([(u, v)])
        text = failures[0].split(" on ", 1)[1]
        assert [decode_tableau(x) for x in json.loads(text)] == [u, v]
        code, out, _ = cli("energy", "--format", "json", stdin=text)
        assert (code, json.loads(out)) == (0, {"H": 0})


class TestBrokenPhiReports:
    @pytest.mark.parametrize(
        "suite", ["round-trip", "removal-order", "evolution-linearization", "energy-formula"]
    )
    def test_invalid_phi_is_a_failure_not_an_abort(self, monkeypatch, suite):
        # phi with every rigging raised by 5: each phi suite reports its
        # failures and exits 1, naming paths the codec reads back
        real = kss.phi_energy

        def raised(p):
            rc = real(p)
            return RiggedConfiguration(
                rc.rank_n, rc.nu, [[(m, r + 5) for m, r in level] for level in rc.mu]
            )

        monkeypatch.setattr(kss, "phi_energy", raised)
        code, out, _ = cli("verify", "--max-n", "1", "--suite", suite, "--format", "json")
        assert code == 1
        failures = json.loads(out)["suites"][0]["failures"]
        assert failures
        for msg in failures:
            assert _named_paths(msg)


def _named_paths(msg):
    # every path a failure message names, decoded from its JSON
    decoder, paths, i = json.JSONDecoder(), [], msg.find("{")
    while i >= 0:
        obj, end = decoder.raw_decode(msg, i)
        paths.append(decode_path(obj))
        i = msg.find("{", end)
    return paths


class TestPhiCheckFailures:
    """Each failure branch of the four checks that read phi from a Family,
    reached through a hand-filled `Family.phis`. Two n = 1 paths: one ball
    that a carrier of width 1 moves right, cleanly, onto the other path, and
    one ball at the right edge, which it carries out of the path."""

    CLEAN = decode_path({"n": 1, "factors": [[[2]], [[1]]]})
    LOADED = decode_path({"n": 1, "factors": [[[1]], [[2]]]})

    def test_phi_inverse_rejects(self):
        fam = harness.Family([self.CLEAN])
        rc = phi_energy(self.CLEAN)
        # a rigging above its vacancy number
        fam.phis[self.CLEAN] = RiggedConfiguration(
            1, rc.nu, [[(m, r + 5) for m, r in level] for level in rc.mu]
        )
        cases, failures = harness.check_round_trip(fam)
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("phi_inverse rejected phi(")
        assert _named_paths(failures[0]) == [self.CLEAN]

    def test_round_trip_fails(self):
        fam = harness.Family([self.CLEAN])
        fam.phis[self.CLEAN] = phi_energy(self.LOADED)
        cases, failures = harness.check_round_trip(fam)
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("round trip failed for ")
        assert _named_paths(failures[0]) == [self.CLEAN]

    def test_phi_not_injective(self, monkeypatch):
        # a phi_inverse that undoes the one phi of both paths into each of them
        fam = harness.Family([self.CLEAN, self.LOADED])
        fam.phis[self.CLEAN] = fam.phis[self.LOADED] = phi_energy(self.CLEAN)
        backs = iter([self.CLEAN, self.LOADED])
        monkeypatch.setattr(harness, "phi_inverse", lambda rc: next(backs))
        cases, failures = harness.check_round_trip(fam)
        assert (cases, len(failures)) == (2, 1)
        assert failures[0].startswith("phi not injective: ")
        assert _named_paths(failures[0]) == [self.CLEAN, self.LOADED]

    def test_round_trip_never_reads_shapes(self, monkeypatch):
        # the injectivity key is the configuration's origins, which with its
        # rank and quantum space fix every factor's shape
        fam = harness.family(2, 3, 2)
        for p in fam.paths:
            fam.phi(p)

        def shapes(p):
            raise AssertionError("Path.shapes called")

        monkeypatch.setattr(Path, "shapes", shapes)
        assert harness.check_round_trip(fam) == (402, [])

    def test_removal_order_fails(self, monkeypatch):
        # no configuration that phis could hold makes the real equivalence
        # false: valid ones satisfy it, and invalid ones raise ValueError
        monkeypatch.setattr(harness, "removal_order_equivalence", lambda rc, i, j: False)
        fam = harness.Family([self.CLEAN])
        cases, failures = harness.check_removal_order(fam, [(self.CLEAN, 0, 1)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("removal order swap (0,1) failed for ")
        assert _named_paths(failures[0]) == [self.CLEAN]

    def test_removal_order_rejects_phi(self):
        # the equivalence validates phi(p) first; its ValueError is a failure
        fam = harness.Family([self.CLEAN])
        rc = phi_energy(self.CLEAN)
        fam.phis[self.CLEAN] = RiggedConfiguration(
            1, rc.nu, [[(m, r + 5) for m, r in level] for level in rc.mu]
        )
        cases, failures = harness.check_removal_order(fam, [(self.CLEAN, 0, 1)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("removal order swap (0,1) rejected phi(")
        assert "invalid rigged configuration" in failures[0]
        assert _named_paths(failures[0]) == [self.CLEAN]

    @pytest.mark.parametrize(
        "swept, phi_of, state",
        [
            ("CLEAN", "LOADED", "clean despite invalid"),
            ("LOADED", "CLEAN", "loaded despite valid"),
        ],
    )
    def test_carrier_disagrees_with_shift(self, swept, phi_of, state):
        p = getattr(self, swept)
        fam = harness.Family([p])
        fam.phis[p] = phi_energy(getattr(self, phi_of))
        cases, failures, loaded = harness.check_linearization(fam, [(p, 1, 1)])
        assert (cases, len(failures), loaded) == (1, 1, int(p is self.LOADED))
        assert failures[0].startswith("carrier %s shift: T_1^(1) " % state)
        assert _named_paths(failures[0]) == [p]

    def test_did_not_linearize(self):
        # T(CLEAN) is LOADED, whose phi is filled with phi of CLEAN
        fam = harness.Family([self.CLEAN, self.LOADED])
        fam.phis[self.LOADED] = phi_energy(self.CLEAN)
        cases, failures, _ = harness.check_linearization(fam, [(self.CLEAN, 1, 1)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("T_1^(1) did not linearize for ")
        assert _named_paths(failures[0]) == [self.CLEAN]

    def test_energy_formula_differs(self):
        # phi_energy's value for CLEAN replaced by LOADED's: the message
        # names CLEAN, and the phi verb replays it to box addition's value
        fam = harness.Family([self.CLEAN])
        fam.phis[self.CLEAN] = phi_energy(self.LOADED)
        cases, failures = harness.check_energy_formula(fam)
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("phi_energy and box addition differ in mu for ")
        (named,) = _named_paths(failures[0])
        assert named == self.CLEAN
        code, out, _ = cli("phi", "--format", "json", stdin=failures[0].split(" for ", 1)[1])
        assert (code, decode_rc(json.loads(out))) == (0, phi_energy(self.CLEAN))

    def test_evolved_path_outside_the_family(self):
        fam = harness.Family([self.CLEAN])
        cases, failures, _ = harness.check_linearization(fam, [(self.CLEAN, 1, 1)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("T_1^(1) leaves the family for ")
        assert _named_paths(failures[0]) == [self.CLEAN]
        # with T(CLEAN) in the Family, the same sweep linearizes
        fam = harness.Family([self.CLEAN, self.LOADED])
        assert harness.check_linearization(fam, [(self.CLEAN, 1, 1)]) == (1, [], 0)


def _named_pair(msg):
    # the pair of tableaux a failure message names, decoded from its JSON
    pair, _ = json.JSONDecoder().raw_decode(msg, msg.index("["))
    return [decode_tableau(obj) for obj in pair]


class TestCheckFailures:
    """Each failure branch of the checks on pairs and padded paths, reached
    by patching the R, H or E that `harness` calls. Every message names its
    input in the codec's JSON, which decodes back to it."""

    U = Tableau(2, [[1]])

    def test_r_not_involutive(self, monkeypatch):
        pair, other = TensorPair(self.U, Tableau(2, [[2]])), TensorPair(Tableau(2, [[2]]), self.U)
        monkeypatch.setattr(harness, "apply_R", lambda p: other)
        cases, failures = harness.check_involutivity([pair])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("R not involutive on ")
        assert _named_pair(failures[0]) == [pair.left, pair.right]

    def test_h_changed_under_r(self, monkeypatch):
        # R swaps the widths of the two factors, and this H reads the left one
        pair = TensorPair(self.U, Tableau(2, [[1, 2]]))
        monkeypatch.setattr(harness, "energy_H", lambda p: p.left.width())
        cases, failures = harness.check_involutivity([pair])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("H changed under R on ")
        assert _named_pair(failures[0]) == [pair.left, pair.right]

    def test_r_does_not_swap(self, monkeypatch):
        u, v = self.U, Tableau(2, [[1, 1]])
        monkeypatch.setattr(harness, "apply_R", lambda p: p)
        cases, failures = harness.check_swapping_pairs([(u, v)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("R does not swap ")
        assert _named_pair(failures[0]) == [u, v]

    @pytest.mark.parametrize("side", [0, -1])
    def test_padding_changes_e(self, monkeypatch, side):
        # E reads 1 on the path padded on one side only, and 0 elsewhere
        p = Path(2, [Tableau(2, [[2]])])
        padded = Path(2, (self.U,) + p.factors if side == 0 else p.factors + (self.U,))
        monkeypatch.setattr(
            harness, "total_energy", lambda q, a, l: int(len(q) > 1 and q.factors[side] is self.U)
        )
        cases, failures = harness.check_energy_padding([(p, [self.U])])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("padding changed E_1^(1) for ")
        assert _named_paths(failures[0]) == [padded, p]

    def test_padding_h_nonzero(self, monkeypatch):
        p = Path(2, [Tableau(2, [[2]])])
        monkeypatch.setattr(harness, "energy_H", lambda pair: 1)
        cases, failures = harness.check_energy_padding([(p, [self.U])])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("H(b (x) u) != 0 on ")
        assert _named_pair(failures[0]) == [p.factors[0], self.U]
        text = failures[0].split(" on ", 1)[1].split(", b a factor")[0]
        code, out, _ = cli("energy", "--format", "json", stdin=text)
        assert (code, json.loads(out)) == (0, {"H": 0})

    def test_two_letter_h_reduction(self, monkeypatch):
        # the pair has rank 2 and its bottom rows rank 1
        v, w = harness.two_letter(2, 1, 1)
        monkeypatch.setattr(harness, "energy_H", lambda pair: pair.left.rank_n)
        cases, failures = harness.check_two_letter_reduction([(v, w)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("H reduction failed on ")
        assert _named_pair(failures[0]) == [v, w]

    def test_two_letter_r_reduction(self, monkeypatch):
        # an R that swaps the pair but leaves its bottom rows in place
        v, w = harness.two_letter(2, 1, 1)
        monkeypatch.setattr(
            harness,
            "apply_R",
            lambda pair: TensorPair(pair.right, pair.left) if pair.left.rank_n > 1 else pair,
        )
        cases, failures = harness.check_two_letter_reduction([(v, w)])
        assert (cases, len(failures)) == (1, 1)
        assert failures[0].startswith("R reduction failed on ")
        assert _named_pair(failures[0]) == [v, w]


class TestVerifyVerb:
    def test_single_suite(self):
        code, out, _ = cli(
            "verify",
            "--max-n",
            "1",
            "--max-l",
            "2",
            "--max-s",
            "1",
            "--suite",
            "yang-baxter",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_failures"] == 0
        assert payload["suites"][0]["name"] == "yang-baxter"
        assert payload["suites"][0]["failures"] == []
        assert payload["suites"][0]["cases"] > 0
        assert payload["suites"][0]["elapsed_seconds"] >= 0

    def test_unknown_suite(self):
        code, _, _ = cli("verify", "--suite", "nope")
        assert code == 2
        with pytest.raises(ValueError, match="^unknown suite\\(s\\): nope$"):
            run_verify(suites=["nope"])

    def test_bounds_must_be_positive(self):
        assert cli("verify", "--max-n", "0") == (3, "", "error: bounds must be positive\n")

    def test_text_report(self):
        code, out, _ = cli("verify", "--max-n", "1")
        assert code == 0
        assert re.sub(r"\d+\.\d\ds\b", "T", out) == (
            "yang-baxter                cases=250     failures=0    T\n"
            "involutivity               cases=25      failures=0    T\n"
            "energy-zero-highest        cases=4       failures=0    T\n"
            "energy-padding             cases=10      failures=0    T\n"
            "two-letter-reduction       cases=0       failures=0    T\n"
            "energy-equals-q            cases=153     failures=0    T\n"
            "round-trip                 cases=39      failures=0    T\n"
            "removal-order              cases=53      failures=0    T\n"
            "evolution-linearization    cases=117     failures=0    T\n"
            "energy-formula             cases=39      failures=0    T\n"
            "total: 690 cases, 0 failures, T\n"
        )

    def test_text_report_shows_ten_failures(self, monkeypatch):
        real = harness.q_l
        monkeypatch.setattr(harness, "q_l", lambda rc, a, l: real(rc, a, l) + 1)
        report = run_verify(1, suites=["energy-equals-q"])
        failures = report.results[0][2]
        lines = re.sub(r"\d+\.\d\ds\b", "T", report.render()).split("\n")
        assert lines[0] == "energy-equals-q            cases=153     failures=153  T"
        assert lines[1:11] == ["    " + msg for msg in failures[:10]]
        assert lines[11:] == ["    ... 143 more", "total: 153 cases, 153 failures, T"]
        # the "more" line starts at the eleventh failure
        for count, more in ((10, []), (11, ["    ... 1 more"])):
            report = harness.Report([("s", count, ["f"] * count, 0.0)], 0.0)
            assert report.render().split("\n")[11:-1] == more

    def test_defaults_pinned(self):
        # the row of tests/pins.py for the defaults, which CI checks at the
        # larger bounds, through the same in-process run
        code, payload, passes, misses = pins.run(pins.DEFAULT)
        top = {"suites", "total_cases", "total_failures", "elapsed_seconds"}
        assert set(payload) == top
        for suite in payload["suites"]:
            assert set(suite) == {"name", "cases", "failures", "elapsed_seconds"}
        assert pins.differences(pins.DEFAULT, code, payload, passes, misses) == []

    def test_pins_catch_any_moved_count(self):
        # a run that matches its row fails once any case count moves by one
        # either way or the ceiling falls by one, and once any suite reports
        # a failure
        row = pins.PINS[pins.DEFAULT]
        report = {
            "suites": [{"name": name, "cases": cases, "failures": []}
                       for name, cases in row["suites"].items()],
            "total_cases": row["total"],
            "total_failures": 0,
        }
        passes = row["product_passes"]
        assert pins.differences(pins.DEFAULT, 0, report, passes, passes) == []
        moved = []
        for name in row["suites"]:
            for step in (-1, 1):
                suites = dict(row["suites"], **{name: row["suites"][name] + step})
                moved.append(dict(row, suites=suites))
        moved += [dict(row, total=row["total"] + step) for step in (-1, 1)]
        moved.append(dict(row, product_passes=passes - 1))
        for pinned in moved:
            assert pins.differences(pins.DEFAULT, 0, report, passes, passes,
                                    {pins.DEFAULT: pinned}) != []
        report["suites"][0]["failures"] = ["f"]
        report["total_failures"] = 1
        assert len(pins.differences(pins.DEFAULT, 1, report, passes, passes)) == 3


def _untimed(out):
    # a verify report with its wall times dropped, the only part that varies
    payload = json.loads(out)
    del payload["elapsed_seconds"]
    for suite in payload["suites"]:
        del suite["elapsed_seconds"]
    return payload


class TestVerbSequence:
    """Verbs run one after another through `run` in one process give the
    same (exit code, stdout) in either order: no parser default or other
    state carries from one call to the next."""

    STEPS = [
        (("verify", "--suite", "yang-baxter", "--format", "json"), None, None),
        (("phi", str(GOLDEN / "path_3factor.json"), "--format", "json"), "rc_3factor.json", None),
        (("phi-inverse", str(GOLDEN / "rc_a1.json"), "--order", "1,2,0", "--format", "json"),
         "path_3factor.json", None),
        (("rc-validate", str(GOLDEN / "rc_a1.json"), "--mode", "restricted"), None, None),
        (("bbs", "--a", "1", "--l", "2", "--steps", "2"), None, golden("path_3factor.json")),
    ]

    def test_forwards_then_reverse(self):
        first = {}
        for argv, gold, stdin in self.STEPS + self.STEPS[::-1]:
            code, out, _ = cli(*argv, stdin=stdin)
            got = (code, _untimed(out) if argv[0] == "verify" else out)
            assert got == first.setdefault(argv, got), argv
            assert code == 0, argv
            if gold is not None:
                assert json.loads(out) == json.loads(golden(gold)), argv
        outputs = [first[argv][1] for argv, _, _ in self.STEPS]
        assert outputs[1] == golden("rc_3factor.json")
        # the text verbs keep their own default format
        assert outputs[3] == "valid (restricted)\n"
        assert outputs[4].startswith("t=0:\n")


class TestNarrowedParser:
    """`run` builds only the arguments of the verb that argparse will
    dispatch on; on every argv below it behaves as with the whole parser."""

    # each verb's smallest complete arguments (verify kept fast), and a verb
    # that does not exist; None is no verb at all
    ARGS = {
        None: [],
        "frobnicate": [],
        "tableau-insert": ["--letters", "1"],
        "rmatrix": [],
        "energy": [],
        "led": [],
        "bbs": ["--a", "1", "--l", "1"],
        "phi": [],
        "phi-inverse": [],
        "rc-validate": [],
        "verify": ["--max-n", "1", "--suite", "round-trip"],
        "enumerate": ["--r", "1", "--s", "1", "--n", "1"],
    }

    def argvs(self):
        shapes = {("--bogus", "phi", "--format", "json")}
        for verb, args in self.ARGS.items():
            head = [verb] if verb else []
            shapes.add((*head, *args))
            shapes.add((*head, *args, "--format", "json"))
            # a required argument missing, or fewer arguments for verify
            shapes.add((*head, *args[:-2]))
            for token in ("-h", "--help", "--bogus", "--", "-"):
                shapes.add((token, *head, *args))
                shapes.add((*head, token, *args))
                shapes.add((*head, *args, token))
        return sorted(shapes)

    def outcome(self, argv):
        code, out, err = cli(*argv, stdin=golden("path_3factor.json"))
        if "verify" in argv:
            out = re.sub(r"\d+\.\d+", "#", out)
        return code, out, err

    def test_same_as_whole_parser(self, monkeypatch):
        argvs = self.argvs()
        narrowed = [self.outcome(argv) for argv in argvs]
        whole = cli_module.build_parser
        monkeypatch.setattr(cli_module, "build_parser", lambda verb=None: whole())
        assert [self.outcome(argv) for argv in argvs] == narrowed
        # both parse errors and complete runs are among them
        assert {code for code, _, _ in narrowed} >= {0, 2}

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("phi", "--format", "json"), "path_3factor.json"),
            (("phi-inverse",), "rc_a1.json"),
            (("enumerate", "--r", "1", "--s", "1", "--n", "1"), "path_3factor.json"),
        ],
    )
    def test_run_leaves_no_parser_to_the_cycle_collector(self, argv, stdin):
        # argparse's actions point back at their parser; run must cut those
        # cycles, or every call leaves its parser to the cycle collector
        stdin = golden(stdin)
        assert cli(*argv, stdin=stdin)[0] == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(3):
                assert cli(*argv, stdin=stdin)[0] == 0
            gc.collect()
            left = [o for o in gc.garbage if isinstance(o, (argparse.ArgumentParser, argparse.Action))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    def test_other_verbs_have_no_arguments(self):
        assert not hasattr(cli_module.build_parser("phi").parse_args(["led"]), "func")
        args = cli_module.build_parser().parse_args(["led"])
        assert (args.func, args.format) == (cli_module.cmd_led, "text")


class TestPhiMemo:
    def test_warm_memo_gives_the_same_report(self, monkeypatch):
        calls = Counter()
        real = kss.phi_energy

        def guarded(p):
            # counts the paths that miss, and refuses once the run is warm
            assert not calls["warm"], "phi computed again"
            calls["phi"] += 1
            return real(p)

        monkeypatch.setattr(kss, "phi_energy", guarded)
        harness.family.cache_clear()
        cold = run_verify(2, 3, 2)
        fam = harness.family(2, 3, 2)
        assert calls["phi"] == len(fam.phis) == len(set(fam.paths)) == 389
        calls["warm"] = 1
        warm = run_verify(2, 3, 2)
        assert harness.family(2, 3, 2) is fam and calls["phi"] == 389
        assert [r[:3] for r in warm.results] == [r[:3] for r in cold.results]

    def test_patch_sees_each_family_path_once(self, monkeypatch):
        seen = Counter()
        real = kss.phi_energy

        def counting(p):
            seen[p] += 1
            return real(p)

        phi_suites = ["energy-equals-q", "round-trip", "removal-order", "evolution-linearization"]
        # a warm family, then a patch: every path misses once more
        assert run_verify(2, 3, 2, phi_suites).ok
        monkeypatch.setattr(kss, "phi_energy", counting)
        assert run_verify(2, 3, 2, phi_suites).ok
        assert set(seen) == set(harness.family(2, 3, 2).paths)
        assert set(seen.values()) == {1}

    def test_replaced_phi_energy_empties_phis(self, monkeypatch):
        p = decode_path({"n": 2, "factors": [[[1, 3]], [[2], [3]]]})
        fam = harness.Family([p])
        rc = fam.phi(p)
        assert fam.phis == {p: rc} and fam.filled_by is phi_energy
        other = phi_energy(decode_path({"n": 2, "factors": [[[1, 1]], [[1], [2]]]}))
        monkeypatch.setattr(kss, "phi_energy", lambda q: other)
        assert fam.phi(p) is other and fam.phis == {p: other}
        monkeypatch.undo()
        assert fam.phi(p) == rc and fam.phis == {p: rc}


class TestSharedFamily:
    def test_one_tuple_per_bounds(self):
        fam = harness.family(2, 3, 2)
        assert harness.family(2, 3, 2) is fam
        family = fam.paths
        generated = [
            p
            for n in (1, 2)
            for chunk in (harness.chain_paths(n, 3), harness.pair_paths(n, 2))
            for p in chunk
        ]
        assert type(family) is tuple and list(family) == generated
        assert (len(family), len(set(family))) == (402, 389)
        # a path that is both a chain and a pair is one object
        assert len(set(map(id, family))) == 389
        # keyed by rank and factor rows: one rows key alone would merge the
        # rank-1 and rank-2 chains of the same letters
        assert fam.index == {(p.rank_n, tuple(b.rows for b in p.factors)): p for p in family}
        assert len(fam.index) == 389
        # a new set of bounds replaces the kept Family
        harness.family(1, 1, 1)
        again = harness.family(2, 3, 2)
        assert again is not fam and again.paths == family and again.phis == {}

    def test_phi_suites_look_paths_up_by_identity(self, monkeypatch):
        calls = Counter()
        real_phi, real_eq = kss.phi_energy, Path.__eq__

        def counting_phi(p):
            calls["phi"] += 1
            return real_phi(p)

        def counting_eq(self, other):
            calls["eq"] += 1
            return real_eq(self, other)

        harness.family.cache_clear()
        monkeypatch.setattr(kss, "phi_energy", counting_phi)
        assert run_verify().ok
        assert calls["phi"] == 389
        monkeypatch.setattr(Path, "__eq__", counting_eq)
        report = run_verify(suites=["round-trip", "removal-order", "evolution-linearization"])
        assert report.ok and [r[1] for r in report.results] == [402, 467, 2295]
        assert calls == {"phi": 389}

    def test_linearization_reads_evolved_paths_from_the_family(self, monkeypatch):
        # T(p) of a family path is looked up in the Family's index, so a warm
        # run reads phi of family objects only and never compares paths
        calls = Counter()
        real_eq = Path.__eq__

        def counting_eq(self, other):
            calls["eq"] += 1
            return real_eq(self, other)

        argv = ("verify", "--suite", "evolution-linearization", "--format", "json")
        assert cli(*argv)[0] == 0
        monkeypatch.setattr(Path, "__eq__", counting_eq)
        code, out, _ = cli(*argv)
        assert (code, json.loads(out)["total_cases"]) == (0, 2295)
        assert calls == {}


class TestErrorPaths:
    def test_malformed_json_reports_location(self):
        code, _, err = cli("energy", stdin="{oops")
        assert code == 2
        assert "line 1 column 2" in err

    def test_schema_error_reports_field(self):
        code, _, err = cli("phi", stdin='{"n":1}')
        assert code == 2
        assert "factors" in err

    def test_semantic_error(self):
        code, _, err = cli("tableau-insert", "--letters", "9", stdin='{"n":1,"rows":[[1]]}')
        assert code == 3
        assert "error:" in err

    def test_unknown_verb(self):
        code, _, _ = cli("frobnicate")
        assert code == 2

    def test_missing_file(self):
        code, _, err = cli("phi", "/no/such/file.json")
        assert code == 2

    def test_closed_stdout_exits_1_without_traceback(self):
        # a reader that has gone away, as in `kssbij verify | head -0`
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        argv = [sys.executable, "-m", "kssbij", "verify", "--max-n", "1", "--suite", "round-trip"]
        try:
            proc = subprocess.run(
                argv,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path),
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("verb", ["phi", "led"])
    def test_out_of_memory_is_a_clear_error(self, verb):
        # the per-level lists of a rank-10^8 path (the LED's for led, the
        # quantum space's for phi) need far more than the 512 MB address
        # space the child gets, so the allocation fails at once; the child
        # never runs without the limit
        resource = pytest.importorskip("resource")
        limit = 512 * 2**20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "kssbij", verb],
            input='{"n": 100000000, "factors": [[[1]]]}',
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=cap,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr

    def test_internal_error_has_own_exit_code(self, monkeypatch):
        def broken(p):
            raise AssertionError("malformed complement")

        monkeypatch.setattr(kss, "phi", broken)
        code, out, err = cli("phi", str(GOLDEN / "path_3factor.json"))
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: malformed complement")
        assert "Traceback" not in err

    def test_negative_local_energy_is_internal_error(self, monkeypatch):
        # carrier energies that fall as the width l grows give a negative
        # double difference, which the LED refuses
        real = evolution._sweep_rows

        def falling(p, a, l):
            out, carriers, energies = real(p, a, 1)
            return out, carriers, [
                tuple(e - (l - 1) * k for k, e in enumerate(hs, 1)) for hs in energies
            ]

        monkeypatch.setattr(evolution, "_sweep_rows", falling)
        code, out, err = cli("led", str(GOLDEN / "path_3factor.json"))
        assert (code, out) == (4, "")
        assert err == "internal error: negative local energy entry\n"

    def test_failed_round_trip_is_internal_error(self, monkeypatch):
        other = decode_path(json.loads((GOLDEN / "path_6factor.json").read_text()))
        monkeypatch.setattr(kss, "phi_inverse", lambda rc: other)
        code, out, err = cli(
            "phi", str(GOLDEN / "path_3factor.json"), "--check-roundtrip"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: round trip failed")
        assert "Traceback" not in err


class TestBoundaryValidation:
    """Validation happens at the public constructors and the codec; inputs
    that break the tableau or pair rules are semantic errors (exit 3)."""

    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (("led",), '{"n":2,"factors":[[[2,1]]]}', "not weakly increasing"),
            (("led",), '{"n":2,"factors":[[[1,1],[1,2]]]}', "not strictly increasing"),
            (("phi",), '{"n":1,"factors":[[[0]]]}', "outside alphabet"),
            (("led",), '{"n":2,"factors":[[[1,1],[2]]]}', "rectangular"),
            (("tableau-insert", "--letters", "1"), '{"n":1,"rows":[[3]]}', "outside alphabet"),
            (
                ("rmatrix",),
                '[{"n":2,"rows":[[1]]},{"n":2,"rows":[[1],[1]]}]',
                "not strictly increasing",
            ),
            (
                ("energy",),
                '[{"n":2,"rows":[[1,1],[2]]},{"n":2,"rows":[[1]]}]',
                "rectangular",
            ),
            (
                ("rmatrix",),
                '[{"n":1,"rows":[[1]]},{"n":2,"rows":[[1]]}]',
                "different alphabets",
            ),
        ],
    )
    def test_cli_rejects(self, argv, stdin, message):
        code, out, err = cli(*argv, stdin=stdin)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize(
        "build",
        [
            lambda: decode_tableau({"n": 2, "rows": [[2, 1]]}),
            lambda: decode_tableau({"n": 2, "rows": [[1], [1]]}),
            lambda: decode_path({"n": 1, "factors": [[[3]]]}),
            lambda: decode_path({"n": 2, "factors": [[[1, 1], [2]]]}),
            lambda: Path(2, [Tableau(2, [[1, 1], [2]])]),
            lambda: Path(2, [Tableau(2, [[1]]), Tableau(1, [[1]])]),
            lambda: TensorPair(Tableau(2, [[1]]), Tableau(2, [[1, 1], [2]])),
        ],
    )
    def test_library_rejects(self, build):
        with pytest.raises(ValueError):
            build()


class TestCodec:
    def test_tableau_round_trip(self):
        t = Tableau(4, [[1, 1, 2, 4], [2, 2, 3, 5]])
        assert decode_tableau(encode_tableau(t)) == t

    def test_path_round_trip(self):
        p = Path(4, [Tableau(4, [[1, 2]]), Tableau(4, [[1], [3]])])
        assert decode_path(encode_path(p)) == p

    def test_rc_round_trip_keeps_origins(self):
        rc = phi_energy(
            Path(2, [Tableau(2, [[1, 2]]), Tableau(2, [[2]])])
        )
        back = decode_rc(encode_rc(rc))
        assert back == rc
        assert back.origins == rc.origins

    def test_rc_without_origins_encodes_none(self):
        payload = json.loads(golden("rc_a1.json"))
        rc = decode_rc(payload)
        assert encode_rc(rc).get("origins") is None

    def test_decode_rejects_wrong_level_count(self):
        from kssbij.cli.codec import MalformedInput

        with pytest.raises(MalformedInput):
            decode_rc({"n": 2, "nu": [[1]], "mu": [{"rows": []}, {"rows": []}]})


class TestDecodeRcErrors:
    """Every error `decode_rc` raises, with its location, read through
    `rc-validate`: malformed JSON shapes exit 2 and name where they are, a
    bad rank exits 3."""

    @pytest.mark.parametrize(
        "doc, location, message",
        [
            ([], "$", "expected an object, got an array"),
            ({}, "$", "missing field 'n'"),
            ({"n": True}, "$.n", "expected an integer, got a boolean"),
            ({"n": 1}, "$", "missing field 'nu'"),
            ({"n": 1, "nu": {}}, "$.nu", "expected an array, got an object"),
            ({"n": 2, "nu": [[]]}, "$.nu", "expected 2 levels, got 1"),
            ({"n": 1, "nu": [[], []]}, "$.nu", "expected 1 levels, got 2"),
            ({"n": 1, "nu": [3]}, "$.nu[0]", "expected an array, got a number"),
            ({"n": 1, "nu": [[1.5]]}, "$.nu[0][0]", "expected an integer, got a number"),
            ({"n": 1, "nu": [["x"]]}, "$.nu[0][0]", "expected an integer, got a string"),
            ({"n": 1, "nu": [[]]}, "$", "missing field 'mu'"),
            ({"n": 1, "nu": [[]], "mu": "x"}, "$.mu", "expected an array, got a string"),
            ({"n": 2, "nu": [[], []], "mu": [{"rows": []}]}, "$.mu", "expected 2 levels, got 1"),
            ({"n": 1, "nu": [[]], "mu": [[]]}, "$.mu[0]", "expected an object, got an array"),
            ({"n": 1, "nu": [[]], "mu": [{}]}, "$.mu[0]", "missing field 'rows'"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": None}]}, "$.mu[0].rows", "expected an array, got null"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": [1]}]}, "$.mu[0].rows[0]", "expected an array, got a number"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": [[1]]}]}, "$.mu[0].rows[0]", "expected [length, rigging]"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": [[1, 0], [1, 0, 0]]}]}, "$.mu[0].rows[1]", "expected [length, rigging]"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": [[1, 0], ["1", 0]]}]}, "$.mu[0].rows[1][0]", "expected an integer, got a string"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": [[1, None]]}]}, "$.mu[0].rows[0][1]", "expected an integer, got null"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": []}], "origins": {}}, "$.origins", "expected an array, got an object"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": []}], "origins": []}, "$.origins", "expected 1 levels, got 0"),
            ({"n": 1, "nu": [[]], "mu": [{"rows": []}], "origins": [5]}, "$.origins[0]", "expected an array, got a number"),
            ({"n": 1, "nu": [[1]], "mu": [{"rows": []}], "origins": [[]]}, "$.origins[0]", "origins must mirror nu"),
            ({"n": 1, "nu": [[1]], "mu": [{"rows": []}], "origins": [[1, 2]]}, "$.origins[0]", "origins must mirror nu"),
            ({"n": 1, "nu": [[1]], "mu": [{"rows": []}], "origins": [[True]]}, "$.origins[0][0]", "expected an integer, got a boolean"),
            # the rank is checked before anything that names it
            ({"n": 0, "nu": [[]]}, None, "rank_n must be an integer >= 1"),
            ({"n": -1}, None, "rank_n must be an integer >= 1"),
        ],
    )
    def test_error(self, doc, location, message):
        code, out, err = cli("rc-validate", stdin=json.dumps(doc))
        if location is None:
            assert (code, out, err) == (3, "", "error: %s\n" % message)
        else:
            assert (code, out, err) == (2, "", "error: %s: %s\n" % (location, message))


class TestFuzz:
    """Seeded random and malformed JSON sent to the verbs that read a path, a
    pair or a rigged configuration: every input gives a result (exit 0) or a
    clear error (exit 2 or 3), never an internal error or a traceback. Ranks
    stay small so that the valid inputs stay cheap."""

    KEYS = ("n", "rows", "factors", "nu", "mu", "origins", "x")

    def _value(self, rng, depth=0):
        # any JSON value, nested at most three deep
        kind = rng.randrange(6 if depth < 3 else 3)
        if kind == 0:
            return rng.randint(-2, 5)
        if kind == 1:
            return rng.choice([None, True, False, 2.0, 1.5, "1", "", 10**20, -(10**20)])
        if kind == 2:
            return rng.choice([[], {}, [[]], [[1]]])
        if kind == 3:
            return [self._value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
        keys = [rng.choice(self.KEYS) for _ in range(rng.randint(0, 3))]
        return {key: self._value(rng, depth + 1) for key in keys}

    def _rows(self, rng, n):
        # a tableau of the rank, or ragged rows of random letters
        if rng.random() < 0.7:
            r, s = rng.randint(1, n), rng.randint(1, 2)
            return [list(row) for row in rng.choice(list(enumerate_kr(r, s, n))).rows]
        width, rows = rng.randint(0, 3), []
        for _ in range(rng.randint(0, 3)):
            w = width if rng.random() < 0.8 else rng.randint(0, 3)
            rows.append([rng.randint(0, n + 2) for _ in range(w)])
        return rows

    def _rank(self, rng):
        return rng.choice([1, 2, 2, 3, 3] * 4 + [0, -1, "2", True, 2.0, None])

    def _document(self, rng, verb):
        n = self._rank(rng)
        letters = n if type(n) is int and 1 <= n <= 3 else 2
        if verb in ("rmatrix", "energy"):
            doc = [{"n": n, "rows": self._rows(rng, letters)} for _ in range(2)]
        else:
            doc = {"n": n, "factors": [self._rows(rng, letters) for _ in range(rng.randint(0, 4))]}
        return self._text(rng, doc)

    def _configuration(self, rng):
        # the image of a path under phi, or random rows, riggings and origins
        n = self._rank(rng)
        levels = n if type(n) is int and 1 <= n <= 3 else 2
        if rng.random() < 0.3:
            shapes = [(rng.randint(1, levels), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            p = Path(levels, [rng.choice(list(enumerate_kr(r, s, levels))) for r, s in shapes])
            doc = encode_rc(phi_energy(p))
            if rng.random() < 0.3:
                del doc["origins"]
            return doc
        nu = [[rng.randint(0, 3) for _ in range(rng.randint(0, 2))] for _ in range(levels)]
        mu = [
            {"rows": [[rng.randint(0, 3), rng.randint(-3, 2)] for _ in range(rng.randint(0, 3))]}
            for _ in range(levels)
        ]
        doc = {"n": n, "nu": nu, "mu": mu}
        if rng.random() < 0.3:
            # a random factor order, now and then with a gap, a repeat or None
            known = iter(rng.sample(range(1, 9), sum(map(len, nu))))
            doc["origins"] = [
                [rng.choice([None, 0, 1]) if rng.random() < 0.1 else next(known) for _ in level]
                for level in nu
            ]
        return doc

    def _text(self, rng, doc):
        edit = rng.randrange(10)
        if edit == 0:
            doc = self._value(rng)
        elif edit == 1 and isinstance(doc, dict):
            doc[rng.choice(self.KEYS)] = self._value(rng)
        elif edit == 2 and isinstance(doc, list):
            doc[rng.randrange(2)] = self._value(rng)
        text = json.dumps(doc)
        if rng.random() < 0.15:
            # malformed JSON: cut short, or one character replaced
            i = rng.randrange(len(text))
            if rng.random() < 0.5:
                text = text[:i]
            else:
                text = text[:i] + rng.choice("]}[{,:x\"") + text[i + 1:]
        return text

    def _argv(self, rng, verb):
        argv = [verb, "--format", rng.choice(("json", "text"))]
        if verb == "phi" and rng.random() < 0.3:
            argv.append("--check-roundtrip")
        if verb == "bbs":
            for flag in ("--a", "--l", "--steps"):
                argv += [flag, str(rng.choice([-1, 0] + [1, 2, 3] * 4 + ["x"]))]
        return argv

    def test_random_inputs_exit_cleanly(self):
        rng = Random(4185)
        codes = Counter()
        for i in range(300):
            verb = ("phi", "led", "bbs", "rmatrix", "energy")[i % 5]
            argv = self._argv(rng, verb)
            text = self._document(rng, verb)
            code, _, err = cli(*argv, stdin=text)
            assert code in (0, 2, 3), (argv, text, err)
            assert "Traceback" not in err, (argv, text, err)
            codes[code] += 1
        # the inputs reach every outcome: results, malformed and invalid input
        assert all(codes[code] >= 10 for code in (0, 2, 3)), codes

    def test_random_configurations_exit_cleanly(self):
        rng = Random(7309)
        codes = Counter()
        for i in range(300):
            doc = self._configuration(rng)
            verb = ("phi-inverse", "phi-inverse", "rc-validate")[i % 3]
            argv = [verb, "--format", rng.choice(("json", "text"))]
            if verb == "rc-validate":
                argv += ["--mode", rng.choice(("unrestricted", "restricted"))]
            elif i % 2:
                # a permutation of the quantum rows, or not quite one
                rows = sum(map(len, doc["nu"]))
                order = rng.sample(range(rows), rows)
                if rng.random() < 0.3:
                    order = rng.choice([order[1:], order + [0], [-1] + order, ["x"], [1.5]])
                argv += ["--order", ",".join(map(str, order))]
            text = self._text(rng, doc)
            code, _, err = cli(*argv, stdin=text)
            assert code in (0, 2, 3), (argv, text, err)
            assert "Traceback" not in err, (argv, text, err)
            codes[verb, "--order" in argv, code] += 1
        # each verb form reaches every outcome
        forms = [("phi-inverse", False), ("phi-inverse", True), ("rc-validate", False)]
        assert all(codes[form + (code,)] >= 10 for form in forms for code in (0, 2, 3)), codes
