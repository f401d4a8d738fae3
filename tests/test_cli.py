import contextlib
import io
import json
import sys
from pathlib import Path as FsPath

import pytest

from kssbij import kss
from kssbij.cli import run
from kssbij.cli.codec import (
    decode_path,
    decode_rc,
    decode_tableau,
    encode_path,
    encode_rc,
    encode_tableau,
)
from kssbij.cli import harness
from kssbij.cli.harness import run_verify
from kssbij.evolution import Path, local_energy_distribution
from kssbij.kss import phi_energy
from kssbij.rmatrix import TensorPair
from kssbij.tableaux import Tableau

GOLDEN = FsPath(__file__).parent / "golden"


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
            ("0", "1", "1", "error: need 1 <= a <= rank_n, got a=0, rank_n=2"),
            ("3", "1", "1", "error: need 1 <= a <= rank_n, got a=3, rank_n=2"),
            ("1", "0", "1", "error: width must be >= 1"),
            ("3", "1", "0", "error: need 1 <= a <= rank_n, got a=3, rank_n=2"),
            ("1", "0", "0", "error: width must be >= 1"),
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


class TestReplayableFailures:
    def test_path_message_decodes_to_the_path(self, monkeypatch):
        real = harness.q_l
        monkeypatch.setattr(harness, "q_l", lambda rc, a, l: real(rc, a, l) + 1)
        p = decode_path({"n": 2, "factors": [[[1, 3]], [[2], [3]]]})
        cases, failures = harness.check_energy_equals_q([p])
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

    def test_defaults_pinned(self):
        payload = run_verify().to_json()
        top = {"suites", "total_cases", "total_failures", "elapsed_seconds"}
        assert set(payload) == top
        for suite in payload["suites"]:
            assert set(suite) == {"name", "cases", "failures", "elapsed_seconds"}
        assert payload["total_failures"] == 0
        assert {s["name"]: s["cases"] for s in payload["suites"]} == {
            "yang-baxter": 11914,
            "involutivity": 349,
            "energy-zero-highest": 20,
            "energy-padding": 82,
            "two-letter-reduction": 28,
            "energy-equals-q": 3243,
            "round-trip": 402,
            "removal-order": 467,
            "evolution-linearization": 2295,
        }
        assert payload["total_cases"] == 18800


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

    def test_internal_error_has_own_exit_code(self, monkeypatch):
        def broken(p):
            raise AssertionError("malformed complement")

        monkeypatch.setattr(kss, "phi_energy", broken)
        code, out, err = cli("phi", str(GOLDEN / "path_3factor.json"))
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: malformed complement")
        assert "Traceback" not in err

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
