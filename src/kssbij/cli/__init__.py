"""Command line front end.

Exit codes: 0 success, 2 malformed input (with location), 3 semantic
violation (with the violations listed), 4 internal error (an invariant of
the library failed; a bug, not bad input). verify exits 1 when a suite fails.
"""

import argparse
import sys

from kssbij import evolution, kss, rigged, rmatrix, tableaux
from kssbij.cli import codec, harness, render


def _read_json(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise codec.MalformedInput(args.input, "cannot read input: %s" % exc)
    return codec.parse_json(text)


def _emit(args, payload, render_text, code=0):
    # render_text() builds the text form; JSON output never calls it
    if args.format == "json":
        sys.stdout.write(codec.dump(payload))
    else:
        print(render_text())
    return code


def _parse_ints(raw, flag):
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise codec.MalformedInput(flag, "expected comma-separated integers")


def cmd_tableau_insert(args):
    t = codec.decode_tableau(_read_json(args))
    letters = _parse_ints(args.letters, "--letters")
    out = tableaux.insert_word(t, letters)
    return _emit(args, codec.encode_tableau(out), lambda: render.render_tableau(out))


def _read_pair(args):
    obj = _read_json(args)
    if not isinstance(obj, list) or len(obj) != 2:
        raise codec.MalformedInput("$", "expected an array of two tableaux")
    left = codec.decode_tableau(obj[0], "$[0]")
    right = codec.decode_tableau(obj[1], "$[1]")
    return rmatrix.TensorPair(left, right)


def cmd_rmatrix(args):
    image = rmatrix.apply_R(_read_pair(args))
    payload = [codec.encode_tableau(image.left), codec.encode_tableau(image.right)]
    return _emit(args, payload, lambda: render.render_pair(image.left, image.right))


def cmd_energy(args):
    h = rmatrix.energy_H(_read_pair(args))
    return _emit(args, {"H": h}, lambda: "H = %d" % h)


def cmd_led(args):
    p = codec.decode_path(_read_json(args))
    led = evolution.local_energy_distribution(p)
    return _emit(args, codec.encode_led(led), lambda: render.render_led(led))


def cmd_bbs(args):
    p = codec.decode_path(_read_json(args))
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    # the carrier u_l^(a) must exist even when no step runs
    tableaux.check_kr(args.a, args.l, p.rank_n)
    states = [p]
    for _ in range(args.steps):
        states.append(evolution.time_evolution(states[-1], args.a, args.l))
    payload = {"states": [codec.encode_path(q) for q in states]}

    def render_text():
        return "\n\n".join(
            "t=%d:\n%s" % (t, render.render_path(q)) for t, q in enumerate(states)
        )

    return _emit(args, payload, render_text)


def cmd_phi(args):
    p = codec.decode_path(_read_json(args))
    rc = kss.phi_energy(p)
    if args.check_roundtrip and kss.phi_inverse(rc) != p:
        raise AssertionError("round trip failed: phi_inverse(phi(p)) differs from p")
    return _emit(args, codec.encode_rc(rc), lambda: render.render_rc(rc))


def cmd_phi_inverse(args):
    rc = codec.decode_rc(_read_json(args))
    order = _parse_ints(args.order, "--order") if args.order else None
    p = kss.phi_inverse(rc, order)
    return _emit(args, codec.encode_path(p), lambda: render.render_path(p))


def cmd_rc_validate(args):
    rc = codec.decode_rc(_read_json(args))
    problems = rigged.validate(rc, args.mode)
    return _emit(
        args,
        {"valid": not problems, "violations": problems},
        lambda: "\n".join(problems) or "valid (%s)" % args.mode,
        3 if problems else 0,
    )


def cmd_verify(args):
    report = harness.run_verify(args.max_n, args.max_l, args.max_s, args.suite)
    return _emit(args, report.to_json(), report.render, 0 if report.ok else 1)


def cmd_enumerate(args):
    elements = list(tableaux.enumerate_kr(args.r, args.s, args.n))
    payload = [codec.encode_tableau(t) for t in elements]

    def render_text():
        lines = ["%d elements of B^{%d,%d}, n=%d" % (len(elements), args.r, args.s, args.n)]
        lines.extend(" / ".join(" ".join(map(str, row)) for row in t.rows) for t in elements)
        return "\n".join(lines)

    return _emit(args, payload, render_text)


def _add_common(sub, with_input=True):
    if with_input:
        sub.add_argument(
            "input",
            nargs="?",
            default="-",
            help="JSON input file; - or omitted reads stdin",
        )
    sub.add_argument(
        "--format", choices=("json", "text"), default="text", help="output form"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kssbij",
        description="KSS bijection, combinatorial R, energies and box-ball evolution",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    s = subs.add_parser("tableau-insert", help="row-insert letters into a tableau")
    _add_common(s)
    s.add_argument("--letters", required=True, help="comma-separated letters")
    s.set_defaults(func=cmd_tableau_insert)

    s = subs.add_parser("rmatrix", help="apply the combinatorial R to a pair")
    _add_common(s)
    s.set_defaults(func=cmd_rmatrix)

    s = subs.add_parser("energy", help="energy H of a pair")
    _add_common(s)
    s.set_defaults(func=cmd_energy)

    s = subs.add_parser("led", help="local energy distribution of a path")
    _add_common(s)
    s.set_defaults(func=cmd_led)

    s = subs.add_parser("bbs", help="box-ball time evolution")
    _add_common(s)
    s.add_argument("--a", type=int, required=True, help="carrier level")
    s.add_argument("--l", type=int, required=True, help="carrier width")
    s.add_argument("--steps", type=int, default=1, help="number of updates")
    s.set_defaults(func=cmd_bbs)

    s = subs.add_parser("phi", help="path to rigged configuration")
    _add_common(s)
    s.add_argument(
        "--check-roundtrip",
        action="store_true",
        help="also reconstruct the path and compare",
    )
    s.set_defaults(func=cmd_phi)

    s = subs.add_parser("phi-inverse", help="rigged configuration to path")
    _add_common(s)
    s.add_argument("--order", help="comma-separated quantum row indices")
    s.set_defaults(func=cmd_phi_inverse)

    s = subs.add_parser("rc-validate", help="validate a rigged configuration")
    _add_common(s)
    s.add_argument(
        "--mode", choices=("unrestricted", "restricted"), default="unrestricted"
    )
    s.set_defaults(func=cmd_rc_validate)

    s = subs.add_parser("verify", help="run the exhaustive invariant suites")
    _add_common(s, with_input=False)
    s.add_argument("--max-n", type=int, default=2, help="largest rank")
    s.add_argument("--max-l", type=int, default=3, help="longest chain path")
    s.add_argument("--max-s", type=int, default=2, help="widest factor")
    s.add_argument(
        "--suite",
        action="append",
        choices=harness.suite_names(),
        help="run one suite (repeatable); default all",
    )
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("enumerate", help="list the elements of one KR crystal")
    _add_common(s, with_input=False)
    s.add_argument("--r", type=int, required=True, help="rows")
    s.add_argument("--s", type=int, required=True, help="columns")
    s.add_argument("--n", type=int, required=True, help="rank")
    s.set_defaults(func=cmd_enumerate)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except codec.MalformedInput as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4


def main():
    sys.exit(run())
