"""Command line front end.

Exit codes: 0 success, 2 malformed input (with location), 3 semantic
violation (with the violations listed) or an input too large for the
memory available (`error: out of memory`), 4 internal error (an invariant of
the library failed; a bug, not bad input). verify exits 1 when a suite fails.
Any verb exits 1, without a traceback, when its stdout is closed before it
has written all of its output (as by `kssbij verify | head -0`).
"""

import argparse
import os
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
    # an empty flag is no integers; an empty field between commas is an error
    if not raw.strip():
        return []
    try:
        return [int(x) for x in raw.split(",")]
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
    rc = kss.phi(p)
    if args.check_roundtrip and kss.phi_inverse(rc) != p:
        raise AssertionError("round trip failed: phi_inverse(phi(p)) differs from p")
    return _emit(args, codec.encode_rc(rc), lambda: render.render_rc(rc))


def cmd_phi_inverse(args):
    rc = codec.decode_rc(_read_json(args))
    # an explicit order, even an empty one, is checked as a permutation
    order = None if args.order is None else _parse_ints(args.order, "--order")
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


# One row per verb: its name, help, handler, whether it reads a JSON input
# (a file, or stdin), and its own arguments as (flag, add_argument keywords).
VERBS = (
    ("tableau-insert", "row-insert letters into a tableau", cmd_tableau_insert, True, (
        ("--letters", dict(required=True, help="comma-separated letters")),
    )),
    ("rmatrix", "apply the combinatorial R to a pair", cmd_rmatrix, True, ()),
    ("energy", "energy H of a pair", cmd_energy, True, ()),
    ("led", "local energy distribution of a path", cmd_led, True, ()),
    ("bbs", "box-ball time evolution", cmd_bbs, True, (
        ("--a", dict(type=int, required=True, help="carrier level")),
        ("--l", dict(type=int, required=True, help="carrier width")),
        ("--steps", dict(type=int, default=1, help="number of updates")),
    )),
    ("phi", "path to rigged configuration", cmd_phi, True, (
        ("--check-roundtrip",
         dict(action="store_true", help="also reconstruct the path and compare")),
    )),
    ("phi-inverse", "rigged configuration to path", cmd_phi_inverse, True, (
        ("--order", dict(help="comma-separated quantum row indices")),
    )),
    ("rc-validate", "validate a rigged configuration", cmd_rc_validate, True, (
        ("--mode", dict(choices=("unrestricted", "restricted"), default="unrestricted")),
    )),
    ("verify", "run the exhaustive invariant suites", cmd_verify, False, (
        ("--max-n", dict(type=int, default=2, help="largest rank")),
        ("--max-l", dict(type=int, default=3, help="longest chain path")),
        ("--max-s", dict(type=int, default=2, help="widest factor")),
        ("--suite", dict(action="append", choices=harness.suite_names(),
                         help="run one suite (repeatable); default all")),
    )),
    ("enumerate", "list the elements of one KR crystal", cmd_enumerate, False, (
        ("--r", dict(type=int, required=True, help="rows")),
        ("--s", dict(type=int, required=True, help="columns")),
        ("--n", dict(type=int, required=True, help="rank")),
    )),
)


def build_parser(verb=None):
    """The argument parser, with the arguments of `verb` only, or of every
    verb when it is None. Every verb keeps its sub-parser either way, since
    the top-level help, usage line and invalid-choice error list them all;
    a sub-parser without its arguments is never the one that parses."""
    parser = argparse.ArgumentParser(
        prog="kssbij",
        description="KSS bijection, combinatorial R, energies and box-ball evolution",
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for name, help_text, func, reads_input, arguments in VERBS:
        s = subs.add_parser(name, help=help_text)
        if verb is not None and name != verb:
            continue
        if reads_input:
            s.add_argument(
                "input",
                nargs="?",
                default="-",
                help="JSON input file; - or omitted reads stdin",
            )
        s.add_argument(
            "--format", choices=("json", "text"), default="text", help="output form"
        )
        for flag, kwargs in arguments:
            s.add_argument(flag, **kwargs)
        s.set_defaults(func=func)
    return parser


def _release(parser):
    # argparse points every argument back at the parser or group holding it,
    # so a parser is a reference cycle that lingers until the cycle collector
    # runs, and one that outlives a collection waits for a full one. Cutting
    # those links frees the parser, sub-parsers included, as soon as `run`
    # drops it, so no call leaves its parser behind for the next.
    for action in parser._actions:
        action.container = None
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                _release(sub)


def run(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser has no option that takes a value, so argparse
    # dispatches on the first argument that does not start with "-"
    verb = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(verb)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        _release(parser)
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
    except MemoryError:
        # the failed allocation is released once the stack unwinds
        print("error: out of memory: the input is too large to compute here", file=sys.stderr)
        return 3


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's recipe: output left in the buffer would raise again when
        # the interpreter flushes stdout at exit, so point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
