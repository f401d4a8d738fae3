"""JSON encoding and decoding for the command line.

Schemas:
  Tableau  {"n": 3, "rows": [[1,1],[2,4]]}
  Path     {"n": 3, "factors": [[[1,1],[2,4]], ...]}          (rows per factor)
  RC       {"n": 4, "nu": [[4],[4],[2],[]],
            "mu": [{"rows": [[3,1]]}, ...]}                   (row = [length, rigging])
           optional "origins": lists mirroring nu, entries int or null
  LED      [{"a": 1, "rows": [[...]], "columns": [[j,k],...]}, ...]

Structural problems (wrong JSON shape) raise MalformedInput with a location
path; domain violations are left to the constructors, which raise ValueError.
"""

import json

from kssbij.evolution import Path
from kssbij.rigged import RiggedConfiguration, check_rank
from kssbij.tableaux import Tableau


class MalformedInput(Exception):
    """Input that does not match the JSON schema; carries a location path."""

    def __init__(self, location, message):
        self.location = location
        self.message = message
        super().__init__("%s: %s" % (location, message))


def parse_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(
            "line %d column %d" % (exc.lineno, exc.colno), exc.msg
        ) from exc


def _need_dict(obj, where):
    if not isinstance(obj, dict):
        raise MalformedInput(where, "expected an object, got %s" % _kind(obj))
    return obj


def _need_list(obj, where):
    if not isinstance(obj, list):
        raise MalformedInput(where, "expected an array, got %s" % _kind(obj))
    return obj


def _need_int(obj, where):
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise MalformedInput(where, "expected an integer, got %s" % _kind(obj))
    return obj


def _kind(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "a boolean"
    if isinstance(obj, (int, float)):
        return "a number"
    if isinstance(obj, str):
        return "a string"
    if isinstance(obj, list):
        return "an array"
    return "an object"


def _field(obj, key, where):
    if key not in obj:
        raise MalformedInput(where, "missing field %r" % key)
    return obj[key]


def _int_rows(obj, where):
    rows = []
    for i, row in enumerate(_need_list(obj, where)):
        cells = _need_list(row, "%s[%d]" % (where, i))
        rows.append(
            [_need_int(x, "%s[%d][%d]" % (where, i, j)) for j, x in enumerate(cells)]
        )
    return rows


def decode_tableau(obj, where="$"):
    _need_dict(obj, where)
    n = _need_int(_field(obj, "n", where), where + ".n")
    rows = _int_rows(_field(obj, "rows", where), where + ".rows")
    return Tableau(n, rows)


def encode_tableau(t):
    return {"n": t.rank_n, "rows": [list(r) for r in t.rows]}


def decode_path(obj, where="$"):
    _need_dict(obj, where)
    n = _need_int(_field(obj, "n", where), where + ".n")
    factors = []
    raw = _need_list(_field(obj, "factors", where), where + ".factors")
    for j, rows in enumerate(raw):
        factors.append(
            Tableau(n, _int_rows(rows, "%s.factors[%d]" % (where, j)))
        )
    return Path(n, factors)


def encode_path(p):
    return {
        "n": p.rank_n,
        "factors": [[list(r) for r in b.rows] for b in p.factors],
    }


def _levels(obj, n, where):
    levels = _need_list(obj, where)
    if len(levels) != n:
        raise MalformedInput(where, "expected %d levels, got %d" % (n, len(levels)))
    return levels


def decode_rc(obj, where="$"):
    _need_dict(obj, where)
    n = _need_int(_field(obj, "n", where), where + ".n")
    # before the level counts, whose messages name the rank
    check_rank(n)
    nu = _int_rows(_levels(_field(obj, "nu", where), n, where + ".nu"), where + ".nu")
    mu = []
    for a, level in enumerate(_levels(_field(obj, "mu", where), n, where + ".mu")):
        loc = "%s.mu[%d]" % (where, a)
        rows = _int_rows(_field(_need_dict(level, loc), "rows", loc), loc + ".rows")
        for i, row in enumerate(rows):
            if len(row) != 2:
                raise MalformedInput(
                    "%s.rows[%d]" % (loc, i), "expected [length, rigging]"
                )
        mu.append(rows)
    origins = None
    if "origins" in obj:
        origins = []
        for a, level in enumerate(_levels(obj["origins"], n, where + ".origins")):
            loc = "%s.origins[%d]" % (where, a)
            if len(_need_list(level, loc)) != len(nu[a]):
                raise MalformedInput(loc, "origins must mirror nu")
            origins.append(
                [
                    x if x is None else _need_int(x, "%s[%d]" % (loc, i))
                    for i, x in enumerate(level)
                ]
            )
    return RiggedConfiguration(n, nu, mu, origins)


def encode_rc(rc):
    out = {
        "n": rc.rank_n,
        "nu": [list(level) for level in rc.nu],
        "mu": [{"rows": [[m, r] for m, r in level]} for level in rc.mu],
    }
    if any(org is not None for level in rc.origins for org in level):
        out["origins"] = [list(level) for level in rc.origins]
    return out


def encode_led(led):
    return [
        {
            "a": a,
            "rows": [list(row) for row in led.tables[a - 1]],
            "columns": [[j, k] for j, k in led.columns],
        }
        for a in range(1, led.rank_n + 1)
    ]


def dump(obj):
    return json.dumps(obj, separators=(", ", ": ")) + "\n"
