"""Seeded input generators. The same seed gives the same inputs.

Inputs are JSON texts exactly as a user would feed them to the CLI. A
`Distinct` set drops any text already used in the process, so a cache in the
program can help only where a workload really reuses work.
"""

import json
import random

import checks


class Distinct:
    """Remembers every input text handed out in this process, by its hash,
    so that the benchmark's own memory barely grows with the run."""

    def __init__(self):
        self.seen = set()

    def take(self, text):
        key = hash(text)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def random_rectangle(rng, r, s, n):
    """A semistandard r x s tableau over 1..n+1; each cell uniform on its feasible range."""
    rows = []
    for i in range(r):
        row = []
        for j in range(s):
            lo = max(row[j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
            row.append(rng.randint(lo, n + 1 - (r - 1 - i)))
        rows.append(row)
    return rows


def random_path(rng, n, length, max_s):
    factors = [random_rectangle(rng, rng.randint(1, n), rng.randint(1, max_s), n)
               for _ in range(length)]
    return {"n": n, "factors": factors}


def path_round(rng, distinct, index):
    """The index-th round of `path-to-rc`: one distinct path for each rank
    n = 1..4 and each length 3..6, with factors B^{r,s}, r <= n, s <= 4.

    A path's cost grows with n, its length and its factor shapes. So that runs
    on different seeds do the same mix of work, the shapes follow a schedule
    fixed by the round index; the seed draws the entries."""
    out = []
    for n in (1, 2, 3, 4):
        for length in (3, 4, 5, 6):
            plan = random.Random("%d-%d-%d" % (index, n, length))
            shapes = [(plan.randint(1, n), plan.randint(1, 4)) for _ in range(length)]
            while True:
                path = {"n": n, "factors": [random_rectangle(rng, r, s, n) for r, s in shapes]}
                text = json.dumps(path)
                if distinct.take(text):
                    out.append((text, path))
                    break
                # small shapes have few fillings; draw new shapes once they repeat
                shapes = [(rng.randint(1, n), rng.randint(1, 4)) for _ in range(length)]
    return out


def rc_json(n, nu, mu_rows, origins=None):
    out = {"n": n, "nu": [list(level) for level in nu],
           "mu": [{"rows": [[m, r] for m, r in level]} for level in mu_rows]}
    if origins is not None:
        out["origins"] = [list(level) for level in origins]
    return out


def highest_weight_rc(rng, n=3, quantum_rows=8):
    """A restricted (highest-weight) configuration: random factor shapes and
    partitions kept only when every vacancy number, from `checks.vacancy`, is
    non-negative; riggings uniform on 0..p. Origins give a random factor order."""
    while True:
        shapes = [(rng.choices((1, 2, 3), weights=(6, 3, 1))[0], rng.randint(1, 2))
                  for _ in range(quantum_rows)]
        lengths = [sorted((rng.randint(1, 4) for _ in range(rng.randint(0, k))), reverse=True)
                   for k in (5, 3, 2)[:n]]
        if checks.is_admissible(shapes, lengths):
            break
    mu = [[(m, rng.randint(0, checks.vacancy(shapes, lengths, a, m))) for m in lengths[a - 1]]
          for a in range(1, n + 1)]
    nu = [[] for _ in range(n)]
    origins = [[] for _ in range(n)]
    for j, (r, s) in enumerate(shapes, start=1):
        nu[r - 1].append(s)
        origins[r - 1].append(j)
    return rc_json(n, nu, mu, origins)


def image_rc(kss, evolution, tableaux, path):
    """The configuration phi_energy gives a path: unrestricted unless the path
    is highest weight. The path is the expected answer of phi-inverse."""
    p = evolution.Path(path["n"], [tableaux.Tableau(path["n"], rows) for rows in path["factors"]])
    rc = kss.phi_energy(p)
    return rc_json(rc.rank_n, rc.nu, rc.mu, rc.origins)


def out_of_image_rc(i):
    """The i-th member of a fixed family outside the image of phi: one box in
    the quantum space and one row (m, r) of mu^(1) with m >= 2 and r at or
    below its vacancy 1 - 2m. Valid as unrestricted configurations, yet no
    one-box path maps to them. Independent of the seed."""
    n = 1 + i % 3
    k = i // 3
    m = 2 + k % 4
    rigging = 1 - 2 * m - k // 4
    return rc_json(n, [[1]] + [[]] * (n - 1), [[(m, rigging)]] + [[]] * (n - 1))


class RcRounds:
    """Rounds for `rc-to-path`: highest-weight configurations, images of random
    paths, and one member of the out-of-image family, in a fixed proportion."""

    HIGHEST = 8
    IMAGES = 5

    def __init__(self, rng, distinct, lib):
        self.rng = rng
        self.distinct = distinct
        self.lib = lib
        self.next_outside = 0

    def _fresh(self, make):
        while True:
            obj, source = make()
            text = json.dumps(obj)
            if self.distinct.take(text):
                return text, obj, source

    def _image(self):
        path = random_path(self.rng, self.rng.randint(1, 3), self.rng.randint(1, 3), 2)
        return image_rc(self.lib.kss, self.lib.evolution, self.lib.tableaux, path), path

    def _outside(self):
        self.next_outside += 1
        return out_of_image_rc(self.next_outside - 1), None

    def round(self):
        """A list of (kind, input text, configuration, source path or None)."""
        out = []
        for _ in range(self.HIGHEST):
            out.append(("highest",) + self._fresh(lambda: (highest_weight_rc(self.rng), None)))
        for _ in range(self.IMAGES):
            out.append(("image",) + self._fresh(self._image))
        out.append(("outside",) + self._fresh(self._outside))
        return out
