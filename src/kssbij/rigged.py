"""Rigged configurations: quantum space, configurations, vacancy numbers, riggings.

A rigged configuration over rank n holds the quantum space nu^(0..n-1)
(ordered rows, each optionally tagged with the path factor it came from) and
configurations mu^(1..n) whose rows carry integer riggings. Levels are
indexed by a; Q and vacancy follow the usual conventions with level 0 and
n+1 contributions equal to zero.
"""


def _integer(x, what):
    # bool is a subclass of int, and int() would truncate a float silently
    if type(x) is not int:
        raise ValueError("%s %r is not an integer" % (what, x))
    return x


def check_rank(rank_n):
    """Raises ValueError unless rank_n is an int >= 1 (a bool or a float
    raises). The entries that take a bare rank check it before anything that
    names the rank in a message."""
    if type(rank_n) is not int or rank_n < 1:
        raise ValueError("rank_n must be an integer >= 1")


class RiggedConfiguration:
    """Immutable rigged configuration.

    Args:
        rank_n: rank n >= 1.
        nu: quantum space; sequence of n levels (a = 0..n-1), each an ordered
            sequence of positive row lengths.
        mu: configurations; sequence of n levels (a = 1..n), each a sequence
            of (length, rigging) pairs with length >= 1.
        origins: optional, mirrors nu; origins[a][i] is the 1-based path
            factor index the row came from, or None when unknown. Known
            origins are ints >= 1, pairwise distinct.

    rank_n, row lengths, riggings and origins must be ints; a bool or a float
    raises ValueError.

    Four configurations the library derives from checked data skip these
    checks through `_trusted`, since every field holds by construction: the
    result of `kss.phi_energy` (read off a validated path), of `kss.phi`
    (box addition on a validated path, whose rows grow from length 0 and
    whose riggings are vacancy numbers), of `kss.linearized_image` (a
    configuration plus checked a and l) and `kss._State.view` (box removal's
    working copy of a validated configuration). `verify` builds one for
    nearly every case it checks, and the checks cost more than the rest of
    `linearized_image`; `phi` is the `phi` verb's whole computation.
    """

    __slots__ = ("rank_n", "nu", "mu", "origins")

    def __init__(self, rank_n, nu, mu, origins=None):
        check_rank(rank_n)
        nu = tuple(tuple(_integer(x, "quantum space row length") for x in level) for level in nu)
        mu = tuple(
            tuple(
                (_integer(m, "configuration row length"), _integer(r, "rigging"))
                for m, r in level
            )
            for level in mu
        )
        if len(nu) != rank_n:
            raise ValueError("quantum space must have %d levels" % rank_n)
        if len(mu) != rank_n:
            raise ValueError("configurations must have %d levels" % rank_n)
        for level in nu:
            for x in level:
                if x < 1:
                    raise ValueError("quantum space row lengths must be >= 1")
        for level in mu:
            for m, _ in level:
                if m < 1:
                    raise ValueError("configuration row lengths must be >= 1")
        if origins is None:
            origins = tuple((None,) * len(level) for level in nu)
        else:
            origins = tuple(
                tuple(x if x is None else _integer(x, "origin") for x in level)
                for level in origins
            )
            if tuple(len(level) for level in origins) != tuple(len(level) for level in nu):
                raise ValueError("origins must mirror the quantum space")
            known = [x for level in origins for x in level if x is not None]
            if any(x < 1 for x in known):
                raise ValueError("origins are 1-based factor indices, must be >= 1")
            if len(set(known)) != len(known):
                raise ValueError("origins must be pairwise distinct")
        object.__setattr__(self, "rank_n", rank_n)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "origins", origins)

    @classmethod
    def _trusted(cls, rank_n, nu, mu, origins):
        """Internal constructor that skips validation; nu, mu and origins must
        be tuples of tuples of ints (origins: ints or None) that satisfy the
        constructor's rules by construction (see the class docstring)."""
        rc = object.__new__(cls)
        object.__setattr__(rc, "rank_n", rank_n)
        object.__setattr__(rc, "nu", nu)
        object.__setattr__(rc, "mu", mu)
        object.__setattr__(rc, "origins", origins)
        return rc

    def __setattr__(self, name, value):
        raise AttributeError("RiggedConfiguration is immutable")

    def __eq__(self, other):
        """Equality: ordered quantum space plus per-level multisets of (length, rigging)."""
        if not isinstance(other, RiggedConfiguration):
            return NotImplemented
        return (
            self.rank_n == other.rank_n
            and self.nu == other.nu
            and all(sorted(a) == sorted(b) for a, b in zip(self.mu, other.mu))
        )

    def __hash__(self):
        return hash(
            (self.rank_n, self.nu, tuple(tuple(sorted(level)) for level in self.mu))
        )

    def __repr__(self):
        return "RiggedConfiguration(n=%d, nu=%s, mu=%s)" % (
            self.rank_n,
            [list(level) for level in self.nu],
            [[(m, r) for m, r in level] for level in self.mu],
        )

    def quantum_rows(self):
        """All quantum-space rows as (flat_index, level, position, length, origin)."""
        out = []
        flat = 0
        for a, level in enumerate(self.nu):
            for i, length in enumerate(level):
                out.append((flat, a, i, length, self.origins[a][i]))
                flat += 1
        return out


def q_l(rc, a, l):
    """Boxes of mu^(a) in the first l columns; zero for a = 0 and a = n+1.

    a must be an int in 0..n+1 and l an int >= 0; a bool, a float or
    anything out of range raises ValueError.
    """
    if not 0 <= _integer(a, "level") <= rc.rank_n + 1:
        raise ValueError("level out of range")
    if _integer(l, "width") < 0:
        raise ValueError("width must be >= 0")
    if a == 0 or a == rc.rank_n + 1:
        return 0
    q = 0
    for m, _ in rc.mu[a - 1]:
        q += m if m < l else l
    return q


def vacancy(rc, a, l):
    """p_l^(a) = sum min(l, nu^(a-1)) + Q_l^(a-1) - 2 Q_l^(a) + Q_l^(a+1).

    a must be an int in 1..n and l an int >= 0; a bool, a float or anything
    out of range raises ValueError. Reads only rc.rank_n, rc.nu and rc.mu."""
    if not 1 <= _integer(a, "level") <= rc.rank_n:
        raise ValueError("level out of range")
    if _integer(l, "width") < 0:
        raise ValueError("width must be >= 0")
    mu = [(), *rc.mu, ()]
    return _vacancy(rc.nu[a - 1], mu[a - 1], mu[a], mu[a + 1], l)


def _vacancy(nu, below, here, above, l):
    # p_l^(a) without its checks, from the level lists it sums: nu^(a-1)
    # (row lengths), then mu^(a-1), mu^(a) and mu^(a+1) ((length, rigging)
    # rows, () off levels 1..n), with l an int >= 0. vacancy, validate, box
    # removal and box addition (whose working lists keep mu between two empty
    # levels, as they do) pass the lists. The Q terms are summed here, not through q_l,
    # which checks a and l; plain loops, since generators and min() cost 4x
    p = 0
    for x in nu:
        p += x if x < l else l
    for m, _ in below:
        p += m if m < l else l
    for m, _ in here:
        p -= 2 * (m if m < l else l)
    for m, _ in above:
        p += m if m < l else l
    return p


def validate(rc, mode="restricted"):
    """Returns a list of violations; empty means valid.

    restricted: vacancy numbers non-negative and 0 <= rigging <= vacancy.
    unrestricted: rigging <= vacancy only.
    """
    if mode not in ("restricted", "unrestricted"):
        raise ValueError("mode must be 'restricted' or 'unrestricted'")
    problems = []
    # mu^(a-1), mu^(a) and mu^(a+1) are mu[a - 1], mu[a] and mu[a + 1]
    mu = [(), *rc.mu, ()]
    for a in range(1, rc.rank_n + 1):
        if mode == "restricted":
            # p_l^(a) is constant once l reaches every part in sight
            horizon = [1]
            horizon.extend(rc.nu[a - 1])
            for lev in (a - 1, a, a + 1):
                if 1 <= lev <= rc.rank_n:
                    horizon.extend(m for m, _ in rc.mu[lev - 1])
            for l in range(1, max(horizon) + 1):
                p = _vacancy(rc.nu[a - 1], mu[a - 1], mu[a], mu[a + 1], l)
                if p < 0:
                    problems.append("vacancy p_%d^(%d) = %d is negative" % (l, a, p))
        for i, (m, r) in enumerate(rc.mu[a - 1]):
            p = _vacancy(rc.nu[a - 1], mu[a - 1], mu[a], mu[a + 1], m)
            if r > p:
                problems.append(
                    "rigging %d exceeds vacancy %d at level %d row %d" % (r, p, a, i + 1)
                )
            if mode == "restricted" and r < 0:
                problems.append("negative rigging %d at level %d row %d" % (r, a, i + 1))
    return problems
