"""Seeded poset families for the benchmark, independent of ``gspec``.

Everything here is plain Python over bitmasks: the benchmark must not ask the
program under test for the inclusion order it then checks outputs against.
The random scheme is ported from ``tests/conftest.py`` (``random_order`` with
edge probability 0.3, ``random_monotone_f``) rather than imported, so a change
to the test helpers cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Poset:
    """A finite poset as names plus reflexive-transitive ``up`` bitmasks.

    ``up[i]`` has bit ``j`` set exactly when ``names[i] <= names[j]``.
    """

    names: tuple[str, ...]
    up: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def covers(self) -> list[tuple[str, str]]:
        """Transitive reduction, as name pairs in a fixed order."""
        out = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            above = 0
            for j in bits(strict):
                above |= self.up[j] & ~(1 << j)
            for j in bits(strict & ~above):
                out.append((self.names[i], self.names[j]))
        return out

    def document(self) -> dict:
        """The ``gspec`` poset JSON document; heights are left to the loader."""
        return {"elements": list(self.names),
                "covers": [list(pair) for pair in self.covers()]}

    def upset(self, name: str) -> frozenset[str]:
        return self.names_of(self.up[self.index()[name]])

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.names[i] for i in bits(mask))

    def relabel(self, rng: random.Random, prefix: str) -> tuple["Poset", dict[str, str]]:
        """The same poset under a seeded bijection onto ``prefix<k>`` names."""
        fresh = [f"{prefix}{k}" for k in range(self.n)]
        rng.shuffle(fresh)
        rename = dict(zip(self.names, fresh))
        return Poset(tuple(fresh), self.up), rename


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(names: list[str], relations: list[tuple[int, int]]) -> Poset:
    """Reflexive-transitive closure of index pairs ``(i, j)`` meaning i <= j.

    Callers only pass acyclic generators (every family below relates a lower
    index or coordinate to a higher one).
    """
    n = len(names)
    up = [1 << i for i in range(n)]
    for i, j in relations:
        up[i] |= 1 << j
    # Generators always point from a smaller index to a larger one after the
    # topological numbering below, so one sweep from the top settles it.
    for i in reversed(range(n)):
        acc = up[i]
        for j in bits(up[i] & ~(1 << i)):
            acc |= up[j]
        up[i] = acc
    return Poset(tuple(names), tuple(up))


def grid(a: int, b: int, c: int) -> Poset:
    """Product of chains of lengths a, b and c, with a generic point below.

    Points are ``x<i>_<j>_<k>`` for 0 <= i <= a, 0 <= j <= b, 0 <= k <= c and
    ``g``; there are (a+1)(b+1)(c+1) + 1 of them.
    """
    coords = list(itertools.product(range(a + 1), range(b + 1), range(c + 1)))
    names = ["g"] + [f"x{i}_{j}_{k}" for i, j, k in coords]
    position = {xyz: 1 + t for t, xyz in enumerate(coords)}
    relations = [(0, 1)]
    for (i, j, k), t in position.items():
        for step in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            above = (i + step[0], j + step[1], k + step[2])
            if above in position:
                relations.append((t, position[above]))
    return closure(names, relations)


def wide(k: int) -> Poset:
    """LOC2 with k height-one primes: ``o < p1..pk < m``."""
    names = ["o"] + [f"p{i}" for i in range(1, k + 1)] + ["m"]
    relations = [(0, i) for i in range(1, k + 1)]
    relations += [(i, k + 1) for i in range(1, k + 1)]
    return closure(names, relations)


def random_order(rng: random.Random, n: int) -> Poset:
    """``tests/conftest.py::random_order`` with the size given and its edge
    count fixed: there each pair ``i < j`` is a generator with probability
    0.3; here exactly ``round(0.3 * n(n-1)/2)`` pairs are, drawn uniformly.
    Fixing the count removes the spread of sparse posets, whose many closed
    sets make ``check`` cost vary most between seeds."""
    names = [f"x{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    return closure(names, rng.sample(pairs, round(0.3 * len(pairs))))


def random_monotone_f(rng: random.Random, poset: Poset, bumps: int) -> dict[str, int]:
    """``tests/conftest.py::random_monotone_f`` with the number of bumps (0 to
    6 there) given: a bounded monotone level function in normal form
    (minimum -1)."""
    f = [0] * poset.n
    for _ in range(bumps):
        seed = rng.randrange(poset.n)
        for q in bits(poset.up[seed]):
            f[q] += 1
    low = min(f)
    return {poset.names[i]: v - low - 1 for i, v in enumerate(f)}


def f_levels(poset: Poset, f: dict[str, int]) -> list[frozenset[str]]:
    """The normalised levels ``{p : f(p) >= i}`` for i = 0..max f."""
    top = max(f.values())
    return [frozenset(p for p in poset.names if f[p] >= i) for i in range(top + 1)]
