import random
from itertools import chain, combinations

import pytest

from gspec import (
    COHERENT,
    NOT_COHERENT,
    UNDETERMINED,
    ClosureOrder,
    Order,
    PrimePoset,
    build_order,
    cb_filtration,
    covering_pairs,
    load_prime_poset,
    onestep_order,
)
from gspec.poset import bits

# The text of the AssertionError ``onestep_order`` raises when a blanket
# assume-coherent answer contradicts the oracle (a known defect, pinned).
ONESTEP_NOT_TRANSITIVE = (
    "one-step relation not transitively closed; the coherence data is "
    "inconsistent with a ring"
)


def powerset(items):
    items = sorted(items)
    return [
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(items, k) for k in range(len(items) + 1)
        )
    ]


def pairs_of(order: Order) -> frozenset[tuple[str, str]]:
    """All pairs ``(p, q)`` with ``p <= q``, read from the ``up`` masks bit
    by bit with a loop of its own, so that the oracles built on it share no
    code with the order they check."""
    els = order.elements
    return frozenset((p, els[j]) for p, row in zip(els, order.up)
                     for j in range(len(els)) if row >> j & 1)


def brute_lower_sets(order: Order) -> set[frozenset[str]]:
    """Independent enumeration straight from the definition."""
    rel = pairs_of(order)
    out = set()
    for S in powerset(order.elements):
        if all(q in S for p in S for (q, r) in rel if r == p):
            out.add(S)
    return out


def strict_pairs(order: Order) -> set[tuple[str, str]]:
    """The relation without its diagonal."""
    return {(p, q) for p, q in pairs_of(order) if p != q}


def up_names(order: Order, p: str) -> frozenset[str]:
    """The smallest upper set holding ``p`` (its minimal open set), read
    from its ``up`` mask."""
    return order.names(order.up[order.index[p]])


def down_names(order: Order, p: str) -> frozenset[str]:
    """The smallest lower set holding ``p`` (the closure of ``{p}``), read
    from its ``down`` mask."""
    return order.names(order.down[order.index[p]])


def brute_upper_sets(order: Order) -> set[frozenset[str]]:
    universe = frozenset(order.elements)
    return {universe - S for S in brute_lower_sets(order)}


def onestep(poset: PrimePoset, V0, policy: str = "error") -> ClosureOrder:
    """The one-step order at a level given by its point names."""
    return onestep_order(poset, poset.base.mask(V0), policy)


def between(order, p, q):
    """The interval [p, q] read from the pair relation."""
    rel = pairs_of(order)
    return {r for r in order.elements if (p, r) in rel and (r, q) in rel}


def reference_verdict(poset, p, q, V0):
    """The five rules of the oracle restated over names and pairs."""
    rel = pairs_of(poset.base)
    members = between(poset.base, p, q)
    W = members & V0
    if not W or W == members:
        return COHERENT, "trivial"
    if len(members) <= 2:
        return COHERENT, "dimension-one"
    if W == members - {p}:
        return COHERENT, "generic-complement"
    minimal = [r for r in W if not any(s != r and (s, r) in rel for s in W)]
    if any(poset.height[r] - poset.height[p] >= 2 for r in minimal):
        return NOT_COHERENT, "deep-minimal"
    known = poset.coherence.get((p, q, frozenset(W)))
    if known is not None:
        return (COHERENT if known else NOT_COHERENT), "annotation"
    return UNDETERMINED, "no-rule"


def assert_like_fresh(order):
    """``order``'s cached structure, inherited or not, is what an order
    built afresh from its masks derives: its points are in a linear
    extension, and its down-sets, heights, layers and lower sets agree."""
    fresh = Order(order.elements, order.up)
    position = {i: k for k, i in enumerate(order._bottom_up)}
    assert sorted(position) == list(range(len(order.up)))
    assert all(position[i] < position[j]
               for i, m in enumerate(fresh.up) for j in bits(m) if j != i)
    assert order.down == fresh.down
    assert order.heights == fresh.heights
    assert cb_filtration(order) == cb_filtration(fresh)
    assert order.closed_family == fresh.closed_family


def poset_from_order(order: Order) -> PrimePoset:
    return load_prime_poset(
        {"elements": list(order.elements),
         "covers": [list(c) for c in covering_pairs(order)]}
    )


def random_order(rng: random.Random, max_size: int = 10, min_size: int = 1) -> Order:
    n = rng.randint(min_size, max_size)
    names = [f"x{i}" for i in range(n)]
    relations = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return build_order(names, relations)


def random_monotone_f(rng: random.Random, order: Order) -> dict[str, int]:
    """A bounded monotone level function in normal form (minimum -1)."""
    f = {p: 0 for p in order.elements}
    rel = pairs_of(order)
    for _ in range(rng.randint(0, 6)):
        seed = rng.choice(sorted(order.elements))
        up = {q for q in order.elements if (seed, q) in rel}
        for q in up:
            f[q] += 1
    low = min(f.values())
    return {p: v - low - 1 for p, v in f.items()}


def random_upper_set(rng, order, within):
    """The upper closure of a random subset of the upper set ``within``."""
    v = 0
    for i in range(len(order.elements)):
        if within >> i & 1 and rng.random() < 0.3:
            v |= order.up[i]
    return v


@pytest.fixture
def rng():
    return random.Random(20250809)
