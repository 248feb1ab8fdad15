"""Metamorphic fence: renaming the points changes nothing but the names.

A metamorphic relation needs no reference.  The engine runs on a
transformed input, and its result, mapped back, is compared with its own
result on the original.  Renaming the points so that their sorted order
is permuted moves every bit of every mask, so the relation exercises the
mask code, and any step that reads the point order where it should read
the partial order.

Over random orders of up to ten points, random monotone level functions,
an occasional perfect annotation and every policy, the renamed run must
give the same chain (each step's rule, class, exactness and bounds) and
the same ``run_suite`` report names and verdicts.  A run that raises must
raise the same type; which pair an error names may depend on the names.
"""

import random
from collections import Counter

from conftest import pairs_of, poset_from_order, random_monotone_f, random_order
from gspec import (
    POLICIES,
    GspecError,
    chain_order,
    covering_pairs,
    f_to_filtration,
    load_prime_poset,
    run_suite,
)

ORDERS = 500


def renamed(order, rng):
    """The model of ``order`` with its points renamed so that their sorted
    order is a random permutation of the old one, and the map from the new
    names back to the old."""
    slots = rng.sample(range(len(order.elements)), len(order.elements))
    new = {p: f"y{slot:02d}" for p, slot in zip(order.elements, slots)}
    poset = load_prime_poset({"elements": sorted(new.values()),
                              "covers": [[new[p], new[q]] for p, q in covering_pairs(order)]})
    return poset, new, {name: p for p, name in new.items()}


def outcome(poset, f, annotations, policy, back):
    """A run over the original names: per step its index, rule, class,
    exactness and bounds, then each report's name and verdict; or the type
    of the error it raises (defect 1's AssertionError included)."""
    def mapped(pairs):
        return frozenset((back[p], back[q]) for p, q in pairs)

    try:
        filt = f_to_filtration(poset, f)
        steps = chain_order(poset, filt, annotations, policy)
        reports = run_suite(poset, filt, annotations, policy)
    except (GspecError, AssertionError) as exc:
        return type(exc)
    chain = [(step.index, step.rule, frozenset(back[p] for p in poset.base.names(step.mutation_class)),
              post.exact, mapped(pairs_of(post.lower.order)), mapped(pairs_of(post.upper.order)))
             for step, post in steps]
    return chain, [(report.name, report.passed) for report in reports]


def test_renaming_changes_nothing_but_the_names():
    rng = random.Random(20261022)
    seen = Counter()
    for _ in range(ORDERS):
        order = random_order(rng)
        f = random_monotone_f(rng, order)
        poset = poset_from_order(order)
        twin, new, back = renamed(order, rng)
        identity = {p: p for p in order.elements}
        steps = f_to_filtration(poset, f).n
        annotations = {rng.randint(1, steps): True} if steps and rng.random() < 0.3 else {}
        for policy in POLICIES:
            where = (order.elements, sorted(pairs_of(order)), f, annotations, policy, new)
            expected = outcome(poset, f, annotations, policy, identity)
            got = outcome(twin, {new[p]: v for p, v in f.items()}, annotations, policy, back)
            assert got == expected, where
            if isinstance(expected, type):
                seen[expected.__name__] += 1
            else:
                seen.update(rule for _, rule, *_ in expected[0])
    # Every rule is reached, and both kinds of error are compared.
    assert {"onestep", "discrete", "perfect", "bounded", "UndeterminedCoherence",
            "AssertionError"} <= set(seen), seen
