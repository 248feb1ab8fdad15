"""Exhaustive small-scope fence: every poset on at most four points.

The posets are enumerated here, without gspec: every naturally labelled
poset on the points 0..n-1 (its strict relations only climb, i < j) for
n <= 4, as a set of climbing pairs closed under transitivity.  Each one
runs the property suite on every one- and two-level filtration by
non-trivial upper sets, under every policy, and its one-step order at
every such upper set is compared with the definition's.
"""

from itertools import combinations

from conftest import reference_verdict
from gspec import (
    NOT_COHERENT,
    POLICIES,
    POLICY_ASSUME_NONCOHERENT,
    POLICY_ERROR,
    UNDETERMINED,
    GspecError,
    UndeterminedCoherence,
    chain_order,
    load_prime_poset,
    onestep_order,
    run_suite,
    validate_filtration,
)

MAX_POINTS = 4
# Naturally labelled posets on 0, 1, 2, 3 and 4 points: 1 + 1 + 2 + 7 + 40.
POSETS = 51
# Over those posets, 306 one-level and 822 two-level filtrations (nested
# pairs, equal levels included), each under the three policies.
SUITES = 3 * (306 + 822)


def climbing_posets(n):
    """Every transitively closed set of pairs (i, j) with i < j < n."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        relation = {pair for k, pair in enumerate(pairs) if chosen >> k & 1}
        if all((i, k) in relation for i, j in relation for j2, k in relation if j == j2):
            yield relation


def small_posets():
    """Every naturally labelled poset on at most ``MAX_POINTS`` points: its
    point names, its climbing pairs and the model built from its covers."""
    for n in range(MAX_POINTS + 1):
        names = tuple(f"x{i}" for i in range(n))
        for relation in climbing_posets(n):
            covers = [(i, j) for i, j in relation
                      if not any((i, k) in relation and (k, j) in relation for k in range(n))]
            yield names, relation, load_prime_poset(
                {"elements": list(names), "covers": [[names[i], names[j]] for i, j in covers]})


def upper_sets(n, relation):
    """Every non-trivial upper set as a frozenset of points."""
    found = []
    for size in range(1, n):
        for members in combinations(range(n), size):
            if all(j in members for i, j in relation if i in members):
                found.append(frozenset(members))
    return found


def reduction(up):
    """The covers of per-point up-set masks, straight from the definition."""
    n = len(up)
    return tuple(
        sum(1 << j for j in range(n) if j != i and up[i] >> j & 1
            and not any(k not in (i, j) and up[i] >> k & 1 and up[k] >> j & 1
                        for k in range(n)))
        for i in range(n))


def assert_valid_order(order, names):
    """Reflexive, antisymmetric and transitive masks on ``names``, with the
    covers of its transitive reduction."""
    n, up = len(names), order.up
    assert order.elements == names and len(up) == n
    for i in range(n):
        assert up[i] >> i & 1 and not up[i] >> n
        for j in range(n):
            if j != i and up[i] >> j & 1:
                assert not up[j] >> i & 1 and not up[j] & ~up[i]
    assert order.covers == reduction(up)


def test_every_small_poset_filtration_and_policy():
    posets, suites, errors = 0, 0, []
    for names, relation, poset in small_posets():
        n = len(names)
        posets += 1
        assert poset.base.up == tuple(
            1 << i | sum(1 << j for a, j in relation if a == i) for i in range(n))
        uppers = upper_sets(n, relation)
        chains = [[v] for v in uppers] + [[v, w] for v in uppers for w in uppers if w <= v]
        for levels in chains:
            filt = validate_filtration(poset, [sorted(names[i] for i in v) for v in levels])
            for policy in POLICIES:
                suites += 1
                try:
                    reports = run_suite(poset, filt, None, policy)
                except GspecError as exc:
                    errors.append((names, levels, policy, exc))
                    continue
                failed = [r for r in reports if not r.passed]
                assert not failed, (names, relation, levels, policy, failed)
                for _, post in chain_order(poset, filt, None, policy):
                    lower, upper = post.lower.order, post.upper.order
                    assert_valid_order(lower, names)
                    assert_valid_order(upper, names)
                    assert not any(a & ~b for a, b in zip(lower.up, upper.up))
                    assert post.exact == (lower.up == upper.up)
    assert posets == POSETS
    assert suites == SUITES
    # The oracle leaves some cross pairs undecided; only the error policy
    # turns those into errors.
    assert errors and all(isinstance(exc, UndeterminedCoherence) and policy == POLICY_ERROR
                          for _, _, policy, exc in errors), errors


def test_onestep_order_matches_its_definition():
    """At every non-trivial upper set V0 and under every policy, the one-step
    order is inclusion inside V0 and inside its complement, plus each cross
    pair p < q (p outside V0, q inside it) that the reference oracle calls
    not coherent, or leaves undetermined under assume-noncoherent.  The
    error policy raises exactly when some cross pair is undetermined."""
    cases = 0
    for names, relation, poset in small_posets():
        inclusion = poset.base.relation
        for members in upper_sets(len(names), relation):
            V0 = {names[i] for i in members}
            inside = {(p, q) for p, q in inclusion if (p in V0) == (q in V0)}
            verdicts = {(p, q): reference_verdict(poset, p, q, V0)[0]
                        for p, q in inclusion if p not in V0 and q in V0}
            undetermined = {pair for pair, verdict in verdicts.items() if verdict == UNDETERMINED}
            for policy in POLICIES:
                cases += 1
                related = {NOT_COHERENT}
                if policy == POLICY_ASSUME_NONCOHERENT:
                    related.add(UNDETERMINED)
                where = (names, sorted(relation), sorted(V0), policy)
                try:
                    got = onestep_order(poset, poset.base.mask(V0), policy).order.relation
                except UndeterminedCoherence as exc:
                    assert policy == POLICY_ERROR and exc.pair in undetermined, where
                    continue
                assert not (policy == POLICY_ERROR and undetermined), where
                assert got == inside | {pair for pair, verdict in verdicts.items()
                                        if verdict in related}, where
    assert cases == 3 * 306
