"""Exhaustive small-scope fence: every poset on at most five points.

The posets are enumerated here, without gspec: every naturally labelled
poset on the points 0..n-1 (its strict relations only climb, i < j) for
n <= 5, as a set of climbing pairs closed under transitivity.  Each one
on at most four points runs the property suite on every one- and
two-level filtration by non-trivial upper sets, under every policy; its
one-step order at every such upper set, and each chain step's rule,
bracket and provenance on one to three levels, are compared with their
definitions over names and pairs.  On five points, every split of every
one- and two-level chain is compared with its definition over pairs.
"""

from itertools import combinations

from conftest import ONESTEP_NOT_TRANSITIVE, pairs_of, reference_verdict
from gspec.mutation import RULE_BOUNDED, RULE_DISCRETE, RULE_ONESTEP, RULE_PERFECT
from gspec.poset import bits
from gspec import (
    NOT_COHERENT,
    POLICIES,
    POLICY_ASSUME_COHERENT,
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


def small_posets(sizes=range(MAX_POINTS + 1)):
    """Every naturally labelled poset on each number of points in ``sizes``,
    by default at most ``MAX_POINTS``: its point names, its climbing pairs
    and the model built from its covers."""
    for n in sizes:
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
        inclusion = pairs_of(poset.base)
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
                    got = pairs_of(onestep_order(poset, poset.base.mask(V0), policy).order)
                except UndeterminedCoherence as exc:
                    assert policy == POLICY_ERROR and exc.pair in undetermined, where
                    continue
                assert not (policy == POLICY_ERROR and undetermined), where
                assert got == inside | {pair for pair, verdict in verdicts.items()
                                        if verdict in related}, where
    assert cases == 3 * 306


def maxima(points, relation):
    """The points of a set with none of the set strictly above them in a
    relation given as name pairs."""
    return {p for p in points if not any(a == p and b in points and b != p for a, b in relation)}


def longest_chain_names(names, strict):
    """Edges of a longest chain of strict name pairs: a point's longest
    chain below is one more than that of the longest below any point under
    it, and a point under another has fewer points under it."""
    below = {}
    for q in sorted(names, key=lambda q: sum((p, q) in strict for p in names)):
        below[q] = max((below[p] + 1 for p, r in strict if r == q), default=0)
    return max(below.values(), default=-1)


def reference_steps(poset, levels, annotations, steps):
    """Each step's rule restated over names and pairs, and for a bracketed
    step the points whose rows its upper bound prunes: the truncated-slice
    test takes the discrete rule everywhere; otherwise step 1 is the
    one-step rule, a later step is discrete when E is an antichain of the
    upper bound before it, perfect when annotated or at the vanishing level
    (the unique maximal point of a poset whose chains have at most two
    edges), and bounded otherwise.  The forced points are the maxima of
    the whole order and of the strata cut out so far; a bracket prunes
    those among E's maxima in the upper bound whose rows hold more than
    themselves."""
    names, inclusion = set(poset.base.elements), pairs_of(poset.base)
    strict = {(p, q) for p, q in inclusion if p != q}
    V = [names] + levels  # V[i] is V_{i-1}
    strata = [V[j] - V[j + 1] for j in range(len(levels))]
    truncated = not any(p in S and q in S for S in strata for p, q in strict)
    forced = [maxima(names, inclusion)]
    for S in strata:
        forced.append(forced[-1] | maxima(S, inclusion))
    vanishing = forced[0] if len(forced[0]) == 1 and longest_chain_names(names, strict) <= 2 \
        else None
    for (i, (step, _)) in enumerate(steps, 1):
        support, upper = V[i], pairs_of(step.pre.upper.order)
        E = names - support
        pruned = set()
        if i == 1 and not truncated:
            rule = RULE_ONESTEP
        elif truncated or not any(p in E and q in E and p != q for p, q in upper):
            rule = RULE_DISCRETE
        elif annotations.get(i) or support == vanishing:
            rule = RULE_PERFECT
        else:
            rule = RULE_BOUNDED
            pruned = {p for p in forced[i] & maxima(E, upper)
                      if any(a == p != b for a, b in upper)}
        yield rule, pruned


def split_pairs(order, inside):
    """The pairs of ``order`` that do not cross the set of names ``inside``."""
    return {(p, q) for p, q in pairs_of(order) if (p in inside) == (q in inside)}


def test_chain_rules_match_their_definition():
    """Every step of every one-, two- and three-level chain of every poset
    on at most four points, under every policy and with or without its last
    step annotated perfect (after a bracket, on three levels), takes the rule
    of its definition.  A bracketed
    step's upper bound is the upper bound before it with exactly the
    reference's pruned rows made singletons, which are also the forced
    points of the filtration's stratum pass among E's maxima there; its
    lower bound is the lower bound before it split at E, and a discrete or
    perfect step splits each bound before it at E.

    Every step's provenance is its definition's too.  A one-step order's is
    ``onestep at {V0}`` alone.  An exact step extends each bound's by
    ``"{rule} at {E}"``, and bounds that met before it stay one order.  A
    bracket's lower bound extends the lower bound's by ``"... (lower)"``,
    and its upper bound extends the upper bound's by ``"... (upper)"``, or
    the lower bound's when the bounds before it met."""
    rules = (RULE_ONESTEP, RULE_DISCRETE, RULE_PERFECT, RULE_BOUNDED)
    # Per number of levels: steps by rule, unannotated perfect steps (the
    # vanishing level), perfect steps after a bracket, and brackets that
    # prune rows.
    counted = rules + ("vanishing", "after-bracket", "pruned")
    seen = {depth: dict.fromkeys(counted, 0) for depth in (1, 2, 3)}
    for names, relation, poset in small_posets():
        uppers = upper_sets(len(names), relation)
        chains = [[v] for v in uppers] + [[v, w] for v in uppers for w in uppers if w <= v]
        chains += [[v, w, x] for v, w in (c for c in chains if len(c) == 2)
                   for x in uppers if x <= w]
        for levels in chains:
            levels = [{names[i] for i in v} for v in levels]
            count = seen[len(levels)]
            filt = validate_filtration(poset, [sorted(v) for v in levels])
            forced = filt.stratum_pass[1]
            for policy in POLICIES:
                for annotations in ({}, {len(levels): True}) if len(levels) > 1 else ({},):
                    where = (names, sorted(relation), levels, policy, annotations)
                    try:
                        steps = chain_order(poset, filt, annotations, policy)
                    except UndeterminedCoherence:
                        assert policy == POLICY_ERROR, where
                        continue
                    reference = reference_steps(poset, levels, annotations, steps)
                    for (step, post), (rule, pruned) in zip(steps, reference, strict=True):
                        assert step.rule == rule, (where, step.index)
                        count[rule] += 1
                        count["vanishing"] += rule == RULE_PERFECT and step.index not in annotations
                        count["after-bracket"] += rule == RULE_PERFECT and not step.pre.exact
                        if rule == RULE_ONESTEP:
                            V0 = ",".join(sorted(levels[0]))
                            assert post.lower.provenance == (f"onestep at {{{V0}}}",), where
                            assert post.upper is post.lower, where
                            continue
                        at = (where, step.index)
                        pre, E = step.pre, step.mutation_class
                        upper, lower = pre.upper.order, pre.lower.order
                        inside = lower.names(E)
                        assert pairs_of(post.lower.order) == split_pairs(lower, inside), at
                        entry = f"{rule} at {{{','.join(sorted(inside))}}}"
                        if rule != RULE_BOUNDED:
                            assert post.lower.provenance == pre.lower.provenance + (entry,), at
                            assert (post.upper is post.lower if pre.exact else
                                    post.upper.provenance == pre.upper.provenance + (entry,)), at
                            # Bounds that met before give the lower bound's split again.
                            assert (post.upper.order.up == post.lower.order.up if pre.exact else
                                    pairs_of(post.upper.order) == split_pairs(upper, inside)), at
                            continue
                        assert pairs_of(post.upper.order) == {
                            (p, q) for p, q in pairs_of(upper) if p == q or p not in pruned}, at
                        before = pre.lower if pre.exact else pre.upper
                        assert (post.lower.provenance, post.upper.provenance) == (
                            pre.lower.provenance + (f"{entry} (lower)",),
                            before.provenance + (f"{entry} (upper)",)), at
                        claimed = forced[step.index] & upper.maximal(E)
                        assert poset.base.mask(pruned) == sum(
                            1 << k for k in bits(claimed) if upper.up[k] != 1 << k), at
                        count["pruned"] += bool(pruned)
    # Each rule is reached, perfect also at the vanishing level unannotated,
    # and some brackets prune rows; on three levels, perfect steps also
    # follow a bracket.  One and two levels together count as before.
    assert {key: seen[1][key] + seen[2][key] for key in counted} == {
        RULE_ONESTEP: 1940, RULE_DISCRETE: 7248, RULE_PERFECT: 834, RULE_BOUNDED: 742,
        "vanishing": 46, "after-bracket": 0, "pruned": 60}
    assert seen[3] == {
        RULE_ONESTEP: 2424, RULE_DISCRETE: 21888, RULE_PERFECT: 1378, RULE_BOUNDED: 3038,
        "vanishing": 166, "after-bracket": 258, "pruned": 180}


def test_five_point_chain_splits_match_their_definition():
    """On every naturally labelled 5-point poset, every one- and two-level
    chain under every policy: each discrete and perfect step's bounds, and
    each bracket's lower bound, are the bound before without the pairs that
    cross E.  The only failure allowed is the pinned contradiction of a
    blanket assume-coherent answer (ROADMAP item 3), besides the error
    policy's undetermined pairs.  Each distinct split is compared once."""
    posets = chains = contradicted = 0
    splits = dict.fromkeys((RULE_DISCRETE, RULE_PERFECT, RULE_BOUNDED), 0)
    for names, relation, poset in small_posets([5]):
        posets += 1
        checked = set()  # (rows before, rows after, E)
        uppers = upper_sets(5, relation)
        for levels in [[v] for v in uppers] + [[v, w] for v in uppers for w in uppers if w <= v]:
            filt = validate_filtration(poset, [sorted(names[i] for i in v) for v in levels])
            for policy in POLICIES:
                chains += 1
                where = (names, sorted(relation), levels, policy)
                try:
                    steps = chain_order(poset, filt, None, policy)
                except UndeterminedCoherence:
                    assert policy == POLICY_ERROR, where
                    continue
                except AssertionError as exc:
                    assert policy == POLICY_ASSUME_COHERENT, where
                    assert str(exc) == ONESTEP_NOT_TRANSITIVE, where
                    contradicted += 1
                    continue
                for step, post in steps:
                    if step.rule == RULE_ONESTEP:
                        continue
                    splits[step.rule] += 1
                    inside = poset.base.names(step.mutation_class)
                    bounds = [(step.pre.lower, post.lower)]
                    if step.rule != RULE_BOUNDED:
                        bounds.append((step.pre.upper, post.upper))
                    for before, after in bounds:
                        key = (before.order.up, after.order.up, step.mutation_class)
                        if key in checked:
                            continue
                        checked.add(key)
                        assert pairs_of(after.order) == split_pairs(before.order, inside), (
                            where, step.index)
    assert posets == 357 and chains == 63_315 and contradicted == 9
    assert splits == {RULE_DISCRETE: 55_146, RULE_PERFECT: 465, RULE_BOUNDED: 25_403}
