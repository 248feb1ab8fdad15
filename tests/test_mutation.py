import random
import re

import pytest

from conftest import (
    ONESTEP_NOT_TRANSITIVE,
    assert_like_fresh,
    down_names,
    onestep,
    pairs_of,
    poset_from_order,
    random_order,
    random_upper_set,
    strict_pairs,
    up_names,
)
from gspec import (
    POLICIES,
    POLICY_ASSUME_COHERENT,
    POLICY_ASSUME_NONCOHERENT,
    BoundedOrder,
    ClosureOrder,
    GspecError,
    InvalidArgument,
    NotClosed,
    NotDiscrete,
    NotSpecializationClosed,
    Order,
    UndeterminedCoherence,
    UnknownPolicy,
    UnknownStep,
    build_order,
    chain_order,
    check_axioms,
    exact_bounds,
    f_to_filtration,
    load_prime_poset,
    mutate_discrete,
    mutate_general,
    mutate_perfect,
    onestep_order,
    preset,
    standard_order,
    validate_filtration,
)
from gspec import mutation as mut
from gspec import poset as po

LOC2_HEIGHT_ONE = {"p1", "p2", "p3", "p4", "p5"}


def at(co, names) -> int:
    """The mask of a class given by its names."""
    return co.order.mask(names)


def strict(co) -> set[tuple[str, str]]:
    return strict_pairs(co.order)


def claimed_bracket(co, e, claims):
    """The bracket at ``e`` with the upper bound pruned at the claimed
    points that are maximal in E, as the chain prunes it."""
    return mut._step(exact_bounds(co), e, mut.RULE_BOUNDED, claims & co.order.maximal(e))


class TestStandardOrder:
    def test_dvr1(self):
        assert strict(standard_order(preset("DVR1"))) == {("o", "m")}

    def test_loc2_is_inclusion(self):
        poset = preset("LOC2")
        assert standard_order(poset).order == poset.base

    def test_antichain_discrete(self):
        poset = load_prime_poset({"elements": ["a", "b"], "covers": []})
        assert standard_order(poset).order.is_discrete(poset.base.full_mask)


class TestOnestep:
    def test_loc2_at_closed_point(self):
        co = onestep(preset("LOC2"), {"m"})
        assert strict(co) == {("o", "m")} | {("o", p) for p in LOC2_HEIGHT_ONE}

    def test_loc3_at_height_two(self):
        co = onestep(preset("LOC3"), {"r1", "r2", "r3", "m"})
        assert strict(co) == (
            {("o", x) for x in ("q1", "q2", "q3", "r1", "r2", "r3", "m")}
            | {("r1", "m"), ("r2", "m"), ("r3", "m")}
        )

    def test_nagata_keeps_generic_below_top(self):
        co = onestep(preset("NAGATA2"), {"a", "m"})
        assert strict(co) == {("o", "b"), ("a", "m"), ("o", "m")}

    def test_poly_disconnects(self):
        co = onestep(preset("POLY2"), {"a", "m"})
        assert strict(co) == {("o", "b"), ("a", "m")}

    def test_degenerate_level_is_standard(self):
        poset = preset("LOC2")
        for v in (0, poset.base.full_mask):
            co = onestep_order(poset, v)
            assert co.order == poset.base
            assert "shift" in co.provenance

    def test_undetermined_policies(self):
        bare = load_prime_poset({
            "elements": ["o", "a", "b", "m"],
            "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
        })
        with pytest.raises(UndeterminedCoherence) as err:
            onestep(bare, {"a", "m"})
        assert err.value.pair == ("o", "m")
        relaxed = onestep(bare, {"a", "m"}, POLICY_ASSUME_COHERENT)
        assert ("o", "m") not in strict(relaxed)
        strict_policy = onestep(bare, {"a", "m"}, POLICY_ASSUME_NONCOHERENT)
        assert ("o", "m") in strict(strict_policy)

    def test_unknown_policy(self):
        """A bad policy is a typed gspec error, still a ValueError, from
        both entry points."""
        loc2 = preset("LOC2")
        message = ("unknown policy 'bogus' (choose from ('error', 'assume-coherent', "
                   "'assume-noncoherent'))")
        with pytest.raises(UnknownPolicy) as caught:
            onestep_order(loc2, loc2.base.mask({"m"}), "bogus")
        assert isinstance(caught.value, ValueError) and str(caught.value) == message
        filt = validate_filtration(loc2, [{"m"}])
        with pytest.raises(GspecError, match=re.escape(message)):
            chain_order(loc2, filt, policy="bogus")

    def test_rejects_level_not_upper_set(self):
        """A V0 that is not specialisation-closed is level 0's error."""
        loc2 = preset("LOC2")
        with pytest.raises(NotSpecializationClosed,
                           match="^level 0 is not specialisation-closed$") as caught:
            onestep_order(loc2, loc2.base.mask(["o"]), POLICY_ASSUME_NONCOHERENT)
        assert caught.value.index == 0


class TestMutateDiscrete:
    def test_rejects_non_discrete_class(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        with pytest.raises(NotDiscrete):
            mutate_discrete(h1, at(h1, {"o"} | LOC2_HEIGHT_ONE))

    def test_rejects_non_closed_class(self):
        poset = preset("LOC2")
        with pytest.raises(NotClosed):
            mutate_discrete(standard_order(poset), poset.base.mask({"m"}))

    def test_antichain_unchanged(self):
        poset = load_prime_poset({"elements": ["a", "b", "c"], "covers": []})
        co = standard_order(poset)
        assert mutate_discrete(co, at(co, {"a", "b"})).order == co.order

    def test_three_point_example(self):
        order = build_order(["o", "a", "x"], [("o", "a")])
        co = exact_bounds(standard_order(load_prime_poset(
            {"elements": ["o", "a", "x"], "covers": [["o", "a"]]}
        ))).lower
        result = mutate_discrete(co, at(co, {"o"}))
        assert result.order.is_discrete(order.full_mask)
        # Brute-force law: the closed sets afterwards are the U with U | E
        # closed beforehand.
        from conftest import brute_lower_sets, powerset
        expected = {
            U for U in powerset(order.elements)
            if (U | {"o"}) in brute_lower_sets(order)
        }
        assert brute_lower_sets(result.order) == expected


class TestMutatePerfect:
    def test_loc2_second_tilt(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        result = mutate_perfect(h1, at(h1, {"o"} | LOC2_HEIGHT_ONE))
        assert strict(result) == {("o", p) for p in LOC2_HEIGHT_ONE}

    def test_empty_class_unchanged(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        assert mutate_perfect(h1, 0).order == h1.order

    def test_full_class_unchanged(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        assert mutate_perfect(h1, poset.base.full_mask).order == h1.order


class TestMutateGeneral:
    def test_loc2_bounds(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        bounds = mutate_general(h1, at(h1, {"o"} | LOC2_HEIGHT_ONE))
        assert not bounds.exact
        assert ("o", "m") not in pairs_of(bounds.lower.order)
        assert ("o", "m") in pairs_of(bounds.upper.order)

    def test_empty_class_exact(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        bounds = mutate_general(h1, 0)
        assert bounds.exact and bounds.lower.order == h1.order

    def test_discrete_order_exact(self):
        poset = load_prime_poset({"elements": ["a", "b"], "covers": []})
        co = standard_order(poset)
        bounds = mutate_general(co, at(co, {"a"}))
        assert bounds.exact and bounds.lower.order == co.order

    def test_pruning_removes_forced_sources(self):
        poset = preset("LOC3")
        h1 = onestep(poset, {"r1", "r2", "r3", "m"})
        E = at(h1, {"o", "q1", "q2", "q3", "r1", "r2", "r3"})
        bounds = claimed_bracket(h1, E, at(h1, {"r1", "r2", "r3"}))
        assert ("r1", "m") not in pairs_of(bounds.upper.order)
        assert ("o", "m") in pairs_of(bounds.upper.order)

    @staticmethod
    def warshall_upper(order, e, forced):
        """The upper bound as first defined: the pre-order's rows, cut back
        to E at the claimed points of E, then closed under transitivity."""
        up = [row & e if (forced & e) >> i & 1 else row for i, row in enumerate(order.up)]
        for k in range(len(up)):
            for i in range(len(up)):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return tuple(up)

    def test_upper_bound_needs_no_closure(self):
        """With claims on maximal points of E the upper bound is closed as
        built, and the result is an order between the lower bound and the
        pre-order."""
        rng = random.Random(20261021)
        for _ in range(1000):
            order = random_order(rng, max_size=11)
            co = ClosureOrder(order, ("test",))
            e = 0
            for i in range(len(order.elements)):
                if rng.random() < 0.4:
                    e |= order.down[i]
            maxima = [i for i in range(len(order.elements))
                      if e >> i & 1 and order.up[i] & e == 1 << i]
            true_claims = sum(1 << i for i in maxima if rng.random() < 0.5)
            bounds = claimed_bracket(co, e, true_claims)
            assert bounds.upper.order.up == self.warshall_upper(order, e, true_claims)

            bounds = claimed_bracket(co, e, rng.getrandbits(len(order.elements)))
            assert bounds.lower.order.refines(bounds.upper.order)
            assert bounds.upper.order.refines(order)


class TestChain:
    def test_loc2_two_step(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        steps = chain_order(poset, filt)
        rules = [(s.rule, s.perfect, post.exact) for s, post in steps]
        assert rules == [("onestep", False, True), ("perfect", True, True)]
        final = steps[-1][1].lower
        assert strict(final) == {("o", p) for p in LOC2_HEIGHT_ONE}

    def test_loc2m_two_step(self):
        poset = preset("LOC2M")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        steps = chain_order(poset, filt)
        assert steps[1][0].rule == "perfect"
        final = steps[-1][1].lower.order
        assert up_names(final, "m") == {"m"} and down_names(final, "m") == {"m"}

    def test_truncated_slice_shortcut(self):
        from gspec import height_filtration
        poset = preset("LOC3")
        steps = chain_order(poset, height_filtration(poset))
        assert [s.rule for s, _ in steps] == ["discrete"] * 3
        assert all(s.perfect and post.exact for s, post in steps)
        assert steps[-1][1].lower.order.is_discrete(poset.base.full_mask)

    def test_dvr1_single_level(self):
        poset = preset("DVR1")
        steps = chain_order(poset, validate_filtration(poset, [{"m"}]))
        assert len(steps) == 1 and steps[0][0].rule == "discrete"
        assert steps[0][1].lower.order.is_discrete(poset.base.full_mask)

    def test_empty_filtration_no_steps(self):
        poset = preset("LOC2")
        assert chain_order(poset, validate_filtration(poset, [])) == []

    def test_annotated_perfect_step(self):
        # A three-dimensional chain the built-in certificates cannot resolve
        # becomes exact when the user declares the step perfect.
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"r1", "r2", "r3", "m"}, {"m"}])
        bounded = chain_order(poset, filt)
        assert bounded[1][0].rule == "bounded" and not bounded[1][1].exact
        annotated = chain_order(poset, filt, step_annotations={2: True})
        assert annotated[1][0].rule == "perfect" and annotated[1][1].exact

    @pytest.mark.parametrize("index", [0, 3, 99, -1])
    def test_annotation_outside_chain_rejected(self, index):
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"r1", "r2", "r3", "m"}, {"m"}])
        with pytest.raises(UnknownStep, match=f"'i' is {index}, outside the chain's steps 1..2"):
            chain_order(poset, filt, step_annotations={2: True, index: True})

    def test_bounded_step_brackets(self):
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"r1", "r2", "r3", "m"}, {"m"}])
        step, post = chain_order(poset, filt)[1]
        lower, upper = post.lower.order, post.upper.order
        assert pairs_of(lower) < pairs_of(upper)
        # The forced-maximal pruning strips the height-two sources but keeps
        # the undetermined generic-to-top relation.
        assert pairs_of(upper) - pairs_of(lower) == {("o", "m")}

    def test_mutation_class_recorded(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        steps = chain_order(poset, filt)
        assert poset.base.names(steps[0][0].mutation_class) == {"o"} | LOC2_HEIGHT_ONE
        assert poset.base.names(steps[1][0].support) == {"m"}

    def test_long_chain_counts_maxima_linearly(self, monkeypatch):
        """A chain of bracketed steps takes a bounded number of maxima per
        step: each step's pruning mask is read from one pass, not rebuilt
        from step 0."""
        poset, calls, maximal = preset("LOC3"), [0], Order.maximal

        def counted(self, S):
            calls[0] += 1
            return maximal(self, S)

        monkeypatch.setattr(Order, "maximal", counted)
        counts = {}
        for m in (500, 1000):
            f = {p: 0 for p in poset.base.elements} | {"m": m}
            filt = f_to_filtration(poset, f)
            calls[0] = 0
            steps = chain_order(poset, filt)
            assert len(steps) == m and steps[-1][0].rule == "bounded"
            counts[m] = calls[0]
        assert counts[1000] < 6 * 1000
        assert counts[1000] <= 2 * counts[500] + 10

    def test_inexact_step_builds_each_bound_once(self, monkeypatch):
        """A bounded step from an inexact bracket builds its lower bound from
        the lower bound only and its upper bound from the upper bound only,
        each once: one split, and at most one walk for the pruned rows."""
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"m", "q1", "q2", "r1", "r2", "r3"},
                                           {"m", "q1", "r1", "r2", "r3"},
                                           {"m", "q1", "r1", "r3"}])
        log = []

        def logged(name, original):
            def wrapper(*args):
                log.append(name)
                return original(*args)
            return wrapper

        monkeypatch.setattr(Order, "_split", logged("_split", Order._split))
        monkeypatch.setattr(po, "_walk", logged("_walk", po._walk))
        monkeypatch.setattr(mut, "MutationStep", logged("MutationStep", mut.MutationStep))
        steps = chain_order(poset, filt, policy=POLICY_ASSUME_NONCOHERENT)
        assert [step.rule for step, _ in steps] == ["onestep", "bounded", "bounded"]
        assert not steps[1][1].exact and not steps[2][1].exact
        # Each step's calls come before its MutationStep is made.
        third = log[log.index("MutationStep", log.index("MutationStep") + 1) + 1:-1]
        assert third.count("_split") == 1
        assert third.count("_walk") <= 1


class TestInheritedStructure:
    """Orders derived by removing relations are handed their parent's
    linear extension; it, and all they derive from it, must be what the
    derived order would find for itself."""

    @staticmethod
    def parents(seed):
        """About 300 random orders, two in three with their down-sets
        cached, which a derived order must not inherit, each with its lower
        sets as found on a twin, so that listing them caches nothing on the
        order."""
        rng = random.Random(seed)
        for _ in range(300):
            order = random_order(rng, max_size=9)
            if rng.random() < 2 / 3:
                order.down
            yield rng, order, list(po.members(Order(order.elements, order.up).closed_family))

    def test_splits_at_every_closed_class(self):
        kept = inherited = 0
        for _, order, closed in self.parents(20261023):
            for e in closed:
                split = order._split(e)
                crossing = any(m & (~e if e >> i & 1 else e) for i, m in enumerate(order.up))
                assert (split is order) == (not crossing), (order, e)
                if split is order:
                    kept += 1
                    continue
                assert "_bottom_up" in vars(split)
                inherited += 1
                assert_like_fresh(split)
        assert kept > 300 and inherited > 1000

    def test_onestep_orders(self):
        inherited = 0
        for rng, order, _ in self.parents(20261024):
            poset = poset_from_order(order)
            base = poset.base
            for _ in range(4):
                v = random_upper_set(rng, base, base.full_mask)
                got = onestep_order(poset, v, POLICY_ASSUME_NONCOHERENT).order
                if got.up == base.up:  # no cross pair dropped: the same order
                    assert got is base
                    continue
                assert "_bottom_up" in vars(got)
                inherited += 1
                assert_like_fresh(got)
        assert inherited > 100

    def test_bracket_upper_bounds(self):
        inherited = 0
        for rng, order, closed in self.parents(20261025):
            for e in rng.sample(closed, min(4, len(closed))):
                co = ClosureOrder(order, ("test",))
                upper = claimed_bracket(co, e, rng.getrandbits(len(order.up))).upper.order
                if upper is order:
                    continue
                assert "_bottom_up" in vars(upper)
                inherited += 1
                assert_like_fresh(upper)
        assert inherited > 100


class TestBoundedOrder:
    def test_rejects(self):
        """A bracket that is not one is an InvalidArgument, so a GspecError
        and a ValueError."""
        chain, flat = build_order(["m", "o"], [("o", "m")]), build_order(["m", "o"], [])
        with pytest.raises(InvalidArgument, match="^lower bound exceeds upper bound$") as caught:
            BoundedOrder(ClosureOrder(chain, ("chain",)), ClosureOrder(flat, ("flat",)))
        assert isinstance(caught.value, GspecError) and isinstance(caught.value, ValueError)

    def test_exact_when_bounds_are_one_order(self):
        """Exactness is read off the bounds: equal orders built apart, with
        different provenance, are exact; different orders are not."""
        chain, flat = build_order(["m", "o"], [("o", "m")]), build_order(["m", "o"], [])
        again = build_order(["m", "o"], [("o", "m")])
        assert BoundedOrder(ClosureOrder(chain, ("a",)), ClosureOrder(again, ("b",))).exact
        assert not BoundedOrder(ClosureOrder(flat, ("a",)), ClosureOrder(chain, ("b",))).exact


class TestTheta:
    """Mutation's bijection is the identity on points; what moves is each
    point's closure and minimal open set."""

    def test_identity_with_shrinking_closure(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        step = chain_order(poset, filt)[1][0]
        pre, post = step.pre.lower.order, step.post.lower.order
        assert pre.elements == post.elements
        assert down_names(pre, "m") == {"o", "m"}
        assert down_names(post, "m") == {"m"}
        assert all(p in down_names(pre, p) for p in pre.elements)

    def test_empty_class_keeps_neighbourhoods(self):
        poset = preset("LOC2")
        co = standard_order(poset)
        post = mutate_perfect(co, 0).order
        for p in co.order.elements:
            assert down_names(co.order, p) == down_names(post, p)
            assert up_names(co.order, p) == up_names(post, p)


REPRO_ITEM_2 = {
    "elements": [f"x{i}" for i in range(8)],
    "covers": [["x0", "x1"], ["x0", "x3"], ["x0", "x5"], ["x2", "x4"],
               ["x3", "x4"], ["x4", "x7"], ["x5", "x7"]],
}


class TestOnestepConsistency:
    def test_transitivity_asserted_against_bad_annotations(self):
        # Annotations no actual ring could produce: the cross relation holds
        # into a point of the support but not into a larger one, which would
        # break transitivity of a closure order.
        poset = load_prime_poset({
            "elements": ["o", "s", "x", "q", "r"],
            "covers": [["o", "s"], ["o", "x"], ["s", "q"], ["x", "q"], ["q", "r"]],
            "coherence": [
                {"p": "o", "q": "q", "W": ["s", "q"], "coherent": False},
                {"p": "o", "q": "r", "W": ["s", "q", "r"], "coherent": True},
            ],
        })
        with pytest.raises(AssertionError):
            onestep(poset, {"s", "q", "r"})

    def test_assume_coherent_contradiction_pinned(self):
        # A blanket "coherent" answer contradicts the deep-minimal verdict on
        # x3 < x7: x0 < x3 then forces x0 < x7.  The constructor rejects the
        # relation as not transitive and onestep_order reports it with this
        # exact AssertionError, which the benchmark attributes by type and
        # text.  ROADMAP item 3 (sound policies) replaces it with a bracket.
        poset = load_prime_poset(REPRO_ITEM_2)
        with pytest.raises(AssertionError) as caught:
            onestep(poset, {"x5", "x7"}, POLICY_ASSUME_COHERENT)
        assert str(caught.value) == ONESTEP_NOT_TRANSITIVE

    @pytest.mark.parametrize("name,V0", [
        ("LOC2", {"m"}),
        ("LOC2M", {"m"}),
        ("LOC3", {"r1", "r2", "r3", "m"}),
        ("NAGATA2", {"a", "m"}),
        ("POLY2", {"a", "m"}),
    ])
    def test_onestep_already_transitive_on_presets(self, name, V0):
        # The Order constructor revalidates transitive closedness, so a
        # successful return is itself the assertion.
        order = onestep(preset(name), V0).order
        rel = pairs_of(order)
        assert all((p, s) in rel for (p, q) in rel for (r, s) in rel if q == r)


FILTRATIONS = {
    "DVR1": [[["m"]]],
    "LOC2": [[["m"]], [["m"], ["m"]],
             [["m", "p1", "p2", "p3", "p4", "p5"], ["m"]]],
    "LOC2M": [[["m"]], [["m"], ["m"]]],
    "LOC3": [[["m", "r1", "r2", "r3"]],
             [["m", "q1", "q2", "q3", "r1", "r2", "r3"],
              ["m", "r1", "r2", "r3"], ["m"]]],
    "POLY2": [[["a", "m"]], [["a", "b", "m"], ["m"]]],
    "NAGATA2": [[["a", "m"]], [["a", "b", "m"], ["m"]]],
}


def iter_chains():
    for name, filtrations in FILTRATIONS.items():
        poset = preset(name)
        for levels in filtrations:
            filt = validate_filtration(poset, [set(level) for level in levels])
            yield name, poset, filt, chain_order(poset, filt)


class TestChainInvariants:
    def test_exact_orders_refine_inclusion(self):
        for name, poset, filt, steps in iter_chains():
            for step, post in steps:
                if post.exact:
                    assert post.lower.order.refines(poset.base), (name, step.index)

    def test_refinement_along_chain(self):
        for name, poset, filt, steps in iter_chains():
            for step, post in steps:
                assert pairs_of(post.upper.order) <= pairs_of(step.pre.upper.order), \
                    (name, step.index)

    def test_piecewise_invariance(self):
        for name, poset, filt, steps in iter_chains():
            for step, post in steps:
                E = step.mutation_class
                complement = poset.base.full_mask & ~E
                for co, pre in ((post.lower, step.pre.lower), (post.upper, step.pre.upper)):
                    assert co.order.is_lower_set(E)
                    for part in (E, complement):
                        assert co.order.subspace(part) == pre.order.subspace(part)

    def test_levels_open_in_exact_orders(self):
        for name, poset, filt, steps in iter_chains():
            for step, post in steps:
                if post.exact:
                    for i in range(filt.n):
                        assert post.lower.order.is_upper_set(filt.levels[i])

    def test_t0_and_sober_everywhere(self):
        for name, poset, filt, steps in iter_chains():
            for step, post in steps:
                for co in (post.lower, post.upper):
                    report = check_axioms(co.order)
                    assert report.t0 and report.sober


class TestOneSplit:
    """The three exact rules are one split at a closed class."""

    def test_rules_agree_on_random_closed_classes(self):
        rng = random.Random(20251018)
        discrete_seen = 0
        for _ in range(300):
            order = random_order(rng)
            co = ClosureOrder(order, ("test",))
            seeds = [p for p in order.elements if rng.random() < 0.3]
            names = frozenset().union(*(down_names(order, p) for p in seeds))
            E = order.mask(names)
            perfect = mutate_perfect(co, E).order
            kept = {(p, q) for (p, q) in pairs_of(order) if (p in names) == (q in names)}
            assert pairs_of(perfect) == kept
            assert mutate_general(co, E).lower.order == perfect
            sub = order.subspace(E)
            if sub.is_discrete(sub.full_mask):
                discrete_seen += 1
                assert mutate_discrete(co, E).order == perfect
        assert discrete_seen >= 50

    def test_each_rule_extends_the_provenance_by_its_entry(self):
        """Each public rule extends the provenance by ``"{rule} at {E}"``,
        E's names sorted; the general bracket's lower bound ends it in
        " (lower)" and its upper bound in " (upper)"."""
        rng = random.Random(20261022)
        for _ in range(200):
            order = random_order(rng)
            co = ClosureOrder(order, ("test", f"step {rng.randrange(9)}"))
            seeds = [p for p in order.elements if rng.random() < 0.3]
            names = frozenset().union(*(down_names(order, p) for p in seeds))
            E = order.mask(names)
            at_E = "at {" + ",".join(sorted(names)) + "}"
            assert mutate_perfect(co, E).provenance == co.provenance + (f"perfect {at_E}",)
            bounds = mutate_general(co, E)
            assert bounds.lower.provenance == co.provenance + (f"bounded {at_E} (lower)",)
            assert bounds.upper.provenance == co.provenance + (f"bounded {at_E} (upper)",)
            # Any set of minimal points is closed and discrete.
            minimal = [p for p in order.elements if down_names(order, p) == {p}]
            chosen = [p for p in minimal if rng.random() < 0.5]
            assert mutate_discrete(co, order.mask(chosen)).provenance == co.provenance + (
                "discrete at {" + ",".join(sorted(chosen)) + "}",)


def assert_valid_order(order, base):
    """A partial order refining inclusion, judged from the ``relation``
    pairs alone rather than by the constructor."""
    rel = pairs_of(order)
    assert order.elements == base.elements
    assert all((p, p) in rel for p in order.elements)
    assert not any((q, p) in rel for p, q in rel if p != q)
    above = {p: {q for r, q in rel if r == p} for p in order.elements}
    assert all(above[q] <= above[p] for p, q in rel)
    assert rel <= pairs_of(base)


class TestEngineOutputFence:
    """Every order the engine returns is valid without the constructor's
    check; the engine raises nothing but a GspecError, or the pinned
    AssertionError under assume-coherent."""

    def test_random_chains_and_claims(self):
        rng = random.Random(20261019)
        rules_seen, contradictions = set(), 0
        for _ in range(2500):
            poset = poset_from_order(random_order(rng, max_size=8))
            base = poset.base
            levels, v = [], base.full_mask
            for _ in range(rng.randint(1, 4)):
                v = random_upper_set(rng, base, v)
                levels.append(sorted(base.names(v)))
            filt = validate_filtration(poset, levels)
            annotations = {i: rng.random() < 0.5 for i in range(2, filt.n + 1)
                           if rng.random() < 0.7}
            for policy in POLICIES:
                try:
                    steps = chain_order(poset, filt, annotations, policy)
                except GspecError:
                    continue
                except AssertionError as exc:
                    assert policy == POLICY_ASSUME_COHERENT
                    assert str(exc) == ONESTEP_NOT_TRANSITIVE
                    contradictions += 1
                    continue
                for step, post in steps:
                    rules_seen.add(step.rule)
                    for co in (post.lower, post.upper):
                        assert_valid_order(co.order, base)
                    assert pairs_of(post.lower.order) <= pairs_of(post.upper.order)
                    claims = rng.getrandbits(len(base.elements))
                    bracket = claimed_bracket(step.pre.lower, step.mutation_class, claims)
                    assert_valid_order(bracket.lower.order, base)
                    assert_valid_order(bracket.upper.order, base)
                    assert pairs_of(bracket.lower.order) <= pairs_of(bracket.upper.order)
        assert rules_seen == {"onestep", "discrete", "perfect", "bounded"}
        assert contradictions > 0


class TestDerivedOrders:
    """Orders built from covers derived from a checked parent are the
    orders the constructor's walk would build."""

    def test_split_covers_match_full_walk(self):
        rng = random.Random(20261021)
        for _ in range(3000):
            order = random_order(rng, max_size=12)
            e = order.full_mask & ~random_upper_set(rng, order, order.full_mask)
            split = order._split(e)
            walked = Order(split.elements, split.up)
            assert split.covers == walked.covers, (order, e)

    def test_every_derived_order_passes_the_constructor(self, monkeypatch):
        """With the full constructor run on every derived order, random
        chains under every rule and policy, and brackets with random
        maximality claims, derive the covers the walk finds and are handed
        a linear extension."""
        derived, wrong, unordered, built = [], [], [], Order._derived.__func__

        def checked(cls, elements, up, covers, bottom_up):
            # Recorded rather than asserted: the engine's pinned
            # AssertionError is skipped below.
            derived.append(elements)
            try:
                walked = Order(elements, up).covers
            except ValueError as exc:  # not a partial order at all
                walked = exc
            if walked != covers:
                wrong.append((elements, up, covers))
            position = {i: k for k, i in enumerate(bottom_up)}
            if sorted(bottom_up) != list(range(len(up))) or any(
                    position[i] > position[j] for i, m in enumerate(up) for j in po.bits(m)):
                unordered.append((elements, up, bottom_up))
            return built(cls, elements, up, covers, bottom_up)

        monkeypatch.setattr(Order, "_derived", classmethod(checked))
        rng = random.Random(20261022)
        rules_seen = set()
        for _ in range(1000):
            poset = poset_from_order(random_order(rng, max_size=9))
            base = poset.base
            levels, v = [], base.full_mask
            for _ in range(rng.randint(1, 4)):
                v = random_upper_set(rng, base, v)
                levels.append(sorted(base.names(v)))
            filt = validate_filtration(poset, levels)
            annotations = {i: rng.random() < 0.5 for i in range(2, filt.n + 1)
                           if rng.random() < 0.7}
            for policy in POLICIES:
                try:
                    steps = chain_order(poset, filt, annotations, policy)
                except (GspecError, AssertionError):
                    continue
                for step, _ in steps:
                    rules_seen.add(step.rule)
                    pre = step.pre.lower
                    claims = rng.getrandbits(len(base.elements))
                    claimed_bracket(pre, step.mutation_class, claims)
                    assert mutate_general(pre, step.mutation_class).upper.order is pre.order
        assert not wrong and not unordered
        assert rules_seen == {"onestep", "discrete", "perfect", "bounded"}
        assert len(derived) > 5000
