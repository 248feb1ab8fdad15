import random
import re

import pytest

from conftest import onestep, poset_from_order, random_order, strict_pairs
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
    Order,
    UndeterminedCoherence,
    UnknownPolicy,
    UnknownStep,
    build_order,
    chain_order,
    check_axioms,
    exact_bounds,
    load_prime_poset,
    mutate_discrete,
    mutate_general,
    mutate_perfect,
    onestep_order,
    preset,
    standard_order,
    theta_map,
    validate_filtration,
)

LOC2_HEIGHT_ONE = {"p1", "p2", "p3", "p4", "p5"}


def at(co, names) -> int:
    """The mask of a class given by its names."""
    return co.order.mask(names)


def strict(co) -> set[tuple[str, str]]:
    return strict_pairs(co.order)


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
        assert ("o", "m") not in bounds.lower.order.relation
        assert ("o", "m") in bounds.upper.order.relation

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
        bounds = mutate_general(h1, E, forced_maximal=at(h1, {"r1", "r2", "r3"}))
        assert ("r1", "m") not in bounds.upper.order.relation
        assert ("o", "m") in bounds.upper.order.relation

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
        built; other claims are ignored, and the result is still an order
        between the lower bound and the pre-order."""
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
            bounds = mutate_general(co, e, true_claims)
            assert bounds.upper.order.up == self.warshall_upper(order, e, true_claims)

            any_claims = rng.getrandbits(len(order.elements))
            bounds = mutate_general(co, e, any_claims)
            assert bounds.lower.order.refines(bounds.upper.order)
            assert bounds.upper.order.refines(order)
            assert bounds.upper.order == mutate_general(co, e, any_claims & sum(
                1 << i for i in maxima)).upper.order


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
        assert final.spcl("m") == {"m"} and final.gncl("m") == {"m"}

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
        assert lower.relation < upper.relation
        # The forced-maximal pruning strips the height-two sources but keeps
        # the undetermined generic-to-top relation.
        assert upper.relation - lower.relation == {("o", "m")}

    def test_mutation_class_recorded(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        steps = chain_order(poset, filt)
        assert poset.base.names(steps[0][0].mutation_class) == {"o"} | LOC2_HEIGHT_ONE
        assert poset.base.names(steps[1][0].support) == {"m"}


class TestBoundedOrder:
    @pytest.mark.parametrize("lower,upper,exact,message", [
        ("chain", "flat", False, "lower bound exceeds upper bound"),
        ("flat", "chain", True, "exact flag set but bounds differ"),
    ])
    def test_rejects(self, lower, upper, exact, message):
        """A bracket that is not one is an InvalidArgument, so a GspecError
        and a ValueError."""
        orders = {"chain": build_order(["m", "o"], [("o", "m")]),
                  "flat": build_order(["m", "o"], [])}
        with pytest.raises(InvalidArgument, match=f"^{message}$") as caught:
            BoundedOrder(ClosureOrder(orders[lower], (lower,)),
                         ClosureOrder(orders[upper], (upper,)), exact)
        assert isinstance(caught.value, GspecError) and isinstance(caught.value, ValueError)


class TestTheta:
    def test_identity_with_shrinking_closure(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        step = chain_order(poset, filt)[1][0]
        entries = {e.point: e for e in theta_map(step)}
        assert entries["m"].closure_before == {"o", "m"}
        assert entries["m"].closure_after == {"m"}
        assert all(e.point in e.closure_before for e in entries.values())

    def test_rejects_inexact_step(self):
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"r1", "r2", "r3", "m"}, {"m"}])
        step = chain_order(poset, filt)[1][0]
        with pytest.raises(InvalidArgument,
                           match="^theta map is only documented for exact steps$") as caught:
            theta_map(step)
        assert isinstance(caught.value, GspecError) and isinstance(caught.value, ValueError)

    def test_empty_class_keeps_neighbourhoods(self):
        from gspec import MutationStep
        poset = preset("LOC2")
        co = standard_order(poset)
        post = exact_bounds(mutate_perfect(co, 0))
        step = MutationStep(index=1, support=poset.base.full_mask,
                            mutation_class=0, rule="perfect",
                            pre=exact_bounds(co), post=post)
        for entry in theta_map(step):
            assert entry.closure_before == entry.closure_after
            assert entry.open_before == entry.open_after


ONESTEP_NOT_TRANSITIVE = (
    "one-step relation not transitively closed; the coherence data is "
    "inconsistent with a ring"
)

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
        # text.  ROADMAP item 2 (sound policies) replaces it with a bracket.
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
        rel = order.relation
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
                assert post.upper.order.relation <= step.pre.upper.order.relation, \
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
                        assert post.lower.order.is_upper_set(filt.level(i))

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
            names = frozenset().union(*(order.gncl(p) for p in seeds))
            E = order.mask(names)
            perfect = mutate_perfect(co, E).order
            kept = {(p, q) for (p, q) in order.relation if (p in names) == (q in names)}
            assert perfect.relation == kept
            assert mutate_general(co, E).lower.order == perfect
            sub = order.subspace(E)
            if sub.is_discrete(sub.full_mask):
                discrete_seen += 1
                assert mutate_discrete(co, E).order == perfect
        assert discrete_seen >= 50


def assert_valid_order(order, base):
    """A partial order refining inclusion, judged from the ``relation``
    pairs alone rather than by the constructor."""
    rel = order.relation
    assert order.elements == base.elements
    assert all((p, p) in rel for p in order.elements)
    assert not any((q, p) in rel for p, q in rel if p != q)
    above = {p: {q for r, q in rel if r == p} for p in order.elements}
    assert all(above[q] <= above[p] for p, q in rel)
    assert rel <= base.relation


def random_upper_set(rng, order, within):
    """The upper closure of a random subset of the upper set ``within``."""
    v = 0
    for i in range(len(order.elements)):
        if within >> i & 1 and rng.random() < 0.3:
            v |= order.up[i]
    return v


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
                    assert post.lower.order.relation <= post.upper.order.relation
                    claims = rng.getrandbits(len(base.elements))
                    bracket = mutate_general(step.pre.lower, step.mutation_class, claims)
                    assert_valid_order(bracket.lower.order, base)
                    assert_valid_order(bracket.upper.order, base)
                    assert bracket.lower.order.relation <= bracket.upper.order.relation
        assert rules_seen == {"onestep", "discrete", "perfect", "bounded"}
        assert contradictions > 0
