import random

import pytest

from conftest import (
    brute_lower_sets,
    onestep,
    pairs_of,
    powerset,
    random_monotone_f,
    random_order,
    strict_pairs,
)
from gspec import verify as verify_module
from gspec import (
    ClosureOrder,
    ElementMismatch,
    GspecError,
    Order,
    PropertyReport,
    SpFiltration,
    brute_force_discrete_law,
    brute_force_perfect_law,
    build_order,
    cb_filtration,
    check_piecewise,
    check_refinement,
    covering_pairs,
    longest_chain,
    mutate_discrete,
    mutate_perfect,
    preset,
    run_suite,
    standard_order,
    validate_filtration,
)


def as_closure(order: Order) -> ClosureOrder:
    return ClosureOrder(order, ("test",))


LOC2_BELOW_M = {"o", "p1", "p2", "p3", "p4", "p5"}


class TestRefinement:
    def test_standard_to_onestep_passes(self):
        poset = preset("LOC2")
        report = check_refinement(standard_order(poset), onestep(poset, {"m"}))
        assert report.passed

    def test_reflexive(self):
        co = standard_order(preset("LOC2"))
        assert check_refinement(co, co).passed

    def test_swapped_direction_fails_with_pair(self):
        poset = preset("LOC2")
        discrete = as_closure(build_order(poset.base.elements, []))
        report = check_refinement(discrete, standard_order(poset))
        assert not report.passed
        assert ("pair", "(o,m)") in report.counterexample

    def test_element_mismatch(self):
        a = as_closure(build_order(["a"], []))
        b = as_closure(build_order(["b"], []))
        with pytest.raises(ElementMismatch):
            check_refinement(a, b)


class TestPiecewise:
    def test_loc2_second_step(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        E = h1.order.mask(LOC2_BELOW_M)
        post = mutate_perfect(h1, E)
        assert check_piecewise(h1, post, E).passed

    def test_identity_mutation(self):
        co = standard_order(preset("LOC2"))
        assert check_piecewise(co, co, 0).passed

    def test_tampered_part_fails(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        E = h1.order.mask(LOC2_BELOW_M)
        post = mutate_perfect(h1, E)
        tampered = as_closure(
            build_order(
                post.order.elements,
                sorted(strict_pairs(post.order) - {("o", "p1")}),
            )
        )
        report = check_piecewise(h1, tampered, E)
        assert not report.passed
        assert ("part", "E") in report.counterexample


class TestWitnesses:
    """The text of the witnesses, pinned on LOC2 with levels [{m}, {m}]."""

    poset = preset("LOC2")
    filt = validate_filtration(poset, [{"m"}, {"m"}])
    els = poset.base.elements
    incl = as_closure(poset.base)
    discrete = as_closure(build_order(els, []))

    def failures(self, order):
        from gspec.verify import _baseline
        reports = _baseline(self.filt, 1, as_closure(order), True)
        return {r.name: r.counterexample for r in reports if not r.passed}

    def test_baseline_witnesses(self):
        assert self.failures(build_order(self.els, [("m", "o")])) == {
            "order-1:refines-inclusion": (("pair", "(m,o)"),),
            "order-1:levels-open": (("level", "0"),),
            "order-1:strata-restriction": (("stratum", "{o,p1,p2,p3,p4,p5}"),),
            "order-1:maximal-difference": (("point", "m"),),
        }
        assert self.failures(self.discrete.order) == {
            "order-1:strata-restriction": (("stratum", "{o,p1,p2,p3,p4,p5}"),),
        }
        assert self.failures(self.poset.base) == {
            "order-1:maximal-difference": (("point", "p1"),),
        }

    def test_levels_open_witness_matches_level_scan(self, rng):
        """The one pass over covers names the least level that is not an
        upper set, as a scan of every level does; levels are cut from a
        level function that is monotone on the order or drawn at random."""
        from gspec.verify import _first_unopen_level
        outcomes = []
        for _ in range(2000):
            order = random_order(rng)
            f = (random_monotone_f(rng, order) if rng.random() < 0.5 else
                 {p: rng.randint(-1, 4) for p in order.elements})
            values = [f[p] for p in order.elements]
            levels = tuple(sum(1 << j for j, x in enumerate(values) if x >= i)
                           for i in range(max(values) + 1))
            filt = SpFiltration(order, levels)
            expected = next((i for i in range(filt.n)
                             if not order.is_upper_set(filt.levels[i])), None)
            assert _first_unopen_level(order, filt.level_of) == expected
            outcomes.append(expected)
        assert outcomes.count(None) > 500 and {0, 1, 2, 3} <= set(outcomes)

    def test_strata_witness_matches_stratum_scan(self, rng):
        """The one pass over the rows names the least stratum inside which
        the two orders differ, as a scan of every stratum does; the second
        order refines the first or is drawn at random on the same points,
        and the level function is monotone or drawn at random."""
        from gspec.verify import _first_changed_stratum, _least_change
        outcomes = []
        for _ in range(2000):
            base = random_order(rng)
            els = base.elements
            if rng.random() < 0.5:
                pairs = [p for p in sorted(strict_pairs(base)) if rng.random() < 0.8]
            else:
                pairs = [(p, q) for i, p in enumerate(els) for q in els[i + 1:]
                         if rng.random() < 0.3]
            order = build_order(els, pairs)
            f = (random_monotone_f(rng, base) if rng.random() < 0.5 else
                 {p: rng.randint(-1, 4) for p in els})
            values = [f[p] for p in els]
            levels = tuple(sum(1 << j for j, x in enumerate(values) if x >= i)
                           for i in range(max(values) + 1))
            filt = SpFiltration(base, levels)
            expected = next((i for i in range(filt.n + 1)
                             if _least_change(order, base, filt.strata[i])), None)
            assert _first_changed_stratum(order, base, filt.level_of, filt.strata) == expected
            outcomes.append(expected)
        assert outcomes.count(None) > 200 and {0, 1, 2, 3} <= set(outcomes)

    def test_piecewise_witnesses(self):
        mask = self.poset.base.mask
        report = check_piecewise(self.incl, self.incl, mask({"m"}))
        assert report.counterexample == (("E", "{m}"), ("reason", "E not closed before"))
        report = check_piecewise(self.discrete, self.incl, mask({"o"}))
        assert report.counterexample == (("pair", "(p1,m)"), ("part", "complement"))
        tilted = as_closure(build_order(self.els, [("p1", "o")]))
        report = check_piecewise(self.incl, tilted, mask({"o"}))
        assert report.counterexample == (("E", "{o}"), ("reason", "E not closed after"))


class TestSandwich:
    """``sandwich`` against a restatement over names and pairs, on exact
    orders built outside it: the pre-order split at a closed E, then given
    an extra cross pair, or a pair inside E or inside its complement taken
    away, or several of these."""

    @staticmethod
    def reference(pre, E, exact):
        """The least pair the split keeps and ``exact`` lacks, else the
        least pair ``exact`` adds to ``pre``; None when it lies between."""
        split = {(p, q) for p, q in pairs_of(pre) if (p in E) == (q in E)}
        missing = sorted(split - pairs_of(exact))
        extra = sorted(pairs_of(exact) - pairs_of(pre))
        return (missing or extra or [None])[0]

    def test_against_names_and_pairs(self, rng):
        """Also, wherever ``sandwich`` fails, ``piecewise`` or ``refinement``
        fails too, so the two reports catch every plant that it catches."""
        from gspec.verify import _pair_report, _sandwich
        seen = {"passed": 0, "extra": 0, "missing": 0, "complement": 0}
        for _ in range(600):
            pre = random_order(rng, max_size=8)
            els = pre.elements
            E = rng.choice(sorted(brute_lower_sets(pre), key=sorted))
            split = {(p, q) for p, q in strict_pairs(pre) if (p in E) == (q in E)}
            pairs = set(split)
            # Without one of its covers, a transitive relation stays transitive.
            covers = covering_pairs(pre)
            inside = [(p, q) for p, q in covers if p in E and q in E]
            if inside and rng.random() < 0.5:
                pairs.discard(rng.choice(inside))
            outside = [(p, q) for p, q in covers if p not in E and q not in E]
            dropped_outside = outside and rng.random() < 0.4
            if dropped_outside:
                pairs.discard(rng.choice(outside))
            cross = [(p, q) for p in els for q in els if (p in E) != (q in E)]
            if cross and rng.random() < 0.5:
                pairs.add(rng.choice(cross))
            try:
                exact = build_order(els, pairs)
            except GspecError:  # the extra pair closed a cycle
                continue
            expected = self.reference(pre, E, exact)
            e, before, after = pre.mask(E), as_closure(pre), as_closure(exact)
            got = _sandwich(before, e, after, "sandwich")
            assert got == _pair_report("sandwich", expected), (pre, E, exact)
            seen["complement"] += bool(dropped_outside)
            if not got.passed:
                assert not (check_piecewise(before, after, e).passed
                            and check_refinement(before, after).passed), (pre, E, exact)
            if expected is None:
                seen["passed"] += 1
            else:
                seen["missing" if expected in split else "extra"] += 1
        assert min(seen.values()) > 50, seen


def peeling_report(order, layers, name):
    """The layer-by-layer Cantor-Bendixson check, kept as the reference for
    the point-by-point one: rank equals the longest chain, and each layer
    adds the points isolated in what the layers before it leave."""
    def layer_witness(mask):
        return PropertyReport(name, (("layer", "{" + ",".join(sorted(order.names(mask))) + "}"),))

    if len(layers) - 1 != longest_chain(order):
        return PropertyReport(name, (("chain", str(longest_chain(order))),
                                     ("rank", str(len(layers) - 1))))
    accumulated = 0
    for layer in layers:
        isolated = order.maximal(order.full_mask & ~accumulated)
        if layer != accumulated | isolated:
            return layer_witness(layer)
        accumulated |= isolated
    if accumulated != order.full_mask:
        return layer_witness(accumulated)
    return PropertyReport(name)


def corrupted_layers(rng, layers):
    """The layers themselves and a corruption of each kind: a point dropped
    from every layer (the chain then stops short of the full set) or from
    one layer after the one it enters (the layers then do not nest), a
    point moved one layer up or down, a layer repeated (with and without
    the last layer left out), the last layer left out, and a random chain
    of masks."""
    layers = list(layers)
    if not layers:
        return [layers, [0]]
    k = rng.randrange(len(layers))
    entering = layers[k] & ~(layers[k - 1] if k else 0)
    p = 1 << rng.choice([j for j in range(entering.bit_length()) if entering >> j & 1])
    full = layers[-1]
    out = [layers,
           layers[:k] + [m & ~p for m in layers[k:]],
           layers[:k] + [layers[k] & ~p] + (layers[k + 1:] or [full]),
           layers[:k + 1] + layers[k:],
           layers[:k + 1] + layers[k:-1],
           layers[:-1],
           sorted(rng.randint(0, full) for _ in layers[:-1]) + [full]]
    if k:
        q = 1 << rng.choice([j for j in range(layers[k - 1].bit_length())
                             if layers[k - 1] >> j & 1])
        out.append(layers[:k - 1] + [layers[k - 1] | p] + layers[k:])
        out.append(layers[:k] + [layers[k] & ~q] + layers[k + 1:])
    return out


class TestCbReport:
    def test_matches_peeling_on_correct_and_corrupted_layers(self, rng):
        """Testing each point against the up-sets gives the peeling's verdict
        and witness on correct layers and on every kind of corruption."""
        from gspec.verify import _cb_report
        names = [f"c{i:02d}" for i in range(12)]
        orders = [build_order([], []), build_order(names, zip(names, names[1:]))]
        orders += [random_order(rng, 10) for _ in range(600)]
        verdicts = set()
        for order in orders:
            for layers in corrupted_layers(rng, cb_filtration(order)):
                expected = peeling_report(order, tuple(layers), "cb")
                assert _cb_report(order, tuple(layers), "cb") == expected, layers
                verdicts.add(expected.counterexample[-1][0] if expected.counterexample else "pass")
        assert verdicts == {"pass", "layer", "rank"}


class TestDiscreteLaw:
    def test_three_point_example(self):
        poset_doc = {"elements": ["o", "a", "x"], "covers": [["o", "a"]]}
        from gspec import load_prime_poset
        co = standard_order(load_prime_poset(poset_doc))
        E = co.order.mask({"o"})
        post = mutate_discrete(co, E)
        assert brute_force_discrete_law(co, E, post).passed

    def test_empty_class_degenerates_to_equality(self):
        co = standard_order(preset("LOC2"))
        assert brute_force_discrete_law(co, 0, co).passed
        other = as_closure(build_order(co.order.elements, []))
        assert not brute_force_discrete_law(co, 0, other).passed

    def test_corrupted_post_fails(self):
        from gspec import load_prime_poset
        co = standard_order(load_prime_poset(
            {"elements": ["o", "a", "x"], "covers": [["o", "a"]]}
        ))
        corrupted = as_closure(build_order(["o", "a", "x"], [("x", "a")]))
        report = brute_force_discrete_law(co, co.order.mask({"o"}), corrupted)
        assert not report.passed
        assert report.counterexample


class TestPerfectLaw:
    def test_loc2_second_step(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        E = h1.order.mask(LOC2_BELOW_M)
        post = mutate_perfect(h1, E)
        assert brute_force_perfect_law(h1, E, post).passed

    def test_full_class_means_identity(self):
        poset = preset("LOC2")
        co = standard_order(poset)
        E = poset.base.full_mask
        assert brute_force_perfect_law(co, E, co).passed
        assert not brute_force_perfect_law(
            co, E, as_closure(build_order(co.order.elements, []))
        ).passed

    def test_corrupted_post_fails(self):
        poset = preset("LOC2")
        h1 = onestep(poset, {"m"})
        E = h1.order.mask(LOC2_BELOW_M)
        corrupted = as_closure(build_order(h1.order.elements, [("p1", "m")]))
        assert not brute_force_perfect_law(h1, E, corrupted).passed


class TestLawWitnesses:
    """A law checked against the unmutated order fails, and names the
    smallest set (by size, then sorted names) on which the expected closed
    sets and the actual ones differ."""

    @staticmethod
    def cases():
        """Orders with a closed E that some point outside it lies above."""
        loc2 = preset("LOC2").base
        yield loc2, frozenset(loc2.elements) - {"m"}
        rng = random.Random(20261020)
        found = 0
        while found < 40:
            order = random_order(rng, max_size=7)
            E = rng.choice(sorted(brute_lower_sets(order), key=sorted))
            if any(p in E and q not in E for p, q in pairs_of(order)):
                found += 1
                yield order, E

    @staticmethod
    def smallest(sets):
        S = min(sets, key=lambda s: (len(s), sorted(s)))
        return {"set": "{" + ",".join(sorted(S)) + "}"}

    def test_perfect_law_witness(self):
        for order, E in self.cases():
            lowers = brute_lower_sets(order)
            expected = {(A & E) | (B - E) for A in lowers for B in lowers}
            report = brute_force_perfect_law(as_closure(order), order.mask(E),
                                             as_closure(order))
            assert not report.passed
            assert dict(report.counterexample) == self.smallest(expected ^ lowers)

    def test_discrete_law_witness(self):
        for order, E in self.cases():
            lowers = brute_lower_sets(order)
            expected = {U for U in powerset(order.elements) if U | E in lowers}
            report = brute_force_discrete_law(as_closure(order), order.mask(E),
                                              as_closure(order))
            assert not report.passed
            assert dict(report.counterexample) == self.smallest(expected ^ lowers)


class TestLawsMatchSetDefinitions:
    """Both laws against their definitions over sets of masks, kept as
    references: the discrete law scans every subset U for a closed U | E,
    the perfect law takes the product of the distinct halves of the closed
    sets.  Pre-orders are random, E is a random closed class (or now and
    then any mask), and the post-order is the pre-order, a random order,
    or either rule's result as it is or with one pair taken away and one
    planted; the reports, witnesses included, must be the same."""

    @staticmethod
    def closed(order):
        return {order.mask(S) for S in brute_lower_sets(order)}

    @classmethod
    def report(cls, name, pre, post, expected):
        wrong = expected ^ cls.closed(post)
        if not wrong:
            return PropertyReport(name)
        offender = min(map(pre.names, wrong), key=lambda S: (len(S), sorted(S)))
        return PropertyReport(name, (("set", "{" + ",".join(sorted(offender)) + "}"),))

    @classmethod
    def discrete(cls, pre, e, post):
        closed = cls.closed(pre)
        expected = {U for U in range(1 << len(pre.elements)) if U | e in closed}
        return cls.report("discrete-law", pre, post, expected)

    @classmethod
    def perfect(cls, pre, e, post):
        closed = cls.closed(pre)
        inside, outside = {V & e for V in closed}, {V & ~e for V in closed}
        return cls.report("perfect-law", pre, post, {A | B for A in inside for B in outside})

    @staticmethod
    def posts(rng, co, e):
        els = co.order.elements
        yield co
        yield as_closure(build_order(els, [(p, q) for i, p in enumerate(els)
                                           for q in els[i + 1:] if rng.random() < 0.3]))
        for rule in (mutate_discrete, mutate_perfect):
            try:
                post = rule(co, e)
            except GspecError:
                continue
            yield post
            pairs = sorted(strict_pairs(post.order))
            if pairs:
                pairs.remove(rng.choice(pairs))
            pairs.append((rng.choice(els), rng.choice(els)))
            try:
                yield as_closure(build_order(els, [(p, q) for p, q in pairs if p != q]))
            except GspecError:  # the planted pair closed a cycle
                pass

    def test_against_set_definitions(self, rng):
        seen = {"discrete-law": [0, 0], "perfect-law": [0, 0]}
        for _ in range(300):
            pre = random_order(rng, max_size=8)
            if rng.random() < 0.8:
                e = pre.mask(rng.choice(sorted(brute_lower_sets(pre), key=sorted)))
            else:
                e = rng.randrange(pre.full_mask + 1)
            co = as_closure(pre)
            for post in self.posts(rng, co, e):
                for law, reference in ((brute_force_discrete_law, self.discrete),
                                       (brute_force_perfect_law, self.perfect)):
                    expected = reference(pre, e, post.order)
                    assert law(co, e, post) == expected, (pre, e, post.order)
                    seen[expected.name][expected.passed] += 1
        assert min(min(counts) for counts in seen.values()) > 100, seen


class TestRandomisedLaws:
    """The rewrite rules against the enumeration laws on random inputs."""

    def _random_cases(self, rng, count=60):
        from conftest import random_order
        from gspec import enumerate_closed_sets
        produced = 0
        while produced < count:
            order = random_order(rng, max_size=6)
            closed = enumerate_closed_sets(order)
            E = closed[rng.randrange(len(closed))]
            yield as_closure(order), order.mask(E)
            produced += 1

    def test_discrete_law_random(self, rng):
        from gspec import NotDiscrete
        for co, E in self._random_cases(rng):
            try:
                post = mutate_discrete(co, E)
            except NotDiscrete:
                continue
            assert brute_force_discrete_law(co, E, post).passed

    def test_perfect_law_random(self, rng):
        for co, E in self._random_cases(rng):
            post = mutate_perfect(co, E)
            assert brute_force_perfect_law(co, E, post).passed

    def test_general_brackets_random(self, rng):
        from gspec import mutate_general
        for co, E in self._random_cases(rng):
            bounds = mutate_general(co, E)
            assert pairs_of(bounds.lower.order) <= pairs_of(bounds.upper.order)
            assert pairs_of(bounds.upper.order) <= pairs_of(co.order)
            assert check_piecewise(co, bounds.lower, E).passed
            assert check_piecewise(co, bounds.upper, E).passed


class TestRunSuite:
    def test_loc2_two_step_all_pass(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        reports = run_suite(poset, filt)
        assert reports and all(r.passed for r in reports)

    def test_loc3_height_all_pass_and_discrete(self):
        from gspec import chain_order, final_order, height_filtration
        poset = preset("LOC3")
        filt = height_filtration(poset)
        assert all(r.passed for r in run_suite(poset, filt))
        final = final_order(chain_order(poset, filt), poset)
        assert final.exact and final.lower.order.is_discrete(poset.base.full_mask)

    def test_nagata_poly_contrast(self):
        results = {}
        for name in ("POLY2", "NAGATA2"):
            poset = preset(name)
            filt = validate_filtration(poset, [{"a", "m"}])
            assert all(r.passed for r in run_suite(poset, filt))
            results[name] = strict_pairs(onestep(poset, {"a", "m"}).order)
        assert results["NAGATA2"] - results["POLY2"] == {("o", "m")}
        assert results["POLY2"] <= results["NAGATA2"]

    def test_reports_are_deterministic(self):
        poset = preset("LOC2M")
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        first = [r.name for r in run_suite(poset, filt)]
        second = [r.name for r in run_suite(poset, filt)]
        assert first == second

    def test_bounded_chain_checks_upper(self):
        poset = preset("LOC3")
        filt = validate_filtration(poset, [{"r1", "r2", "r3", "m"}, {"m"}])
        reports = run_suite(poset, filt)
        names = [r.name for r in reports]
        assert "step-2:piecewise-upper" in names
        assert all(r.passed for r in reports)

    def test_suite_runs_the_stratum_pass_once(self, monkeypatch):
        """The chain and every ``maximal-difference`` report read one
        stratum pass: ``run_suite`` on a new filtration runs it once, and
        a second suite on the same filtration does not run it again, on a
        bracketed chain and on a truncated slice."""
        descriptor = SpFiltration.__dict__["stratum_pass"]
        original, computed = descriptor.func, []

        def counted(filt):
            computed.append(filt)
            return original(filt)

        monkeypatch.setattr(descriptor, "func", counted)
        poset = preset("LOC3")
        for levels in ([{"r1", "r2", "r3", "m"}, {"m"}],
                       [{"q1", "q2", "q3", "r1", "r2", "r3", "m"}, {"r1", "r2", "r3", "m"}]):
            filt = validate_filtration(poset, levels)
            assert all(r.passed for r in run_suite(poset, filt))
            run_suite(poset, filt)
            assert len(computed) == 1 and computed.pop() is filt

    def test_suite_enumerates_each_order_once(self, monkeypatch):
        """On LOC2 with 14 height-one primes (16 points), both laws read
        each order's closed family from one enumeration; ``check_axioms``
        reads none, so a LOC3 chain with no discrete or perfect step builds
        no family."""
        from functools import cached_property

        from gspec import load_prime_poset
        enumerate_ = Order.__dict__["closed_family"].func
        enumerated = []

        def counted(order):
            enumerated.append(order)
            return enumerate_(order)

        prop = cached_property(counted)
        prop.__set_name__(Order, "closed_family")
        monkeypatch.setattr(Order, "closed_family", prop)
        primes = [f"p{i:02d}" for i in range(14)]
        covers = [["o", p] for p in primes] + [[p, "m"] for p in primes]
        poset = load_prime_poset({"elements": ["o", *primes, "m"], "covers": covers})
        for levels, laws in (([{"m"}, {"m"}], {"step-2:perfect-law"}),
                             ([{"m", *primes}, {"m"}], {"step-1:discrete-law",
                                                        "step-2:perfect-law"})):
            enumerated.clear()
            reports = run_suite(poset, validate_filtration(poset, levels))
            assert all(r.passed for r in reports)
            assert laws | {"order-2:sober"} <= {r.name for r in reports}
            assert len({id(order) for order in enumerated}) == len(enumerated) >= 2
        enumerated.clear()
        loc3 = preset("LOC3")
        reports = run_suite(loc3, validate_filtration(loc3, [{"r1", "r2", "r3", "m"}, {"m"}]))
        names = {r.name for r in reports}
        assert {"order-0:t0", "order-0:sober", "order-1:t0", "order-1:sober"} <= names
        assert not any(name.endswith("-law") for name in names)
        assert all(r.passed for r in reports) and enumerated == []

    def test_tall_chain_cb_and_strata_steps_grow_quadratically(self, monkeypatch):
        """Over every exact order of a chain's height-filtration run, the
        mask steps of the cb and strata-restriction checks grow about 4x
        when the chain doubles (n orders, each one pass), not 8x (a pass
        per layer of each order)."""
        from gspec import chain_order, height_filtration, load_prime_poset
        from gspec import poset as poset_module
        from gspec.verify import _cb_report, _first_changed_stratum
        steps = [0]

        def counting(fn):
            def counted(*args):
                for item in fn(*args):
                    steps[0] += 1
                    yield item
            return counted

        for module, names in ((poset_module, ("bits", "select")), (verify_module, ("bits",))):
            for name in names:
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        counts = {}
        for n in (100, 200):
            names = [f"c{i:03d}" for i in range(n)]
            poset = load_prime_poset({"elements": names,
                                      "covers": [list(c) for c in zip(names, names[1:])]})
            filt = height_filtration(poset)
            orders = [poset.base] + [post.lower.order for _, post in chain_order(poset, filt)
                                     if post.exact]
            level_of, by_index = filt.level_of, filt.strata
            steps[0] = 0
            for order in orders:
                assert _cb_report(order, cb_filtration(order), "cb").passed
                assert _first_changed_stratum(order, poset.base, level_of, by_index) is None
            counts[n] = steps[0]
        assert len(orders) == 200 and counts[100] > 0
        assert counts[200] <= 4.5 * counts[100]

    def test_levels_open_steps_once_per_cover(self, monkeypatch):
        """``levels-open`` steps only the points that have covers, one step
        per cover: over every order of a tall chain's height-filtration run
        the steps are the orders' covers, so they grow about 4x when the
        chain doubles, and a discrete order of 200 points takes none."""
        from gspec import chain_order, height_filtration, load_prime_poset
        from gspec.verify import _first_unopen_level
        calls, steps, bits = [0], [0], verify_module.bits

        def counted(mask):
            calls[0] += 1
            for j in bits(mask):
                steps[0] += 1
                yield j

        monkeypatch.setattr(verify_module, "bits", counted)
        counts = {}
        for n in (100, 200):
            names = [f"c{i:03d}" for i in range(n)]
            poset = load_prime_poset({"elements": names,
                                      "covers": [list(c) for c in zip(names, names[1:])]})
            filt = height_filtration(poset)
            orders = [poset.base] + [b.order for _, post in chain_order(poset, filt)
                                     for b in (post.lower, post.upper)]
            level_of = filt.level_of
            calls[0] = steps[0] = 0
            for order in orders:
                assert _first_unopen_level(order, level_of) is None
            assert calls[0] == sum(1 for o in orders for m in o.covers if m)
            assert steps[0] == sum(m.bit_count() for o in orders for m in o.covers)
            counts[n] = steps[0]
        assert counts[100] > 0 and counts[200] <= 4.5 * counts[100]
        discrete = Order(tuple(f"d{i:03d}" for i in range(200)),
                         tuple(1 << i for i in range(200)))
        calls[0] = steps[0] = 0
        assert _first_unopen_level(discrete, [0] * 200) is None
        assert calls[0] == steps[0] == 0

    def test_random_chains_all_pass(self):
        """Every step's pre is the previous step's bounds, the rule dispatch
        follows the filtration's class and the annotations, a perfect step
        maps each bound to its own image, a step is exact exactly when its
        bounds are one order, and run_suite's reports all pass, also after
        two bracketed steps in a row and where a perfect step collapses a
        bracket.  Level functions are stretched by 1, 2 or 3, so that levels
        repeat."""
        import random

        from conftest import poset_from_order, random_monotone_f, random_order
        from gspec import POLICY_ASSUME_NONCOHERENT, chain_order, classify, f_to_filtration
        rng = random.Random(20261018)
        perfect_after_inexact = collapsed = 0
        for _ in range(400):
            poset = poset_from_order(random_order(rng, 8))
            stretch = rng.randint(1, 3)
            f = {p: stretch * v for p, v in random_monotone_f(rng, poset.base).items()}
            filt = f_to_filtration(poset, f)
            annotations = {i: True for i in range(2, filt.n + 1) if rng.random() < 0.3}
            steps = chain_order(poset, filt, annotations, POLICY_ASSUME_NONCOHERENT)
            rules = [step.rule for step, _ in steps]
            if classify(filt)["truncated_slice"]:
                assert set(rules) <= {"discrete"}
            else:
                assert rules[0] == "onestep"
            for step, post in steps:
                assert step.post is post
                assert post.exact == (post.lower.order == post.upper.order)
                collapsed += post.exact and not step.pre.exact
            for (_, before), (step, _) in zip(steps, steps[1:]):
                assert step.pre is before
                if step.rule == "perfect" and not before.exact:
                    perfect_after_inexact += 1
                    E = step.mutation_class
                    assert step.post.lower.order == mutate_perfect(before.lower, E).order
                    assert step.post.upper.order == mutate_perfect(before.upper, E).order
            reports = run_suite(poset, filt, annotations, POLICY_ASSUME_NONCOHERENT)
            assert [r.name for r in reports if not r.passed] == [], filt.levels
        assert perfect_after_inexact > 0 and collapsed > 0
