import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_like_fresh,
    brute_lower_sets,
    brute_upper_sets,
    down_names,
    pairs_of,
    powerset,
    random_order,
    strict_pairs,
    up_names,
)
from test_exhaustive import small_posets
from gspec import (
    AxiomReport,
    CycleError,
    GspecError,
    InvalidArgument,
    Order,
    SizeExceeded,
    UnknownElement,
    build_order,
    cb_filtration,
    check_axioms,
    covering_pairs,
    enumerate_closed_sets,
    longest_chain,
)
from gspec.poset import (
    bits,
    holding,
    members,
    select,
    transitive_closure,
)


@st.composite
def orders(draw, max_size=6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    names = [f"x{i}" for i in range(n)]
    relations = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return build_order(names, relations)


@st.composite
def orders_and_subsets(draw):
    """A random order of up to 8 or of 17 to 24 points, so that subsets
    reach masks above 2^16, and a subset of its points."""
    n = draw(st.one_of(st.integers(0, 8), st.integers(17, 24)))
    names = [f"x{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=40))
    order = build_order(names, [(names[i], names[j]) for i, j in pairs if i < j < n])
    return order, draw(st.integers(0, order.full_mask))


@st.composite
def order_pairs(draw):
    """An order of :func:`orders_and_subsets` and one on the same points
    generated by its covers and more pairs, so that either way round both
    answers of ``refines`` come up."""
    first, _ = draw(orders_and_subsets())
    names = first.elements
    point = st.integers(0, max(len(names) - 1, 0))
    pairs = draw(st.lists(st.tuples(point, point), max_size=8))
    return first, build_order(names, [*covering_pairs(first), *(
        (names[i], names[j]) for i, j in pairs if i < j)])


CHAIN3 = build_order(["o", "p", "m"], [("o", "p"), ("p", "m")])
DIAMOND = build_order(["o", "a", "b", "m"], [("o", "a"), ("o", "b"), ("a", "m"), ("b", "m")])


class TestBuildOrder:
    def test_two_point_chain(self):
        order = build_order(["o", "m"], [("o", "m")])
        assert pairs_of(order) == {("o", "o"), ("m", "m"), ("o", "m")}

    def test_reflexive_singleton(self):
        order = build_order(["a"], [])
        assert pairs_of(order) == {("a", "a")}

    def test_antisymmetry_violation(self):
        with pytest.raises(CycleError):
            build_order(["a", "b"], [("a", "b"), ("b", "a")])

    def test_longer_cycle(self):
        with pytest.raises(CycleError, match="^'a' and 'b' are related both ways$"):
            build_order(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_cycle_reports_least_pair(self):
        """The constructor names the pair a scan of the closed relation by
        ascending rows finds first (reference written here from pairs)."""
        rng = random.Random(20261018)
        cyclic = 0
        for _ in range(500):
            names = [f"x{i}" for i in range(rng.randint(2, 7))]
            gens = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 9))]
            closed = {(p, p) for p in names} | set(gens)
            while True:
                more = {(p, s) for p, q in closed for r, s in closed if q == r} - closed
                if not more:
                    break
                closed |= more
            both = sorted((p, q) for p, q in closed if p < q and (q, p) in closed)
            if both:
                cyclic += 1
                with pytest.raises(CycleError) as caught:
                    build_order(names, gens)
                p, q = both[0]
                assert str(caught.value) == f"{p!r} and {q!r} are related both ways"
            else:
                assert pairs_of(build_order(names, gens)) == closed
        assert cyclic > 100

    def test_matches_closure_then_constructor(self):
        """On seeded random generator sets, acyclic (drawn along a random
        linear extension) or not, with repeated and self-loop generators
        mixed in, build_order gives the up-sets and covers of the
        constructor's walk over Warshall's closure, or raises the same
        error.  An acyclic order starts with the linear extension and the
        heights it hands on, and they are what a fresh order derives."""
        rng = random.Random(20261020)
        cyclic = repeated = looped = 0
        for _ in range(4000):
            n = rng.randint(0, 10)
            names = [f"x{i}" for i in range(n)]
            rank, acyclic = rng.sample(range(n), n), rng.random() < 0.5
            gens = []
            for _ in range(rng.randint(0, 14) if n > 1 else 0):
                a, b = rng.sample(rank, 2)
                if acyclic and rank.index(a) > rank.index(b):
                    a, b = b, a
                gens.append((names[a], names[b]))
            if gens and rng.random() < 0.3:
                gens.append(rng.choice(gens))
                repeated += 1
            if n and rng.random() < 0.3:
                p = rng.choice(names)
                gens.insert(rng.randint(0, len(gens)), (p, p))
                looped += 1
            up = [1 << i for i in range(n)]
            for a, b in gens:
                up[names.index(a)] |= 1 << names.index(b)
            expected = _outcome(Order, tuple(names), transitive_closure(up))
            if expected:
                cyclic += 1
                assert _outcome(build_order, names, gens) == expected, gens
                continue
            order, walked = build_order(names, gens), Order(tuple(names), transitive_closure(up))
            assert (order.up, order.covers) == (walked.up, walked.covers), gens
            assert {"_bottom_up", "heights"} <= vars(order).keys(), gens
            assert_like_fresh(order)
        assert cyclic > 500 and repeated > 500 and looped > 500

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownElement):
            build_order(["a"], [("a", "zz")])

    def test_transitivity_computed(self):
        assert "m" in up_names(CHAIN3, "o")


class TestPointQueries:
    def test_spcl_chain(self):
        assert up_names(CHAIN3, "o") == {"o", "p", "m"}

    def test_gncl_chain(self):
        assert down_names(CHAIN3, "m") == {"o", "p", "m"}

    def test_gncl_diamond_matches_enumeration(self):
        # Oracle: intersect every lower set containing the point.
        lowers = [S for S in brute_lower_sets(DIAMOND) if "a" in S]
        expected = frozenset.intersection(*lowers)
        assert expected == {"o", "a"}
        assert down_names(DIAMOND, "a") == expected

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            CHAIN3.mask({"zz"})


class TestSubsets:
    def test_chain_upper_not_lower(self):
        order = build_order(["o", "m"], [("o", "m")])
        m = order.mask({"m"})
        assert order.is_upper_set(m)
        assert not order.is_lower_set(m)

    def test_empty_set_both(self):
        order = build_order(["o", "m"], [("o", "m")])
        assert order.is_upper_set(0)
        assert order.is_lower_set(0)

    def test_diamond_upper_matches_enumeration(self):
        assert frozenset({"a", "m"}) in brute_upper_sets(DIAMOND)
        assert DIAMOND.is_upper_set(DIAMOND.mask({"a", "m"}))

    def test_subspace_of_chain(self):
        sub = CHAIN3.subspace(CHAIN3.mask({"o", "m"}))
        assert sub == build_order(["o", "m"], [("o", "m")])

    def test_subspace_identity(self):
        assert DIAMOND.subspace(DIAMOND.full_mask) == DIAMOND

    def test_subspace_antichain(self):
        sub = DIAMOND.subspace(DIAMOND.mask({"a", "b"}))
        assert sub.is_discrete(sub.full_mask)

    def test_is_discrete_within_matches_subspace(self):
        rng = random.Random(20261018)
        for _ in range(300):
            order = random_order(rng, max_size=10)
            assert order.is_discrete(order.full_mask) == (not strict_pairs(order))
            for _ in range(5):
                S = order.mask(p for p in order.elements if rng.random() < 0.5)
                sub = order.subspace(S)
                assert order.is_discrete(S) == sub.is_discrete(sub.full_mask)

    def test_maximal_matches_pairs(self):
        rng = random.Random(20261020)
        for _ in range(300):
            order = random_order(rng, max_size=10)
            S = order.mask(p for p in order.elements if rng.random() < 0.6)
            members = order.names(S)
            expected = {p for p in members
                        if not any((p, q) in strict_pairs(order) for q in members)}
            assert order.names(order.maximal(S)) == expected

    @given(orders_and_subsets())
    def test_maximal_matches_definition(self, case):
        """A point of S is maximal exactly when no other point of S lies above it."""
        order, S = case
        points = range(len(order.up))
        expected = sum(1 << i for i in points if S >> i & 1 and not any(
            j != i and S >> j & 1 and order.up[i] >> j & 1 for j in points))
        assert order.maximal(S) == expected

    @given(order_pairs())
    def test_refines_matches_definition(self, orders):
        """An order refines another on the same points exactly when every
        relation of the first holds in the second."""
        for a, b in (orders, orders[::-1]):
            assert a.refines(b) == (pairs_of(a) <= pairs_of(b))

    @given(order_pairs())
    def test_relation_matches_up_masks(self, orders):
        """``Order.relation``, which the benchmark's tracer still reads, is
        the pair set that the test oracles read from the masks."""
        for order in orders:
            assert order.relation == pairs_of(order)


class TestCbFiltration:
    def test_three_chain(self):
        # Layer by layer: first the top, then the middle, then everything.
        layers = cb_filtration(CHAIN3)
        assert [CHAIN3.names(layer) for layer in layers] == [
            {"m"}, {"m", "p"}, {"m", "o", "p"}]
        assert len(layers) - 1 == 2

    def test_antichain(self):
        order = build_order(["a", "b", "c"], [])
        layers = cb_filtration(order)
        assert len(layers) - 1 == 0
        assert layers == (order.full_mask,)

    def test_empty(self):
        layers = cb_filtration(build_order([], []))
        assert len(layers) - 1 == -1
        assert layers == ()

    def test_matches_layer_peeling(self):
        """Layers by depth along the covers equal the maxima peeled one
        layer at a time, on the empty order, a tall chain and random
        orders."""
        def peel(order):
            layers, accumulated = [], 0
            while accumulated != order.full_mask:
                accumulated |= order.maximal(order.full_mask & ~accumulated)
                layers.append(accumulated)
            return tuple(layers)

        rng = random.Random(20261020)
        names = [f"c{i:02d}" for i in range(60)]
        orders = [build_order([], []), build_order(names, zip(names, names[1:]))]
        orders += [random_order(rng, max_size=16) for _ in range(500)]
        for order in orders:
            assert cb_filtration(order) == peel(order)


class TestCheckAxioms:
    def test_t0_always(self):
        assert check_axioms(DIAMOND).t0

    def test_two_chain_sober(self):
        report = check_axioms(build_order(["o", "m"], [("o", "m")]))
        assert report == AxiomReport(t0=True, sober=True, failures=())

    def test_diamond_sober(self):
        report = check_axioms(DIAMOND)
        assert report.sober and report.failures == ()

    def test_chain_sober(self):
        report = check_axioms(CHAIN3)
        assert report.sober and report.failures == ()

    @staticmethod
    def reference_failures(order):
        """``check_axioms``' failures restated over names and pairs: T0 from
        the up- and down-set names of each point, then each lower set with
        exactly one maximal point that is not that point's down-set, by size
        and then by sorted names."""
        failures = []
        if any(up_names(order, p) & down_names(order, p) != {p} for p in order.elements):
            failures.append("t0")
        reducible = []
        rel = pairs_of(order)
        for S in brute_lower_sets(order):
            tops = [p for p in S if not any(a == p != b and b in S for a, b in rel)]
            if len(tops) == 1 and S != down_names(order, tops[0]):
                reducible.append(S)
        reducible.sort(key=lambda S: (len(S), sorted(S)))
        return failures + [f"sober:{sorted(S)}" for S in reducible]

    def test_planted_sober_failures_match_reference(self):
        """``down`` rows corrupted after they are derived (a point's
        closure shrunk, grown or replaced by another point's) make
        ``check_axioms`` name exactly the reference's failing sets, in its
        order; the intact orders pass."""
        rng = random.Random(20261020)
        seen, several = self.planted(rng, (random_order(rng, max_size=8) for _ in range(300)))
        assert min(seen.values()) > 20 and several > 20, (seen, several)

    def test_planted_sober_failures_past_one_byte(self):
        """The same on orders of 9 to 12 points, whose up-sets ``bits``
        reads from both of its byte tables."""
        rng = random.Random(20261021)
        orders = (random_order(rng, max_size=12, min_size=9) for _ in range(40))
        seen, several = self.planted(rng, orders)
        assert min(seen.values()) >= 5 and several >= 5, (seen, several)

    def planted(self, rng, orders):
        """Per order, drawn as it is needed, check it intact, then plant one
        to three ``down`` rows and compare with the reference; returns how
        many planted orders passed, failed T0 or failed only soberness, and
        how many named more than one set."""
        seen, several = {"pass": 0, "sober": 0, "t0": 0}, 0
        for order in orders:
            assert check_axioms(order) == AxiomReport(True, True, ())  # derives down
            assert self.reference_failures(order) == []
            down = list(order.down)
            for _ in range(rng.randint(1, 3)):
                p, q = rng.randrange(len(down)), rng.randrange(len(down))
                down[p] = rng.choice([down[p] & ~(1 << q), down[p] | 1 << q, down[q]])
            order.__dict__["down"] = tuple(down)
            expected = self.reference_failures(order)
            report = check_axioms(order)
            assert list(report.failures) == expected, (order, down)
            assert report.t0 == ("t0" not in expected)
            assert report.sober == (not any(f.startswith("sober") for f in expected))
            seen["pass" if not expected else "t0" if "t0" in expected else "sober"] += 1
            several += sum(f.startswith("sober") for f in expected) > 1
        return seen, several


class TestEnumerateClosedSets:
    def test_two_chain(self):
        order = build_order(["o", "m"], [("o", "m")])
        assert enumerate_closed_sets(order) == (
            frozenset(), frozenset({"o"}), frozenset({"m", "o"})
        )

    def test_antichain_all_subsets(self):
        order = build_order(["a", "b"], [])
        assert set(enumerate_closed_sets(order)) == set(powerset(["a", "b"]))

    def test_diamond_six_lower_sets(self):
        got = enumerate_closed_sets(DIAMOND)
        assert got == (
            frozenset(),
            frozenset({"o"}),
            frozenset({"a", "o"}),
            frozenset({"b", "o"}),
            frozenset({"a", "b", "o"}),
            frozenset({"a", "b", "m", "o"}),
        )
        assert set(got) == brute_lower_sets(DIAMOND)

    def test_size_bound(self):
        """Every reader of the closed family stops at the bound."""
        from gspec import ClosureOrder, brute_force_discrete_law, brute_force_perfect_law
        big = build_order([f"x{i}" for i in range(17)], [])
        co = ClosureOrder(big, ("test",))
        for read in (lambda: enumerate_closed_sets(big), lambda: big.closed_family,
                     lambda: check_axioms(big), lambda: brute_force_discrete_law(co, 1, co),
                     lambda: brute_force_perfect_law(co, 1, co)):
            with pytest.raises(SizeExceeded, match="17 elements exceeds enumeration bound 16"):
                read()

    def test_closed_masks_match_definition(self):
        """The family holds each lower set once: its members, ascending, are
        the lower sets of the definition, on every poset of the exhaustive
        fence and on random orders."""
        rng = random.Random(20261019)
        orders = [poset.base for _, _, poset in small_posets()]
        orders += [build_order([], [])] + [random_order(rng, max_size=12) for _ in range(200)]
        for order in orders:
            masks = list(members(order.closed_family))
            assert masks == sorted(set(masks))
            assert {order.names(m) for m in masks} == brute_lower_sets(order)
            assert order.closed_family == sum(1 << m for m in masks)

    def test_chain_of_sixteen_has_seventeen_lower_sets(self):
        names = [f"x{i:02d}" for i in range(16)]
        masks = list(members(build_order(names, zip(names, names[1:])).closed_family))
        assert masks == [(1 << k) - 1 for k in range(17)]

    def test_antichain_of_sixteen_has_every_subset(self):
        order = build_order([f"x{i:02d}" for i in range(16)], [])
        assert order.closed_family == (1 << (1 << 16)) - 1
        assert list(members(order.closed_family)) == list(range(1 << 16))

    def test_holding_families(self):
        """Bit S of point b's family is set exactly when S holds b."""
        for n in range(7):
            assert holding(n) == tuple(sum(1 << S for S in range(1 << n) if S >> b & 1)
                                       for b in range(n))


class TestProperties:
    @given(orders())
    def test_relation_reflexive_transitive_antisymmetric(self, order):
        rel = pairs_of(order)
        assert all((p, p) in rel for p in order.elements)
        assert all(
            (p, s) in rel for (p, q) in rel for (r, s) in rel if q == r
        )
        assert not any(p != q and (q, p) in rel for (p, q) in rel)

    @given(orders(), st.data())
    def test_lower_iff_complement_upper(self, order, data):
        """Both sides against the definition over pairs: nothing outside S
        lies below a member."""
        S = data.draw(st.integers(min_value=0, max_value=order.full_mask))
        inside = order.names(S)
        lower = all(p in inside for p, q in pairs_of(order) if q in inside)
        assert order.is_lower_set(S) == lower
        assert order.is_upper_set(order.full_mask & ~S) == lower

    @given(orders(max_size=12))
    def test_constructor_builds_a_linear_extension(self, built):
        """The public constructor sorts the points into a linear extension
        before anything is read from the order."""
        up = built.up
        order = Order(built.elements, up)
        assert "_bottom_up" in vars(order)
        position = {i: k for k, i in enumerate(vars(order)["_bottom_up"])}
        assert sorted(position) == list(range(len(up)))
        assert all(position[i] < position[j] for i, m in enumerate(up) for j in bits(m) if j != i)

    @given(orders())
    def test_cb_layers_are_maxima_strata(self, order):
        layers = cb_filtration(order)
        previous = 0
        for layer in layers:
            remaining = order.full_mask & ~previous
            assert layer & ~previous == order.maximal(remaining)
            previous = layer
        assert len(layers) - 1 == longest_chain(order)

    @given(orders())
    @settings(max_examples=40)
    def test_enumeration_matches_definition(self, order):
        assert set(enumerate_closed_sets(order)) == brute_lower_sets(order)

    @given(orders(), st.data())
    @settings(max_examples=40)
    def test_unions_intersections_of_lower_sets(self, order, data):
        closed = enumerate_closed_sets(order)
        family = data.draw(
            st.lists(st.sampled_from(list(closed)), min_size=1, max_size=4)
        )
        union = frozenset().union(*family)
        intersection = frozenset.intersection(*family)
        assert order.is_lower_set(order.mask(union))
        assert order.is_lower_set(order.mask(intersection))

    @given(orders())
    def test_covers_regenerate_order(self, order):
        rebuilt = build_order(order.elements, covering_pairs(order))
        assert rebuilt == order


class TestMaskRepresentation:
    """The up-set masks against definitions written over pairs."""

    @staticmethod
    def pair_heights(order):
        strict = pairs_of(order) - {(p, p) for p in order.elements}
        below = {p: [q for (q, r) in strict if r == p] for p in order.elements}
        memo = {}

        def height(p):
            if p not in memo:
                memo[p] = max((height(q) + 1 for q in below[p]), default=0)
            return memo[p]

        return {p: height(p) for p in order.elements}

    def test_against_pair_definitions(self):
        rng = random.Random(20251018)
        for _ in range(300):
            order = random_order(rng, max_size=7)
            rel = pairs_of(order)
            assert all((p, p) in rel for p in order.elements)
            assert not any(p != q and (q, p) in rel for (p, q) in rel)
            assert all((p, s) in rel for (p, q) in rel for (r, s) in rel if q == r)

            lowers = brute_lower_sets(order)
            assert {S for S in powerset(order.elements)
                    if order.is_lower_set(order.mask(S))} == lowers

            strict = {(p, q) for (p, q) in rel if p != q}
            reduction = {
                (p, q) for (p, q) in strict
                if not any((p, r) in strict and (r, q) in strict for r in order.elements)
            }
            assert covering_pairs(order) == tuple(sorted(reduction))
            assert [order.names(m) for m in order.down] == [
                {p for (p, r) in rel if r == q} for q in order.elements]
            assert [order.names(m) for m in order.covers] == [
                {q for (r, q) in reduction if r == p} for p in order.elements]

            heights = self.pair_heights(order)
            assert dict(zip(order.elements, order.heights)) == heights
            assert longest_chain(order) == max(heights.values())

    @pytest.mark.parametrize("elements,up,message", [
        (("a",), (0b0,), "relation not reflexive at 'a'"),
        (("a", "b"), (0b11, 0b11), "'a' and 'b' are related both ways"),
        (("a", "b", "c"), (0b011, 0b110, 0b100), "relation not transitively closed"),
        (("a",), (0b11,), "need one up-set mask per element"),
        (("a", "b"), (0b1,), "need one up-set mask per element"),
        (("b", "a"), (0b1, 0b10), "elements must be a sorted tuple"),
    ])
    def test_constructor_rejects(self, elements, up, message):
        """Every rejection is an InvalidArgument, so a GspecError and a
        ValueError; exactly the antisymmetry one is a CycleError."""
        with pytest.raises(InvalidArgument, match=message) as caught:
            Order(elements, up)
        assert isinstance(caught.value, GspecError) and isinstance(caught.value, ValueError)
        assert isinstance(caught.value, CycleError) == message.endswith("both ways")

    def test_covers_leave_value_alone(self):
        """``covers`` is derived, so it changes neither ``==``, ``hash``
        nor ``repr``."""
        order = Order(("a", "b", "c"), (0b111, 0b110, 0b100))
        twin = Order(("a", "b", "c"), (0b111, 0b110, 0b100))
        assert order.covers == (0b010, 0b100, 0)
        assert repr(order) == "Order(elements=('a', 'b', 'c'), up=(7, 6, 4))"
        object.__setattr__(twin, "covers", ())
        assert order == twin and hash(order) == hash(twin) and repr(order) == repr(twin)

    def test_bits_matches_lowest_bit_reference(self):
        """The byte tables below 2^16 and the lowest-bit loop above it list
        the set bits ascending, so the first is the lowest."""
        def reference(m):
            while m:
                low = m & -m
                yield low.bit_length() - 1
                m ^= low

        rng = random.Random(20261020)
        masks = [0, 1, 255, 256, 65535, 65536, (1 << 81) - 1]
        masks += [rng.getrandbits(rng.randint(0, 100)) for _ in range(3000)]
        for m in masks:
            assert list(bits(m)) == list(reference(m)), m
            if m:
                assert bits(m)[0] == (m & -m).bit_length() - 1, m

    def test_select_matches_bits(self):
        rng = random.Random(20261118)
        for n in (*range(9), 16, 17, 40, 100):  # both sides of 2^16
            items = [f"x{i}" for i in range(n)]
            for m in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]:
                assert list(select(items, m)) == [items[j] for j in bits(m)]


def reference_constructor(elements, up):
    """The constructor's per-member scan of every row, as it stood before
    the constructor also computed the covers: the fence for its outcome."""
    els = tuple(elements)
    if list(els) != sorted(set(els)):
        raise InvalidArgument("elements must be a sorted tuple of distinct names")
    if len(up) != len(els) or any(m >> len(els) for m in up):
        raise InvalidArgument("need one up-set mask per element, within the elements")
    for i, m in enumerate(up):
        if not m >> i & 1:
            raise InvalidArgument(f"relation not reflexive at {els[i]!r}")
        for j in bits(m & ~(1 << i)):
            if up[j] >> i & 1:
                raise CycleError(f"{els[i]!r} and {els[j]!r} are related both ways")
            if up[j] & ~m:
                raise InvalidArgument("relation not transitively closed")


def _outcome(build, elements, up):
    try:
        build(elements, up)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def test_constructor_fence():
    """On seeded random masks of up to 7 points (valid, cyclic,
    non-transitive and non-reflexive), the constructor fails exactly as the
    per-member scan does, with the same type and text, or succeeds."""
    rng = random.Random(20261119)
    seen = set()
    for _ in range(20_000):
        n = rng.randint(0, 7)
        els = tuple(f"x{i}" for i in range(n))
        kind = rng.randrange(4)
        if kind == 0:
            # A partial order: generators along a random linear extension.
            rank = rng.sample(range(n), n)
            up = [1 << i for i in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.3:
                        up[rank[a]] |= 1 << rank[b]
            up = list(transitive_closure(up))
            if n and rng.random() < 0.5:
                # Drop one relation or one reflexive bit.
                i, j = rng.randrange(n), rng.randrange(n)
                up[i] &= ~(1 << j)
        else:
            # Reflexive random masks; closed ones are transitive, so any
            # failure there is a cycle.
            up = [rng.getrandbits(n) | 1 << i for i in range(n)]
            if kind == 1:
                up = list(transitive_closure(up))
        expected = _outcome(reference_constructor, els, up)
        assert _outcome(Order, els, tuple(up)) == expected, (els, up)
        seen.add(expected and expected[1].split()[-1])
    assert seen == {None, "ways", "closed"} | {f"'x{i}'" for i in range(7)}


def test_split_fence():
    """On seeded random orders of up to 20 points (masks on both sides of
    2^16) and random closed E, empty and full included, a split's rows are
    each row masked by its own part, its covers are those rows' transitive
    reduction, every row it does not cut is the parent's row object, and an
    E that cuts nothing gives the order itself."""
    rng = random.Random(20261021)
    cut_rows = shared_rows = kept = 0
    for _ in range(200):
        order = random_order(rng, max_size=20)
        n, up = len(order.up), order.up
        full = (1 << n) - 1
        for s in (0, full, *(rng.getrandbits(n) for _ in range(6))):
            e = sum(1 << j for j in range(n) if up[j] & s)  # the closure of s
            rows = tuple(m & (e if e >> i & 1 else ~e) for i, m in enumerate(up))
            strict = [m & ~(1 << i) for i, m in enumerate(rows)]
            covers = tuple(
                sum(1 << j for j in range(n) if strict[i] >> j & 1
                    and not any(strict[i] >> k & 1 and strict[k] >> j & 1 for k in range(n)))
                for i in range(n))
            split = order._split(e)
            assert split.elements == order.elements, (order, e)
            assert split.up == rows and split.covers == covers, (order, e)
            if rows == up:
                assert split is order, (order, e)
                kept += 1
                continue
            for i, m in enumerate(up):
                if rows[i] == m:
                    assert split.up[i] is m and split.covers[i] is order.covers[i], (order, e, i)
                    shared_rows += m > 256
                else:
                    cut_rows += 1
    assert kept > 400 and cut_rows > 1000 and shared_rows > 1000
