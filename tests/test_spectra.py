import random
from collections import Counter

import pytest

from conftest import between, pairs_of, random_order, reference_verdict, strict_pairs
from gspec import (
    COHERENT,
    NOT_COHERENT,
    PRESET_NAMES,
    UNDETERMINED,
    AnnotationKeyError,
    CycleError,
    InvalidArgument,
    NotComparable,
    PrimePoset,
    SchemaError,
    UnknownElement,
    UnknownPreset,
    build_order,
    covering_pairs,
    load_prime_poset,
    preset,
)
from gspec.poset import bits


class TestLoad:
    def test_two_chain_inferred_heights(self):
        poset = load_prime_poset({"elements": ["o", "m"], "covers": [["o", "m"]]})
        assert poset.height == {"o": 0, "m": 1}

    def test_loc2_inferred_heights(self):
        poset = preset("LOC2")
        assert poset.height["o"] == 0 and poset.height["p3"] == 1 and poset.height["m"] == 2

    def test_cycle(self):
        with pytest.raises(CycleError):
            load_prime_poset({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})

    @pytest.mark.parametrize("text", ['{"elements": ["a"], "covers": []}',
                                      "[" * 100_000, "9" * 5000],
                             ids=["object", "deep", "long-int"])
    def test_json_string_rejected(self, text):
        """Decoding is the caller's: text is not a document, however it would parse."""
        with pytest.raises(SchemaError, match="^document must be a JSON object$"):
            load_prime_poset(text)

    @pytest.mark.parametrize("document", [
        {"elements": "a"},
        {"elements": ["a"], "covers": [["a"]]},
        {"elements": ["a"], "heights": {"a": "zero"}},
        {"elements": ["a", "b"], "heights": {"a": 0}},
        {"elements": ["a"], "covers": [], "bogus": 1},
        {"elements": ["a", "b"], "covers": [["a", "b"]], "heights": {"a": 0, "b": 0}},
        {"elements": ["o", "m"], "covers": [["o", "m"]],
         "coherence": [{"p": ["o"], "q": "m", "W": ["m"], "coherent": True}]},
        {"elements": ["o", "m"], "covers": [["o", "m"]],
         "coherence": [{"p": "o", "q": 1, "W": ["m"], "coherent": True}]},
        {"elements": ["o"], "coherence": 0},
        {"elements": ["o"], "heights": {"o": 0, "zz": 3}},
        {"elements": ["o", "o", "m"], "covers": [["o", "m"]]},
        {"elements": ["a"], "heights": {"a": -1}},
        {"elements": ["o", "m"], "covers": [["o", "m"]],
         "coherence": [{"p": "o", "q": "m", "W": "m", "coherent": True}]},
    ])
    def test_schema_errors(self, document):
        with pytest.raises(SchemaError):
            load_prime_poset(document)

    def test_constructor_needs_every_height(self):
        with pytest.raises(SchemaError, match="^missing height for 'a'$"):
            PrimePoset(build_order(["a"], []), {}, {})

    def test_repeated_element_named(self):
        with pytest.raises(SchemaError, match="element 'o' is listed more than once"):
            load_prime_poset({"elements": ["o", "m", "o"], "covers": [["o", "m"]]})

    def test_first_repeat_named(self):
        """The first element in document order that repeats an earlier one
        is named, found in one pass (50,000 points, the repeat last)."""
        with pytest.raises(SchemaError, match="^element 'a' is listed more than once$"):
            load_prime_poset({"elements": ["b", "a", "a", "b"]})
        names = [f"x{k}" for k in range(50_000)]
        with pytest.raises(SchemaError, match="^element 'x0' is listed more than once$"):
            load_prime_poset({"elements": names + ["x0"]})

    def test_cover_stranger_named(self):
        with pytest.raises(UnknownElement, match="'zz' is not one of the elements"):
            load_prime_poset({"elements": ["o"], "covers": [["o", "zz"]]})

    @pytest.mark.parametrize("heights,cover", [
        ({"o": 0, "a": 1, "b": 2, "m": 2}, "'b' < 'm'"),
        ({"o": 0, "a": 1, "b": 1, "m": 1}, "'a' < 'm'"),
        ({"o": 1, "a": 1, "b": 0, "m": 2}, "'o' < 'a'"),
    ])
    def test_height_against_cover(self, heights, cover):
        """Heights must rise along every cover; the first offending cover in
        sorted order is named."""
        document = {"elements": ["o", "a", "b", "m"],
                    "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
                    "heights": heights}
        with pytest.raises(SchemaError) as caught:
            load_prime_poset(document)
        assert str(caught.value) == f"height not compatible with cover {cover}"

    def test_explicit_heights_kept(self):
        poset = load_prime_poset(
            {"elements": ["o", "m"], "covers": [["o", "m"]],
             "heights": {"o": 0, "m": 2}}
        )
        assert poset.height["m"] == 2

    def test_annotation_not_upper(self):
        document = {
            "elements": ["o", "a", "m"],
            "covers": [["o", "a"], ["a", "m"]],
            "coherence": [{"p": "o", "q": "m", "W": ["a"], "coherent": True}],
        }
        with pytest.raises(AnnotationKeyError):
            load_prime_poset(document)

    def test_annotation_outside_interval(self):
        document = {
            "elements": ["o", "a", "b", "m"],
            "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
            "coherence": [{"p": "a", "q": "m", "W": ["b", "m"], "coherent": True}],
        }
        with pytest.raises(AnnotationKeyError):
            load_prime_poset(document)

    def test_annotation_incomparable_key(self):
        document = {
            "elements": ["o", "a", "b", "m"],
            "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
            "coherence": [{"p": "a", "q": "b", "W": [], "coherent": True}],
        }
        with pytest.raises(AnnotationKeyError):
            load_prime_poset(document)


class TestInterval:
    def test_full_interval_of_local_domain(self):
        poset = preset("LOC2")
        assert poset.interval("o", "m") == poset

    def test_upper_two_chain(self):
        poset = preset("LOC2")
        sub = poset.interval("p1", "m")
        assert sub.base.elements == ("m", "p1")
        assert sub.height == {"p1": 0, "m": 1}

    def test_loc3_below_r1(self):
        sub = preset("LOC3").interval("o", "r1")
        assert set(sub.base.elements) == {"o", "q1", "q2", "r1"}
        assert sub.height == {"o": 0, "q1": 1, "q2": 1, "r1": 2}

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            preset("LOC2").interval("p1", "p2")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_singleton_intervals(self, name):
        poset = preset(name)
        for p in poset.base.elements:
            sub = poset.interval(p, p)
            assert sub.base.elements == (p,)
            assert sub.height == {p: 0}

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_nesting_functorial(self, name):
        poset = preset(name)
        rel = pairs_of(poset.base)
        for p, q in rel:
            for q2 in poset.base.elements:
                if (p, q2) in rel and (q2, q) in rel:
                    assert poset.interval(p, q).interval(p, q2) == poset.interval(p, q2)


class TestCoherentComplement:
    def test_loc2_deep_minimal(self):
        verdict = preset("LOC2").coherent_complement("o", "m", {"m"})
        assert verdict.verdict == NOT_COHERENT
        assert verdict.reason == "deep-minimal"

    def test_loc2_dimension_one(self):
        verdict = preset("LOC2").coherent_complement("p1", "m", {"m"})
        assert verdict.verdict == COHERENT
        assert verdict.reason == "dimension-one"

    def test_loc3_generic_complement(self):
        verdict = preset("LOC3").coherent_complement("q1", "m", {"r1", "r2", "r3", "m"})
        assert verdict.verdict == COHERENT
        assert verdict.reason == "generic-complement"

    def test_nagata_annotation(self):
        verdict = preset("NAGATA2").coherent_complement("o", "m", {"a", "m"})
        assert verdict.verdict == NOT_COHERENT
        assert verdict.reason == "annotation"

    def test_poly_annotation(self):
        verdict = preset("POLY2").coherent_complement("o", "m", {"a", "m"})
        assert verdict.verdict == COHERENT

    def test_undetermined_without_annotation(self):
        bare = load_prime_poset({
            "elements": ["o", "a", "b", "m"],
            "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
        })
        assert bare.coherent_complement("o", "m", {"a", "m"}).verdict == UNDETERMINED

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_trivial_restrictions(self, name):
        poset = preset(name)
        universe = frozenset(poset.base.elements)
        for p, q in pairs_of(poset.base):
            assert poset.coherent_complement(p, q, frozenset()).verdict == COHERENT
            assert poset.coherent_complement(p, q, universe).verdict == COHERENT

    def test_stranger_in_V0_named(self):
        with pytest.raises(UnknownElement, match="zz"):
            preset("LOC2").coherent_complement("o", "m", {"m", "zz"})

    def test_dimension_one_beats_annotations(self):
        # An annotation contradicting the dimension rule never gets consulted.
        poset = load_prime_poset({
            "elements": ["o", "m"],
            "covers": [["o", "m"]],
            "coherence": [{"p": "o", "q": "m", "W": ["m"], "coherent": False}],
        })
        assert poset.coherent_complement("o", "m", {"m"}).verdict == COHERENT

    @pytest.mark.parametrize("name,levels", [
        ("DVR1", [{"m"}]),
        ("LOC2", [{"m"}, {"m"}]),
        ("LOC2M", [{"m"}, {"m"}]),
        ("LOC3", [{"r1", "r2", "r3", "m"}, {"m"}]),
        ("LOC3", [{"q1", "q2", "q3", "r1", "r2", "r3", "m"},
                  {"r1", "r2", "r3", "m"}, {"m"}]),
    ])
    def test_never_undetermined_on_presets(self, name, levels):
        poset = preset(name)
        for V0 in levels:
            for p, q in pairs_of(poset.base):
                verdict = poset.coherent_complement(p, q, frozenset(V0))
                assert verdict.verdict != UNDETERMINED


def longest_below(order):
    """Each point's longest chain below it, straight from the strict pairs:
    a point below another has fewer points below it, so it comes first."""
    strict = strict_pairs(order)
    height = {}
    for q in sorted(order.elements, key=lambda q: sum((p, q) in strict for p in order.elements)):
        height[q] = max((height[p] + 1 for p, r in strict if r == q), default=0)
    return height


class TestDerivedHeights:
    """A document without heights takes its order's own, which cannot fail
    the height checks, so the loader skips them; with the same heights
    written in, the checks run and must give the same poset."""

    @staticmethod
    def documents(seed):
        """300 random documents without heights, half of them annotated with
        valid keys: each W an interval's part of a random upper set."""
        rng = random.Random(seed)
        for _ in range(300):
            order = random_order(rng, max_size=10)
            document = {"elements": list(order.elements),
                        "covers": [list(c) for c in covering_pairs(order)]}
            if rng.random() < 0.5:
                seeds = rng.sample(order.elements, rng.randint(1, len(order.elements)))
                upper = {q for p, q in pairs_of(order) if p in seeds}
                document["coherence"] = [
                    {"p": p, "q": q, "W": sorted(between(order, p, q) & upper),
                     "coherent": rng.random() < 0.5}
                    for p, q in sorted(pairs_of(order)) if rng.random() < 0.4]
            yield rng, order, document

    def test_same_poset_as_written_heights(self):
        annotated = 0
        for _, order, document in self.documents(20261029):
            heights = longest_below(order)
            derived = load_prime_poset(document)
            written = load_prime_poset({**document, "heights": heights})
            assert derived.height == written.height == heights, document
            assert derived.base == written.base and derived.base.covers == written.base.covers
            assert derived._annotation_masks == written._annotation_masks, document
            assert derived == written
            annotated += bool(derived._annotation_masks)
        assert annotated > 100

    def test_incompatible_written_heights_name_the_cover(self):
        """Lowering a point to at most the height of a point it covers
        breaks that cover; the first broken cover in sorted order is named."""
        broken = 0
        for rng, order, document in self.documents(20261030):
            covers = covering_pairs(order)
            if not covers:
                continue
            heights = longest_below(order)
            p, q = rng.choice(covers)
            heights[q] = rng.randint(0, heights[p])
            first = next((a, b) for a, b in covers if heights[b] <= heights[a])
            with pytest.raises(SchemaError) as caught:
                load_prime_poset({**document, "heights": heights})
            assert str(caught.value) == (
                f"height not compatible with cover {first[0]!r} < {first[1]!r}")
            broken += 1
        assert broken > 200


def random_model(rng):
    """A random model on a random order and four random upper sets of it.

    Half the models have explicit heights, stretched above the longest-chain
    ones; the annotations are valid keys, each the restriction of one of the
    upper sets to an interval, with a random verdict.
    """
    order = random_order(rng, max_size=9)
    rel = pairs_of(order)
    pairs = sorted(rel)
    covers = covering_pairs(order)
    document = {"elements": list(order.elements), "covers": [list(c) for c in covers]}
    if rng.random() < 0.5:
        heights = {}
        for q in sorted(order.elements, key=lambda q: sum((p, q) in rel for p in order.elements)):
            below = [heights[p] + 1 for p, r in covers if r == q]
            heights[q] = max(below, default=0) + rng.choice((0, 0, 1, 2))
        document["heights"] = heights
    uppers = []
    for _ in range(4):
        seeds = rng.sample(order.elements, rng.randint(0, len(order.elements)))
        uppers.append(frozenset(q for p in seeds for q in order.elements if (p, q) in rel))
    document["coherence"] = [
        {"p": p, "q": q, "W": sorted(between(order, p, q) & rng.choice(uppers)),
         "coherent": rng.random() < 0.5}
        for p, q in pairs if rng.random() < 0.4
    ]
    return load_prime_poset(document), uppers


class TestVerdictAgainstReference:
    def test_random_models(self):
        rng = random.Random(20261018)
        seen = Counter()
        for _ in range(300):
            poset, uppers = random_model(rng)
            explicit = poset.height != dict(zip(poset.base.elements, poset.base.heights))
            for V0 in uppers:
                for p, q in sorted(pairs_of(poset.base)):
                    got = poset.coherent_complement(p, q, V0)
                    assert (got.verdict, got.reason) == reference_verdict(poset, p, q, V0), \
                        (poset, p, q, sorted(V0))
                    seen[got.reason] += 1
                    if (p, q, frozenset(between(poset.base, p, q) & V0)) in poset.coherence:
                        seen[f"{got.reason} over an annotation"] += 1
                    if explicit:
                        seen[f"{got.reason} off the longest-chain heights"] += 1
        for reason in ("trivial", "dimension-one", "generic-complement", "deep-minimal",
                       "annotation", "no-rule"):
            assert seen[reason] > 0, reason
        assert seen["dimension-one over an annotation"] > 0
        assert seen["deep-minimal off the longest-chain heights"] > 0
        assert seen["no-rule off the longest-chain heights"] > 0


def per_pair_verdict(poset, i, j, v):
    """The oracle on one pair (i, j) and the mask v of V0, decided pair by
    pair from masks, with the shallow points and the annotation key worked
    out here."""
    base = poset.base
    up, p = base.up, base.elements[i]
    members = up[i] & base.down[j]
    W = members & v
    if not W or W == members:
        return COHERENT, "trivial"
    if members.bit_count() <= 2:
        return COHERENT, "dimension-one"
    if W == members & ~(1 << i):
        return COHERENT, "generic-complement"
    shallow = sum(1 << r for r, q in enumerate(base.elements)
                  if poset.height[q] < poset.height[p] + 2)
    reach = 0
    for r in bits(W & shallow):
        reach |= up[r]
    if W & ~reach:
        return NOT_COHERENT, "deep-minimal"
    known = poset.coherence.get((p, base.elements[j], base.names(W)))
    if known is not None:
        return (COHERENT if known else NOT_COHERENT), "annotation"
    return UNDETERMINED, "no-rule"


class TestRowOracle:
    def test_rows_match_per_pair_oracle(self):
        """Over random models, upper sets and annotations, each row's masks
        split its cross pairs, and every pair gets the per-pair verdict and
        reason, from the row and by names from ``coherent_complement``."""
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(400):
            poset, uppers = random_model(rng)
            base = poset.base
            for V0 in uppers:
                v = base.mask(V0)
                for i, row in enumerate(base.up):
                    for j in bits(row):
                        got = poset.coherent_complement(base.elements[i], base.elements[j], V0)
                        assert (got.verdict, got.reason) == per_pair_verdict(poset, i, j, v)
                    if v >> i & 1:
                        continue
                    masks = [m for _, m in poset.row_verdicts(i, v)]
                    assert sum(masks) == row & v
                    assert sum(m.bit_count() for m in masks) == (row & v).bit_count()
                    for verdict, m in poset.row_verdicts(i, v):
                        for j in bits(m):
                            assert (verdict.verdict, verdict.reason) == \
                                per_pair_verdict(poset, i, j, v), (poset, i, j, v)
                            seen[verdict.reason] += 1
        for reason in ("dimension-one", "generic-complement", "deep-minimal", "annotation",
                       "no-rule"):
            assert seen[reason] > 0, reason

    def test_oracle_needs_an_upper_set(self):
        """The oracle refuses a V0 that is not specialisation-closed, also
        where the pair's end lies outside it (o and m, with p1 between them
        inside)."""
        with pytest.raises(InvalidArgument, match=r"\['p1'\] is not specialisation-closed"):
            preset("LOC2").coherent_complement("o", "m", {"p1"})

    def test_oracle_error_order(self):
        """An incomparable pair is refused before V0 is read, even where the
        restriction to the (empty) interval would be trivial; a stranger in
        V0 is named before V0 is checked specialisation-closed."""
        poset = preset("LOC2")
        for p, q, V0 in (("m", "o", set()), ("p1", "p2", {"p1", "zz"}), ("zz", "m", {"m"})):
            with pytest.raises(NotComparable, match=f"{p!r} not contained in {q!r}"):
                poset.coherent_complement(p, q, V0)
        with pytest.raises(UnknownElement, match="zz"):
            poset.coherent_complement("o", "m", {"p1", "zz"})
        with pytest.raises(InvalidArgument, match="not specialisation-closed"):
            poset.coherent_complement("o", "m", {"p1", "p2"})


class TestPresets:
    def test_dvr1(self):
        poset = preset("DVR1")
        assert len(poset.base.elements) == 2
        assert strict_pairs(poset.base) == {("o", "m")}

    def test_loc3_shape(self):
        poset = preset("LOC3")
        assert len(poset.base.elements) == 8
        assert sorted(set(poset.height.values())) == [0, 1, 2, 3]

    def test_loc2m_shape(self):
        poset = preset("LOC2M")
        assert len(poset.base.elements) == 8
        base = poset.base
        assert base.names(base.maximal(base.full_mask)) == {"m"}
        minimal = {base.elements[i] for i, down in enumerate(base.down) if down == 1 << i}
        assert minimal == {"r-1", "r0", "r1"}

    def test_nagata_preset_verdict(self):
        assert preset("NAGATA2").coherent_complement("o", "m", {"a", "m"}).verdict \
            == NOT_COHERENT

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("NOPE")
