import pytest

from conftest import strict_pairs
from gspec import (
    COHERENT,
    NOT_COHERENT,
    PRESET_NAMES,
    UNDETERMINED,
    AnnotationKeyError,
    CycleError,
    NotComparable,
    SchemaError,
    UnknownElement,
    UnknownPreset,
    load_prime_poset,
    preset,
)


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

    def test_json_string_accepted(self):
        poset = load_prime_poset('{"elements": ["a"], "covers": []}')
        assert poset.base.elements == ("a",)

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
    ])
    def test_schema_errors(self, document):
        with pytest.raises(SchemaError):
            load_prime_poset(document)

    def test_cover_stranger_named(self):
        with pytest.raises(UnknownElement, match="'zz' is not one of the elements"):
            load_prime_poset({"elements": ["o"], "covers": [["o", "zz"]]})

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
        rel = poset.base.relation
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
        for p, q in poset.base.relation:
            assert poset.coherent_complement(p, q, frozenset()).verdict == COHERENT
            assert poset.coherent_complement(p, q, universe).verdict == COHERENT

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
            for p, q in poset.base.relation:
                verdict = poset.coherent_complement(p, q, frozenset(V0))
                assert verdict.verdict != UNDETERMINED


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
        assert poset.base.maximal_elements() == {"m"}
        assert poset.base.minimal_elements() == {"r-1", "r0", "r1"}

    def test_nagata_preset_verdict(self):
        assert preset("NAGATA2").coherent_complement("o", "m", {"a", "m"}).verdict \
            == NOT_COHERENT

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("NOPE")
