import warnings

import pytest

from conftest import poset_from_order, random_monotone_f, random_order
from gspec import (
    NotCodimensionFunction,
    NotDescending,
    NotSpecializationClosed,
    SchemaError,
    UnknownElement,
    classify,
    codim_filtration,
    f_to_filtration,
    filtration_to_f,
    height_filtration,
    preset,
    validate_filtration,
)


class TestValidate:
    def test_single_level(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}])
        assert filt.n == 1 and filt.levels == (poset.base.mask({"m"}),)

    def test_repeated_level(self):
        filt = validate_filtration(preset("LOC2"), [{"m"}, {"m"}])
        assert filt.n == 2

    def test_not_specialization_closed(self):
        with pytest.raises(NotSpecializationClosed) as err:
            validate_filtration(preset("LOC2"), [{"o"}])
        assert err.value.index == 0

    def test_not_descending(self):
        poset = preset("LOC2")
        with pytest.raises(NotDescending) as err:
            validate_filtration(poset, [{"m"}, {"p1", "m"}])
        assert err.value.index == 1

    def test_stranger_named(self):
        """Library callers reach the name boundary here: a name outside the
        poset is reported, not dropped."""
        with pytest.raises(UnknownElement, match="zz"):
            validate_filtration(preset("LOC2"), [{"m", "zz"}])

    def test_trivial_levels_stripped(self):
        """Explicit full and empty levels are stripped without a warning;
        the caller reads how many from ``n``."""
        poset = preset("LOC2")
        levels = [set(poset.base.elements), {"m"}, set()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            filt = validate_filtration(poset, levels)
        assert filt.levels == (poset.base.mask({"m"}),)
        assert len(levels) - filt.n == 2

    def test_all_trivial_collapses_to_empty(self):
        filt = validate_filtration(preset("DVR1"), [set()])
        assert filt.n == 0 and filt.levels == ()

    def test_difference_conventions(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}])
        names = poset.base.names
        assert names(filt.difference(0)) == set(poset.base.elements) - {"m"}
        assert names(filt.difference(1)) == {"m"}
        assert filt.level(-1) == poset.base.full_mask and filt.level(1) == 0


class TestLevelFunction:
    def test_loc2_single_level(self):
        filt = validate_filtration(preset("LOC2"), [{"m"}])
        f = filtration_to_f(filt)
        assert f["m"] == 0
        assert all(f[p] == -1 for p in f if p != "m")

    def test_constant_minus_one_gives_empty(self):
        poset = preset("LOC2")
        f = {p: -1 for p in poset.base.elements}
        assert f_to_filtration(poset, f).n == 0

    def test_round_trip_height_filtration(self):
        poset = preset("LOC3")
        filt = height_filtration(poset)
        assert f_to_filtration(poset, filtration_to_f(filt)) == filt

    def test_shifted_f_normalises(self):
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}])
        for k in (-5, 5):
            f = {p: v + k for p, v in filtration_to_f(filt).items()}
            assert f_to_filtration(poset, f) == filt

    def test_non_monotone_rejected(self):
        poset = preset("DVR1")
        with pytest.raises(NotSpecializationClosed):
            f_to_filtration(poset, {"o": 1, "m": 0})

    def test_missing_element_rejected(self):
        with pytest.raises(SchemaError, match=r"^level function missing \['o'\]$"):
            f_to_filtration(preset("DVR1"), {"m": 0})

    def test_codim_missing_element_rejected(self):
        # Checked before any cover is read, so the error is typed.
        missing = r"^level function missing \['m', 'p1', 'p2', 'p3', 'p4', 'p5'\]$"
        with pytest.raises(SchemaError, match=missing):
            codim_filtration(preset("LOC2"), {"o": 0})

    def test_round_trips_random(self, rng):
        for _ in range(300):
            poset = poset_from_order(random_order(rng))
            f = random_monotone_f(rng, poset.base)
            filt = f_to_filtration(poset, f)
            assert filtration_to_f(filt) == f
            assert f_to_filtration(poset, filtration_to_f(filt)) == filt
            for k in range(-7, 8):
                assert f_to_filtration(poset, {p: v + k for p, v in f.items()}) == filt

    def test_levels_are_upper_sets_random(self, rng):
        for _ in range(50):
            poset = poset_from_order(random_order(rng))
            filt = f_to_filtration(poset, random_monotone_f(rng, poset.base))
            for level in filt.levels:
                assert poset.base.is_upper_set(level)


class TestClassify:
    def test_loc3_height_is_slice(self):
        poset = preset("LOC3")
        flags = classify(poset, height_filtration(poset))
        assert flags == {"intermediate": True, "slice": True, "truncated_slice": True}

    def test_loc2_single_level_neither(self):
        poset = preset("LOC2")
        flags = classify(poset, validate_filtration(poset, [{"m"}]))
        assert not flags["slice"] and not flags["truncated_slice"]

    def test_loc2_two_level_slice(self):
        poset = preset("LOC2")
        levels = [{"p1", "p2", "p3", "p4", "p5", "m"}, {"m"}]
        flags = classify(poset, validate_filtration(poset, levels))
        assert flags["slice"] and flags["truncated_slice"]

    def test_truncated_but_not_slice(self):
        poset = preset("LOC2")
        flags = classify(poset, validate_filtration(poset,
                                                    [{"p1", "p2", "p3", "p4", "p5", "m"}]))
        assert flags["truncated_slice"] and not flags["slice"]

    def test_slice_implies_truncated_random(self, rng):
        for _ in range(50):
            poset = poset_from_order(random_order(rng))
            filt = f_to_filtration(poset, random_monotone_f(rng, poset.base))
            flags = classify(poset, filt)
            assert not flags["slice"] or flags["truncated_slice"]


class TestHeightFiltration:
    def test_loc3(self):
        poset = preset("LOC3")
        filt = height_filtration(poset)
        assert [sorted(poset.base.names(level)) for level in filt.levels] == [
            ["m", "q1", "q2", "q3", "r1", "r2", "r3"],
            ["m", "r1", "r2", "r3"],
            ["m"],
        ]

    def test_dvr1(self):
        poset = preset("DVR1")
        assert height_filtration(poset).levels == (poset.base.mask({"m"}),)

    def test_antichain_empty(self):
        from gspec import load_prime_poset
        poset = load_prime_poset({"elements": ["a", "b"], "covers": []})
        assert height_filtration(poset).n == 0

    @pytest.mark.parametrize("name", ["DVR1", "LOC2", "LOC3", "POLY2"])
    def test_slice_on_catenary_presets(self, name):
        # These presets have height equal to longest chain below, a
        # codimension function, so the height filtration must be a slice.
        poset = preset(name)
        assert classify(poset, height_filtration(poset))["slice"]


class TestCodimFiltration:
    def test_height_is_codim_on_loc3(self):
        poset = preset("LOC3")
        assert codim_filtration(poset, dict(poset.height)) == height_filtration(poset)

    def test_shift_invariance(self):
        poset = preset("LOC3")
        shifted = {p: h + 7 for p, h in poset.height.items()}
        assert codim_filtration(poset, shifted) == height_filtration(poset)

    def test_violation(self):
        poset = preset("POLY2")
        with pytest.raises(NotCodimensionFunction) as err:
            codim_filtration(poset, {"o": 0, "a": 1, "b": 2, "m": 3})
        assert err.value.cover == ("o", "b")
