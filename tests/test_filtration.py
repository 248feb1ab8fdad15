import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pairs_of, poset_from_order, random_monotone_f, random_order
from gspec import (
    MAX_LEVELS,
    InvalidArgument,
    NotCodimensionFunction,
    NotDescending,
    NotSpecializationClosed,
    SchemaError,
    SpFiltration,
    UnknownElement,
    build_order,
    classify,
    codim_filtration,
    f_to_filtration,
    filtration_to_f,
    height_filtration,
    preset,
    validate_filtration,
)
from gspec.poset import bits


@st.composite
def level_functions(draw, monotone=None):
    """A random poset of up to 8 points and an integer per point, shifted
    by up to 50 either way; when ``monotone`` (drawn if None), each value
    is the largest raw value at or below the point, so f never drops
    upward."""
    n = draw(st.integers(min_value=0, max_value=8))
    names = [f"x{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
    poset = poset_from_order(build_order(
        names, [(names[i], names[j]) for i, j in pairs if i < j < n]))
    base = poset.base
    raw = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if draw(st.booleans()) if monotone is None else monotone:
        raw = [max(raw[j] for j in bits(down)) for down in base.down]
    shift = draw(st.integers(-50, 50))
    return poset, {p: v + shift for p, v in zip(base.elements, raw)}


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

    @pytest.mark.parametrize("name,levels,index", [
        ("DVR1", ["om"], 0),
        ("LOC2", ["mo"], 0),
        ("LOC2", [{"m"}, "m"], 1),
    ], ids=["DVR1-om", "LOC2-mo", "LOC2-second"])
    def test_string_level_rejected(self, name, levels, index):
        """A bare string is one level, not its characters: "om" on DVR1 would
        be the whole spectrum and vanish, "mo" on LOC2 would fail as {m, o}."""
        with pytest.raises(InvalidArgument, match=f"^level {index} is a string"):
            validate_filtration(preset(name), levels)

    def test_level_count_bounded(self):
        """At most ``MAX_LEVELS`` levels on a smaller poset, counted as given:
        trivial ones count, and no level past the bound is read."""
        poset = preset("LOC2")
        assert validate_filtration(poset, [set()] * MAX_LEVELS).n == 0
        with pytest.raises(InvalidArgument,
                           match=f"^more than the bound of {MAX_LEVELS} levels given$"):
            validate_filtration(poset, [set()] * MAX_LEVELS + [{"zz"}])

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
        """The strata are the differences V_(i-1) minus V_i for i = 0..n,
        with V_(-1) all points and V_n empty."""
        poset = preset("LOC2")
        filt = validate_filtration(poset, [{"m"}])
        assert list(map(poset.base.names, filt.strata)) == [
            set(poset.base.elements) - {"m"}, {"m"}]
        assert filt.elements == poset.base.elements and filt.base is poset.base


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


class TestLevelFunctionDefinition:
    @given(level_functions())
    def test_levels_match_definition(self, case):
        """The levels are {p : f(p) >= i} for i from min f + 1 to max f, or
        :class:`NotSpecializationClosed` names the first of them that is
        not open."""
        poset, f = case
        base = poset.base
        values = list(f.values()) or [-1]
        levels = [base.mask(p for p in f if f[p] >= i)
                  for i in range(min(values) + 1, max(values) + 1)]
        closed = [base.is_upper_set(level) for level in levels]
        if all(closed):
            assert f_to_filtration(poset, f).levels == tuple(levels)
        else:
            with pytest.raises(NotSpecializationClosed) as err:
                f_to_filtration(poset, f)
            assert err.value.index == closed.index(False)
        if len(set(values)) == 1:
            assert levels == []

    @given(st.integers(min_value=MAX_LEVELS + 1, max_value=10**18),
           st.integers(min_value=-10**18, max_value=10**18), st.booleans())
    def test_span_bound_before_levels(self, span, low, rising):
        """Spans of up to 10^18 levels are refused at once, open or not:
        no level is built first."""
        f = {"o": low, "m": low + span} if rising else {"o": low + span, "m": low}
        message = f"^level function spans {span} levels, above the bound of {MAX_LEVELS}$"
        with pytest.raises(InvalidArgument, match=message):
            f_to_filtration(preset("DVR1"), f)

    @staticmethod
    def filtration(case, empty):
        """A filtration of a random poset and its levels as sets of names,
        with V_(-1) all points in front and V_n empty behind."""
        poset, f = case
        filt = SpFiltration(poset.base, ()) if empty else f_to_filtration(poset, f)
        names = set(filt.elements)
        return poset, filt, [names, *map(poset.base.names, filt.levels), set()]

    @given(level_functions(monotone=True), st.booleans())
    def test_strata_and_level_function_match_definition(self, case, empty):
        """Stratum i is V_(i-1) minus V_i for i = 0..n, and the level
        function at p is the largest i with p in V_i (-1 off V_0)."""
        poset, filt, V = self.filtration(case, empty)
        assert len(filt.strata) == filt.n + 1
        assert [poset.base.names(S) for S in filt.strata] == [
            V[i] - V[i + 1] for i in range(filt.n + 1)]
        assert filt.level_of == tuple(
            max((i for i in range(filt.n) if p in V[i + 1]), default=-1) for p in filt.elements)

    @given(level_functions(monotone=True), st.booleans())
    def test_stratum_pass_matches_definition(self, case, empty):
        """Over names and pairs: the strata before the last level are
        antichains exactly when each is its own set of maxima, and step k's
        forced points are the maximal points and the maxima of strata
        0..k-1, accumulated."""
        poset, filt, V = self.filtration(case, empty)
        rel = pairs_of(poset.base)

        def maxima(S):
            return {p for p in S if not any(p != q and (p, q) in rel for q in S)}

        strata = [V[i] - V[i + 1] for i in range(filt.n)]
        forced = [maxima(V[0])]
        for S in strata:
            forced.append(forced[-1] | maxima(S))
        assert filt.stratum_pass == (all(maxima(S) == S for S in strata),
                                     tuple(map(poset.base.mask, forced)))


class TestForcedMaximal:
    def test_prefix_masks_random(self, rng):
        """Step k's mask is the inclusion maxima and the maxima of strata
        0..k-1, for every step 0..n of the chain."""
        for _ in range(200):
            poset = poset_from_order(random_order(rng))
            base = poset.base
            filt = f_to_filtration(poset, random_monotone_f(rng, base))
            forced = filt.stratum_pass[1]
            assert len(forced) == filt.n + 1
            for step, mask in enumerate(forced):
                expected = base.maximal(base.full_mask)
                for j in range(step):
                    expected |= base.maximal(filt.strata[j])
                assert mask == expected


class TestClassify:
    def test_loc3_height_is_slice(self):
        poset = preset("LOC3")
        flags = classify(height_filtration(poset))
        assert flags == {"intermediate": True, "slice": True, "truncated_slice": True}

    def test_loc2_single_level_neither(self):
        poset = preset("LOC2")
        flags = classify(validate_filtration(poset, [{"m"}]))
        assert not flags["slice"] and not flags["truncated_slice"]

    def test_loc2_two_level_slice(self):
        poset = preset("LOC2")
        levels = [{"p1", "p2", "p3", "p4", "p5", "m"}, {"m"}]
        flags = classify(validate_filtration(poset, levels))
        assert flags["slice"] and flags["truncated_slice"]

    def test_truncated_but_not_slice(self):
        poset = preset("LOC2")
        flags = classify(validate_filtration(poset, [{"p1", "p2", "p3", "p4", "p5", "m"}]))
        assert flags["truncated_slice"] and not flags["slice"]

    def test_slice_implies_truncated_random(self, rng):
        for _ in range(50):
            poset = poset_from_order(random_order(rng))
            filt = f_to_filtration(poset, random_monotone_f(rng, poset.base))
            flags = classify(filt)
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
        assert classify(height_filtration(poset))["slice"]


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
