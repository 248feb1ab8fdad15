"""Intermediate filtrations by specialisation-closed subsets.

A filtration is a descending chain V_0 >= V_1 >= ... >= V_{n-1} of upper
sets of the inclusion order, with the implicit conventions V_{-1} = all
primes and V_n = empty.  Filtrations are stored in normal form: leading
levels equal to the whole spectrum and trailing empty levels are stripped
(they only shift the indexing), so V_0 is proper and V_{n-1} nonempty.

Equivalently a filtration is its level function f, where f(p) is the last
index at which p still belongs to a level; the two encodings convert back
and forth losslessly on normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import and_, invert, or_
from typing import Iterable, Mapping

from .poset import GspecError, InvalidArgument, Order, bits, covering_pairs, derived, select
from .spectra import PrimePoset, SchemaError


# The most levels a level function may span, unless the poset has more
# points: each level is one mutation step, and the chain's cost grows with
# their number.  Height and codimension functions of a connected poset span
# fewer levels than it has points.
MAX_LEVELS = 1000


class NotSpecializationClosed(GspecError):
    def __init__(self, index: int):
        super().__init__(f"level {index} is not specialisation-closed")
        self.index = index


class NotDescending(GspecError):
    def __init__(self, index: int):
        super().__init__(f"level {index} is not contained in level {index - 1}")
        self.index = index


class NotCodimensionFunction(GspecError):
    def __init__(self, cover: tuple[str, str]):
        super().__init__(
            f"cover {cover[0]!r} < {cover[1]!r} does not raise the value by exactly one"
        )
        self.cover = cover


@dataclass(frozen=True)
class SpFiltration:
    """Normal-form descending chain of specialisation-closed subsets, each a
    mask over the points of ``base``, the inclusion order.  The facts the
    chain and the reports read are derived from the levels on first read."""

    base: Order
    levels: tuple[int, ...]

    @property
    def elements(self) -> tuple[str, ...]:
        return self.base.elements

    @property
    def n(self) -> int:
        return len(self.levels)

    @derived
    def strata(self) -> tuple[int, ...]:
        """V_(i-1) minus V_i for i = 0..n, with V_(-1) all points and V_n empty."""
        return tuple(map(and_, (self.base.full_mask, *self.levels), map(invert, (*self.levels, 0))))

    @derived
    def level_of(self) -> tuple[int, ...]:
        """The level function by point index: a point of stratum i + 1 is
        last in V_i, so each point is read once."""
        f = [-1] * len(self.elements)
        for i, stratum in enumerate(self.strata[1:]):
            for j in bits(stratum):
                f[j] = i
        return tuple(f)

    @derived
    def stratum_pass(self) -> tuple[bool, tuple[int, ...]]:
        """The inclusion-maxima of strata 0..n-1, all but the last level,
        read once (the strata are disjoint).  They give whether each is an
        antichain (the truncated-slice test) and, per step 0..n of the chain,
        the mask of the points known to be maximal in the order that step
        produces: the inclusion-maximal primes and the maxima of the strata
        cut out by this and the earlier steps."""
        base, strata = self.base, self.strata[:-1]
        maxima = tuple(map(base.maximal, strata))
        forced = accumulate(maxima, or_, initial=base.maximal(base.full_mask))
        return maxima == strata, tuple(forced)


def validate_filtration(poset: PrimePoset, levels: Iterable[Iterable[str]]) -> SpFiltration:
    """Check and normalise a chain of sets of names into an :class:`SpFiltration`.

    Raises :class:`InvalidArgument` for a level given as one string or past
    the first ``max(MAX_LEVELS, points)``, and :class:`UnknownElement` for a
    stranger, level by level, then :class:`NotSpecializationClosed` or
    :class:`NotDescending` with the offending index.  Explicit full or empty
    levels are stripped silently, so a chain of k levels lost ``k - n`` of them.
    """
    base = poset.base
    bound = max(MAX_LEVELS, len(base.elements))
    masks = []
    for i, level in enumerate(levels):
        if i == bound:
            raise InvalidArgument(f"more than the bound of {bound} levels given")
        if isinstance(level, str):
            raise InvalidArgument(f"level {i} is a string, not a collection of point names")
        masks.append(base.mask(level))
    for i, level in enumerate(masks):
        if not base.is_upper_set(level):
            raise NotSpecializationClosed(i)
    for i in range(1, len(masks)):
        if masks[i] & ~masks[i - 1]:
            raise NotDescending(i)
    start = 0
    while start < len(masks) and masks[start] == base.full_mask:
        start += 1
    stop = len(masks)
    while stop > start and not masks[stop - 1]:
        stop -= 1
    return SpFiltration(base, tuple(masks[start:stop]))


def filtration_to_f(filt: SpFiltration) -> dict[str, int]:
    """Level function: f(p) = max index i with p in V_i (so -1 off V_0)."""
    return dict(zip(filt.elements, filt.level_of))


def f_to_filtration(poset: PrimePoset, f: Mapping[str, int]) -> SpFiltration:
    """Levels V_i = {p : f(p) >= i}, normalised.

    Shifted inputs (constant added to f) normalise to the same filtration:
    the levels run from the first one that can be proper, min f + 1, to the
    last nonempty one, max f.  Every other filtration source is a level
    function and comes through here.  A point without a value raises
    :class:`SchemaError`, and a span max f - min f above both
    :data:`MAX_LEVELS` and the number of points raises
    :class:`InvalidArgument` before any level is built.  Repeated levels are
    kept: a repeated step can change the result.  Every level is open
    exactly when f never drops along a cover, and a drop along p < q first
    breaks the level at index f(q) - min f, which
    :class:`NotSpecializationClosed` names.
    """
    base = poset.base
    _require_every_point(base.elements, f)
    values = [f[p] for p in base.elements] or [-1]
    low, high = min(values), max(values)
    bound = max(MAX_LEVELS, len(base.elements))
    if high - low > bound:
        raise InvalidArgument(
            f"level function spans {high - low} levels, above the bound of {bound}")
    buckets = [0] * (high - low + 1)  # at v - min f: the points with f = v
    for k, x in enumerate(values):
        buckets[x - low] |= 1 << k
    at_least = list(accumulate(reversed(buckets), or_))[::-1]  # {p : f(p) >= v}
    drops = [fq for cover, fp in zip(base.covers, values)
             if (lower := cover & ~at_least[fp - low]) for fq in select(values, lower)]
    if drops:
        raise NotSpecializationClosed(min(drops) - low)
    return SpFiltration(base, tuple(at_least[1:]))


def _require_every_point(elements: tuple[str, ...], f: Mapping[str, int]) -> None:
    missing = set(elements) - set(f)
    if missing:
        raise SchemaError(f"level function missing {sorted(missing)}")


def classify(filt: SpFiltration) -> dict[str, bool]:
    """Slice / truncated-slice flags.

    Truncated-slice means every stratum before the last level is an
    antichain for inclusion; slice additionally requires the last level to
    be an antichain.
    """
    truncated = filt.stratum_pass[0]
    is_slice = truncated and filt.base.is_discrete(filt.strata[-1])
    return {"intermediate": True, "slice": is_slice, "truncated_slice": truncated}


def height_filtration(poset: PrimePoset) -> SpFiltration:
    """Levels V_i = {p : height(p) > i}; a slice filtration when height is a
    codimension function on the model."""
    return f_to_filtration(poset, {p: h - 1 for p, h in poset.height.items()})


def codim_filtration(poset: PrimePoset, d: Mapping[str, int]) -> SpFiltration:
    """Levels V_i = {p : d(p) > i} for a codimension function d.

    d must raise by exactly one along every covering relation; adding a
    constant to d does not change the normalised result.  A point without
    a value raises :class:`SchemaError` before any cover is read.
    """
    _require_every_point(poset.base.elements, d)
    # Scan covers from the bottom of the poset up so the first offender is
    # the lowest one.
    covers = sorted(covering_pairs(poset.base), key=lambda c: (poset.height[c[0]], c))
    for p, q in covers:
        if d[q] != d[p] + 1:
            raise NotCodimensionFunction((p, q))
    return f_to_filtration(poset, {p: d[p] - 1 for p in poset.base.elements})
