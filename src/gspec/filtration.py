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
from typing import Iterable, Mapping

from .poset import GspecError, bits, covering_pairs
from .spectra import PrimePoset, SchemaError


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
    mask over ``elements`` (the base order's sorted points)."""

    elements: tuple[str, ...]
    levels: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> int:
        """V_i with the implicit conventions for i outside 0..n-1."""
        if i < 0:
            return (1 << len(self.elements)) - 1
        if i >= self.n:
            return 0
        return self.levels[i]

    def difference(self, i: int) -> int:
        """The stratum V_{i-1} minus V_i."""
        return self.level(i - 1) & ~self.level(i)


def validate_filtration(poset: PrimePoset, levels: Iterable[Iterable[str]]) -> SpFiltration:
    """Check and normalise a chain of sets of names into an :class:`SpFiltration`.

    Raises :class:`UnknownElement` for a stranger, then
    :class:`NotSpecializationClosed` or :class:`NotDescending` with the
    offending index.  Explicit full or empty levels are stripped silently,
    so a chain of k levels lost ``k - n`` of them.
    """
    return _normal_form(poset, [poset.base.mask(level) for level in levels])


def _normal_form(poset: PrimePoset, chain: list[int]) -> SpFiltration:
    """Check level masks; strip leading full and trailing empty levels."""
    base = poset.base
    for i, level in enumerate(chain):
        if not base.is_upper_set(level):
            raise NotSpecializationClosed(i)
    for i in range(1, len(chain)):
        if chain[i] & ~chain[i - 1]:
            raise NotDescending(i)
    start = 0
    while start < len(chain) and chain[start] == base.full_mask:
        start += 1
    stop = len(chain)
    while stop > start and not chain[stop - 1]:
        stop -= 1
    return SpFiltration(base.elements, tuple(chain[start:stop]))


def filtration_to_f(filt: SpFiltration) -> dict[str, int]:
    """Level function: f(p) = max index i with p in V_i (so -1 off V_0)."""
    f = {p: -1 for p in filt.elements}
    for i, level in enumerate(filt.levels):
        for j in bits(level):
            f[filt.elements[j]] = i
    return f


def f_to_filtration(poset: PrimePoset, f: Mapping[str, int]) -> SpFiltration:
    """Levels V_i = {p : f(p) >= i}, normalised.

    Shifted inputs (constant added to f) normalise to the same filtration:
    the levels run from the first one that can be proper, min f + 1, to the
    last nonempty one, max f.  Every other filtration source is a level
    function and comes through here.  A point without a value raises
    :class:`SchemaError`.
    """
    elements = poset.base.elements
    _require_every_point(elements, f)
    values = [f[p] for p in elements] or [-1]
    return _normal_form(poset, [sum(1 << k for k, x in enumerate(values) if x >= i)
                                for i in range(min(0, min(values) + 1), max(values) + 1)])


def _require_every_point(elements: tuple[str, ...], f: Mapping[str, int]) -> None:
    missing = set(elements) - set(f)
    if missing:
        raise SchemaError(f"level function missing {sorted(missing)}")


def classify(poset: PrimePoset, filt: SpFiltration) -> dict[str, bool]:
    """Slice / truncated-slice flags.

    Truncated-slice means every stratum before the last level is an
    antichain for inclusion; slice additionally requires the last level to
    be an antichain.
    """
    base = poset.base
    truncated = all(base.is_discrete(filt.difference(i)) for i in range(filt.n))
    is_slice = truncated and base.is_discrete(filt.level(filt.n - 1))
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


def forced_maximal(poset: PrimePoset, filt: SpFiltration, step: int) -> int:
    """Mask of the points known to be maximal in the order produced by the
    given step of the chain: the inclusion-maxima of the strata cut out by
    this and the earlier steps, plus the inclusion-maximal primes."""
    base = poset.base
    forced = base.maximal(base.full_mask)
    for j in range(step):
        forced |= base.maximal(filt.difference(j))
    return forced
