"""Prime-poset models of a prime spectrum with height and coherence data.

A :class:`PrimePoset` is a finite poset standing in for ``Spec(R)`` with the
inclusion order, a stored height for every prime, and optional coherence
annotations.  Heights are stored rather than recomputed so that non-catenary
rings, where height is not a codimension function, can be modelled.

Coherence of the complement of a specialisation-closed set is a property of
the ring, not of its poset of primes (two rings with homeomorphic spectra
can disagree), so beyond a handful of provable rules the oracle defers to
per-interval annotations supplied with the model.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_

from .poset import (
    GspecError,
    InvalidArgument,
    Order,
    bits,
    build_order,
    derived,
    select,
)

COHERENT = "coherent"
NOT_COHERENT = "not-coherent"
UNDETERMINED = "undetermined"


class SchemaError(GspecError):
    """The input document does not match the expected JSON shape."""


class AnnotationKeyError(GspecError):
    """A coherence annotation key is not a valid interval/upper-set pair."""


class NotComparable(GspecError):
    """Interval endpoints p, q with p not contained in q."""


class UnknownPreset(GspecError):
    pass


@dataclass(frozen=True)
class CoherenceVerdict:
    verdict: str  # COHERENT | NOT_COHERENT | UNDETERMINED
    reason: str


# Verdicts are immutable, so the oracle hands out one shared instance each.
_TRIVIAL = CoherenceVerdict(COHERENT, "trivial")
_DIMENSION_ONE = CoherenceVerdict(COHERENT, "dimension-one")
_GENERIC_COMPLEMENT = CoherenceVerdict(COHERENT, "generic-complement")
_DEEP_MINIMAL = CoherenceVerdict(NOT_COHERENT, "deep-minimal")
_ANNOTATED_COHERENT = CoherenceVerdict(COHERENT, "annotation")
_ANNOTATED_NOT_COHERENT = CoherenceVerdict(NOT_COHERENT, "annotation")
_NO_RULE = CoherenceVerdict(UNDETERMINED, "no-rule")

AnnotationKey = tuple[str, str, frozenset[str]]


@dataclass(frozen=True, eq=True)
class PrimePoset:
    """Finite model of a prime spectrum.

    ``base`` carries the inclusion order, ``height`` the stored heights, and
    ``coherence`` maps an interval key ``(p, q, W)`` to whether the
    complement of the upper set ``W`` is coherent inside the interval
    ``[p, q]``.  The same annotations are also kept keyed by point indices
    and the mask of ``W``, which is what the oracle looks up.
    """

    base: Order
    height: Mapping[str, int] = field(hash=False)
    coherence: Mapping[AnnotationKey, bool] = field(hash=False)
    _annotation_masks: dict[tuple[int, int, int], bool] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        els = self.base.elements
        for p in els:
            if p not in self.height:
                raise SchemaError(f"missing height for {p!r}")
        heights = [self.height[p] for p in els]
        for i, m in enumerate(self.base.covers):  # ascending: sorted pairs
            for j in bits(m):
                if heights[j] <= heights[i]:
                    raise SchemaError(f"height not compatible with cover {els[i]!r} < {els[j]!r}")
        self._key_annotations()

    @classmethod
    def _derived(cls, base: Order, coherence: Mapping[AnnotationKey, bool]) -> "PrimePoset":
        """A poset with its order's own heights, the longest chain below each
        point, which pass the constructor's two height checks, so those are skipped."""
        poset = cls.__new__(cls)
        poset.__dict__.update(base=base, height=dict(zip(base.elements, base.heights)),
                              coherence=coherence)
        poset._key_annotations()
        return poset

    def _key_annotations(self) -> None:
        """Check every annotation key and keep the annotations by mask."""
        self.__dict__["_annotation_masks"] = {
            self._validate_annotation_key(p, q, W): known
            for (p, q, W), known in self.coherence.items()}

    def _validate_annotation_key(self, p: str, q: str, W: frozenset[str]) -> tuple[int, int, int]:
        """Check an annotation key; returns it as ``(i, j, W mask)``."""
        try:
            i, j, members = self._interval_ends(p, q)
        except NotComparable as exc:
            raise AnnotationKeyError(str(exc)) from None
        if not W <= self.base.names(members):
            raise AnnotationKeyError(
                f"annotation set {sorted(W)} not inside interval [{p!r}, {q!r}]"
            )
        w = self.base.mask(W)
        if any(self.base.up[r] & members & ~w for r in bits(w)):
            raise AnnotationKeyError(
                f"annotation set {sorted(W)} not specialisation-closed in "
                f"[{p!r}, {q!r}]"
            )
        return i, j, w

    def _interval_ends(self, p: str, q: str) -> tuple[int, int, int]:
        """Indices of ``p`` and ``q`` and the mask of the interval [p, q];
        :class:`NotComparable` unless p <= q."""
        i, j = self.base.index.get(p), self.base.index.get(q)
        if i is None or j is None or not self.base.up[i] >> j & 1:
            raise NotComparable(f"{p!r} not contained in {q!r}")
        return i, j, self.base.up[i] & self.base.down[j]

    @derived
    def _shallow(self) -> tuple[int, ...]:
        """Per point p, the mask of points of height below h(p) + 2: height buckets, ORed up."""
        heights = [self.height[p] for p in self.base.elements]
        buckets = dict.fromkeys(sorted(set(heights)), 0)
        for r, g in enumerate(heights):
            buckets[g] |= 1 << r
        upto = dict(zip(buckets, accumulate(buckets.values(), or_)))
        return tuple(upto.get(g + 1, upto[g]) for g in heights)

    def interval(self, p: str, q: str) -> "PrimePoset":
        """The sub-poset ``{r : p <= r <= q}`` with re-based heights.

        This models the spectrum of the local quotient ring at ``q`` modulo
        ``p``; the embedding of that spectrum is exactly this interval, and
        its subspace topology is the induced one.  Heights are shifted so the
        bottom of the interval sits at height zero, and annotations whose own
        interval nests inside ``[p, q]`` are carried along.
        """
        i, j, members = self._interval_ends(p, q)
        offset = self.height[p]
        heights = {r: self.height[r] - offset for r in sorted(self.base.names(members))}
        index, up = self.base.index, self.base.up
        kept = {
            key: value for key, value in self.coherence.items()
            if up[i] >> index[key[0]] & 1 and up[index[key[1]]] >> j & 1
        }
        return PrimePoset(self.base.subspace(members), heights, kept)

    def coherent_complement(self, p: str, q: str, V0: Iterable[str]) -> CoherenceVerdict:
        """Whether ``V0`` restricted to ``[p, q]`` has coherent complement: a
        trivial restriction, or the entry of q in :meth:`row_verdicts` of p.
        Raises, in this order, :class:`NotComparable` unless p <= q,
        :class:`UnknownElement` for a name of ``V0`` outside the poset and
        :class:`InvalidArgument` unless V0 is specialisation-closed."""
        i, j, members = self._interval_ends(p, q)
        v = self.base.mask(V0)
        if not self.base.is_upper_set(v):
            raise InvalidArgument(f"{sorted(self.base.names(v))} is not specialisation-closed")
        W = members & v
        if not W or W == members:
            return _TRIVIAL
        return next(verdict for verdict, m in self.row_verdicts(i, v) if m >> j & 1)

    def row_verdicts(self, i: int, v: int) -> tuple[tuple[CoherenceVerdict, int], ...]:
        """The oracle on every cross pair of row ``i``: the pairs p < q with
        p = point ``i`` outside the specialisation-closed V0 (mask ``v``) and
        q inside it.

        Returns one ``(verdict, mask)`` per rule below, the masks disjoint
        and together the cross pairs.  The rules, in order, on the
        restriction W of V0 to the interval ``[p, q]``, which is neither
        empty (it holds q) nor full (it misses p):

        1. the interval has Krull dimension at most one, so q covers p:
           every subset of such a spectrum is coherent;
        2. the complement is exactly the generic point of the interval, so
           q lies above no point outside V0 but p: localisation at the
           generic point is a perfect (flat) localisation, so the
           complement is coherent;
        3. some minimal element of W has re-based height at least two:
           violates the necessary height condition, not coherent;
        4. otherwise the question is ring-dependent: consult the
           annotations, else undetermined.
        """
        up = self.base.up
        cross = up[i] & v
        dimension_one = cross & self.base.covers[i]
        left = cross & ~dimension_one
        # Every point above p outside V0 lies above a cover of p outside V0,
        # as V0 is specialisation-closed.
        outside = 0
        for j in bits(self.base.covers[i] & ~v):
            outside |= up[j]
        generic = left & ~outside
        left &= outside
        # W = cross & down[q].  A deep minimal point of W (height >= h(p) + 2)
        # lies above no shallow point of W, and a point of W above no
        # shallow one lies above a deep minimal one; a point below q lies
        # above a shallow point of cross only if that point is in W too.
        deep = 0
        if left:
            reach = 0
            for t in select(up, cross & self._shallow[i]):
                reach |= t
            for t in select(up, cross & ~reach):
                deep |= t
            deep &= left
            left &= ~deep
        coherent = incoherent = 0  # annotated either way
        if self._annotation_masks and left:
            down = self.base.down
            for j in bits(left):
                known = self._annotation_masks.get((i, j, cross & down[j]))
                if known:
                    coherent |= 1 << j
                elif known is not None:
                    incoherent |= 1 << j
        no_rule = left & ~coherent & ~incoherent
        return ((_DIMENSION_ONE, dimension_one), (_GENERIC_COMPLEMENT, generic),
                (_DEEP_MINIMAL, deep), (_ANNOTATED_COHERENT, coherent),
                (_ANNOTATED_NOT_COHERENT, incoherent), (_NO_RULE, no_rule))


def load_prime_poset(document: Mapping) -> PrimePoset:
    """Build a validated :class:`PrimePoset` from a parsed JSON document.

    Anything but a mapping raises :class:`SchemaError`.  Expected shape::

        {
          "elements": [str],
          "covers": [[str, str]],
          "heights": {str: int},                      # optional
          "coherence": [{"p": str, "q": str,
                         "W": [str], "coherent": bool}]  # optional
        }

    Heights default to longest-chain-below when omitted.
    """
    if not isinstance(document, Mapping):
        raise SchemaError("document must be a JSON object")
    unknown = set(document) - {"elements", "covers", "heights", "coherence"}
    if unknown:
        raise SchemaError(f"unexpected keys: {sorted(unknown)}")

    elements = document.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError("'elements' must be a list of strings")
    if len(set(elements)) < len(elements):
        seen: set[str] = set()
        repeated = next(e for e in elements if e in seen or seen.add(e))
        raise SchemaError(f"element {repeated!r} is listed more than once")
    covers = document.get("covers", [])
    if not isinstance(covers, list) or not all(
        isinstance(c, (list, tuple)) and len(c) == 2
        and isinstance(c[0], str) and isinstance(c[1], str)
        for c in covers
    ):
        raise SchemaError("'covers' must be a list of [string, string] pairs")

    base = build_order(elements, covers)

    heights = document.get("heights")
    if heights is not None:
        if not isinstance(heights, Mapping) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in heights.items()
        ):
            raise SchemaError("'heights' must map element names to integers")
        missing = set(base.elements) - set(heights)
        if missing:
            raise SchemaError(f"heights missing for {sorted(missing)}")
        strangers = set(heights) - set(base.elements)
        if strangers:
            raise SchemaError(f"heights given for {sorted(strangers)}, which are not elements")
        if any(v < 0 for v in heights.values()):
            raise SchemaError("heights must be non-negative")
        height_map = {e: heights[e] for e in base.elements}

    annotations: dict[AnnotationKey, bool] = {}
    coherence = document.get("coherence", [])
    if not isinstance(coherence, list):
        raise SchemaError("'coherence' must be a list of entries")
    for entry in coherence:
        if not isinstance(entry, Mapping) or set(entry) != {"p", "q", "W", "coherent"}:
            raise SchemaError(
                "coherence entries must have exactly the keys p, q, W, coherent"
            )
        if not isinstance(entry["p"], str) or not isinstance(entry["q"], str):
            raise SchemaError("'p' and 'q' must be strings")
        if not isinstance(entry["coherent"], bool):
            raise SchemaError("'coherent' must be a boolean")
        W = entry["W"]
        if not isinstance(W, list) or not all(isinstance(x, str) for x in W):
            raise SchemaError("'W' must be a list of strings")
        key = (entry["p"], entry["q"], frozenset(W))
        if key in annotations:
            raise SchemaError(
                f"coherence given twice for p={key[0]!r}, q={key[1]!r}, W={sorted(key[2])}"
            )
        annotations[key] = entry["coherent"]

    return (PrimePoset._derived(base, annotations) if heights is None
            else PrimePoset(base, height_map, annotations))


def _diamond_document(coherent: bool) -> dict:
    return {
        "elements": ["o", "a", "b", "m"],
        "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
        "heights": {"o": 0, "a": 1, "b": 1, "m": 2},
        "coherence": [{"p": "o", "q": "m", "W": ["a", "m"], "coherent": coherent}],
    }


_PRESET_DOCUMENTS: dict[str, dict] = {
    # Discrete valuation ring: the smallest chain.
    "DVR1": {
        "elements": ["o", "m"],
        "covers": [["o", "m"]],
    },
    # Two-dimensional local domain, five height-one primes shown.
    "LOC2": {
        "elements": ["o", "p1", "p2", "p3", "p4", "p5", "m"],
        "covers": [["o", "p1"], ["o", "p2"], ["o", "p3"], ["o", "p4"], ["o", "p5"],
                   ["p1", "m"], ["p2", "m"], ["p3", "m"], ["p4", "m"], ["p5", "m"]],
    },
    # Two-dimensional local ring with three minimal primes; the height-one
    # level sits in two overlapping quadrilaterals over the minimal level.
    "LOC2M": {
        "elements": ["r-1", "r0", "r1", "q-2", "q-1", "q1", "q2", "m"],
        "covers": [["r-1", "q-2"], ["r0", "q-2"],
                   ["r-1", "q-1"], ["r0", "q-1"],
                   ["r0", "q1"], ["r1", "q1"],
                   ["r0", "q2"], ["r1", "q2"],
                   ["q-2", "m"], ["q-1", "m"], ["q1", "m"], ["q2", "m"]],
    },
    # Three-dimensional local domain; height-one and height-two levels form
    # a cyclic band (each height-two prime above two height-one primes).
    "LOC3": {
        "elements": ["o", "q1", "q2", "q3", "r1", "r2", "r3", "m"],
        "covers": [["o", "q1"], ["o", "q2"], ["o", "q3"],
                   ["q1", "r1"], ["q2", "r1"],
                   ["q2", "r2"], ["q3", "r2"],
                   ["q3", "r3"], ["q1", "r3"],
                   ["r1", "m"], ["r2", "m"], ["r3", "m"]],
    },
    # Two homeomorphic diamonds that disagree about coherence of the
    # complement of the closure of the height-one prime "a": the polynomial
    # model declares it coherent, the Nagata-style model does not.
    "POLY2": _diamond_document(coherent=True),
    "NAGATA2": _diamond_document(coherent=False),
}
PRESET_NAMES = tuple(_PRESET_DOCUMENTS)


def preset(name: str) -> PrimePoset:
    """One of the built-in example spectra; see :data:`PRESET_NAMES`."""
    try:
        document = _PRESET_DOCUMENTS[name]
    except KeyError:
        raise UnknownPreset(
            f"{name!r} is not a preset (choose from {', '.join(PRESET_NAMES)})"
        ) from None
    return load_prime_poset(document)
