"""Finite partial orders and their Alexandrov-topology calculus.

A finite T0 Alexandrov space *is* a finite poset: open sets are the upper
sets of the closure order, closed sets the lower sets.  Everything in this
module is exact and small enough to enumerate.  An order is stored as one
bitmask per point over the sorted point indices: the point's up-set, which
is its minimal open set.  Down-sets, the name index and the pair relation
are derived from the masks on first use.  Subsets of the points are masks
too: names become masks through :meth:`Order.mask` where they enter.

Points are opaque string identifiers.  All deterministic outputs sort
points lexicographically so that repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, NoReturn, Sequence

DEFAULT_ENUMERATION_BOUND = 16


class GspecError(Exception):
    """Base class of the errors gspec raises for bad input."""


class InvalidArgument(GspecError, ValueError):
    """An argument a library call rejects, such as masks that are not a partial order."""


class CycleError(InvalidArgument):
    """A relation holds between two distinct points both ways, so it is not
    antisymmetric (not T0)."""


class UnknownElement(GspecError):
    """A point name that does not belong to the order."""


class SizeExceeded(GspecError):
    """The order is too large for exhaustive closed-set enumeration."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, in index order; for masks
    within ``items``, the same as ``(items[j] for j in bits(mask))``."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


@dataclass(frozen=True)
class Order:
    """A finite partial order, stored as per-point up-set bitmasks.

    ``elements`` is the sorted tuple of point names; bit ``j`` of ``up[i]``
    is set exactly when ``elements[i] <= elements[j]``.  Instances are
    immutable; every derived object is a fresh value.  The constructor is
    the one check that the masks are a partial order: it raises
    :class:`CycleError` on a pair related both ways and
    :class:`InvalidArgument` on any other failure.  The same walk yields
    ``covers``, the transitive reduction: per point, the mask of the points
    covering it.
    """

    elements: tuple[str, ...]
    up: tuple[int, ...]
    covers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        els, up = self.elements, self.up
        if list(els) != sorted(set(els)):
            raise InvalidArgument("elements must be a sorted tuple of distinct names")
        if len(up) != len(els) or any(m >> len(els) for m in up):
            raise InvalidArgument("need one up-set mask per element, within the elements")
        # A row is a partial order's exactly when it is reflexive and its
        # members' strict up-sets reach nothing beyond its own (a stray bit at
        # the point is a cycle); what no member reaches covers the point.
        strict = [m & ~(1 << i) for i, m in enumerate(up)]
        covers = []
        for i, s in enumerate(strict):
            beyond = 0
            for t in select(strict, s):
                beyond |= t
            if beyond & ~s or s == up[i]:
                self._reject(i)
            covers.append(s & ~beyond)
        object.__setattr__(self, "covers", tuple(covers))

    def _reject(self, i: int) -> NoReturn:
        """Raise the error of point ``i``'s failing row, member by member."""
        els, up, m = self.elements, self.up, self.up[i]
        if not m >> i & 1:
            raise InvalidArgument(f"relation not reflexive at {els[i]!r}")
        for j in bits(m & ~(1 << i)):
            if up[j] >> i & 1:
                raise CycleError(f"{els[i]!r} and {els[j]!r} are related both ways")
            if up[j] & ~m:
                raise InvalidArgument("relation not transitively closed")
        raise AssertionError(f"row {i} rejected, but every member passed")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each point name in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Per-point down-set masks (closures of the points): each point's
        down-set is pushed up its covers, bottom first (by up-set size)."""
        up, covers = self.up, self.covers
        down = [1 << i for i in range(len(up))]
        for i in sorted(range(len(up)), key=lambda i: -up[i].bit_count()):
            for j in bits(covers[i]):
                down[j] |= down[i]
        return tuple(down)

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        """All pairs ``(p, q)`` with ``p <= q``: for output and pair-based checks."""
        els = self.elements
        return frozenset((els[i], els[j]) for i, m in enumerate(self.up) for j in bits(m))

    # -- masks --------------------------------------------------------------

    @property
    def full_mask(self) -> int:
        """Mask of every point."""
        return (1 << len(self.elements)) - 1

    def mask(self, subset: Iterable[str]) -> int:
        """Mask of a set of point names; :class:`UnknownElement` on a stranger."""
        m = 0
        for p in subset:
            m |= 1 << self._position(p)
        return m

    def names(self, mask: int) -> frozenset[str]:
        """Point names of a mask."""
        return frozenset(self.elements[i] for i in bits(mask))

    def _position(self, p: str) -> int:
        try:
            return self.index[p]
        except KeyError:
            raise UnknownElement(p) from None

    # -- point queries ----------------------------------------------------

    def leq(self, p: str, q: str) -> bool:
        return bool(self.up[self._position(p)] >> self._position(q) & 1)

    def spcl(self, p: str) -> frozenset[str]:
        """Smallest upper set containing ``p`` (its minimal open set)."""
        return self.names(self.up[self._position(p)])

    def gncl(self, p: str) -> frozenset[str]:
        """Smallest lower set containing ``p`` (the closure of ``{p}``)."""
        return self.names(self.down[self._position(p)])

    # -- subset queries (masks) --------------------------------------------

    def is_upper_set(self, S: int) -> bool:
        return not any(self.up[i] & ~S for i in bits(S))

    def is_lower_set(self, S: int) -> bool:
        """A set is lower exactly when nothing outside it lies below a member."""
        return not any(self.up[i] & S for i in bits(self.full_mask & ~S))

    def subspace(self, S: int) -> "Order":
        """Restriction of the order to the points of ``S``.

        For Alexandrov spaces this is exactly the subspace-topology order.
        """
        kept = list(bits(S))
        position = {old: new for new, old in enumerate(kept)}
        return Order(
            tuple(self.elements[i] for i in kept),
            tuple(sum(1 << position[j] for j in bits(self.up[i] & S)) for i in kept),
        )

    def refines(self, other: "Order") -> bool:
        """Every relation of this order holds in ``other``, on the same points."""
        return self.elements == other.elements and not any(
            a & ~b for a, b in zip(self.up, other.up)
        )

    # -- structure ---------------------------------------------------------

    def maximal(self, S: int) -> int:
        """Mask of the points of ``S`` with nothing of ``S`` strictly above."""
        return sum(1 << i for i in bits(S) if self.up[i] & S == 1 << i)

    def is_discrete(self, S: int) -> bool:
        """No two points of ``S`` are comparable."""
        return self.maximal(S) == S


def transitive_closure(up: Sequence[int]) -> tuple[int, ...]:
    """Close per-point successor masks under transitivity (Warshall, 1962)."""
    up = list(up)
    for k in range(len(up)):
        bit, through = 1 << k, up[k]
        for i, m in enumerate(up):
            if m & bit:
                up[i] = m | through
    return tuple(up)


def build_order(elements: Iterable[str], relations: Iterable[tuple[str, str]]) -> Order:
    """Reflexive-transitive closure of generating relations.

    Raises :class:`UnknownElement` if a generator mentions a name outside
    ``elements``.  The closure is reflexive and transitive, so the
    constructor can only reject it for antisymmetry, with
    :class:`CycleError`.
    """
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    up = [1 << i for i in range(len(els))]
    for a, b in relations:
        for p in (a, b):
            if p not in index:
                raise UnknownElement(f"{p!r} is not one of the elements")
        up[index[a]] |= 1 << index[b]
    return Order(els, transitive_closure(up))


def covering_pairs(order: Order) -> tuple[tuple[str, str], ...]:
    """The Hasse diagram edges as name pairs, sorted: ascending indices give
    sorted pairs because the elements are sorted."""
    els = order.elements
    return tuple((p, q) for p, m in zip(els, order.covers) for q in select(els, m))


def longest_chain(order: Order) -> int:
    """Length (edge count) of a longest chain; -1 for the empty order."""
    return max(heights_by_longest_chain(order).values(), default=-1)


@dataclass(frozen=True)
class CbFiltration:
    """Cantor-Bendixson filtration of a finite T0 Alexandrov space.

    ``layers`` is the strictly increasing chain of masks X_0 < X_1 < ...
    ending at the full mask.
    """

    layers: tuple[int, ...]

    @property
    def rank(self) -> int:
        """The number of steps to stabilise; the empty space (whose chain
        starts at the empty set and is already stable) has rank -1."""
        return len(self.layers) - 1


def cb_filtration(order: Order) -> CbFiltration:
    """Iteratively adjoin the isolated points of the complement.

    In a finite T0 Alexandrov space the isolated points of a subspace are
    exactly its maximal elements, so each layer adds the maxima of what is
    left."""
    layers: list[int] = []
    accumulated = 0
    while accumulated != order.full_mask:
        accumulated |= order.maximal(order.full_mask & ~accumulated)
        layers.append(accumulated)
    return CbFiltration(tuple(layers))


@dataclass(frozen=True)
class AxiomReport:
    """Which separation axioms hold, with the witnessing data.

    ``irreducibles`` pairs every irreducible closed set with the unique point
    whose closure it is.
    """

    t0: bool
    sober: bool
    irreducibles: tuple[tuple[frozenset[str], str], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def is_t0(order: Order) -> bool:
    """Distinct points have distinct closures: no other point lies both
    above and below a point.  Polynomial, unlike soberness."""
    return all(u & d == 1 << i for i, (u, d) in enumerate(zip(order.up, order.down)))


def check_axioms(order: Order) -> AxiomReport:
    """Check T0 and soberness.

    Soberness is decided by the unique-maximal-element criterion: a closed
    set is irreducible exactly when it has a single maximal point, and it
    must then be the closure of that point.
    """
    failures: list[str] = []
    t0 = is_t0(order)
    if not t0:
        failures.append("t0")

    # A point outside a set never passes the test, so no member scan is needed.
    points = [(u, 1 << i) for i, u in enumerate(order.up)]
    irreducibles: list[tuple[frozenset[str], str]] = []
    reducible: list[frozenset[str]] = []
    for closed in closed_masks(order):
        maxima = [bit for u, bit in points if u & closed == bit]
        if len(maxima) == 1:
            point = maxima[0].bit_length() - 1
            if closed == order.down[point]:
                irreducibles.append((order.names(closed), order.elements[point]))
            else:
                reducible.append(order.names(closed))
    irreducibles.sort(key=lambda pair: _by_size_then_names(pair[0]))
    reducible.sort(key=_by_size_then_names)
    failures.extend(f"sober:{sorted(closed)}" for closed in reducible)

    return AxiomReport(
        t0=t0,
        sober=not reducible,
        irreducibles=tuple(irreducibles),
        failures=tuple(failures),
    )


def closed_masks(order: Order) -> list[int]:
    """Every lower set as a mask, in no particular order;
    :class:`SizeExceeded` above ``DEFAULT_ENUMERATION_BOUND`` points.

    The points are taken in a linear extension (by down-set size, so each
    point comes after everything below it).  Each lower set found so far
    branches on the next point: it is kept without the point, and also
    with it when it already holds everything below the point.  Every lower
    set is reached exactly once, so the cost follows the number of lower
    sets rather than 2^n (Habib, Medina, Nourine and Steiner, "Efficient
    algorithms on distributive lattices", DAM 2001).
    """
    n = len(order.elements)
    if n > DEFAULT_ENUMERATION_BOUND:
        raise SizeExceeded(f"{n} elements exceeds enumeration bound {DEFAULT_ENUMERATION_BOUND}")
    down = order.down
    found = [0]
    for i in sorted(range(n), key=lambda i: down[i].bit_count()):
        bit = 1 << i
        below = down[i] & ~bit
        found += [m | bit for m in found if m & below == below]
    return found


def _by_size_then_names(subset: frozenset[str]) -> tuple[int, list[str]]:
    return len(subset), sorted(subset)


def enumerate_closed_sets(order: Order) -> tuple[frozenset[str], ...]:
    """All lower sets, sorted by size then lexicographically by members;
    :class:`SizeExceeded` above ``DEFAULT_ENUMERATION_BOUND`` points."""
    return tuple(sorted(map(order.names, closed_masks(order)), key=_by_size_then_names))


def heights_by_longest_chain(order: Order) -> dict[str, int]:
    """Height of each point as the longest chain strictly below it: a
    longest chain climbs by covers, so heights are pushed along them."""
    up, covers = order.up, order.covers
    height = [0] * len(up)
    # Everything strictly below a point has a larger up-set, so the point's
    # height is final before it is pushed on.
    for i in sorted(range(len(up)), key=lambda i: -up[i].bit_count()):
        for j in bits(covers[i]):
            height[j] = max(height[j], height[i] + 1)
    return dict(zip(order.elements, height))
