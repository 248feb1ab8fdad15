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
from functools import cache
from itertools import accumulate, compress
from operator import and_, or_
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


def _within_bound(n: int) -> None:
    """:class:`SizeExceeded` when n points are above ``DEFAULT_ENUMERATION_BOUND``."""
    if n > DEFAULT_ENUMERATION_BOUND:
        raise SizeExceeded(f"{n} elements exceeds enumeration bound {DEFAULT_ENUMERATION_BOUND}")


class derived:
    """A property computed on its first read and kept in the instance
    ``__dict__``, which shadows this non-data descriptor from then on.  Unlike
    :class:`functools.cached_property` on CPython 3.10 and 3.11, it takes no
    lock; ``func`` is the function it reads through."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


_BYTE = tuple(tuple(j for j in range(8) if m >> j & 1) for m in range(256))
_HIGH = tuple(tuple(j + 8 for j in row) for row in _BYTE)


def bits(mask: int) -> Sequence[int]:
    """Indices of the set bits of ``mask``, ascending: below 2^16 a tuple
    looked up per byte, above it a list found lowest bit first."""
    if mask < 256:
        return _BYTE[mask]
    if mask < 65536:
        return _BYTE[mask & 255] + _HIGH[mask >> 8]
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


@cache
def holding(n: int) -> tuple[int, ...]:
    """Per point b of n, the family of the subsets of the n points that hold
    b, as one integer: bit S is set exactly when S holds b.  Its pattern,
    2^b sets without b then 2^b with it, is doubled out to 2^n bits, so
    :class:`SizeExceeded` above ``DEFAULT_ENUMERATION_BOUND`` points."""
    _within_bound(n)
    table = []
    for b in range(n):
        width = 2 << b
        family = (1 << width) - (1 << (1 << b))
        while width < 1 << n:
            family |= family << width
            width <<= 1
        table.append(family)
    return tuple(table)


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def select(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of a mask within ``items``, in index order:
    read through :func:`bits` below 2^16, above it compressed by bit flags."""
    if mask < 65536:
        return map(items.__getitem__, bits(mask))
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def _walk(up: Sequence[int], rows: Iterable[int],
          covers: Sequence[int]) -> tuple[int, ...] | None:
    """``covers`` with each listed row's covers in ``up`` in its place, or
    None when a listed row is not a partial order's: one is exactly when it
    is reflexive and its members' strict up-sets reach nothing beyond its own
    (a stray bit at the point is a cycle).  What no member reaches covers it."""
    strict = [m & ~(1 << i) for i, m in enumerate(up)]
    covers = list(covers)
    for i in rows:
        s, beyond = strict[i], 0
        for t in select(strict, s):
            beyond |= t
        if beyond & ~s or s == up[i]:
            return None
        covers[i] = s & ~beyond
    return tuple(covers)


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
    covering it.  Every order is built with ``_bottom_up``, its points in a
    linear extension, each after everything below it: the constructor sorts
    them by up-set size, largest first (what is below a point has a larger
    one), and every other order is handed one.

    Every order is T0, as the constructor rejects a pair related both ways,
    and sober, as a finite lower set with a single maximal point is that
    point's closure.
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
        covers = _walk(up, range(len(up)), up)  # every row walked, none kept
        if covers is None:
            self._reject()
        self.__dict__.update(covers=covers, _bottom_up=tuple(
            sorted(range(len(up)), key=lambda i: -up[i].bit_count())))

    @classmethod
    def _derived(cls, elements: tuple[str, ...], up: tuple[int, ...],
                 covers: tuple[int, ...], bottom_up: tuple[int, ...]) -> "Order":
        """An order whose masks and covers the caller derived from an order
        already checked, so the constructor's walk is skipped: the masks
        must be a partial order on ``elements``, ``covers`` its transitive
        reduction and ``bottom_up`` a linear extension of it.  An order
        that only removes relations from another keeps its linear extension."""
        order = cls.__new__(cls)
        order.__dict__.update(elements=elements, up=up, covers=covers, _bottom_up=bottom_up)
        return order

    def _with_rows(self, up: tuple[int, ...], rows: Iterable[int]) -> "Order | None":
        """The order of the masks ``up`` on these points, walking the listed
        rows; every other row must keep its covers here.  None when a listed
        row is not a partial order's; this order itself when ``up`` is its
        masks.  ``up`` may only remove relations from this order, whose
        linear extension is then handed on."""
        if up == self.up:
            return self
        covers = _walk(up, rows, self.covers)
        return None if covers is None else Order._derived(self.elements, up, covers,
                                                          self._bottom_up)

    def _split(self, e: int) -> "Order":
        """Keep the relations inside E and inside its complement, drop the
        ones that cross: at a closed E the perfect rule, the discrete rule
        when E is discrete, and the lower bound of the general bracket.

        E must be closed, and then this is the whole split: no row outside a
        lower set reaches into it, so only the rows of E that reach outside
        it are cut, masked by E with their covers (a lower set and its
        complement are convex), and every other row is the parent's row
        object.  This order itself when no row is cut."""
        up, outside = self.up, ~e
        cut = [i for i in select(range(len(up)), e) if up[i] & outside]
        if not cut:
            return self
        up, covers = list(up), list(self.covers)
        for i in cut:
            up[i] &= e
            covers[i] &= e
        return Order._derived(self.elements, tuple(up), tuple(covers), self._bottom_up)

    def _reject(self) -> NoReturn:
        """Raise the error of the first failing row, member by member."""
        els, up = self.elements, self.up
        for i, m in enumerate(up):
            if not m >> i & 1:
                raise InvalidArgument(f"relation not reflexive at {els[i]!r}")
            for j in bits(m & ~(1 << i)):
                if up[j] >> i & 1:
                    raise CycleError(f"{els[i]!r} and {els[j]!r} are related both ways")
                if up[j] & ~m:
                    raise InvalidArgument("relation not transitively closed")
        raise AssertionError("a row was rejected, but every member passed")

    @derived
    def index(self) -> dict[str, int]:
        """Position of each point name in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @derived
    def down(self) -> tuple[int, ...]:
        """Per-point down-set masks (closures of the points): each point's
        down-set is pushed up its covers, bottom first."""
        covers = self.covers
        down = [1 << i for i in range(len(covers))]
        for i in self._bottom_up:
            for j in bits(covers[i]):
                down[j] |= down[i]
        return tuple(down)

    @derived
    def heights(self) -> tuple[int, ...]:
        """Per-point heights, the longest chain strictly below each point: a
        longest chain climbs by covers, so heights are pushed along them,
        bottom first, each final before it is pushed on."""
        covers = self.covers
        height = [0] * len(covers)
        for i in self._bottom_up:
            for j in bits(covers[i]):
                height[j] = max(height[j], height[i] + 1)
        return tuple(height)

    @derived
    def closed_family(self) -> int:
        """Every lower set as one integer whose bit S is set exactly when the
        set with mask S is lower; :class:`SizeExceeded` above
        ``DEFAULT_ENUMERATION_BOUND`` points.

        The points are taken in a linear extension, each after everything
        below it.  The sets found so far that hold every point the next one
        covers hold everything below it, so they take the point too: the
        family is masked by the :func:`holding` families of those points,
        ANDed together as each is taken, and the result shifted left by the
        point's bit is ORed in.  Each lower set is reached once, as in
        Habib, Medina, Nourine and Steiner, "Efficient algorithms on
        distributive lattices" (DAM 2001), but a step is a few whole-family
        integer operations.
        """
        holds, covers = holding(len(self.elements)), self.covers
        needs = [-1] * len(covers)  # per point, the sets holding each point it covers
        family = 1
        for i in self._bottom_up:
            family |= (family & needs[i]) << (1 << i)
            for j in bits(covers[i]):
                needs[j] &= holds[i]
        return family

    @derived
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
            try:
                m |= 1 << self.index[p]
            except KeyError:
                raise UnknownElement(p) from None
        return m

    def names(self, mask: int) -> frozenset[str]:
        """Point names of a mask."""
        return frozenset(self.elements[i] for i in bits(mask))

    # -- subset queries (masks) --------------------------------------------

    def is_upper_set(self, S: int) -> bool:
        return not any(self.up[i] & ~S for i in bits(S))

    def is_lower_set(self, S: int) -> bool:
        """A set is closed exactly when its complement is open."""
        return self.is_upper_set(self.full_mask & ~S)

    def subspace(self, S: int) -> "Order":
        """Restriction of the order to the points of ``S``.

        For Alexandrov spaces this is exactly the subspace-topology order.
        """
        kept = bits(S)
        position = {old: new for new, old in enumerate(kept)}
        return Order(
            tuple(self.elements[i] for i in kept),
            tuple(sum(1 << position[j] for j in bits(self.up[i] & S)) for i in kept),
        )

    def refines(self, other: "Order") -> bool:
        """Every relation of this order holds in ``other``, on the same points."""
        return self.elements == other.elements and tuple(
            map(and_, self.up, other.up)) == self.up

    # -- structure ---------------------------------------------------------

    def maximal(self, S: int) -> int:
        """Mask of the points of ``S`` with nothing of ``S`` strictly above."""
        up, top = self.up, 0
        for i in bits(S):
            if up[i] & S == 1 << i:
                top |= 1 << i
        return top

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
    ``elements``.  The rows are closed in reverse topological order (Kahn,
    CACM 1962): a point's row is itself and the closed rows of its
    generators, and its covers are the generators no other generator's row
    reaches.  The order is handed the Kahn order reversed, its linear
    extension, and caches the heights pushed up the generators along it.
    Generators with a cycle leave points unclosed; they are closed by
    :func:`transitive_closure` and rejected by the constructor with
    :class:`CycleError`, which names the pair it finds there.
    """
    els = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(els)}
    succ = [0] * len(els)
    # Per point, its generators' targets and sources, repeats kept; a point
    # waits on each of its own generators until that target is closed.
    targets: list[list[int]] = [[] for _ in els]
    preds: list[list[int]] = [[] for _ in els]
    for a, b in relations:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise UnknownElement(f"{a if i is None else b!r} is not one of the elements")
        if i != j:
            succ[i] |= 1 << j
            targets[i].append(j)
            preds[j].append(i)
    waiting = list(map(len, targets))
    ready = [i for i, w in enumerate(waiting) if not w]
    strict = [0] * len(els)
    covers = [0] * len(els)
    for i in ready:  # grows while it is read
        beyond = 0
        for j in targets[i]:
            beyond |= strict[j]
        covers[i] = succ[i] & ~beyond
        strict[i] = succ[i] | beyond
        for k in preds[i]:
            waiting[k] -= 1
            if not waiting[k]:
                ready.append(k)
    if len(ready) < len(els):
        return Order(els, transitive_closure([1 << i | s for i, s in enumerate(succ)]))
    # Every cover is a generator and every generator a relation, so the
    # longest generator path up to a point is the longest chain below it.
    ready.reverse()
    height = [0] * len(els)
    for i in ready:
        for j in targets[i]:
            if height[j] <= height[i]:
                height[j] = height[i] + 1
    order = Order._derived(els, tuple(m | 1 << i for i, m in enumerate(strict)),
                           tuple(covers), tuple(ready))
    order.__dict__["heights"] = tuple(height)
    return order


def covering_pairs(order: Order) -> tuple[tuple[str, str], ...]:
    """The Hasse diagram edges as name pairs, sorted: ascending indices give
    sorted pairs because the elements are sorted."""
    els = order.elements
    return tuple((p, els[j]) for p, m in zip(els, order.covers) for j in bits(m))


def longest_chain(order: Order) -> int:
    """Length (edge count) of a longest chain; -1 for the empty order."""
    return max(order.heights, default=-1)


def cb_filtration(order: Order) -> tuple[int, ...]:
    """The Cantor-Bendixson layers X_0 < X_1 < ... as masks, ending at the
    full mask: iteratively adjoin the isolated points of the complement.
    The rank is one less than the number of layers, so -1 for the empty
    space, whose chain is already stable.

    In a finite T0 Alexandrov space the isolated points of a subspace are
    exactly its maximal elements, so each layer adds the maxima of what is
    left, and a point joins at layer k exactly when its longest chain
    upward has k edges.  Those depths are pushed down the covers, top first."""
    covers = order.covers
    depth = [0] * len(covers)
    for i in reversed(order._bottom_up):
        if covers[i]:
            depth[i] = max(map(depth.__getitem__, bits(covers[i]))) + 1
    strata = [0] * (max(depth, default=-1) + 1)
    for i, d in enumerate(depth):
        strata[d] |= 1 << i
    return tuple(accumulate(strata, or_))


@dataclass(frozen=True)
class AxiomReport:
    """Which separation axioms hold; ``failures`` names each failing one."""

    t0: bool
    sober: bool
    failures: tuple[str, ...]


_AXIOMS_HOLD = AxiomReport(t0=True, sober=True, failures=())


def check_axioms(order: Order) -> AxiomReport:
    """Check T0 (no other point lies both above and below a point) and
    soberness, by the unique-maximal-element criterion: a closed set is
    irreducible exactly when it has a single maximal point, and it must
    then be the closure of that point.  Read from the columns of ``up``: the
    points whose up-set holds p form the one lower set whose single maximal
    point is p, so that set must be ``down[p]``.  No closed set is
    enumerated, but :class:`SizeExceeded` above
    ``DEFAULT_ENUMERATION_BOUND`` points, as for the reports that do."""
    _within_bound(len(order.up))
    up, down = order.up, order.down
    columns = [0] * len(up)
    for q, m in enumerate(up):
        for p in bits(m):
            columns[p] |= 1 << q
    t0 = all(u & d == 1 << i for i, (u, d) in enumerate(zip(up, down)))
    bad = [c for c, d in zip(columns, down) if c != d]
    if t0 and not bad:
        return _AXIOMS_HOLD
    failures = ["t0"] if not t0 else []
    reducible = sorted(map(order.names, bad), key=_by_size_then_names)
    failures.extend(f"sober:{sorted(closed)}" for closed in reducible)
    return AxiomReport(t0=t0, sober=not bad, failures=tuple(failures))


def members(family: int) -> Iterator[int]:
    """The masks of the sets in a family, ascending."""
    return select(range(family.bit_length()), family)


def _by_size_then_names(subset: frozenset[str]) -> tuple[int, list[str]]:
    return len(subset), sorted(subset)


def enumerate_closed_sets(order: Order) -> tuple[frozenset[str], ...]:
    """All lower sets, sorted by size then lexicographically by members;
    :class:`SizeExceeded` above ``DEFAULT_ENUMERATION_BOUND`` points."""
    return tuple(sorted(map(order.names, members(order.closed_family)), key=_by_size_then_names))
