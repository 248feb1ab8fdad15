"""Property reports for the mutation engine.

The two laws read closed sets from :attr:`Order.closed_family`, one
integer per order whose bit S marks the closed set S, and share no code
with the rewrite rules.  They build their expected families with
whole-family bit operations and compare them with one XOR; only a failure
lists sets, to name its witness.  ``t0`` and ``sober`` read the up- and
down-set masks alone (:func:`check_axioms`), so a family is built only for
an order a law reads.  Refinement, piecewise, sandwich, refines-inclusion,
levels-open, strata-restriction and cb are direct mask checks; cb tests the
layers against the up-sets, not the covers :func:`cb_filtration` reads.
Maximal-difference reuses an engine definition: the filtration's
:attr:`SpFiltration.stratum_pass`, which the chain also reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import filtration as spf
from . import mutation as mut
from .poset import (
    DEFAULT_ENUMERATION_BOUND,
    GspecError,
    Order,
    bits,
    cb_filtration,
    check_axioms,
    holding,
    longest_chain,
    members,
)
from .spectra import PrimePoset


class ElementMismatch(GspecError):
    """Orders over different point sets cannot be compared."""


@dataclass(frozen=True)
class PropertyReport:
    """A law's outcome: it failed exactly when it carries a counterexample,
    its ``(key, value)`` pairs sorted by key."""

    name: str
    counterexample: tuple[tuple[str, str], ...] | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _witness(**kwargs: object) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, _show(v)) for k, v in kwargs.items()))


def _show(value: object) -> str:
    if isinstance(value, (frozenset, set, list)):
        return "{" + ",".join(sorted(map(str, value))) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(str, value)) + ")"
    return str(value)


def _same_elements(pre: mut.ClosureOrder, post: mut.ClosureOrder) -> None:
    if pre.order.elements != post.order.elements:
        raise ElementMismatch(
            f"{pre.order.elements} versus {post.order.elements}"
        )


def check_refinement(pre: mut.ClosureOrder, post: mut.ClosureOrder, name: str = "refinement") -> PropertyReport:
    """Mutation only removes relations: post must be contained in pre."""
    _same_elements(pre, post)
    return _pair_report(name, _least_extra_pair(post.order, pre.order))


def _pair_report(name: str, pair: tuple[str, str] | None) -> PropertyReport:
    """Passes without a pair, fails with the pair as its witness."""
    return PropertyReport(name, _witness(pair=pair) if pair else None)


def _least_pair(order: Order, rows: Iterable[tuple[int, int]]) -> tuple[str, str] | None:
    """The least pair ``(p, q)`` with bit q set in the row of p, from rows
    ``(index, mask)`` by ascending index; the elements are sorted, so this is
    the least pair by names."""
    for i, row in rows:
        if row:
            return order.elements[i], order.elements[bits(row)[0]]
    return None


def _least_extra_pair(a: Order, b: Order) -> tuple[str, str] | None:
    """The least pair related in ``a`` but not in ``b`` (on the same
    points), or ``None`` when ``a`` is contained in ``b``."""
    return _least_pair(a, enumerate(x & ~y for x, y in zip(a.up, b.up)))


def _least_change(a: Order, b: Order, part: int) -> tuple[str, str] | None:
    """The least pair inside the mask ``part`` related in just one of the two
    orders (on the same points), or ``None`` when they agree there."""
    return _least_pair(a, ((i, (a.up[i] ^ b.up[i]) & part) for i in bits(part)))


def check_piecewise(
    pre: mut.ClosureOrder,
    post: mut.ClosureOrder,
    e: int,
    name: str = "piecewise",
) -> PropertyReport:
    """The class with mask ``e`` stays closed and both parts keep their
    subspace orders."""
    _same_elements(pre, post)
    order = pre.order
    for when, co in (("before", pre), ("after", post)):
        if not co.order.is_lower_set(e):
            return PropertyReport(
                name, _witness(reason=f"E not closed {when}", E=order.names(e)))
    for part, label in ((e, "E"), (order.full_mask & ~e, "complement")):
        pair = _least_change(order, post.order, part)
        if pair:
            return PropertyReport(name, _witness(part=label, pair=pair))
    return PropertyReport(name)


def _closed_sets_report(name: str, pre: Order, post: Order, expected: int) -> PropertyReport:
    """Passes when ``post``'s closed family is exactly the family
    ``expected``; the witness is the first set in only one of them, by
    size, then by sorted member names."""
    wrong = expected ^ post.closed_family
    if not wrong:
        return PropertyReport(name)
    offender = min(map(pre.names, members(wrong)), key=lambda s: (len(s), sorted(s)))
    return PropertyReport(name, _witness(set=offender))


def brute_force_discrete_law(
    pre: mut.ClosureOrder,
    e: int,
    post: mut.ClosureOrder,
    name: str = "discrete-law",
) -> PropertyReport:
    """After a discrete mutation at the class with mask ``e`` the closed sets
    are exactly the U whose union with E was closed before: per point of E,
    the family keeps the sets that hold it, and gains each of them without
    it."""
    _same_elements(pre, post)
    expected = pre.order.closed_family
    holds = holding(len(pre.order.elements))
    for b in bits(e):
        expected &= holds[b]
        expected |= expected >> (1 << b)
    return _closed_sets_report(name, pre.order, post.order, expected)


def brute_force_perfect_law(
    pre: mut.ClosureOrder,
    e: int,
    post: mut.ClosureOrder,
    name: str = "perfect-law",
) -> PropertyReport:
    """After a perfect mutation at the class with mask ``e`` the closed sets
    are exactly the mixtures of a closed set inside E with a closed set
    outside it."""
    _same_elements(pre, post)
    order = pre.order
    inside = outside = order.closed_family
    holds = holding(len(order.elements))
    # Project the closed sets onto E and onto its complement, a point at a time.
    for b, family in enumerate(holds):
        if e >> b & 1:
            taken = outside & family
            outside = outside ^ taken | taken >> (1 << b)
        else:
            taken = inside & family
            inside = inside ^ taken | taken >> (1 << b)
    # A mixture is fixed by its two disjoint halves, so the product of the
    # two families adds each mixture's bit once and never carries: subset
    # convolution on disjoint supports (Bjorklund, Husfeldt, Kaski and
    # Koivisto, "Fourier meets Mobius", STOC 2007) needs no transform.
    return _closed_sets_report(name, order, post.order, inside * outside)


def run_suite(
    poset: PrimePoset,
    filt: spf.SpFiltration,
    step_annotations: Mapping[int, bool] | None = None,
    policy: str = mut.POLICY_ERROR,
) -> list[PropertyReport]:
    """Run the chain and validate every applicable law against it.

    The reports come back in a fixed order: per-step checks by step index,
    then the baseline checks of each exact order in chain position order.
    Each step is compared bound for bound with the step before.  The two
    laws, which enumerate closed sets, and ``t0`` and ``sober`` run only on
    posets of at most ``DEFAULT_ENUMERATION_BOUND`` points and are left out
    above it; every other report always runs.
    """
    steps = mut.chain_order(poset, filt, step_annotations, policy)
    reports: list[PropertyReport] = []
    small = len(poset.base.elements) <= DEFAULT_ENUMERATION_BOUND

    for step, post in steps:
        tag, pre, E = f"step-{step.index}", step.pre, step.mutation_class
        reports.append(check_refinement(pre.upper, post.upper, f"{tag}:refinement"))
        reports.append(check_piecewise(pre.lower, post.lower, E, f"{tag}:piecewise"))
        if not post.exact:
            reports.append(check_piecewise(pre.upper, post.upper, E, f"{tag}:piecewise-upper"))
            continue
        # Even where an inexact pre collapses, post.lower is rule(pre.lower), which the laws check.
        if small and step.rule == mut.RULE_DISCRETE:
            reports.append(
                brute_force_discrete_law(pre.lower, E, post.lower, f"{tag}:discrete-law")
            )
        if small and step.perfect:
            reports.append(
                brute_force_perfect_law(pre.lower, E, post.lower, f"{tag}:perfect-law")
            )
        reports.append(_sandwich(pre.lower, E, post.lower, f"{tag}:sandwich"))

    ordered = [(0, mut.standard_order(poset))]
    ordered += [(step.index, post.lower) for step, post in steps if post.exact]
    for position, co in ordered:
        reports.extend(_baseline(filt, position, co, small))
    return reports


def _sandwich(
    pre: mut.ClosureOrder, e: int, exact: mut.ClosureOrder, name: str
) -> PropertyReport:
    """``exact`` lies between ``pre`` split at the class ``e`` and ``pre``
    itself, row by row on the masks: each row keeps the split's row and adds
    nothing beyond the pre-order's.  Only a failure names a pair: the least
    one the split keeps and ``exact`` drops, else the least one ``exact``
    adds."""
    up, got = pre.order.up, exact.order.up
    kept = [m & (e if e >> i & 1 else ~e) for i, m in enumerate(up)]
    if not any(k & ~g or g & ~m for k, g, m in zip(kept, got, up)):
        return PropertyReport(name)
    dropped = enumerate(k & ~g for k, g in zip(kept, got))
    added = enumerate(g & ~m for g, m in zip(got, up))
    return _pair_report(name, _least_pair(exact.order, dropped)
                        or _least_pair(exact.order, added))


def _baseline(filt: spf.SpFiltration, position: int, co: mut.ClosureOrder,
              small: bool) -> list[PropertyReport]:
    """The checks of the exact order of step ``position`` of the chain."""
    tag = f"order-{position}"
    order, base = co.order, filt.base
    out: list[PropertyReport] = []

    out.append(_pair_report(f"{tag}:refines-inclusion", _least_extra_pair(order, base)))

    if small:
        axioms = check_axioms(order)
        failures = _witness(failures=set(axioms.failures)) if axioms.failures else None
        out.append(PropertyReport(f"{tag}:t0", None if axioms.t0 else failures))
        out.append(PropertyReport(f"{tag}:sober", None if axioms.sober else failures))

    bad_level = _first_unopen_level(order, filt.level_of)
    out.append(PropertyReport(f"{tag}:levels-open",
                              None if bad_level is None else _witness(level=bad_level)))

    bad_stratum = _first_changed_stratum(order, base, filt.level_of, filt.strata)
    out.append(PropertyReport(
        f"{tag}:strata-restriction",
        None if bad_stratum is None else _witness(stratum=order.names(filt.strata[bad_stratum]))))

    not_maximal = filt.stratum_pass[1][position] & ~order.maximal(order.full_mask)
    out.append(PropertyReport(
        f"{tag}:maximal-difference",
        _witness(point=order.elements[bits(not_maximal)[0]]) if not_maximal else None))

    out.append(_cb_report(order, cb_filtration(order), f"{tag}:cb"))
    return out


def _first_unopen_level(order: Order, level_of: Sequence[int]) -> int | None:
    """The least index of a level that is not an upper set of ``order``, or
    ``None`` when every level is one; ``level_of`` is the level function by
    point index.  Every level is open exactly when the function never drops
    along a cover, and a drop along p < q first breaks level f(q) + 1.  Only
    points with covers are stepped, one step per cover."""
    return min((level_of[j] + 1 for f, m in zip(level_of, order.covers) if m
                for j in bits(m) if level_of[j] < f), default=None)


def _first_changed_stratum(order: Order, base: Order, level_of: Sequence[int],
                           strata: Sequence[int]) -> int | None:
    """The least index i of a stratum V_{i-1} minus V_i (``strata[i]``)
    inside which ``order`` and ``base`` relate a pair differently, or
    ``None`` when they agree inside every stratum.  A point of level f lies
    in stratum f + 1, so each row is compared once, inside its own point's
    stratum."""
    return min((f + 1 for f, a, b in zip(level_of, order.up, base.up)
                if (a ^ b) & strata[f + 1]), default=None)


def _cb_report(order: Order, layers: tuple[int, ...], name: str) -> PropertyReport:
    """Rank equals the longest chain, and each layer X_k adds the points
    whose minimal open set has shrunk to themselves once X_(k-1) is taken
    away.  The layers are tested point by point against the up-sets
    (:func:`_peels`), not the covers :func:`cb_filtration` reads; only a
    failure peels the maxima layer by layer, for its witness: the first layer
    that differs, as layers that all match the peeling pass :func:`_peels`."""
    chain = longest_chain(order)
    if len(layers) - 1 != chain:
        return PropertyReport(name, _witness(rank=len(layers) - 1, chain=chain))
    if _peels(order, layers):
        return PropertyReport(name)
    accumulated = 0
    for layer in layers:
        isolated = order.maximal(order.full_mask & ~accumulated)
        if layer != accumulated | isolated:
            break
        accumulated |= isolated
    return PropertyReport(name, _witness(layer=order.names(layer)))


def _peels(order: Order, layers: tuple[int, ...]) -> bool:
    """The layers nest, end at the full mask, and each point p entering at
    layer k has up[p] minus X_(k-1) equal to {p} and, for k > 0, up[p] minus
    X_(k-2) not: p is isolated there and was not one layer earlier."""
    up, before, earlier = order.up, 0, 0
    for k, layer in enumerate(layers):
        if before & ~layer or any(up[p] & ~before != 1 << p or k and up[p] & ~earlier == 1 << p
                                  for p in bits(layer & ~before)):
            return False
        before, earlier = layer, before
    return before == order.full_mask
