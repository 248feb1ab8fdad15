"""Property reports for the mutation engine.

The two laws, ``t0`` and ``sober`` enumerate closed sets and share no code
with the rewrite rules.  Refinement, piecewise, refines-inclusion,
levels-open, strata-restriction and cb are direct mask checks.  Sandwich
(through ``mutation.mutate_general``, whose lower bound is the rules' split)
and maximal-difference (through ``filtration.forced_maximal``, which the
bracket's pruning also reads) reuse engine definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import filtration as spf
from . import mutation as mut
from .poset import (
    DEFAULT_ENUMERATION_BOUND,
    GspecError,
    Order,
    bits,
    cb_filtration,
    check_axioms,
    closed_masks,
    longest_chain,
)
from .spectra import PrimePoset


class ElementMismatch(GspecError):
    """Orders over different point sets cannot be compared."""


@dataclass(frozen=True)
class PropertyReport:
    """A law's outcome: it failed exactly when it carries a counterexample."""

    name: str
    counterexample: tuple[tuple[str, str], ...] | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = {k: v for k, v in self.counterexample}
        return out


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
            return order.elements[i], order.elements[next(bits(row))]
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


def _closed_sets_report(name: str, pre: Order, post: Order, expected: set[int]) -> PropertyReport:
    """Passes when ``post``'s closed sets are exactly ``expected``; the
    witness is the first set in only one of them, by size, then by sorted
    member names."""
    wrong = expected ^ set(closed_masks(post))
    if not wrong:
        return PropertyReport(name)
    offender = min(map(pre.names, wrong), key=lambda s: (len(s), sorted(s)))
    return PropertyReport(name, _witness(set=offender))


def brute_force_discrete_law(
    pre: mut.ClosureOrder,
    e: int,
    post: mut.ClosureOrder,
    name: str = "discrete-law",
) -> PropertyReport:
    """After a discrete mutation at the class with mask ``e`` the closed sets
    are exactly the U whose union with E was closed before."""
    _same_elements(pre, post)
    pre_closed = set(closed_masks(pre.order))
    expected = {U for U in range(1 << len(pre.order.elements)) if U | e in pre_closed}
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
    pre_closed = closed_masks(pre.order)
    # A mixture is fixed by its two disjoint halves, so take the product of
    # the distinct halves rather than of all pairs of closed sets.
    inside = {V & e for V in pre_closed}
    outside = {V & ~e for V in pre_closed}
    expected = {A | B for A in inside for B in outside}
    return _closed_sets_report(name, pre.order, post.order, expected)


def run_suite(
    poset: PrimePoset,
    filt: spf.SpFiltration,
    step_annotations: Mapping[int, bool] | None = None,
    policy: str = mut.POLICY_ERROR,
) -> list[PropertyReport]:
    """Run the chain and validate every applicable law against it.

    The reports come back in a fixed order: per-step checks by step index,
    then the baseline checks of each exact order in chain position order.
    Each step is compared bound for bound with the step before.  Reports
    that enumerate closed sets (the two laws, ``t0`` and ``sober``) run only
    on posets of at most ``DEFAULT_ENUMERATION_BOUND`` points and are left
    out above it; every other report always runs.
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
        # An exact step follows an exact one, so pre.lower is the whole pre-order.
        if small and step.rule == mut.RULE_DISCRETE:
            reports.append(
                brute_force_discrete_law(pre.lower, E, post.lower, f"{tag}:discrete-law")
            )
        if small and step.rule in (mut.RULE_DISCRETE, mut.RULE_PERFECT):
            reports.append(
                brute_force_perfect_law(pre.lower, E, post.lower, f"{tag}:perfect-law")
            )
        reports.append(_sandwich(pre.lower, E, post.lower, f"{tag}:sandwich"))

    ordered = [(0, mut.standard_order(poset))]
    ordered += [(step.index, post.lower) for step, post in steps if post.exact]
    for position, co in ordered:
        reports.extend(_baseline(poset, filt, position, co, small))
    return reports


def _sandwich(
    pre: mut.ClosureOrder, e: int, exact: mut.ClosureOrder, name: str
) -> PropertyReport:
    bracket = mut.mutate_general(pre, e)
    return _pair_report(name, _least_extra_pair(bracket.lower.order, exact.order)
                        or _least_extra_pair(exact.order, bracket.upper.order))


def _baseline(
    poset: PrimePoset,
    filt: spf.SpFiltration,
    position: int,
    co: mut.ClosureOrder,
    small: bool,
) -> list[PropertyReport]:
    tag = f"order-{position}"
    order, base = co.order, poset.base
    out: list[PropertyReport] = []

    out.append(_pair_report(f"{tag}:refines-inclusion", _least_extra_pair(order, base)))

    if small:
        axioms = check_axioms(order)
        failures = _witness(failures=set(axioms.failures))
        out.append(PropertyReport(f"{tag}:t0", None if axioms.t0 else failures))
        out.append(PropertyReport(f"{tag}:sober", None if axioms.sober else failures))

    bad_level = next(
        (i for i in range(filt.n) if not order.is_upper_set(filt.level(i))), None
    )
    out.append(PropertyReport(f"{tag}:levels-open",
                              None if bad_level is None else _witness(level=bad_level)))

    bad_stratum = next(
        (stratum for stratum in map(filt.difference, range(filt.n + 1))
         if _least_change(order, base, stratum)),
        None,
    )
    out.append(PropertyReport(
        f"{tag}:strata-restriction",
        None if bad_stratum is None else _witness(stratum=order.names(bad_stratum))))

    not_maximal = spf.forced_maximal(poset, filt, position) & ~order.maximal(order.full_mask)
    out.append(PropertyReport(
        f"{tag}:maximal-difference",
        _witness(point=order.elements[next(bits(not_maximal))]) if not_maximal else None))

    out.append(_cb_sanity(order, f"{tag}:cb"))
    return out


def _cb_sanity(order: Order, name: str) -> PropertyReport:
    """Rank equals the longest chain; each layer adds the points whose
    minimal open set has shrunk to themselves (recomputed independently)."""
    cb = cb_filtration(order)
    if cb.rank != longest_chain(order):
        return PropertyReport(
            name, _witness(rank=cb.rank, chain=longest_chain(order))
        )
    accumulated = 0
    for layer in cb.layers:
        remaining = order.full_mask & ~accumulated
        isolated = sum(
            1 << i for i in bits(remaining) if order.up[i] & remaining == 1 << i
        )
        if layer != accumulated | isolated:
            return PropertyReport(name, _witness(layer=order.names(layer)))
        accumulated |= isolated
    if accumulated != order.full_mask:
        return PropertyReport(name, _witness(layer=order.names(accumulated)))
    return PropertyReport(name)
