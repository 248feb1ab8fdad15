"""Closure orders of tilted hearts, computed by mutation rewrite rules.

The pipeline starts from the inclusion order (the Hochster topology of the
standard heart) and follows the chain of right mutations encoded by a
filtration: the first step is decided pair-by-pair through the coherence
oracle, later steps at a class E (always closed in the current order) are
rewritten by the discrete rule, the perfect rule, or bracketed between an
upper and a lower bound when neither applies.

Soundness over completeness: a step whose exact topology the available
rules do not determine returns an inexact :class:`BoundedOrder`, never a
guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import filtration as spf
from .poset import GspecError, InvalidArgument, Order, bits, longest_chain, select
from .spectra import COHERENT, NOT_COHERENT, UNDETERMINED, PrimePoset

POLICY_ERROR = "error"
POLICY_ASSUME_COHERENT = "assume-coherent"
POLICY_ASSUME_NONCOHERENT = "assume-noncoherent"
POLICIES = (POLICY_ERROR, POLICY_ASSUME_COHERENT, POLICY_ASSUME_NONCOHERENT)

RULE_STANDARD = "standard"
RULE_ONESTEP = "onestep"
RULE_DISCRETE = "discrete"
RULE_PERFECT = "perfect"
RULE_BOUNDED = "bounded"


class NotClosed(GspecError):
    """The mutation class is not closed (not a lower set) in the current order."""


class NotDiscrete(GspecError):
    """The mutation class is not a discrete subspace of the current order."""


class UnknownStep(GspecError):
    """A step annotation whose index is not a step of the chain."""


class UnknownPolicy(GspecError, ValueError):
    """A coherence policy that is not one of :data:`POLICIES`."""


class UndeterminedCoherence(GspecError):
    """The oracle could not decide a coherence question under policy=error."""

    def __init__(self, p: str, q: str):
        super().__init__(
            f"coherence of the complement in [{p!r}, {q!r}] is not determined "
            "by the model; add an annotation or relax the policy"
        )
        self.pair = (p, q)


@dataclass(frozen=True)
class ClosureOrder:
    """A closure order together with the rule chain that produced it."""

    order: Order
    provenance: tuple[str, ...]


@dataclass(frozen=True)
class BoundedOrder:
    """Bracket for an under-determined order: lower <= truth <= upper, exact when they meet."""

    lower: ClosureOrder
    upper: ClosureOrder

    def __post_init__(self) -> None:
        if self.lower is not self.upper and not self.lower.order.refines(self.upper.order):
            raise InvalidArgument("lower bound exceeds upper bound")

    @property
    def exact(self) -> bool:
        return self.lower.order == self.upper.order


def exact_bounds(co: ClosureOrder) -> BoundedOrder:
    return BoundedOrder(co, co)


@dataclass(frozen=True)
class MutationStep:
    """One step of the mutation chain.

    ``support`` is the mask of the level the step tilts towards and
    ``mutation_class`` the mask of its complement E, which is closed in the
    pre-order.  ``pre`` is the previous step's bounds (the inclusion order
    for step 1), so an inexact step is compared bound for bound with the
    one before.
    """

    index: int
    support: int
    mutation_class: int
    rule: str
    pre: BoundedOrder
    post: BoundedOrder

    @property
    def perfect(self) -> bool:
        """Whether the step's torsion pair is known perfect."""
        return self.rule in (RULE_DISCRETE, RULE_PERFECT)


def standard_order(poset: PrimePoset) -> ClosureOrder:
    """The inclusion order itself: the Hochster topology of the standard heart."""
    return ClosureOrder(poset.base, (RULE_STANDARD,))


def onestep_order(poset: PrimePoset, v: int, policy: str = POLICY_ERROR) -> ClosureOrder:
    """Closure order after a single tilt at the specialisation-closed V0,
    given as its mask ``v``.

    Within V0 and within its complement the order is inclusion; a cross pair
    p outside V0 below q inside V0 is related exactly when the restriction
    of V0 to the interval [p, q] has a non-coherent complement.  The oracle
    is consulted row by row, for cross pairs only.
    """
    _check_policy(policy)
    base = poset.base
    if not v or v == base.full_mask:
        return ClosureOrder(base, (RULE_STANDARD, "shift"))
    if not base.is_upper_set(v):
        raise spf.NotSpecializationClosed(0)

    els = base.elements
    up = list(base.up)
    # Everything above a point of V0 is in V0, so a row inside V0 is an
    # inclusion row over members inside it: it keeps its relations and its
    # covers, and only the rows outside V0 are decided and walked again.
    outside = [i for i in range(len(els)) if not v >> i & 1]
    for i in outside:
        kept = up[i] & ~v
        for verdict, m in poset.row_verdicts(i, v):
            if m and verdict.verdict != COHERENT:
                if verdict.verdict == UNDETERMINED and policy == POLICY_ERROR:
                    raise UndeterminedCoherence(els[i], els[bits(m)[0]])
                if verdict.verdict == NOT_COHERENT or policy == POLICY_ASSUME_NONCOHERENT:
                    kept |= m
        up[i] = kept
    # The rows are base rows with bits removed, so only transitivity can fail.
    order = base._with_rows(tuple(up), outside)
    if order is None:
        raise AssertionError(
            "one-step relation not transitively closed; the coherence data is "
            "inconsistent with a ring"
        )
    return ClosureOrder(order, (f"{RULE_ONESTEP} at {_label(base, v)}",))


def mutate_discrete(co: ClosureOrder, e: int) -> ClosureOrder:
    """Mutation at a closed discrete class, given as its mask ``e``: its
    points become clopen and isolated, everything else keeps its order."""
    _require_closed(co.order, e)
    if not co.order.is_discrete(e):
        raise NotDiscrete(f"{sorted(co.order.names(e))} is not a discrete subspace")
    return _split_step(co, e, f"{RULE_DISCRETE} at {_label(co.order, e)}")


def mutate_perfect(co: ClosureOrder, e: int) -> ClosureOrder:
    """Mutation at a closed class with a perfect torsion pair: the class
    becomes clopen, both parts keep their subspace orders, all cross
    relations disappear.

    Certifying perfectness is the caller's job (an annotation or a
    derivation rule); at the poset level no distinction is drawn between
    plain and embedding-strength perfectness.
    """
    _require_closed(co.order, e)
    return _split_step(co, e, f"{RULE_PERFECT} at {_label(co.order, e)}")


def mutate_general(co: ClosureOrder, e: int) -> BoundedOrder:
    """Bracket for a mutation step at the closed class with mask ``e`` when
    no exact rule applies.

    Both bounds keep the subspace orders on E and its complement.  The lower
    bound drops every cross relation; the upper bound is the pre-order.  Only
    the chain knows points that must stay maximal, and prunes their rows.
    """
    _require_closed(co.order, e)
    return _bracket(exact_bounds(co), e, 0)


def chain_order(
    poset: PrimePoset,
    filt: spf.SpFiltration,
    step_annotations: Mapping[int, bool] | None = None,
    policy: str = POLICY_ERROR,
) -> list[tuple[MutationStep, BoundedOrder]]:
    """Run the whole mutation chain for a filtration.

    Step 1 applies the one-step rule at V_0; step i > 1 mutates at
    E = complement of V_{i-1}, dispatching to the discrete rule when E is
    discrete in the current order, to the perfect rule when the step is
    certified perfect (annotation, or the built-in vanishing pattern for a
    two-dimensional local model tilting at its closed point), and otherwise
    to the sound upper/lower bracket.

    Truncated-slice filtrations take the discrete rule at every step,
    including the first.  An annotation outside steps 1..n raises
    :class:`UnknownStep`.

    Two facts hold by construction, so no step checks them.  Every E is the
    complement of an upper set of the base order, and every bound refines
    the base, so E is closed in both bounds.  Under a truncated slice E is
    discrete, by induction: the previous E was split off discrete, and the
    new stratum is an antichain of a part whose order is still inclusion.
    """
    _check_policy(policy)
    annotations = dict(step_annotations or {})
    for i in sorted(annotations):
        if not 1 <= i <= filt.n:
            raise UnknownStep(
                f"step annotation 'i' is {i}, outside the chain's steps 1..{filt.n}"
            )
    truncated, forced = filt.stratum_pass
    steps: list[tuple[MutationStep, BoundedOrder]] = []
    current = exact_bounds(standard_order(poset))

    for i, support in enumerate(filt.levels, 1):
        e = poset.base.full_mask & ~support
        if i == 1 and not truncated:
            rule = RULE_ONESTEP
            post = exact_bounds(onestep_order(poset, support, policy))
        # E's maxima in the upper bound: all of E when it is discrete, else the pruned ones.
        elif truncated or (top := current.upper.order.maximal(e)) == e:
            rule = RULE_DISCRETE
        # Built-in certificate: dimension <= 2, tilting at the one maximal point forced[0].
        elif annotations.get(i, False) or (support == forced[0] and support.bit_count() == 1
                                           and longest_chain(poset.base) <= 2):
            rule = RULE_PERFECT
        else:
            rule = RULE_BOUNDED
            post = _bracket(current, e, top)
        if rule in (RULE_DISCRETE, RULE_PERFECT):
            # An exact step splits the order itself, an inexact one each bound.
            entry = f"{rule} at {_label(poset.base, e)}"
            lower = _split_step(current.lower, e, entry)
            post = BoundedOrder(lower, lower if current.exact
                                else _split_step(current.upper, e, entry))
        step = MutationStep(i, support, e, rule, current, post)
        steps.append((step, post))
        current = post
    return steps


def final_order(steps: list[tuple[MutationStep, BoundedOrder]], poset: PrimePoset) -> BoundedOrder:
    """Resulting order of a chain; the standard order for an empty chain."""
    if not steps:
        return exact_bounds(standard_order(poset))
    return steps[-1][1]


# -- helpers ----------------------------------------------------------------


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise UnknownPolicy(f"unknown policy {policy!r} (choose from {POLICIES})")


def _label(order: Order, e: int) -> str:
    """The names of a mask in braces; ascending bits are sorted names."""
    return "{" + ",".join(select(order.elements, e)) + "}"


def _require_closed(order: Order, e: int) -> None:
    if not order.is_lower_set(e):
        raise NotClosed(f"{sorted(order.names(e))} is not closed in the current order")


def _split_step(co: ClosureOrder, e: int, entry: str) -> ClosureOrder:
    """``co`` split at the closed class ``e``, its provenance extended by ``entry``."""
    return ClosureOrder(co.order._split(e), co.provenance + (entry,))


def _bracket(current: BoundedOrder, e: int, pruned: int) -> BoundedOrder:
    """The general bracket at the class ``e``, each new bound built once: the
    lower bound split, and the upper bound with the rows of the points of
    ``pruned`` (maximal in E) made singletons.  Bounds that meet are one order,
    whose bracket both new bounds take from the lower bound, provenance
    included.  ``e`` must be closed in the upper bound, and so in the lower
    bound, which refines it.

    The chain prunes every maximal point of E in the upper bound, each forced
    to stay maximal (:attr:`SpFiltration.stratum_pass`): E is the union of
    the strata cut out so far, and every bound agrees with inclusion inside
    each stratum, so a point maximal in E there is maximal in its stratum."""
    lower = current.lower
    upper = lower if current.exact else current.upper
    label = _label(lower.order, e)
    order = upper.order
    # A row that is already a singleton stays as it is.
    pruned = sum(1 << i for i in bits(pruned) if order.up[i] != 1 << i)
    if pruned:
        # Only a pruned row and the rows below a pruned point change their covers.
        order = order._with_rows(
            tuple(1 << i if pruned >> i & 1 else row for i, row in enumerate(order.up)),
            [i for i, row in enumerate(order.up) if row & pruned])
    return BoundedOrder(
        _split_step(lower, e, f"{RULE_BOUNDED} at {label} (lower)"),
        ClosureOrder(order, upper.provenance + (f"{RULE_BOUNDED} at {label} (upper)",)))

