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
from typing import Callable, Mapping

from . import filtration as spf
from .poset import GspecError, InvalidArgument, Order, bits, longest_chain
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
    """Bracket for an under-determined order: lower <= truth <= upper."""

    lower: ClosureOrder
    upper: ClosureOrder
    exact: bool

    def __post_init__(self) -> None:
        if not self.lower.order.refines(self.upper.order):
            raise InvalidArgument("lower bound exceeds upper bound")
        if self.exact and self.lower.order != self.upper.order:
            raise InvalidArgument("exact flag set but bounds differ")


def exact_bounds(co: ClosureOrder) -> BoundedOrder:
    return BoundedOrder(co, co, True)


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
    is consulted lazily, for cross pairs only.
    """
    _check_policy(policy)
    base = poset.base
    if not v or v == base.full_mask:
        return ClosureOrder(base, (RULE_STANDARD, "shift"))
    if not base.is_upper_set(v):
        raise spf.NotSpecializationClosed(0)

    els = base.elements
    up = []
    for i, row in enumerate(base.up):
        if v >> i & 1:  # everything above a point of V0 is in V0
            up.append(row)
            continue
        kept = row & ~v
        for j in bits(row & v):
            verdict = poset.verdict_at(i, j, v).verdict
            if verdict == UNDETERMINED:
                if policy == POLICY_ERROR:
                    raise UndeterminedCoherence(els[i], els[j])
                verdict = COHERENT if policy == POLICY_ASSUME_COHERENT else NOT_COHERENT
            if verdict == NOT_COHERENT:
                kept |= 1 << j
        up.append(kept)
    # The rows are base rows with bits removed, so the constructor can only
    # reject them for transitivity.
    try:
        order = Order(els, tuple(up))
    except ValueError:
        raise AssertionError(
            "one-step relation not transitively closed; the coherence data is "
            "inconsistent with a ring"
        ) from None
    return ClosureOrder(order, (f"{RULE_ONESTEP} at {_label(base, v)}",))


def mutate_discrete(co: ClosureOrder, e: int) -> ClosureOrder:
    """Mutation at a closed discrete class, given as its mask ``e``: its
    points become clopen and isolated, everything else keeps its order."""
    _require_closed(co.order, e)
    if not co.order.is_discrete(e):
        raise NotDiscrete(f"{sorted(co.order.names(e))} is not a discrete subspace")
    return ClosureOrder(_split(co.order, e),
                        co.provenance + (f"{RULE_DISCRETE} at {_label(co.order, e)}",))


def mutate_perfect(co: ClosureOrder, e: int) -> ClosureOrder:
    """Mutation at a closed class with a perfect torsion pair: the class
    becomes clopen, both parts keep their subspace orders, all cross
    relations disappear.

    Certifying perfectness is the caller's job (an annotation or a
    derivation rule); at the poset level no distinction is drawn between
    plain and embedding-strength perfectness.
    """
    _require_closed(co.order, e)
    return ClosureOrder(_split(co.order, e),
                        co.provenance + (f"{RULE_PERFECT} at {_label(co.order, e)}",))


def mutate_general(co: ClosureOrder, e: int, forced_maximal: int = 0) -> BoundedOrder:
    """Bracket for a mutation step at the closed class with mask ``e`` when
    no exact rule applies.

    Both bounds keep the subspace orders on E and its complement.  The lower
    bound drops every cross relation; the upper bound keeps the cross
    relations of the pre-order except those whose source is already known to
    be maximal in the result: the points of the mask ``forced_maximal`` that
    are maximal in E (a claim on any other point of E is false, and ignored).
    Their rows become singletons and the rest stay pre-order rows, so the
    upper bound is transitively closed as built.
    """
    order = co.order
    _require_closed(order, e)
    lower = _split(order, e)
    pruned = forced_maximal & order.maximal(e)
    upper = tuple(kept if pruned >> i & 1 else row
                  for i, (kept, row) in enumerate(zip(lower.up, order.up)))
    label = _label(order, e)
    return BoundedOrder(
        ClosureOrder(lower, co.provenance + (f"{RULE_BOUNDED} at {label} (lower)",)),
        ClosureOrder(Order(order.elements, upper),
                     co.provenance + (f"{RULE_BOUNDED} at {label} (upper)",)),
        exact=lower.up == upper,
    )


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
    """
    _check_policy(policy)
    annotations = dict(step_annotations or {})
    for i in sorted(annotations):
        if not 1 <= i <= filt.n:
            raise UnknownStep(
                f"step annotation 'i' is {i}, outside the chain's steps 1..{filt.n}"
            )
    truncated = spf.classify(poset, filt)["truncated_slice"]
    steps: list[tuple[MutationStep, BoundedOrder]] = []
    current = exact_bounds(standard_order(poset))

    for i in range(1, filt.n + 1):
        support = filt.level(i - 1)
        e = poset.base.full_mask & ~support
        if i == 1 and not truncated:
            rule = RULE_ONESTEP
            post = exact_bounds(onestep_order(poset, support, policy))
        elif truncated or current.upper.order.is_discrete(e):
            rule = RULE_DISCRETE
            post = _each_bound(current, lambda co: exact_bounds(mutate_discrete(co, e)))
        elif annotations.get(i, False) or _vanishing_pattern(poset, support):
            rule = RULE_PERFECT
            post = _each_bound(current, lambda co: exact_bounds(mutate_perfect(co, e)))
        else:
            rule = RULE_BOUNDED
            pruned = spf.forced_maximal(poset, filt, i)
            post = _each_bound(current, lambda co: mutate_general(co, e, pruned))
        step = MutationStep(i, support, e, rule, current, post)
        steps.append((step, post))
        current = post
    return steps


def final_order(steps: list[tuple[MutationStep, BoundedOrder]], poset: PrimePoset) -> BoundedOrder:
    """Resulting order of a chain; the standard order for an empty chain."""
    if not steps:
        return exact_bounds(standard_order(poset))
    return steps[-1][1]


@dataclass(frozen=True)
class ThetaEntry:
    """How one point's neighbourhoods move across a mutation step.

    The underlying bijection is the identity on prime names; what changes is
    each point's closure and minimal open set.
    """

    point: str
    closure_before: frozenset[str]
    closure_after: frozenset[str]
    open_before: frozenset[str]
    open_after: frozenset[str]


def theta_map(step: MutationStep) -> tuple[ThetaEntry, ...]:
    """The identity-on-points bijection of an exact step, documented."""
    if not step.post.exact:
        raise InvalidArgument("theta map is only documented for exact steps")
    pre, post = step.pre.lower.order, step.post.lower.order
    return tuple(
        ThetaEntry(
            point=p,
            closure_before=pre.gncl(p),
            closure_after=post.gncl(p),
            open_before=pre.spcl(p),
            open_after=post.spcl(p),
        )
        for p in pre.elements
    )


# -- helpers ----------------------------------------------------------------


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise UnknownPolicy(f"unknown policy {policy!r} (choose from {POLICIES})")


def _label(order: Order, e: int) -> str:
    """The names of a mask in braces; ascending bits are sorted names."""
    return "{" + ",".join(order.elements[i] for i in bits(e)) + "}"


def _require_closed(order: Order, e: int) -> None:
    if not order.is_lower_set(e):
        raise NotClosed(f"{sorted(order.names(e))} is not closed in the current order")


def _split(order: Order, e: int) -> Order:
    """Keep the relations inside E and inside its complement, drop the ones
    that cross.  At a closed E this is the perfect rule, the discrete rule
    when E is discrete, and the lower bound of the general bracket."""
    return Order(order.elements, tuple(
        row & (e if e >> i & 1 else ~e) for i, row in enumerate(order.up)
    ))


def _each_bound(
    current: BoundedOrder, rule: Callable[[ClosureOrder], BoundedOrder]
) -> BoundedOrder:
    """Apply a step's rule to the current bounds: to the order itself when it
    is exact, otherwise the rule's lower bound from the lower bound and its
    upper bound from the upper bound."""
    if current.exact:
        return rule(current.lower)
    return BoundedOrder(rule(current.lower).lower, rule(current.upper).upper, exact=False)


def _vanishing_pattern(poset: PrimePoset, level: int) -> bool:
    """Built-in perfectness certificate: a local model of dimension at most
    two tilting at its unique closed point."""
    maxima = poset.base.maximal(poset.base.full_mask)
    return maxima.bit_count() == 1 and level == maxima and longest_chain(poset.base) <= 2

