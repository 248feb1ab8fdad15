"""Traced runs: spans around the public functions of each ``gspec`` module.

The program is not modified.  ``Tracer.install`` replaces each traced
function with a wrapper in every ``gspec`` module that bound it (``from
.poset import enumerate_closed_sets`` gives ``verify`` its own name to
rebind) and on the classes for methods; ``uninstall`` puts the originals
back.  A span records its name, start, end, parent span and op; a layer's
self time is its duration minus the time covered by its child spans (the loop
is single-threaded, so children never overlap).  Counts that the functions'
arguments and results reveal are gathered at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# Per-layer metrics, in the order they are reported: name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str = "count", better: str = "lower") -> None:
    METRICS[name] = (unit, better)


def _timed(layer: str, calls: bool = True) -> None:
    if calls:
        _metric(f"{layer}.calls")
    _metric(f"{layer}.self_s", "s")


_timed("cli.main")
_timed("cli.hasse_dot", calls=False)
_timed("spectra.load_prime_poset")
_timed("spectra.coherent_complement")
RULES = ("trivial", "dimension-one", "generic-complement", "deep-minimal", "annotation",
         "no-rule")
for _rule in RULES:
    _metric(f"spectra.coherent_complement.rule.{_rule}")
_metric("spectra.coherent_complement.decided_ratio", "ratio", "higher")
_timed("spectra.interval")
_timed("poset.Order")
_metric("poset.Order.pairs")
_timed("poset.build_order")
_timed("poset.covering_pairs")
_timed("poset.enumerate_closed_sets")
_metric("poset.enumerate_closed_sets.found")
_metric("poset.enumerate_closed_sets.masks")
_metric("poset.enumerate_closed_sets.yield", "ratio", "higher")
_timed("poset.check_axioms")
_timed("poset.cb_filtration", calls=False)
_metric("poset.longest_chain.hits", better="higher")
_metric("poset.longest_chain.misses")
_metric("poset.longest_chain.entries")
for _name in ("validate_filtration", "f_to_filtration", "classify"):
    _timed(f"filtration.{_name}", calls=False)
for _name in ("chain_order", "onestep_order", "mutate_discrete", "mutate_perfect",
              "mutate_general"):
    _timed(f"mutation.{_name}")
_metric("mutation.steps")
_metric("mutation.exact_step_ratio", "ratio", "higher")
_metric("mutation.bracket_width_pairs")
_timed("verify.brute_force_perfect_law")
_metric("verify.brute_force_perfect_law.mixtures")
_metric("verify.brute_force_perfect_law.yield", "ratio", "higher")
for _name in ("run_suite", "brute_force_discrete_law", "check_refinement", "check_piecewise"):
    _timed(f"verify.{_name}")
_metric("verify.reports", better="higher")
_metric("verify.reports_failed")
_metric("trace.untraced_throughput_ops_s", "1/s", "higher")
_metric("trace.traced_throughput_ops_s", "1/s", "higher")
_metric("trace.overhead_share", "ratio")
_metric("trace.unattributed_share", "ratio")

# (module, attribute path, layer name) of every traced callable.
TARGETS = (
    ("gspec.cli", "main", "cli.main"),
    ("gspec.cli", "hasse_dot", "cli.hasse_dot"),
    ("gspec.spectra", "load_prime_poset", "spectra.load_prime_poset"),
    ("gspec.spectra", "PrimePoset.coherent_complement", "spectra.coherent_complement"),
    ("gspec.spectra", "PrimePoset.interval", "spectra.interval"),
    ("gspec.poset", "Order.__post_init__", "poset.Order"),
    ("gspec.poset", "build_order", "poset.build_order"),
    ("gspec.poset", "covering_pairs", "poset.covering_pairs"),
    ("gspec.poset", "enumerate_closed_sets", "poset.enumerate_closed_sets"),
    ("gspec.poset", "check_axioms", "poset.check_axioms"),
    ("gspec.poset", "cb_filtration", "poset.cb_filtration"),
    ("gspec.filtration", "validate_filtration", "filtration.validate_filtration"),
    ("gspec.filtration", "f_to_filtration", "filtration.f_to_filtration"),
    ("gspec.filtration", "classify", "filtration.classify"),
    ("gspec.mutation", "chain_order", "mutation.chain_order"),
    ("gspec.mutation", "onestep_order", "mutation.onestep_order"),
    ("gspec.mutation", "mutate_discrete", "mutation.mutate_discrete"),
    ("gspec.mutation", "mutate_perfect", "mutation.mutate_perfect"),
    ("gspec.mutation", "mutate_general", "mutation.mutate_general"),
    ("gspec.verify", "run_suite", "verify.run_suite"),
    ("gspec.verify", "brute_force_perfect_law", "verify.brute_force_perfect_law"),
    ("gspec.verify", "brute_force_discrete_law", "verify.brute_force_discrete_law"),
    ("gspec.verify", "check_refinement", "verify.check_refinement"),
    ("gspec.verify", "check_piecewise", "verify.check_piecewise"),
)

OP_SPAN = "op"


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN] + [layer for _, _, layer in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = {}
        # Frame: [name id, start, child time, span id, stash].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.recording = False
        self.op = -1
        self._t0 = time.perf_counter()
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- spans ------------------------------------------------------------

    def enter(self, name_id: int) -> list:
        span = -1
        if self.recording:
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.span_op.append(self.op)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [name_id, time.perf_counter(), 0.0, span, None]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        name_id = frame[0]
        self.calls[name_id] += 1
        self.self_s[name_id] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.span_start[frame[3]] = frame[1] - self._t0
            self.span_end[frame[3]] = end - self._t0

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent(self) -> list | None:
        return self._stack[-1] if self._stack else None

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call finds where they go."""
        if not self._patches:
            self._find_patches()
        for owner, key, wrapper, _ in self._patches:
            setattr(owner, key, wrapper)

    def _find_patches(self) -> None:
        for module_name, path, layer in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            after = _AFTER.get(layer)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(layer, original, after))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, after)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "gspec" or name.startswith("gspec.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, _, original in reversed(self._patches):
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, wrapper, owner.__dict__[key] if isinstance(owner, type)
                              else getattr(owner, key)))

    def _wrap(self, layer: str, original, after):
        name_id = self._ids[layer]
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(tracer, frame, args, kwargs, result)
            return result

        return traced

    # -- the op span -------------------------------------------------------

    def begin_op(self, op: int) -> list:
        self.op = op
        return self.enter(0)

    def end_op(self, frame: list) -> None:
        self.exit(frame)
        self.op = -1

    def write_spans(self, path: str) -> int:
        """One JSON line per recorded span: id, name, op, parent, start, end
        (seconds from the tracer's creation)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.span_name)):
                handle.write(json.dumps([i, self.names[self.span_name[i]], self.span_op[i],
                                         self.span_parent[i], round(self.span_start[i], 9),
                                         round(self.span_end[i], 9)]) + "\n")
        return len(self.span_name)


# -- counts read from arguments and results ---------------------------------


def _after_coherent(tracer: Tracer, frame, args, kwargs, verdict) -> None:
    tracer.count(f"spectra.coherent_complement.rule.{verdict.reason}")


def _after_order(tracer: Tracer, frame, args, kwargs, result) -> None:
    tracer.count("poset.Order.pairs", len(args[0].relation))


def _after_enumerate(tracer: Tracer, frame, args, kwargs, closed) -> None:
    tracer.count("poset.enumerate_closed_sets.found", len(closed))
    tracer.count("poset.enumerate_closed_sets.masks", 1 << len(args[0].elements))
    parent = tracer.parent()
    if parent is not None and tracer.names[parent[0]] == "verify.brute_force_perfect_law" \
            and parent[4] is None:
        parent[4] = closed  # closed(pre), the first enumeration of the law


def _after_perfect_law(tracer: Tracer, frame, args, kwargs, report) -> None:
    closed = frame[4]
    if closed is None:
        return
    pre = args[0] if args else kwargs["pre"]
    E = frozenset(args[1] if len(args) > 1 else kwargs["E"])
    complement = frozenset(pre.order.elements) - E
    tracer.count("verify.brute_force_perfect_law.mixtures", len(closed) ** 2)
    # (V1 & E) | (V2 & complement) is determined by its two disjoint halves,
    # so the distinct mixtures are the product of the distinct halves.
    tracer.count("verify.brute_force_perfect_law.distinct",
                 len({V & E for V in closed}) * len({V & complement for V in closed}))


def _after_chain(tracer: Tracer, frame, args, kwargs, steps) -> None:
    tracer.count("mutation.steps", len(steps))
    tracer.count("mutation.exact_steps", sum(post.exact for _, post in steps))
    tracer.count("mutation.bracket_width_pairs", sum(
        len(post.upper.order.relation - post.lower.order.relation)
        for _, post in steps if not post.exact))


def _after_suite(tracer: Tracer, frame, args, kwargs, reports) -> None:
    tracer.count("verify.reports", len(reports))
    tracer.count("verify.reports_failed", sum(not r.passed for r in reports))


_AFTER = {
    "spectra.coherent_complement": _after_coherent,
    "poset.Order": _after_order,
    "poset.enumerate_closed_sets": _after_enumerate,
    "verify.brute_force_perfect_law": _after_perfect_law,
    "mutation.chain_order": _after_chain,
    "verify.run_suite": _after_suite,
}


def layer_metrics(tracer: Tracer, passes: int, cache: dict[str, int]) -> dict[str, float]:
    """Per-pass values of every layer metric except the ``trace.*`` ones."""
    out: dict[str, float] = {}
    ids = tracer._ids
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in METRICS:
        layer, _, quantity = name.rpartition(".")
        if quantity == "calls" and layer in ids:
            out[name] = tracer.calls[ids[layer]] / passes
        elif quantity == "self_s" and layer in ids:
            out[name] = tracer.self_s[ids[layer]] / passes
        elif name in counts:
            out[name] = counts[name] / passes
    calls = tracer.calls[ids["spectra.coherent_complement"]]
    undecided = counts.get("spectra.coherent_complement.rule.no-rule", 0)
    out["spectra.coherent_complement.decided_ratio"] = ratio(calls - undecided, calls)
    out["poset.enumerate_closed_sets.yield"] = ratio(
        counts.get("poset.enumerate_closed_sets.found", 0),
        counts.get("poset.enumerate_closed_sets.masks", 0))
    out["mutation.exact_step_ratio"] = ratio(counts.get("mutation.exact_steps", 0),
                                             counts.get("mutation.steps", 0))
    out["verify.brute_force_perfect_law.yield"] = ratio(
        counts.get("verify.brute_force_perfect_law.distinct", 0),
        counts.get("verify.brute_force_perfect_law.mixtures", 0))
    for key, value in cache.items():
        out[f"poset.longest_chain.{key}"] = value / passes
    for name in METRICS:
        out.setdefault(name, 0.0)
    return out
