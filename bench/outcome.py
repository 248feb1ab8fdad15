"""Judging one op: exit code, invariants checked without ``gspec``, digest.

An op fails when

(a) ``main`` raises (a traceback for a CLI user);
(b) its exit code is outside the expected set: 0, or 0 and 2 under
    ``--policy error``;
(c) its output breaks an invariant checked here from the benchmark's own
    inclusion order: both bounds are partial orders on the input's points,
    refine inclusion, lower is inside upper, and every filtration level is an
    upper set of the result;
(d) on the default seed, its digest differs from ``reference.json``.

Every failure is attributed to one of the documented defects of the program
(see ``README.md``) or to ``unexplained``; only an unexplained failure makes a
run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

from generators import Poset, bits
from workloads import COHERENT, ENUMERATION_BOUND, Op

ASSUME_COHERENT_ASSERTION = "assume-coherent-assertion"
SIZE_EXCEEDED = "size-exceeded"
FALSE_REFINEMENT = "false-refinement"
UNEXPLAINED = "unexplained"

_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
# run_suite checks a bracketed step's upper bound against ``step.pre``, the
# previous *lower* bound; after two bracketed steps in a row these reports
# fail although the engine's bounds are sound (README.md, defect 3).  A step
# is bracketed exactly when its reports include ``step-N:piecewise-upper``.
_FALSE_REFINEMENT = re.compile(r"step-(\d+):(refinement|piecewise-upper)")

# The JSON fields known at the commit that recorded ``reference.json``; keys
# added later (say a ``decisions`` trace) do not change the digest.
_CLOSURE_STEP_KEYS = ("index", "rule", "perfect", "support", "class", "result")


class Broken(Exception):
    """An output breaks an invariant."""


@dataclass(frozen=True)
class Verdict:
    failed: bool
    cause: str | None = None
    problem: str = ""
    digest: str | None = None


def judge(op: Op, code: int | None, out: str, err: str,
          exc: BaseException | None) -> Verdict:
    """Classify one op's outcome; ``code`` is None when ``main`` raised."""
    if exc is not None:
        if (isinstance(exc, AssertionError) and op.policy == COHERENT
                and "not transitively closed" in str(exc)):
            return Verdict(True, ASSUME_COHERENT_ASSERTION, repr(exc))
        return Verdict(True, UNEXPLAINED, f"raised {exc!r}")
    if code not in op.expected_codes:
        return Verdict(True, *_attribute_exit(op, code, out, err))
    if code == 2:
        if "not determined" not in err:
            return Verdict(True, UNEXPLAINED, f"exit 2 without a coherence message: {err!r}")
        return Verdict(False, digest=_digest(code, None))
    try:
        projection = _CHECKS[(op.kind, op.fmt)](op, out)
    except (Broken, ValueError, KeyError, TypeError) as exc:
        return Verdict(True, UNEXPLAINED, f"invariant: {exc}")
    return Verdict(False, digest=_digest(code, projection))


def _attribute_exit(op: Op, code: int, out: str, err: str) -> tuple[str, str]:
    if op.kind == "check" and code == 1:
        if op.poset.n > ENUMERATION_BOUND and "exceeds enumeration bound" in err:
            return SIZE_EXCEEDED, err.strip()
        try:
            reports = json.loads(out)["reports"]
            names = {r["name"] for r in reports}
            failing = [r["name"] for r in reports if not r["passed"]]
        except (ValueError, KeyError, TypeError):
            names, failing = set(), []
        if failing and all(_after_two_brackets(name, names) for name in failing):
            return FALSE_REFINEMENT, ", ".join(failing)
    return UNEXPLAINED, f"exit {code}: {err.strip()[:200]}"


def _after_two_brackets(name: str, names: set[str]) -> bool:
    """``name`` is a refinement report of step N, and steps N-1 and N were
    both bracketed: the mechanism of defect 3."""
    match = _FALSE_REFINEMENT.fullmatch(name)
    if match is None:
        return False
    n = int(match[1])
    return {f"step-{n - 1}:piecewise-upper", f"step-{n}:piecewise-upper"} <= names


def _digest(code: int, projection) -> str:
    text = json.dumps([code, projection], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- orders as bitmasks ------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Broken(message)


def _masks(poset: Poset, pairs) -> list[int]:
    """Strict up-masks of a list of ``[p, q]`` name pairs."""
    index = poset.index()
    up = [0] * poset.n
    for p, q in pairs:
        up[index[p]] |= 1 << index[q]
    return up


def _closed(up: list[int]) -> list[int]:
    """Transitive closure of strict up-masks (not necessarily acyclic)."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def _reduction(up: list[int]) -> list[int]:
    out = []
    for mask in up:
        above = 0
        for j in bits(mask):
            above |= up[j]
        out.append(mask & ~above)
    return out


def _check_order(op: Op, up: list[int], label: str) -> None:
    """``up`` (strict, as output) is a partial order refining inclusion in
    which every requested level is an upper set."""
    inclusion = [mask & ~(1 << i) for i, mask in enumerate(op.poset.up)]
    for i, mask in enumerate(up):
        _require(not mask >> i & 1, f"{label}: not irreflexive at {op.poset.names[i]}")
        for j in bits(mask):
            _require(up[j] & ~mask == 0, f"{label}: not transitive at {op.poset.names[i]}")
            _require(not up[j] >> i & 1, f"{label}: not antisymmetric at {op.poset.names[i]}")
        _require(mask & ~inclusion[i] == 0,
                 f"{label}: relation above {op.poset.names[i]} not in inclusion")
    for k, level in enumerate(op.levels):
        members = _members(op, level)
        for i in bits(members):
            _require(up[i] & ~members == 0, f"{label}: level {k} is not an upper set")


def _check_bounded(op: Op, bounded: dict, label: str) -> None:
    """A ``gspec`` bounded-order JSON object: each bound is a valid order
    whose ``covers`` are its Hasse diagram, and lower is inside upper."""
    parts = (("order",) if bounded["exact"] else ("lower", "upper"))
    ups = []
    for part in parts:
        order = bounded[part]
        _require(order["elements"] == sorted(op.poset.names), f"{label}: wrong points")
        up = _masks(op.poset, order["relations"])
        _check_order(op, up, f"{label}.{part}")
        _require(_masks(op.poset, order["covers"]) == _reduction(up),
                 f"{label}.{part}: covers are not the Hasse diagram")
        ups.append(up)
    _require(all(lo & ~hi == 0 for lo, hi in zip(ups[0], ups[-1])),
             f"{label}: lower bound exceeds upper bound")
    if op.at is not None:
        E = _members(op, op.at)
        _require(all(up[i] & E == 0 for up in ups for i in range(op.poset.n)
                     if not E >> i & 1),
                 f"{label}: mutation class is not closed")


def _members(op: Op, names) -> int:
    index = op.poset.index()
    mask = 0
    for p in names:
        mask |= 1 << index[p]
    return mask


# -- per-command checks; each returns the digest projection -----------------


def _closure_json(op: Op, out: str):
    payload = json.loads(out)
    steps = payload["steps"]
    _require(len(steps) == len(op.levels), "step count differs from the filtration length")
    universe = frozenset(op.poset.names)
    for k, step in enumerate(steps):
        _require(step["index"] == k + 1, "steps out of order")
        _require(step["support"] == sorted(op.levels[k]), f"step {k + 1}: wrong support")
        _require(step["class"] == sorted(universe - op.levels[k]), f"step {k + 1}: wrong class")
        _check_bounded(op, step["result"], f"step {k + 1}")
    _check_bounded(op, payload["final"], "final")
    if steps:
        _require(payload["final"] == steps[-1]["result"], "final is not the last step")
    else:
        inclusion = [mask & ~(1 << i) for i, mask in enumerate(op.poset.up)]
        _require(_masks(op.poset, payload["final"]["order"]["relations"]) == inclusion,
                 "empty chain: final is not the inclusion order")
    return {"steps": [{key: step[key] for key in _CLOSURE_STEP_KEYS} for step in steps],
            "final": payload["final"]}


def _dot_graphs(out: str) -> list[list[tuple[str, list[tuple[str, str]], set[str]]]]:
    """Per step, the (bound label, edges, nodes) of each digraph."""
    steps: list[list] = []
    label = "order"
    graph = None
    for line in out.splitlines():
        stripped = line.strip()
        if stripped.startswith("// step "):
            steps.append([])
            label = "order"
        elif stripped.startswith("// inexact result: "):
            label = stripped.split(": ")[1].split()[0]
        elif stripped.startswith("digraph "):
            _require(bool(steps), "digraph before the first step header")
            graph = (label, [], set())
        elif stripped == "}":
            steps[-1].append(graph)
            graph = None
        elif graph is not None and "->" in stripped:
            p, q = _QUOTED.findall(stripped)
            graph[1].append((p, q))
        elif graph is not None and stripped.startswith("{ rank=same;"):
            graph[2].update(_QUOTED.findall(stripped))
    return steps


def _closure_dot(op: Op, out: str):
    steps = _dot_graphs(out)
    _require(len(steps) == len(op.levels), "step count differs from the filtration length")
    for k, graphs in enumerate(steps):
        _require([g[0] for g in graphs] in (["order"], ["lower", "upper"]),
                 f"step {k + 1}: unexpected bounds")
        ups = []
        for label, edges, nodes in graphs:
            _require(nodes == set(op.poset.names), f"step {k + 1}.{label}: wrong points")
            covers = _masks(op.poset, edges)
            up = _closed(covers)
            _check_order(op, up, f"step {k + 1}.{label}")
            _require(_reduction(up) == covers, f"step {k + 1}.{label}: edges not a Hasse diagram")
            ups.append(up)
        _require(all(lo & ~hi == 0 for lo, hi in zip(ups[0], ups[-1])),
                 f"step {k + 1}: lower bound exceeds upper bound")
    return out


def _check_json(op: Op, out: str):
    payload = json.loads(out)
    reports = payload["reports"]
    _require(payload["passed"] == all(r["passed"] for r in reports), "passed flag disagrees")
    _require(payload["passed"], "exit 0 with failing reports")
    return {"passed": payload["passed"],
            "reports": [{key: r[key] for key in ("name", "passed", "counterexample") if key in r}
                        for r in reports]}


def _cb_json(op: Op, out: str):
    payload = json.loads(out)
    layers = [frozenset(layer) for layer in payload["layers"]]
    _require(payload["rank"] == len(layers) - 1, "rank is not the number of steps")
    _require(layers[-1] == frozenset(op.poset.names), "last layer is not every point")
    _require(all(a < b for a, b in zip(layers, layers[1:])), "layers not strictly increasing")
    maxima = {op.poset.names[i] for i, mask in enumerate(op.poset.up) if mask == 1 << i}
    _require(maxima <= layers[0], "an inclusion-maximal point is missing from the first layer")
    return {"rank": payload["rank"], "layers": payload["layers"]}


def _mutate_json(op: Op, out: str):
    payload = json.loads(out)
    _check_bounded(op, payload, "result")
    return {key: payload[key] for key in ("exact", "order", "lower", "upper") if key in payload}


def _filtration_json(op: Op, out: str):
    payload = json.loads(out)
    _require(payload["levels"] == [sorted(level) for level in op.levels], "wrong levels")
    f = {p: max((i for i, level in enumerate(op.levels) if p in level), default=-1)
         for p in op.poset.names}
    _require(payload["f"] == f, "level function does not round-trip")
    _require(set(payload["classification"]) >= {"intermediate", "slice", "truncated_slice"},
             "classification flags missing")
    return {key: payload[key] for key in ("levels", "f", "classification")}


_CHECKS = {
    ("closure", "json"): _closure_json,
    ("closure", "dot"): _closure_dot,
    ("check", "json"): _check_json,
    ("cb", "json"): _cb_json,
    ("mutate", "json"): _mutate_json,
    ("filtration", "json"): _filtration_json,
}
