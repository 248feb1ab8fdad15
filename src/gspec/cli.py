"""Command-line frontend.

Reads poset/filtration/annotation documents, runs the engine, and emits
orders as JSON, Hasse diagrams as DOT, or terse text.  Identical inputs
produce byte-identical outputs.

Exit codes: 0 success; 1 validation error or normalisation warnings; 2 an
undetermined coherence question under --policy error; 3 an inexact result
under --require-exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Collection, Iterable, Mapping

from . import filtration as spf
from . import mutation as mut
from . import verify
from .poset import (
    DEFAULT_ENUMERATION_BOUND,
    GspecError,
    Order,
    UnknownElement,
    cb_filtration,
    check_axioms,
    covering_pairs,
    is_t0,
    select,
)
from .spectra import PRESET_NAMES, PrimePoset, load_prime_poset, preset


class UsageError(GspecError, ValueError):
    """An option value the CLI's own checks reject."""


class Inexact(GspecError):
    """A bounded result where an exact order is required."""


# The first class an error belongs to gives its exit code.
_EXIT_CODES = ((mut.UndeterminedCoherence, 2), (Inexact, 3), (GspecError, 1), (OSError, 1))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; keep 2 reserved for
        # undetermined coherence.
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        return args.handler(args)
    except (GspecError, OSError) as exc:
        print(f"gspec: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspec",
        description="Closure orders of tilted hearts over finite prime posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def poset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in example poset")
        p.add_argument("--file", help="poset JSON document")

    def filtration_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--levels", help="JSON list of levels, e.g. '[[\"m\"],[\"m\"]]'")
        p.add_argument("--f", help="JSON level function, e.g. '{\"m\":0,\"o\":-1}'")
        p.add_argument("--height-filtration", action="store_true",
                       help="use the height filtration of the poset")
        p.add_argument("--codim", metavar="FILE",
                       help="JSON codimension function file")

    def output_args(p: argparse.ArgumentParser,
                    formats: tuple[str, ...] = ("json", "text")) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write to this path instead of stdout")

    def engine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--annotations", metavar="FILE",
                       help="JSON step annotations {\"steps\":[{\"i\":2,\"perfect\":true}]}")
        p.add_argument("--policy", choices=mut.POLICIES, default=mut.POLICY_ERROR)

    def dot_output_args(p: argparse.ArgumentParser) -> None:
        output_args(p, ("json", "dot", "text"))

    def command(name: str, help: str, handler, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for group in groups:
            group(p)
        p.set_defaults(handler=handler)
        return p

    engine = (poset_args, filtration_args, engine_args)
    command("presets", "list the built-in posets", _cmd_presets)
    command("validate", "load a poset and check its axioms", _cmd_validate,
            poset_args, output_args)
    command("filtration", "normalise and classify a filtration", _cmd_filtration,
            poset_args, filtration_args, output_args)
    p = command("closure", "closure order of the heart of a filtration", _cmd_closure,
                *engine, dot_output_args)
    p.add_argument("--steps", action="store_true", help="emit every chain step")
    p.add_argument("--require-exact", action="store_true")
    command("cb", "Cantor-Bendixson filtration of an order", _cmd_cb, *engine, output_args)
    p = command("mutate", "apply one mutation to an order", _cmd_mutate, *engine, dot_output_args)
    p.add_argument("--at", required=True, help="JSON list: the closed class to mutate at")
    p.add_argument("--rule", choices=("auto", "discrete", "perfect", "general"),
                   default="auto")
    p.add_argument("--require-exact", action="store_true")
    command("check", "run the brute-force property suite", _cmd_check, *engine, output_args)

    return parser


# -- input plumbing ----------------------------------------------------------


def _load_poset(args: argparse.Namespace) -> PrimePoset:
    if bool(args.preset) == bool(args.file):
        raise UsageError("exactly one of --preset or --file is required")
    if args.preset:
        return preset(args.preset)
    return load_prime_poset(_read_json("--file", args.file, path=True))


def _read_json(flag: str, value: str, path: bool = False) -> object:
    """JSON of an option, or of the file it names.  Text that is not UTF-8,
    not JSON, nested too deeply or holding an integer too long to convert is
    reported against the flag."""
    try:
        if path:
            with open(value, encoding="utf-8") as handle:
                value = handle.read()
        return json.loads(value)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{flag} is not valid JSON: {exc}") from None


def _check_points(flag: str, names: Collection[str], order: Order) -> None:
    """Each name must be a string naming a point; the error names the flag."""
    if not all(isinstance(p, str) for p in names):
        raise UsageError(f"{flag} members must be point names (strings)")
    strangers = sorted(set(names) - set(order.elements))
    if strangers:
        raise UnknownElement(f"{flag} names {strangers[0]!r}, which is not a point")


def _level_function(flag: str, value: object, order: Order) -> dict[str, int]:
    """A JSON object giving an integer to every point and to nothing else."""
    if not isinstance(value, dict):
        raise UsageError(f"{flag} must be a JSON object")
    if not all(_is_int(v) for v in value.values()):
        raise UsageError(f"{flag} values must be integers")
    _check_points(flag, value, order)
    missing = set(order.elements) - set(value)
    if missing:
        raise UsageError(f"{flag} gives no value for {sorted(missing)}")
    return value


def _parse_filtration(
    args: argparse.Namespace, poset: PrimePoset, required: bool = True
) -> tuple[spf.SpFiltration | None, bool]:
    """Returns the filtration and whether ``--levels`` lost trivial levels."""
    given = args.height_filtration + sum(
        source is not None for source in (args.levels, args.f, args.codim))
    if given > 1:
        raise UsageError("give at most one filtration source")
    if not given:
        if required:
            raise UsageError(
                "a filtration is required: --levels, --f, --height-filtration or --codim"
            )
        return None, False

    stripped = 0
    if args.levels is not None:
        levels = _read_json("--levels", args.levels)
        if not isinstance(levels, list) or not all(isinstance(l, list) for l in levels):
            raise UsageError("--levels must be a JSON list of lists")
        _check_points("--levels", [p for level in levels for p in level], poset.base)
        filt = spf.validate_filtration(poset, levels)
        stripped = len(levels) - filt.n
        if stripped:
            print(f"gspec: warning: stripped {stripped} trivial level(s)", file=sys.stderr)
    elif args.f is not None:
        f = _level_function("--f", _read_json("--f", args.f), poset.base)
        filt = spf.f_to_filtration(poset, f)
    elif args.height_filtration:
        filt = spf.height_filtration(poset)
    else:
        d = _read_json("--codim", args.codim, path=True)
        filt = spf.codim_filtration(poset, _level_function("--codim", d, poset.base))
    return filt, bool(stripped)


def _optional_chain(
    args: argparse.Namespace, poset: PrimePoset
) -> tuple[mut.BoundedOrder, bool]:
    """The final order of the chain of the optional filtration (the standard
    order without one), and whether trivial levels were stripped."""
    filt, warned = _parse_filtration(args, poset, required=False)
    steps = [] if filt is None else mut.chain_order(
        poset, filt, _parse_annotations(args), args.policy
    )
    return mut.final_order(steps, poset), warned


def _parse_annotations(args: argparse.Namespace) -> dict[int, bool]:
    if not getattr(args, "annotations", None):
        return {}
    doc = _read_json("--annotations", args.annotations, path=True)
    entries = doc.get("steps") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise UsageError('annotations must look like {"steps": [{"i": 2, "perfect": true}]}')
    out: dict[int, bool] = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"i", "perfect"}:
            raise UsageError("each step annotation needs exactly the keys 'i' and 'perfect'")
        if not _is_int(entry["i"]):
            raise UsageError("step annotation 'i' must be an integer")
        if not isinstance(entry["perfect"], bool):
            raise UsageError("step annotation 'perfect' must be a boolean")
        if entry["i"] in out:
            raise UsageError(f"step annotation 'i' = {entry['i']} is given twice")
        out[entry["i"]] = entry["perfect"]
    return out


def _is_int(value: object) -> bool:
    """A JSON integer; bool is a subclass of int in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# -- output builders ---------------------------------------------------------


_escape = json.encoder.encode_basestring_ascii


def _dumps(value: object) -> str:
    """Canonical JSON: the bytes the ``json`` module writes with ``indent=2``
    and ``sort_keys=True``, plus a newline.

    That module uses its C encoder only when ``indent`` is None, so the
    indented form is written here, joining lists of strings in one step.
    Takes dicts with string keys, lists, tuples, strings, ints, booleans,
    None and :class:`_Fragment`; anything else raises :class:`TypeError`.
    """
    out: list[str] = []
    _write(value, "\n", out)
    out.append("\n")
    return "".join(out)


class _Fragment(str):
    """JSON text already written as if at depth 0.  Escaped JSON strings hold
    no raw newline, so every newline in it starts a line and it is placed at
    any depth by indenting those."""


def _write(value: object, newline: str, out: list[str]) -> None:
    """Append the JSON of ``value``; ``newline`` starts a line at its depth."""
    if isinstance(value, _Fragment):
        out.append(value.replace("\n", newline))
    elif isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _escape(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {str}:
            out.append("[" + inner + ("," + inner).join(map(_escape, value)) + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _list_fragment(items: list[str]) -> _Fragment:
    """A JSON list from the JSON text of its items, each written at depth 1."""
    return _Fragment("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def _order_fragments(order: Order, relations: bool = True) -> dict[str, _Fragment]:
    """``elements``, ``covers`` and, if asked, ``relations`` (the strict
    pairs) as JSON text.  Each name is escaped once; a pair is the text of
    its smaller point's opening and its larger point's closing, so a
    point's pairs are one join of closings, and ascending indices give
    sorted pairs because the elements are sorted."""
    names = list(map(_escape, order.elements))
    lead = ["[\n    " + name + ",\n    " for name in names]
    tail = [name + "\n  ]" for name in names]

    def pairs(masks: Iterable[int]) -> _Fragment:
        return _list_fragment([opening + (",\n  " + opening).join(select(tail, m))
                               for opening, m in zip(lead, masks) if m])

    fields = {"elements": _list_fragment(names), "covers": pairs(order.covers)}
    if relations:
        fields["relations"] = pairs(m & ~(1 << i) for i, m in enumerate(order.up))
    return fields


def hasse_dot(order: Order, heights: Mapping[str, int]) -> str:
    """Hasse diagram as deterministic DOT: transitive reduction, nodes in
    rank groups by height, edges from the smaller prime to the larger."""
    quoted = [_quote(p) for p in order.elements]
    lines = ["digraph gspec {", "  rankdir=BT;", "  node [shape=circle];"]
    for h in sorted(set(heights[p] for p in order.elements)):
        group = " ".join(f"{q};" for p, q in zip(order.elements, quoted) if heights[p] == h)
        lines.append(f"  {{ rank=same; {group} }}")
    for q, m in zip(quoted, order.covers):
        lines.extend(f"  {q} -> {r};" for r in select(quoted, m))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _order_json(co: mut.ClosureOrder) -> dict:
    return {**_order_fragments(co.order), "provenance": co.provenance}


def _bounded_json(bounded: mut.BoundedOrder) -> dict:
    if bounded.exact:
        return {"exact": True, "order": _order_json(bounded.lower)}
    return {
        "exact": False,
        "lower": _order_json(bounded.lower),
        "upper": _order_json(bounded.upper),
    }


def _order_text(order: Order) -> str:
    covers = covering_pairs(order)
    if not covers:
        return f"discrete ({len(order.elements)} isolated points)\n"
    head = f"order on {len(order.elements)} points ({len(covers)} covers)\n"
    return head + "".join(f"{p} < {q}\n" for p, q in covers)


def _render_bounded(args: argparse.Namespace, poset: PrimePoset,
                    bounded: mut.BoundedOrder) -> str:
    if args.format == "json":
        return _dumps(_bounded_json(bounded))
    if args.format == "dot":
        render, heads = (lambda order: hasse_dot(order, poset.height)), (
            "// inexact result: lower bound\n", "// inexact result: upper bound\n")
    else:
        render, heads = _order_text, ("inexact; lower bound:\n", "upper bound:\n")
    if bounded.exact:
        return render(bounded.lower.order)
    return heads[0] + render(bounded.lower.order) + heads[1] + render(bounded.upper.order)


# -- subcommands -------------------------------------------------------------


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        poset = preset(name)
        dim = max(poset.height.values()) if poset.height else 0
        print(f"{name}: {len(poset.base.elements)} primes, dimension {dim}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    # Soberness needs every closed set, so above the enumeration limit only
    # the polynomial T0 test is reported.
    if len(poset.base.elements) <= DEFAULT_ENUMERATION_BOUND:
        report = check_axioms(poset.base)
        axioms = {"t0": report.t0, "sober": report.sober}
    else:
        axioms = {"t0": is_t0(poset.base)}
    if args.format == "json":
        payload = {
            **_order_fragments(poset.base, relations=False),
            "heights": dict(sorted(poset.height.items())),
            "axioms": axioms,
        }
        _emit(args, _dumps(payload))
    else:
        covers = sum(m.bit_count() for m in poset.base.covers)
        lines = [f"{len(poset.base.elements)} primes, {covers} covers"]
        for axiom, holds in axioms.items():
            lines.append(f"{axiom}: {'pass' if holds else 'FAIL'}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all(axioms.values()) else 1


def _cmd_filtration(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    filt, warned = _parse_filtration(args, poset)
    flags = spf.classify(poset, filt)
    f = spf.filtration_to_f(filt)
    levels = [sorted(poset.base.names(level)) for level in filt.levels]
    if args.format == "json":
        payload = {
            "levels": levels,
            "f": dict(sorted(f.items())),
            "classification": flags,
        }
        _emit(args, _dumps(payload))
    else:
        lines = [f"length {filt.n}"]
        for i, level in enumerate(levels):
            lines.append(f"V{i} = {{{','.join(level)}}}")
        lines.append(
            "classification: "
            + ", ".join(k for k, v in sorted(flags.items()) if v)
        )
        _emit(args, "\n".join(lines) + "\n")
    return 1 if warned else 0


def _cmd_closure(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    filt, warned = _parse_filtration(args, poset)
    annotations = _parse_annotations(args)
    steps = mut.chain_order(poset, filt, annotations, args.policy)
    final = mut.final_order(steps, poset)
    if args.require_exact and not final.exact:
        raise Inexact("result is inexact")

    if args.steps:
        if args.format == "json":
            # The final order is the last step's result: build its dict once.
            results = [_bounded_json(post) for _, post in steps]
            payload = {
                "steps": [
                    {
                        "index": step.index,
                        "rule": step.rule,
                        "perfect": step.perfect,
                        "support": sorted(poset.base.names(step.support)),
                        "class": sorted(poset.base.names(step.mutation_class)),
                        "result": result,
                    }
                    for (step, _), result in zip(steps, results)
                ],
                "final": results[-1] if steps else _bounded_json(final),
            }
            text = _dumps(payload)
        else:
            prefix = "// " if args.format == "dot" else ""
            chunks = []
            for step, post in steps:
                suffix = " (perfect)" if step.perfect else ""
                chunks.append(f"{prefix}step {step.index}: {step.rule}{suffix}\n")
                chunks.append(_render_bounded(args, poset, post))
            text = "".join(chunks)
    else:
        text = _render_bounded(args, poset, final)
    _emit(args, text)
    return 1 if warned else 0


def _cmd_cb(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    final, warned = _optional_chain(args, poset)
    if not final.exact:
        raise Inexact("cannot take the filtration of an inexact order")
    cb = cb_filtration(final.lower.order)
    layers = [sorted(poset.base.names(layer)) for layer in cb.layers]
    if args.format == "json":
        payload = {"rank": cb.rank, "layers": layers}
        _emit(args, _dumps(payload))
    else:
        lines = [f"rank {cb.rank}"]
        for i, layer in enumerate(layers):
            lines.append(f"X{i} = {{{','.join(layer)}}}")
        _emit(args, "\n".join(lines) + "\n")
    return 1 if warned else 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    base, warned = _optional_chain(args, poset)
    if not base.exact:
        raise Inexact("cannot mutate an inexact order")
    at = _read_json("--at", args.at)
    if not isinstance(at, list):
        raise UsageError("--at must be a JSON list of point names")
    _check_points("--at", at, poset.base)
    e = poset.base.mask(at)
    current = base.lower
    rule = args.rule
    if rule == "auto":
        rule = "discrete" if current.order.is_discrete(e) else "general"
    if rule == "discrete":
        result = mut.exact_bounds(mut.mutate_discrete(current, e))
    elif rule == "perfect":
        result = mut.exact_bounds(mut.mutate_perfect(current, e))
    else:
        result = mut.mutate_general(current, e)
    if args.require_exact and not result.exact:
        raise Inexact("result is inexact")
    _emit(args, _render_bounded(args, poset, result))
    return 1 if warned else 0


def _cmd_check(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    filt, warned = _parse_filtration(args, poset)
    reports = verify.run_suite(poset, filt, _parse_annotations(args), args.policy)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        payload = {
            "passed": not failed,
            "reports": [r.to_json() for r in reports],
        }
        _emit(args, _dumps(payload))
    else:
        lines = [f"PASS {r.name}" if r.passed else f"FAIL {_failure(r)}" for r in reports]
        _emit(args, "\n".join(lines) + "\n")
    if failed:
        raise GspecError(f"first failure: {_failure(failed[0])}")
    return 1 if warned else 0


def _failure(report: verify.PropertyReport) -> str:
    """A failed report's name and its witness."""
    return f"{report.name} ({', '.join(f'{k}={v}' for k, v in report.counterexample)})"


if __name__ == "__main__":
    sys.exit(main())
