"""Command-line frontend.

Reads poset/filtration/annotation documents, runs the engine, and emits
orders as JSON, Hasse diagrams as DOT, or terse text.  Identical inputs
produce byte-identical outputs.

Exit codes: 0 success; 2 an undetermined coherence question under
--policy error; 3 an inexact result under --require-exact, or cb or mutate
on an inexact order; 1 any other error, a failing check report or a
normalisation warning.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from operator import xor
from typing import Callable, Collection, Iterable, Mapping, NoReturn

from . import filtration as spf
from . import mutation as mut
from . import verify
from .poset import (
    GspecError,
    Order,
    UnknownElement,
    bits,
    cb_filtration,
    covering_pairs,
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, commands = _build_parser()
        # A command's own parser reads the rest of its argv; the top-level
        # parser would classify every word before handing them to it, so it
        # reads only an argv that names no command (and prints its help).
        # A well-formed argv skips argparse too; it reads every other argv,
        # so help, usage errors and abbreviations stay its own.
        if argv and argv[0] in commands:
            command = commands[argv[0]]
            args = _plain_args(command, argv[1:]) or command.parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help; usage errors raise UsageError
        return int(exc.code or 0)
    except (GspecError, OSError) as exc:
        print(f"gspec: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`UsageError`
    instead of printing a usage block; subcommand parsers share the class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name."""
    parser = _Parser(
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
    command("validate", "load and check a poset document", _cmd_validate,
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

    return parser, sub.choices


@functools.cache
def _option_table(parser: argparse.ArgumentParser) -> tuple[
        dict[str, tuple[str, bool, Collection[str] | None]], dict[str, object], frozenset[str]]:
    """``parser``'s exact long options that store one untyped value or
    ``True``, each as (destination, takes a value, choices); the values it
    gives every destination no word sets; the destinations it requires."""
    options = {}
    for action in parser._actions:
        if type(action) is argparse._StoreTrueAction or (
                type(action) is argparse._StoreAction
                and action.nargs is None and action.type is None):
            for option in action.option_strings:
                if option.startswith("--"):
                    options[option] = (action.dest, action.nargs is None, action.choices)
    defaults = {**parser._defaults, **{
        action.dest: action.default for action in parser._actions
        if argparse.SUPPRESS not in (action.dest, action.default)}}
    required = frozenset(action.dest for action in parser._actions if action.required)
    return options, defaults, required


def _plain_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``parser`` builds from ``argv`` when every word is an
    option of :func:`_option_table`, none repeats, every required one is
    given, and each that takes a value is followed by a nonempty word that
    does not start with ``-`` and is among its choices; None otherwise."""
    options, defaults, required = _option_table(parser)
    given: dict[str, object] = {}
    words = iter(argv)
    for word in words:
        option = options.get(word)
        if option is None:
            return None
        dest, takes_value, choices = option
        if dest in given:
            return None
        if takes_value:
            value = next(words, "")
            if not value or value[0] == "-" or (choices is not None and value not in choices):
                return None
            given[dest] = value
        else:
            given[dest] = True
    if not required <= given.keys():
        return None
    vars(args := argparse.Namespace()).update(defaults, **given)
    return args


# -- input plumbing ----------------------------------------------------------


def _load_poset(args: argparse.Namespace) -> PrimePoset:
    if (args.preset is None) == (args.file is None):
        raise UsageError("exactly one of --preset or --file is required")
    if args.preset is not None:
        return preset(args.preset)
    return load_prime_poset(_read_json("--file", args.file, path=True))


def _read_json(flag: str, value: str, path: bool = False) -> object:
    """JSON of an option, or of the file it names, decoded as text mode would
    (strict UTF-8, ``\\r\\n`` and ``\\r`` read as ``\\n``).  A file that cannot be
    read, or text that is not UTF-8, not JSON, nested too deeply or holding
    an integer too long to convert, is reported against the flag."""
    try:
        if path:
            with open(value, "rb", buffering=0) as handle:
                value = handle.read().decode()
            if "\r" in value:
                value = value.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(value)
    except OSError as exc:
        raise UsageError(f"{flag} cannot be read: {exc}") from None
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
    given = (args.height_filtration + (args.levels is not None) + (args.f is not None)
             + (args.codim is not None))
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


def _chain(
    args: argparse.Namespace, poset: PrimePoset, required: bool = True
) -> tuple[list[tuple[mut.MutationStep, mut.BoundedOrder]], mut.BoundedOrder, bool]:
    """The chain of the filtration, its final order (the standard order
    without one) and whether trivial levels were stripped."""
    filt, warned = _parse_filtration(args, poset, required)
    steps = [] if filt is None else mut.chain_order(
        poset, filt, _parse_annotations(args), args.policy
    )
    return steps, mut.final_order(steps, poset), warned


def _parse_annotations(args: argparse.Namespace) -> dict[int, bool]:
    if args.annotations is None:
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
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"--out cannot be written: {exc}") from None


def _emit_document(args: argparse.Namespace, members: dict[str, str], lines: list[str]) -> None:
    """Under ``--format json`` the object of ``members``, each a key and its
    JSON text at depth 1; else ``lines``."""
    entries = (_escape(key) + ": " + members[key] for key in sorted(members))
    text = _string_list(entries, "\n", "{}") if args.format == "json" else "\n".join(lines)
    _emit(args, text + "\n")


def _name_lists(lists: Iterable[Iterable[str]]) -> str:
    """The JSON text at depth 1 of a list of lists of names."""
    return _string_list((_string_list(map(_escape, names), "\n    ") for names in lists), "\n  ")


def _scalars(values: Mapping[str, object], text: Callable[[object], str] = int.__repr__) -> str:
    """The JSON text at depth 1 of an object of scalars, each written by ``text``."""
    return _string_list((_escape(k) + ": " + text(values[k]) for k in sorted(values)),
                        "\n  ", "{}")


# -- output builders ---------------------------------------------------------


_escape = json.encoder.encode_basestring_ascii


class _OrderWriter:
    """The JSON text of one call's orders, all on the sorted ``elements``.

    Each name is escaped once.  A row, the pairs of point ``i`` with the
    points at the bits of a mask, is ``i``'s opening text and each larger
    point's closing text, joined once per distinct ``(i, mask)`` and shared
    by the covers and relations of every order the call writes.  An order's
    covers and relations are written once, at depth 0, and placed at any
    depth by indenting their newlines, so ``final`` reuses the last step's
    text.  Documents are written from templates, keys in sorted order, into
    :attr:`parts`.
    """

    def __init__(self, elements: tuple[str, ...]):
        self._names = names = list(map(_escape, elements))
        self.parts: list[str] = []
        self._bits = [1 << i for i in range(len(names))]
        self._lead = ["[\n    " + name + ",\n    " for name in names]
        self._tail = [name + "\n  ]" for name in names]
        self._rows: list[dict[int, str]] = [{} for _ in names]
        self._orders: dict[int, tuple[Order, str, str]] = {}
        self._templates: dict[str, tuple[str, ...]] = {}

    def _pairs(self, masks: Iterable[int]) -> str:
        """A pair list with one row per nonzero mask, by ascending point:
        pairs come out sorted because the elements are."""
        tail = self._tail
        rows = (known.get(m) or known.setdefault(
                    m, opening + (",\n  " + opening).join(select(tail, m)))
                for m, known, opening in zip(masks, self._rows, self._lead) if m)
        return _string_list(rows, "\n")

    def _fields(self, order: Order) -> tuple[Order, str, str]:
        """``order`` (held, so its id stays its own), its covers and its
        relations (the strict pairs) at depth 0."""
        fields = self._orders.get(id(order))
        if fields is None:
            fields = self._orders[id(order)] = (
                order, self._pairs(order.covers), self._pairs(map(xor, order.up, self._bits)))
        return fields

    def _template(self, newline: str) -> tuple[str, ...]:
        """The fixed texts of an order whose key starts a line at ``newline``."""
        template = self._templates.get(newline)
        if template is None:
            inner = newline + "  "
            template = self._templates[newline] = (
                inner, "{" + inner + '"covers": ',
                "," + inner + '"elements": ' + _string_list(self._names, inner)
                + "," + inner + '"provenance": ',
                "," + inner + '"relations": ', newline + "}")
        return template

    def names_at(self, mask: int, newline: str) -> str:
        """The JSON list of the names at the bits of ``mask``."""
        return _string_list(select(self._names, mask), newline)

    def order(self, co: mut.ClosureOrder, newline: str) -> None:
        """Append ``co``'s fields and provenance; its key starts a line at
        ``newline``."""
        inner, opening, elements, relations_key, closing = self._template(newline)
        _, covers, relations = self._fields(co.order)
        self.parts += (opening, covers.replace("\n", inner), elements,
                       _string_list(map(_escape, co.provenance), inner),
                       relations_key, relations.replace("\n", inner), closing)

    def bracket(self, bounded: mut.BoundedOrder, newline: str) -> None:
        """Append a bracket: one order when exact, else its two bounds."""
        inner = newline + "  "
        if bounded.exact:
            self.parts.append("{" + inner + '"exact": true,' + inner + '"order": ')
            self.order(bounded.lower, inner)
        else:
            self.parts.append("{" + inner + '"exact": false,' + inner + '"lower": ')
            self.order(bounded.lower, inner)
            self.parts.append("," + inner + '"upper": ')
            self.order(bounded.upper, inner)
        self.parts.append(newline + "}")

    def text(self) -> str:
        """The document appended so far, with its closing newline."""
        self.parts.append("\n")
        return "".join(self.parts)


def hasse_dot(order: Order, quoted: list[str], header: str) -> str:
    """Hasse diagram as deterministic DOT after the header and with the
    quoted names :func:`_renderer` builds: transitive reduction, edges from
    the smaller prime to the larger."""
    return header + "".join(f"  {q} -> {t};\n" for q, m in zip(quoted, order.covers)
                            for t in select(quoted, m)) + "}\n"


def _string_list(texts: Iterable[str], newline: str, brackets: str = "[]") -> str:
    """A JSON list of JSON texts, or with ``brackets`` ``"{}"`` an object of
    member texts (never empty ones), whose opening bracket is at ``newline``'s
    depth.  JSON strings hold no raw newline, so every newline in the list
    starts a line, and it is placed deeper by indenting those."""
    inner = newline + "  "
    text = ("," + inner).join(texts)
    return brackets[0] + inner + text + newline + brackets[1] if text else brackets


def _bracket_json(elements: tuple[str, ...], bounded: mut.BoundedOrder) -> str:
    """The JSON document of one bracket (``closure`` and ``mutate``)."""
    writer = _OrderWriter(elements)
    writer.bracket(bounded, "\n")
    return writer.text()


def _steps_json(elements: tuple[str, ...],
                steps: list[tuple[mut.MutationStep, mut.BoundedOrder]],
                final: mut.BoundedOrder) -> str:
    """The ``closure --steps`` document; ``final`` is the last step's result,
    so its orders' text is written once."""
    writer = _OrderWriter(elements)
    parts, at = writer.parts, "\n      "  # a step's keys start lines at ``at``
    parts.append('{\n  "final": ')
    writer.bracket(final, "\n  ")
    parts.append(',\n  "steps": [' if steps else ',\n  "steps": []')
    opening = '\n    {\n      "class": '
    for step, post in steps:
        parts += (opening, writer.names_at(step.mutation_class, at),
                  ',\n      "index": ', int.__repr__(step.index),
                  ',\n      "perfect": ', "true" if step.perfect else "false",
                  ',\n      "result": ')
        writer.bracket(post, at)
        parts += (',\n      "rule": ', _escape(step.rule),
                  ',\n      "support": ', writer.names_at(step.support, at), "\n    }")
        opening = ',\n    {\n      "class": '
    parts.append("\n  ]\n}" if steps else "\n}")
    return writer.text()


def _order_text(order: Order) -> str:
    covers = covering_pairs(order)
    if not covers:
        return f"discrete ({len(order.elements)} isolated points)\n"
    head = f"order on {len(order.elements)} points ({len(covers)} covers)\n"
    return head + "".join(f"{p} < {q}\n" for p, q in covers)


def _renderer(args: argparse.Namespace,
              poset: PrimePoset) -> Callable[[mut.BoundedOrder], str]:
    """The command's text of a bracket in its ``--format``.  The DOT header,
    with the nodes in rank groups by height, and the quoted names are built
    once, for every order the command renders."""
    elements = poset.base.elements
    if args.format == "json":
        return functools.partial(_bracket_json, elements)
    if args.format == "dot":
        quoted = ['"' + p.replace("\\", "\\\\").replace('"', '\\"') + '"' for p in elements]
        groups: dict[int, list[str]] = {}
        for p, q in zip(elements, quoted):
            groups.setdefault(poset.height[p], []).append(q + ";")
        header = "digraph gspec {\n  rankdir=BT;\n  node [shape=circle];\n" + "".join(
            f"  {{ rank=same; {' '.join(groups[h])} }}\n" for h in sorted(groups))
        render, heads = functools.partial(hasse_dot, quoted=quoted, header=header), (
            "// inexact result: lower bound\n", "// inexact result: upper bound\n")
    else:
        render, heads = _order_text, ("inexact; lower bound:\n", "upper bound:\n")
    return lambda bounded: render(bounded.lower.order) if bounded.exact else (
        heads[0] + render(bounded.lower.order) + heads[1] + render(bounded.upper.order))


# -- subcommands -------------------------------------------------------------


def _cmd_presets(args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        poset = preset(name)
        dim = max(poset.height.values()) if poset.height else 0
        print(f"{name}: {len(poset.base.elements)} primes, dimension {dim}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    covers = covering_pairs(poset.base)
    elements = poset.base.elements
    _emit_document(args, {"covers": _name_lists(covers), "heights": _scalars(poset.height),
                          "elements": _string_list(map(_escape, elements), "\n  ")},
                   [f"{len(elements)} primes, {len(covers)} covers"])
    return 0


def _cmd_filtration(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    filt, warned = _parse_filtration(args, poset)
    flags = spf.classify(filt)
    f = spf.filtration_to_f(filt)
    levels = [list(select(poset.base.elements, level)) for level in filt.levels]
    _emit_document(args, {"levels": _name_lists(levels), "f": _scalars(f),
                          "classification": _scalars(flags, {True: "true", False: "false"}.get)}, [
        f"length {filt.n}",
        *(f"V{i} = {{{','.join(level)}}}" for i, level in enumerate(levels)),
        "classification: " + ", ".join(k for k, v in sorted(flags.items()) if v)])
    return 1 if warned else 0


def _cmd_closure(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    steps, final, warned = _chain(args, poset)
    if args.require_exact and not final.exact:
        raise Inexact("result is inexact")

    if args.steps:
        if args.format == "json":
            text = _steps_json(poset.base.elements, steps, final)
        else:
            prefix = "// " if args.format == "dot" else ""
            render, chunks = _renderer(args, poset), []
            for step, post in steps:
                suffix = " (perfect)" if step.perfect else ""
                chunks.append(f"{prefix}step {step.index}: {step.rule}{suffix}\n")
                chunks.append(render(post))
            text = "".join(chunks)
    else:
        text = _renderer(args, poset)(final)
    _emit(args, text)
    return 1 if warned else 0


def _cmd_cb(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    _, final, warned = _chain(args, poset, required=False)
    if not final.exact:
        raise Inexact("cannot take the filtration of an inexact order")
    layers = [list(select(poset.base.elements, layer))
              for layer in cb_filtration(final.lower.order)]
    rank = len(layers) - 1
    _emit_document(args, {"rank": int.__repr__(rank), "layers": _name_lists(layers)}, [
        f"rank {rank}", *(f"X{i} = {{{','.join(layer)}}}" for i, layer in enumerate(layers))])
    return 1 if warned else 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    _, base, warned = _chain(args, poset, required=False)
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
    _emit(args, _renderer(args, poset)(result))
    return 1 if warned else 0


def _cmd_check(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    filt, warned = _parse_filtration(args, poset)
    reports = verify.run_suite(poset, filt, _parse_annotations(args), args.policy)
    failed = [r for r in reports if not r.passed]
    if args.format == "json":
        _emit(args, '{\n  "passed": ' + ("false" if failed else "true") + ',\n  "reports": '
              + _reports_list(reports).replace("\n", "\n  ") + "\n}\n")
    else:
        lines = [f"PASS {r.name}" if r.passed else f"FAIL {_failure(r)}" for r in reports]
        _emit(args, "\n".join(lines) + "\n")
    if failed:
        raise GspecError(f"first failure: {_failure(failed[0])}")
    return 1 if warned else 0


def _reports_list(reports: list[verify.PropertyReport]) -> str:
    """The JSON list of the reports at depth 0, each from a template, keys in
    sorted order; a failing report's witness pairs are already sorted by key."""
    return _string_list((
        '{\n    "name": ' + _escape(r.name) + ',\n    "passed": true\n  }' if r.passed
        else '{\n    "counterexample": ' + _string_list(
            (_escape(k) + ": " + _escape(v) for k, v in r.counterexample), "\n    ", "{}")
        + ',\n    "name": ' + _escape(r.name) + ',\n    "passed": false\n  }'
        for r in reports), "\n")


def _failure(report: verify.PropertyReport) -> str:
    """A failed report's name and its witness."""
    return f"{report.name} ({', '.join(f'{k}={v}' for k, v in report.counterexample)})"


if __name__ == "__main__":
    sys.exit(main())
