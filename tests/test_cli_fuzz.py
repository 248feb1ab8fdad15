"""Whole-CLI fuzz fence: seeded random invocations of every command that
reads a poset, run in-process through ``cli.main``.

Documents have up to 8 points and 0 to 4 valid coherence annotations, or one
defect: a dropped key, a wrong type or a repeated name.  Options draw
``--levels`` (sometimes with trivial, non-closed, non-descending or unknown
levels), ``--f`` with values in -3..3, stretched by 2 or 3 so that levels
repeat, shifted far outside that range or spanning more levels than the
bound, ``--height-filtration``, ``--annotations``, every policy, ``--steps``
and ``--require-exact``.  Some invocations carry a malformed flag: an unknown
choice, a missing value or an unknown option.
"""

import json
import random
from collections import Counter

from conftest import (
    ONESTEP_NOT_TRANSITIVE,
    random_monotone_f,
    random_order,
    random_upper_set,
    strict_pairs,
)
from gspec import MAX_LEVELS, POLICIES, POLICY_ASSUME_COHERENT, covering_pairs
from gspec.cli import main

DRAWS = 1200
COMMANDS = ("validate", "filtration", "closure", "cb", "mutate", "check")
ENGINE_COMMANDS = ("closure", "cb", "mutate", "check")


def _document(rng, order):
    """A poset document for ``order``; returns it and whether it is damaged."""
    doc = {"elements": list(order.elements),
           "covers": [list(c) for c in covering_pairs(order)]}
    if rng.random() < 0.3:
        doc["heights"] = dict(zip(order.elements, order.heights))
    pairs, keys = sorted(strict_pairs(order)), set()
    for _ in range(rng.randint(0, 4) if pairs else 0):
        p, q = rng.choice(pairs)
        i, j = order.index[p], order.index[q]
        members = order.up[i] & order.down[j]
        W = sorted(order.names(random_upper_set(rng, order, members) & members))
        if (p, q, tuple(W)) not in keys:
            keys.add((p, q, tuple(W)))
            doc.setdefault("coherence", []).append(
                {"p": p, "q": q, "W": W, "coherent": rng.random() < 0.5})
    if rng.random() >= 0.15:
        return doc, False
    entries = doc.get("coherence", [])
    damage = rng.choice(["drop", "type", "repeat"])
    if damage == "drop":
        if entries and rng.random() < 0.5:
            del rng.choice(entries)["W"]
        else:
            del doc["elements"]
    elif damage == "type":
        target = rng.choice(["elements", "covers", "heights", "coherent"])
        if target == "coherent" and entries:
            rng.choice(entries)["coherent"] = "true"
        elif target == "heights":
            doc["heights"] = {p: str(h) for p, h in zip(order.elements, order.heights)}
        else:
            doc[target] = {"x0": "x0"} if target == "covers" else "x0"
    elif entries and rng.random() < 0.5:
        entries.append(dict(rng.choice(entries)))
    else:
        doc["elements"].append(rng.choice(doc["elements"]))
    return doc, True


def _levels(rng, order):
    """A descending chain of upper sets, sometimes with a flaw."""
    chain, v = [], order.full_mask
    for _ in range(rng.randint(1, 4)):
        v = random_upper_set(rng, order, v)
        chain.append(sorted(order.names(v)))
    flaw = rng.random()
    if flaw < 0.1:
        chain.insert(0, list(order.elements))
    elif flaw < 0.2:
        chain.append([])
    elif flaw < 0.25:
        chain.append(sorted(order.names(rng.getrandbits(len(order.elements)))))
    elif flaw < 0.3:
        chain.reverse()
    elif flaw < 0.33:
        chain[0] = chain[0] + ["zz"]
    return json.dumps(chain)


def _level_function(rng, order):
    """A level function and whether its span is above the bound."""
    if rng.random() < 0.7:
        stretch = rng.choice((1, 1, 2, 3))
        f = {p: stretch * min(v, 3) for p, v in random_monotone_f(rng, order).items()}
    else:
        f = {p: rng.randint(-3, 3) for p in order.elements}
    shift = rng.random()
    if shift < 0.1:
        f = {p: v + rng.choice((-1, 1)) * 10 ** rng.randint(2, 30) for p, v in f.items()}
    elif shift < 0.15:
        bound = max(MAX_LEVELS, len(order.elements))
        f[rng.choice(order.elements)] = max(f.values()) + bound + 10 ** rng.randint(0, 30)
        return json.dumps(f), True
    return json.dumps(f), False


def _malform(rng, argv):
    """The invocation with one malformed flag appended."""
    flaw = rng.choice(["choice", "missing", "unknown"])
    if flaw == "choice":
        return argv + ["--format", "xml"]
    if flaw == "missing":
        return argv + [rng.choice(["--format", "--out", "--preset"])]
    return argv + ["--no-such-option"]


def _argv(rng, tmp_path):
    """One invocation; returns its argv, whether it is damaged (a damaged
    document or a malformed flag) and whether its level function spans too
    many levels."""
    order = random_order(rng, max_size=8)
    doc, damaged = _document(rng, order)
    too_wide = False
    poset_path = tmp_path / "poset.json"
    poset_path.write_text(json.dumps(doc), encoding="utf-8")
    command = rng.choice(COMMANDS)
    argv = [command, "--file", str(poset_path)]
    if command != "validate":
        source = rng.choice(["levels", "f", "height", "none"] if command in ("cb", "mutate")
                            else ["levels", "levels", "f", "height"])
        if source == "levels":
            argv += ["--levels", _levels(rng, order)]
        elif source == "f":
            f, too_wide = _level_function(rng, order)
            argv += ["--f", f]
        elif source == "height":
            argv.append("--height-filtration")
    if command in ENGINE_COMMANDS:
        argv += ["--policy", rng.choice(POLICIES)]
        if rng.random() < 0.3:
            steps_path = tmp_path / "steps.json"
            steps = [{"i": i, "perfect": rng.random() < 0.5}
                     for i in sorted(rng.sample(range(1, 5), rng.randint(1, 3)))]
            steps_path.write_text(json.dumps({"steps": steps}), encoding="utf-8")
            argv += ["--annotations", str(steps_path)]
    if command == "closure" and rng.random() < 0.5:
        argv.append("--steps")
    if command == "mutate":
        closed = order.full_mask & ~random_upper_set(rng, order, order.full_mask)
        argv += ["--at", json.dumps(sorted(order.names(closed))),
                 "--rule", rng.choice(["auto", "discrete", "perfect", "general"])]
    if command in ("closure", "mutate") and rng.random() < 0.3:
        argv.append("--require-exact")
    formats = ["json", "dot", "text"] if command in ("closure", "mutate") else ["json", "text"]
    argv += ["--format", rng.choice(formats)]
    if rng.random() < 0.05:
        return _malform(rng, argv), True, too_wide
    return argv, damaged, too_wide


def _brackets(node):
    """Every result in a JSON payload: each object with an ``exact`` key."""
    if isinstance(node, dict):
        if "exact" in node:
            yield node
        for value in node.values():
            yield from _brackets(value)
    elif isinstance(node, list):
        for value in node:
            yield from _brackets(value)


def _invoke(capsys, argv):
    """Exit code (or the text of an escaped AssertionError), stdout and stderr."""
    try:
        code = main(argv)
    except AssertionError as exc:
        code = f"AssertionError: {exc}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_command_exits_with_a_documented_code(capsys, tmp_path):
    rng = random.Random(20261020)
    codes, commands, inexact = Counter(), Counter(), 0
    for _ in range(DRAWS):
        argv, damaged, too_wide = _argv(rng, tmp_path)
        first = code, out, err = _invoke(capsys, argv)
        assert _invoke(capsys, argv) == first, argv
        commands[argv[0]] += 1
        if isinstance(code, str):
            # The one escape allowed: a blanket assume-coherent answer that
            # contradicts the oracle (pinned in test_mutation.py).
            assert argv[argv.index("--policy") + 1] == POLICY_ASSUME_COHERENT, argv
            assert code == f"AssertionError: {ONESTEP_NOT_TRANSITIVE}", argv
            continue
        codes[code] += 1
        assert code in (0, 1, 2, 3), argv
        lines = err.splitlines()
        assert all(line.startswith("gspec: ") for line in lines), (argv, err)
        errors = [line for line in lines if not line.startswith("gspec: warning: ")]
        assert len(errors) <= (code != 0), (argv, err)
        assert bool(lines) == (code != 0), (argv, err)
        if damaged:
            assert (code, out, len(errors)) == (1, "", 1), (argv, err)
        elif too_wide:
            assert code == 1 and "above the bound" in err, (argv, err)
        if code == 0 and argv[-1] == "json":
            for bracket in _brackets(json.loads(out)):
                if not bracket["exact"]:
                    inexact += 1
                    assert bracket["lower"]["relations"] != bracket["upper"]["relations"], argv
    assert set(commands) == set(COMMANDS)
    assert set(codes) == {0, 1, 2, 3} and inexact > 0
