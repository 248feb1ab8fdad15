import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_order, strict_pairs
from gspec import (
    POLICIES,
    PRESET_NAMES,
    Order,
    PrimePoset,
    build_order,
    covering_pairs,
    preset,
)
from gspec import mutation as mut
from gspec import verify
from gspec.cli import _bounded_json, _dumps, main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_wide(tmp_path):
    """A 17-point LOC2-style poset, one above the enumeration limit."""
    heights = [f"p{i}" for i in range(1, 16)]
    doc = {"elements": ["o", *heights, "m"],
           "covers": [["o", p] for p in heights] + [[p, "m"] for p in heights]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestPresetsAndValidate:
    def test_presets_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("DVR1", "LOC2", "LOC2M", "LOC3", "POLY2", "NAGATA2"):
            assert name in out

    def test_validate_preset(self, capsys):
        code, out, _ = run(capsys, "validate", "--preset", "LOC2")
        assert code == 0
        assert "t0: pass" in out and "sober: pass" in out

    def test_validate_file(self, capsys, tmp_path):
        doc = {"elements": ["o", "m"], "covers": [["o", "m"]]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["axioms"]["sober"] is True

    def test_validate_above_enumeration_bound(self, capsys, tmp_path):
        path = write_wide(tmp_path)
        code, out, _ = run(capsys, "validate", "--file", path, "--format", "json")
        assert code == 0 and json.loads(out)["axioms"] == {"t0": True}
        code, out, _ = run(capsys, "validate", "--file", path)
        assert code == 0 and out == "17 primes, 30 covers\nt0: pass\n"

    def test_bad_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(
            json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "validate", "--file", str(path))
        assert code == 1 and "gspec:" in err

    def test_broken_files_name_flag(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, out, err = run(capsys, "validate", "--file", str(path))
        assert code == 1 and out == "" and err.startswith("gspec: --file is not valid JSON")
        code, out, err = run(capsys, "closure", "--preset", "LOC2", "--levels", '[["m"]]',
                             "--annotations", str(path))
        assert code == 1 and out == ""
        assert err.startswith("gspec: --annotations is not valid JSON")

    @pytest.mark.parametrize("flag", ["--file", "--annotations", "--codim"])
    @pytest.mark.parametrize("content", [b"[" * 100_000, b'{"\xff": 0}',
                                         b'{"o": ' + b"9" * 5000 + b"}"],
                             ids=["deep", "not-utf8", "long-int"])
    def test_undecodable_files_name_flag(self, capsys, tmp_path, flag, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = {"--file": ["validate", "--file", str(path)],
                "--annotations": ["closure", "--preset", "LOC2", "--levels", '[["m"]]',
                                  "--annotations", str(path)],
                "--codim": ["filtration", "--preset", "LOC2", "--codim", str(path)]}[flag]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"gspec: {flag} is not valid JSON: ")

    def test_cover_stranger_named(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["o"], "covers": [["o", "zz"]]}),
                        encoding="utf-8")
        code, out, err = run(capsys, "validate", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == "gspec: 'zz' is not one of the elements\n"

    def test_non_string_interval_end_is_schema_error(self, capsys, tmp_path):
        doc = {"elements": ["o", "m"], "covers": [["o", "m"]],
               "coherence": [{"p": ["o"], "q": "m", "W": ["m"], "coherent": True}]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == "gspec: 'p' and 'q' must be strings\n"

    def test_missing_source_exits_one(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 1 and "exactly one" in err


class TestFiltrationCommand:
    def test_normal_form_and_classification(self, capsys):
        code, out, _ = run(
            capsys, "filtration", "--preset", "LOC3", "--height-filtration",
        )
        assert code == 0
        assert "length 3" in out and "slice" in out

    def test_levels_json(self, capsys):
        code, out, _ = run(
            capsys, "filtration", "--preset", "LOC2",
            "--levels", '[["m"],["m"]]', "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["levels"] == [["m"], ["m"]]
        assert payload["f"]["m"] == 1 and payload["f"]["o"] == -1

    def test_stripped_levels_warn_and_exit_one(self, capsys):
        code, out, err = run(
            capsys, "filtration", "--preset", "LOC2", "--levels", '[["m"], []]',
        )
        assert code == 1
        assert "warning" in err

    def test_two_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "filtration", "--preset", "LOC2",
            "--levels", "[]", "--height-filtration",
        )
        assert code == 1 and "at most one" in err

    def test_level_function_source(self, capsys):
        code, out, _ = run(
            capsys, "filtration", "--preset", "DVR1",
            "--f", '{"o": -1, "m": 0}', "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["levels"] == [["m"]]

    def test_codim_source(self, capsys, tmp_path):
        d = {"o": 7, "q1": 8, "q2": 8, "q3": 8, "r1": 9, "r2": 9, "r3": 9, "m": 10}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        code, out, _ = run(
            capsys, "filtration", "--preset", "LOC3",
            "--codim", str(path), "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["levels"][-1] == ["m"] and len(payload["levels"]) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--f", {"o": 0, "m": "x"}),
        ("--f", {"o": 0, "m": 1.5}),
        ("--f", {"o": 0, "m": True}),
        ("--codim", {"o": "0", "m": "1"}),
        ("--levels", [[1]]),
        ("--levels", [["zz"]]),
        ("--codim", {"o": 0}),
        ("--f", {"m": 1}),
        ("--f", {"o": 0, "m": 1, "zz": 3}),
        ("--levels", "nonsense"),
        ("--codim", "{"),
    ])
    def test_ill_typed_source_names_flag(self, capsys, tmp_path, flag, value):
        # A string is passed as it stands, to exercise JSON syntax errors.
        arg = value if isinstance(value, str) else json.dumps(value)
        if flag == "--codim":
            path = tmp_path / "d.json"
            path.write_text(arg, encoding="utf-8")
            arg = str(path)
        code, out, err = run(capsys, "closure", "--preset", "DVR1", flag, arg)
        assert code == 1 and out == ""
        assert err.startswith(f"gspec: {flag} ")

    @pytest.mark.parametrize("command", ["validate", "filtration", "cb", "check"])
    def test_dot_only_where_rendered(self, capsys, command):
        code, out, err = run(capsys, command, "--preset", "LOC2",
                             *(["--levels", '[["m"]]'] if command != "validate" else []),
                             "--format", "dot")
        assert code == 1 and out == ""
        assert "invalid choice: 'dot'" in err


class TestClosureCommand:
    @pytest.mark.parametrize("preset_name,levels,golden", [
        ("LOC2", '[["m"]]', "loc2_onestep.dot"),
        ("LOC2", '[["m"],["m"]]', "loc2_twostep.dot"),
        ("LOC2M", '[["m"]]', "loc2m_onestep.dot"),
        ("LOC2M", '[["m"],["m"]]', "loc2m_twostep.dot"),
    ])
    def test_golden_dot(self, capsys, preset_name, levels, golden):
        code, out, _ = run(
            capsys, "closure", "--preset", preset_name,
            "--levels", levels, "--format", "dot",
        )
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv,golden", [
        (["closure", "--preset", "LOC3", "--levels", '[["m","r1","r2","r3"],["m"]]',
          "--policy", "assume-noncoherent", "--steps"], "loc3_inexact_steps.json"),
        (["closure", "--preset", "LOC2", "--height-filtration", "--steps"],
         "loc2_height_steps.json"),
        (["validate", "--preset", "LOC2M"], "loc2m_validate.json"),
        (["mutate", "--preset", "LOC2", "--at", '["o"]'], "loc2_mutate_o.json"),
        (["filtration", "--preset", "LOC3", "--height-filtration"],
         "loc3_height_filtration.json"),
        (["cb", "--preset", "LOC2", "--levels", '[["m"],["m"]]'], "loc2_twostep_cb.json"),
        (["check", "--preset", "LOC3", "--height-filtration",
          "--policy", "assume-noncoherent"], "loc3_height_check.json"),
        (["check", "--preset", "LOC3", "--levels", '[["m","r1","r2","r3"],["m"]]',
          "--policy", "assume-noncoherent"], "loc3_inexact_check.json"),
    ])
    def test_golden_json(self, capsys, argv, golden):
        """An inexact final written under both ``steps`` and ``final``, an
        order with no covers, ``validate``, one mutation, filtration levels,
        Cantor-Bendixson layers, and two suites: one with both brute-force
        laws, one with an inexact step's ``piecewise-upper``."""
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("first", [True, False])
    def test_conflicting_coherence_rejected(self, capsys, tmp_path, first):
        """A repeated annotation key is an error in either entry order, not a
        silent win for the last entry."""
        doc = {"elements": ["o", "a", "b", "m"],
               "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
               "coherence": [{"p": "o", "q": "m", "W": ["a", "m"], "coherent": first},
                             {"p": "o", "q": "m", "W": ["m", "a"], "coherent": not first}]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "closure", "--file", str(path), "--levels", '[["a","m"]]')
        assert (code, out) == (1, "")
        assert err == "gspec: coherence given twice for p='o', q='m', W=['a', 'm']\n"

    def test_loc3_height_text(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--preset", "LOC3", "--height-filtration",
            "--format", "text",
        )
        assert code == 0
        assert out == "discrete (8 isolated points)\n"

    def test_degenerate_levels_warn_standard(self, capsys):
        code, out, err = run(capsys, "closure", "--preset", "DVR1", "--levels", "[[]]")
        assert code == 1
        assert "warning" in err
        assert "o < m" in out  # the standard order is still emitted

    def test_steps_json(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--preset", "LOC2", "--levels", '[["m"],["m"]]',
            "--format", "json", "--steps",
        )
        assert code == 0
        payload = json.loads(out)
        assert [s["rule"] for s in payload["steps"]] == ["onestep", "perfect"]
        assert payload["final"]["exact"] is True

    def test_require_exact_gives_three(self, capsys):
        code, _, err = run(
            capsys, "closure", "--preset", "LOC3",
            "--levels", '[["m","r1","r2","r3"],["m"]]', "--require-exact",
        )
        assert code == 3 and "inexact" in err

    def test_inexact_json_has_bounds(self, capsys):
        code, out, _ = run(
            capsys, "closure", "--preset", "LOC3",
            "--levels", '[["m","r1","r2","r3"],["m"]]', "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] is False
        lower = {tuple(p) for p in payload["lower"]["relations"]}
        upper = {tuple(p) for p in payload["upper"]["relations"]}
        assert upper - lower == {("o", "m")}

    def test_undetermined_policy_exits_two(self, capsys, tmp_path):
        doc = {
            "elements": ["o", "a", "b", "m"],
            "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]],
        }
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(
            capsys, "closure", "--file", str(path), "--levels", '[["a","m"]]',
        )
        assert code == 2 and "annotation" in err
        code, out, _ = run(
            capsys, "closure", "--file", str(path), "--levels", '[["a","m"]]',
            "--policy", "assume-coherent",
        )
        assert code == 0 and "o < m" not in out

    def test_annotations_file(self, capsys, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text(json.dumps({"steps": [{"i": 2, "perfect": True}]}),
                        encoding="utf-8")
        code, out, _ = run(
            capsys, "closure", "--preset", "LOC3",
            "--levels", '[["m","r1","r2","r3"],["m"]]',
            "--annotations", str(path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["exact"] is True

    @pytest.mark.parametrize("entry, key", [
        ({"i": 2, "perfect": "false"}, "perfect"),
        ({"i": 2, "perfect": 1}, "perfect"),
        ({"i": "2", "perfect": True}, "i"),
        ({"i": True, "perfect": True}, "i"),
        ({"i": 99, "perfect": True}, "i"),
        ([{"i": 2, "perfect": True}, {"i": 2, "perfect": False}], "i"),
        ([{"i": 2, "perfect": False}, {"i": 2, "perfect": True}], "i"),
    ])
    def test_annotation_types_checked(self, capsys, tmp_path, entry, key):
        """A string "false" must not certify a perfect step, and a repeated
        index is an error rather than a silent win for its last entry."""
        steps = entry if isinstance(entry, list) else [entry]
        path = tmp_path / "steps.json"
        path.write_text(json.dumps({"steps": steps}), encoding="utf-8")
        code, out, err = run(
            capsys, "closure", "--preset", "LOC3",
            "--levels", '[["r1","r2","r3","m"],["m"]]',
            "--annotations", str(path), "--steps", "--require-exact",
        )
        assert code == 1 and out == ""
        assert err.startswith("gspec: ") and f"'{key}'" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.dot"
        code, out, _ = run(
            capsys, "closure", "--preset", "LOC2", "--levels", '[["m"]]',
            "--format", "dot", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == \
            (GOLDEN / "loc2_onestep.dot").read_text(encoding="utf-8")

    def test_byte_identical_runs(self, capsys):
        args = ("closure", "--preset", "LOC2M", "--levels", '[["m"],["m"]]',
                "--format", "json", "--steps")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCbCommand:
    def test_standard_order_rank(self, capsys):
        code, out, _ = run(capsys, "cb", "--preset", "LOC2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["layers"][0] == ["m"]

    def test_chain_final_rank(self, capsys):
        code, out, _ = run(
            capsys, "cb", "--preset", "LOC2", "--levels", '[["m"],["m"]]',
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 1
        assert payload["layers"][0] == ["m", "p1", "p2", "p3", "p4", "p5"]

    def test_discrete_rank_zero(self, capsys):
        code, out, _ = run(
            capsys, "cb", "--preset", "LOC3", "--height-filtration",
        )
        assert code == 0 and out.startswith("rank 0")


class TestMutateCommand:
    def test_discrete_rule(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--preset", "LOC2", "--at", '["o"]',
            "--rule", "discrete",
        )
        assert code == 0 and "o <" not in out

    def test_auto_falls_back_to_general(self, capsys):
        code, out, _ = run(
            capsys, "mutate", "--preset", "LOC2", "--at", '["o","p1","p2","p3","p4","p5"]',
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["exact"] is False

    def test_require_exact(self, capsys):
        code, _, err = run(
            capsys, "mutate", "--preset", "LOC2",
            "--at", '["o","p1","p2","p3","p4","p5"]', "--rule", "general",
            "--require-exact",
        )
        assert code == 3

    @pytest.mark.parametrize("at", ['["zz"]', '["o", "zz"]', "nonsense", "[1]", '{"o": 1}'])
    def test_bad_class_names_flag(self, capsys, at):
        code, out, err = run(capsys, "mutate", "--preset", "DVR1", "--at", at)
        assert code == 1 and out == ""
        assert err.startswith("gspec: --at ")


class TestCheckCommand:
    def test_loc3_height_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--preset", "LOC3", "--height-filtration")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_nagata_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--preset", "NAGATA2", "--levels", '[["a","m"]]',
        )
        assert code == 0

    @pytest.mark.parametrize("fmt,out", [
        ("text", "FAIL refinement (pair=(o,m))\n"),
        ("json", '{\n  "passed": false,\n  "reports": [\n    {\n      "counterexample": '
                 '{\n        "pair": "(o,m)"\n      },\n      "name": "refinement",\n'
                 '      "passed": false\n    }\n  ]\n}\n'),
    ], ids=("text", "json"))
    def test_failure_written_then_reported(self, capsys, monkeypatch, fmt, out):
        """The report is written in full, then one stderr line names the
        first failure and the exit code is 1."""
        pre = mut.ClosureOrder(Order(("m", "o"), (0b01, 0b10)), ())
        failing = verify.check_refinement(pre, mut.standard_order(preset("DVR1")))
        monkeypatch.setattr(verify, "run_suite", lambda *args: [failing])
        code, stdout, err = run(capsys, "check", "--preset", "DVR1", "--levels", '[["m"]]',
                                "--format", fmt)
        assert (code, stdout, err) == (1, out, "gspec: first failure: refinement (pair=(o,m))\n")

    def test_above_enumeration_bound_runs_polynomial_reports(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", "--file", write_wide(tmp_path),
                           "--levels", '[["m"],["m"]]', "--format", "json")
        assert code == 0
        names = [r["name"] for r in json.loads(out)["reports"]]
        assert not [n for n in names if n.endswith((":t0", ":sober", "-law"))]
        for suffix in (":refines-inclusion", ":levels-open", ":cb"):
            assert "order-0" + suffix in names
        assert "step-1:refinement" in names and "step-2:sandwich" in names

    def test_consecutive_brackets_pass(self, capsys, tmp_path):
        doc = {"elements": [f"x{i}" for i in range(10)],
               "covers": [["x0", "x2"], ["x0", "x7"], ["x1", "x2"], ["x1", "x7"],
                          ["x2", "x3"], ["x2", "x5"], ["x3", "x6"], ["x4", "x5"],
                          ["x4", "x6"], ["x5", "x8"], ["x6", "x8"], ["x6", "x9"],
                          ["x7", "x8"]]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        f = {"x0": -1, "x1": -1, "x2": -1, "x3": 0, "x4": 0, "x5": 1, "x6": 2,
             "x7": -1, "x8": 3, "x9": 3}
        code, out, _ = run(capsys, "check", "--file", str(path), "--policy",
                           "assume-noncoherent", "--f", json.dumps(f), "--format", "json")
        reports = json.loads(out)["reports"]
        assert code == 0 and all(r["passed"] for r in reports)
        names = {r["name"] for r in reports}
        assert any(f"step-{n - 1}:piecewise-upper" in names
                   and f"step-{n}:piecewise-upper" in names for n in range(2, 6))

    def test_invalid_input_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "check", "--file", str(path), "--levels", "[]")
        assert code == 1


_SPECIAL_CHARACTERS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028",
     "\ud800", "\udfff", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _SPECIAL_CHARACTERS), max_size=8)
_SCALARS = st.one_of(
    _TEXT, st.integers(), st.integers(min_value=-10**40, max_value=10**40),
    st.booleans(), st.none(),
    st.lists(_TEXT), st.lists(st.lists(_TEXT, max_size=3)),
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    @given(_PAYLOADS)
    def test_matches_json_module(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [
        1.5, float("nan"), {"a"}, frozenset(), {1: "a"}, {None: 1}, {"a": 1, 2: 3},
        [["a"], [1.0]], [("a", "b"), ["c", {"d"}]], ["a", 0.0], {"k": [object()]},
    ])
    def test_rejects_what_json_lacks(self, value):
        with pytest.raises(TypeError):
            _dumps(value)

    def test_order_fragments_match_json_module(self):
        """Orders written from their masks as pre-written text give the bytes
        of the same data built from pairs, at any depth; names carry quotes,
        backslashes, newlines and non-ASCII text to exercise escaping."""
        rng = random.Random(8)
        prefixes = ["", '"', "\\", "\n", "\u00e9", "\U0001f600", "a b"]

        def plain(co):
            return {"elements": list(co.order.elements),
                    "relations": [list(p) for p in sorted(strict_pairs(co.order))],
                    "covers": [list(p) for p in covering_pairs(co.order)],
                    "provenance": list(co.provenance)}

        orders = [build_order([], [])]
        for _ in range(300):
            order = random_order(rng, max_size=14)
            rename = {p: rng.choice(prefixes) + p for p in order.elements}
            orders.append(build_order(rename.values(),
                                      [(rename[p], rename[q]) for p, q in strict_pairs(order)]))
        for order in orders:
            kept = [c for c in covering_pairs(order) if rng.random() < 0.5]
            upper = mut.ClosureOrder(order, ("standard", 'discrete at {"x"}'))
            lower = mut.ClosureOrder(build_order(order.elements, kept), ("lower",))
            for bounded, expected in [
                (mut.exact_bounds(upper), {"exact": True, "order": plain(upper)}),
                (mut.BoundedOrder(lower, upper, False),
                 {"exact": False, "lower": plain(lower), "upper": plain(upper)}),
            ]:
                for wrap in (lambda x: x, lambda x: {"steps": [{"result": x}], "final": x}):
                    assert _dumps(wrap(_bounded_json(bounded))) == \
                        json.dumps(wrap(expected), indent=2, sort_keys=True) + "\n"

    def test_every_json_output_is_canonical(self, capsys):
        compared = 0
        for name in PRESET_NAMES:
            base = ["--preset", name]
            runs = [["validate", *base], ["mutate", *base, "--at", '["o"]'],
                    ["filtration", *base, "--height-filtration"], ["cb", *base]]
            for policy in POLICIES:
                for levels in ('[["m"]]', '[["m"],["m"]]'):
                    chain = [*base, "--levels", levels, "--policy", policy]
                    runs += [["closure", *chain], ["closure", *chain, "--steps"],
                             ["cb", *chain], ["check", *chain]]
            for argv in runs:
                code, out, _ = run(capsys, *argv, "--format", "json")
                if out:
                    compared += 1
                    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert compared >= 100

    def test_closure_json_builds_no_pair_sets(self, capsys, monkeypatch):
        seen, original = [], mut.chain_order

        def chain_order(*args):
            seen.extend(chain := original(*args))
            return chain

        monkeypatch.setattr("gspec.cli.mut.chain_order", chain_order)
        code, out, _ = run(capsys, "closure", "--preset", "LOC3", "--policy", "assume-coherent",
                           "--levels", '[["m","r1","r2","r3"],["m"]]', "--steps",
                           "--format", "json")
        assert code == 0 and json.loads(out)["final"]["exact"] is False
        orders = [b.order for step, post in seen for bounds in (step.pre, post)
                  for b in (bounds.lower, bounds.upper)]
        assert len(orders) == 8
        assert not [o for o in orders if "relation" in o.__dict__]

    def test_engine_never_calls_the_name_based_oracle(self, capsys, monkeypatch):
        calls, verdict_at = [], PrimePoset.verdict_at

        def counted(self, *args):
            calls.append(args)
            return verdict_at(self, *args)

        def refuse(*args):
            raise AssertionError("the engine called PrimePoset.coherent_complement")

        monkeypatch.setattr(PrimePoset, "verdict_at", counted)
        monkeypatch.setattr(PrimePoset, "coherent_complement", refuse)
        for name in PRESET_NAMES:
            base = preset(name).base
            levels = {json.dumps([sorted(base.spcl(p))]) for p in base.elements
                      if base.spcl(p) != set(base.elements)}
            levels.add('[["m"],["m"]]')
            for policy in POLICIES:
                for level in sorted(levels):
                    code, _, _ = run(capsys, "closure", "--preset", name, "--levels", level,
                                     "--policy", policy, "--steps", "--format", "json")
                    assert code in (0, 2)
        assert calls


SEED_RUNS = [
    (0, ["closure", "--preset", "LOC2M", "--levels", '[["q1","q2","m"],["m"]]', "--steps",
         "--policy", "assume-noncoherent", "--format", "json"]),
    (0, ["check", "--preset", "LOC3", "--height-filtration", "--format", "json"]),
    (2, ["closure", "--preset", "LOC2M", "--levels", '[["q1","q2","m"],["m"]]', "--steps",
         "--policy", "error", "--format", "json"]),
    (1, ["closure", "--preset", "LOC2", "--levels",
         '[["m","o","p1","p2","p3","p4","p5"],["m"],["m"]]', "--steps", "--format", "dot"]),
]


def test_output_bytes_do_not_depend_on_hash_seed():
    """In-process tests share one hash seed, so a set-order dependence can
    only show across interpreters: each run's exit code, stdout and stderr
    must be the same under two seeds."""
    root = Path(__file__).resolve().parents[1]
    for expected, argv in SEED_RUNS:
        outcomes = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root / "src")}
            proc = subprocess.run([sys.executable, "-m", "gspec.cli", *argv], env=env,
                                  capture_output=True, timeout=60)
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        assert outcomes[0] == outcomes[1], argv
        assert outcomes[0][0] == expected, outcomes[0][2]
        if expected == 1:
            assert outcomes[0][2] == b"gspec: warning: stripped 1 trivial level(s)\n"
