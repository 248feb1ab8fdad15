import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_monotone_f, random_order, strict_pairs, up_names
from gspec import (
    MAX_LEVELS,
    POLICIES,
    PRESET_NAMES,
    Order,
    PrimePoset,
    build_order,
    cb_filtration,
    classify,
    covering_pairs,
    filtration_to_f,
    height_filtration,
    load_prime_poset,
    preset,
)
from gspec import mutation as mut
from gspec import cli, verify
from gspec.cli import main
from test_readme import COMMANDS as README_COMMANDS

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


def collapsed_bracket(tmp_path):
    """LOC3 tilting at its top three times with step 3 annotated perfect:
    step 2 is a bracket, and step 3 splits both its bounds into one order."""
    path = tmp_path / "steps.json"
    path.write_text(json.dumps({"steps": [{"i": 3, "perfect": True}]}), encoding="utf-8")
    f = {"o": 0, "q1": 0, "q2": 0, "q3": 0, "r1": 0, "r2": 0, "r3": 0, "m": 3}
    return ["--preset", "LOC3", "--f", json.dumps(f), "--annotations", str(path)]


class TestPresetsAndValidate:
    def test_presets_lists_all(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("DVR1", "LOC2", "LOC2M", "LOC3", "POLY2", "NAGATA2"):
            assert name in out

    def test_validate_preset(self, capsys):
        code, out, _ = run(capsys, "validate", "--preset", "LOC2")
        assert (code, out) == (0, "7 primes, 10 covers\n")

    def test_validate_file(self, capsys, tmp_path):
        doc = {"elements": ["o", "m"], "covers": [["o", "m"]]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", "--file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"elements": ["m", "o"], "covers": [["o", "m"]],
                                   "heights": {"m": 1, "o": 0}}

    def test_validate_above_enumeration_bound(self, capsys, tmp_path):
        path = write_wide(tmp_path)
        code, out, _ = run(capsys, "validate", "--file", path, "--format", "json")
        assert code == 0 and sorted(json.loads(out)) == ["covers", "elements", "heights"]
        code, out, _ = run(capsys, "validate", "--file", path)
        assert code == 0 and out == "17 primes, 30 covers\n"

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

    def test_file_is_decoded_once(self, capsys, tmp_path):
        """A file holding a JSON string is not a document, even when the
        string is itself a poset document's JSON."""
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(json.dumps({"elements": ["a"], "covers": []})),
                        encoding="utf-8")
        code, out, err = run(capsys, "validate", "--file", str(path))
        assert (code, out, err) == (1, "", "gspec: document must be a JSON object\n")

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

    @pytest.mark.parametrize("extra", [
        ["--file", ""], ["--out", ""], ["--annotations", ""]])
    def test_empty_path_is_given(self, capsys, extra):
        """An empty path is a value, not an absent option: with a preset it is
        a second poset source, and as a file it does not open."""
        code, out, err = run(capsys, "closure", "--preset", "LOC2", "--levels", '[["m"]]',
                             *extra)
        assert (code, out) == (1, "")
        assert err.startswith("gspec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--file", "--codim", "--annotations", "--out"])
    @pytest.mark.parametrize("kind", ["empty", "directory"])
    def test_unusable_path_names_flag(self, capsys, tmp_path, flag, kind):
        """A path that cannot be read or written is one line naming the flag
        and the path."""
        path = "" if kind == "empty" else str(tmp_path)
        closure = ["closure", "--preset", "LOC2", "--levels", '[["m"]]']
        argv = {"--file": ["closure", "--file", path, "--levels", '[["m"]]'],
                "--codim": ["filtration", "--preset", "LOC2", "--codim", path],
                "--annotations": [*closure, "--annotations", path],
                "--out": [*closure, "--out", path]}[flag]
        code, out, err = run(capsys, *argv)
        verb = "written" if flag == "--out" else "read"
        assert (code, out) == (1, "")
        assert err.startswith(f"gspec: {flag} cannot be {verb}: ") and err.count("\n") == 1
        assert repr(path) in err


def _text_mode_read_json(flag, value, path=False):
    """The reference reader: the file opened in text mode as UTF-8."""
    try:
        if path:
            with open(value, encoding="utf-8") as handle:
                value = handle.read()
        return json.loads(value)
    except OSError as exc:
        raise cli.UsageError(f"{flag} cannot be read: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise cli.UsageError(f"{flag} is not valid JSON: {exc}") from None


_DOCUMENTS = {
    "--file": {"elements": ["o", "a", "b", "m"],
               "covers": [["o", "a"], ["o", "b"], ["a", "m"], ["b", "m"]]},
    "--codim": {"o": 0, "p1": 1, "p2": 1, "p3": 1, "p4": 1, "p5": 1, "m": 2},
    "--annotations": {"steps": [{"i": 2, "perfect": True}]},
}


class TestByteReader:
    """Files are read as bytes and decoded as text mode would decode them,
    so every exit code, output and message stays the text-mode reader's."""

    @staticmethod
    def contents(flag):
        lf = json.dumps(_DOCUMENTS[flag], indent=2).encode()
        return {
            "lf": lf,
            "crlf": lf.replace(b"\n", b"\r\n"),
            "cr": lf.replace(b"\n", b"\r"),
            "malformed-crlf": lf.replace(b"\n", b"\r\n")[:-9] + b"\r\n}",
            "cr-in-key": lf.replace(b'": ', b'\r": ', 1),
            "bom": b"\xef\xbb\xbf" + lf,
            "empty": b"",
            "not-utf8-first": b"\xff" + lf,
            "not-utf8-past-8k": lf[:-1] + b" " * 9000 + b"\r\n\xff}",
        }

    @pytest.mark.parametrize("flag", sorted(_DOCUMENTS))
    @pytest.mark.parametrize("kind", ["lf", "crlf", "cr", "malformed-crlf", "cr-in-key",
                                      "bom", "empty", "not-utf8-first", "not-utf8-past-8k",
                                      "directory", "missing"])
    def test_same_as_text_mode(self, capsys, monkeypatch, tmp_path, flag, kind):
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "input.json"
            if kind != "missing":
                path.write_bytes(self.contents(flag)[kind])
        argv = {"--file": ["closure", "--file", str(path), "--height-filtration"],
                "--codim": ["filtration", "--preset", "LOC2", "--codim", str(path)],
                "--annotations": ["closure", "--preset", "LOC3", "--height-filtration",
                                  "--annotations", str(path)]}[flag]
        argv += ["--steps"] if argv[0] == "closure" else []
        argv += ["--format", "json"]
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "_read_json", _text_mode_read_json)
        assert got == run(capsys, *argv)
        if kind in ("lf", "crlf", "cr"):
            assert got[0] == 0 and got[1]
        else:
            assert got[0] == 1 and not got[1] and got[2].startswith(f"gspec: {flag} ")


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
        ("--levels", {"m": 0}),
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

    def test_level_function_span_bounded(self, capsys):
        code, out, err = run(capsys, "closure", "--preset", "DVR1",
                             "--f", '{"o": 0, "m": %d}' % 10**30)
        assert (code, out) == (1, "")
        assert err == (f"gspec: level function spans {10**30} levels, "
                       f"above the bound of {MAX_LEVELS}\n")

    def test_level_count_bounded(self, capsys):
        """--levels may give as many levels as a level function may span, and
        no more."""
        levels = [["m"]] * MAX_LEVELS
        code, _, err = run(capsys, "closure", "--preset", "LOC2", "--levels", json.dumps(levels))
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "closure", "--preset", "LOC2",
                             "--levels", json.dumps(levels + [["m"]]))
        assert (code, out) == (1, "")
        assert err == f"gspec: more than the bound of {MAX_LEVELS} levels given\n"

    def test_tall_chain_spans_more_than_max_levels(self, capsys, tmp_path):
        """A poset's own height and codimension functions are never refused,
        however tall it is: the bound is at least the number of points."""
        n = MAX_LEVELS + 2
        names = [f"c{k:04d}" for k in range(n)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"elements": names,
                                    "covers": [list(c) for c in zip(names, names[1:])]}),
                        encoding="utf-8")
        codim = tmp_path / "d.json"
        codim.write_text(json.dumps({p: k for k, p in enumerate(names)}), encoding="utf-8")
        for source in (["--height-filtration"], ["--codim", str(codim)]):
            code, out, err = run(capsys, "filtration", "--file", str(path), *source,
                                 "--format", "json")
            assert (code, err) == (0, "")
            assert len(json.loads(out)["levels"]) == n - 1
        code, out, err = run(capsys, "filtration", "--file", str(path), "--f",
                             json.dumps({p: 2 * k for k, p in enumerate(names)}))
        assert (code, out) == (1, "")
        assert err == (f"gspec: level function spans {2 * (n - 1)} levels, "
                       f"above the bound of {n}\n")


class TestUsageErrors:
    """A usage error, found by argparse or by the CLI's own checks, is one
    ``gspec:`` line and exit 1."""

    @pytest.mark.parametrize("argv, message", [
        (["closure", "--preset", "LOC2", "--format", "xml"],
         "argument --format: invalid choice: "),
        (["closure", "--preset", "LOC2", "--levels"],
         "argument --levels: expected one argument"),
        (["closure", "--preset", "LOC2", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: "),
        ([], "the following arguments are required: command"),
        (["closure", "--preset", "LOC2"], "a filtration is required: "),
    ])
    def test_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"gspec: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [["--help"], ["closure", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: gspec") and err == ""


# The README's commands and the edge cases where the two parse paths could part.
PARSE_CORPUS = [shlex.split(line)[1:] for line in README_COMMANDS] + [
    [], ["--help"], ["-h"], ["nope"], ["clos"], ["closure", "--help"],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "--format", "xml"],
    ["closure", "--preset", "LOC2", "--levels"],
    ["closure", "--preset", "LOC2", "--lev", '[["m"]]'],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "--bogus"],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "extra"],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "--policy", "error",
     "--policy", "assume-coherent"],
    ["mutate", "--preset", "LOC2"],
    ["presets", "x"],
]
# Well-formed to argparse, but outside what the plain reader accepts.
DECLINED = [
    ["closure", "--preset", "LOC2", '--levels=[["m"]]'],
    ["closure", "--preset", "LOC2", "--f", "-1"],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "--steps", "--steps"],
    ["closure", "--preset", "LOC2", "--levels", ""],
    ["closure", "--preset", "LOC2", "--levels", '[["m"]]', "--"],
]
PARSE_CORPUS += DECLINED


class TestParsePaths:
    """An argv that names a command is read by that command's own parser,
    with the outcome the top-level parser would give."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_same_as_top_level_parser(self, capsys, monkeypatch, argv):
        direct = run(capsys, *argv)
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert run(capsys, *argv) == direct

    def test_command_skips_top_level_parser(self, capsys, monkeypatch):
        """Every README command is read by the plain reader, so argparse
        reads none of them."""
        def refuse(*args):
            raise AssertionError("argparse read a well-formed argv")

        parser, commands = cli._build_parser()
        for each in (parser, *commands.values()):
            monkeypatch.setattr(each, "parse_args", refuse)
        for line in README_COMMANDS:
            assert run(capsys, *shlex.split(line)[1:])[0] == 0, line

    def test_declined_argv_goes_to_argparse(self):
        _, commands = cli._build_parser()
        for argv in DECLINED:
            assert cli._plain_args(commands[argv[0]], argv[1:]) is None, argv

    def test_plain_reader_is_a_subset_of_argparse(self):
        """Random argvs from each command's option strings, their prefixes,
        ``=`` forms, help, ``--``, values argparse reads apart and unknown
        words: a namespace from the plain reader is argparse's, and an argv
        argparse rejects is never read."""
        rng = random.Random(0)
        odd_words = ["-h", "--help", "--", "--bogus", "extra", "-1", "-", "", "a b"]
        for name, parser in cli._build_parser()[1].items():
            options = {option: action for action in parser._actions
                       for option in action.option_strings if option.startswith("--")}
            values = {option: list(action.choices or ["x", '[["m"]]', "a b"]) + ["bad"]
                      for option, action in options.items() if action.nargs is None}
            words = odd_words + [option[:k] for option in options
                                 for k in range(3, len(option) + 1)]
            words += [f"{option}=x" for option in values]
            accepted = 0
            for _ in range(300):
                argv = []
                for _ in range(rng.randrange(6)):
                    option = rng.choice(list(options))
                    if rng.random() < 0.2:
                        argv += [rng.choice(words), "x"][:rng.randrange(1, 3)]
                    elif option in values and rng.random() < 0.9:
                        argv += [option, rng.choice(values[option] + odd_words[-4:])]
                    else:
                        argv.append(option)
                if name == "mutate" and rng.random() < 0.7:
                    argv += ["--at", "[]"]
                plain = cli._plain_args(parser, argv)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        expected = vars(parser.parse_args(argv))
                except (cli.UsageError, SystemExit):
                    expected = None
                if plain is not None:
                    accepted += 1
                    assert vars(plain) == expected, (name, argv)
            assert accepted >= 30, (name, accepted)

    def test_plain_reader_reads_benchmark_argvs(self, capsys, monkeypatch, tmp_path):
        """A refactor that sends these back to argparse loses the plain
        reader's speed; each shape of the benchmark's ops is here once."""
        def refuse(*args):
            raise AssertionError("argparse read a well-formed argv")

        for parser in cli._build_parser()[1].values():
            monkeypatch.setattr(parser, "parse_args", refuse)
        doc = tmp_path / "loc2.json"
        doc.write_text(json.dumps({"elements": ["o", "p1", "p2", "m"],
                                   "covers": [["o", "p1"], ["o", "p2"],
                                              ["p1", "m"], ["p2", "m"]]}), encoding="utf-8")
        one_level = ["--file", str(doc), "--levels", '[["m"]]',
                     "--policy", "assume-noncoherent", "--format", "json"]
        f = ["--file", str(doc), "--f", '{"m": 0, "o": -1, "p1": -1, "p2": -1}']
        for argv in (
            ["closure", *f, "--policy", "assume-coherent", "--steps", "--format", "json"],
            ["closure", *one_level, "--steps"],
            ["cb", *one_level],
            ["mutate", *one_level, "--at", '["o", "p1", "p2"]'],
            ["filtration", *f, "--format", "json"],
            ["check", *one_level],
        ):
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv

    def test_reads_sys_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gspec", "validate", "--preset", "LOC2"])
        assert main() == 0
        assert capsys.readouterr().out == run(capsys, "validate", "--preset", "LOC2")[1]


class TestClosureCommand:
    # Options beyond the table's, by golden.  The bounded LOC3 chain renders
    # three orders in one command (the one-step order, then a lower and an
    # upper bound), each after the header the command builds once.
    DOT_OPTIONS = {"loc3_bounded_steps.dot": ("--policy", "assume-coherent", "--steps")}

    @pytest.mark.parametrize("preset_name,levels,golden", [
        ("LOC2", '[["m"]]', "loc2_onestep.dot"),
        ("LOC2", '[["m"],["m"]]', "loc2_twostep.dot"),
        ("LOC2M", '[["m"]]', "loc2m_onestep.dot"),
        ("LOC2M", '[["m"],["m"]]', "loc2m_twostep.dot"),
        ("LOC3", '[["m","r1","r2","r3"],["m"]]', "loc3_bounded_steps.dot"),
    ])
    def test_golden_dot(self, capsys, preset_name, levels, golden):
        code, out, _ = run(
            capsys, "closure", "--preset", preset_name,
            "--levels", levels, "--format", "dot", *self.DOT_OPTIONS.get(golden, ()),
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

    def test_require_exact_takes_bounds_that_meet(self, capsys, tmp_path):
        code, out, err = run(capsys, "closure", *collapsed_bracket(tmp_path), "--require-exact")
        assert (code, err) == (0, "")
        assert out == "order on 8 points (9 covers)\n" + "".join(
            f"{p} < {q}\n" for p, q in [("o", "q1"), ("o", "q2"), ("o", "q3"),
                                        ("q1", "r1"), ("q1", "r3"), ("q2", "r1"),
                                        ("q2", "r2"), ("q3", "r2"), ("q3", "r3")])

    def test_bounds_that_meet_pass_on_their_lower_provenance(self, capsys, tmp_path):
        """Steps 2 and 3 are brackets whose bounds meet with different
        provenance, and step 4 is inexact: both its bounds extend the lower
        bound's provenance, as the bracket of one exact order."""
        doc = {"elements": ["x10", "x3", "x4", "x8", "x7", "x2", "x1", "x6", "x9", "x5", "x0"],
               "covers": [["x10", "x4"], ["x10", "x7"], ["x10", "x2"], ["x10", "x5"],
                          ["x3", "x7"], ["x3", "x2"], ["x8", "x1"], ["x7", "x6"],
                          ["x7", "x9"], ["x2", "x6"], ["x1", "x6"], ["x1", "x5"],
                          ["x6", "x0"], ["x9", "x0"]]}
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        f = {"x0": 3, "x1": 2, "x10": -1, "x2": 0, "x3": -1, "x4": 1, "x5": 2, "x6": 3,
             "x7": -1, "x8": -1, "x9": -1}
        code, out, err = run(capsys, "closure", "--file", str(path), "--f", json.dumps(f),
                             "--policy", "assume-coherent", "--steps", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [s["rule"] for s in payload["steps"]] == ["onestep"] + ["bounded"] * 3
        assert [s["result"]["exact"] for s in payload["steps"]] == [True, True, True, False]
        assert payload["final"]["upper"]["provenance"][-2:] == [
            "bounded at {x10,x2,x3,x4,x7,x8,x9} (lower)",
            "bounded at {x1,x10,x2,x3,x4,x5,x7,x8,x9} (upper)"]

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
        ({"i": 2}, "perfect"),
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

    def test_annotations_need_steps(self, capsys, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text("[]", encoding="utf-8")
        code, out, err = run(capsys, "closure", "--preset", "LOC2", "--levels", '[["m"]]',
                             "--annotations", str(path))
        assert (code, out) == (1, "")
        assert err == ('gspec: annotations must look like '
                       '{"steps": [{"i": 2, "perfect": true}]}\n')

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

    def test_bounds_that_meet_have_a_rank(self, capsys, tmp_path):
        code, out, err = run(capsys, "cb", *collapsed_bracket(tmp_path))
        assert (code, err) == (0, "") and out.startswith("rank 2\n")

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

    def test_bounds_that_meet_get_the_laws_and_a_baseline(self, capsys, tmp_path):
        """The collapsed step 3 is checked like any exact step: its law and
        sandwich, and the seven baseline checks of its order."""
        code, out, err = run(capsys, "check", *collapsed_bracket(tmp_path))
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 31 and all(row.startswith("PASS ") for row in rows)
        names = {row.removeprefix("PASS ") for row in rows}
        assert {"step-3:perfect-law", "step-3:sandwich"} <= names
        assert len({name for name in names if name.startswith("order-3:")}) == 7

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


class TestJsonWriter:
    @given(st.lists(_TEXT, max_size=6, unique=True), st.data())
    def test_documents_match_json_module(self, names, data):
        """``validate``, ``filtration`` and ``cb`` give the json module's
        bytes for their documents, for any names, empty lists and objects
        included."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6))
        doc = {"elements": names,
               "covers": [[names[i], names[j]] for i, j in pairs if i < j < len(names)]}
        poset = load_prime_poset(doc)
        base = poset.base
        filt = height_filtration(poset)
        expected = {
            "validate": {"covers": [list(c) for c in covering_pairs(base)],
                         "elements": list(base.elements), "heights": dict(poset.height)},
            "filtration": {"levels": [sorted(base.names(level)) for level in filt.levels],
                           "f": filtration_to_f(filt), "classification": classify(filt)},
            "cb": {"layers": [sorted(base.names(layer)) for layer in cb_filtration(base)],
                   "rank": len(cb_filtration(base)) - 1}}
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "poset.json")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(json.dumps(doc))
            for command, payload in expected.items():
                extra = ["--height-filtration"] if command == "filtration" else []
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main([command, "--file", path, *extra, "--format", "json"]) == 0
                assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @given(st.lists(_TEXT, max_size=8, unique=True), st.integers(min_value=0, max_value=255))
    def test_matches_json_module(self, names, mask):
        """The order writer's name lists (a step's class and support) give
        the json module's bytes for any names, at any depth."""
        elements = tuple(sorted(names))
        mask &= (1 << len(elements)) - 1
        chosen = [p for i, p in enumerate(elements) if mask >> i & 1]
        writer = cli._OrderWriter(elements)
        assert writer.names_at(mask, "\n") == json.dumps(chosen, indent=2)
        assert writer.names_at(mask, "\n  ") == json.dumps(chosen, indent=2).replace("\n", "\n  ")

    def test_order_fragments_match_json_module(self):
        """The order writer gives the json module's bytes for the documents
        of ``closure --steps``, ``closure`` and ``mutate``: exact and inexact
        brackets at the step depth and at the ``final`` depth, empty chains
        and chains of several steps whose orders share rows, objects and
        equal masks.  Names, rules and provenance carry quotes,
        backslashes, newlines and non-ASCII text to exercise escaping."""
        rng = random.Random(8)
        prefixes = ["", '"', "\\", "\n", "\u00e9", "\U0001f600", "a b"]
        rules = [mut.RULE_ONESTEP, mut.RULE_DISCRETE, mut.RULE_PERFECT, mut.RULE_BOUNDED,
                 'odd "rule"\\\n\u00e9']

        def plain(co):
            return {"elements": list(co.order.elements),
                    "relations": [list(p) for p in sorted(strict_pairs(co.order))],
                    "covers": [list(p) for p in covering_pairs(co.order)],
                    "provenance": list(co.provenance)}

        def plain_bracket(bounded):
            if bounded.exact:
                return {"exact": True, "order": plain(bounded.lower)}
            return {"exact": False, "lower": plain(bounded.lower), "upper": plain(bounded.upper)}

        def canonical(value):
            return json.dumps(value, indent=2, sort_keys=True) + "\n"

        orders = [build_order([], [])]
        for _ in range(300):
            order = random_order(rng, max_size=14)
            rename = {p: rng.choice(prefixes) + p for p in order.elements}
            orders.append(build_order(rename.values(),
                                      [(rename[p], rename[q]) for p, q in strict_pairs(order)]))
        compared = {"exact": 0, "inexact": 0, "empty": 0, "shared": 0}
        for order in orders:
            els = order.elements
            brackets = []
            for _ in range(rng.randint(1, 4)):
                kept = [c for c in covering_pairs(order) if rng.random() < 0.5]
                provenance = tuple(rng.choice(prefixes) + rng.choice(rules)
                                   for _ in range(rng.randint(0, 3)))
                upper = mut.ClosureOrder(rng.choice([order, build_order(els, strict_pairs(order))]),
                                         ("standard", 'discrete at {"x"}', *provenance))
                lower = mut.ClosureOrder(build_order(els, kept), provenance)
                brackets += [mut.exact_bounds(upper), mut.BoundedOrder(lower, upper),
                             mut.BoundedOrder(upper, mut.ClosureOrder(upper.order, ("upper",)))]
            brackets = rng.sample(brackets, rng.randint(1, len(brackets)))
            for bounded in brackets:
                compared["exact" if bounded.exact else "inexact"] += 1
                assert cli._bracket_json(els, bounded) == canonical(plain_bracket(bounded))
            steps = []
            for bounded in brackets:
                support, mutation_class = rng.getrandbits(len(els)), rng.getrandbits(len(els))
                rule = rng.choice(rules)
                step = mut.MutationStep(len(steps) + 1, support, mutation_class, rule,
                                        rng.choice(brackets), bounded)
                steps.append((step, bounded))
            for chain, final in ((steps, steps[-1][1]), ([], brackets[0])):
                compared["shared" if len(chain) > 1 else "empty" if not chain else "exact"] += 1
                expected = {"final": plain_bracket(final), "steps": [
                    {"index": step.index, "rule": step.rule, "perfect": step.perfect,
                     "support": [p for j, p in enumerate(els) if step.support >> j & 1],
                     "class": [p for j, p in enumerate(els) if step.mutation_class >> j & 1],
                     "result": plain_bracket(post)} for step, post in chain]}
                assert cli._steps_json(els, chain, final) == canonical(expected)
        assert min(compared.values()) >= 100, compared

    def test_check_reports_match_json_module(self, capsys, monkeypatch):
        """``check``'s reports, passing and failing ones each written from a
        template, give the json module's bytes for dicts built here; names
        and witnesses carry quotes, backslashes, newlines and non-ASCII
        text."""
        texts = ["plain", 'a"b', "back\\slash", "new\nline", "\u00e9", "\U0001f600", ""]
        reports = []
        for k, text in enumerate(texts):
            reports.append(verify.PropertyReport(f"order-{k}:{text}"))
            reports.append(verify.PropertyReport(
                f"step-{k}:{text}", (("pair", f"({text},m)"), ("set", "{" + text + "}"))))
        reports += [verify.PropertyReport("one-key", (("layer", "{m}"),)),
                    verify.PropertyReport("no-witness", ())]
        for chosen in (reports[::2], reports, reports[1::2], []):
            monkeypatch.setattr(verify, "run_suite", lambda *args: chosen)
            code, out, _ = run(capsys, "check", "--preset", "LOC2", "--levels", '[["m"]]',
                               "--format", "json")
            failed = [r for r in chosen if not r.passed]
            assert code == (1 if failed else 0)
            dicts = [{"name": r.name, "passed": r.passed} if r.passed else
                     {"name": r.name, "passed": False, "counterexample": dict(r.counterexample)}
                     for r in chosen]
            assert out == json.dumps({"passed": not failed, "reports": dicts},
                                     indent=2, sort_keys=True) + "\n"

    def test_every_json_output_is_canonical(self, capsys, tmp_path):
        """Every JSON document is the json module's canonical form: on the
        presets, and on seeded posets whose names carry quotes, backslashes,
        newlines and non-ASCII text, so that height keys, level-function
        keys, layers and ``check``'s envelope are escaped and sorted."""
        runs = []
        for name in PRESET_NAMES:
            base = ["--preset", name]
            runs += [["validate", *base], ["mutate", *base, "--at", '["o"]'],
                     ["filtration", *base, "--height-filtration"], ["cb", *base]]
            for policy in POLICIES:
                for levels in ('[["m"]]', '[["m"],["m"]]'):
                    chain = [*base, "--levels", levels, "--policy", policy]
                    runs += [["closure", *chain], ["closure", *chain, "--steps"],
                             ["cb", *chain], ["check", *chain]]
        rng = random.Random(22)
        prefixes = ['"', "\\", "\n", "\u00e9", "\U0001f600", "a b", "Z"]
        for k in range(40):
            order = random_order(rng, max_size=8)
            rename = {p: rng.choice(prefixes) + p for p in order.elements}
            path = tmp_path / f"named-{k}.json"
            path.write_text(json.dumps({
                "elements": list(rename.values()),
                "covers": [[rename[p], rename[q]] for p, q in covering_pairs(order)]}),
                encoding="utf-8")
            f = json.dumps({rename[p]: v for p, v in random_monotone_f(rng, order).items()})
            base = ["--file", str(path), "--f", f]
            chain = [*base, "--policy", POLICIES[k % len(POLICIES)]]
            runs += [["validate", "--file", str(path)], ["filtration", *base],
                     ["cb", *chain], ["check", *chain]]
        compared = Counter()
        for argv in runs:
            code, out, _ = run(capsys, *argv, "--format", "json")
            if out:
                compared[argv[0], argv[1]] += 1
                assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert compared.total() >= 250
        assert compared["validate", "--file"] == compared["filtration", "--file"] == 40
        assert compared["cb", "--file"] >= 20 and compared["check", "--file"] >= 30

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

    def test_closure_json_joins_each_row_once(self, capsys, monkeypatch):
        """Over the orders of one ``closure --steps`` call, each distinct
        ``(point, mask)`` row of covers and relations is joined once, and
        each order's covers and relations are listed once, though ``final``
        repeats the last step's bracket and the orders repeat rows."""
        seen, original = [], mut.chain_order
        writers, joins, lists, select = [], [], [0], cli.select

        def chain_order(*args):
            seen.extend(chain := original(*args))
            return chain

        class Writer(cli._OrderWriter):
            def __init__(self, elements):
                super().__init__(elements)
                writers.append(self)

            def _pairs(self, masks):
                lists[0] += 1
                return super()._pairs(masks)

        def counted(items, mask):
            if any(items is w._tail for w in writers):
                joins.append(mask)
            return select(items, mask)

        monkeypatch.setattr("gspec.cli.mut.chain_order", chain_order)
        monkeypatch.setattr(cli, "_OrderWriter", Writer)
        monkeypatch.setattr(cli, "select", counted)
        code, out, _ = run(capsys, "closure", "--preset", "LOC3", "--policy", "assume-coherent",
                           "--levels", '[["m","r1","r2","r3"],["m"]]', "--steps",
                           "--format", "json")
        assert code == 0 and json.loads(out)["final"]["exact"] is False
        assert len(writers) == 1
        assert len([b for step, post in seen for bounds in (step.pre, post)
                    for b in (bounds.lower, bounds.upper)]) == 8
        written = {id(b.order): b.order for _, post in seen
                   for b in ((post.lower,) if post.exact else (post.lower, post.upper))}
        placed = [(i, m) for order in written.values()
                  for masks in (order.covers, [u & ~(1 << i) for i, u in enumerate(order.up)])
                  for i, m in enumerate(masks) if m]
        assert len(joins) == len(set(placed)) < len(placed)
        assert lists[0] == 2 * len(written)

    def test_engine_never_calls_the_name_based_oracle(self, capsys, monkeypatch):
        calls, row_verdicts = [], PrimePoset.row_verdicts

        def counted(self, *args):
            calls.append(args)
            return row_verdicts(self, *args)

        def refuse(*args):
            raise AssertionError("the engine called PrimePoset.coherent_complement")

        monkeypatch.setattr(PrimePoset, "row_verdicts", counted)
        monkeypatch.setattr(PrimePoset, "coherent_complement", refuse)
        for name in PRESET_NAMES:
            base = preset(name).base
            levels = {json.dumps([sorted(up_names(base, p))]) for p in base.elements
                      if up_names(base, p) != set(base.elements)}
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
