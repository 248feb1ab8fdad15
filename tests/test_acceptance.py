"""Acceptance gate: the worked examples and order-theoretic laws, exactly.

Every criterion prints one PASS/FAIL line (run ``pytest -s`` to see them on
success).  All comparisons are exact; the outputs are finite combinatorial
objects, so there are no tolerances anywhere.
"""

import random
from contextlib import contextmanager
from pathlib import Path

from conftest import (
    down_names,
    onestep,
    pairs_of,
    poset_from_order,
    random_monotone_f,
    random_order,
    up_names,
)
from gspec import (
    chain_order,
    f_to_filtration,
    filtration_to_f,
    final_order,
    height_filtration,
    longest_chain,
    preset,
    run_suite,
    validate_filtration,
)
from gspec.cli import main

GOLDEN = Path(__file__).parent / "golden"

LOC2_LEVEL1 = ["m", "p1", "p2", "p3", "p4", "p5"]

# Every preset with its worked filtrations, height filtrations included.
MATRIX = [
    ("DVR1", [["m"]]),
    ("LOC2", [["m"]]),
    ("LOC2", [["m"], ["m"]]),
    ("LOC2", [LOC2_LEVEL1, ["m"]]),
    ("LOC2M", [["m"]]),
    ("LOC2M", [["m"], ["m"]]),
    ("LOC2M", [["m", "q-1", "q-2", "q1", "q2"], ["m"]]),
    ("LOC3", [["m", "r1", "r2", "r3"]]),
    ("LOC3", [["m", "q1", "q2", "q3", "r1", "r2", "r3"],
              ["m", "r1", "r2", "r3"], ["m"]]),
    ("LOC3", [["m", "r1", "r2", "r3"], ["m"]]),  # exercises the bounded path
    ("POLY2", [["a", "m"]]),
    ("POLY2", [["a", "b", "m"], ["m"]]),
    ("NAGATA2", [["a", "m"]]),
    ("NAGATA2", [["a", "b", "m"], ["m"]]),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    print(f"[criterion {number:2d}] PASS - {description}")


def suite_reports():
    for name, levels in MATRIX:
        poset = preset(name)
        filt = validate_filtration(poset, [set(level) for level in levels])
        for report in run_suite(poset, filt):
            yield name, levels, report


def emitted_dot(tmp_path, *argv) -> str:
    target = tmp_path / "out.dot"
    code = main([*argv, "--format", "dot", "--out", str(target)])
    assert code == 0
    return target.read_text(encoding="utf-8")


def test_criterion_1_two_dimensional_figures(tmp_path):
    with criterion(1, "two-dimensional one- and two-step figures match the goldens"):
        for name, levels, golden in [
            ("LOC2", '[["m"]]', "loc2_onestep.dot"),
            ("LOC2", '[["m"],["m"]]', "loc2_twostep.dot"),
            ("LOC2M", '[["m"]]', "loc2m_onestep.dot"),
            ("LOC2M", '[["m"],["m"]]', "loc2m_twostep.dot"),
        ]:
            got = emitted_dot(tmp_path, "closure", "--preset", name, "--levels", levels)
            assert got == (GOLDEN / golden).read_text(encoding="utf-8"), golden

        # Middle panel, structurally: height-one primes become maximal and
        # every minimal prime still sits below the closed point.
        for name in ("LOC2", "LOC2M"):
            poset = preset(name)
            order = onestep(poset, {"m"}).order
            for p in poset.base.elements:
                if poset.height[p] == 1:
                    assert up_names(order, p) == {p}
                if poset.height[p] == 0:
                    assert "m" in up_names(order, p)
        # Right panel: the closed point is clopen.
        for name in ("LOC2", "LOC2M"):
            poset = preset(name)
            filt = validate_filtration(poset, [{"m"}, {"m"}])
            order = final_order(chain_order(poset, filt), poset).lower.order
            assert up_names(order, "m") == {"m"} and down_names(order, "m") == {"m"}


def test_criterion_2_three_dimensional_figure(tmp_path):
    with criterion(2, "three-dimensional one-step figure matches the golden"):
        got = emitted_dot(
            tmp_path, "closure", "--preset", "LOC3",
            "--levels", '[["m","r1","r2","r3"]]',
        )
        assert got == (GOLDEN / "loc3_onestep.dot").read_text(encoding="utf-8")

        poset = preset("LOC3")
        order = onestep(poset, {"m", "r1", "r2", "r3"}).order
        for target in ("r1", "r2", "r3", "m"):
            assert ("o", target) in pairs_of(order)
        for q in ("q1", "q2", "q3"):
            assert up_names(order, q) == {q}


def test_criterion_3_nagata_contrast():
    with criterion(3, "homeomorphic spectra with opposite coherence differ in (o, m) only"):
        poly = onestep(preset("POLY2"), {"a", "m"}).order
        nagata = onestep(preset("NAGATA2"), {"a", "m"}).order
        assert pairs_of(nagata) - pairs_of(poly) == {("o", "m")}
        assert pairs_of(poly) < pairs_of(nagata)


def test_criterion_4_truncated_slice():
    with criterion(4, "height filtrations resolve into discrete/perfect exact chains"):
        for name in ("LOC3", "DVR1"):
            poset = preset(name)
            steps = chain_order(poset, height_filtration(poset))
            assert steps, name
            for step, post in steps:
                assert step.rule in ("discrete", "perfect"), (name, step.index)
                assert step.perfect and post.exact, (name, step.index)
            final = final_order(steps, poset).lower.order
            assert final.is_discrete(final.full_mask), name


def test_criterion_5_refinement_property():
    with criterion(5, "every mutation step only removes relations"):
        seen = 0
        for name, levels, report in suite_reports():
            if ":refinement" in report.name:
                seen += 1
                assert report.passed, (name, levels, report)
        assert seen >= len(MATRIX)


def test_criterion_6_piecewise_property():
    with criterion(6, "subspace orders on the mutation class and complement never move"):
        seen = 0
        for name, levels, report in suite_reports():
            if ":piecewise" in report.name:
                seen += 1
                assert report.passed, (name, levels, report)
        assert seen >= len(MATRIX)


def test_criterion_7_brute_force_laws():
    with criterion(7, "discrete and perfect rewrites match exhaustive closed-set laws"):
        assert all(len(preset(name).base.elements) <= 8 for name, _ in MATRIX)
        seen = 0
        for name, levels, report in suite_reports():
            if ":discrete-law" in report.name or ":perfect-law" in report.name:
                seen += 1
                assert report.passed, (name, levels, report)
        assert seen > 0


def test_criterion_8_baseline_properties():
    with criterion(8, "exact orders refine inclusion, are T0 and sober, keep levels open"):
        wanted = (":refines-inclusion", ":t0", ":sober", ":levels-open",
                  ":strata-restriction", ":maximal-difference")
        seen = 0
        for name, levels, report in suite_reports():
            if any(report.name.endswith(w) for w in wanted):
                seen += 1
                assert report.passed, (name, levels, report)
        assert seen >= 6 * len(MATRIX)


def test_criterion_9_level_function_round_trip():
    with criterion(9, "level-function round trip on 100 random posets"):
        rng = random.Random(20250809)
        for _ in range(100):
            poset = poset_from_order(random_order(rng, max_size=10))
            f = random_monotone_f(rng, poset.base)
            filt = f_to_filtration(poset, f)
            assert filtration_to_f(filt) == f
            assert f_to_filtration(poset, filtration_to_f(filt)) == filt


def test_criterion_10_cantor_bendixson_correspondence():
    with criterion(10, "Cantor-Bendixson rank equals longest chain on every computed order"):
        seen = 0
        for name, levels, report in suite_reports():
            if report.name.endswith(":cb"):
                seen += 1
                assert report.passed, (name, levels, report)
        assert seen > 0
        # Spot values, frozen from the worked examples.
        poset = preset("LOC2")
        from gspec import cb_filtration, standard_order
        assert len(cb_filtration(standard_order(poset).order)) - 1 == 2
        filt = validate_filtration(poset, [{"m"}, {"m"}])
        final = final_order(chain_order(poset, filt), poset).lower.order
        layers = cb_filtration(final)
        assert len(layers) - 1 == 1 == longest_chain(final)
        assert final.names(layers[0]) == {"m", "p1", "p2", "p3", "p4", "p5"}
