"""The benchmark's workloads: one pass is a fixed list of CLI operations.

The seed relabels primes and picks filtrations and policies; the size mix of
each workload is fixed, so the amount of work per pass barely moves between
seeds.  No input repeats within a pass.

Workloads (why each exists is also in ``BENCHMARK.json``):

``closure-grid``
    ``closure --steps`` (JSON and DOT) on the grid ladder grid(1,1,1) ..
    grid(4,3,3), 9 to 81 primes: the engine at scale (``Order``
    construction, the coherence oracle and the one-step transitive closure).
``closure-random``
    ~600 small random posets, mostly ``closure --steps --format json`` with
    some ``cb``, ``mutate`` and ``filtration``: fixed per-call costs
    (argument parsing, loading, rendering) set the median.
``check-small``
    300 ``check --format json`` ops: ``wide(k)`` for k = 1..10, grid(2,1,1),
    random posets of 4 to 8 points, and a handful above the 16-point
    enumeration bound: the brute-force verifier and closed-set enumeration.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import generators as gen

ERROR, COHERENT, NONCOHERENT = "error", "assume-coherent", "assume-noncoherent"
POLICIES = (ERROR, COHERENT, NONCOHERENT)
ENUMERATION_BOUND = 16  # gspec.poset.DEFAULT_ENUMERATION_BOUND at this commit

# grid(a, b, c) -> ops per pass: more small ops than large, 100 in all, about
# 10 s on a 2-core x86 VM.  Sorted by latency the classes hold ranks 1-38
# (grid(1,1,1), grid(2,1,1) and every --policy error op), 39-62, 63-83, 84-95
# and 96-100, so the median falls in the middle of grid(2,2,1) and the 90th
# percentile in the middle of grid(3,2,2), not on a class boundary.
GRID_LADDER = (
    ((1, 1, 1), 20),
    ((2, 1, 1), 18),
    ((2, 2, 1), 24),
    ((2, 2, 2), 21),
    ((3, 2, 2), 12),
    ((3, 3, 2), 3),
    ((3, 3, 3), 1),
    ((4, 3, 3), 1),
)
RANDOM_OPS = 600
CHECK_RANDOM_OPS = 236
# 50 checks on grid(2,1,1) (13 points, 15 to 22 ms each) make the 90th
# percentile fall inside one class of fixed inputs; over random posets alone
# it moved 30% between seeds with the tail of the distribution.
CHECK_GRID, CHECK_GRIDS = (2, 1, 1), 50
# A random check op costs up to |closed sets|^2 of a step's pre-order, which
# after a few mutations can be nearly discrete: at 9 or 10 points single ops
# took 0.3 to 1.5 s on some seeds and moved a pass by 15%.  At 8 points the
# worst case is 256^2 mixtures, so the tail stays bounded.
CHECK_RANDOM_MAX = 8
WIDE_CHECK = tuple(range(1, 11))
# Above gspec's 16-point enumeration bound: three grid(2,2,1) (19 points) and
# one wide(15) (17 points).
ABOVE_BOUND_GRID, ABOVE_BOUND_GRIDS, ABOVE_BOUND_WIDE = (2, 2, 1), 3, 15

WORKLOADS = ("closure-grid", "closure-random", "check-small")


@dataclass
class Op:
    """One ``gspec.cli.main`` call and what the checker needs to judge it.

    ``argv`` holds the literal ``{file}`` where the poset document's path
    goes; set-up writes ``document`` there.  ``levels`` are the normalised
    filtration levels the op asks for.
    """

    id: str
    kind: str
    poset: gen.Poset
    argv: list[str]
    policy: str
    fmt: str
    levels: list[frozenset[str]]
    at: frozenset[str] | None = None

    @property
    def expected_codes(self) -> frozenset[int]:
        return frozenset({0, 2}) if self.policy == ERROR else frozenset({0})


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closure-grid":
        ops = _closure_grid(rng)
    elif workload == "closure-random":
        ops = _closure_random(rng)
    elif workload == "check-small":
        ops = _check_small(rng)
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    for k, op in enumerate(ops):
        op.id = f"{workload}-{k:04d}"
    return ops


def _levels_arg(levels: list[frozenset[str]]) -> str:
    return json.dumps([sorted(level) for level in levels])


def _grid_levels(shape: tuple[int, int, int], count: int, poset: gen.Poset):
    """``count`` level pairs ``[up(u), up(v)]``: u one step above the bottom
    corner along some axis, v one more step along some axis.

    Keeping u and v this low fixes the work per op to within ~15%; a free
    choice of principal upper sets swings it about 2x between seeds.  The
    choices cycle in a fixed order, so their mix does not depend on the seed.
    """
    choices = []
    for a in range(3):
        for b in range(3):
            v = [0, 0, 0]
            v[a] += 1
            u = "x%d_%d_%d" % tuple(v)
            v[b] += 1
            if all(v[i] <= shape[i] for i in range(3)):
                choices.append((poset.upset(u), poset.upset("x%d_%d_%d" % tuple(v))))
    return [list(choices[i % len(choices)]) for i in range(count)]


def _relabelled(rng: random.Random, poset: gen.Poset, levels, prefix: str):
    fresh, rename = poset.relabel(rng, prefix)
    return fresh, [frozenset(rename[p] for p in level) for level in levels]


def _closure_grid(rng: random.Random) -> list[Op]:
    ops = []
    for shape, count in GRID_LADDER:
        base = gen.grid(*shape)
        # Fixed policy and format mix per size; the seed only decides which
        # op gets which.  Under --policy error the engine stops at the first
        # undetermined pair, so those ops only appear on the two smallest
        # sizes, which they do not leave when sorted by latency.
        policies = [NONCOHERENT] * count
        policies[:count // 8] = [COHERENT] * (count // 8)
        if shape < (2, 2, 1):
            policies[count // 8: 2 * (count // 8)] = [ERROR] * (count // 8)
        formats = ["dot" if i % 4 == 3 else "json" for i in range(count)]
        rng.shuffle(policies)
        rng.shuffle(formats)
        choices = _grid_levels(shape, count, base)
        for policy, fmt, levels in zip(policies, formats, choices):
            poset, levels = _relabelled(rng, base, levels, "v")
            ops.append(Op("", "closure", poset,
                          ["closure", "--file", "{file}", "--levels", _levels_arg(levels),
                           "--policy", policy, "--steps", "--format", fmt],
                          policy, fmt, levels))
    rng.shuffle(ops)
    return ops


def _random_inputs(rng: random.Random, count: int, lo: int, hi: int):
    """``count`` distinct (poset, level function) pairs, relabelled.

    Sizes cycle through lo..hi and the level function's bump count through
    0..6, so the mix is the same for every seed; the seed draws the rest.
    """
    seen = set()
    out = []
    sizes = hi - lo + 1
    while len(out) < count:
        k = len(out)
        poset = gen.random_order(rng, lo + k % sizes)
        f = gen.random_monotone_f(rng, poset, k // sizes % 7)
        poset, rename = poset.relabel(rng, "x")
        f = {rename[p]: v for p, v in f.items()}
        key = (poset.names, poset.up, tuple(sorted(f.items())))
        if key in seen:
            continue
        seen.add(key)
        out.append((poset, f))
    return out


def _closure_random(rng: random.Random) -> list[Op]:
    ops = []
    for k, (poset, f) in enumerate(_random_inputs(rng, RANDOM_OPS, 4, 14)):
        policy = POLICIES[k % 3]
        slot = k % 10
        if slot < 7:
            levels = gen.f_levels(poset, f)
            ops.append(Op("", "closure", poset,
                          ["closure", "--file", "{file}", "--f", json.dumps(f, sort_keys=True),
                           "--policy", policy, "--steps", "--format", "json"],
                          policy, "json", levels))
        elif slot == 9:
            ops.append(Op("", "filtration", poset,
                          ["filtration", "--file", "{file}", "--f", json.dumps(f, sort_keys=True),
                           "--format", "json"],
                          ERROR, "json", gen.f_levels(poset, f)))
        else:
            # One level: the chain is a single one-step tilt, always exact, so
            # cb and mutate never hit their "inexact order" exit 3.
            top = (1 << poset.n) - 1
            candidates = [i for i in range(poset.n) if poset.up[i] != top]
            V0 = poset.names_of(poset.up[rng.choice(candidates)])
            argv = ["--file", "{file}", "--levels", _levels_arg([V0]),
                    "--policy", policy, "--format", "json"]
            if slot == 7:
                ops.append(Op("", "cb", poset, ["cb"] + argv, policy, "json", [V0]))
            else:
                E = frozenset(poset.names) - V0
                ops.append(Op("", "mutate", poset,
                              ["mutate"] + argv + ["--at", json.dumps(sorted(E))],
                              policy, "json", [V0], at=E))
    return ops


def _check_small(rng: random.Random) -> list[Op]:
    ops = []

    def check_levels(poset, levels, policy):
        poset, levels = _relabelled(rng, poset, levels, "y")
        ops.append(Op("", "check", poset,
                      ["check", "--file", "{file}", "--levels", _levels_arg(levels),
                       "--policy", policy, "--format", "json"],
                      policy, "json", levels))

    for k in WIDE_CHECK + (ABOVE_BOUND_WIDE,):
        poset = gen.wide(k)
        top = poset.upset("m")
        check_levels(poset, [top, top], ERROR)
    for shape, count in ((CHECK_GRID, CHECK_GRIDS), (ABOVE_BOUND_GRID, ABOVE_BOUND_GRIDS)):
        poset = gen.grid(*shape)
        for levels in _grid_levels(shape, count, poset):
            check_levels(poset, levels, NONCOHERENT)
    for k, (poset, f) in enumerate(_random_inputs(rng, CHECK_RANDOM_OPS, 4, CHECK_RANDOM_MAX)):
        policy = POLICIES[k % 3]
        ops.append(Op("", "check", poset,
                      ["check", "--file", "{file}", "--f", json.dumps(f, sort_keys=True),
                       "--policy", policy, "--format", "json"],
                      policy, "json", gen.f_levels(poset, f)))
    rng.shuffle(ops)
    return ops
