"""Side modes of the benchmark, reached through ``run.py``.

``smoke``
    One op of each workload, untraced and traced, and ``check`` on each of
    the six ``gspec`` presets, all judged as in a full run; a few seconds.
    Also checks that ``BENCHMARK.json`` names exactly the metrics the code
    reports.  Exits 1 on an unexplained failure.
``reanchor``
    One-shot CLI timings of the ROADMAP baseline: ``closure`` on grid(3,3,3)
    and grid(4,4,3) with levels ``[up(x1_0_0), up(x1_1_0)]`` under
    ``assume-noncoherent``, and ``check`` on ``wide`` with 10 to 12 points
    and levels ``[m],[m]``.
``reference``
    Rewrites ``reference.json``: the output digest of every op of one pass
    of each workload on the default seed that passes its checks.
"""

from __future__ import annotations

import json
import platform
import sys
import time

import worker  # puts the checkout's src/ first on sys.path

import generators as gen
import outcome
import spans
import workloads
from gspec import PRESET_NAMES


def _judged(ops, argvs, tracer=None) -> list[str]:
    """Run and judge ops once; returns the unexplained problems."""
    problems = []
    for k, (op, argv) in enumerate(zip(ops, argvs)):
        frame = tracer.begin_op(k) if tracer else None
        _, code, out, err, exc = worker.run_op(argv)
        if frame is not None:
            tracer.end_op(frame)
        verdict = outcome.judge(op, code, out, err, exc)
        label = verdict.cause if verdict.failed else "ok"
        print(f"  {op.id} {' '.join(op.argv[:1] + op.argv[3:5])[:60]}: {label}")
        if verdict.cause == outcome.UNEXPLAINED:
            problems.append(f"{op.id}: {verdict.problem}")
    return problems


def smoke(workdir: str) -> int:
    problems = []
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != list(spans.METRICS):
        problems.append("BENCHMARK.json per_layer differs from spans.METRICS")
    for name in workloads.WORKLOADS:
        ops, argvs = worker.set_up(name, worker.DEFAULT_SEED, workdir)
        small = min(range(len(ops)), key=lambda k: (ops[k].poset.n, k))
        for traced in (False, True):
            tracer = spans.Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                problems += _judged(ops[small:small + 1], argvs[small:small + 1], tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer and tracer.calls[tracer.names.index("cli.main")] != 1:
                problems.append(f"{name}: traced run did not see cli.main")
    for name in PRESET_NAMES:
        op = workloads.Op(f"preset-{name}", "check", gen.Poset((), ()),
                          ["check", "--preset", name, "--height-filtration", "--format", "json"],
                          workloads.ERROR, "json", [])
        problems += _judged([op], [op.argv])
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def reanchor(workdir: str) -> int:
    timings = {}
    for shape in ((3, 3, 3), (4, 4, 3)):
        poset = gen.grid(*shape)
        workdir.mkdir(parents=True, exist_ok=True)
        path = f"{workdir}/grid.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(poset.document(), handle)
        levels = json.dumps([sorted(poset.upset("x1_0_0")), sorted(poset.upset("x1_1_0"))])
        seconds, code, *_ = worker.run_op(["closure", "--file", path, "--levels", levels,
                                           "--policy", "assume-noncoherent"])
        timings[f"closure grid{shape} n={poset.n}"] = (round(seconds, 3), code)
    for points in (10, 11, 12):
        poset = gen.wide(points - 2)
        path = f"{workdir}/wide.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(poset.document(), handle)
        seconds, code, *_ = worker.run_op(["check", "--file", path, "--levels",
                                           '[["m"],["m"]]', "--format", "json"])
        timings[f"check wide n={points}"] = (round(seconds, 3), code)
    print(json.dumps({"python": platform.python_version(), "timings_s_exit": timings}))
    return 0


def reference(workdir: str) -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        ops, argvs = worker.set_up(name, worker.DEFAULT_SEED, workdir)
        run = worker.Run(name, worker.DEFAULT_SEED, ops, argvs)
        run.reference = {}
        run.one_pass()
        digests[name] = run.digests
        print(f"{name}: {len(run.digests)} of {len(ops)} ops recorded")
    worker.REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    mode = sys.argv[1]
    workdir = worker.WORK / mode
    start = time.perf_counter()
    try:
        return {"smoke": smoke, "reanchor": reanchor, "reference": reference}[mode](workdir)
    finally:
        print(f"{mode}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
