"""One workload process: set up, run whole passes, report one JSON line.

Started by ``run.py`` with ``PYTHONHASHSEED`` fixed from the seed, so the
same seed gives the same set iteration order and so the same work.  Everything
before the first timed op (interpreter start, ``import gspec``, generating and
writing the inputs) is set-up.  An op is one ``gspec.cli.main(argv)`` call
with stdout and stderr captured in memory; its wall time excludes judging the
output.  Passes repeat the same op list until ``--seconds`` have passed, and
always finish, so every run measures whole passes of the same mix.
``longest_chain``'s cache is cleared between passes so that a repeated input
cannot hit it; within a pass no input repeats.  ``attempted`` and ``failed``
count the distinct ops of the pass, each judged on its first run, so they do
not depend on how many passes fit into ``--seconds``: the same seed gives the
same counts.  A later run of an op must repeat its first output exactly.

The machine's speed swings by up to 2x over minutes, with other tenants'
load.  So before each op a fixed loop (a *tick*) is timed, and each op's
wall time is scaled by the reference tick over the mean tick around it: the
time the op would take at the reference speed.  Each op's figure is then
its minimum scaled time over the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gspec  # noqa: E402
import gspec.cli  # noqa: E402
import gspec.poset  # noqa: E402

import outcome  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
# The cache the program keeps across calls at this commit, if it still has it.
_CACHED = getattr(gspec.poset, "longest_chain", None)
TICK_LOOPS = 2000
# About the median tick on the 2-vCPU Xeon VM of results/; fixed, so that
# scaled times compare across runs and commits.
TICK_REFERENCE_S = 2.0e-4
TICK_WINDOW = 10          # ticks on each side of an op that set its speed
PAIRED_PASSES = 4


def _check_source() -> None:
    if not Path(gspec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"gspec imported from {gspec.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, workdir: Path):
    """Generate the pass and write its poset documents; returns
    ``(ops, argvs)`` with the file paths filled in.

    The files keep their names from run to run, and a later run rewrites
    them in place without first truncating them to zero: on the ext4 disk
    measured, creating 600 small files took 0.1 to 0.6 s, truncating and
    rewriting them 0.02 to 0.2 s, and rewriting in place about 0.01 s.
    Either of the first two made set-up time mostly file-system noise.
    """
    ops = workloads.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in ops:
        path = str(workdir / f"{op.id}.json")
        data = json.dumps(op.poset.document()).encode()
        with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
            handle.write(data)
            handle.truncate()
        argvs.append([path if arg == "{file}" else arg for arg in op.argv])
    return ops, argvs


def tick() -> float:
    """Seconds of a fixed pure-Python loop: the machine's speed of the moment."""
    start = time.perf_counter()
    total = 0
    for i in range(TICK_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(durations: list[float], ticks: list[float]) -> list[float]:
    """Each duration at the reference speed, from the mean tick around it."""
    out = []
    for k, seconds in enumerate(durations):
        near = ticks[max(0, k - TICK_WINDOW):k + TICK_WINDOW + 1]
        out.append(seconds * TICK_REFERENCE_S * len(near) / sum(near))
    return out


def run_op(argv: list[str]):
    """``(seconds, exit code, stdout, stderr, exception)`` of one op."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = gspec.cli.main(argv)
        except Exception as caught:  # a traceback for a CLI user: failure (a)
            exc = caught
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), exc


def _fingerprint(code, out: str, err: str, exc) -> str:
    text = json.dumps([code, out, err, repr(exc)])
    return hashlib.sha256(text.encode()).hexdigest()


def _cache_info() -> dict[str, int]:
    info = _CACHED.cache_info() if hasattr(_CACHED, "cache_info") else None
    if info is None:
        return {"hits": 0, "misses": 0, "entries": 0}
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def _clear_cache() -> None:
    if hasattr(_CACHED, "cache_clear"):
        _CACHED.cache_clear()


def _reset_between_passes() -> None:
    _clear_cache()
    gc.collect()


class Run:
    """The passes of one workload process and what they measured."""

    def __init__(self, workload: str, seed: int, ops, argvs) -> None:
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.argvs = argvs
        self.reference = {}
        if seed == DEFAULT_SEED and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text())[workload]
        self.first: list[str] = []        # per-op fingerprint of the first pass
        self.failed_ops: dict[int, tuple[str, str]] = {}
        self.digests: dict[str, str] = {}
        self.cache: Counter = Counter()   # longest_chain statistics, traced runs

    def one_pass(self) -> tuple[list[float], list[float]]:
        """Run the op list once, a tick before each op; returns each op's
        wall time and its tick."""
        durations, ticks = [], []
        for k, argv in enumerate(self.argvs):
            ticks.append(tick())
            seconds, *result = run_op(argv)
            durations.append(seconds)
            self._record(k, *result)
        return durations, ticks

    def paired_pass(self, tracer: spans.Tracer, flip: int) -> tuple[list[float], list[float]]:
        """Run every op twice in a row, untraced and traced, each from an
        empty ``longest_chain`` cache; ``flip`` and the op's index pick which
        runs first.  Returns the untraced and the traced wall times.  The two
        runs of a pair are milliseconds apart, so the machine's speed swings
        cancel out of the tracing overhead."""
        plain, traced = [], []
        for k, argv in enumerate(self.argvs):
            for with_trace in ((k + flip) % 2 == 0, (k + flip) % 2 == 1):
                _clear_cache()
                if not with_trace:
                    seconds, *result = run_op(argv)
                    plain.append(seconds)
                    self._record(k, *result)
                    continue
                tracer.install()
                frame = tracer.begin_op(k)
                try:
                    seconds, *result = run_op(argv)
                finally:
                    tracer.end_op(frame)
                    tracer.uninstall()
                self.cache.update(_cache_info())
                traced.append(seconds)
                self._record(k, *result)
        _clear_cache()
        return plain, traced

    def _record(self, k: int, code, out: str, err: str, exc) -> None:
        """Judge the first run of op ``k``; later runs must repeat it."""
        fingerprint = _fingerprint(code, out, err, exc)
        if len(self.first) == k:
            self.first.append(fingerprint)
            self._judge(k, self.ops[k], code, out, err, exc)
        elif fingerprint != self.first[k] and k not in self.failed_ops:
            self.failed_ops[k] = (outcome.UNEXPLAINED, "output differs between runs")

    def _judge(self, k: int, op, code, out, err, exc) -> None:
        verdict = outcome.judge(op, code, out, err, exc)
        if verdict.failed:
            self.failed_ops[k] = (verdict.cause, verdict.problem)
            return
        self.digests[op.id] = verdict.digest
        expected = self.reference.get(op.id)
        if expected is not None and expected != verdict.digest:
            self.failed_ops[k] = (outcome.UNEXPLAINED,
                                  f"output differs from reference.json ({expected})")


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _per_op(passes: list[list[float]]) -> list[float]:
    """Each op's minimum time over the passes."""
    return [min(times) for times in zip(*passes)]


def _scaled_since(t0: float) -> float:
    """Set-up's seconds since ``t0`` at the reference speed: ticks right
    after it stand for the speed during it."""
    seconds = time.monotonic() - t0
    ticks = [tick() for _ in range(2 * TICK_WINDOW + 1)]
    return seconds * TICK_REFERENCE_S * len(ticks) / sum(ticks)


def measure(run: Run, seconds: float, t0: float, trace: bool) -> dict:
    """Run whole passes for at least ``seconds``, and at least two.

    In a traced run the first pass is an untraced warm-up that judges the
    outputs; every later pass is a ``paired_pass``, at least
    ``PAIRED_PASSES`` of them.
    """
    _reset_between_passes()
    setup_s = _scaled_since(t0)
    start = time.perf_counter()
    plain: list[list[float]] = []
    raw: list[list[float]] = []
    traced: list[list[float]] = []
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        run.one_pass()
        _reset_between_passes()
    least = 2 if tracer is None else PAIRED_PASSES
    while len(plain) < least or time.perf_counter() - start < seconds:
        if tracer is None:
            durations, ticks = run.one_pass()
            raw.append(durations)
            plain.append(scaled(durations, ticks))
        else:
            tracer.recording = not traced
            untraced, with_spans = run.paired_pass(tracer, len(traced) % 2)
            tracer.recording = False
            plain.append(untraced)
            traced.append(with_spans)
        _reset_between_passes()
    per_op = _per_op(plain)
    result = {
        "setup_s": setup_s,
        "samples": len(per_op),
        "passes": len(plain),
        "throughput_ops_s": len(per_op) / sum(per_op),
        "latency_p50_ms": 1000 * _quantile(per_op, 50),
        "latency_p90_ms": 1000 * _quantile(per_op, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if raw:
        unscaled = _per_op(raw)
        result["unscaled"] = {"throughput_ops_s": len(unscaled) / sum(unscaled),
                              "latency_p50_ms": 1000 * _quantile(unscaled, 50),
                              "latency_p90_ms": 1000 * _quantile(unscaled, 90)}
    if tracer is not None:
        layers = spans.layer_metrics(tracer, len(traced), run.cache)
        traced_per_op = _per_op(traced)
        layers["trace.untraced_throughput_ops_s"] = result["throughput_ops_s"]
        layers["trace.traced_throughput_ops_s"] = len(traced_per_op) / sum(traced_per_op)
        # The median over ops: on closure-grid two ops take a third of a pass,
        # and the noise in their times is larger than the whole overhead.
        layers["trace.overhead_share"] = statistics.median(
            t / u for t, u in zip(traced_per_op, per_op)) - 1
        layers["trace.unattributed_share"] = (
            tracer.self_s[tracer.names.index(spans.OP_SPAN)] / sum(map(sum, traced)))
        result["layers"] = {name: (layers[name], unit)
                            for name, (unit, _) in spans.METRICS.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{run.workload}-seed{run.seed}.jsonl"
        result["spans"] = tracer.write_spans(str(path))
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _check_source()
    WORK.mkdir(exist_ok=True)
    # Held until the run ends: two runs of one workload in the same checkout
    # would otherwise overwrite each other's inputs.
    with open(WORK / f"{args.workload}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ops, argvs = set_up(args.workload, args.seed, WORK / args.workload)
        if args.setup_only:
            result = {"setup_s": _scaled_since(args.t0)}
        else:
            run = Run(args.workload, args.seed, ops, argvs)
            result = measure(run, args.seconds, args.t0, bool(args.trace))
            result.update(attempted=len(ops), failed=len(run.failed_ops),
                          causes=dict(Counter(cause for cause, _ in run.failed_ops.values())),
                          unexplained=sorted({f"{ops[k].id}: {problem}"
                                              for k, (cause, problem) in run.failed_ops.items()
                                              if cause == outcome.UNEXPLAINED}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
