"""gspec benchmark: run one workload in fresh processes and print its metrics.

    python3 bench/run.py --workload closure-grid --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --smoke            # one op per workload and preset
    python3 bench/run.py --reanchor         # one-shot ROADMAP baseline timings
    python3 bench/run.py --record-reference # rewrite reference.json

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it say
the same in words, with the sample count and the failures by cause.

This launcher never imports ``gspec``.  It starts the workload process
(``worker.py``) several times with ``--setup-only`` and once more to measure,
and reports the median set-up time.  It exits with 2, printing no result,
when the checkout has no ``src/gspec`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closure-grid", "closure-random", "check-small")
SETUP_RUNS = 4        # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0    # a run must end within 180 s

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _child(args: list[str], seed: int, timeout: float) -> dict:
    """Run ``worker.py`` and parse its JSON line; raises on any failure."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--t0", repr(t0), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [_child(common + ["--setup-only"], seed, DEADLINE_S)["setup_s"]
              for _ in range(SETUP_RUNS)]
    remaining = DEADLINE_S - (time.monotonic() - start)
    result = _child(common + ["--trace", str(int(trace))], seed, remaining)
    result["setup_samples"] = setups + [result["setup_s"]]
    result["setup_s"] = statistics.median(result["setup_samples"])
    return result


def _extras(mode: str) -> int:
    return subprocess.run([sys.executable, str(BENCH / "extras.py"), mode], cwd=ROOT).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reanchor", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gspec" / "__init__.py").is_file():
        print(f"run.py: no gspec sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    for flag, mode in ((args.smoke, "smoke"), (args.reanchor, "reanchor"),
                       (args.record_reference, "reference")):
        if flag:
            return _extras(mode)
    if args.workload is None:
        parser.error("--workload is required")

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    causes = ", ".join(f"{cause} {n}" for cause, n in sorted(result["causes"].items()))
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes; "
          f"{result['samples']} latency samples, each an op's minimum over the "
          f"untraced passes; error_rate {failed / attempted:.4f} "
          f"({failed} of the {attempted} distinct ops{'; ' + causes if causes else ''})")
    print("setup_s samples: " + " ".join(f"{x:.3f}" for x in result["setup_samples"]))
    if "unscaled" in result:
        print("unscaled wall times: " + ", ".join(
            f"{name} {value:.4g}" for name, value in result["unscaled"].items()))
    for problem in result["unexplained"][:20]:
        print(f"  unexplained: {problem}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        print(f"traced: {result['spans']} spans of the first traced pass in "
              f"{result['spans_file']}; per-layer values are per pass.  No per-layer "
              "wait metrics: one client, a closed loop, no queue, lock or thread.")
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not result["unexplained"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
