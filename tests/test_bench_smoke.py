"""The benchmark harness still runs against the current package.

``bench/run.py --smoke`` runs one op of each workload untraced and traced,
with the tracer wrapped around ``Order.__post_init__``, ``cli.main`` and the
other traced functions, and judges every output with the benchmark's own
checker.  It takes about a second.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines(), proc.stdout[-2000:]
