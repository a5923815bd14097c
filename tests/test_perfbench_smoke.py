"""The benchmark's smoke run passes against the package sources.

``perfbench/run.py --smoke`` runs tiny configs of every workload, untraced
and traced, and checks the output digests and that every metric of
BENCHMARK.json is emitted.  Its tracer patches ergolab functions and
methods by name, so this also catches a rename it depends on.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (result.stdout[-2000:]
                                    + result.stderr[-2000:])
