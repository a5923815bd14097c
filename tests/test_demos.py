"""Every demo script runs to completion against the package sources and
prints exactly the pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos are seeded and print no
# timings, so the text is the same under any PYTHONHASHSEED; a change that
# moves one character of it fails here.
STDOUT_SHA256 = {
    "01_exact_arithmetic":
        "f329f083d5ebd117617ee751b74678e233707142d9cf69e6c76013f2c854be3c",
    "02_binary_odometer":
        "1dcd5069bed6ca9a6a5367289df3c3bbe3bff13130f908bffb67be60177a5d1c",
    "03_partition_starvation":
        "4d8a928d76e1b99b68e6044dd0b793dbcb274ad23ba3478d9f402ff682fc9b56",
    "04_rotation_tower":
        "55040c0781da2fb8d9487ae3cbe56ad7b0189b2a93f506356d901dc992553bcd",
    "05_confounding_adversary":
        "29f450ff57244dddaf801b0aef5c98fa559c24bf33a40125f1d34469f6b5a854",
    "06_baselines":
        "aa778b725356434c0ec98ced50651c9a8d9027c8a89e0195b2df3a98668b0411",
}


def test_demos_exist():
    assert DEMOS
    assert sorted(demo.stem for demo in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:].decode(
        errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() \
        == STDOUT_SHA256[demo.stem], result.stdout.decode(errors="replace")
