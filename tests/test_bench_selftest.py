"""The benchmark's own correctness checks, run with the tests.

``bench/selftest.py`` shows that each check passes a good result and
rejects a corrupted copy of it.  It corrupts results with
``dataclasses.replace``, so a package change that breaks a check, such as
turning ``WordHypothesis`` into a named tuple, fails here and not first in
a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: 0 failed"
