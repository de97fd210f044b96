"""The benchmark's own self-test passes against the current package.

``e2ebench/spans.py`` wraps package functions by name (``sample``,
``mask_distribution``, ``check_distribution`` and others), so renaming
or re-plumbing one of them would break the traced benchmark run; the
self-test runs every workload at tiny sizes, traced and untraced.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_e2ebench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "selftest.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
