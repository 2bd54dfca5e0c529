"""The benchmark's own tests, run from Tier-1.

perfbench/ wraps engine methods by name to time them, so an engine change
that breaks those bindings fails here before it reaches the benchmark.
perfbench stays out of `testpaths`: its conftest.py would shadow the
`conftest` module that tests/test_acceptance.py imports by name.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=600)  # a hang fails here, not at the CI job's own limit
    assert result.returncode == 0, result.stdout + result.stderr
