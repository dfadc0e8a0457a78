"""Each script under benchmarks/ runs to completion at its smallest size.

The scripts import engine names by hand, so a renamed or deleted name
breaks them without failing any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SMALLEST = {
    "bench_linalg.py": ["--sizes", "20x20", "--repeat", "1"],
    "bench_gb.py": ["--ms", "4", "--repeat", "1", "--p", "3"],
    "bench_verify.py": ["--cases", "3:4", "--cones", "quadric:4", "--repeat", "1"],
    "bench_oracle.py": ["--repeat", "1"],
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "benchmarks").glob("*.py")))
def test_benchmark_script_runs(script):
    """A new script fails here until SMALLEST names its smallest size."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *SMALLEST[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
