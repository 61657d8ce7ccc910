"""Smoke runs of the scripts under scripts/: they import the package by
name, so a renamed function or field must fail here, not at the next manual
run."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, arg, last_line", [
    ("run_put_benchmark.py", "400", "n_cells=  400"),
    ("run_bump_verification.py", "20", "branching test: "),
])
def test_script_runs(script, arg, last_line):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), arg], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith(last_line)
