"""Every script in ``examples/`` runs cleanly, as its docstring says to run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.stem)
def test_example_runs_cleanly(path):
    src = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(src)}
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    for complaint in ("Traceback", "Exception in callback", "never awaited"):
        assert complaint not in done.stderr, done.stderr
