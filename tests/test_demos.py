"""Every script under ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout
