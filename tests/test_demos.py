"""Every demo script prints exactly its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_pinned(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{script.stem}.txt").read_text()
