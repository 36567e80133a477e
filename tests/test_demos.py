"""The narrative demos run as a user runs them (05, a 10 s live bench, is left out)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_fit_and_select.py": "best f1_macro within 75 MB: TinyBERT",
    "02_replay_simulation.py": "billed: 287.0 GB-seconds",
    "03_memory_sweep.py": "memory beyond ~1.7 GB is pure cost",
    "04_cost_breakeven.py": "below 4,285,707 requests/month",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
