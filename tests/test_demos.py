"""Smoke test: the demos run to completion against the package in `src`.

`04_storm_week.py` is left out: it runs a two-day post-storm closed-loop
comparison of both controllers, about two minutes, too slow for the fast
suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_device_models.py", "02_milp_engine.py",
                                  "03_one_day_plan.py", "05_sizing_ladder.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
