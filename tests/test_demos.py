"""The quick demos run end to end against the library in src/.

Demos 04 (which writes ./demo_results) and 06 take several seconds each
and are left out to keep the suite fast; run them by hand after changing
a public name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_generation_basics.py", "02_orthogonal_guidance.py", "03_dpp_baseline.py",
    "05_trace_replay.py",
])
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
