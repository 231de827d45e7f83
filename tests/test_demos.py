"""The quick demos and README's library tour run end to end against the
library in src/.

Demo 04 writes ./demo_results, inside the test's temporary directory.
Demo 06 takes several seconds and is left out to keep the suite fast; run
it by hand after changing a public name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", [
    "01_generation_basics.py", "02_orthogonal_guidance.py", "03_dpp_baseline.py",
    "04_benchmark_grid.py", "05_trace_replay.py",
])
def test_demo_exits_0(tmp_path, demo):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", tour], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
