"""Every script in demos/, and the README's quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qbsde

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(tmp_path, *args):
    """Run python with args in tmp_path, importing this checkout's qbsde."""
    src = str(Path(qbsde.__file__).resolve().parent.parent)
    env = dict(os.environ, TMPDIR=str(tmp_path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    out = _run(tmp_path, str(demo))
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs(tmp_path):
    # the README's python block is the library's front door: it must run
    # against the current API and print the value its comment states
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = _run(tmp_path, "-c", block)
    assert out.returncode == 0, out.stderr
    y0, se = map(float, out.stdout.split())
    assert abs(y0 - 0.5003) < 5e-5 and abs(se - 0.0032) < 5e-5
