"""Every demo script, and the README's quick start, runs to completion
against the library in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
CASES = [[str(d)] for d in DEMOS] + [["-c", QUICK_START]]


@pytest.mark.parametrize("argv", CASES, ids=[d.name for d in DEMOS] + ["README.md"])
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
