"""Every narrative script under demos/ runs to completion, from a copy outside the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(script, tmp_path):
    # a demo writes beside itself (demos/output/), so its copy writes under tmp_path
    copy = shutil.copy(script, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, copy], capture_output=True, text=True, env=env,
                            cwd=tmp_path)
    assert result.returncode == 0, result.stderr
