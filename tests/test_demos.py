"""Smoke test of the demos: each script under demos/ runs to exit 0."""

import glob
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = subprocess.run([sys.executable, path], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
