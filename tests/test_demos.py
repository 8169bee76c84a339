"""Every demo script runs to completion against the package under test."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import package_env

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "*.py"
)))


def test_demos_are_found():
    # An empty glob would leave the parametrized test below skipped.
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(path):
    proc = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, timeout=120, env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
