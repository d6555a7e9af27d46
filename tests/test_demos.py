"""Every script in ``demos/`` runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prevratio

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # from an empty directory, so a demo that reads or writes relative paths shows up
    src = os.path.dirname(os.path.dirname(prevratio.__file__))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
