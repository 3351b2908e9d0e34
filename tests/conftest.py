from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import foodn

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"

POLYGONS = str(foodn.fixture_path("polygons.foodn"))
DISJOINT = str(foodn.fixture_path("disjoint.foodn"))


@pytest.fixture
def polygons():
    net, warnings = foodn.load_file(POLYGONS)
    assert warnings == []
    return net


@pytest.fixture
def disjoint():
    net, warnings = foodn.load_file(DISJOINT)
    assert warnings == []
    return net


def run_cli(*args, env=None):
    """Run the CLI exactly as a user would; returns (exit, stdout, stderr)."""
    import os

    full_env = dict(os.environ)
    # the child imports the same foodn as the tests, installed or not
    src = str(Path(foodn.__file__).resolve().parent.parent)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "foodn", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )
    return proc.returncode, proc.stdout, proc.stderr
