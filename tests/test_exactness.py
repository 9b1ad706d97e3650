"""The exactness gate's Tier-1 cases: each result group must hash to the
digest that ``exactness.json`` recorded, so a mismatch names its case.
Rewrite the file with ``python tests/exactness.py --write`` only when a
result is meant to change."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactness

EXPECTED = exactness.expected()


@pytest.mark.parametrize("name", sorted(exactness.TIER1))
def test_case_matches_its_digest(name):
    assert exactness.digest(exactness.TIER1[name]()) == EXPECTED[name]


def test_every_case_has_a_digest():
    assert sorted(EXPECTED) == sorted({**exactness.TIER1, **exactness.HIGH})


def test_the_script_runs_from_a_checkout():
    """``python tests/exactness.py`` finds this checkout's package with no
    PYTHONPATH; ``-S`` hides any installed copy."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "tests/exactness.py", "--help"],
        cwd=Path(__file__).resolve().parent.parent, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
