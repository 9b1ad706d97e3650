"""Smoke test for the scripts in ``demos/``.

Each demo runs in-process, with its output captured, so an API change
that breaks a demo fails here.  The demos print their own checks as
``True``/``ok``; none of them may print ``False``.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "False" not in out


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
