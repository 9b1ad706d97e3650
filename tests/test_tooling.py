"""The repository's tools: the mutation check's table stays applicable
(``python tests/mutants.py`` runs the mutants themselves, which takes a
minute or more), and the code-line count skips prose."""

from __future__ import annotations

from pathlib import Path

import pytest

import mutants
from code_lines import code_lines


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    """A change that rewrites the line a mutant names restates the mutant."""
    assert mutants.module_path(mutants.ROOT, mutant).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_names_are_unique_and_tests_exist():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.tests and all((mutants.ROOT / Path(t.split("::")[0])).is_file() for t in m.tests), m.name


def test_code_lines_skip_docstrings_comments_and_blanks():
    """A string that is not a docstring, and code before a comment, count."""
    source = "\n".join([
        '"""Module doc."""',
        "",
        "# a comment",
        "x = 1  # code, then a comment",
        "def f():",
        '    """Function doc,',
        '    on two lines."""',
        '    s = """a string',
        'that is not a docstring"""',
        "    return s",
        "class C:",
        "    'Class doc.'",
        "    y = 2",
    ])
    assert code_lines(source) == 7
