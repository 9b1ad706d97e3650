"""The repository's tools: the mutation check's table stays applicable
(``python tests/mutants.py`` runs the mutants themselves, which takes a
minute or more), the code-line count skips prose, and each refusal
message of the package is raised from one place."""

from __future__ import annotations

import ast
import subprocess
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


@pytest.mark.parametrize("failing, why", [
    ({"tests/test_bailey.py", "tests/test_cli.py"}, None),
    ({"tests/test_bailey.py"}, "survived: every test in tests/test_cli.py passed"),
    (set(), "survived: every test in tests/test_bailey.py, tests/test_cli.py passed"),
], ids=["both-fail", "cli-passes", "both-pass"])
def test_a_mutant_is_killed_only_when_each_listed_file_fails(monkeypatch, failing, why):
    """Each listed file runs on its own and must fail: a mutant that one
    caller's tests miss is not killed by the other caller's."""
    runs = []

    def pytest_run(argv, **kwargs):
        files = [a for a in argv if a.startswith("tests/")]
        runs.append(files)
        return subprocess.CompletedProcess(argv, 1 if failing & set(files) else 0, stdout="")

    monkeypatch.setattr(mutants.subprocess, "run", pytest_run)
    mutant = next(m for m in mutants.MUTANTS if m.name == "p41-template-one-term")
    assert mutant.tests == ("tests/test_bailey.py", "tests/test_cli.py")
    assert mutants.run(mutant) == why
    assert runs == [["tests/test_bailey.py"], ["tests/test_cli.py"]]


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


def test_each_refusal_is_raised_from_one_place():
    """Two ``raise X(message)`` statements under src/ with the same
    message (its first argument, unparsed) restate one rule: the rule
    gets one function, and its callers call it."""
    seen: dict = {}
    for path in sorted((mutants.ROOT / "src" / "qgordon").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                seen.setdefault(ast.unparse(node.exc.args[0]), []).append(f"{path.name}:{node.lineno}")
    assert len(seen) > 80  # the scan reads the package's raises
    assert {message: at for message, at in seen.items() if len(at) > 1} == {}
