"""Code lines of each module under src/qgordon at two commits, as a
Markdown table with the net change.

    python tests/code_lines.py [BASE [HEAD]]    # defaults: HEAD^1 HEAD

A code line is a line that is not blank, not comment-only, and not
inside a module, class or function docstring (found with ``ast``).
``git diff --numstat`` counts docstrings and comments too, so a change
that only trims prose reads as a reduction there and as none here.  Each
commit is read with ``git show``, so the working tree is not consulted.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE, text=True).stdout


def counts(rev: str) -> dict:
    """{path: code lines} for every src/qgordon module at ``rev``."""
    paths = _git("ls-tree", "--name-only", rev, "src/qgordon/").split()
    return {p: code_lines(_git("show", f"{rev}:{p}")) for p in paths if p.endswith(".py")}


def table(base: str, head: str) -> str:
    before, after = counts(base), counts(head)
    rows = [f"| module | code lines at {base} | at {head} | net |", "| --- | ---: | ---: | ---: |"]
    for path in sorted(before.keys() | after.keys()):
        b, a = before.get(path, 0), after.get(path, 0)
        rows.append(f"| {path} | {b} | {a} | {a - b:+d} |")
    b, a = sum(before.values()), sum(after.values())
    rows.append(f"| total | {b} | {a} | {a - b:+d} |")
    return "\n".join(rows)


if __name__ == "__main__":
    revs = sys.argv[1:] or ["HEAD^1", "HEAD"]
    if len(revs) == 1:
        revs.append("HEAD")
    print(table(*revs[:2]))
