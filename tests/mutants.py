"""Mutation check: each entry breaks the package in one known way, and
the tests it names must then fail.

    python tests/mutants.py                 # run every mutant
    python tests/mutants.py --list          # name each mutant and its tests
    python tests/mutants.py --only NAME     # run one (repeat for more)

For each mutant, ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` (whose examples the CLI tests replay) are copied into a
temporary directory, the mutant's old text in its module is
replaced by its new text, and ``pytest -x -q`` runs the mutant's tests
there.  Only pytest's exit code 1 (a test failed) kills a mutant: a
mutant whose tests pass survived, and one whose copy cannot be
collected or run is an error.  An old text that does not occur exactly
once in its module is an error too, so a change that rewrites a line a
mutant names restates that mutant here.  Exits 1 naming every mutant
that survived or could not be run, 2 for an unknown name, 0 otherwise.

A change that adds a check, or changes what one checks, adds the
mutants it kills to :data:`MUTANTS`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # a module of the qgordon package
    old: str  # must occur exactly once in the module
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root


_ROWS_KEYED = """\
    rows = _QUOTIENT_ROWS.get(symbols)
    if rows is None or len(rows[0]) < window:
        cs = [1] + [0] * (window - 1)
        for sign, first, step, start in symbols:
            _div_factors(cs, PochSpec(sign, first, step), start)
        rows = _QUOTIENT_ROWS[symbols] = [tuple(cs)]
"""

MUTANTS: Tuple[Mutant, ...] = (
    # Series._window: the window both operands are read on
    Mutant(
        "window-one-slot-short", "qseries",
        "        n = _slots(order, d)\n",
        "        n = _slots(order, d) - 1\n",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "window-promotes-one-operand", "qseries",
        "g._promote(d).coeffs[:n]",
        "g.coeffs[:n]",
        ("tests/test_qseries.py",),
    ),
    # Series.from_terms: each term a pair, each coefficient checked as the constructor checks it
    Mutant(
        "from-terms-adds-a-bool", "qseries",
        "            _coefficient(c)\n",
        "            if not isinstance(c, int):\n"
        "                raise TypeError(f\"coefficients must be ints, got {type(c).__name__}\")\n",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "from-terms-pair-unchecked", "qseries",
        "            if not isinstance(term, (tuple, list)) or len(term) != 2:\n",
        "            if False:\n",
        ("tests/test_qseries.py",),
    ),
    # copy and pickle go through the checking constructor
    Mutant(
        "series-reduce-dropped", "qseries",
        "    def __reduce__(self):\n",
        "    def _reduce(self):\n",
        ("tests/test_qseries.py",),
    ),
    # theta_sum takes int exponents only: from_terms alone would take a bool or an integral Fraction
    Mutant(
        "theta-sum-exponent-unchecked", "qseries",
        "    if type(e1) is not int or type(e3) is not int:\n",
        "    if False:\n",
        ("tests/test_qseries.py",),
    ),
    # the one table of quotient rows
    Mutant(
        "row-key-without-start", "bailey",
        _ROWS_KEYED,
        _ROWS_KEYED.replace(".get(symbols)", ".get(tuple(x[:3] for x in symbols))")
        .replace("[symbols]", "[tuple(x[:3] for x in symbols)]"),
        ("tests/test_caches.py", "tests/test_bailey.py"),
    ),
    Mutant(
        "row-zero-one-factor-short", "bailey",
        "_div_factors(cs, PochSpec(sign, first, step), start)",
        "_div_factors(cs, PochSpec(sign, first, step), start - 1)",
        ("tests/test_bailey.py", "tests/test_caches.py"),
    ),
    Mutant(
        "longer-window-not-rebuilt", "bailey",
        "    if rows is None or len(rows[0]) < window:\n",
        "    if rows is None:\n",
        ("tests/test_caches.py",),
    ),
    Mutant(
        "rebuild-empties-every-key", "bailey",
        "        rows = _QUOTIENT_ROWS[symbols] = [tuple(cs)]\n",
        "        _QUOTIENT_ROWS.clear()\n        rows = _QUOTIENT_ROWS[symbols] = [tuple(cs)]\n",
        ("tests/test_caches.py",),
    ),
    # the chain steps' one divisor, (x^2; x^2): term m of row n divides by 1 - x^(2 (n - m))
    Mutant(
        "step-divisor-one-off", "bailey",
        "_div_factor(cs, 1, 2 * (n - m))",
        "_div_factor(cs, 1, 2 * (n - m) + 2)",
        ("tests/test_bailey.py",),
    ),
    # check_pair subtracts each alpha slot's row, scaled by ints where c is not 1 or -1
    Mutant(
        "check-pair-scaled-term-added", "bailey",
        "map(sub, rest[e:], map(times, repeat(c), row))",
        "map(add, rest[e:], map(times, repeat(c), row))",
        ("tests/test_bailey.py",),
    ),
    # alpha held as its terms: the steps map them, and the check reads both classes of slots
    Mutant(
        "alpha-shift-linear", "bailey",
        "        pad = w * r * r\n",
        "        pad = w * r\n",
        ("tests/test_bailey.py",),
    ),
    Mutant(
        "d1-alpha-slots-kept", "bailey",
        "tuple((2 * s, c) for s, c in t)",
        "tuple((s, c) for s, c in t)",
        ("tests/test_bailey.py",),
    ),
    Mutant(
        "check-pair-odd-alpha-dropped", "bailey",
        "            terms[slot % 2].append((r, slot // 2, c))\n",
        "            if slot % 2 == 0:\n                terms[0].append((r, slot // 2, c))\n",
        ("tests/test_bailey.py",),
    ),
    # one template comparison serves the swap and the command line's endpoint line
    Mutant(
        "p41-template-one-term", "bailey",
        "if t != _template(e1, e3, m, length)",
        "if t[:1] != _template(e1, e3, m, length)[:1]",
        ("tests/test_bailey.py", "tests/test_cli.py"),
    ),
    Mutant(
        "endpoint-template-e1-off-by-one", "cli",
        "_mismatch(chain[-1][1], gp.a, 2 * gp.k + 2)",
        "_mismatch(chain[-1][1], gp.a + 1, 2 * gp.k + 2)",
        ("tests/test_cli.py",),
    ),
    # the Bailey steps' half-grid layouts
    Mutant(
        "even-slots-written-odd", "bailey",
        "    even[2 * v::2] = cs\n",
        "    even[2 * v + 1::2] = cs\n",
        ("tests/test_bailey.py",),
    ),
    Mutant(
        "p41-pad-one-slot-off", "bailey",
        "        pad = min(2 * n, length)\n",
        "        pad = min(2 * n + 1, length)\n",
        ("tests/test_bailey.py",),
    ),
    # the ladder's innermost rows: a monomial only when inner == base and
    # there is no numerator, kept as [1]; a short row padded in the cells
    Mutant(
        "trim-with-unlike-inner", "identities",
        "    monomial = inner == base and numer is None\n",
        "    monomial = numer is None\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "trim-with-numerator", "identities",
        "    monomial = inner == base and numer is None\n",
        "    monomial = inner == base\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "monomial-row-empty", "identities",
        "run[:1] if monomial else run[:]",
        "[] if monomial else run[:]",
        ("tests/test_identities.py",),
    ),
    # ladder_multisum refuses a numerator that is not None or a PochSpec, before the k = 1 return
    Mutant(
        "ladder-numer-unchecked", "identities",
        "    if numer is not None and not isinstance(numer, PochSpec):\n",
        "    if False:\n",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "cell-padding-dropped", "identities",
        "                if hi > len(y):\n                    y += [0] * (hi - len(y))\n",
        "",
        ("tests/test_identities.py",),
    ),
    # the ladder's Horner division, and S1's weight
    Mutant(
        "horner-divisor-one-off", "identities",
        "_div_factor(total, 1, base * n)",
        "_div_factor(total, 1, base * (n + 1))",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "s1-without-weight", "bailey",
        "    return _insert(bp, 2, None)\n",
        "    return _insert(bp, 0, None)\n",
        ("tests/test_bailey.py",),
    ),
    # the bijection's closed forms: a token's budget is the number of free
    # letters before its apex pair, E steps standing in past the end; the
    # reverse map reads it, the E blocks and the uplifts off one peak scan
    Mutant(
        "reverse-budget-off-by-two", "lattice_paths",
        "append(xs[i] - r - 2 * (",
        "append(xs[i] - r + 2 - 2 * (",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "strip-counted-one-stage-late", "lattice_paths",
        "max(0, (r - a) // 2 + 1)",
        "max(0, (r - 1 - a) // 2 + 1)",
        ("tests/test_lattice_paths.py",),
    ),
    # the sum of max(r_l, r) over the peaks to the left, not of min(r_l, r)
    Mutant(
        "left-peaks-max-for-min", "lattice_paths",
        " + sum(above[:r])))",
        " + sum(above) + r * above[0] - sum(above[:r])))",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "east-blocks-halved", "lattice_paths",
        "east.append(es[i] // 4)",
        "east.append(es[i] // 2)",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "uplift-read-one-lower", "lattice_paths",
        "            if r == k:\n",
        "            if r == k - 1:\n",
        ("tests/test_lattice_paths.py",),
    ),
    # the reverse map builds its data unvalidated and runs the constructor's
    # one budget check, for what the scan leaves open: each stage's budgets
    # are nonnegative and do not increase
    Mutant(
        "reverse-budget-sign-unchecked", "lattice_paths",
        "if row and ((bits := reduce(or_, row)) < 0 or bits & 1):",
        "if row and (bits := reduce(or_, row)) & 1:",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "reverse-budget-order-unchecked", "lattice_paths",
        "        if len(row) > 1 and row != tuple(sorted(row, reverse=True)):\n"
        '            raise ValueError(f"stage {j} budgets must be nonincreasing, got {row}")\n',
        "",
        ("tests/test_lattice_paths.py",),
    ),
    # right_move and volcanic_uplift share one peak lookup
    Mutant(
        "peak-index-one-past-the-end", "lattice_paths",
        "not 0 <= peak_index < len(xs)",
        "not 0 <= peak_index <= len(xs)",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "token-padding-dropped", "lattice_paths",
        '    u += "E" * (budgets[0] + 2 * len(xs) - len(u))\n',
        "",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "fast-path-reads-last-budget", "lattice_paths",
        "budgets[0] == 0",
        "budgets[-1] == 0",
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "weight-off-past-12", "lattice_paths",
        "        return total\n",
        "        return total + (total > 12)\n",
        ("tests/test_lattice_paths.py",),
    ),
    # a ladder cell shifted one row too far, a row-table window one slot
    # short, and a partition search field too narrow
    Mutant(
        "cell-shift-one-row-more", "identities",
        "v += x * m + c",
        "v += x * (m + 1) + c",
        ("tests/test_identities.py",),
    ),
    Mutant(
        "row-table-window-short", "bailey",
        "cs = [1] + [0] * (window - 1)",
        "cs = [1] + [0] * (window - 2)",
        ("tests/test_bailey.py",),
    ),
    Mutant(
        "partition-field-too-narrow", "partitions",
        "4 * isqrt(n_max) + 5",
        "2 * isqrt(n_max) + 5",
        ("tests/test_partitions.py",),
    ),
    # (k, a) read only from a GordonParams or a tuple or list pair, and the
    # S-path table's counts by major index
    Mutant(
        "params-pair-unchecked", "partitions",
        "    if not isinstance(gp, (tuple, list)) or len(gp) != 2:\n",
        "    if False:\n",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "path-binned-one-major-late", "lattice_paths",
        "        counts[major] += 1\n",
        "        counts[min(major + 1, n_max)] += 1\n",
        ("tests/test_lattice_paths.py",),
    ),
    # the path readers
    Mutant(
        "compact-height-any-digit", "lattice_paths",
        'r"h=([0-9]+):([NSE]*)"',
        'r"h=(\\d+):([NSE]*)"',
        ("tests/test_lattice_paths.py",),
    ),
    Mutant(
        "path-document-not-checked", "lattice_paths",
        "    if not isinstance(obj, dict):\n",
        "    if False:\n",
        ("tests/test_lattice_paths.py",),
    ),
)


def module_path(root: Path, mutant: Mutant) -> Path:
    return root / "src" / "qgordon" / f"{mutant.module}.py"


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's old text replaced; ValueError unless
    the old text occurs exactly once."""
    found = source.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {found} times in {mutant.module}.py, not once")
    return source.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> str | None:
    """None if the mutant's tests fail on the mutated copy; otherwise why
    the mutant was not killed."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        shutil.copy(ROOT / "README.md", copy)
        path = module_path(copy, mutant)
        try:
            path.write_text(apply(mutant, path.read_text()))
        except ValueError as exc:
            return str(exc)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if done.returncode == 1:
        return None
    if done.returncode == 0:
        return "survived: every listed test passed"
    tail = "\n".join(done.stdout.splitlines()[-5:])
    return f"pytest exited {done.returncode}, so no test failed on the mutant:\n{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="name each mutant and its tests, and run none")
    parser.add_argument("--only", action="append", metavar="NAME", help="run only this mutant (repeatable)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.only or () if name not in by_name]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in args.only] if args.only else list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  ({m.module}.py)  {' '.join(m.tests)}")
        return 0
    failed = []
    for m in chosen:
        start = time.perf_counter()
        why = run(m)
        print(f"{'killed' if why is None else 'NOT KILLED'}  {m.name}  ({time.perf_counter() - start:.1f} s)")
        if why is not None:
            print(f"  {why}")
            failed.append(m.name)
    if failed:
        print(f"{len(failed)} of {len(chosen)} mutants not killed: {', '.join(failed)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
