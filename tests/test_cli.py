"""Tests for the qgordon command line.

Each test drives ``run`` directly with an argv list and inspects the
exit code plus captured stdout/stderr, so no subprocess is needed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import qgordon
from qgordon import bailey, cli, identities
from qgordon.cli import run, sweep
from qgordon.qseries import Series


def _plus_q(series, e):
    """``series`` with its q^e coefficient raised by 1."""
    return series + Series.from_terms([(e, 1)], series.order, series.denom)


@pytest.fixture
def broken_ag_sum(monkeypatch):
    """The AG sum side, one coefficient off at q^7, as verify reads it."""
    real = identities._sum_side

    def broken(tag, gp, order):
        side = real(tag, gp, order)
        return _plus_q(side, 7) if tag == "AG" else side

    monkeypatch.setattr(identities, "_sum_side", broken)


def _expected_tag(name, k, a):
    """The tag a --theorem name resolves to at (k, a), or None when
    the paper has no identity of that family there."""
    if k < 2:
        return None
    same = (k - a) % 2 == 0
    if name == "ag":
        return "AG"
    if name == "w":
        return "W_same" if same else "W_diff"
    if name == "wbar":
        if k % 2 == 1 and a % 2 == 0:
            return "Wbar_odd_even"
        if k % 2 == 0 and a % 2 == 1:
            return "Wbar_even_odd"
        return None
    return None if same else {"main": "Main", "paths": "Paths"}[name]


class TestVerifyCommand:
    def test_ag_passes(self, capsys):
        """The first Rogers-Ramanujan case verifies with exit code 0."""
        code = run(["verify", "--theorem", "ag", "--k", "2", "--a", "2", "--order", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS AG (k=2, a=2)")

    def test_w_resolves_by_parity(self, capsys):
        """The even-part family picks the one- or two-product form from k - a."""
        code = run(["verify", "--theorem", "w", "--k", "3", "--a", "3", "--order", "20", "--json"])
        same = json.loads(capsys.readouterr().out)
        assert code == 0 and same["theorem"] == "W_same"

        code = run(["verify", "--theorem", "w", "--k", "3", "--a", "2", "--order", "20", "--json"])
        diff = json.loads(capsys.readouterr().out)
        assert code == 0 and diff["theorem"] == "W_diff"

    def test_paths_default_order_is_twenty(self, capsys):
        """Omitting --order for the path theorem uses the cheaper default."""
        code = run(["verify", "--theorem", "paths", "--k", "3", "--a", "2", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["order"] == 20 and obj["equal"] is True

    def test_json_report_shape(self, capsys):
        code = run(["verify", "--theorem", "main", "--k", "2", "--a", "1", "--order", "20", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj == {
            "theorem": "Main",
            "k": 2,
            "a": 1,
            "order": 20,
            "equal": True,
            "first_discrepancy": None,
        }

    def test_wbar_parity_mismatch_exits_two(self, capsys):
        """A (k, a) pair outside the theorem's parity regime is a usage error."""
        code = run(["verify", "--theorem", "wbar", "--k", "3", "--a", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("name", ["ag", "w", "wbar", "main", "paths"])
    def test_every_name_resolves_by_regime(self, name, capsys):
        """Every 1 <= a <= k <= 6: the name picks the tag whose regime
        holds (k, a) and verifies it, or exits 2 when none does."""
        for k in range(1, 7):
            for a in range(1, k + 1):
                order = "8" if name == "paths" else "16"
                code = run(["verify", "--theorem", name, "--k", str(k), "--a", str(a),
                            "--order", order, "--json"])
                captured = capsys.readouterr()
                tag = _expected_tag(name, k, a)
                if tag is None:
                    assert code == 2, (name, k, a)
                    assert captured.out == "" and "error:" in captured.err
                else:
                    assert code == 0, (name, k, a)
                    obj = json.loads(captured.out)
                    assert obj["theorem"] == tag and obj["equal"] is True, (name, k, a)

    def test_failed_check_exits_one(self, broken_ag_sum, capsys):
        """A sum side that differs in one coefficient fails at that exponent."""
        code = run(["verify", "--theorem", "ag", "--k", "2", "--a", "2", "--order", "25"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "FAIL AG (k=2, a=2): first discrepancy at q^7\n"

    def test_bad_flag_exits_two(self):
        """argparse rejects an unknown theorem with its usual exit code."""
        with pytest.raises(SystemExit) as excinfo:
            run(["verify", "--theorem", "nope", "--k", "2", "--a", "2"])
        assert excinfo.value.code == 2


class TestCountCommand:
    def test_count_B_rogers_ramanujan(self, capsys):
        """Counts for the flat family at (2, 2) match the classical values."""
        code = run(["count", "--family", "B", "--k", "2", "--a", "2", "--n", "10"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        counts = [int(line.split()[1]) for line in out]
        assert counts == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
        assert out[0] == "0 1" and out[10] == "10 6"

    def test_count_json(self, capsys):
        code = run(["count", "--family", "A", "--k", "2", "--a", "2", "--n", "8", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["family"] == "A" and obj["k"] == 2 and obj["a"] == 2
        assert obj["counts"] == [1, 1, 1, 1, 2, 2, 3, 3, 4]

    def test_count_paths_family(self, capsys):
        code = run(["count", "--family", "S", "--k", "3", "--a", "2", "--n", "6", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["counts"] == [1, 1, 0, 1, 2, 2, 1]

    def test_count_reaches_n_400_in_one_pass(self, capsys):
        """The partition families print every size up to --n from one
        pass; n = 400 is checked against the first Rogers-Ramanujan
        product's count there."""
        code = run(["count", "--family", "B", "--k", "2", "--a", "2", "--n", "400"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 401 and lines[10] == "10 6"
        series = identities.eval_product_side("AG", (2, 2), 401)
        assert lines[400] == f"400 {series.coefficient(400)}"

    def test_negative_n_exits_two(self, capsys):
        """--n -1 is refused with the family oracle's message, where it
        used to print no counts and exit 0."""
        for family, message in (("B", "cannot partition -1"), ("A", "cannot partition -1"),
                                ("W", "cannot partition -1"), ("Wbar", "cannot partition -1"),
                                ("S", "n_max must be an int >= 0, got -1")):
            code = run(["count", "--family", family, "--k", "3", "--a", "2", "--n", "-1", "--json"])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), family


# every exhaustive S-path command, with the flag the cap bounds
_S_PATH_COMMANDS = [
    ["enumerate-paths", "--k", "2", "--a", "1", "--n"],
    ["count", "--family", "S", "--k", "2", "--a", "1", "--n"],
    ["verify", "--theorem", "paths", "--k", "2", "--a", "1", "--order"],
]


@pytest.mark.parametrize("argv", _S_PATH_COMMANDS, ids=lambda argv: argv[0])
def test_S_path_cap(argv, capsys):
    """The search runs at the cap, 40, and a bound of 41 exits 2 with
    an error line and no output."""
    assert cli._S_PATH_CAP == 40
    assert run(argv + ["40"]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err
    assert run(argv + ["41"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[-1]} 41 is over the S-path cap 40 (the path search is exhaustive)\n"


class TestEnumeratePathsCommand:
    def test_compact_listing(self, capsys):
        """All eight paths of major index at most 6 print one per line."""
        code = run(["enumerate-paths", "--k", "3", "--a", "2", "--n", "6"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 8
        assert all(line.startswith("h=2:") for line in lines)
        assert lines[0] == "h=2:SS"

    def test_json_listing_carries_peaks(self, capsys):
        code = run(["enumerate-paths", "--k", "2", "--a", "1", "--n", "4", "--format", "json"])
        objs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [o["major_index"] for o in objs] == [0, 3, 4]
        assert all("peaks" in o and "steps" in o for o in objs)

    def test_svg_listing(self, capsys):
        code = run(["enumerate-paths", "--k", "2", "--a", "1", "--n", "3", "--format", "svg"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("<svg") == 2 and out.count("</svg>") == 2


class TestBaileyChainCommand:
    def test_chain_checks_every_link(self, capsys):
        code = run(["bailey-chain", "--k", "2", "--a", "1", "--nmax", "4", "--order", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("relation ok") == 3
        assert "endpoint alpha matches closed form for n <= 4: yes" in out

    def test_broken_link_exits_one(self, monkeypatch, capsys):
        """One beta coefficient off in the D1 link marks that link, and
        only it, with or without the series heads of --trace."""
        real = cli.build_chain

        def build_chain(gp, n_max, order):
            chain = list(real(gp, n_max, order))
            label, bp = chain[1]
            beta = list(bp.beta)
            beta[2] = _plus_q(beta[2], 3)
            chain[1] = (label, dataclasses.replace(bp, beta=tuple(beta)))
            return tuple(chain)

        monkeypatch.setattr(cli, "build_chain", build_chain)
        for trace in ([], ["--trace"]):
            code = run(["bailey-chain", "--k", "2", "--a", "1", "--nmax", "4", "--order", "20", *trace])
            out = capsys.readouterr().out.splitlines()
            lines = [line for line in out if not line.startswith("  ")]
            assert code == 1
            assert lines[:3] == ["unit         relation ok", "D1           relation BROKEN",
                                 "S2           relation ok"]
            assert lines[3] == "endpoint alpha matches closed form for n <= 4: yes"
            assert len(out) == 4 + 6 * 3 * bool(trace)

    def test_endpoint_off_in_one_term_reads_no(self, monkeypatch, capsys):
        """An endpoint alpha_1 whose second template term is off fails the
        endpoint line: every term is compared, not the first alone."""
        real = cli.build_chain

        def build_chain(gp, n_max, order):
            chain = list(real(gp, n_max, order))
            label, bp = chain[-1]
            alpha = list(bp.alpha)
            (e, _), (last, _) = alpha[1].terms()
            assert e < last
            alpha[1] = _plus_q(alpha[1], last)
            chain[-1] = (label, dataclasses.replace(bp, alpha=tuple(alpha)))
            return tuple(chain)

        monkeypatch.setattr(cli, "build_chain", build_chain)
        code = run(["bailey-chain", "--k", "2", "--a", "1", "--nmax", "4", "--order", "20"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[-1] == "endpoint alpha matches closed form for n <= 4: NO"

    def test_cold_chain_builds_the_wing_table_once(self, monkeypatch, capsys):
        """The links are checked from the last back to the unit pair, so
        the first check builds each of its keys of the quotient table at
        the final window and no later check rebuilds one; the lines still
        print in chain order."""
        table = bailey._QUOTIENT_ROWS
        seen = []

        def check_pair(bp):
            ok = bailey.check_pair(bp)
            seen.append((bp.order, dict(table)))
            return ok

        monkeypatch.setattr(cli, "check_pair", check_pair)
        qgordon.clear_caches()
        code = run(["bailey-chain", "--k", "5", "--a", "2", "--nmax", "6", "--order", "41"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split()[0] for line in lines[:-1]] == ["unit", "D1", "S2", "S2", "P41(A=2)", "S2", "S2"]
        assert [order for order, _ in seen] == [41] * 6 + [Fraction(41, 2)]
        first = seen[0][1]
        assert all(rows is first[key] for _, held in seen for key, rows in held.items() if key in first)
        assert len(table[((1, 1, 1, 0), (1, 1, 1, 0))][0]) == 41

    def test_trace_prints_series_heads(self, capsys):
        """--trace indents alpha_n and beta_n, n <= 2, under each link's line."""
        code = run(["bailey-chain", "--k", "2", "--a", "1", "--nmax", "3",
                    "--order", "16", "--trace"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:3] == ["unit         relation ok", "  alpha_0 = 1 + O(q^8)", "  beta_0  = 1 + O(q^8)"]
        assert lines[7] == "D1           relation ok"
        assert sum(line.startswith("  alpha_") for line in lines) == 3 * 3
        assert lines[-1] == "endpoint alpha matches closed form for n <= 3: yes"

    def test_nonpositive_order_exits_two(self, capsys):
        """The error names the order as typed, not half of it."""
        code = run(["bailey-chain", "--k", "3", "--a", "2", "--order", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: truncation order must be positive, got -3\n"

    def test_json_shape(self, capsys):
        code = run(["bailey-chain", "--k", "3", "--a", "2", "--nmax", "3",
                    "--order", "16", "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [s["label"] for s in obj["steps"]] == ["unit", "D1", "S2", "S2"]
        assert all(s["relation_ok"] for s in obj["steps"])
        assert obj["closed_form_ok"] is True


class TestSweepCommand:
    def test_small_grid_passes(self, capsys):
        code = run(["sweep", "--kmax", "2", "--order", "15"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("all passed")

    def test_sweep_function_grid(self):
        """k <= 2 gives AG and W at (2,1), (2,2), one odd-multiplicity and one Main case."""
        reports = sweep(kmax=2, order=12)
        tags = sorted((r.spec.theorem, r.spec.gp.k, r.spec.gp.a) for r in reports)
        assert tags == [
            ("AG", 2, 1),
            ("AG", 2, 2),
            ("Main", 2, 1),
            ("W_diff", 2, 1),
            ("W_same", 2, 2),
            ("Wbar_even_odd", 2, 1),
        ]
        assert all(r.equal for r in reports)

    def test_sweep_order_to_kmax_five(self):
        """k, then a, then the tags in a fixed order: AG, the W tag,
        the Wbar tag, Main."""
        per_pair = {
            (2, 1): ("AG", "W_diff", "Wbar_even_odd", "Main"),
            (2, 2): ("AG", "W_same"),
            (3, 1): ("AG", "W_same"),
            (3, 2): ("AG", "W_diff", "Wbar_odd_even", "Main"),
            (3, 3): ("AG", "W_same"),
            (4, 1): ("AG", "W_diff", "Wbar_even_odd", "Main"),
            (4, 2): ("AG", "W_same"),
            (4, 3): ("AG", "W_diff", "Wbar_even_odd", "Main"),
            (4, 4): ("AG", "W_same"),
            (5, 1): ("AG", "W_same"),
            (5, 2): ("AG", "W_diff", "Wbar_odd_even", "Main"),
            (5, 3): ("AG", "W_same"),
            (5, 4): ("AG", "W_diff", "Wbar_odd_even", "Main"),
            (5, 5): ("AG", "W_same"),
        }
        reports = sweep(kmax=5, order=12)
        got = [(r.spec.theorem, r.spec.gp.k, r.spec.gp.a) for r in reports]
        assert got == [(tag, k, a) for (k, a), tags in per_pair.items() for tag in tags]
        assert all(r.equal for r in reports)

    def test_failed_check_exits_one(self, broken_ag_sum, capsys):
        """The AG checks fail at the broken exponent; the rest still pass."""
        code = run(["sweep", "--kmax", "2", "--order", "15"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL AG (k=2, a=1): first discrepancy at q^7",
            "FAIL AG (k=2, a=2): first discrepancy at q^7",
        ]
        assert sum(line.startswith("PASS") for line in lines) == 4
        assert lines[-1] == "6 checks below q^15: 2 FAILED"

    def test_sweep_json(self, capsys):
        code = run(["sweep", "--kmax", "2", "--order", "12", "--json"])
        objs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(objs) == 6 and all(o["equal"] for o in objs)

    def test_bad_kmax(self, capsys):
        code = run(["sweep", "--kmax", "1"])
        assert code == 2
        assert "kmax" in capsys.readouterr().err

    @pytest.mark.parametrize("kmax", [3.0, "3", None, True])
    def test_kmax_must_be_an_int(self, kmax):
        """A bool is not read as 1, and a float, a string or None is
        refused like a small kmax, not with a TypeError."""
        with pytest.raises(ValueError, match=f"^kmax must be >= 2, got {re.escape(repr(kmax))}$"):
            sweep(kmax)


#: (language, body) of each fenced block of README.md
README_BLOCKS = re.findall(
    r"^```(\w*)\n(.*?)^```", (Path(__file__).resolve().parent.parent / "README.md").read_text(), re.M | re.S
)


def _readme_examples():
    """(argv, expected stdout lines) for every ``$ qgordon ...`` line in
    README.md's fenced blocks; the output runs to the next ``$`` line or
    the end of the block, trailing blank lines dropped."""
    examples = []
    for _, block in README_BLOCKS:
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, *out = chunk.rstrip("\n").split("\n")
            argv = shlex.split(command[2:])
            if argv[0] == "qgordon":
                examples.append((argv[1:], out))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_example_replays(argv, expected, capsys):
    """The command's stdout equals the README's, a ``...`` line standing
    for any run of lines."""
    code = run(argv)
    out = capsys.readouterr().out
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in expected)
    assert code == 0
    assert re.fullmatch(pattern, out), out


README_PYTHON = [block for language, block in README_BLOCKS if language == "python"]


def test_readme_has_python_blocks():
    assert len(README_PYTHON) >= 2


@pytest.mark.parametrize("block", README_PYTHON, ids=lambda b: b.split("\n")[0])
def test_readme_python_block_runs(block):
    """Each python block runs as it stands; its asserts are its checks."""
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
