"""Tests for the qgordon command line.

Each test drives ``run`` directly with an argv list and inspects the
exit code plus captured stdout/stderr, so no subprocess is needed.
"""

from __future__ import annotations

import json

import pytest

from qgordon.cli import run, sweep


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

    def test_trace_prints_series_heads(self, capsys):
        code = run(["bailey-chain", "--k", "2", "--a", "1", "--nmax", "3",
                    "--order", "16", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "step unit" in out and "alpha_0" in out and "beta_2" in out

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

    def test_sweep_json(self, capsys):
        code = run(["sweep", "--kmax", "2", "--order", "12", "--json"])
        objs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(objs) == 6 and all(o["equal"] for o in objs)

    def test_bad_kmax(self, capsys):
        code = run(["sweep", "--kmax", "1"])
        assert code == 2
        assert "kmax" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
