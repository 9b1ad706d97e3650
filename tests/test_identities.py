"""Tests for the multisum evaluators and identity verification."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest

import qgordon
from qgordon import cli, identities
from qgordon.bailey import build_chain
from qgordon.identities import (
    THEOREMS,
    IdentitySpec,
    VerificationReport,
    eval_multisum_AG,
    eval_multisum_main,
    eval_multisum_W,
    eval_multisum_Wbar,
    eval_product_side,
    ladder_multisum,
    verify,
)
from qgordon.partitions import GordonParams, count_A, count_B, count_W, count_Wbar
from qgordon.qseries import (
    PochSpec, Series, invert_poch, poch_finite, poch_infinite, triple_product,
)

Q = PochSpec(1, 1, 1)
Q2 = PochSpec(1, 2, 2)
Q4 = PochSpec(1, 4, 4)
NEG_Q_ODD = PochSpec(-1, 1, 2)  # (-q; q^2)

# The paper's parity regime of each tag.
REGIMES = {
    "AG": lambda k, a: True,
    "W_same": lambda k, a: (k - a) % 2 == 0,
    "W_diff": lambda k, a: (k - a) % 2 == 1,
    "Wbar_odd_even": lambda k, a: k % 2 == 1 and a % 2 == 0,
    "Wbar_even_odd": lambda k, a: k % 2 == 0 and a % 2 == 1,
    "Main": lambda k, a: (k - a) % 2 == 1,
    "Paths": lambda k, a: (k - a) % 2 == 1,
}


class TestLadder:
    def test_single_level_is_one(self):
        assert ladder_multisum(1, 10, lin=[], nlin=[], base=1, inner=1) == Series.one(10)

    def test_rogers_ramanujan_head(self):
        """k = 2, a = 2 is the first Rogers-Ramanujan sum."""
        s = eval_multisum_AG((2, 2), 11)
        assert [s.coefficient(n) for n in range(11)] == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
        assert s.denom == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="one entry per level"):
            ladder_multisum(3, 10, lin=[0], nlin=[0, 0], base=1, inner=1)
        # the sum works on the integer grid: rational exponents are refused, not rounded
        half = Fraction(1, 2)
        for order, lin, nlin in ((Fraction(21, 2), [0], [0]), (10, [half], [0]), (10, [0], [half])):
            with pytest.raises(ValueError, match="ints"):
                ladder_multisum(2, order, lin=lin, nlin=nlin, base=1, inner=1)

    @pytest.mark.parametrize("arg, value, message", [
        ("k", True, "k must be an int, got True"),
        ("order", True, "order, lin and nlin must be ints: True, [0], [0]"),
        ("lin", [True], "order, lin and nlin must be ints: 10, [True], [0]"),
        ("nlin", [False], "order, lin and nlin must be ints: 10, [0], [False]"),
    ])
    def test_bools_are_not_ints(self, arg, value, message):
        """A bool is refused where an int is wanted, naming the argument."""
        args = dict(k=2, order=10, lin=[0], nlin=[0], base=1, inner=1)
        args[arg] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ladder_multisum(**args)

    def test_sum_side_refuses_a_bool_order(self):
        """eval_multisum_AG((3, 2), True) used to return 1 + O(q^1)."""
        with pytest.raises(ValueError, match="^order must be a positive int, got True$"):
            eval_multisum_AG(GordonParams(3, 2), True)

    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            ladder_multisum(0, 10, lin=[], nlin=[], base=1, inner=1)

    @pytest.mark.parametrize("k, order, lin, nlin, level", [
        (3, 2, [0, -2], [0, 0], 2),
        (3, 3, [-2, 0], [0, 0], 1),
        (4, 4, [0, 0, -2], [0, 0, 0], 3),
        (3, 5, [0, 0], [-3, 0], 1),
    ])
    def test_negative_exponent_refused(self, k, order, lin, nlin, level):
        """Every row below the order is validated against every inner
        row, including rows the outer levels' floors leave empty.  A
        negative nlin is refused before any row is built."""
        if min(nlin) < 0:
            message = r"^nlin entries must be >= 0, got \[-3, 0\]$"
        else:
            message = f"^negative exponent in level {level} at N = 1$"
        with pytest.raises(ValueError, match=message):
            ladder_multisum(k, order, lin=lin, nlin=nlin, base=1, inner=2)

    def test_negative_nlin_refused(self):
        """A negative nlin puts terms below the order in rows whose
        n^2 + lin * n reaches it, which the ladder drops: sum q^(n^2) /
        (q; q)_n written with lin = [2], nlin = [-2] has 5 at q^9, and
        a ladder that stopped at those rows read 4.  It is refused."""
        args = dict(lin=[2], nlin=[-2], base=1, inner=1)
        assert _direct_ladder(2, 10, **args).coefficient(9) == 5
        assert eval_multisum_AG((2, 2), 10).coefficient(9) == 5
        with pytest.raises(ValueError, match="nlin entries must be >= 0"):
            ladder_multisum(2, 10, **args)

    def test_small_order_with_lin_minus_one(self):
        s = ladder_multisum(4, 3, lin=[-1, -1, -1], nlin=[0, 0, 0], base=1, inner=2)
        assert s.coeffs == (4, 2, 6)

    @pytest.mark.parametrize("base, inner", [
        (0, 1), (1, 0), (-2, 1), (1, -4), (2.0, 1), (1, 4.0), (True, 1), (1, True),
    ])
    def test_base_and_inner_must_be_positive_ints(self, base, inner):
        """The denominators are (q^b; q^b) for a positive int b: a zero
        base would divide by 1 - q^0, and a bool is not an int here."""
        message = f"base and inner must be positive ints: {base!r}, {inner!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ladder_multisum(3, 9, lin=[0, 0], nlin=[0, 0], base=base, inner=inner)

    @pytest.mark.parametrize("k, order", [(1, 9), (2, 1), (3, 9)])
    @pytest.mark.parametrize("numer", ["x", (-1, 1, 2), True, 2])
    def test_numer_must_be_a_pochspec(self, k, order, numer):
        """numer is None or a PochSpec.  A tuple or a bool used to raise
        AttributeError once a row n >= 1 existed, and a string passed
        silently at k = 1 or order 1, where no row reads it."""
        message = f"numer must be None or a PochSpec, got {numer!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ladder_multisum(k, order, lin=[0] * (k - 1), nlin=[0] * (k - 1), base=1, inner=2, numer=numer)


def _direct_ladder(k, order, lin, nlin, base, inner, numer=None) -> Series:
    """The ladder sum term by term: every N_1 >= ... >= N_(k-1) >= 0 whose
    exponent lies below the order, each term built from the public
    Pochhammer builders and Series arithmetic on the window it leaves."""
    level_denom, innermost = PochSpec(1, base, base), PochSpec(1, inner, inner)
    top = isqrt(order + k) + 3  # N_1^2 - 2 N_1 - (k - 2) < order for every kept term
    total = Series.zero(order)
    for ns in combinations_with_replacement(range(top, -1, -1), k - 1):
        gaps = [a - b for a, b in zip(ns, ns[1:] + (0,))]
        e = sum(n * n + b * n for n, b in zip(ns, lin)) + sum(g * c for g, c in zip(gaps, nlin))
        if e >= order:
            continue
        assert e >= 0, ns
        w = order - e
        term = invert_poch(innermost, w, n=ns[-1])
        if numer is not None:
            term = term * poch_finite(numer, ns[-1], w)
        for g in gaps[:-1]:
            term = term * invert_poch(level_denom, w, n=g)
        total = total + term.shift(e)
    return total


class TestLadderAgainstDirectSum:
    """The sum against term-by-term summation at orders where the outer
    levels' floors drop rows and cut the rest."""

    # each row names its denominators by their symbols (q^b; q^b), and
    # the sum takes their b
    @pytest.mark.parametrize("k, order, lin, nlin, level_denom, innermost, numer", [
        (2, 120, [0], [0], Q, Q, None),
        (3, 100, [-1, 1], [1, 0], Q, Q, None),
        (3, 120, [0, -2], [0, 1], Q, Q2, None),  # innermost n^2 - 2n dips below 0
        (3, 80, [-2, 200], [1, 0], Q, Q, None),  # level 2 keeps only row 0
        (4, 90, [2, 0, 2], [0, 0, 0], Q2, Q4, NEG_Q_ODD),
        (4, 100, [-1, -1, -1], [1, 2, 1], Q, Q4, NEG_Q_ODD),
        (5, 60, [0, 1, 1, 1], [1, 0, 1, 0], Q2, Q2, None),
        (5, 80, [0, 2, 0, 2], [0, 1, 0, 0], Q4, Q2, NEG_Q_ODD),
        (2, 120, [2], [0], Q2, Q4, NEG_Q_ODD),  # Main's (2, 1) ladder
        (2, 100, [1], [2], Q, Q2, None),  # innermost unlike the level, nlin > 0
        (2, 90, [-2], [1], Q2, Q, NEG_Q_ODD),  # row 1 has g = -1
    ])
    def test_matches_direct_sum(self, k, order, lin, nlin, level_denom, innermost, numer):
        args = dict(lin=lin, nlin=nlin, base=level_denom.base, inner=innermost.base, numer=numer)
        got = ladder_multisum(k, order, **args)
        want = _direct_ladder(k, order, **args)
        assert (got.coeffs, got.order, got.denom) == (want.coeffs, want.order, want.denom)


def _offset_series(v, cs, order) -> Series:
    """The pair (v, cs) as a series: cs holds the coefficients of q^v, q^(v+1), ..."""
    return Series.from_terms([(v + i, c) for i, c in enumerate(cs)], order)


class TestOffsetCells:
    """The offset cells: a seeded draw of ladders against term-by-term
    summation, and the cases a draw rarely reaches."""

    def test_random_ladders_match_direct_sum(self):
        rng = random.Random(22)
        evaluated = 0
        for _ in range(40):
            k = rng.randint(2, 5)
            args = dict(
                lin=[rng.randint(-2, 3) for _ in range(k - 1)],
                nlin=[rng.randint(0, 2) for _ in range(k - 1)],
                base=rng.randint(1, 3),
                inner=rng.choice((1, 2, 4)),
                numer=rng.choice((None, NEG_Q_ODD)),
            )
            order = rng.randint(10, 60)
            try:
                got = ladder_multisum(k, order, **args)
            except ValueError:
                continue
            want = _direct_ladder(k, order, **args)
            assert (got.coeffs, got.order) == (want.coeffs, want.order), (k, order, args)
            evaluated += 1
        assert evaluated >= 30

    @pytest.mark.parametrize("shape", ["monomial", "inner unlike base", "numerator"])
    def test_each_innermost_shape_matches_direct_sum(self, shape):
        """At least 15 seeded ladders, k = 2..6, of one innermost shape:
        the monomial q^e (inner == base, no numerator), whose rows are
        kept as [1]; inner != base; and a numerator with inner == base.
        Every other draw takes an order that leaves some innermost row n
        a window of one slot, order - f_(k-1)(n) - e_(k-1)(n, 0) = 1."""
        rng = random.Random(30)
        evaluated = one_slot = 0
        for draw in range(60):
            k = 2 + draw % 5
            base = rng.randint(1, 3)
            if shape == "inner unlike base":
                inner, numer = rng.choice([b for b in (1, 2, 4) if b != base]), rng.choice((None, NEG_Q_ODD))
            else:
                inner, numer = base, NEG_Q_ODD if shape == "numerator" else None
            lin = [rng.randint(-2, 3) for _ in range(k - 1)]
            nlin = [rng.randint(0, 2) for _ in range(k - 1)]

            def window(n, order):
                floor = max((k - 2) * n * n + sum(lin[:-1]) * n, 0)
                return order - floor - (n * n + (lin[-1] + nlin[-1]) * n)

            order = rng.randint(10, 50 if k < 5 else 30)
            if draw % 2:
                order = 1 - window(rng.randint(1, 3), 0)
                if not 2 <= order <= 60:
                    continue
            args = dict(lin=lin, nlin=nlin, base=base, inner=inner, numer=numer)
            try:
                got = ladder_multisum(k, order, **args)
            except ValueError:
                continue
            want = _direct_ladder(k, order, **args)
            assert (got.coeffs, got.order) == (want.coeffs, want.order), (k, order, args)
            evaluated += 1
            # row n keeps min(window(m) for m <= n) slots
            ws = [window(n, order) for n in range(isqrt(order) + 3)]
            one_slot += any(w == 1 and min(ws[:n]) >= 1 for n, w in enumerate(ws) if n)
        assert evaluated >= 30 and one_slot >= 15, (evaluated, one_slot)

    def test_monomial_rows_carry_no_trailing_zeros(self, monkeypatch):
        """AG, W_same and Wbar_even_odd have inner == base and no
        numerator, so every innermost row is a monomial: the rows handed
        to the first level of cells are each [1], with no zeros out to
        the row's window."""
        calls = []
        pascal_rows = identities._pascal_rows

        def recording(z, x, c, stops):
            calls.append([cs for _, cs in z])
            return pascal_rows(z, x, c, stops)

        monkeypatch.setattr(identities, "_pascal_rows", recording)
        for evaluate, gp in ((eval_multisum_AG, (8, 3)), (eval_multisum_W, (8, 4)), (eval_multisum_Wbar, (8, 3))):
            calls.clear()
            evaluate(gp, 400)
            assert len(calls) == 6, evaluate
            first = calls[0]
            assert len(first) > 5 and all(cs and cs[-1] != 0 for cs in first), evaluate

    @pytest.mark.parametrize("k, order, lin, nlin, level_denom, innermost, numer", [
        (4, 5, [0, 2, -1], [0, 1, 2], Q2, Q, None),  # a cell of level 2 is cut to empty
        (3, 30, [-2, 40], [1, 0], Q2, Q4, NEG_Q_ODD),  # level 1's row 1 has g = -1
        (4, 40, [0, -2, 50], [0, 1, 0], Q, Q2, None),  # level 2's row 1 has g = -1, read by level 1's cells
    ])
    def test_edge_ladders_match_direct_sum(self, k, order, lin, nlin, level_denom, innermost, numer):
        args = dict(lin=lin, nlin=nlin, base=level_denom.base, inner=innermost.base, numer=numer)
        got = ladder_multisum(k, order, **args)
        want = _direct_ladder(k, order, **args)
        assert (got.coeffs, got.order) == (want.coeffs, want.order)

    @pytest.mark.parametrize("z, x, c, stops", [
        ([(0, [1]), (5, [2, 3])], 1, 0, [9, 9, 9]),  # Y_1 starts past the end of Y_0
        ([(0, [1, 1]), (6, [1])], 1, 1, [8, 6, 4]),  # z_1 starts at its window's end
        ([(0, [1, 1]), (3, [1, 2])], 1, 1, [8, 6, 4]),  # q^2 Y_1 is cut to empty
        ([(2, [1, -1]), (0, []), (1, [3])], 2, 1, [7, 6, 5]),  # an empty cell among full ones
    ])
    def test_pascal_rows_match_gaussian_sum(self, z, x, c, stops):
        """P_n = sum_m [n m]_(q^x) q^(c (n - m)) z_m below q^stops[n],
        each [n m] built as (x; x)_n / ((x; x)_m (x; x)_(n-m))."""
        spec = PochSpec(1, x, x)
        before = [(v, cs[:]) for v, cs in z]
        got = identities._pascal_rows(z, x, c, stops)
        assert z == before and len(got) == len(stops)
        for n, ((v, cs), stop) in enumerate(zip(got, stops)):
            want = Series.zero(stop)
            for m, (u, ds) in enumerate(z[:n + 1]):
                gauss = poch_finite(spec, n, stop) * invert_poch(spec, stop, n=m)
                gauss = gauss * invert_poch(spec, stop, n=n - m)
                want = want + (_offset_series(u, ds, stop) * gauss).shift(c * (n - m)).truncate(stop)
            assert 0 <= v and v + len(cs) <= stop
            assert _offset_series(v, cs, stop) == want


class TestSumsAgainstCounting:
    def test_classic_sum_counts_both_families(self):
        """The AG sum generates the frequency-constrained counts and its
        product generates the residue-constrained counts."""
        for k in (2, 3):
            for a in range(1, k + 1):
                s = eval_multisum_AG((k, a), 16)
                p = eval_product_side("AG", (k, a), 16)
                for n in range(16):
                    assert s.coefficient(n) == count_B(n, (k, a)), (k, a, n)
                    assert p.coefficient(n) == count_A(n, (k, a)), (k, a, n)

    def test_even_multiplicity_sum(self):
        for k, a in ((2, 1), (2, 2), (3, 1), (3, 3), (4, 2)):
            s = eval_multisum_W((k, a), 15)
            for n in range(15):
                assert s.coefficient(n) == count_W(n, (k, a)), (k, a, n)

    def test_odd_multiplicity_sum(self):
        for k, a in ((3, 2), (2, 1), (4, 3), (5, 2)):
            s = eval_multisum_Wbar((k, a), 15)
            for n in range(15):
                assert s.coefficient(n) == count_Wbar(n, (k, a)), (k, a, n)

    def test_parity_sum_head(self):
        s = eval_multisum_main((2, 1), 10)
        assert [s.coefficient(n) for n in range(10)] == [1, 0, 0, 1, 1, 0, 0, 1, 2, 1]

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError, match=r"^theorem main does not apply to \(k, a\) = \(3, 1\)$"):
            eval_multisum_main((3, 1), 10)
        with pytest.raises(ValueError, match=r"^theorem wbar does not apply to \(k, a\) = \(3, 1\)$"):
            eval_multisum_Wbar((3, 1), 10)


def _paper_ladder(tag: str, k: int, a: int) -> dict:
    """Each tag's sum side (k, a) as the paper writes it, as the
    arguments of ``ladder_multisum``: the exponent
    sum N_i^2 + (linear terms in the N_i and the gaps n_i) over the
    levels i = 1..k-1, and the Pochhammer symbols around it."""
    levels = range(1, k)

    def on(indices):
        return [1 if i in indices else 0 for i in levels]

    if tag == "AG":
        # q^(N_1^2 + ... + N_(k-1)^2 + N_a + ... + N_(k-1)) / ((q)_(n_1) ... (q)_(n_(k-1)))
        return dict(lin=on(range(a, k)), nlin=on(()), base=1, inner=1)
    every_other = [2 * c for c in on(range(a, k, 2))]  # 2 N_a + 2 N_(a+2) + ...
    if tag in ("W_same", "W_diff"):
        return dict(lin=every_other, nlin=on(()), base=2, inner=2)
    if tag in ("Main", "Paths"):
        # (-q; q^2)_(N_(k-1)) / ((q^2; q^2)_(n_1) ... (q^2; q^2)_(n_(k-2)) (q^4; q^4)_(N_(k-1)))
        return dict(lin=every_other, nlin=on(()), base=2, inner=4, numer=NEG_Q_ODD)
    if tag == "Wbar_odd_even":
        # N_(a-1) + ... + N_(k-1) + n_1 + n_3 + ... + n_(a-3)
        return dict(lin=on(range(a - 1, k)), nlin=on(range(1, a - 2, 2)), base=2, inner=2)
    assert tag == "Wbar_even_odd"
    # N_a + ... + N_(k-1) + n_1 + n_3 + ... + n_(a-2)
    return dict(lin=on(range(a, k)), nlin=on(range(1, a - 1, 2)), base=2, inner=2)


# the evaluator each tag's sum side is reached through
SUM_SIDES = {
    "AG": eval_multisum_AG,
    "W_same": eval_multisum_W,
    "W_diff": eval_multisum_W,
    "Wbar_odd_even": eval_multisum_Wbar,
    "Wbar_even_odd": eval_multisum_Wbar,
    "Main": eval_multisum_main,
    "Paths": eval_multisum_main,
}


class TestLaddersAgainstThePaper:
    def test_every_row_equals_the_paper_ladder(self):
        """Each sum side, and each row's ladder read directly, equals the
        paper's ladder restated above for every (k, a) with k <= 8 in the
        tag's regime, at order 80."""
        n = 80
        for tag, applies in REGIMES.items():
            for k in range(1, 9):
                for a in range(1, k + 1):
                    if applies(k, a):
                        want = ladder_multisum(k, n, **_paper_ladder(tag, k, a))
                        row = ladder_multisum(k, n, **THEOREMS[tag].ladder(k, a)._asdict())
                        got = SUM_SIDES[tag]((k, a), n)
                        for side in (got, row):
                            assert (side.coeffs, side.order) == (want.coeffs, want.order), (tag, k, a)


class TestOneRefusalForBothSides:
    """Both sides of a theorem are refused by the one check of its table
    row, so the sum side, the product side, the Bailey chain and the
    command line word each refusal alike."""

    @pytest.mark.parametrize("order", [0, -3, 7.5, "7", None, True])
    def test_sum_and_product_refuse_a_bad_order_alike(self, order):
        for tag, applies in REGIMES.items():
            if tag == "Paths":  # its sum is Main's, its other side the path counts
                continue
            gp = next((k, a) for k in range(2, 9) for a in range(1, k + 1) if applies(k, a))
            with pytest.raises(ValueError) as product:
                eval_product_side(tag, gp, order)
            with pytest.raises(ValueError) as sums:
                SUM_SIDES[tag](gp, order)
            assert str(sums.value) == str(product.value), (tag, gp)

    def test_a_refused_regime_reads_as_the_command_line_error(self, capsys):
        """Every (k, a) with k <= 8 outside a family's regime: its sum
        side, and for ``main`` the Bailey chain, raise the text that
        ``qgordon verify`` (and ``bailey-chain``) print after ``error: ``."""
        sums = {"ag": eval_multisum_AG, "w": eval_multisum_W, "wbar": eval_multisum_Wbar,
                "main": eval_multisum_main}
        refused = set()
        for family, sum_side in sums.items():
            for k in range(1, 9):
                for a in range(1, k + 1):
                    if any(t.family == family and t.applies(k, a) for t in THEOREMS.values()):
                        continue
                    refused.add(family)
                    ka = ["--k", str(k), "--a", str(a)]
                    assert cli.run(["verify", "--theorem", family, *ka]) == 2
                    err = capsys.readouterr().err
                    with pytest.raises(ValueError) as side:
                        sum_side((k, a), 10)
                    assert err == f"error: {side.value}\n", (family, k, a)
                    if family == "main":
                        assert cli.run(["bailey-chain", *ka]) == 2
                        assert capsys.readouterr().err == err, (k, a)
                        with pytest.raises(ValueError) as chain:
                            build_chain((k, a), 4, 20)
                        assert str(chain.value) == str(side.value), (k, a)
        assert refused == {"wbar", "main"}


class TestProducts:
    def test_two_term_product_side(self):
        """For opposite parity with a > 1 the product side is a sum of
        two products; it still matches the sum."""
        r = verify(IdentitySpec("W_diff", GordonParams(4, 3), 24))
        assert r.equal

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown theorem tag"):
            eval_product_side("nope", (2, 1), 10)

    def test_product_side_only_inside_its_regime(self):
        for tag, applies in REGIMES.items():
            for k in range(1, 9):
                for a in range(1, k + 1):
                    if applies(k, a):
                        assert eval_product_side(tag, (k, a), 6).order == 6
                    else:
                        with pytest.raises(ValueError):
                            eval_product_side(tag, (k, a), 6)


def _factor_by_factor(n: int) -> dict:
    """Each tag's product side (k, a, order n) -> Series as the paper
    writes it: a Jacobi triple product (q^r, q^(m-r), q^m; q^m)_inf,
    times an infinite Pochhammer symbol, over another, built factor by
    factor.  The quotient of the two symbols is built once per tag."""

    def quotient(times, over):
        q = invert_poch(over, n)
        return q if times is None else poch_infinite(times, n) * q

    ag = quotient(None, PochSpec(1, 1, 1))                             # 1 / (q; q)
    odd = quotient(PochSpec(-1, 1, 2), PochSpec(1, 2, 2))              # (-q; q^2) / (q^2; q^2)
    even = quotient(PochSpec(-1, 2, 2), PochSpec(1, 2, 2))             # (-q^2; q^2) / (q^2; q^2)
    odd3 = quotient(PochSpec(-1, 3, 2), PochSpec(1, 2, 2))             # (-q^3; q^2) / (q^2; q^2)

    def tp(m, r):
        return triple_product(r, m - r, m, n)

    def w_diff(k, a):
        theta = tp(2 * k + 2, a + 1)
        if a > 1:
            theta = theta + tp(2 * k + 2, a - 1).shift(1).truncate(n)
        return theta * odd3

    return {
        "AG": lambda k, a: tp(2 * k + 1, a) * ag,
        "W_same": lambda k, a: tp(2 * k + 2, a) * odd,
        "W_diff": w_diff,
        "Wbar_odd_even": lambda k, a: tp(2 * k + 2, a) * even,
        "Wbar_even_odd": lambda k, a: tp(2 * k + 2, a + 1) * even,
        "Main": lambda k, a: tp(2 * k + 2, a) * odd,
        "Paths": lambda k, a: tp(2 * k + 2, a) * odd,
    }


class TestProductsAgainstFactors:
    def test_every_row_equals_its_factor_by_factor_product(self):
        """Each product side, a theta series times an eta quotient, equals
        the triple product times Pochhammer quotient it stands for, over
        every (k, a) with k <= 8 (W_diff at a = 1 included) at order 300."""
        n = 300
        reference = _factor_by_factor(n)
        checked = set()
        for tag in THEOREMS:
            for k in range(1, 9):
                for a in range(1, k + 1):
                    if THEOREMS[tag].applies(k, a):
                        got = eval_product_side(tag, (k, a), n)
                        want = reference[tag](k, a)
                        assert (got.coeffs, got.order, got.denom) == (want.coeffs, n, 1), (tag, k, a)
                        checked.add((tag, a == 1))
        assert ("W_diff", True) in checked and ("W_diff", False) in checked

    @pytest.mark.parametrize("order", [7.3, Fraction(7), Fraction(41, 2), "7", 0, -3, None, True])
    def test_order_must_be_a_positive_int(self, order):
        """The product side takes an int order, as the sum sides do."""
        with pytest.raises(ValueError, match="order must be a positive int"):
            eval_product_side("AG", (3, 1), order)


class TestEtaQuotientTable:
    """The product sides read each row's eta quotient from one table,
    with one entry per product shape, kept as long as the largest order
    asked so far."""

    PAIRS = {"AG": (8, 3), "W_same": (8, 4), "W_diff": (8, 3), "Wbar_odd_even": (7, 2),
             "Wbar_even_odd": (8, 5), "Main": (7, 2), "Paths": (5, 2)}
    ORDERS = (400, 80, 200, 7, 400)

    def test_warm_reads_equal_the_factors_and_a_cold_read(self):
        """Falling, rising and repeated orders read prefixes of a warm
        entry or rebuild it; every read equals the factor-by-factor
        product and a read from an empty table."""
        references = {n: _factor_by_factor(n) for n in set(self.ORDERS)}
        assert set(self.PAIRS) == set(THEOREMS)
        for tag, (k, a) in self.PAIRS.items():
            qgordon.clear_caches()
            warm = [eval_product_side(tag, (k, a), n) for n in self.ORDERS]
            for n, got in zip(self.ORDERS, warm):
                want = references[n][tag](k, a)
                assert (got.coeffs, got.order, got.denom) == (want.coeffs, n, 1), (tag, n)
                qgordon.clear_caches()
                assert eval_product_side(tag, (k, a), n).coeffs == got.coeffs, (tag, n)

    def test_sweep_keeps_one_entry_per_product_shape(self, capsys):
        qgordon.clear_caches()
        assert cli.run(["sweep", "--kmax", "8", "--order", "200"]) == 0
        shapes = {
            (p.divisors, p.times, p.over)
            for thm in THEOREMS.values()
            for k in range(2, 9)
            for a in range(1, k + 1)
            if thm.applies(k, a)
            for p in [thm.product(k, a)]
        }
        assert len(shapes) == 4
        assert set(identities._ETA_QUOTIENTS) == shapes
        assert all(len(cs) == 200 for cs in identities._ETA_QUOTIENTS.values())

    def test_a_longer_order_rebuilds_the_entry(self):
        qgordon.clear_caches()
        short = eval_product_side("Main", (7, 2), 80)
        got = eval_product_side("Main", (7, 2), 200)
        (stored,) = identities._ETA_QUOTIENTS.values()
        assert len(stored) == 200
        assert got.coeffs[:80] == short.coeffs
        assert (got.coeffs, got.order) == (_factor_by_factor(200)["Main"](7, 2).coeffs, 200)

    def test_a_read_leaves_the_stored_list_unchanged(self):
        qgordon.clear_caches()
        eval_product_side("W_diff", (8, 3), 100)
        ((key, stored),) = identities._ETA_QUOTIENTS.items()
        before = list(stored)
        for gp, n in (((8, 3), 100), ((8, 3), 60), ((6, 1), 100), ((4, 3), 1)):
            eval_product_side("W_diff", gp, n)
        assert identities._ETA_QUOTIENTS[key] is stored
        assert stored == before


class TestVerify:
    @pytest.mark.parametrize(
        "theorem,k,a",
        [
            ("AG", 2, 1),
            ("AG", 3, 3),
            ("W_same", 3, 1),
            ("W_diff", 2, 1),
            ("Wbar_odd_even", 3, 2),
            ("Wbar_even_odd", 4, 1),
            ("Main", 3, 2),
        ],
    )
    def test_reports_equal(self, theorem, k, a):
        r = verify(IdentitySpec(theorem, GordonParams(k, a), 26))
        assert isinstance(r, VerificationReport)
        assert r.equal and r.first_discrepancy is None

    def test_report_copies_and_pickles(self):
        """A report holds two Series, so it copies, pickles and turns into
        a dict with ``dataclasses.asdict``."""
        report = verify(IdentitySpec("Main", GordonParams(5, 2), 60))
        for again in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert again == report and again.to_json_obj() == report.to_json_obj()
            assert again.lhs.coeffs == report.lhs.coeffs and again.rhs.order == report.rhs.order
        fields = dataclasses.asdict(report)
        assert fields["spec"] == {"theorem": "Main", "gp": {"k": 5, "a": 2}, "order": 60}
        assert fields["lhs"] == report.lhs and fields["rhs"] == report.rhs and fields["equal"]

    def test_paths_tag_counts_paths(self):
        r = verify(IdentitySpec("Paths", GordonParams(3, 2), 10))
        assert r.equal
        assert r.lhs.coefficient(4) == 2

    def test_json_shape(self):
        r = verify(IdentitySpec("AG", GordonParams(2, 2), 12))
        assert r.to_json_obj() == {
            "theorem": "AG",
            "k": 2,
            "a": 2,
            "order": 12,
            "equal": True,
            "first_discrepancy": None,
        }

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown theorem tag"):
            IdentitySpec("X", GordonParams(2, 1), 10)
        with pytest.raises(ValueError, match="does not apply"):
            IdentitySpec("W_same", GordonParams(2, 1), 10)
        with pytest.raises(ValueError, match="does not apply"):
            IdentitySpec("Wbar_odd_even", GordonParams(4, 1), 10)
        with pytest.raises(ValueError, match="order must be"):
            IdentitySpec("AG", GordonParams(2, 1), 0)
        with pytest.raises(ValueError, match="start at k = 2"):
            IdentitySpec("AG", GordonParams(1, 1), 10)
        assert len(THEOREMS) == 7

    def test_spec_accepts_exactly_the_regime(self):
        assert set(THEOREMS) == set(REGIMES)
        for tag, applies in REGIMES.items():
            for k in range(1, 9):
                for a in range(1, k + 1):
                    if k >= 2 and applies(k, a):
                        assert IdentitySpec(tag, GordonParams(k, a), 10).theorem == tag
                    else:
                        with pytest.raises(ValueError):
                            IdentitySpec(tag, GordonParams(k, a), 10)

    def test_short_side_is_refused(self, monkeypatch):
        """A side that stops short of the order must not pass vacuously
        on the window that is left."""
        true_sum = identities._sum_side
        monkeypatch.setattr(
            identities, "_sum_side", lambda tag, gp, order: true_sum(tag, gp, order).truncate(order - 1)
        )
        with pytest.raises(ValueError, match="short of q\\^20"):
            verify(IdentitySpec("AG", GordonParams(3, 1), 20))


class TestHighOrder:
    """Order 400 at k = 8 (k = 7 where the tag needs k odd): far beyond
    what dense products and inverses could afford."""

    @pytest.mark.parametrize(
        "theorem,k,a",
        [
            ("AG", 8, 3),
            ("W_same", 8, 4),
            ("W_diff", 8, 3),
            ("Wbar_odd_even", 7, 2),
            ("Wbar_even_odd", 8, 5),
            ("Main", 8, 1),
        ],
    )
    def test_sum_equals_product_at_order_400(self, theorem, k, a):
        r = verify(IdentitySpec(theorem, GordonParams(k, a), 400))
        assert r.equal and r.first_discrepancy is None
        assert r.lhs.order >= 400 and r.rhs.order >= 400


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
