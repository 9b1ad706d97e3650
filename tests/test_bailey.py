"""Tests for Bailey pairs, the chain transformations, and the limit."""

from __future__ import annotations

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from qgordon import bailey
from qgordon.bailey import (
    BaileyPair,
    _quotient_sums,
    apply_D1,
    apply_P41,
    apply_S1,
    apply_S2,
    build_chain,
    check_pair,
    closed_form_alpha,
    limit_identity,
    unit_pair,
)
from qgordon.identities import eval_multisum_AG, eval_multisum_main, eval_product_side
from qgordon.qseries import PochSpec, Series, invert_poch, mul, poch_finite, poch_infinite, rescale, theta_sum

Q = PochSpec(1, 1, 1)
Q2 = PochSpec(1, 2, 2)
NEG_T = PochSpec(-1, 1, 2)  # (-t; t^2) = (-q^(1/2); q) in t = q^(1/2)


class TestUnitPair:
    def test_defining_relation(self):
        """The seed pair satisfies the two-wing convolution identity."""
        assert check_pair(unit_pair(8, 30))

    def test_alpha_terms(self):
        u = unit_pair(3, 30)
        assert u.alpha[0] == Series.one(30, 2)
        assert u.alpha[1] == Series.from_terms([(0, -1), (1, -1)], 30, 2)
        assert u.alpha[2] == Series.from_terms([(1, 1), (3, 1)], 30, 2)

    def test_beta_is_delta(self):
        u = unit_pair(4, 20)
        assert u.beta[0] == Series.one(20, 2)
        assert all(b.is_zero() for b in u.beta[1:])

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            unit_pair(-1, 10)
        with pytest.raises(ValueError, match="equally long"):
            BaileyPair((Series.one(10, 2),), ())
        with pytest.raises(TypeError, match=r"^alpha\[0\] must be a Series, got int$"):
            BaileyPair((1,), (1,))

    @pytest.mark.parametrize("field, index", [("alpha", 0), ("alpha", 2), ("beta", 1)])
    @pytest.mark.parametrize("entry", [1, None, (1, 0)])
    def test_entries_must_be_series(self, field, index, entry):
        """A non-Series entry is refused by name and index, not left to
        fail inside the grid promotion."""
        series = {"alpha": [Series.one(10, 2)] * 3, "beta": [Series.one(10, 2)] * 3}
        series[field][index] = entry
        want = f"^{field}\\[{index}\\] must be a Series, got {type(entry).__name__}$"
        with pytest.raises(TypeError, match=want):
            BaileyPair(tuple(series["alpha"]), tuple(series["beta"]))

    def test_one_order_per_link_and_the_least_of_mixed_orders(self):
        """Every link of a chain gives all its series one order object,
        and a pair of mixed orders takes the least."""
        for gp in ((2, 1), (7, 2)):
            for label, bp in build_chain(gp, 6, 40):
                assert len({id(s.order) for s in bp.alpha + bp.beta}) == 1, (gp, label)
        longer = Series.one(Fraction(21, 2), 2)
        assert BaileyPair((longer, Series.one(10, 2)), (longer, longer)).order == 10

    @pytest.mark.parametrize("n_max", [True, False, 2.0, "2", None])
    def test_n_max_must_be_an_int(self, n_max):
        """A bool is not read as 1 or 0, nor a float as an int."""
        with pytest.raises(ValueError, match=f"^n_max must be an int >= 0, got {re.escape(repr(n_max))}$"):
            unit_pair(n_max, 10)


class TestTransforms:
    def test_base_doubling_images(self):
        """After doubling, beta_n = q^n / (q^2; q^2)_n exactly and
        alpha_n = (-1)^n (q^(n^2-n) + q^(n^2+n))."""
        d = apply_D1(unit_pair(8, 20))
        assert check_pair(d)
        assert d.order == 40
        for n in range(9):
            want = invert_poch(Q2, 40, n=n).shift(n).truncate(40)
            assert d.beta[n] == want
        for n in range(1, 9):
            sgn = -1 if n % 2 else 1
            assert d.alpha[n] == Series.from_terms(
                [(n * n - n, sgn), (n * n + n, sgn)], 40, 2
            )

    def test_integer_weights_on_unit(self):
        """S1 sends the seed pair to beta_n = 1 / (q; q)_n."""
        s1 = apply_S1(unit_pair(8, 30))
        assert check_pair(s1)
        for n in range(9):
            assert s1.beta[n] == invert_poch(Q, 30, n=n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_integer_weights_reach_andrews_gordon(self, k):
        """k - 1 S1 steps from the seed pair give the Andrews-Gordon
        identity with a = k through Bailey's lemma:
        sum_n q^(n^2) beta_n is the AG sum, and
        (1 / (q; q)_inf) sum_r q^(r^2) alpha_r is the AG product.  Below
        q^60 the pairs' n <= 8 carry every term."""
        pair = unit_pair(8, 60)
        for _ in range(k - 1):
            pair = apply_S1(pair)
        beta_side = sum((b.shift(n * n).truncate(60) for n, b in enumerate(pair.beta)), Series.zero(60))
        alpha_side = sum((a.shift(r * r).truncate(60) for r, a in enumerate(pair.alpha)), Series.zero(60))
        assert beta_side == eval_multisum_AG((k, k), 60)
        assert alpha_side * invert_poch(Q, 60) == eval_product_side("AG", (k, k), 60)

    def test_half_weights_keep_relation(self):
        assert check_pair(apply_S2(unit_pair(6, 24)))

    def test_half_weights_on_unit(self):
        """S2 sends the seed pair to beta_n = 1 / ((q; q)_n (-q^(1/2); q)_n),
        built factor by factor in t = q^(1/2) and read on the half grid."""
        s2 = apply_S2(unit_pair(8, 24))
        for n in range(9):
            want = rescale(invert_poch(Q2, 48, n=n) * invert_poch(NEG_T, 48, n=n), Fraction(1, 2))
            assert (s2.beta[n].order, want.order) == (24, 24)
            assert s2.beta[n] == want, n

    def test_template_swap_needs_matching_alpha(self):
        with pytest.raises(ValueError, match="does not match the swap template"):
            apply_P41(unit_pair(4, 20), 2)
        with pytest.raises(ValueError, match="int >= 2"):
            apply_P41(unit_pair(4, 20), 1)

    @pytest.mark.parametrize("a_coef", [True, 2.0, "2"])
    def test_template_coefficient_must_be_an_int(self, a_coef):
        pair = build_chain((4, 1), 4, 20)[3][1]  # the link the swap with A = 2 reads
        apply_P41(pair, 2)
        with pytest.raises(ValueError, match=f"^template coefficient a_coef must be an int >= 2, got {re.escape(repr(a_coef))}$"):
            apply_P41(pair, a_coef)

    def test_check_pair_detects_corruption(self):
        u = unit_pair(4, 20)
        broken = BaileyPair(u.alpha, u.beta[:-1] + (Series.one(20, 2),))
        assert not check_pair(broken)

    def test_check_pair_reads_betas_on_the_integer_grid(self):
        """The base-doubled pair passes with its betas q^n / (q^2; q^2)_n
        built on the integer grid, and fails once one of them is off."""
        d = apply_D1(unit_pair(8, 20))
        beta = tuple(invert_poch(Q2, 40, n=n).shift(n) for n in range(9))
        assert {b.denom for b in beta} == {1}
        assert check_pair(BaileyPair(d.alpha, beta))
        broken = beta[:5] + (beta[5] + Series.from_terms([(7, 1)], 40),) + beta[6:]
        assert not check_pair(BaileyPair(d.alpha, broken))


def _summed_pair(gp, n_max, order) -> BaileyPair:
    """The D1 link plus the first S2 link of one chain: both are at the
    chain's final order, and Bailey's relation is linear, so the sum is
    a pair.  alpha_r sits on the even slots of the half grid in D1 and on
    the slots of r's parity in S2, so every odd-r alpha fills both
    classes of slots."""
    links = dict(build_chain(gp, n_max, order)[1:3])
    d1, s2 = links["D1"], links["S2"]
    pair = BaileyPair(
        tuple(a + b for a, b in zip(d1.alpha, s2.alpha)),
        tuple(a + b for a, b in zip(d1.beta, s2.beta)),
    )
    for r, s in enumerate(pair.alpha):
        filled = {p for p in (0, 1) if any(s.coeffs[p::2])}
        assert filled == ({0, 1} if r % 2 else {0}), r
    return pair


class TestCheckPairClasses:
    """check_pair runs on the even and the odd slots of the half grid
    apart; these pairs put terms on both."""

    def test_pair_across_both_classes_passes(self):
        for gp in ((2, 1), (5, 2)):
            assert check_pair(_summed_pair(gp, 6, 40)), gp

    @pytest.mark.parametrize("p, delta", [(0, 1), (1, -1), (0, -1), (1, 1)])
    def test_every_beta_slot_change_is_caught(self, p, delta):
        """A +-1 change in one slot of beta_n, in either class, fails the
        check for every n."""
        pair = _summed_pair((5, 2), 6, 40)
        for n in range(pair.n_max + 1):
            slot = p + 2 * n
            cs = list(pair.beta[n].coeffs)
            cs[slot] += delta
            beta = pair.beta[:n] + (Series(cs, pair.order, 2),) + pair.beta[n + 1:]
            assert not check_pair(BaileyPair(pair.alpha, beta)), (n, slot)

    def test_alpha_term_on_its_empty_class_is_caught(self):
        """Every alpha_r of every chain link fills at most one class (none
        once its first term lies past the order); a term on an empty one
        breaks the relation."""
        for label, bp in build_chain((5, 2), 4, 24):
            for r, s in enumerate(bp.alpha):
                empty = [p for p in (0, 1) if not any(s.coeffs[p::2])]
                assert empty, (label, r)
                cs = list(s.coeffs)
                cs[empty[0] + 2 * r] += 1
                alpha = bp.alpha[:r] + (Series(cs, s.order, 2),) + bp.alpha[r + 1:]
                assert not check_pair(BaileyPair(alpha, bp.beta)), (label, r)


ROW_SPECS = (PochSpec(1, 1, 1), PochSpec(1, 2, 2), PochSpec(-1, 1, 2), PochSpec(-1, 3, 1), PochSpec(1, 4, 4))


def _coefficient(rng):
    """Small, negative, near 2^62 (a column of them overflows a C long)
    or past +-2^64."""
    return rng.choice((
        rng.randint(-3, 3), 0, 2**62 + rng.randint(0, 9), -(2**62) - rng.randint(0, 9),
        rng.randint(-(2**100), 2**100), rng.choice((1, -1)) * (2**64 + rng.randint(0, 9)),
    ))


def _quotient_case(rng):
    """Random arguments for _quotient_sums: a shift of 0 to 3, so every
    window length - v - shift (n - m) shrinks with n, and a row_spec or
    none; the divisor (x^2; x^2) is the kernel's own.  Term m reaches the
    end of its window in row m, the first that reads it, and is empty
    when that window is."""
    length = rng.randint(1, 40)
    terms = []
    for _ in range(rng.randint(0, 7)):
        v = rng.randint(0, 30)
        window = length - v
        terms.append((v, [_coefficient(rng) for _ in range(max(window, 0) + rng.randint(0, 3) * (window > 0))]))
    row_spec = rng.choice((None, rng.choice(ROW_SPECS)))
    return terms, length, rng.randint(0, 3), row_spec


def _direct_quotient_sums(terms, length, shift, row_spec):
    """Each row of _quotient_sums in Series arithmetic: term m read as
    q^v * cs, times q^(shift (n - m)) / (q^2; q^2)_(n-m) and, for a
    row_spec, (row_spec)_m / (row_spec)_n, below ``length``."""
    rows = []
    for n in range(len(terms)):
        total = Series.zero(length)
        for m, (v, cs) in enumerate(terms[: n + 1]):
            f = Series.from_terms([(v + i, x) for i, x in enumerate(cs)], length)
            f = f * invert_poch(Q2, length, n - m)
            if row_spec is not None:
                f = f * invert_poch(row_spec, length, n) * poch_finite(row_spec, m, length)
            total = total + f.shift(shift * (n - m)).truncate(length)
        rows.append(total.coeffs)
    return rows


class TestQuotientSums:
    """The row kernel against a direct sum of Series quotients."""

    def test_matches_direct_sum(self):
        rng = random.Random(15)
        empty_terms = emptied = 0
        shifts = set()
        for case in range(400):
            terms, length, shift, row_spec = _quotient_case(rng)
            if case == 0:
                terms = []
            want = _direct_quotient_sums(terms, length, shift, row_spec)
            got = _quotient_sums([(v, cs[:]) for v, cs in terms], length, shift, row_spec)
            assert len(got) == len(terms)
            for (lo, sums), row in zip(got, want):
                assert lo + len(sums) == length
                assert tuple([0] * lo + sums) == row
            shifts.add(shift)
            empty_terms += any(not cs for _, cs in terms)
            emptied += any(cs and length <= v + shift * (n - m)
                           for m, (v, cs) in enumerate(terms)
                           for n in range(m + 1, len(terms)))
        assert shifts == {0, 1, 2, 3}
        assert empty_terms and emptied  # some term is empty, some window shrinks to nothing

    @pytest.mark.parametrize("c", [1, 0, -3, 2**64 + 1])
    @pytest.mark.parametrize("rest", [False, True])
    def test_term_zero_at_exponent_zero(self, c, rest):
        """Term 0 starting at q^0 with constant coefficient c, which the
        kernel reads from its shared column, and a rest that is zero or
        not: every row equals the direct sum, for every shift and
        row_spec."""
        rng = random.Random(f"{c}/{rest}")
        for shift in range(4):
            for row_spec in (None, *ROW_SPECS):
                terms, length, _, _ = _quotient_case(rng)
                tail = [0] * (length - 1)
                if rest and tail:
                    gap = rng.randrange(len(tail))  # zeros before the rest's first nonzero
                    tail[gap:] = [rng.choice((1, -2, 2**64 + 1))] + [_coefficient(rng) for _ in tail[gap + 1:]]
                terms = [(0, [c] + tail)] + terms[:4]
                want = _direct_quotient_sums(terms, length, shift, row_spec)
                got = _quotient_sums([(v, cs[:]) for v, cs in terms], length, shift, row_spec)
                assert [tuple([0] * lo + sums) for lo, sums in got] == want
                assert all(lo + len(sums) == length for lo, sums in got)


def _reference_beta(alpha, n, order) -> Series:
    """sum_{r <= n} alpha_r / ((q; q)_{n-r} (q; q)_{n+r}), dense, by the
    public Series operators."""
    total = Series.zero(order, 2)
    for r in range(n + 1):
        total = total + alpha[r] * invert_poch(Q, order, n=n - r) * invert_poch(Q, order, n=n + r)
    return total


def _random_pair(seed: int) -> BaileyPair:
    """A pair whose betas are exact below a window of 17-34 half-grid
    slots, an odd or an even count; every alpha_r is sparse (odd seeds
    dense) with coefficients in -3..3, and each series but beta_0, which
    sets the window, has its own order at or past it, with random
    coefficients past it."""
    rng = random.Random(seed)
    n_max, slots, dense = rng.randint(2, 5), rng.randint(17, 34), seed % 2
    order = Fraction(slots, 2)

    def extend(s: Series) -> Series:
        """s with 0-3 more random half-grid slots past the window."""
        extra = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        return Series(list(s.coeffs) + extra, order + Fraction(len(extra), 2), 2)

    alpha = []
    for _ in range(n_max + 1):
        if dense:
            cs = [rng.randint(-3, 3) for _ in range(slots)]
        else:
            cs = [0] * slots
            for slot in rng.sample(range(slots), 3):
                cs[slot] = rng.choice((-3, -2, -1, 1, 2, 3))
        alpha.append(extend(Series(cs, order, 2)))
    beta = [_reference_beta(alpha, 0, order)]
    beta += [extend(_reference_beta(alpha, n, order)) for n in range(1, n_max + 1)]
    return BaileyPair(tuple(alpha), tuple(beta))


def _replaced(pair: BaileyPair, field: str, n: int, s: Series) -> BaileyPair:
    """pair with its alpha_n or beta_n (``field``) replaced by s."""
    series = getattr(pair, field)
    series = series[:n] + (s,) + series[n + 1:]
    return BaileyPair(series, pair.beta) if field == "alpha" else BaileyPair(pair.alpha, series)


class TestCheckPairReference:
    """check_pair against the defining relation summed densely with the
    public operators, on seeded pairs that no chain builds."""

    SEEDS = range(8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_beta_passes_and_every_slot_change_fails(self, seed):
        pair = _random_pair(seed)
        assert check_pair(pair)
        for field in ("alpha", "beta"):
            for n, s in enumerate(getattr(pair, field)):
                for slot in range(int(2 * pair.order)):
                    for delta in (1, -1):
                        cs = list(s.coeffs)
                        cs[slot] += delta
                        bp = _replaced(pair, field, n, Series(cs, s.order, 2))
                        assert not check_pair(bp), (field, n, slot, delta)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_changes_past_the_window_pass(self, seed):
        """A change at the first slot past the pair's window, in a series
        that already holds it or by one more slot that raises the order of
        a series other than beta_0, is outside what the check covers."""
        pair = _random_pair(seed)
        slots = int(2 * pair.order)
        for field in ("alpha", "beta"):
            for n, s in enumerate(getattr(pair, field)):
                if (field, n) == ("beta", 0):
                    continue
                cs = list(s.coeffs)
                if len(cs) > slots:
                    cs[slots] += 1
                    bp = _replaced(pair, field, n, Series(cs, s.order, 2))
                else:
                    bp = _replaced(pair, field, n, Series(cs + [1], s.order + Fraction(1, 2), 2))
                assert bp.order == pair.order
                assert check_pair(bp), (field, n)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_terms_multiply_ints(self, seed, monkeypatch):
        """An alpha slot c other than 1 or -1 scales its row by ints with
        operator.mul, not with the module's ``mul``, which is qseries.mul
        (kept there for tracing)."""
        pair = _random_pair(seed)
        assert any(abs(c) > 1 for s in pair.alpha for c in s.coeffs)

        def refuse(*args):
            raise AssertionError("check_pair called qseries.mul")

        monkeypatch.setattr(bailey, "mul", refuse)
        assert check_pair(pair)

    def test_pairs_cover_odd_and_even_windows(self):
        pairs = [_random_pair(seed) for seed in self.SEEDS]
        assert {int(2 * p.order) % 2 for p in pairs} == {0, 1}
        assert any(len({s.order for s in p.alpha + p.beta}) > 1 for p in pairs)


class TestChain:
    def test_step_labels(self):
        """One doubling then a single half-weight step suffices at k = 2."""
        assert [lbl for lbl, _ in build_chain((2, 1), 4, 20)] == ["unit", "D1", "S2"]
        assert [lbl for lbl, _ in build_chain((4, 1), 4, 20)] == [
            "unit", "D1", "S2", "S2", "P41(A=2)", "S2",
        ]

    def test_every_link_satisfies_relation(self):
        for gp in ((2, 1), (3, 2)):
            for label, bp in build_chain(gp, 6, 24):
                assert check_pair(bp), (gp, label)

    def test_every_link_satisfies_relation_at_high_order(self):
        chain = build_chain((7, 2), 10, 160)
        assert chain[-1][1].order == 160
        for label, bp in chain:
            assert check_pair(bp), label

    def test_endpoint_matches_closed_form(self):
        for gp in ((2, 1), (3, 2), (5, 2)):
            fin = build_chain(gp, 6, 24)[-1][1]
            for n in range(7):
                assert fin.alpha[n] == closed_form_alpha(gp, n, fin.order), (gp, n)

    def test_pair_order_is_least_series_order(self):
        """``order`` is the least order over every alpha and beta; it is
        read-only, and equality still compares the series alone."""
        chain = build_chain((7, 2), 6, 40)
        for label, bp in chain:
            assert bp.order == min(s.order for s in bp.alpha + bp.beta), label
        unit = chain[0][1]
        assert unit.order == 20 and chain[-1][1].order == 40
        with pytest.raises(AttributeError):
            unit.order = 1
        assert unit == BaileyPair(unit.alpha, unit.beta)
        assert unit != BaileyPair(unit.alpha, (Series.one(20, 2),) * len(unit.beta))

    def test_every_series_on_the_half_grid(self):
        """D1 keeps its alphas on the half grid instead of leaving them
        on grid 1, where every later step would promote them back."""
        for label, bp in build_chain((7, 2), 10, 40):
            for s in bp.alpha + bp.beta:
                assert s.denom == 2, label

    def test_same_parity_rejected(self):
        with pytest.raises(ValueError, match=r"^theorem main does not apply to \(k, a\) = \(3, 1\)$"):
            build_chain((3, 1), 4, 20)

    @pytest.mark.parametrize("order", [0, -3, Fraction(-1, 2)])
    def test_nonpositive_order_refused(self, order):
        """The order the caller passed is named, not the unit pair's half
        of it."""
        with pytest.raises(ValueError, match=f"^truncation order must be positive, got {order}$"):
            build_chain((3, 2), 4, order)

    @pytest.mark.parametrize("n_max", [True, 10.0])
    def test_n_max_must_be_an_int(self, n_max):
        """build_chain((3, 2), True, 10) used to build a 4-link chain."""
        with pytest.raises(ValueError, match=f"^n_max must be an int >= 0, got {n_max!r}$"):
            build_chain((3, 2), n_max, 10)

    @pytest.mark.parametrize("n", [-1, -3, 1.0, 2.5, "1", None, True, False])
    def test_closed_form_alpha_needs_a_nonnegative_int_index(self, n):
        """A negative n is refused, not read as alpha_|n|."""
        with pytest.raises(ValueError, match=r"n must be an int >= 0, got " + re.escape(repr(n))):
            closed_form_alpha((5, 2), n, 10)


_OPPOSITE = [(k, a) for k in range(2, 8) for a in range(1, k + 1) if (k - a) % 2]


def _slots_of(bp):
    """Every series of ``bp`` as (order, grid, coefficients)."""
    return [(s.order, s.denom, s.coeffs) for s in bp.alpha + bp.beta]


class TestStepPairs:
    """The chain steps build their pairs without the public constructor's
    checks; those checks must hold on every pair a step builds."""

    @pytest.mark.parametrize("n_max, order", [(6, 40), (10, 80)])
    def test_public_constructor_agrees_on_every_link(self, n_max, order):
        for gp in _OPPOSITE:
            for label, bp in build_chain(gp, n_max, order):
                again = BaileyPair(bp.alpha, bp.beta)
                assert again == bp and again.order == bp.order, (gp, label)
                assert _slots_of(again) == _slots_of(bp), (gp, label)
                assert type(bp.alpha) is tuple and type(bp.beta) is tuple, (gp, label)

    def test_swap_refuses_one_wrong_slot(self):
        """One slot off in any alpha_m is refused by name; the shifted
        betas equal q^n beta_n cut to the pair's order."""
        chain = build_chain((5, 2), 6, 40)
        pair, swapped = chain[3][1], chain[4][1]  # the swap with A = 2 reads pair
        out = apply_P41(pair, 2)
        assert out == swapped and _slots_of(out) == _slots_of(swapped)
        assert [s.coeffs for s in out.beta] == [s.shift(n).truncate(40).coeffs for n, s in enumerate(pair.beta)]
        for m in (0, 3, 6):
            cs = list(pair.alpha[m].coeffs)
            cs[m + 7] += 1
            alpha = pair.alpha[:m] + (Series(cs, 40, 2),) + pair.alpha[m + 1:]
            with pytest.raises(ValueError, match=f"^alpha_{m} does not match the swap template with A = 2$"):
                apply_P41(BaileyPair(alpha, pair.beta), 2)

    def test_swap_compares_a_longer_alpha_as_series(self):
        """An alpha_m known past the pair's order is compared below the
        pair's order, as Series equality compares it: a match passes, one
        slot off is refused with the same message."""
        pair = build_chain((5, 2), 6, 40)[3][1]
        m = 2
        longer = Series(pair.alpha[m].coeffs + (5, -5), Fraction(41), 2)  # two slots past the order
        alpha = pair.alpha[:m] + (longer,) + pair.alpha[m + 1:]
        out = apply_P41(BaileyPair(alpha, pair.beta), 2)
        assert _slots_of(out) == _slots_of(apply_P41(pair, 2))
        for slot in (9, 79):  # 79 is q^(79/2), the last slot below the order
            cs = list(longer.coeffs)
            cs[slot] -= 1
            alpha = pair.alpha[:m] + (Series(cs, Fraction(41), 2),) + pair.alpha[m + 1:]
            with pytest.raises(ValueError, match=f"^alpha_{m} does not match the swap template with A = 2$"):
                apply_P41(BaileyPair(alpha, pair.beta), 2)


class TestAlphaTerms:
    """A pair holds each alpha as its terms, the nonzero (slot, c) pairs
    below its slot count; ``alpha`` builds them as Series on first read."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_chain_holds_no_dense_alpha(self, k):
        """No link of an opposite-parity chain, nor an S1 pair, holds a
        dense alpha after the steps and the check have read it; the
        series built on first read, once, are those the public
        constructor holds for them, and its terms are the link's."""
        chains = [build_chain((k, a), 12, 60) for a in range(1, k + 1) if (k - a) % 2]
        chains.append([("S1", apply_S1(unit_pair(12, 30)))])
        for chain in chains:
            for label, bp in chain:
                assert check_pair(bp), label
            for label, bp in chain:
                assert "alpha" not in vars(bp), label
                again = BaileyPair(bp.alpha, bp.beta)
                assert "alpha" in vars(bp) and bp.alpha is bp.alpha, label
                assert again._terms == bp._terms, label
                assert _slots_of(again) == _slots_of(bp), label

    def test_alpha_past_the_order_is_ignored(self):
        """Nonzero alpha slots past the pair's order stay in the series
        ``alpha`` returns but not in the terms, so the check and the
        steps read the pair as they read it without them; a change below
        the order still fails the check."""
        for label, bp in build_chain((5, 2), 6, 40):
            longer = tuple(Series(s.coeffs + (1, -2, 3), bp.order + Fraction(3, 2), 2) for s in bp.alpha)
            pair = BaileyPair(longer, bp.beta)
            assert pair.order == bp.order and pair.alpha == longer, label
            assert pair._terms == bp._terms, label
            assert check_pair(pair), label
            for step in (apply_S1, apply_S2, apply_D1):
                assert _slots_of(step(pair)) == _slots_of(step(bp)), (label, step.__name__)
            r = pair.n_max // 2
            cs = list(longer[r].coeffs)
            cs[int(2 * bp.order) - 1] += 1  # the last slot below the order
            broken = longer[:r] + (Series(cs, longer[r].order, 2),) + longer[r + 1:]
            assert not check_pair(BaileyPair(broken, bp.beta)), label


    def test_other_names_are_refused(self):
        """``__getattr__`` builds ``alpha`` alone: any other name the pair
        does not hold gets the standard AttributeError, and builds nothing."""
        bp = build_chain((5, 2), 6, 40)[-1][1]
        with pytest.raises(AttributeError, match="^'BaileyPair' object has no attribute 'nope'$"):
            bp.nope
        assert not hasattr(bp, "nope")
        assert "alpha" not in vars(bp)

    @pytest.mark.parametrize("read_alpha", [False, True], ids=["terms-only", "alpha-read"])
    def test_copy_and_pickle_round_trip(self, read_alpha):
        """Every link of a chain copies and pickles, before and after its
        first read of ``alpha``: the copy holds what the link held, passes
        the check and equals the link."""
        for label, bp in build_chain((7, 2), 8, 40):
            if read_alpha:
                bp.alpha
            for again in (copy.copy(bp), copy.deepcopy(bp), pickle.loads(pickle.dumps(bp))):
                assert ("alpha" in vars(again)) == read_alpha, label
                assert again._terms == bp._terms and again.order == bp.order, label
                assert check_pair(again), label
                assert again == bp and _slots_of(again) == _slots_of(bp), label


class TestLimit:
    def test_limit_holds_on_half_grid(self):
        for gp in ((2, 1), (3, 2)):
            lhs, rhs = limit_identity(gp, 15)
            assert lhs == rhs, gp

    def test_half_integer_order(self):
        """Both sides come back on the half grid, known exactly below the
        requested half-integer order, as perfbench's chain replay reads them."""
        for gp in ((2, 1), (5, 2)):
            for side in limit_identity(gp, Fraction(41, 2)):
                assert (side.denom, side.order) == (2, Fraction(41, 2)), gp

    def test_rescale_reaches_integer_grid_identity(self):
        """Substituting q -> q^2 turns the limit into the
        parity-restricted sum and product."""
        lhs, rhs = limit_identity((2, 1), 15)
        assert rescale(lhs, 2) == eval_multisum_main((2, 1), 30)
        assert rescale(rhs, 2) == eval_product_side("Main", (2, 1), 30)

    def test_beta_stabilizes_toward_the_limit(self):
        """The final beta_N agrees with the limit series divided by
        (-q^(1/2); q)_inf (q; q)_inf below exponent N / 2."""
        fin = build_chain((3, 2), 10, 20)[-1][1]
        lhs, _ = limit_identity((3, 2), 20)
        approx = mul(
            mul(lhs, rescale(invert_poch(NEG_T, 40), Fraction(1, 2))),
            invert_poch(Q, 20),
        )
        half = Fraction(5)
        assert fin.beta[10].truncate(half) == approx.truncate(half)

    def test_same_parity_rejected(self):
        with pytest.raises(ValueError, match=r"^theorem main does not apply to \(k, a\) = \(4, 2\)$"):
            limit_identity((4, 2), 10)

    def test_float_order_refused(self):
        """A float order is refused, not rounded to a binary fraction."""
        with pytest.raises(TypeError, match="int or Fraction order, got float"):
            limit_identity((2, 1), 7.3)

    @pytest.mark.parametrize("order", [0, Fraction(-1, 2), -3])
    def test_nonpositive_order_refused(self, order):
        """The order the caller passed is named, not a slot count."""
        with pytest.raises(ValueError, match=f"truncation order must be positive, got {order}$"):
            limit_identity((2, 1), order)

    @pytest.mark.parametrize("order", [Fraction(41, 2), Fraction(81, 2)])
    def test_right_side_is_the_factor_by_factor_product(self, order):
        """The right side equals the theta series times
        (-t; t^2)_inf / (t^2; t^2)_inf, built factor by factor in
        t = q^(1/2) and read on the half grid."""
        length = 2 * order
        for gp in ((2, 1), (5, 2), (6, 3), (7, 2), (8, 1)):
            k, a = gp
            t_series = theta_sum(a, 2 * k + 2, length) * poch_infinite(NEG_T, length)
            want = rescale(t_series * invert_poch(Q2, length), Fraction(1, 2))
            _, rhs = limit_identity(gp, order)
            assert (rhs.coeffs, rhs.order, rhs.denom) == (want.coeffs, order, 2), gp


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
