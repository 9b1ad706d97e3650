"""Tests for Bailey pairs, the chain transformations, and the limit."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qgordon.bailey import (
    BaileyPair,
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
from qgordon.identities import eval_multisum_main, eval_product_side
from qgordon.qseries import PochSpec, Series, invert_poch, mul, rescale

Q = PochSpec(1, 1, 1)
Q2 = PochSpec(1, 2, 2)
NEG_SQRT_Q = PochSpec(-1, Fraction(1, 2), 1)


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
        with pytest.raises(ValueError, match="base 1"):
            BaileyPair((Series.one(10, 2),), (Series.one(10, 2),), base=2)
        with pytest.raises(ValueError, match="equally long"):
            BaileyPair((Series.one(10, 2),), ())


class TestTransforms:
    def test_base_doubling_images(self):
        """After doubling, beta_n = q^n / (q^2; q^2)_n exactly and
        alpha_n = (-1)^n (q^(n^2-n) + q^(n^2+n))."""
        d = apply_D1(unit_pair(8, 20))
        assert check_pair(d)
        assert d.order == 40
        for n in range(9):
            want = invert_poch(Q2, 40, n=n, denom=2).shift(n).truncate(40)
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
            assert s1.beta[n] == invert_poch(Q, 30, n=n, denom=2)

    def test_half_weights_keep_relation(self):
        assert check_pair(apply_S2(unit_pair(6, 24)))

    def test_template_swap_needs_matching_alpha(self):
        with pytest.raises(ValueError, match="does not match the swap template"):
            apply_P41(unit_pair(4, 20), 2)
        with pytest.raises(ValueError, match="int >= 2"):
            apply_P41(unit_pair(4, 20), 1)

    def test_check_pair_detects_corruption(self):
        u = unit_pair(4, 20)
        broken = BaileyPair(u.alpha, u.beta[:-1] + (Series.one(20, 2),))
        assert not check_pair(broken)


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

    def test_same_parity_rejected(self):
        with pytest.raises(ValueError, match="opposite parity"):
            build_chain((3, 1), 4, 20)


class TestLimit:
    def test_limit_holds_on_half_grid(self):
        for gp in ((2, 1), (3, 2)):
            lhs, rhs = limit_identity(gp, 15)
            assert lhs == rhs, gp

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
            mul(lhs, invert_poch(NEG_SQRT_Q, Fraction(20), denom=2)),
            invert_poch(Q, Fraction(20), denom=2),
        )
        half = Fraction(5)
        assert fin.beta[10].truncate(half) == approx.truncate(half)

    def test_same_parity_rejected(self):
        with pytest.raises(ValueError, match="opposite parity"):
            limit_identity((4, 2), 10)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
