"""Tests for the multisum evaluators and identity verification."""

from __future__ import annotations

import pytest

from qgordon import identities
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
from qgordon.qseries import PochSpec, Series

Q = PochSpec(1, 1, 1)

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
        assert ladder_multisum(
            1, 10, quad=1, lin=[], nlin=[], level_denom=Q, innermost=Q
        ) == Series.one(10)

    def test_rogers_ramanujan_head(self):
        """k = 2, a = 2 is the first Rogers-Ramanujan sum."""
        s = eval_multisum_AG((2, 2), 11)
        assert [s.coefficient(n) for n in range(11)] == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="one entry per level"):
            ladder_multisum(3, 10, quad=1, lin=[0], nlin=[0, 0], level_denom=Q, innermost=Q)
        with pytest.raises(ValueError, match="quadratic coefficient"):
            ladder_multisum(2, 10, quad=0, lin=[0], nlin=[0], level_denom=Q, innermost=Q)


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
        with pytest.raises(ValueError, match="opposite parity"):
            eval_multisum_main((3, 1), 10)
        with pytest.raises(ValueError, match="a even iff k odd"):
            eval_multisum_Wbar((3, 1), 10)


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
        true_sum = identities.eval_multisum_AG
        monkeypatch.setattr(
            identities, "eval_multisum_AG", lambda gp, order: true_sum(gp, order).truncate(order - 1)
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
