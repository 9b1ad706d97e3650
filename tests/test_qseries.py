"""Unit tests for the exact truncated q-series layer."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgordon.qseries import (
    PochSpec,
    Series,
    _div_factors,
    _mul_factors,
    invert_poch,
    poch_finite,
    poch_infinite,
    rescale,
    theta_sum,
    triple_product,
)


def coeffs_of(f: Series, n: int) -> list[int]:
    return [f.coefficient(i) for i in range(n)]


class TestConstruction:
    def test_rejects_nonpositive_order(self):
        """Truncation order zero carries no information and is refused."""
        with pytest.raises(ValueError):
            Series((1,), 0)
        with pytest.raises(ValueError):
            Series((1,), -3)

    def test_rejects_bad_denominator(self):
        """The exponent grid denominator must be a positive int."""
        with pytest.raises(ValueError):
            Series((1,), 5, 0)

    def test_rejects_non_integer_coefficients(self):
        """Floats must never leak into a series."""
        with pytest.raises(TypeError):
            Series((1.0,), 5)

    def test_from_terms_infers_grid(self):
        """Half-integer exponents force denom 2, integer ones keep denom 1."""
        f = Series.from_terms([(0, 1), (Fraction(1, 2), 3)], 4)
        assert f.denom == 2
        assert f.coefficient(Fraction(1, 2)) == 3
        g = Series.from_terms([(0, 1), (2, -1)], 4)
        assert g.denom == 1

    def test_from_terms_drops_terms_at_or_beyond_order(self):
        """Terms beyond the truncation window are silently forgotten."""
        f = Series.from_terms([(0, 1), (5, 9), (7, 2)], 5)
        assert coeffs_of(f, 5) == [1, 0, 0, 0, 0]

    def test_coefficient_window(self):
        """Reading at or past the order is an error, not a silent zero."""
        f = Series.one(6)
        assert f.coefficient(5) == 0
        with pytest.raises(ValueError):
            f.coefficient(6)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Series.from_terms([(-1, 1)], 5)


class TestArithmetic:
    def test_add_truncates_to_smaller_order(self):
        f = Series.from_terms([(0, 1), (3, 1)], 10)
        g = Series.from_terms([(1, 2)], 4)
        h = f + g
        assert h.order == 4
        assert coeffs_of(h, 4) == [1, 2, 0, 1]

    def test_mul_known_product(self):
        """(1 - q)(1 + q + q^2 + ...) telescopes to 1."""
        one_minus_q = Series.from_terms([(0, 1), (1, -1)], 12)
        geom = Series.from_terms([(n, 1) for n in range(12)], 12)
        assert one_minus_q * geom == Series.one(12)

    def test_int_operands_lift(self):
        f = Series.from_terms([(1, 1)], 6)
        assert 1 + f == Series.from_terms([(0, 1), (1, 1)], 6)
        assert (f * 3).coefficient(1) == 3
        assert 1 - f == Series.from_terms([(0, 1), (1, -1)], 6)

    def test_mixed_grid_promotion(self):
        f = Series.from_terms([(Fraction(1, 2), 1)], 3)
        g = Series.from_terms([(1, 1)], 3)
        h = f * g
        assert h.denom == 2
        assert h.coefficient(Fraction(3, 2)) == 1

    def test_shift_extends_knowledge(self):
        f = Series.one(5)
        g = f.shift(3)
        assert g.order == 8
        assert g.coefficient(3) == 1

    def test_inverse_of_one_minus_q(self):
        f = Series.from_terms([(0, 1), (1, -1)], 9)
        assert coeffs_of(f.inverse(), 9) == [1] * 9

    def test_inverse_requires_unit_constant(self):
        with pytest.raises(ValueError):
            Series.from_terms([(1, 1)], 5).inverse()
        with pytest.raises(ValueError):
            Series.from_int(2, 5).inverse()

    def test_rescale_to_half_integer_grid_and_back(self):
        f = poch_finite(PochSpec(1, 1, 1), 3, 7)
        half = f.rescale(Fraction(1, 2))
        assert half.denom == 2
        assert half.order == Fraction(7, 2)
        assert half.rescale(2) == f

    def test_rescale_normalizes_grid(self):
        """q -> q^2 on a half-integer grid lands back on integers."""
        f = poch_finite(PochSpec(-1, Fraction(1, 2), 1), 2, 3)
        g = f.rescale(2)
        assert g.denom == 1
        assert coeffs_of(g, 5) == [1, 1, 0, 1, 1]

    def test_truncate_only_shrinks(self):
        f = Series.one(5)
        assert f.truncate(3).order == 3
        with pytest.raises(ValueError):
            f.truncate(10)

    def test_equality_is_windowed(self):
        """Series agree iff they match strictly below the smaller order."""
        a = Series.from_terms([(0, 1), (1, 1)], 5)
        b = Series.from_terms([(0, 1), (1, 1), (3, 7)], 2)
        assert a == b
        c = Series.from_terms([(0, 1), (1, 2)], 2)
        assert a != c

    def test_series_unhashable(self):
        """Windowed equality is not transitive, so hashing is disabled."""
        with pytest.raises(TypeError):
            hash(Series.one(4))

    def test_first_discrepancy(self):
        a = Series.from_terms([(0, 1), (2, 5)], 8)
        b = Series.from_terms([(0, 1), (2, 4)], 6)
        assert a.first_discrepancy(b) == 2
        assert a.first_discrepancy(a) is None


class TestPochhammer:
    def test_euler_product_prefix(self):
        """(q;q)_inf = 1 - q - q^2 + q^5 + q^7 - ... (pentagonal numbers)."""
        f = poch_infinite(PochSpec(1, 1, 1), 13)
        assert coeffs_of(f, 13) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_partition_numbers(self):
        """1/(q;q)_inf generates p(n)."""
        f = invert_poch(PochSpec(1, 1, 1), 11)
        assert coeffs_of(f, 11) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_finite_product_expansion(self):
        """(1-q)(1-q^2)(1-q^3) written out by hand."""
        f = poch_finite(PochSpec(1, 1, 1), 3, 7)
        assert coeffs_of(f, 7) == [1, -1, -1, 0, 1, 1, -1]

    def test_odd_negative_symbol(self):
        """(-q;q^2)_2 = (1+q)(1+q^3)."""
        f = poch_finite(PochSpec(-1, 1, 2), 2, 6)
        assert coeffs_of(f, 6) == [1, 1, 0, 1, 1, 0]

    def test_zero_factors_gives_one(self):
        assert poch_finite(PochSpec(1, 1, 1), 0, 5) == Series.one(5)

    def test_recurrence(self):
        """(x;q)_{n+1} = (x;q)_n * (1 - x q^n) for several symbols."""
        order = 25
        for spec in (
            PochSpec(1, 1, 1),
            PochSpec(-1, 1, 2),
            PochSpec(-1, Fraction(1, 2), 1),
            PochSpec(1, 2, 3),
        ):
            for n in range(0, 8):
                lhs = poch_finite(spec, n + 1, order)
                e = spec.exponent + n * spec.base
                factor = Series.from_terms([(0, 1), (e, -spec.sign)], order, spec.grid())
                assert lhs == poch_finite(spec, n, order) * factor, (spec, n)

    def test_infinite_rejects_vanishing_symbol(self):
        """(1;q)_inf contains the factor (1-1) and must be refused."""
        with pytest.raises(ValueError):
            poch_infinite(PochSpec(1, 0, 1), 10)

    def test_minus_one_symbol_allowed_finite(self):
        """(-1;q)_1 = 1 + 1 = 2 is fine as a finite product."""
        f = poch_finite(PochSpec(-1, 0, 1), 1, 5)
        assert coeffs_of(f, 5) == [2, 0, 0, 0, 0]

    def test_invert_finite(self):
        """1/(q;q)_2 generates partitions into parts 1 and 2."""
        f = invert_poch(PochSpec(1, 1, 1), 9, n=2)
        assert coeffs_of(f, 9) == [1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PochSpec(2, 1, 1)
        with pytest.raises(ValueError):
            PochSpec(1, -1, 1)
        with pytest.raises(ValueError):
            PochSpec(1, 1, 0)


class TestTripleProduct:
    def test_matches_theta_sum(self):
        """Jacobi triple product against the alternating theta series."""
        cases = [
            (1, 4, 5),
            (2, 3, 5),
            (1, 6, 7),
            (3, 4, 7),
            (2, 6, 8),
            (Fraction(1, 2), Fraction(5, 2), 3),
        ]
        for e1, e2, e3 in cases:
            assert triple_product(e1, e2, e3, 45) == theta_sum(e1, e3, 45), (e1, e2, e3)

    def test_euler_as_triple_product(self):
        """(q,q^2,q^3;q^3)_inf regroups to (q;q)_inf."""
        assert triple_product(1, 2, 3, 30) == poch_infinite(PochSpec(1, 1, 1), 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            triple_product(1, 2, 5, 10)
        with pytest.raises(ValueError):
            triple_product(0, 5, 5, 10)
        with pytest.raises(ValueError):
            triple_product(6, -1, 5, 10)


class TestWireFormat:
    def test_round_trip_integer_grid(self):
        f = poch_infinite(PochSpec(1, 1, 1), 20)
        g = Series.from_json(f.to_json())
        assert g == f and g.order == f.order and g.denom == f.denom

    def test_round_trip_half_grid(self):
        f = poch_finite(PochSpec(-1, Fraction(1, 2), 1), 3, Fraction(9, 2))
        g = Series.from_json(f.to_json())
        assert g == f and g.denom == 2 and g.order == Fraction(9, 2)

    def test_big_coefficients_survive(self):
        """Coefficients ride as decimal strings, immune to double rounding."""
        big = 10**40 + 1
        f = Series.from_terms([(0, 1), (2, big)], 5)
        wire = f.to_wire()
        assert wire["coeffs"] == [[0, "1"], [2, str(big)]]
        assert Series.from_wire(wire).coefficient(2) == big

    def test_coeffs_sorted_and_sparse(self):
        f = Series.from_terms([(4, 1), (1, 1)], 6)
        assert [s for s, _ in f.to_wire()["coeffs"]] == [1, 4]


small_series = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12).map(
    lambda cs: Series(cs, 12)
)


class TestRingProperties:
    @settings(max_examples=60)
    @given(f=small_series, g=small_series, h=small_series)
    def test_mul_associative_and_distributive(self, f, g, h):
        """(fg)h = f(gh) and f(g+h) = fg + fh inside the window."""
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60)
    @given(f=small_series, g=small_series)
    def test_mul_commutes(self, f, g):
        assert f * g == g * f

    @settings(max_examples=60)
    @given(f=small_series)
    def test_one_is_identity(self, f):
        assert f * Series.one(12) == f

    @settings(max_examples=60)
    @given(f=small_series)
    def test_rescale_round_trip(self, f):
        assert rescale(rescale(f, 2), Fraction(1, 2)) == f


# every symbol the package expands or divides by
PACKAGE_SPECS = (
    PochSpec(1, 1, 1),  # (q; q)
    PochSpec(1, 2, 2),  # (q^2; q^2)
    PochSpec(1, 4, 4),  # (q^4; q^4)
    PochSpec(-1, 1, 2),  # (-q; q^2)
    PochSpec(-1, 2, 2),  # (-q^2; q^2)
    PochSpec(-1, 3, 2),  # (-q^3; q^2)
    PochSpec(-1, 1, 1),  # (-q; q)
    PochSpec(-1, Fraction(1, 2), 1),  # (-q^(1/2); q)
)


@st.composite
def grid_series(draw):
    """A random integer series on grid 1 or 2 with a window of at most
    24 slots, so that long symbols run past the truncation."""
    denom = draw(st.sampled_from((1, 2)))
    order = Fraction(draw(st.integers(min_value=1, max_value=24)), denom)
    cs = draw(st.lists(st.integers(min_value=-50, max_value=50), max_size=24))
    return Series(cs, order, denom)


def _dense_symbol(spec, n, order):
    return poch_infinite(spec, order) if n is None else poch_finite(spec, n, order)


def _in_place(kernel, f, spec, n):
    """Apply a list kernel to f, first moved onto the grid the symbol needs."""
    g = f._promote(spec.grid(f.denom))
    return Series(kernel(list(g.coeffs), spec, n, g.denom), g.order, g.denom)


def _exact(f: Series):
    return f.coeffs, f.order, f.denom


lengths = st.one_of(st.integers(min_value=0, max_value=12), st.none())


class TestInPlaceKernels:
    """The in-place Pochhammer kernels against the dense Series products."""

    @settings(max_examples=300, deadline=None)
    @given(f=grid_series(), spec=st.sampled_from(PACKAGE_SPECS), n=lengths)
    def test_multiply_matches_dense_product(self, f, spec, n):
        dense = f * _dense_symbol(spec, n, f.order)
        assert _exact(_in_place(_mul_factors, f, spec, n)) == _exact(dense)

    @settings(max_examples=300, deadline=None)
    @given(f=grid_series(), spec=st.sampled_from(PACKAGE_SPECS), n=lengths)
    def test_divide_matches_dense_inverse(self, f, spec, n):
        dense = f * _dense_symbol(spec, n, f.order).inverse()
        assert _exact(_in_place(_div_factors, f, spec, n)) == _exact(dense)

    def test_symbol_off_the_grid_is_refused(self):
        with pytest.raises(ValueError, match="does not lie on grid"):
            _mul_factors([1, 0, 0], PochSpec(-1, Fraction(1, 2), 1), 2, 1)

    def test_divide_needs_unit_constant(self):
        """(-1; q)_n starts with the factor 2, which has no integer inverse."""
        with pytest.raises(ValueError, match="constant coefficient 1"):
            _div_factors([1, 0, 0], PochSpec(-1, 0, 1), 2, 1)
        assert _mul_factors([1, 0, 0], PochSpec(-1, 0, 1), 2, 1) == [2, 2, 0]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
