"""Unit tests for the exact truncated q-series layer."""

from __future__ import annotations

import copy
import operator
import pickle
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgordon.bailey import build_chain, closed_form_alpha, limit_identity
from qgordon.identities import THEOREMS, IdentitySpec, verify
from qgordon.qseries import (
    PochSpec,
    Series,
    _div_eta,
    _div_factor,
    _div_factors,
    _mul_eta,
    _mul_factor,
    _mul_factors,
    _order,
    _slots,
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

    def test_float_order_is_named(self):
        """A float order is refused as an order, not as an exponent."""
        with pytest.raises(TypeError, match="int or Fraction order, got float"):
            Series((1,), 7.3)

    @pytest.mark.parametrize("call", [
        lambda: build_chain((3, 2), 2, True),
        lambda: limit_identity((3, 2), True),
        lambda: Series((1, 2), True),
    ])
    def test_bool_order_is_refused(self, call):
        """A bool is not read as the order 1."""
        with pytest.raises(TypeError, match="^expected an int or Fraction order, got bool$"):
            call()

    @pytest.mark.parametrize("order, error, message", [
        (True, TypeError, "expected an int or Fraction order, got bool"),
        (0, ValueError, "truncation order must be positive, got 0"),
        (-3, ValueError, "truncation order must be positive, got -3"),
        (1.5, TypeError, "expected an int or Fraction order, got float"),
        (Fraction(0), ValueError, "truncation order must be positive, got 0"),
    ])
    def test_order_refusals(self, order, error, message):
        """An int order takes a shorter path; it refuses what the checked
        path refuses, with the same exception and message."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _order(order)

    @pytest.mark.parametrize("order", [1, 200, 2**70, Fraction(3, 2), Fraction(4)])
    def test_order_is_a_fraction(self, order):
        got = _order(order)
        assert type(got) is Fraction and got == order

    def test_bool_exponent_is_refused(self):
        """A bool is not read as slot 1."""
        with pytest.raises(TypeError, match="^expected an int or Fraction exponent, got bool$"):
            Series((1, 2), 2).coefficient(True)

    def test_bool_denom_is_refused(self):
        """A denom of True would go on the wire as ``true``, which
        from_wire refuses."""
        with pytest.raises(ValueError, match="^denom must be a positive int, got True$"):
            Series((1,), 5, True)

    def test_bool_coefficient_is_refused(self):
        """A bool coefficient would print as True and go on the wire as
        'True', which from_wire cannot read back."""
        with pytest.raises(TypeError, match="^coefficients must be ints, got bool$"):
            Series((True, 2), 3)

    def test_rejects_non_integer_coefficients(self):
        """Floats and Fractions must never leak into a series."""
        with pytest.raises(TypeError):
            Series((1.0,), 5)
        with pytest.raises(TypeError):
            Series((1, Fraction(1, 2)), 5)

    def test_builder_outputs_keep_the_constructor_contract(self):
        """Series the package builds without the constructor's checks
        still hold int coefficients, exactly one per slot below a
        Fraction order: every link of a chain, the endpoint alphas, the
        chain limit and both sides of every tag's verify (Wbar_even_odd
        needs an even k, so it runs at (8, 3))."""
        built = [s for _, bp in build_chain((7, 2), 10, 40) for s in bp.alpha + bp.beta]
        built += [closed_form_alpha((7, 2), n, 40) for n in range(11)]
        built += limit_identity((7, 2), Fraction(41, 2))
        for tag, thm in THEOREMS.items():
            gp = next(gp for gp in ((7, 2), (7, 3), (8, 3)) if thm.applies(*gp))
            report = verify(IdentitySpec(tag, gp, 30))
            built += [report.lhs, report.rhs]
        for s in built:
            assert isinstance(s.order, Fraction)
            assert len(s.coeffs) == _slots(s.order, s.denom)
            assert all(type(c) is int for c in s.coeffs)

    def test_from_terms_builds_on_the_given_grid(self):
        """The grid is 1 unless given; an exponent off it is refused."""
        f = Series.from_terms([(0, 1), (Fraction(1, 2), 3)], 4, 2)
        assert f.denom == 2
        assert f.coefficient(Fraction(1, 2)) == 3
        g = Series.from_terms([(0, 1), (2, -1)], 4)
        assert g.denom == 1
        with pytest.raises(ValueError, match="does not lie on grid 1/1"):
            Series.from_terms([(0, 1), (Fraction(1, 2), 3)], 4)

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

    @pytest.mark.parametrize("denom", [1, 2])
    def test_int_exponent_reads_as_its_fraction(self, denom):
        """An int exponent reads the coefficient, the zero below 0 and the
        refusal at or past the order that the same exponent as a Fraction
        does, at integer and at half-integer orders."""
        for order in (Fraction(1), Fraction(5), Fraction(11, 2)):
            n = _slots(order, denom)
            f = Series(range(1, n + 1), order, denom)
            for e in range(-3, 9):
                try:
                    want = f.coefficient(Fraction(e))
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        f.coefficient(e)
                else:
                    assert f.coefficient(e) == want
                    assert want == (e * denom + 1 if 0 <= e < order else 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Series.from_terms([(-1, 1)], 5)

    @pytest.mark.parametrize("denom", [0, -2, 1.0, True, None])
    @pytest.mark.parametrize("terms", [[], [(0, 1)], [(Fraction(1, 2), 1)], [(-1, 1)]])
    def test_from_terms_checks_the_grid_first(self, denom, terms):
        """A bad grid gets the constructor's ValueError, whatever the
        terms: not an IndexError, a sequence error or a term's message."""
        with pytest.raises(ValueError, match=f"^denom must be a positive int, got {re.escape(repr(denom))}$"):
            Series.from_terms(terms, 3, denom)

    @pytest.mark.parametrize("order, error, message", [
        (0, ValueError, "truncation order must be positive, got 0"),
        (-2, ValueError, "truncation order must be positive, got -2"),
        (True, TypeError, "expected an int or Fraction order, got bool"),
        (2.5, TypeError, "expected an int or Fraction order, got float"),
    ])
    def test_from_terms_checks_the_order_first(self, order, error, message):
        """A bad order gets the constructor's error before any term is read."""
        for terms in ([], [(-1, 1)], [(Fraction(1, 3), 1)]):
            with pytest.raises(error, match=f"^{message}$"):
                Series.from_terms(terms, order)
            with pytest.raises(error, match=f"^{message}$"):
                Series((), order)

    @pytest.mark.parametrize("c", [True, False, 1.0, Fraction(1), "1", None])
    @pytest.mark.parametrize("e", [0, 1, 7])
    def test_from_terms_refuses_what_is_not_an_int_coefficient(self, c, e):
        """A bool is not stored as 1, nor a float as an int: every term's
        coefficient, even one past the order, gets the constructor's
        TypeError."""
        want = f"^coefficients must be ints, got {type(c).__name__}$"
        with pytest.raises(TypeError, match=want):
            Series.from_terms([(0, 2), (e, c)], 3)
        with pytest.raises(TypeError, match=want):
            Series((c,), 3)

    def test_from_terms_keeps_int_coefficients(self):
        """Int terms at one exponent add up, and the result is an int series."""
        f = Series.from_terms([(0, 2), (1, -1), (1, 2 ** 70), (Fraction(1, 2), 4)], Fraction(3, 2), 2)
        assert (f.coeffs, f.order, f.denom) == ((2, 4, 2 ** 70 - 1), Fraction(3, 2), 2)
        assert all(type(c) is int for c in f.coeffs)

    @pytest.mark.parametrize("bad", [1, None, (0, 1, 2), (0,), (), "ab", {0: 1}, frozenset((0, 1))])
    def test_from_terms_refuses_what_is_not_a_pair(self, bad):
        """A term that is not an (exponent, coefficient) pair gets a
        ValueError naming its index and value, not Python's unpacking
        error; the order and the grid are still checked first, and the
        terms before it in order."""
        message = f"term 1 is not an (exponent, coefficient) pair: {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Series.from_terms([(0, 1), bad, (1, 1)], 3)
        with pytest.raises(ValueError, match="^truncation order must be positive, got 0$"):
            Series.from_terms([(0, 1), bad], 0)
        with pytest.raises(ValueError, match="^denom must be a positive int, got 0$"):
            Series.from_terms([(0, 1), bad], 3, 0)
        with pytest.raises(TypeError, match="^coefficients must be ints, got float$"):
            Series.from_terms([(0, 1.0), bad], 3)

    def test_from_terms_reads_lists_as_pairs(self):
        f = Series.from_terms([[0, 1], (2, 3), [2, -1]], 4)
        assert (f.coeffs, f.order) == ((1, 0, 2, 0), 4)


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
        f = Series.from_terms([(Fraction(1, 2), 1)], 3, 2)
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
        """q -> q^2 on a half-integer grid lands back on integers:
        (-q^(1/2); q)_2 is (-t; t^2)_2 in t = q^(1/2)."""
        f = poch_finite(PochSpec(-1, 1, 2), 2, 6).rescale(Fraction(1, 2))
        assert (f.denom, f.order) == (2, 3)
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

    def test_bool_sign_is_refused(self):
        with pytest.raises(ValueError, match="^sign must be \\+1 or -1, got True$"):
            PochSpec(True, 1, 1)

    @pytest.mark.parametrize("exponent, base", [(True, 1), (1, True)])
    def test_bool_exponent_and_base_are_refused(self, exponent, base):
        with pytest.raises(ValueError, match="Pochhammer exponent and base must be ints"):
            PochSpec(1, exponent, base)

    @pytest.mark.parametrize("call", [
        lambda: poch_finite(PochSpec(1, 1, 1), True, 5),
        lambda: invert_poch(PochSpec(1, 1, 1), 5, n=True),
    ])
    def test_bool_length_is_refused(self, call):
        with pytest.raises(ValueError, match="^Pochhammer length must be a nonnegative int, got True$"):
            call()

    def test_zero_factors_gives_one(self):
        assert poch_finite(PochSpec(1, 1, 1), 0, 5) == Series.one(5)

    def test_recurrence(self):
        """(x;q)_{n+1} = (x;q)_n * (1 - x q^n) for several symbols."""
        order = 25
        for spec in (
            PochSpec(1, 1, 1),
            PochSpec(-1, 1, 2),
            PochSpec(-1, 0, 1),
            PochSpec(1, 2, 3),
        ):
            for n in range(0, 8):
                lhs = poch_finite(spec, n + 1, order)
                e = spec.exponent + n * spec.base
                factor = Series.from_terms([(0, 1), (e, -spec.sign)], order)
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
        """Jacobi triple product against the alternating theta series.

        For e1 > e3 / 2 the term r = -m is the smaller one of its pair:
        at (4, 1, 5) the r = -4 term sits at q^34, below order 35 while
        r = 4 sits at q^46.  The last two cases are the exponents
        (1/2, 5/2, 3) and (5/2, 1/2, 3) written in t = q^(1/2) and read
        back with rescale: at (5, 1, 6) the r = -4 term sits at t^40 =
        q^20, below order 50 in t while r = 4 sits at t^56."""
        cases = [
            (1, 4, 5, 45, 1),
            (2, 3, 5, 45, 1),
            (1, 6, 7, 45, 1),
            (3, 4, 7, 45, 1),
            (2, 6, 8, 45, 1),
            (1, 5, 6, 90, 2),
            (4, 1, 5, 35, 1),
            (5, 1, 6, 50, 2),
        ]
        for e1, e2, e3, order, d in cases:
            product = rescale(triple_product(e1, e2, e3, order), Fraction(1, d))
            theta = rescale(theta_sum(e1, e3, order), Fraction(1, d))
            assert product == theta, (e1, e2, e3)
            assert (product.denom, product.order) == (theta.denom, theta.order) == (d, Fraction(order, d))

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

    @pytest.mark.parametrize("e1, e2, e3", [
        (Fraction(1, 2), Fraction(5, 2), 3), (Fraction(1), 2, 3), (1.0, 2, 3), (1, 2, 3.0), (True, 1, 2),
        (1, True, 2),
    ])
    def test_exponents_must_be_ints(self, e1, e2, e3):
        """A rational exponent is written in t = q^(1/d): PochSpec refuses
        anything but an int, a bool and an integral Fraction included."""
        with pytest.raises(ValueError, match="write the symbol in t = q\\^\\(1/d\\)"):
            triple_product(e1, e2, e3, 10)


class TestCopyAndPickle:
    @pytest.mark.parametrize("f", [
        Series([1, -2, 2 ** 70, 0, 5], 7),
        Series.from_terms([(0, 1), (Fraction(1, 2), 3), (Fraction(7, 2), -4)], Fraction(9, 2), 2),
    ], ids=["integer-grid", "half-grid"])
    def test_round_trips(self, f):
        copies = [copy.copy(f), copy.deepcopy(f)]
        copies += [pickle.loads(pickle.dumps(f, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for g in copies:
            assert type(g) is Series and g == f
            assert (g.coeffs, g.order, g.denom) == (f.coeffs, f.order, f.denom)

    def test_a_pickle_is_read_through_the_constructor(self):
        """An unpickled series is outside input: a coefficient that is
        not an int is refused as ``Series(...)`` refuses it."""
        f = Series([1, 2], 3)
        object.__setattr__(f, "coeffs", (1, 2.5, 0))
        with pytest.raises(TypeError, match="^coefficients must be ints, got float$"):
            pickle.loads(pickle.dumps(f))


class TestWireFormat:
    def test_round_trip_integer_grid(self):
        f = poch_infinite(PochSpec(1, 1, 1), 20)
        g = Series.from_json(f.to_json())
        assert g == f and g.order == f.order and g.denom == f.denom

    def test_round_trip_half_grid(self):
        f = poch_finite(PochSpec(-1, 1, 2), 3, 9).rescale(Fraction(1, 2))
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

    @staticmethod
    def _wire(*coeffs):
        return {"denom": 1, "order_num": 5, "order_den": 1, "coeffs": [list(c) for c in coeffs]}

    def test_negative_slot_refused(self):
        """Slot -1 would index the top coefficient, q^4 at order 5."""
        with pytest.raises(ValueError, match=r"^coefficient slot -1 is not an int in 0\.\.4$"):
            Series.from_wire(self._wire((-1, "7")))

    def test_float_slot_refused(self):
        """A float slot would be truncated to the int below it."""
        for s in (1.7, 1.0):
            with pytest.raises(ValueError, match=f"^coefficient slot {s} is not an int"):
                Series.from_wire(self._wire((s, "7")))

    def test_repeated_slot_refused(self):
        """A repeated slot would keep its last value."""
        with pytest.raises(ValueError, match="^coefficient slot 2 is given twice$"):
            Series.from_wire(self._wire((2, "1"), (2, "3")))

    def test_slot_past_the_order_refused(self):
        """Slot 5 lies past order 5; the list index raised IndexError."""
        with pytest.raises(ValueError, match=r"^coefficient slot 5 is not an int in 0\.\.4$"):
            Series.from_wire(self._wire((5, "1")))

    def test_every_written_document_loads(self):
        """Each slot to_wire writes is in range and written once, on
        either grid, the zero series included."""
        for f in (Series.zero(3), Series.one(1), Series((0, 0, 5), 3),
                  Series.from_terms([(0, 1), (Fraction(7, 2), -2)], Fraction(9, 2), 2)):
            g = Series.from_wire(f.to_wire())
            assert (g.coeffs, g.order, g.denom) == (f.coeffs, f.order, f.denom)

    @pytest.mark.parametrize("field, value", [
        ("order_num", 5.7), ("order_num", 5.0), ("order_num", "5"), ("order_num", True),
        ("order_den", 1.0), ("order_den", True), ("denom", 1.5), ("denom", True), ("denom", None),
    ])
    def test_non_int_header_refused(self, field, value):
        """int() would truncate 5.7 to order 5 and read True as grid 1."""
        wire = dict(self._wire((0, "1")), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
            Series.from_wire(wire)

    @pytest.mark.parametrize("field", ["order_num", "order_den", "denom"])
    def test_missing_header_refused(self, field):
        wire = self._wire((0, "1"))
        del wire[field]
        with pytest.raises(ValueError, match=f"^{field} must be an int, got None$"):
            Series.from_wire(wire)

    @pytest.mark.parametrize("field", ["order_den", "denom"])
    def test_nonpositive_denominator_refused(self, field):
        """order_den 0 divided by zero; denom 0 had no slots at all."""
        with pytest.raises(ValueError, match="^order_den and denom must be positive, got "):
            Series.from_wire(dict(self._wire((0, "1")), **{field: 0}))

    @pytest.mark.parametrize("c", [3.9, 7.0, True, None, " 7", "+7", "7.0", "1e3", "7_0", "", "\u0663"])
    def test_malformed_coefficient_refused(self, c):
        """int() would truncate 3.9 to 3 and read ' 7', '+7', '7_0' and an
        Arabic-Indic 3 as numbers; to_wire writes only -?[0-9]+."""
        with pytest.raises(ValueError, match=r"^coefficient at slot 1 must be an int or a decimal-integer string"):
            Series.from_wire(self._wire((0, "1"), (1, c)))

    @pytest.mark.parametrize("document, message", [
        ({"denom": 1, "order_num": 5, "order_den": 1}, "coeffs must be a list, got None"),
        ({"denom": 1, "order_num": 5, "order_den": 1, "coeffs": None}, "coeffs must be a list, got None"),
        ({"denom": 1, "order_num": 5, "order_den": 1, "coeffs": 5}, "coeffs must be a list, got 5"),
        ([], "a series document must be a dict, got list"),
    ])
    def test_malformed_document_refused(self, document, message):
        """A missing ``coeffs`` raised KeyError, a non-list one TypeError,
        and a document that is not a dict AttributeError."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Series.from_wire(document)

    @pytest.mark.parametrize("entry", [5, None, [1], [1, "2", "3"], "12", {"0": "1"}])
    def test_malformed_coefficient_pair_refused(self, entry):
        """An entry that is not a [slot, coefficient] pair raised TypeError,
        or unpacked a two-letter string as a slot and a coefficient."""
        wire = self._wire((0, "1"))
        wire["coeffs"].append(entry)
        with pytest.raises(ValueError, match=r"^each coefficient must be a \[slot, coefficient\] pair, got "):
            Series.from_wire(wire)

    @pytest.mark.parametrize("text", ["[]", "null", "5", '"series"', "{"])
    def test_from_json_refuses_what_is_not_a_series_document(self, text):
        """json.loads("[]") gave a list, whose missing .get raised AttributeError."""
        with pytest.raises(ValueError):
            Series.from_json(text)

    def test_int_and_string_coefficients_load(self):
        """Plain JSON ints load as well as the strings to_wire writes."""
        f = Series.from_wire(self._wire((0, 3), (1, "-7"), (4, str(-(10**30)))))
        assert f.coeffs == (3, -7, 0, 0, -(10**30))

    def test_written_coefficients_load(self):
        """Every coefficient to_wire writes, negative and past 2^64 on
        either grid, loads back exactly."""
        rng = random.Random(7)
        for denom in (1, 2):
            cs = [rng.choice((0, 1, -1, rng.randint(-(2**90), 2**90))) for _ in range(40)]
            f = Series(cs, Fraction(39, denom) + Fraction(1, 2 * denom), denom)
            g = Series.from_json(f.to_json())
            assert (g.coeffs, g.order, g.denom) == (f.coeffs, f.order, f.denom)


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


def _scan(f: Series, g: Series) -> Fraction | None:
    """The first exponent below both orders where f and g differ, read
    one coefficient at a time on the finer of their grids."""
    step = Fraction(1, lcm(f.denom, g.denom))
    e = Fraction(0)
    while e < min(f.order, g.order):
        if f.coefficient(e) != g.coefficient(e):
            return e
        e += step
    return None


# few coefficient values, so that windows often agree
small_grid_series = st.builds(
    lambda denom, n, cs: Series(cs, Fraction(n, denom), denom),
    st.sampled_from((1, 2, 3)),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=1), max_size=8),
)


class TestComparison:
    @settings(max_examples=300)
    @given(f=small_grid_series, g=st.one_of(small_grid_series, st.integers(min_value=0, max_value=1)))
    def test_equality_is_no_first_discrepancy(self, f, g):
        """f == g iff first_discrepancy finds nothing, over grids 1, 2 and
        3, unequal orders and int operands (an int c is c + O(q^order) on
        the other operand's order and grid)."""
        h = g if isinstance(g, Series) else Series.from_int(g, f.order, f.denom)
        first = f.first_discrepancy(g)
        assert first == _scan(f, h)
        assert (f == g) == (g == f) == (first is None)
        assert (f != g) == (first is not None)

    def test_first_discrepancy_refuses_other_types(self):
        with pytest.raises(TypeError, match="float"):
            Series.one(3).first_discrepancy(1.0)


def _slotwise_reference(f: Series, g: Series, op) -> tuple:
    """(order, grid, coefficients) of op(f, g), with op one of +, - and
    *, read one coefficient at a time on the finer of the two grids below
    the smaller order, as :func:`_scan` reads them."""
    step = Fraction(1, lcm(f.denom, g.denom))
    order = min(f.order, g.order)
    es = [i * step for i in range(_slots(order, step.denominator))]
    if op is operator.mul:
        cs = [sum(f.coefficient(x) * g.coefficient(e - x) for x in es if x <= e) for e in es]
    else:
        cs = [op(f.coefficient(e), g.coefficient(e)) for e in es]
    return order, step.denominator, tuple(cs)


class TestWindowedArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(f=small_grid_series, g=st.one_of(small_grid_series, st.integers(min_value=-2, max_value=2)))
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_operators_match_a_coefficient_read(self, op, f, g):
        """f + g, f - g and f * g, over grids 1, 2 and 3 and unequal
        orders, hold the coefficients read one at a time on the finer grid
        below the smaller order, at that order and on that grid; an int c
        is c + O(q^order) on the other operand's order and grid, on
        either side of the operator."""
        h = g if isinstance(g, Series) else Series.from_int(g, f.order, f.denom)
        r = op(f, g)
        assert (r.order, r.denom, r.coeffs) == _slotwise_reference(f, h, op)
        if not isinstance(g, Series):
            r = op(g, f)
            assert (r.order, r.denom, r.coeffs) == _slotwise_reference(h, f, op)


# every symbol the package expands or divides by
PACKAGE_SPECS = (
    PochSpec(1, 1, 1),  # (q; q)
    PochSpec(1, 2, 2),  # (q^2; q^2)
    PochSpec(1, 4, 4),  # (q^4; q^4)
    PochSpec(-1, 1, 2),  # (-q; q^2)
    PochSpec(-1, 2, 2),  # (-q^2; q^2)
    PochSpec(-1, 3, 2),  # (-q^3; q^2)
    PochSpec(-1, 1, 1),  # (-q; q)
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
    """Apply a list kernel to f's coefficients as grid slots, the symbol
    moved onto f's grid 1/d by q -> q^d."""
    d = f.denom
    on_grid = PochSpec(spec.sign, spec.exponent * d, spec.base * d)
    return Series(kernel(list(f.coeffs), on_grid, n), f.order, d)


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


    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    @pytest.mark.parametrize("length", [0, 1, 2, 50, 301])
    def test_eta_kernels_match_factor_kernels(self, b, length):
        """Multiplying and dividing by E_b = (q^b; q^b)_inf through its
        pentagonal series equals doing it one factor at a time."""
        rng = random.Random(1000 * b + length)
        cs = [rng.randint(-99, 99) for _ in range(length)]
        spec = PochSpec(1, b, b)
        assert _mul_eta(cs[:], b) == _mul_factors(cs[:], spec, None)
        assert _div_eta(cs[:], b) == _div_factors(cs[:], spec, None)

    def test_symbol_off_the_grid_is_refused(self):
        """No kernel sees a rational symbol: it is refused when built,
        and written in t = q^(1/d) instead."""
        with pytest.raises(ValueError, match="must be ints"):
            PochSpec(-1, Fraction(1, 2), 1)

    def test_divide_needs_unit_constant(self):
        """(-1; q)_n starts with the factor 2, which has no integer inverse."""
        with pytest.raises(ValueError, match="constant coefficient 1"):
            _div_factors([1, 0, 0], PochSpec(-1, 0, 1), 2)
        assert _mul_factors([1, 0, 0], PochSpec(-1, 0, 1), 2) == [2, 2, 0]

    @pytest.mark.parametrize("kernel, s", [(_div_factor, 0), (_div_factor, -1), (_mul_factor, -1)])
    def test_bad_shift_refused_untouched(self, kernel, s):
        """A factor 1 - q^s with s < 0, or s = 0 for a division, is
        refused before the list changes: the multiply used to give
        [1, 2, 3, 3] and the divide to leave [3, 5, 8, 5] and then
        raise IndexError."""
        cs = [1, 2, 3, 4]
        message = "constant coefficient 1" if s == 0 else f"^negative factor exponent {s}$"
        with pytest.raises(ValueError, match=message):
            kernel(cs, 1, s)
        assert cs == [1, 2, 3, 4]


class TestEdgeBranches:
    """Refusals, the operators' NotImplemented fallbacks and the printed
    form, each on its own input."""

    def test_attributes_are_read_only(self):
        with pytest.raises(AttributeError, match="immutable"):
            Series.one(3).order = 5

    def test_coefficient_below_zero_is_zero(self):
        assert Series((1, 2), 2).coefficient(-1) == 0

    def test_promote_needs_a_multiple_grid(self):
        with pytest.raises(ValueError, match="cannot promote grid 1/2 to 1/3"):
            Series.one(2, 2)._promote(3)

    def test_series_minus_series(self):
        f = Series((1, 2), 2) - Series((0, 0, 1), Fraction(3, 2), 2)
        assert (f.coeffs, f.order, f.denom) == ((1, 0, 1), Fraction(3, 2), 2)

    def test_other_operand_types_are_not_implemented(self):
        s = Series.one(3)
        for op in (lambda: s + 1.5, lambda: s - 1.5, lambda: 1.5 - s, lambda: s * 1.5):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
        assert (s == "x") is False

    @pytest.mark.parametrize("scalar", [True, False])
    def test_bool_scalar_is_refused(self, scalar):
        """A bool is not read as 1 or 0 by *, as + and == refuse it."""
        s = Series((1, 2), 3)
        for op in (lambda: s * scalar, lambda: scalar * s, lambda: s + scalar):
            with pytest.raises(TypeError):
                op()

    def test_shift_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="shift exponent must be nonnegative"):
            Series.one(3).shift(-1)

    @pytest.mark.parametrize("factor", [0, -2, Fraction(-1, 2)])
    def test_rescale_factor_must_be_positive(self, factor):
        with pytest.raises(ValueError, match="rescale factor must be positive"):
            Series.one(3).rescale(factor)

    def test_repr(self):
        assert repr(Series((1, -2, 0, 3), 4)) == "Series(1 - 2*q + 3*q^3 + O(q^4))"
        assert repr(Series((0, 1, 0, -1), 2, 2)) == "Series(q^(1/2) - q^(3/2) + O(q^2))"

    def test_poch_length_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="Pochhammer length must be a nonnegative int, got -1"):
            poch_finite(PochSpec(1, 1, 1), -1, 5)

    @pytest.mark.parametrize("e1, e3", [(3, 2), (-1, 2), (0, 0), (1, -1)])
    def test_theta_sum_arguments(self, e1, e3):
        with pytest.raises(ValueError, match="theta sum needs 0 <= e1 <= e3 with e3 > 0"):
            theta_sum(e1, e3, 10)

    @pytest.mark.parametrize("e1, e3", [
        (True, 2), (1, True), (Fraction(1), 2), (1, Fraction(2)), (Fraction(1, 2), 3), (1.0, 2), (1, 2.0),
    ])
    def test_theta_sum_exponents_must_be_ints(self, e1, e3):
        """A bool or an integral Fraction would give the same terms as
        the int, and from_terms alone would take them; the int check
        refuses them, naming the t spelling."""
        message = f"theta sum exponents must be ints, got {e1!r}, {e3!r}; write the sum in t = q^(1/d)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            theta_sum(e1, e3, 10)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
