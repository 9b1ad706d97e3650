"""
Exact q-series arithmetic
=========================

Everything in this package runs on truncated power series in q with
arbitrary-precision integer coefficients: no floats, no symbolic
engine.  This script walks through the primitives: building series
from terms, Pochhammer symbols, inversion, and the Jacobi triple
product.
"""

from fractions import Fraction

from qgordon import (
    PochSpec,
    Series,
    invert_poch,
    poch_finite,
    poch_infinite,
    rescale,
    theta_sum,
    triple_product,
)

ORDER = 16

# A series is a list of (exponent, coefficient) terms plus a truncation
# order; everything at or above the order is unknown, not zero.
f = Series.from_terms([(0, 1), (1, -1), (3, 2)], ORDER)
print("f           =", f)
print("f * f       =", f * f)
print("f + f       =", f + f)

# (q; q)_inf, Euler's function.  The pentagonal number theorem says its
# exponents are k(3k - 1)/2; the coefficient pattern below shows it.
euler = poch_infinite(PochSpec(1, 1, 1), 40)
print("\n(q;q)_inf   =", euler)

# Finite Pochhammer symbols and their inverses multiply back to 1.
spec = PochSpec(-1, 1, 1)                     # (-q; q)
p5 = poch_finite(spec, 5, ORDER)
print("\n(-q;q)_5    =", p5)
print("times inverse:", p5 * invert_poch(spec, ORDER, n=5))

# 1/(q;q)_inf generates unrestricted partitions: p(0..9) below.
parts = invert_poch(PochSpec(1, 1, 1), 10)
print("\npartition numbers:", [parts.coefficient(n) for n in range(10)])

# Symbols have int exponents.  A half-integer one is written in
# t = q^(1/2): (-q^(1/2); q)_3 is (-t; t^2)_3, and q -> q^(1/2) reads it
# back on the half grid.  Rescaling q -> q^2 moves it onto the integers.
in_t = poch_finite(PochSpec(-1, 1, 2), 3, 16)
half = rescale(in_t, Fraction(1, 2))
print("\n(-t;t^2)_3, in t    =", in_t)
print("(-q^(1/2);q)_3      =", half)
print("after q -> q^2      =", rescale(half, 2))

# Jacobi triple product: the three-fold product equals a two-sided
# alternating theta sum.  The classical Rogers-Ramanujan product
# denominators come from exactly this with (e1, e3) = (1, 5), (2, 5).
prod = triple_product(2, 3, 5, 30)
theta = theta_sum(2, 5, 30)
print("\n(q^2;q^5)(q^3;q^5)(q^5;q^5) =", prod)
print("theta sum, same parameters  =", theta)
print("equal below q^30:", prod == theta)
