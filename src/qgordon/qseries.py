"""Truncated q-series with exact integer coefficients.

A :class:`Series` is a formal power series in q, truncated at a rational
order: coefficients are known for every exponent strictly below ``order``
and unknown from ``order`` on.  Exponents live on a uniform grid
``s / denom`` for integer slots ``s >= 0``; in this package ``denom`` is
1 (integer exponents) or 2 (half-integer exponents, used by the Bailey
chain before the final q -> q^2 rescale).  All coefficients are Python
ints, so every computation is exact at arbitrary size.

Pochhammer symbols are described by :class:`PochSpec`, a triple
(sign, exponent, base) standing for (sign * q^exponent ; q^base).  The
module-level helpers build finite and infinite products, reciprocals,
Jacobi triple products and theta sums on whatever exponent grid the
inputs require.

None of them multiplies series densely or inverts one.  The private
kernels :func:`_mul_factors` and :func:`_div_factors` multiply and
divide a plain list of int coefficients by (x; q^b)_n in place, one
O(length) pass per factor 1 - sign * q^s: a shifted ``zip`` to
multiply, an ascending ``cs[i] += sign * cs[i - s]`` to divide.
:func:`_quotient_sums` builds the sums of quotients that the multisums
and the Bailey transformations need, keeping one running quotient per
term and cutting it to the window it still needs before each division.
``Series.__mul__`` and ``Series.inverse`` stay as the dense reference
the kernels are tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add as _add
from typing import Iterable, Iterator, Sequence, Tuple, Union

QExp = Union[int, Fraction]

__all__ = [
    "Series",
    "PochSpec",
    "add",
    "mul",
    "rescale",
    "poch_finite",
    "poch_infinite",
    "invert_poch",
    "triple_product",
    "theta_sum",
]


def _frac(x: QExp) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction exponent, got {type(x).__name__}")


def _slots(order: Fraction, denom: int) -> int:
    """Number of grid slots strictly below ``order`` on grid ``1/denom``."""
    num = order.numerator * denom
    den = order.denominator
    return -((-num) // den)


class Series:
    """Exact truncated power series in q.

    Instances are immutable.  Equality compares coefficients at every
    exponent strictly below the smaller of the two truncation orders,
    which is the only range where both operands carry information; as a
    consequence ``==`` is a compatibility check rather than a true
    equivalence, and Series objects are deliberately unhashable.
    """

    __slots__ = ("coeffs", "order", "denom")

    def __init__(self, coeffs: Sequence[int], order: QExp, denom: int = 1):
        order = _frac(order)
        if order <= 0:
            raise ValueError(f"truncation order must be positive, got {order}")
        if not isinstance(denom, int) or denom < 1:
            raise ValueError(f"denom must be a positive int, got {denom!r}")
        n = _slots(order, denom)
        cs = list(coeffs)
        if len(cs) > n:
            cs = cs[:n]
        elif len(cs) < n:
            cs.extend([0] * (n - len(cs)))
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "denom", denom)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, order: QExp, denom: int = 1) -> "Series":
        return cls((), order, denom)

    @classmethod
    def one(cls, order: QExp, denom: int = 1) -> "Series":
        return cls((1,), order, denom)

    @classmethod
    def from_int(cls, c: int, order: QExp, denom: int = 1) -> "Series":
        return cls((c,), order, denom)

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[Tuple[QExp, int]],
        order: QExp,
        denom: int | None = None,
    ) -> "Series":
        """Build a series from (exponent, coefficient) pairs.

        Terms at or above the truncation order are dropped.  When
        ``denom`` is omitted the grid is the coarsest one holding every
        retained exponent.
        """
        order_f = _frac(order)
        kept = []
        for e, c in terms:
            e = _frac(e)
            if e < 0:
                raise ValueError(f"negative exponent {e} in series")
            if e < order_f:
                kept.append((e, c))
        if denom is None:
            denom = 1
            for e, _ in kept:
                denom = lcm(denom, e.denominator)
        cs = [0] * _slots(order_f, denom)
        for e, c in kept:
            s = e * denom
            if s.denominator != 1:
                raise ValueError(f"exponent {e} does not lie on grid 1/{denom}")
            cs[int(s)] += c
        return cls(cs, order_f, denom)

    # ------------------------------------------------------------ queries

    def coefficient(self, e: QExp) -> int:
        """Coefficient of q^e; raises if e is at or beyond the order."""
        e = _frac(e)
        if e >= self.order:
            raise ValueError(f"exponent {e} is not below the truncation order {self.order}")
        if e < 0:
            return 0
        s = e * self.denom
        if s.denominator != 1:
            return 0
        return self.coeffs[int(s)]

    def terms(self) -> Iterator[Tuple[Fraction, int]]:
        """Yield (exponent, coefficient) for every nonzero term, ascending."""
        d = self.denom
        for s, c in enumerate(self.coeffs):
            if c:
                yield Fraction(s, d), c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # ------------------------------------------------------------ arithmetic

    def _promote(self, denom: int) -> "Series":
        """Re-express on a finer grid; ``denom`` must be a multiple of ours."""
        if denom == self.denom:
            return self
        m, r = divmod(denom, self.denom)
        if r:
            raise ValueError(f"cannot promote grid 1/{self.denom} to 1/{denom}")
        cs = [0] * _slots(self.order, denom)
        for s, c in enumerate(self.coeffs):
            if c:
                cs[s * m] = c
        return Series(cs, self.order, denom)

    @staticmethod
    def _align(f: "Series", g: "Series") -> Tuple["Series", "Series"]:
        d = lcm(f.denom, g.denom)
        return f._promote(d), g._promote(d)

    def _lift(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            return Series.from_int(other, self.order, self.denom)
        return NotImplemented

    def __add__(self, other) -> "Series":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        f, g = Series._align(self, other)
        order = min(f.order, g.order)
        n = _slots(order, f.denom)
        cs = [0] * n
        for s in range(min(n, len(f.coeffs))):
            cs[s] = f.coeffs[s]
        for s in range(min(n, len(g.coeffs))):
            cs[s] += g.coeffs[s]
        return Series(cs, order, f.denom)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs), self.order, self.denom)

    def __sub__(self, other) -> "Series":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "Series":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, int):
            return Series(tuple(c * other for c in self.coeffs), self.order, self.denom)
        if not isinstance(other, Series):
            return NotImplemented
        f, g = Series._align(self, other)
        order = min(f.order, g.order)
        n = _slots(order, f.denom)
        cs = [0] * n
        fc, gc = f.coeffs, g.coeffs
        for i, a in enumerate(fc):
            if a and i < n:
                top = min(len(gc), n - i)
                for j in range(top):
                    b = gc[j]
                    if b:
                        cs[i + j] += a * b
        return Series(cs, order, f.denom)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = Series.one(self.order, self.denom)
        for _ in range(k):
            out = out * self
        return out

    def shift(self, e: QExp) -> "Series":
        """Multiply by q^e (e >= 0); knowledge extends to order + e."""
        e = _frac(e)
        if e < 0:
            raise ValueError("shift exponent must be nonnegative")
        d = lcm(self.denom, e.denominator)
        f = self._promote(d)
        off = int(e * d)
        order = f.order + e
        cs = [0] * _slots(order, d)
        for s, c in enumerate(f.coeffs):
            cs[s + off] = c
        return Series(cs, order, d)

    def truncate(self, order: QExp) -> "Series":
        """Forget coefficients from ``order`` on (order may only shrink)."""
        order = _frac(order)
        if order > self.order:
            raise ValueError(f"cannot extend knowledge from {self.order} to {order}")
        return Series(self.coeffs[: _slots(order, self.denom)], order, self.denom)

    def inverse(self) -> "Series":
        """Reciprocal series; requires constant coefficient exactly 1."""
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("reciprocal requires constant coefficient 1")
        a = self.coeffs
        n = len(a)
        b = [0] * n
        b[0] = 1
        nz = [t for t in range(1, n) if a[t]]
        for s in range(1, n):
            acc = 0
            for t in nz:
                if t > s:
                    break
                acc += a[t] * b[s - t]
            b[s] = -acc
        return Series(b, self.order, self.denom)

    def rescale(self, factor: QExp) -> "Series":
        """Substitute q -> q^factor for a positive rational factor."""
        factor = _frac(factor)
        if factor <= 0:
            raise ValueError(f"rescale factor must be positive, got {factor}")
        raw_den = self.denom * factor.denominator
        order = self.order * factor
        pairs = [(s * factor.numerator, c) for s, c in enumerate(self.coeffs) if c]
        g = raw_den
        for p, _ in pairs:
            g = gcd(g, p)
        if g == 0:
            g = raw_den
        den = raw_den // g
        cs = [0] * _slots(order, den)
        for p, c in pairs:
            cs[p // g] = c
        return Series(cs, order, den)

    # ------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        f, g = Series._align(self, other)
        n = _slots(min(f.order, g.order), f.denom)
        fc, gc = f.coeffs, g.coeffs
        for s in range(n):
            a = fc[s] if s < len(fc) else 0
            b = gc[s] if s < len(gc) else 0
            if a != b:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def first_discrepancy(self, other: "Series") -> Fraction | None:
        """Smallest exponent below min(orders) where coefficients differ."""
        f, g = Series._align(self, other)
        n = _slots(min(f.order, g.order), f.denom)
        for s in range(n):
            a = f.coeffs[s] if s < len(f.coeffs) else 0
            b = g.coeffs[s] if s < len(g.coeffs) else 0
            if a != b:
                return Fraction(s, f.denom)
        return None

    # ------------------------------------------------------------ formatting

    def __repr__(self) -> str:
        return f"Series({self!s})"

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            if e == 1:
                mono = "q"
            elif e.denominator == 1:
                mono = f"q^{e}"
            else:
                mono = f"q^({e})"
            term = f"{mag}{mono}"
            parts.append(term if c > 0 else f"-{term}")
        if len(parts) > 16:
            parts = parts[:16] + ["..."]
        body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
        o = self.order
        tail = f"O(q^{o})" if o.denominator == 1 else f"O(q^({o}))"
        return f"{body} + {tail}"

    # ------------------------------------------------------------ wire format

    def to_wire(self) -> dict:
        """JSON-ready dict: grid, order as num/den, nonzero coefficients.

        Coefficients are decimal strings so arbitrarily large integers
        survive JSON round trips unharmed.
        """
        return {
            "denom": self.denom,
            "order_num": self.order.numerator,
            "order_den": self.order.denominator,
            "coeffs": [[s, str(c)] for s, c in enumerate(self.coeffs) if c],
        }

    @classmethod
    def from_wire(cls, d: dict) -> "Series":
        order = Fraction(int(d["order_num"]), int(d["order_den"]))
        denom = int(d["denom"])
        cs = [0] * _slots(order, denom)
        for s, c in d["coeffs"]:
            cs[int(s)] = int(c)
        return cls(cs, order, denom)

    def to_json(self) -> str:
        return json.dumps(self.to_wire())

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_wire(json.loads(text))


# ---------------------------------------------------------------- Pochhammer


@dataclass(frozen=True)
class PochSpec:
    """The symbol (sign * q^exponent ; q^base): sign is +1 or -1,
    exponent a nonnegative rational, base a positive rational."""

    sign: int
    exponent: Fraction
    base: Fraction

    def __init__(self, sign: int, exponent: QExp, base: QExp):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        exponent = _frac(exponent)
        base = _frac(base)
        if exponent < 0:
            raise ValueError(f"Pochhammer exponent must be nonnegative, got {exponent}")
        if base <= 0:
            raise ValueError(f"Pochhammer base must be positive, got {base}")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "base", base)

    def grid(self, denom: int = 1) -> int:
        return lcm(self.exponent.denominator, self.base.denominator, denom)


def _factor_slots(spec: PochSpec, n: int | None, denom: int, length: int) -> range:
    """Grid slots s of the factors 1 - sign * q^(s / denom) of (spec)_n
    that lie below slot ``length`` (n = None: the infinite product)."""
    first, step = _grid_slots(spec, denom)
    stop = length if n is None else min(length, first + n * step)
    return range(first, stop, step)


def _grid_slots(spec: PochSpec, denom: int) -> Tuple[int, int]:
    """The symbol's exponent and base as slots of grid 1/denom."""
    first, step = spec.exponent * denom, spec.base * denom
    if first.denominator != 1 or step.denominator != 1:
        raise ValueError(f"{spec} does not lie on grid 1/{denom}")
    return int(first), int(step)


def _div_factor(cs: list, sign: int, s: int) -> None:
    """Divide the coefficient list ``cs`` in place by 1 - sign * q^s, s >= 1."""
    if s == 0:
        raise ValueError("reciprocal requires constant coefficient 1")
    # one loop per sign: multiplying by sign costs half as much again
    if sign == 1:
        for i in range(s, len(cs)):
            cs[i] += cs[i - s]
    else:
        for i in range(s, len(cs)):
            cs[i] -= cs[i - s]


def _mul_factors(cs: list, spec: PochSpec, n: int | None, denom: int) -> list:
    """Multiply the coefficient list ``cs`` (grid 1/denom, known below
    slot len(cs)) by (spec)_n in place: one pass per factor (s = 0
    pairs each coefficient with itself, giving (1 - sign) * c)."""
    for s in _factor_slots(spec, n, denom, len(cs)):
        if spec.sign == 1:
            cs[s:] = [c - x for c, x in zip(cs[s:], cs)]
        else:
            cs[s:] = [c + x for c, x in zip(cs[s:], cs)]
    return cs


def _div_factors(cs: list, spec: PochSpec, n: int | None, denom: int) -> list:
    """Divide the coefficient list ``cs`` by (spec)_n in place: one
    ascending pass cs[i] += sign * cs[i - s] per factor."""
    for s in _factor_slots(spec, n, denom, len(cs)):
        _div_factor(cs, spec.sign, s)
    return cs


def _quotient_sums(terms: list, spec: PochSpec, denom: int, length: int, exps: list) -> list:
    """sum_{m <= n} q^(exps[n][m] / denom) * terms[m] / (spec)_{n-m} for
    each n < len(exps), as (v, cs) pairs standing for q^(v / denom) * cs
    with cs known below slot ``length``.

    ``terms`` holds (v, cs) pairs of the same form and is consumed: each
    becomes the running quotient terms[m] / (spec)_{n-m}, cut to the
    window it still needs before each division, so every (n, m) costs
    one pass over one factor.  ``exps[n]`` lists the slots for
    m = 0..min(n, len(terms) - 1); they must not decrease in n.
    """
    first, step = _grid_slots(spec, denom)
    out = []
    for n, row in enumerate(exps):
        acc = [0] * length
        lo = length
        for m, e in enumerate(row):
            v, cs = terms[m]
            del cs[max(length - e - v, 0):]
            if not cs:
                continue
            if m < n:
                _div_factor(cs, spec.sign, first + (n - m - 1) * step)
            at, end = e + v, e + v + len(cs)
            acc[at:end] = map(_add, acc[at:end], cs)
            lo = min(lo, at)
        out.append((lo, acc[lo:]))
    return out


@lru_cache(maxsize=4096)
def _poch(spec: PochSpec, n: int | None, order: Fraction, denom: int) -> Series:
    cs = [1] + [0] * (_slots(order, denom) - 1)
    return Series(_mul_factors(cs, spec, n, denom), order, denom)


def poch_finite(spec: PochSpec, n: int, order: QExp, denom: int | None = None) -> Series:
    """(sign * q^e ; q^b)_n as a series truncated at ``order``.

    Args:
        spec: the symbol to expand.
        n: number of factors (nonnegative).
        order: truncation order.
        denom: optional exponent grid; defaults to the coarsest grid
            holding the symbol's exponents.

    Returns:
        The product of the first n factors, truncated.
    """
    _check_length(n)
    return _poch(spec, n, _frac(order), spec.grid(denom or 1))


def poch_infinite(spec: PochSpec, order: QExp, denom: int | None = None) -> Series:
    """(sign * q^e ; q^b)_infinity truncated at ``order``.

    The exponent must be positive when sign is +1: (1 ; q^b) has a
    vanishing factor and the infinite product collapses to 0, which is
    never what a generating-function identity means.
    """
    _check_infinite(spec)
    return _poch(spec, None, _frac(order), spec.grid(denom or 1))


def _check_length(n) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"Pochhammer length must be a nonnegative int, got {n!r}")


def _check_infinite(spec: PochSpec) -> None:
    if spec.sign == 1 and spec.exponent == 0:
        raise ValueError("(q^0; .)_infinity vanishes; refusing the degenerate symbol")


def invert_poch(
    spec: PochSpec, order: QExp, n: int | None = None, denom: int | None = None
) -> Series:
    """Reciprocal 1 / (sign * q^e ; q^b)_n (n = None means infinite)."""
    if n is None:
        _check_infinite(spec)
    else:
        _check_length(n)
    order, denom = _frac(order), spec.grid(denom or 1)
    cs = [1] + [0] * (_slots(order, denom) - 1)
    return Series(_div_factors(cs, spec, n, denom), order, denom)


# ---------------------------------------------------------------- products


def add(f: Series, g: Series) -> Series:
    """Sum truncated at the smaller order."""
    return f + g


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the smaller order."""
    return f * g


def rescale(f: Series, factor: QExp) -> Series:
    """Substitute q -> q^factor (positive rational)."""
    return f.rescale(factor)


def triple_product(e1: QExp, e2: QExp, e3: QExp, order: QExp) -> Series:
    """(q^e1 ; q^e3)_inf (q^e2 ; q^e3)_inf (q^e3 ; q^e3)_inf for e1 + e2 = e3.

    Requires 0 < e1 <= e3 and 0 < e2 <= e3.  By the Jacobi triple
    product this equals the alternating theta sum
    sum_{r in Z} (-1)^r q^{e3 r(r-1)/2 + e1 r}; see :func:`theta_sum`.
    """
    e1, e2, e3 = _frac(e1), _frac(e2), _frac(e3)
    if not (0 < e1 <= e3 and 0 < e2 <= e3):
        raise ValueError(f"need 0 < e1, e2 <= e3; got e1={e1}, e2={e2}, e3={e3}")
    if e1 + e2 != e3:
        raise ValueError(f"triple product requires e1 + e2 = e3; got {e1} + {e2} != {e3}")
    order = _frac(order)
    specs = [PochSpec(1, e, e3) for e in (e1, e2, e3)]
    denom = lcm(*(spec.grid() for spec in specs))
    cs = [1] + [0] * (_slots(order, denom) - 1)
    for spec in specs:
        _mul_factors(cs, spec, None, denom)
    return Series(cs, order, denom)


def theta_sum(e1: QExp, e3: QExp, order: QExp) -> Series:
    """sum_{r in Z} (-1)^r q^{e3 r(r-1)/2 + e1 r} truncated at ``order``.

    Requires 0 <= e1 <= e3 so that every exponent is nonnegative; the
    exponent is then strictly increasing in each direction away from
    r = 0, which makes truncation a simple walk outward.
    """
    e1, e3 = _frac(e1), _frac(e3)
    if e3 <= 0 or not 0 <= e1 <= e3:
        raise ValueError(f"theta sum needs 0 <= e1 <= e3 with e3 > 0; got e1={e1}, e3={e3}")
    order = _frac(order)

    def exp_at(r: int) -> Fraction:
        return e3 * r * (r - 1) / 2 + e1 * r

    terms = [(Fraction(0), 1)]
    r = 1
    while exp_at(r) < order:
        terms.append((exp_at(r), -1 if r % 2 else 1))
        r += 1
    r = -1
    while exp_at(r) < order:
        terms.append((exp_at(r), -1 if r % 2 else 1))
        r -= 1
    return Series.from_terms(terms, order)
