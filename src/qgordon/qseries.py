"""Truncated q-series with exact integer coefficients.

A :class:`Series` is a formal power series in q, truncated at a rational
order: coefficients are known for every exponent strictly below ``order``
and unknown from ``order`` on.  Exponents live on a uniform grid
``s / denom`` for integer slots ``s >= 0``; in this package ``denom`` is
1 (integer exponents) or 2 (half-integer exponents, where the Bailey
chain's series in t = q^(1/2) are read).  All coefficients are Python
ints, so every computation is exact at arbitrary size.

Pochhammer symbols are described by :class:`PochSpec`, a triple of ints
(sign, exponent, base) standing for (sign * q^exponent ; q^base).  The
module-level helpers build finite and infinite products, reciprocals,
Jacobi triple products and theta sums, all from int exponents and on the
integer grid.  A rational exponent is written in t = q^(1/d) instead,
and the series built in t is read back by ``rescale(Fraction(1, d))``.

The theta sum is written once: :func:`_theta_pair` gives its terms
r = +-m, (-1)^m (q^(e3 m(m-1)/2 + e1 m) + q^(e3 m(m+1)/2 - e1 m)), and
:func:`_theta_walk` walks those pairs outward to an order.  The same
pair is the alpha_m of every Bailey pair in :mod:`qgordon.bailey`.

None of them multiplies series densely or inverts one.  The private
kernels :func:`_mul_factors` and :func:`_div_factors` multiply and
divide a plain list of int coefficients by (x; q^b)_n in place, one
O(length) pass per factor 1 - sign * q^s: a shifted ``map`` to
multiply, an ascending ``cs[i] += sign * cs[i - s]`` to divide.
:func:`_mul_eta` and :func:`_div_eta` do the same for
E_b = (q^b; q^b)_inf through Euler's pentagonal theorem, which leaves
O(sqrt(length / b)) terms: one shifted pass per term to multiply, one
ascending recurrence over the terms to divide.
The kernels know no grid: list index i is q^i.  ``Series.__mul__`` and
``Series.inverse`` stay as the dense reference the kernels are tested
against.  The builders here, the sides in :mod:`qgordon.identities` and
the chain in :mod:`qgordon.bailey` wrap the int lists they made with
the private :meth:`Series._unchecked`; the public constructor and
``from_terms`` check.  ``+``, ``-``, ``*`` and ``first_discrepancy``
read both operands from one :meth:`Series._window`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, sub as _sub
from typing import Iterable, Iterator, Sequence, Tuple, Union

QExp = Union[int, Fraction]

__all__ = [
    "Series",
    "PochSpec",
    "mul",
    "rescale",
    "poch_finite",
    "poch_infinite",
    "invert_poch",
    "triple_product",
    "theta_sum",
]


def _frac(x: QExp, what: str = "exponent") -> Fraction:
    """``x`` as a Fraction; TypeError naming ``what`` for anything but an
    int or a Fraction (a bool is not an int here)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction {what}, got {type(x).__name__}")


def _order(order: QExp) -> Fraction:
    """A truncation order as a Fraction; it must be positive."""
    if type(order) is int and order > 0:  # the common case, without _frac's checks
        return Fraction(order)
    order = _frac(order, "order")
    if order <= 0:
        raise ValueError(f"truncation order must be positive, got {order}")
    return order


def _slots(order: Fraction, denom: int) -> int:
    """Number of grid slots strictly below ``order`` on grid ``1/denom``."""
    num = order.numerator * denom
    den = order.denominator
    return -((-num) // den)


def _grid(order: QExp, denom: int) -> Tuple[Fraction, int]:
    """A checked order, as a Fraction, and its slot count on grid 1/denom."""
    order = _order(order)
    if type(denom) is not int or denom < 1:
        raise ValueError(f"denom must be a positive int, got {denom!r}")
    return order, _slots(order, denom)


def _coefficient(c: int) -> int:
    """``c``; TypeError unless it is an int (a bool is not an int here)."""
    if not isinstance(c, int) or isinstance(c, bool):
        raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
    return c


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
        order, n = _grid(order, denom)
        cs = [_coefficient(c) for c in list(coeffs)[:n]]
        cs.extend([0] * (n - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "denom", denom)

    @classmethod
    def _unchecked(cls, coeffs: Sequence[int], order: Fraction, denom: int) -> "Series":
        """A series built unvalidated: the caller guarantees ints only,
        exactly ``_slots(order, denom)`` of them, and a Fraction order."""
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", tuple(coeffs))
        object.__setattr__(s, "order", order)
        object.__setattr__(s, "denom", denom)
        return s

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
    def from_terms(cls, terms: Iterable[Tuple[QExp, int]], order: QExp, denom: int = 1) -> "Series":
        """Build a series on grid 1/denom from (exponent, coefficient) pairs,
        checked as the constructor checks; terms at or above the order drop.
        A term that is not a 2-tuple or 2-list raises ValueError naming its
        index and value."""
        order, n = _grid(order, denom)
        cs = [0] * n
        for i, term in enumerate(terms):
            if not isinstance(term, (tuple, list)) or len(term) != 2:
                raise ValueError(f"term {i} is not an (exponent, coefficient) pair: {term!r}")
            e, c = term
            _coefficient(c)
            e = _frac(e)
            if e < 0:
                raise ValueError(f"negative exponent {e} in series")
            if e < order:
                s = e * denom
                if s.denominator != 1:
                    raise ValueError(f"exponent {e} does not lie on grid 1/{denom}")
                cs[int(s)] += c
        return cls._unchecked(cs, order, denom)

    # ------------------------------------------------------------ queries

    def coefficient(self, e: QExp) -> int:
        """Coefficient of q^e; raises if e is at or beyond the order."""
        if type(e) is int:
            # an int exponent is below the order exactly when its slot is
            # below the slot count; one that is not is refused below
            s = e * self.denom
            if s < len(self.coeffs):
                return self.coeffs[s] if s >= 0 else 0
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
        cs[::m] = self.coeffs
        return Series._unchecked(cs, self.order, denom)

    @staticmethod
    def _window(f: "Series", g: "Series") -> Tuple[tuple, tuple, Fraction, int]:
        """Both operands promoted to their common grid, as their slot
        tuples below the smaller order, with that order and grid."""
        d = lcm(f.denom, g.denom)
        order = min(f.order, g.order)
        n = _slots(order, d)
        return f._promote(d).coeffs[:n], g._promote(d).coeffs[:n], order, d

    def _lift(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            return Series.from_int(other, self.order, self.denom)
        return NotImplemented

    def _slotwise(self, other, op) -> "Series":
        """``op`` slot by slot over the window of self and other."""
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        fc, gc, order, d = Series._window(self, other)
        return Series(map(op, fc, gc), order, d)

    def __add__(self, other) -> "Series":
        return self._slotwise(other, _add)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs), self.order, self.denom)

    def __sub__(self, other) -> "Series":
        return self._slotwise(other, _sub)

    def __rsub__(self, other) -> "Series":
        lifted = self._lift(other)
        return NotImplemented if lifted is NotImplemented else lifted._slotwise(self, _sub)

    def __mul__(self, other) -> "Series":
        if isinstance(other, int) and not isinstance(other, bool):  # a bool is not an int here
            return Series(tuple(c * other for c in self.coeffs), self.order, self.denom)
        if not isinstance(other, Series):
            return NotImplemented
        fc, gc, order, d = Series._window(self, other)
        n = len(fc)
        cs = [0] * n
        for i, a in enumerate(fc):
            if a:
                for j in range(n - i):
                    b = gc[j]
                    if b:
                        cs[i + j] += a * b
        return Series(cs, order, d)

    __rmul__ = __mul__

    def shift(self, e: QExp) -> "Series":
        """Multiply by q^e (e >= 0); knowledge extends to order + e."""
        e = _frac(e)
        if e < 0:
            raise ValueError("shift exponent must be nonnegative")
        d = lcm(self.denom, e.denominator)
        f = self._promote(d)
        return Series._unchecked((0,) * int(e * d) + f.coeffs, f.order + e, d)

    def truncate(self, order: QExp) -> "Series":
        """Forget coefficients from ``order`` on (order may only shrink)."""
        order = _order(order)
        if order > self.order:
            raise ValueError(f"cannot extend knowledge from {self.order} to {order}")
        return Series._unchecked(self.coeffs[: _slots(order, self.denom)], order, self.denom)

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
        """Substitute q -> q^factor for a positive rational factor p/r:
        slot s on grid 1/denom moves to slot s * p/g on grid
        1/(denom/g * r), g = gcd(denom, p)."""
        factor = _frac(factor, "rescale factor")
        if factor <= 0:
            raise ValueError(f"rescale factor must be positive, got {factor}")
        g = gcd(self.denom, factor.numerator)
        den, step = self.denom // g * factor.denominator, factor.numerator // g
        order = self.order * factor
        cs = [0] * _slots(order, den)
        cs[::step] = self.coeffs
        return Series._unchecked(cs, order, den)

    # ------------------------------------------------------------ comparison

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.first_discrepancy(other) is None

    __hash__ = None  # type: ignore[assignment]

    def first_discrepancy(self, other: Union["Series", int]) -> Fraction | None:
        """Smallest exponent below min(orders) where coefficients differ;
        an int operand is lifted as ``==`` lifts it."""
        lifted = self._lift(other)
        if lifted is NotImplemented:
            raise TypeError(f"cannot compare a Series with {type(other).__name__}")
        fc, gc, _, d = Series._window(self, lifted)
        if fc == gc:
            return None
        return Fraction(next(s for s, (a, b) in enumerate(zip(fc, gc)) if a != b), d)

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
        """The series :meth:`to_wire` wrote.  The document must be a dict,
        the order fields and the grid ints, the denominators positive,
        ``coeffs`` a list of [slot, coefficient] pairs, each slot an int
        below the slot count given once, and each coefficient an int or
        a decimal-integer string; anything else raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a series document must be a dict, got {type(d).__name__}")
        for field in ("order_num", "order_den", "denom"):
            if type(d.get(field)) is not int:
                raise ValueError(f"{field} must be an int, got {d.get(field)!r}")
        if d["order_den"] < 1 or d["denom"] < 1:
            raise ValueError(f"order_den and denom must be positive, got {d['order_den']}, {d['denom']}")
        order = Fraction(d["order_num"], d["order_den"])
        cs = [0] * _slots(order, d["denom"])
        coeffs = d.get("coeffs")
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"coeffs must be a list, got {coeffs!r}")
        seen = set()
        for entry in coeffs:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError(f"each coefficient must be a [slot, coefficient] pair, got {entry!r}")
            s, c = entry
            if type(s) is not int or not 0 <= s < len(cs):
                raise ValueError(f"coefficient slot {s!r} is not an int in 0..{len(cs) - 1}")
            if s in seen:
                raise ValueError(f"coefficient slot {s} is given twice")
            seen.add(s)
            if not (type(c) is int or isinstance(c, str) and re.fullmatch(r"-?[0-9]+", c)):
                raise ValueError(f"coefficient at slot {s} must be an int or a decimal-integer string, "
                                 f"got {c!r}")
            cs[s] = int(c)
        return cls(cs, order, d["denom"])

    def to_json(self) -> str:
        return json.dumps(self.to_wire())

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_wire(json.loads(text))


# ---------------------------------------------------------------- Pochhammer


@dataclass(frozen=True)
class PochSpec:
    """The symbol (sign * q^exponent ; q^base): sign is +1 or -1,
    exponent a nonnegative int, base a positive int."""

    sign: int
    exponent: int
    base: int

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not (type(self.exponent) is int and type(self.base) is int):
            raise ValueError(
                f"Pochhammer exponent and base must be ints, got {self.exponent!r} and {self.base!r};"
                " write the symbol in t = q^(1/d)"
            )
        if self.exponent < 0:
            raise ValueError(f"Pochhammer exponent must be nonnegative, got {self.exponent}")
        if self.base <= 0:
            raise ValueError(f"Pochhammer base must be positive, got {self.base}")


def _factor_slots(spec: PochSpec, n: int | None, length: int) -> range:
    """Exponents s of the factors 1 - sign * q^s of (spec)_n that lie
    below ``length`` (n = None: the infinite product)."""
    stop = length if n is None else min(length, spec.exponent + n * spec.base)
    return range(spec.exponent, stop, spec.base)


def _div_factor(cs: list, sign: int, s: int) -> None:
    """Divide the coefficient list ``cs`` in place by 1 - sign * q^s, s >= 1;
    any other s raises ValueError before ``cs`` is touched."""
    if s < 1:
        raise ValueError(f"negative factor exponent {s}" if s else "reciprocal requires constant coefficient 1")
    # one loop per sign: multiplying by sign costs half as much again
    if sign == 1:
        for i in range(s, len(cs)):
            cs[i] += cs[i - s]
    else:
        for i in range(s, len(cs)):
            cs[i] -= cs[i - s]


def _mul_factor(cs: list, sign: int, s: int) -> None:
    """Multiply the coefficient list ``cs`` in place by 1 - sign * q^s
    (s = 0 pairs each coefficient with itself, giving (1 - sign) * c);
    a negative s raises ValueError before ``cs`` is touched."""
    if s < 0:
        raise ValueError(f"negative factor exponent {s}")
    cs[s:] = map(_sub if sign == 1 else _add, cs[s:], cs)


def _mul_factors(cs: list, spec: PochSpec, n: int | None) -> list:
    """Multiply the coefficient list ``cs`` (known below exponent
    len(cs)) by (spec)_n in place: one pass per factor."""
    for s in _factor_slots(spec, n, len(cs)):
        _mul_factor(cs, spec.sign, s)
    return cs


def _div_factors(cs: list, spec: PochSpec, n: int | None) -> list:
    """Divide the coefficient list ``cs`` by (spec)_n in place: one
    ascending pass cs[i] += sign * cs[i - s] per factor."""
    for s in _factor_slots(spec, n, len(cs)):
        _div_factor(cs, spec.sign, s)
    return cs


def _pentagonal(b: int, length: int) -> Iterator[Tuple[int, int]]:
    """The terms (e, +-1) with 0 < e < length of E_b = (q^b; q^b)_inf,
    ascending.  By Euler's pentagonal theorem E_b is the theta series
    with (e1, e3) = (b, 3b): sum_j (-1)^j q^(b j(3j-1)/2)."""
    return ((e, c) for e, c in _theta_walk(b, 3 * b, length) if e)


def _mul_eta(cs: list, b: int) -> list:
    """Multiply the coefficient list ``cs`` by E_b in place: one shifted
    pass per term of E_b below len(cs), O(sqrt(len / b)) passes."""
    src = cs[:]
    for e, c in _pentagonal(b, len(cs)):
        cs[e:] = map(_add if c == 1 else _sub, cs[e:], src)
    return cs


def _div_eta(cs: list, b: int) -> list:
    """Divide the coefficient list ``cs`` by E_b in place: one ascending
    pass of the recurrence cs[i] -= sum_e c_e * cs[i - e] over the terms
    c_e q^e of E_b, O(sqrt(len / b)) terms per coefficient."""
    plus, minus = [], []  # E_b's terms -q^e and +q^e
    for e, c in _pentagonal(b, len(cs)):
        (plus if c == -1 else minus).append(e)
    for i in range(b, len(cs)):
        t = cs[i]
        for e in plus:
            if e > i:
                break
            t += cs[i - e]
        for e in minus:
            if e > i:
                break
            t -= cs[i - e]
        cs[i] = t
    return cs


def _unit_times(kernel, specs: Sequence[PochSpec], n: int | None, order: QExp) -> Series:
    """1 multiplied or divided (``kernel``) by (spec)_n for each spec in
    ``specs``, on the integer grid."""
    order = _order(order)
    cs = [1] + [0] * (_slots(order, 1) - 1)
    for spec in specs:
        kernel(cs, spec, n)
    return Series._unchecked(cs, order, 1)


def poch_finite(spec: PochSpec, n: int, order: QExp) -> Series:
    """(sign * q^e ; q^b)_n as a series truncated at ``order``.

    Args:
        spec: the symbol to expand.
        n: number of factors (nonnegative).
        order: truncation order.

    Returns:
        The product of the first n factors, truncated.
    """
    _check_length(n)
    return _unit_times(_mul_factors, (spec,), n, order)


def poch_infinite(spec: PochSpec, order: QExp) -> Series:
    """(sign * q^e ; q^b)_infinity truncated at ``order``.

    The exponent must be positive when sign is +1: (1 ; q^b) has a
    vanishing factor and the infinite product collapses to 0, which is
    never what a generating-function identity means.
    """
    _check_infinite(spec)
    return _unit_times(_mul_factors, (spec,), None, order)


def _check_length(n) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"Pochhammer length must be a nonnegative int, got {n!r}")


def _check_infinite(spec: PochSpec) -> None:
    if spec.sign == 1 and spec.exponent == 0:
        raise ValueError("(q^0; .)_infinity vanishes; refusing the degenerate symbol")


def invert_poch(spec: PochSpec, order: QExp, n: int | None = None) -> Series:
    """Reciprocal 1 / (sign * q^e ; q^b)_n (n = None means infinite)."""
    if n is None:
        _check_infinite(spec)
    else:
        _check_length(n)
    return _unit_times(_div_factors, (spec,), n, order)


# ---------------------------------------------------------------- products


def mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the smaller order."""
    return f * g


def rescale(f: Series, factor: QExp) -> Series:
    """Substitute q -> q^factor (positive rational)."""
    return f.rescale(factor)


def triple_product(e1: int, e2: int, e3: int, order: QExp) -> Series:
    """(q^e1 ; q^e3)_inf (q^e2 ; q^e3)_inf (q^e3 ; q^e3)_inf for e1 + e2 = e3.

    Requires ints (:class:`PochSpec` refuses anything else) with
    0 < e1 <= e3 and 0 < e2 <= e3.  This is the factor-by-factor
    reference for Jacobi's triple product, which says it equals the
    alternating theta sum sum_{r in Z} (-1)^r q^{e3 r(r-1)/2 + e1 r}
    (:func:`theta_sum`); the product sides use the theta sum, and the
    tests hold them to this product.
    """
    if not (0 < e1 <= e3 and 0 < e2 <= e3):
        raise ValueError(f"need 0 < e1, e2 <= e3; got e1={e1}, e2={e2}, e3={e3}")
    if e1 + e2 != e3:
        raise ValueError(f"triple product requires e1 + e2 = e3; got {e1} + {e2} != {e3}")
    return _unit_times(_mul_factors, [PochSpec(1, e, e3) for e in (e1, e2, e3)], None, order)


def _theta_pair(e1: int, e3: int, m: int) -> list:
    """The terms r = m and r = -m of the theta series
    sum_{r in Z} (-1)^r q^(e3 r(r-1)/2 + e1 r), as (exponent, sign)
    pairs of ints; just the 1 at m = 0."""
    if m == 0:
        return [(0, 1)]
    sign = -1 if m % 2 else 1
    return [(e3 * (m * (m - 1) // 2) + e1 * m, sign), (e3 * (m * (m + 1) // 2) - e1 * m, sign)]


def _theta_walk(e1: int, e3: int, stop) -> Iterator[Tuple[int, int]]:
    """The theta series' terms with exponent below ``stop``, walking the
    pairs r = +-m outward.  For 0 <= e1 <= e3 with e3 > 0 the exponent
    grows with |r| on each side, so the walk ends at the first m whose
    smaller exponent (r = -m once e1 > e3 / 2) reaches ``stop``."""
    m = 0
    while True:
        pair = [(e, c) for e, c in _theta_pair(e1, e3, m) if e < stop]
        if not pair:
            return
        yield from pair
        m += 1


def theta_sum(e1: int, e3: int, order: QExp) -> Series:
    """sum_{r in Z} (-1)^r q^{e3 r(r-1)/2 + e1 r} truncated at ``order``.

    Requires ints 0 <= e1 <= e3, not bools, so that every exponent is a
    nonnegative int and :func:`_theta_walk` can sum the pairs outward.
    """
    if type(e1) is not int or type(e3) is not int:
        raise ValueError(f"theta sum exponents must be ints, got {e1!r}, {e3!r}; write the sum in t = q^(1/d)")
    if e3 <= 0 or not 0 <= e1 <= e3:
        raise ValueError(f"theta sum needs 0 <= e1 <= e3 with e3 > 0; got e1={e1}, e3={e3}")
    return Series.from_terms(_theta_walk(e1, e3, order), order)
