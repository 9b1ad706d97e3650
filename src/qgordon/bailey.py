"""Bailey pairs over the unit base and the chain that proves the
parity-restricted identity.

A Bailey pair here is a pair of series families (alpha_n, beta_n)
tied together by

    beta_n = sum_{r=0}^{n} alpha_r / ((q; q)_{n-r} (q; q)_{n+r}).

Everything lives on the exponent grid of halves (denominator 2)
because the chain steps introduce q^{n^2/2} weights and the factor
(-q^{1/2}; q)_n.  The chain starts from the unit pair, doubles the
base variable once, and then alternates half-weight insertions with a
template swap on alpha; its closed-form endpoint feeds the telescoped
limit, and rescaling q -> q^2 lands the limit on the parity-restricted
sum and product from :mod:`qgordon.identities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Tuple

from .identities import ladder_multisum
from .partitions import _as_params
from .qseries import PochSpec, Series, _div_factor, _div_factors, _mul_factors, _quotient_sums, _slots

# imported for perfbench/tracing.py, which wraps these names on this module
from .qseries import invert_poch, mul, poch_finite, poch_infinite  # noqa: F401

__all__ = [
    "BaileyPair",
    "unit_pair",
    "check_pair",
    "apply_S1",
    "apply_S2",
    "apply_D1",
    "apply_P41",
    "build_chain",
    "closed_form_alpha",
    "limit_identity",
]

_Q = PochSpec(1, 1, 1)                      # (q; q)
_Q2 = PochSpec(1, 2, 2)                     # (q^2; q^2)
_NEG_Q = PochSpec(-1, 1, 1)                 # (-q; q)
_NEG_SQRT_Q = PochSpec(-1, Fraction(1, 2), 1)  # (-q^(1/2); q)


@dataclass(frozen=True)
class BaileyPair:
    """alpha_0..alpha_n_max and beta_0..beta_n_max as truncated series.

    Only the unit base is supported: the defining relation above has
    (q; q) factors on both wings.
    """

    alpha: Tuple[Series, ...]
    beta: Tuple[Series, ...]
    base: int = 1

    def __post_init__(self):
        if self.base != 1:
            raise ValueError(f"only base 1 is supported, got base {self.base}")
        alpha = tuple(self.alpha)
        beta = tuple(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not alpha or len(alpha) != len(beta):
            raise ValueError(
                f"alpha and beta must be equally long and nonempty, got {len(alpha)} and {len(beta)}"
            )

    @property
    def n_max(self) -> int:
        return len(self.alpha) - 1

    @property
    def order(self):
        return min(min(s.order for s in self.alpha), min(s.order for s in self.beta))


def unit_pair(n_max: int, order) -> BaileyPair:
    """The pair every chain starts from: beta_n = [n == 0] and
    alpha_n = (-1)^n (q^((n^2-n)/2) + q^((n^2+n)/2))."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    alpha = [Series.one(order, 2)]
    beta = [Series.one(order, 2)]
    for n in range(1, n_max + 1):
        sgn = -1 if n % 2 else 1
        alpha.append(
            Series.from_terms(
                [(Fraction(n * n - n, 2), sgn), (Fraction(n * n + n, 2), sgn)], order, 2
            )
        )
        beta.append(Series.zero(order, 2))
    return BaileyPair(tuple(alpha), tuple(beta))


def _head(s: Series, length: int) -> Tuple[int, list]:
    """(v, cs) with s = q^(v/2) * cs on the half grid, v the first
    nonzero slot and cs known below slot ``length``."""
    cs = s._promote(2).coeffs[:length]
    v = next((i for i, c in enumerate(cs) if c), len(cs))
    return v, list(cs[v:])


def _series(v: int, cs: list, order) -> Series:
    return Series([0] * v + cs, order, 2)


def check_pair(bp: BaileyPair) -> bool:
    """Whether the defining relation holds for every n up to n_max,
    within each series' truncation window.

    One running quotient alpha_r / ((q; q)_{n-r} (q; q)_{n+r}) per r is
    divided by the two new factors 1 - q^(n-r), 1 - q^(n+r) as n grows.
    """
    order = bp.order
    length = _slots(order, 2)
    quots = []
    for n in range(bp.n_max + 1):
        v, cs = _head(bp.alpha[n], length)
        quots.append((v, _div_factors(cs, _Q, 2 * n, 2)))
        rhs = [0] * length
        for r, (v, cs) in enumerate(quots):
            if r < n:
                _div_factor(cs, 1, 2 * (n - r))
                _div_factor(cs, 1, 2 * (n + r))
            rhs[v:] = map(add, rhs[v:], cs)
        if Series(rhs, order, 2) != bp.beta[n]:
            return False
    return True


# ---------------------------------------------------------------- transformations


def apply_S1(bp: BaileyPair) -> BaileyPair:
    """Weight insertion with integer squares:
    alpha'_r = q^(r^2) alpha_r,
    beta'_n = sum_r q^(r^2) beta_r / (q; q)_{n-r}."""
    order = bp.order
    length = _slots(order, 2)
    alpha = tuple(
        s.shift(r * r).truncate(order) for r, s in enumerate(bp.alpha)
    )
    terms = [_head(s, max(length - 2 * r * r, 0)) for r, s in enumerate(bp.beta)]
    exps = [[2 * r * r for r in range(n + 1)] for n in range(bp.n_max + 1)]
    sums = _quotient_sums(terms, _Q, 2, length, exps)
    return BaileyPair(alpha, tuple(_series(v, cs, order) for v, cs in sums))


def apply_S2(bp: BaileyPair) -> BaileyPair:
    """Weight insertion with half squares and the (-q^(1/2); q) factor:
    alpha'_r = q^(r^2/2) alpha_r,
    beta'_n = sum_r (-q^(1/2); q)_r q^(r^2/2) beta_r / (q; q)_{n-r}
              all divided by (-q^(1/2); q)_n."""
    order = bp.order
    length = _slots(order, 2)
    alpha = tuple(
        s.shift(Fraction(r * r, 2)).truncate(order) for r, s in enumerate(bp.alpha)
    )
    terms = []
    for r, s in enumerate(bp.beta):
        v, cs = _head(s, max(length - r * r, 0))
        terms.append((v, _mul_factors(cs, _NEG_SQRT_Q, r, 2)))
    exps = [[r * r for r in range(n + 1)] for n in range(bp.n_max + 1)]
    sums = _quotient_sums(terms, _Q, 2, length, exps)
    beta = tuple(
        _series(v, _div_factors(cs, _NEG_SQRT_Q, n, 2), order) for n, (v, cs) in enumerate(sums)
    )
    return BaileyPair(alpha, beta)


def apply_D1(bp: BaileyPair) -> BaileyPair:
    """Base doubling: every series is rescaled q -> q^2 and
    beta'_n = sum_r (-q; q)_{2r} q^(n-r) (q^2 -> q) beta_r / (q^2; q^2)_{n-r}.

    The truncation order doubles along with the exponents.
    """
    order = 2 * bp.order
    length = _slots(order, 2)
    alpha = tuple(s.rescale(2) for s in bp.alpha)
    terms = []
    for r, s in enumerate(bp.beta):
        v, cs = _head(s.rescale(2), length)
        terms.append((v, _mul_factors(cs, _NEG_Q, 2 * r, 2)))
    exps = [[2 * (n - r) for r in range(n + 1)] for n in range(bp.n_max + 1)]
    sums = _quotient_sums(terms, _Q2, 2, length, exps)
    return BaileyPair(alpha, tuple(_series(v, cs, order) for v, cs in sums))


def _p41_template(a_coef: int, m: int, with_linear: bool, order) -> Series:
    """(-1)^m (q^(A m^2 + c m) + q^(A m^2 - c m)) with c = A - 1 or A."""
    if m == 0:
        return Series.one(order, 2)
    c = a_coef - 1 if with_linear else a_coef
    sgn = -1 if m % 2 else 1
    return Series.from_terms(
        [(a_coef * m * m + c * m, sgn), (a_coef * m * m - c * m, sgn)], order, 2
    )


def apply_P41(bp: BaileyPair, a_coef: int) -> BaileyPair:
    """Template swap on alpha with beta'_n = q^n beta_n.

    Requires alpha_m = (-1)^m (q^(A m^2 + (A-1) m) + q^(A m^2 - (A-1) m))
    for the given A = ``a_coef``; the output alpha has the same shape
    with linear coefficient A instead of A - 1.

    Raises:
        ValueError: if alpha does not match the required template.
    """
    if not isinstance(a_coef, int) or a_coef < 2:
        raise ValueError(f"template coefficient must be an int >= 2, got {a_coef!r}")
    order = bp.order
    for m, s in enumerate(bp.alpha):
        if s != _p41_template(a_coef, m, True, order):
            raise ValueError(
                f"alpha_{m} does not match the swap template with A = {a_coef}"
            )
    alpha = tuple(
        _p41_template(a_coef, m, False, order) for m in range(bp.n_max + 1)
    )
    beta = tuple(
        s.shift(n).truncate(order) for n, s in enumerate(bp.beta)
    )
    return BaileyPair(alpha, beta)


# ---------------------------------------------------------------- the chain


def build_chain(gp, n_max: int, order) -> Tuple[Tuple[str, BaileyPair], ...]:
    """All pairs along the chain for (k, a), unit pair included.

    The sequence is D1, then (k - a - 1) / 2 rounds of S2, S2, P41
    (with template coefficient i + 1 in round i), then a final S2
    repeated a times.  ``order`` is the truncation order of the *final*
    pair; the unit pair starts at half that because D1 doubles it.

    Returns:
        Tuples (step label, pair), starting with ("unit", ...).
    """
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    if (k - a) % 2 == 0:
        raise ValueError(f"the chain needs k and a of opposite parity, got {gp}")
    trace = [("unit", unit_pair(n_max, Fraction(order, 2)))]
    trace.append(("D1", apply_D1(trace[-1][1])))
    for i in range(1, (k - a - 1) // 2 + 1):
        trace.append(("S2", apply_S2(trace[-1][1])))
        trace.append(("S2", apply_S2(trace[-1][1])))
        trace.append((f"P41(A={i + 1})", apply_P41(trace[-1][1], i + 1)))
    for _ in range(a):
        trace.append(("S2", apply_S2(trace[-1][1])))
    return tuple(trace)


def closed_form_alpha(gp, n: int, order) -> Series:
    """Endpoint alpha of the chain:
    (-1)^n q^((k+1) n^2 / 2) (q^(-(k-a+1) n / 2) + q^((k-a+1) n / 2)),
    which is 1 at n = 0."""
    gp = _as_params(gp)
    if n == 0:
        return Series.one(order, 2)
    k, a = gp.k, gp.a
    sgn = -1 if n % 2 else 1
    e1 = Fraction((k + 1) * n * n - (k - a + 1) * n, 2)
    e2 = Fraction((k + 1) * n * n + (k - a + 1) * n, 2)
    return Series.from_terms([(e1, sgn), (e2, sgn)], order, 2)


# ---------------------------------------------------------------- the limit


def limit_identity(gp, order) -> Tuple[Series, Series]:
    """Both sides of the telescoped chain limit, on the half grid.

    The left side is the (k-1)-fold ladder sum with half squares,
    (q; q) level denominators, (q^2; q^2) innermost and a
    (-q^(1/2); q) numerator; the right side is
    (-q^(1/2); q)_inf / (q; q)_inf times the alternating theta series
    built from :func:`closed_form_alpha`.  Rescaling both sides by 2
    gives the parity-restricted sum and product on the integer grid.
    """
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    if (k - a) % 2 == 0:
        raise ValueError(f"the limit needs k and a of opposite parity, got {gp}")
    order = Fraction(order)
    lin = [Fraction(1 if i >= a and (i - a) % 2 == 0 else 0) for i in range(1, k)]
    lhs = ladder_multisum(
        k,
        order,
        quad=Fraction(1, 2),
        lin=lin,
        nlin=[0] * (k - 1),
        level_denom=_Q,
        innermost=_Q2,
        numer=_NEG_SQRT_Q,
        denom=2,
    )
    theta = [(Fraction(0), 1)]
    r = 1
    while True:
        e1 = Fraction((k + 1) * r * r - (k - a + 1) * r, 2)
        if e1 >= order:
            break
        sgn = -1 if r % 2 else 1
        theta.append((e1, sgn))
        theta.append((Fraction((k + 1) * r * r + (k - a + 1) * r, 2), sgn))
        r += 1
    cs = list(Series.from_terms(theta, order, 2).coeffs)
    _mul_factors(cs, _NEG_SQRT_Q, None, 2)
    return lhs, Series(_div_factors(cs, _Q, None, 2), order, 2)
