"""Sum and product sides of the Gordon-style identity family.

Every identity here equates a multiple sum over a descending ladder
N_1 >= N_2 >= ... >= N_{k-1} >= 0 with an infinite product.  The sums
share one shape: a quadratic form in the N_i, optional linear terms in
the N_i and in the gaps n_i = N_i - N_{i+1}, finite Pochhammer
denominators per level, and an optional numerator factor on the
innermost index.  :func:`ladder_multisum` evaluates that shape once;
the ``eval_multisum_*`` wrappers pin down the parameters for each
theorem tag, and :func:`verify` compares a sum against its product to
a requested order and reports the first discrepancy if any.

The table :data:`THEOREMS` is the one place that says, for each tag,
which (k, a) it applies to, which two sides it compares, and its name
on the command line; validation, :func:`verify`,
:func:`eval_product_side` and the CLI all read it.  Theorem tags, in
table order:

* ``AG``: parts not congruent to 0, +-a mod 2k+1 (classic multisum).
* ``W_same`` / ``W_diff``: even parts appear an even number of times;
  the tag records whether k and a share parity (the product side
  differs, and for opposite parity it is a sum of two products).
* ``Wbar_odd_even`` / ``Wbar_even_odd``: odd parts appear an even
  number of times, for k odd with a even and k even with a odd.
* ``Main``: the parity-restricted sum with (-q; q^2)_n numerator and
  (q^4; q^4)_n innermost denominator.
* ``Paths``: major-index generating function of the path family
  S(k, a) against the Main sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence

from .lattice_paths import count_S
from .partitions import GordonParams, _as_params
from .qseries import PochSpec, Series, _div_factors, _mul_factors, _quotient_sums, _slots, triple_product

# imported for perfbench/tracing.py, which wraps these names on this module
from .qseries import invert_poch, mul, poch_finite, poch_infinite  # noqa: F401

__all__ = [
    "THEOREMS",
    "Theorem",
    "IdentitySpec",
    "VerificationReport",
    "ladder_multisum",
    "eval_multisum_AG",
    "eval_multisum_W",
    "eval_multisum_Wbar",
    "eval_multisum_main",
    "eval_product_side",
    "verify",
]

_Q = PochSpec(1, 1, 1)        # (q; q)
_Q2 = PochSpec(1, 2, 2)       # (q^2; q^2)
_Q4 = PochSpec(1, 4, 4)       # (q^4; q^4)
_NEG_Q_ODD = PochSpec(-1, 1, 2)   # (-q; q^2)
_NEG_Q_EVEN = PochSpec(-1, 2, 2)  # (-q^2; q^2)
_NEG_Q3_ODD = PochSpec(-1, 3, 2)  # (-q^3; q^2)


# ---------------------------------------------------------------- generic sum


def ladder_multisum(
    k: int,
    order,
    *,
    quad,
    lin: Sequence,
    nlin: Sequence,
    level_denom: PochSpec,
    innermost: PochSpec,
    numer: Optional[PochSpec] = None,
    denom: int = 1,
) -> Series:
    """Evaluate the descending-ladder sum to the given order.

    The term for N_1 >= ... >= N_{k-1} >= 0 is::

        q^(quad * sum N_i^2 + sum lin[i-1] * N_i + sum nlin[i-1] * n_i)
        * numer(N_{k-1}) / (innermost at N_{k-1})
        / prod_{i<k-1} (level_denom at n_i)

    with n_i = N_i - N_{i+1} and n_{k-1} = N_{k-1}.  ``lin`` and
    ``nlin`` have length k - 1 and may hold Fractions; ``denom`` fixes
    the exponent grid of the result.  For k = 1 the sum is empty and
    equals 1.

    The table H[i][N] accumulates levels i..k-1 with N_i = N; each
    level is capped as soon as its own quadratic term passes the order.
    Table entries are int lists cut to the window their exponent leaves
    below the order, multiplied and divided by Pochhammer factors in
    place (see :func:`qgordon.qseries._quotient_sums`).
    """
    order = Fraction(order)
    quad = Fraction(quad)
    if quad <= 0:
        raise ValueError(f"quadratic coefficient must be positive, got {quad}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return Series.one(order, denom)
    if len(lin) != k - 1 or len(nlin) != k - 1:
        raise ValueError("lin and nlin need one entry per level 1..k-1")
    lin = [Fraction(v) for v in lin]
    nlin = [Fraction(v) for v in nlin]

    # Work on a grid holding every exponent; the result keeps the grid of
    # the symbols and of the exponents that fall below the order.
    used = lcm(denom, innermost.grid(), numer.grid() if numer else 1)
    if k > 2:
        used = lcm(used, level_denom.grid())
    grid = lcm(used, quad.denominator, *(v.denominator for v in lin + nlin))
    length = _slots(order, grid)
    sq = int(quad * grid)
    li = [int(v * grid) for v in lin]
    nli = [int(v * grid) for v in nlin]

    def level_exps(i: int, width: int):
        """Exponent slots e(n, m) of level i for every n below the order
        and m <= n, m < width."""
        rows = []
        n = 0
        while (base := sq * n * n + li[i - 1] * n) < length:
            row = [base + nli[i - 1] * (n - m) for m in range(min(n + 1, width))]
            if min(row) < 0:
                raise ValueError(f"negative exponent in level {i} at N = {n}")
            rows.append(row)
            n += 1
        return rows

    exps = level_exps(k - 1, 1)
    table = []
    for n, (e,) in enumerate(exps):
        cs = [1] + [0] * (length - e - 1)
        _div_factors(cs, innermost, n, grid)
        if numer is not None:
            _mul_factors(cs, numer, n, grid)
        table.append((e, cs))
    for i in range(k - 2, 0, -1):
        rows = level_exps(i, len(table))
        exps += rows
        table = _quotient_sums(table, level_denom, grid, length, rows)
    for row in exps:
        for e in row:
            if e < length:
                used = lcm(used, grid // gcd(e, grid))
    total = [0] * length
    for v, cs in table:
        total[v:] = map(add, total[v:], cs)
    return Series(total[:: grid // used], order, used)


# ---------------------------------------------------------------- sum sides


def eval_multisum_AG(gp, order) -> Series:
    """Sum side of the classic multisum: quadratic N_i^2, linear tail
    N_a + ... + N_{k-1}, all denominators (q; q)."""
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    lin = [1 if i >= a else 0 for i in range(1, k)]
    return ladder_multisum(
        k, order, quad=1, lin=lin, nlin=[0] * (k - 1), level_denom=_Q, innermost=_Q
    )


def eval_multisum_W(gp, order) -> Series:
    """Sum side for the even-parts-even-multiplicity family: linear
    terms 2 N_i on i = a, a+2, ..., all denominators (q^2; q^2)."""
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    lin = [2 if i >= a and (i - a) % 2 == 0 else 0 for i in range(1, k)]
    return ladder_multisum(
        k, order, quad=1, lin=lin, nlin=[0] * (k - 1), level_denom=_Q2, innermost=_Q2
    )


def eval_multisum_Wbar(gp, order) -> Series:
    """Sum side for the odd-parts-even-multiplicity family.

    The linear terms depend on the parity regime: for k odd and a even
    every N_i with i >= a - 1 appears; for k even and a odd every N_i
    with i >= a appears and odd-indexed gaps n_i with i <= a - 2 get a
    linear term as well.
    """
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    if k % 2 == 1 and a % 2 == 0:
        lin = [1 if i >= a - 1 else 0 for i in range(1, k)]
        nlin = [1 if i % 2 == 1 and i <= a - 3 else 0 for i in range(1, k)]
    elif k % 2 == 0 and a % 2 == 1:
        lin = [1 if i >= a else 0 for i in range(1, k)]
        nlin = [1 if i % 2 == 1 and i <= a - 2 else 0 for i in range(1, k)]
    else:
        raise ValueError(f"this family needs k, a of opposite parity with a even iff k odd, got {gp}")
    return ladder_multisum(
        k, order, quad=1, lin=lin, nlin=nlin, level_denom=_Q2, innermost=_Q2
    )


def eval_multisum_main(gp, order) -> Series:
    """Sum side of the parity-restricted theorem: (q^2; q^2) levels,
    (q^4; q^4) innermost, (-q; q^2) numerator."""
    gp = _as_params(gp)
    k, a = gp.k, gp.a
    if (k - a) % 2 == 0:
        raise ValueError(f"this sum needs k and a of opposite parity, got {gp}")
    lin = [2 if i >= a and (i - a) % 2 == 0 else 0 for i in range(1, k)]
    return ladder_multisum(
        k,
        order,
        quad=1,
        lin=lin,
        nlin=[0] * (k - 1),
        level_denom=_Q2,
        innermost=_Q4,
        numer=_NEG_Q_ODD,
    )


# ---------------------------------------------------------------- product sides


def _theta_quotient(m: int, r: int, times: Optional[PochSpec], over: PochSpec, order) -> Series:
    """(q^r, q^(m-r), q^m; q^m)_inf * (times)_inf / (over)_inf, the
    last two multiplied and divided in place."""
    tp = triple_product(r, m - r, m, order)
    cs = list(tp.coeffs)
    if times is not None:
        _mul_factors(cs, times, None, tp.denom)
    return Series(_div_factors(cs, over, None, tp.denom), tp.order, tp.denom)


def _w_diff_product(k: int, a: int, order) -> Series:
    """The two-product right-hand side of ``W_diff``; the second product
    carries (q^(a-1); ...) = (1; ...) = 0 when a = 1 and is skipped."""
    m = 2 * k + 2
    first = _theta_quotient(m, a + 1, _NEG_Q3_ODD, _Q2, order)
    if a == 1:
        return first
    second = _theta_quotient(m, a - 1, _NEG_Q3_ODD, _Q2, order)
    return first + second.shift(1).truncate(order)


def eval_product_side(theorem: str, gp, order) -> Series:
    """Product side for a theorem tag, as a series to ``order``.

    For ``W_diff`` the right-hand side is a sum of two products (the
    second vanishes identically when a = 1).  ``Paths`` shares the
    ``Main`` product.

    Raises:
        ValueError: for an unknown tag or a (k, a) outside its regime.
    """
    thm = THEOREMS.get(theorem)
    if thm is None:
        raise ValueError(f"unknown theorem tag {theorem!r}; pick from {tuple(THEOREMS)}")
    gp = _as_params(gp)
    if not thm.applies(gp.k, gp.a):
        raise ValueError(f"theorem {theorem} does not apply to (k, a) = ({gp.k}, {gp.a})")
    return thm.product(gp.k, gp.a, order)


# ---------------------------------------------------------------- theorem table


class Theorem(NamedTuple):
    """One row of :data:`THEOREMS`.

    :func:`verify` compares ``sum_side(gp, order)`` with
    ``product_side(gp, order)``; :func:`eval_product_side` evaluates
    ``product(k, a, order)``.  The sides look the evaluators up on this
    module at call time, so wrappers installed there see every call.
    """

    family: str  # the command line's --theorem name
    applies: Callable[[int, int], bool]  # the (k, a) regime
    sum_side: Callable[[GordonParams, int], Series]
    product_side: Callable[[GordonParams, int], Series]
    product: Callable[[int, int, int], Series]


def _product_side(tag: str):
    return lambda gp, order: eval_product_side(tag, gp, order)


def _path_counts(gp: GordonParams, order: int) -> Series:
    return Series.from_terms(((n, count_S(n, gp)) for n in range(order)), order)


def _opposite_parity(k: int, a: int) -> bool:
    return (k - a) % 2 == 1


def _main_product(k: int, a: int, order) -> Series:
    """The Main product; W_same has the same one, in the other regime."""
    return _theta_quotient(2 * k + 2, a, _NEG_Q_ODD, _Q2, order)


#: Every theorem tag, in the order the command line lists and sweeps them.
THEOREMS = MappingProxyType({
    "AG": Theorem(
        "ag", lambda k, a: True, lambda gp, n: eval_multisum_AG(gp, n), _product_side("AG"),
        lambda k, a, n: _theta_quotient(2 * k + 1, a, None, _Q, n)),
    "W_same": Theorem(
        "w", lambda k, a: (k - a) % 2 == 0, lambda gp, n: eval_multisum_W(gp, n),
        _product_side("W_same"), _main_product),
    "W_diff": Theorem(
        "w", _opposite_parity, lambda gp, n: eval_multisum_W(gp, n),
        _product_side("W_diff"), _w_diff_product),
    "Wbar_odd_even": Theorem(
        "wbar", lambda k, a: k % 2 == 1 and a % 2 == 0, lambda gp, n: eval_multisum_Wbar(gp, n),
        _product_side("Wbar_odd_even"),
        lambda k, a, n: _theta_quotient(2 * k + 2, a, _NEG_Q_EVEN, _Q2, n)),
    "Wbar_even_odd": Theorem(
        "wbar", lambda k, a: k % 2 == 0 and a % 2 == 1, lambda gp, n: eval_multisum_Wbar(gp, n),
        _product_side("Wbar_even_odd"),
        lambda k, a, n: _theta_quotient(2 * k + 2, a + 1, _NEG_Q_EVEN, _Q2, n)),
    "Main": Theorem(
        "main", _opposite_parity, lambda gp, n: eval_multisum_main(gp, n),
        _product_side("Main"), _main_product),
    # exhaustive path counts against the Main sum
    "Paths": Theorem(
        "paths", _opposite_parity, _path_counts, lambda gp, n: eval_multisum_main(gp, n),
        _main_product),
})


# ---------------------------------------------------------------- verification


@dataclass(frozen=True)
class IdentitySpec:
    """One identity instance: a theorem tag, parameters, and an order."""

    theorem: str
    gp: GordonParams
    order: int

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}; pick from {tuple(THEOREMS)}")
        gp = _as_params(self.gp)
        object.__setattr__(self, "gp", gp)
        k, a = gp.k, gp.a
        if k < 2:
            raise ValueError(f"identities start at k = 2, got k = {k}")
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"order must be a positive int, got {self.order!r}")
        if not THEOREMS[self.theorem].applies(k, a):
            raise ValueError(f"theorem {self.theorem} does not apply to (k, a) = ({k}, {a})")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity to its requested order."""

    spec: IdentitySpec
    lhs: Series
    rhs: Series
    equal: bool
    first_discrepancy: Optional[Fraction]

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.spec.theorem,
            "k": self.spec.gp.k,
            "a": self.spec.gp.a,
            "order": self.spec.order,
            "equal": self.equal,
            "first_discrepancy": None
            if self.first_discrepancy is None
            else str(self.first_discrepancy),
        }


def verify(spec: IdentitySpec) -> VerificationReport:
    """Evaluate both sides of the identity named by ``spec`` and compare.

    Returns:
        A report carrying both series, whether they agree on the window
        below the order, and the first differing exponent otherwise.

    Raises:
        ValueError: if either side stops short of the requested order,
            so that agreement would say nothing about the missing window.
    """
    gp, order = spec.gp, spec.order
    t = spec.theorem
    thm = THEOREMS[t]
    lhs = thm.sum_side(gp, order)
    rhs = thm.product_side(gp, order)
    window = min(lhs.order, rhs.order)
    if window < order:
        raise ValueError(
            f"{t} (k={gp.k}, a={gp.a}): the sides are known only below q^{window}, short of q^{order}"
        )
    return VerificationReport(
        spec=spec,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        first_discrepancy=lhs.first_discrepancy(rhs),
    )
