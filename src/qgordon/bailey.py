"""Bailey pairs over the unit base and the chain that proves the
parity-restricted identity.

A Bailey pair here is a pair of series families (alpha_n, beta_n)
tied together by

    beta_n = sum_{r=0}^{n} alpha_r / ((q; q)_{n-r} (q; q)_{n+r}).

Everything lives on the exponent grid of halves (denominator 2), to
which a pair promotes each series once, when it is built, because the
chain steps introduce q^{n^2/2} weights and the factor (-q^{1/2}; q)_n.
The chain starts from the unit pair, doubles the base variable once,
and then alternates half-weight insertions with a template swap on
alpha; its closed-form endpoint feeds the telescoped limit.  The
integer- and half-weight insertions share one body.  The code works in
t = q^(1/2), where a half-grid slot s is the exponent of t^s and every
symbol has int exponents, and reads the half grid only where it builds
a Series.  The steps whose only factors are (q; q) or (q^2; q^2) run on
one class of slots at a time, as series in q: :func:`check_pair` splits
every alpha and beta into its even and its odd slots, and
:func:`apply_D1`, whose betas fill the even slots only, computes them in
q and lays them onto the even slots.  The half-weight step mixes the
classes through (-q^(1/2); q) and stays in t.  Every step lays out its
betas through :func:`_series` or :func:`_even`.

Every step divides by (x^2; x^2) in its own variable, x = t for S1 and
S2 and x = q for D1, keeping one running quotient per term
(:func:`_quotient_sums`): each row of a step is read on its own, so one
division of the whole sum at the end, as the ladder sums do, would not
serve them.  Two kinds of quotient do not depend on the
pair: the check's 1 / ((q; q)_{n-r} (q; q)_{n+r}), and term 0 of each
step's sums, because every pair a chain builds has beta_0 = alpha_0 = 1.
Both are read from the one table of quotient rows (:func:`_table_rows`),
keyed by their symbols.  The unit pair and every step build their pair
without the public constructor's checks, which cannot fail on the
half-grid series, of one order, that they just made.  In t the limit's
sum is exactly the parity-restricted sum of :mod:`qgordon.identities`
(the paper's closing substitution q -> q^2), so the limit reads that sum
on the half grid.

Every alpha along the chain has one shape, the terms r = +-m of a theta
series (:func:`qgordon.qseries._theta_pair`):

    alpha_m = (-1)^m (q^(e3 m(m-1)/2 + e1 m) + q^(e3 m(m+1)/2 - e1 m)),

with (e1, e3) = (0, 1) for the unit pair, (1, 2A) before and (0, 2A)
after the swap with coefficient A, and (a/2, k+1) at the endpoint,
whose sum over m is the limit's theta series.  The code passes e1 and
e3 in t, that is doubled.  So a pair holds each alpha as its terms, its
nonzero (slot, c) pairs below the pair's slot count, and the steps map
the terms: S1 and S2 add w r^2 to each slot of alpha_r and drop the
slots that reach the order, D1 doubles each slot, and the swap compares
the terms with its template and puts in the next template's.  The check
reads them as they are.  Only reading ``BaileyPair.alpha`` builds
Series from them (:func:`_half_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, mul as times, sub  # ``mul`` is qseries.mul, imported below
from typing import Tuple

from . import identities
from .partitions import _as_params, _check_n_max
from .qseries import PochSpec, QExp, Series, _div_factor, _div_factors, _mul_factors, _order, _slots
from .qseries import _theta_pair

# imported for perfbench/tracing.py, which wraps these names on this module
from .identities import ladder_multisum  # noqa: F401
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

# every step's divisor, in its own variable x: t = q^(1/2) for S1 and S2, q for D1
_X2 = PochSpec(1, 2, 2)       # (x^2; x^2)
_NEG_T = PochSpec(-1, 1, 2)   # (-t; t^2) = (-q^(1/2); q), S2's second divisor
_NEG_Q = PochSpec(-1, 1, 1)   # (-q; q), D1's numerator


@dataclass(frozen=True)
class BaileyPair:
    """alpha_0..alpha_n_max and beta_0..beta_n_max as truncated series.

    Only the unit base is supported: the defining relation above has
    (q; q) factors on both wings.

    Each alpha is held as its terms: the (slot, c) pairs of its nonzero
    half-grid slots below the pair's slot count, by ascending slot, which
    is all that the steps and the check read.  A pair the chain built
    holds no other alpha: ``alpha`` builds its Series from the terms, at
    the pair's order, on first read.
    """

    alpha: Tuple[Series, ...]
    beta: Tuple[Series, ...]

    def __post_init__(self):
        for field in ("alpha", "beta"):
            series = tuple(getattr(self, field))
            for i, s in enumerate(series):
                if not isinstance(s, Series):
                    raise TypeError(f"{field}[{i}] must be a Series, got {type(s).__name__}")
            # the chain reads every series by its half-grid slots
            object.__setattr__(self, field, tuple(s._promote(2) for s in series))
        alpha, beta = self.alpha, self.beta
        if not alpha or len(alpha) != len(beta):
            raise ValueError(
                f"alpha and beta must be equally long and nonempty, got {len(alpha)} and {len(beta)}"
            )
        # read on every step and check; not a field, so equality ignores it
        object.__setattr__(self, "_order", min(s.order for s in alpha + beta))
        length = _slots(self._order, 2)  # slots past the pair's order are outside every check
        terms = tuple(tuple((i, s.coeffs[i]) for i in compress(range(length), s.coeffs)) for s in alpha)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _unchecked(cls, alpha: tuple, beta: tuple) -> "BaileyPair":
        """A pair built unvalidated, for the unit pair and the chain steps:
        the caller guarantees equally long nonempty tuples of alpha's
        terms, below the slot count, and of half-grid betas that all share
        one order object."""
        bp = object.__new__(cls)
        object.__setattr__(bp, "_terms", alpha)
        object.__setattr__(bp, "beta", beta)
        object.__setattr__(bp, "_order", beta[0].order)
        return bp

    def __getattr__(self, name):
        """Called only for a name the pair does not hold: ``alpha``, on
        its first read from a pair the chain built."""
        if name != "alpha":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        alpha = tuple(_half_grid(t, self._order) for t in self._terms)
        object.__setattr__(self, "alpha", alpha)
        return alpha

    @property
    def n_max(self) -> int:
        return len(self._terms) - 1

    @property
    def order(self) -> QExp:
        """The smallest truncation order over every alpha and beta."""
        return self._order


def _half_grid(terms, order) -> Series:
    """sum c q^(s/2) over the (slot s, c) pairs in ``terms``, on the half
    grid; slots at or above the order are dropped."""
    order = _order(order)
    cs = [0] * _slots(order, 2)
    for s, c in terms:
        if s < len(cs):
            cs[s] += c
    return Series._unchecked(cs, order, 2)


def unit_pair(n_max: int, order) -> BaileyPair:
    """The pair every chain starts from: beta_n = [n == 0] and
    alpha_n = (-1)^n (q^((n^2-n)/2) + q^((n^2+n)/2))."""
    _check_n_max(n_max)
    order = _order(order)
    length = _slots(order, 2)
    alpha = tuple(_template(0, 2, n, length) for n in range(n_max + 1))
    beta = (_half_grid([(0, 1)], order),) + (_half_grid((), order),) * n_max
    return BaileyPair._unchecked(alpha, beta)


def _template(e1: int, e3: int, m: int, length: int) -> tuple:
    """alpha_m of the theta template with e1 and e3 in t (:func:`_theta_pair`),
    as its terms below slot ``length``; its two slots ascend and differ,
    because every template here has 0 <= 2 e1 < e3."""
    return tuple(t for t in _theta_pair(e1, e3, m) if t[0] < length)


def _mismatch(bp: BaileyPair, e1: int, e3: int) -> int | None:
    """The first m whose alpha_m differs from the theta template with e1
    and e3 in t below the pair's slot count, or None if every one matches."""
    length = _slots(bp.order, 2)
    # both are the nonzero slots below the pair's order, by ascending slot
    return next((m for m, t in enumerate(bp._terms) if t != _template(e1, e3, m, length)), None)


def _alpha(bp: BaileyPair, n: int) -> Series:
    """alpha_n as ``bp.alpha[n]`` reads it, built from its terms alone."""
    return _half_grid(bp._terms[n], bp.order)


def _head(s: Series, length: int) -> Tuple[int, list]:
    """(v, cs) with s = q^(v/2) * cs on the half grid, v the first
    nonzero slot and cs known below slot ``length``."""
    cs = s.coeffs[:length]
    v = next(compress(count(), cs), len(cs))
    return v, list(cs[v:])


def _series(v: int, cs: list, order: QExp) -> Series:
    """q^(v/2) * cs on the half grid; v + len(cs) must be its slot count."""
    return Series._unchecked([0] * v + cs, order, 2)


def _even(v: int, cs, order: QExp) -> Series:
    """q^v * cs, a series in q, on the even slots of the half grid (q^j is
    slot 2j); v + len(cs) must be its slot count on the integer grid."""
    even = [0] * _slots(order, 2)
    even[2 * v::2] = cs
    return Series._unchecked(even, order, 2)


# ---------------------------------------------------------------- quotient rows


def _shifted_sum(terms: list, lo: int, length: int) -> list:
    """sum q^at * cs over the (at, cs) pairs in ``terms``, as the
    coefficients of q^lo .. q^(length - 1); each nonempty term must lie
    in that window.  The terms are padded to the window and summed
    column by column by the builtin ``sum``, which keeps its running
    total in a C long while it fits, so a column of t small ints makes
    one new int, not t."""
    rows = []
    for at, cs in terms:
        if cs:
            row = [0] * (length - lo)
            row[at - lo:at - lo + len(cs)] = cs
            rows.append(row)
    return list(map(sum, zip(*rows))) if rows else [0] * (length - lo)


#: symbols -> the rows of :func:`_table_rows` for that key, each a list of
#: int tuples known below the longest window asked of the key
_QUOTIENT_ROWS: dict = {}


def _table_rows(symbols: tuple, last: int, window: int) -> list:
    """Rows 0..last (at least) of the one table of quotient rows, where
    row i is 1 / prod (sign q^exponent; q^base)_(start + i) over the
    (sign, exponent, base, start) int tuples of ``symbols``, the key: int
    tuples, because a tuple of PochSpecs hashes in Python code (0.66
    against 0.11 us per hash of a two-symbol key, Python 3.11).  A key's
    rows are int tuples known below the longest window asked of it:
    a shorter window reads prefixes, a larger ``last`` extends the rows by
    one pass per symbol, and a longer window rebuilds that key alone.  A
    row is never mutated, so a caller may keep reading one while another
    call extends or rebuilds its key."""
    rows = _QUOTIENT_ROWS.get(symbols)
    if rows is None or len(rows[0]) < window:
        cs = [1] + [0] * (window - 1)
        for sign, first, step, start in symbols:
            _div_factors(cs, PochSpec(sign, first, step), start)
        rows = _QUOTIENT_ROWS[symbols] = [tuple(cs)]
    for i in range(len(rows), last + 1):
        cs = list(rows[-1])
        for sign, first, step, start in symbols:
            _div_factor(cs, sign, first + (start + i - 1) * step)
        rows.append(tuple(cs))
    return rows


def _quotient_sums(terms: list, length: int, shift: int = 0, row_spec=None) -> list:
    """sum_{m <= n} x^(shift (n - m)) * terms[m] / (x^2; x^2)_{n-m} for
    each n < len(terms), as (v, cs) pairs standing for x^v * cs with cs
    known below exponent ``length``; a PochSpec ``row_spec`` also divides
    term m by (row_spec)_n / (row_spec)_m, so by its factor n - 1 at row n.
    Any part of a weight that depends on m alone rides on term m's start.

    ``terms`` holds (v, cs) pairs of the same form and is consumed: each
    becomes the running quotient terms[m] / (x^2; x^2)_{n-m}, cut to the
    window it still needs before each division by 1 - x^(2 (n - m)), so
    every (n, m) costs one pass per factor.  ``shift`` must be >= 0, so a
    window only shrinks as n grows.  Term 0's first coefficient c, at
    x^v, is read instead as c times row n of
    1 / ((x^2; x^2)_n (row_spec)_n), which no term changes, from the
    table of quotient rows.  The rest of term 0, from its next nonzero
    coefficient on, keeps a running quotient, so any beta_0 is served.
    """
    column = None
    if terms and terms[0][1] and terms[0][0] < length:
        v, cs = terms[0]
        rest = next(compress(count(1), cs[1:]), len(cs))  # the next nonzero coefficient
        terms[0] = (v + rest, cs[rest:])
        if cs[0]:
            specs = (_X2,) if row_spec is None else (_X2, row_spec)
            symbols = tuple((x.sign, x.exponent, x.base, 0) for x in specs)
            column = v, cs[0], _table_rows(symbols, len(terms) - 1, length - v)
    out = []
    for n in range(len(terms)):
        row = []
        lo = length
        if column:
            v, c, rows = column
            at = v + shift * n
            if at < length:
                cs = rows[n][:length - at]
                row.append((at, cs if c == 1 else [c * x for x in cs]))
                lo = at
        for m, (v, cs) in enumerate(terms[: n + 1]):
            at = v + shift * (n - m)
            del cs[max(length - at, 0):]
            if not cs:
                continue
            if m < n:
                _div_factor(cs, 1, 2 * (n - m))
                if row_spec is not None:
                    _div_factor(cs, row_spec.sign, row_spec.exponent + (n - 1) * row_spec.base)
            row.append((at, cs))
            lo = min(lo, at)
        out.append((lo, _shifted_sum(row, lo, length)))
    return out


def check_pair(bp: BaileyPair) -> bool:
    """Whether the defining relation holds for every n up to n_max,
    within each series' truncation window.

    The (q; q) factors step by two half-grid slots, so the relation holds
    on the even and the odd slots apart, and on each class it reads as a
    relation between series in q.  Each nonzero slot c q^e of alpha_r on
    a class contributes c q^e G_{n-r,n+r} to beta_n there, where
    G_{n-r,n+r} = 1 / ((q; q)_{n-r} (q; q)_{n+r}) does not depend on the
    pair: every check reads it from the table of quotient rows
    (:func:`_table_rows`), keyed by (q; q) from 0 and (q; q) from 2r.
    Per class and n, every such term is subtracted from that class of
    beta_n, one pass over the window each, and what is left must be 0.
    """
    length = _slots(bp.order, 2)
    window = (length + 1) // 2  # the even class's slots
    terms = ([], [])  # per class: (r, e, c) for each nonzero slot c q^e of alpha_r
    for r, t in enumerate(bp._terms):
        for slot, c in t:
            terms[slot % 2].append((r, slot // 2, c))
    # row n - r of the key (q; q) from 0, (q; q) from 2r is G_{n-r,n+r}; a longer held
    # window is read by prefixes
    rs = {r for t in terms for r, _, _ in t}
    cols = {r: _table_rows(((1, 1, 1, 0), (1, 1, 1, 2 * r)), bp.n_max - r, window) for r in rs}
    for n in range(bp.n_max + 1):
        beta = bp.beta[n].coeffs
        for p in (0, 1):
            rest = list(beta[p:length:2])
            for r, e, c in terms[p]:
                if r > n:
                    break
                # map stops at the end of rest, so the row needs no cut
                row = cols[r][n - r]
                if c == 1:
                    rest[e:] = map(sub, rest[e:], row)
                elif c == -1:
                    rest[e:] = map(add, rest[e:], row)
                else:
                    rest[e:] = map(sub, rest[e:], map(times, repeat(c), row))
            if any(rest):
                return False
    return True


# ---------------------------------------------------------------- transformations


def _insert(bp: BaileyPair, w: int, row_spec) -> BaileyPair:
    """S1 (w = 2) or S2 (w = 1, with its ``row_spec``): the weight
    q^(w r^2 / 2), which is w r^2 half-grid slots, on alpha_r and beta_r."""
    order = bp.order
    length = _slots(order, 2)
    alpha = []
    for r, t in enumerate(bp._terms):
        pad = w * r * r
        alpha.append(tuple((s + pad, c) for s, c in t if s + pad < length))
    heads = (_head(s, max(length - w * r * r, 0)) for r, s in enumerate(bp.beta))
    terms = [(v + w * r * r, cs) for r, (v, cs) in enumerate(heads)]
    sums = _quotient_sums(terms, length, row_spec=row_spec)
    return BaileyPair._unchecked(tuple(alpha), tuple(_series(v, cs, order) for v, cs in sums))


def apply_S1(bp: BaileyPair) -> BaileyPair:
    """Weight insertion with integer squares:
    alpha'_r = q^(r^2) alpha_r,
    beta'_n = sum_r q^(r^2) beta_r / (q; q)_{n-r}."""
    return _insert(bp, 2, None)


def apply_S2(bp: BaileyPair) -> BaileyPair:
    """Weight insertion with half squares and the (-q^(1/2); q) factor:
    alpha'_r = q^(r^2/2) alpha_r,
    beta'_n = sum_r (-q^(1/2); q)_r q^(r^2/2) beta_r / (q; q)_{n-r}
              all divided by (-q^(1/2); q)_n,
    computed as sum_r q^(r^2/2) beta_r / ((q; q)_{n-r} (-q^(r+1/2); q)_{n-r}),
    whose running quotients all gain the factor 1 + q^(n-1/2) at row n."""
    return _insert(bp, 1, _NEG_T)


def apply_D1(bp: BaileyPair) -> BaileyPair:
    """Base doubling: every series is rescaled q -> q^2 and
    beta'_n = sum_r (-q; q)_{2r} q^(n-r) (q^2 -> q) beta_r / (q^2; q^2)_{n-r}.

    The pair's truncation order doubles along with the exponents, and
    every new series is known to that order and stays on the half grid,
    as after the other steps.  The new betas fill its even slots only, so
    they are computed as series in q: the half-grid slots of beta_r are
    the coefficients of its image under q -> q^2.
    """
    order = 2 * bp.order
    length = _slots(order, 1)
    # q^(s/2) becomes q^s, below the new order since s is below the old one
    alpha = tuple(tuple((2 * s, c) for s, c in t) for t in bp._terms)
    heads = (_head(s, length) for s in bp.beta)
    terms = [(v, _mul_factors(cs, _NEG_Q, 2 * r)) for r, (v, cs) in enumerate(heads)]
    sums = _quotient_sums(terms, length, 1)
    return BaileyPair._unchecked(alpha, tuple(_even(v, cs, order) for v, cs in sums))


def apply_P41(bp: BaileyPair, a_coef: int) -> BaileyPair:
    """Template swap on alpha with beta'_n = q^n beta_n.

    Requires alpha_m = (-1)^m (q^(A m^2 + (A-1) m) + q^(A m^2 - (A-1) m)),
    the theta template with e1 = 1, e3 = 2A for the given A = ``a_coef``;
    the output alpha is the template with e1 = 0, linear coefficient A
    instead of A - 1.

    Raises:
        ValueError: if alpha does not match the required template.
    """
    if type(a_coef) is not int or a_coef < 2:
        raise ValueError(f"template coefficient a_coef must be an int >= 2, got {a_coef!r}")
    m = _mismatch(bp, 2, 4 * a_coef)
    if m is not None:
        raise ValueError(f"alpha_{m} does not match the swap template with A = {a_coef}")
    order = bp.order
    length = _slots(order, 2)
    alpha = tuple(_template(0, 4 * a_coef, m, length) for m in range(bp.n_max + 1))
    beta = []
    for n, s in enumerate(bp.beta):  # q^n is 2n slots
        pad = min(2 * n, length)
        beta.append(_series(pad, list(s.coeffs[:length - pad]), order))
    return BaileyPair._unchecked(alpha, tuple(beta))


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
    identities._tag_for("main", gp)  # the chain proves the Main row: refused outside its regime
    k, a = gp.k, gp.a
    trace = [("unit", unit_pair(n_max, _order(order) / 2))]
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
    the theta template with e1 = a/2, e3 = k+1, which is 1 at n = 0;
    refused, as by :func:`build_chain`, outside the Main row's regime."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    gp = _as_params(gp)
    identities._tag_for("main", gp)
    return _half_grid(_theta_pair(gp.a, 2 * gp.k + 2, n), order)


# ---------------------------------------------------------------- the limit


def limit_identity(gp, order) -> Tuple[Series, Series]:
    """The Main row's two sides on the half grid, as the chain's limit
    states them; criterion 09 of the tests reads that limit off the chain.

    The left side is the parity-restricted sum
    :func:`qgordon.identities.eval_multisum_main` in t = q^(1/2): the
    (k-1)-fold ladder sum with half squares, (q; q) level denominators,
    (q^2; q^2) innermost and a (-q^(1/2); q) numerator.  The right side
    is (-q^(1/2); q)_inf / (q; q)_inf times the alternating theta series
    built from :func:`closed_form_alpha`.  In t that is
    theta(2k+2, a) (-t; t^2)_inf / (t^2; t^2)_inf = theta E2 / (E1 E4),
    the Main product of :func:`qgordon.identities.eval_product_side`,
    so the limit reads that product on the half grid too.  Rescaling
    both sides by 2 gives the parity-restricted sum and product on the
    integer grid.
    """
    gp = _as_params(gp)
    order = _order(order)
    length = _slots(order, 2)
    lhs = identities.eval_multisum_main(gp, length)
    rhs = identities.eval_product_side("Main", gp, length)
    return Series._unchecked(lhs.coeffs, order, 2), Series._unchecked(rhs.coeffs, order, 2)
