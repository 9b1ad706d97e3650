"""Sum and product sides of the Gordon-style identity family.

Every identity here equates a multiple sum over a descending ladder
N_1 >= N_2 >= ... >= N_{k-1} >= 0 with an infinite product.  The sums
share one shape: the squares N_i^2, optional linear terms in
the N_i and in the gaps n_i = N_i - N_{i+1}, finite Pochhammer
denominators per level, and an optional numerator factor on the
innermost index.  :func:`ladder_multisum` evaluates that shape once:
each level is a triangle of q-Pascal cells (one shifted addition of
two int lists each, cut to the window the outer levels leave below
the order), and for every k only the final sum over N_1 divides, by
Horner, because a division is an ascending Python loop where a
multiplication is a shifted ``map`` in C; at k = 2 the innermost level
is level 1 and has no cells.
Every row and cell is an int list that starts at its least exponent,
so neither the additions nor the divisions pass over leading zeros.  A
row may end before its window, and the slots past its end are zeros:
the innermost rows of AG, W and Wbar, each a monomial q^e, are kept as
the one-entry list [1].

Every product side is a theta series times an eta quotient.  Write
E_b = (q^b; q^b)_inf and theta(m, r) = sum_j (-1)^j q^(m j(j-1)/2 + r j).
Three classical identities turn the paper's products into that form:

* Jacobi's triple product: (q^r, q^(m-r), q^m; q^m)_inf = theta(m, r),
  a series with O(sqrt(N)) terms below q^N;
* Euler's pentagonal theorem: E_b = sum_j (-1)^j q^(b j(3j-1)/2), also
  O(sqrt(N)) terms;
* (-q; q)_inf = E2 / E1, hence (-q^2; q^2)_inf = E4 / E2,
  (-q; q^2)_inf = E2^2 / (E1 E4) and (-q^3; q^2)_inf = (-q; q^2)_inf / (1 + q).

The eta quotient depends only on the row's product shape, not on
(k, a), and :data:`THEOREMS` has four shapes.  :func:`eval_product_side`
keeps them in one table of at most four int lists, each as long as the
largest order asked so far, which :func:`qgordon.clear_caches` empties.
An entry is built in O(N^1.5) Python steps by the kernels
:func:`qgordon.qseries._div_factor`, :func:`qgordon.qseries._mul_eta`
and :func:`qgordon.qseries._div_eta`, only when an order longer than it
is asked; each call adds its O(sqrt(N)) theta terms as shifted passes
over the stored list.  The factor-by-factor builders
(:func:`qgordon.qseries.triple_product`, ``poch_infinite``,
``invert_poch``) are the reference the tests hold the products to.

The table :data:`THEOREMS` is the one place that says, for each tag,
which (k, a) it applies to, both sides as data (a :class:`Ladder` and a
:class:`Product`), and the tag's name on the command line.  The
``eval_multisum_*`` functions read its ladders and
:func:`eval_product_side` its products, each through one check of the
tag, the order and the regime; the sum sides, the Bailey chain and the
CLI ask it which tag of a family holds (k, a).  :func:`verify` compares
each row's sum with its product, except ``Paths``, whose exhaustive
path counts it compares with the Main sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .lattice_paths import _S_counts
from .partitions import GordonParams, _as_params
from .qseries import (
    PochSpec, QExp, Series, _div_eta, _div_factor, _mul_eta, _mul_factor, _order, _theta_walk,
)

# imported for perfbench/tracing.py, which wraps these names on this module
from .lattice_paths import count_S  # noqa: F401
from .qseries import invert_poch, mul, poch_finite, poch_infinite, triple_product  # noqa: F401

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

_NEG_Q_ODD = PochSpec(-1, 1, 2)   # (-q; q^2)


# ---------------------------------------------------------------- generic sum


def _pascal_rows(z: list, x: int, c: int, stops: list) -> list:
    """P_n = sum_m [n m]_(q^x) q^(c (n - m)) z_m for each n < len(stops),
    cut below q^stops[n].  Each z_m and each P_n is a pair (v, cs): the
    int list cs holds the coefficients of q^v, q^(v+1), ..., and may
    end before its window, the slots past its end being zeros; ``z`` is
    only read.

    The cells Y_m start at z_m.  Step j + 1 sets Y_m to
    Y_(m+1) + q^(x m + c) Y_m for every m, ascending.  By the q-Pascal
    rule [n m] = [n-1 m] + x^(n-m) [n-1 m-1], P_j is Y_0 after step j.
    A cell at step j reaches P_n only for n >= j + m, shifted by at
    least c (n - j - m), so while stops[n] - c n does not grow with n,
    the cell is cut below stops[j + m].  A cell starts at the least
    start of its two nonempty parents, so no list carries the zeros
    below it, and a cell is padded with zeros only up to the end of the
    shifted parent added into it.
    """
    ys = [(v, cs[:stop - v] if stop > v else []) for (v, cs), stop in zip(z, stops)]
    out = []
    for j in range(len(stops)):
        out.append(ys[0] if ys else (0, []))
        for m in range(min(len(ys), len(stops) - j - 1)):
            stop = stops[j + 1 + m]
            v, cs = ys[m]
            v += x * m + c
            u, ds = ys[m + 1] if m + 1 < len(ys) else (v, [])
            # (u, ds) is the parent that starts lower, or the nonempty one;
            # the cell is y = ds + q^(v-u) cs below q^(stop-u), from q^u.
            # Plain comparisons, not min() and max(): this runs per cell
            if cs and (not ds or v < u):
                u, ds, v, cs = v, cs, u, ds
            w = stop - u
            y = ds[:w] if w > 0 else []
            off = v - u
            hi = off + len(cs)
            if hi > w:
                hi = w
            if hi > off:
                if hi > len(y):
                    y += [0] * (hi - len(y))
                y[off:hi] = map(add, y[off:hi], cs)
            ys[m] = (u, y)
        del ys[len(stops) - j - 1:]
    return out


def ladder_multisum(
    k: int,
    order: int,
    *,
    lin: Sequence[int],
    nlin: Sequence[int],
    base: int,
    inner: int,
    numer: Optional[PochSpec] = None,
) -> Series:
    """Evaluate the descending-ladder sum to the given order.

    The term for N_1 >= ... >= N_{k-1} >= 0 is::

        q^(sum N_i^2 + sum lin[i-1] * N_i + sum nlin[i-1] * n_i)
        * numer(N_{k-1}) / (q^inner; q^inner)_{N_{k-1}}
        / prod_{i<k-1} (q^base; q^base)_{n_i}

    with n_i = N_i - N_{i+1} and n_{k-1} = N_{k-1}.  ``k``, ``order`` and
    the k - 1 entries of ``lin`` and ``nlin`` must be ints, not bools, and
    those of ``nlin`` nonnegative; ``base`` and ``inner`` must be positive
    ints, not bools, and ``numer`` None or a PochSpec (anything else raises
    ValueError naming the arguments).  The result is on the integer grid.  A
    sum with half squares is the same sum in t = q^(1/2): the Bailey chain's
    limit reads :func:`eval_multisum_main` that way.  For k = 1 the sum is
    empty and equals 1.

    The sum is built on x = q^base.  Write H_i[n] for the sum of levels
    i..k-1 with N_i = n and K_i[n] = (x; x)_n H_i[n].  Since
    1/(x; x)_(n-m) = [n m]_x (x; x)_m / (x; x)_n, level i is
    K_i[n] = q^(g_i(n)) P_n with P_n = sum_m [n m]_x q^(nlin (n - m))
    K_(i+1)[m] (g_i and e_i as in the floor lemma below), and
    :func:`_pascal_rows` adds P_n up from q-Pascal cells, each one
    shifted addition of two int lists, cut to the window the floor
    lemma leaves the rows it reaches.  Every row and every cell is a
    pair (v, cs) whose list cs starts at q^v, its least exponent, and
    may end before its window: the slots past its end are zeros.  A
    row of level i is (g_i(n) + v, cs) for P_n = (v, cs).  The
    innermost K_(k-1)[n] = q^(e_(k-1)(n, 0)) (x; x)_n numer_n / (q^inner; q^inner)_n
    is (e_(k-1)(n, 0), a copy of one running list), the list given one
    factor of each symbol per row.  When ``inner`` is ``base`` and there
    is no numerator, those factors cancel, the row is the monomial
    q^(e_(k-1)(n, 0)), and it is kept as (e_(k-1)(n, 0), [1]).  Only the result
    sum_n K_1[n] / (x; x)_n divides, by Horner: one pass per row of
    level 1, from the top row down, each over the exponents from the
    least start of the rows added so far up to the order.

    Floor lemma.  Write g_j(N) = N^2 + lin[j-1] * N and
    e_j(N, M) = g_j(N) + nlin[j-1] * (N - M) for the exponent level j
    gives N_j = N, N_{j+1} = M.  Every term the sum keeps with N_i = n
    reaches the result multiplied by q^(sum_{j<i} e_j(N_j, N_{j+1})) and
    by series with constant term 1, and that exponent is at least
    f_i(n) = sum_{j<i} g_j(n); so row n of level i is needed only below
    order - f_i(n).  Proof: the sum keeps row N of level j only when
    g_j(N) < order, and since g_j is convex it then keeps every row
    between 0 and N; validation has checked e_j >= 0 on each kept pair.
    A dropped row holds no term below the order, because nlin >= 0 makes
    e_j(N, M) >= g_j(N).
    For N_j = N >= M = N_{j+1} >= n:

    * e_j(N, M) - g_j(M) = (N - M)(N + M + lin + nlin) >= 0, because for
      N > M the row N >= 1 of level j is kept, so row 1 is, and its
      checked exponent e_j(1, 0) is 1 + lin + nlin;
    * g_j(M) - g_j(n) = (M - n)(M + n + lin) >= 0, because for M > n
      rows 1 of levels j and j+1 are kept, so e_j(1, 1) = 1 + lin >= 0
      was checked.

    Summing e_j(N_j, N_{j+1}) >= g_j(n) over j < i gives the floor.  The
    same checks make f_i >= 0 and each window shrink as n grows, as the
    cells' cuts need, on every row an outer row reads; the floor
    is capped below at 0 for the rest.  Row n is dropped once its window
    ends at or below its least exponent, and the rows after it with it;
    every row below the order is still validated, against every inner
    row.
    """
    # a bool is not an int here
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if any(type(v) is not int for v in (order, *lin, *nlin)):
        raise ValueError(f"order, lin and nlin must be ints: {order!r}, {lin!r}, {nlin!r}")
    if type(base) is not int or type(inner) is not int or base < 1 or inner < 1:
        raise ValueError(f"base and inner must be positive ints: {base!r}, {inner!r}")
    if any(v < 0 for v in nlin):
        raise ValueError(f"nlin entries must be >= 0, got {nlin!r}")
    if numer is not None and not isinstance(numer, PochSpec):
        raise ValueError(f"numer must be None or a PochSpec, got {numer!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return Series.one(order)
    if len(lin) != k - 1 or len(nlin) != k - 1:
        raise ValueError("lin and nlin need one entry per level 1..k-1")

    def level_rows(i: int, width: int) -> list:
        """Row exponents n^2 + lin * n of level i for every n below the
        order; the exponent of (n, m) adds nlin * (n - m), least at
        m = min(n, width - 1), which is checked."""
        li, c = lin[i - 1], nlin[i - 1]
        rows = []
        n = 0
        while (base := n * n + li * n) < order:
            if base + c * (n - min(n, width - 1)) < 0:
                raise ValueError(f"negative exponent in level {i} at N = {n}")
            rows.append(base)
            n += 1
        return rows

    lin_sums = list(accumulate(lin, initial=0))

    def floor(i: int, n: int) -> int:
        """f_i(n), the least exponent levels 1..i-1 add to N_i = n."""
        return max((i - 1) * n * n + lin_sums[i - 1] * n, 0)

    # the innermost level: K_(k-1)[n] = q^(e_(k-1)(n, 0)) (x; x)_n numer_n
    # / (q^inner; q^inner)_n from one running list, cut to row n's window and
    # then given factor n of each symbol; rows are kept until it runs
    # empty
    rows = level_rows(k - 1, 1)
    table = []
    run = [1] + [0] * (order - 1)
    # with inner == base and no numerator every row is the monomial q^e,
    # kept as [1]: the slots past a row's end are zeros
    monomial = inner == base and numer is None
    for n, g in enumerate(rows):
        e = g + nlin[-1] * n
        del run[max(order - floor(k - 1, n) - e, 0):]
        if n:
            if inner != base:
                _mul_factor(run, 1, base * n)
                _div_factor(run, 1, inner * n)
            if numer is not None:
                _mul_factor(run, numer.sign, numer.exponent + (n - 1) * numer.base)
        if run:
            table.append((e, run[:1] if monomial else run[:]))
    # level i: K_i[n] = q^(g_i(n)) P_n, P_n added up from the q-Pascal
    # cells of K_(i+1) below the window the floor leaves row n
    for i in range(k - 2, 0, -1):
        width = len(rows)
        rows = level_rows(i, width)
        c = nlin[i - 1]
        stops = []
        for n, g in enumerate(rows):
            if (stop := order - floor(i, n) - g) <= c * (n - min(n, width - 1)):
                break
            stops.append(stop)
        sums = _pascal_rows(table, base, c, stops)
        # g < 0 needs lin < 0, and validation keeps g + v >= 0
        table = [(g + v, cs) for g, (v, cs) in zip(rows, sums)]
    # Horner: sum_n K_1[n] / (x; x)_n as total = (total + K_1[n]) / (1 - x^n)
    # from the top row down, with no division after row 0; total holds
    # q^lo .. q^(order-1), lo the least start added so far, so no
    # division passes over the zeros below it
    lo, total = order, []
    for n in range(len(table) - 1, -1, -1):
        v, cs = table[n]
        if cs:
            if v < lo:
                total[:0] = [0] * (lo - v)
                lo = v
            j = v - lo
            h = j + len(cs)
            total[j:h] = map(add, total[j:h], cs)
        if n:
            _div_factor(total, 1, base * n)
    return Series._unchecked([0] * lo + total, _order(order), 1)


# ---------------------------------------------------------------- the sides as data


class Ladder(NamedTuple):
    """A sum side: the keyword arguments of :func:`ladder_multisum`."""

    lin: list
    nlin: list
    base: int
    inner: int
    numer: Optional[PochSpec] = None


class Product(NamedTuple):
    """A product side: the sum of q^s theta(m, r) over the pairs (s, r)
    in ``thetas``, divided by 1 + q^e for each e in ``divisors``, times
    E_b for each b in ``times`` and over E_b for each b in ``over``."""

    m: int
    thetas: Tuple[Tuple[int, int], ...]
    divisors: Tuple[int, ...]
    times: Tuple[int, ...]
    over: Tuple[int, ...]


def _ag_ladder(k: int, a: int) -> Ladder:
    """Linear terms N_a + ... + N_{k-1}, all denominators (q; q)."""
    return Ladder([1 if i >= a else 0 for i in range(1, k)], [0] * (k - 1), 1, 1)


def _w_ladder(k: int, a: int) -> Ladder:
    """Linear terms 2 N_i on i = a, a+2, ..., all denominators (q^2; q^2)."""
    lin = [2 if i >= a and (i - a) % 2 == 0 else 0 for i in range(1, k)]
    return Ladder(lin, [0] * (k - 1), 2, 2)


def _wbar_ladder(k: int, a: int) -> Ladder:
    """Linear terms N_i for i >= a - 1 + (a mod 2) and n_i for odd
    i < a - 1, all denominators (q^2; q^2)."""
    lin = [1 if i >= a - 1 + a % 2 else 0 for i in range(1, k)]
    nlin = [1 if i % 2 == 1 and i < a - 1 else 0 for i in range(1, k)]
    return Ladder(lin, nlin, 2, 2)


def _main_ladder(k: int, a: int) -> Ladder:
    """The W ladder with (q^4; q^4) innermost and a (-q; q^2) numerator."""
    return _w_ladder(k, a)._replace(inner=4, numer=_NEG_Q_ODD)


def _main_product(k: int, a: int) -> Product:
    """theta(m, a) E2 / (E1 E4), m = 2k + 2: the Main product, and the
    W_same one in the other regime."""
    return Product(2 * k + 2, ((0, a),), (), (2,), (1, 4))


# ---------------------------------------------------------------- sum sides


def _sum_side(theorem: str, gp, order) -> Series:
    """Sum side for a theorem tag: the row's :class:`Ladder` through
    :func:`ladder_multisum`, refused as :func:`eval_product_side` refuses."""
    thm, gp = _checked(theorem, gp, order)
    return ladder_multisum(gp.k, order, **thm.ladder(gp.k, gp.a)._asdict())


def eval_multisum_AG(gp, order) -> Series:
    """Sum side of the classic multisum (the ``AG`` row)."""
    return _sum_side(_tag_for("ag", gp), gp, order)


def eval_multisum_W(gp, order) -> Series:
    """Sum side of the even-parts-even-multiplicity family; both W rows
    share this ladder."""
    return _sum_side(_tag_for("w", gp), gp, order)


def eval_multisum_Wbar(gp, order) -> Series:
    """Sum side of the odd-parts-even-multiplicity family; both Wbar
    rows share this ladder."""
    return _sum_side(_tag_for("wbar", gp), gp, order)


def eval_multisum_main(gp, order) -> Series:
    """Sum side of the parity-restricted theorem (the ``Main`` row)."""
    return _sum_side(_tag_for("main", gp), gp, order)


# ---------------------------------------------------------------- product sides


#: (divisors, times, over) of a Product -> its eta quotient's coefficients
#: below the largest order asked so far; a stored list is never mutated,
#: so a caller may read it while another call replaces the entry
_ETA_QUOTIENTS: dict = {}


def _eta_quotient(p: Product, order: int) -> list:
    """At least ``order`` coefficients of p's eta quotient; an entry
    shorter than that is rebuilt to ``order``."""
    key = (p.divisors, p.times, p.over)
    cs = _ETA_QUOTIENTS.get(key)
    if cs is None or len(cs) < order:
        cs = [1] + [0] * (order - 1)
        for e in p.divisors:
            _div_factor(cs, -1, e)
        for b in p.times:
            _mul_eta(cs, b)
        for b in p.over:
            _div_eta(cs, b)
        _ETA_QUOTIENTS[key] = cs
    return cs


def eval_product_side(theorem: str, gp, order: int) -> Series:
    """Product side for a theorem tag, as a series to ``order``: the
    row's :class:`Product`, each theta term +-q^(s+e) added as one
    shifted pass over the eta quotient of the row's shape.

    The quotient comes from a table with one entry per product shape
    (at most four), each as long as the largest order asked so far; an
    entry is rebuilt only when a longer order is asked, and
    :func:`qgordon.clear_caches` empties the table.

    Raises:
        ValueError: for an unknown tag, an order that is not a positive
            int, or a (k, a) outside the tag's regime.
    """
    thm, gp = _checked(theorem, gp, order)
    p = thm.product(gp.k, gp.a)
    eta = _eta_quotient(p, order)
    cs = [0] * order
    for s, r in p.thetas:
        for e, c in _theta_walk(r, p.m, order - s):
            cs[e + s:] = map(add if c == 1 else sub, cs[e + s:], eta)
    return Series._unchecked(cs, _order(order), 1)


# ---------------------------------------------------------------- theorem table


class Theorem(NamedTuple):
    """One row of :data:`THEOREMS`: the tag's command-line family, its
    (k, a) regime, and ``ladder(k, a)`` and ``product(k, a)``, the
    identity's two sides as data, which the ``eval_multisum_*``
    functions and :func:`eval_product_side` evaluate."""

    family: str  # the command line's --theorem name
    applies: Callable[[int, int], bool]  # the (k, a) regime
    ladder: Callable[[int, int], Ladder]
    product: Callable[[int, int], Product]


def _opposite_parity(k: int, a: int) -> bool:
    return (k - a) % 2 == 1


#: Every theorem tag, in the order the command line lists and sweeps them.
THEOREMS = MappingProxyType({
    "AG": Theorem(
        "ag", lambda k, a: True, _ag_ladder, lambda k, a: Product(2 * k + 1, ((0, a),), (), (), (1,))),
    "W_same": Theorem("w", lambda k, a: (k - a) % 2 == 0, _w_ladder, _main_product),
    # (theta(m, a + 1) + q theta(m, a - 1)) E2 / (E1 E4 (1 + q)); at a = 1
    # theta(m, 0) vanishes, its terms for r and 1 - r cancelling
    "W_diff": Theorem(
        "w", _opposite_parity, _w_ladder,
        lambda k, a: Product(2 * k + 2, ((0, a + 1), (1, a - 1)), (1,), (2,), (1, 4))),
    "Wbar_odd_even": Theorem(
        "wbar", lambda k, a: k % 2 == 1 and a % 2 == 0, _wbar_ladder,
        lambda k, a: Product(2 * k + 2, ((0, a),), (), (4,), (2, 2))),
    "Wbar_even_odd": Theorem(
        "wbar", lambda k, a: k % 2 == 0 and a % 2 == 1, _wbar_ladder,
        lambda k, a: Product(2 * k + 2, ((0, a + 1),), (), (4,), (2, 2))),
    "Main": Theorem("main", _opposite_parity, _main_ladder, _main_product),
    # exhaustive path counts against the Main sum: verify's one exception
    "Paths": Theorem("paths", _opposite_parity, _main_ladder, _main_product),
})


def _tag_for(name: str, gp) -> str:
    """The one tag of the --theorem family ``name`` whose regime holds (k, a)."""
    gp = _as_params(gp)
    for tag, thm in THEOREMS.items():
        if thm.family == name and thm.applies(gp.k, gp.a):
            return tag
    raise ValueError(f"theorem {name} does not apply to (k, a) = ({gp.k}, {gp.a})")


def _checked(theorem: str, gp, order) -> Tuple[Theorem, GordonParams]:
    """The row of ``theorem`` and ``gp`` as GordonParams, once the tag,
    the order and the (k, a) regime have been checked."""
    thm = THEOREMS.get(theorem)
    if thm is None:
        raise ValueError(f"unknown theorem tag {theorem!r}; pick from {tuple(THEOREMS)}")
    if type(order) is not int or order < 1:  # a bool is not one
        raise ValueError(f"order must be a positive int, got {order!r}")
    gp = _as_params(gp)
    if not thm.applies(gp.k, gp.a):
        raise ValueError(f"theorem {theorem} does not apply to (k, a) = ({gp.k}, {gp.a})")
    return thm, gp


# ---------------------------------------------------------------- verification


@dataclass(frozen=True)
class IdentitySpec:
    """One identity instance: a theorem tag, parameters, and an order."""

    theorem: str
    gp: GordonParams
    order: int

    def __post_init__(self):
        _, gp = _checked(self.theorem, self.gp, self.order)
        if gp.k < 2:
            raise ValueError(f"identities start at k = 2, got k = {gp.k}")
        object.__setattr__(self, "gp", gp)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity to its requested order."""

    spec: IdentitySpec
    lhs: Series
    rhs: Series
    equal: bool
    first_discrepancy: Optional[QExp]

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
    sums = _sum_side(t, gp, order)
    if t == "Paths":  # the exhaustive path counts against the Main sum
        lhs, rhs = Series.from_terms(enumerate(_S_counts(order - 1, gp)), order), sums
    else:
        lhs, rhs = sums, eval_product_side(t, gp, order)
    window = min(lhs.order, rhs.order)
    if window < order:
        raise ValueError(
            f"{t} (k={gp.k}, a={gp.a}): the sides are known only below q^{window}, short of q^{order}"
        )
    first = lhs.first_discrepancy(rhs)
    return VerificationReport(spec=spec, lhs=lhs, rhs=rhs, equal=first is None, first_discrepancy=first)
