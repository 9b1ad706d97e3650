"""Partition oracles for Gordon-type counting.

Families, with f_i the multiplicity of the part i:

* B(k, a): f_1 <= a - 1 and f_i + f_{i+1} <= k - 1 for every i.
* A(k, a): no part congruent to 0, a, or -a modulo 2k + 1.
* W(k, a): B(k, a) members whose even parts all have even multiplicity.
* Wbar(k, a): B(k, a) members whose odd parts all have even multiplicity.

The counts read the families' definitions directly, with no
generating-function shortcut, so they are independent ground truth for
the identity verifiers.  The frequency conditions only link
neighbouring parts, so ``count_B``, ``count_W`` and ``count_Wbar`` run
one dynamic program over the parts 1..n whose state is the
multiplicity of the previous part; ``count_A`` is the usual
restricted-parts count.  Neither lists partitions.  The frequency DP
packs each row of counts by running sum into one Python int, one
field of w = 4 isqrt(n) + 5 bits per sum: a field never exceeds p(n),
and log2 p(n) < 3.71 sqrt(n) < w by Erdős's bound
p(n) < exp(pi sqrt(2n/3)) (Ann. of Math. 43, 1942).  A step over one
part is then O(k) big-int additions and shifts instead of O(n k)
small ones.  One pass to n holds the counts for every m <= n, which
``_gordon_counts`` and ``_A_counts`` return.

The public counts read one table, a list per (family, k, a) of the
counts for n = 0..len - 1.  A call past its end refills the list from
one pass to max(n, 2 len - 1), so the list never holds more than
max(n + 1, 2 len) counts, and a scan of n = 0..N costs about two passes
to N instead of N of them.  ``qgordon.clear_caches()`` empties it.

:func:`partitions_of` lists the partitions of n explicitly (p(n) grows
like exp(pi sqrt(2n/3)), so this is for small n only).  The tests filter
its output by the conditions above to cross-check the dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import isqrt
from typing import Iterable, Optional, Tuple

__all__ = [
    "GordonParams",
    "partitions_of",
    "is_gordon_admissible",
    "count_B",
    "count_A",
    "count_W",
    "count_Wbar",
]

FreqPairs = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class GordonParams:
    """Parameter pair (k, a) with 1 <= a <= k."""

    k: int
    a: int

    def __post_init__(self):
        if not (type(self.k) is int and type(self.a) is int):  # bools are not ints here
            raise TypeError("k and a must be ints")
        if not 1 <= self.a <= self.k:
            raise ValueError(f"need 1 <= a <= k, got k={self.k}, a={self.a}")


def _as_params(gp) -> GordonParams:
    """``gp`` itself, or a GordonParams built from a (k, a) tuple or list;
    anything else raises ValueError naming it."""
    if isinstance(gp, GordonParams):
        return gp
    if not isinstance(gp, (tuple, list)) or len(gp) != 2:
        raise ValueError(f"{gp!r} is not a GordonParams or a (k, a) pair")
    k, a = gp
    return GordonParams(k, a)


def _check_n(n) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"cannot partition {n!r}")


def _check_n_max(n_max) -> None:
    """ValueError unless ``n_max``, the S-path search's bound or a Bailey
    pair's last index, is an int >= 0."""
    if type(n_max) is not int or n_max < 0:  # a bool is not an int here
        raise ValueError(f"n_max must be an int >= 0, got {n_max!r}")


def partitions_of(n: int) -> Tuple[FreqPairs, ...]:
    """All partitions of n, each as ((part, multiplicity), ...) descending.

    Args:
        n: the number being partitioned, n >= 0.

    Returns:
        A tuple over all p(n) partitions, listed anew on each call: no
        cache holds them.
    """
    _check_n(n)
    out: list[FreqPairs] = []
    parts: list[int] = []

    def rec(remaining: int, maxpart: int) -> None:
        if remaining == 0:
            out.append(tuple((p, len(list(g))) for p, g in groupby(parts)))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            parts.append(p)
            rec(remaining - p, p)
            parts.pop()

    rec(n, n)
    return tuple(out)


def _gordon_ok(freqs: FreqPairs, k: int, a: int) -> bool:
    by_part = dict(freqs)
    for part, mult in freqs:
        if part == 1 and mult > a - 1:
            return False
        if mult + by_part.get(part + 1, 0) > k - 1:
            return False
    return True


def is_gordon_admissible(parts: Iterable[int], gp) -> bool:
    """True iff the partition lies in B(k, a).

    Args:
        parts: the parts, any order, positive ints.
        gp: a GordonParams or (k, a) pair.

    Raises:
        ValueError: on non-positive parts or invalid (k, a).
    """
    gp = _as_params(gp)
    sorted_parts = sorted(parts, reverse=True)
    for p in sorted_parts:
        if type(p) is not int or p < 1:
            raise ValueError(f"parts must be positive ints, got {p!r}")
    freqs = tuple((p, len(list(g))) for p, g in groupby(sorted_parts))
    return _gordon_ok(freqs, gp.k, gp.a)


def _field_width(n_max: int) -> int:
    """Bits per packed field for counts of size at most n_max.

    Every field holds a number of partitions of some s <= n_max, so at
    most p(n_max).  Erdős (1942): p(n) < exp(pi sqrt(2n/3)), hence
    log2 p(n) < 3.71 sqrt(n) <= 4 (isqrt(n) + 1) < 4 isqrt(n) + 5.
    """
    return 4 * isqrt(n_max) + 5


def _gordon_packed(n_max: int, gp, parity: Optional[int]) -> Tuple[int, int]:
    """The counts for n = 0..n_max packed into one int, and the field width.

    A transfer DP over the parts i = 1..n_max.  ``rows[f]`` packs, in its
    field s (bits w*s .. w*s + w - 1), the admissible choices of
    f_1..f_i with f_i = f and running sum s.  No field can carry into the
    next (see :func:`_field_width`), so adding rows adds every field at
    once, and a shift by w*g*i adds g copies of the part i.  A virtual
    part 0 of multiplicity k - a starts the chain, so the pair rule
    f_0 + f_1 <= k - 1 is exactly f_1 <= a - 1.
    """
    gp = _as_params(gp)
    _check_n(n_max)
    k = gp.k
    w = _field_width(n_max)
    mask = (1 << (w * (n_max + 1))) - 1
    rows = [0] * k
    rows[k - gp.a] = 1
    for i in range(1, n_max + 1):
        # below[f]: the rows whose multiplicity is at most f, added up
        below = list(accumulate(rows))
        # g = 0 adds no part, so its row needs no mask
        rows = [below[k - 1]] + [
            0
            if g * i > n_max or (g % 2 and i % 2 == parity)
            else (below[k - 1 - g] << (w * g * i)) & mask
            for g in range(1, k)
        ]
    return sum(rows), w


def _gordon_counts(n_max: int, gp, parity: Optional[int] = None) -> list[int]:
    """The partitions of n in B(k, a) for n = 0..n_max, from one pass; if
    ``parity`` is 0 or 1, the parts of that parity must also have even
    multiplicity."""
    if n_max < 0:
        return []
    packed, w = _gordon_packed(n_max, gp, parity)
    field = (1 << w) - 1
    return [(packed >> (w * s)) & field for s in range(n_max + 1)]


def _A_counts(n_max: int, gp) -> list[int]:
    """``count_A(n, gp)`` for n = 0..n_max, from one pass."""
    if n_max < 0:
        return []
    gp = _as_params(gp)
    _check_n(n_max)
    m = 2 * gp.k + 1
    banned = {0, gp.a % m, (-gp.a) % m}
    c = [1] + [0] * n_max
    for p in range(1, n_max + 1):
        if p % m not in banned:
            for s in range(p, n_max + 1):
                c[s] += c[s - p]
    return c


#: the parity argument of ``_gordon_counts`` for each frequency family
_PARITY = {"B": None, "W": 0, "Wbar": 1}

#: (family, k, a) -> the family's counts for n = 0..len - 1
_COUNT_TABLES: dict = {}


def _count(family: str, n: int, gp) -> int:
    """The count of ``family`` at n, read off its table."""
    gp = _as_params(gp)
    _check_n(n)
    key = (family, gp.k, gp.a)
    table = _COUNT_TABLES.get(key, ())
    if n >= len(table):
        n_max = max(n, 2 * len(table) - 1)
        if family == "A":
            table = _A_counts(n_max, gp)
        else:
            table = _gordon_counts(n_max, gp, _PARITY[family])
        _COUNT_TABLES[key] = table
    return table[n]


def count_B(n: int, gp) -> int:
    """Number of B(k, a) partitions of n."""
    return _count("B", n, gp)


def count_A(n: int, gp) -> int:
    """Number of partitions of n avoiding parts = 0, a, -a mod 2k + 1."""
    return _count("A", n, gp)


def count_W(n: int, gp) -> int:
    """B(k, a) partitions of n whose even parts have even multiplicity."""
    return _count("W", n, gp)


def count_Wbar(n: int, gp) -> int:
    """B(k, a) partitions of n whose odd parts have even multiplicity."""
    return _count("Wbar", n, gp)
