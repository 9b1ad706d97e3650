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
restricted-parts count.  Each call costs O(n^2 k) integer additions and
lists no partitions.

:func:`partitions_of` lists the partitions of n explicitly (p(n) grows
like exp(pi sqrt(2n/3)), so this is for small n only).  The tests filter
its output by the conditions above to cross-check the dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby
from operator import add
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
        if not (isinstance(self.k, int) and isinstance(self.a, int)):
            raise TypeError("k and a must be ints")
        if not 1 <= self.a <= self.k:
            raise ValueError(f"need 1 <= a <= k, got k={self.k}, a={self.a}")


def _as_params(gp) -> GordonParams:
    """``gp`` itself, or a GordonParams built from a (k, a) pair."""
    if isinstance(gp, GordonParams):
        return gp
    k, a = gp
    return GordonParams(k, a)


def _check_n(n) -> None:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"cannot partition {n!r}")


@lru_cache(maxsize=16)
def partitions_of(n: int) -> Tuple[FreqPairs, ...]:
    """All partitions of n, each as ((part, multiplicity), ...) descending.

    Args:
        n: the number being partitioned, n >= 0.

    Returns:
        A tuple over all p(n) partitions; the 16 most recent are cached.
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
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive ints, got {p!r}")
    freqs = tuple((p, len(list(g))) for p, g in groupby(sorted_parts))
    return _gordon_ok(freqs, gp.k, gp.a)


def _gordon_count(n: int, gp, parity: Optional[int] = None) -> int:
    """Partitions of n in B(k, a); if ``parity`` is 0 or 1, the parts of
    that parity must also have even multiplicity.

    A transfer DP over the parts i = 1..n.  ``rows[f][s]`` counts the
    admissible choices of f_1..f_i with f_i = f and running sum s.  A
    virtual part 0 of multiplicity k - a starts the chain, so the pair
    rule f_0 + f_1 <= k - 1 is exactly f_1 <= a - 1.
    """
    gp = _as_params(gp)
    _check_n(n)
    k = gp.k
    zero = [0] * (n + 1)
    rows = [zero] * k
    rows[k - gp.a] = [1] + zero[1:]
    for i in range(1, n + 1):
        # below[f]: the rows whose multiplicity is at most f, added up
        below = list(accumulate(rows, lambda x, y: x if y is zero else list(map(add, x, y))))
        rows = [
            zero
            if g * i > n or (g % 2 and i % 2 == parity)
            else zero[: g * i] + below[k - 1 - g][: n + 1 - g * i]
            for g in range(k)
        ]
    return sum(row[n] for row in rows)


def count_B(n: int, gp) -> int:
    """Number of B(k, a) partitions of n."""
    return _gordon_count(n, gp)


def count_A(n: int, gp) -> int:
    """Number of partitions of n avoiding parts = 0, a, -a mod 2k + 1."""
    gp = _as_params(gp)
    _check_n(n)
    m = 2 * gp.k + 1
    banned = {0, gp.a % m, (-gp.a) % m}
    c = [1] + [0] * n
    for p in range(1, n + 1):
        if p % m not in banned:
            for s in range(p, n + 1):
                c[s] += c[s - p]
    return c[n]


def count_W(n: int, gp) -> int:
    """B(k, a) partitions of n whose even parts have even multiplicity."""
    return _gordon_count(n, gp, parity=0)


def count_Wbar(n: int, gp) -> int:
    """B(k, a) partitions of n whose odd parts have even multiplicity."""
    return _gordon_count(n, gp, parity=1)
