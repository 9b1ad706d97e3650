"""Brute-force partition oracles for Gordon-type counting.

Everything here counts by explicit enumeration: partitions of n are
generated once (and cached), then filtered by the relevant frequency
conditions.  No generating-function shortcuts are taken, so these
counts are safe ground truth for the identity verifiers.

Families, with f_i the multiplicity of the part i:

* B(k, a): f_1 <= a - 1 and f_i + f_{i+1} <= k - 1 for every i.
* A(k, a): no part congruent to 0, a, or -a modulo 2k + 1.
* W(k, a): B(k, a) members whose even parts all have even multiplicity.
* Wbar(k, a): B(k, a) members whose odd parts all have even multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Tuple

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


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[FreqPairs, ...]:
    """All partitions of n, each as ((part, multiplicity), ...) descending.

    Args:
        n: the number being partitioned, n >= 0.

    Returns:
        A cached tuple over all p(n) partitions.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"cannot partition {n!r}")
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


def count_B(n: int, gp) -> int:
    """Number of B(k, a) partitions of n, by enumeration."""
    gp = _as_params(gp)
    return sum(1 for freqs in partitions_of(n) if _gordon_ok(freqs, gp.k, gp.a))


def count_A(n: int, gp) -> int:
    """Number of partitions of n avoiding parts = 0, a, -a mod 2k + 1."""
    gp = _as_params(gp)
    m = 2 * gp.k + 1
    banned = {0, gp.a % m, (-gp.a) % m}
    return sum(
        1
        for freqs in partitions_of(n)
        if all(p % m not in banned for p, _ in freqs)
    )


def count_W(n: int, gp) -> int:
    """B(k, a) partitions of n whose even parts have even multiplicity."""
    gp = _as_params(gp)
    total = 0
    for freqs in partitions_of(n):
        if not _gordon_ok(freqs, gp.k, gp.a):
            continue
        if all(m % 2 == 0 for p, m in freqs if p % 2 == 0):
            total += 1
    return total


def count_Wbar(n: int, gp) -> int:
    """B(k, a) partitions of n whose odd parts have even multiplicity."""
    gp = _as_params(gp)
    total = 0
    for freqs in partitions_of(n):
        if not _gordon_ok(freqs, gp.k, gp.a):
            continue
        if all(m % 2 == 0 for p, m in freqs if p % 2 == 1):
            total += 1
    return total
