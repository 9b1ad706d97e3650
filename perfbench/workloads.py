"""Seeded request streams for the benchmark workloads, and the check
each request runs on its own result.

A request is a frozen dataclass.  ``run()`` calls the package's public
functions, checks every result exactly, and returns how many integer
coefficients it compared; a failed check raises :class:`CheckFailed`.
The package functions are looked up on their modules at call time, so
the spans that :mod:`tracing` installs there see every call.

A workload is a grid of strata (theorem tag or family, k, a), each with
a short list of sizes.  Its stream is a sequence of rounds.  A round
holds every stratum once, each taking the next size from its list;
strata of one group (same request type, tag or family, and k) start at
consecutive places in their lists, so each size appears in about equal
numbers in every round.  Within a round the requests are ranked by size
and visited with a golden-ratio stride from a seeded offset, so any
prefix of a round, such as the part a timed run reaches before it stops,
holds each size in about its share.  The seed fixes the order of the
strata in each group and the offsets.  Together these keep the
run-to-run spread of the timings small.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil, gcd, lcm
from typing import Iterator

from qgordon import bailey, identities, lattice_paths, partitions, qseries

__all__ = [
    "WORKLOADS",
    "CheckFailed",
    "Verify",
    "Counts",
    "PathCounts",
    "RoundTrip",
    "Chain",
    "requests",
]


class CheckFailed(Exception):
    """A request's result disagreed with its reference."""


def _agree(lhs, rhs, below, what: str) -> int:
    """Check that two series agree on a window reaching q^below.

    A window that stops short of ``below`` fails too: windowed ``==``
    would otherwise pass on a side that was silently truncated.
    Returns the number of coefficients compared.
    """
    window = min(lhs.order, rhs.order)
    if window < below:
        raise CheckFailed(f"{what}: window stops at q^{window}, short of q^{below}")
    if lhs != rhs:
        raise CheckFailed(f"{what}: sides differ first at q^{lhs.first_discrepancy(rhs)}")
    return ceil(window * lcm(lhs.denom, rhs.denom))


def _counts_agree(counts: list, series, what: str) -> int:
    """Check counts[n] against the coefficient of q^n for every n."""
    for n, c in enumerate(counts):
        expected = series.coefficient(n)
        if c != expected:
            raise CheckFailed(f"{what}: count {c} but coefficient {expected} at n = {n}")
    return len(counts)


def _gp(k: int, a: int):
    return partitions.GordonParams(k, a)


@dataclass(frozen=True)
class Verify:
    """verify() on one sum = product identity at one order."""

    tag: str
    k: int
    a: int
    order: int

    def run(self) -> int:
        spec = identities.IdentitySpec(self.tag, _gp(self.k, self.a), self.order)
        report = identities.verify(spec)
        what = f"{self.tag} ({self.k},{self.a})"
        if not report.equal:
            raise CheckFailed(f"{what}: verify reports a discrepancy at q^{report.first_discrepancy}")
        return _agree(report.lhs, report.rhs, self.order, what)


@dataclass(frozen=True)
class Counts:
    """Brute-force counts of a partition family for n < limit against
    the matching sum or product side."""

    family: str
    k: int
    a: int
    limit: int

    def run(self) -> int:
        gp = _gp(self.k, self.a)
        oracle = getattr(partitions, f"count_{self.family}")
        counts = [oracle(n, gp) for n in range(self.limit)]
        if self.family == "A":
            side = identities.eval_product_side("AG", gp, self.limit)
        else:
            evaluate = {
                "B": identities.eval_multisum_AG,
                "W": identities.eval_multisum_W,
                "Wbar": identities.eval_multisum_Wbar,
            }[self.family]
            side = evaluate(gp, self.limit)
        return _counts_agree(counts, side, f"{self.family} ({self.k},{self.a})")


@dataclass(frozen=True)
class PathCounts:
    """count_S for n < limit against the Main multisum."""

    k: int
    a: int
    limit: int

    def run(self) -> int:
        gp = _gp(self.k, self.a)
        counts = [lattice_paths.count_S(n, gp) for n in range(self.limit)]
        side = identities.eval_multisum_main(gp, self.limit)
        return _counts_agree(counts, side, f"S ({self.k},{self.a})")


@dataclass(frozen=True)
class RoundTrip:
    """reverse_deconstruct then forward_construct on every S path of
    major index <= n_max; the construction weights, tallied by major
    index, must give the Main multisum's coefficients."""

    k: int
    a: int
    n_max: int

    def run(self) -> int:
        gp = _gp(self.k, self.a)
        paths = lattice_paths.enumerate_S_paths(self.n_max, gp)
        tally = Counter()
        for path in paths:
            data = lattice_paths.reverse_deconstruct(path, gp)
            if lattice_paths.forward_construct(data) != path:
                raise CheckFailed(f"round trip changed {path}")
            if data.weight() != path.major_index:
                raise CheckFailed(f"{path}: weight {data.weight()} != major index {path.major_index}")
            tally[path.major_index] += 1
        side = identities.eval_multisum_main(gp, self.n_max + 1)
        what = f"round trip ({self.k},{self.a})"
        return len(paths) + _counts_agree([tally[n] for n in range(self.n_max + 1)], side, what)


@dataclass(frozen=True)
class Chain:
    """build_chain, check_pair on every link, the closed-form endpoint
    alpha, and the chain's limit rescaled onto the Main sum and product."""

    k: int
    a: int
    n_max: int
    order: int

    def run(self) -> int:
        gp = _gp(self.k, self.a)
        chain = bailey.build_chain(gp, self.n_max, self.order)
        compared = 0
        for label, pair in chain:
            if not bailey.check_pair(pair):
                raise CheckFailed(f"({self.k},{self.a}) link {label} breaks the Bailey relation")
            compared += (pair.n_max + 1) * ceil(2 * pair.order)
        end = chain[-1][1]
        for n, alpha in enumerate(end.alpha):
            closed = bailey.closed_form_alpha(gp, n, end.order)
            compared += _agree(alpha, closed, self.order, f"endpoint alpha_{n}")
        half = Fraction(self.order, 2)
        lhs, rhs = bailey.limit_identity(gp, half)
        compared += _agree(lhs, rhs, half, "chain limit")
        main_sum = identities.eval_multisum_main(gp, self.order)
        main_product = identities.eval_product_side("Main", gp, self.order)
        compared += _agree(qseries.rescale(lhs, 2), main_sum, self.order, "limit sum side")
        compared += _agree(qseries.rescale(rhs, 2), main_product, self.order, "limit product side")
        return compared


# ---------------------------------------------------------------- workloads

_PHI = (1 + 5**0.5) / 2
_PAIRS = tuple((k, a) for k in range(2, 8) for a in range(1, k + 1))
_OPPOSITE = tuple((k, a) for k, a in _PAIRS if (k - a) % 2)


def _verify_stream():
    """Every sum = product tag at every valid (k, a) with k <= 7, three
    times in five at order 80 and otherwise at 160 or 200.  Spreading
    orders evenly instead puts the median among requests whose costs
    differ widely, which makes check_p50_ms jump from run to run."""
    orders = ((80,), (80,), (80,), (160,), (200,))
    for k, a in _PAIRS:
        yield Verify, ("AG", k, a), orders
        yield Verify, ("W_diff" if (k - a) % 2 else "W_same", k, a), orders
    for k, a in _OPPOSITE:
        yield Verify, ("Wbar_odd_even" if k % 2 else "Wbar_even_odd", k, a), orders
        yield Verify, ("Main", k, a), orders


def _oracle_cross_check():
    """Partition counts up to n = 39, path counts up to 23, round trips
    up to major index 20."""
    limits = ((24,), (32,), (40,))
    for family in ("B", "A", "W"):
        for k, a in _PAIRS:
            yield Counts, (family, k, a), limits
    for k, a in _OPPOSITE:
        yield Counts, ("Wbar", k, a), limits
        yield PathCounts, (k, a), ((16,), (20,), (24,))
        yield RoundTrip, (k, a), ((12,), (16,), (20,))


def _bailey_replay():
    """Chains for every opposite-parity (k, a) with k <= 7."""
    sizes = ((6, 40), (6, 50), (6, 60), (6, 80), (8, 40), (10, 40))
    for k, a in _OPPOSITE:
        yield Chain, (k, a), sizes


WORKLOADS = {
    "verify-stream": _verify_stream,
    "oracle-cross-check": _oracle_cross_check,
    "bailey-replay": _bailey_replay,
}


def requests(workload: str, seed: int) -> Iterator:
    """The endless request stream of ``workload`` for ``seed``."""
    strata = list(WORKLOADS[workload]())
    rng = random.Random(f"{workload}/{seed}")
    groups = defaultdict(list)
    for stratum in strata:
        cls, fixed, _ = stratum
        groups[(cls.__name__,) + fixed[:-1]].append(stratum)
    start = {}
    for members in groups.values():
        rng.shuffle(members)
        for stratum in members:
            start[stratum] = len(start)
    n = len(strata)
    step = next(s for s in count(round(n / _PHI)) if gcd(s, n) == 1)
    for r in count():
        ranked = sorted(
            ((start[(cls, fixed, sizes)] + r) % len(sizes), cls.__name__, fixed, cls, sizes)
            for cls, fixed, sizes in strata
        )
        offset = rng.randrange(n)
        for i in range(n):
            size, _, fixed, cls, sizes = ranked[(offset + i * step) % n]
            yield cls(*fixed, *sizes[size])
