"""Weighted lattice paths and the staged peak construction.

Paths move right one unit per step: NE rises by 1, SE falls by 1, E
stays level and is only allowed at height 0.  Heights never go
negative.  A *peak* is a vertex with NE before it and SE after it; its
weight is its abscissa, and the major index of a path is the sum of
its peak weights.

The relative height of a peak (x, y) is the largest h for which two
vertices at height y - h enclose it with no higher peak between them
and no peak of the same height strictly to its left inside the
enclosure.  Heights change by at most 1 per step, so it is read off
the nearest dominating peaks: cL is the lowest vertex between the peak
and the nearest peak to its left of height >= y (or the start, if
there is none), cR the lowest vertex between the peak and the nearest
peak to its right of height > y (or the end), and the relative height
is y - max(cL, cR).  The family S(k, a) consists of paths from
(0, k + 1 - a) that stay at or below height k, end at height 0 with a
SE step (or are empty), have every peak weight congruent to its
relative height mod 2, and satisfy a multiple-of-4 condition on E
steps (see :func:`is_S_admissible`).

The second half of the module implements the staged construction that
maps a tuple of sum data (peak counts per stage, an E-block partition,
an uplift choice, and per-stage right-move budgets) onto exactly one
admissible path, together with its exact inverse.  A right move first
transfers along peaks at gap 2, which edits nothing; then each of its
swaps NSE -> ENS, NSN -> NNS and NSS -> SNS carries the token's apex
pair past the one letter after it, which lies outside every apex pair
(else the transfer would have gone on), and at the end of the string it
inserts an E.  So the forward map inserts a token with budget b directly
after the b-th such free letter of the uplifted string, E steps standing
in past its end.  The reverse map reads every budget, E block and uplift
off one scan of the path's peaks, in closed form (see
:func:`reverse_deconstruct`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Sequence, Tuple

from .partitions import GordonParams, _as_params, _check_n_max

__all__ = [
    "LatticePath",
    "ConstructionData",
    "is_S_admissible",
    "count_S",
    "enumerate_S_paths",
    "volcanic_uplift",
    "right_move",
    "forward_construct",
    "reverse_deconstruct",
    "path_to_compact",
    "path_from_compact",
    "path_to_json_obj",
    "path_from_json_obj",
    "path_to_svg",
]

# ---------------------------------------------------------------- walks and peaks


def _walk(start: int, steps: Sequence[str]) -> list[int]:
    """Vertex heights from ``start`` along ``steps``; ValueError on a
    bad start, a dip below 0, an E step off the axis or a bad letter."""
    if type(start) is not int or start < 0:
        raise ValueError(f"start height must be a nonnegative int, got {start!r}")
    hs = [start]
    y = start
    for c in steps:
        # len(hs) - 1 is the index of this step
        if c == "N":
            y += 1
        elif c == "S":
            y -= 1
            if y < 0:
                raise ValueError(f"path dips below height 0 at step {len(hs) - 1}")
        elif c != "E":
            raise ValueError(f"bad step {c!r} at index {len(hs) - 1}; expected N, S or E")
        elif y:
            raise ValueError(f"E step at height {y} (step {len(hs) - 1}); E is only legal at height 0")
        hs.append(y)
    return hs


def _apexes(steps: str) -> list[int]:
    """Abscissae of the peaks: every NE step followed by a SE step."""
    xs = []
    x = steps.find("NS")
    while x >= 0:
        xs.append(x + 1)
        x = steps.find("NS", x + 2)
    return xs


def _peak_scan(start: int, steps: str) -> Tuple[list, list, list, list]:
    """Abscissa, height, relative height and the number of E steps before
    it, for each peak of a valid path, as four lists, left to right.

    Occurrences of "NS" never overlap, and between two apexes a valid
    path reads S^p E^q N^r (an N is followed by N or by an apex's S, and
    an E only follows S or E at height 0), so each piece of
    ``steps.split("NS")`` gives the valley before the next apex and the
    climb to it.  The peaks still waiting for a higher one to their right
    form a stack of nonincreasing heights; each entry keeps the lowest
    vertex between the entry below it (or the start) and its apex, and
    ``low`` is the lowest vertex since the top entry's apex.  A new apex
    of height y resolves every entry lower than y, whose cR is then
    ``low``; the entry left on top is its nearest peak of height >= y,
    so its cL is ``low`` after those merges.  The end resolves the rest.
    """
    xs: list[int] = []
    ys: list[int] = []
    rels: list[int] = []  # cL until the peak is resolved
    es: list[int] = []
    stack: list[tuple[int, int, int]] = []  # (height, peak index, lowest vertex below it)
    x = e = 0
    y = low = start
    for i, piece in enumerate(steps.split("NS")):
        if i:
            # the apex (x, y) closing the previous piece
            while stack and stack[-1][0] < y:
                h, j, below = stack.pop()
                rels[j] = h - max(rels[j], low)
                low = min(low, below)
            stack.append((y, i - 1, low))
            xs.append(x)
            ys.append(y)
            rels.append(low)
            es.append(e)
            x += 1
            y -= 1
        down = len(piece) - len(piece.lstrip("S"))
        up = len(piece) - len(piece.rstrip("N"))
        e += len(piece) - down - up
        low = y - down
        y = low + up + 1
        x += len(piece) + 1
    while stack:
        h, j, below = stack.pop()
        rels[j] = h - max(rels[j], low)
        low = min(low, below)
    return xs, ys, rels, es


# ---------------------------------------------------------------- path type


@dataclass(frozen=True)
class LatticePath:
    """Immutable path: a start height and a string over N, S, E.

    Validation enforces nonnegative heights and the E-at-height-0 rule.
    Ending at height 0 with a SE step is *not* enforced here (move
    primitives want to talk about local fragments); see
    :attr:`is_terminal`.
    """

    start: int
    steps: str

    def __post_init__(self):
        _walk(self.start, self.steps)

    @classmethod
    def _unchecked(cls, start: int, steps: str) -> "LatticePath":
        """A path whose walk is known valid, built without validating it,
        so that whoever walks it next walks it once."""
        path = object.__new__(cls)
        object.__setattr__(path, "start", start)
        object.__setattr__(path, "steps", steps)
        return path

    # -------------------------------------------------------------- queries

    def heights(self) -> Tuple[int, ...]:
        """Vertex heights, length len(steps) + 1."""
        return tuple(_walk(self.start, self.steps))

    @property
    def end_height(self) -> int:
        return self.start + self.steps.count("N") - self.steps.count("S")

    @property
    def is_terminal(self) -> bool:
        """Ends at height 0 and is empty or closes with a SE step."""
        return self.end_height == 0 and (not self.steps or self.steps[-1] == "S")

    def peaks(self) -> Tuple[Tuple[int, int], ...]:
        """(x, y) for every peak, left to right."""
        xs, ys, _, _ = _peak_scan(self.start, self.steps)
        return tuple(zip(xs, ys))

    def relative_heights(self) -> Tuple[int, ...]:
        """Relative height of each peak, aligned with :meth:`peaks`."""
        return tuple(_peak_scan(self.start, self.steps)[2])

    @property
    def major_index(self) -> int:
        """Sum of the peak weights."""
        return sum(_apexes(self.steps))

    def __str__(self) -> str:
        return path_to_compact(self)


# ---------------------------------------------------------------- admissibility


def _S_scan(path: LatticePath, gp: GordonParams) -> Tuple[list, list, list] | None:
    """Abscissa, relative height and E steps before it of each peak of an
    S(k, a) path, as three lists, or None if the path is not in S(k, a);
    one scan of its peaks.  TypeError unless ``path`` is a LatticePath."""
    if not isinstance(path, LatticePath):
        raise TypeError(f"path must be a LatticePath, got {type(path).__name__}")
    k = gp.k
    if path.start != k + 1 - gp.a or not path.is_terminal:
        return None
    xs, ys, rels, es = _peak_scan(path.start, path.steps)
    # a terminal path's highest vertex is its start (<= k) or an apex
    for x, y, r, e in zip(xs, ys, rels, es):
        if y > k or (x - r) % 2 or (r >= k - 1 and e % 4):
            return None
    return xs, rels, es


def is_S_admissible(path: LatticePath, gp) -> bool:
    """Membership test for the path family S(k, a).

    Args:
        path: the candidate path; TypeError unless a LatticePath.
        gp: GordonParams or (k, a).

    Returns:
        True iff the path starts at height k + 1 - a, stays at or below
        height k, is terminal, has every peak weight congruent to its
        relative height mod 2, and has a multiple-of-4 count of E steps
        strictly before each peak of relative height k or k - 1.
    """
    return _S_scan(path, _as_params(gp)) is not None


# ---------------------------------------------------------------- enumeration

#: (k, a) -> (the step strings of the paths found by the largest search,
#: sorted by major index and then by steps; the number of those paths at
#: each major index 0..the bound searched)
_SPATH_CACHE: dict = {}


def enumerate_S_paths(n_max: int, gp) -> Tuple[LatticePath, ...]:
    """All S(k, a) paths with major index <= n_max, by exhaustive search.

    Peak weights are bounded by the major index, so any admissible path
    of weight <= n_max ends by abscissa n_max + k; the search prunes a
    branch as soon as its committed major index plus the weight of the
    cheapest possible further peak exceeds n_max.  The search's words
    are kept per (k, a), so a bound at or below one already searched
    only builds the paths.
    """
    gp = _as_params(gp)
    _check_n_max(n_max)
    k, a = gp.k, gp.a
    words, counts = _SPATH_CACHE.get((k, a), ((), []))
    if len(counts) <= n_max:
        words, counts = _SPATH_CACHE[(k, a)] = _search_S(n_max, gp)
    return tuple(LatticePath._unchecked(k + 1 - a, w) for w in words[:sum(counts[:n_max + 1])])


def _search_S(n_max: int, gp: GordonParams) -> tuple[tuple, list]:
    """The step strings of the S(k, a) paths of major index <= n_max,
    sorted by major index and then by steps, and the number of them at
    each major index 0..n_max."""
    k = gp.k
    start = k + 1 - gp.a
    found: list[tuple[int, str]] = []
    steps: list[str] = []

    def rec(y: int, major: int) -> None:
        x = len(steps)
        if y == 0 and (not steps or steps[-1] == "S"):
            # the search only takes legal steps, so the one walk is the test's
            p = LatticePath._unchecked(start, "".join(steps))
            if is_S_admissible(p, gp):
                found.append((major, p.steps))
        if y + 1 <= k and major + x + 1 <= n_max:
            steps.append("N")
            rec(y + 1, major)
            steps.pop()
        if y >= 1:
            m2 = major + x if steps and steps[-1] == "N" else major
            if m2 <= n_max:
                steps.append("S")
                rec(y - 1, m2)
                steps.pop()
        if y == 0 and major + x + 2 <= n_max:
            steps.append("E")
            rec(y, major)
            steps.pop()

    rec(start, 0)
    found.sort()
    counts = [0] * (n_max + 1)
    for major, _ in found:
        counts[major] += 1
    return tuple(w for _, w in found), counts


def _S_table(n: int, gp) -> list[int]:
    """The path counts by major index of a search of S(k, a) to at
    least n."""
    gp = _as_params(gp)
    _check_n_max(n)
    if len(_SPATH_CACHE.get((gp.k, gp.a), ((), []))[1]) <= n:
        # through the public name, so perfbench's tracer sees the search
        enumerate_S_paths(n, gp)
    return _SPATH_CACHE[(gp.k, gp.a)][1]


def count_S(n: int, gp) -> int:
    """Number of S(k, a) paths of major index exactly n."""
    return _S_table(n, gp)[n]


def _S_counts(n_max: int, gp) -> list[int]:
    """``count_S(n, gp)`` for n = 0..n_max, from one search; [] for a
    negative int n_max, and count_S's ValueError for any other non-int."""
    if type(n_max) is int and n_max < 0:
        return []
    return _S_table(n_max, gp)[:n_max + 1]


# ---------------------------------------------------------------- move primitives


def _step_right(steps: list[str], x: int) -> int:
    """One elementary right move of the peak whose apex abscissa is x.

    Handles the transfer chain (a gap of exactly 2 to the next peak
    hands the move to it), the three local swap cases keyed by the step
    after the descent, and E creation when the descent closes the path.
    Returns the apex abscissa of the physically moved peak; the major
    index always grows by exactly 1.
    """
    while x + 2 <= len(steps) - 1 and steps[x + 1] == "N" and steps[x + 2] == "S":
        x += 2
    if x + 1 >= len(steps):
        steps[x - 1 : x - 1] = ["E"]
    elif steps[x + 1] == "E":
        steps[x - 1 : x + 2] = ["E", "N", "S"]
    elif steps[x + 1] == "N":
        steps[x], steps[x + 1] = "N", "S"
    else:
        # sliding down a descent only works for a one-step ascent; a
        # two-sided mountain would split into two peaks
        if x >= 2 and steps[x - 2] == "N":
            raise ValueError(
                f"peak at weight {x} has no elementary right move: "
                "its apex closes a two-sided mountain"
            )
        steps[x - 1], steps[x] = "S", "N"
    return x + 1


def _apex(path: LatticePath, peak_index: int) -> int:
    """The abscissa of the peak_index-th peak's apex; ValueError unless
    ``peak_index`` is an int naming one of the path's peaks."""
    xs = _apexes(path.steps)
    if type(peak_index) is not int or not 0 <= peak_index < len(xs):
        raise ValueError(f"no peak with index {peak_index}; path has {len(xs)} peaks")
    return xs[peak_index]


def right_move(path: LatticePath, peak_index: int) -> Tuple[LatticePath, int]:
    """Apply one elementary right move to the peak_index-th peak.

    Args:
        path: the path to edit.
        peak_index: 0-based index into ``path.peaks()``.

    Returns:
        (new path, index of the physically moved peak in the new path).
        When the addressed peak sits at a weight gap of exactly 2 from
        its right neighbour the move chains to that neighbour.
    """
    steps = list(path.steps)
    new_x = _step_right(steps, _apex(path, peak_index))
    new_path = LatticePath(path.start, "".join(steps))
    return new_path, _apexes(new_path.steps).index(new_x)


def volcanic_uplift(path: LatticePath, peak_index: int) -> LatticePath:
    """Split the peak_index-th peak's apex into two steps one level up.

    The peak's weight grows by 1 and every peak to its right shifts by
    2, so the major index grows by 2r - 1 when the peak is r-th from
    the right.
    """
    x = _apex(path, peak_index)
    return LatticePath(path.start, path.steps[:x] + "NS" + path.steps[x:])


# ---------------------------------------------------------------- construction data


def _ints(values, what: str) -> tuple:
    """``values`` as a tuple (a tuple is kept as it is), refusing any
    entry that is not an int; a bool is not one."""
    vals = tuple(values)
    for v in vals:
        if type(v) is not int:
            raise ValueError(f"{what} entries must be ints, got {vals!r}")
    return vals


def _construction_params(gp) -> GordonParams:
    """``gp`` as a GordonParams; ValueError unless k and a have opposite
    parity, the construction's one regime."""
    gp = _as_params(gp)
    if (gp.k - gp.a) % 2 == 0:
        raise ValueError(f"construction needs k and a of opposite parity, got {gp}")
    return gp


def _check_budgets(rows: tuple, n: tuple) -> None:
    """ValueError unless, for each stage j, the int tuple ``rows[j - 1]``
    holds n_j budgets that are nonnegative evens and do not increase.
    The stages are checked in order, each by its length, then its signs
    and parity, then its order."""
    for j, row in enumerate(rows, 1):
        if len(row) != n[j - 1]:
            raise ValueError(f"stage {j} has {n[j - 1]} tokens but {len(row)} budgets")
        # an OR of ints is negative iff one of them is, and odd iff one is
        if row and ((bits := reduce(or_, row)) < 0 or bits & 1):
            raise ValueError(f"stage {j} budgets must be nonnegative evens, got {row}")
        if len(row) > 1 and row != tuple(sorted(row, reverse=True)):
            raise ValueError(f"stage {j} budgets must be nonincreasing, got {row}")


@dataclass(frozen=True)
class ConstructionData:
    """Sum-side data for the staged construction.

    Attributes:
        gp: the (k, a) pair; k and a must have opposite parity.
        n: (n_1, ..., n_{k-1}), peaks created per stage (stage k-1 first
            in time but last in this tuple).
        east_partition: (b_1, ..., b_{n_{k-1}}), nonincreasing; the i-th
            peak from the right gets 4 * b_i E steps.
        uplift_set: positions from the right (1-based) of stage-(k-1)
            peaks receiving the extra uplift.
        right_moves: one tuple per stage j = 1..k-2; entry i is the
            elementary-move budget of the (i+1)-th token from the right
            at that stage.  Budgets are even and nonincreasing.
    """

    gp: GordonParams
    n: Tuple[int, ...]
    east_partition: Tuple[int, ...] = ()
    uplift_set: frozenset = field(default_factory=frozenset)
    right_moves: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        gp = _construction_params(self.gp)
        object.__setattr__(self, "gp", gp)
        n = _ints(self.n, "n")
        object.__setattr__(self, "n", n)
        if len(n) != gp.k - 1:
            raise ValueError(f"n must have length k - 1 = {gp.k - 1}, got {len(n)}")
        if min(n) < 0:  # k >= 2, so n is not empty
            raise ValueError(f"peak counts must be nonnegative, got {n}")
        b = _ints(self.east_partition, "east_partition")
        object.__setattr__(self, "east_partition", b)
        if len(b) != n[-1]:
            raise ValueError(f"east_partition needs one entry per stage-(k-1) peak ({n[-1]}), got {len(b)}")
        # a nonincreasing tuple is nonnegative when its last entry is
        if b and (b[-1] < 0 or b != tuple(sorted(b, reverse=True))):
            raise ValueError(f"east_partition must be nonincreasing and nonnegative, got {b}")
        up = frozenset(_ints(self.uplift_set, "uplift_set"))
        object.__setattr__(self, "uplift_set", up)
        if up and (min(up) < 1 or max(up) > n[-1]):
            raise ValueError(f"uplift positions must lie in 1..{n[-1]}, got {sorted(up)}")
        rm = tuple(_ints(row, "right_moves") for row in self.right_moves)
        object.__setattr__(self, "right_moves", rm)
        if len(rm) != gp.k - 2:
            raise ValueError(f"right_moves needs one row per stage 1..{gp.k - 2}, got {len(rm)}")
        _check_budgets(rm, n)

    @classmethod
    def _unchecked(cls, gp, n, east_partition, uplift_set, right_moves) -> "ConstructionData":
        """Data known valid, built without validating it, so that
        :func:`reverse_deconstruct` builds its result once.  The caller
        passes the fields as the constructor stores them (a GordonParams
        of opposite parity, tuples of ints, a tuple of them per stage, a
        frozenset) and meeting every condition it checks; the reverse
        map's scan fixes all but the budgets' sign and order, as its
        docstring shows, and it runs the constructor's budget check
        (:func:`_check_budgets`) for those two."""
        data = object.__new__(cls)
        object.__setattr__(data, "gp", gp)
        object.__setattr__(data, "n", n)
        object.__setattr__(data, "east_partition", east_partition)
        object.__setattr__(data, "uplift_set", uplift_set)
        object.__setattr__(data, "right_moves", right_moves)
        return data

    def weight(self) -> int:
        """Major index of the constructed path, straight from the data."""
        a = self.gp.a
        up = self.uplift_set
        total = 4 * sum(self.east_partition) + 2 * sum(up) - len(up) + sum(map(sum, self.right_moves))
        big = 0  # N_j = n_j + ... + n_{k-1}
        for j in range(len(self.n), 0, -1):
            big += self.n[j - 1]
            total += big * big
            if j >= a and (j - a) % 2 == 0:
                total += 2 * big
        return total


# ---------------------------------------------------------------- forward map


def forward_construct(data: ConstructionData) -> LatticePath:
    """Build the admissible path encoded by ``data``.

    Stages run j = k-1 down to 1.  Stage k-1 lays down its peaks at
    1, 3, ..., prepends the first SE pair, inserts the E blocks
    (rightmost peak first) and applies the chosen uplifts.  Each later
    stage uplifts everything standing, inserts its unit peaks at the
    origin, spends the right-move budgets rightmost-token-first, and
    prepends a SE pair when j >= a with j = a mod 2.  TypeError if
    ``data`` is not a ConstructionData.
    """
    if not isinstance(data, ConstructionData):
        raise TypeError(f"data must be a ConstructionData, got {type(data).__name__}")
    return LatticePath(*_build(data))


def _build(data: ConstructionData) -> Tuple[int, str]:
    """Start height and steps of :func:`forward_construct`'s path,
    without validating its walk.

    Occurrences of "NS" never overlap, so uplifting every standing peak
    is ``replace("NS", "NNSS")``; :func:`_place_tokens` then puts each
    token where its moves end, after the b-th free letter for budget b
    (see the module docstring).
    """
    k, a = data.gp.k, data.gp.a
    start = 2
    # initial SE pair, then each unit peak (NNSS if uplifted) preceded by
    # enough E steps to displace it 4 * b_i to the right (i counted from
    # the right)
    m = len(data.east_partition)
    parts = ["SS"]
    placed = 0
    for i, shift in enumerate(reversed(data.east_partition)):
        parts.append("E" * (4 * shift - placed) + ("NNSS" if m - i in data.uplift_set else "NS"))
        placed = 4 * shift
    s = "".join(parts)
    for j in range(k - 2, 0, -1):
        s = _place_tokens(s.replace("NS", "NNSS"), data.right_moves[j - 1])
        if j >= a and (j - a) % 2 == 0:
            s = "SS" + s
            start += 2
    return start, s


def _place_tokens(u: str, budgets: Tuple[int, ...]) -> str:
    """``u`` with a token NS inserted after its b-th free letter for each
    nonincreasing budget b, E steps standing in past its end.  The apex
    pair q of ``u`` has xs[q] - 1 - 2q free letters before it; a token
    beside an apex pair spells NSNS either way."""
    if not budgets or budgets[0] == 0:  # budgets are nonincreasing
        return "NS" * len(budgets) + u
    xs = _apexes(u)
    u += "E" * (budgets[0] + 2 * len(xs) - len(u))
    parts = []
    q = cut = 0
    for b in reversed(budgets):
        while q < len(xs) and xs[q] - 1 - 2 * q < b:
            q += 1
        parts += (u[cut : b + 2 * q], "NS")
        cut = b + 2 * q
    parts.append(u[cut:])
    return "".join(parts)


# ---------------------------------------------------------------- reverse map


def reverse_deconstruct(path: LatticePath, gp) -> ConstructionData:
    """Invert :func:`forward_construct`.

    Args:
        path: a path in S(k, a).
        gp: GordonParams or (k, a), opposite parity.

    Returns:
        The unique ConstructionData mapping onto ``path``.

    Raises:
        ValueError: if k and a have the same parity, the path is not in
            S(k, a), a stage's recovered budgets are negative or increase,
            or the recovered data does not rebuild the path.
        TypeError: if ``path`` is not a LatticePath.

    One scan of the path's relative heights serves every stage, by this
    lemma: a forward stage raises the relative height of every standing
    peak by exactly 1, and its tokens read 1.  So stage j's tokens are
    the peaks whose relative height in ``path`` is j, and the final
    stage's relative heights 1 (kept) and 2 (uplifted) are k - 1 and k.

    Proof.  A peak (x, y) reads y - max(cL, cR), cL and cR being the
    lowest vertices between it and its nearest peaks of height >= y on
    the left and > y on the right (or the ends).

    * Uplift turns every apex NS into NNSS.  Each apex rises by one and
      every other vertex keeps its height; each new vertex sits one
      above an old neighbour of its apex, so no valley changes.  Every
      peak keeps its dominating peaks, cL and cR, and y rises by 1.
    * Prepending NS tokens or an SS pair at the start height h adds
      vertices at h or above before the old start vertex h, so no
      running minimum changes.  Each token reads 1: the vertex before
      it is at h.
    * A right move first transfers along peaks at gap 2, which edits
      nothing, then makes one of three swaps.  NSE -> ENS (and NS ->
      ENS at the end) moves a height-1 apex past a vertex at height 0
      that keeps another beside it.  NSS -> SNS, allowed after a descent
      only, lowers the apex and its left valley by one; the token still
      reads 1, and no other peak had it as a dominating peak it loses.
      NSN -> NNS starts a climb, since the transfer has passed any twin
      at gap 2: the apex rises to y + 1 and its right valley to y.  If
      the climb reaches a higher peak the token still reads 1; if it
      reaches a twin of height y + 1, the token takes the twin's
      relative height and the twin reads 1.

    So a move keeps the list of relative heights, or swaps the token's
    1 with the value on its right, and every other peak keeps its order.
    At reverse stage j, the standing peaks therefore read the relative
    heights >= j of ``path``, lowered by j - 1, in the same order.

    Every stage's data is then read off the one scan (xs, rels, es).
    Reverse stage j' strips its SE pair when j' >= a and j' = a mod 2,
    s(j) = max(0, floor((j - a) / 2) + 1) times up to stage j, and
    deletes one NS for each peak standing at j': its tokens, and its
    uplift undone.  A standing peak loses 2 letters for each such peak
    to its left and 1 just before its own apex.  So at stage j = r_i,
    token i has its apex at x_i - 2 s(j) - (j - 1) - 2 sum_{l<i}
    min(r_l, j - 1) and p = #{l < i : r_l >= j} peaks to its left, and
    its budget, apex - 1 - 2p free letters (module docstring), is

        x_i - r_i - 2 (s(r_i) + sum_{l<i} min(r_l, r_i)).

    Where a move passes the token's 1 to a twin, the twin's apex pair
    follows the token's, NSNS, and the next move transfers to it, so the
    peak reading 1 gives the same budget.  No stage deletes an E step,
    so the E steps before the l-th final peak (relative height k - 1,
    or k if uplifted) number 4 (c_1 + ... + c_l); those a move made at
    the end lie past every peak standing then, and no block counts them.
    The closing check stands for every per-stage check: data that
    rebuilds ``path`` is its preimage, whatever a stage read.

    The data is built once, unvalidated (:meth:`ConstructionData._unchecked`),
    since the scan fixes every condition of the constructor but one:

    * n, the budget rows and the E blocks come from one list per stage,
      so n has length k - 1, there are k - 2 rows, and each row and the
      E blocks have their stage's length;
    * E counts grow from left to right and are read from right to left,
      so the E blocks are nonnegative and do not increase;
    * an uplift is the position of the E block just read, in 1..n_(k-1);
    * admissibility makes x_i - r_i even, so every budget is even.

    Left open is each stage's budgets being nonnegative and not
    increasing: the map runs the constructor's own budget check
    (:func:`_check_budgets`), whose parity test the scan makes moot.
    """
    gp = _construction_params(gp)
    scan = _S_scan(path, gp)
    if scan is None:
        raise ValueError(f"path is not in the construction's image: not S({gp.k},{gp.a})-admissible")
    k, a = gp.k, gp.a
    xs, rels, es = scan
    # above[h]: how many peaks left of peak i have relative height > h,
    # so that sum(above[:r]) is the sum of min(r_l, r) over them
    above = [0] * k
    for r in rels:
        for h in range(r):
            above[h] += 1
    # right to left: the budgets, E blocks and uplifts in the data's order
    rows: list[list[int]] = [[] for _ in range(k - 2)]
    east: list[int] = []
    uplift: list[int] = []
    for i in range(len(rels) - 1, -1, -1):
        r = rels[i]
        for h in range(r):
            above[h] -= 1
        if r < k - 1:
            rows[r - 1].append(xs[i] - r - 2 * (max(0, (r - a) // 2 + 1) + sum(above[:r])))
        else:
            east.append(es[i] // 4)
            if r == k:
                uplift.append(len(east))
    budgets = tuple(map(tuple, rows))
    n = (*map(len, rows), len(east))
    _check_budgets(budgets, n)  # the one condition the scan leaves open
    data = ConstructionData._unchecked(gp, n, tuple(east), frozenset(uplift), budgets)
    # a valid path equal to the rebuilt one makes the rebuilt walk valid
    if _build(data) != (path.start, path.steps):
        raise ValueError("path is not in the construction's image: the recovered data does not rebuild the path")
    return data


# ---------------------------------------------------------------- serialization

_COMPACT_RE = re.compile(r"h=([0-9]+):([NSE]*)")


def path_to_compact(path: LatticePath) -> str:
    """Compact one-line form, e.g. ``h=4:NSSS``."""
    return f"h={path.start}:{path.steps}"


def path_from_compact(text: str) -> LatticePath:
    """The path :func:`path_to_compact` wrote, in ASCII digits; ValueError otherwise."""
    m = isinstance(text, str) and _COMPACT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not a compact path (want h=<height>:<NSE steps>): {text!r}")
    return LatticePath(int(m.group(1)), m.group(2))


def path_to_json_obj(path: LatticePath) -> dict:
    """JSON-ready dict with peaks annotated by relative height."""
    pks = path.peaks()
    rels = path.relative_heights()
    return {
        "start": path.start,
        "steps": path.steps,
        "peaks": [[x, y, r] for (x, y), r in zip(pks, rels)],
        "major_index": path.major_index,
    }


def path_from_json_obj(obj: dict) -> LatticePath:
    """The path :func:`path_to_json_obj` wrote; ValueError unless it is a
    dict, naming the field unless ``start`` is an int and ``steps`` a str."""
    if not isinstance(obj, dict):
        raise ValueError(f"a path document must be a dict, got {type(obj).__name__}")
    for name, kind in (("start", int), ("steps", str)):
        if type(obj.get(name)) is not kind:
            raise ValueError(f"path field {name!r} must be {kind.__name__}, got {obj.get(name)!r}")
    return LatticePath(obj["start"], obj["steps"])


def path_to_svg(path: LatticePath, unit: int = 20) -> str:
    """Plain SVG rendering, ``unit`` (an int >= 1) pixels a step, peaks marked."""
    if type(unit) is not int or unit < 1:  # bools are not ints here
        raise ValueError(f"unit must be an int >= 1, got {unit!r}")
    hs = path.heights()
    top = max(max(hs), 1)
    w = (len(hs) + 1) * unit
    h = (top + 2) * unit

    def pt(x: int, y: int) -> str:
        return f"{(x + 1) * unit},{(top + 1 - y) * unit}"

    points = " ".join(pt(x, y) for x, y in enumerate(hs))
    dots = "".join(
        f'<circle cx="{(x + 1) * unit}" cy="{(top + 1 - y) * unit}" r="3" fill="crimson"/>'
        for x, y in path.peaks()
    )
    base = f'<line x1="{unit}" y1="{(top + 1) * unit}" x2="{len(hs) * unit}" y2="{(top + 1) * unit}" stroke="#999" stroke-dasharray="4"/>'
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f"{base}"
        f'<polyline points="{points}" fill="none" stroke="black" stroke-width="2"/>'
        f"{dots}</svg>"
    )
