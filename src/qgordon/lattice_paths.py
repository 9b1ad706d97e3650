"""Weighted lattice paths and the staged peak construction.

Paths move right one unit per step: NE rises by 1, SE falls by 1, E
stays level and is only allowed at height 0.  Heights never go
negative.  A *peak* is a vertex with NE before it and SE after it; its
weight is its abscissa, and the major index of a path is the sum of
its peak weights.

The relative height of a peak (x, y) is the largest h for which two
vertices at height y - h enclose it with no higher peak between them
and no peak of the same height strictly to its left inside the
enclosure.  The family S(k, a) consists of paths from (0, k + 1 - a)
that stay at or below height k, end at height 0 with a SE step (or are
empty), have every peak weight congruent to its relative height mod 2,
and satisfy a multiple-of-4 condition on E steps (see
:func:`is_S_admissible`).

The second half of the module implements the staged construction that
maps a tuple of sum data (peak counts per stage, an E-block partition,
an uplift choice, and per-stage right-move budgets) onto exactly one
admissible path, together with its exact inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .partitions import GordonParams, _as_params

__all__ = [
    "LatticePath",
    "ConstructionData",
    "peaks",
    "relative_heights",
    "major_index",
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
        if not isinstance(self.start, int) or self.start < 0:
            raise ValueError(f"start height must be a nonnegative int, got {self.start!r}")
        y = self.start
        for i, c in enumerate(self.steps):
            if c == "N":
                y += 1
            elif c == "S":
                y -= 1
                if y < 0:
                    raise ValueError(f"path dips below height 0 at step {i}")
            elif c == "E":
                if y != 0:
                    raise ValueError(f"E step at height {y} (step {i}); E is only legal at height 0")
            else:
                raise ValueError(f"bad step {c!r} at index {i}; expected N, S or E")

    # -------------------------------------------------------------- queries

    def heights(self) -> Tuple[int, ...]:
        """Vertex heights, length len(steps) + 1."""
        hs = [self.start]
        y = self.start
        for c in self.steps:
            y += 1 if c == "N" else -1 if c == "S" else 0
            hs.append(y)
        return tuple(hs)

    @property
    def end_height(self) -> int:
        return self.heights()[-1]

    @property
    def is_terminal(self) -> bool:
        """Ends at height 0 and is empty or closes with a SE step."""
        return self.end_height == 0 and (not self.steps or self.steps[-1] == "S")

    def peaks(self) -> Tuple[Tuple[int, int], ...]:
        """(x, y) for every peak, left to right."""
        hs = self.heights()
        s = self.steps
        return tuple(
            (x, hs[x])
            for x in range(1, len(s))
            if s[x - 1] == "N" and s[x] == "S"
        )

    def relative_heights(self) -> Tuple[int, ...]:
        """Relative height of each peak, aligned with :meth:`peaks`."""
        hs = self.heights()
        pks = self.peaks()
        out = []
        for x, y in pks:
            best = 0
            for h in range(1, y + 1):
                t = y - h
                left = next((i for i in range(x - 1, -1, -1) if hs[i] == t), None)
                right = next((i for i in range(x + 1, len(hs)) if hs[i] == t), None)
                if left is None or right is None:
                    continue
                ok = True
                for px, py in pks:
                    if left < px < right:
                        if py > y or (py == y and px < x):
                            ok = False
                            break
                if ok:
                    best = h
            out.append(best)
        return tuple(out)

    @property
    def major_index(self) -> int:
        return sum(x for x, _ in self.peaks())

    def __str__(self) -> str:
        return path_to_compact(self)


def peaks(path: LatticePath) -> Tuple[Tuple[int, int], ...]:
    """Peak vertices (x, y) of ``path``, left to right."""
    return path.peaks()


def relative_heights(path: LatticePath) -> Tuple[int, ...]:
    """Relative heights aligned with :func:`peaks`."""
    return path.relative_heights()


def major_index(path: LatticePath) -> int:
    """Sum of the peak weights."""
    return path.major_index


# ---------------------------------------------------------------- admissibility


def is_S_admissible(path: LatticePath, gp) -> bool:
    """Membership test for the path family S(k, a).

    Args:
        path: the candidate path.
        gp: GordonParams or (k, a).

    Returns:
        True iff the path starts at height k + 1 - a, stays at or below
        height k, is terminal, has every peak weight congruent to its
        relative height mod 2, and has a multiple-of-4 count of E steps
        strictly before each peak of relative height k or k - 1.
    """
    gp = _as_params(gp)
    if path.start != gp.k + 1 - gp.a:
        return False
    if not path.is_terminal:
        return False
    if max(path.heights()) > gp.k:
        return False
    s = path.steps
    for (x, _y), r in zip(path.peaks(), path.relative_heights()):
        if (x - r) % 2:
            return False
        if r in (gp.k, gp.k - 1) and s[:x].count("E") % 4:
            return False
    return True


# ---------------------------------------------------------------- enumeration

_SPATH_CACHE: dict = {}


def enumerate_S_paths(n_max: int, gp) -> Tuple[LatticePath, ...]:
    """All S(k, a) paths with major index <= n_max, by exhaustive search.

    Peak weights are bounded by the major index, so any admissible path
    of weight <= n_max ends by abscissa n_max + k; the search prunes a
    branch as soon as its committed major index plus the weight of the
    cheapest possible further peak exceeds n_max.
    """
    gp = _as_params(gp)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k, a = gp.k, gp.a
    bound, paths = _SPATH_CACHE.get((k, a), (-1, ()))
    if bound >= n_max:
        return tuple(p for p in paths if p.major_index <= n_max)

    start = k + 1 - a
    found: list[LatticePath] = []
    steps: list[str] = []

    def rec(y: int, major: int) -> None:
        x = len(steps)
        if y == 0 and (not steps or steps[-1] == "S"):
            p = LatticePath(start, "".join(steps))
            if is_S_admissible(p, gp):
                found.append(p)
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
    result = tuple(sorted(found, key=lambda p: (p.major_index, p.steps)))
    _SPATH_CACHE[(k, a)] = (n_max, result)
    return result


def count_S(n: int, gp) -> int:
    """Number of S(k, a) paths of major index exactly n."""
    return sum(1 for p in enumerate_S_paths(n, gp) if p.major_index == n)


# ---------------------------------------------------------------- move primitives


def _apexes(steps: Sequence[str]) -> list[int]:
    return [x for x in range(1, len(steps)) if steps[x - 1] == "N" and steps[x] == "S"]


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


def _step_left(steps: list[str], x: int) -> int:
    """Exact inverse of :func:`_step_right` for the apex at x."""
    if x < 2:
        raise ValueError("cannot move a peak left past the start")
    before = steps[x - 2]
    if before == "E":
        if x == len(steps) - 1:
            del steps[x - 2]
        else:
            steps[x - 2 : x + 1] = ["N", "S", "E"]
    elif before == "N":
        steps[x - 1], steps[x] = "S", "N"
    else:
        steps[x - 2], steps[x - 1] = "N", "S"
    return x - 1


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
    pks = path.peaks()
    if not 0 <= peak_index < len(pks):
        raise ValueError(f"no peak with index {peak_index}; path has {len(pks)} peaks")
    steps = list(path.steps)
    new_x = _step_right(steps, pks[peak_index][0])
    new_path = LatticePath(path.start, "".join(steps))
    new_index = _apexes(steps).index(new_x)
    return new_path, new_index


def volcanic_uplift(path: LatticePath, peak_index: int) -> LatticePath:
    """Split the peak_index-th peak's apex into two steps one level up.

    The peak's weight grows by 1 and every peak to its right shifts by
    2, so the major index grows by 2r - 1 when the peak is r-th from
    the right.
    """
    pks = path.peaks()
    if not 0 <= peak_index < len(pks):
        raise ValueError(f"no peak with index {peak_index}; path has {len(pks)} peaks")
    x = pks[peak_index][0]
    steps = list(path.steps)
    steps[x:x] = ["N", "S"]
    return LatticePath(path.start, "".join(steps))


# ---------------------------------------------------------------- construction data


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
        gp = _as_params(self.gp)
        object.__setattr__(self, "gp", gp)
        if (gp.k - gp.a) % 2 == 0:
            raise ValueError(f"construction needs k and a of opposite parity, got {gp}")
        n = tuple(int(v) for v in self.n)
        object.__setattr__(self, "n", n)
        if len(n) != gp.k - 1:
            raise ValueError(f"n must have length k - 1 = {gp.k - 1}, got {len(n)}")
        if any(v < 0 for v in n):
            raise ValueError(f"peak counts must be nonnegative, got {n}")
        b = tuple(int(v) for v in self.east_partition)
        object.__setattr__(self, "east_partition", b)
        if len(b) != n[-1]:
            raise ValueError(f"east_partition needs one entry per stage-(k-1) peak ({n[-1]}), got {len(b)}")
        if any(v < 0 for v in b) or any(b[i] < b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"east_partition must be nonincreasing and nonnegative, got {b}")
        up = frozenset(int(v) for v in self.uplift_set)
        object.__setattr__(self, "uplift_set", up)
        if any(not 1 <= r <= n[-1] for r in up):
            raise ValueError(f"uplift positions must lie in 1..{n[-1]}, got {sorted(up)}")
        rm = tuple(tuple(int(v) for v in row) for row in self.right_moves)
        object.__setattr__(self, "right_moves", rm)
        if len(rm) != gp.k - 2:
            raise ValueError(f"right_moves needs one row per stage 1..{gp.k - 2}, got {len(rm)}")
        for j, row in enumerate(rm, 1):
            if len(row) != n[j - 1]:
                raise ValueError(f"stage {j} has {n[j - 1]} tokens but {len(row)} budgets")
            if any(v < 0 or v % 2 for v in row):
                raise ValueError(f"stage {j} budgets must be nonnegative evens, got {row}")
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"stage {j} budgets must be nonincreasing, got {row}")

    def weight(self) -> int:
        """Major index of the constructed path, straight from the data."""
        k, a = self.gp.k, self.gp.a
        big_n = [0] * (k + 1)
        for j in range(k - 1, 0, -1):
            big_n[j] = big_n[j + 1] + self.n[j - 1]
        total = sum(big_n[j] ** 2 for j in range(1, k))
        total += sum(2 * big_n[j] for j in range(a, k, 2))
        total += 4 * sum(self.east_partition)
        total += sum(2 * r - 1 for r in self.uplift_set)
        total += sum(sum(row) for row in self.right_moves)
        return total


# ---------------------------------------------------------------- forward map


def forward_construct(data: ConstructionData) -> LatticePath:
    """Build the admissible path encoded by ``data``.

    Stages run j = k-1 down to 1.  Stage k-1 lays down its peaks at
    1, 3, ..., prepends the first SE pair, inserts the E blocks
    (rightmost peak first) and applies the chosen uplifts.  Each later
    stage uplifts everything standing, inserts its unit peaks at the
    origin, spends the right-move budgets rightmost-token-first, and
    prepends a SE pair when j >= a with j = a mod 2.
    """
    k, a = data.gp.k, data.gp.a
    m = data.n[-1]
    b = data.east_partition
    start = 2
    # initial SE pair, then each unit peak preceded by enough E steps to
    # displace it 4 * b_i to the right (i counted from the right)
    steps = ["S", "S"]
    placed = 0
    for ell in range(1, m + 1):
        shift = 4 * b[m - ell]
        steps += ["E"] * (shift - placed) + ["N", "S"]
        placed = shift
    for r in sorted(data.uplift_set):
        ap = _apexes(steps)
        x = ap[len(ap) - r]
        steps[x:x] = ["N", "S"]
    for j in range(k - 2, 0, -1):
        for x in reversed(_apexes(steps)):
            steps[x:x] = ["N", "S"]
        nj = data.n[j - 1]
        steps[0:0] = ["N", "S"] * nj
        for idx, budget in enumerate(data.right_moves[j - 1]):
            x = 2 * (nj - idx) - 1
            for _ in range(budget):
                x = _step_right(steps, x)
        if j >= a and (j - a) % 2 == 0:
            steps[0:0] = ["S", "S"]
            start += 2
    return LatticePath(start, "".join(steps))


# ---------------------------------------------------------------- reverse map


def _fail(msg: str):
    raise ValueError(f"path is not in the construction's image: {msg}")


def _un_move(steps: list[str], x: int, target: int) -> int:
    """Un-move the token at apex x back to weight ``target``; returns the
    number of elementary moves undone.  Mirrors the forward transfer: a
    left neighbour at gap exactly 2 whose weight is still >= target
    takes over the token label after each undone move."""
    count = 0
    while x > target:
        while (
            x - 2 >= target
            and x >= 3
            and steps[x - 3] == "N"
            and steps[x - 2] == "S"
        ):
            x -= 2
        if x <= target:
            break
        x = _step_left(steps, x)
        count += 1
    return count


def reverse_deconstruct(path: LatticePath, gp) -> ConstructionData:
    """Invert :func:`forward_construct`.

    Args:
        path: a path in S(k, a).
        gp: GordonParams or (k, a), opposite parity.

    Returns:
        The unique ConstructionData mapping onto ``path``.

    Raises:
        ValueError: if the path is not admissible or any stage of the
            unwinding meets a pattern the construction cannot produce.
    """
    gp = _as_params(gp)
    if (gp.k - gp.a) % 2 == 0:
        raise ValueError(f"construction needs k and a of opposite parity, got {gp}")
    if not is_S_admissible(path, gp):
        _fail(f"not S({gp.k},{gp.a})-admissible")
    k, a = gp.k, gp.a
    steps = list(path.steps)
    start = path.start
    n: list[int] = [0] * (k - 1)
    right_moves: list[Tuple[int, ...]] = []

    def current() -> LatticePath:
        return LatticePath(start, "".join(steps))

    for j in range(1, k - 1):
        if j >= a and (j - a) % 2 == 0:
            if steps[:2] != ["S", "S"]:
                _fail(f"stage {j} expected an initial SE pair")
            del steps[:2]
            start -= 2
        # rel-1 peaks are exactly this stage's tokens; un-move leftmost first
        disp: list[int] = []
        ell = 0
        while True:
            p = current()
            tokens = [x for (x, _y), r in zip(p.peaks(), p.relative_heights()) if r == 1]
            if len(tokens) <= ell:
                break
            target = 2 * ell + 1
            if tokens[ell] < target:
                _fail(f"stage {j} token {ell + 1} sits left of its creation slot")
            disp.append(_un_move(steps, tokens[ell], target))
            ell += 1
        nj = ell
        n[j - 1] = nj
        budgets = tuple(reversed(disp))
        if any(v % 2 for v in budgets) or any(
            budgets[i] < budgets[i + 1] for i in range(len(budgets) - 1)
        ):
            _fail(f"stage {j} recovered budgets {budgets} are not even and nonincreasing")
        right_moves.append(budgets)
        if steps[: 2 * nj] != ["N", "S"] * nj:
            _fail(f"stage {j} tokens did not return to the origin")
        del steps[: 2 * nj]
        p = current()
        if any(r < 2 for r in p.relative_heights()):
            _fail(f"stage {j} left a relative-height-1 peak standing")
        for x in reversed(_apexes(steps)):
            del steps[x - 1 : x + 1]

    # last stage: peaks of relative height 1 (kept) or 2 (uplifted)
    p = current()
    rels = p.relative_heights()
    if any(r not in (1, 2) for r in rels):
        _fail(f"final stage has relative heights {rels}, expected only 1 and 2")
    m = len(rels)
    n[k - 2] = m
    uplift = frozenset(m - i for i, r in enumerate(rels) if r == 2)
    for i, r in reversed(list(enumerate(rels))):
        if r == 2:
            x = _apexes(steps)[i]
            del steps[x - 1 : x + 1]
    if start != 2 or steps[:2] != ["S", "S"]:
        _fail("expected exactly the initial SE pair before the E blocks")
    del steps[:2]
    start = 0
    east: list[int] = []
    prefix = 0
    for ell in range(1, m + 1):
        run = 0
        while steps and steps[0] == "E":
            del steps[0]
            run += 1
        prefix += run
        if prefix % 4:
            _fail(f"E block before peak {ell} has prefix {prefix}, not a multiple of 4")
        if steps[:2] != ["N", "S"]:
            _fail(f"expected unit peak {ell} after its E block")
        del steps[:2]
        east.append(prefix // 4)
    if steps:
        _fail(f"{len(steps)} unconsumed steps after the last unit peak")
    east_partition = tuple(reversed(east))
    return ConstructionData(
        gp=gp,
        n=tuple(n),
        east_partition=east_partition,
        uplift_set=uplift,
        right_moves=tuple(right_moves),
    )


# ---------------------------------------------------------------- serialization

_COMPACT_RE = re.compile(r"^h=(\d+):([NSE]*)$")


def path_to_compact(path: LatticePath) -> str:
    """Compact one-line form, e.g. ``h=4:NSSS``."""
    return f"h={path.start}:{path.steps}"


def path_from_compact(text: str) -> LatticePath:
    m = _COMPACT_RE.match(text.strip())
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
    return LatticePath(int(obj["start"]), str(obj["steps"]))


def path_to_svg(path: LatticePath, unit: int = 20) -> str:
    """Plain SVG rendering: the path polyline with peaks marked."""
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
