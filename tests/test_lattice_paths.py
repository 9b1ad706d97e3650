"""Tests for lattice paths, moves, and the staged construction."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgordon import clear_caches, lattice_paths
from qgordon.lattice_paths import (
    _SPATH_CACHE,
    ConstructionData,
    _S_counts,
    _step_right,
    LatticePath,
    count_S,
    enumerate_S_paths,
    forward_construct,
    is_S_admissible,
    path_from_compact,
    path_from_json_obj,
    path_to_compact,
    path_to_json_obj,
    path_to_svg,
    reverse_deconstruct,
    right_move,
    volcanic_uplift,
)
from qgordon.partitions import GordonParams
from qgordon.qseries import PochSpec, invert_poch, poch_finite

# The worked construction example used throughout: (k, a) = (5, 2).
EXAMPLE_DATA = ConstructionData(
    gp=GordonParams(5, 2),
    n=(3, 1, 1, 2),
    east_partition=(1, 0),
    uplift_set=frozenset({2}),
    right_moves=((4, 2, 0), (0,), (2,)),
)
EXAMPLE_STEPS = "NSSSNSNNSSNSSSNNNSSSNNNNNSSSSSEEEENNNNSSSS"
EXAMPLE_PEAKS = ((1, 5), (5, 3), (8, 4), (11, 3), (17, 3), (25, 5), (38, 4))
EXAMPLE_RELS = (1, 1, 2, 1, 3, 5, 4)


class TestPathBasics:
    def test_heights_and_peaks(self):
        """Vertex heights and peak detection on a small path."""
        p = LatticePath(2, "SSNSENS")
        assert p.heights() == (2, 1, 0, 1, 0, 0, 1, 0)
        assert p.peaks() == ((3, 1), (6, 1))
        assert p.major_index == 9

    def test_negative_height_rejected(self):
        """A path may never dip below height 0."""
        with pytest.raises(ValueError, match="below height 0"):
            LatticePath(0, "S")

    def test_east_step_needs_height_zero(self):
        """E steps are only legal on the axis."""
        with pytest.raises(ValueError, match="only legal at height 0"):
            LatticePath(1, "E")
        LatticePath(1, "SE")  # fine once the path has come down

    def test_bad_step_letter(self):
        with pytest.raises(ValueError, match="bad step"):
            LatticePath(0, "NX")

    def test_terminal_predicate(self):
        """Terminal means height 0 and an empty path or a closing SE."""
        assert LatticePath(2, "SS").is_terminal
        assert LatticePath(0, "").is_terminal
        assert not LatticePath(1, "S E".replace(" ", "")).is_terminal
        assert not LatticePath(2, "S").is_terminal

    def test_compact_round_trip(self):
        p = LatticePath(4, EXAMPLE_STEPS)
        assert path_to_compact(p) == f"h=4:{EXAMPLE_STEPS}"
        assert path_from_compact(path_to_compact(p)) == p

    def test_compact_rejects_garbage(self):
        with pytest.raises(ValueError, match="compact path"):
            path_from_compact("4|NSNS")

    def test_json_obj(self):
        p = LatticePath(2, "SSNS")
        obj = path_to_json_obj(p)
        assert obj == {
            "start": 2,
            "steps": "SSNS",
            "peaks": [[3, 1, 1]],
            "major_index": 3,
        }
        assert path_from_json_obj(obj) == p

    def test_svg_smoke(self):
        svg = path_to_svg(LatticePath(2, "SSNS"))
        assert svg.startswith("<svg") and "polyline" in svg and "circle" in svg

    @pytest.mark.parametrize("unit", [0, -5, True, 2.5, "20", None])
    def test_svg_unit_must_be_a_positive_int(self, unit):
        """A unit of 0 or -5 would write width="0" or width="-20"."""
        with pytest.raises(ValueError, match=re.escape(f"unit must be an int >= 1, got {unit!r}")):
            path_to_svg(LatticePath(2, "SSNS"), unit)

    def test_svg_unit_scales_the_drawing(self):
        assert 'width="6" height="4"' in path_to_svg(LatticePath(2, "SSNS"), 1)
        assert 'width="12" height="8"' in path_to_svg(LatticePath(2, "SSNS"), 2)


def _reference_heights(start, steps):
    hs = [start]
    for c in steps:
        hs.append(hs[-1] + {"N": 1, "S": -1, "E": 0}[c])
    return hs


def _reference_peaks(start, steps):
    """Every NS in the step word, read as (apex abscissa, apex height)."""
    hs = _reference_heights(start, steps)
    return tuple((m.start() + 1, hs[m.start() + 1]) for m in re.finditer("(?=NS)", steps))


def _reference_relative_heights(start, steps):
    """The definition, scanned directly: the largest h for which the
    nearest vertices at height y - h on either side of the peak enclose
    no higher peak and no peak of the same height to its left."""
    hs = _reference_heights(start, steps)
    pks = _reference_peaks(start, steps)
    out = []
    for x, y in pks:
        best = 0
        for h in range(1, y + 1):
            t = y - h
            left = next((i for i in range(x - 1, -1, -1) if hs[i] == t), None)
            right = next((i for i in range(x + 1, len(hs)) if hs[i] == t), None)
            if left is None or right is None:
                continue
            if not any(
                left < px < right and (py > y or (py == y and px < x)) for px, py in pks
            ):
                best = h
        out.append(best)
    return tuple(out)


@st.composite
def valid_paths(draw):
    """Any valid path: a start height, then runs of N, S or E (an E run
    off the axis first descends to it), ending anywhere."""
    y = start = draw(st.integers(0, 6))
    steps = ""
    for c, run in draw(st.lists(st.tuples(st.sampled_from("NSE"), st.integers(1, 4)), max_size=30)):
        if c == "N":
            steps += "N" * run
            y += run
        elif c == "S":
            steps += "S" * min(run, y)
            y -= min(run, y)
        else:
            steps += "S" * y + "E" * run
            y = 0
    return LatticePath(start, steps)


class TestRelativeHeights:
    def test_single_mountain(self):
        """An isolated peak has relative height equal to its height."""
        p = LatticePath(0, "NNNSSS")
        assert p.relative_heights() == (3,)

    def test_twin_peaks_share_one_tall_identity(self):
        """Of two equal-height peaks over the same valley, only the
        leftmost reads the full height; its twin reads 1."""
        p = LatticePath(0, "NNSNSS")
        assert p.peaks() == ((2, 2), (4, 2))
        assert p.relative_heights() == (2, 1)

    def test_notch_on_a_slope(self):
        """A dip on the ascent of a taller mountain reads height 1."""
        p = LatticePath(0, "NNSNNSSS")
        assert p.peaks() == ((2, 2), (5, 3))
        assert p.relative_heights() == (1, 3)

    def test_worked_example_rels(self):
        p = LatticePath(4, EXAMPLE_STEPS)
        assert p.peaks() == EXAMPLE_PEAKS
        assert p.relative_heights() == EXAMPLE_RELS

    def test_matches_definition_on_every_S_path(self):
        """The nearest-dominating-peak rule equals the definitional scan
        on every S(k, a) path of major index <= 14, 2 <= k <= 7."""
        total = 0
        for k in range(2, 8):
            for a in range(1, k + 1):
                for p in enumerate_S_paths(14, (k, a)):
                    assert p.peaks() == _reference_peaks(p.start, p.steps)
                    assert p.relative_heights() == _reference_relative_heights(p.start, p.steps)
                    total += 1
        assert total > 2000

    @settings(max_examples=300, deadline=None)
    @given(valid_paths())
    def test_matches_definition_on_any_path(self, p):
        """Same on arbitrary valid paths: any start, E runs, any end."""
        assert p.heights() == tuple(_reference_heights(p.start, p.steps))
        assert p.peaks() == _reference_peaks(p.start, p.steps)
        assert p.relative_heights() == _reference_relative_heights(p.start, p.steps)
        assert p.major_index == sum(x for x, _ in _reference_peaks(p.start, p.steps))


class TestMoves:
    def test_uplift_weight_gain(self):
        """Uplifting the r-th peak from the right adds 2r - 1."""
        p = LatticePath(2, "SSNSNS")
        for idx in range(2):
            q = volcanic_uplift(p, idx)
            r = len(p.peaks()) - idx
            assert q.major_index - p.major_index == 2 * r - 1

    def test_uplift_shape(self):
        q = volcanic_uplift(LatticePath(0, "NS"), 0)
        assert q.steps == "NNSS" and q.peaks() == ((2, 2),)

    def test_move_past_an_east_step(self):
        """A peak hops over a following E step in one move."""
        q, i = right_move(LatticePath(0, "NSE"), 0)
        assert q.steps == "ENS" and i == 0

    def test_move_up_then_down_a_slope(self):
        """Two moves of the first peak: one climbs the next ascent, the
        next transfers to the equal-height neighbour and descends."""
        a = LatticePath(0, "NSNNSNSS")
        b, _ = right_move(a, 0)
        c, _ = right_move(b, 0)
        assert (a.major_index, b.major_index, c.major_index) == (11, 12, 13)
        assert b.steps == "NNSNSNSS"
        assert c.steps == "NNSNSSNS"

    def test_move_at_path_end_creates_east_step(self):
        """When the descent closes the path, the move inserts an E."""
        q, _ = right_move(LatticePath(0, "NS"), 0)
        assert q.steps == "ENS" and q.major_index == 2

    def test_move_always_adds_one(self):
        """A legal elementary move raises the major index by exactly 1;
        a two-sided mountain has no elementary right move at all."""
        moved = blocked = 0
        for p in enumerate_S_paths(8, (3, 2)):
            for idx in range(len(p.peaks())):
                try:
                    q, _ = right_move(p, idx)
                except ValueError as err:
                    assert "no elementary right move" in str(err)
                    blocked += 1
                else:
                    assert q.major_index == p.major_index + 1
                    moved += 1
        assert moved and blocked

    def test_bad_peak_index(self):
        with pytest.raises(ValueError, match="no peak"):
            right_move(LatticePath(0, "NS"), 1)
        with pytest.raises(ValueError, match="no peak"):
            volcanic_uplift(LatticePath(2, "SS"), 0)

    @pytest.mark.parametrize("edit", [right_move, volcanic_uplift], ids=lambda f: f.__name__)
    def test_one_past_the_last_peak_is_refused(self, edit):
        """Both edits read the peak through one lookup, which names the
        index and the number of peaks."""
        with pytest.raises(ValueError, match="^no peak with index 3; path has 3 peaks$"):
            edit(LatticePath(0, "NSNSNS"), 3)
        with pytest.raises(ValueError, match="^no peak with index -1; path has 3 peaks$"):
            edit(LatticePath(0, "NSNSNS"), -1)


class TestAdmissibility:
    def test_start_height_must_match(self):
        assert is_S_admissible(LatticePath(2, "SS"), (3, 2))
        assert not is_S_admissible(LatticePath(2, "SS"), (3, 1))
        assert is_S_admissible(LatticePath(3, "SSS"), (3, 1))

    def test_height_cap(self):
        p = LatticePath(2, "NNSSSS")  # climbs to 4 > k = 3
        assert not is_S_admissible(p, (3, 2))

    def test_parity_of_peak_weights(self):
        # peak (2, 1) has relative height 1: even weight vs odd rel fails
        assert not is_S_admissible(LatticePath(2, "SNSS"), (3, 2))
        assert is_S_admissible(LatticePath(2, "SSNS"), (3, 2))

    def test_east_rule_each_reading(self):
        """A full-height peak needs 4 | (E steps before it)."""
        good = LatticePath(2, "SSEEEENNNSSS")
        # the same path with two E steps before its relative-height-3 peak
        bad = LatticePath(2, "SSEENNNSSS")
        assert is_S_admissible(good, (3, 2))
        assert not is_S_admissible(bad, (3, 2))

    def test_terminal_required(self):
        assert not is_S_admissible(LatticePath(2, "SSNSE"), (3, 2))


class TestEnumeration:
    def test_small_counts_k3(self):
        """Path counts for (3, 2) by brute force."""
        assert [count_S(n, (3, 2)) for n in range(7)] == [1, 1, 0, 1, 2, 2, 1]

    def test_small_counts_k2(self):
        """For (2, 1) the counts follow the mod-8 pattern of the
        first Rogers-Ramanujan analogue."""
        assert [count_S(n, (2, 1)) for n in range(10)] == [1, 0, 0, 1, 1, 0, 0, 1, 2, 1]

    def test_enumeration_is_sorted_and_admissible(self):
        paths = enumerate_S_paths(9, (4, 3))
        majors = [p.major_index for p in paths]
        assert majors == sorted(majors)
        assert all(is_S_admissible(p, (4, 3)) for p in paths)

    @pytest.mark.parametrize("gp", [(2, 1), (3, 2), (4, 1), (4, 3), (5, 2)])
    def test_search_equals_filtering_every_walk(self, gp):
        """The search builds its candidates without validating them; it
        finds exactly the walks of major index <= n (they end by abscissa
        n + k) that pass is_S_admissible, sorted by major index and then
        by steps."""
        n, (k, a) = 11, gp

        def walks(steps, y):
            yield "".join(steps)
            if len(steps) == n + k:
                return
            for c, dy in (("N", 1), ("S", -1), ("E", 0)):
                if 0 <= y + dy <= k and (c != "E" or y == 0):
                    yield from walks(steps + [c], y + dy)

        paths = (LatticePath(k + 1 - a, s) for s in walks([], k + 1 - a))
        want = sorted(
            (p for p in paths if p.major_index <= n and is_S_admissible(p, gp)),
            key=lambda p: (p.major_index, p.steps),
        )
        clear_caches()
        assert enumerate_S_paths(n, gp) == tuple(want)

    def test_cache_shrinks_consistently(self):
        full = enumerate_S_paths(10, (3, 2))
        partial = enumerate_S_paths(6, (3, 2))
        assert set(partial) <= set(full)
        assert all(p.major_index <= 6 for p in partial)

    def test_cache_hits_match_fresh_searches(self):
        clear_caches()
        # ascending bounds: every call is a fresh search
        fresh = [enumerate_S_paths(n, (4, 1)) for n in range(13)]
        counts = [count_S(n, (4, 1)) for n in range(13)]
        # descending bounds: every call is served from the n = 12 search
        assert [enumerate_S_paths(n, (4, 1)) for n in reversed(range(13))] == fresh[::-1]
        assert [count_S(n, (4, 1)) for n in reversed(range(13))] == counts[::-1]
        assert counts == [sum(p.major_index == n for p in fresh[n]) for n in range(13)]

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None, -1])
    def test_rejects_bad_n(self, n):
        """A bound that is not an int >= 0 is refused and never cached."""
        clear_caches()
        with pytest.raises(ValueError, match="n_max must be an int >= 0"):
            count_S(n, (3, 2))
        with pytest.raises(ValueError, match="n_max must be an int >= 0"):
            enumerate_S_paths(n, (3, 2))
        assert not _SPATH_CACHE

    def test_counts_from_one_search(self):
        clear_caches()
        assert _S_counts(14, (5, 2)) == [count_S(n, (5, 2)) for n in range(15)]
        assert _S_counts(-1, (5, 2)) == []
        # any other bound that is not an int gets count_S's ValueError, not
        # a TypeError from sizing the count list
        for n_max in (2.0, "3", True, None):
            with pytest.raises(ValueError, match=f"^n_max must be an int >= 0, got {re.escape(repr(n_max))}$"):
                _S_counts(n_max, (3, 2))


class TestConstruction:
    def test_worked_example_forward(self):
        p = forward_construct(EXAMPLE_DATA)
        assert p.start == 4
        assert p.steps == EXAMPLE_STEPS
        assert p.peaks() == EXAMPLE_PEAKS
        assert p.relative_heights() == EXAMPLE_RELS
        assert p.major_index == 105
        assert is_S_admissible(p, (5, 2))

    def test_worked_example_reverse(self):
        p = LatticePath(4, EXAMPLE_STEPS)
        assert reverse_deconstruct(p, (5, 2)) == EXAMPLE_DATA

    def test_move_budget_spills_into_east_steps(self):
        """A token pushed past the path end starts laying E steps."""
        d = ConstructionData(
            gp=GordonParams(3, 2),
            n=(1, 0),
            east_partition=(),
            uplift_set=frozenset(),
            right_moves=((4,),),
        )
        p = forward_construct(d)
        assert (p.start, p.steps, p.major_index) == (2, "SSEENS", 5)
        assert reverse_deconstruct(p, (3, 2)) == d

    def test_all_zero_data_gives_bare_descent(self):
        d = ConstructionData(
            gp=GordonParams(2, 1), n=(0,), east_partition=(), uplift_set=frozenset()
        )
        assert forward_construct(d) == LatticePath(2, "SS")

    def test_weight_formula(self):
        assert EXAMPLE_DATA.weight() == 105

    def test_exhaustive_round_trip_small(self):
        """Every admissible path of small weight survives the full
        reverse-then-forward cycle."""
        for gp in ((2, 1), (3, 2)):
            for p in enumerate_S_paths(12, gp):
                d = reverse_deconstruct(p, gp)
                assert forward_construct(d) == p
                assert d.weight() == p.major_index

    def test_data_validation(self):
        with pytest.raises(ValueError, match="opposite parity"):
            ConstructionData(gp=GordonParams(3, 1), n=(0, 0))
        with pytest.raises(ValueError, match="length k - 1"):
            ConstructionData(gp=GordonParams(3, 2), n=(1,))
        with pytest.raises(ValueError, match="one entry per"):
            ConstructionData(gp=GordonParams(3, 2), n=(0, 1), east_partition=())
        with pytest.raises(ValueError, match="nonincreasing"):
            ConstructionData(gp=GordonParams(3, 2), n=(0, 2), east_partition=(1, 2))
        with pytest.raises(ValueError, match="uplift positions"):
            ConstructionData(gp=GordonParams(3, 2), n=(0, 1), east_partition=(0,), uplift_set={2})
        with pytest.raises(ValueError, match="evens"):
            ConstructionData(gp=GordonParams(3, 2), n=(1, 0), right_moves=((3,),))
        with pytest.raises(ValueError, match="nonincreasing"):
            ConstructionData(gp=GordonParams(3, 2), n=(2, 0), right_moves=((0, 2),))
        with pytest.raises(ValueError, match="one row per stage"):
            ConstructionData(gp=GordonParams(3, 2), n=(0, 0), right_moves=())

    @pytest.mark.parametrize(
        "fields",
        [
            {"n": (1.9, 0.5)},
            {"n": (0, 1.0), "east_partition": (0,)},
            {"n": (0, 1), "east_partition": (0.5,)},
            {"n": (0, 1), "east_partition": (0,), "uplift_set": {1.0}},
            {"n": (1, 0), "right_moves": ((2.0,),)},
            {"n": ("1", 0), "right_moves": ((0,),)},
        ],
    )
    def test_data_must_be_ints(self, fields):
        """Non-int entries are refused instead of truncated by int()."""
        with pytest.raises(ValueError, match="entries must be ints"):
            ConstructionData(gp=GordonParams(3, 2), **fields)

    @pytest.mark.parametrize("path", ["h=2:SS", (2, "SS"), None])
    def test_path_must_be_a_lattice_path(self, path):
        """TypeError naming the type, not AttributeError on ``.start``."""
        message = f"^path must be a LatticePath, got {type(path).__name__}$"
        with pytest.raises(TypeError, match=message):
            is_S_admissible(path, (3, 2))
        with pytest.raises(TypeError, match=message):
            reverse_deconstruct(path, (3, 2))

    @pytest.mark.parametrize("data", [{}, None, (GordonParams(3, 2), (0, 0))])
    def test_data_must_be_construction_data(self, data):
        with pytest.raises(TypeError, match=f"^data must be a ConstructionData, got {type(data).__name__}$"):
            forward_construct(data)

    def test_reverse_rejects_foreign_paths(self):
        with pytest.raises(ValueError, match="not in the construction's image|admissible"):
            reverse_deconstruct(LatticePath(1, "S"), (3, 2))
        with pytest.raises(ValueError, match="opposite parity"):
            reverse_deconstruct(LatticePath(2, "SS"), (3, 1))

    @pytest.mark.parametrize("fields, message", [
        ({"gp": GordonParams(3, 1), "n": (0, 0)},
         "construction needs k and a of opposite parity, got GordonParams(k=3, a=1)"),
        ({"n": (1,)}, "n must have length k - 1 = 2, got 1"),
        ({"n": (0, 0, 0), "right_moves": ((),)}, "n must have length k - 1 = 2, got 3"),
        ({"n": (0, -1)}, "peak counts must be nonnegative, got (0, -1)"),
        ({"n": (0, 1), "east_partition": ()},
         "east_partition needs one entry per stage-(k-1) peak (1), got 0"),
        ({"n": (0, 2), "east_partition": (1, 2)},
         "east_partition must be nonincreasing and nonnegative, got (1, 2)"),
        ({"n": (0, 2), "east_partition": (1, -1)},
         "east_partition must be nonincreasing and nonnegative, got (1, -1)"),
        ({"n": (0, 1), "east_partition": (-1,)},
         "east_partition must be nonincreasing and nonnegative, got (-1,)"),
        ({"n": (0, 1), "east_partition": (0,), "uplift_set": {0}}, "uplift positions must lie in 1..1, got [0]"),
        ({"n": (0, 2), "east_partition": (0, 0), "uplift_set": {1, 3}},
         "uplift positions must lie in 1..2, got [1, 3]"),
        ({"n": (0, 0), "right_moves": ()}, "right_moves needs one row per stage 1..1, got 0"),
        ({"n": (0, 0), "right_moves": ((), ())}, "right_moves needs one row per stage 1..1, got 2"),
        ({"n": (1, 0), "right_moves": ((0, 0),)}, "stage 1 has 1 tokens but 2 budgets"),
        ({"n": (1, 0), "right_moves": ((3,),)}, "stage 1 budgets must be nonnegative evens, got (3,)"),
        ({"n": (1, 0), "right_moves": ((-2,),)}, "stage 1 budgets must be nonnegative evens, got (-2,)"),
        ({"n": (2, 0), "right_moves": ((1, 4),)}, "stage 1 budgets must be nonnegative evens, got (1, 4)"),
        ({"n": (2, 0), "right_moves": ((0, 2),)}, "stage 1 budgets must be nonincreasing, got (0, 2)"),
        ({"n": (1, 0.0)}, "n entries must be ints, got (1, 0.0)"),
        ({"n": (0, 1), "east_partition": ("0",)}, "east_partition entries must be ints, got ('0',)"),
        ({"n": (0, 1), "east_partition": (0,), "uplift_set": {None}}, "uplift_set entries must be ints, got (None,)"),
        ({"n": (1, 0), "right_moves": ((2.0,),)}, "right_moves entries must be ints, got (2.0,)"),
    ])
    def test_each_invalid_field_refused_with_its_message(self, fields, message):
        """Each validation of ConstructionData refuses with its exact
        message; where two fail, the earlier check's message wins (an
        odd, increasing budget row reads as odd)."""
        fields = {"gp": GordonParams(3, 2), "right_moves": ((0,) * fields["n"][0],), **fields}
        with pytest.raises(ValueError) as err:
            ConstructionData(**fields)
        assert str(err.value) == message


# Every opposite-parity (k, a) with k <= 7 to major index 20, and k = 8
# to 17: 4,272 paths.
ROUND_TRIP_BOUNDS = tuple(
    ((k, a), 20 if k <= 7 else 17) for k in range(2, 9) for a in range(1, k + 1) if (k - a) % 2
)


def _step_left(steps: list[str], x: int) -> int:
    """Exact inverse of ``_step_right`` for the apex at x."""
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


def _un_move(steps: list[str], x: int, target: int) -> int:
    """Un-move the token at apex x back to weight ``target``; returns the
    number of elementary moves undone.  Mirrors the forward transfer: a
    left neighbour at gap exactly 2 whose weight is still >= target
    takes over the token label after each undone move.  The walk never
    lands on ``target``: a token's first move moves its own peak."""
    count = 0
    while x > target:
        while (
            x - 2 >= target
            and x >= 3
            and steps[x - 3] == "N"
            and steps[x - 2] == "S"
        ):
            x -= 2
        x = _step_left(steps, x)
        count += 1
    return count


def _moving_tokens(u: str, budgets) -> str:
    """A stage's tokens placed by their definition: inserted at the origin
    of the uplifted string ``u``, then moved one elementary right move at
    a time, rightmost token first."""
    nj = len(budgets)
    steps = list("NS" * nj + u)
    for idx, budget in enumerate(budgets):
        x = 2 * (nj - idx) - 1
        for _ in range(budget):
            x = _step_right(steps, x)
    return "".join(steps)


def _rescanning_reverse(path, gp, stages=None) -> ConstructionData:
    """The reverse map written stage by stage from its definition: the
    tokens of each stage are the peaks of relative height 1, rescanned
    from the whole path after every token is un-moved.  ``stages``, if
    given, collects (j, path) at the start of each stage j after its SE
    pair is removed, and (k - 1, path) for the final stage."""
    k, a = gp
    assert is_S_admissible(path, gp)
    steps = list(path.steps)
    start = path.start

    def scan():
        p = LatticePath(start, "".join(steps))
        return [x for x, _ in p.peaks()], p.relative_heights()

    n = []
    right_moves = []
    for j in range(1, k - 1):
        if j >= a and (j - a) % 2 == 0:
            assert steps[:2] == ["S", "S"]
            del steps[:2]
            start -= 2
        if stages is not None:
            stages.append((j, LatticePath(start, "".join(steps))))
        disp = []
        while True:
            xs, rels = scan()
            tokens = [x for x, r in zip(xs, rels) if r == 1]
            if len(tokens) <= len(disp):
                break
            ell = len(disp)
            disp.append(_un_move(steps, tokens[ell], 2 * ell + 1))
        n.append(len(disp))
        right_moves.append(tuple(reversed(disp)))
        assert steps[: 2 * len(disp)] == ["N", "S"] * len(disp)
        del steps[: 2 * len(disp)]
        xs, rels = scan()
        assert min(rels, default=2) >= 2
        for x in reversed(xs):
            del steps[x - 1 : x + 1]
    if stages is not None:
        stages.append((k - 1, LatticePath(start, "".join(steps))))
    xs, rels = scan()
    assert set(rels) <= {1, 2}
    m = len(rels)
    n.append(m)
    for x, r in reversed(list(zip(xs, rels))):
        if r == 2:
            del steps[x - 1 : x + 1]
    assert start == 2 and steps[:2] == ["S", "S"]
    east = []
    prefix = 0
    for block in "".join(steps[2:]).split("NS")[:m]:
        prefix += len(block)
        east.append(prefix // 4)
    return ConstructionData(
        gp=GordonParams(k, a),
        n=tuple(n),
        east_partition=tuple(reversed(east)),
        uplift_set=frozenset(m - i for i, r in enumerate(rels) if r == 2),
        right_moves=tuple(right_moves),
    )


def _typed(v):
    """``v`` with the type of every value it holds, so that == compares
    type by type."""
    if isinstance(v, (tuple, frozenset)):
        return type(v), type(v)(map(_typed, v))
    return type(v), v


def _as_constructed(data: ConstructionData) -> bool:
    """Whether ``data`` equals, field by field and type by type, what the
    public constructor builds from its fields."""
    built = ConstructionData(**vars(data))
    return {f: _typed(v) for f, v in vars(data).items()} == {f: _typed(v) for f, v in vars(built).items()}


class TestOneScanReverse:
    """The reverse map reads every stage's tokens off one scan of the
    path's relative heights; these pin it to the rescanning definition."""

    def test_matches_rescanning_reverse(self):
        """The data also equals, type by type, what the public
        constructor builds from its fields."""
        total = 0
        for gp, bound in ROUND_TRIP_BOUNDS:
            for p in enumerate_S_paths(bound, gp):
                got = reverse_deconstruct(p, gp)
                assert got == _rescanning_reverse(p, gp) and _as_constructed(got), (gp, p)
                total += 1
        assert total == 4272

    def test_stage_heights_are_the_original_ones_lowered(self):
        """At reverse stage j the standing peaks read the path's relative
        heights >= j, lowered by j - 1, in their original order."""
        for gp, bound in ROUND_TRIP_BOUNDS:
            for p in enumerate_S_paths(bound, gp):
                rels = p.relative_heights()
                stages = []
                _rescanning_reverse(p, gp, stages)
                for j, q in stages:
                    assert q.relative_heights() == tuple(r - j + 1 for r in rels if r >= j), (p, j)

    def test_stage_apexes_are_the_original_ones_shifted(self):
        """At reverse stage j every standing peak's apex sits at x - 2 s(j)
        - sum over j' < j of (2 L(j') + 1), s(j) counting the SE pairs
        stripped by then and L(j') the peaks to its left of relative
        height >= j'.  No stage deletes an E step, so the E blocks are the
        path's E counts before its final peaks, over 4."""
        for (k, a), bound in ROUND_TRIP_BOUNDS:
            for p in enumerate_S_paths(bound, (k, a)):
                xs = [x for x, _ in p.peaks()]
                rels = p.relative_heights()
                stages = []
                data = _rescanning_reverse(p, (k, a), stages)
                for j, q in stages:
                    strips = len(range(a, min(j, k - 2) + 1, 2))
                    want = [
                        x - 2 * strips - sum(2 * sum(1 for l in rels[:i] if l >= jj) + 1 for jj in range(1, j))
                        for i, (x, r) in enumerate(zip(xs, rels))
                        if r >= j
                    ]
                    assert [x for x, _ in q.peaks()] == want, (p, j)
                finals = [x for x, r in zip(xs, rels) if r >= k - 1]
                assert data.east_partition[::-1] == tuple(p.steps[:x].count("E") // 4 for x in finals), p

    @settings(max_examples=300, deadline=None)
    @given(valid_paths())
    def test_removing_every_apex_is_one_replace(self, p):
        """Occurrences of NS never overlap, so deleting each apex's NS is
        ``replace("NS", "")``, and uplifting every apex is
        ``replace("NS", "NNSS")``."""
        steps = list(p.steps)
        uplifted = list(p.steps)
        for x, _ in reversed(p.peaks()):
            del steps[x - 1 : x + 1]
            uplifted[x:x] = ["N", "S"]
        assert p.steps.replace("NS", "") == "".join(steps)
        assert p.steps.replace("NS", "NNSS") == "".join(uplifted)

    def test_non_admissible_paths_raise(self):
        """A path outside S(k, a) raises ValueError, including an S(k', a')
        path read at another opposite-parity pair."""
        refused = 0
        for gp, bound in ROUND_TRIP_BOUNDS[:6]:
            for p in enumerate_S_paths(12, gp):
                for other, _ in ROUND_TRIP_BOUNDS:
                    if not is_S_admissible(p, other):
                        with pytest.raises(ValueError, match="not S.*-admissible"):
                            reverse_deconstruct(p, other)
                        refused += 1
        assert refused > 1000
        # S(3, 2) starts at 2: above height 3, a peak weight of the wrong
        # parity, 2 E steps before a peak of relative height 2, not terminal
        for steps in ("NNSSSS", "SSENS", "SSEENNSS", "SSNNS"):
            with pytest.raises(ValueError, match="admissible"):
                reverse_deconstruct(LatticePath(2, steps), (3, 2))
        assert reverse_deconstruct(LatticePath(2, "SSEEEENNSS"), (3, 2)).east_partition == (1,)


def _peak_profile(rels, k: int, wrong: bool = False) -> tuple:
    """(n_1, ..., n_(k-1)): peaks of relative height j for j < k - 1, and
    of relative height k - 1 or k in n_(k-1).  ``wrong`` counts height k
    in n_(k-2) instead."""
    n = [sum(r == j for r in rels) for j in range(1, k)]
    top = sum(r == k for r in rels)
    if wrong and k >= 3:
        n[k - 3] += top
    else:
        n[k - 2] += top
    return tuple(n)


def _profile_terms(k: int, a: int, order: int) -> dict:
    """Each gap vector (n_1, ..., n_(k-1)) -> its ladder term below q^order,
    q^(sum N_j^2 + 2 sum_(j >= a, j = a mod 2) N_j) (-q; q^2)_(n_(k-1))
    / ((q^4; q^4)_(n_(k-1)) prod_(j < k-1) (q^2; q^2)_(n_j)), built with
    the public Pochhammer builders as ConstructionData.weight spells it."""
    terms = {}

    def rec(ns):
        if len(ns) == k - 1:
            big = [sum(ns[j:]) for j in range(k - 1)]
            e = sum(v * v for v in big) + sum(2 * big[j - 1] for j in range(a, k, 2))
            if e < order:
                w = order - e
                m = ns[-1]
                term = poch_finite(PochSpec(-1, 1, 2), m, w) * invert_poch(PochSpec(1, 4, 4), w, n=m)
                for nj in ns[:-1]:
                    term = term * invert_poch(PochSpec(1, 2, 2), w, n=nj)
                terms[tuple(ns)] = term.shift(e)
            return
        for v in range(order):
            # N_1 >= v, so the term's exponent is at least v^2
            if v * v >= order:
                break
            rec(ns + [v])

    rec([])
    return terms


def _profile_mismatches(k: int, a: int, order: int, wrong: bool = False) -> list:
    """(profile, major index, tally, coefficient) wherever the searched
    paths of one peak profile disagree with that profile's ladder term."""
    tally: dict = {}
    for p in enumerate_S_paths(order - 1, (k, a)):
        row = tally.setdefault(_peak_profile(p.relative_heights(), k, wrong), [0] * order)
        row[p.major_index] += 1
    terms = _profile_terms(k, a, order)
    bad = [prof for prof in tally if prof not in terms]
    for prof, term in terms.items():
        row = tally.get(prof, [0] * order)
        bad += [(prof, n, row[n], term.coefficient(n)) for n in range(order) if row[n] != term.coefficient(n)]
    return bad


class TestPeakProfile:
    """The bijection's statistic: the paths with peak profile (n_1, ...,
    n_(k-1)) have the major-index generating function of the ladder term
    with those gaps."""

    @pytest.mark.parametrize("k, a", [gp for gp, _ in ROUND_TRIP_BOUNDS if gp[0] <= 7])
    def test_each_profile_matches_its_ladder_term(self, k, a):
        assert _profile_mismatches(k, a, 21) == []

    def test_a_wrong_statistic_fails(self):
        """Counting relative height k in n_(k-2) breaks the comparison at
        every opposite-parity (k, a) with 3 <= k <= 7."""
        for (k, a), _ in ROUND_TRIP_BOUNDS:
            if 3 <= k <= 7:
                assert _profile_mismatches(k, a, 21, wrong=True), (k, a)


@st.composite
def construction_data(draw, k: int, a: int):
    n = tuple(draw(st.integers(0, 2)) for _ in range(k - 1))
    m = n[-1]
    b = tuple(sorted((draw(st.integers(0, 2)) for _ in range(m)), reverse=True))
    uplift = frozenset(r for r in range(1, m + 1) if draw(st.booleans()))
    moves = tuple(
        tuple(sorted((2 * draw(st.integers(0, 3)) for _ in range(n[j - 1])), reverse=True))
        for j in range(1, k - 1)
    )
    return ConstructionData(
        gp=GordonParams(k, a),
        n=n,
        east_partition=b,
        uplift_set=uplift,
        right_moves=moves,
    )


class TestConstructionProperties:
    @settings(max_examples=80, deadline=None)
    @given(construction_data(2, 1) | construction_data(3, 2) | construction_data(4, 3))
    def test_forward_then_reverse_is_identity(self, data):
        """forward and reverse are mutually inverse on generated data,
        the image is admissible, and the weight formula matches."""
        p = forward_construct(data)
        assert is_S_admissible(p, data.gp)
        assert p.major_index == data.weight()
        assert reverse_deconstruct(p, data.gp) == data


def _draw_data(rng: random.Random, k: int, a: int) -> ConstructionData:
    """Construction data with up to 10 peaks a stage, E blocks of up to
    4 * 20 steps and right-move budgets up to 80."""
    n = tuple(rng.randint(0, 10) for _ in range(k - 1))
    m = n[-1]
    return ConstructionData(
        gp=GordonParams(k, a),
        n=n,
        east_partition=tuple(sorted((rng.randint(0, 20) for _ in range(m)), reverse=True)),
        uplift_set=frozenset(r for r in range(1, m + 1) if rng.random() < 0.5),
        right_moves=tuple(
            tuple(sorted((2 * rng.randint(0, 40) for _ in range(n[j - 1])), reverse=True))
            for j in range(1, k - 1)
        ),
    )


class TestBijectionBeyondExhaustiveReach:
    """Criterion 07 and the round-trip tests list every path up to major
    index about 20; seeded draws reach weights in the thousands."""

    def test_seeded_draws_round_trip(self, monkeypatch):
        """The closed forms agree with their step-by-step definitions: the
        built paths with the moves made one at a time, and the recovered
        data with the rescanning reverse map."""
        rng = random.Random(12)
        draws = []
        for (k, a), _ in ROUND_TRIP_BOUNDS * 63:  # 1,008 draws
            data = _draw_data(rng, k, a)
            path = forward_construct(data)
            assert is_S_admissible(path, data.gp), data
            assert path.major_index == data.weight(), data
            got = reverse_deconstruct(path, data.gp)
            assert got == data and _as_constructed(got), data
            assert _rescanning_reverse(path, (k, a)) == data
            draws.append((data, path))
        monkeypatch.setattr(lattice_paths, "_place_tokens", _moving_tokens)
        for data, path in draws:
            assert lattice_paths._build(data) == (path.start, path.steps), data


class TestRebuildGuard:
    """The reverse map's one guard after admissibility: the recovered
    data must rebuild the path."""

    def test_miscounted_moves_fail_the_rebuild(self, monkeypatch):
        """Two extra moves per token keep every budget even and
        nonincreasing, so only the rebuild can catch them."""
        real = lattice_paths._place_tokens
        monkeypatch.setattr(lattice_paths, "_place_tokens", lambda u, budgets: real(u, tuple(b + 2 for b in budgets)))
        path = LatticePath(4, EXAMPLE_STEPS)
        with pytest.raises(ValueError, match="does not rebuild"):
            reverse_deconstruct(path, EXAMPLE_DATA.gp)

    def test_a_built_walk_below_zero_is_refused(self, monkeypatch):
        """The public forward map validates the walk it builds, and the
        reverse map refuses a rebuild that differs from the path."""
        monkeypatch.setattr(lattice_paths, "_build", lambda data: (0, "S"))
        with pytest.raises(ValueError, match="path dips below height 0 at step 0"):
            forward_construct(EXAMPLE_DATA)
        with pytest.raises(ValueError, match="does not rebuild"):
            reverse_deconstruct(LatticePath(4, EXAMPLE_STEPS), EXAMPLE_DATA.gp)


class TestReverseBuildsDataOnce:
    """The reverse map builds its data unvalidated; the scan fixes every
    condition of the constructor but the budgets' sign and order, which
    it checks with the constructor's messages.  The round-trip tests
    compare its data with the constructor's (:func:`_as_constructed`)."""

    def test_typed_comparison_tells_types_apart(self):
        assert _typed((1, (2,))) != _typed((True, (2,)))
        assert _typed(((2,),)) != _typed(([2],))
        assert _typed(frozenset({1})) != _typed(frozenset({1.0}))

    @pytest.mark.parametrize("gp, scan, rows", [
        # one stage: a negative budget (the row also increases, and its sign is read first)
        ((3, 2), ([1, 1], [1, 1], [0, 0]), ((-2, 0),)),
        # one stage: a negative budget in a nonincreasing row
        ((3, 2), ([-1, 3], [1, 1], [0, 0]), ((0, -2),)),
        # one stage: an increasing row
        ((3, 2), ([5, 3], [1, 1], [0, 0]), ((0, 4),)),
        # stage 1 increases and stage 2 is negative: stage 1 is read first
        ((4, 1), ([2, 7, 7], [2, 1, 1], [0, 0, 0]), ((0, 2), (-2,))),
    ])
    def test_budget_refusals_use_the_constructor_messages(self, gp, scan, rows, monkeypatch):
        """A scan that reads budgets no ConstructionData holds is
        refused with the message the constructor gives the same rows."""
        monkeypatch.setattr(lattice_paths, "_S_scan", lambda path, gp: scan)
        with pytest.raises(ValueError) as got:
            reverse_deconstruct(LatticePath(0, ""), gp)
        assert "budgets must be" in str(got.value)
        n = (*map(len, rows), 0)
        with pytest.raises(ValueError) as want:
            ConstructionData(GordonParams(*gp), n, right_moves=rows)
        assert str(got.value) == str(want.value)


class TestJsonObj:
    @pytest.mark.parametrize("obj, field", [
        ({"start": 2.9, "steps": "SS"}, "start"),
        ({"start": True, "steps": "S"}, "start"),
        ({"start": "2", "steps": "SS"}, "start"),
        ({"start": 2, "steps": ["S", "S"]}, "steps"),
        ({"steps": "SS"}, "start"),
        ({"start": 2}, "steps"),
    ])
    def test_malformed_field_refused(self, obj, field):
        """Fields are refused, not truncated or coerced by int() and str()."""
        with pytest.raises(ValueError, match=f"path field '{field}'"):
            path_from_json_obj(obj)

    def test_written_objects_load(self):
        paths = enumerate_S_paths(12, (5, 2)) + (LatticePath(0, ""), LatticePath(3, "NSSSSEEN"))
        for p in paths:
            assert path_from_json_obj(json.loads(json.dumps(path_to_json_obj(p)))) == p

    @pytest.mark.parametrize("obj", [[], None, "h=1:S", 1, [["start", 1], ["steps", "S"]]])
    def test_what_is_not_a_dict_is_refused(self, obj):
        """A document that is not a dict gets ValueError, not AttributeError."""
        with pytest.raises(ValueError, match=f"^a path document must be a dict, got {type(obj).__name__}$"):
            path_from_json_obj(obj)


class TestCompactReader:
    @pytest.mark.parametrize("text", [123, None, b"h=1:S", ["h=1:S"]])
    def test_what_is_not_a_str_is_refused(self, text):
        """Not AttributeError or TypeError from the pattern match."""
        with pytest.raises(ValueError, match="^not a compact path"):
            path_from_compact(text)

    @pytest.mark.parametrize("text", ["h=\u0661:S", "h=\uff11:S", "h=\u00b9:S", "h=1\u0660:SS", "h=-1:S", "h=+1:S"])
    def test_height_is_ascii_digits(self, text):
        """Arabic-Indic, fullwidth and superscript digits match \\d but are not a height."""
        with pytest.raises(ValueError, match="^not a compact path"):
            path_from_compact(text)

    def test_ascii_heights_and_surrounding_space_read(self):
        assert path_from_compact(" h=10:SSSSSSSSSS\n") == LatticePath(10, "S" * 10)
        assert path_from_compact("h=007:SSSSSSS") == LatticePath(7, "S" * 7)
        with pytest.raises(ValueError, match="^not a compact path"):
            path_from_compact("h=1:S\nS")


class TestBoolsRefused:
    """A bool is not an int to the path code: a start of True would
    print as ``h=True:...``, which ``path_from_compact`` cannot read."""

    def test_start(self):
        with pytest.raises(ValueError, match="start height must be a nonnegative int, got True"):
            LatticePath(True, "S")

    def test_construction_data(self):
        with pytest.raises(ValueError, match=re.escape("n entries must be ints, got (True, 0)")):
            ConstructionData(gp=GordonParams(3, 2), n=(True, 0), right_moves=((0,),))

    def test_path_bound(self):
        with pytest.raises(ValueError, match="n_max must be an int >= 0, got True"):
            count_S(True, (3, 2))

    def test_right_move_peak_index(self):
        with pytest.raises(ValueError, match="^no peak with index True; path has 2 peaks$"):
            right_move(LatticePath(0, "NSNS"), True)

    def test_uplift_peak_index(self):
        with pytest.raises(ValueError, match="^no peak with index True; path has 2 peaks$"):
            volcanic_uplift(LatticePath(0, "NSNS"), True)


class TestEdgeBranches:
    def test_start_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="start height must be a nonnegative int, got -1"):
            LatticePath(-1, "")

    def test_str_is_the_compact_form(self):
        assert str(LatticePath(2, "SSNS")) == "h=2:SSNS"

    def test_no_left_move_past_the_start(self):
        with pytest.raises(ValueError, match="past the start"):
            _step_left(list("NSSS"), 1)

    def test_peak_counts_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="peak counts must be nonnegative"):
            ConstructionData(gp=GordonParams(3, 2), n=(-1, 0), right_moves=((),))

    def test_one_budget_per_token(self):
        with pytest.raises(ValueError, match="stage 1 has 1 tokens but 2 budgets"):
            ConstructionData(gp=GordonParams(3, 2), n=(1, 0), right_moves=((0, 0),))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
