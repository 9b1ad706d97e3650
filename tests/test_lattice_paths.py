"""Tests for lattice paths, moves, and the staged construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgordon.lattice_paths import (
    ConstructionData,
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
        bad = LatticePath(2, "SSEENNNSSSEE".replace("EE", "EE", 1))
        assert is_S_admissible(good, (3, 2))
        # two E steps before a relative-height-3 peak: rejected
        assert not is_S_admissible(LatticePath(2, "SSEENNNSSS"), (3, 2))

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

    def test_cache_shrinks_consistently(self):
        full = enumerate_S_paths(10, (3, 2))
        partial = enumerate_S_paths(6, (3, 2))
        assert set(partial) <= set(full)
        assert all(p.major_index <= 6 for p in partial)


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

    def test_reverse_rejects_foreign_paths(self):
        with pytest.raises(ValueError, match="not in the construction's image|admissible"):
            reverse_deconstruct(LatticePath(1, "S"), (3, 2))
        with pytest.raises(ValueError, match="opposite parity"):
            reverse_deconstruct(LatticePath(2, "SS"), (3, 1))


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


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
