"""
Lattice paths with peak statistics
==================================

Paths move NE, SE, or E (E only on the x-axis), start on the y-axis,
and end on the x-axis.  Each peak carries a weight (its x-coordinate)
and a relative height; the major index is the sum of peak weights.
A staged construction builds every admissible path from a tuple of
peak counts, an E-step partition, an uplift set, and per-stage
right-move budgets, and it reverses exactly.
"""

from qgordon import (
    ConstructionData,
    GordonParams,
    LatticePath,
    count_S,
    enumerate_S_paths,
    eval_multisum_main,
    forward_construct,
    path_to_compact,
    reverse_deconstruct,
    right_move,
    volcanic_uplift,
)

# A path is a starting height plus a step word.
path = LatticePath(2, "NSSNNSSS")
print("path        :", path_to_compact(path))
print("peaks (x, y):", path.peaks())
print("rel heights :", path.relative_heights())
print("major index :", path.major_index)

# Elementary right move: a relative-height-1 peak slides one unit
# right, raising the major index by exactly 1.  Volcanic uplift splits
# a peak open and rebuilds it one unit higher, raising the major index
# by 2r - 1 for the r-th peak from the right.
moved, idx = right_move(path, 0)
print("\nafter right move on peak 0:", path_to_compact(moved), "major", moved.major_index)
lifted = volcanic_uplift(path, 0)
print("after uplift of peak 0    :", path_to_compact(lifted), "major", lifted.major_index)

# Enumerating the family S(k, a) (start at k + 1 - a, peaks no higher
# than k, weight parity tied to relative height, and an E-step rule for
# the two tallest relative heights) reproduces the coefficients of the
# parity-restricted multisum.
gp = GordonParams(3, 2)
series = eval_multisum_main(gp, 11)
print("\n(k, a) = (3, 2)")
print("path counts:", [count_S(n, gp) for n in range(11)])
print("multisum   :", [series.coefficient(n) for n in range(11)])

for p in enumerate_S_paths(6, gp):
    print(f"  major {p.major_index:2d}  {path_to_compact(p)}")

# The staged construction, shown on a seven-peak example at (5, 2).
# The reverse map recovers every choice, so the data below is a
# coordinate system for the path.
data = ConstructionData(
    gp=GordonParams(5, 2),
    n=(3, 1, 1, 2),
    east_partition=(1, 0),
    uplift_set=frozenset({2}),
    right_moves=((4, 2, 0), (0,), (2,)),
)
built = forward_construct(data)
print("\nconstructed :", path_to_compact(built))
print("peak weights:", tuple(x for x, _ in built.peaks()))
print("rel heights :", built.relative_heights())
print("major index :", built.major_index, "= declared weight", data.weight())
print("reverse round trip recovers the data:", reverse_deconstruct(built, data.gp) == data)
