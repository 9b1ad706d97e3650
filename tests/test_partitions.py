"""Unit tests for the partition oracles.

The counts are checked against the explicit partition lists of
:func:`partitions_of`, filtered by the families' conditions as they are
written out again here, and at high order against the sum and product
sides they count.
"""

from __future__ import annotations

import re

import pytest

from qgordon.bailey import build_chain
from qgordon.identities import (
    eval_multisum_AG,
    eval_multisum_W,
    eval_multisum_Wbar,
    eval_product_side,
)
from qgordon.partitions import (
    _PARITY,
    GordonParams,
    _A_counts,
    _field_width,
    _gordon_counts,
    count_A,
    count_B,
    count_W,
    count_Wbar,
    is_gordon_admissible,
    partitions_of,
)
from qgordon.lattice_paths import LatticePath, is_S_admissible


class TestEnumeration:
    def test_partition_counts(self):
        """p(n) for n = 0..10 is 1,1,2,3,5,7,11,15,22,30,42."""
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(partitions_of(n)) for n in range(11)] == expected

    def test_partitions_are_frequency_pairs(self):
        got = set(partitions_of(4))
        expected = {
            ((4, 1),),
            ((3, 1), (1, 1)),
            ((2, 2),),
            ((2, 1), (1, 2)),
            ((1, 4),),
        }
        assert got == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestGordonAdmissible:
    def test_small_cases(self):
        gp = GordonParams(2, 2)
        assert is_gordon_admissible([], gp)
        assert is_gordon_admissible([4, 1], gp)
        assert not is_gordon_admissible([1, 1], gp)  # f_1 = 2 > a - 1
        assert not is_gordon_admissible([3, 2], gp)  # adjacent parts
        assert not is_gordon_admissible([2, 2], gp)  # f_2 = 2 > k - 1

    def test_ones_cap_depends_on_a(self):
        assert not is_gordon_admissible([1], (2, 1))
        assert is_gordon_admissible([1], (2, 2))
        assert is_gordon_admissible([1, 1], (3, 3))
        assert not is_gordon_admissible([1, 1], (3, 2))

    def test_accepts_tuple_params(self):
        assert is_gordon_admissible([5, 3, 1], (2, 2))

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            is_gordon_admissible([0], (2, 2))

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError, match="^parts must be positive ints, got True$"):
            is_gordon_admissible([True, 2], (3, 2))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GordonParams(2, 3)
        with pytest.raises(ValueError):
            GordonParams(2, 0)

    @pytest.mark.parametrize("k, a", [(2.0, 1), (2, 1.0), ("2", 1)])
    def test_params_must_be_ints(self, k, a):
        with pytest.raises(TypeError, match="k and a must be ints"):
            GordonParams(k, a)

    def test_bool_params_refused(self):
        with pytest.raises(TypeError, match="k and a must be ints"):
            GordonParams(True, True)

    @pytest.mark.parametrize("gp", [5, None, "32", (3,), (3, 2, 1), {3: 0, 2: 0}, {3, 2}], ids=repr)
    def test_params_must_be_a_pair(self, gp):
        """Anything but a GordonParams or a (k, a) tuple or list is refused
        by name wherever (k, a) is read: a dict or a set used to be read
        in its iteration order, and the rest raised unpacking errors."""
        message = f"^{re.escape(repr(gp))} is not a GordonParams or a \\(k, a\\) pair$"
        for call in (lambda: count_B(5, gp), lambda: is_S_admissible(LatticePath(2, "SS"), gp),
                     lambda: build_chain(gp, 2, 10), lambda: eval_multisum_AG(gp, 10)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_pair_entries_keep_their_errors(self):
        """A tuple or list pair is read as (k, a), and GordonParams refuses
        its entries as it refuses them itself."""
        assert count_B(9, [3, 2]) == count_B(9, (3, 2)) == count_B(9, GordonParams(3, 2))
        with pytest.raises(TypeError, match="k and a must be ints"):
            count_B(5, (3, 2.0))
        with pytest.raises(ValueError, match="need 1 <= a <= k, got k=2, a=3"):
            count_B(5, [2, 3])


class TestCounts:
    def test_bool_n_refused(self):
        with pytest.raises(ValueError, match="cannot partition True"):
            count_B(True, (2, 2))

    def test_first_rogers_ramanujan_counts(self):
        """B(2,2): parts distinct with gaps >= 2."""
        expected = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]
        assert [count_B(n, (2, 2)) for n in range(11)] == expected

    def test_second_rogers_ramanujan_counts(self):
        """B(2,1): additionally no part 1."""
        expected = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4]
        assert [count_B(n, (2, 1)) for n in range(11)] == expected

    def test_congruence_counts_match_gordon_counts(self):
        """A(k,a)(n) = B(k,a)(n) on a small grid (Gordon's theorem)."""
        for k in (2, 3):
            for a in range(1, k + 1):
                for n in range(16):
                    assert count_A(n, (k, a)) == count_B(n, (k, a)), (k, a, n)

    def test_congruence_residues(self):
        """A(2,1) partitions avoid parts = 0, 1, 4 mod 5."""
        assert count_A(1, (2, 1)) == 0
        assert count_A(2, (2, 1)) == 1  # (2)
        assert count_A(5, (2, 1)) == 1  # (3,2); (5) banned
        assert count_A(7, (2, 1)) == 2  # (7), (3,2,2)

    def test_even_parity_filter(self):
        """W(3,3)(4) = 2: the partitions (3,1) and (2,2)."""
        assert count_W(4, (3, 3)) == 2

    def test_odd_parity_filter(self):
        """Wbar(3,2): n=1 fails (odd part once), n=2 has only (2)."""
        assert count_Wbar(0, (3, 2)) == 1
        assert count_Wbar(1, (3, 2)) == 0
        assert count_Wbar(2, (3, 2)) == 1

    def test_parity_families_are_subsets_of_B(self):
        for n in range(14):
            for k in (2, 3, 4):
                for a in range(1, k + 1):
                    b = count_B(n, (k, a))
                    assert count_W(n, (k, a)) <= b
                    assert count_Wbar(n, (k, a)) <= b

    def test_B_monotone_in_a_and_k(self):
        """Loosening f_1 (a) or the pair bound (k) can only add partitions."""
        for n in range(14):
            for k in (2, 3, 4):
                for a in range(1, k):
                    assert count_B(n, (k, a)) <= count_B(n, (k, a + 1))
                for a in range(1, k + 1):
                    assert count_B(n, (k, a)) <= count_B(n, (k + 1, a))

    @pytest.mark.parametrize("count", [count_A, count_B, count_W, count_Wbar])
    @pytest.mark.parametrize("n", [-1, 2.0, "3", None])
    def test_rejects_bad_n(self, count, n):
        with pytest.raises(ValueError):
            count(n, (3, 2))


def _brute_force_counts(n: int) -> dict:
    """Counts of B, A, W and Wbar at n for every 1 <= a <= k <= 6, each
    partition of n tested against the conditions written out here."""
    counts = dict.fromkeys(
        ((family, k, a) for family in ("B", "A", "W", "Wbar") for k in range(1, 7) for a in range(1, k + 1)),
        0,
    )
    for freqs in partitions_of(n):
        f = dict(freqs)
        ones = f.get(1, 0)
        # the largest f_i + f_{i+1}; a pair with f_i = 0 is covered at i + 1
        pair = max((m + f.get(p + 1, 0) for p, m in freqs), default=0)
        even_parts_even = all(m % 2 == 0 for p, m in freqs if p % 2 == 0)
        odd_parts_even = all(m % 2 == 0 for p, m in freqs if p % 2 == 1)
        for k in range(1, 7):
            for a in range(1, k + 1):
                if ones <= a - 1 and pair <= k - 1:
                    counts["B", k, a] += 1
                    counts["W", k, a] += even_parts_even
                    counts["Wbar", k, a] += odd_parts_even
                if all(p % (2 * k + 1) not in (0, a, 2 * k + 1 - a) for p in f):
                    counts["A", k, a] += 1
    return counts


class TestAgainstBruteForce:
    def test_every_family_up_to_k6_and_n30(self):
        count = {"B": count_B, "A": count_A, "W": count_W, "Wbar": count_Wbar}
        for n in range(31):
            for (family, k, a), expected in _brute_force_counts(n).items():
                assert count[family](n, (k, a)) == expected, (family, k, a, n)


# (count, side) at order 200, for pairs in every regime of the sides
_HIGH_ORDER = [
    (count_B, eval_multisum_AG, [(2, 1), (3, 3), (4, 2)]),
    (count_A, lambda gp, order: eval_product_side("AG", gp, order), [(2, 1), (4, 2), (6, 5)]),
    (count_W, eval_multisum_W, [(2, 2), (3, 1), (3, 2), (4, 1)]),
    (count_Wbar, eval_multisum_Wbar, [(3, 2), (2, 1), (4, 3)]),
]


@pytest.mark.parametrize(
    "count, side, k, a",
    [(count, side, k, a) for count, side, pairs in _HIGH_ORDER for k, a in pairs],
)
def test_counts_match_their_series_below_q200(count, side, k, a):
    series = side(GordonParams(k, a), 200)
    assert [count(n, (k, a)) for n in range(200)] == [series.coefficient(n) for n in range(200)]


def _series(family, n_max, gp):
    """The one-pass counts of ``family`` for n = 0..n_max."""
    if family == "A":
        return _A_counts(n_max, gp)
    return _gordon_counts(n_max, gp, _PARITY[family])


class TestOnePass:
    def test_series_equals_counts_per_n(self):
        """Every family, every 1 <= a <= k <= 7: the pass to 60 reads the
        same counts as a pass ending at each n."""
        for family in ("B", "A", "W", "Wbar"):
            for k in range(1, 8):
                for a in range(1, k + 1):
                    expected = [_series(family, n, (k, a))[n] for n in range(61)]
                    assert _series(family, 60, (k, a)) == expected, (family, k, a)

    def test_empty_below_zero(self):
        assert _gordon_counts(-1, (3, 2)) == [] and _A_counts(-1, (3, 2)) == []
        assert _gordon_counts(0, (3, 2), 1) == [1] and _A_counts(0, (3, 2)) == [1]

    def test_field_width_holds_every_partition_number(self):
        """p(n), from Euler's pentagonal recurrence, fits the packed field
        width with at least four bits to spare for every n <= 3000."""
        top = 3000
        p = [1] + [0] * top
        for n in range(1, top + 1):
            j, total = 1, 0
            while j * (3 * j - 1) // 2 <= n:
                sign = 1 if j % 2 else -1
                total += sign * p[n - j * (3 * j - 1) // 2]
                if j * (3 * j + 1) // 2 <= n:
                    total += sign * p[n - j * (3 * j + 1) // 2]
                j += 1
            p[n] = total
        assert p[100] == 190569292
        for n in range(top + 1):
            assert p[n].bit_length() <= _field_width(n) - 4, n


# (family, side) below q^401, each at two (k, a) of its regime: a packed
# field too narrow for its count would carry into the next one
_AT_400 = [
    ("B", eval_multisum_AG, [(3, 2), (6, 4)]),
    ("A", lambda gp, order: eval_product_side("AG", gp, order), [(3, 2), (6, 4)]),
    ("W", eval_multisum_W, [(3, 3), (4, 1)]),
    ("Wbar", eval_multisum_Wbar, [(3, 2), (4, 1)]),
]


@pytest.mark.parametrize(
    "family, side, k, a",
    [(family, side, k, a) for family, side, pairs in _AT_400 for k, a in pairs],
)
def test_series_match_their_sides_below_q401(family, side, k, a):
    series = side(GordonParams(k, a), 401)
    assert _series(family, 400, (k, a)) == [series.coefficient(n) for n in range(401)]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
