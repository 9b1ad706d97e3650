"""Tests for the package's caches and tables, and for clearing them."""

from __future__ import annotations

import pytest

import qgordon
from qgordon import identities, lattice_paths, partitions


def test_clear_caches_empties_every_cache():
    partitions.count_B(6, (3, 2))
    lattice_paths.enumerate_S_paths(6, (3, 2))
    identities.eval_product_side("AG", (3, 2), 10)
    assert partitions._COUNT_TABLES
    assert lattice_paths._SPATH_CACHE
    assert identities._ETA_QUOTIENTS
    qgordon.clear_caches()
    assert not partitions._COUNT_TABLES
    assert not lattice_paths._SPATH_CACHE
    assert not identities._ETA_QUOTIENTS


def test_count_table_at_most_doubles():
    """A count past the table's end refills it to at most max(n + 1, twice
    its length), so an ascending scan makes about two passes in all."""
    qgordon.clear_caches()
    old = 0
    for n in (0, 1, 2, 3, 5, 9, 10, 40, 41, 200, 3, 201):
        partitions.count_W(n, (4, 1))
        length = len(partitions._COUNT_TABLES[("W", 4, 1)])
        assert n < length <= max(n + 1, 2 * old), n
        old = length


def test_path_table_keeps_words():
    """The S-path table holds each path's step string and major index;
    the paths themselves are built only when they are asked for."""
    qgordon.clear_caches()
    lattice_paths.count_S(8, (3, 2))
    bound, words, majors = lattice_paths._SPATH_CACHE[(3, 2)]
    paths = lattice_paths.enumerate_S_paths(8, (3, 2))
    assert bound == 8 and all(type(w) is str for w in words)
    assert [(p.major_index, p.steps) for p in paths] == list(zip(majors, words))


@pytest.mark.parametrize("n", [True, -1, 2.0])
@pytest.mark.parametrize("count, message", [
    (lattice_paths.count_S, "n_max must be an int >= 0"),
    (partitions.count_B, "cannot partition"),
    (partitions.count_A, "cannot partition"),
])
def test_warm_tables_still_refuse_bad_n(count, message, n):
    """A table that already reaches n does not let a bad n through."""
    count(6, (3, 2))
    with pytest.raises(ValueError, match=message):
        count(n, (3, 2))


def test_clear_caches_is_exported():
    assert "clear_caches" in qgordon.__all__
