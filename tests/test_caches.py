"""Tests for clearing the package's caches."""

from __future__ import annotations

import qgordon
from qgordon import identities, lattice_paths, partitions


def test_clear_caches_empties_every_cache():
    partitions.partitions_of(6)
    lattice_paths.enumerate_S_paths(6, (3, 2))
    identities.eval_product_side("AG", (3, 2), 10)
    assert partitions.partitions_of.cache_info().currsize > 0
    assert lattice_paths._SPATH_CACHE
    assert identities._ETA_QUOTIENTS
    qgordon.clear_caches()
    assert partitions.partitions_of.cache_info().currsize == 0
    assert not lattice_paths._SPATH_CACHE
    assert not identities._ETA_QUOTIENTS


def test_clear_caches_is_exported():
    assert "clear_caches" in qgordon.__all__


def test_partition_lists_are_bounded():
    qgordon.clear_caches()
    for n in range(25):
        partitions.partitions_of(n)
    info = partitions.partitions_of.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 25
