"""Tests for clearing the package's caches."""

from __future__ import annotations

import qgordon
from qgordon import lattice_paths, partitions, qseries
from qgordon.qseries import PochSpec


def test_clear_caches_empties_every_cache():
    qseries.poch_finite(PochSpec(1, 1, 1), 3, 10)
    partitions.partitions_of(6)
    lattice_paths.enumerate_S_paths(6, (3, 2))
    assert qseries._poch.cache_info().currsize > 0
    assert partitions.partitions_of.cache_info().currsize > 0
    assert lattice_paths._SPATH_CACHE
    qgordon.clear_caches()
    assert qseries._poch.cache_info().currsize == 0
    assert partitions.partitions_of.cache_info().currsize == 0
    assert not lattice_paths._SPATH_CACHE


def test_clear_caches_is_exported():
    assert "clear_caches" in qgordon.__all__
