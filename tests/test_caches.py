"""Tests for the package's caches and tables, and for clearing them."""

from __future__ import annotations

import pytest

import qgordon
from qgordon import bailey, identities, lattice_paths, partitions, qseries


def test_clear_caches_empties_every_cache():
    partitions.count_B(6, (3, 2))
    lattice_paths.enumerate_S_paths(6, (3, 2))
    identities.eval_product_side("AG", (3, 2), 10)
    bailey.check_pair(bailey.unit_pair(2, 10))
    bailey.apply_S2(bailey.unit_pair(2, 10))
    assert partitions._COUNT_TABLES
    assert lattice_paths._SPATH_CACHE
    assert identities._ETA_QUOTIENTS
    assert bailey._WING_QUOTIENTS
    assert qseries._QUOTIENT_COLUMNS
    qgordon.clear_caches()
    assert not partitions._COUNT_TABLES
    assert not lattice_paths._SPATH_CACHE
    assert not identities._ETA_QUOTIENTS
    assert not bailey._WING_QUOTIENTS
    assert not qseries._QUOTIENT_COLUMNS


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


def _last_slot_raised(bp):
    """bp with 1 added at the last half-grid slot of beta_n_max."""
    cs = list(bp.beta[-1].coeffs)
    cs[-1] += 1
    return bailey.BaileyPair(bp.alpha, bp.beta[:-1] + (qgordon.Series(cs, bp.order, 2),))


def test_wing_table_gives_one_answer_cold_or_warm():
    """check_pair reads the same table rows whether the table is cold,
    holds a longer window, or holds columns to a larger n_max; a check
    extends the table but leaves every row it held as it was."""
    links = [bp for _, bp in bailey.build_chain((5, 2), 6, 40)]
    pairs = links + [_last_slot_raised(bp) for bp in links]
    table = bailey._WING_QUOTIENTS

    def results():
        return [bailey.check_pair(bp) for bp in pairs]

    qgordon.clear_caches()
    cold = results()
    assert cold == [True] * len(links) + [False] * len(links)
    warmups = (
        bailey.unit_pair(0, 60),  # a longer window, column 0 only
        bailey.build_chain((5, 2), 6, 60)[-1][1],  # a longer window, every column the chain needs
        bailey.build_chain((5, 2), 12, 40)[-1][1],  # the same window to n = 12
    )
    for warmup in warmups:
        qgordon.clear_caches()
        assert bailey.check_pair(warmup)
        window = len(table[0][0])
        held = {r: list(col) for r, col in table.items()}
        assert results() == cold
        assert {len(row) for col in table.values() for row in col} == {window}
        for r, rows in held.items():
            assert all(a is b for a, b in zip(rows, table[r])) and len(table[r]) >= len(rows), r


def test_quotient_columns_give_one_answer_cold_or_warm():
    """The chain steps read the same column rows 1 / ((spec)_n (row_spec)_n)
    whether the table is cold, holds a longer window, or holds rows to a
    larger n_max; a step extends a column but leaves every row it held
    as it was, and never rebuilds a column at a shorter window."""
    tables = qseries._QUOTIENT_COLUMNS

    def results():
        return [(label, [s.coeffs for s in bp.alpha], [s.coeffs for s in bp.beta])
                for label, bp in bailey.build_chain((5, 2), 6, 40)]

    qgordon.clear_caches()
    cold = results()
    # D1's (q^2; q^2), and S2's (t^2; t^2) with (-t; t^2)
    assert set(tables) == {(bailey._Q2, None), (bailey._T2, bailey._NEG_T)}
    for (spec, row_spec), table in tables.items():
        window = len(table[0][0])
        for n, row in enumerate(table[0]):
            want = qseries.invert_poch(spec, window, n)
            if row_spec is not None:
                want = want * qseries.invert_poch(row_spec, window, n)
            assert row == want.coeffs, (spec, n)
    warmups = (
        ((5, 2), 6, 60),  # a longer window
        ((5, 2), 12, 40),  # the same window to n = 12
        ((7, 2), 10, 80),  # both
    )
    for warmup in warmups:
        qgordon.clear_caches()
        bailey.build_chain(*warmup)
        held = {key: list(table[0]) for key, table in tables.items()}
        assert results() == cold
        for key, rows in held.items():
            column = tables[key][0]
            assert {len(row) for row in column} == {len(rows[0])}, key
            assert all(a is b for a, b in zip(rows, column)) and len(column) >= len(rows), key


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
