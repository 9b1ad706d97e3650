"""Tests for the package's caches and tables, and for clearing them."""

from __future__ import annotations

import pytest

import qgordon
from qgordon import bailey, identities, lattice_paths, partitions, qseries


def _key(*specs, starts=None):
    """The row table's key for the symbols ``specs``, from ``starts``
    (all 0 when omitted)."""
    starts = starts or (0,) * len(specs)
    return tuple((x.sign, x.exponent, x.base, start) for x, start in zip(specs, starts))


Q = qseries.PochSpec(1, 1, 1)


def _check_key(r):
    """The key of check_pair's rows 1 / ((q; q)_{n-r} (q; q)_{n+r})."""
    return _key(Q, Q, starts=(0, 2 * r))


def test_clear_caches_empties_every_cache():
    """The check and a chain step fill the one table of quotient rows,
    each under its own key, and clearing empties it with the others."""
    qgordon.clear_caches()
    partitions.count_B(6, (3, 2))
    lattice_paths.enumerate_S_paths(6, (3, 2))
    identities.eval_product_side("AG", (3, 2), 10)
    bailey.check_pair(bailey.unit_pair(2, 10))
    bailey.apply_S2(bailey.unit_pair(2, 10))
    assert partitions._COUNT_TABLES
    assert lattice_paths._SPATH_CACHE
    assert identities._ETA_QUOTIENTS
    checks = {_check_key(r) for r in range(3)}
    assert set(bailey._QUOTIENT_ROWS) == checks | {_key(bailey._X2, bailey._NEG_T)}
    qgordon.clear_caches()
    assert not partitions._COUNT_TABLES
    assert not lattice_paths._SPATH_CACHE
    assert not identities._ETA_QUOTIENTS
    assert not bailey._QUOTIENT_ROWS


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
    """The S-path table holds each path's step string and the number of
    paths at each major index up to its bound; the paths themselves are
    built only when they are asked for, sorted by major index and then
    by steps."""
    qgordon.clear_caches()
    lattice_paths.count_S(8, (3, 2))
    words, counts = lattice_paths._SPATH_CACHE[(3, 2)]
    paths = lattice_paths.enumerate_S_paths(8, (3, 2))
    keyed = [(p.major_index, p.steps) for p in paths]
    assert len(counts) == 9 and all(type(w) is str for w in words)
    assert keyed == sorted(keyed) and [w for _, w in keyed] == list(words)
    assert counts == [sum(m == n for m, _ in keyed) for n in range(9)]


def _last_slot_raised(bp):
    """bp with 1 added at the last half-grid slot of beta_n_max."""
    cs = list(bp.beta[-1].coeffs)
    cs[-1] += 1
    return bailey.BaileyPair(bp.alpha, bp.beta[:-1] + (qgordon.Series(cs, bp.order, 2),))


def _held(table):
    """A copy of each key's list of rows."""
    return {key: list(rows) for key, rows in table.items()}


def _kept(table, held):
    """Whether every held key still has its rows, the same objects, all
    of one length, and at least as many."""
    for key, rows in held.items():
        now = table[key]
        assert {len(row) for row in now} == {len(rows[0])}, key
        assert all(a is b for a, b in zip(rows, now)) and len(now) >= len(rows), key
    return True


def test_wing_table_gives_one_answer_cold_or_warm():
    """check_pair reads the same rows of the quotient table whether it is
    cold, holds a longer window, or holds rows to a larger n_max; a check
    extends a key's rows but leaves every row it held as it was."""
    links = [bp for _, bp in bailey.build_chain((5, 2), 6, 40)]
    pairs = links + [_last_slot_raised(bp) for bp in links]
    table = bailey._QUOTIENT_ROWS

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
        assert table and set(table) <= {_check_key(r) for r in range(len(warmup.alpha))}
        held = _held(table)
        assert results() == cold
        assert _kept(table, held)


def test_quotient_columns_give_one_answer_cold_or_warm():
    """The chain steps read the same rows 1 / ((x^2; x^2)_n (row_spec)_n) of
    the quotient table whether it is cold, holds a longer window, or holds
    rows to a larger n_max; a step extends a key's rows but leaves every
    row it held as it was, and never rebuilds a key at a shorter window."""
    table = bailey._QUOTIENT_ROWS

    def results():
        return [(label, [s.coeffs for s in bp.alpha], [s.coeffs for s in bp.beta])
                for label, bp in bailey.build_chain((5, 2), 6, 40)]

    qgordon.clear_caches()
    cold = results()
    # D1's (x^2; x^2) in q, and S2's in t with (-t; t^2)
    assert set(table) == {_key(bailey._X2), _key(bailey._X2, bailey._NEG_T)}
    for key, rows in table.items():
        window = len(rows[0])
        for n, row in enumerate(rows):
            want = qseries.Series.one(window)
            for sign, exponent, base, start in key:
                want = want * qseries.invert_poch(qseries.PochSpec(sign, exponent, base), window, start + n)
            assert row == want.coeffs, (key, n)
    warmups = (
        ((5, 2), 6, 60),  # a longer window
        ((5, 2), 12, 40),  # the same window to n = 12
        ((7, 2), 10, 80),  # both
    )
    for warmup in warmups:
        qgordon.clear_caches()
        bailey.build_chain(*warmup)
        held = _held(table)
        assert results() == cold
        assert _kept(table, held)


def test_a_longer_window_rebuilds_that_key_alone():
    """A key asked at a longer window gets new rows to that window, while
    its old rows stay as they were and every other key keeps its rows;
    a shorter window then reads prefixes of the new rows."""
    qgordon.clear_caches()
    table = bailey._QUOTIENT_ROWS
    key = _check_key(1)
    others = (_check_key(0), _check_key(2), _key(bailey._X2, bailey._NEG_T))
    short = bailey._table_rows(key, 4, 10)
    short_values = list(short)
    for other in others:
        bailey._table_rows(other, 3, 10)
    held = _held(table)
    del held[key]
    rows = bailey._table_rows(key, 2, 25)
    assert rows is table[key] and rows is not short and len(rows) == 3
    assert {len(row) for row in rows} == {25}
    assert short == short_values and [row[:10] for row in rows] == short[:3]
    assert set(table) == {key, *others} and _kept(table, held)
    assert all(table[other][0] is held[other][0] for other in others)
    assert bailey._table_rows(key, 5, 10) is rows and {len(row) for row in rows} == {25}
    for n, row in enumerate(rows):
        want = qseries.invert_poch(Q, 25, n) * qseries.invert_poch(Q, 25, 2 + n)
        assert row == want.coeffs, n


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
