"""Exactness gate: a SHA-256 digest of every case's canonical JSON.

Each case evaluates one group of results (sum and product sides, their
refusals, the counting oracles asked in a mixed order of n, Bailey
chains and their links with one slot corrupted, reverse maps of lattice paths, small runs of the command line)
and encodes them as JSON-ready data: a series as its grid, order and
every coefficient, a refusal as its type and message, a command as its
exit code, stdout and stderr.  ``tests/exactness.json``
holds the digests of a known-good tree; a change that must keep every
result identical has to reproduce them.

    python tests/exactness.py --write    # rewrite exactness.json
    python tests/exactness.py --check    # compare the high-order cases

``test_exactness.py`` runs the Tier-1 cases, one test per case; the
high-order cases (every tag at order 1000, three at order 2000, four at
order 4000, every product shape at orders 2000, 1000 and 200 in one
process, a scan of each partition family's counts to n = 1000, every
chain to n = 20 at order 101 and the order-101 chain run of the command
line) take several seconds and run from the command line only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

# this checkout's package first, as ``python tests/exactness.py`` runs it
# from a checkout with nothing installed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qgordon import (
    BaileyPair,
    GordonParams,
    Series,
    build_chain,
    check_pair,
    clear_caches,
    count_A,
    count_B,
    count_S,
    count_W,
    count_Wbar,
    enumerate_S_paths,
    eval_multisum_AG,
    eval_multisum_main,
    eval_multisum_W,
    eval_multisum_Wbar,
    eval_product_side,
    reverse_deconstruct,
)
from qgordon import cli
from qgordon.identities import THEOREMS
from qgordon.lattice_paths import _S_counts

DIGESTS = Path(__file__).with_name("exactness.json")

#: each tag's sum side: the evaluator that reads its ladder
SUM_SIDE = {
    "AG": eval_multisum_AG,
    "W_same": eval_multisum_W,
    "W_diff": eval_multisum_W,
    "Wbar_odd_even": eval_multisum_Wbar,
    "Wbar_even_odd": eval_multisum_Wbar,
    "Main": eval_multisum_main,
    "Paths": eval_multisum_main,
}
ORDERS = (1, 2, 7, 61, 200)
BAD_ORDERS = (0, -3, 7.5, "7", None)
PAIRS = tuple((k, a) for k in range(1, 9) for a in range(1, k + 1))
OPPOSITE = tuple((k, a) for k, a in PAIRS if (k - a) % 2)
#: one small run of each subcommand, and one refused with exit code 2
CLI_RUNS = {
    "verify": "verify --theorem ag --k 5 --a 2 --order 60",
    "count-B": "count --family B --k 3 --a 2 --n 30",
    "count-S": "count --family S --k 5 --a 2 --n 16",
    "enumerate-paths": "enumerate-paths --k 4 --a 1 --n 12",
    "enumerate-paths-json": "enumerate-paths --k 3 --a 2 --n 10 --format json",
    "bailey-chain": "bailey-chain --k 4 --a 1 --nmax 5 --order 24",
    "sweep": "sweep --kmax 3 --order 20",
    "refused-S-cap": "count --family S --k 3 --a 2 --n 41",
}
#: the high-order chain run that CI also makes through the installed script
HIGH_CHAIN_RUN = "bailey-chain --k 7 --a 2 --nmax 100 --order 101"
#: one pair of every tag with a product side (four eta quotients among them), read
#: longest order first so that the later reads are prefixes of the first
PRODUCT_PAIRS = (("AG", 8, 3), ("W_same", 8, 4), ("W_diff", 8, 3), ("Wbar_odd_even", 7, 2),
                 ("Wbar_even_odd", 8, 5), ("Main", 7, 2))
PRODUCT_ORDERS = (2000, 1000, 200)
#: each partition family's counting oracle
COUNTS = {"B": count_B, "W": count_W, "Wbar": count_Wbar, "A": count_A}
#: the order the oracles are asked n in: ascending, one jump, then back down
COUNT_SCAN = (*range(61), 200, *range(199, -1, -1))
PATH_SCAN = (*range(13), 20, *range(19, -1, -1))
#: n that every oracle refuses, whatever it has already counted
BAD_N = (True, False, -1, 2.0, "3", None)
#: the chains whose links the gate checks again with one slot corrupted
CORRUPT_PAIRS = ((5, 2), (7, 2))
#: the pair and bound of the high-order scans
SCAN_PAIR, SCAN_TOP = (7, 2), 1000


def _series(s) -> list:
    return [s.denom, str(s.order), list(s.coeffs)]


def _outcome(fn, *args, encode=_series) -> list:
    """["ok", encoded result] or ["raise", exception type, message]."""
    try:
        return ["ok", encode(fn(*args))]
    except Exception as exc:  # a refusal is a result like any other
        return ["raise", type(exc).__name__, str(exc)]


def _sides(tag: str, k: int, a: int, orders) -> list:
    gp = GordonParams(k, a)
    return [
        [o, _outcome(SUM_SIDE[tag], gp, o), _outcome(eval_product_side, tag, gp, o)]
        for o in orders
    ]


def _products() -> list:
    """Every product shape at falling orders in one process."""
    return [[tag, k, a, o, _outcome(eval_product_side, tag, GordonParams(k, a), o)]
            for o in PRODUCT_ORDERS for tag, k, a in PRODUCT_PAIRS]


def _counts(k: int, a: int) -> list:
    """Every family's counts at (k, a), from cold, in the order COUNT_SCAN."""
    clear_caches()
    return [[family, [count(n, (k, a)) for n in COUNT_SCAN]] for family, count in COUNTS.items()]


def _path_counts(k: int, a: int) -> list:
    """count_S from cold in the order PATH_SCAN, then one-search counts and
    enumerations at bounds above, inside and below what was searched."""
    clear_caches()
    gp = (k, a)
    return [[count_S(n, gp) for n in PATH_SCAN],
            [_S_counts(n, gp) for n in (22, 9, 0, -1)],
            [[str(p) for p in enumerate_S_paths(n, gp)] for n in (21, 14, 0)]]


def _bad_n() -> list:
    """Each oracle's refusal of every BAD_N, cold and then after counting past it."""
    oracles = {**COUNTS, "S": count_S, "enumerate": enumerate_S_paths}
    clear_caches()
    cold = [[name, repr(n), _outcome(fn, n, (3, 2), encode=repr)]
            for name, fn in oracles.items() for n in BAD_N]
    for fn in oracles.values():
        fn(12, (3, 2))
    warm = [[name, repr(n), _outcome(fn, n, (3, 2), encode=repr)]
            for name, fn in oracles.items() for n in BAD_N]
    return [cold, warm]


def _scan(family: str) -> list:
    """One family's counts at SCAN_PAIR for n = 0..SCAN_TOP, asked one n at a time."""
    clear_caches()
    return [COUNTS[family](n, SCAN_PAIR) for n in range(SCAN_TOP + 1)]


def _refusals(tag: str) -> list:
    """Bad orders at the tag's first pair, then every pair outside its regime."""
    thm = THEOREMS[tag]
    k, a = next(p for p in PAIRS if thm.applies(*p))
    out = [["order", repr(o), _sides(tag, k, a, [o])] for o in BAD_ORDERS]
    out += [["regime", k, a, _sides(tag, k, a, [7])] for k, a in PAIRS if not thm.applies(k, a)]
    return out


def _chain(k: int, a: int, n_max: int, order: int) -> list:
    return [
        [label, [_series(s) for s in bp.alpha], [_series(s) for s in bp.beta], check_pair(bp)]
        for label, bp in build_chain((k, a), n_max, order)
    ]


def _bump(s, slot: int):
    """s plus q^(slot/2); a slot at or past s's window raises its order
    to just past that slot."""
    cs = list(s.coeffs)
    if slot < len(cs):
        cs[slot] += 1
        return Series(cs, s.order, 2)
    cs += [0] * (slot - len(cs)) + [1]
    return Series(cs, Fraction(slot + 1, 2), 2)


def _chain_corrupt(k: int, a: int, n_max: int, order: int) -> list:
    """check_pair on every link of one chain with one slot of one alpha_n
    or beta_n raised by 1: at slot n, at the last slot of each class
    below the pair's window (all must fail), and at the first slot past
    it, which only raises that series' order (all must pass)."""
    out = []
    for label, bp in build_chain((k, a), n_max, order):
        length = len(bp.alpha[0].coeffs)
        for field in ("alpha", "beta"):
            series = getattr(bp, field)
            for n in range(bp.n_max + 1):
                for slot in (n, length - 2, length - 1, length):
                    bumped = series[:n] + (_bump(series[n], slot),) + series[n + 1:]
                    pair = BaileyPair(bumped, bp.beta) if field == "alpha" else BaileyPair(bp.alpha, bumped)
                    out.append([label, field, n, slot, check_pair(pair)])
    return out


def _data(d) -> list:
    return [d.gp.k, d.gp.a, list(d.n), list(d.east_partition), sorted(d.uplift_set),
            [list(row) for row in d.right_moves]]


def _reverse(k: int, a: int) -> list:
    """Criterion 07's paths at (k, a): every admissible path to major index 20."""
    return [[str(p), _outcome(reverse_deconstruct, p, (k, a), encode=_data)]
            for p in enumerate_S_paths(20, (k, a))]


def _foreign(k: int, a: int) -> list:
    """Each S(k, a) path to major index 12 read under every other pair with k' <= 5."""
    others = [p for p in PAIRS if p[0] <= 5 and p != (k, a)]
    return [[str(p), [_outcome(reverse_deconstruct, p, o, encode=_data) for o in others]]
            for p in enumerate_S_paths(12, (k, a))]


def _cli(command: str) -> list:
    """[exit code, stdout, stderr] of ``qgordon <command>``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(command.split())
    return [code, out.getvalue(), err.getvalue()]


def _cases() -> tuple[dict, dict]:
    """(Tier-1 cases, high-order cases): name -> thunk."""
    tier1 = {}
    for tag, thm in THEOREMS.items():
        for k, a in PAIRS:
            if thm.applies(k, a):
                tier1[f"sides-{tag}-{k}-{a}"] = lambda t=tag, k=k, a=a: _sides(t, k, a, ORDERS)
        tier1[f"refusals-{tag}"] = lambda t=tag: _refusals(t)
    for k, a in PAIRS:
        tier1[f"counts-{k}-{a}"] = lambda k=k, a=a: _counts(k, a)
        tier1[f"paths-{k}-{a}"] = lambda k=k, a=a: _path_counts(k, a)
    tier1["refusals-n"] = _bad_n
    for k, a in OPPOSITE:
        for n_max, order in ((6, 40), (10, 60)):
            tier1[f"chain-{k}-{a}-{n_max}-{order}"] = lambda k=k, a=a, n=n_max, o=order: _chain(k, a, n, o)
    for k, a in CORRUPT_PAIRS:
        tier1[f"chain-corrupt-{k}-{a}-6-40"] = lambda k=k, a=a: _chain_corrupt(k, a, 6, 40)
    for k, a in OPPOSITE:
        if k <= 7:
            tier1[f"reverse-{k}-{a}"] = lambda k=k, a=a: _reverse(k, a)
    for k, a in PAIRS:
        if k <= 5:
            tier1[f"foreign-{k}-{a}"] = lambda k=k, a=a: _foreign(k, a)
    for name, command in CLI_RUNS.items():
        tier1[f"cli-{name}"] = lambda c=command: _cli(c)
    high = {}
    for tag, thm in THEOREMS.items():
        if tag == "Paths":  # its sides are Main's
            continue
        for k, a in PAIRS:
            if thm.applies(k, a):
                high[f"high-{tag}-{k}-{a}-1000"] = lambda t=tag, k=k, a=a: _sides(t, k, a, [1000])
    for tag, k, a in (("AG", 8, 3), ("Main", 7, 2), ("W_diff", 8, 1)):
        high[f"high-{tag}-{k}-{a}-2000"] = lambda t=tag, k=k, a=a: _sides(t, k, a, [2000])
    for tag, k, a in (("AG", 8, 3), ("Main", 7, 2), ("W_same", 8, 4), ("Wbar_even_odd", 8, 3)):
        high[f"high-{tag}-{k}-{a}-4000"] = lambda t=tag, k=k, a=a: _sides(t, k, a, [4000])
    high["products-2000-1000-200"] = _products
    for family in COUNTS:
        high[f"scan-{family}-{SCAN_PAIR[0]}-{SCAN_PAIR[1]}-{SCAN_TOP}"] = lambda f=family: _scan(f)
    for k, a in OPPOSITE:
        high[f"chain-{k}-{a}-20-101"] = lambda k=k, a=a: _chain(k, a, 20, 101)
    high["cli-bailey-chain-101"] = lambda: _cli(HIGH_CHAIN_RUN)
    return tier1, high


TIER1, HIGH = _cases()


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite exactness.json from this tree")
    mode.add_argument("--check", action="store_true", help="compare the high-order cases with exactness.json")
    args = parser.parse_args(argv)
    if args.write:
        digests = {name: digest(case()) for name, case in {**TIER1, **HIGH}.items()}
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    want = expected()
    bad = [name for name, case in HIGH.items() if digest(case()) != want.get(name)]
    for name in bad:
        print(f"MISMATCH {name}")
    print(f"{len(HIGH) - len(bad)} of {len(HIGH)} high-order cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
