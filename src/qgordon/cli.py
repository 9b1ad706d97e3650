"""Command-line front end.

Subcommands::

    qgordon verify --theorem ag --k 3 --a 2 [--order 40] [--json]
    qgordon count --family B --k 2 --a 2 --n 10 [--json]
    qgordon enumerate-paths --k 3 --a 2 [--n 20] [--format compact]
    qgordon bailey-chain --k 5 --a 2 [--nmax 8] [--order 40] [--trace]
    qgordon sweep [--kmax 4] [--order 40] [--json]

Exit codes: 0 when every requested check passes, 1 when a check ran
and failed, 2 for a bad invocation.  Diagnostics go to stderr, results
to stdout; ``--json`` switches the result to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .bailey import _half_grid, _template, build_chain, check_pair
from .identities import THEOREMS, IdentitySpec, VerificationReport, _tag_for, verify
from .lattice_paths import count_S, enumerate_S_paths, path_to_compact, path_to_json_obj, path_to_svg
from .partitions import GordonParams, count_A, count_B, count_W, count_Wbar
from .qseries import _slots

__all__ = ["run", "sweep", "main"]

# the --theorem names: the table's families, in first-seen order
_THEOREM_NAMES = tuple(dict.fromkeys(thm.family for thm in THEOREMS.values()))
_COUNTS = {"B": count_B, "A": count_A, "W": count_W, "Wbar": count_Wbar, "S": count_S}
# S paths are found by an exhaustive search whose time doubles about
# every +4 of the major index: the largest --n (enumerate-paths,
# count --family S) and --order (verify --theorem paths) accepted
_S_PATH_CAP = 40


def _check_S_cap(flag: str, value: int) -> None:
    if value > _S_PATH_CAP:
        raise ValueError(
            f"{flag} {value} is over the S-path cap {_S_PATH_CAP} (the path search is exhaustive)"
        )


def _emit(obj, as_json: bool, lines: List[str]) -> None:
    if as_json:
        print(json.dumps(obj, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------- subcommands


def _cmd_verify(args) -> int:
    gp = GordonParams(args.k, args.a)
    tag = _tag_for(args.theorem, gp)
    order = args.order if args.order is not None else (20 if tag == "Paths" else 40)
    if tag == "Paths":
        _check_S_cap("--order", order)
    report = verify(IdentitySpec(tag, gp, order))
    if report.equal:
        line = f"PASS {tag} (k={gp.k}, a={gp.a}): both sides agree below q^{order}"
    else:
        line = (
            f"FAIL {tag} (k={gp.k}, a={gp.a}): first discrepancy at "
            f"q^{report.first_discrepancy}"
        )
    _emit(report.to_json_obj(), args.json, [line])
    return 0 if report.equal else 1


def _cmd_count(args) -> int:
    gp = GordonParams(args.k, args.a)
    if args.family == "S":
        _check_S_cap("--n", args.n)
    count = _COUNTS[args.family]
    count(args.n, gp)  # checks n, and fills the table or search up to it
    counts = [count(n, gp) for n in range(args.n + 1)]
    obj = {"family": args.family, "k": gp.k, "a": gp.a, "counts": counts}
    _emit(obj, args.json, [f"{n} {c}" for n, c in enumerate(counts)])
    return 0


def _cmd_enumerate_paths(args) -> int:
    gp = GordonParams(args.k, args.a)
    _check_S_cap("--n", args.n)
    paths = enumerate_S_paths(args.n, gp)
    if args.format == "json":
        print(json.dumps([path_to_json_obj(p) for p in paths], indent=2))
    elif args.format == "svg":
        for p in paths:
            print(path_to_svg(p))
    else:
        for p in paths:
            print(path_to_compact(p))
    return 0


def _cmd_bailey_chain(args) -> int:
    gp = GordonParams(args.k, args.a)
    chain = build_chain(gp, args.nmax, args.order)
    steps = []
    lines = []
    # checked from the last link back, so each key of the quotient rows the check reads
    # is built once, at the final window, and the unit pair reads prefixes of it
    oks = [check_pair(bp) for _, bp in reversed(chain)][::-1]
    for (label, bp), ok in zip(chain, oks):
        steps.append({"label": label, "relation_ok": ok})
        lines.append(f"{label:<12} relation {'ok' if ok else 'BROKEN'}")
        if args.trace:  # alpha_n built from its terms alone, as bp.alpha[n] would read it
            for n in range(min(bp.n_max, 2) + 1):
                lines.append(f"  alpha_{n} = {_half_grid(bp._terms[n], bp.order)}")
                lines.append(f"  beta_{n}  = {bp.beta[n]}")
    # the endpoint's terms against closed_form_alpha's, below the final pair's slot count
    final = chain[-1][1]
    length = _slots(final.order, 2)
    closed_ok = all(
        final._terms[n] == _template(gp.a, 2 * gp.k + 2, n, length) for n in range(args.nmax + 1)
    )
    lines.append(
        f"endpoint alpha matches closed form for n <= {args.nmax}: "
        f"{'yes' if closed_ok else 'NO'}"
    )
    obj = {
        "k": gp.k,
        "a": gp.a,
        "n_max": args.nmax,
        "order": args.order,
        "steps": steps,
        "closed_form_ok": closed_ok,
    }
    _emit(obj, args.json, lines)
    return 0 if closed_ok and all(s["relation_ok"] for s in steps) else 1


def sweep(kmax: int = 4, order: int = 40) -> List[VerificationReport]:
    """Verify every theorem tag over the (k, a) grid up to kmax.

    Runs k = 2..kmax, a = 1..k, and at each (k, a) every tag that
    applies, in table order.  Path counting is excluded (it has its own
    theorem name and a far smaller practical order).
    """
    if type(kmax) is not int or kmax < 2:  # a bool is not an int here
        raise ValueError(f"kmax must be >= 2, got {kmax!r}")
    specs = [
        IdentitySpec(tag, GordonParams(k, a), order)
        for k in range(2, kmax + 1)
        for a in range(1, k + 1)
        for tag, thm in THEOREMS.items()
        if tag != "Paths" and thm.applies(k, a)
    ]
    return [verify(s) for s in specs]


def _cmd_sweep(args) -> int:
    reports = sweep(args.kmax, args.order)
    lines = []
    for r in reports:
        tag, gp = r.spec.theorem, r.spec.gp
        if r.equal:
            lines.append(f"PASS {tag} (k={gp.k}, a={gp.a})")
        else:
            lines.append(
                f"FAIL {tag} (k={gp.k}, a={gp.a}): first discrepancy at q^{r.first_discrepancy}"
            )
    failed = sum(1 for r in reports if not r.equal)
    lines.append(
        f"{len(reports)} checks below q^{args.order}: "
        + ("all passed" if not failed else f"{failed} FAILED")
    )
    _emit([r.to_json_obj() for r in reports], args.json, lines)
    return 0 if not failed else 1


# ---------------------------------------------------------------- entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgordon",
        description="Verify Gordon-style partition identities with exact q-series arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ka(p):
        p.add_argument("--k", type=int, required=True, help="modulus parameter k")
        p.add_argument("--a", type=int, required=True, help="residue parameter a, 1 <= a <= k")

    p = sub.add_parser("verify", help="compare both sides of one identity")
    p.add_argument("--theorem", choices=_THEOREM_NAMES, required=True)
    add_ka(p)
    p.add_argument("--order", type=int, default=None,
                   help=f"truncation order (default 40, or 20 for paths; paths at most {_S_PATH_CAP})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="print counts of one partition or path family")
    p.add_argument("--family", choices=tuple(_COUNTS), required=True)
    add_ka(p)
    p.add_argument("--n", type=int, required=True,
                   help=f"count everything up to this size (family S: at most {_S_PATH_CAP})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate-paths", help="list admissible paths up to a major index")
    add_ka(p)
    p.add_argument("--n", type=int, default=20,
                   help=f"major index bound (default 20, at most {_S_PATH_CAP})")
    p.add_argument("--format", choices=("compact", "json", "svg"), default="compact")
    p.set_defaults(func=_cmd_enumerate_paths)

    p = sub.add_parser("bailey-chain", help="build the chain for (k, a) and check every link")
    add_ka(p)
    p.add_argument("--nmax", type=int, default=8, help="pair length (default 8)")
    p.add_argument("--order", type=int, default=40, help="final truncation order (default 40)")
    p.add_argument("--trace", action="store_true", help="print leading alpha and beta entries per step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bailey_chain)

    p = sub.add_parser("sweep", help="verify the whole family over a (k, a) grid")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
