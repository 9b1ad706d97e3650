"""Spans around the public functions of the package's five layers.

:func:`install` replaces each function named in :data:`SPANS`, on every
module that holds a reference to it, by a wrapper that records one span:
name, parent span, request, start and end.  Spans are kept in memory as
columns and written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover.  A call that reaches
the same operation through a second entry point while that operation's
span is open (the free function ``mul`` calling ``Series.__mul__``) is
part of the open span, not a new one.

Counts marked *computed* are derived from the arguments and results of
the wrapped calls only; nothing inside the package is read or changed.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from functools import wraps
from importlib import import_module
from math import ceil, lcm
from pathlib import Path
from time import perf_counter

__all__ = ["SPANS", "LAYER_METRICS", "Tracer", "install", "layer_metrics"]

# span name -> the "module:attribute" references it wraps.  Names that
# another module imported are listed on that module too, because the
# importer calls its own reference.
SPANS = {
    "qseries.mul": (
        "qseries:Series.__mul__",
        "qseries:Series.__rmul__",
        "qseries:mul",
        "identities:mul",
        "bailey:mul",
    ),
    "qseries.inverse": ("qseries:Series.inverse",),
    "qseries.rescale": ("qseries:Series.rescale", "qseries:rescale"),
    "qseries.shift": ("qseries:Series.shift",),
    "qseries.poch": (
        "qseries:poch_finite",
        "qseries:poch_infinite",
        "identities:poch_finite",
        "identities:poch_infinite",
        "bailey:poch_finite",
        "bailey:poch_infinite",
    ),
    "qseries.invert_poch": ("qseries:invert_poch", "identities:invert_poch", "bailey:invert_poch"),
    "qseries.triple_product": ("qseries:triple_product", "identities:triple_product"),
    "qseries.theta_sum": ("qseries:theta_sum",),
    "partitions.partitions_of": ("partitions:partitions_of",),
    "partitions.count": (
        "partitions:count_B",
        "partitions:count_A",
        "partitions:count_W",
        "partitions:count_Wbar",
    ),
    "lattice_paths.enumerate": ("lattice_paths:enumerate_S_paths",),
    "lattice_paths.admissible": ("lattice_paths:is_S_admissible",),
    "lattice_paths.count": ("lattice_paths:count_S", "identities:count_S"),
    "lattice_paths.roundtrip": ("lattice_paths:reverse_deconstruct", "lattice_paths:forward_construct"),
    "identities.verify": ("identities:verify",),
    "identities.sum_side": (
        "identities:eval_multisum_AG",
        "identities:eval_multisum_W",
        "identities:eval_multisum_Wbar",
        "identities:eval_multisum_main",
    ),
    "identities.product_side": ("identities:eval_product_side",),
    "identities.ladder_multisum": ("identities:ladder_multisum", "bailey:ladder_multisum"),
    "bailey.unit_pair": ("bailey:unit_pair",),
    "bailey.D1": ("bailey:apply_D1",),
    "bailey.S1": ("bailey:apply_S1",),
    "bailey.S2": ("bailey:apply_S2",),
    "bailey.P41": ("bailey:apply_P41",),
    "bailey.build_chain": ("bailey:build_chain",),
    "bailey.check_pair": ("bailey:check_pair",),
    "bailey.closed_form_alpha": ("bailey:closed_form_alpha",),
    "bailey.limit_identity": ("bailey:limit_identity",),
}

_VS, _OC, _BR = "verify-stream", "oracle-cross-check", "bailey-replay"

# (metric, unit, better, computed, the end-to-end metric it should move).
# A layer metric reads 0 on a workload that bypasses its layer.
LAYER_METRICS = (
    ("qseries.mul.calls", "count", "lower", False, f"checks_per_s, check_p90_ms on {_VS}, {_BR}"),
    ("qseries.mul.self_s", "s", "lower", False, f"checks_per_s, check_p90_ms on {_VS}, {_BR}"),
    ("qseries.mul.ops_computed", "count", "lower", True, f"checks_per_s, check_p90_ms on {_VS}, {_BR}"),
    ("qseries.inverse.calls", "count", "lower", False, f"checks_per_s, check_p90_ms on {_VS}, {_BR}"),
    ("qseries.inverse.self_s", "s", "lower", False, f"checks_per_s, check_p90_ms on {_VS}, {_BR}"),
    ("qseries.poch.calls", "count", "lower", False, f"check_p50_ms, peak_rss_mb on {_VS}"),
    ("qseries.poch.self_s", "s", "lower", False, f"check_p50_ms, peak_rss_mb on {_VS}"),
    ("qseries.poch.repeat_ratio", "ratio", "higher", True, f"check_p50_ms, peak_rss_mb on {_VS}"),
    ("qseries.rescale.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("qseries.shift.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("qseries.coeff_bits_max", "bits", "lower", True, "none: a plain count"),
    ("identities.ladder_multisum.calls", "count", "lower", False, f"check_p90_ms, check_p50_ms on {_VS}"),
    ("identities.ladder_multisum.self_s", "s", "lower", False, f"check_p90_ms, check_p50_ms on {_VS}"),
    ("identities.product_side.self_s", "s", "lower", False, f"check_p90_ms, check_p50_ms on {_VS}"),
    ("partitions.partitions_of.self_s", "s", "lower", False, f"checks_per_s, peak_rss_mb on {_OC}"),
    ("partitions.partitions_listed", "count", "lower", True, f"checks_per_s, peak_rss_mb on {_OC}"),
    ("partitions.count.calls", "count", "lower", False, f"checks_per_s, peak_rss_mb on {_OC}"),
    ("partitions.count.self_s", "s", "lower", False, f"checks_per_s, peak_rss_mb on {_OC}"),
    ("lattice_paths.count.calls", "count", "lower", False, f"check_p90_ms on {_OC}"),
    ("lattice_paths.enumerate.calls", "count", "lower", False, f"check_p90_ms on {_OC}"),
    ("lattice_paths.enumerate.searches", "count", "lower", True, f"check_p90_ms on {_OC}"),
    ("lattice_paths.enumerate.self_s", "s", "lower", False, f"check_p90_ms on {_OC}"),
    ("lattice_paths.candidates_checked", "count", "lower", True, f"check_p90_ms on {_OC}"),
    ("lattice_paths.admissible_ratio", "ratio", "higher", True, f"check_p90_ms on {_OC}"),
    ("lattice_paths.roundtrip.self_s", "s", "lower", False, f"check_p90_ms on {_OC}"),
    ("bailey.D1.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("bailey.S2.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("bailey.P41.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("bailey.check_pair.calls", "count", "lower", False, f"checks_per_s on {_BR}"),
    ("bailey.check_pair.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("bailey.limit_identity.self_s", "s", "lower", False, f"checks_per_s on {_BR}"),
    ("trace.requests", "count", "higher", False, "none: requests in the traced run"),
    ("trace.spans", "count", "lower", False, "none: spans recorded"),
    ("trace.self_sum_s", "s", "lower", False, "none: sum of all self times, at most trace.wall_s"),
    ("trace.wall_s", "s", "lower", False, "none: traced wall time of those requests"),
    ("trace.untraced_wall_s", "s", "lower", False, "none: untraced wall time of the same requests"),
    ("trace.overhead_s", "s", "lower", False, "none: trace.wall_s - trace.untraced_wall_s"),
)


class Tracer:
    """In-memory span store for one single-threaded process.

    Column i of each array describes span i: its name (an index into
    ``names``), its parent span (-1 for a root), its request, and its
    start and end in ``perf_counter`` seconds.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self.counts: Counter = Counter()
        self.seen: defaultdict = defaultdict(set)
        self._stack: list[tuple[int, int]] = []

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open_span(self) -> tuple[int, str] | None:
        """(index, name) of the innermost open span, if any."""
        if not self._stack:
            return None
        idx, nid = self._stack[-1]
        return idx, self.names[nid]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name`` around each call; after
        the call, ``hook(tracer, fn, args, kwargs, result)`` updates the
        computed counts."""
        nid = self._nid(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == nid:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append((idx, nid))
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def run_request(self, request_id: int, request):
        """Run one request under a root span that its layer spans share."""
        self.request_id = request_id
        return self.wrap(f"request.{type(request).__name__}", request.run)()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        total: defaultdict = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            total[self.names[nid]] += end[i] - start[i] - covered[i]
        return dict(total)

    def write(self, stem: Path) -> None:
        """Write the spans as ``stem.spans`` (the five columns one after
        another, native byte order) described by ``stem.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as f:
            for column in (self.name_id, self.parent, self.request, self.start, self.end):
                column.tofile(f)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [
                ["name", "int32"],
                ["parent", "int32"],
                ["request", "int32"],
                ["start_s", "float64"],
                ["end_s", "float64"],
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


# ---------------------------------------------------------------- computed counts


def _pair_bound(f, g) -> int:
    """Coefficient pairs (i, j) that a dense product of f and g visits:
    i indexes f, j indexes g, and i + j stays below the product's
    window, all on the common exponent grid."""
    if isinstance(g, int):
        return len(f.coeffs)
    d = lcm(f.denom, g.denom)
    n = ceil(min(f.order, g.order) * d)
    m = min(ceil(f.order * d), n)
    lg = ceil(g.order * d)
    full = max(0, min(m, n - lg + 1))  # rows that meet every coefficient of g
    return full * lg + (m - full) * n - (m - 1 + full) * (m - full) // 2


def _on_mul(tracer, fn, args, kwargs, result):
    if result is NotImplemented:
        return
    tracer.counts["qseries.mul.ops_computed"] += _pair_bound(*args)
    bits = max(map(int.bit_length, result.coeffs), default=0)
    if bits > tracer.counts["qseries.coeff_bits_max"]:
        tracer.counts["qseries.coeff_bits_max"] = bits


def _on_poch(tracer, fn, args, kwargs, result):
    key = (fn.__name__, args, tuple(sorted(kwargs.items())))
    if key in tracer.seen["poch"]:
        tracer.counts["qseries.poch.repeats"] += 1
    tracer.seen["poch"].add(key)


def _on_partitions_of(tracer, fn, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    if n not in tracer.seen["partitions_of"]:
        tracer.seen["partitions_of"].add(n)
        tracer.counts["partitions.partitions_listed"] += len(result)


def _on_admissible(tracer, fn, args, kwargs, result):
    parent = tracer.open_span()
    if parent is None or parent[1] != "lattice_paths.enumerate":
        return
    tracer.counts["lattice_paths.candidates_checked"] += 1
    tracer.counts["lattice_paths.paths_found"] += bool(result)
    tracer.seen["searches"].add(parent[0])


_HOOKS = {
    "qseries.mul": _on_mul,
    "qseries.poch": _on_poch,
    "partitions.partitions_of": _on_partitions_of,
    "lattice_paths.admissible": _on_admissible,
}


def install(tracer: Tracer):
    """Wrap every reference in :data:`SPANS`; returns a function that
    puts the originals back."""
    undo = []
    for name, targets in SPANS.items():
        for target in targets:
            module_name, attr = target.split(":")
            owner = import_module(f"qgordon.{module_name}")
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, _HOOKS.get(name)))
            undo.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans and computed counts give; the
    trace.wall_s family comes from the caller, who timed the runs."""
    calls = Counter(tracer.names[nid] for nid in tracer.name_id)
    self_s = tracer.self_times()
    counts = tracer.counts
    poch_calls = calls["qseries.poch"]
    candidates = counts["lattice_paths.candidates_checked"]
    derived = {
        "qseries.mul.ops_computed": counts["qseries.mul.ops_computed"],
        "qseries.poch.repeat_ratio": counts["qseries.poch.repeats"] / poch_calls if poch_calls else 0.0,
        "qseries.coeff_bits_max": counts["qseries.coeff_bits_max"],
        "partitions.partitions_listed": counts["partitions.partitions_listed"],
        "lattice_paths.enumerate.searches": len(tracer.seen["searches"]),
        "lattice_paths.candidates_checked": candidates,
        "lattice_paths.admissible_ratio": (
            counts["lattice_paths.paths_found"] / candidates if candidates else 0.0
        ),
        "trace.spans": len(tracer.start),
        "trace.self_sum_s": sum(self_s.values()),
    }
    out = {}
    for metric, *_ in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif kind == "calls":
            out[metric] = calls[span]
        elif kind == "self_s":
            out[metric] = self_s.get(span, 0.0)
    return out
