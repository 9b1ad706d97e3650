"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import import_module
from itertools import islice
from pathlib import Path

import pytest

import worker

worker.load_package()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qgordon import identities, qseries  # noqa: E402
from workloads import Chain, Counts, PathCounts, RoundTrip, Verify  # noqa: E402

SMALL = (
    Verify("AG", 3, 1, 20),
    Verify("Main", 4, 1, 20),
    Counts("B", 3, 2, 12),
    Counts("A", 3, 2, 12),
    Counts("W", 3, 2, 12),
    Counts("Wbar", 3, 2, 12),
    PathCounts(3, 2, 8),
    RoundTrip(3, 2, 8),
    Chain(3, 2, 4, 20),
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_requests(name):
    first = list(islice(workloads.requests(name, 7), 400))
    assert first == list(islice(workloads.requests(name, 7), 400))
    assert first != list(islice(workloads.requests(name, 8), 400))


def test_small_requests_pass():
    result = worker.measure(iter(SMALL), count=len(SMALL))
    assert (result["attempted"], result["failed"]) == (len(SMALL), 0), result["failures"]


def test_wrong_expected_count_is_reported_failed(monkeypatch):
    true_side = identities.eval_multisum_AG

    def off_by_one(gp, order):
        return true_side(gp, order) + qseries.Series.from_terms([(5, 1)], order)

    monkeypatch.setattr(identities, "eval_multisum_AG", off_by_one)
    requests = [Counts("A", 3, 2, 12), Counts("B", 3, 2, 12), Counts("W", 3, 2, 12)]
    result = worker.measure(iter(requests), count=3)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert "count 3 but coefficient 4 at n = 5" in result["failures"][0]


def test_truncated_side_is_reported_failed(monkeypatch):
    true_verify = identities.verify

    def short_rhs(spec):
        report = true_verify(spec)
        rhs = report.rhs.truncate(spec.order - 1)
        return identities.VerificationReport(spec, report.lhs, rhs, report.lhs == rhs, None)

    monkeypatch.setattr(identities, "verify", short_rhs)
    result = worker.measure(iter([Verify("AG", 3, 1, 20)]), count=1)
    assert result["failed"] == 1
    assert "short of q^20" in result["failures"][0]


def test_exception_is_reported_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(identities, "eval_multisum_main", boom)
    result = worker.measure(iter([PathCounts(3, 2, 8), Verify("AG", 3, 1, 20)]), count=2)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "RuntimeError: boom" in result["failures"][0]


def test_traced_self_times_sum_to_at_most_wall_time():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    # (5, 4) appears in no other test, so its path cache starts cold here
    requests = SMALL + (PathCounts(5, 4, 8),)
    try:
        result = worker.measure(iter(requests), count=len(requests), tracer=tracer)
    finally:
        uninstall()
    assert result["failed"] == 0, result["failures"]
    self_s = tracer.self_times()
    assert min(self_s.values()) >= 0
    assert sum(self_s.values()) <= result["measured"]["busy_s"]
    layers = tracing.layer_metrics(tracer)
    # reached only through names that other modules imported
    assert layers["identities.ladder_multisum.calls"] > 0
    assert layers["bailey.check_pair.calls"] > 0
    assert layers["lattice_paths.candidates_checked"] > 0
    assert 0 < layers["lattice_paths.admissible_ratio"] < 1
    # count_S over n = 0..7 searches once per n: nothing is reused
    assert layers["lattice_paths.enumerate.searches"] >= 8


def test_install_restores_every_reference():
    before = {t: _resolve(t) for targets in tracing.SPANS.values() for t in targets}
    tracing.install(tracing.Tracer())()
    assert before == {t: _resolve(t) for t in before}


def _resolve(target):
    module, attr = target.split(":")
    owner = import_module(f"qgordon.{module}")
    *path, attr = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize("f_order, g_order", [(10, 10), (10, 4), (4, 10), (7, 3)])
def test_pair_bound_counts_the_dense_loop(f_order, g_order):
    f = qseries.Series([1] * 20, f_order)
    g = qseries.Series([1] * 20, g_order)
    # with all-ones operands each product coefficient counts its pairs
    assert tracing._pair_bound(f, g) == sum((f * g).coeffs)


def test_pair_bound_on_mixed_grids():
    # q^(1/2) grid, 7 slots, against the integer grid promoted to 12 slots:
    # the window holds 7 slots, so row i meets 7 - i coefficients
    f = qseries.Series([1] * 7, Fraction(7, 2), 2)
    g = qseries.Series([1] * 6, 6)
    assert tracing._pair_bound(f, g) == 7 + 6 + 5 + 4 + 3 + 2 + 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.LAYER_METRICS
    ]
