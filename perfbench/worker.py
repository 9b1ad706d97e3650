"""One benchmark run in a fresh interpreter, so every cache starts cold.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports the package from ``src/`` of the checkout it sits in, builds the
seeded request stream and drives it as a closed loop: one client, no
threads, each request sent only after the previous one completed.  It
prints one JSON object describing the run as its last line.

    python3 perfbench/worker.py --workload NAME --seed N (--setup-only |
        --seconds S [--trace] | --count R)
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from bisect import bisect_left, bisect_right
from itertools import chain
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 100  # so that at least ten latency samples lie beyond p90
GRACE_S = 30.0  # longest a timed run may overstay its seconds of wall time
REF_EVERY_S = 0.1  # time a reference slice this often during a run
REF_WINDOW_S = 0.5  # a request is scaled by the slices timed this close to it
REF_NOMINAL_S = 0.001  # reported times are scaled to a slice taking this long
_REF_INTS = [(i * 2654435761) % (1 << 40) for i in range(100)]


def reference_slice() -> float:
    """Seconds that a fixed slice of big-integer multiply-adds takes now.

    The package's hot loops are of the same kind.  On a machine shared
    with other tenants their speed drifts by tens of percent within
    seconds; scaling each request's time by REF_NOMINAL_S over the slice
    times measured around it removes most of that drift.
    """
    t = perf_counter()
    acc = 0
    for a in _REF_INTS:
        for b in _REF_INTS:
            acc += a * b
    return perf_counter() - t


def load_package():
    """Import qgordon from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import qgordon

    if src not in Path(qgordon.__file__).resolve().parents:
        raise ImportError(f"qgordon was imported from {qgordon.__file__}, not from {src}")


def measure(stream, seconds=None, count=None, tracer=None) -> dict:
    """Run requests from ``stream`` as a closed loop.

    Between requests a reference slice is timed every REF_EVERY_S.  The
    ``scaled`` figures convert each request's time to the nominal
    reference speed, using the slices timed within REF_WINDOW_S of that
    request; the ``measured`` figures are the raw times.

    With ``seconds``, run until the requests have taken that long at the
    reference speed, judged by the latest slices, and at least
    MIN_SAMPLES of them completed; the wall time may exceed ``seconds``
    by GRACE_S at most.  Counting reference seconds, not wall seconds,
    makes a run do the same work whatever the machine's speed, so a run
    in a fast spell does not reach further into warm caches.  With
    ``count``, run exactly that many requests.  A request whose check
    fails or which raises counts as failed and stays in every figure;
    none is dropped.
    """
    spans: list[tuple[float, float]] = []
    slices: list[tuple[float, float]] = []
    failures: list[str] = []
    compared = 0
    reference_s = 0.0
    t0 = perf_counter()
    last_slice = float("-inf")
    for i, request in enumerate(stream):
        if count is not None:
            if i >= count:
                break
        elif (reference_s >= seconds and i >= MIN_SAMPLES) or perf_counter() - t0 >= seconds + GRACE_S:
            break
        s = perf_counter()
        try:
            if tracer is None:
                n = request.run()
            else:
                n = tracer.run_request(i, request)
        except Exception as exc:  # the run goes on; the failure is counted and reported
            failures.append(f"{request}: {type(exc).__name__}: {exc}")
        else:
            compared += n
        e = perf_counter()
        spans.append((s, e))
        if e - last_slice >= REF_EVERY_S:
            slices.append((perf_counter(), reference_slice()))
            last_slice = perf_counter()
        reference_s += (e - s) * REF_NOMINAL_S / statistics.fmean(d for _, d in slices[-10:])

    at = [t for t, _ in slices]
    took = [d for _, d in slices]
    scaled = []
    for s, e in spans:
        near = took[bisect_left(at, s - REF_WINDOW_S) : bisect_right(at, e + REF_WINDOW_S)]
        scaled.append((e - s) * REF_NOMINAL_S / statistics.fmean(near or took))
    passed = len(spans) - len(failures)

    def figures(latencies: list[float]) -> dict:
        busy = sum(latencies)
        p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else busy
        return {
            "busy_s": busy,
            "checks_per_s": passed / busy,
            "coeffs_per_s": compared / busy,
            "check_p50_ms": 1000 * statistics.median(latencies),
            "check_p90_ms": 1000 * p90,
        }

    return {
        "attempted": len(spans),
        "failed": len(failures),
        "failures": failures[:10],
        "scaled": figures(scaled),
        "measured": figures([e - s for s, e in spans]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--count", type=int)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    load_package()
    import workloads

    stream = workloads.requests(args.workload, args.seed)
    first = next(stream)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = measure(chain([first], stream), seconds=args.seconds, count=args.count, tracer=tracer)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
