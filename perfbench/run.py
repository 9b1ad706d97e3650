"""Benchmark for qgordon: one command per workload, every end-to-end
metric by name and unit, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there.  Workloads (see ``workloads.py`` and BENCHMARK.json):

* ``verify-stream``: ``verify`` over every sum = product tag, k <= 7,
  at orders 80, 160 and 200.
* ``oracle-cross-check``: brute-force partition and path counts, and
  bijection round trips, against the sum sides.
* ``bailey-replay``: Bailey chains with every link checked, and their
  limit rescaled onto the Main identity.

Each run drives one client in a closed loop in a fresh interpreter
(``worker.py``), so caches start cold, as they do for a user.  With
``--trace 0`` it prints the end-to-end metrics: ``setup_s`` (median wall
time of several fresh interpreters that import the package and generate
the requests), ``checks_per_s`` (passed requests per second),
``check_p50_ms`` and ``check_p90_ms`` (per-request latency over at least
100 requests), ``coeffs_per_s`` (exact integer coefficients compared per
second), ``peak_rss_mb`` and ``failed_ratio``.  ``failed_ratio`` is 0 on
a correct program, so the final JSON line carries it as ``attempted``
and ``failed`` rather than as a metric.

Times are reported at a reference speed.  A machine shared with other
tenants drifts in speed by tens of percent within seconds, far more
than the bounds in BENCHMARK.json allow.  So each run times a fixed
slice of big-integer multiply-adds (``worker.reference_slice``) every
0.1 s between requests, and converts each request's time to the speed
at which one slice takes 1 ms, using the slices timed within 0.5 s of
that request; each setup probe is converted by twenty slices timed just
before it.  Rates and percentiles come from the converted times, and
``--seconds`` counts converted seconds too, so a run does the same work
in a fast spell as in a slow one.  The lines before the JSON show the
measured values beside the converted ones.

With ``--trace 1`` it runs the workload with spans around every layer's
public functions (``tracing.py``), prints the per-layer metrics with the
end-to-end metric each should move, and then replays the same requests
untraced in another fresh interpreter to report the tracing overhead.
The spans are written to ``.perfbench/trace-<workload>.spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
BUDGET_S = 170.0  # the whole command, setup probes and workers included

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402  (needs HERE on the path)
from worker import REF_NOMINAL_S, reference_slice  # noqa: E402

# the names only: importing workloads.py imports the package, which may be missing
WORKLOADS = ("verify-stream", "oracle-cross-check", "bailey-replay")
END_TO_END = (
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_p90_ms", "ms"),
    ("coeffs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run."""


def _worker(args, deadline: float, *extra: str, capture: bool = True):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran the {BUDGET_S:.0f} s budget: {' '.join(extra)}")
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}: {' '.join(extra)}")
    return json.loads(done.stdout.strip().splitlines()[-1]) if capture else None


def _setup_s(args, deadline: float) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        scale = REF_NOMINAL_S / statistics.fmean(reference_slice() for _ in range(20))
        t = perf_counter()
        _worker(args, deadline, "--setup-only", capture=False)
        times.append((perf_counter() - t) * scale)
    return statistics.median(times)


def _untraced(args, deadline: float):
    setup_s = _setup_s(args, deadline)
    run = _worker(args, deadline, "--seconds", str(args.seconds))
    metrics = {"setup_s": setup_s, **run["scaled"], "peak_rss_mb": run["peak_rss_mb"]}
    n = run["attempted"]
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "check_p50_ms": f"{n} samples",
        "check_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond p90",
    }
    print(f"failed_ratio = {run['failed'] / n} ratio ({run['failed']} of {n} requests)")
    for name, unit in END_TO_END:
        note = [f"measured {run['measured'][name]}"] if name in run["measured"] else []
        note += [notes[name]] if name in notes else []
        print(f"{name} = {metrics[name]} {unit}" + (f"  ({'; '.join(note)})" if note else ""))
    return run, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def _traced(args, deadline: float):
    run = _worker(args, deadline, "--seconds", str(args.seconds), "--trace")
    replay = _worker(args, deadline, "--count", str(run["attempted"]))
    layers = dict(run["layers"])
    scale = run["scaled"]["busy_s"] / run["measured"]["busy_s"]
    for name, unit, *_ in LAYER_METRICS:
        if unit == "s" and name in layers:
            layers[name] *= scale
    layers["trace.requests"] = run["attempted"]
    layers["trace.wall_s"] = run["scaled"]["busy_s"]
    layers["trace.untraced_wall_s"] = replay["scaled"]["busy_s"]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    metrics = {}
    for name, unit, _better, computed, target in LAYER_METRICS:
        label = "computed; " if computed else ""
        print(f"{name} = {layers[name]} {unit}  ({label}moves {target})")
        metrics[name] = {"value": layers[name], "unit": unit}
    run["failed"] += replay["failed"]
    run["failures"] += replay["failures"]
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM raises SystemExit, on which subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qgordon" / "__init__.py").is_file():
        print(f"error: no qgordon package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + BUDGET_S
    print(f"{args.workload}: seed {args.seed}, closed loop with one client, {args.seconds} s")
    try:
        run, metrics = (_traced if args.trace else _untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in run["failures"]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if run["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
