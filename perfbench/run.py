"""Benchmark of the mixing-time library: four workloads, one load generator.

Run from the repository root::

    python3 perfbench/run.py --workload hitting-pool --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig4-sweep`` — Figure 4 brute force on physics1: every source, walk
  checkpoints 80-500, serial, as equal 32-source ``measure_mixing`` calls
  over one warm operator (closed loop, one caller).  Runnable, but not
  listed in ``BENCHMARK.json``: before host-speed scaling (below) a
  single-threaded CPU-bound run inherited whichever slow or fast spell
  its vCPU was in for the whole run (~95 vs ~150 ms per call on a 2-vCPU
  host), and its median spread across runs exceeded any allowed bound;
  it has not been re-measured with scaling.  Its traced split (step
  ~92%, TVD ~3%) is recorded in ``traced_runs.json``.
* ``hitting-pool`` — sampled hitting times at eps = 0.1 on slashdot1:
  equal 64-source ``estimate_mixing_time`` calls under
  ``ExecutionPolicy(workers=2)`` (publication, fork pool, assembly).
  Both sweeps exclude the host-speed samples (below) from the window.
* ``service-mixed`` — ``repro-mixing serve`` driven over 2 persistent
  HTTP connections (closed loop) with a seeded read mix.
* ``service-churn`` — the same server; one connection appends edge
  deltas as an 8/s open loop (latency from each write's due time), the
  other reads slem/mixing trends over the latest 3 windows, each read
  started 10 ms before every third write is due.

End-to-end metrics (``--trace 0``), printed for every workload:

* ``setup_s`` — median of several cold set-ups in one run (fresh dataset
  cache each: generation, operator build, warm-up; for the service a
  fresh server process until its warm-up queries are answered).
* ``p50_ms`` / ``tail_ms`` — per operation: a sweep call, a read request
  (service-mixed) or a write (service-churn).  ``tail_ms`` is the
  highest percentile with at least 10 samples beyond it; the record
  line states which percentile that was.  Failed operations count as
  beyond the tail.
* ``rps`` — completed calls (sweeps) or read requests (services) per second.
* ``peak_rss_mb`` — largest resident set of the program's processes
  (this process and its pool workers, or the server).

The host's speed drifts by up to ~1.8x over minutes, so CPU-bound
durations are given at a reference host speed: a fixed kernel that does
not use the library (``common.HostSpeed``) is timed next to each
operation, and each duration is scaled by the median of the samples
nearest to it.  This covers every ``setup_s`` (samples just before each
cold set-up), the sweeps' ``p50_ms``, ``tail_ms`` and ``rps`` (a sample
before every call), the churn writes (a sample after each) and the
service-mixed ``tail_ms`` (its admission reads; samples between ten
blocks of the window).  The service-mixed median and throughput are set
by the HTTP round trip, not the CPU, and stay as measured.  The record
line keeps the times as measured and the speed samples' medians.

``--trace 1`` runs the same workload with the span wrappers of
``layers.py`` installed (in the server through ``serve.py``) and prints
the per-layer metrics of ``report.PER_LAYER`` instead.  The measured
set-up is traced; the window alternates untraced and traced blocks, and
the ratio of their per-operation medians is reported as the tracing
overhead.

Every run checks every answer (committed per-source tables for the
sweeps, the library's own answer for every service reply), prints one
provenance record line, then the result line the harness reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import BLAS_ENV, Scratch, provenance, stop_helper_processes  # noqa: E402

SWEEPS = ("fig4-sweep", "hitting-pool")
SERVICES = ("service-mixed", "service-churn")
UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "rps": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SWEEPS + SERVICES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, src)
    trace = bool(args.trace)
    scratch = Scratch(root, args.workload)
    os.environ["REPRO_CACHE_DIR"] = scratch.fresh_dir("cache")
    try:
        import report
        from tracer import TRACER

        if args.workload in SWEEPS:
            import layers
            import sweep_workloads

            if trace:
                layers.install(TRACER)
            out = sweep_workloads.run(args.workload, args.seed, args.seconds, trace, scratch)
        else:
            import service_workloads

            out = service_workloads.run(
                args.workload, args.seed, args.seconds, trace, scratch, root
            )
        metrics, tally, phases, details, params, workers = out
        correct = tally["failed"] == 0
        accounting = None
        if trace:
            printed, accounting = report.per_layer(
                phases,
                workers_per_pool=workers,
                late_ms=details.get("late_ms_mean", 0.0),
                overhead_pct=details.get("tracing_overhead_pct") or 0.0,
            )
            correct = correct and report.accounting_ok(accounting)
        else:
            printed = {name: {"value": float(metrics[name]), "unit": UNITS[name]} for name in UNITS}
        result = {
            "correct": bool(correct),
            "attempted": int(tally["attempted"]),
            "failed": int(tally["failed"]),
            "metrics": printed,
        }
        record = {
            "provenance": provenance(root, args.workload, args.seed, args.seconds, trace, params),
            "end_to_end": metrics,
            "fail_ratio": tally["failed"] / max(tally["attempted"], 1),
            "details": details,
            "accounting": accounting,
            "result": result,
        }
        _save(root, args, record)
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        stop_helper_processes()
        scratch.close()


def _save(root: str, args, record: dict) -> None:
    directory = os.path.join(root, ".perfbench", "records")
    os.makedirs(directory, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1e3)}.json"
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
