"""Service load benchmark: latency percentiles under concurrent clients.

Drives the stdlib HTTP front-end the way a deployment would — several
client threads issuing a mixed stream of point-mass mixing-time queries,
variation curves, and SLEM requests against one long-lived server — and
records per-request wall-clock latencies.  Three things are gated or
measured:

* **identity gate** (tier-1 semantics, asserted here too): every answer
  returned under load is bit-identical to the serial batch computation,
  whatever the interleaving, coalescing, or cache state;
* **warm-registry speedup**: a query answered through a warm operator
  (stationary vector + shared segment already built) must beat the cold
  path that pays operator construction — the registry's reason to exist;
* **latency distribution**: p50/p99 across >= 4 concurrent clients,
  appended to ``benchmarks/results/service_load.json`` with the usual
  provenance sidecar fields so regressions are diffable run-to-run.

The percentile job is tier-2 (timing-sensitive, non-blocking in CI); the
identity assertions never depend on timing.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.core.mixing import measure_mixing
from repro.core.spectral import slem
from repro.core.walks import TransitionOperator
from repro.datasets import load_cached
from repro.service import (
    HTTPServiceClient,
    OperatorRegistry,
    QueryEngine,
    ResultCache,
    ServiceServer,
)

_DATASET = "physics1"
_WALKS = [1, 2, 5, 10]
_CURVE_SOURCES = [0, 7, 19, 42, 101]
_EPSILON = 0.25
_CLIENTS = 4
_REQUESTS_PER_CLIENT = 30


@pytest.fixture(scope="module")
def expected():
    graph = load_cached(_DATASET)
    operator = TransitionOperator(graph)
    sources = list(range(2 * _CLIENTS * _REQUESTS_PER_CLIENT))
    return {
        "curves": measure_mixing(graph, _WALKS, sources=_CURVE_SOURCES).distances,
        "times": operator.hitting_times(sources, _EPSILON),
        "slem": float(slem(graph)),
    }


@pytest.fixture
def server():
    engine = QueryEngine(
        OperatorRegistry(capacity=4),
        ResultCache(max_entries=1024),
        coalesce_window=0.005,
    )
    with ServiceServer(engine, own_engine=True) as srv:
        yield srv


def _append_record(results_dir, record: dict) -> None:
    """Append one dated record; earlier records are history and stay."""
    path = results_dir / "service_load.json"
    records = []
    if path.exists():
        records = json.loads(path.read_text(encoding="utf-8"))
    record["recorded"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def test_warm_registry_beats_cold_construction(benchmark, results_dir, config):
    """One registry entry, two timings: the first slem query pays graph
    load + operator build + stationary solve; the repeat (cache cleared,
    so the sweep re-runs) reuses the warm operator.  The warm path must
    win — that delta is the service's amortisation claim."""

    def warm_vs_cold():
        with QueryEngine(
            OperatorRegistry(capacity=2), ResultCache(max_entries=0)
        ) as engine:
            t0 = time.perf_counter()
            cold = engine.slem(_DATASET)
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = engine.slem(_DATASET)
            t_warm = time.perf_counter() - t0
            assert warm.value == cold.value
            return t_cold, t_warm

    t_cold, t_warm = benchmark.pedantic(warm_vs_cold, rounds=1)
    assert t_warm < t_cold, (t_warm, t_cold)
    _append_record(
        results_dir,
        {
            "benchmark": "warm_vs_cold",
            "clients": 1,
            "dataset": _DATASET,
            "cold_s": t_cold,
            "warm_s": t_warm,
            "speedup": t_cold / t_warm,
            "mode": config.mode,
            "seed": config.seed,
        },
    )


@pytest.mark.parametrize("clients", [_CLIENTS, 2 * _CLIENTS])
def test_http_load_latency_percentiles(
    benchmark, server, expected, results_dir, config, clients
):
    """Mixed query stream from ``clients`` concurrent HTTP clients.

    Every client thread opens its own connection and issues a 1:1:1
    rotation of mixing-time (distinct sources, so coalescing has real
    batches to form), variation-curve, and SLEM queries.  Latencies are
    recorded per request; answers are checked bit-for-bit against the
    serial batch oracle computed once up front.
    """
    host, port = server.address
    latencies: list = []
    errors: list = []
    barrier = threading.Barrier(clients)
    lock = threading.Lock()

    def client_loop(client_id):
        try:
            with HTTPServiceClient(host, port) as client:
                barrier.wait()
                for i in range(_REQUESTS_PER_CLIENT):
                    source = client_id * _REQUESTS_PER_CLIENT + i
                    t0 = time.perf_counter()
                    if i % 3 == 0:
                        reply = client.mixing_time(_DATASET, source, _EPSILON)
                        ok = reply.value["time"] == int(
                            expected["times"].times[source]
                        )
                    elif i % 3 == 1:
                        reply = client.variation_curve(
                            _DATASET, _CURVE_SOURCES, _WALKS
                        )
                        ok = np.array_equal(
                            np.asarray(reply.value, dtype=np.float64),
                            expected["curves"],
                        )
                    else:
                        reply = client.slem(_DATASET)
                        ok = reply.value == expected["slem"]
                    elapsed = time.perf_counter() - t0
                    with lock:
                        latencies.append(elapsed)
                    assert ok, f"answer drift under load: client {client_id} req {i}"
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    def run_load():
        latencies.clear()
        errors.clear()
        threads = [
            threading.Thread(target=client_loop, args=(c,)) for c in range(clients)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    wall = benchmark.pedantic(run_load, rounds=1)
    assert not errors, errors[0]
    assert len(latencies) == clients * _REQUESTS_PER_CLIENT
    sample = np.sort(np.asarray(latencies))
    p50 = float(np.percentile(sample, 50))
    p99 = float(np.percentile(sample, 99))
    stats = server.engine.stats()
    _append_record(
        results_dir,
        {
            "benchmark": "http_load",
            "clients": clients,
            "dataset": _DATASET,
            "requests": len(latencies),
            "wall_s": wall,
            "p50_s": p50,
            "p99_s": p99,
            "max_s": float(sample[-1]),
            "throughput_rps": len(latencies) / wall,
            "cache_hits": stats["cache"].hits,
            "coalesced_requests": stats["coalesced_requests"],
            "mode": config.mode,
            "seed": config.seed,
        },
    )
