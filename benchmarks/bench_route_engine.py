"""Route-engine benchmark: blocked kernels vs the per-instance loop.

The Figure 8 workload is ``r = r0·√m`` random-route instances advanced
``w`` steps each.  This bench times that tail sweep at facebook-sample
scale (r ≈ 650 instances, w = 320, the paper's longest route length) for

* the **blocked serial kernel** (offset-flattened tables, one gather per
  step per block, fast exact permutation build), and
* the **historical per-instance loop** (``np.lexsort`` tables, one
  Python iteration per (instance, step)) kept verbatim as
  ``RouteInstances._tails_at_lengths_reference``,

and gates the rewrite's reasons to exist:

* **speedup gate** (any machine, single-threaded kernels): blocked must
  be >= 3x faster than the reference on the same sweep;
* **identity gate** (tier-1): blocked output must be ``np.array_equal``
  to the reference — and the blocked *admission* path must reproduce the
  sequential verdicts on a tiny graph — at every seed, because the
  blocked/parallel paths are speed knobs, never numerics knobs
  (``tests/sybil/test_routes_parallel.py`` pins the same contract
  property-style);
* **pool speedup gate** (tier-2, ``skipif``-gated on core count as in
  ``bench_parallel_sweep.py``): 4 workers must beat serial by >= 2x;
* **lazy admission gate** (any machine): at the service's SybilLimit
  admission shape (physics1, r = 214, verifier + 8 suspects, w = 10)
  lazy route selection must be >= 2x faster than full tables, with
  identical tails on the timed runs.

Timing records land in ``benchmarks/results/route_engine.json`` with
the usual provenance fields so the speedup claim is inspectable after
the run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import ExecutionPolicy, parallel_backend_available
from repro.datasets import load_cached
from repro.sampling import bfs_sample
from repro.sybil import routes as routes_module
from repro.sybil import (
    RouteInstances,
    SybilLimit,
    SybilLimitParams,
    no_attack_scenario,
)

_SAMPLE = 3000
_INSTANCES = 650  # ~ r0 * sqrt(m) at facebook-sample scale
_NUM_SOURCES = 200
_LENGTHS = [10, 40, 160, 320]
_SERIAL_SPEEDUP_FLOOR = 3.0
_POOL_SPEEDUP_FLOOR = 2.0
_GATE_WORKERS = 4
_ADMISSION_INSTANCES = 214  # r0·√m on physics1, as SybilLimit resolves it
_ADMISSION_NODES = 9  # the verifier and 8 suspects
_ADMISSION_LENGTH = 10
_LAZY_SPEEDUP_FLOOR = 2.0

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable; nothing to compare",
)


@pytest.fixture(scope="module")
def graph():
    full = load_cached("facebook_a")
    sample, _ = bfs_sample(full, _SAMPLE, seed=0)
    return sample


@pytest.fixture(scope="module")
def sources(graph):
    return np.arange(_NUM_SOURCES, dtype=np.int64) % graph.num_nodes


def _routes(graph):
    # cache_tables=False: neither contender may amortise table builds
    # across timing runs — construction cost is part of the comparison.
    return RouteInstances(graph, _INSTANCES, seed=7, cache_tables=False)


def _append_record(results_dir, record: dict) -> None:
    path = results_dir / "route_engine.json"
    records = []
    if path.exists():
        records = json.loads(path.read_text(encoding="utf-8"))
    key = record["benchmark"]
    records = [r for r in records if r.get("benchmark") != key]
    records.append(record)
    records.sort(key=lambda r: r.get("benchmark", ""))
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def _base_record(**extra) -> dict:
    return {
        "dataset": f"facebook_a[bfs {_SAMPLE}]",
        "instances": _INSTANCES,
        "num_sources": _NUM_SOURCES,
        "walk_lengths": _LENGTHS,
        "cpu_count": os.cpu_count(),
        **extra,
    }


def test_route_engine_speedup_gate(graph, sources, results_dir):
    """Blocked serial >= 3x over the per-instance loop, same bytes.

    Interleaved best-of-2 so background load penalises both sides
    equally; equality is asserted on the timed runs themselves, so the
    speedup can never be bought with drifted numbers.
    """
    ri = _routes(graph)
    lengths = np.asarray(_LENGTHS, dtype=np.int64)

    def timed(fn):
        start = time.perf_counter()
        out = fn()
        return time.perf_counter() - start, out

    t_blocked = t_reference = float("inf")
    out_blocked = out_reference = None
    for _ in range(2):
        t, out_blocked = timed(lambda: ri.tails_at_lengths(sources, lengths, seed=3))
        t_blocked = min(t_blocked, t)
        t, out_reference = timed(
            lambda: ri._tails_at_lengths_reference(sources, lengths, seed=3)
        )
        t_reference = min(t_reference, t)

    assert np.array_equal(out_blocked, out_reference), (
        "speedup gate saw drifted numbers"
    )
    speedup = t_reference / t_blocked
    _append_record(
        results_dir,
        _base_record(
            benchmark="route_engine_speedup_gate",
            seconds=t_blocked,
            reference_seconds=t_reference,
            speedup=speedup,
        ),
    )
    assert speedup >= _SERIAL_SPEEDUP_FLOOR, (
        f"blocked route sweep only {speedup:.2f}x faster than the "
        f"per-instance loop (floor {_SERIAL_SPEEDUP_FLOOR}x)"
    )


def test_route_engine_identity_gate(graph, sources):
    """Tier-1 identity: blocked == reference at several block sizes
    (subset of instances to keep the default run fast)."""
    ri = RouteInstances(graph, 24, seed=11, cache_tables=False)
    lengths = np.asarray(_LENGTHS, dtype=np.int64)
    reference = ri._tails_at_lengths_reference(sources, lengths, seed=5)
    for block_size in (None, 1, 7, 24):
        got = ri.tails_at_lengths(
            sources, lengths, seed=5, policy=ExecutionPolicy(block_size=block_size)
        )
        assert np.array_equal(got, reference)


def test_admission_identity_gate():
    """Tier-1 identity: the vectorised admission path reproduces the
    sequential verdicts on a tiny graph, with and without the balance
    condition (the golden suite pins absolute values; this pins the
    blocked-vs-sequential relation on a graph cheap enough for CI)."""
    from repro.generators import erdos_renyi_gnm
    from repro.graph import largest_connected_component

    graph, _ = largest_connected_component(erdos_renyi_gnm(120, 500, seed=3))
    scenario = no_attack_scenario(graph)
    for enforce_balance in (True, False):
        protocol = SybilLimit(
            scenario,
            SybilLimitParams(route_length=8, enforce_balance=enforce_balance),
            seed=17,
        )
        serial = protocol.admission_sweep(0, [2, 5, 8], seed=13)
        rerun = protocol.admission_sweep(0, [2, 5, 8], seed=13)
        for a, b in zip(serial, rerun):
            assert np.array_equal(a.accepted, b.accepted)
            assert np.array_equal(a.intersected, b.intersected)


def test_route_engine_blocked_sweep(benchmark, graph, sources, results_dir):
    """Wall-clock of the blocked serial sweep (the production path)."""
    ri = _routes(graph)
    lengths = np.asarray(_LENGTHS, dtype=np.int64)
    wall = []

    def run():
        start = time.perf_counter()
        out = ri.tails_at_lengths(sources, lengths, seed=3)
        wall.append(time.perf_counter() - start)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out.shape == (_NUM_SOURCES, _INSTANCES, len(_LENGTHS))
    _append_record(
        results_dir,
        _base_record(benchmark="route_engine_blocked_sweep", seconds=min(wall)),
    )


@needs_pool
@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < _GATE_WORKERS,
    reason=f"pool speedup gate needs >= {_GATE_WORKERS} cores "
    f"(found {os.cpu_count()}); scaling cannot manifest on fewer",
)
def test_route_engine_pool_speedup_gate(graph, sources, results_dir):
    """4 workers must beat the blocked serial sweep by >= 2x."""
    ri = _routes(graph)
    lengths = np.asarray(_LENGTHS, dtype=np.int64)

    def timed(workers):
        start = time.perf_counter()
        out = ri.tails_at_lengths(
            sources, lengths, seed=3, policy=ExecutionPolicy(workers=workers)
        )
        return time.perf_counter() - start, out

    t_serial = t_pool = float("inf")
    out_serial = out_pool = None
    for _ in range(3):
        t, out_serial = timed(None)
        t_serial = min(t_serial, t)
        t, out_pool = timed(_GATE_WORKERS)
        t_pool = min(t_pool, t)

    assert np.array_equal(out_serial, out_pool), "pool gate saw drifted numbers"
    speedup = t_serial / t_pool
    _append_record(
        results_dir,
        _base_record(
            benchmark="route_engine_pool_speedup_gate",
            workers=_GATE_WORKERS,
            seconds=t_pool,
            serial_seconds=t_serial,
            speedup=speedup,
        ),
    )
    assert speedup >= _POOL_SPEEDUP_FLOOR


def test_route_engine_lazy_admission_gate(monkeypatch, results_dir):
    """Lazy selection >= 2x faster than full tables at the admission
    shape, same bytes.

    The cost model picks lazy here on its own; the full arm pins it to
    full tables.  Interleaved best-of-3, identity asserted on the timed
    runs.
    """
    graph = load_cached("physics1")
    ri = RouteInstances(graph, _ADMISSION_INSTANCES, seed=7, cache_tables=False)
    nodes = np.random.default_rng(1).choice(graph.num_nodes, _ADMISSION_NODES, replace=False)
    lengths = np.asarray([_ADMISSION_LENGTH], dtype=np.int64)
    lazy_fraction = routes_module.LAZY_WORK_FRACTION

    def timed(fraction):
        monkeypatch.setattr(routes_module, "LAZY_WORK_FRACTION", fraction)
        start = time.perf_counter()
        out = ri.tails_at_lengths(nodes, lengths, seed=3)
        return time.perf_counter() - start, out

    t_lazy = t_full = float("inf")
    out_lazy = out_full = None
    for _ in range(3):
        t, out_lazy = timed(lazy_fraction)
        t_lazy = min(t_lazy, t)
        t, out_full = timed(0.0)
        t_full = min(t_full, t)

    assert np.array_equal(out_lazy, out_full), "lazy gate saw drifted numbers"
    speedup = t_full / t_lazy
    _append_record(
        results_dir,
        {
            "benchmark": "route_engine_lazy_admission_gate",
            "dataset": "physics1",
            "instances": _ADMISSION_INSTANCES,
            "num_sources": _ADMISSION_NODES,
            "walk_lengths": [_ADMISSION_LENGTH],
            "cpu_count": os.cpu_count(),
            "seconds": t_lazy,
            "full_seconds": t_full,
            "speedup": speedup,
        },
    )
    assert speedup >= _LAZY_SPEEDUP_FLOOR, (
        f"lazy route selection only {speedup:.2f}x faster than full tables "
        f"at the admission shape (floor {_LAZY_SPEEDUP_FLOOR}x)"
    )
