"""Parallel sweep micro-benchmark: the shared-memory pool vs serial.

Times the paper-shaped workload — a 1000-source variation-distance sweep
on ``physics1`` (the Figure 3 measurement) — at 1/2/4/8 workers, and
gates the runtime's reason to exist:

* **speedup gate** (tier-2, needs >= 4 physical cores): 4 workers must
  finish the sweep at least 2x faster than serial;
* **identity gate** (tier-1, any machine): the parallel sweep must be
  ``np.array_equal`` to the serial one — ``workers`` is a speed knob,
  never a numerics knob (``tests/core/test_parallel.py`` pins the same
  contract property-style across operator flavours).

Each timing case appends a record to
``benchmarks/results/parallel_sweep.json`` so worker-scaling curves are
inspectable after the run (and the ``workers`` knob is part of every
result's provenance, like all bench sidecars).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    ExecutionPolicy,
    TransitionOperator,
    estimate_mixing_time,
    parallel_backend_available,
)
from repro.datasets import load_cached
from repro.graph import open_csr, save_csr

_NUM_SOURCES = 1000
_WALKS = [1, 2, 5, 10]
_WORKER_GRID = [1, 2, 4, 8]
_SPEEDUP_FLOOR = 2.0  # required at 4 workers
_GATE_WORKERS = 4
#: The SpMM kernels the backend sweep runs; sidecar rows for any other
#: backend name a deleted kernel and are dropped on write.
_BACKENDS = ("numpy", "streaming")

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable; nothing to compare",
)


@pytest.fixture(scope="module")
def operator():
    op = TransitionOperator(load_cached("physics1"))
    op.stationary()  # pre-warm so only the sweep is timed
    return op


@pytest.fixture(scope="module")
def sources(operator):
    return np.arange(_NUM_SOURCES) % operator.num_states


def _sweep(operator, sources, workers):
    return operator.variation_curves(
        sources, _WALKS, policy=ExecutionPolicy(workers=workers)
    )


def _append_record(results_dir, record: dict) -> None:
    path = results_dir / "parallel_sweep.json"
    records = []
    if path.exists():
        records = json.loads(path.read_text(encoding="utf-8"))
    key = (record["benchmark"], record["workers"])
    records = [
        r for r in records if (r.get("benchmark"), r.get("workers")) != key
    ]
    records.append(record)
    records.sort(key=lambda r: (r.get("benchmark", ""), r.get("workers", 0)))
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workers", _WORKER_GRID)
def test_parallel_sweep(benchmark, operator, sources, workers, results_dir):
    """Wall-clock of the 1000-source sweep at each worker count.

    ``workers=1`` is the serial baseline (the runtime falls back before
    touching the pool).  Single pedantic round: the sweep is
    deterministic and pool startup is part of the cost being measured.
    """
    if workers > 1 and not parallel_backend_available():
        pytest.skip("no parallel backend on this platform")
    wall = []

    def run():
        start = time.perf_counter()
        out = _sweep(operator, sources, workers)
        wall.append(time.perf_counter() - start)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert out.shape == (_NUM_SOURCES, len(_WALKS))
    assert np.all((out >= 0.0) & (out <= 1.0))
    _append_record(
        results_dir,
        {
            "benchmark": "parallel_sweep",
            "dataset": "physics1",
            "num_sources": _NUM_SOURCES,
            "walk_lengths": _WALKS,
            "workers": workers,
            "seconds": min(wall),
            "cpu_count": os.cpu_count(),
        },
    )


@needs_pool
def test_parallel_sweep_identical(operator, sources):
    """Tier-1 identity gate: the pooled sweep reproduces serial numbers
    bit-for-bit (subset of sources to keep the default run fast)."""
    subset = sources[:200]
    serial = _sweep(operator, subset, workers=None)
    pooled = _sweep(operator, subset, workers=2)
    assert np.array_equal(serial, pooled)


@needs_pool
@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < _GATE_WORKERS,
    reason=f"speedup gate needs >= {_GATE_WORKERS} cores "
    f"(found {os.cpu_count()}); scaling cannot manifest on fewer",
)
def test_parallel_sweep_speedup_gate(operator, sources, results_dir):
    """4 workers must be >= 2x faster than serial at 1000 sources.

    Interleaved best-of-3 so background load penalises both sides
    equally; bitwise equality is asserted on the same runs that are
    timed, so the speedup can never be bought with drifted numbers.
    """

    def timed(workers):
        start = time.perf_counter()
        out = _sweep(operator, sources, workers)
        return time.perf_counter() - start, out

    t_serial = t_pool = float("inf")
    out_serial = out_pool = None
    for _ in range(3):
        t, out_serial = timed(None)
        t_serial = min(t_serial, t)
        t, out_pool = timed(_GATE_WORKERS)
        t_pool = min(t_pool, t)

    assert np.array_equal(out_serial, out_pool), "speedup gate saw drifted numbers"
    speedup = t_serial / t_pool
    _append_record(
        results_dir,
        {
            "benchmark": "parallel_sweep_speedup_gate",
            "dataset": "physics1",
            "num_sources": _NUM_SOURCES,
            "workers": _GATE_WORKERS,
            "seconds": t_pool,
            "serial_seconds": t_serial,
            "speedup": speedup,
            "cpu_count": os.cpu_count(),
        },
    )
    assert speedup >= _SPEEDUP_FLOOR, (
        f"parallel sweep speedup {speedup:.2f}x at {_GATE_WORKERS} workers "
        f"is below the {_SPEEDUP_FLOOR}x floor (serial {t_serial:.3f}s, "
        f"pooled {t_pool:.3f}s)"
    )


# ----------------------------------------------------------------------
# Kernel-comparison gates (the operand picks the SpMM kernel)
# ----------------------------------------------------------------------
def _append_backend_record(results_dir, record: dict) -> None:
    """Per-kernel timing sidecar (``backend_sweep.json``), keyed on
    (benchmark, backend) so reruns replace rather than accumulate, and
    keeping only rows of backends in :data:`_BACKENDS`."""
    path = results_dir / "backend_sweep.json"
    records = []
    if path.exists():
        records = json.loads(path.read_text(encoding="utf-8"))
    key = (record["benchmark"], record["backend"])
    records = [
        r for r in records
        if (r.get("benchmark"), r.get("backend")) != key and r.get("backend") in _BACKENDS
    ]
    records.append(record)
    records.sort(key=lambda r: (r.get("benchmark", ""), r.get("backend", "")))
    path.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("backend", _BACKENDS)
def test_backend_sweep_comparison(operator, sources, backend, results_dir, tmp_path):
    """Both SpMM kernels run the physics1 sweep; per-kernel wall time
    goes to the sidecar and identity with the in-memory oracle is
    asserted *on the timed run*, so a fast kernel with drifted numbers
    can never post a time.  The operand picks the kernel: ``numpy`` is
    the in-memory graph, ``streaming`` the same graph opened
    memory-mapped under a 4 MiB budget.
    """
    subset = sources[:300]
    oracle = operator.variation_curves(subset, _WALKS)
    swept, policy = operator, ExecutionPolicy()
    if backend == "streaming":
        save_csr(load_cached("physics1"), tmp_path / "physics1.csr")
        swept = TransitionOperator(open_csr(tmp_path / "physics1.csr"))
        policy = ExecutionPolicy(memory_budget=4 << 20)

    start = time.perf_counter()
    out = swept.variation_curves(subset, _WALKS, policy=policy)
    seconds = time.perf_counter() - start

    assert np.array_equal(out, oracle), f"{backend} drifted from oracle"
    _append_backend_record(
        results_dir,
        {
            "benchmark": "backend_sweep",
            "dataset": "physics1",
            "backend": backend,
            "num_sources": int(subset.size),
            "walk_lengths": _WALKS,
            "seconds": seconds,
            "cpu_count": os.cpu_count(),
        },
    )


def test_estimator_beats_point_mass_gate(operator, results_dir):
    """The acceptance gate for the cheaper estimators: on the
    physics1-scale sweep at ε=0.25, both new modes must undercut the
    point-mass baseline — the uniform start needs (far) fewer evolution
    steps than the worst point-mass source, and wall-clock must beat the
    per-source baseline sweep outright.
    """
    graph = load_cached("physics1")
    epsilon = 0.25
    sources = list(range(50))

    start = time.perf_counter()
    baseline = estimate_mixing_time(
        graph, epsilon, sources=sources, max_steps=500, operator=operator
    )
    t_baseline = time.perf_counter() - start

    start = time.perf_counter()
    uniform = estimate_mixing_time(
        graph, epsilon, mode="uniform_start", max_steps=500, operator=operator
    )
    t_uniform = time.perf_counter() - start

    base_steps = int(baseline.per_source.max())
    uni_steps = int(uniform.per_source.max())
    _append_backend_record(
        results_dir,
        {
            "benchmark": "estimator_gate",
            "dataset": "physics1",
            "backend": "numpy",
            "epsilon": epsilon,
            "point_mass_seconds": t_baseline,
            "point_mass_steps": base_steps,
            "uniform_start_seconds": t_uniform,
            "uniform_start_steps": uni_steps,
        },
    )
    assert uni_steps < base_steps, (
        f"uniform start took {uni_steps} steps vs point-mass {base_steps}"
    )
    assert t_uniform < t_baseline, (
        f"uniform start ({t_uniform:.3f}s) did not beat the point-mass "
        f"baseline ({t_baseline:.3f}s)"
    )
