"""In-process sweep workloads: ``fig4-sweep`` and ``hitting-pool``.

Both run a closed loop with one caller issuing equal-size calls into one
warm operator until the window closes; every call's answer is checked
against the committed per-source table in ``expected/`` (rows are
independent of how sources are grouped into calls, so the table holds
for any seed).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from common import (
    TRACE_BLOCKS,
    HostSpeed,
    latency_summary,
    median,
    overhead_pct,
    peak_rss_mb,
    traced_block,
)
from tracer import TRACER, clock, collect_workers

HERE = os.path.dirname(os.path.abspath(__file__))

FIG4 = {
    "dataset": "physics1",
    "walk_lengths": [80, 100, 200, 300, 400, 500],
    "sources_per_call": 32,
    "workers": 1,
}
HITTING = {
    "dataset": "slashdot1",
    "epsilon": 0.1,
    "sources_per_call": 64,
    "workers": 2,
}
#: Cold set-ups per run: some before the window (the last one yields the
#: measured operator) and more spread evenly through it, paused out of
#: the window's clock; ``setup_s`` is their median.  Spreading them
#: samples the host across the whole run, like the calls themselves.
SETUP_BEFORE, SETUP_DURING = 3, 8


def row_digest(row: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(row, dtype="<f8").tobytes()).hexdigest()[:16]


def load_expected(name: str) -> dict:
    with open(os.path.join(HERE, "expected", name), encoding="utf-8") as fh:
        return json.load(fh)


class _Fig4:
    params = FIG4

    def __init__(self, rng) -> None:
        self.expected = load_expected("fig4_physics1.json")["row_sha256_16"]
        self.rng = rng
        self.queue = []

    def next_args(self, graph):
        if not self.queue:
            order = self.rng.permutation(graph.num_nodes)
            size = FIG4["sources_per_call"]
            self.queue = [order[i:i + size] for i in range(0, order.size, size)][::-1]
        return self.queue.pop()

    def call(self, graph, operator, sources):
        from repro.core import mixing

        return mixing.measure_mixing(
            graph, FIG4["walk_lengths"], sources=sources, operator=operator
        )

    def check(self, sources, result) -> bool:
        return np.array_equal(result.sources, sources) and all(
            row_digest(result.distances[i]) == self.expected[int(s)]
            for i, s in enumerate(sources)
        )


class _Hitting:
    params = HITTING

    def __init__(self, rng) -> None:
        self.expected = np.asarray(load_expected("hitting_slashdot1.json")["times"])
        self.rng = rng

    def next_args(self, graph):
        picked = self.rng.choice(graph.num_nodes, HITTING["sources_per_call"], replace=False)
        return np.sort(picked)

    def call(self, graph, operator, sources):
        from repro.core import mixing
        from repro.core.runtime import ExecutionPolicy

        return mixing.estimate_mixing_time(
            graph,
            HITTING["epsilon"],
            sources=sources,
            operator=operator,
            policy=ExecutionPolicy(workers=HITTING["workers"]),
        )

    def check(self, sources, result) -> bool:
        want = self.expected[sources]
        return (
            np.array_equal(result.sources, sources)
            and np.array_equal(result.per_source, want)
            and result.walk_length == int(want.max())
        )


WORKLOADS = {"fig4-sweep": _Fig4, "hitting-pool": _Hitting}


def _cold_setup(spec, scratch, speed=None):
    """One cold set-up: fresh dataset cache, operator build, warm-up call.

    With ``speed`` (untraced runs) its time is scaled to the reference
    host speed by speed samples taken just before it."""
    import repro.datasets as datasets
    from repro.core.walks import TransitionOperator
    from repro.datasets.cache import clear_memory_cache

    factor = 1.0 if speed is None else HostSpeed.factor([speed.sample() for _ in range(HostSpeed.NEAR)])
    os.environ["REPRO_CACHE_DIR"] = scratch.fresh_dir("cache")
    clear_memory_cache()
    start = clock()
    graph = datasets.load_cached(spec.params["dataset"])
    operator = TransitionOperator(graph)
    operator.stationary()
    spec.call(graph, operator, np.arange(spec.params["sources_per_call"]))
    return (clock() - start) * factor, graph, operator


def _loop(spec, graph, operator, seconds: float, interlude=None, interludes: int = 0, speed=None):
    """Closed loop of equal-size calls for ``seconds``; returns the tally.

    ``interlude()`` runs ``interludes`` times at evenly spaced points of
    the window; its time is excluded from the window, like the
    ``speed.sample()`` taken before every call when ``speed`` is given
    (``speed_at`` maps each latency to its sample).  Input generation
    and answer checks are the benchmark's own work (``loadgen`` spans);
    ``entry_s`` is the time spent inside library calls, on this loop's
    own clock.
    """
    latencies, failed, attempted, errors = [], 0, 0, []
    speed_ms, speed_at = [], []
    start = clock()
    deadline = start + seconds
    paused, done, entry = 0.0, 0, 0.0
    while clock() < deadline:
        if done < interludes and clock() - start - paused >= (done + 1) * seconds / (interludes + 1):
            t0 = clock()
            interlude()
            done += 1
            paused += clock() - t0
            deadline += clock() - t0
            continue
        if speed is not None:
            t0 = clock()
            speed_ms.append(speed.sample())
            paused += clock() - t0
            deadline += clock() - t0
        sources = TRACER.run("loadgen", spec.next_args, graph)
        attempted += 1
        t0 = clock()
        try:
            result = spec.call(graph, operator, sources)
            elapsed = clock() - t0
            ok = TRACER.run("loadgen", spec.check, sources, result)
        except Exception as exc:  # counted as a failed operation, reported
            elapsed, ok = clock() - t0, False
            errors.append(repr(exc))
        entry += elapsed
        if ok:
            latencies.append(elapsed * 1e3)
            speed_at.append(len(speed_ms) - 1)
        else:
            failed += 1
    return {
        "window_s": clock() - start - paused,
        "entry_s": entry,
        "latencies_ms": latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "speed_ms": speed_ms,
        "speed_at": speed_at,
    }


def _merge(tallies: list) -> dict:
    """Sum of several loop tallies (lists concatenated)."""
    out = {"window_s": 0.0, "entry_s": 0.0, "latencies_ms": [], "attempted": 0, "failed": 0, "errors": []}
    for tally in tallies:
        for key in out:
            out[key] += tally[key]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scratch):
    """Run one sweep workload.

    Returns ``(metrics, tally, phases, details, params, pool_workers)``.
    """
    spec = WORKLOADS[workload](np.random.default_rng(seed))
    speed = None if trace else HostSpeed()
    if trace:
        TRACER.trace_dir = scratch.fresh_dir("trace")
    setups = []
    phases = []
    for repeat in range(SETUP_BEFORE):
        last = repeat == SETUP_BEFORE - 1
        if trace and last:
            TRACER.reset()
            TRACER.enabled = True
        elapsed, graph, operator = _cold_setup(spec, scratch, speed)
        setups.append(elapsed)
        if trace and last:
            TRACER.enabled = False
            phases.append(
                {
                    "wall_s": elapsed,
                    "entry_s": elapsed,
                    "local": TRACER.snapshot(),
                    "workers": collect_workers(TRACER.trace_dir),
                }
            )
    if not trace:
        tally = _loop(
            spec, graph, operator, seconds,
            interlude=lambda: setups.append(_cold_setup(spec, scratch, speed)[0]),
            interludes=SETUP_DURING,
            speed=speed,
        )
        overhead = None
    else:
        # Untraced and traced blocks alternate through the window: same
        # process, same warm operator, drift shared, so the latency ratio
        # is the tracing overhead.
        TRACER.reset()
        blocks = {False: [], True: []}
        for index in range(TRACE_BLOCKS):
            traced = traced_block(index)
            TRACER.enabled = traced
            blocks[traced].append(_loop(spec, graph, operator, seconds / TRACE_BLOCKS))
            TRACER.enabled = False
        plain, tally = _merge(blocks[False]), _merge(blocks[True])
        phases.append(
            {
                "wall_s": tally["window_s"],
                "entry_s": tally["entry_s"],
                "local": TRACER.snapshot(),
                "workers": collect_workers(TRACER.trace_dir),
            }
        )
        overhead = overhead_pct(plain["latencies_ms"], tally["latencies_ms"])
        for key in ("attempted", "failed", "errors"):
            tally[key] += plain[key]
    raw = latency_summary(tally["latencies_ms"], tally["failed"])
    raw_rps = len(tally["latencies_ms"]) / tally["window_s"]
    if speed is None:
        summary, rps, host_speed_ms = raw, raw_rps, None
    else:
        scaled = HostSpeed.at_reference(tally["latencies_ms"], tally["speed_at"], tally["speed_ms"])
        summary = latency_summary(scaled, tally["failed"])
        rps = raw_rps / HostSpeed.factor(tally["speed_ms"])
        host_speed_ms = median(tally["speed_ms"])
    metrics = {
        "setup_s": median(setups),
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "rps": rps,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "setup_samples_s": setups,
        "calls": summary,
        "calls_as_measured": raw,
        "rps_as_measured": raw_rps,
        "host_speed_ms": host_speed_ms,
        "window_s": tally["window_s"],
        "errors": tally["errors"][:5],
        "tracing_overhead_pct": overhead,
    }
    params = dict(spec.params, setup_repeats=SETUP_BEFORE + (0 if trace else SETUP_DURING))
    return metrics, tally, phases, details, params, spec.params["workers"]
