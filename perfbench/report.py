"""Fold traced-run snapshots into per-layer metrics and check the accounting.

A traced run has phases (the measured set-up, then the traced blocks of
the window).  Each phase carries the benchmark process's own snapshot
(``local``), the server's (``remote``, service workloads) and the pool
workers' (``workers``, merged from their files), plus two durations the
benchmark took on its own clock, not from spans: ``wall_s`` (the phase,
in thread-seconds of the load generator) and ``entry_s`` (the part of it
spent inside library calls).  Per-layer metrics sum self time over
phases and processes; the accounting checks compare the spans with those
two clocks, per phase.
"""

from __future__ import annotations

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER = [
    ("datasets.load_s", "s"),
    ("service.startup_s", "s"),
    ("core.build_s", "s"),
    ("core.step_s", "s"),
    ("core.step_calls", "count"),
    ("core.row_steps", "count"),
    ("core.step_madds_computed", "count"),
    ("core.step_bytes_computed", "B"),
    ("core.tvd_s", "s"),
    ("core.tvd_rows", "count"),
    ("core.loop_other_s", "s"),
    ("parallel.publish_s", "s"),
    ("parallel.pool_setup_s", "s"),
    ("parallel.wait_s", "s"),
    ("parallel.task_s", "s"),
    ("parallel.worker_util", "ratio"),
    ("parallel.shards", "count"),
    ("runtime.retries", "count"),
    ("runtime.serial_fallbacks", "count"),
    ("service.http_s", "s"),
    ("service.codec_s", "s"),
    ("service.request_s", "s"),
    ("service.registry_acquire_s", "s"),
    ("service.registry_builds", "count"),
    ("service.cache_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.coalesce_wait_s", "s"),
    ("service.requests_per_sweep", "ratio"),
    ("service.compute_s", "s"),
    ("service.lock_wait_s", "s"),
    ("sybil.admission_s", "s"),
    ("spectral.slem_s", "s"),
    ("temporal.append_s", "s"),
    ("temporal.window_s", "s"),
    ("incremental.warm_s", "s"),
    ("incremental.matvecs", "count"),
    ("incremental.cold_fallbacks", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
]

#: Span layer behind each ``<layer>_s`` self-time metric.
_SELF_TIME = {
    "datasets.load_s": "datasets.load",
    "service.startup_s": "service.startup",
    "core.build_s": "core.build",
    "core.step_s": "core.step",
    "core.tvd_s": "core.tvd",
    "core.loop_other_s": "core.loop",
    "parallel.publish_s": "parallel.publish",
    "parallel.pool_setup_s": "parallel.pool_setup",
    "parallel.wait_s": "parallel.wait",
    "service.codec_s": "service.codec",
    "service.request_s": "service.request",
    "service.registry_acquire_s": "service.registry_acquire",
    "service.cache_s": "service.cache",
    "service.coalesce_wait_s": "service.coalesce_wait",
    "service.compute_s": "service.compute",
    "service.lock_wait_s": "service.lock_wait",
    "sybil.admission_s": "sybil.admission",
    "spectral.slem_s": "spectral.slem",
    "temporal.append_s": "temporal.append",
    "temporal.window_s": "temporal.window",
    "incremental.warm_s": "incremental.warm",
    "loadgen.self_s": "loadgen",
}

_COUNTS = {
    "core.step_calls": "core.step_calls",
    "core.row_steps": "core.row_steps",
    "core.step_madds_computed": "core.step_madds",
    "core.step_bytes_computed": "core.step_bytes",
    "core.tvd_rows": "core.tvd_rows",
    "parallel.shards": "parallel.shards",
    "runtime.serial_fallbacks": "runtime.serial_fallbacks",
    "service.registry_builds": "service.registry_builds",
    "incremental.matvecs": "incremental.matvecs",
    "incremental.cold_fallbacks": "incremental.cold_fallbacks",
}

_EMPTY = {"self_s": {}, "total_s": {}, "counts": {}}


def _get(snap, section, key) -> float:
    return float((snap or _EMPTY).get(section, {}).get(key, 0.0))


def _sum(phases, role, section, key) -> float:
    return sum(_get(p.get(role), section, key) for p in phases)


#: Span totals must match a clock to within this share of it plus a floor
#: (timer granularity and the loop's own bookkeeping between spans).
COVER_SHARE, COVER_FLOOR_S = 0.02, 0.005


def _covers(spans_s: float, clock_s: float) -> bool:
    return abs(clock_s - spans_s) <= COVER_SHARE * clock_s + COVER_FLOOR_S


def _account(phase: dict, workers_per_pool: int) -> dict:
    """Accounting for one phase on the load generator's timeline.

    The library's layers (for the service: the HTTP residual plus the
    server's spans) must add up to ``entry_s``, and together with the
    load generator's own spans (input generation, answer checks, pacing)
    to ``wall_s``; ``unattributed_s`` is what no span covers.  Both fail
    when a wrapper misses time or a span is counted twice.
    """
    local, remote, workers = phase.get("local"), phase.get("remote"), phase.get("workers")
    wall, entry = float(phase["wall_s"]), float(phase["entry_s"])
    layers = dict((local or _EMPTY)["self_s"])
    client = layers.pop("client.request", 0.0)
    owned = layers.pop("loadgen", 0.0)
    checks = {}
    if remote is not None:
        server_self = sum(remote["self_s"].values())
        codec_total = _get(remote, "total_s", "service.codec")
        http = client - codec_total
        for key, value in remote["self_s"].items():
            layers[key] = layers.get(key, 0.0) + value
        layers["service.http"] = http
        checks["server_spans_nest_in_codec"] = abs(server_self - codec_total) <= 1e-3 + 0.01 * codec_total
        checks["http_nonnegative"] = http >= -1e-3
    library = sum(layers.values())
    unattributed = wall - owned - library
    checks["library_covered"] = _covers(library, entry)
    checks["wall_covered"] = _covers(owned + library, wall)
    out = {
        "wall_s": wall,
        "entry_s": entry,
        "loadgen_s": owned,
        "layers_self_s": {k: v for k, v in sorted(layers.items()) if v},
        "unattributed_s": unattributed,
    }
    if workers is not None and workers.get("processes"):
        task_total = _get(workers, "total_s", "parallel.task")
        wait_total = _get(local, "total_s", "parallel.wait")
        dispatched = _get(local, "counts", "parallel.shards_dispatched")
        out["workers"] = {
            "processes": workers["processes"],
            "task_s": task_total,
            "layers_self_s": {k: v for k, v in sorted(workers["self_s"].items()) if v},
        }
        # Worker tasks run while the parent waits on the pool, so their
        # time cannot exceed the pool's capacity over that wait.
        checks["worker_tasks_within_wait"] = (
            0 < task_total <= workers_per_pool * wait_total * (1 + COVER_SHARE) + COVER_FLOOR_S
        )
        checks["worker_shards_reach_parent"] = (
            _get(workers, "counts", "parallel.shards") == dispatched
        )
    out["checks"] = checks
    return out


def per_layer(phases: list, *, workers_per_pool: int, late_ms: float, overhead_pct: float):
    """``(metrics, accounting)`` for a traced run."""
    accounting = {
        name: _account(phase, workers_per_pool) for name, phase in zip(("setup", "window"), phases)
    }
    roles = ("local", "remote", "workers")

    def self_time(layer):
        return sum(_sum(phases, role, "self_s", layer) for role in roles)

    def count(name):
        return sum(_sum(phases, role, "counts", name) for role in roles)

    values = {}
    for metric, layer in _SELF_TIME.items():
        values[metric] = self_time(layer)
    for metric, name in _COUNTS.items():
        values[metric] = count(name)
    values["parallel.task_s"] = _sum(phases, "workers", "total_s", "parallel.task")
    wait = values["parallel.wait_s"]
    values["parallel.worker_util"] = (
        values["parallel.task_s"] / (workers_per_pool * wait) if wait > 0 else 0.0
    )
    values["runtime.retries"] = max(0.0, count("parallel.executors") - count("parallel.pool_calls"))
    gets = count("service.cache_gets")
    values["service.cache_hit_ratio"] = count("service.cache_hits") / gets if gets else 0.0
    sweeps = count("service.batch_sweeps")
    values["service.requests_per_sweep"] = count("service.batch_requests") / sweeps if sweeps else 0.0
    values["service.http_s"] = sum(
        acc["layers_self_s"].get("service.http", 0.0) for acc in accounting.values()
    )
    values["loadgen.late_ms"] = late_ms
    values["unattributed_s"] = sum(acc["unattributed_s"] for acc in accounting.values())
    values["trace.wall_s"] = sum(acc["wall_s"] for acc in accounting.values())
    values["trace.overhead_pct"] = overhead_pct
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
    return metrics, accounting


def accounting_ok(accounting: dict) -> bool:
    return all(all(acc["checks"].values()) for acc in accounting.values())
