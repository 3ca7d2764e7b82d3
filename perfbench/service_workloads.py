"""HTTP service workloads: ``service-mixed`` and ``service-churn``.

The server is ``repro-mixing serve`` with default flags, started through
``serve.py`` in its own process with a fresh dataset cache; the load
generator here drives it over two persistent HTTP connections.  After
the window every reply is compared with the library's answer to the
same query, computed in this process.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    TRACE_BLOCKS,
    HostSpeed,
    latency_summary,
    median,
    overhead_pct,
    traced_block,
    vm_hwm_kib,
)
from tracer import TRACER, clock

HERE = os.path.dirname(os.path.abspath(__file__))

MIXED = {
    "datasets": ["physics1", "slashdot1"],
    "epsilon": 0.25,
    "mixing_pool": 32,
    "curve_sources": 4,
    "curve_walks": [1, 2, 5, 10, 20, 40],
    "admission_dataset": "physics1",
    "admission_suspects": 8,
    "route_length": 10,
    "mix": {"mixing_time": 0.5, "variation_curve": 0.25, "admission": 0.1, "slem": 0.15},
    "connections": 2,
}
CHURN = {
    "dataset": "temporal_mathoverflow",
    "write_rate_per_s": 8.0,
    "time_step": 10,
    "kept_inserts": 8,
    "read_windows": 3,
    # Reads start ``read_lead_s`` before every third write's due time, so
    # exactly one write in three waits on the engine lock behind a read,
    # however fast the host is: the write p50 is a write that did not wait
    # and the write tail (11th-largest of ~240) one that did.  With free
    # running reads the share of waiting writes grew with the read time,
    # which doubled the tail's sensitivity to the host's speed.
    "read_every_writes": 3,
    "read_lead_s": 0.01,
    "trend_walks": [1, 2, 5, 10, 20],
    "trend_sources": 16,
    "connections": 2,
}
#: Cold server starts per run, before (the last one is measured) and
#: after the window; ``setup_s`` is their median.
SETUP_BEFORE, SETUP_AFTER = 2, 2
#: Blocks an untraced service-mixed window is cut into, with host-speed
#: samples between them (see ``_sampled_blocks``).
SPEED_BLOCKS = 10
SCHEMA_V2 = "repro.service.query/v2"


class Server:
    """One ``repro-mixing serve`` process on an ephemeral port."""

    def __init__(self, root: str, scratch, trace_dir=None) -> None:
        self.trace_dir = trace_dir
        self._seq = 0
        env = dict(
            os.environ,
            REPRO_CACHE_DIR=scratch.fresh_dir("cache"),
            PYTHONPATH=os.path.join(root, "src"),
        )
        cmd = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", "serve", "--port", "0"]
        self._err = open(scratch.fresh_dir("server") + "/stderr.txt", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._err, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://([^:/\s]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.service import HTTPServiceClient

        return HTTPServiceClient(self.host, self.port, timeout=120.0)

    def control(self, *commands: str) -> None:
        """Run tracer commands inside the server (see ``serve.py``)."""
        self._seq += 1
        path = os.path.join(self.trace_dir, "cmd")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("\n".join([str(self._seq), *commands]) + "\n")
        os.replace(path + ".tmp", path)
        ack = os.path.join(self.trace_dir, f"ack-{self._seq}")
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(ack):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not acknowledge a tracer command")
            time.sleep(0.002)

    def read_json(self, name: str) -> dict:
        with open(os.path.join(self.trace_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def peak_rss_mb(self) -> float:
        return vm_hwm_kib(self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def _timed_query(client, payload, errors=None):
    """``(reply_or_None, seconds)``; a non-200 reply or an exception is None
    (its text is appended to ``errors``)."""
    start = clock()
    try:
        reply = TRACER.run("client.request", client.query, payload)
    except Exception as exc:  # counted as a failed operation, reported
        reply = None
        if errors is not None:
            errors.append(repr(exc))
    return reply, clock() - start


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
class _Mixed:
    params = MIXED
    read_period_s = read_offset_s = 0.0  # closed loop

    def __init__(self, seed: int, speed=None) -> None:
        from repro.datasets import load_cached

        self.speed = speed
        self.seed = seed
        self.graphs = {name: load_cached(name) for name in MIXED["datasets"]}
        rng = np.random.default_rng([seed, 0])
        self.pools = {
            name: rng.choice(g.num_nodes - 1, MIXED["mixing_pool"], replace=False).tolist()
            for name, g in self.graphs.items()
        }

    def warmup_payloads(self):
        out = []
        for name, g in self.graphs.items():
            last = g.num_nodes - 1  # never in a pool
            out += [
                {"type": "slem", "dataset": name},
                {"type": "mixing_time", "dataset": name, "source": last, "epsilon": MIXED["epsilon"]},
                {"type": "variation_curve", "dataset": name, "sources": [last],
                 "walk_lengths": MIXED["curve_walks"]},
            ]
        out.append(self._admission(np.random.default_rng([self.seed, 99])))
        return out

    def _admission(self, rng):
        n = self.graphs[MIXED["admission_dataset"]].num_nodes
        suspects = 1 + rng.choice(n - 1, MIXED["admission_suspects"], replace=False)
        return {
            "type": "admission",
            "dataset": MIXED["admission_dataset"],
            "suspects": [int(s) for s in suspects],
            "route_length": MIXED["route_length"],
            "seed": int(rng.integers(1 << 16)),
        }

    def threads(self):
        return [("reader", i) for i in range(MIXED["connections"])]

    def reader_payload(self, rng):
        kinds = list(MIXED["mix"])
        kind = kinds[rng.choice(len(kinds), p=list(MIXED["mix"].values()))]
        name = MIXED["datasets"][rng.integers(len(MIXED["datasets"]))]
        if kind == "mixing_time":
            source = self.pools[name][rng.integers(len(self.pools[name]))]
            return {"type": kind, "dataset": name, "source": int(source), "epsilon": MIXED["epsilon"]}
        if kind == "variation_curve":
            n = self.graphs[name].num_nodes
            sources = np.sort(rng.choice(n, MIXED["curve_sources"], replace=False))
            return {"type": kind, "dataset": name, "sources": [int(s) for s in sources],
                    "walk_lengths": MIXED["curve_walks"]}
        if kind == "admission":
            return self._admission(rng)
        return {"type": "slem", "dataset": name}

    def oracle(self, payloads):
        """Library answer for every distinct payload, keyed like ``_key``."""
        from repro.core import mixing, spectral
        from repro.core.runtime import ExecutionPolicy
        from repro.core.walks import TransitionOperator
        from repro.sybil.scenario import no_attack_scenario
        from repro.sybil.sybillimit import SybilLimit, SybilLimitParams

        ops = {name: TransitionOperator(g) for name, g in self.graphs.items()}
        answers = {}
        by_dataset = {}
        for p in payloads:
            if p["type"] == "mixing_time":
                by_dataset.setdefault(p["dataset"], set()).add(p["source"])
        for name, sources in by_dataset.items():
            ordered = sorted(sources)
            hit = ops[name].hitting_times(ordered, MIXED["epsilon"])
            for i, s in enumerate(ordered):
                payload = {"type": "mixing_time", "dataset": name, "source": s,
                           "epsilon": MIXED["epsilon"]}
                answers[_key(payload)] = {
                    "source": s,
                    "time": int(hit.times[i]),
                    "final_distance": float(hit.final_distances[i]),
                    "epsilon": float(MIXED["epsilon"]),
                }
        for p in payloads:
            key = _key(p)
            if key in answers:
                continue
            g = self.graphs[p["dataset"]]
            if p["type"] == "variation_curve":
                answers[key] = mixing.measure_mixing(
                    g, p["walk_lengths"], sources=p["sources"], operator=ops[p["dataset"]]
                ).distances.tolist()
            elif p["type"] == "slem":
                answers[key] = float(spectral.slem(g))
            elif p["type"] == "admission":
                protocol = SybilLimit(
                    no_attack_scenario(g),
                    SybilLimitParams(route_length=p["route_length"], num_instances=None),
                    seed=p["seed"],
                )
                outcome = protocol.admission_sweep(
                    0, [p["route_length"]], suspects=p["suspects"], seed=p["seed"],
                    policy=ExecutionPolicy(),
                )[0]
                answers[key] = {
                    "verifier": int(outcome.verifier),
                    "suspects": [int(s) for s in outcome.suspects],
                    "accepted": [bool(a) for a in outcome.accepted],
                    "intersected": [bool(i) for i in outcome.intersected],
                    "route_length": int(outcome.route_length),
                    "num_instances": int(outcome.num_instances),
                    "admission_rate": float(outcome.admission_rate),
                }
        return answers


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
class _Churn:
    params = CHURN
    read_period_s = CHURN["read_every_writes"] / CHURN["write_rate_per_s"]
    read_offset_s = 1.0 / CHURN["write_rate_per_s"] - CHURN["read_lead_s"]

    def __init__(self, seed: int, speed=None) -> None:
        #: Writes are CPU-bound in the server, so untraced runs report them
        #: at the reference host speed from a sample after each write.
        self.speed = speed
        from repro.datasets import load_temporal_cached

        loaded = load_temporal_cached(CHURN["dataset"])
        self.local = loaded.compact(loaded.base_time)
        head = self.local.snapshot()
        self.base_times = list(self.local.times())
        self.rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self._edges = {tuple(e) for e in np.sort(head.edges(), axis=1).tolist()}
        self._ours = []
        self._n = head.num_nodes
        self._t = self.base_times[-1]
        self.acked_times = list(self.base_times)
        self.lock = threading.Lock()

    def _next_delta(self):
        while True:
            u, v = (int(x) for x in self.rng.integers(self._n, size=2))
            edge = (min(u, v), max(u, v))
            if u != v and edge not in self._edges:
                break
        self._edges.add(edge)
        self._ours.append(edge)
        delete = []
        if len(self._ours) > CHURN["kept_inserts"]:
            gone = self._ours.pop(0)
            self._edges.remove(gone)
            delete = [list(gone)]
        self._t += CHURN["time_step"]
        return {
            "schema": SCHEMA_V2,
            "type": "append_delta",
            "dataset": CHURN["dataset"],
            "timestamp": self._t,
            "insert": [list(edge)],
            "delete": delete,
        }

    def warmup_payloads(self):
        times = self.base_times[-3:]
        return [
            {"schema": SCHEMA_V2, "type": "slem_trend", "dataset": CHURN["dataset"], "times": times},
            self._trend("mixing_trend", times, 0),
        ]

    def _trend(self, kind, times, seed):
        payload = {"schema": SCHEMA_V2, "type": kind, "dataset": CHURN["dataset"], "times": times}
        if kind == "mixing_trend":
            payload.update(walk_lengths=CHURN["trend_walks"],
                           num_sources=CHURN["trend_sources"], seed=seed)
        return payload

    def threads(self):
        return [("writer", 0), ("reader", 1)]

    def reader_payload(self, rng):
        with self.lock:
            times = list(self.acked_times[-CHURN["read_windows"]:])
        kind = "slem_trend" if rng.random() < 0.5 else "mixing_trend"
        return self._trend(kind, times, int(rng.integers(1 << 30)))

    def oracle(self, payloads, writes):
        """Replay acknowledged writes locally; answer every read."""
        from repro.core import incremental
        from repro.core.runtime import ExecutionPolicy
        from repro.graph.temporal import EdgeDelta

        versions = []
        for payload, _reply in writes:
            delta = EdgeDelta(payload["timestamp"], insert=payload["insert"], delete=payload["delete"])
            versions.append(self.local.append(delta))
        answers = {}
        policy = ExecutionPolicy()
        for p in payloads:
            key = _key(p)
            if key in answers:
                continue
            if p["type"] == "slem_trend":
                trend = incremental.slem_trend(self.local, times=p["times"], warm=True, policy=policy)
                answers[key] = {
                    "times": [int(t) for t in trend.times],
                    "slem": trend.slem.tolist(),
                    "lambda2": trend.lambda2.tolist(),
                    "lambda_min": trend.lambda_min.tolist(),
                    "warm_started": [bool(w) for w in trend.warm_started],
                    "matvecs": [int(m) for m in trend.matvecs],
                }
            else:
                trend = incremental.mixing_trend(
                    self.local, p["walk_lengths"], num_sources=p["num_sources"],
                    seed=p["seed"], times=p["times"], policy=policy,
                )
                answers[key] = {
                    "times": [int(t) for t in trend.times],
                    "walk_lengths": [int(w) for w in trend.walk_lengths],
                    "sources": [int(s) for s in trend.sources],
                    "worst_case": trend.worst_case().tolist(),
                    "average_case": trend.average_case().tolist(),
                }
        return answers, versions


def _key(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
# Input generation and pacing sleeps are the load generator's own work
# (``loadgen`` spans); the time inside ``client.query`` is the service's.
def _reader(spec, client, rng, start, deadline, out):
    """Reads back to back, or (``spec.read_period_s``) each started on its
    schedule, or at once when the previous read overran it."""
    began = clock()
    index = 0
    while clock() < deadline:
        if spec.read_period_s:
            due = start + spec.read_offset_s + index * spec.read_period_s
            if due >= deadline:
                break
            index += 1
            now = clock()
            if now < due:
                TRACER.run("loadgen", time.sleep, due - now)
        payload = TRACER.run("loadgen", spec.reader_payload, rng)
        reply, seconds = _timed_query(client, payload, out["errors"])
        out["reads"].append((payload, reply, seconds))
    out["wall_s"] = clock() - began


def _writer(spec, client, start, deadline, out):
    rate = CHURN["write_rate_per_s"]
    index = 0
    began = clock()
    while True:
        due = start + index / rate
        if due >= deadline:
            break
        now = clock()
        if now < due:
            TRACER.run("loadgen", time.sleep, due - now)
        late = clock() - due
        payload = TRACER.run("loadgen", spec._next_delta)
        reply, seconds = _timed_query(client, payload, out["errors"])
        latency = clock() - due
        out["writes"].append((payload, reply, latency, late, seconds))
        if spec.speed is not None:
            # Well before the next write is due, and read starts are
            # always due just before a write, so the sample delays neither.
            out["speed_ms"].append(spec.speed.sample())
        if reply is None:
            break  # the server's journal no longer matches the plan
        with spec.lock:
            spec.acked_times.append(payload["timestamp"])
        index += 1
    out["wall_s"] = clock() - began


def _drive(spec, clients, seconds, seed, phase):
    """Run every connection's loop for ``seconds``; returns per-thread logs."""
    start = clock()
    deadline = start + seconds
    logs, threads = [], []
    for (role, index), client in zip(spec.threads(), clients):
        log = {"reads": [], "writes": [], "errors": [], "speed_ms": [], "wall_s": 0.0}
        logs.append(log)
        if role == "writer":
            target, args = _writer, (spec, client, start, deadline, log)
        else:
            rng = np.random.default_rng([seed, 2, phase, index])
            target, args = _reader, (spec, client, rng, start, deadline, log)
        threads.append(threading.Thread(target=target, args=args))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return logs, clock() - start


def _traced_blocks(spec, clients, seconds, seed, server):
    """The window as alternating untraced and traced blocks (drift lands
    on both alike); the server's trace accumulates over the traced ones."""
    TRACER.reset()
    server.control("reset")
    blocks = []
    for index in range(TRACE_BLOCKS):
        traced = traced_block(index)
        if traced:
            server.control("enable")
            TRACER.enabled = True
        logs, window = _drive(spec, clients, seconds / TRACE_BLOCKS, seed, index)
        if traced:
            TRACER.enabled = False
            server.control("disable")
        blocks.append({"measured": traced, "logs": logs, "window_s": window})
    server.control("dump server-window.json")
    return blocks


def _entry_s(log) -> float:
    """Seconds this connection spent inside ``client.query``."""
    return sum(r[2] for r in log["reads"]) + sum(w[4] for w in log["writes"])


def _sampled_blocks(spec, clients, seconds, seed):
    """The window as ``SPEED_BLOCKS`` blocks with host-speed samples
    between them; each block's reads are scaled by the samples on either
    side (its ``factor``)."""
    before = [spec.speed.sample() for _ in range(HostSpeed.NEAR)]
    blocks = []
    for index in range(SPEED_BLOCKS):
        logs, window = _drive(spec, clients, seconds / SPEED_BLOCKS, seed, index)
        after = [spec.speed.sample() for _ in range(HostSpeed.NEAR)]
        blocks.append({"measured": True, "logs": logs, "window_s": window,
                       "factor": HostSpeed.factor(before + after)})
        before = after
    return blocks


def _cold_start(root, scratch, spec, trace_dir):
    """Start a fresh server and answer its warm-up queries; ``(server, s)``.

    Untraced, the time is scaled to the reference host speed by speed
    samples taken just before the start."""
    factor = 1.0
    if spec.speed is not None:
        factor = HostSpeed.factor([spec.speed.sample() for _ in range(HostSpeed.NEAR)])
    start = clock()
    server = TRACER.run("service.startup", Server, root, scratch, trace_dir)
    try:
        with server.client() as client:
            for payload in spec.warmup_payloads():
                if _timed_query(client, payload)[0] is None:
                    raise RuntimeError(f"warm-up query failed: {payload}")
    except BaseException:
        server.stop()
        raise
    return server, (clock() - start) * factor


def run(workload: str, seed: int, seconds: float, trace: bool, scratch, root: str):
    """Run one service workload (same return shape as the sweep workloads)."""
    speed = None if trace else HostSpeed()
    spec = (_Mixed if workload == "service-mixed" else _Churn)(seed, speed)
    trace_dir = scratch.fresh_dir("trace") if trace else None
    setups, phases = [], []
    for _ in range(SETUP_BEFORE - 1):
        server, elapsed = _cold_start(root, scratch, spec, None)
        server.stop()
        setups.append(elapsed)
    if trace:
        TRACER.reset()
        TRACER.enabled = True
    server, elapsed = _cold_start(root, scratch, spec, trace_dir)
    setups.append(elapsed)
    try:
        if trace:
            TRACER.enabled = False
            server.control("dump server-setup.json", "reset", "disable")
            phases.append(
                {"wall_s": elapsed, "entry_s": elapsed, "local": TRACER.snapshot(),
                 "remote": server.read_json("server-setup.json")}
            )
        clients = [server.client() for _ in spec.threads()]
        try:
            if trace:
                blocks = _traced_blocks(spec, clients, seconds, seed, server)
                logs = [log for b in blocks if b["measured"] for log in b["logs"]]
                phases.append(
                    {"wall_s": sum(log["wall_s"] for log in logs),
                     "entry_s": sum(_entry_s(log) for log in logs),
                     "local": TRACER.snapshot(),
                     "remote": server.read_json("server-window.json")}
                )
            elif workload == "service-mixed":
                blocks = _sampled_blocks(spec, clients, seconds, seed)
            else:
                logs, window = _drive(spec, clients, seconds, seed, 0)
                blocks = [{"measured": True, "logs": logs, "window_s": window}]
        finally:
            for client in clients:
                client.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    for _ in range(SETUP_AFTER):
        extra, elapsed = _cold_start(root, scratch, spec, None)
        extra.stop()
        setups.append(elapsed)
    return _summarise(spec, workload, blocks, trace, setups, rss, phases)


def _summarise(spec, workload, blocks, trace, setups, rss, phases):
    """Check every reply and fold the blocks (in the order they ran) into
    metrics; only the measured blocks' operations are timed."""
    reads = [
        (*r, b["measured"], b.get("factor", 1.0))
        for b in blocks for log in b["logs"] for r in log["reads"]
    ]
    writes = [(*w, b["measured"]) for b in blocks for log in b["logs"] for w in log["writes"]]
    payloads = [r[0] for r in reads]
    failed_writes = 0
    if workload == "service-mixed":
        answers = spec.oracle(payloads)
    else:
        acked = [w for w in writes if w[1] is not None]
        answers, versions = spec.oracle(payloads, [(w[0], w[1]) for w in acked])
        failed_writes = sum(w[1].get("graph_version") != v for w, v in zip(acked, versions))
        failed_writes += len(writes) - len(acked)
    read_ok = [
        reply is not None and reply.get("value") == answers.get(_key(payload))
        for payload, reply, _seconds, _measured, _factor in reads
    ]
    failed_reads = read_ok.count(False)
    measured_reads = [(r, ok) for r, ok in zip(reads, read_ok) if r[3]]
    read_ms = [r[2] * 1e3 for r, ok in measured_reads if ok]
    read_failed = len(measured_reads) - len(read_ms)
    measured_writes = [w for w in writes if w[5]]
    measured_ms = [w[2] * 1e3 for w in measured_writes if w[1] is not None]
    write_failed = len(measured_writes) - len(measured_ms)
    # One speed sample follows each write (untraced service-churn only).
    speed_ms = [s for b in blocks for log in b["logs"] for s in log["speed_ms"]]
    if speed_ms:
        acked_at = [i for i, w in enumerate(measured_writes) if w[1] is not None]
        write_ms = HostSpeed.at_reference(measured_ms, acked_at, speed_ms)
    else:
        write_ms = measured_ms
    if workload == "service-mixed":
        primary = latency_summary(read_ms, read_failed)
        # The tail (admission reads) is CPU-bound in the server and is
        # scaled to the reference host speed; the median is set by the
        # HTTP round trip and stays as measured.
        scaled_ms = [r[2] * 1e3 * r[4] for r, ok in measured_reads if ok]
        tail_ms = latency_summary(scaled_ms, read_failed)["tail_ms"]
        timed, plain = read_ms, [r[2] * 1e3 for r, ok in zip(reads, read_ok) if ok and not r[3]]
    else:
        primary = latency_summary(write_ms, write_failed)
        tail_ms = primary["tail_ms"]
        timed, plain = write_ms, [w[2] * 1e3 for w in writes if w[1] is not None and not w[5]]
    window = sum(b["window_s"] for b in blocks if b["measured"])
    metrics = {
        "setup_s": median(setups),
        "p50_ms": primary["p50_ms"],
        "tail_ms": tail_ms,
        "rps": len(read_ms) / window,
        "peak_rss_mb": rss,
    }
    late = [w[3] for w in measured_writes]
    cache_hits = sum(1 for r, _ok in measured_reads if r[1] is not None and r[1].get("cache_hit"))
    details = {
        "setup_samples_s": setups,
        "window_s": window,
        "primary": primary,
        "reads": latency_summary(read_ms, read_failed),
        "writes": latency_summary(write_ms, write_failed),
        "writes_as_measured": latency_summary(measured_ms, write_failed),
        "host_speed_ms": median(speed_ms) if speed_ms else None,
        "block_speed_factors": [b["factor"] for b in blocks if "factor" in b],
        "read_cache_hit_ratio": cache_hits / len(measured_reads) if measured_reads else 0.0,
        "writes_sent": len(writes),
        "errors": [e for b in blocks for log in b["logs"] for e in log["errors"]][:5],
        "late_ms_mean": 1e3 * sum(late) / len(late) if late else 0.0,
        "late_ms_max": 1e3 * max(late) if late else 0.0,
        "tracing_overhead_pct": overhead_pct(plain, timed) if trace else None,
    }
    tally = {
        "attempted": len(reads) + len(writes),
        "failed": failed_reads + failed_writes,
    }
    params = dict(spec.params, setup_repeats=SETUP_BEFORE + SETUP_AFTER)
    return metrics, tally, phases, details, params, 1
