"""Crash/timeout/interrupt recovery for the fault-tolerant runtime.

These tests exercise the pool path end-to-end through the *public*
APIs (``variation_curves``, ``hitting_times``, route tails) with faults
injected into pool workers via the ``REPRO_FAULT_INJECT`` environment
hooks (see :mod:`repro.core.runtime`), and pin the headline contract:

* a SIGKILLed worker, a straggling shard, or a worker exception is
  recovered by retry — and when retries are exhausted, by in-process
  serial degradation — with output **bit-identical** to the serial path;
* an interrupted checkpointed sweep resumes from disk, recomputing only
  the missing shards, with output bit-identical to an uninterrupted
  run — including when the resume happens at a different worker count;
* a corrupted checkpoint raises
  :class:`~repro.errors.CheckpointCorruption` instead of producing
  silently wrong numbers.

Everything here is skipped where the fork + shared-memory backend is
unavailable (the runtime is always serial there, so there is nothing to
recover from).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.runtime as runtime
from repro.core import TransitionOperator, parallel_backend_available
from repro.core.runtime import ExecutionPolicy
from repro.errors import CheckpointCorruption, RuntimeFailure
from repro.graph import Graph
from repro.obs import OBS
from repro.sybil import RouteInstances

from tests.core.test_operators import ALL_KINDS, make_operator

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable; runtime is serial here",
)

WALKS = [0, 1, 3, 7, 12]


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Retries should not sleep in the test suite."""
    monkeypatch.setattr(runtime, "_BACKOFF_BASE", 0.0)


def _inject(monkeypatch, tmp_path, spec, *, once=True):
    monkeypatch.setenv("REPRO_FAULT_INJECT", spec)
    if once:
        monkeypatch.setenv("REPRO_FAULT_INJECT_STATE", str(tmp_path / "claim"))
    else:
        monkeypatch.delenv("REPRO_FAULT_INJECT_STATE", raising=False)


def _clear_injection(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_INJECT_STATE", raising=False)


def _sources(op, count=12):
    return np.arange(count) % op.num_states


# ----------------------------------------------------------------------
# Worker crash (SIGKILL), straggler timeout, worker exception
# ----------------------------------------------------------------------
@needs_pool
class TestCrashRecovery:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sigkilled_worker_recovers_bit_identical(
        self, kind, monkeypatch, tmp_path
    ):
        op = make_operator(kind)
        sources = _sources(op)
        serial = op.variation_curves(sources, WALKS)
        _inject(monkeypatch, tmp_path, "crash:0", once=True)
        recovered = op.variation_curves(
            sources, WALKS, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial, recovered), f"{kind}: recovery drifted"

    def test_crash_recovery_hitting_times(self, monkeypatch, tmp_path):
        op = make_operator("plain")
        sources = _sources(op, 10)
        serial = op.hitting_times(sources, 0.25, max_steps=40)
        _inject(monkeypatch, tmp_path, "crash:1", once=True)
        recovered = op.hitting_times(
            sources, 0.25, max_steps=40, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial.times, recovered.times)
        assert np.array_equal(serial.final_distances, recovered.final_distances)

    def test_crash_increments_retry_counter(self, monkeypatch, tmp_path):
        op = make_operator("plain")
        sources = _sources(op)
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            _inject(monkeypatch, tmp_path, "crash:0", once=True)
            op.variation_curves(sources, WALKS, policy=ExecutionPolicy(workers=2))
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        assert counters.get("runtime.retry.crash", 0) >= 1
        assert counters.get("runtime.retry.rounds", 0) >= 1

    def test_pool_breaking_during_submit_is_retried(self, monkeypatch):
        """A worker dying while the parent is still submitting makes a
        later ``submit`` raise ``BrokenProcessPool``; the unsubmitted
        shards must go to the retry round, not escape the sweep."""
        from concurrent.futures.process import BrokenProcessPool

        n = 40
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, (i + 6) % n) for i in range(0, n, 3)]
        op = TransitionOperator(Graph.from_edges(edges, num_nodes=n))
        sources = np.arange(n)
        serial = op.variation_curves(sources, WALKS)

        make_executor = runtime._make_executor
        submits = {"count": 0}

        def breaking_executor(workers):
            executor = make_executor(workers)
            submit = executor.submit

            def flaky_submit(*args, **kwargs):
                submits["count"] += 1
                if submits["count"] == 2:
                    raise BrokenProcessPool("worker died during submit")
                return submit(*args, **kwargs)

            executor.submit = flaky_submit
            return executor

        monkeypatch.setattr(runtime, "_make_executor", breaking_executor)
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            recovered = op.variation_curves(
                sources, WALKS, policy=ExecutionPolicy(workers=2, block_size=4)
            )
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        assert submits["count"] > 2, "the sweep never reached a retry round"
        assert np.array_equal(serial, recovered)
        assert counters.get("runtime.retry.crash", 0) >= 1


@needs_pool
class TestTimeoutRecovery:
    def test_straggler_shard_redispatched_bit_identical(
        self, monkeypatch, tmp_path
    ):
        op = make_operator("lazy")
        sources = _sources(op)
        serial = op.variation_curves(sources, WALKS)
        monkeypatch.setenv("REPRO_FAULT_INJECT_SLEEP", "20.0")
        _inject(monkeypatch, tmp_path, "timeout:0", once=True)
        recovered = op.variation_curves(
            sources,
            WALKS,
            policy=ExecutionPolicy(workers=2, shard_timeout=1.0),
        )
        assert np.array_equal(serial, recovered)

    def test_timeout_route_tails(self, monkeypatch, tmp_path, bridge_graph):
        ri = RouteInstances(bridge_graph, 6, seed=21)
        nodes = np.arange(bridge_graph.num_nodes, dtype=np.int64)
        lengths = np.asarray([1, 3, 7], dtype=np.int64)
        serial = ri.tails_at_lengths(nodes, lengths, seed=2)
        monkeypatch.setenv("REPRO_FAULT_INJECT_SLEEP", "20.0")
        _inject(monkeypatch, tmp_path, "timeout:0", once=True)
        recovered = ri.tails_at_lengths(
            nodes,
            lengths,
            seed=2,
            policy=ExecutionPolicy(workers=2, shard_timeout=1.0),
        )
        assert np.array_equal(serial, recovered)


@needs_pool
class TestWorkerExceptionRecovery:
    def test_raised_fault_retried_bit_identical(self, monkeypatch, tmp_path):
        op = make_operator("teleport")
        sources = _sources(op)
        serial = op.variation_curves(sources, WALKS)
        _inject(monkeypatch, tmp_path, "raise:1", once=True)
        recovered = op.variation_curves(
            sources, WALKS, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial, recovered)

    def test_route_engine_crash_recovery(self, monkeypatch, tmp_path, bridge_graph):
        ri = RouteInstances(bridge_graph, 6, seed=33)
        nodes = np.arange(bridge_graph.num_nodes, dtype=np.int64)
        lengths = np.asarray([1, 3, 7, 12], dtype=np.int64)
        serial = ri.tails_at_lengths(nodes, lengths, seed=5)
        _inject(monkeypatch, tmp_path, "crash:0", once=True)
        recovered = ri.tails_at_lengths(
            nodes, lengths, seed=5, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial, recovered)


@needs_pool
class TestSerialDegradation:
    def test_persistent_crash_degrades_to_serial(self, monkeypatch, tmp_path):
        """With no claim file the fault fires on *every* attempt: retries
        exhaust and the shard finishes in-process — still bit-identical,
        never an exception, never partial output."""
        op = make_operator("plain")
        sources = _sources(op)
        serial = op.variation_curves(sources, WALKS)
        _inject(monkeypatch, tmp_path, "crash:0", once=False)
        degraded = op.variation_curves(
            sources, WALKS, policy=ExecutionPolicy(workers=2, max_retries=1)
        )
        assert np.array_equal(serial, degraded)

    def test_degradation_counters(self, monkeypatch, tmp_path):
        op = make_operator("plain")
        sources = _sources(op)
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            _inject(monkeypatch, tmp_path, "raise:0", once=False)
            op.variation_curves(
                sources, WALKS, policy=ExecutionPolicy(workers=2, max_retries=1)
            )
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        assert counters.get("runtime.serial_degradations", 0) >= 1
        assert counters.get("runtime.degraded_shards", 0) >= 1


# ----------------------------------------------------------------------
# Checkpoint / resume through the public APIs
# ----------------------------------------------------------------------
@needs_pool
class TestInterruptAndResume:
    def test_interrupted_sweep_resumes_bit_identical(self, monkeypatch, tmp_path):
        op = make_operator("plain")
        sources = np.arange(24) % op.num_states
        serial = op.variation_curves(sources, WALKS)
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt))

        # Interrupt mid-sweep: the injected abort stops the run after
        # persisting whatever shards completed.
        _inject(monkeypatch, tmp_path, "abort:4", once=True)
        with pytest.raises(RuntimeFailure, match="interrupted"):
            op.variation_curves(sources, WALKS, policy=policy)
        saved = list(ckpt.glob("*/shard-*.npz"))
        assert saved, "interruption persisted no completed shards"

        # Resume: only the missing shards are recomputed.
        _clear_injection(monkeypatch)
        resumed = op.variation_curves(sources, WALKS, policy=policy)
        assert np.array_equal(serial, resumed)

    def test_resume_at_different_worker_count(self, monkeypatch, tmp_path):
        """A checkpoint taken under the pool resumes cleanly on the
        serial checkpointed path (workers=None) — fingerprints exclude
        the execution knobs."""
        op = make_operator("lazy")
        sources = np.arange(24) % op.num_states
        serial = op.variation_curves(sources, WALKS)
        ckpt = tmp_path / "ckpt"
        _inject(monkeypatch, tmp_path, "abort:2", once=True)
        with pytest.raises(RuntimeFailure):
            op.variation_curves(
                sources,
                WALKS,
                policy=ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt)),
            )
        _clear_injection(monkeypatch)
        resumed = op.variation_curves(
            sources, WALKS, policy=ExecutionPolicy(checkpoint_dir=str(ckpt))
        )
        assert np.array_equal(serial, resumed)

    def test_completed_checkpoint_skips_recompute(self, tmp_path):
        op = make_operator("plain")
        sources = np.arange(16) % op.num_states
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt))
        first = op.variation_curves(sources, WALKS, policy=policy)
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            second = op.variation_curves(sources, WALKS, policy=policy)
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        assert np.array_equal(first, second)
        assert counters.get("runtime.checkpoint.loaded_rows", 0) == sources.size
        assert counters.get("runtime.checkpoint.saved_shards", 0) == 0

    def test_resume_false_ignores_existing_checkpoint(self, tmp_path):
        op = make_operator("plain")
        sources = np.arange(12) % op.num_states
        ckpt = tmp_path / "ckpt"
        keep = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt))
        first = op.variation_curves(sources, WALKS, policy=keep)
        fresh = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt), resume=False)
        second = op.variation_curves(sources, WALKS, policy=fresh)
        assert np.array_equal(first, second)

    def test_corrupted_checkpoint_raises_through_public_api(self, tmp_path):
        op = make_operator("plain")
        sources = np.arange(12) % op.num_states
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(checkpoint_dir=str(ckpt))
        op.variation_curves(sources, WALKS, policy=policy)
        shards = sorted(ckpt.glob("*/shard-*.npz"))
        assert shards
        shards[0].write_bytes(b"bit rot")
        with pytest.raises(CheckpointCorruption):
            op.variation_curves(sources, WALKS, policy=policy)

    def test_route_tails_interrupt_and_resume(self, monkeypatch, tmp_path, bridge_graph):
        ri = RouteInstances(bridge_graph, 8, seed=11)
        nodes = np.arange(bridge_graph.num_nodes, dtype=np.int64)
        lengths = np.asarray([1, 3, 7], dtype=np.int64)
        serial = ri.tails_at_lengths(nodes, lengths, seed=3)
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt))
        _inject(monkeypatch, tmp_path, "abort:3", once=True)
        with pytest.raises(RuntimeFailure):
            ri.tails_at_lengths(nodes, lengths, seed=3, policy=policy)
        _clear_injection(monkeypatch)
        resumed = ri.tails_at_lengths(nodes, lengths, seed=3, policy=policy)
        assert np.array_equal(serial, resumed)


# ----------------------------------------------------------------------
# Full-scale tier-2 variant: the paper-sized sweep
# ----------------------------------------------------------------------
@needs_pool
@pytest.mark.slow
class TestFullScaleResume:
    def test_thousand_source_interrupted_resume_identical(
        self, monkeypatch, tmp_path
    ):
        """The acceptance scenario: a 1000-source sweep killed roughly
        halfway through resumes to output bit-identical to an
        uninterrupted serial run."""
        op = make_operator("plain")
        rng = np.random.default_rng(123)
        sources = rng.integers(0, op.num_states, size=1000)
        walks = [0, 2, 5, 10, 20, 40]
        serial = op.variation_curves(sources, walks)
        ckpt = tmp_path / "ckpt"
        policy = ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt))
        # 8 shards of 125 rows; aborting at shard 4 lands ~50% through.
        _inject(monkeypatch, tmp_path, "abort:4", once=True)
        with pytest.raises(RuntimeFailure):
            op.variation_curves(sources, walks, policy=policy)
        done = sum(1 for _ in ckpt.glob("*/shard-*.npz"))
        assert 0 < done < 8
        _clear_injection(monkeypatch)
        resumed = op.variation_curves(sources, walks, policy=policy)
        assert np.array_equal(serial, resumed)
