"""Serial == parallel, bit-for-bit (`repro.core.parallel`).

The process-pool sweep runtime's whole contract is that ``workers`` is
*only* a speed knob: for every operator flavour, worker count, shard
boundary and ragged source count, the parallel output must be
``np.array_equal`` (no tolerance) to the serial block path.  This suite
pins that contract, plus the fallback rules that route back to the
serial path.

The equivalence tests are skipped automatically on platforms without the
fork start method (the runtime itself falls back to serial there, so
there is nothing to compare).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DirectedTransitionOperator,
    MarkovOperator,
    TransitionOperator,
    estimate_mixing_time,
    measure_mixing,
    originator_biased_curves,
    parallel_backend_available,
    resolve_workers,
)
from repro.core.parallel import (
    describe_operator,
    maybe_parallel_evolve_block,
    maybe_parallel_hitting_times,
    maybe_parallel_variation_curves,
)
from repro.core.runtime import ExecutionPolicy
from repro.obs import OBS
from tests.core.test_operators import ALL_KINDS, _er_graph, make_operator

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork pool unavailable; runtime is serial here",
)

WORKER_COUNTS = [2, 4]


# ----------------------------------------------------------------------
# Worker-count resolution and fallback rules
# ----------------------------------------------------------------------
class TestResolveWorkers:
    @pytest.mark.parametrize("request_,expected", [(None, 1), (0, 1), (1, 1), (3, 3)])
    def test_explicit_counts(self, request_, expected):
        assert resolve_workers(request_) == expected

    def test_all_cores(self):
        count = resolve_workers(-1)
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))
        else:
            assert count == max(1, os.cpu_count() or 1)

    def test_all_cores_honours_cpu_affinity(self, monkeypatch):
        # Pinned to one CPU (``taskset -c 0``), -1 must not fork a
        # worker per *installed* core onto it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(-1) == 1

    @pytest.mark.parametrize("bad", [-2, -17])
    def test_below_minus_one_raises(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestFallbackRules:
    """Every ``maybe_parallel_*`` entry point must return ``None`` (serial
    path) instead of guessing when the pool cannot help."""

    def _call_curves(self, op, sources, workers):
        return maybe_parallel_variation_curves(
            op,
            np.asarray(sources, dtype=np.int64),
            np.asarray([0, 1, 2], dtype=np.int64),
            reference=op.stationary(),
            policy=ExecutionPolicy(workers=workers),
        )

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_worker_counts_fall_back(self, workers):
        op = make_operator("plain")
        assert self._call_curves(op, [0, 1, 2, 3], workers) is None

    def test_single_source_falls_back(self):
        # One row cannot be sharded; the pool would be pure overhead.
        op = make_operator("plain")
        assert self._call_curves(op, [0], workers=4) is None

    def test_zero_sources_fall_back(self):
        # Empty shards never reach the pool — the runtime defers to the
        # serial path, which owns the (rejecting) empty-input contract.
        op = make_operator("plain")
        assert self._call_curves(op, [], workers=4) is None

    def test_zero_sources_behave_like_serial(self):
        # The public API contract for empty sources (an empty (0, w)
        # result) is identical with or without a workers request.
        op = make_operator("plain")
        serial = op.variation_curves([], [0, 1])
        pooled = op.variation_curves([], [0, 1], policy=ExecutionPolicy(workers=4))
        assert serial.shape == pooled.shape == (0, 2)
        assert np.array_equal(serial, pooled)

    @needs_pool
    def test_unknown_apply_block_runs_pooled_unchecked(self, tmp_path):
        """A custom step runs on the pool (workers inherit the operator
        itself) and equals serial, but no checkpoint key describes it."""

        class Exotic(TransitionOperator):
            def _apply_block(self, block):
                return super()._apply_block(block)

        op = Exotic(_er_graph())
        assert describe_operator(op) is None
        sources = [0, 1, 2, 3, 5, 8]
        serial = op.variation_curves(sources, [0, 1, 2])
        pooled = self._call_curves(op, sources, workers=2)
        assert pooled is not None and np.array_equal(pooled, serial)
        policy = ExecutionPolicy(workers=2, checkpoint_dir=tmp_path)
        assert np.array_equal(op.variation_curves(sources, [0, 1, 2], policy=policy), serial)
        assert list(tmp_path.iterdir()) == []

    def test_evolve_zero_steps_falls_back(self):
        op = make_operator("plain")
        block = op.point_mass_block([0, 1, 2, 3])
        assert maybe_parallel_evolve_block(op, block, 0, policy=ExecutionPolicy(workers=4)) is None

    def test_hitting_single_source_falls_back(self):
        op = make_operator("plain")
        out = maybe_parallel_hitting_times(
            op,
            np.asarray([0], dtype=np.int64),
            0.5,
            max_steps=10,
            reference=op.stationary(),
            policy=ExecutionPolicy(workers=4),
        )
        assert out is None


class TestDescribeOperator:
    def test_kinds(self):
        assert describe_operator(make_operator("plain"))[0] == "csr"
        assert describe_operator(make_operator("lazy"))[0] == "csr"
        assert describe_operator(make_operator("weighted"))[0] == "csr"
        assert describe_operator(make_operator("directed"))[0] == "csr"
        for kind in ("teleport", "dangling"):
            name, _matrix, extras = describe_operator(make_operator(kind))
            assert name == "teleport"
            assert set(extras) == {"damping", "dangling"}

    def test_matrix_is_the_operators(self):
        op = make_operator("plain")
        _kind, matrix, _extras = describe_operator(op)
        assert np.array_equal(matrix.toarray(), op._matrix.toarray())


# ----------------------------------------------------------------------
# The contract: serial == parallel, bit-for-bit
# ----------------------------------------------------------------------
@needs_pool
class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_variation_curves(self, kind, workers):
        op = make_operator(kind)
        sources = np.arange(10) % op.num_states
        walks = [0, 1, 3, 7, 12]
        serial = op.variation_curves(sources, walks)
        parallel = op.variation_curves(sources, walks, policy=ExecutionPolicy(workers=workers))
        assert np.array_equal(serial, parallel), f"{kind}: parallel curves drifted"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_hitting_times(self, kind, workers):
        op = make_operator(kind)
        sources = np.arange(8) % op.num_states
        serial = op.hitting_times(sources, 0.25, max_steps=40)
        parallel = op.hitting_times(
            sources, 0.25, max_steps=40, policy=ExecutionPolicy(workers=workers)
        )
        assert np.array_equal(serial.times, parallel.times)
        assert np.array_equal(serial.final_distances, parallel.final_distances)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evolve_block(self, kind):
        op = make_operator(kind)
        block = op.point_mass_block(list(range(min(6, op.num_states))))
        serial = op.evolve_block(block.copy(), 9)
        parallel = op.evolve_block(block.copy(), 9, policy=ExecutionPolicy(workers=2))
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chunk_boundaries_inside_workers(self, workers):
        """Worker-side chunking (block_size) composes with sharding."""
        op = make_operator("plain")
        sources = np.arange(11) % op.num_states
        walks = [0, 2, 5]
        serial = op.variation_curves(sources, walks, policy=ExecutionPolicy(block_size=3))
        parallel = op.variation_curves(
            sources, walks, policy=ExecutionPolicy(workers=workers, block_size=3)
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("count", [2, 3, 16, "n"])
    def test_ragged_source_counts(self, count):
        """Shard counts that do not divide evenly (including every node
        and more sources than workers*overshard) stay bit-identical.
        Two-row chunks keep the shard floor from merging the shards."""
        op = make_operator("plain")
        n = op.num_states
        if count == "n":
            sources = np.arange(n)
        else:
            sources = np.arange(count) % n
        walks = [0, 1, 4]
        serial = op.variation_curves(sources, walks)
        parallel = op.variation_curves(
            sources, walks, policy=ExecutionPolicy(workers=3, block_size=2)
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_duplicate_and_unsorted_sources(self, workers):
        op = make_operator("lazy")
        sources = np.asarray([5, 0, 5, 2, 2, 7, 0], dtype=np.int64)
        walks = [1, 2, 6]
        serial = op.variation_curves(sources, walks)
        parallel = op.variation_curves(sources, walks, policy=ExecutionPolicy(workers=workers))
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_originator_biased_curves(self, workers):
        graph = _er_graph()
        sources = list(range(9))
        walks = [0, 1, 3, 7]
        serial = originator_biased_curves(graph, sources, 0.2, walks)
        parallel = originator_biased_curves(
            graph, sources, 0.2, walks, policy=ExecutionPolicy(workers=workers)
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("kind", ["plain", "teleport"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_equivalence_property(self, kind, data):
        """Hypothesis sweep over sources / walk grids / worker counts."""
        op = make_operator(kind)
        n = op.num_states
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=12),
            label="sources",
        )
        walks = sorted(
            data.draw(
                st.sets(st.integers(0, 10), min_size=1, max_size=4),
                label="walks",
            )
        )
        workers = data.draw(st.sampled_from([2, 3, 4]), label="workers")
        serial = op.variation_curves(sources, walks)
        parallel = op.variation_curves(sources, walks, policy=ExecutionPolicy(workers=workers))
        assert np.array_equal(serial, parallel)


# ----------------------------------------------------------------------
# End-to-end through the measurement layer
# ----------------------------------------------------------------------
@needs_pool
class TestShardFloor:
    """A pooled sweep never cuts a shard narrower than one evolution
    chunk; a checkpointed one keeps four shards per worker."""

    def _shard_count(self, run):
        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            result = run()
            histograms = OBS.snapshot()["histograms"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled
        return result, histograms["parallel.shard_rows"]["count"]

    def test_shards_hold_at_least_one_chunk(self, tmp_path):
        op = make_operator("plain")
        sources = np.arange(16)
        serial = op.hitting_times(sources, 0.1, max_steps=200)
        pooled, shards = self._shard_count(
            lambda: op.hitting_times(
                sources, 0.1, max_steps=200,
                policy=ExecutionPolicy(workers=2, block_size=4),
            )
        )
        assert shards == 4  # 16 rows / 4-row chunks, not 2 workers x 4
        ckpt = tmp_path / "ckpt"
        checkpointed = op.hitting_times(
            sources, 0.1, max_steps=200,
            policy=ExecutionPolicy(workers=2, block_size=4, checkpoint_dir=str(ckpt)),
        )
        assert len(list(ckpt.glob("*/shard-*.npz"))) == 8
        for got in (pooled, checkpointed):
            assert np.array_equal(got.times, serial.times)
            assert np.array_equal(got.final_distances, serial.final_distances)

    def test_wide_sweeps_keep_four_shards_per_worker(self):
        op = make_operator("plain")
        sources = np.arange(64) % op.num_states
        serial = op.variation_curves(sources, [1, 4])
        pooled, shards = self._shard_count(
            lambda: op.variation_curves(
                sources, [1, 4], policy=ExecutionPolicy(workers=2, block_size=4)
            )
        )
        assert shards == 8
        assert np.array_equal(pooled, serial)


@needs_pool
class TestMeasurementLayer:
    def test_measure_mixing_workers(self):
        graph = _er_graph()
        serial = measure_mixing(graph, [1, 2, 5, 10], sources=40, seed=3)
        parallel = measure_mixing(
            graph, [1, 2, 5, 10], sources=40, seed=3, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial.sources, parallel.sources)
        assert np.array_equal(serial.distances, parallel.distances)

    def test_estimate_mixing_time_workers(self):
        graph = _er_graph()
        serial = estimate_mixing_time(graph, 0.2, sources=30, seed=3, max_steps=100)
        parallel = estimate_mixing_time(
            graph, 0.2, sources=30, seed=3, max_steps=100, policy=ExecutionPolicy(workers=2)
        )
        assert serial.walk_length == parallel.walk_length
        assert np.array_equal(serial.per_source, parallel.per_source)

    def test_sybilrank_workers(self):
        from repro.sybil.scenario import attach_sybil_region, random_sybil_region
        from repro.sybil.sybilrank import sybilrank

        honest = _er_graph()
        scenario = attach_sybil_region(
            honest, random_sybil_region(20, seed=1), 6, seed=2
        )
        seeds = [0, 1, 2]
        serial = sybilrank(scenario, seeds)
        parallel = sybilrank(scenario, seeds, policy=ExecutionPolicy(workers=2))
        assert np.array_equal(serial.scores, parallel.scores)

    def test_directed_curves_workers(self):
        from repro.core import directed_variation_curves

        op = make_operator("teleport")
        graph = op.graph
        sources = list(range(12))
        walks = [1, 2, 5]
        serial = directed_variation_curves(graph, sources, walks, damping=0.85)
        parallel = directed_variation_curves(
            graph, sources, walks, damping=0.85, policy=ExecutionPolicy(workers=2)
        )
        assert np.array_equal(serial, parallel)


# ----------------------------------------------------------------------
# Tier-2 stress: the paper-scale sweep shape (1000 sources)
# ----------------------------------------------------------------------
@needs_pool
@pytest.mark.slow
class TestStress:
    def test_thousand_source_sweep_identical(self):
        op = TransitionOperator(_er_graph())
        rng = np.random.default_rng(7)
        sources = rng.integers(0, op.num_states, size=1000)
        walks = [1, 2, 5, 10, 20]
        serial = op.variation_curves(sources, walks)
        parallel = op.variation_curves(sources, walks, policy=ExecutionPolicy(workers=4))
        assert np.array_equal(serial, parallel)


def test_markov_operator_abc_untouched():
    """The workers kwarg must not change the abstract surface."""
    assert MarkovOperator._apply_block is not None
    assert isinstance(make_operator("directed"), DirectedTransitionOperator)
