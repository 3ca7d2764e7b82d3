"""Unit tests for the fault-tolerant runtime (:mod:`repro.core.runtime`).

Covers the pieces in isolation — :class:`ExecutionPolicy` validation,
the :func:`as_policy` normaliser, content-addressed sweep
fingerprints, the :class:`CheckpointStore` (roundtrip plus every
corruption avenue), shard planning, and :func:`run_sharded`'s serial /
checkpoint bookkeeping.  Pool-backed crash/timeout/resume behaviour
lives in ``tests/core/test_fault_tolerance.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.core.runtime as runtime
from repro.core.runtime import (
    DEFAULT_POLICY,
    CheckpointStore,
    ExecutionPolicy,
    as_policy,
    run_sharded,
    sweep_fingerprint,
)
from repro.errors import CheckpointCorruption, ConfigurationError, RuntimeFailure


# ----------------------------------------------------------------------
# ExecutionPolicy
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_defaults(self):
        p = ExecutionPolicy()
        assert p.workers is None
        assert p.block_size is None
        assert p.max_retries == 2
        assert p.shard_timeout is None
        assert p.checkpoint_dir is None
        assert p.resume is True

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionPolicy().workers = 4

    def test_default_policy_is_singleton_default(self):
        assert DEFAULT_POLICY == ExecutionPolicy()

    @pytest.mark.parametrize("bad", [True, False, 2.5, "two", [2]])
    def test_workers_rejects_non_int(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(workers=bad)

    def test_workers_rejects_below_minus_one(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(workers=-2)

    @pytest.mark.parametrize("ok", [None, -1, 0, 1, 2, np.int64(4)])
    def test_workers_accepts_valid(self, ok):
        assert ExecutionPolicy(workers=ok).workers == ok

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "big"])
    def test_block_size_rejects_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(block_size=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "none"])
    def test_max_retries_rejects_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(max_retries=bad)

    def test_max_retries_zero_allowed(self):
        assert ExecutionPolicy(max_retries=0).max_retries == 0

    @pytest.mark.parametrize("bad", [0, -3.0, "soon", float("nan")])
    def test_shard_timeout_rejects_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(shard_timeout=bad)

    @pytest.mark.parametrize("bad", [float("inf"), "inf", 1e400], ids=["float", "str", "overflow"])
    def test_shard_timeout_rejects_infinite(self, bad):
        # An infinite wait used to pass validation, then overflow every
        # future.result(timeout=...) so the pool never ran.
        with pytest.raises(ConfigurationError, match="finite"):
            ExecutionPolicy(shard_timeout=bad)

    def test_shard_timeout_coerced_to_float(self):
        p = ExecutionPolicy(shard_timeout=5)
        assert isinstance(p.shard_timeout, float)
        assert p.shard_timeout == 5.0

    def test_checkpoint_dir_accepts_path_objects(self, tmp_path):
        p = ExecutionPolicy(checkpoint_dir=tmp_path)
        assert isinstance(p.checkpoint_dir, str)
        assert p.checkpoint_dir == str(tmp_path)


# ----------------------------------------------------------------------
# as_policy: the None -> DEFAULT_POLICY normaliser
# ----------------------------------------------------------------------
class TestAsPolicy:
    def test_policy_passthrough_verbatim(self):
        p = ExecutionPolicy(workers=3)
        assert as_policy(p) is p

    def test_neither_gives_default_singleton(self):
        assert as_policy() is DEFAULT_POLICY
        assert as_policy(None) is DEFAULT_POLICY

    def test_non_policy_object_rejected(self):
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            as_policy({"workers": 2})


# ----------------------------------------------------------------------
# sweep_fingerprint
# ----------------------------------------------------------------------
class TestSweepFingerprint:
    def test_deterministic(self):
        a = np.arange(12, dtype=np.float64)
        assert sweep_fingerprint("k", a, 5, "s") == sweep_fingerprint("k", a.copy(), 5, "s")

    def test_sensitive_to_kind(self):
        a = np.arange(4)
        assert sweep_fingerprint("evolve", a) != sweep_fingerprint("curves", a)

    def test_sensitive_to_array_values_and_dtype(self):
        a = np.arange(4, dtype=np.float64)
        b = a.copy()
        b[0] += 1e-12
        assert sweep_fingerprint("k", a) != sweep_fingerprint("k", b)
        assert sweep_fingerprint("k", a) != sweep_fingerprint("k", a.astype(np.float32))

    def test_sensitive_to_shape(self):
        a = np.zeros(6)
        assert sweep_fingerprint("k", a) != sweep_fingerprint("k", a.reshape(2, 3))

    def test_arbitrary_precision_int(self):
        entropy = np.random.SeedSequence((1 << 127) + 9157).entropy
        assert entropy.bit_length() > 64  # the case plain int64 would truncate
        f1 = sweep_fingerprint("k", entropy)
        f2 = sweep_fingerprint("k", entropy)
        f3 = sweep_fingerprint("k", entropy + 1)
        assert f1 == f2 != f3

    def test_type_tags_disambiguate(self):
        # 1 vs 1.0 vs "1" must all hash differently.
        assert len({sweep_fingerprint("k", v) for v in (1, 1.0, "1")}) == 3

    def test_none_and_nesting(self):
        assert sweep_fingerprint("k", None) != sweep_fingerprint("k", 0)
        assert sweep_fingerprint("k", [1, [2, 3]]) != sweep_fingerprint("k", [1, 2, 3])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="fingerprint"):
            sweep_fingerprint("k", object())

    def test_is_hex_digest(self):
        fp = sweep_fingerprint("k", 1)
        assert len(fp) == 64
        int(fp, 16)


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
FP = sweep_fingerprint("unit-test", np.arange(3), 42)


def _store(tmp_path, total=10, fingerprint=FP, kind="unit"):
    return CheckpointStore(tmp_path, kind=kind, fingerprint=fingerprint, total=total)


class TestCheckpointStoreRoundtrip:
    def test_single_array_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        value = np.linspace(0.0, 1.0, 8).reshape(2, 4)
        store.save(0, 2, value)
        loaded = store.load()
        assert list(loaded) == [(0, 2)]
        np.testing.assert_array_equal(loaded[(0, 2)], value)
        assert loaded[(0, 2)].dtype == value.dtype

    def test_tuple_result_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        value = (np.arange(5), np.ones((2, 2)))
        store.save(3, 7, value)
        loaded = store.load()
        got = loaded[(3, 7)]
        assert isinstance(got, tuple) and len(got) == 2
        np.testing.assert_array_equal(got[0], value[0])
        np.testing.assert_array_equal(got[1], value[1])

    def test_multiple_shards(self, tmp_path):
        store = _store(tmp_path)
        store.save(0, 4, np.zeros(4))
        store.save(4, 10, np.ones(6))
        assert sorted(store.load()) == [(0, 4), (4, 10)]

    def test_save_returns_bytes_written(self, tmp_path):
        store = _store(tmp_path)
        written = store.save(0, 1, np.zeros(100))
        assert written > 0

    def test_clear_discards_all_shards(self, tmp_path):
        store = _store(tmp_path)
        store.save(0, 4, np.zeros(4))
        store.clear()
        assert store.load() == {}

    def test_empty_directory_loads_empty(self, tmp_path):
        assert _store(tmp_path).load() == {}

    def test_sweeps_do_not_collide(self, tmp_path):
        a = _store(tmp_path, fingerprint=sweep_fingerprint("a", 1))
        b = _store(tmp_path, fingerprint=sweep_fingerprint("b", 2))
        a.save(0, 2, np.zeros(2))
        assert b.load() == {}

    def test_no_temp_files_after_save(self, tmp_path):
        store = _store(tmp_path)
        store.save(0, 2, np.zeros(2))
        assert not list(Path(store.directory).glob("*.tmp"))


class TestCheckpointCorruption:
    def _one_shard(self, tmp_path):
        store = _store(tmp_path)
        store.save(0, 4, np.arange(4, dtype=np.float64))
        (path,) = Path(store.directory).glob("shard-*.npz")
        return store, path

    def test_tampered_payload_fails_digest(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        with np.load(path, allow_pickle=False) as archive:
            stored = {name: archive[name] for name in archive.files}
        tampered = np.asarray(stored["part0"]).copy()
        tampered[0] += 1.0  # silently wrong numbers, archive still readable
        stored["part0"] = tampered
        with open(path, "wb") as fh:
            np.savez(fh, **stored)
        with pytest.raises(CheckpointCorruption, match="digest"):
            store.load()

    def test_truncation_is_unreadable(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointCorruption, match="unreadable"):
            store.load()

    def test_garbage_file_is_unreadable(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        path.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointCorruption, match="unreadable"):
            store.load()

    def test_foreign_fingerprint_rejected(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        foreign = _store(tmp_path, fingerprint=sweep_fingerprint("other", 9))
        foreign.directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, foreign.directory / path.name)
        # the foreign store's meta.json is absent; the shard's embedded
        # fingerprint still doesn't match.
        with pytest.raises(CheckpointCorruption, match="different sweep"):
            foreign.load()

    def test_renamed_shard_fails_filename_check(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        os.replace(path, path.with_name("shard-0000000004-0000000008.npz"))
        with pytest.raises(CheckpointCorruption):
            store.load()

    def test_bounds_outside_sweep_rejected(self, tmp_path):
        big = _store(tmp_path, total=100)
        big.save(40, 60, np.zeros(20))
        (path,) = Path(big.directory).glob("shard-*.npz")
        # Same fingerprint but a smaller sweep: bounds fall outside.
        small = _store(tmp_path, total=10)
        small.directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, small.directory / path.name)
        with pytest.raises(CheckpointCorruption, match="outside"):
            small.load()

    def test_overlapping_shards_rejected(self, tmp_path):
        store = _store(tmp_path)
        store.save(0, 4, np.zeros(4))
        store.save(2, 6, np.zeros(4))
        with pytest.raises(CheckpointCorruption, match="overlapping"):
            store.load()

    def test_meta_from_different_sweep_rejected(self, tmp_path):
        store, _path = self._one_shard(tmp_path)
        meta = Path(store.directory) / "meta.json"
        text = meta.read_text().replace('"total": 10', '"total": 99')
        meta.write_text(text)
        with pytest.raises(CheckpointCorruption, match="metadata mismatch"):
            store.load()

    def test_corrupt_meta_json_rejected(self, tmp_path):
        store, _path = self._one_shard(tmp_path)
        (Path(store.directory) / "meta.json").write_text("{ not json")
        with pytest.raises(CheckpointCorruption, match="metadata"):
            store.load()

    def test_corruption_is_a_runtime_failure(self, tmp_path):
        store, path = self._one_shard(tmp_path)
        path.write_bytes(b"junk")
        with pytest.raises(RuntimeFailure):
            store.load()


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlanning:
    def test_missing_ranges_empty_done(self):
        assert runtime._missing_ranges(10, []) == [(0, 10)]

    def test_missing_ranges_gaps(self):
        assert runtime._missing_ranges(10, [(2, 4), (6, 8)]) == [
            (0, 2),
            (4, 6),
            (8, 10),
        ]

    def test_missing_ranges_fully_done(self):
        assert runtime._missing_ranges(6, [(0, 3), (3, 6)]) == []

    def test_missing_ranges_unsorted_input(self):
        assert runtime._missing_ranges(10, [(6, 8), (0, 2)]) == [(2, 6), (8, 10)]

    def test_split_ranges_covers_gaps_exactly(self):
        gaps = [(0, 7), (9, 20)]
        shards = runtime._split_ranges(gaps, 20, 5)
        # Reassemble: shards tile the gaps exactly, in order.
        cursor = {lo: hi for lo, hi in shards}
        covered = []
        for lo, hi in gaps:
            at = lo
            while at < hi:
                nxt = cursor[at]
                covered.append((at, nxt))
                at = nxt
            assert at == hi
        assert sorted(covered) == sorted(shards)

    def test_split_ranges_width_targets_total_over_shards(self):
        shards = runtime._split_ranges([(0, 100)], 100, 4)
        assert len(shards) == 4
        assert all(hi - lo == 25 for lo, hi in shards)

    def test_split_ranges_degenerate_target(self):
        assert runtime._split_ranges([(0, 3)], 3, 0) == [(0, 3)]


# ----------------------------------------------------------------------
# run_sharded: serial path + checkpoint bookkeeping (no pool involved)
# ----------------------------------------------------------------------
def _serial_rows(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.float64) ** 2


class TestRunShardedSerial:
    def test_serial_covers_total(self):
        out = run_sharded(
            kind="unit",
            total=11,
            policy=DEFAULT_POLICY,
            workers=1,
            make_task=None,
            serial_run=_serial_rows,
        )
        np.testing.assert_array_equal(
            np.concatenate(out), _serial_rows(0, 11)
        )

    def test_checkpoints_written_and_reused(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        fp = sweep_fingerprint("unit", 11)
        calls = []

        def counting(lo, hi):
            calls.append((lo, hi))
            return _serial_rows(lo, hi)

        first = run_sharded(
            kind="unit", total=11, policy=policy, workers=1,
            make_task=None, serial_run=counting, fingerprint=fp,
        )
        assert calls  # computed something
        calls.clear()
        second = run_sharded(
            kind="unit", total=11, policy=policy, workers=1,
            make_task=None, serial_run=counting, fingerprint=fp,
        )
        assert calls == []  # fully resumed from disk
        np.testing.assert_array_equal(
            np.concatenate(first), np.concatenate(second)
        )

    def test_resume_false_recomputes(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        fp = sweep_fingerprint("unit", 8)
        run_sharded(
            kind="unit", total=8, policy=policy, workers=1,
            make_task=None, serial_run=_serial_rows, fingerprint=fp,
        )
        calls = []

        def counting(lo, hi):
            calls.append((lo, hi))
            return _serial_rows(lo, hi)

        no_resume = ExecutionPolicy(checkpoint_dir=str(tmp_path), resume=False)
        run_sharded(
            kind="unit", total=8, policy=no_resume, workers=1,
            make_task=None, serial_run=counting, fingerprint=fp,
        )
        assert sum(hi - lo for lo, hi in calls) == 8  # everything recomputed

    def test_partial_checkpoint_computes_only_missing(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        fp = sweep_fingerprint("unit", 10)
        store = CheckpointStore(tmp_path, kind="unit", fingerprint=fp, total=10)
        store.save(0, 6, _serial_rows(0, 6))
        calls = []

        def counting(lo, hi):
            calls.append((lo, hi))
            return _serial_rows(lo, hi)

        out = run_sharded(
            kind="unit", total=10, policy=policy, workers=1,
            make_task=None, serial_run=counting, fingerprint=fp,
        )
        assert all(lo >= 6 for lo, hi in calls)
        assert sum(hi - lo for lo, hi in calls) == 4
        np.testing.assert_array_equal(np.concatenate(out), _serial_rows(0, 10))

    def test_corrupted_checkpoint_raises(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        fp = sweep_fingerprint("unit", 6)
        store = CheckpointStore(tmp_path, kind="unit", fingerprint=fp, total=6)
        store.save(0, 6, _serial_rows(0, 6))
        (path,) = Path(store.directory).glob("shard-*.npz")
        path.write_bytes(b"scrambled")
        with pytest.raises(CheckpointCorruption):
            run_sharded(
                kind="unit", total=6, policy=policy, workers=1,
                make_task=None, serial_run=_serial_rows, fingerprint=fp,
            )

    def test_no_fingerprint_disables_checkpointing(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=str(tmp_path))
        run_sharded(
            kind="unit", total=4, policy=policy, workers=1,
            make_task=None, serial_run=_serial_rows, fingerprint=None,
        )
        assert list(tmp_path.iterdir()) == []
