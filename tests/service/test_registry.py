"""Operator registry: warm reuse, ref-counted leases, LRU eviction."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.service import OperatorRegistry


class TestWarmReuse:
    def test_builds_once_per_dataset(self, registry, loader):
        with registry.acquire("era") as lease_a:
            pass
        with registry.acquire("era") as lease_b:
            pass
        assert loader.calls == ["era"]
        assert lease_a.operator is lease_b.operator
        stats = registry.stats()
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_stationary_is_memoised_on_the_warm_operator(self, registry):
        with registry.acquire("era") as lease:
            assert lease.stationary is lease.operator.stationary()
            np.testing.assert_allclose(lease.stationary.sum(), 1.0)

    def test_laziness_gets_its_own_entry(self, registry, loader):
        with registry.acquire("era"):
            pass
        with registry.acquire("era", laziness=0.5) as lazy:
            assert lazy.operator.laziness == pytest.approx(0.5)
        assert loader.calls == ["era", "era"]

    def test_graph_key_is_content_fingerprint(self, registry, graphs):
        from repro.service import graph_fingerprint

        with registry.acquire("era") as lease:
            assert lease.graph_key == graph_fingerprint(graphs["era"])

    def test_concurrent_first_requests_build_once(self, loader):
        registry = OperatorRegistry(capacity=3, loader=loader)
        barrier = threading.Barrier(4)
        leases = []

        def acquire():
            barrier.wait()
            with registry.acquire("era") as lease:
                leases.append(lease.operator)

        threads = [threading.Thread(target=acquire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert loader.calls == ["era"]
        assert all(op is leases[0] for op in leases)
        registry.close()


class TestLifecycle:
    def test_lru_eviction_beyond_capacity(self, loader):
        registry = OperatorRegistry(capacity=2, loader=loader)
        for name in ("era", "erb", "erc"):
            with registry.acquire(name):
                pass
        stats = registry.stats()
        assert stats["entries"] == 2 and stats["evictions"] == 1
        # "era" (least recently used) was the victim: re-acquiring rebuilds.
        with registry.acquire("era"):
            pass
        assert loader.calls.count("era") == 2
        registry.close()

    def test_leased_entries_are_never_evicted(self, loader):
        registry = OperatorRegistry(capacity=1, loader=loader)
        lease = registry.acquire("era")
        with registry.acquire("erb"):
            pass
        # "era" is pinned by the live lease; "erb" (refs==0) was evicted
        # instead even though "era" is older.
        assert registry.stats()["entries"] >= 1
        with registry.acquire("era") as again:
            assert again.operator is lease.operator
        lease.release()
        registry.close()

    def test_capacity_must_be_positive(self, loader):
        with pytest.raises(ConfigurationError, match="capacity"):
            OperatorRegistry(capacity=0, loader=loader)

    def test_closed_registry_refuses_leases(self, loader):
        registry = OperatorRegistry(loader=loader)
        registry.close()
        with pytest.raises(RuntimeError, match="closed"):
            registry.acquire("era")
        registry.close()  # idempotent

    def test_registry_holds_no_shared_memory(self, loader):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        before = set(os.listdir("/dev/shm"))
        registry = OperatorRegistry(capacity=1, loader=loader)
        with registry.acquire("era"):
            pass
        with registry.acquire("erb"):  # evicts "era"
            pass
        assert set(os.listdir("/dev/shm")) == before
        assert set(registry.stats()) == {
            "entries", "capacity", "hits", "builds", "evictions", "leased"
        }
        registry.close()
