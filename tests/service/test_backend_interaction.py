"""Kernel choice × serving layer: cache identity and key discipline.

The operand picks the SpMM kernel: an in-memory graph steps with
scipy's ``block @ csr``, the same graph opened as a
:class:`~repro.graph.storage.MemmapGraph` with the streaming stripe
kernel.  Pinned design choices under test:

* **Kernels share cache entries.**  The fingerprint covers content,
  never execution — and both kernels give the same bits, so an answer
  computed over the mapped graph *is* the in-memory answer and may be
  served from the same key.
* **Serving regime neutrality holds per kernel** — coalesced ==
  direct == serial under each, same as the identity suite.
* **Mode vocabulary** — ``uniform_start`` / ``non_backtracking``
  queries key by mode, and uniform-start requests share one cache entry
  regardless of the requested source.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExecutionPolicy,
    TransitionOperator,
    measure_mixing,
    non_backtracking_hitting_times,
)
from repro.core.outofcore import StripedTransitionMatrix
from repro.errors import ConfigurationError
from repro.graph import open_csr, save_csr
from repro.service import OperatorRegistry, QueryEngine, ResultCache
from repro.service.batch import hitting_times_via_service
from repro.service.engine import MixingTimeQuery, VariationCurveQuery

KERNELS = ["numpy", "streaming"]

#: Memory budget of the streaming engines: the test graphs stream in
#: several stripes.
STREAM_BUDGET = 2048

SOURCES = [0, 3, 7, 11, 19]
WALKS = [1, 2, 4, 8, 16]
EPSILON = 0.25


@pytest.fixture
def mapped(graphs, tmp_path):
    """Every service test graph, saved and reopened memory-mapped."""
    out = {}
    for name, graph in graphs.items():
        path = tmp_path / f"{name}.csr"
        save_csr(graph, path)
        out[name] = open_csr(path)
    return out


@pytest.fixture
def kernel_setup(loader, mapped):
    """``kernel_setup(kernel) -> (loader, policy)`` for one kernel."""

    def setup(kernel):
        if kernel == "numpy":
            return loader, None
        return mapped.__getitem__, ExecutionPolicy(memory_budget=STREAM_BUDGET)

    return setup


def _engine(loader, policy=None, **kwargs):
    return QueryEngine(
        OperatorRegistry(capacity=3, loader=loader),
        ResultCache(max_entries=64),
        policy=policy,
        **kwargs,
    )


class TestFloat64KeySharing:
    def test_float64_backends_share_cache_entries(self, loader, graphs, kernel_setup):
        """An answer computed over the mapped graph is a cache hit for an
        engine over the in-memory graph."""
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        with _engine(*kernel_setup("streaming")) as warm:
            first = warm.variation_curve("era", SOURCES, WALKS)
            with warm.registry.acquire("era") as lease:
                assert isinstance(lease.operator.matrix(), StripedTransitionMatrix)
            assert not first.cache_hit
            assert np.array_equal(np.asarray(first.value), batch)
            # An in-memory engine over the *same cache* hits the
            # mapped-computed entry: same fingerprint, same bits.
            with QueryEngine(
                OperatorRegistry(capacity=3, loader=loader), warm.cache
            ) as default:
                hit = default.variation_curve("era", SOURCES, WALKS)
                assert hit.cache_hit
                assert hit.fingerprint == first.fingerprint
                assert np.array_equal(np.asarray(hit.value), batch)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fingerprints_backend_invariant(self, loader, kernel_setup, kernel):
        with _engine(*kernel_setup(kernel)) as eng:
            fp = eng.mixing_time("era", 0, EPSILON).fingerprint
        with _engine(loader) as plain:
            assert plain.mixing_time("era", 0, EPSILON).fingerprint == fp


class TestServingRegimeNeutralityPerBackend:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_coalesced_equals_direct_equals_serial(self, graphs, kernel_setup, kernel):
        kernel_loader, policy = kernel_setup(kernel)
        serial = TransitionOperator(graphs["era"]).hitting_times(SOURCES, EPSILON)
        with _engine(kernel_loader, policy, coalesce_window=0.0) as direct_eng:
            direct = hitting_times_via_service(direct_eng, "era", SOURCES, EPSILON)
        with _engine(kernel_loader, policy, coalesce_window=0.1) as coal_eng:
            coalesced = hitting_times_via_service(coal_eng, "era", SOURCES, EPSILON)
            assert coal_eng.stats()["coalesced_requests"] > 0
        assert np.array_equal(direct.times, serial.times)
        assert np.array_equal(coalesced.times, serial.times)
        assert np.array_equal(coalesced.final_distances, serial.final_distances)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_curve_direct_equals_serial(self, graphs, kernel_setup, kernel):
        serial = measure_mixing(graphs["erb"], WALKS, sources=SOURCES).distances
        with _engine(*kernel_setup(kernel)) as eng:
            served = eng.variation_curve("erb", SOURCES, WALKS)
        assert np.array_equal(np.asarray(served.value), serial)


class TestModeVocabulary:
    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown measurement mode"):
            MixingTimeQuery("era", 0, EPSILON, mode="warp")
        with pytest.raises(ConfigurationError):
            VariationCurveQuery("era", (0,), (1, 2), mode="warp")
        with pytest.raises(ConfigurationError, match="laziness"):
            MixingTimeQuery(
                "era", 0, EPSILON, mode="non_backtracking", laziness=0.5
            )

    def test_modes_key_separately(self, loader):
        with _engine(loader) as eng:
            keys = {
                eng.mixing_time("era", 0, EPSILON, mode=m).fingerprint
                for m in ("point_mass", "uniform_start", "non_backtracking")
            }
        assert len(keys) == 3

    def test_default_mode_keeps_historical_fingerprint(self):
        """``mode="point_mass"`` must not perturb pre-existing cache
        keys — the vocabulary extension is invisible to old clients."""
        explicit = MixingTimeQuery("era", 0, EPSILON, mode="point_mass")
        implicit = MixingTimeQuery("era", 0, EPSILON)
        assert explicit.fingerprint("g") == implicit.fingerprint("g")

    def test_uniform_start_shares_one_entry_across_sources(self, loader, graphs):
        with _engine(loader) as eng:
            a = eng.mixing_time("era", 0, EPSILON, mode="uniform_start")
            b = eng.mixing_time("era", 17, EPSILON, mode="uniform_start")
            assert not a.cache_hit and b.cache_hit
            assert a.fingerprint == b.fingerprint
            assert a.value["source"] == b.value["source"] == -1
            assert a.value["mode"] == "uniform_start"

    def test_non_backtracking_equals_direct(self, loader, graphs):
        direct = non_backtracking_hitting_times(graphs["era"], [0], EPSILON)
        with _engine(loader) as eng:
            served = eng.mixing_time("era", 0, EPSILON, mode="non_backtracking")
        assert served.value["mode"] == "non_backtracking"
        assert served.value["time"] == int(direct.times[0])

    def test_non_backtracking_curve_equals_direct(self, loader, graphs):
        direct = measure_mixing(
            graphs["erb"], WALKS, sources=SOURCES, mode="non_backtracking"
        ).distances
        with _engine(loader) as eng:
            served = eng.variation_curve(
                "erb", SOURCES, WALKS, mode="non_backtracking"
            )
        assert np.array_equal(np.asarray(served.value), direct)

    def test_non_default_modes_bypass_coalescing(self, loader):
        """Coalescing batches point-mass sources into one sweep; other
        modes answer per-request (uniform-start caches instead)."""
        with _engine(loader, coalesce_window=0.1) as eng:
            eng.mixing_time("era", 0, EPSILON, mode="non_backtracking")
            eng.mixing_time("era", 3, EPSILON, mode="non_backtracking")
            assert eng.stats()["coalesced_requests"] == 0
