"""Backend seam × serving layer: cache identity and key discipline.

Pinned design choices under test:

* **Float64 backends share cache entries.**  The fingerprint covers
  content, never execution — and every float64 backend is bit-identical
  to the numpy oracle, so an answer computed under ``streaming`` *is* the
  numpy answer and may be served from the same key.
* **Float32 keys separately.**  A reduced-precision backend genuinely
  changes the numbers; the engine suffixes the finished key with
  ``:float32`` so those answers can never be served to (or poisoned by)
  a float64 client.
* **Serving regime neutrality holds per backend** — coalesced ==
  direct == serial under each backend, same as the PR-6 identity suite.
* **Mode vocabulary** — ``uniform_start`` / ``non_backtracking``
  queries key by mode, and uniform-start requests share one cache entry
  regardless of the requested source.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FLOAT32_CURVE_ATOL,
    ExecutionPolicy,
    TransitionOperator,
    available_backends,
    backend_numeric,
    measure_mixing,
    non_backtracking_hitting_times,
)
from repro.errors import ConfigurationError
from repro.service import OperatorRegistry, QueryEngine, ResultCache
from repro.service.batch import hitting_times_via_service
from repro.service.engine import MixingTimeQuery, VariationCurveQuery

ALL_BACKENDS = list(available_backends())
FLOAT64_BACKENDS = [b for b in ALL_BACKENDS if backend_numeric(b) == "float64"]

SOURCES = [0, 3, 7, 11, 19]
WALKS = [1, 2, 4, 8, 16]
EPSILON = 0.25


def _engine(loader, backend=None, **kwargs):
    policy = None if backend is None else ExecutionPolicy(backend=backend)
    return QueryEngine(
        OperatorRegistry(capacity=3, loader=loader),
        ResultCache(max_entries=64),
        policy=policy,
        **kwargs,
    )


class TestFloat64KeySharing:
    def test_float64_backends_share_cache_entries(self, loader, graphs):
        """An answer computed under one float64 backend is a cache hit
        for every other float64 backend (including the default)."""
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        with _engine(loader, backend="streaming") as warm:
            first = warm.variation_curve("era", SOURCES, WALKS)
            assert not first.cache_hit
            assert np.array_equal(np.asarray(first.value), batch)
            shared_cache = warm.cache
            # A numpy-backed engine over the *same cache* hits the
            # streaming-computed entry: same fingerprint, same bits.
            with QueryEngine(
                OperatorRegistry(capacity=3, loader=loader),
                shared_cache,
                policy=ExecutionPolicy(backend="numpy"),
            ) as default:
                hit = default.variation_curve("era", SOURCES, WALKS)
                assert hit.cache_hit
                assert hit.fingerprint == first.fingerprint
                assert np.array_equal(np.asarray(hit.value), batch)

    @pytest.mark.parametrize("backend", FLOAT64_BACKENDS)
    def test_fingerprints_backend_invariant(self, loader, backend):
        with _engine(loader, backend=backend) as eng:
            fp = eng.mixing_time("era", 0, EPSILON).fingerprint
        with _engine(loader) as plain:
            assert plain.mixing_time("era", 0, EPSILON).fingerprint == fp


class TestFloat32KeyIsolation:
    def test_float32_keys_suffixed_and_separate(self, loader, graphs):
        """float32 answers live under ``<key>:float32`` — never the
        float64 entry, even over a shared cache."""
        with _engine(loader) as f64_engine:
            f64 = f64_engine.variation_curve("era", SOURCES, WALKS)
            shared_cache = f64_engine.cache
            with QueryEngine(
                OperatorRegistry(capacity=3, loader=loader),
                shared_cache,
                policy=ExecutionPolicy(backend="float32"),
            ) as f32_engine:
                f32 = f32_engine.variation_curve("era", SOURCES, WALKS)
                assert not f32.cache_hit  # float64 entry NOT served
                assert f32.fingerprint == f"{f64.fingerprint}:float32"
                # Second float32 request hits its own entry.
                again = f32_engine.variation_curve("era", SOURCES, WALKS)
                assert again.cache_hit
                assert np.array_equal(
                    np.asarray(again.value), np.asarray(f32.value)
                )
        diff = np.abs(np.asarray(f32.value) - np.asarray(f64.value)).max()
        assert diff <= FLOAT32_CURVE_ATOL

    def test_numeric_tag_none_without_policy(self, loader):
        with _engine(loader) as eng:
            assert eng._numeric_tag() is None
        with _engine(loader, backend="streaming") as eng:
            assert eng._numeric_tag() is None
        with _engine(loader, backend="float32") as eng:
            assert eng._numeric_tag() == "float32"


class TestServingRegimeNeutralityPerBackend:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_coalesced_equals_direct_equals_serial(self, loader, graphs, backend):
        policy = ExecutionPolicy(backend=backend)
        serial = TransitionOperator(graphs["era"]).hitting_times(
            SOURCES, EPSILON, policy=policy
        )
        with _engine(loader, backend=backend, coalesce_window=0.0) as direct_eng:
            direct = hitting_times_via_service(direct_eng, "era", SOURCES, EPSILON)
        with _engine(loader, backend=backend, coalesce_window=0.1) as coal_eng:
            coalesced = hitting_times_via_service(coal_eng, "era", SOURCES, EPSILON)
            assert coal_eng.stats()["coalesced_requests"] > 0
        assert np.array_equal(direct.times, serial.times)
        assert np.array_equal(coalesced.times, serial.times)
        assert np.array_equal(coalesced.final_distances, serial.final_distances)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_curve_direct_equals_serial(self, loader, graphs, backend):
        policy = ExecutionPolicy(backend=backend)
        serial = measure_mixing(
            graphs["erb"], WALKS, sources=SOURCES, policy=policy
        ).distances
        with _engine(loader, backend=backend) as eng:
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
