"""Exception safety of the shared-memory publication path.

A failed publish or attach must never strand a segment in ``/dev/shm``
(the parent would leak named shared memory until reboot) or leave a
half-built entry in the worker attach cache.  These tests force failures
at each stage by monkeypatching the module-level helpers the paths were
factored through, and assert the segment namespace is clean afterwards.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import random as sparse_random

from repro.core.parallel import (
    _ATTACHED,
    _attach,
    _build_views,
    _copy_fields,
    publish_operator,
)

_SHM_DIR = Path("/dev/shm")

needs_shm_dir = pytest.mark.skipif(
    not _SHM_DIR.is_dir(), reason="/dev/shm not present on this platform"
)


def _matrix(n=12, seed=3):
    m = sparse_random(n, n, density=0.4, random_state=np.random.default_rng(seed))
    return m.tocsr()


def _segments():
    return set(os.listdir(_SHM_DIR))


class _CopyBoom(RuntimeError):
    pass


@needs_shm_dir
class TestPublishFailure:
    def test_copy_failure_unlinks_segment(self, monkeypatch):
        before = _segments()

        def exploding_copy(shm, fields, named):
            raise _CopyBoom("simulated copy failure")

        monkeypatch.setattr("repro.core.parallel._copy_fields", exploding_copy)
        with pytest.raises(_CopyBoom):
            publish_operator("csr", _matrix(), np.full(12, 1 / 12))
        assert _segments() == before  # nothing stranded

    def test_partial_copy_failure_unlinks_segment(self, monkeypatch):
        """Failure midway through the copy (not before it) also cleans up."""
        before = _segments()
        original = _copy_fields
        calls = {"n": 0}

        def flaky_copy(shm, fields, named):
            calls["n"] += 1
            original(shm, fields[:1], named[:1])  # copy one field, then die
            raise _CopyBoom("simulated mid-copy failure")

        monkeypatch.setattr("repro.core.parallel._copy_fields", flaky_copy)
        with pytest.raises(_CopyBoom):
            publish_operator("csr", _matrix())
        assert calls["n"] == 1
        assert _segments() == before

    def test_successful_publish_cleans_up_on_close(self):
        before = _segments()
        handle = publish_operator("csr", _matrix(), np.full(12, 1 / 12))
        assert len(_segments()) == len(before) + 1
        handle.close()
        assert _segments() == before

    def test_context_manager_cleans_up_on_body_exception(self):
        before = _segments()
        with pytest.raises(_CopyBoom):
            with publish_operator("csr", _matrix()):
                raise _CopyBoom("body failure")
        assert _segments() == before

    def test_close_is_idempotent(self):
        handle = publish_operator("csr", _matrix())
        handle.close()
        handle.close()  # second close must not raise


@needs_shm_dir
class TestAttachFailure:
    def test_view_failure_detaches_and_leaves_parent_owner(self, monkeypatch):
        before = _segments()
        handle = publish_operator("csr", _matrix(), np.full(12, 1 / 12))
        try:
            payload = handle.payload

            def exploding_views(shm, fields):
                raise _CopyBoom("simulated view failure")

            monkeypatch.setattr("repro.core.parallel._build_views", exploding_views)
            with pytest.raises(_CopyBoom):
                _attach(payload)
            # No half-built cache entry; the parent still owns the name.
            assert payload.shm_name not in _ATTACHED
            assert any(payload.shm_name.lstrip("/") in s for s in _segments())
        finally:
            handle.close()
        assert _segments() == before

    def test_attach_succeeds_after_earlier_failure(self, monkeypatch):
        """A failed attach must not poison later attaches to the name."""
        handle = publish_operator("csr", _matrix(), np.full(12, 1 / 12))
        try:
            payload = handle.payload
            boom = {"armed": True}
            original = _build_views

            def flaky_views(shm, fields):
                if boom["armed"]:
                    boom["armed"] = False
                    raise _CopyBoom("first attach fails")
                return original(shm, fields)

            monkeypatch.setattr("repro.core.parallel._build_views", flaky_views)
            with pytest.raises(_CopyBoom):
                _attach(payload)
            _shm, views, _cache = _attach(payload)  # second try succeeds
            assert "data" in views and "reference" in views
            np.testing.assert_array_equal(
                views["reference"], np.full(12, 1 / 12)
            )
        finally:
            _ATTACHED.pop(handle.payload.shm_name, None)
            handle.close()


@needs_shm_dir
def test_no_stray_segments_after_parallel_sweep():
    """End-to-end: a real pooled sweep leaves /dev/shm exactly as found."""
    from repro.core import ExecutionPolicy, parallel_backend_available
    from tests.core.test_operators import make_operator

    if not parallel_backend_available():
        pytest.skip("no pool backend")
    before = _segments()
    op = make_operator("plain")
    sources = np.arange(op.num_states, dtype=np.int64)
    op.variation_curves(sources, [1, 3], policy=ExecutionPolicy(workers=2, block_size=4))
    assert _segments() == before
