"""A service running parallel sweeps leaves no shared memory behind.

A long-lived service runs ``workers=2`` sweeps for hours.  Pool workers
inherit each sweep's operator through ``fork``, so no sweep creates a
``/dev/shm`` entry that a crash or signal could strand: this test diffs
``/dev/shm`` around a ``workers=2`` engine's answers, which must equal
the serial ones.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import parallel
from repro.core.parallel import parallel_backend_available
from repro.core.runtime import ExecutionPolicy
from repro.core.walks import TransitionOperator
from repro.service import OperatorRegistry, QueryEngine, ResultCache

pytestmark = pytest.mark.skipif(
    not parallel_backend_available(), reason="needs the fork pool"
)

SHM_DIR = "/dev/shm"


def _shm_entries():
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm on this platform")


class TestServiceSweeps:
    """A ``workers=2`` engine fans out per sweep, exactly like a batch
    sweep: nothing appears in /dev/shm between answers or after close()."""

    def test_workers_two_answers_equal_serial_and_leave_no_segment(
        self, er_medium, monkeypatch
    ):
        sources = list(range(0, er_medium.num_nodes, 7))
        walks = [1, 2, 4, 8]
        operator = TransitionOperator(er_medium)
        curves = operator.variation_curves(sources, walks)
        times = operator.hitting_times(sources[:3], 0.25)
        published = []

        def counting_publish(state):
            published.append(type(state[0]).__name__)
            return publish(state)

        publish = parallel.publish_operator
        monkeypatch.setattr(parallel, "publish_operator", counting_publish)
        before = _shm_entries()
        engine = QueryEngine(
            OperatorRegistry(loader=lambda name: er_medium),
            ResultCache(max_entries=0),
            policy=ExecutionPolicy(workers=2),
            coalesce_window=0.0,
        )
        with engine:
            for _ in range(2):
                reply = engine.variation_curve("g", sources, walks)
                assert np.array_equal(np.asarray(reply.value), curves)
                assert _shm_entries() == before
            for i, source in enumerate(sources[:3]):
                reply = engine.mixing_time("g", source, 0.25)
                assert reply.value["time"] == int(times.times[i])
                assert reply.value["final_distance"] == float(times.final_distances[i])
                assert _shm_entries() == before
        assert _shm_entries() == before
        # One registration per fanned-out sweep, released when it ended.
        assert published == ["TransitionOperator", "TransitionOperator"]
        assert parallel._STATES == {}
