"""A pooled sweep leaves nothing behind it on the host.

Pool workers inherit the sweep's state through ``fork``, so a sweep
creates no named shared memory (nothing in ``/dev/shm`` to strand if
the process dies mid-sweep) and never starts multiprocessing's resource
tracker, the helper process that outlives its parent unless stopped.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import parallel_backend_available

_SHM_DIR = Path("/dev/shm")

needs_shm_dir = pytest.mark.skipif(
    not _SHM_DIR.is_dir(), reason="/dev/shm not present on this platform"
)
needs_pool = pytest.mark.skipif(not parallel_backend_available(), reason="no pool backend")


def _segments():
    return set(os.listdir(_SHM_DIR))


@needs_shm_dir
@needs_pool
def test_no_stray_segments_after_parallel_sweep():
    """End-to-end: a real pooled sweep leaves /dev/shm exactly as found."""
    from repro.core import ExecutionPolicy
    from tests.core.test_operators import make_operator

    before = _segments()
    op = make_operator("plain")
    sources = np.arange(op.num_states, dtype=np.int64)
    op.variation_curves(sources, [1, 3], policy=ExecutionPolicy(workers=2, block_size=4))
    assert _segments() == before


_TRACKER_CHILD = r"""
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.core import ExecutionPolicy, TransitionOperator
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component
from repro.obs import OBS
from repro.sybil import RouteInstances

graph = largest_connected_component(erdos_renyi_gnm(60, 200, seed=3))[0]
policy = ExecutionPolicy(workers=2)
OBS.enable()
op = TransitionOperator(graph)
sources = np.arange(graph.num_nodes)
assert np.array_equal(
    op.variation_curves(sources, [1, 4], policy=policy), op.variation_curves(sources, [1, 4])
)
RouteInstances(graph, 4, seed=1).tails_at_lengths(sources, np.asarray([2, 5]), seed=2, policy=policy)
histograms = OBS.snapshot()["histograms"]
assert histograms["parallel.task_seconds.curves"]["count"] >= 2, "curves never reached the pool"
assert histograms["parallel.task_seconds.route_tails"]["count"] >= 2, "routes never reached the pool"
tracker = sys.modules.get("multiprocessing.resource_tracker")
print("tracker-started" if tracker and tracker._resource_tracker._pid else "no-tracker")
"""


@needs_pool
def test_pooled_sweep_starts_no_resource_tracker(tmp_path):
    """Operator and route sweeps on the pool never start the tracker
    (publishing named shared memory used to)."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    script = tmp_path / "child.py"
    script.write_text(_TRACKER_CHILD.format(src=src))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "no-tracker"
