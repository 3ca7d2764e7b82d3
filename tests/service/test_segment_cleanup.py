"""Shared-memory segments must never outlive their owner.

POSIX shared memory persists until unlinked: a process killed between
publish and close leaves its segment in /dev/shm until reboot.  These
tests pin the three layers of defense (a long-lived service runs
parallel sweeps for hours, so the interrupt window keeps recurring):

* explicit cleanup (:func:`cleanup_published_segments`),
* atexit cleanup on normal interpreter shutdown,
* signal cleanup on SIGTERM landing mid-sweep (subprocess test that
  diffs /dev/shm before and after),

plus the fork guard: a child process inheriting the parent's segment
table must never unlink segments it does not own, and the service's own
``workers=2`` sweeps, which leave no segment behind once they answer.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import parallel
from repro.core.parallel import (
    cleanup_published_segments,
    describe_operator,
    parallel_backend_available,
    publish_operator,
)
from repro.core.runtime import ExecutionPolicy
from repro.core.walks import TransitionOperator
from repro.service import OperatorRegistry, QueryEngine, ResultCache

pytestmark = pytest.mark.skipif(
    not parallel_backend_available(), reason="needs shared-memory backend"
)

SHM_DIR = "/dev/shm"


def _shm_entries():
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm on this platform")


def _publish(graph):
    operator = TransitionOperator(graph)
    kind, matrix, extras = describe_operator(operator)
    return publish_operator(kind, matrix, operator.stationary(), **extras)


class TestExplicitCleanup:
    def test_cleanup_reclaims_unclosed_segments(self, er_medium):
        before = _shm_entries()
        handle = _publish(er_medium)
        assert len(_shm_entries() - before) == 1
        assert cleanup_published_segments() == 1
        assert _shm_entries() - before == set()
        handle.close()  # double-close after external unlink is a no-op

    def test_closed_handles_are_not_double_counted(self, er_medium):
        handle = _publish(er_medium)
        handle.close()
        assert cleanup_published_segments() == 0


class TestForkGuard:
    def test_forked_child_never_unlinks_parent_segments(self, er_medium):
        before = _shm_entries()
        handle = _publish(er_medium)
        try:
            pid = os.fork()
            if pid == 0:  # child: inherits the table, owns nothing
                reclaimed = cleanup_published_segments()
                os._exit(0 if reclaimed == 0 else 42)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # Parent's segment survived the child's cleanup.
            assert len(_shm_entries() - before) == 1
        finally:
            handle.close()
        assert _shm_entries() - before == set()


_CHILD_TEMPLATE = r"""
import os, sys, threading, time
sys.path.insert(0, {src!r})
import numpy as np
from repro.core.parallel import describe_operator, install_signal_cleanup, publish_operator
from repro.core.walks import TransitionOperator
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component

{install}

graph = largest_connected_component(erdos_renyi_gnm(80, 240, seed=3))[0]
operator = TransitionOperator(graph)
kind, matrix, extras = describe_operator(operator)
handle = publish_operator(kind, matrix, operator.stationary(), **extras)  # never closed

def sweep():
    # A genuinely long-running sweep so SIGTERM lands mid-computation.
    operator.hitting_times(np.arange(graph.num_nodes), 1e-12, max_steps=2_000_000)

threading.Thread(target=sweep, daemon=True).start()
print("READY", handle.payload.shm_name, flush=True)
time.sleep(120)
"""


def _run_child(tmp_path, install_line):
    src = os.path.join(os.getcwd(), "src")
    script = tmp_path / "child.py"
    script.write_text(_CHILD_TEMPLATE.format(src=src, install=install_line))
    return subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _await_ready(proc):
    line = proc.stdout.readline().strip()
    assert line.startswith("READY "), f"child failed: {proc.stderr.read()}"
    return line.split()[1]


class TestSigtermMidSweep:
    def test_sigterm_leaves_no_stale_segment(self, tmp_path):
        before = _shm_entries()
        proc = _run_child(tmp_path, "install_signal_cleanup()")
        try:
            segment = _await_ready(proc)
            assert segment in _shm_entries() - before
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
        # Exit status still reports death-by-SIGTERM (handler re-raises
        # under the default disposition after unlinking).
        assert proc.returncode == -signal.SIGTERM
        deadline = time.time() + 10
        while time.time() < deadline and (_shm_entries() - before):
            time.sleep(0.05)
        assert _shm_entries() - before == set()

    def test_without_handler_the_segment_would_leak(self, tmp_path):
        # Control experiment: same child, no install_signal_cleanup().
        # SIGTERM's default disposition skips atexit, so the segment
        # survives — proving the handler (not the kernel) is what cleans
        # up in the test above.
        before = _shm_entries()
        proc = _run_child(tmp_path, "pass")
        try:
            segment = _await_ready(proc)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            leaked = _shm_entries() - before
            assert segment in leaked  # the leak this PR closes
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
            # Reclaim by hand so the suite leaves /dev/shm clean.
            for name in _shm_entries() - before:
                try:
                    os.unlink(os.path.join(SHM_DIR, name))
                except FileNotFoundError:
                    pass
        assert _shm_entries() - before == set()


class TestAtexitCleanup:
    def test_normal_exit_unlinks_unclosed_segments(self, tmp_path):
        src = os.path.join(os.getcwd(), "src")
        script = tmp_path / "exit_child.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.core.parallel import describe_operator, publish_operator\n"
            "from repro.core.walks import TransitionOperator\n"
            "from repro.generators import erdos_renyi_gnm\n"
            "from repro.graph import largest_connected_component\n"
            "graph = largest_connected_component(erdos_renyi_gnm(60, 180, seed=3))[0]\n"
            "operator = TransitionOperator(graph)\n"
            "kind, matrix, extras = describe_operator(operator)\n"
            "handle = publish_operator(kind, matrix, operator.stationary(), **extras)\n"
            "print(handle.payload.shm_name, flush=True)\n"
            # exits without close(): atexit must reclaim
        )
        before = _shm_entries()
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()
        assert _shm_entries() - before == set()


class TestServiceSweeps:
    """A ``workers=2`` engine publishes per sweep, exactly like a batch
    sweep: nothing stays published between answers or after close()."""

    def test_workers_two_answers_equal_serial_and_leave_no_segment(
        self, er_medium, monkeypatch
    ):
        sources = list(range(0, er_medium.num_nodes, 7))
        walks = [1, 2, 4, 8]
        operator = TransitionOperator(er_medium)
        curves = operator.variation_curves(sources, walks)
        times = operator.hitting_times(sources[:3], 0.25)
        published = []

        def counting_publish(*args, **kwargs):
            published.append(args[0])
            return publish_operator(*args, **kwargs)

        monkeypatch.setattr(parallel, "publish_operator", counting_publish)
        assert parallel._LIVE_SEGMENTS == {}
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
                assert parallel._LIVE_SEGMENTS == {}
            for i, source in enumerate(sources[:3]):
                reply = engine.mixing_time("g", source, 0.25)
                assert reply.value["time"] == int(times.times[i])
                assert reply.value["final_distance"] == float(times.final_distances[i])
                assert parallel._LIVE_SEGMENTS == {}
        assert parallel._LIVE_SEGMENTS == {}
        assert published == ["csr", "csr"]  # one segment per fanned-out sweep
