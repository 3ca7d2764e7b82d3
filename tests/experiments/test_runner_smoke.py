"""Tier-1 smoke test: every experiment runner on tiny synthetic graphs.

Parametrised over the full CLI experiment registry, each case runs the
runner twice — ``workers=1`` (serial) and ``workers=2`` (shared-memory
pool) — on stand-in graphs a few dozen nodes big, and asserts

* the rendered output is **identical** across worker counts (the
  parallel runtime's bit-for-bit equivalence contract, end to end
  through real runners rather than operator micro-tests), and
* :func:`repro.experiments.run_with_manifest` emits a well-formed JSON
  run-manifest next to the results.

Dataset accessors are monkeypatched per experiments-module (runners bind
``load_cached``/``generate`` at import time), so no real stand-in
generation or disk cache is touched and the whole matrix stays fast.
"""

import importlib
import json
import pkgutil
import zlib

import pytest

import repro.experiments as experiments_pkg
from repro.cli import EXPERIMENTS
from repro.experiments import (
    ExperimentConfig,
    render_table,
    run_sampling_bias_ablation,
    run_with_manifest,
)
from repro.core import DEFAULT_BACKEND, ExecutionPolicy, available_backends
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component
from repro.obs import MANIFEST_SCHEMA, validate_run_manifest

# ----------------------------------------------------------------------
# Tiny stand-ins
# ----------------------------------------------------------------------
_TINY_GRAPHS = {}


def _tiny_graph(key: str):
    graph = _TINY_GRAPHS.get(key)
    if graph is None:
        seed = (zlib.crc32(key.encode()) % 1009) + 1
        graph, _ = largest_connected_component(erdos_renyi_gnm(48, 180, seed=seed))
        _TINY_GRAPHS[key] = graph
    return graph


def _fake_load_cached(name, **_kwargs):
    return _tiny_graph(str(name))


def _fake_generate(spec, *, seed=None, **_kwargs):
    name = getattr(spec, "name", str(spec))
    return _tiny_graph(f"{name}-gen-{seed}")


class TinyConfig(ExperimentConfig):
    """Fast-mode config with every derived size shrunk to toy scale."""

    @property
    def sampled_sources(self) -> int:
        return 10

    @property
    def brute_force_sources(self):
        return 8

    @property
    def max_walk(self) -> int:
        return 12

    @property
    def figure7_sizes(self):
        return (16, 24)

    @property
    def figure8_walks(self):
        return (2, 4, 8)

    @property
    def trim_walks(self):
        return (2, 4)

    @property
    def adversarial_strategies(self):
        return ("random", "targeted")

    @property
    def adversarial_sybil_sizes(self):
        return (16,)

    @property
    def adversarial_budgets(self):
        return (0, 2, 5)


def _tiny_config(workers, backend=None):
    knobs = {} if backend is None else {"backend": backend}
    return TinyConfig(
        mode="fast",
        seed=123,
        epsilon_grid=(0.25, 0.1),
        short_walks=(1, 2, 4),
        long_walks=(4, 6),
        policy=ExecutionPolicy(workers=workers, **knobs),
    )


@pytest.fixture
def tiny_datasets(monkeypatch):
    """Swap every experiments-module dataset accessor for tiny fakes."""
    for modinfo in pkgutil.iter_modules(experiments_pkg.__path__):
        module = importlib.import_module(f"repro.experiments.{modinfo.name}")
        if hasattr(module, "load_cached"):
            monkeypatch.setattr(module, "load_cached", _fake_load_cached)
        if hasattr(module, "generate"):
            monkeypatch.setattr(module, "generate", _fake_generate)


# ----------------------------------------------------------------------
# The smoke matrix
# ----------------------------------------------------------------------
#: Runners whose keyword defaults assume paper-scale graphs get the same
#: runner with toy-sized knobs (the config shrinks everything else).
_OVERRIDES = {
    "ablation-sampling-bias": lambda c: render_table(
        run_sampling_bias_ablation(c, sample_size=24, trials=2)
    ),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_runner_smoke_serial_vs_parallel(name, tiny_datasets, tmp_path):
    runner = _OVERRIDES.get(name, EXPERIMENTS[name])

    serial_out, serial_manifest, manifest_path = run_with_manifest(
        name, runner, _tiny_config(workers=1), out_dir=tmp_path
    )
    parallel_out, _m, _p = run_with_manifest(
        name, runner, _tiny_config(workers=2)
    )

    # Identical rendered output: the parallel runtime may not change a
    # single character of any table or series.
    assert parallel_out == serial_out

    # Well-formed manifest, written next to the results.
    assert manifest_path is not None and manifest_path.exists()
    on_disk = json.loads(manifest_path.read_text(encoding="utf-8"))
    validate_run_manifest(on_disk)
    assert on_disk["schema"] == MANIFEST_SCHEMA
    assert on_disk["experiment"] == name
    assert on_disk["seed"] == 123
    assert on_disk["config"]["policy"]["workers"] == 1
    assert "metrics" in on_disk and "counters" in on_disk["metrics"]
    # In-memory manifest matches what was written (modulo timestamps).
    assert serial_manifest["experiment"] == on_disk["experiment"]


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_fig3_runner_backend_serial_vs_parallel(backend, tiny_datasets):
    """The fig3 runner under every SpMM backend, workers 1 vs 2: worker
    count never changes rendered output, and float64 backends reproduce
    the numpy-backed rendering character for character."""
    runner = EXPERIMENTS["fig3"]
    serial = runner(_tiny_config(workers=1, backend=backend))
    parallel = runner(_tiny_config(workers=2, backend=backend))
    assert parallel == serial
    if backend != DEFAULT_BACKEND:
        from repro.core import backend_numeric

        if backend_numeric(backend) == "float64":
            oracle = runner(_tiny_config(workers=1, backend=DEFAULT_BACKEND))
            assert serial == oracle
