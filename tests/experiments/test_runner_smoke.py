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
from repro.core import ExecutionPolicy
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component, open_csr, save_csr
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


def _tiny_config(workers, **knobs):
    return TinyConfig(
        mode="fast",
        seed=123,
        epsilon_grid=(0.25, 0.1),
        short_walks=(1, 2, 4),
        long_walks=(4, 6),
        policy=ExecutionPolicy(workers=workers, **knobs),
    )


def _swap_datasets(monkeypatch, load_cached, generate):
    for modinfo in pkgutil.iter_modules(experiments_pkg.__path__):
        module = importlib.import_module(f"repro.experiments.{modinfo.name}")
        if hasattr(module, "load_cached"):
            monkeypatch.setattr(module, "load_cached", load_cached)
        if hasattr(module, "generate"):
            monkeypatch.setattr(module, "generate", generate)


@pytest.fixture
def tiny_datasets(monkeypatch):
    """Swap every experiments-module dataset accessor for tiny fakes."""
    _swap_datasets(monkeypatch, _fake_load_cached, _fake_generate)


def _swap_to_mapped(monkeypatch, directory):
    """Serve the tiny fakes opened memory-mapped from ``.csr`` copies
    under ``directory``; returns the list of graphs served."""
    served = []

    def mapped(graph):
        path = directory / f"g{len(served)}.csr"
        save_csr(graph, path)
        served.append(open_csr(path))
        return served[-1]

    _swap_datasets(
        monkeypatch,
        lambda name, **kw: mapped(_fake_load_cached(name, **kw)),
        lambda spec, **kw: mapped(_fake_generate(spec, **kw)),
    )
    return served


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


@pytest.mark.parametrize("backend", ["numpy", "streaming"])
def test_fig3_runner_backend_serial_vs_parallel(
    backend, tiny_datasets, monkeypatch, tmp_path
):
    """The fig3 runner per SpMM kernel, workers 1 vs 2: the rendered
    output never changes.  ``streaming`` runs over the tiny graphs
    opened memory-mapped, under a memory budget, and must reproduce the
    in-memory rendering character for character."""
    runner = EXPERIMENTS["fig3"]
    oracle = runner(_tiny_config(workers=1))
    knobs = {}
    if backend == "streaming":
        served = _swap_to_mapped(monkeypatch, tmp_path)
        knobs = {"memory_budget": 2048}
    serial = runner(_tiny_config(workers=1, **knobs))
    parallel = runner(_tiny_config(workers=2, **knobs))
    assert parallel == serial == oracle
    if backend == "streaming":
        assert served and all(graph.is_memmap for graph in served)
