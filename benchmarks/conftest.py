"""Shared benchmark fixtures.

Every benchmark reproduces one paper table/figure via
``benchmark.pedantic(..., rounds=1)`` (experiments are deterministic and
heavy — statistical timing repetition would multiply minutes for no
insight), asserts the series' *shape* against the paper's claims, and
writes the rendered output to ``benchmarks/results/<name>.txt`` so the
reproduction is inspectable after the run.

Determinism: the session uses one :class:`ExperimentConfig` whose master
seed drives every runner, and an autouse fixture re-seeds numpy's legacy
global RNG before each bench so even stray ``np.random.*`` draws are
reproducible run-to-run.  Each saved result also gets a ``<name>.json``
sidecar recording the knobs that produced it (mode, seed, ``workers``,
block size) — a result file without its provenance is not a result.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import FAST, ExperimentConfig
from repro.obs import OBS

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """Fast-mode configuration (paper-scale runs: ``repro-mixing --full``)."""
    return FAST


@pytest.fixture(autouse=True)
def _deterministic_global_rng(config):
    """Benchmarks must be seed-deterministic: re-seed the legacy global
    RNG per test so ordering/selection effects cannot leak between
    benches (runners themselves use explicit ``default_rng`` streams)."""
    np.random.seed(config.seed % 2**32)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def result_metadata(config: ExperimentConfig) -> dict:
    """The provenance block recorded next to every benchmark result."""
    policy = config.execution_policy
    return {
        "mode": config.mode,
        "seed": config.seed,
        "workers": policy.workers,
        "evolution_block_size": policy.block_size,
        "telemetry": OBS.enabled,
    }


@pytest.fixture
def save_result(results_dir, config):
    """Write a rendered table/figure under benchmarks/results/.

    Besides the ``.txt`` payload, a ``.json`` sidecar records the config
    knobs (including ``workers``) plus a metric snapshot from the
    telemetry registry, so any result can be traced back to the exact
    sweep configuration — and, when run under ``REPRO_TELEMETRY=1``, the
    operation counts — that produced it.
    """

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        meta = {"name": name, **result_metadata(config), "metrics": OBS.snapshot()}
        (results_dir / f"{name}.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    return _save
