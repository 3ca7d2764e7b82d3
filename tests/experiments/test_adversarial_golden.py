"""Golden-value suite for the adversarial sweep.

``tests/data/adversarial_golden.json`` pins the full admission-count
grid of a tiny fixed-seed sweep (two strategies x three budgets x all
six defenses).  The suite re-runs that sweep

* serially and at 2 workers, and
* per SpMM kernel: on the in-memory graph (scipy's ``block @ csr``) and
  on the same graph opened memory-mapped under a memory budget (the
  streaming stripe kernel)

— every run must reproduce the pinned counts bit-for-bit.

Regenerate (only after an intentional semantic change) with the
generator snippet in the JSON file's git history, and review the diff of
every pinned number.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.experiments import ADVERSARIAL_DEFENSES, AdversarialKnobs, adversarial_sweep
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component, open_csr, save_csr

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "adversarial_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pinned_counts(golden):
    return np.asarray(golden["counts"], dtype=np.float64)


def run_pinned_sweep(golden, policy=None, mapped_dir=None):
    spec = golden["graph"]
    graph, _ = largest_connected_component(
        erdos_renyi_gnm(spec["n"], spec["m"], seed=spec["seed"])
    )
    if mapped_dir is not None:
        save_csr(graph, mapped_dir / "honest.csr")
        graph = open_csr(mapped_dir / "honest.csr")
    return adversarial_sweep(
        graph,
        knobs=AdversarialKnobs(**golden["knobs"]),
        defenses=tuple(golden["defenses"]),
        policy=policy,
        **golden["sweep"],
    )


def test_golden_file_well_formed(golden, pinned_counts):
    assert golden["defenses"] == list(ADVERSARIAL_DEFENSES)
    sweep = golden["sweep"]
    assert pinned_counts.shape == (
        len(sweep["strategies"]),
        len(sweep["sybil_sizes"]),
        len(sweep["attack_budgets"]),
        len(golden["defenses"]),
        4,
    )
    # Counts are integers and the g=0 column has no sybils.
    assert np.array_equal(pinned_counts, np.round(pinned_counts))
    assert np.all(pinned_counts[:, :, 0, :, 2:] == 0)


def test_serial_matches_golden(golden, pinned_counts):
    result = run_pinned_sweep(golden)
    assert np.array_equal(result.counts, pinned_counts)


def test_two_workers_match_golden(golden, pinned_counts):
    result = run_pinned_sweep(golden, policy=ExecutionPolicy(workers=2))
    assert np.array_equal(result.counts, pinned_counts)


@pytest.mark.parametrize("backend", ["numpy", "streaming"])
def test_every_backend_reproduces_golden(backend, golden, pinned_counts, tmp_path):
    if backend == "numpy":
        result = run_pinned_sweep(golden)
    else:
        result = run_pinned_sweep(
            golden, policy=ExecutionPolicy(memory_budget=2048), mapped_dir=tmp_path
        )
    assert np.array_equal(result.counts, pinned_counts), backend
