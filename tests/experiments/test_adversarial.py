"""The adversarial sweep engine: grid semantics, parallel bit-identity,
checkpoint/resume, and the result accessors.

The heavy lifting (strategy generators, defense protocols) is covered by
their own suites; here the contract under test is the *sweep*:

* every (strategy, size, budget, defense) cell reduces to the right
  admission counts, with the g=0 column equal to the no-attacker
  baseline;
* the worker count never changes a single bit of the
  result grid;
* an interrupted checkpointed sweep resumes from disk, recomputing only
  the missing cells;
* the frontier / security-bound accessors agree with the raw grid.
"""

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.errors import ConfigurationError
from repro.experiments import (
    ADVERSARIAL_DEFENSES,
    AdversarialKnobs,
    adversarial_sweep,
    default_adversarial_knobs,
    run_defense_admission,
)
from repro.generators import erdos_renyi_gnm
from repro.graph import largest_connected_component
from repro.obs import OBS
from repro.sybil import available_attack_strategies, build_attack_scenario

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Cheap knobs so six defenses on a toy graph stay sub-second per cell.
TINY_KNOBS = AdversarialKnobs(
    route_length=4,
    sybillimit_instances=4,
    infer_samples=8,
    infer_burn_in=4,
    infer_steps=1,
    sumup_c_max=5,
    whanau_walk_length=4,
)


@pytest.fixture(scope="module")
def honest():
    graph, _ = largest_connected_component(erdos_renyi_gnm(40, 140, seed=7))
    return graph


def tiny_sweep(honest, **overrides):
    kwargs = dict(
        strategies=["random", "targeted"],
        sybil_sizes=[10],
        attack_budgets=[0, 3],
        defenses=ADVERSARIAL_DEFENSES,
        seed=5,
        knobs=TINY_KNOBS,
        max_suspects=12,
    )
    kwargs.update(overrides)
    return adversarial_sweep(honest, **kwargs)


# ----------------------------------------------------------------------
# Grid semantics
# ----------------------------------------------------------------------
class TestGridSemantics:
    def test_counts_shape_and_totals(self, honest):
        result = tiny_sweep(honest)
        assert result.counts.shape == (2, 1, 2, len(ADVERSARIAL_DEFENSES), 4)
        for strategy in result.strategies:
            for defense in result.defenses:
                baseline = result.metrics(strategy, 10, 0, defense)
                attacked = result.metrics(strategy, 10, 3, defense)
                # g=0: no sybil region exists, only honest suspects.
                assert baseline.sybil_total == 0
                assert baseline.honest_total == 12
                assert attacked.sybil_total == 10
                assert attacked.honest_total == 12
                assert 0 <= attacked.sybil_accepted <= 10
                assert 0 <= attacked.honest_accepted <= 12

    def test_zero_budget_column_is_strategy_independent(self, honest):
        """g=0 is the shared no-attacker baseline: identical counts no
        matter which strategy labels the row."""
        result = tiny_sweep(honest)
        assert np.array_equal(
            result.counts[0, :, 0, :, :], result.counts[1, :, 0, :, :]
        )

    def test_every_registered_strategy_sweepable(self, honest):
        result = tiny_sweep(
            honest,
            strategies=list(available_attack_strategies()),
            defenses=["sybilguard", "sybilrank"],
            attack_budgets=[0, 2],
        )
        assert result.strategies == available_attack_strategies()
        assert np.all(np.isfinite(result.counts))

    def test_accepts_strategy_objects(self, honest):
        from repro.sybil import AttackStrategy

        custom = AttackStrategy("inline-star", region="tree", branching=50)
        result = tiny_sweep(
            honest, strategies=[custom], defenses=["sybilrank"]
        )
        assert result.strategies == ("inline-star",)

    def test_frontier_matches_grid(self, honest):
        result = tiny_sweep(honest)
        budgets, admit, reject = result.frontier("sybilrank", "random", 10)
        assert budgets.tolist() == [0, 3]
        m = result.metrics("random", 10, 3, "sybilrank")
        assert admit[1] == pytest.approx(m.sybil_acceptance_rate)
        assert reject[1] == pytest.approx(m.honest_rejection_rate)
        # No sybils exist at g=0: the admit rate is NaN, not zero.
        assert np.isnan(admit[0])

    def test_bound_comparison_covers_positive_budget_cells(self, honest):
        result = tiny_sweep(honest)
        rows = result.bound_comparison()
        assert len(rows) == 2 * 1 * 1 * len(ADVERSARIAL_DEFENSES)
        for row in rows:
            assert row["budget"] == 3
            expected = row["sybil_accepted"] <= row["bound"]
            assert row["within_bound"] == expected


# ----------------------------------------------------------------------
# Determinism, parallel bit-identity, checkpoint/resume
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_fixed_seed_reproducible(self, honest):
        a = tiny_sweep(honest)
        b = tiny_sweep(honest)
        assert np.array_equal(a.counts, b.counts)

    def test_worker_count_never_changes_the_grid(self, honest):
        serial = tiny_sweep(honest)
        two = tiny_sweep(honest, policy=ExecutionPolicy(workers=2))
        four = tiny_sweep(honest, policy=ExecutionPolicy(workers=4))
        assert np.array_equal(serial.counts, two.counts)
        assert np.array_equal(serial.counts, four.counts)

    def test_checkpoint_resume_recomputes_only_missing_cells(self, honest, tmp_path):
        ckpt = tmp_path / "ckpt"
        full = tiny_sweep(
            honest, policy=ExecutionPolicy(checkpoint_dir=str(ckpt))
        )
        # Per-cell oversharding: one sweep shard per grid cell.  (Inner
        # defense runs checkpoint their own route sweeps into the same
        # directory under other kind prefixes; only the sweep's shards
        # are the resume unit under test.)
        shards = sorted(ckpt.glob("adversarial-*/shard-*.npz"))
        assert len(shards) == full.counts[..., 0].size

        # Simulate a mid-sweep kill: drop a third of the finished cells.
        dropped = shards[::3]
        for shard in dropped:
            shard.unlink()

        was_enabled = OBS.enabled
        OBS.reset()
        OBS.enable()
        try:
            resumed = tiny_sweep(
                honest, policy=ExecutionPolicy(checkpoint_dir=str(ckpt))
            )
            counters = OBS.snapshot()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
            OBS.enabled = was_enabled

        assert np.array_equal(full.counts, resumed.counts)
        # Only the dropped cells were recomputed.
        assert counters.get("sybil.attack.cells", 0) == len(dropped)

    def test_resume_at_different_worker_count(self, honest, tmp_path):
        """The checkpoint fingerprint excludes execution knobs: a sweep
        checkpointed serially resumes at two workers, bit-identical."""
        ckpt = tmp_path / "ckpt"
        full = tiny_sweep(
            honest, policy=ExecutionPolicy(checkpoint_dir=str(ckpt))
        )
        for shard in sorted(ckpt.glob("adversarial-*/shard-*.npz"))[::2]:
            shard.unlink()
        resumed = tiny_sweep(
            honest,
            policy=ExecutionPolicy(workers=2, checkpoint_dir=str(ckpt)),
        )
        assert np.array_equal(full.counts, resumed.counts)

    def test_seed_changes_the_attack(self, honest):
        a = tiny_sweep(honest, defenses=["sybilguard", "sybilrank"])
        b = tiny_sweep(honest, defenses=["sybilguard", "sybilrank"], seed=6)
        assert not np.array_equal(a.counts, b.counts)


# ----------------------------------------------------------------------
# run_defense_admission adapters
# ----------------------------------------------------------------------
class TestDefenseAdapters:
    @pytest.mark.parametrize("defense", ADVERSARIAL_DEFENSES)
    def test_verdict_vector_shape_and_dtype(self, honest, defense):
        scenario = build_attack_scenario(
            honest, "random", num_sybil=8, num_attack_edges=3, seed=1
        )
        suspects = np.concatenate(
            [np.arange(1, 9, dtype=np.int64), scenario.sybil_nodes()]
        )
        accepted = run_defense_admission(
            defense, scenario, suspects, seed=3, knobs=TINY_KNOBS
        )
        assert accepted.shape == (suspects.size,)
        assert accepted.dtype == bool

    def test_unknown_defense_rejected(self, honest):
        scenario = build_attack_scenario(
            honest, "random", num_sybil=8, num_attack_edges=3, seed=1
        )
        with pytest.raises(ConfigurationError, match="unknown defense"):
            run_defense_admission(
                "bogus", scenario, np.array([1]), seed=3, knobs=TINY_KNOBS
            )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_empty_strategies_rejected(self, honest):
        with pytest.raises(ConfigurationError, match="at least one"):
            tiny_sweep(honest, strategies=[])

    def test_empty_budgets_rejected(self, honest):
        with pytest.raises(ConfigurationError, match="at least one"):
            tiny_sweep(honest, attack_budgets=[])

    def test_unknown_defense_in_sweep_rejected(self, honest):
        with pytest.raises(ConfigurationError, match="unknown defenses"):
            tiny_sweep(honest, defenses=["sybilguard", "bogus"])

    def test_nonzero_verifier_rejected(self, honest):
        with pytest.raises(ConfigurationError, match="node 0"):
            tiny_sweep(honest, verifier=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"route_length": 0},
            {"route_length": 5, "sybillimit_instances": 0},
            {"route_length": 5, "infer_samples": 0},
            {"route_length": 5, "sumup_c_max": 0},
            {"route_length": 5, "whanau_walk_length": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdversarialKnobs(**kwargs)

    def test_default_knobs_scale_with_graph(self):
        fast = default_adversarial_knobs(400)
        full = default_adversarial_knobs(400, fast=False)
        assert 4 <= fast.route_length <= 20
        assert 4 <= full.route_length <= 64
        assert fast.sybillimit_instances is not None
        assert full.sybillimit_instances is None
        assert full.infer_samples > fast.infer_samples
