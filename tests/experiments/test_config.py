"""Unit tests for experiment configuration."""

import pytest

from repro.core.runtime import DEFAULT_POLICY, ExecutionPolicy
from repro.errors import ConfigurationError
from repro.experiments import FAST, FULL, ExperimentConfig


class TestConfig:
    def test_modes(self):
        assert FAST.is_fast
        assert not FULL.is_fast

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="medium")

    def test_fast_is_smaller_everywhere(self):
        assert FAST.sampled_sources < FULL.sampled_sources
        assert FAST.max_walk < FULL.max_walk
        assert len(FAST.figure8_walks) < len(FULL.figure8_walks)

    def test_full_brute_forces_physics(self):
        assert FULL.brute_force_sources is None
        assert FAST.brute_force_sources is not None

    def test_paper_parameters_in_full_mode(self):
        assert FULL.sampled_sources == 1000  # "we repeat this many times (i.e., 1000)"
        assert FULL.short_walks == (1, 5, 10, 20, 40)  # Figure 3 grid
        assert 500 in FULL.long_walks  # Figure 4 reaches w=500

    def test_figure7_sizes_ascending(self):
        for config in (FAST, FULL):
            sizes = config.figure7_sizes
            assert list(sizes) == sorted(sizes)
            assert len(sizes) == 3  # 10K / 100K / 1000K stand-ins

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FAST.mode = "full"


class TestConfigPolicy:
    """The ``policy=`` field: the one carrier of execution knobs."""

    def test_explicit_policy_used_verbatim(self, tmp_path):
        policy = ExecutionPolicy(workers=2, checkpoint_dir=str(tmp_path))
        config = ExperimentConfig(mode="fast", policy=policy)
        assert config.execution_policy is policy

    def test_non_policy_object_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="fast", policy={"workers": 2})

    def test_invalid_policy_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="fast", policy=ExecutionPolicy(workers=-3))

    def test_telemetry_leaves_policy_verbatim(self):
        policy = ExecutionPolicy(workers=2)
        config = ExperimentConfig(mode="fast", telemetry=True, policy=policy)
        assert config.execution_policy is policy

    def test_no_policy_means_default_policy(self):
        config = ExperimentConfig(mode="fast", telemetry=True)
        assert config.execution_policy is DEFAULT_POLICY
