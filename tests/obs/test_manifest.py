"""Unit tests for run-manifest assembly, validation and I/O."""

import json

import pytest

from repro.core import ExecutionPolicy
from repro.experiments import FAST, ExperimentConfig
from repro.obs import (
    MANIFEST_SCHEMA,
    build_run_manifest,
    environment_fingerprint,
    validate_run_manifest,
    write_run_manifest,
)


class TestEnvironmentFingerprint:
    def test_required_shape(self):
        env = environment_fingerprint()
        for key in ("python", "platform", "machine", "cpu_count", "packages"):
            assert key in env
        assert env["packages"]["numpy"] is not None
        assert env["packages"]["scipy"] is not None

    def test_repro_env_vars_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("UNRELATED_VAR", "x")
        env = environment_fingerprint()["env"]
        assert env["REPRO_TELEMETRY"] == "1"
        assert "UNRELATED_VAR" not in env


class TestBuild:
    def test_dataclass_config_round_trips(self, obs):
        manifest = build_run_manifest("fig3", config=FAST, datasets=["physics1"])
        validate_run_manifest(manifest)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["experiment"] == "fig3"
        assert manifest["seed"] == FAST.seed  # defaulted from config
        assert manifest["config"]["mode"] == "fast"
        assert manifest["datasets"] == ["physics1"]
        json.dumps(manifest)  # must already be JSON-clean

    def test_mapping_config_and_explicit_seed(self, obs):
        manifest = build_run_manifest("x", config={"alpha": 0.5}, seed=9)
        assert manifest["seed"] == 9
        assert manifest["config"] == {"alpha": 0.5}

    def test_bad_config_type_raises(self, obs):
        with pytest.raises(TypeError):
            build_run_manifest("x", config=object())

    def test_metrics_snapshot_embedded(self, obs):
        obs.enable()
        obs.add("core.evolution.rows", 12)
        manifest = build_run_manifest("x", config=FAST)
        assert manifest["metrics"]["counters"]["core.evolution.rows"] == 12.0

    def test_telemetry_off_still_auditable(self, obs):
        manifest = build_run_manifest("x", config=FAST)
        validate_run_manifest(manifest)
        assert manifest["metrics"]["enabled"] is False

    def test_extra_payload(self, obs):
        manifest = build_run_manifest("x", config=FAST, extra={"elapsed_seconds": 1.5})
        assert manifest["extra"]["elapsed_seconds"] == 1.5


class TestValidate:
    def test_missing_key_named(self, obs):
        manifest = build_run_manifest("x", config=FAST)
        del manifest["datasets"]
        with pytest.raises(ValueError, match="datasets"):
            validate_run_manifest(manifest)

    def test_unknown_schema_rejected(self, obs):
        manifest = build_run_manifest("x", config=FAST)
        manifest["schema"] = "repro.obs.run-manifest/v999"
        with pytest.raises(ValueError, match="schema"):
            validate_run_manifest(manifest)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError):
            validate_run_manifest([])

    def test_broken_metrics_rejected(self, obs):
        manifest = build_run_manifest("x", config=FAST)
        manifest["metrics"] = {"nope": 1}
        with pytest.raises(ValueError, match="metrics"):
            validate_run_manifest(manifest)


class TestWrite:
    def test_write_and_reload(self, obs, tmp_path):
        path = tmp_path / "run" / "fig3.manifest.json"
        written = write_run_manifest(
            path,
            "fig3",
            config=ExperimentConfig(
                mode="fast", telemetry=True, policy=ExecutionPolicy(workers=2)
            ),
            datasets=["physics1", "physics2"],
        )
        loaded = validate_run_manifest(json.loads(path.read_text(encoding="utf-8")))
        assert loaded["experiment"] == written["experiment"] == "fig3"
        assert loaded["config"]["policy"]["workers"] == 2
        assert loaded["config"]["telemetry"] is True
        assert loaded["datasets"] == ["physics1", "physics2"]
