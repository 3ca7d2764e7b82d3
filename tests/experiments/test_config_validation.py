"""Parse-time validation of configuration knobs (workers, telemetry, CLI)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import ExecutionPolicy
from repro.errors import ConfigurationError, ReproError
from repro.experiments import ExperimentConfig, validate_workers


class TestValidateWorkers:
    @pytest.mark.parametrize("value", [None, -1, 1, 2, 64])
    def test_valid_values_pass_through(self, value):
        assert validate_workers(value) == value

    @pytest.mark.parametrize("value", [0, -2, -100])
    def test_bad_counts_rejected(self, value):
        with pytest.raises(ConfigurationError):
            validate_workers(value)

    @pytest.mark.parametrize("value", [2.5, "4", True, False])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ConfigurationError):
            validate_workers(value)

    def test_error_is_catchable_as_repro_and_value_error(self):
        with pytest.raises(ReproError):
            validate_workers(0)
        with pytest.raises(ValueError):
            validate_workers(0)


class TestExperimentConfigConstruction:
    @pytest.mark.parametrize("value", [0, -2, 1.5])
    def test_bad_workers_rejected_at_construction(self, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(policy=ExecutionPolicy(workers=value))

    def test_good_workers_accepted(self):
        for workers in (-1, 4):
            config = ExperimentConfig(policy=ExecutionPolicy(workers=workers))
            assert config.execution_policy.workers == workers
        assert ExperimentConfig().execution_policy.workers is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mode="medium")

    def test_telemetry_defaults_off(self):
        assert ExperimentConfig().telemetry is False
        assert ExperimentConfig(telemetry=True).telemetry is True


class TestCLIWorkersFlag:
    @pytest.mark.parametrize("raw", ["0", "-2", "2.5", "two"])
    def test_bad_workers_exit_with_usage_error(self, raw, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fig1", "--workers", raw])
        assert excinfo.value.code == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,expected", [("-1", -1), ("1", 1), ("3", 3)])
    def test_good_workers_parsed(self, raw, expected):
        args = build_parser().parse_args(["fig1", "--workers", raw])
        assert args.workers == expected


class TestCLITelemetryFlags:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        from repro.obs import OBS

        was_enabled = OBS.enabled
        yield
        OBS.enabled = was_enabled
        OBS.reset()

    def test_metrics_and_trace_written(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        code = main(
            ["fig1", "--metrics-out", str(metrics), "--trace-out", str(trace)]
        )
        assert code == 0
        metrics_payload = json.loads(metrics.read_text(encoding="utf-8"))
        assert metrics_payload["schema"] == "repro.obs.metrics/v1"
        assert metrics_payload["counters"]  # something was recorded
        trace_payload = json.loads(trace.read_text(encoding="utf-8"))
        assert trace_payload["schema"] == "repro.obs.trace/v1"
        names = {s["name"] for s in trace_payload["spans"]}
        assert "experiment.fig1" in names

    def test_output_dir_gets_manifest(self, tmp_path, capsys):
        code = main(["fig1", "--output", str(tmp_path)])
        assert code == 0
        manifest_path = tmp_path / "fig1.manifest.json"
        assert manifest_path.exists()
        from repro.obs import validate_run_manifest

        manifest = validate_run_manifest(
            json.loads(manifest_path.read_text(encoding="utf-8"))
        )
        assert manifest["experiment"] == "fig1"
