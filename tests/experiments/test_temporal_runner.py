"""fig3-over-time runner: shape, determinism, worker-count invariance.

The acceptance criterion under test: the TVD trend curves are
**bit-identical** at workers 1 vs 2.  Everything downstream of the
temporal datasets is deterministic, so any drift means a runner is
leaking execution order into numerics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.experiments import ExperimentConfig, run_fig3_over_time, trend_measurements
from repro.experiments.harness import FigureResult

_NAME = "temporal_mathoverflow"


def _config(workers=None) -> ExperimentConfig:
    policy = None if workers is None else ExecutionPolicy(workers=workers)
    return ExperimentConfig(mode="fast", policy=policy)


@pytest.fixture(scope="module")
def tiny_trend():
    return trend_measurements(_config(), names=(_NAME,))


class TestTrendMeasurements:
    def test_shapes_track_config(self, tiny_trend):
        config = _config()
        data = tiny_trend[_NAME]
        mixing, spectra = data["mixing"], data["slem"]
        assert len(mixing.times) <= config.trend_windows
        assert mixing.times == spectra.times
        assert mixing.walk_lengths == config.short_walks
        assert mixing.distances.shape == (
            len(mixing.times),
            len(mixing.sources),
            len(config.short_walks),
        )
        assert len(mixing.sources) <= config.trend_sources

    def test_warm_path_engaged(self, tiny_trend):
        spectra = tiny_trend[_NAME]["slem"]
        # First window is necessarily cold; the sampled boundaries that
        # follow may fall back when the inter-window delta is large, but
        # the stream is built so at least one window warm-starts.
        assert not spectra.warm_started[0]
        assert spectra.slem.min() > 0.0 and spectra.slem.max() < 1.0

    def test_workers_1_vs_2_bit_identical(self, tiny_trend):
        two = trend_measurements(_config(workers=2), names=(_NAME,))
        a, b = tiny_trend[_NAME], two[_NAME]
        assert a["mixing"].times == b["mixing"].times
        assert a["mixing"].sources == b["mixing"].sources
        assert np.array_equal(a["mixing"].distances, b["mixing"].distances)
        assert a["mixing"].distances.tobytes() == b["mixing"].distances.tobytes()
        assert a["slem"].slem.tobytes() == b["slem"].slem.tobytes()

    def test_deterministic_across_calls(self, tiny_trend):
        again = trend_measurements(_config(), names=(_NAME,))
        assert (
            tiny_trend[_NAME]["mixing"].distances.tobytes()
            == again[_NAME]["mixing"].distances.tobytes()
        )


class TestRunFig3OverTime:
    def test_figure_structure(self, tiny_trend, monkeypatch):
        # Reuse the module-scoped measurements so the figure test does
        # not pay for a second full sweep over all three datasets.
        import repro.experiments.temporal as mod

        monkeypatch.setattr(mod, "trend_measurements", lambda config: tiny_trend)
        figure = run_fig3_over_time(_config())
        assert isinstance(figure, FigureResult)
        assert set(figure.panels) == {_NAME}
        series = figure.panels[_NAME]
        labels = [s.label for s in series]
        config = _config()
        assert labels == [f"w={w}" for w in config.short_walks] + ["slem"]
        for s in series:
            assert s.x.shape == s.y.shape
            assert np.isfinite(s.y).all()
        # TVD series live in [0, 1]; the slem series strictly inside.
        for s in series[:-1]:
            assert (s.y >= 0).all() and (s.y <= 1).all()
        assert (series[-1].y > 0).all() and (series[-1].y < 1).all()
