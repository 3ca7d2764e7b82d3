"""repro.obs — dependency-free observability for the measurement stack.

Three pieces, one process-wide registry:

* **Metrics** (:mod:`repro.obs.metrics`) — named counters, gauges and
  histogram summaries plus monotonic timers, recorded by the hot paths
  (operator block evolution, the process-pool runtime, the
  spectral back-ends) through near-zero-cost guards.
* **Spans** (:mod:`repro.obs.spans`) — nested trace regions with
  structured attributes and timestamped events (per-step TVD convergence
  traces, per-shard pool timings), exported as a JSON call tree.
* **Run-manifests** (:mod:`repro.obs.manifest`) — the provenance record
  (seed, config, datasets, environment, metric snapshot) every
  experiment run writes next to its results.

The contract that makes this safe to leave wired into the hot paths:
**telemetry is provably inert** — enabling or disabling it changes no
numeric output anywhere (pinned by ``tests/obs/test_inertness.py`` and
the golden-value suite run with ``REPRO_TELEMETRY=1`` in CI), and the
disabled path costs one attribute check per chunk-sized unit of work.

Usage::

    from repro.obs import OBS

    OBS.enable()
    with OBS.span("my.sweep", sources=1000):
        ...                      # instrumented code records as it runs
    OBS.write_metrics("metrics.json")
    OBS.write_trace("trace.json")

or, from the CLI: ``repro-mixing fig3 --metrics-out metrics.json``.
"""

from .metrics import (
    OBS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    telemetry_enabled_from_env,
)
from .manifest import (
    MANIFEST_SCHEMA,
    build_run_manifest,
    environment_fingerprint,
    validate_run_manifest,
    write_run_manifest,
)
from .spans import Span

__all__ = [
    "OBS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "MANIFEST_SCHEMA",
    "build_run_manifest",
    "environment_fingerprint",
    "telemetry_enabled_from_env",
    "validate_run_manifest",
    "write_run_manifest",
]
