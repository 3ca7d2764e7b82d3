"""The inertness contract: telemetry may not change a single bit.

Every numeric path that got instrumented in this package — operator
block evolution, variation curves, hitting times, the spectral
back-ends, the parallel runtime, experiment runners — is executed twice,
telemetry off then on, and compared with **zero tolerance**
(``np.array_equal`` / exact equality).  CI additionally runs the whole
golden-value suite under ``REPRO_TELEMETRY=1`` so the contract is pinned
against the frozen reference numbers too.
"""

import numpy as np
import pytest

from repro.core import (
    estimate_mixing_time,
    parallel_backend_available,
    transition_spectrum_extremes,
)
from repro.core.runtime import ExecutionPolicy
from tests.core.test_operators import ALL_KINDS, make_operator

needs_pool = pytest.mark.skipif(
    not parallel_backend_available(),
    reason="fork + shared-memory backend unavailable",
)


def _with_flag(obs, enabled, fn):
    obs.reset()
    obs.enabled = bool(enabled)
    try:
        return fn()
    finally:
        obs.enabled = False
        obs.reset()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_variation_curves_bit_identical(obs, kind):
    def run():
        op = make_operator(kind)
        sources = np.arange(op.num_states, dtype=np.int64)
        return op.variation_curves(sources, [1, 2, 5, 9], policy=ExecutionPolicy(block_size=4))

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)


@pytest.mark.parametrize("kind", ["plain", "teleport"])
def test_hitting_times_bit_identical(obs, kind):
    def run():
        op = make_operator(kind)
        sources = np.arange(op.num_states, dtype=np.int64)
        result = op.hitting_times(sources, 0.2, max_steps=40, policy=ExecutionPolicy(block_size=4))
        return result.times.copy(), result.final_distances.copy()

    off_t, off_d = _with_flag(obs, False, run)
    on_t, on_d = _with_flag(obs, True, run)
    assert np.array_equal(off_t, on_t)
    assert np.array_equal(off_d, on_d)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_evolve_block_bit_identical(obs, kind):
    def run():
        op = make_operator(kind)
        block = op.point_mass_block(np.arange(min(6, op.num_states), dtype=np.int64))
        return op.evolve_block(block, 7)

    assert np.array_equal(_with_flag(obs, False, run), _with_flag(obs, True, run))


@pytest.mark.parametrize("method", ["sparse", "dense", "power"])
def test_spectral_backends_bit_identical(obs, method, er_medium):
    def run():
        s = transition_spectrum_extremes(er_medium, method=method)
        return (s.lambda2, s.lambda_min, s.slem, s.gap)

    assert _with_flag(obs, False, run) == _with_flag(obs, True, run)


def test_estimate_mixing_time_bit_identical(obs, er_medium):
    def run():
        return estimate_mixing_time(er_medium, 0.1, sources=20, seed=7)

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    for attr in ("times", "final_distances", "sources"):
        off_v = getattr(off, attr, None)
        on_v = getattr(on, attr, None)
        if off_v is not None:
            assert np.array_equal(np.asarray(off_v), np.asarray(on_v)), attr


@needs_pool
@pytest.mark.parametrize("kind", ["plain", "teleport"])
def test_parallel_sweep_bit_identical(obs, kind):
    """Telemetry on must not perturb the pool path either — the timed
    task wrapper unwraps to exactly the bare task results."""

    def run():
        op = make_operator(kind)
        sources = np.arange(op.num_states, dtype=np.int64)
        return op.variation_curves(
            sources, [1, 3, 6], policy=ExecutionPolicy(workers=2, block_size=4)
        )

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)


def test_serial_equals_parallel_under_telemetry(obs):
    """Cross-check: with telemetry ON, workers=2 still equals workers=1."""
    if not parallel_backend_available():
        pytest.skip("no pool backend")

    def run(workers):
        op = make_operator("plain")
        sources = np.arange(op.num_states, dtype=np.int64)
        return op.variation_curves(
            sources, [2, 4], policy=ExecutionPolicy(workers=workers, block_size=4)
        )

    serial = _with_flag(obs, True, lambda: run(1))
    parallel = _with_flag(obs, True, lambda: run(2))
    assert np.array_equal(serial, parallel)


def test_admission_sweep_bit_identical(obs, bridge_graph):
    """The instrumented route engine + vectorised admission: telemetry
    off/on must produce identical verdicts, tails and counts."""
    from repro.sybil import SybilLimit, SybilLimitParams, no_attack_scenario

    def run():
        scenario = no_attack_scenario(bridge_graph)
        protocol = SybilLimit(
            scenario, SybilLimitParams(route_length=10), seed=23
        )
        outcomes = protocol.admission_sweep(0, [2, 5, 10], seed=3)
        return [
            (o.route_length, o.accepted.copy(), o.intersected.copy())
            for o in outcomes
        ]

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    for (w0, acc0, int0), (w1, acc1, int1) in zip(off, on):
        assert w0 == w1
        assert np.array_equal(acc0, acc1)
        assert np.array_equal(int0, int1)


def test_sybilguard_run_bit_identical(obs, bridge_graph):
    from repro.sybil import SybilGuard, no_attack_scenario

    def run():
        guard = SybilGuard(no_attack_scenario(bridge_graph), 12, seed=31)
        outcome = guard.run(0)
        return outcome.accepted.copy(), outcome.suspects.copy()

    off_a, off_s = _with_flag(obs, False, run)
    on_a, on_s = _with_flag(obs, True, run)
    assert np.array_equal(off_a, on_a)
    assert np.array_equal(off_s, on_s)


def test_route_tails_bit_identical(obs, petersen):
    from repro.sybil import RouteInstances

    def run():
        ri = RouteInstances(petersen, 6, seed=19)
        nodes = np.arange(petersen.num_nodes, dtype=np.int64)
        return ri.tails_at_lengths(nodes, [1, 4, 9], seed=2, policy=ExecutionPolicy(block_size=2))

    assert np.array_equal(_with_flag(obs, False, run), _with_flag(obs, True, run))


def test_route_telemetry_actually_recorded(obs, petersen):
    """The enabled arm of the route-engine inertness tests must record
    real metrics, or the comparison above is vacuous."""
    from repro.sybil import RouteInstances

    obs.reset()
    obs.enable()
    ri = RouteInstances(petersen, 4, seed=3)
    ri.tails_at_lengths(np.arange(petersen.num_nodes), [1, 5], seed=1)
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    assert snap["counters"]["sybil.routes.instances"] == 4
    assert snap["counters"]["sybil.routes.blocks"] >= 1
    assert snap["counters"]["sybil.routes.gathers"] >= 1


def test_telemetry_actually_recorded(obs):
    """Guard against the vacuous pass: the enabled arm must have
    recorded real metrics (otherwise inertness proves nothing)."""
    obs.reset()
    obs.enable()
    op = make_operator("plain")
    sources = np.arange(op.num_states, dtype=np.int64)
    op.variation_curves(sources, [1, 2], policy=ExecutionPolicy(block_size=4))
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    assert snap["counters"]["core.evolution.rows"] > 0
    assert snap["spans"]["recorded"] >= 1


def test_checkpointed_sweep_bit_identical(obs, tmp_path):
    """The runtime's checkpoint write/read cycle is telemetry-inert:
    off and on runs (with separate stores) produce identical curves."""
    def run(ckpt):
        op = make_operator("plain")
        sources = np.arange(op.num_states, dtype=np.int64)
        policy = ExecutionPolicy(checkpoint_dir=str(ckpt))
        first = op.variation_curves(sources, [1, 3, 6], policy=policy)
        resumed = op.variation_curves(sources, [1, 3, 6], policy=policy)
        assert np.array_equal(first, resumed)
        return first

    off = _with_flag(obs, False, lambda: run(tmp_path / "off"))
    on = _with_flag(obs, True, lambda: run(tmp_path / "on"))
    assert np.array_equal(off, on)


def test_runtime_checkpoint_counters_recorded(obs, tmp_path):
    """The enabled arm of the checkpoint inertness test must record the
    new ``runtime.checkpoint.*`` counters — and an un-checkpointed run
    must record none of them (vacuity guard both ways)."""
    op = make_operator("plain")
    sources = np.arange(op.num_states, dtype=np.int64)
    policy = ExecutionPolicy(checkpoint_dir=str(tmp_path / "ckpt"))

    obs.reset()
    obs.enable()
    op.variation_curves(sources, [1, 3], policy=policy)  # writes shards
    op.variation_curves(sources, [1, 3], policy=policy)  # loads them back
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    counters = snap["counters"]
    assert counters["runtime.checkpoint.saved_shards"] >= 1
    assert counters["runtime.checkpoint.bytes_written"] > 0
    assert counters["runtime.checkpoint.loaded_shards"] >= 1
    assert counters["runtime.checkpoint.loaded_rows"] == sources.size

    obs.reset()
    obs.enable()
    op.variation_curves(sources, [1, 3])  # plain serial, no checkpoints
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("runtime.") for name in plain)


@pytest.mark.parametrize("backend", ["streaming"])
def test_backend_sweeps_bit_identical(obs, backend, er_medium, tmp_path):
    """The streaming stripe kernel is telemetry-inert: a sweep over the
    memory-mapped graph produces the same bits with telemetry off and
    on."""
    from repro.core.walks import TransitionOperator
    from repro.graph import open_csr, save_csr

    save_csr(er_medium, tmp_path / "g.csr")
    mapped = open_csr(tmp_path / "g.csr")

    def run():
        op = TransitionOperator(mapped)
        sources = np.arange(op.num_states, dtype=np.int64)
        return op.variation_curves(
            sources, [1, 2, 5, 9], policy=ExecutionPolicy(memory_budget=4096)
        )

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)


def test_backend_counters_recorded(obs, er_medium, tmp_path):
    """Vacuity guard: the operand picks the kernel.  A sweep over the
    memory-mapped graph records ``core.backend.streaming.*`` stripe
    traffic with no policy at all; the in-memory sweep records no
    ``core.backend.*`` counter."""
    from repro.core.walks import TransitionOperator
    from repro.graph import open_csr, save_csr

    save_csr(er_medium, tmp_path / "g.csr")
    sources = np.arange(12, dtype=np.int64)

    obs.reset()
    obs.enable()
    TransitionOperator(open_csr(tmp_path / "g.csr")).variation_curves(sources, [1, 2])
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["core.backend.streaming.stripes"] >= 1
    assert snap["core.backend.streaming.bytes_loaded"] > 0

    obs.reset()
    obs.enable()
    TransitionOperator(er_medium).variation_curves(sources, [1, 2])
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("core.backend.") for name in plain)


@needs_pool
def test_pool_execution_bit_identical_and_counted(obs):
    """Pooled fan-out is telemetry-inert, and its enabled arm records one
    publication and the shards it ran."""
    def run():
        op = make_operator("plain")
        sources = np.arange(op.num_states, dtype=np.int64)
        policy = ExecutionPolicy(workers=2, block_size=4)
        return op.variation_curves(sources, [1, 3, 6], policy=policy)

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)

    obs.reset()
    obs.enable()
    run()
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    assert snap["counters"]["parallel.publishes"] == 1
    assert snap["histograms"]["parallel.shard_rows"]["count"] >= 2


def test_nonbacktracking_bit_identical_and_counted(obs, petersen):
    """NB estimator: telemetry-inert curves, and the construction
    counters record arc counts on the enabled arm."""
    from repro.core.nonbacktracking import non_backtracking_curves

    def run():
        return non_backtracking_curves(petersen, [0, 3, 7], [1, 2, 5])

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)

    obs.reset()
    obs.enable()
    run()
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["core.nonbacktracking.built"] == 1
    assert snap["core.nonbacktracking.arcs"] == 2 * petersen.num_edges


def test_attack_scenario_build_bit_identical(obs, bridge_graph):
    """The instrumented attack-scenario builder: telemetry off/on must
    produce the identical combined graph and attack-edge rows."""
    from repro.sybil import build_attack_scenario

    def run():
        scenario = build_attack_scenario(
            bridge_graph, "cluster-bomb", num_sybil=12, num_attack_edges=7, seed=3
        )
        return (
            scenario.graph.indptr.copy(),
            scenario.graph.indices.copy(),
            scenario.attack_edges.copy(),
        )

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    for off_arr, on_arr in zip(off, on):
        assert np.array_equal(off_arr, on_arr)


def test_adversarial_sweep_bit_identical(obs, bridge_graph):
    """The full sweep engine (scenario builds, six-defense cells, the
    sharded runtime) is telemetry-inert on its count grid."""
    from repro.experiments import AdversarialKnobs, adversarial_sweep

    def run():
        result = adversarial_sweep(
            bridge_graph,
            strategies=["random"],
            sybil_sizes=[6],
            attack_budgets=[0, 3],
            defenses=("sybilguard", "sumup", "sybilrank"),
            seed=2,
            knobs=AdversarialKnobs(route_length=4, sybillimit_instances=4,
                                   infer_samples=4, infer_burn_in=2,
                                   infer_steps=1, sumup_c_max=4,
                                   whanau_walk_length=4),
            max_suspects=8,
        )
        return result.counts.copy()

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    assert np.array_equal(off, on)


def test_attack_telemetry_actually_recorded(obs, bridge_graph):
    """Vacuity guard for the two tests above: the enabled arm must record
    the ``sybil.attack.*`` spans and counters — and a zero-budget build
    (which short-circuits to the no-attack baseline) must record none."""
    from repro.experiments import AdversarialKnobs, adversarial_sweep
    from repro.sybil import build_attack_scenario

    obs.reset()
    obs.enable()
    build_attack_scenario(bridge_graph, "random", num_sybil=9, num_attack_edges=5, seed=1)
    adversarial_sweep(
        bridge_graph,
        strategies=["random"],
        sybil_sizes=[6],
        attack_budgets=[2],
        defenses=("sybilrank",),
        seed=2,
        knobs=AdversarialKnobs(route_length=4),
        max_suspects=8,
    )
    snap = obs.snapshot()
    obs.disable()
    obs.reset()
    counters = snap["counters"]
    assert counters["sybil.attack.scenarios"] == 2
    assert counters["sybil.attack.edges"] == 5 + 2
    assert counters["sybil.attack.region_nodes"] == 9 + 6
    assert counters["sybil.attack.cells"] == 1
    assert counters["sybil.attack.suspects_judged"] == 8 + 6
    assert snap["spans"]["recorded"] >= 1

    obs.reset()
    obs.enable()
    build_attack_scenario(bridge_graph, "random", num_sybil=9, num_attack_edges=0, seed=1)
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("sybil.attack.") for name in plain)


def test_streaming_backend_bit_identical(obs, er_medium, tmp_path):
    """The streaming stripe walk is telemetry-inert on both the
    in-memory and the memory-mapped operator."""
    from repro.core.walks import TransitionOperator
    from repro.graph import open_csr, save_csr

    path = tmp_path / "g.csr"
    save_csr(er_medium, path)
    mapped = open_csr(path)
    sources = np.arange(0, er_medium.num_nodes, 3, dtype=np.int64)
    policy = ExecutionPolicy(memory_budget=4096)

    for operand in (er_medium, mapped):
        def run():
            op = TransitionOperator(operand)
            return op.variation_curves(sources, [1, 2, 5], policy=policy)

        assert np.array_equal(_with_flag(obs, False, run), _with_flag(obs, True, run))


def test_storage_counters_recorded(obs, er_medium, tmp_path):
    """Vacuity guard: save/open must record the ``graph.storage.*``
    counters, and a purely in-memory sweep must record none."""
    from repro.core.walks import TransitionOperator
    from repro.graph import open_csr, save_csr

    obs.reset()
    obs.enable()
    path = tmp_path / "g.csr"
    save_csr(er_medium, path)
    open_csr(path)
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["graph.storage.saves"] == 1
    assert snap["graph.storage.bytes_written"] > 0
    assert snap["graph.storage.opens"] == 1
    assert snap["graph.storage.bytes_mapped"] > 0

    obs.reset()
    obs.enable()
    op = TransitionOperator(er_medium)
    op.variation_curves(np.arange(8, dtype=np.int64), [1, 2])
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("graph.storage.") for name in plain)


def test_streaming_counters_recorded(obs, er_medium, tmp_path):
    """The streaming kernel's enabled arm must record stripe traffic."""
    from repro.core.walks import TransitionOperator
    from repro.graph import open_csr, save_csr

    path = tmp_path / "g.csr"
    save_csr(er_medium, path)
    mapped = open_csr(path)

    obs.reset()
    obs.enable()
    op = TransitionOperator(mapped)
    op.variation_curves(
        np.arange(0, er_medium.num_nodes, 4, dtype=np.int64),
        [1, 3],
        policy=ExecutionPolicy(memory_budget=2048),
    )
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["core.backend.streaming.stripes"] >= 2
    assert snap["core.backend.streaming.bytes_loaded"] > 0

    obs.reset()
    obs.enable()
    TransitionOperator(er_medium).variation_curves(
        np.arange(8, dtype=np.int64), [1, 2]
    )
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("core.backend.streaming.") for name in plain)


def test_chunked_build_bit_identical_and_counted(obs, tmp_path):
    """The external-memory generator is telemetry-inert and its enabled
    arm records build/arc counters."""
    from repro.generators.chunked import chunked_community_csr

    def run(tag):
        g = chunked_community_csr(
            tmp_path / f"{tag}.csr", 200, num_communities=4, mu_frac=0.1,
            mean_extra_degree=3.0, seed=5, chunk_nodes=64,
        )
        return np.asarray(g.indptr).copy(), np.asarray(g.indices).copy()

    off_p, off_i = _with_flag(obs, False, lambda: run("off"))
    on_p, on_i = _with_flag(obs, True, lambda: run("on"))
    assert np.array_equal(off_p, on_p)
    assert np.array_equal(off_i, on_i)

    obs.reset()
    obs.enable()
    run("counted")
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["graph.storage.chunked_builds"] == 1
    assert snap["graph.storage.chunked_arcs"] > 0


def test_streamed_spectral_bit_identical_and_counted(obs, er_medium, tmp_path):
    """The stripe-walking LinearOperator used for mapped graphs is
    telemetry-inert and records its matvec traffic."""
    from repro.graph import open_csr, save_csr

    path = tmp_path / "g.csr"
    save_csr(er_medium, path)
    mapped = open_csr(path)

    def run():
        s = transition_spectrum_extremes(mapped, method="power")
        return (s.lambda2, s.lambda_min, s.slem, s.gap)

    assert _with_flag(obs, False, run) == _with_flag(obs, True, run)

    obs.reset()
    obs.enable()
    run()
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["spectral.stream.matvecs"] >= 1
    assert snap["spectral.stream.stripes"] >= 1

    obs.reset()
    obs.enable()
    transition_spectrum_extremes(er_medium, method="power")
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert not any(name.startswith("spectral.stream.") for name in plain)


def _toy_temporal():
    from repro.graph import EdgeDelta, Graph, TemporalGraph

    base = Graph.from_edges(
        np.array([(i, (i + 1) % 12) for i in range(12)] + [(0, 2)], dtype=np.int64)
    )
    temporal = TemporalGraph(base)
    temporal.append(EdgeDelta(10, insert=[(3, 5), (4, 6)]))
    temporal.append(EdgeDelta(20, insert=[(1, 3)], delete=[(3, 5)]))
    return temporal


def test_slem_trend_bit_identical(obs):
    """The incremental trend sweep (windows, warm seam, certificates) is
    telemetry-inert."""
    from repro.core import slem_trend

    def run():
        trend = slem_trend(_toy_temporal())
        return trend.slem.copy(), trend.lambda2.copy(), trend.matvecs.copy()

    off = _with_flag(obs, False, run)
    on = _with_flag(obs, True, run)
    for off_arr, on_arr in zip(off, on):
        assert np.array_equal(off_arr, on_arr)


def test_warm_solver_bit_identical_and_counted(obs, er_medium):
    """The warm spectral path is telemetry-inert, and its enabled arm
    records ``core.incremental.*`` counters (vacuity guard both ways:
    a cold solve records none of them)."""
    from repro.core import warm_spectral_extremes

    assert er_medium.num_nodes > 64  # otherwise the warm path never runs

    def run():
        cold = warm_spectral_extremes(er_medium)
        warm = warm_spectral_extremes(er_medium, cold, changed_edges=0)
        return (cold.slem, warm.slem, warm.lambda2, warm.lambda_min, warm.matvecs)

    assert _with_flag(obs, False, run) == _with_flag(obs, True, run)

    obs.reset()
    obs.enable()
    run()
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["core.incremental.warm_starts"] == 1
    assert snap["core.incremental.matvecs"] >= 1

    obs.reset()
    obs.enable()
    warm_spectral_extremes(er_medium)  # cold: records cold_starts, no warm
    plain = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert plain["core.incremental.cold_starts"] == 1
    assert "core.incremental.warm_starts" not in plain


def test_temporal_service_counters_recorded(obs):
    """The trend-query path and append_delta record service telemetry."""
    from repro.service import OperatorRegistry, QueryEngine, ResultCache

    temporal = _toy_temporal()
    obs.reset()
    obs.enable()
    with QueryEngine(
        registry=OperatorRegistry(loader=lambda name: temporal.snapshot()),
        cache=ResultCache(),
        policy=ExecutionPolicy(workers=1),
        coalesce_window=0.0,
        temporal_loader=lambda name: temporal,
    ) as engine:
        engine.slem_trend("toy")
        engine.slem_trend("toy")
        engine.append_delta("toy", 30, insert=[(2, 7)])
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["service.cache.misses"] >= 1
    assert snap["service.cache.hits"] >= 1
    assert snap["service.temporal.appends"] == 1


def test_snap_fetch_counters_recorded(obs, tmp_path):
    """The offline ``file://`` fetch path records download telemetry."""
    import gzip
    import hashlib

    from repro.datasets.snap import fetch_dataset

    payload = gzip.compress(b"0 1\n1 2\n2 0\n")
    src = tmp_path / "payload.gz"
    src.write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()

    obs.reset()
    obs.enable()
    fetch_dataset("ca-grqc", tmp_path / "out", url=src.as_uri(), sha256=digest)
    snap = obs.snapshot()["counters"]
    obs.disable()
    obs.reset()
    assert snap["datasets.snap.fetches"] == 1
    assert snap["datasets.snap.bytes_fetched"] == len(payload)
