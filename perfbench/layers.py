"""Install the benchmark's span wrappers on the library's layer entry points.

Nothing under ``src/`` is edited: each entry point is replaced, on its
module or class, by a wrapper that opens a span of the named layer and
(optionally) counts work.  Call :func:`install` before any pool forks,
so workers inherit the wrapped functions.

Layer map (span name -> what it wraps):

* ``datasets.load`` — ``load_cached`` / ``load_temporal_cached``
* ``core.build`` — ``TransitionOperator.__init__``, ``MarkovOperator.stationary``
* ``core.step`` — ``MarkovOperator._apply_block`` (the default SpMM kernel)
* ``core.tvd`` — ``total_variation_to_reference`` as the operators call it
* ``core.loop`` — ``measure_mixing``/``estimate_mixing_time`` and the block
  sweeps ``variation_curves``/``hitting_times`` (self time: block build,
  retirement gathers, shard assembly)
* ``parallel.publish`` / ``parallel.pool_setup`` / ``parallel.wait`` /
  ``parallel.task`` — shared-memory publication, executor create and
  teardown, the parent's wait inside the fault-tolerant pool, and the
  worker-side shard task
* ``service.codec`` / ``service.request`` / ``service.registry_acquire`` /
  ``service.cache`` / ``service.coalesce_wait`` / ``service.compute`` /
  ``service.lock_wait`` — the HTTP service's request path
* ``sybil.admission``, ``spectral.slem``, ``incremental.warm``,
  ``temporal.window``, ``temporal.append``
"""

from __future__ import annotations

from tracer import TimedLock, Tracer


def install(tracer: Tracer) -> Tracer:
    import repro.datasets as datasets
    import repro.datasets.cache as dataset_cache
    import repro.datasets.temporal as dataset_temporal
    from repro.core import incremental, mixing, operators, parallel, runtime, spectral
    from repro.core.operators import MarkovOperator
    from repro.core.walks import TransitionOperator
    from repro.graph.temporal import TemporalGraph
    from repro.service import client as service_client
    from repro.service import http as service_http
    from repro.service.cache import ResultCache
    from repro.service.engine import QueryEngine
    from repro.service.registry import OperatorRegistry
    from repro.sybil.sybillimit import SybilLimit

    wrap = tracer.wrap

    # -- datasets ------------------------------------------------------
    load = wrap("datasets.load", dataset_cache.load_cached)
    dataset_cache.load_cached = load
    datasets.load_cached = load
    load_temporal = wrap("datasets.load", dataset_temporal.load_temporal_cached)
    dataset_temporal.load_temporal_cached = load_temporal
    datasets.load_temporal_cached = load_temporal

    # -- core: build, step, tvd, loop ----------------------------------
    TransitionOperator.__init__ = wrap("core.build", TransitionOperator.__init__)
    MarkovOperator.stationary = wrap("core.build", MarkovOperator.stationary)

    def count_step(args, _kwargs, _result):
        operator, block = args[0], args[1]
        rows = int(block.shape[0])
        matrix = operator._matrix
        nnz = int(matrix.nnz)
        n = int(block.shape[1])
        tracer.count("core.step_calls")
        tracer.count("core.row_steps", rows)
        tracer.count("core.step_madds", nnz * rows)
        tracer.count(
            "core.step_bytes",
            nnz * (matrix.data.itemsize + matrix.indices.itemsize)
            + (n + 1) * matrix.indptr.itemsize
            + 2 * rows * n * 8,
        )

    MarkovOperator._apply_block = wrap("core.step", MarkovOperator._apply_block, count_step)

    def count_tvd(args, _kwargs, _result):
        tracer.count("core.tvd_rows", int(args[0].shape[0]))

    operators.total_variation_to_reference = wrap(
        "core.tvd", operators.total_variation_to_reference, count_tvd
    )
    measure = wrap("core.loop", mixing.measure_mixing)
    mixing.measure_mixing = measure
    incremental.measure_mixing = measure
    mixing.estimate_mixing_time = wrap("core.loop", mixing.estimate_mixing_time)
    MarkovOperator.variation_curves = wrap("core.loop", MarkovOperator.variation_curves)
    MarkovOperator.hitting_times = wrap("core.loop", MarkovOperator.hitting_times)

    # -- parallel / runtime --------------------------------------------
    def count_fallback(args, kwargs, result):
        policy = kwargs.get("policy")
        if result is None and policy is not None and (policy.workers or 1) > 1:
            tracer.count("runtime.serial_fallbacks")

    for name in ("maybe_parallel_variation_curves", "maybe_parallel_hitting_times"):
        setattr(parallel, name, wrap("core.loop", getattr(parallel, name), count_fallback))
    parallel.publish_operator = wrap("parallel.publish", parallel.publish_operator)

    def count_executor(_args, _kwargs, _result):
        tracer.count("parallel.executors")

    runtime._make_executor = wrap("parallel.pool_setup", runtime._make_executor, count_executor)
    runtime._retire_executor = wrap("parallel.pool_setup", runtime._retire_executor)

    execute_pool = runtime._execute_pool

    def traced_execute_pool(kind, pending, policy, workers, make_task, serial_run, finish):
        if not tracer.enabled:
            return execute_pool(kind, pending, policy, workers, make_task, serial_run, finish)

        def degraded(lo, hi):
            tracer.count("runtime.serial_fallbacks")
            return serial_run(lo, hi)

        tracer.count("parallel.pool_calls")
        tracer.count("parallel.shards_dispatched", len(pending))
        return tracer.run(
            "parallel.wait",
            execute_pool,
            kind, pending, policy, workers, make_task, degraded, finish,
        )

    runtime._execute_pool = traced_execute_pool

    worker_shard = runtime._worker_shard

    def traced_worker_shard(args):
        if not tracer.enabled:
            return worker_shard(args)
        try:
            return tracer.run("parallel.task", worker_shard, args)
        finally:
            tracer.count("parallel.shards")
            tracer.flush_worker()

    # Pickled by reference: the pool resolves runtime._worker_shard to this.
    traced_worker_shard.__module__ = worker_shard.__module__
    traced_worker_shard.__qualname__ = worker_shard.__qualname__
    traced_worker_shard.__name__ = worker_shard.__name__
    runtime._worker_shard = traced_worker_shard

    # -- service -------------------------------------------------------
    codec = wrap("service.codec", service_client.answer_payload)
    service_client.answer_payload = codec
    service_http.answer_payload = codec
    QueryEngine.submit = wrap("service.request", QueryEngine.submit)
    QueryEngine.append_delta = wrap("service.request", QueryEngine.append_delta)

    def count_build(_args, _kwargs, _result):
        tracer.count("service.registry_builds")

    OperatorRegistry.acquire = wrap("service.registry_acquire", OperatorRegistry.acquire)
    OperatorRegistry._build = wrap("service.registry_acquire", OperatorRegistry._build, count_build)

    def count_get(_args, _kwargs, result):
        tracer.count("service.cache_gets")
        if result is not None:
            tracer.count("service.cache_hits")

    ResultCache.get = wrap("service.cache", ResultCache.get, count_get)
    ResultCache.put = wrap("service.cache", ResultCache.put)
    QueryEngine._submit_coalesced = wrap("service.coalesce_wait", QueryEngine._submit_coalesced)

    def count_batch(args, _kwargs, _result):
        tracer.count("service.batch_sweeps")
        tracer.count("service.batch_requests", len(args[1]))

    QueryEngine._execute_batch = wrap("service.compute", QueryEngine._execute_batch, count_batch)
    QueryEngine._compute_direct = wrap("service.compute", QueryEngine._compute_direct)
    QueryEngine._compute_trend = wrap("service.compute", QueryEngine._compute_trend)

    engine_init = QueryEngine.__init__

    def traced_engine_init(self, *args, **kwargs):
        engine_init(self, *args, **kwargs)
        self._temporal_lock = TimedLock(tracer, "service.lock_wait", self._temporal_lock)

    QueryEngine.__init__ = traced_engine_init

    # -- sybil, spectral, incremental, temporal ------------------------
    SybilLimit.admission_sweep = wrap("sybil.admission", SybilLimit.admission_sweep)
    spectral.slem = wrap("spectral.slem", spectral.slem)

    def count_spectral(args, kwargs, result):
        tracer.count("incremental.matvecs", int(result.matvecs))
        state = args[1] if len(args) > 1 else kwargs.get("state")
        if state is not None and not result.warm_started:
            tracer.count("incremental.cold_fallbacks")

    incremental.warm_spectral_extremes = wrap(
        "incremental.warm", incremental.warm_spectral_extremes, count_spectral
    )
    TemporalGraph.at = wrap("temporal.window", TemporalGraph.at)
    TemporalGraph.changes_between = wrap("temporal.window", TemporalGraph.changes_between)
    TemporalGraph.append = wrap("temporal.append", TemporalGraph.append)
    return tracer
