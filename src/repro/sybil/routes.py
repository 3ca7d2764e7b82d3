"""Random routes — the core primitive of SybilGuard and SybilLimit.

A *random route* differs from a random walk: every node ``v`` fixes, per
protocol instance, one uniformly random permutation ``pi_v`` of its edge
slots.  A route entering ``v`` through its ``j``-th incident edge always
leaves through edge ``pi_v[j]``.  Two consequences drive the protocols:

* **Convergence** — routes entering a node through the same edge follow
  identical suffixes.
* **Back-traceability** — the route map is a bijection on directed edge
  slots, so routes never "merge then split".

Representation: a directed edge slot ``e`` is an index into the graph's
CSR ``indices`` array; slot ``e`` is the arc ``src(e) → indices[e]``.
The whole instance is one permutation array ``next_slot`` of length
``2m`` mapping each arc to the arc a route takes next.  Advancing every
route in the system one step is a single numpy gather.

Blocked execution
-----------------
SybilLimit needs ``r = r0·√m`` independent instances advanced ``w``
steps each.  Doing that one instance at a time costs ``r × w``
Python-level gathers; this module instead materialises instances in
memory-budgeted *blocks*: a block of ``b`` tables is flattened into one
offset array ``flat[i·2m + s] = i·2m + next_slot_i[s]`` so advancing
every route of every instance in the block one step is a **single**
gather, and a full tail sweep costs ``max(w)`` gathers per block instead
of ``r × max(w)`` interpreter iterations.  Tables themselves are built
by an exact drop-in replacement for ``np.lexsort`` (quicksort on the
random keys + 16-bit-radix stable sort on the slot sources) that is
several times faster at identical output.

Lazy selection
--------------
A table sorts all ``2m`` slots of an instance, yet SybilLimit's
admission follows only a verifier's and a few suspects' routes for a
few steps.  Node ``v``'s permutation depends only on the random keys of
``v``'s own slots, so a route standing on arc ``e`` can leave through
the slot of ``v = indices[e]`` whose key ranks ``rev[e] − indptr[v]``
in ``v``'s segment (ties by slot index) — exactly what the table gives.
The lazy path draws each instance's keys in full (same stream, same
bits) and advances all routes of a block together, with one composite
``group + key`` sort over just the visited segments per step and the
table kernel's exact tie fallback.  :func:`lazy_selection_pays`, a cost
model on the slots each path would sort, picks the path: lazy for a
few short routes, full tables for Figure 8's all-node sweeps.

Determinism contract: at a fixed seed, the blocked, lazy and
pool-parallel paths are **bit-for-bit identical** to the historical
per-instance loop — same per-instance ``SeedSequence`` children, same
first-hop draws in the same order, same exits.
``tests/core/test_golden_values.py`` pins raw tails on the golden
graphs; ``tests/sybil/test_routes_parallel.py`` pins blocked == lazy ==
per-instance == pool output across block boundaries and worker counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.runtime import ExecutionPolicy, as_policy
from ..errors import RouteError
from ..graph import Graph
from ..obs import OBS
from .._util import as_rng

__all__ = [
    "RouteInstances",
    "arc_sources",
    "resolve_route_block_size",
    "reverse_slots",
]

#: Memory budget for one block of flattened ``next_slot`` tables.  One
#: block row costs ``2m`` int64 (the table) — 32 MiB admits ~40 blocks
#: of facebook-sample-scale tables (2m ≈ 10⁵), enough to amortise the
#: per-step interpreter overhead without blowing the cache for the
#: positions array.
ROUTE_BLOCK_BYTES: int = 32 * 1024 * 1024


def _graph_memo(graph: Graph) -> Optional[dict]:
    """The graph's derived-array cache, or ``None`` for foreign objects."""
    return getattr(graph, "_memo", None)


def arc_sources(graph: Graph) -> np.ndarray:
    """``src[e]`` — the source node of each directed edge slot.

    Memoised on the (immutable) graph: SybilLimit builds ``r = Θ(√m)``
    instances over one graph, and recomputing the ``np.repeat`` for each
    of them — and again for every trajectory call — was pure waste.
    The returned array is read-only; treat it as a view.
    """
    memo = _graph_memo(graph)
    if memo is not None:
        cached = memo.get("arc_sources")
        if cached is not None:
            return cached
    src = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees)
    src.setflags(write=False)
    if memo is not None:
        memo["arc_sources"] = src
    return src


def reverse_slots(graph: Graph) -> np.ndarray:
    """``rev[e]`` — the slot of the reverse arc of slot ``e`` (memoised).

    Slots are sorted by ``(src, dst)``; the reverse arc of ``e`` has key
    ``(dst, src)``, so its slot is the lexicographic rank of that pair.
    """
    memo = _graph_memo(graph)
    if memo is not None:
        cached = memo.get("reverse_slots")
        if cached is not None:
            return cached
    src = arc_sources(graph)
    dst = graph.indices
    order = np.lexsort((src, dst))  # arcs ordered by (dst, src)
    rev = np.empty(src.size, dtype=np.int64)
    rev[order] = np.arange(src.size, dtype=np.int64)
    rev.setflags(write=False)
    if memo is not None:
        memo["reverse_slots"] = rev
    return rev


def resolve_route_block_size(
    num_slots: int,
    num_instances: int,
    block_size: Optional[int] = None,
    *,
    memory_budget_bytes: int = ROUTE_BLOCK_BYTES,
) -> int:
    """Instances per route block.

    ``block_size=None`` sizes the block so the flattened ``next_slot``
    tables (``b`` rows of ``num_slots`` int64) stay under
    ``memory_budget_bytes``; explicit overrides are validated with the
    same rules as :func:`repro.core.operators.resolve_block_size`
    (non-positive / non-integral values raise) and the result is always
    clamped to ``[1, num_instances]``.
    """
    from ..core.operators import resolve_block_size

    rows = resolve_block_size(
        num_slots, block_size, memory_budget_bytes=memory_budget_bytes
    )
    return int(max(1, min(rows, max(int(num_instances), 1))))


# ----------------------------------------------------------------------
# Exact fast permutation kernel
# ----------------------------------------------------------------------
def _stable_node_argsort(nodes: np.ndarray, num_nodes: int) -> np.ndarray:
    """Stable argsort of a node-id array via 16-bit radix digit passes.

    numpy's ``kind="stable"`` argsort is an O(N) radix sort for integer
    dtypes of <= 16 bits; wider node ranges are handled by chaining
    stable passes over 16-bit digits, least-significant first — exactly
    the classical LSD radix sort, hence exactly a stable sort.
    """
    if num_nodes <= (1 << 16):
        return np.argsort(nodes.astype(np.uint16), kind="stable")
    order = np.argsort((nodes & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (int(num_nodes) - 1) >> shift:
        digit = ((nodes[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _permutation_order(
    keys: np.ndarray, src: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Exact, faster replacement for ``np.lexsort((keys, src))``.

    Fast path: because ``src`` holds integers and ``keys`` doubles in
    ``[0, 1)``, ordering by the single composite double ``src + keys``
    equals the lexicographic ``(src, keys)`` order whenever the sorted
    composites are pairwise distinct — the float addition is monotone,
    and node boundaries cannot interleave since ``src + keys < src + 1``
    while integers up to ``2**52`` are exact.  One quicksort of doubles
    therefore replaces lexsort's two mergesort passes.  Adjacent equal
    composites (rounding collisions or genuinely tied keys, probability
    ~2⁻⁴⁰ per pair) are detected after the sort and routed to the slow
    path: a stable argsort of the keys re-sorted stably by ``src``
    (16-bit-radix, :func:`_stable_node_argsort`), which is the textbook
    lexsort decomposition.  The output equals ``np.lexsort`` bit-for-bit
    in **all** cases, not just almost surely.
    """
    if num_nodes < (1 << 52):
        composite = src + keys  # float64: exact order iff no rounding ties
        order = np.argsort(composite)
        sorted_comp = composite[order]
        if sorted_comp.size <= 1 or not np.any(
            sorted_comp[1:] == sorted_comp[:-1]
        ):
            return order
    primary = np.argsort(keys, kind="stable")
    secondary = _stable_node_argsort(src[primary], num_nodes)
    return primary[secondary]


def build_instance_table(
    seed: np.random.SeedSequence,
    src: np.ndarray,
    rev: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """One instance's ``next_slot`` permutation from its seed.

    Per-node permutations are drawn in one vectorised shot: random keys
    are assigned to every slot and slots are ordered by ``(node, key)``.
    The result enumerates each node's slots in a uniformly random order,
    and pairing the j-th CSR slot of a node with the j-th element of
    that ordering is exactly a uniform per-node permutation ``pi_v``.
    A route occupying arc ``e=(u->v)`` entered ``v`` via the reverse
    slot's position; it exits through ``pi_v`` applied to that position.

    Module-level (not a method) so pool workers rebuild tables through
    the *same* kernel the serial path runs.
    """
    keys = np.random.default_rng(seed).random(src.size)
    perm_flat = _permutation_order(keys, src, num_nodes).astype(np.int64)
    return perm_flat[rev]


def _instance_seed(entropy, index: int) -> np.random.SeedSequence:
    """The ``index``-th spawned child of the root ``SeedSequence``.

    ``SeedSequence(entropy, spawn_key=(i,))`` reconstructs
    ``root.spawn(n)[i]`` exactly, so workers can derive any instance's
    seed from the root entropy alone — no seed list crosses the process
    boundary.
    """
    return np.random.SeedSequence(entropy=entropy, spawn_key=(index,))


# ----------------------------------------------------------------------
# Stepping kernels (shared by the serial path and pool workers)
# ----------------------------------------------------------------------
#: Lazy selection runs when it is expected to sort fewer slots than this
#: fraction of the slots the full table builds would sort.  A sorted
#: segment slot costs about 1.8x a slot of a full build (more gathers
#: per slot); on physics1 at r = 214 the two paths break even near 0.75
#: (about 100 routes × 10 steps, or 9 routes × 80 steps).
LAZY_WORK_FRACTION: float = 0.6


def lazy_selection_pays(
    routes: int,
    steps: int,
    visited_degree: float,
    num_slots: int,
    builds: int,
) -> bool:
    """Cost model: does lazy route selection beat building full tables?

    Lazy selection sorts the segment of every node a route visits:
    about ``routes × steps × visited_degree`` slots, where ``routes``
    counts every route of every instance and ``steps`` is the number of
    hops after the first; ``visited_degree`` is the mean degree at the
    head of a uniformly random arc, ``Σ deg² / 2m``, which is what a
    walk sees once it has left its start.  Full tables sort all
    ``num_slots`` slots of each of the ``builds`` instances whose table
    is not already built.  Both paths draw the same random keys, so
    that cost cancels out.
    """
    return routes * steps * visited_degree < LAZY_WORK_FRACTION * builds * num_slots


def _record_checkpoints(pos, lengths, out, advance, offsets=0) -> None:
    """Step ``pos`` with ``advance`` to ``lengths[-1]``, recording tails.

    ``pos`` is ``(b, nodes)``; ``out[:, :, c]`` receives
    ``(pos - offsets).T`` after ``lengths[c]`` hops (the first hop is
    ``pos`` itself).
    """
    col = 0
    for step in range(1, int(lengths[-1]) + 1):
        if step > 1:
            pos = advance(pos)
        if lengths[col] == step:
            out[:, :, col] = (pos - offsets).T
            col += 1


def _step_block_checkpoints(
    tables: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
) -> None:
    """Advance a block of instances through full ``next_slot`` tables.

    ``tables`` is ``(b, 2m)``, ``starts`` the ``(b, nodes)`` first hops
    and ``out`` the ``(nodes, b, len(lengths))`` output.  The tables are
    flattened into one offset array ``flat[i·2m + s] = i·2m +
    tables[i, s]`` so one gather advances every route of every instance
    in the block.  When the flattened index space fits in int32 the
    gather runs on int32 arrays — half the memory traffic on a
    DRAM-bound random gather, with identical integer values.
    """
    b, num_slots = tables.shape
    offsets = np.arange(b, dtype=np.int64)[:, None] * np.int64(num_slots)
    if b * num_slots <= np.iinfo(np.int32).max:
        # Produce the int32 working arrays directly from the add — no
        # int64 intermediate, halving the traffic of the block setup.
        flat = np.add(tables, offsets, dtype=np.int32).ravel()
        pos = np.add(starts, offsets, dtype=np.int32)
    else:
        flat = (tables + offsets).ravel()
        pos = starts + offsets
    _record_checkpoints(pos, lengths, out, flat.__getitem__, offsets)


def select_segment_exits(
    arcs: np.ndarray,
    key_offsets: np.ndarray,
    keys: np.ndarray,
    src: np.ndarray,
    rev: np.ndarray,
    indptr: np.ndarray,
) -> "tuple[np.ndarray, int]":
    """Next arc of each route, sorting only the node segments visited.

    A route standing on arc ``e`` sits at ``v = src[rev[e]]`` and leaves
    through the slot of ``v`` whose key ranks ``rev[e] − indptr[v]``
    in ``v``'s segment, ties broken by slot index — exactly
    ``perm_flat[rev[e]]`` of the full table.  Route ``j`` reads its keys
    at ``keys[key_offsets[j] + slot]``.  Every route's segment becomes
    one group, laid out in ascending slot order, and one
    :func:`_permutation_order` over ``(group, key)`` ranks every group
    at once, with its exact fallback for equal composites.  Returns the
    next arcs and the number of slots sorted.
    """
    entry = rev[arcs]
    node = src[entry]
    first = indptr[node]
    deg = indptr[node + 1] - first
    group_start = np.cumsum(deg) - deg
    group = np.repeat(np.arange(arcs.size, dtype=np.int64), deg)
    slots = np.arange(int(deg.sum()), dtype=np.int64) + (first - group_start)[group]
    order = _permutation_order(keys[key_offsets[group] + slots], group, arcs.size)
    return slots[order[group_start + entry - first]], int(slots.size)


def _step_block_lazy(
    keys: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
    src: np.ndarray,
    rev: np.ndarray,
    indptr: np.ndarray,
) -> int:
    """Advance a block of instances from their ``(b, 2m)`` random keys.

    Same contract as :func:`_step_block_checkpoints`, but no table is
    built: every step runs :func:`select_segment_exits` over all routes
    of all instances in the block.  Returns the slots sorted.
    """
    b, num_slots = keys.shape
    key_offsets = np.repeat(np.arange(b, dtype=np.int64) * np.int64(num_slots), starts.shape[1])
    flat_keys = keys.ravel()
    sorted_slots = 0

    def advance(pos):
        nonlocal sorted_slots
        nxt, count = select_segment_exits(pos.ravel(), key_offsets, flat_keys, src, rev, indptr)
        sorted_slots += count
        return nxt.reshape(pos.shape)

    _record_checkpoints(starts, lengths, out, advance)
    return sorted_slots


def advance_route_shard(
    src: np.ndarray,
    rev: np.ndarray,
    num_nodes: int,
    entropy,
    instance_lo: int,
    instance_hi: int,
    starts: np.ndarray,
    lengths: np.ndarray,
    block_size: Optional[int] = None,
    tables: Optional[dict] = None,
) -> np.ndarray:
    """Tails for instances ``[instance_lo, instance_hi)`` of one engine.

    ``starts`` holds the pre-drawn start slots for exactly this shard
    (``(hi - lo, nodes)``); instances are rebuilt from the root entropy
    via :func:`_instance_seed`, so the shard function is pure — pool
    workers and the serial path call the same code with the same inputs
    and produce the same bytes.  ``tables`` maps instance indices to
    already-built ``next_slot`` tables, which are reused, never rebuilt.
    Returns ``(nodes, hi - lo, len(lengths))``.

    :func:`lazy_selection_pays` picks the path: lazy selection
    (:func:`_step_block_lazy`, random keys only) for a few short
    routes, full tables (:func:`_step_block_checkpoints`) otherwise.
    Both give the same bytes.
    """
    tables = {} if tables is None else tables
    count = int(instance_hi) - int(instance_lo)
    num_slots = src.size
    out = np.empty((starts.shape[1], count, lengths.size), dtype=np.int64)
    degrees = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    lazy = lazy_selection_pays(
        starts.size,
        int(lengths[-1]) - 1,
        float(degrees @ degrees) / num_slots,
        num_slots,
        sum(1 for i in range(instance_lo, instance_hi) if i not in tables),
    )
    block = resolve_route_block_size(num_slots, count, block_size)
    rows = np.empty((min(block, count), num_slots), dtype=np.float64 if lazy else np.int64)
    telemetry = OBS.enabled
    if telemetry:
        OBS.add("sybil.routes.instances", count)
        OBS.observe("sybil.routes.block_instances", block)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        for i, row in zip(range(instance_lo + lo, instance_lo + hi), rows):
            if lazy:
                np.random.default_rng(_instance_seed(entropy, i)).random(out=row)
            else:
                table = tables.get(i)
                row[:] = (
                    table if table is not None
                    else build_instance_table(_instance_seed(entropy, i), src, rev, num_nodes)
                )
        if lazy:
            sorted_slots = _step_block_lazy(
                rows[: hi - lo], starts[lo:hi], lengths, out[:, lo:hi], src, rev, indptr
            )
        else:
            _step_block_checkpoints(rows[: hi - lo], starts[lo:hi], lengths, out[:, lo:hi])
        if telemetry:
            OBS.add("sybil.routes.blocks")
            if lazy:
                OBS.add("sybil.routes.lazy_instances", hi - lo)
                OBS.add("sybil.routes.segment_slots", sorted_slots)
            else:
                OBS.add("sybil.routes.gathers", int(lengths[-1]) - 1)
    return out


class RouteInstances:
    """``r`` independent random-route instances over one graph.

    Parameters
    ----------
    graph:
        The (combined) social graph.
    num_instances:
        ``r`` — SybilLimit uses ``r = r0 * sqrt(m)``; SybilGuard uses 1.
    seed:
        RNG seed; instances are deterministic given it.

    Notes
    -----
    Memory is ``O(r * 2m)`` int64 for the ``next_slot`` tables.  For the
    laptop-scale graphs used here (m ≤ ~2·10⁵, r ≤ ~10³) that is a few
    hundred MB at most; experiments that need many instances on larger
    graphs should stream instances with :meth:`single_instance` or let
    the blocked sweeps (:meth:`tails`, :meth:`tails_at_lengths`)
    materialise only one memory-budgeted block at a time.
    """

    def __init__(self, graph: Graph, num_instances: int, *, seed=None, cache_tables: bool = True):
        if num_instances < 1:
            raise RouteError("num_instances must be at least 1")
        if graph.num_edges == 0:
            raise RouteError("routes need at least one edge")
        self._graph = graph
        self._src = arc_sources(graph)
        self._rev = reverse_slots(graph)
        self._num_instances = int(num_instances)
        self._cache_tables = bool(cache_tables)
        # Instance i's seed is the root's i-th child (_instance_seed), so
        # tables are reproducible whether they are cached, regenerated on
        # demand, or rebuilt inside a pool worker from the entropy alone.
        root = np.random.SeedSequence(
            seed if isinstance(seed, (int, np.integer)) else as_rng(seed).integers(2**63)
        )
        self._entropy = root.entropy
        self._cache: dict = {}

    def _build_instance(self, index: int) -> np.ndarray:
        """One instance's ``next_slot`` permutation (fast exact kernel)."""
        return build_instance_table(
            _instance_seed(self._entropy, index), self._src, self._rev, self._graph.num_nodes
        )

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def num_instances(self) -> int:
        return self._num_instances

    def single_instance(self, index: int) -> np.ndarray:
        """The ``next_slot`` table of one instance (built lazily).

        With ``cache_tables=False`` the table is regenerated on each call
        (deterministically), trading CPU for O(2m) instead of O(r·2m)
        memory — the right trade at SybilLimit's r = Θ(√m).
        """
        if not 0 <= index < self._num_instances:
            raise IndexError(f"instance {index} out of range [0, {self._num_instances})")
        if index in self._cache:
            return self._cache[index]
        table = self._build_instance(index)
        if self._cache_tables:
            self._cache[index] = table
        return table

    # ------------------------------------------------------------------
    def start_slots(self, nodes: np.ndarray, *, seed=None) -> np.ndarray:
        """A uniformly random outgoing slot per node (routes' first hop)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        return self._first_hops(nodes, as_rng(seed), 1)[0]

    def _first_hops(self, nodes: np.ndarray, rng, rows: int) -> np.ndarray:
        """``rows`` successive :meth:`start_slots` draws as one
        ``(rows, nodes)`` array: the same doubles in the same order."""
        deg = self._graph.degrees[nodes]
        if np.any(deg == 0):
            raise RouteError("cannot start a route at an isolated node")
        offsets = (rng.random((rows, nodes.size)) * deg).astype(np.int64)
        return self._graph.indptr[nodes] + offsets

    def advance(self, slots: np.ndarray, steps: int, instance: int) -> np.ndarray:
        """Advance route positions ``steps`` arcs within one instance."""
        table = self.single_instance(instance)
        out = np.asarray(slots, dtype=np.int64).copy()
        for _ in range(max(0, steps)):
            out = table[out]
        return out

    def tails(
        self,
        nodes: np.ndarray,
        length: int,
        *,
        seed=None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """Tail arcs of every node's route in every instance.

        Each node starts one route per instance (independent random first
        hops) and follows it for ``length`` edges; the *tail* is the final
        directed arc.  Returns shape ``(len(nodes), r)`` of slot indices.

        ``length`` must be >= 1 (a route's tail is its last traversed
        edge, so a zero-length route has none).  ``policy.block_size``
        bounds the instances materialised at once; ``policy.workers``
        fans instance blocks out across the fork pool
        (bit-for-bit equal to the serial path, see module docstring).
        """
        if length < 1:
            raise RouteError("route length must be >= 1")
        tails = self.tails_at_lengths(
            nodes,
            np.asarray([length], dtype=np.int64),
            seed=seed,
            policy=policy,
        )
        return np.ascontiguousarray(tails[:, :, 0])

    def tails_at_lengths(
        self,
        nodes: np.ndarray,
        lengths: np.ndarray,
        *,
        seed=None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """Tails of every node's routes at several route lengths at once.

        ``lengths`` must be strictly increasing and >= 1.  Returns shape
        ``(len(nodes), r, len(lengths))``.  Within one block the walk is
        advanced incrementally, so the cost is one flat gather (or, for
        a few short routes, one lazy segment selection) per step per
        block rather than one python iteration per (instance, step) —
        this is what makes sweeping Figure 8's walk lengths cheap.

        The same first-hop randomness is reused across checkpoint lengths
        (tails at length w and w' come from the *same* route, truncated),
        matching how a deployment would extend its routes.  First hops
        are always drawn in instance order from one stream, so the
        result is independent of blocking and of the policy's
        ``block_size`` and ``workers`` — bit-for-bit.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0 or lengths[0] < 1 or np.any(np.diff(lengths) <= 0):
            raise RouteError("lengths must be strictly increasing and >= 1")
        policy = as_policy(policy)
        nodes = np.asarray(nodes, dtype=np.int64)
        rng = as_rng(seed)
        r = self._num_instances
        with OBS.span(
            "sybil.routes.tails_sweep",
            instances=r,
            nodes=int(nodes.size),
            checkpoints=int(lengths.size),
            max_length=int(lengths[-1]),
        ):
            # First hops are drawn for *all* instances up front, in
            # instance order — the exact stream the historical
            # per-instance loop consumed — so blocking and sharding
            # cannot perturb a single draw.
            starts = self._first_hops(nodes, rng, r)
            parallel = self._maybe_parallel_tails(starts, lengths, policy)
            if parallel is not None:
                return parallel
            # Reuse cached tables, but never *populate* the cache from a
            # sweep: retaining all r tables would cost O(r·2m) memory
            # for tables the sweep touches exactly once.
            return advance_route_shard(
                self._src, self._rev, self._graph.num_nodes, self._entropy,
                0, r, starts, lengths, policy.block_size, tables=self._cache,
            )

    def _maybe_parallel_tails(
        self,
        starts: np.ndarray,
        lengths: np.ndarray,
        policy: ExecutionPolicy,
    ) -> Optional[np.ndarray]:
        """Fan instance blocks out across the pool; ``None`` → serial."""
        from ..core.parallel import maybe_parallel_route_tails

        return maybe_parallel_route_tails(self, starts, lengths, policy=policy)

    def trajectories(
        self,
        start_slots: np.ndarray,
        length: int,
        instance: int = 0,
    ) -> np.ndarray:
        """Node sequences visited by routes from the given start arcs.

        Returns shape ``(len(start_slots), length + 1)``; column 0 is each
        route's source node, column ``t`` the node reached after ``t``
        edges.
        """
        if length < 1:
            raise RouteError("route length must be >= 1")
        slots = np.asarray(start_slots, dtype=np.int64)
        table = self.single_instance(instance)
        out = np.empty((slots.size, length + 1), dtype=np.int64)
        out[:, 0] = self._src[slots]
        current = slots.copy()
        out[:, 1] = self._graph.indices[current]
        for t in range(2, length + 1):
            current = table[current]
            out[:, t] = self._graph.indices[current]
        return out

    def undirected_edge_ids(self, slots: np.ndarray) -> np.ndarray:
        """Map arc slots to undirected edge ids (both directions equal).

        SybilLimit's intersection condition compares tails as *undirected*
        edges; this id is ``min(slot, rev[slot])``.
        """
        slots = np.asarray(slots, dtype=np.int64)
        return np.minimum(slots, self._rev[slots])

    # ------------------------------------------------------------------
    # Historical reference kernel (bench + equivalence tests only)
    # ------------------------------------------------------------------
    def _tails_at_lengths_reference(
        self,
        nodes: np.ndarray,
        lengths: np.ndarray,
        *,
        seed=None,
    ) -> np.ndarray:
        """The pre-blocking per-instance loop, kept verbatim as the
        equivalence oracle for :mod:`benchmarks.bench_route_engine` and
        the route-parallel test-suite.  Builds tables with ``np.lexsort``
        and advances one instance at a time — the exact code path the
        blocked kernels replaced, so "blocked == reference" is a real
        statement about the historical numbers, not a tautology.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0 or lengths[0] < 1 or np.any(np.diff(lengths) <= 0):
            raise RouteError("lengths must be strictly increasing and >= 1")
        nodes = np.asarray(nodes, dtype=np.int64)
        rng = as_rng(seed)
        out = np.empty((nodes.size, self._num_instances, lengths.size), dtype=np.int64)
        max_len = int(lengths[-1])
        for i in range(self._num_instances):
            table = self._build_instance_reference(i)
            slots = self.start_slots(nodes, seed=rng)
            col = 0
            for step in range(1, max_len + 1):
                if step > 1:
                    slots = table[slots]
                if col < lengths.size and lengths[col] == step:
                    out[:, i, col] = slots
                    col += 1
        return out

    def _build_instance_reference(self, index: int) -> np.ndarray:
        """Table construction via ``np.lexsort`` (the historical kernel)."""
        keys = np.random.default_rng(_instance_seed(self._entropy, index)).random(self._src.size)
        perm_flat = np.lexsort((keys, self._src)).astype(np.int64)
        return perm_flat[self._rev]
