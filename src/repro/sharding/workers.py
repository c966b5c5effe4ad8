"""Truly concurrent shard workers: per-shard sub-simulations in processes.

``SimulationConfig.shards`` alone keeps the sharded topology a *routing*
layer: one process walks the whole event timeline and the coordinator merely
forwards each cache operation to the owning shard.  This module turns the
topology into real parallel execution (``SimulationConfig.shard_workers``,
CLI ``--shard-workers``): sources are partitioned by their owning shard
(:func:`~repro.sharding.partition.stable_key_hash`), every worker process
runs the batch-kernel sub-simulation of the shards it owns, and the merged
per-shard :class:`~repro.caching.cache.CacheStatistics` / metrics reproduce
the in-process run.

**How the decomposition stays exact.**  Update processing is per-source:
a value-initiated refresh touches only its own source, its own per-key policy
controller and its owning shard's cache, so the shards' update phases run
independently between query ticks.  Queries are the coupling points — which
keys a bounded query refreshes depends on the cached intervals of *all* its
keys, across shards — so workers synchronise at every query tick: each
worker replays the global query workload (the workload RNG is seeded from
the config and draws independently of simulation state, so every worker
generates the identical query sequence), writes the ``(interval, exact
value)`` rows of its owned queried keys into its plane of a shared-memory
:class:`ExchangeArray`, waits for the coordinator to gather the merged rows,
and runs the *same* refresh-selection logic over them — performing real
refreshes for its own keys and substituting the exchanged exact values for
remote ones.  Refresh selection depends only on the intervals and exact
values (:mod:`repro.queries.refresh_selection`), which the merged rows
carry, so every worker derives the identical refresh sequence and applies
exactly its own slice of it.  The worker pipes carry only constant-size
control tokens.

**Decomposability conditions.**  The merged run is bit-identical to the
in-process sharded run when per-key state is all the policy carries.  The
adaptive policies share one RNG across per-key controllers, drawing once per
refresh in *global* refresh order; per-shard replay reorders those draws, so
exactness additionally requires the draws to be outcome-independent —
growth/shrink probabilities of exactly 0 or 1, i.e. the paper's ``rho = 1``
configurations (or ``adaptivity = 0``).  Runs outside these conditions
complete but may diverge from the serial run in the probabilistic width
adjustments; a :class:`RuntimeWarning` flags them.  Cross-key policy state
(e.g. read observers that correlate keys) is likewise outside the contract.

Aggregate metrics merge exactly: refresh costs are per-event constants whose
partial sums are associative for the paper's cost values, counts are
integers, and per-shard cache statistics fold through the same rollup the
coordinator uses (:func:`~repro.sharding.coordinator.merge_cache_statistics`).
"""

from __future__ import annotations

import math
import pickle
import traceback
import warnings
from multiprocessing import shared_memory
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.caching.cache import CacheStatistics
from repro.caching.columnar import _reconstruct_interval
from repro.caching.eviction import EvictionPolicy
from repro.caching.policies.base import PrecisionPolicy
from repro.data.streams import UpdateStream
from repro.experiments.runner import WorkerHandle, persistent_worker_pool
from repro.intervals.interval import UNBOUNDED, Interval
from repro.obs.metrics import REGISTRY
from repro.queries.aggregates import AggregateKind
from repro.queries.refresh_selection import (
    run_query_refreshes,
    select_sum_refreshes_columnar,
)
from repro.queries.workload import Query
from repro.sharding.coordinator import merge_cache_statistics
from repro.sharding.partition import stable_key_hash
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import HORIZON_TOLERANCE
from repro.simulation.metrics import SimulationResult
from repro.simulation.simulator import CacheSimulation

#: One (interval, exact value) exchange entry per owned queried key.
ExchangeEntry = Tuple[Interval, float]


# Exchange-traffic metrics (the old bespoke ``ExchangeMeter``, absorbed by
# ``repro.obs``).  Disabled with the process registry — the hot loop gates
# the pickling measurement on one ``REGISTRY.enabled`` check, exactly the
# discipline the meter's ``enabled`` flag enforced — and read back the same
# headline figure: pickle bytes per query tick, which stays constant across
# query fan-outs because the rows ride shared memory.
_EXCHANGE_BYTES = REGISTRY.counter(
    "repro_exchange_bytes_pickled_total",
    "Bytes the exchange coordinator pickles through control pipes.",
)
_EXCHANGE_MESSAGES = REGISTRY.counter(
    "repro_exchange_messages_total",
    "Control messages the exchange coordinator sends or receives.",
)
_EXCHANGE_TICKS = REGISTRY.counter(
    "repro_exchange_ticks_total",
    "Query ticks the exchange coordinator has driven.",
)


def _record_exchange(payload: Any, count: int = 1) -> None:
    """Charge ``payload``'s pickled size ``count`` times (callers gate on
    ``REGISTRY.enabled`` so the pickling is never paid when nobody looks)."""
    _EXCHANGE_BYTES.inc(
        len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) * count
    )
    _EXCHANGE_MESSAGES.inc(count)


#: Below this query fan-out the exchange's numpy paths (fancy-indexed encode
#: and the coordinator's gather) fall back to scalar loops: the vectorised
#: forms pay a fixed setup cost that only amortises across enough rows.
#: Sized like the columnar core's hybrid scan limit — the paper's workloads
#: query 10 values, comfortably inside the scalar regime; the 100-host
#: exchange benchmarks sit well above it.
_SCALAR_FANOUT_LIMIT = 16


class ExchangeArray:
    """The shard exchange's shared-memory block: one float64 plane per party.

    Shape ``(workers + 1, rows, 3)``: plane ``w`` carries worker ``w``'s
    owned rows for the current tick, the last plane carries the
    coordinator's merged rows.  A row is ``[interval low, interval high,
    exact value]`` for one position of the tick's query — both sides
    regenerate the identical query sequence from the config seed, so a row's
    position *is* its key and no keys ever cross the wire.  Unpublished
    entries are the ``(-inf, +inf)`` unbounded encoding.

    Lifecycle: the coordinator creates (and finally unlinks) the segment
    before spawning the pool; workers attach by name — the name travels in
    the worker's spawn arguments, so a supervisor restart re-attaches the
    replacement process automatically — and close their mapping on exit.
    Worker attaches re-register the name with the resource tracker (a 3.11
    quirk; ``track=False`` arrives in 3.13), which is harmless here: the
    tracker process is shared across the fork tree and its cache is a set,
    so the duplicate registrations collapse and the creator's ``unlink``
    clears the single entry.  Workers must *not* unregister on their own —
    that would strip the creator's registration from the shared tracker and
    leave the final unlink complaining about an unknown name.
    """

    __slots__ = ("array", "name", "_shm")

    def __init__(self, workers: int, rows: int, name: Optional[str] = None) -> None:
        shape = (workers + 1, max(1, rows), 3)
        size = int(np.prod(shape)) * np.dtype(np.float64).itemsize
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self.array = np.ndarray(shape, dtype=np.float64, buffer=self._shm.buf)
        self.name = self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (workers and coordinator)."""
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (creator only)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ShmWorkerExchange:
    """One worker's encode/decode view of the :class:`ExchangeArray`."""

    __slots__ = ("_array", "_plane")

    def __init__(self, exchange: ExchangeArray, plane: int) -> None:
        self._array = exchange.array
        self._plane = plane

    def write_tick(self, query: Query, local: Dict[Hashable, ExchangeEntry]) -> None:
        """Encode the owned entries of one tick at the query's positions."""
        positions: List[int] = []
        encoded: List[Tuple[float, float, float]] = []
        get = local.get
        for position, key in enumerate(query.keys):
            entry = get(key)
            if entry is not None:
                interval, value = entry
                positions.append(position)
                encoded.append((interval.low, interval.high, value))
        if not positions:
            return
        rows = self._array[self._plane]
        if len(positions) < _SCALAR_FANOUT_LIMIT:
            # Small fan-out: per-row stores beat the fancy-indexing setup.
            for position, row in zip(positions, encoded):
                rows[position] = row
        else:
            rows[positions] = encoded

    def merged_rows(self) -> np.ndarray:
        """The coordinator's merged rows, as a live view.

        Safe to read without copying: the strict per-tick alternation means
        the coordinator never rewrites the merged plane until this worker
        sends its next exchange message.
        """
        return self._array[-1]

    def read_merged(
        self, query: Query, local: Dict[Hashable, ExchangeEntry]
    ) -> Dict[Hashable, ExchangeEntry]:
        """Decode the coordinator's merged rows back into the exchange map.

        ``local`` — the worker's own owned entries for this tick — is a
        decode shortcut: the merged rows for those keys are the float64
        image of exactly these pairs (the worker wrote them, the coordinator
        copied them), so reusing the live objects skips their ``Interval``
        reconstruction without changing a single bit.
        """
        # ``tolist()`` converts the plane in one C pass; per-element float()
        # on numpy scalars is several times slower at query fan-out sizes.
        rows = self._array[-1].tolist()
        merged: Dict[Hashable, ExchangeEntry] = {}
        for position, key in enumerate(query.keys):
            entry = local.get(key)
            if entry is None:
                low, high, value = rows[position]
                entry = (_reconstruct_interval(low, high), value)
            merged[key] = entry
        return merged


#: How many times one shard worker may be restarted before the run fails.
#: A worker that keeps dying is deterministic about it (the replay is), so
#: more attempts would only loop.
MAX_WORKER_RESTARTS = 2


class _ExchangeSupervisor:
    """Keeps the shard-worker exchange alive across worker deaths.

    Every reply the coordinator broadcasts (the only inbound messages a
    worker ever consumes) is journaled.  When a worker dies — EOF on
    receive, broken pipe on send — a fresh process is started with the same
    target and the journal is replayed to it: the worker deterministically
    re-runs from the beginning, re-sending the same tick tokens (received
    and discarded) and receiving the recorded replies, until it stands
    exactly where its peers are.  This is snapshot-free state resync: a
    worker's state is a pure function of its (config, sources, replies)
    inputs, which is the same determinism the equivalence tests pin.  A
    worker that dies more than :data:`MAX_WORKER_RESTARTS` times fails the
    run.
    """

    def __init__(self, handles: Sequence[WorkerHandle], grace: float = 5.0) -> None:
        self._handles = handles
        self._journal: List[Callable[[], Dict[Hashable, ExchangeEntry]]] = []
        self._grace = grace

    def receive(self, handle: WorkerHandle) -> Tuple[str, Any]:
        """Receive one worker message, restarting the worker on EOF."""
        while True:
            try:
                tag, payload = handle.recv()
            except (EOFError, OSError):
                self._resync(handle, "died mid-exchange")
                continue
            if tag == "error":
                raise RuntimeError(f"shard worker failed:\n{payload}")
            return tag, payload

    def broadcast(
        self, journal_entry: Callable[[], Dict[Hashable, ExchangeEntry]]
    ) -> None:
        """Journal one tick and send every worker the ``None`` "rows ready" token.

        The token's payload lives in the exchange array, which the next tick
        overwrites, so the token alone could never be replayed.
        ``journal_entry`` is a zero-argument callable producing the tick's
        merged map instead, materialised only if a resync actually happens
        (keeping the hot path copy-light).
        """
        self._journal.append(journal_entry)
        for handle in self._handles:
            try:
                handle.send(None)
            except (BrokenPipeError, OSError):
                # The replay below covers the just-journaled reply too.
                self._resync(handle, "died before receiving a reply")

    def _resync(self, handle: WorkerHandle, reason: str) -> None:
        if handle.restarts >= MAX_WORKER_RESTARTS:
            # Imported lazily: the sharding layer must not depend on the
            # serving package at import time.
            from repro.serving.errors import SupervisionExhausted

            raise SupervisionExhausted(
                f"shard worker {handle.index} died {handle.restarts + 1} times; "
                "giving up (its failure replays deterministically)",
                index=handle.index,
                crashes={h.index: h.restarts for h in self._handles},
            )
        warnings.warn(
            f"shard worker {handle.index} {reason}; restarting and replaying "
            f"{len(self._journal)} exchange replies",
            RuntimeWarning,
            stacklevel=4,
        )
        handle.restart(grace=self._grace)
        for entry in self._journal:
            try:
                tag, payload = handle.recv()
            except (EOFError, OSError):
                # Died again mid-replay; recurse (bounded by the restart cap).
                return self._resync(handle, "died again during resync replay")
            if tag == "error":
                raise RuntimeError(f"shard worker failed during resync:\n{payload}")
            # The replayed worker receives the materialised merged map, so
            # resync never depends on overwritten exchange planes.
            handle.send(entry())


class PrebuiltStream(UpdateStream):
    """An update stream replaying an already-materialised schedule.

    Workers receive their sources' timelines (drawn once in the parent)
    instead of stream objects, so the sub-simulation replays exactly the
    parent's draws without re-deriving per-stream randomness.
    """

    def __init__(
        self, initial_value: float, timeline: Sequence[Tuple[float, float]]
    ) -> None:
        self._initial = initial_value
        self._timeline = list(timeline)

    @property
    def initial_value(self) -> float:
        return self._initial

    def schedule(self, duration: float) -> List[Tuple[float, float]]:
        return list(self._timeline)


class ShardWorkerSimulation(CacheSimulation):
    """One worker's sub-simulation: owned sources, global query workload.

    Extends :class:`CacheSimulation` in exactly two places: the query
    workload is built over the *full* key population (``workload_keys`` —
    every worker replays the global query sequence, since workload
    randomness never depends on simulation state), and query execution
    exchanges owned ``(interval, exact value)`` pairs through ``exchange``
    (synchronised by tokens on ``channel``) before running the shared
    refresh selection (see the module docstring).
    """

    def __init__(
        self,
        config: SimulationConfig,
        streams: Mapping[Hashable, UpdateStream],
        policy: PrecisionPolicy,
        eviction_policy: Optional[EvictionPolicy],
        workload_keys: Sequence[Hashable],
        channel: Any,
        exchange: ShmWorkerExchange,
    ) -> None:
        super().__init__(
            config, streams, policy, eviction_policy, workload_keys=workload_keys
        )
        self._owned = frozenset(streams.keys())
        self._channel = channel
        self._exchange = exchange

    def _select_and_refresh(
        self,
        query: Query,
        time: float,
        merged: Dict[Hashable, ExchangeEntry],
    ) -> None:
        """Run the shared refresh selection over the merged exchange map."""
        # Build the interval mapping in query-key order: refresh selection
        # breaks width ties by mapping position, which must match the
        # in-process run's ordering.
        owned = self._owned
        intervals = {key: merged[key][0] for key in query.keys}

        def fetch_exact(key: Hashable) -> float:
            if key in owned:
                return self._query_initiated_refresh(key, time)
            return merged[key][1]

        run_query_refreshes(query.kind, intervals, query.constraint, fetch_exact)

    def _select_and_refresh_rows(
        self, query: Query, time: float, local: Dict[Hashable, ExchangeEntry]
    ) -> None:
        """Run refresh selection straight off the merged exchange rows.

        SUM/AVG selection (:func:`select_sum_refreshes_columnar`) needs only
        the interval widths — which are one vectorised subtraction over the
        merged plane — and ``run_query_refreshes`` discards the fetched
        values on that path, so remote fetches are no-ops and the merged
        dict never needs to be materialised.  The width array is the float64
        image of exactly the widths the decoded intervals would carry
        (``high - low`` on identical operands), so the selected keys — and
        therefore every owned refresh and policy draw — are bit-identical to
        the decoded path, which MAX/MIN still takes.
        """
        constraint = query.constraint
        if math.isinf(constraint):
            return
        kind = query.kind
        exchange = self._exchange
        if kind is AggregateKind.SUM or kind is AggregateKind.AVG:
            rows = exchange.merged_rows()
            widths = rows[:, 1] - rows[:, 0]
            limit = (
                constraint * len(query.keys)
                if kind is AggregateKind.AVG
                else constraint
            )
            owned = self._owned
            for key in select_sum_refreshes_columnar(query.keys, widths, limit):
                if key in owned:
                    self._query_initiated_refresh(key, time)
            return
        self._select_and_refresh(query, time, exchange.read_merged(query, local))

    def _run_query(self, time: float) -> None:
        query = self._workload.generate(time)
        self._metrics.record_query(time)
        constraint = query.constraint
        owned = self._owned
        cache_get = self._cache.get
        sources = self._sources
        local: Dict[Hashable, ExchangeEntry] = {}
        if self._policy_observes_reads:
            record_read = self._policy.record_read
            record_constraint = self._policy.record_constraint
            for key in query.keys:
                if key in owned:
                    entry = cache_get(key, time)
                    local[key] = (
                        entry.interval if entry is not None else UNBOUNDED,
                        sources[key].value,
                    )
                    record_read(key, time, served_from_cache=entry is not None)
                    record_constraint(key, constraint, time)
        else:
            for key in query.keys:
                if key in owned:
                    # The workload lookup — the only stats-counted cache
                    # access, exactly one per owned queried key, as in the
                    # in-process run.
                    entry = cache_get(key, time)
                    local[key] = (
                        entry.interval if entry is not None else UNBOUNDED,
                        sources[key].value,
                    )
        self._exchange.write_tick(query, local)
        channel = self._channel
        channel.send(("tick", None))
        reply = channel.recv()
        if reply is None:
            self._select_and_refresh_rows(query, time, local)
        else:
            # Resync replay: the supervisor re-sent the materialised map.
            self._select_and_refresh(query, time, reply)

    def run_worker(self) -> Dict[str, Any]:
        """Run the sub-simulation and return the mergeable partial payload."""
        if self._ran:
            raise RuntimeError("a worker sub-simulation can only run once")
        self._ran = True
        processed = self._execute()
        result = self._metrics.finalize(
            end_time=self._config.duration,
            final_widths=self._collect_final_widths(),
            cache_hit_rate=self._cache.statistics.hit_rate,
            shard_hit_rates=(),
            events_processed=processed,
        )
        return {
            "result": result,
            # The worker's coordinator instantiates every shard (routing by
            # global shard id); unowned shards simply stay empty, so their
            # zero statistics merge as no-ops.
            "shard_statistics": tuple(self._cache.shard_statistics),
        }


def _worker_main(
    channel: Any,
    config: SimulationConfig,
    sources: Dict[Hashable, Tuple[float, Sequence[Tuple[float, float]]]],
    policy: PrecisionPolicy,
    eviction_policy: Optional[EvictionPolicy],
    workload_keys: Sequence[Hashable],
    exchange_spec: Tuple[str, int, int, int],
) -> None:
    """Worker process entry point: run the sub-simulation, report, exit.

    ``exchange_spec`` — ``(segment name, workers, rows, plane)`` — attaches
    the shared-memory exchange; it rides the spawn arguments, so a
    supervisor restart re-attaches the replacement process to the same
    segment with no extra negotiation.
    """
    exchange_array: Optional[ExchangeArray] = None
    try:
        streams = {
            key: PrebuiltStream(initial_value, timeline)
            for key, (initial_value, timeline) in sources.items()
        }
        name, workers, rows, plane = exchange_spec
        exchange_array = ExchangeArray(workers, rows, name=name)
        simulation = ShardWorkerSimulation(
            config=config,
            streams=streams,
            policy=policy,
            eviction_policy=eviction_policy,
            workload_keys=workload_keys,
            channel=channel,
            exchange=ShmWorkerExchange(exchange_array, plane),
        )
        channel.send(("done", simulation.run_worker()))
    except BaseException:  # pragma: no cover - exercised via crash tests
        try:
            channel.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        if exchange_array is not None:
            exchange_array.close()
        channel.close()


def _check_decomposability(policy: PrecisionPolicy) -> None:
    """Warn when the policy's shared-RNG draws are outcome-dependent.

    Best effort: only policies exposing a ``parameters`` bundle with
    growth/shrink probabilities are inspected (the adaptive family).  Draws
    with probability exactly 0 or 1 never change an outcome, so reordering
    them across workers is invisible; anything in between makes the merged
    run diverge from the serial one in the probabilistic width adjustments.
    """
    parameters = getattr(policy, "parameters", None)
    growth = getattr(parameters, "growth_probability", None)
    shrink = getattr(parameters, "shrink_probability", None)
    adaptivity = getattr(parameters, "adaptivity", None)
    if growth is None or shrink is None:
        return
    if adaptivity == 0 or (growth in (0.0, 1.0) and shrink in (0.0, 1.0)):
        return
    rho = getattr(parameters, "cost_factor", math.nan)
    warnings.warn(
        "shard-worker execution reorders the policy's shared RNG draws; "
        f"policy parameters rho={rho:g}, adaptivity={adaptivity:g} give "
        f"growth/shrink probabilities ({growth:g}, {shrink:g}) not in "
        "{0, 1}, so the merged result may differ from the in-process run "
        "(exact for rho = 1 or adaptivity = 0)",
        RuntimeWarning,
        stacklevel=2,
    )


def run_concurrent_shards(
    config: SimulationConfig,
    timelines: Mapping[Hashable, Sequence[Tuple[float, float]]],
    initial_values: Mapping[Hashable, float],
    policy: PrecisionPolicy,
    eviction_policy: Optional[EvictionPolicy] = None,
) -> SimulationResult:
    """Execute a sharded simulation across ``config.shard_workers`` processes.

    Called by :meth:`CacheSimulation.run` when ``shard_workers > 1``: the
    parent has already materialised every source's timeline; this function
    partitions them by owning shard, fans the sub-simulations out through
    :func:`repro.experiments.runner.persistent_worker_pool`, coordinates the
    per-query-tick interval exchange, and merges the per-worker payloads
    into one :class:`SimulationResult` equal to the in-process run's (under
    the decomposability conditions in the module docstring).
    """
    if config.shards < 2 or config.shard_workers < 2:
        raise ValueError("run_concurrent_shards requires shards > 1 and workers > 1")
    _check_decomposability(policy)
    shard_count = config.shards
    worker_count = min(config.shard_workers, shard_count)
    keys = list(timelines)
    shard_of = {key: stable_key_hash(key) % shard_count for key in keys}

    # Shard s is owned by worker s % worker_count; workers owning no source
    # are never spawned (their shards hold no keys, so no query can touch
    # them — their statistics merge below as empty).
    keys_by_worker: List[List[Hashable]] = [[] for _ in range(worker_count)]
    for key in keys:
        keys_by_worker[shard_of[key] % worker_count].append(key)
    populated = [index for index in range(worker_count) if keys_by_worker[index]]

    # One ExchangeArray created (and finally unlinked) here, attached by
    # every worker via its spawn arguments.  Row positions are query
    # positions, so the planes are sized by the workload's fixed query
    # fan-out — which the workload clamps to the key population, so the row
    # count is the *effective* query size, constant across ticks.
    row_count = min(config.query_size, len(keys))
    exchange = ExchangeArray(len(populated), row_count)
    plane_index = {worker: plane for plane, worker in enumerate(populated)}
    plane_of_key = {key: plane_index[shard_of[key] % worker_count] for key in keys}

    worker_config = config.with_changes(shard_workers=0)
    targets = []
    for index in populated:
        owned_keys = keys_by_worker[index]
        owned_set = set(owned_keys)
        sources = {key: (initial_values[key], timelines[key]) for key in owned_keys}
        targets.append(
            (
                _worker_main,
                (
                    worker_config.with_changes(
                        track_keys=tuple(
                            key for key in config.track_keys if key in owned_set
                        )
                    ),
                    sources,
                    policy,
                    eviction_policy,
                    keys,
                    (exchange.name, len(populated), row_count, plane_index[index]),
                ),
            )
        )

    horizon = config.duration + HORIZON_TOLERANCE
    payloads: List[Dict[str, Any]] = []
    try:
        with persistent_worker_pool(targets) as handles:
            supervisor = _ExchangeSupervisor(handles)
            ticks = _tick_exchange_loop(
                config, handles, keys, horizon, supervisor, exchange, plane_of_key
            )
            for handle in handles:
                tag, payload = supervisor.receive(handle)
                payloads.append(payload)
    finally:
        exchange.close()
        exchange.unlink()

    return _merge_payloads(config, payloads, populated, worker_count, ticks)


def _make_gather(planes: np.ndarray, query_size: int) -> Callable[[List[int]], None]:
    """Build the coordinator's merge: worker planes -> the merged plane.

    Returns ``gather(owners)`` copying row ``p`` of worker plane
    ``owners[p]`` into the merged plane's row ``p``.  One fancy-indexed copy
    at real fan-outs; a scalar row loop below :data:`_SCALAR_FANOUT_LIMIT`,
    where the fancy-indexing setup dominates.
    """
    merged_rows = planes[-1]
    if query_size < _SCALAR_FANOUT_LIMIT:

        def gather(owners: List[int]) -> None:
            for position, owner in enumerate(owners):
                merged_rows[position] = planes[owner, position]

    else:
        positions = np.arange(query_size)

        def gather(owners: List[int]) -> None:
            merged_rows[:] = planes[owners, positions]

    return gather


def _rows_to_map(
    keys: Sequence[Hashable], rows: np.ndarray
) -> Dict[Hashable, ExchangeEntry]:
    """Decode exchange rows into the merged ``key -> (interval, value)`` map."""
    return {
        key: (
            _reconstruct_interval(float(rows[position, 0]), float(rows[position, 1])),
            float(rows[position, 2]),
        )
        for position, key in enumerate(keys)
    }


def _journal_rows(
    keys: Tuple[Hashable, ...], rows: np.ndarray
) -> Callable[[], Dict[Hashable, ExchangeEntry]]:
    """Journal entry for a tick reply: copies now, materialises on resync."""
    snapshot = rows.copy()

    def materialise() -> Dict[Hashable, ExchangeEntry]:
        return _rows_to_map(keys, snapshot)

    return materialise


def _tick_exchange_loop(
    config: SimulationConfig,
    handles: Sequence[WorkerHandle],
    keys: Sequence[Hashable],
    horizon: float,
    supervisor: _ExchangeSupervisor,
    exchange: ExchangeArray,
    plane_of_key: Dict[Hashable, int],
) -> int:
    """The coordinator loop: one merge-and-broadcast per query tick.

    Waits for every worker's tick token, regenerates the tick's query (both
    sides draw the identical sequence from the config seed), gathers each
    position's row from its owning worker's plane into the merged plane, and
    broadcasts a constant-size ``None`` token.
    """
    registry = REGISTRY
    workload = config.build_workload(keys)
    planes = exchange.array
    merged_rows = planes[-1]
    gather = _make_gather(planes, workload.query_size)
    query_time = config.query_period
    ticks = 0
    while query_time <= horizon:
        for handle in handles:
            tag, payload = supervisor.receive(handle)
            if registry.enabled:
                _record_exchange((tag, payload))
        query = workload.generate(query_time)
        gather([plane_of_key[key] for key in query.keys])
        supervisor.broadcast(_journal_rows(query.keys, merged_rows))
        if registry.enabled:
            _record_exchange(None, count=len(handles))
            _EXCHANGE_TICKS.inc()
        ticks += 1
        query_time += config.query_period
    return ticks


def _merge_payloads(
    config: SimulationConfig,
    payloads: List[Dict[str, Any]],
    populated: List[int],
    worker_count: int,
    ticks: int,
) -> SimulationResult:
    """Fold per-worker payloads into the run's single :class:`SimulationResult`."""
    results: List[SimulationResult] = [payload["result"] for payload in payloads]
    shard_count = config.shards

    # Per-shard statistics: each shard is owned by exactly one worker; take
    # its live counters from that worker (zero stats for shards whose owner
    # held no sources and was never spawned).
    owner_payload = {index: payload for index, payload in zip(populated, payloads)}
    per_shard: List[CacheStatistics] = []
    for shard in range(shard_count):
        payload = owner_payload.get(shard % worker_count)
        per_shard.append(
            payload["shard_statistics"][shard] if payload else CacheStatistics()
        )
    merged_stats = merge_cache_statistics(per_shard)

    duration = config.duration - config.warmup
    total_cost = sum(result.total_cost for result in results)
    value_refresh_count = sum(result.value_refresh_count for result in results)
    query_refresh_count = sum(result.query_refresh_count for result in results)
    query_counts = {result.query_count for result in results}
    if len(query_counts) > 1:
        raise RuntimeError(
            f"shard workers disagree on the query count: {sorted(query_counts)}"
        )
    query_count = query_counts.pop()

    interval_samples: Dict[Hashable, List] = {}
    for key in config.track_keys:
        for result in results:
            if key in result.interval_samples:
                interval_samples[key] = result.interval_samples[key]
                break
        else:
            interval_samples[key] = []
    final_widths: Dict[Hashable, float] = {}
    for result in results:
        final_widths.update(result.final_widths)

    # Every worker executed all ``ticks`` query events; count them once.
    events_processed = sum(result.events_processed for result in results) - (
        len(results) - 1
    ) * ticks

    return SimulationResult(
        cost_rate=total_cost / duration,
        duration=duration,
        value_refresh_count=value_refresh_count,
        query_refresh_count=query_refresh_count,
        value_refresh_rate=value_refresh_count / duration,
        query_refresh_rate=query_refresh_count / duration,
        total_cost=total_cost,
        query_count=query_count,
        interval_samples=interval_samples,
        final_widths=final_widths,
        cache_hit_rate=merged_stats.hit_rate,
        shard_hit_rates=tuple(stats.hit_rate for stats in per_shard),
        events_processed=events_processed,
    )
