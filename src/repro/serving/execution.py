"""Asynchronous bounded-query execution for the serving layer.

The offline simulator executes bounded aggregates with a *blocking*
``fetch_exact`` callback (:mod:`repro.queries.refresh_selection`).  The
server cannot block: a query-initiated refresh is an RPC to the owning
feeder connection, awaited on the event loop while other connections make
progress.  This module is the asynchronous *driver* over the shared
generator core (:func:`~repro.queries.refresh_selection.bounded_query_steps`)
— the selection logic, validation, AVG scaling and result assembly live in
exactly one place, so an online query refreshes exactly the keys — in
exactly the order — the offline simulator would.  That property is what the
deterministic load generator's equivalence test pins.

The driver awaits one ``fetch_batch(keys) -> values`` call per batch the
core yields: a SUM/AVG query's whole selection at once (the server sends
those refresh RPCs together), a MAX/MIN query's victims one at a time.
"""

from __future__ import annotations

import math
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Sequence

from repro.intervals.interval import Interval
from repro.queries.aggregates import (
    AggregateKind,
    aggregate_bound,
    max_bound,
    min_bound,
    sum_bound,
)
from repro.queries.refresh_selection import QueryExecution, bounded_query_steps

#: ``fetch_batch(keys)`` — refresh every key of one batch and return their
#: exact values in the same order.
AsyncFetchBatch = Callable[[List[Hashable]], Awaitable[List[float]]]

#: ``degrade(key, snapshot_interval)`` — the honest widened bound for a key
#: whose owner is down (the server's mirror-drift model; the gateway's
#: partition-reported interval).
DegradeFn = Callable[[Hashable, Interval], Interval]


def merge_aggregate_bounds(
    kind: AggregateKind,
    partials: Sequence[Interval],
    counts: Optional[Sequence[int]] = None,
) -> Interval:
    """Merge per-partition partial bounds into the global aggregate bound.

    SUM, MAX, MIN and AVG are decomposable, so the merge is O(partials):

    * ``SUM`` — the interval sum of the partial SUM bounds;
    * ``MAX`` — ``[max of partial lows, max of partial highs]``;
    * ``MIN`` — ``[min of partial lows, min of partial highs]``;
    * ``AVG`` — partials are *SUM* bounds; the merge divides their interval
      sum by the total contributing count, because the mean of partial
      means is not the global mean.

    ``counts`` gives the number of contributing values per partial and is
    required for ``AVG``.  The merge adds partials in the given order;
    interval addition of SUM partials reassociates float additions, so a
    merged SUM bound can differ from a single flat summation by float
    rounding — paths that must stay byte-identical aggregate over the flat
    per-key intervals and use this merge only for genuinely split answers.
    """
    if not partials:
        raise ValueError("merging aggregate bounds requires at least one partial")
    if kind is AggregateKind.SUM:
        return sum_bound(list(partials))
    if kind is AggregateKind.MAX:
        return max_bound(list(partials))
    if kind is AggregateKind.MIN:
        return min_bound(list(partials))
    if kind is AggregateKind.AVG:
        if counts is None:
            raise ValueError("AVG merges need the per-partial contribution counts")
        if len(counts) != len(partials):
            raise ValueError("counts must parallel the partial bounds")
        total = sum(counts)
        if not total >= 1:
            raise ValueError("AVG merges need at least one contributing value")
        return sum_bound(list(partials)).scale(1.0 / total)
    raise ValueError(f"unsupported aggregate kind: {kind!r}")


async def execute_bounded_query_async(
    kind: AggregateKind,
    intervals: Dict[Hashable, Interval],
    constraint: float,
    fetch_batch: AsyncFetchBatch,
) -> QueryExecution:
    """Async twin of :func:`repro.queries.refresh_selection.execute_bounded_query`.

    Same result; ``fetch_batch`` is awaited once per batch of refreshes
    (the serving layer's refresh RPCs).  Every refresh *choice* is made by
    the shared generator core between awaits.
    """
    steps = bounded_query_steps(kind, intervals, constraint)
    try:
        batch = next(steps)
        while True:
            batch = steps.send(await fetch_batch(batch))
    except StopIteration as stop:
        return stop.value


async def execute_partitioned_query(
    kind: AggregateKind,
    keys: Sequence[Hashable],
    intervals: Dict[Hashable, Interval],
    constraint: float,
    degraded: Sequence[Hashable],
    degrade: DegradeFn,
    fetch_batch: AsyncFetchBatch,
) -> Interval:
    """One selection pass; degraded keys answer from widened snapshots.

    The shared core of :meth:`CacheServer._execute_query` and the gateway's
    fan-out query path.  The fast path (no degraded keys) is byte-for-byte
    the original single-cache selection, which is what keeps zero-fault
    replays bit-identical to the offline simulator — at the gateway too,
    since the interval dict there is assembled in query key order from the
    partitions' snapshots and this function never reassociates the live
    keys' float arithmetic.  With degraded keys, the refresh selection runs
    over the *live* keys only, against the precision budget left after the
    down keys' fixed widened intervals are accounted for, and the partial
    bounds merge through :func:`merge_aggregate_bounds`.  Degraded keys
    never refresh and never charge
    costs — their intervals are an honest read-only estimate from
    ``degrade``.

    ``fetch_batch`` may raise (the server's ``_FeederLost``; the gateway's
    key-down signal) after completing a prefix of its batch — the caller
    catches, extends ``degraded`` and re-runs.
    """
    if not degraded:
        execution = await execute_bounded_query_async(
            kind, dict(intervals), constraint, fetch_batch
        )
        return execution.result_bound
    down_set = set(degraded)
    down_intervals: List[Interval] = [
        degrade(key, intervals[key]) for key in keys if key in down_set
    ]
    live = {key: intervals[key] for key in keys if key not in down_set}
    if kind is AggregateKind.AVG:
        down_partial = sum_bound(down_intervals)
    else:
        down_partial = aggregate_bound(kind, down_intervals)
    if not live:
        return merge_aggregate_bounds(
            kind, [down_partial], counts=[len(down_intervals)]
        )
    if kind in (AggregateKind.SUM, AggregateKind.AVG):
        # SUM-space budget: what the live keys may jointly spend after
        # the down keys' width is taken off the top.  An already-blown
        # budget (infinite down width) keeps the original budget rather
        # than refreshing every live key for a constraint that cannot
        # be met anyway.
        budget = constraint if kind is AggregateKind.SUM else constraint * len(keys)
        down_width = down_partial.width
        if math.isinf(down_width):
            live_constraint = budget
        else:
            live_constraint = max(0.0, budget - down_width)
        selection_kind = AggregateKind.SUM
    else:
        # MAX/MIN widths do not add; the live sub-selection keeps the
        # original constraint and the merge can only widen the result.
        live_constraint = constraint
        selection_kind = kind
    execution = await execute_bounded_query_async(
        selection_kind, live, live_constraint, fetch_batch
    )
    return merge_aggregate_bounds(
        kind,
        [execution.result_bound, down_partial],
        counts=[len(live), len(down_intervals)],
    )
