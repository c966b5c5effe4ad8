"""Choosing which approximations a query must refresh (OW00-style).

A bounded-aggregate query over cached intervals succeeds immediately when the
width of its result bound is within the query's precision constraint
``delta``.  Otherwise, some of the contributing intervals must be refreshed
(their exact values fetched from the sources, each at cost ``C_qr``) until the
constraint holds.  After a refresh the contributing interval is exact, so its
contribution to the result width vanishes.

Two selection strategies are implemented, matching the paper's SUM and MAX
workloads:

* **SUM** — the result width is the sum of the contributing widths, so the
  cheapest way to meet the constraint is to refresh the widest intervals
  until the remaining total width is within ``delta``.  This choice is static
  (it does not depend on the fetched values), so it can be made up-front.
* **MAX** — the result bound is ``[max L_i, max H_i]``.  Knowing an exact
  value can raise the lower bound and thereby rule out other candidates, so
  refreshes are chosen iteratively: fetch the interval with the largest upper
  endpoint, recompute the bound, and repeat until the constraint holds.  This
  is why cached non-exact intervals remain useful for MAX even when queries
  demand exact answers (Section 4.4).

The functions below work against a ``fetch_exact`` callback supplied by the
simulator; the callback performs the actual query-initiated refresh (cost
accounting, new interval installation) and returns the exact value.  The
generator core :func:`bounded_query_steps` hands out refreshes in *batches*:
a SUM/AVG query's whole static selection in one batch, a MAX/MIN query's
victims one per batch.  The synchronous drivers fetch a batch key by key;
the serving layer sends a batch's refresh RPCs together.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    Hashable,
    List,
    Sequence,
    Tuple,
)

from repro.intervals.interval import Interval
from repro.queries.aggregates import AggregateKind, aggregate_bound

if TYPE_CHECKING:  # pragma: no cover - numpy is only needed by the array path
    import numpy as np

FetchExact = Callable[[Hashable], float]

#: Below this fan-out the columnar SUM selector runs its screen and sort in
#: pure Python off one ``tolist()``: numpy's reductions carry a fixed setup
#: cost that only amortises across enough elements (the paper's queries touch
#: 10 values; wider array callers hand in hundreds).
_SCALAR_SELECT_LIMIT = 24


@dataclass
class QueryExecution:
    """Outcome of executing one bounded-aggregate query.

    Attributes
    ----------
    result_bound:
        The final interval bounding the aggregate (width <= the constraint,
        unless the constraint was unsatisfiable, which cannot happen since
        refreshing everything yields a zero-width bound).
    refreshed_keys:
        Keys whose exact values were fetched, in fetch order.
    constraint:
        The precision constraint the query carried.
    """

    result_bound: Interval
    refreshed_keys: List[Hashable]
    constraint: float

    @property
    def refresh_count(self) -> int:
        """Number of query-initiated refreshes this query caused."""
        return len(self.refreshed_keys)

    @property
    def satisfied(self) -> bool:
        """Whether the final bound meets the constraint."""
        return self.result_bound.width <= self.constraint


def select_sum_refreshes(
    intervals: Dict[Hashable, Interval], constraint: float
) -> List[Hashable]:
    """Return the keys a SUM query must refresh, widest first.

    The remaining (unrefreshed) intervals' total width must not exceed the
    constraint; refreshed intervals contribute zero width.
    """
    if not constraint >= 0:
        raise ValueError("constraint must be non-negative")
    # Fast path, O(n) with no sorting: when the total width is already within
    # the constraint the answer is empty.  Float addition is order-sensitive
    # and the exact semantics below sum in descending-width order, so the
    # unordered total is only trusted when it clears the constraint by more
    # than the worst-case reordering error (~n ulps of the total); anything
    # closer falls through to the exact path.  This is the common case for
    # satisfied queries in the simulator.
    isinf = math.isinf
    unbounded_count = 0
    unordered_total = 0.0
    for interval in intervals.values():
        width = interval.width
        if isinf(width):
            unbounded_count += 1
        else:
            unordered_total += width
    if not unbounded_count:
        reorder_margin = 4.0 * len(intervals) * 2.220446049250313e-16 * unordered_total
        if unordered_total + reorder_margin <= constraint:
            return []
    # Exact path: one stable decorated sort, widest first with ties in
    # mapping order.  The remaining total width is tracked as (number of
    # unbounded intervals, finite remainder) so that subtracting an infinite
    # width is well-defined; the finite remainder is accumulated over the
    # descending order — the residue it leaves after the subtraction loop
    # decides whether zero-width stragglers are refreshed under tight
    # constraints, so the summation order must match the sort.
    ordered = sorted(
        [
            (-interval.width, position, key)
            for position, (key, interval) in enumerate(intervals.items())
        ]
    )
    unbounded_remaining = 0
    finite_remaining = 0
    for negated_width, _, _ in ordered:
        if isinf(negated_width):
            unbounded_remaining += 1
        else:
            finite_remaining += -negated_width
    refreshes: List[Hashable] = []
    for negated_width, _, key in ordered:
        remaining = math.inf if unbounded_remaining else finite_remaining
        if remaining <= constraint:
            break
        refreshes.append(key)
        if isinf(negated_width):
            unbounded_remaining -= 1
        else:
            finite_remaining -= -negated_width
    return refreshes


def select_sum_refreshes_columnar(
    keys: Sequence[Hashable], widths: "np.ndarray", constraint: float
) -> List[Hashable]:
    """:func:`select_sum_refreshes` over a columnar width array.

    ``widths[i]`` is the cached interval width for ``keys[i]`` (``inf`` for
    unbounded/missing approximations), exactly the decoration the dict-based
    selector builds per call, handed in as one array.  Nothing in the
    package calls it; it stays because ``perfbench``'s span tracer wraps it
    and the ``columnar_sum_selection`` microbenchmark measures it.  Returns
    the identical key list: the fast screen's
    reordering margin covers numpy's pairwise summation as well as the
    sequential sum (either ordering deviates from the exact descending total
    by less than the margin), so a screen disagreement between the two
    implementations can only happen when the exact path returns ``[]``
    anyway, and the exact path below accumulates the same Python floats in
    the same descending-width order (``lexsort`` on ``(-width, position)``
    matches the decorated sort; positions are unique, so the key never
    tie-breaks).
    """
    if not constraint >= 0:
        raise ValueError("constraint must be non-negative")
    count = len(keys)
    if count < _SCALAR_SELECT_LIMIT:
        # Small fan-out: one C-level tolist() and the pure-Python screen/sort
        # beat the numpy reductions' fixed setup cost.  The screen total is
        # accumulated in position order — exactly the dict selector's
        # mapping-order sum — and the decorated sort matches the lexsort
        # below, so the selected keys are identical on every path.
        width_list = widths.tolist()
        isinf = math.isinf
        unbounded_count = 0
        unordered_total = 0.0
        for width in width_list:
            if isinf(width):
                unbounded_count += 1
            else:
                unordered_total += width
        if not unbounded_count:
            reorder_margin = (
                4.0 * count * 2.220446049250313e-16 * unordered_total
            )
            if unordered_total + reorder_margin <= constraint:
                return []
        order = [
            position
            for _, position in sorted(
                (-width_list[position], position) for position in range(count)
            )
        ]
    else:
        # Imported here so the package runs on the standard library alone:
        # only this array path, which nothing in the package calls, needs it.
        import numpy as np

        finite = np.isfinite(widths)
        if bool(finite.all()):
            unordered_total = float(widths.sum())
            reorder_margin = 4.0 * count * 2.220446049250313e-16 * unordered_total
            if unordered_total + reorder_margin <= constraint:
                return []
        order = np.lexsort((np.arange(count), -widths)).tolist()
        width_list = widths.tolist()
    isinf = math.isinf
    unbounded_remaining = 0
    finite_remaining = 0
    for position in order:
        width = width_list[position]
        if isinf(width):
            unbounded_remaining += 1
        else:
            finite_remaining += width
    refreshes: List[Hashable] = []
    for position in order:
        remaining = math.inf if unbounded_remaining else finite_remaining
        if remaining <= constraint:
            break
        refreshes.append(keys[position])
        width = width_list[position]
        if isinf(width):
            unbounded_remaining -= 1
        else:
            finite_remaining -= width
    return refreshes


def bounded_query_steps(
    kind: AggregateKind,
    intervals: Dict[Hashable, Interval],
    constraint: float,
) -> "Generator[List[Hashable], List[float], QueryExecution]":
    """Generator core of bounded-query execution: the single source of truth.

    Yields each *batch* of keys to refresh, in fetch order; the driver sends
    back the batch's fetched exact values (same order), and the generator
    returns the completed :class:`QueryExecution` (result bound, refreshed
    keys) once the constraint holds.  A SUM/AVG selection depends on the
    widths alone, so all its victims form one batch; a MAX/MIN victim
    depends on the values fetched before it, so each forms its own batch.
    Both the synchronous :func:`execute_bounded_query` (blocking
    ``fetch_exact``, key by key) and the serving layer's asynchronous driver
    (:mod:`repro.serving.execution`, one pipelined round of refresh RPCs per
    batch) drive this one implementation, so validation, selection, AVG
    scaling and result assembly cannot drift between the offline and online
    paths.
    """
    if not intervals:
        raise ValueError("a query must touch at least one value")
    if not constraint >= 0:
        raise ValueError("constraint must be non-negative")
    if math.isinf(constraint):
        return QueryExecution(
            result_bound=aggregate_bound(kind, list(intervals.values())),
            refreshed_keys=[],
            constraint=constraint,
        )
    if kind is AggregateKind.AVG:
        # AVG is SUM scaled by 1/n, so a constraint delta on the average
        # equals a constraint n * delta on the sum.
        count = len(intervals)
        scaled = yield from bounded_query_steps(
            AggregateKind.SUM, intervals, constraint * count
        )
        return QueryExecution(
            result_bound=scaled.result_bound.scale(1.0 / count),
            refreshed_keys=scaled.refreshed_keys,
            constraint=constraint,
        )
    if kind is AggregateKind.SUM:
        selected = select_sum_refreshes(intervals, constraint)
        if not selected:
            # Satisfied immediately — no refreshes, so no working copy needed.
            return QueryExecution(
                result_bound=aggregate_bound(
                    AggregateKind.SUM, list(intervals.values())
                ),
                refreshed_keys=[],
                constraint=constraint,
            )
        working = dict(intervals)
        exacts = yield selected
        for key, exact in zip(selected, exacts):
            working[key] = Interval.exact(exact)
        return QueryExecution(
            result_bound=aggregate_bound(AggregateKind.SUM, list(working.values())),
            refreshed_keys=selected,
            constraint=constraint,
        )
    if kind in (AggregateKind.MAX, AggregateKind.MIN):
        steps = extremum_refresh_steps(intervals, constraint, kind)
        try:
            victim = next(steps)
            while True:
                (exact,) = yield [victim]
                victim = steps.send(exact)
        except StopIteration as stop:
            working, refreshed = stop.value
        return QueryExecution(
            result_bound=aggregate_bound(kind, list(working.values())),
            refreshed_keys=refreshed,
            constraint=constraint,
        )
    raise ValueError(f"unsupported aggregate kind: {kind!r}")


def extremum_refresh_steps(
    intervals: Dict[Hashable, Interval],
    constraint: float,
    kind: AggregateKind,
) -> "Generator[Hashable, float, Tuple[Dict[Hashable, Interval], List[Hashable]]]":
    """Generator core of the iterative extremum refresh selection.

    Yields each victim key in refresh order; the driver sends back the
    victim's exact value and the generator returns ``(working intervals,
    refreshed keys)`` once the constraint holds.  Factoring the selection
    into a generator lets one copy of the heap logic serve both the
    synchronous simulator (:func:`_extremum_refreshes` drives it with a
    blocking ``fetch_exact``) and the asynchronous serving layer
    (:mod:`repro.serving.execution` awaits each refresh RPC between steps).

    Instead of re-aggregating all n intervals per refresh iteration (O(n^2)
    per query), the two bound endpoints and the victim choice are tracked in
    lazy-invalidation heaps: a refresh pushes the victim's new exact endpoints
    and stale tuples are discarded when they surface, for O(n log n) total.
    The heap tuples carry each key's position in the input mapping so that
    width ties resolve exactly as the naive argmax/argmin over ``working``
    did (first key in mapping order wins).
    """
    working = dict(intervals)
    refreshed: List[Hashable] = []
    # For MAX the bound is [max L_i, max H_i] and the victim is the non-exact
    # interval reaching highest; MIN mirrors it at the low endpoints.  The
    # endpoint heaps hold (sign * endpoint, position, key) so that the heap
    # minimum is the bound endpoint; ``sign`` is -1 for maxima.
    sign = -1.0 if kind is AggregateKind.MAX else 1.0
    low_heap = []
    high_heap = []
    candidate_heap = []
    for position, (key, interval) in enumerate(working.items()):
        low_heap.append((sign * interval.low, position, key))
        high_heap.append((sign * interval.high, position, key))
        if not interval.is_exact:
            # The victim key: largest high for MAX, smallest low for MIN.
            victim_rank = -interval.high if kind is AggregateKind.MAX else interval.low
            candidate_heap.append((victim_rank, position, key))
    heapq.heapify(low_heap)
    heapq.heapify(high_heap)
    heapq.heapify(candidate_heap)

    def bound_endpoint(heap: List, endpoint: str) -> float:
        # Discard tuples whose stored endpoint no longer matches the working
        # interval (the key was refreshed since the tuple was pushed).
        while True:
            value, _, key = heap[0]
            if getattr(working[key], endpoint) == sign * value:
                return sign * value
            heapq.heappop(heap)

    while True:
        width = bound_endpoint(high_heap, "high") - bound_endpoint(low_heap, "low")
        if width <= constraint:
            break
        while candidate_heap and working[candidate_heap[0][2]].is_exact:
            heapq.heappop(candidate_heap)
        if not candidate_heap:
            break
        _, position, victim = heapq.heappop(candidate_heap)
        exact = yield victim
        working[victim] = Interval.exact(exact)
        refreshed.append(victim)
        heapq.heappush(low_heap, (sign * exact, position, victim))
        heapq.heappush(high_heap, (sign * exact, position, victim))
    return working, refreshed


def drive_refresh_steps(steps, fetch: Callable):
    """Drive a refresh-step generator with a blocking ``fetch``.

    The one synchronous driver shared by every generator core in this
    module: ``fetch`` receives whatever a step yields (one key from
    :func:`extremum_refresh_steps`, a batch of keys from
    :func:`bounded_query_steps`) and returns what the step expects back.
    The serving layer's asynchronous twin lives in
    :mod:`repro.serving.execution` (it awaits one round of refresh RPCs
    per batch).
    """
    try:
        step = next(steps)
        while True:
            step = steps.send(fetch(step))
    except StopIteration as stop:
        return stop.value


def _extremum_refreshes(
    intervals: Dict[Hashable, Interval],
    constraint: float,
    fetch_exact: FetchExact,
    kind: AggregateKind,
) -> Tuple[Dict[Hashable, Interval], List[Hashable]]:
    """Drive :func:`extremum_refresh_steps` with a blocking ``fetch_exact``.

    Returns the post-refresh working intervals and the refreshed keys in
    fetch order; building the final result bound is left to the caller so
    the refresh-only path can skip it.
    """
    return drive_refresh_steps(
        extremum_refresh_steps(intervals, constraint, kind), fetch_exact
    )


def execute_bounded_query(
    kind: AggregateKind,
    intervals: Dict[Hashable, Interval],
    constraint: float,
    fetch_exact: FetchExact,
) -> QueryExecution:
    """Execute a bounded aggregate, refreshing just enough approximations.

    A thin synchronous driver over :func:`bounded_query_steps` that fetches
    each batch key by key, in order (the serving layer drives the same
    generator asynchronously, one pipelined batch at a time).

    Parameters
    ----------
    kind:
        The aggregate function (SUM, MAX, MIN or AVG).
    intervals:
        Mapping of key to the currently cached interval for every value the
        query touches (missing cache entries should be passed as the
        unbounded interval).
    constraint:
        Maximum acceptable width of the result bound (``math.inf`` disables
        refreshing entirely).
    fetch_exact:
        Callback performing a query-initiated refresh of one key and
        returning the exact value.
    """
    return drive_refresh_steps(
        bounded_query_steps(kind, intervals, constraint),
        lambda batch: [fetch_exact(key) for key in batch],
    )


def run_query_refreshes(
    kind: AggregateKind,
    intervals: Dict[Hashable, Interval],
    constraint: float,
    fetch_exact: FetchExact,
) -> None:
    """Perform a bounded query's refreshes without building its result bound.

    The simulator's hot loop only cares about a query's *side effects* — the
    query-initiated refreshes ``fetch_exact`` performs — and discards the
    :class:`QueryExecution`.  This entry point runs the exact same selection
    logic as :func:`execute_bounded_query` (identical keys fetched, in the
    same order, so every metric and random draw downstream is unchanged) but
    skips the working-copy and final-aggregate work that only exists to
    report the result bound.  Callers that need the bound must use
    :func:`execute_bounded_query`.
    """
    if not intervals:
        raise ValueError("a query must touch at least one value")
    if not constraint >= 0:
        raise ValueError("constraint must be non-negative")
    if math.isinf(constraint):
        return
    if kind is AggregateKind.SUM:
        for key in select_sum_refreshes(intervals, constraint):
            fetch_exact(key)
        return
    if kind in (AggregateKind.MAX, AggregateKind.MIN):
        _extremum_refreshes(intervals, constraint, fetch_exact, kind)
        return
    if kind is AggregateKind.AVG:
        # AVG is SUM scaled by 1/n: a constraint delta on the average equals
        # a constraint n * delta on the sum (see bounded_query_steps).
        scaled = constraint * len(intervals)
        for key in select_sum_refreshes(intervals, scaled):
            fetch_exact(key)
        return
    raise ValueError(f"unsupported aggregate kind: {kind!r}")
