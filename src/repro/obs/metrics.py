"""The process-local metrics registry: counters, gauges, histograms.

One registry per process absorbs every counter the system used to scatter
across ad-hoc surfaces (`/stats` snapshot dicts, fault-injection counters,
loadgen percentiles) behind a single API with a Prometheus-shaped data
model:

* :class:`Counter` — a monotonically increasing total.
* :class:`Gauge` — a point-in-time value that can go up and down.
* :class:`Histogram` — fixed-bucket cumulative observation counts plus a
  running sum, mergeable bucket-wise across processes (the gateway merges
  per-partition histograms).

**Hot-path discipline.**  A metric handle is looked up once (at component
construction or module import) and held; recording is one attribute check
plus an in-place add — no dict lookup, no allocation, no formatting.  With
the registry disabled (``enabled=False``, the default) every ``inc`` /
``set`` / ``observe`` is a single predictable branch, so instrumented code
costs nothing measurable when nobody is scraping.

**Determinism.**  Metrics are write-only observers: recording never reads
the clock, never draws randomness, and never feeds a value back into the
serving or simulation path — a replay with metrics enabled is byte-identical
to one with metrics disabled (CI's ``obs-smoke`` job diffs exactly this).

**Collectors.**  Existing cumulative state (``ServingStatistics``, WAL
counters, cache statistics) is absorbed without touching its hot paths: a
*collector* callback registered with :meth:`MetricsRegistry.collector` runs
at snapshot time and copies the current totals into registry handles, so
the scrape pays the cost, not the serving path.

**Snapshots.**  :meth:`MetricsRegistry.snapshot` returns a JSON-able dict
(the ``metrics`` protocol op carries it from partitions to the gateway);
:func:`merge_snapshots` folds many processes' snapshots into one, and
:func:`aggregate_snapshot` sums series across a label dimension (for
whole-deployment totals in the ``repro obs`` CLI).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_SECONDS",
    "MetricsRegistry",
    "REGISTRY",
    "SIZE_BUCKETS",
    "aggregate_snapshot",
    "merge_snapshots",
]

_INF = float("inf")

#: Generic default buckets (powers of ten with 2.5/5 subdivisions).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets sized for request latencies in seconds (0.1 ms .. 10 s).
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

#: Buckets sized for counts/sizes (fan-outs, batch sizes, byte payloads).
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0,
)

_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> _LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total.

    ``set_total`` exists for collectors that mirror an existing cumulative
    counter into the registry at scrape time; hot paths use :meth:`inc`.
    """

    __slots__ = ("name", "help", "labels", "value", "registry")
    kind = "counter"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help_text: str, labels: _LabelsKey
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help_text
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self.registry.enabled:
            self.value += amount

    def set_total(self, total: float) -> None:
        """Collector-only: mirror an externally maintained running total."""
        if self.registry.enabled:
            self.value = total

    def sample(self) -> Dict[str, Any]:
        return {"labels": dict(self.labels), "value": self.value}

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "help", "labels", "value", "registry")
    kind = "gauge"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help_text: str, labels: _LabelsKey
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help_text
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        if self.registry.enabled:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        if self.registry.enabled:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self.registry.enabled:
            self.value -= amount

    def sample(self) -> Dict[str, Any]:
        return {"labels": dict(self.labels), "value": self.value}

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket observation counts (per-bucket storage, cumulative render).

    ``bounds`` are the finite upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket catches everything above the last bound.  An observation
    equal to a bound lands in that bound's bucket (Prometheus ``le``
    semantics).  ``counts[i]`` is the number of observations in bucket ``i``
    (*not* cumulative — cumulation happens at exposition), which keeps
    :meth:`observe` a single bisect plus three in-place adds.
    """

    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum", "count", "registry")
    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labels: _LabelsKey,
        bounds: Tuple[float, ...],
    ) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds[-1] == _INF:
            raise ValueError("+Inf is implicit; pass finite bounds only")
        self.registry = registry
        self.name = name
        self.help = help_text
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self.registry.enabled:
            return
        # bisect_left returns the first bound >= value, i.e. the smallest
        # bucket whose ``le`` admits the observation.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with the +Inf bucket."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            out.append((bound, running))
        out.append((_INF, running + self.counts[-1]))
        return out

    def sample(self) -> Dict[str, Any]:
        return {
            "labels": dict(self.labels),
            "sum": self.sum,
            "count": self.count,
            "buckets": [[le, cum] for le, cum in self.cumulative()],
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """A process-local family of metrics plus its collectors.

    Disabled by default: handles can be created and held unconditionally,
    and recording through them is a no-op until :meth:`enable` — the
    zero-overhead posture offline simulations and unit tests run in.
    ``constant_labels`` stamp every exposed sample (role/partition identity
    in multi-process deployments) without appearing on the hot-path keys.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        constant_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.enabled = enabled
        self.constant_labels: Dict[str, str] = dict(constant_labels or {})
        self._metrics: Dict[Tuple[str, _LabelsKey], Any] = {}
        self._kinds: Dict[str, str] = {}
        self._order: List[str] = []
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def set_constant_labels(self, **labels: str) -> None:
        self.constant_labels.update({k: str(v) for k, v in labels.items()})

    def reset(self) -> None:
        """Zero every value, keeping registrations and collectors."""
        for metric in self._metrics.values():
            metric.reset()

    # ------------------------------------------------------------------
    # Handle creation (get-or-create; kind conflicts are programming errors)
    # ------------------------------------------------------------------
    def _get_or_create(
        self, kind: str, factory: Callable[[_LabelsKey], Any], name: str, labels: Dict[str, str]
    ) -> Any:
        registered = self._kinds.get(name)
        if registered is not None and registered != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {registered}, not a {kind}"
            )
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(key[1])
            self._metrics[key] = metric
            if registered is None:
                self._kinds[name] = kind
                self._order.append(name)
        return metric

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._get_or_create(
            "counter", lambda key: Counter(self, name, help_text, key), name, labels
        )

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get_or_create(
            "gauge", lambda key: Gauge(self, name, help_text, key), name, labels
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        metric = self._get_or_create(
            "histogram",
            lambda key: Histogram(self, name, help_text, key, bounds),
            name,
            labels,
        )
        if metric.bounds != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.bounds}, not {bounds}"
            )
        return metric

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def collector(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Register a scrape-time callback that refreshes mirrored values."""
        self._collectors.append(fn)
        return fn

    def remove_collector(self, fn: Callable[[], None]) -> None:
        try:
            self._collectors.remove(fn)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Introspection / exposition
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: str) -> float:
        """A counter/gauge's current value (0.0 when never recorded)."""
        metric = self._metrics.get((name, _labels_key(labels)))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise ValueError(f"{name!r} is a histogram; read its handle directly")
        return metric.value

    def snapshot(self) -> Dict[str, Any]:
        """The registry's JSON-able state (collectors run first when enabled)."""
        if self.enabled:
            for collect in list(self._collectors):
                collect()
        metrics: List[Dict[str, Any]] = []
        for name in self._order:
            kind = self._kinds[name]
            first = True
            entry: Dict[str, Any] = {}
            for (metric_name, _), metric in self._metrics.items():
                if metric_name != name:
                    continue
                if first:
                    entry = {
                        "name": name,
                        "kind": kind,
                        "help": metric.help,
                        "samples": [],
                    }
                    first = False
                sample = metric.sample()
                if self.constant_labels:
                    merged = dict(self.constant_labels)
                    merged.update(sample["labels"])
                    sample["labels"] = merged
                entry["samples"].append(sample)
            if not first:
                metrics.append(entry)
        return {"metrics": metrics}

    def render(self) -> str:
        """The registry as Prometheus text exposition format."""
        from repro.obs.prom import render_snapshot

        return render_snapshot(self.snapshot())


# ---------------------------------------------------------------------------
# Snapshot algebra (the gateway's per-partition aggregation)
# ---------------------------------------------------------------------------


def _merge_samples(kind: str, into: Dict[str, Any], sample: Dict[str, Any]) -> None:
    if kind == "histogram":
        if [le for le, _ in into["buckets"]] != [le for le, _ in sample["buckets"]]:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{into['buckets']} vs {sample['buckets']}"
            )
        into["sum"] += sample["sum"]
        into["count"] += sample["count"]
        into["buckets"] = [
            [le, a + b]
            for (le, a), (_, b) in zip(into["buckets"], sample["buckets"])
        ]
    else:
        # Counters and gauges both merge by summation: gauges that must not
        # be summed across processes (clocks, rates) are exposed with
        # distinguishing constant labels, so they never share a series.
        into["value"] += sample["value"]


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold many registries' snapshots into one.

    Samples with the same metric name *and* the same label set merge
    (counters/gauges sum, histograms add bucket-wise — bounds must match);
    differently labelled samples stay distinct series.  Metric kind
    conflicts across snapshots raise ``ValueError``.
    """
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    order: List[str] = []
    merged: Dict[str, Dict[_LabelsKey, Dict[str, Any]]] = {}
    for snapshot in snapshots:
        for metric in snapshot.get("metrics", ()):
            name = metric["name"]
            kind = metric["kind"]
            known = kinds.get(name)
            if known is None:
                kinds[name] = kind
                helps[name] = metric.get("help", "")
                order.append(name)
                merged[name] = {}
            elif known != kind:
                raise ValueError(
                    f"metric {name!r} is a {known} in one snapshot and a "
                    f"{kind} in another"
                )
            series = merged[name]
            for sample in metric.get("samples", ()):
                key = _labels_key(sample.get("labels", {}))
                existing = series.get(key)
                if existing is None:
                    copied = dict(sample)
                    copied["labels"] = dict(sample.get("labels", {}))
                    if kind == "histogram":
                        copied["buckets"] = [list(b) for b in sample["buckets"]]
                    series[key] = copied
                else:
                    _merge_samples(kind, existing, sample)
    return {
        "metrics": [
            {
                "name": name,
                "kind": kinds[name],
                "help": helps[name],
                "samples": list(merged[name].values()),
            }
            for name in order
        ]
    }


def aggregate_snapshot(
    snapshot: Dict[str, Any], drop_labels: Sequence[str]
) -> Dict[str, Any]:
    """Sum series across the ``drop_labels`` dimensions.

    Dropping ``("partition",)`` turns a gateway scrape's per-partition
    series into whole-deployment totals (histograms merge bucket-wise);
    series that never carried the label pass through unchanged.
    """
    dropped = set(drop_labels)
    stripped = {"metrics": []}
    for metric in snapshot.get("metrics", ()):
        entry = dict(metric)
        entry["samples"] = []
        for sample in metric.get("samples", ()):
            copied = dict(sample)
            copied["labels"] = {
                k: v for k, v in sample.get("labels", {}).items() if k not in dropped
            }
            if metric["kind"] == "histogram":
                copied["buckets"] = [list(b) for b in sample["buckets"]]
            entry["samples"].append(copied)
        stripped["metrics"].append(entry)
    return merge_snapshots([stripped])


#: The process's default registry.  Serving deployments enable it via the
#: CLI (``--metrics``); offline simulation leaves it disabled and pays one
#: branch per instrumented site.
REGISTRY = MetricsRegistry()
