"""Refresh events and cost accounting.

A *refresh* is any transmission of a fresh approximation from a source to the
cache.  The paper distinguishes two kinds:

* **value-initiated** — pushed by the source because the exact value escaped
  the cached interval (cost ``C_vr``), and
* **query-initiated** — pulled by the cache because a query needed the exact
  value (cost ``C_qr``).

:class:`CostAccountant` accumulates the cost and count of each kind from
:class:`RefreshEvent` records.  A simulation or serving run does not record
events: the cache core charges each refresh to its
:class:`~repro.simulation.network.NetworkModel`, whose counters give the
cost-rate metric ``Omega`` that every experiment in the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List


class RefreshKind(Enum):
    """The two refresh flows of the approximate caching protocol."""

    VALUE_INITIATED = "value_initiated"
    QUERY_INITIATED = "query_initiated"


@dataclass(frozen=True)
class RefreshEvent:
    """A single refresh: what was refreshed, when, why, and at what cost."""

    kind: RefreshKind
    key: Hashable
    time: float
    cost: float
    published_width: float

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError("refresh cost must be non-negative")
        if self.time < 0:
            raise ValueError("refresh time must be non-negative")


@dataclass
class CostAccountant:
    """Accumulates refresh costs and counts, optionally keeping the event log.

    Parameters
    ----------
    keep_events:
        When True every :class:`RefreshEvent` is retained (useful for the
        time-series figures); otherwise only aggregate counters are kept.
    """

    keep_events: bool = False
    total_cost: float = 0.0
    value_refresh_count: int = 0
    query_refresh_count: int = 0
    value_refresh_cost: float = 0.0
    query_refresh_cost: float = 0.0
    per_key_counts: Dict[Hashable, int] = field(default_factory=dict)
    events: List[RefreshEvent] = field(default_factory=list)

    def record(self, event: RefreshEvent) -> None:
        """Add one refresh to the running totals."""
        self.total_cost += event.cost
        self.per_key_counts[event.key] = self.per_key_counts.get(event.key, 0) + 1
        if event.kind is RefreshKind.VALUE_INITIATED:
            self.value_refresh_count += 1
            self.value_refresh_cost += event.cost
        else:
            self.query_refresh_count += 1
            self.query_refresh_cost += event.cost
        if self.keep_events:
            self.events.append(event)

    @property
    def refresh_count(self) -> int:
        """Total number of refreshes of both kinds."""
        return self.value_refresh_count + self.query_refresh_count

    def cost_rate(self, duration: float) -> float:
        """Average cost per time unit over ``duration`` (the paper's ``Omega``)."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.total_cost / duration

    def refresh_rate(self, kind: RefreshKind, duration: float) -> float:
        """Refreshes of one kind per time unit over ``duration``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        count = (
            self.value_refresh_count
            if kind is RefreshKind.VALUE_INITIATED
            else self.query_refresh_count
        )
        return count / duration

    def merge(self, other: "CostAccountant") -> None:
        """Fold another accountant's totals into this one."""
        self.total_cost += other.total_cost
        self.value_refresh_count += other.value_refresh_count
        self.query_refresh_count += other.query_refresh_count
        self.value_refresh_cost += other.value_refresh_cost
        self.query_refresh_cost += other.query_refresh_cost
        for key, count in other.per_key_counts.items():
            self.per_key_counts[key] = self.per_key_counts.get(key, 0) + count
        if self.keep_events:
            self.events.extend(other.events)

    def snapshot(self) -> Dict[str, float]:
        """Return the aggregate counters as a plain dictionary."""
        return {
            "total_cost": self.total_cost,
            "value_refresh_count": float(self.value_refresh_count),
            "query_refresh_count": float(self.query_refresh_count),
            "value_refresh_cost": self.value_refresh_cost,
            "query_refresh_cost": self.query_refresh_cost,
        }
