"""Network cost model: what a refresh costs in messages.

The paper abstracts network behaviour into two per-refresh costs (Section
4.3): a query-initiated refresh is one request plus one response message
(``C_qr = 2``); a value-initiated refresh costs ``C_vr = 4`` under two-phase
locking (two round trips) or ``C_vr = 1`` when updates are simply pushed
(loose consistency).  :class:`NetworkModel` carries those costs and also
counts the refreshes it charges, their total cost and their raw messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.checks import at_least, non_negative, positive
from repro.core.parameters import PrecisionParameters


@dataclass
class NetworkModel:
    """Per-refresh message costs plus running refresh and message counters.

    Parameters
    ----------
    value_refresh_cost:
        Cost charged per value-initiated refresh (``C_vr``).
    query_refresh_cost:
        Cost charged per query-initiated refresh (``C_qr``).
    messages_per_value_refresh / messages_per_query_refresh:
        Raw message counts per refresh, for the message-count statistics.
    latency_per_message:
        Modelled one-way delay per message in seconds, accumulated into
        ``total_latency`` as refreshes are charged.  The paper's cost model
        is latency-free, so the default of ``0.0`` leaves every historical
        number untouched; the serving layer (:mod:`repro.serving`) sets it
        to estimate how much refresh traffic contributes to query latency.

    Every charge counts into the running totals below, which are all-time
    until :meth:`reset_counters` restarts them.
    """

    value_refresh_cost: float = 1.0
    query_refresh_cost: float = 2.0
    messages_per_value_refresh: int = 1
    messages_per_query_refresh: int = 2
    latency_per_message: float = 0.0
    value_refreshes: int = field(default=0, init=False)
    query_refreshes: int = field(default=0, init=False)
    total_cost: float = field(default=0.0, init=False)
    messages_sent: int = field(default=0, init=False)
    total_latency: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        positive("value_refresh_cost", self.value_refresh_cost, finite=True)
        positive("query_refresh_cost", self.query_refresh_cost, finite=True)
        for name in ("messages_per_value_refresh", "messages_per_query_refresh"):
            at_least(name, getattr(self, name), 1, finite=True)
        non_negative("latency_per_message", self.latency_per_message, finite=True)

    @classmethod
    def from_parameters(cls, parameters: PrecisionParameters) -> "NetworkModel":
        """Build a network model carrying a parameter bundle's costs."""
        messages_per_value_refresh = max(int(round(parameters.value_refresh_cost)), 1)
        return cls(
            value_refresh_cost=parameters.value_refresh_cost,
            query_refresh_cost=parameters.query_refresh_cost,
            messages_per_value_refresh=messages_per_value_refresh,
            messages_per_query_refresh=max(
                int(round(parameters.query_refresh_cost)), 1
            ),
        )

    @classmethod
    def loose_consistency(cls) -> "NetworkModel":
        """The paper's ``rho = 1`` configuration: ``C_vr = 1``, ``C_qr = 2``."""
        return cls(value_refresh_cost=1.0, query_refresh_cost=2.0)

    @classmethod
    def two_phase_locking(cls) -> "NetworkModel":
        """The paper's ``rho = 4`` configuration: ``C_vr = 4``, ``C_qr = 2``."""
        return cls(
            value_refresh_cost=4.0,
            query_refresh_cost=2.0,
            messages_per_value_refresh=4,
            messages_per_query_refresh=2,
        )

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_value_refresh(self) -> float:
        """Count one value-initiated refresh and its messages, return its cost."""
        self.value_refreshes += 1
        self.total_cost += self.value_refresh_cost
        self.messages_sent += self.messages_per_value_refresh
        if self.latency_per_message:
            self.total_latency += (
                self.messages_per_value_refresh * self.latency_per_message
            )
        return self.value_refresh_cost

    def charge_query_refresh(self) -> float:
        """Count one query-initiated refresh and its messages, return its cost."""
        self.query_refreshes += 1
        self.total_cost += self.query_refresh_cost
        self.messages_sent += self.messages_per_query_refresh
        if self.latency_per_message:
            self.total_latency += (
                self.messages_per_query_refresh * self.latency_per_message
            )
        return self.query_refresh_cost

    def reset_counters(self) -> None:
        """Zero the refresh, cost, message and latency counters."""
        self.value_refreshes = 0
        self.query_refreshes = 0
        self.total_cost = 0.0
        self.messages_sent = 0
        self.total_latency = 0.0

    @property
    def cost_factor(self) -> float:
        """The implied ``rho = 2 * C_vr / C_qr``."""
        return 2.0 * self.value_refresh_cost / self.query_refresh_cost
