"""Data sources.

Each :class:`DataSource` hosts one exact numeric value (the paper's setting in
Section 4.1 — one value per source) and remembers the interval approximation
it last sent to the cache.  On every update the cache core
(:mod:`repro.caching.core`) applies the validity test ``Valid([L, H], V)``;
when it fails, a value-initiated refresh is due.  The source also tracks the
*original* (unclamped) width used by its precision policy so that the next
width can be derived from it, and a cumulative update counter used by the
stale-value (Divergence Caching) experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.intervals.interval import Interval


@dataclass(slots=True)
class DataSource:
    """One exact value plus the approximation the cache is believed to hold.

    Parameters
    ----------
    key:
        Identifier of the hosted value.
    value:
        Current exact value.
    """

    key: Hashable
    value: float
    update_count: int = 0
    published_interval: Optional[Interval] = None
    published_width: float = 0.0
    last_refresh_time: float = 0.0
    last_update_time: float = 0.0

    # ------------------------------------------------------------------
    # Refresh bookkeeping
    # ------------------------------------------------------------------
    def forget_publication(self) -> None:
        """Stop tracking the cached approximation (dropped or evicted)."""
        self.published_interval = None

    @property
    def is_tracked(self) -> bool:
        """True while the source believes the cache holds an approximation."""
        return self.published_interval is not None
