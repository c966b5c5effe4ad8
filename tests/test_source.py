"""Unit tests for data sources, driven through the cache core's ops."""

from types import SimpleNamespace

import pytest

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.source import DataSource
from repro.intervals.interval import UNBOUNDED, Interval
from repro.simulation.network import NetworkModel


class _Publish(PrecisionPolicy):
    """Publishes one fixed interval and original width on every refresh.

    The decision is a plain namespace, so a negative width reaches the core.
    """

    def __init__(self, interval, original_width):
        self.decision = SimpleNamespace(
            interval=interval, original_width=original_width
        )

    def on_value_initiated_refresh(self, key, exact_value, time):
        return self.decision

    def on_query_initiated_refresh(self, key, exact_value, time):
        return self.decision


def _source(value, published=None, original_width=0.0):
    """Source ``a`` at ``value`` in a core, optionally with a publication."""
    core = CacheCore(
        _Publish(published, original_width), ApproximateCache(), NetworkModel()
    )
    source = core.register("a", value)
    if published is not None:
        core.refresh("a", 0.0, True)
    return core, source


def _update(core, source, value, time):
    """Apply one update; returns the number of refreshes it fired."""
    return core.apply_updates(((source, (value,)),), time)


class TestUpdates:
    def test_update_without_publication_needs_no_refresh(self):
        core, source = _source(10.0)
        assert _update(core, source, 20.0, time=1.0) == 0
        assert source.value == 20.0
        assert source.update_count == 1

    def test_update_inside_published_interval_needs_no_refresh(self):
        core, source = _source(10.0, Interval(5.0, 15.0), 10.0)
        assert _update(core, source, 12.0, time=1.0) == 0

    def test_update_outside_published_interval_needs_refresh(self):
        core, source = _source(10.0, Interval(5.0, 15.0), 10.0)
        assert _update(core, source, 20.0, time=1.0) == 1

    def test_update_on_interval_boundary_is_still_valid(self):
        core, source = _source(10.0, Interval(5.0, 15.0), 10.0)
        assert _update(core, source, 15.0, time=1.0) == 0

    def test_exact_interval_invalidated_by_any_change(self):
        core, source = _source(10.0, Interval.exact(10.0), 0.0)
        assert _update(core, source, 10.000001, time=1.0) == 1

    def test_unbounded_interval_never_invalidated(self):
        core, source = _source(10.0, UNBOUNDED, float("inf"))
        assert _update(core, source, 1e12, time=1.0) == 0

    def test_updates_must_be_time_ordered(self):
        core, source = _source(0.0)
        _update(core, source, 1.0, time=5.0)
        with pytest.raises(ValueError):
            _update(core, source, 2.0, time=4.0)

    def test_update_count_accumulates(self):
        core, source = _source(0.0)
        for step in range(1, 6):
            _update(core, source, float(step), time=float(step))
        assert source.update_count == 5


class TestPublication:
    def test_publish_records_interval_and_width(self):
        core, source = _source(10.0, Interval(8.0, 12.0), 4.0)
        core.refresh("a", 3.0, True)
        assert source.published_interval == Interval(8.0, 12.0)
        assert source.published_width == 4.0
        assert source.last_refresh_time == 3.0
        assert source.is_tracked

    def test_publish_rejects_negative_width(self):
        core, _ = _source(10.0)
        core.policy.decision.interval = Interval(8.0, 12.0)
        core.policy.decision.original_width = -1.0
        with pytest.raises(ValueError):
            core.refresh("a", 0.0, True)

    def test_forget_publication(self):
        core, source = _source(10.0, Interval(8.0, 12.0), 4.0)
        source.forget_publication()
        assert not source.is_tracked
        # Once forgotten, updates never request refreshes.
        assert _update(core, source, 100.0, time=1.0) == 0

    def test_initially_untracked(self):
        assert not DataSource(key="a", value=0.0).is_tracked
