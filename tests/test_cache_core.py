"""The cache core's ops, driven directly where the simulator and server met.

The simulator and the server once carried their own copies of the update,
refresh, publication and snapshot bodies, and the copies differed at each
point below.  Each test drives :class:`~repro.caching.core.CacheCore`
directly and, where the behaviour reaches a caller's surface, checks that
surface too: the simulator's ``ValueError`` or the server's wire reply.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.caching.cache import ApproximateCache
from repro.caching.core import CacheCore
from repro.caching.policies.base import PrecisionPolicy
from repro.caching.policies.static import StaticWidthPolicy
from repro.data.streams import UpdateStream
from repro.intervals.interval import UNBOUNDED, Interval
from repro.serving.server import CacheServer
from repro.simulation.config import SimulationConfig
from repro.simulation.network import NetworkModel
from repro.simulation.simulator import CacheSimulation


class _Decide(PrecisionPolicy):
    """Publishes ``width`` around the exact value, as a plain namespace.

    ``original_width`` overrides the width the decision reports (a negative
    one reaches the core, which ``PrecisionDecision`` would refuse), an
    unbounded ``width`` publishes ``UNBOUNDED``, and ``notify`` sets the
    eviction-notification protocol.  Every decided value is logged.
    """

    def __init__(self, width=2.0, original_width=None, notify=False):
        self.width = width
        self.original_width = width if original_width is None else original_width
        self.notify = notify
        self.decided = []

    def _decide(self, key, exact_value, time):
        self.decided.append((key, exact_value))
        if self.width == float("inf"):
            interval = UNBOUNDED
        else:
            interval = Interval.centered(exact_value, self.width)
        return SimpleNamespace(interval=interval, original_width=self.original_width)

    on_value_initiated_refresh = _decide
    on_query_initiated_refresh = _decide

    def notifies_source_on_eviction(self):
        return self.notify


class _Constant(UpdateStream):
    """A source value that never changes."""

    initial_value = 5.0

    def updates(self, duration):
        return iter(())


def _core(policy, capacity=None, **hooks):
    cache = ApproximateCache(capacity=capacity)
    core = CacheCore(policy, cache, NetworkModel(), **hooks)
    for key, value in (("a", 10.0), ("b", 20.0)):
        core.register(key, value)
    return core


def _update(core, key, value, time):
    """One update through the core's update body; the refreshes it fired."""
    return core.apply_updates(((core.sources[key], (value,)),), time)


REGISTER = {"op": "register", "id": 1, "keys": ["a"], "values": [10.0]}
STATS = {"op": "stats", "id": 99}


def _serve(policy, *frames, prepare=None):
    """Send raw ``frames`` on one connection to a new server; the replies.

    ``prepare(server)`` runs once the first frame is answered.
    """

    async def scenario():
        server = CacheServer(policy)
        transport = server.connect()
        replies = []
        for frame in frames:
            await transport.write_frame(frame)
            reply = await asyncio.wait_for(transport.read_frame(), timeout=2.0)
            replies.append(reply)
            if prepare is not None and len(replies) == 1:
                prepare(server)
        transport.close()
        await server.close()
        return replies

    return asyncio.run(scenario())


def test_equal_value_update_is_ignored_and_counted():
    observed = []
    core = _core(StaticWidthPolicy(2.0), observe_update=lambda *e: observed.append(e))
    source = core.sources["a"]
    assert _update(core, "a", 10.0, 5.0) == 0
    assert (source.update_count, source.last_update_time, observed) == (0, 0.0, [])
    assert _update(core, "a", 11.0, 5.0) == 0
    assert (source.update_count, observed) == (1, [("a", 1.0, None)])

    replies = _serve(
        StaticWidthPolicy(2.0),
        REGISTER,
        {"op": "update", "id": 2, "key": "a", "value": 10.0, "time": 1.0},
        STATS,
    )
    assert replies[1] == {"id": 2, "ok": True, "refresh": False}
    assert (replies[2]["updates_ignored"], replies[2]["updates_applied"]) == (1, 0)


def test_out_of_order_update_raises_value_error_and_protocol_error_on_the_wire():
    core = _core(StaticWidthPolicy(2.0))
    _update(core, "a", 11.0, 5.0)
    with pytest.raises(ValueError, match="non-decreasing time order"):
        _update(core, "a", 12.0, 4.0)

    # The server's clock never runs backwards, so only a source stamped
    # ahead of it can see an out-of-order update.
    def stamp_ahead(server):
        server.sources["a"].last_update_time = 9.0

    replies = _serve(
        StaticWidthPolicy(2.0),
        REGISTER,
        {"op": "update", "id": 2, "key": "a", "value": 11.0, "time": 5.0},
        STATS,
        prepare=stamp_ahead,
    )
    assert replies[1] == {
        "id": 2,
        "ok": False,
        "error": "ProtocolError: updates must arrive in non-decreasing time order",
    }
    assert replies[2]["updates_applied"] == 0


@pytest.mark.parametrize("query_initiated", [True, False], ids=["query", "value"])
def test_negative_original_width_raises_in_the_core(query_initiated):
    core = _core(_Decide(original_width=-1.0))
    with pytest.raises(ValueError, match="original_width must be non-negative"):
        core.refresh("a", 1.0, query_initiated)
    assert core.sources["a"].published_interval is None
    assert len(core.cache) == 0


def test_negative_original_width_raises_in_the_simulator_and_on_the_wire():
    config = SimulationConfig(
        duration=5.0,
        warmup=0.0,
        query_period=1.0,
        query_size=1,
        constraint_average=0.0,
        constraint_variation=0.0,
        seed=0,
    )
    simulation = CacheSimulation(
        config, {"a": _Constant()}, _Decide(original_width=-1.0)
    )
    with pytest.raises(ValueError, match="original_width must be non-negative"):
        simulation.run()

    async def scenario():
        server = CacheServer(_Decide(original_width=-1.0))
        feeder = server.connect()
        await feeder.write_frame(REGISTER)
        await feeder.read_frame()
        client = server.connect()
        await client.write_frame(
            {"op": "query", "id": 2, "keys": ["a"], "constraint": 0.0, "time": 1.0}
        )
        refresh = await asyncio.wait_for(feeder.read_frame(), timeout=2.0)
        await feeder.write_frame({"id": refresh["id"], "values": [10.0]})
        reply = await asyncio.wait_for(client.read_frame(), timeout=2.0)
        feeder.close()
        client.close()
        await server.close()
        return reply

    reply = asyncio.run(scenario())
    assert reply["error"] == "ValueError: original_width must be non-negative"


def test_unbounded_decision_of_a_notifying_policy_invalidates_and_forgets():
    policy = _Decide(width=4.0, notify=True)
    core = _core(policy)
    core.refresh("a", 1.0, True)
    assert "a" in core.cache
    policy.width = policy.original_width = float("inf")
    core.refresh("a", 2.0, True)
    assert "a" not in core.cache
    assert core.sources["a"].published_interval is None
    # A forgotten source stops propagating writes: no refresh fires.
    assert _update(core, "a", 1e6, 3.0) == 0


@pytest.mark.parametrize("notify", [True, False], ids=["notifying", "paper"])
def test_evicted_keys_forget_their_publication_under_a_notifying_policy(notify):
    core = _core(_Decide(width=4.0, notify=notify), capacity=1)
    core.refresh("a", 1.0, True)
    core.refresh("b", 2.0, True)
    assert len(core.cache) == 1
    (evicted,) = {"a", "b"} - set(core.cache.keys())
    # The paper's algorithm keeps refreshing an evicted approximation.
    assert core.sources[evicted].is_tracked is not notify


def test_query_refresh_installs_the_fetched_value_not_the_mirrors():
    policy = _Decide(width=2.0)
    core = _core(policy)
    assert core.refresh("a", 1.0, True, 42.0) == 42.0
    assert core.sources["a"].value == 42.0
    assert core.sources["a"].published_interval == Interval(41.0, 43.0)
    assert policy.decided == [("a", 42.0)]
    # Without a fetched value the mirror's own value is refreshed.
    assert core.refresh("b", 2.0, True) == 20.0
    network = core.network
    assert (network.query_refreshes, network.value_refreshes) == (2, 0)
    assert network.total_cost == 4.0
