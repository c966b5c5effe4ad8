"""Open-loop load generation, and the latency-percentile accounting fix.

Latency percentiles must describe *answered* queries only: a rejected
(overloaded) or timed-out operation has no answer, and its turnaround —
near-zero for a rejection, the full deadline for a timeout — would skew
p50/p99/max either way.  The stub-server regression test here pins that
behaviour for the serialised replay; the open-loop tests cover the seeded
arrival schedules (steady / ramp / flash), Zipf key picking at any skew,
end-to-end runs against a real server (one feeder or several splitting
the keys), and that a failed run leaves no connection open.
"""

import asyncio
import random

import pytest

from repro.experiments.workloads import (
    serving_policy,
    traffic_config,
    traffic_trace,
)
from repro.serving.loadgen import (
    OpenLoopProfile,
    replay_trace_deterministic,
    run_open_loop,
)
from repro.serving.server import CacheServer
from repro.serving.transport import loopback_pair

HOSTS = 6
DURATION = 30


def _workload():
    trace = traffic_trace(host_count=HOSTS, duration=DURATION)
    return trace, traffic_config(trace, seed=5).with_changes(warmup=0.0)


class _RejectingStubServer:
    """Answers every other query ``overloaded`` — after a long stall.

    If rejected queries leaked into the latency sample, the stall would
    dominate p99/max; with the fix the percentiles only see the instant
    answers.
    """

    STALL_SECONDS = 0.05

    def __init__(self):
        self._queries = 0
        self._tasks = set()

    def connect(self, buffer: int = 128):
        client_end, server_end = loopback_pair(buffer)
        task = asyncio.ensure_future(self._serve(server_end))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client_end

    async def close(self):
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _serve(self, transport):
        try:
            while True:
                frame = await transport.read_frame()
                if frame is None:
                    return
                reply = {"id": frame.get("id"), "ok": True}
                op = frame.get("op")
                if op == "register":
                    reply["registered"] = len(frame.get("keys", []))
                    reply["epoch"] = 1
                elif op == "update":
                    reply["refresh"] = False
                elif op == "update_batch":
                    reply["refreshes"] = 0
                elif op == "query":
                    self._queries += 1
                    if self._queries % 2 == 0:
                        await asyncio.sleep(self.STALL_SECONDS)
                        reply.update(
                            ok=False, overloaded=True, error="overloaded: stub"
                        )
                    else:
                        keys = frame.get("keys", [])
                        reply.update(
                            low=0.0,
                            high=0.0,
                            refreshed=[],
                            hits=len(keys),
                            misses=0,
                        )
                await transport.write_frame(reply)
        except asyncio.CancelledError:
            pass
        finally:
            transport.close()


class _RegistrationRecordingServer(CacheServer):
    """A real server that remembers which keys each feeder registered."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.registered = {}

    def _handle_register(self, connection, request):
        self.registered.setdefault(request.feeder, []).extend(request.keys)
        return super()._handle_register(connection, request)


class TestRejectionLatencyAccounting:
    def test_rejected_queries_are_excluded_from_percentiles(self):
        trace, config = _workload()
        stub = _RejectingStubServer()

        async def drive():
            try:
                return await replay_trace_deterministic(stub, trace, config)
            finally:
                await stub.close()

        report = asyncio.run(drive())
        assert report.queries_rejected > 0
        assert report.queries > report.queries_rejected
        # The stub stalls every rejection for 50ms; answered queries return
        # instantly.  Percentiles over answered queries must not see the
        # stalls.
        stall_ms = _RejectingStubServer.STALL_SECONDS * 1000.0
        assert report.max_latency_ms < stall_ms
        assert report.p99_latency_ms < stall_ms


class TestOpenLoopProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            OpenLoopProfile(shape="spike")
        with pytest.raises(ValueError, match="duration"):
            OpenLoopProfile(duration_s=0)
        with pytest.raises(ValueError, match="base_rate"):
            OpenLoopProfile(base_rate=0)
        with pytest.raises(ValueError, match="keys_per_query"):
            OpenLoopProfile(keys_per_query=0)

    def test_arrivals_are_deterministic_per_seed(self):
        profile = OpenLoopProfile(duration_s=1.0, base_rate=100.0, seed=3)
        assert profile.arrival_times() == profile.arrival_times()
        other = OpenLoopProfile(duration_s=1.0, base_rate=100.0, seed=4)
        assert profile.arrival_times() != other.arrival_times()

    def test_arrivals_are_sorted_within_duration(self):
        profile = OpenLoopProfile(duration_s=0.5, base_rate=400.0)
        times = profile.arrival_times()
        assert times == sorted(times)
        assert all(0.0 <= t < 0.5 for t in times)

    def test_ramp_rate_climbs(self):
        profile = OpenLoopProfile(
            duration_s=2.0, base_rate=100.0, peak_rate=500.0, shape="ramp"
        )
        assert profile.rate_at(0.0) == 100.0
        assert profile.rate_at(1.0) == pytest.approx(300.0)
        assert profile.rate_at(2.0) == pytest.approx(500.0)

    def test_flash_crowd_is_the_middle_fifth(self):
        profile = OpenLoopProfile(
            duration_s=1.0, base_rate=100.0, peak_rate=900.0, shape="flash"
        )
        assert profile.rate_at(0.1) == 100.0
        assert profile.rate_at(0.5) == 900.0
        assert profile.rate_at(0.9) == 100.0
        flash = OpenLoopProfile(
            duration_s=1.0, base_rate=100.0, peak_rate=900.0, shape="flash", seed=1
        )
        steady = OpenLoopProfile(
            duration_s=1.0, base_rate=100.0, shape="steady", seed=1
        )
        assert len(flash.arrival_times()) > len(steady.arrival_times())

    def test_pick_keys_default_skew_draws_are_pinned(self):
        # The redraw loop consumes the seeded stream one draw at a time; a
        # change to how weights are drawn would move every open-loop run.
        profile = OpenLoopProfile()
        keys = [f"k{i}" for i in range(25)]
        rng = random.Random("open-loop-keys:0")
        assert [profile.pick_keys(keys, rng) for _ in range(6)] == [
            ["k0", "k9", "k4", "k2"],
            ["k1", "k20", "k19", "k16"],
            ["k9", "k5", "k0", "k19"],
            ["k14", "k5", "k1", "k0"],
            ["k13", "k8", "k0", "k17"],
            ["k8", "k15", "k19", "k0"],
        ]

    @pytest.mark.parametrize("zipf_s", [0, 1.1, 2000])
    def test_pick_keys_takes_every_key_at_any_skew(self, zipf_s):
        # At zipf_s=2000 every weight past rank 0 overflows to 0.0, so the
        # keys a redraw can never reach come in rank order.
        keys = [f"k{i}" for i in range(12)]
        profile = OpenLoopProfile(zipf_s=zipf_s, keys_per_query=len(keys))
        chosen = profile.pick_keys(keys, random.Random(1))
        assert sorted(chosen) == sorted(keys)
        if zipf_s == 2000:
            assert chosen == keys

    def test_pick_keys_is_distinct_and_zipf_skewed(self):
        profile = OpenLoopProfile(keys_per_query=3, zipf_s=1.5)
        keys = [f"k{i}" for i in range(20)]
        rng = random.Random(0)
        counts = {}
        for _ in range(400):
            chosen = profile.pick_keys(keys, rng)
            assert len(chosen) == len(set(chosen)) == 3
            for key in chosen:
                counts[key] = counts.get(key, 0) + 1
        assert counts["k0"] > counts.get("k19", 0)


class TestRunOpenLoop:
    def test_steady_run_against_real_server(self):
        trace, config = _workload()
        profile = OpenLoopProfile(
            duration_s=0.4, base_rate=150.0, constraint=1000.0, seed=2
        )

        async def drive():
            server = CacheServer(
                serving_policy(),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            )
            try:
                return await run_open_loop(
                    server, trace, config, profile=profile, connections=2
                )
            finally:
                await server.close()

        report = asyncio.run(drive())
        assert report.mode == "open-loop/steady"
        assert report.queries > 0
        assert report.queries_rejected == 0
        assert report.hits + report.misses > 0
        assert report.max_latency_ms > 0.0

    def test_overloaded_server_rejections_are_counted_not_timed(self):
        trace, config = _workload()
        profile = OpenLoopProfile(
            duration_s=0.4, base_rate=400.0, constraint=0.0, seed=2
        )

        async def drive():
            server = CacheServer(
                serving_policy(),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
                max_inflight_queries=1,
                admission_queue_limit=0,
            )
            try:
                return await run_open_loop(
                    server, trace, config, profile=profile, connections=4
                )
            finally:
                await server.close()

        report = asyncio.run(drive())
        assert report.queries_rejected > 0
        assert report.queries > 0

    def test_two_feeders_split_the_keys(self):
        # Alternate keys go to alternate feeders, so a query's refresh
        # batch can span both feeder connections.
        trace, config = _workload()
        profile = OpenLoopProfile(
            duration_s=0.4, base_rate=150.0, constraint=1000.0, seed=2
        )
        server = None

        async def drive():
            nonlocal server
            server = _RegistrationRecordingServer(
                serving_policy(),
                value_refresh_cost=config.value_refresh_cost,
                query_refresh_cost=config.query_refresh_cost,
            )
            try:
                return await run_open_loop(
                    server,
                    trace,
                    config,
                    profile=profile,
                    connections=4,
                    feeders=2,
                )
            finally:
                await server.close()

        report = asyncio.run(drive())
        keys = list(trace.keys)
        assert server.registered == {
            "feeder-0": keys[0::2],
            "feeder-1": keys[1::2],
        }
        assert report.queries > 0
        assert report.hits > 0
        assert report.updates_sent > 0
        assert report.queries_rejected == 0
        assert report.p99_latency_ms >= report.p50_latency_ms >= 0.0

    @pytest.mark.parametrize("name, value", [("connections", 0), ("feeders", 0)])
    def test_connections_must_be_positive(self, name, value):
        trace, config = _workload()
        with pytest.raises(ValueError, match=name):
            asyncio.run(
                run_open_loop(
                    None,
                    trace,
                    config,
                    profile=OpenLoopProfile(),
                    **{name: value},
                )
            )


class _RefusingDialer:
    """Dials a real server, but refuses the connection numbered ``refuse``."""

    def __init__(self, server, refuse):
        self._server = server
        self._refuse = refuse
        self._dialled = 0

    def connect(self):
        self._dialled += 1
        if self._dialled == self._refuse:
            raise ConnectionRefusedError("refused by the test dialer")
        return self._server.connect()


class _UnschedulableProfile(OpenLoopProfile):
    def arrival_times(self):
        raise RuntimeError("no schedule")


async def _close_within(server, seconds):
    """Await ``server.close()`` inline, failing if it takes ``seconds``.

    Not ``asyncio.wait_for``: on Python 3.11 and older it runs ``close`` as
    a new task, queued behind the serve tasks of freshly dialled loopback
    connections, so those register and get closed first — which hides a
    leak of exactly those connections.  ``close`` raises the cancel aimed
    at it, so one timer bounds it.
    """
    timer = asyncio.get_running_loop().call_later(
        seconds, asyncio.current_task().cancel
    )
    try:
        await server.close()
    except asyncio.CancelledError:
        raise AssertionError(
            f"server.close() still waiting after {seconds} s"
        ) from None
    finally:
        timer.cancel()


class TestOpenLoopClosesConnections:
    """A run that raises must not strand a connection on the server.

    ``CacheServer.close`` waits for every connection to end, so a leaked
    feeder or client connection turns the caller's ``close`` into a hang.
    """

    def _server(self, config):
        return CacheServer(
            serving_policy(),
            value_refresh_cost=config.value_refresh_cost,
            query_refresh_cost=config.query_refresh_cost,
        )

    def test_zipf_2000_run_completes_and_server_closes(self):
        trace, config = _workload()
        profile = OpenLoopProfile(duration_s=0.2, base_rate=100.0, zipf_s=2000, seed=2)

        async def drive():
            server = self._server(config)
            try:
                return await run_open_loop(
                    server, trace, config, profile=profile, connections=2
                )
            finally:
                await _close_within(server, 5)

        report = asyncio.run(drive())
        assert report.queries > 0
        assert report.queries_rejected == 0

    @pytest.mark.parametrize(
        "failure, error",
        [
            ("second client dial refused", ConnectionRefusedError),
            ("schedule raises", RuntimeError),
        ],
    )
    def test_failed_run_closes_every_connection(self, failure, error):
        trace, config = _workload()

        async def drive():
            server = self._server(config)
            target, profile = server, OpenLoopProfile(duration_s=0.2, seed=2)
            if failure == "second client dial refused":
                # Dials: feeder, client 1, client 2 (refused).
                target = _RefusingDialer(server, refuse=3)
            else:
                profile = _UnschedulableProfile(duration_s=0.2, seed=2)
            try:
                await run_open_loop(
                    target, trace, config, profile=profile, connections=2
                )
            finally:
                await _close_within(server, 5)

        # A close that hangs fails with its AssertionError instead.
        with pytest.raises(error):
            asyncio.run(drive())
