"""Span recording and the layer probes the benchmark installs.

The benchmark never edits the program: it times calls into each layer's
public functions by wrapping them from here, for the duration of one
workload repetition, and restores the originals afterwards.

Two kinds of probe share the same wrappers:

* light probes, always on, that the end-to-end metrics need: the latency of
  each request the load driver sends (``Client.request`` on a connection the
  driver dialled) and the latency and event count of each simulation run;
* spans, on only in the traced run: one span per wrapped call, with name,
  start, end, parent span and request id.

Spans are kept in compact in-memory arrays and written out once, when the
run ends (:meth:`SpanRecorder.dump`).  A span's parent is the innermost span
open when it starts; a request id is minted by every span opened with
``new_request`` (the driver's requests, one table) and inherited by the spans
nested in it.  Self time is charged online: the time between any two span
boundaries goes to the innermost open span, so a layer's self time is its
spans' time minus the part covered by spans nested in them, and the self
times of one repetition add up to its measured time.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "harness",
    "experiments",
    "data",
    "simulation",
    "queries",
    "api",
    "protocol",
    "server",
    "gateway",
    "execution",
    "durability",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans of one traced repetition, in start order, timed by ``clock``."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.self_time = array("d")
        self._open: List[int] = []
        self._last = 0.0
        self._requests = 0

    @property
    def count(self) -> int:
        return len(self.start)

    def begin(self, name: str, new_request: bool = False) -> int:
        now = self._clock()
        open_spans = self._open
        if open_spans:
            parent = open_spans[-1]
            self.self_time[parent] += now - self._last
            request = self.request[parent]
        else:
            parent = -1
            request = 0
        if new_request or parent < 0:
            self._requests += 1
            request = self._requests
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(parent)
        self.request.append(request)
        self.self_time.append(0.0)
        open_spans.append(index)
        self._last = now
        return index

    def finish(self, index: int) -> None:
        now = self._clock()
        open_spans = self._open
        innermost = open_spans[-1]
        self.self_time[innermost] += now - self._last
        self._last = now
        self.end[index] = now
        if innermost == index:
            open_spans.pop()
        else:
            # Concurrent asyncio siblings (a gateway fan-out) may end out of
            # start order.
            open_spans.remove(index)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: outermost calls, their time, and self time.

        A call nested in a span of the same name (one selection function
        calling another) is not counted again, so ``calls`` and ``seconds``
        describe the entries into that probe from outside it.
        """
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self": 0.0}
        )
        name, parent, start, end = self.name, self.parent, self.start, self.end
        self_time = self.self_time
        for index in range(len(start)):
            entry = totals[self.names[name[index]]]
            entry["self"] += self_time[index]
            up = parent[index]
            if up >= 0 and name[up] == name[index]:
                continue
            entry["calls"] += 1
            entry["seconds"] += end[index] - start[index]
        return totals

    def dump(self, path: Path, info: Dict[str, Any]) -> None:
        """Write every span to ``path`` (numpy ``.npz``) with ``info``."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            info=np.array(json.dumps(info)),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
        )


class Probes:
    """Installs the layer wrappers; ``close`` restores every original.

    Latencies are read from ``clock``; ``recorder`` turns spans on.
    :meth:`tag` names the servers the load
    driver and the gateway dial: requests on connections to the first are
    the driver's (timed as latency samples, spans ``api.<op>``), requests
    on connections to the others are the gateway's partition RPCs (spans
    ``gateway.partition_rpc.<op>``).
    """

    def __init__(
        self, clock: Callable[[], float], recorder: Optional[SpanRecorder] = None
    ) -> None:
        self.clock = clock
        self.recorder = recorder
        #: Latency samples (seconds) of the driver's requests, by op.
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        #: One ``(seconds, events, value refreshes, query refreshes,
        #: queries)`` tuple per simulation run.
        self.simulations: List[tuple] = []
        #: Frames encoded and their bytes (traced run only).
        self.frames = 0
        self.frame_bytes = 0
        self._driver_transports: "weakref.WeakSet" = weakref.WeakSet()
        self._partition_transports: "weakref.WeakSet" = weakref.WeakSet()
        self._patches: List[tuple] = []
        try:
            self._install()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Patching helpers
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _replace_function(self, function: Callable, replacement: Callable) -> None:
        """Rebind ``function`` in every ``repro`` module that holds it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, replacement)

    def _sync_span(self, name: str, function: Callable) -> Callable:
        recorder = self.recorder
        begin, finish = recorder.begin, recorder.finish

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                finish(span)

        return wrapper

    def _async_span(self, name: str, function: Callable) -> Callable:
        recorder = self.recorder
        begin, finish = recorder.begin, recorder.finish

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                return await function(*args, **kwargs)
            finally:
                finish(span)

        return wrapper

    def _tag_connections(self, server: Any, tagged: "weakref.WeakSet") -> None:
        connect = server.connect

        def tagging_connect(*args: Any, **kwargs: Any) -> Any:
            transport = connect(*args, **kwargs)
            tagged.add(transport)
            return transport

        self._set(server, "connect", tagging_connect)

    # ------------------------------------------------------------------
    # The probes
    # ------------------------------------------------------------------
    def tag(self, driver: Any, partitions: Any = ()) -> None:
        """Name the server the driver dials and the gateway's partitions."""
        self._tag_connections(driver, self._driver_transports)
        for partition in partitions:
            self._tag_connections(partition, self._partition_transports)

    def _install(self) -> None:
        from repro.serving.api import Client
        from repro.simulation.simulator import CacheSimulation

        self._probe_requests(Client)
        self._probe_simulations(CacheSimulation)
        if self.recorder is not None:
            self._install_spans()

    def _probe_requests(self, client_class: Any) -> None:
        original = client_class.request
        latencies = self.latencies
        drivers, partitions = self._driver_transports, self._partition_transports
        recorder, clock = self.recorder, self.clock

        async def request(client: Any, op: str, *args: Any, **kwargs: Any) -> Any:
            transport = client._transport
            if transport in drivers:
                name, new_request = f"api.{op}", True
            elif transport in partitions:
                name, new_request = f"gateway.partition_rpc.{op}", False
            else:
                return await original(client, op, *args, **kwargs)
            span = recorder.begin(name, new_request) if recorder else -1
            begin = clock()
            try:
                return await original(client, op, *args, **kwargs)
            finally:
                if new_request:
                    latencies[op].append(clock() - begin)
                if recorder:
                    recorder.finish(span)

        self._set(client_class, "request", functools.wraps(original)(request))

    def _probe_simulations(self, simulation_class: Any) -> None:
        original = simulation_class.run
        simulations = self.simulations
        recorder, clock = self.recorder, self.clock

        def run(simulation: Any) -> Any:
            span = recorder.begin("simulation.run") if recorder else -1
            begin = clock()
            try:
                result = original(simulation)
            finally:
                elapsed = clock() - begin
                if recorder:
                    recorder.finish(span)
            simulations.append(
                (
                    elapsed,
                    result.events_processed,
                    result.value_refresh_count,
                    result.query_refresh_count,
                    result.query_count,
                )
            )
            return result

        self._set(simulation_class, "run", functools.wraps(original)(run))

    def _install_spans(self) -> None:
        from repro.data.streams import UpdateStream
        from repro.data.traffic import SyntheticTrafficTraceGenerator
        from repro.queries import refresh_selection
        from repro.serving import execution, protocol
        from repro.serving.durability import PartitionDurability
        from repro.serving.gateway import GatewayServer
        from repro.serving.server import CacheServer

        generator = SyntheticTrafficTraceGenerator
        self._set(
            generator, "generate", self._sync_span("data.trace_gen", generator.generate)
        )
        stream_classes = [UpdateStream]
        for stream_class in stream_classes:
            stream_classes.extend(stream_class.__subclasses__())
            if "schedule" in vars(stream_class):
                wrapped = self._sync_span("data.schedule", stream_class.schedule)
                self._set(stream_class, "schedule", wrapped)
        for function in (
            refresh_selection.run_query_refreshes,
            refresh_selection.select_sum_refreshes,
            refresh_selection.select_sum_refreshes_columnar,
        ):
            wrapped = self._sync_span("queries.select", function)
            self._replace_function(function, wrapped)
        encode = protocol.encode_frame
        begin, finish = self.recorder.begin, self.recorder.finish

        @functools.wraps(encode)
        def encode_frame(message: Any) -> bytes:
            span = begin("protocol.encode")
            try:
                frame = encode(message)
            finally:
                finish(span)
            self.frames += 1
            self.frame_bytes += len(frame)
            return frame

        self._replace_function(encode, encode_frame)
        decode = protocol.decode_payload
        self._replace_function(decode, self._sync_span("protocol.decode", decode))
        select = execution.execute_partitioned_query
        self._replace_function(select, self._async_span("execution.select", select))
        for name, owner in (("server", CacheServer), ("gateway", GatewayServer)):
            dispatch = self._async_span(f"{name}.dispatch", owner._dispatch)
            self._set(owner, "_dispatch", dispatch)
        for method in ("append", "checkpoint"):
            original = getattr(PartitionDurability, method)
            wrapped = self._sync_span(f"durability.{method}", original)
            self._set(PartitionDurability, method, wrapped)
