"""repro.serving — the online serving layer.

The paper's environment is inherently *online*: caches answer
precision-bounded queries over live-updating sources, pulling exact values
only when a query's constraint cannot be met from cached intervals.  The
simulator replays that environment offline; this package serves it for real:

* :mod:`repro.serving.protocol` — the length-prefixed JSON wire format and
  the typed request/response dataclasses (wire-format byte-identical to the
  raw dicts they replaced),
* :mod:`repro.serving.transport` — frame transports over TCP streams or an
  in-process loopback (so tests and CI run server plus clients
  deterministically without sockets),
* :mod:`repro.serving.api` — the one typed client (:class:`Client`), the
  one target dialer (:func:`dial`: ``tcp://`` URLs and loopback) and the
  :class:`ServeConfig` deployment description every ``repro serve`` role is
  built from,
* :mod:`repro.serving.execution` — asynchronous bounded-query execution
  reusing the offline refresh-selection logic,
* :mod:`repro.serving.server` — the asyncio cache server: ``update`` RPCs
  from source feeders, ``query`` RPCs from clients (refresh RPCs are issued
  back to the owning feeder connection when needed), ``stats``, admission
  control and write-through sends bounded by each transport,
* :mod:`repro.serving.gateway` — the partitioned front-end: stable-hash key
  routing across N partition servers, feeder tunnelling, global policy-free
  refresh selection (serialized replay is bit-identical to the offline
  simulator at any partition count), partition supervision and resync,
* :mod:`repro.serving.procs` — partition/gateway worker processes
  (:class:`ProcessPartitionPool`, :class:`ServerProcess`),
* :mod:`repro.serving.http` — the stdlib HTTP/1.1 edge: ``GET /metrics``
  (Prometheus text) and ``GET /healthz`` beside the framed protocol,
* :mod:`repro.serving.loadgen` — the trace-replay load harness:
  deterministic mode reproducing the offline simulator's numbers exactly,
  and open-loop mode firing seeded arrival schedules (steady/ramp/flash,
  Zipf key popularity) at any dialable target, measuring latency
  percentiles, throughput, rejections and deadline misses.

CLI entry points: ``repro serve --role {single,gateway}`` and
``repro loadgen``; the ``serving_faults`` experiment audits the
deterministic replay under seeded faults and ``serving_partition_sweep``
sweeps whole multi-process deployments open loop.  See ``docs/SERVING.md``.
"""

from repro.serving.api import Client, ServeConfig, dial
from repro.serving.gateway import GatewayServer
from repro.serving.http import HttpEdge
from repro.serving.loadgen import (
    LoadgenReport,
    MultiTargetDialer,
    OpenLoopProfile,
    replay_trace_deterministic,
    run_open_loop,
)
from repro.serving.procs import ProcessPartitionPool, ServerProcess
from repro.serving.server import CacheServer, ServingStatistics
from repro.serving.transport import (
    LoopbackFrameTransport,
    StreamFrameTransport,
    loopback_pair,
)

__all__ = [
    "CacheServer",
    "Client",
    "GatewayServer",
    "HttpEdge",
    "LoadgenReport",
    "LoopbackFrameTransport",
    "MultiTargetDialer",
    "OpenLoopProfile",
    "ProcessPartitionPool",
    "ServeConfig",
    "ServerProcess",
    "ServingStatistics",
    "StreamFrameTransport",
    "dial",
    "loopback_pair",
    "replay_trace_deterministic",
    "run_open_loop",
]
