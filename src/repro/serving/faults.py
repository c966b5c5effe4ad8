"""Deterministic fault injection for the serving stack.

Chaos runs are only regression-testable if they are replayable: the same
plan must produce the same faults at the same points of the protocol
exchange on every run.  A :class:`FaultPlan` therefore derives every
decision from seeded :mod:`random` streams keyed by *position* — one
:class:`SessionFaults` stream per (role, connection ordinal), one draw per
frame — never from wall-clock time, so a replay with the same seed drops,
delays, truncates and reorders exactly the same frames.

:class:`FaultyTransport` wraps any frame transport (loopback or TCP) and
injects the transport-level faults:

* **drop** — the connection dies instead of carrying a written frame, as a
  reset socket would;
* **truncate** — a corrupt frame reaches the peer and the connection dies;
  the reader's :class:`~repro.serving.protocol.ProtocolError` path ends the
  session, exercising the same teardown a half-written TCP frame causes;
* **delay** — a read frame is delivered late (``delay_seconds``);
* **reorder** — a read frame is held back and delivered after its follower
  (bounded by ``reorder_window`` so a held frame cannot stall a quiet
  connection forever).

Feeder **kills** (``kill_every`` update batches, then ``outage_queries``
queries of downtime before the reconnect-and-resync) are scheduled by the
load generator from the same plan — they are protocol-level events, not
transport ones.  Partition **kills** (``partition_kill_every`` update
batches, SIGKILL of a seeded-random pool partition, at most
``partition_kills`` times) are likewise scheduled by the load generator,
and exercise the WAL/checkpoint recovery path end to end.

The CLI accepts a compact spec (``--fault-plan``)::

    seed=11,drop=0.002,truncate=0.001,delay=0.01,reorder=0.005,kill_every=40,outage=2

``none`` (or an empty string) is the zero plan: every wrapper becomes a
pass-through and a wrapped run stays bit-identical to an unwrapped one.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.core.checks import at_least, non_negative, positive, probability
from repro.obs.metrics import REGISTRY
from repro.serving.errors import ConnectionLost

#: Registry counters for injected faults, one series per fault kind.  They
#: run alongside the per-session ``counters`` dicts (which tests and the
#: loadgen report read back directly) and give chaos runs a scrapeable
#: whole-process total; recording draws nothing, so the seeded fault
#: streams are untouched by the registry's state.
_FAULTS_INJECTED = {
    kind: REGISTRY.counter(
        "repro_faults_injected_total",
        "Transport faults injected by the deterministic fault plan.",
        kind=kind,
    )
    for kind in ("drop", "truncate", "delay", "reorder")
}

#: Default injected delivery delay, seconds.
DEFAULT_DELAY_SECONDS = 0.002

#: Default wait for a follower frame before a held (reordered) frame is
#: delivered anyway, seconds.
DEFAULT_REORDER_WINDOW = 0.02

_SPEC_ALIASES = {
    "seed": "seed",
    "drop": "drop_rate",
    "drop_rate": "drop_rate",
    "truncate": "truncate_rate",
    "truncate_rate": "truncate_rate",
    "trunc": "truncate_rate",
    "delay": "delay_rate",
    "delay_rate": "delay_rate",
    "delay_ms": "delay_ms",
    "delay_seconds": "delay_seconds",
    "reorder": "reorder_rate",
    "reorder_rate": "reorder_rate",
    "reorder_window": "reorder_window",
    "kill_every": "kill_every",
    "kill": "kill_every",
    "outage": "outage_queries",
    "outage_queries": "outage_queries",
    "part_kill_every": "partition_kill_every",
    "partition_kill_every": "partition_kill_every",
    "part_kills": "partition_kills",
    "partition_kills": "partition_kills",
}

_INT_FIELDS = {
    "seed",
    "kill_every",
    "outage_queries",
    "partition_kill_every",
    "partition_kills",
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable fault schedule (see the module docstring)."""

    seed: int = 0
    drop_rate: float = 0.0
    truncate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = DEFAULT_DELAY_SECONDS
    reorder_rate: float = 0.0
    reorder_window: float = DEFAULT_REORDER_WINDOW
    kill_every: int = 0
    outage_queries: int = 0
    #: SIGKILL a pool partition every N update batches (0 = never), at most
    #: ``partition_kills`` times (0 = unbounded).  The victim partition is
    #: drawn from the plan's own seeded stream, and kills land *between*
    #: awaited protocol ops — seeded frame positions, not wall clock — so a
    #: chaos replay kills the same partitions at the same points every run.
    partition_kill_every: int = 0
    partition_kills: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "truncate_rate", "delay_rate", "reorder_rate"):
            probability(name, getattr(self, name))
        if self.drop_rate + self.truncate_rate > 1.0:
            raise ValueError("drop_rate + truncate_rate must not exceed 1")
        non_negative("delay_seconds", self.delay_seconds, finite=True)
        positive("reorder_window", self.reorder_window, finite=True)
        for name in (
            "kill_every",
            "outage_queries",
            "partition_kill_every",
            "partition_kills",
        ):
            at_least(name, getattr(self, name), 0, finite=True)

    @property
    def is_zero(self) -> bool:
        """Whether this plan injects nothing at all."""
        return (
            self.drop_rate == 0.0
            and self.truncate_rate == 0.0
            and self.delay_rate == 0.0
            and self.reorder_rate == 0.0
            and self.kill_every == 0
            and self.partition_kill_every == 0
        )

    def session(self, role: str, index: int) -> "SessionFaults":
        """The fault stream of one connection (``role`` + ordinal ``index``).

        Reconnections take the next ordinal, so a re-dialled connection
        draws a fresh — but still fully determined — fault sequence.
        """
        return SessionFaults(self, role, index)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI's compact ``key=value,...`` spec (see module doc)."""
        spec = text.strip()
        if not spec or spec == "none":
            return cls()
        values: Dict[str, Any] = {}
        for part in spec.split(","):
            name, separator, raw = part.partition("=")
            name = name.strip()
            field_name = _SPEC_ALIASES.get(name)
            if not separator or field_name is None:
                known = ", ".join(sorted(_SPEC_ALIASES))
                raise ValueError(
                    f"bad fault-plan entry {part!r}; expected key=value with "
                    f"a key among: {known}"
                )
            if field_name == "delay_ms":
                values["delay_seconds"] = float(raw) / 1000.0
            elif field_name in _INT_FIELDS:
                values[field_name] = int(raw)
            else:
                values[field_name] = float(raw)
        return cls(**values)

    def describe(self) -> str:
        """The canonical spec string (``none`` for the zero plan)."""
        if self.is_zero:
            return "none"
        parts = []
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            default = spec_field.default
            if value != default or spec_field.name == "seed":
                rendered = value if spec_field.name in _INT_FIELDS else f"{value:g}"
                parts.append(f"{spec_field.name}={rendered}")
        return ",".join(parts)


class SessionFaults:
    """One connection's deterministic fault stream plus injection counters."""

    __slots__ = ("plan", "role", "index", "counters", "_rng")

    def __init__(self, plan: FaultPlan, role: str, index: int) -> None:
        self.plan = plan
        self.role = role
        self.index = index
        self.counters: Dict[str, int] = {
            "drops": 0,
            "truncations": 0,
            "delays": 0,
            "reorders": 0,
        }
        # String seeding hashes through sha512, so the stream is identical
        # across processes and interpreter runs (unlike salted object hashes).
        self._rng = random.Random(f"faults:{plan.seed}:{role}:{index}")

    def next_write_fault(self) -> Optional[str]:
        """Decide this written frame's fate: ``drop``, ``truncate`` or None."""
        plan = self.plan
        if plan.drop_rate == 0.0 and plan.truncate_rate == 0.0:
            return None
        draw = self._rng.random()
        if draw < plan.drop_rate:
            self.counters["drops"] += 1
            _FAULTS_INJECTED["drop"].inc()
            return "drop"
        if draw < plan.drop_rate + plan.truncate_rate:
            self.counters["truncations"] += 1
            _FAULTS_INJECTED["truncate"].inc()
            return "truncate"
        return None

    def read_delay(self) -> float:
        """Seconds to delay this read frame's delivery (0 for on-time)."""
        plan = self.plan
        if plan.delay_rate == 0.0:
            return 0.0
        if self._rng.random() < plan.delay_rate:
            self.counters["delays"] += 1
            _FAULTS_INJECTED["delay"].inc()
            return plan.delay_seconds
        return 0.0

    def should_reorder(self) -> bool:
        """Whether this read frame is held back behind its follower."""
        plan = self.plan
        if plan.reorder_rate == 0.0:
            return False
        return self._rng.random() < plan.reorder_rate


class FaultyTransport:
    """A frame transport that misbehaves on schedule.

    Wraps any object with the transport surface (``read_frame`` /
    ``write_frame`` / ``close`` / ``wait_closed``) and applies one
    :class:`SessionFaults` stream to it.  Injected connection deaths raise
    :class:`~repro.serving.errors.ConnectionLost`, which subclasses
    ``ConnectionResetError`` — exactly what a genuinely reset transport
    raises — so the code under test cannot tell scheduled faults from real
    ones.
    """

    def __init__(self, transport: Any, faults: SessionFaults) -> None:
        self._transport = transport
        self._faults = faults
        self._held: Optional[Dict[str, Any]] = None

    @property
    def faults(self) -> SessionFaults:
        """The fault stream steering this transport."""
        return self._faults

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        if self._held is not None:
            frame, self._held = self._held, None
            return frame
        frame = await self._transport.read_frame()
        if frame is None:
            return None
        faults = self._faults
        delay = faults.read_delay()
        if delay > 0.0:
            await asyncio.sleep(delay)
        if faults.should_reorder():
            # Hold this frame back behind its follower — but only wait a
            # bounded window for one, so a reorder on a quiet connection
            # degrades to an ordinary delay instead of a stall.
            try:
                follower = await asyncio.wait_for(
                    self._transport.read_frame(), faults.plan.reorder_window
                )
            except asyncio.TimeoutError:
                return frame
            if follower is None:
                return frame
            faults.counters["reorders"] += 1
            _FAULTS_INJECTED["reorder"].inc()
            self._held = frame
            return follower
        return frame

    async def write_frame(self, message: Dict[str, Any]) -> None:
        fault = self._faults.next_write_fault()
        if fault == "drop":
            self._transport.close()
            raise ConnectionLost("fault injection: connection dropped mid-write")
        if fault == "truncate":
            corrupt = getattr(self._transport, "write_corrupt_frame", None)
            if corrupt is not None:
                try:
                    await corrupt()
                except (ConnectionResetError, BrokenPipeError, RuntimeError):
                    pass
            self._transport.close()
            raise ConnectionLost("fault injection: frame truncated mid-write")
        await self._transport.write_frame(message)

    def close(self) -> None:
        self._transport.close()

    async def wait_closed(self) -> None:
        await self._transport.wait_closed()
