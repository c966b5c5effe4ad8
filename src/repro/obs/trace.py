"""Deterministic trace spans and the crash flight recorder.

**Span identity is positional, never temporal.**  A span ID is derived
from ``(connection ordinal, frame position)`` — the connection's accept
ordinal on the recording process and the position of the frame that caused
the work — rendered as ``role:ordinal:frame``.  Nothing about a span reads
the wall clock or draws randomness, so a serialized replay records the
identical span stream every run and enabling tracing cannot perturb the
bit-identity guarantees (span recording is append-only into a ring).

Each process in a deployment (gateway, partitions, load generator) records
its own spans: the query's gateway span, the partition spans its fan-out
causes, and the refresh-RPC spans back toward feeders all carry IDs that
re-derive identically on every replay, so cross-process traces line up by
construction instead of by propagated headers (the wire format stays
byte-identical with tracing on or off).

**Flight recorder.**  Spans land in a bounded ring
(:class:`FlightRecorder`, default 512 events).  On a crash the ring is
dumped to ``<dir>/<role>[-<detail>].flightrec.json`` — partitions dump on
unhandled exceptions (:func:`crash_dump_scope`), and the *gateway* dumps
its own recent spans when it notices a partition died (SIGKILL leaves the
victim nothing to dump; the survivor's view of the last frames before the
death is what makes a chaos-suite failure diagnosable).
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.core.checks import at_least

__all__ = [
    "DEFAULT_RING_SIZE",
    "FlightRecorder",
    "TRACER",
    "Tracer",
    "configure_tracer",
    "crash_dump_scope",
    "span_id",
]

DEFAULT_RING_SIZE = 512

#: Bumped when the dump layout changes, so tooling can refuse old files.
FLIGHTREC_VERSION = 1


def span_id(role: str, connection: int, frame: Any) -> str:
    """The deterministic span ID for a frame position on a connection."""
    return f"{role}:{connection}:{frame}"


class FlightRecorder:
    """A bounded ring of recent span events plus the dump codec."""

    __slots__ = ("ring", "dropped", "dumps_written")

    def __init__(self, size: int = DEFAULT_RING_SIZE) -> None:
        at_least("ring size", size, 1, finite=True)
        self.ring: Deque[Dict[str, Any]] = deque(maxlen=size)
        self.dropped = 0
        self.dumps_written = 0

    def append(self, event: Dict[str, Any]) -> None:
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append(event)

    def events(self) -> List[Dict[str, Any]]:
        return list(self.ring)

    def clear(self) -> None:
        self.ring.clear()
        self.dropped = 0

    def dump(self, path: Any, *, role: str, reason: str) -> Path:
        """Write the ring as ``*.flightrec.json`` and return the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "flightrec_version": FLIGHTREC_VERSION,
            "role": role,
            "reason": reason,
            "dropped": self.dropped,
            "events": self.events(),
        }
        target.write_text(json.dumps(payload, indent=1, sort_keys=True))
        self.dumps_written += 1
        return target


class Tracer:
    """The process's span recorder (disabled by default).

    ``record`` is the one hot-path entry point: guarded by a single
    ``enabled`` check, it derives the span ID from the caller-supplied
    (connection ordinal, frame position) pair and appends one event dict to
    the flight-recorder ring.  ``attrs`` must already be deterministic —
    logical clocks, key counts, op names; never wall time.
    """

    __slots__ = ("enabled", "role", "recorder", "flightrec_dir")

    def __init__(
        self,
        *,
        enabled: bool = False,
        role: str = "proc",
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        self.enabled = enabled
        self.role = role
        self.recorder = FlightRecorder(ring_size)
        #: When set, crash dumps (and the gateway's partition-death dumps)
        #: land here; ``None`` disables dumping entirely.
        self.flightrec_dir: Optional[Path] = None

    def record(
        self,
        name: str,
        *,
        conn: int,
        frame: Any,
        parent: Optional[str] = None,
        **attrs: Any,
    ) -> str:
        """Record one span event; returns its deterministic ID ('' if off)."""
        if not self.enabled:
            return ""
        sid = span_id(self.role, conn, frame)
        event: Dict[str, Any] = {"span": sid, "name": name}
        if parent:
            event["parent"] = parent
        if attrs:
            event.update(attrs)
        self.recorder.append(event)
        return sid

    def dump(self, detail: str, reason: str) -> Optional[Path]:
        """Dump the ring to the configured directory (no-op when unset)."""
        if self.flightrec_dir is None:
            return None
        name = f"{self.role}-{detail}.flightrec.json" if detail else (
            f"{self.role}.flightrec.json"
        )
        return self.recorder.dump(
            Path(self.flightrec_dir) / name, role=self.role, reason=reason
        )


#: The process's default tracer, configured by the CLI / worker specs.
TRACER = Tracer()


def configure_tracer(
    *,
    role: str,
    enabled: bool = True,
    flightrec_dir: Optional[Any] = None,
    ring_size: int = DEFAULT_RING_SIZE,
) -> Tracer:
    """(Re)configure the process tracer in place and return it."""
    TRACER.role = role
    TRACER.enabled = enabled
    TRACER.recorder = FlightRecorder(ring_size)
    TRACER.flightrec_dir = None if flightrec_dir is None else Path(flightrec_dir)
    return TRACER


@contextmanager
def crash_dump_scope(detail: str = "crash") -> Iterator[Tracer]:
    """Dump the tracer ring if the wrapped block dies with an exception.

    Worker entrypoints wrap their serve loops in this so a partition that
    crashes (anything short of SIGKILL) leaves its last spans behind as a
    ``*.flightrec.json`` next to its WAL.
    """
    try:
        yield TRACER
    except BaseException as exc:
        try:
            TRACER.dump(detail, reason=f"{type(exc).__name__}: {exc}")
        except OSError:  # pragma: no cover - a full/readonly flightrec dir
            pass
        raise
