"""Frame transports: the same protocol over TCP streams or in-process queues.

The server and every client speak through a *frame transport* — an object
with ``read_frame`` / ``write_frame`` / ``close``.  Two implementations
exist:

* :class:`StreamFrameTransport` wraps an asyncio ``(StreamReader,
  StreamWriter)`` pair, i.e. a real TCP connection (``repro serve``).
* :class:`LoopbackFrameTransport` moves *encoded* frames through in-process
  queues, so tests, CI and the experiment harness run server plus clients in
  one process with no sockets, no ports and no flakiness — while still
  exercising the full encode/decode path of :mod:`repro.serving.protocol`
  on every message.

Both directions of a loopback pair are bounded (a writer waits once
``buffer`` frames are unread), so a slow consumer back-pressures its
producer exactly as a full TCP send buffer would — while ``close`` wakes
every waiter at once, because shutdown must never block behind data.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.core.checks import at_least
from repro.serving.protocol import HEADER, decode_length, decode_payload, encode_frame

#: A well-framed but undecodable payload, used by ``write_corrupt_frame`` —
#: the fault-injection hook (:mod:`repro.serving.faults`) that makes the
#: *peer's* reader take its ``ProtocolError`` path, as a frame mangled in
#: flight would.
_CORRUPT_FRAME = HEADER.pack(2) + b"\xff\xfe"

#: Encoded frames a loopback direction buffers before the writer blocks.
DEFAULT_LOOPBACK_BUFFER = 128


class StreamFrameTransport:
    """Frames over an asyncio stream pair (one TCP connection)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` on a clean EOF at a frame boundary."""
        try:
            header = await self._reader.readexactly(4)
            payload = await self._reader.readexactly(decode_length(header))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        return decode_payload(payload)

    async def write_frame(self, message: Dict[str, Any]) -> None:
        """Write one message and drain (the stream's own backpressure)."""
        self._writer.write(encode_frame(message))
        await self._writer.drain()

    async def write_corrupt_frame(self) -> None:
        """Send an undecodable frame (fault injection: a truncated write)."""
        self._writer.write(_CORRUPT_FRAME)
        await self._writer.drain()

    def close(self) -> None:
        """Start closing the underlying stream."""
        self._writer.close()

    async def wait_closed(self) -> None:
        """Wait for the underlying stream to finish closing."""
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class _LoopbackDirection:
    """One direction of a loopback pair: a bounded FIFO of encoded frames.

    ``slots`` counts the free places in the buffer.  A writer takes one
    before appending its frame and a reader gives it back when it pops
    one; a writer that finds none (or finds earlier writers still
    waiting) parks a future in ``writers``, and a freed slot passes
    straight to the oldest parked writer, so writers are admitted in
    arrival order and the buffer never holds more than ``buffer`` frames.
    Readers park in ``readers`` while the buffer is empty.
    """

    def __init__(self, buffer: int) -> None:
        self.frames: Deque[bytes] = deque()
        self.slots = buffer
        self.readers: Deque[asyncio.Future] = deque()
        self.writers: Deque[asyncio.Future] = deque()
        self.closed = False

    def release_slot(self) -> None:
        """Free one slot: hand it to the oldest waiting writer, if any."""
        if not _wake_one(self.writers):
            self.slots += 1

    def close(self) -> None:
        """Mark closed and wake every waiter to observe it."""
        self.closed = True
        for waiters in (self.readers, self.writers):
            while waiters:
                waiter = waiters.popleft()
                if not waiter.done():
                    waiter.set_result(None)


def _wake_one(waiters: Deque[asyncio.Future]) -> bool:
    """Resolve the oldest still-pending waiter; whether there was one."""
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            return True
    return False


def _discard(waiters: Deque[asyncio.Future], waiter: asyncio.Future) -> None:
    """Drop a cancelled waiter so it cannot hold up the waiters behind it."""
    try:
        waiters.remove(waiter)
    except ValueError:
        pass


class LoopbackFrameTransport:
    """Frames over bounded in-process buffers (one end of a loopback pair)."""

    def __init__(
        self, inbound: _LoopbackDirection, outbound: _LoopbackDirection
    ) -> None:
        self._inbound = inbound
        self._outbound = outbound

    async def read_frame(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` once the peer closed and the buffer
        is drained."""
        inbound = self._inbound
        while not inbound.frames:
            if inbound.closed:
                return None
            waiter = asyncio.get_running_loop().create_future()
            inbound.readers.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter.cancelled():
                    _discard(inbound.readers, waiter)
                elif inbound.frames:
                    # Woken for a frame it will not read: pass the wake on.
                    _wake_one(inbound.readers)
                raise
        data = inbound.frames.popleft()
        inbound.release_slot()
        return decode_payload(data[4:])

    async def write_frame(self, message: Dict[str, Any]) -> None:
        """Write one encoded frame; blocks while the peer's buffer is full."""
        await self._write_bytes(encode_frame(message))

    async def write_corrupt_frame(self) -> None:
        """Send an undecodable frame (fault injection: a truncated write)."""
        await self._write_bytes(_CORRUPT_FRAME)

    async def _write_bytes(self, frame: bytes) -> None:
        outbound = self._outbound
        if outbound.closed:
            raise ConnectionResetError("loopback transport is closed")
        if outbound.slots and not outbound.writers:
            outbound.slots -= 1
        else:
            waiter = asyncio.get_running_loop().create_future()
            outbound.writers.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                if waiter.cancelled():
                    _discard(outbound.writers, waiter)
                else:
                    # The slot was already handed over: give it back.
                    outbound.release_slot()
                raise
            if outbound.closed:
                raise ConnectionResetError("loopback transport is closed")
        outbound.frames.append(frame)
        if outbound.readers:
            _wake_one(outbound.readers)

    def close(self) -> None:
        """Close both directions: EOF to readers, ConnectionReset to writers.

        Mirrors a socket close as seen from either end — local and peer
        reads wake up and see EOF once the frames already buffered are
        read, and writers blocked on a full buffer (on *either* end) are
        released to observe the close and raise instead of waiting for a
        reader that will never come.
        """
        self._outbound.close()
        self._inbound.close()

    async def wait_closed(self) -> None:
        """Loopback close is immediate; nothing to wait for."""


def loopback_pair(
    buffer: int = DEFAULT_LOOPBACK_BUFFER,
) -> Tuple[LoopbackFrameTransport, LoopbackFrameTransport]:
    """Create a connected (client end, server end) loopback transport pair."""
    at_least("loopback buffer", buffer, 1, finite=True)
    client_to_server = _LoopbackDirection(buffer)
    server_to_client = _LoopbackDirection(buffer)
    return (
        LoopbackFrameTransport(inbound=server_to_client, outbound=client_to_server),
        LoopbackFrameTransport(inbound=client_to_server, outbound=server_to_client),
    )
