"""Durable partition state: an append-only WAL plus snapshot checkpoints.

A partition that dies must come back holding the same state an
uninterrupted run would hold — the paper's containment contract ("answers
may widen but never go wrong") is only worth anything if a restart cannot
silently forget published intervals.  :class:`PartitionDurability` gives a
:class:`~repro.serving.server.CacheServer` two files in a WAL directory:

``partition-<i>.wal``
    An append-only log of every state-mutating operation the partition
    applies, in apply order.  Each record is a CRC-framed JSON payload::

        >II header  =  (payload length, zlib.crc32(payload))

    stamped with a monotonic sequence number ``n`` plus the op's resolved
    logical-clock time and feeder epoch, so replaying the records through
    the server's own apply paths reconstructs the partition — sources,
    published intervals, cache, drift model, statistics and the policy's
    RNG stream — exactly.  A record that logs a request carries the
    request's frame payload as received, spliced in verbatim as its last
    field ``req`` (see :func:`_encode_record`), so a logged request is
    never encoded twice.

``partition-<i>.snapshot``
    A periodic checkpoint: the pickled durable state, CRC-framed the same
    way, written scratch-then-:func:`os.replace` (the trace-cache pattern)
    so a crash mid-checkpoint leaves the previous snapshot intact.  The
    snapshot records the WAL sequence it covers; a successful checkpoint
    truncates the log, and recovery skips any WAL record the snapshot
    already contains — so a crash *between* the replace and the truncate
    still recovers exactly once.

**Torn tails.**  A crash can tear the last WAL record (short frame, CRC
mismatch, clipped JSON).  Recovery keeps every intact prefix record,
quarantines the bad tail bytes as ``<wal>.corrupt`` (mirroring the
trace-cache quarantine) and truncates the log at the corruption point, so
the next append continues a valid log.  An append that fails while the
process lives (``ENOSPC``, ``EIO``) cuts the log back to its last complete
record and re-raises, so no later record lands behind torn bytes.

**No silent loss.**  Recovery replays only when the surviving records run
contiguously from the snapshot's sequence.  A gap — a corrupt snapshot whose
records were already truncated, a lost snapshot, a hole in the log — raises
:class:`~repro.serving.errors.UnrecoverablePartition` and leaves the files
in place, instead of coming back with a fraction of the state.

**Fsync policy.**  ``fsync`` is a durability/latency trade:

* ``"always"`` — fsync after every record: survives power loss, slowest.
* ``"checkpoint"`` — flush every record to the kernel (survives process
  crashes, e.g. SIGKILL) and fsync only at checkpoints: the default.
* ``"never"`` — flush to the kernel only, never fsync: fastest; still
  crash-safe for process death, not for host power loss.

Under ``"always"`` and ``"checkpoint"``, a checkpoint fsyncs the snapshot,
then the WAL directory (so the ``os.replace`` is durable), and only then
truncates the WAL.
"""

from __future__ import annotations

import os
import pickle
import struct
import uuid
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checks import at_least
from repro.obs.metrics import REGISTRY, SIZE_BUCKETS
from repro.serving.errors import UnrecoverablePartition
from repro.serving.protocol import decode_json, encode_json

#: Framed size of each appended WAL record, in bytes.  A process-registry
#: histogram (one handle shared by every partition in the process; in the
#: pool deployment each partition process labels its own registry), sized
#: by the power-of-two buckets — record frames are tens to hundreds of
#: bytes, checkpoint-bound registration records reach the kilobyte range.
_WAL_RECORD_BYTES = REGISTRY.histogram(
    "repro_wal_record_bytes",
    "Framed size of each WAL record appended.",
    buckets=SIZE_BUCKETS,
)

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "FSYNC_POLICIES",
    "REQUEST_FIELD",
    "PartitionDurability",
    "WalCorruption",
]

#: Frame header on every WAL record and on the snapshot payload:
#: big-endian (payload length, CRC-32 of the payload bytes).
RECORD_HEADER = struct.Struct(">II")

#: Take a checkpoint after this many WAL records by default.
DEFAULT_CHECKPOINT_EVERY = 256

FSYNC_POLICIES = ("always", "checkpoint", "never")

#: The record field holding a logged request's frame payload.
REQUEST_FIELD = "req"
_REQUEST_KEY = f',"{REQUEST_FIELD}":'.encode("ascii")


class WalCorruption(Exception):
    """Internal: the WAL is unreadable past a given byte offset."""

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"WAL corrupt at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def _encode_record(record: Dict[str, Any], request: Optional[bytes] = None) -> bytes:
    """Frame one record: the header, then the record as compact JSON.

    ``request`` is a request frame's payload, as received: one JSON object,
    so it is spliced in verbatim as the record's last field,
    :data:`REQUEST_FIELD`, and the record stays one JSON object that
    :meth:`PartitionDurability.load` decodes like any other.
    """
    payload = encode_json(record).encode("utf-8")
    if request is not None:
        payload = b"".join((payload[:-1], _REQUEST_KEY, request, b"}"))
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _quarantine(path: Path, tail: bytes) -> None:
    """Preserve corrupt bytes as ``<name>.corrupt`` (best effort)."""
    try:
        path.with_name(f"{path.name}.corrupt").write_bytes(tail)
    except OSError:  # pragma: no cover - a full/read-only WAL dir
        pass


def _fsync_directory(directory: Path) -> None:
    """fsync a directory, making the renames and creations in it durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class PartitionDurability:
    """The WAL + checkpoint pair for one partition.

    The owning server calls :meth:`load` once at construction (recovering
    snapshot and surviving records, truncating any torn tail), replays the
    records through its own apply paths, then :meth:`append`\\ s one record
    per applied op (a query's batch of refreshes is one op) and calls
    :meth:`checkpoint` whenever :attr:`checkpoint_due` says the log has
    grown past ``checkpoint_every`` records.
    """

    def __init__(
        self,
        directory: Any,
        partition_index: int = 0,
        *,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        fsync: str = "checkpoint",
    ) -> None:
        at_least("partition_index", partition_index, 0, finite=True)
        at_least("checkpoint_every", checkpoint_every, 1, finite=True)
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, not {fsync!r}")
        self.directory = Path(directory)
        self.partition_index = partition_index
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.wal_path = self.directory / f"partition-{partition_index}.wal"
        self.snapshot_path = self.directory / f"partition-{partition_index}.snapshot"
        self._file: Optional[Any] = None
        self._sequence = 0  # last assigned/observed record sequence number
        self._wal_size = 0  # bytes of complete records in the WAL
        self._records_since_checkpoint = 0
        # Counters surfaced through the server's stats op.
        self.records_appended = 0
        self.bytes_appended = 0
        self.records_replayed = 0
        self.snapshot_restored = False
        self.checkpoints_taken = 0
        self.torn_tails = 0
        self.last_checkpoint_clock: Optional[float] = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def load(self) -> Tuple[Optional[Any], List[Dict[str, Any]]]:
        """Open the WAL directory and return ``(snapshot_state, records)``.

        ``snapshot_state`` is whatever object the last :meth:`checkpoint`
        persisted (``None`` when there is no snapshot); ``records`` are the
        decoded WAL records *after* the snapshot's sequence, in append
        order.  A torn tail is truncated and quarantined here, and leftover
        checkpoint scratch files from a crash mid-write are removed, so the
        WAL is ready for :meth:`append` when this returns.

        Raises :class:`~repro.serving.errors.UnrecoverablePartition` unless
        ``records`` run contiguously from the snapshot's sequence plus one.
        A corrupt snapshot is quarantined and counts as sequence 0, so it
        is only recoverable from a log that still holds record 1 onwards.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        for scratch in self.directory.glob(f"{self.snapshot_path.name}.*.tmp"):
            try:
                scratch.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
        state, snapshot_corrupt = self._load_snapshot()
        records = self._load_wal()
        snapshot_seq = self._sequence
        live = [record for record in records if record.get("n", 0) > snapshot_seq]
        self._check_replayable(live, snapshot_seq, snapshot_corrupt)
        if snapshot_corrupt:
            # The log reaches back to record 1, so the snapshot is not needed.
            self.snapshot_path.unlink(missing_ok=True)
        if records:
            self._sequence = max(snapshot_seq, records[-1].get("n", 0))
        self._records_since_checkpoint = len(live)
        self.records_replayed = len(live)
        self._file = open(self.wal_path, "ab")
        return state, live

    def _check_replayable(
        self, live: List[Dict[str, Any]], snapshot_seq: int, snapshot_corrupt: bool
    ) -> None:
        expected = snapshot_seq + 1
        for record in live:
            if record.get("n") != expected:
                found = record.get("n")
                break
            expected += 1
        else:
            if live or not snapshot_corrupt:
                return
            found = None
        cause = "its snapshot is corrupt and " if snapshot_corrupt else ""
        got = "an empty log" if found is None else f"record {found}"
        raise UnrecoverablePartition(
            f"partition {self.partition_index} in {self.directory} cannot be "
            f"recovered: {cause}replay needs WAL record {expected}, found {got}",
            expected=expected,
            found=found,
        )

    def _load_snapshot(self) -> Tuple[Optional[Any], bool]:
        """Return ``(state, corrupt)``; a corrupt snapshot is quarantined."""
        try:
            blob = self.snapshot_path.read_bytes()
        except OSError:
            return None, False
        try:
            if len(blob) < RECORD_HEADER.size:
                raise ValueError("snapshot shorter than its header")
            length, crc = RECORD_HEADER.unpack_from(blob)
            payload = blob[RECORD_HEADER.size : RECORD_HEADER.size + length]
            if len(payload) != length or zlib.crc32(payload) != crc:
                raise ValueError("snapshot payload fails its CRC")
            envelope = pickle.loads(payload)
            self._sequence = int(envelope["sequence"])
            self.last_checkpoint_clock = envelope.get("clock")
            self.snapshot_restored = True
            return envelope["state"], False
        except Exception:
            # A snapshot that reads but does not parse is quarantined like
            # a torn trace-cache file; recovery falls back to the WAL if
            # the WAL still holds the whole history.
            _quarantine(self.snapshot_path, blob)
            return None, True

    def _load_wal(self) -> List[Dict[str, Any]]:
        try:
            blob = self.wal_path.read_bytes()
        except OSError:
            return []
        records: List[Dict[str, Any]] = []
        offset = 0
        try:
            while offset < len(blob):
                if offset + RECORD_HEADER.size > len(blob):
                    raise WalCorruption(offset, "torn record header")
                length, crc = RECORD_HEADER.unpack_from(blob, offset)
                start = offset + RECORD_HEADER.size
                payload = blob[start : start + length]
                if len(payload) != length:
                    raise WalCorruption(offset, "torn record payload")
                if zlib.crc32(payload) != crc:
                    raise WalCorruption(offset, "record payload fails its CRC")
                try:
                    records.append(decode_json(payload.decode("utf-8")))
                except ValueError as exc:
                    raise WalCorruption(offset, f"undecodable record: {exc}") from None
                offset = start + length
        except WalCorruption:
            self.torn_tails += 1
            _quarantine(self.wal_path, blob[offset:])
            with open(self.wal_path, "r+b") as wal:
                wal.truncate(offset)
        self._wal_size = offset
        return records

    # ------------------------------------------------------------------
    # The append path
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any], request: Optional[bytes] = None) -> None:
        """Write one op record (write-ahead: call *before* applying it).

        The record gets the next sequence number ``n``; ``request`` is the
        frame payload of the request it logs, written verbatim (see
        :func:`_encode_record`).  The record goes out as one ``write`` +
        ``flush`` (plus an ``fsync`` under ``"always"``).  If any of them
        raises, the log is cut back to its last complete record and the
        sequence is not consumed before the error re-raises.
        """
        if self._file is None:
            raise RuntimeError("durability not loaded; call load() first")
        sequence = self._sequence + 1
        frame = _encode_record({"n": sequence, **record}, request)
        try:
            self._file.write(frame)
            self._file.flush()
            if self.fsync == "always":
                os.fsync(self._file.fileno())
        except BaseException:
            self._discard_partial_append()
            raise
        self._sequence = sequence
        self._wal_size += len(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        self._records_since_checkpoint += 1
        _WAL_RECORD_BYTES.observe(float(len(frame)))

    def _discard_partial_append(self) -> None:
        """Truncate the WAL to its complete records and reopen the handle.

        Reopening drops any half-frame still sitting in the old handle's
        buffer, which a later flush would otherwise write mid-log.
        """
        file, self._file = self._file, None
        try:
            file.close()
        except OSError:
            pass  # whatever it failed to flush lies past the cut below
        os.truncate(self.wal_path, self._wal_size)
        self._file = open(self.wal_path, "ab")

    @property
    def checkpoint_due(self) -> bool:
        return self._records_since_checkpoint >= self.checkpoint_every

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, state: Any, clock: float) -> None:
        """Atomically persist ``state`` and truncate the log it covers.

        The scratch-then-``os.replace`` write means a crash mid-checkpoint
        leaves the old snapshot; the sequence stamp means a crash *after*
        the replace but *before* the truncate double-applies nothing.
        Unless ``fsync`` is ``"never"``, the directory is fsynced between
        the replace and the truncate.
        """
        if self._file is None:
            raise RuntimeError("durability not loaded; call load() first")
        payload = pickle.dumps(
            {"sequence": self._sequence, "clock": clock, "state": state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        scratch = self.snapshot_path.with_name(
            f"{self.snapshot_path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        with open(scratch, "wb") as out:
            out.write(blob)
            if self.fsync in ("always", "checkpoint"):
                out.flush()
                os.fsync(out.fileno())
        os.replace(scratch, self.snapshot_path)
        if self.fsync in ("always", "checkpoint"):
            # Make the rename durable before dropping the records it
            # covers: otherwise a power loss can bring back the old
            # snapshot next to an already-emptied WAL.
            _fsync_directory(self.directory)
        self._file.truncate(0)
        self._file.seek(0)
        self._wal_size = 0
        self._records_since_checkpoint = 0
        self.checkpoints_taken += 1
        self.last_checkpoint_clock = clock

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats_fields(self, clock: float) -> Dict[str, Any]:
        """The WAL/checkpoint counters merged into the server's stats op."""
        if self.last_checkpoint_clock is None:
            age: Optional[float] = None
        else:
            age = max(0.0, clock - self.last_checkpoint_clock)
        return {
            "durable": True,
            "wal_records": self.records_appended,
            "wal_bytes": self.bytes_appended,
            "wal_records_replayed": self.records_replayed,
            "wal_torn_tails": self.torn_tails,
            "checkpoints": self.checkpoints_taken,
            "snapshot_restored": self.snapshot_restored,
            "last_checkpoint_age": age,
        }

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None
