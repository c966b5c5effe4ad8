"""The WAL + checkpoint layer (:mod:`repro.serving.durability`).

Framing round-trips, torn-tail truncation and quarantine, failed appends,
corrupt-snapshot fallback and the loud failure when it cannot recover,
crash-window idempotence (checkpoint replaced but log not yet truncated),
and the recovery-equivalence property: recovering from snapshot+WAL must
rebuild the same partition state as replaying the whole history from a pure
WAL.
"""

import asyncio
import errno
import os
import pickle
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caching.policies.static import StaticWidthPolicy
from repro.serving.api import Client
from repro.serving.durability import (
    DEFAULT_CHECKPOINT_EVERY,
    RECORD_HEADER,
    FSYNC_POLICIES,
    PartitionDurability,
    _encode_record,
)
from repro.serving.errors import UnrecoverablePartition
from repro.serving.server import CacheServer
from refresh_feeder import refresh_answerer


def run(coroutine):
    return asyncio.run(coroutine)


# ----------------------------------------------------------------------
# Framing and the append/load round-trip
# ----------------------------------------------------------------------
class TestWalRoundTrip:
    def test_append_then_load_returns_records_in_order(self, tmp_path):
        writer = PartitionDurability(tmp_path)
        state, records = writer.load()
        assert state is None and records == []
        writer.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        writer.append({"k": "u", "key": "b", "v": 2.0, "t": 2.0})
        writer.close()

        reader = PartitionDurability(tmp_path)
        state, records = reader.load()
        assert state is None
        assert [record["n"] for record in records] == [1, 2]
        assert [record["key"] for record in records] == ["a", "b"]
        assert reader.records_replayed == 2
        # The sequence continues past the recovered tail.
        reader.append({"k": "u", "key": "c", "v": 3.0, "t": 3.0})
        reader.close()
        _, again = PartitionDurability(tmp_path).load()
        assert [record["n"] for record in again] == [1, 2, 3]

    def test_one_append_writes_several_records_in_order(self, tmp_path):
        """A query's refresh batch is one append: consecutive sequence
        numbers, argument order, every framed byte counted."""
        batch = [
            {"k": "qr", "key": key, "v": float(index), "t": 1.0}
            for index, key in enumerate("abc")
        ]
        writer = PartitionDurability(tmp_path)
        writer.load()
        writer.append({"k": "snap", "keys": list("abc"), "c": 0.0, "t": 1.0})
        writer.append(*batch)
        assert writer.records_appended == 4
        assert writer.checkpoint_due is False
        writer.close()
        _, records = PartitionDurability(tmp_path).load()
        assert [record["n"] for record in records] == [1, 2, 3, 4]
        assert [record.get("key") for record in records] == [None, "a", "b", "c"]
        assert writer.bytes_appended == writer.wal_path.stat().st_size

    def test_checkpoint_truncates_and_recovery_skips_covered_records(
        self, tmp_path
    ):
        writer = PartitionDurability(tmp_path)
        writer.load()
        for index in range(3):
            writer.append({"k": "u", "key": "a", "v": float(index), "t": 1.0})
        writer.checkpoint({"value": 41}, clock=3.0)
        assert writer.wal_path.stat().st_size == 0
        writer.append({"k": "u", "key": "a", "v": 9.0, "t": 4.0})
        writer.close()

        reader = PartitionDurability(tmp_path)
        state, records = reader.load()
        assert state == {"value": 41}
        assert reader.snapshot_restored
        assert [record["n"] for record in records] == [4]

    def test_crash_between_replace_and_truncate_replays_once(self, tmp_path):
        """A snapshot that already covers WAL records must win over them."""
        writer = PartitionDurability(tmp_path)
        writer.load()
        for index in range(3):
            writer.append({"k": "u", "key": "a", "v": float(index), "t": 1.0})
        wal_bytes = writer.wal_path.read_bytes()
        writer.checkpoint({"value": 7}, clock=3.0)
        writer.close()
        # Crash window: the snapshot landed but the truncate did not.
        writer.wal_path.write_bytes(wal_bytes)

        reader = PartitionDurability(tmp_path)
        state, records = reader.load()
        assert state == {"value": 7}
        assert records == []  # all three records are covered by the snapshot
        # New appends continue after the covered sequence numbers.
        reader.append({"k": "u", "key": "a", "v": 5.0, "t": 4.0})
        reader.close()
        _, live = PartitionDurability(tmp_path).load()
        assert [record["n"] for record in live] == [4]

    def test_checkpoint_due_follows_cadence(self, tmp_path):
        durability = PartitionDurability(tmp_path, checkpoint_every=2)
        durability.load()
        durability.append({"k": "u"})
        assert not durability.checkpoint_due
        durability.append({"k": "u"})
        assert durability.checkpoint_due
        durability.checkpoint({}, clock=1.0)
        assert not durability.checkpoint_due
        durability.close()

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            PartitionDurability(tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="fsync"):
            PartitionDurability(tmp_path, fsync="sometimes")
        assert "checkpoint" in FSYNC_POLICIES
        with pytest.raises(RuntimeError, match="load"):
            PartitionDurability(tmp_path).append({"k": "u"})

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_all_fsync_policies_round_trip(self, tmp_path, fsync):
        writer = PartitionDurability(tmp_path / fsync, fsync=fsync)
        writer.load()
        writer.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        writer.checkpoint({"s": 1}, clock=1.0)
        writer.close()
        state, records = PartitionDurability(tmp_path / fsync, fsync=fsync).load()
        assert state == {"s": 1} and records == []

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_checkpoint_fsyncs_directory_before_truncating_wal(
        self, tmp_path, monkeypatch, fsync
    ):
        """The snapshot's rename must be durable before the WAL it covers
        is emptied, or a power loss can bring back the old snapshot next to
        an empty log.  Under ``never`` nothing is fsynced at all."""
        writer = PartitionDurability(tmp_path, fsync=fsync)
        writer.load()
        writer.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        directory = os.stat(tmp_path)

        def recording_fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                assert os.path.samestat(info, directory)
                events.append("fsync dir")
            else:
                events.append("fsync file")
            real_fsync(fd)

        def recording_replace(source, target):
            events.append("replace")
            real_replace(source, target)

        class RecordingFile:
            def __init__(self, file):
                self._file = file

            def truncate(self, size):
                events.append("truncate")
                return self._file.truncate(size)

            def __getattr__(self, name):
                return getattr(self._file, name)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        writer._file = RecordingFile(writer._file)
        writer.checkpoint({"s": 1}, clock=1.0)
        if fsync == "never":
            assert events == ["replace", "truncate"]
        else:
            assert events == ["fsync file", "replace", "fsync dir", "truncate"]
        writer.close()


# ----------------------------------------------------------------------
# Torn tails and corruption quarantine
# ----------------------------------------------------------------------
class TestCorruption:
    def _write_wal(self, tmp_path, count):
        durability = PartitionDurability(tmp_path)
        durability.load()
        for index in range(count):
            durability.append({"k": "u", "key": "a", "v": float(index), "t": 1.0})
        durability.close()
        return durability.wal_path

    def test_torn_payload_truncated_and_quarantined(self, tmp_path):
        wal_path = self._write_wal(tmp_path, 3)
        blob = wal_path.read_bytes()
        wal_path.write_bytes(blob[:-4])  # tear the last record's payload

        reader = PartitionDurability(tmp_path)
        _, records = reader.load()
        assert [record["n"] for record in records] == [1, 2]
        assert reader.torn_tails == 1
        corrupt = wal_path.with_name(f"{wal_path.name}.corrupt")
        assert corrupt.exists() and len(corrupt.read_bytes()) > 0
        # The log was truncated at the corruption point: the next append
        # produces a WAL a fresh reader accepts end to end.
        reader.append({"k": "u", "key": "b", "v": 9.0, "t": 2.0})
        reader.close()
        clean = PartitionDurability(tmp_path)
        _, records = clean.load()
        assert [record["n"] for record in records] == [1, 2, 3]
        assert clean.torn_tails == 0

    def test_torn_header_keeps_intact_prefix(self, tmp_path):
        wal_path = self._write_wal(tmp_path, 2)
        wal_path.write_bytes(wal_path.read_bytes() + b"\x00\x01\x02")
        reader = PartitionDurability(tmp_path)
        _, records = reader.load()
        assert len(records) == 2 and reader.torn_tails == 1

    def test_crc_mismatch_truncates_from_bad_record(self, tmp_path):
        wal_path = self._write_wal(tmp_path, 3)
        blob = bytearray(wal_path.read_bytes())
        # Flip one byte inside the *second* record's payload: everything
        # from that record on is discarded, the first survives.
        first = RECORD_HEADER.size + RECORD_HEADER.unpack_from(blob)[0]
        blob[first + RECORD_HEADER.size + 2] ^= 0xFF
        wal_path.write_bytes(bytes(blob))
        reader = PartitionDurability(tmp_path)
        _, records = reader.load()
        assert [record["n"] for record in records] == [1]
        assert wal_path.stat().st_size == first

    def _checkpoint_then_append(self, tmp_path):
        """Record 1 under a snapshot, record 2 in the WAL behind it."""
        durability = PartitionDurability(tmp_path)
        durability.load()
        durability.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        durability.checkpoint({"value": 1}, clock=1.0)
        durability.append({"k": "u", "key": "a", "v": 2.0, "t": 2.0})
        durability.close()
        return durability

    def test_corrupt_snapshot_with_truncated_wal_raises(self, tmp_path):
        """The snapshot covered record 1 and the checkpoint truncated it
        from the WAL: replaying record 2 alone would silently lose it."""
        snapshot = self._checkpoint_then_append(tmp_path).snapshot_path
        snapshot.write_bytes(b"\x00" * 7)  # shorter than its own header

        reader = PartitionDurability(tmp_path)
        with pytest.raises(UnrecoverablePartition, match="snapshot is corrupt") as info:
            reader.load()
        assert (info.value.expected, info.value.found) == (1, 2)
        assert not reader.snapshot_restored
        assert snapshot.with_name(f"{snapshot.name}.corrupt").exists()
        # Nothing is deleted, so a retry fails the same way instead of
        # coming back empty.
        with pytest.raises(UnrecoverablePartition):
            PartitionDurability(tmp_path).load()

    def test_empty_wal_behind_corrupt_snapshot_raises(self, tmp_path):
        durability = PartitionDurability(tmp_path)
        durability.load()
        durability.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        durability.checkpoint({"value": 1}, clock=1.0)
        durability.close()
        durability.snapshot_path.write_bytes(b"\x00" * 7)
        with pytest.raises(UnrecoverablePartition) as info:
            PartitionDurability(tmp_path).load()
        assert (info.value.expected, info.value.found) == (1, None)

    def test_missing_snapshot_raises(self, tmp_path):
        self._checkpoint_then_append(tmp_path).snapshot_path.unlink()
        with pytest.raises(UnrecoverablePartition, match="needs WAL record 1"):
            PartitionDurability(tmp_path).load()

    def test_corrupt_snapshot_with_full_wal_recovers(self, tmp_path):
        """A crash between the snapshot replace and the WAL truncate leaves
        the whole history in the log, which replays without the snapshot."""
        durability = PartitionDurability(tmp_path)
        durability.load()
        durability.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})
        durability.append({"k": "u", "key": "a", "v": 2.0, "t": 2.0})
        wal = durability.wal_path.read_bytes()
        durability.checkpoint({"value": 2}, clock=2.0)
        durability.close()
        durability.wal_path.write_bytes(wal)
        snapshot = durability.snapshot_path
        snapshot.write_bytes(snapshot.read_bytes()[:-1])  # fails its CRC

        reader = PartitionDurability(tmp_path)
        state, records = reader.load()
        assert state is None and not reader.snapshot_restored
        assert [record["n"] for record in records] == [1, 2]
        assert snapshot.with_name(f"{snapshot.name}.corrupt").exists()
        assert not snapshot.exists()
        reader.append({"k": "u", "key": "a", "v": 3.0, "t": 3.0})
        reader.close()
        again = PartitionDurability(tmp_path)
        _, records = again.load()
        again.close()
        assert [record["n"] for record in records] == [1, 2, 3]

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_failed_append_leaves_no_torn_frame(self, tmp_path, fsync):
        """A write that dies partway (ENOSPC, EIO) must not strand half a
        frame mid-log: later appends would land behind it and recovery
        would truncate them away at the tear."""
        durability = PartitionDurability(tmp_path, fsync=fsync)
        durability.load()
        durability.append({"k": "u", "key": "a", "v": 1.0, "t": 1.0})

        class HalfWriteFile:
            """Writes half of the first blob, then fails; later writes pass."""

            def __init__(self, file):
                self._file = file
                self._failed = False

            def write(self, blob):
                if self._failed:
                    return self._file.write(blob)
                self._failed = True
                self._file.write(blob[: len(blob) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._file, name)

        durability._file = HalfWriteFile(durability._file)
        with pytest.raises(OSError, match="No space"):
            durability.append({"k": "u", "key": "b", "v": 2.0, "t": 2.0})
        durability.append({"k": "u", "key": "d", "v": 4.0, "t": 3.0})
        durability.close()

        reader = PartitionDurability(tmp_path)
        _, records = reader.load()
        reader.close()
        assert [record["n"] for record in records] == [1, 2]
        assert [record["key"] for record in records] == ["a", "d"]
        assert reader.torn_tails == 0

    def test_leftover_checkpoint_scratch_removed(self, tmp_path):
        durability = PartitionDurability(tmp_path)
        scratch = tmp_path / f"{durability.snapshot_path.name}.999.dead.tmp"
        durability.load()
        durability.close()
        scratch.write_bytes(b"half a checkpoint")
        fresh = PartitionDurability(tmp_path)
        fresh.load()
        assert not scratch.exists()
        fresh.close()

    def test_encode_record_frames_crc(self):
        frame = _encode_record({"k": "u", "n": 1})
        length, _crc = RECORD_HEADER.unpack_from(frame)
        assert len(frame) == RECORD_HEADER.size + length

    @pytest.mark.parametrize(
        "record,named",
        [
            ({"k": "zz", "n": 2, "t": 2.0}, "unknown kind 'zz'"),
            ({"k": "ub", "n": 2}, "kind 'ub' is malformed"),
        ],
        ids=["unknown-kind", "missing-field"],
    )
    def test_unreplayable_record_raises_and_keeps_files(self, tmp_path, record, named):
        """A CRC-valid record replay cannot apply must not be skipped."""
        durability = PartitionDurability(tmp_path)
        down = {"k": "down", "n": 1, "keys": ["a"], "t": 1.0}
        durability.wal_path.write_bytes(_encode_record(down) + _encode_record(record))
        wal = durability.wal_path.read_bytes()
        with pytest.raises(UnrecoverablePartition, match=named) as info:
            CacheServer(
                StaticWidthPolicy(width=1.0),
                value_refresh_cost=1.0,
                query_refresh_cost=2.0,
                durability=durability,
            )
        assert "WAL record 2" in str(info.value)
        assert (info.value.expected, info.value.found) == (2, 2)
        assert durability.wal_path.read_bytes() == wal


# ----------------------------------------------------------------------
# Recovery equivalence: snapshot+WAL replay == pure-WAL replay
# ----------------------------------------------------------------------
KEYS = ("a", "b", "c")

_operation = st.one_of(
    st.tuples(
        st.just("u"),
        st.sampled_from(KEYS),
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32),
    ),
    st.tuples(st.just("q"), st.floats(min_value=0.0, max_value=40.0)),
)


async def _drive(directory, checkpoint_every, operations):
    """Run one op sequence against a durable server, then 'crash' it."""
    durability = PartitionDurability(directory, checkpoint_every=checkpoint_every)
    server = CacheServer(
        StaticWidthPolicy(width=10.0),
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        durability=durability,
    )
    values = {"a": 0.0, "b": 5.0, "c": -3.0}
    feeder = await Client.from_transport(
        server.connect(), on_request=refresh_answerer(values)
    )
    client = await Client.from_transport(server.connect())
    await feeder.request(
        "register", keys=list(values), values=list(values.values()), feeder="f"
    )
    time = 1.0
    for operation in operations:
        if operation[0] == "u":
            _, key, value = operation
            values[key] = value
            await feeder.request("update", key=key, value=value, time=time)
        else:
            await client.request(
                "query",
                keys=list(KEYS),
                aggregate="SUM",
                constraint=operation[1],
                time=time,
            )
        time += 1.0
    # No final checkpoint, no graceful close of the durability layer
    # beyond flushing appends — the same files a SIGKILL would leave.
    await feeder.close()
    await client.close()
    await server.close()


def _recovered_fingerprint(directory):
    """The durable state a fresh server reconstructs from ``directory``."""
    server = CacheServer(
        StaticWidthPolicy(width=10.0),
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        durability=PartitionDurability(directory, checkpoint_every=10**9),
    )
    state = server._capture_durable_state()
    statistics = state.pop("statistics")
    # Connection-era counters are legitimately absent from a WAL-only
    # replay (no sockets were opened during recovery); everything the
    # replayed ops drive must agree exactly.  The refresh counts and cost
    # are compared through the network model in ``state``.
    replayed = {"updates_applied": statistics.updates_applied}
    run(server.close())
    return pickle.dumps(state), replayed


@given(
    operations=st.lists(_operation, max_size=25),
    checkpoint_every=st.integers(min_value=1, max_value=8),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_snapshot_plus_wal_replay_equals_pure_wal_replay(
    tmp_path_factory, operations, checkpoint_every
):
    """Checkpointing is an optimisation, never a semantic change."""
    checkpointed = tmp_path_factory.mktemp("ckpt")
    pure = tmp_path_factory.mktemp("pure")
    run(_drive(checkpointed, checkpoint_every, operations))
    run(_drive(pure, DEFAULT_CHECKPOINT_EVERY * 10**6, operations))
    assert _recovered_fingerprint(checkpointed) == _recovered_fingerprint(pure)


def test_snapshot_carrying_refresh_totals_on_its_statistics_recovers_them(tmp_path):
    """Snapshots taken before the refresh totals moved into the network
    model carry them as ``ServingStatistics`` fields instead."""
    fields = ("value_refreshes", "query_refreshes", "total_cost")
    server = CacheServer(
        StaticWidthPolicy(width=10.0), durability=PartitionDurability(tmp_path)
    )
    state = server._capture_durable_state()
    vars(state["statistics"]).update(zip(fields, (3, 4, 11.0)))
    server.durability.checkpoint(state, server.clock)
    run(server.close())

    recovered = CacheServer(
        StaticWidthPolicy(width=10.0), durability=PartitionDurability(tmp_path)
    )
    assert [getattr(recovered.network, field) for field in fields] == [3, 4, 11.0]
    assert not set(fields) & set(vars(recovered.statistics))
    run(recovered.close())
