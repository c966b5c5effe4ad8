"""Typed protocol messages: golden frames and round-trip codecs.

The typed dataclasses replaced hand-built dicts; these tests pin that the
*bytes on the wire did not move*.  Each golden frame is the exact payload
the pre-typed code produced (4-byte big-endian length + compact JSON with
the historical key order), so any change to field order, conditional
omission, or float formatting fails here before it can break the
deterministic-replay equivalence suites.
"""

from __future__ import annotations

import math

import pytest

from repro.queries.aggregates import AggregateKind
from repro.serving.protocol import (
    BoundedAnswer,
    ProtocolError,
    QueryRequest,
    Recovered,
    Refresh,
    RefreshKey,
    RefreshValues,
    RegisterAck,
    RegisterFeeder,
    Snapshot,
    SnapshotReply,
    StatsRequest,
    Update,
    UpdateAck,
    UpdateBatch,
    UpdateBatchAck,
    decode_payload,
    encode_frame,
    REQUEST_TYPES,
    parse_request,
    query_fields,
    update_batch_fields,
)


def golden(payload: bytes) -> bytes:
    """Length-prefix a JSON payload the way the wire does."""
    return len(payload).to_bytes(4, "big") + payload


class TestGoldenFrames:
    """Every message encodes to the exact historical bytes."""

    def test_register_fresh(self):
        message = RegisterFeeder(
            keys=("h0", "h1"), values=(1.5, -2.0), feeder="feeder-0"
        )
        assert encode_frame(message.to_wire(1)) == golden(
            b'{"op":"register","id":1,"keys":["h0","h1"],'
            b'"values":[1.5,-2.0],"feeder":"feeder-0"}'
        )

    def test_register_without_feeder_identity(self):
        message = RegisterFeeder(keys=("k",), values=(0.25,))
        assert encode_frame(message.to_wire(7)) == golden(
            b'{"op":"register","id":7,"keys":["k"],"values":[0.25]}'
        )

    def test_register_resync(self):
        message = RegisterFeeder(
            keys=("h0",), values=(3.0,), feeder="feeder-0", resync=True, time=12.5
        )
        assert encode_frame(message.to_wire(3)) == golden(
            b'{"op":"register","id":3,"keys":["h0"],"values":[3.0],'
            b'"feeder":"feeder-0","resync":true,"time":12.5}'
        )

    def test_update(self):
        message = Update(key="h3", value=4.75, time=9.0)
        assert encode_frame(message.to_wire(2)) == golden(
            b'{"op":"update","id":2,"key":"h3","value":4.75,"time":9.0}'
        )

    def test_update_batch(self):
        message = UpdateBatch(updates=(("h0", 1.0), ("h1", 2.5)), time=4.0)
        assert encode_frame(message.to_wire(9)) == golden(
            b'{"op":"update_batch","id":9,'
            b'"updates":[["h0",1.0],["h1",2.5]],"time":4.0}'
        )

    def test_query_with_time(self):
        message = QueryRequest(
            keys=("h0", "h1"),
            aggregate=AggregateKind.SUM,
            constraint=200.0,
            time=2.5,
        )
        assert encode_frame(message.to_wire(4)) == golden(
            b'{"op":"query","id":4,"keys":["h0","h1"],'
            b'"aggregate":"SUM","constraint":200.0,"time":2.5}'
        )

    def test_query_infinite_constraint(self):
        message = QueryRequest(keys=("h0",), aggregate=AggregateKind.MAX)
        assert encode_frame(message.to_wire(5)) == golden(
            b'{"op":"query","id":5,"keys":["h0"],'
            b'"aggregate":"MAX","constraint":Infinity}'
        )

    def test_stats(self):
        assert encode_frame(StatsRequest().to_wire(6)) == golden(
            b'{"op":"stats","id":6}'
        )

    def test_refresh(self):
        assert encode_frame(Refresh(keys=("h2", "h5")).to_wire(11)) == golden(
            b'{"op":"refresh","id":11,"keys":["h2","h5"]}'
        )

    def test_recovered(self):
        assert encode_frame(Recovered().to_wire(8)) == golden(
            b'{"op":"recovered","id":8}'
        )

    def test_bounded_answer(self):
        answer = BoundedAnswer(
            low=10.0, high=12.0, refreshed=("h1",), hits=3, misses=1
        )
        assert encode_frame(answer.to_wire()) == golden(
            b'{"low":10.0,"high":12.0,"refreshed":["h1"],"hits":3,"misses":1}'
        )

    def test_bounded_answer_degraded(self):
        answer = BoundedAnswer(
            low=0.0,
            high=math.inf,
            refreshed=(),
            hits=0,
            misses=2,
            degraded=True,
            degraded_keys=("h0",),
        )
        assert encode_frame(answer.to_wire()) == golden(
            b'{"low":0.0,"high":Infinity,"refreshed":[],"hits":0,"misses":2,'
            b'"degraded":true,"degraded_keys":["h0"]}'
        )

    def test_register_ack_variants(self):
        assert encode_frame(RegisterAck(registered=2).to_wire()) == golden(
            b'{"registered":2}'
        )
        assert encode_frame(
            RegisterAck(registered=2, epoch=3, refreshes=1).to_wire()
        ) == golden(b'{"registered":2,"epoch":3,"refreshes":1}')

    def test_update_acks(self):
        assert encode_frame(UpdateAck(refresh=True).to_wire()) == golden(
            b'{"refresh":true}'
        )
        assert encode_frame(UpdateBatchAck(refreshes=4).to_wire()) == golden(
            b'{"refreshes":4}'
        )

    def test_refresh_values(self):
        assert encode_frame(RefreshValues(values=(7.25, -1.0)).to_wire()) == golden(
            b'{"values":[7.25,-1.0]}'
        )

    def test_float_repr_round_trip(self):
        # JSON floats go through repr: the protocol's exactness guarantee.
        value = 0.1 + 0.2
        frame = decode_payload(
            encode_frame(Update(key="k", value=value).to_wire(1))[4:]
        )
        assert Update.from_wire(frame).value == value


class TestRoundTrips:
    """from_wire(to_wire(x)) reproduces x for every message type."""

    @pytest.mark.parametrize(
        "message",
        [
            RegisterFeeder(keys=("a", "b"), values=(1.0, 2.0), feeder="f"),
            RegisterFeeder(
                keys=("a",), values=(1.0,), feeder="f", resync=True, time=3.0
            ),
            Update(key="a", value=-1.5, time=2.0),
            UpdateBatch(updates=(("a", 1.0),), time=1.0),
            QueryRequest(
                keys=("a", "b"),
                aggregate=AggregateKind.AVG,
                constraint=5.0,
                time=1.5,
            ),
            QueryRequest(keys=("a",)),
            StatsRequest(),
            Refresh(keys=("x", "y")),
            Snapshot(keys=("a", "b"), constraint=10.0, time=2.0),
            RefreshKey(key="a", time=2.0),
            Recovered(),
        ],
    )
    def test_request_round_trip(self, message):
        frame = decode_payload(encode_frame(message.to_wire(42))[4:])
        parsed = parse_request(frame)
        assert parsed == message

    @pytest.mark.parametrize(
        "message",
        [
            RegisterAck(registered=3, epoch=1, refreshes=0),
            RegisterAck(registered=3),
            UpdateAck(refresh=False),
            UpdateBatchAck(refreshes=2),
            BoundedAnswer(low=1.0, high=2.0, refreshed=("a",), hits=1, misses=0),
            BoundedAnswer(
                low=-math.inf,
                high=math.inf,
                degraded=True,
                degraded_keys=("a", "b"),
            ),
            RefreshValues(values=(3.5, 1.0)),
            SnapshotReply(intervals=((1.0, 2.0), (0.0, 4.0)), hits=1),
            SnapshotReply(
                intervals=((1.0, 2.0),),
                hits=0,
                down=(0,),
                down_intervals=((0.5, 2.5),),
            ),
        ],
    )
    def test_response_round_trip(self, message):
        frame = decode_payload(encode_frame(message.to_wire())[4:])
        assert type(message).from_wire(frame) == message

    def test_from_wire_tolerates_envelope_keys(self):
        frame = {"id": 9, "ok": True, "low": 1.0, "high": 2.0,
                 "refreshed": [], "hits": 1, "misses": 0}
        answer = BoundedAnswer.from_wire(frame)
        assert (answer.low, answer.high, answer.hits) == (1.0, 2.0, 1)


class TestValidation:
    def test_parse_request_unknown_op(self):
        assert parse_request({"op": "bogus"}) is None

    def test_register_length_mismatch(self):
        with pytest.raises(ProtocolError, match="one value per key"):
            RegisterFeeder(keys=("a", "b"), values=(1.0,))

    def test_resync_needs_feeder(self):
        with pytest.raises(ProtocolError, match="feeder identity"):
            RegisterFeeder(keys=("a",), values=(1.0,), resync=True)

    def test_query_missing_keys(self):
        with pytest.raises(ProtocolError, match="missing"):
            parse_request({"op": "query"})

    def test_query_unknown_aggregate(self):
        with pytest.raises(ProtocolError, match="unknown aggregate"):
            parse_request({"op": "query", "keys": ["a"], "aggregate": "MEDIAN"})

    def test_refresh_values_without_values_answer_no_key(self):
        frame = {"id": 3, "ok": False, "error": "unknown key: 'a'"}
        assert RefreshValues.from_wire(frame) == RefreshValues(values=())

    @pytest.mark.parametrize(
        "values",
        [7.0, {"a": 7.0}, [7.0, "8.0"], [True], [7.0, math.nan]],
        ids=["number", "object", "string", "bool", "nan"],
    )
    def test_refresh_values_must_be_a_list_of_numbers(self, values):
        with pytest.raises(ProtocolError, match="refresh value"):
            RefreshValues.from_wire({"id": 3, "values": values})


class TestFastPath:
    """The hot-path codecs match the generic typed path frame for frame.

    ``parse_request`` builds canonical ``query``/``update_batch`` frames
    without the double coercion; it must return a message *equal* to the
    op's ``from_wire`` on every frame (and take ``from_wire`` itself — same
    errors, same tolerance — whenever a frame is not the canonical
    client-emitted shape); the field helpers must emit bytes identical to
    the dataclass codecs.
    """

    CANONICAL_FRAMES = [
        {"op": "query", "id": 1, "keys": ["a", "b"], "aggregate": "SUM",
         "constraint": 5.0, "time": 2.0},
        {"op": "query", "id": 2, "keys": [], "aggregate": "AVG",
         "constraint": math.inf},
        {"op": "query", "id": 3, "keys": ["k"], "aggregate": "MAX",
         "constraint": 7},  # int constraint coerces to 7.0 on both paths
        {"op": "update_batch", "id": 4,
         "updates": [["h0", 1.0], ["h1", 2.5]], "time": 4.0},
        {"op": "update_batch", "id": 5, "updates": []},
        {"op": "update_batch", "id": 6, "updates": [["h0", 3]]},
        # A key may repeat across update pairs; 1 and "1" are distinct keys.
        {"op": "update_batch", "id": 7, "updates": [["h0", 1.0], ["h0", 2.0]]},
        {"op": "query", "id": 8, "keys": [1, "1"], "aggregate": "SUM",
         "constraint": 1.0},
    ]

    FALLBACK_FRAMES = [
        {"op": "query", "keys": ["a"], "aggregate": "sum"},  # lowercase name
        {"op": "query", "keys": ("a",)},  # non-list container
        {"op": "query", "keys": ["a"], "constraint": True},  # bool constraint
        {"op": "update_batch", "updates": (("h0", 1.0),)},
        {"op": "update", "key": "h0", "value": 1.0},  # cold op
        {"op": "register", "keys": ["a"], "values": [1.0]},
        {"op": "stats"},
    ]

    @pytest.mark.parametrize("frame", CANONICAL_FRAMES + FALLBACK_FRAMES)
    def test_fast_parse_matches_generic(self, frame):
        parsed = parse_request(dict(frame))
        generic = REQUEST_TYPES[frame["op"]].from_wire(dict(frame))
        assert parsed == generic
        assert type(parsed) is type(generic)

    def test_fast_parse_coerces_like_post_init(self):
        batch = parse_request(
            {"op": "update_batch", "updates": [["h0", 3]], "time": 1.0}
        )
        assert batch.updates == (("h0", 3.0),)
        assert type(batch.updates[0][1]) is float
        query = parse_request({"op": "query", "keys": ["a"], "constraint": 7})
        assert query.constraint == 7.0 and type(query.constraint) is float

    @pytest.mark.parametrize(
        "frame,match",
        [
            ({"op": "query"}, "missing"),
            ({"op": "query", "keys": ["a"], "aggregate": "MEDIAN"},
             "unknown aggregate"),
            ({"op": "update_batch"}, "missing"),
            ({"op": "query", "keys": ["a"], "aggregate": ["SUM"]},
             "unknown aggregate"),  # unhashable name: the generic error
            # A JSON array or object is never a key, in any op carrying keys.
            ({"op": "query", "keys": ["a", ["b"]], "aggregate": "SUM"},
             "key must be a string or number"),
            ({"op": "query", "keys": [{"a": 1}], "aggregate": "sum"},
             "key must be a string or number"),  # generic path
            ({"op": "update_batch", "updates": [["a", 1.0], [["b"], 2.0]]},
             "key must be a string or number"),
            ({"op": "update_batch", "updates": ((["b"], 2.0),)},
             "key must be a string or number"),  # generic path
            ({"op": "update", "key": ["a"], "value": 1.0},
             "key must be a string or number"),
            ({"op": "register", "keys": ["a", ["b"]], "values": [1.0, 2.0]},
             "key must be a string or number"),
            ({"op": "snapshot", "keys": [["a"]]},
             "key must be a string or number"),
            ({"op": "refresh_key", "key": {"a": 1}},
             "key must be a string or number"),
            ({"op": "refresh", "keys": ["a", ["b"]]},
             "key must be a string or number"),
            # A query or snapshot key may not repeat, by Python equality.
            ({"op": "query", "keys": ["a", "b", "a"], "aggregate": "SUM",
              "constraint": 1.0}, "keys must be distinct"),
            ({"op": "query", "keys": [1, 1.0], "aggregate": "MAX"},
             "keys must be distinct"),
            ({"op": "query", "keys": [1, True], "aggregate": "avg"},
             "keys must be distinct"),  # generic path
            ({"op": "snapshot", "keys": ["a", "a"]}, "keys must be distinct"),
            # A NaN source value is never accepted, in any op carrying values.
            ({"op": "update_batch", "updates": [["a", 1.0], ["b", math.nan]]},
             "got NaN"),
            ({"op": "update_batch", "updates": (("b", math.nan),)},
             "got NaN"),  # generic path
            ({"op": "update", "key": "a", "value": math.nan}, "got NaN"),
            ({"op": "register", "keys": ["a", "b"], "values": [1.0, math.nan]},
             "got NaN"),
        ],
    )
    def test_fast_parse_error_parity(self, frame, match):
        with pytest.raises(ProtocolError, match=match):
            REQUEST_TYPES[frame["op"]].from_wire(dict(frame))
        with pytest.raises(ProtocolError, match=match):
            parse_request(frame)

    def test_query_fields_bytes_identical(self):
        for keys, aggregate, constraint, time in [
            (("a", "b"), AggregateKind.SUM, 5.0, 2.0),
            ((), AggregateKind.AVG, math.inf, None),
            (("k",), AggregateKind.MIN, 0.25, 0.0),
        ]:
            typed = QueryRequest(
                keys=keys, aggregate=aggregate, constraint=constraint, time=time
            )
            fast = {"op": QueryRequest.OP, "id": 9,
                    **query_fields(keys, aggregate, constraint, time)}
            assert encode_frame(fast) == encode_frame(typed.to_wire(9))

    def test_update_batch_fields_bytes_identical(self):
        for updates, time in [
            ((("h0", 1.0), ("h1", 2.5)), 4.0),
            ((), None),
            ((("h0", 3),), 0.5),  # int value coerces to 3.0 on both paths
        ]:
            typed = UpdateBatch(updates=updates, time=time)
            fast = {"op": UpdateBatch.OP, "id": 11,
                    **update_batch_fields(updates, time)}
            assert encode_frame(fast) == encode_frame(typed.to_wire(11))
