"""The serving wire format: length-prefixed JSON frames.

Every message on a serving connection is one *frame*: a 4-byte big-endian
unsigned length followed by that many bytes of UTF-8 JSON encoding a single
object.  JSON keeps the protocol debuggable (``nc`` plus a hex dump reads
it) and — because Python's ``json`` round-trips floats through ``repr`` —
*exact* for the float values the precision machinery depends on, which is
what lets the deterministic load generator reproduce the offline simulator's
numbers bit for bit.  Non-finite floats (unbounded intervals, infinite
constraints) use the ``json`` module's default ``Infinity``/``-Infinity``
extension.

Frames are either **requests** (they carry an ``op`` key) or **responses**
(no ``op``; matched to the request by ``id``).  Both directions use the same
rule: the server answers client requests, and also *originates* requests on
feeder connections (``refresh``), which the feeder answers.  Request ids are
scoped per direction per connection, so a client's and the server's ids
never collide.

Operations (see ``docs/SERVING.md`` for the full schemas):

``register``
    Feeder announces the keys it owns and their initial exact values.
``update``
    One source value changed; ``update_batch`` carries many at one instant.
``query``
    Bounded aggregate over ``keys`` with a precision ``constraint``.
``stats``
    Server statistics snapshot.
``metrics``
    The server's ``stats`` totals and metrics registry, as one snapshot
    (``repro.obs``); the gateway merges the per-partition snapshots it
    fetches with this op into its own.
``refresh``
    Server-to-feeder: fetch the current exact values of owned ``keys``.
    A query's refresh batch is one frame per owner connection, answered
    by one ``values`` list in key order; a feeder that cannot answer a key
    stops there and replies ``ok: false`` with the answered prefix.
``snapshot`` / ``refresh_key``
    Gateway-to-partition internals: read a partition's cached intervals
    for a query (counting hits exactly as a local query would) and
    perform one query-initiated refresh on the owning partition, so the
    *gateway* can run the global refresh selection over partitioned keys.

Every operation has a **typed message class** (frozen dataclasses below)
with ``to_wire()`` / ``from_wire()`` codecs.  The dataclasses are the API;
the dicts are the wire.  Every codec's dict layout — field order,
conditional omission, and all — is pinned *byte for byte* by the
golden-frame test (``tests/test_protocol_typed.py``), so a codec change
cannot silently change what goes on the wire.

Decoding rejects, before any server state is read: a non-finite ``time``
stamp, a negative or ``NaN`` constraint, an unhashable key, a repeated
query or snapshot key, and a ``NaN`` source value.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Hashable, Optional, Tuple, Type

from repro.queries.aggregates import AggregateKind

#: Frame header: one network-order unsigned 32-bit payload length.
HEADER = struct.Struct(">I")

#: Upper bound on a single frame's JSON payload.  Generously above anything
#: the protocol produces (the largest frames are update batches of one trace
#: instant); a violation means a corrupt or hostile peer, not a big request.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def _build_json_codec(
    make_encoder: Any = json.encoder.c_make_encoder,
) -> Tuple[Callable[[Any], str], Callable[[str], Any]]:
    """The compact JSON codec every serving frame and WAL record goes through.

    ``encode(obj)`` equals ``json.dumps(obj, separators=(",", ":"))`` and
    ``decode(text)`` equals ``json.loads(text)``, results and errors alike,
    but both skip per-call work the bytes never need.  The C encoder is
    built once here, where ``JSONEncoder.encode`` rebuilds it on every call,
    and with no circular-reference ``markers``: a cyclic message still
    raises (``RecursionError``), it just no longer pays to track every
    nested list and dict.  Decoding runs the scanner directly and accepts
    its result only when it consumed the whole text; anything else (leading
    or trailing whitespace, extra data, a syntax error) goes through the
    strict ``decode``, so it is accepted or rejected exactly as before.
    Without the ``_json`` accelerator (``make_encoder`` is ``None``) the
    encoder is the pure-Python one, minus the circular check.
    """
    if make_encoder is None:
        encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
    else:
        iterencode = make_encoder(
            None,  # markers: no circular check
            json.JSONEncoder().default,
            json.encoder.encode_basestring_ascii,
            None,  # indent
            ":",
            ",",
            False,  # sort_keys
            False,  # skipkeys
            True,  # allow_nan
        )
        join = "".join

        def encode(obj: Any) -> str:
            return join(iterencode(obj, 0))

    decoder = json.JSONDecoder()
    scan_once, strict_decode = decoder.scan_once, decoder.decode

    def decode(text: str) -> Any:
        try:
            obj, end = scan_once(text, 0)
        except (StopIteration, ValueError):
            return strict_decode(text)
        if end != len(text):
            return strict_decode(text)
        return obj

    return encode, decode


#: The one compact JSON codec: wire frames (:func:`encode_frame`,
#: :func:`decode_payload`, the HTTP edge's JSON replies) and WAL records.
encode_json, decode_json = _build_json_codec()


class ProtocolError(Exception):
    """A malformed frame or an operation violating the protocol."""


def _stamp(frame: Dict[str, Any]) -> Optional[float]:
    """A request's optional logical ``time``: absent, or a finite number.

    The servers' logical clocks only move forward, so one ``Infinity`` stamp
    would pin them for good; decoding rejects it before any state is read.
    """
    time = frame.get("time")
    if time is not None and (
        type(time) not in (int, float) or not math.isfinite(time)
    ):
        raise ProtocolError(f"time must be a finite number, got {time!r}")
    return time


def _constraint(value: Any) -> float:
    """A precision constraint: non-negative, ``Infinity`` for unconstrained."""
    constraint = float(value)
    if not constraint >= 0.0:  # also false for NaN
        raise ProtocolError(
            f"constraint must be a non-negative number, got {value!r}"
        )
    return constraint


def _key(key: Any) -> Hashable:
    """A source key: hashable, so never a JSON array or object.

    An unhashable key would fail every cache and mirror lookup — after a
    durable server had already logged the op, so recovery would replay the
    same failure.  Decoding rejects it before any state is read.
    """
    try:
        hash(key)
    except TypeError:
        raise ProtocolError(f"a key must be a string or number, got {key!r}") from None
    return key


def _keys(keys: Any, distinct: bool = False) -> Tuple[Hashable, ...]:
    """A request's keys as a tuple, every one a valid :func:`_key`.

    With ``distinct`` no key may repeat, by Python equality (``1``, ``1.0``
    and ``True`` are one key): a bounded aggregate is over a set of values,
    and a repeated key would count one value's hit and width twice.
    """
    keys = tuple(keys)
    try:
        unique = set(keys)
    except TypeError:
        unique = {_key(key) for key in keys}  # raises naming the bad key
    if distinct and len(unique) != len(keys):
        raise ProtocolError(f"keys must be distinct, got {list(keys)!r}")
    return keys


def _value(value: Any) -> float:
    """A source value as a float, never ``NaN``.

    A ``NaN`` value fails interval construction when it is applied — after
    a durable server had already logged the op, so recovery would replay
    the same failure.  Decoding rejects it before any state is read.
    ``±Infinity`` stays accepted.
    """
    value = float(value)
    if value != value:
        raise ProtocolError("a value must be a number, got NaN")
    return value


def _check_updates(updates: Tuple[Tuple[Hashable, float], ...]) -> None:
    """Check float ``(key, value)`` pairs: every key a :func:`_key`, no ``NaN``.

    Hashing the whole tuple checks every key in one C-level pass; a key may
    repeat across pairs (later values win, in order).
    """
    try:
        hash(updates)
    except TypeError:
        for key, _ in updates:
            _key(key)
    for _, value in updates:
        if value != value:
            raise ProtocolError("a value must be a number, got NaN")


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialise one message into a length-prefixed frame."""
    payload = encode_json(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse a frame's JSON payload into a message object."""
    try:
        message = decode_json(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("a frame must encode a JSON object")
    return message


def decode_length(header: bytes) -> int:
    """Parse and validate a frame header, returning the payload length."""
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit"
        )
    return length


def error_response(request_id: Any, message: str) -> Dict[str, Any]:
    """Build the standard error response for a failed request."""
    return {"id": request_id, "ok": False, "error": message}


def is_request(message: Dict[str, Any]) -> bool:
    """Whether a decoded frame is a request (carries ``op``) or a response."""
    return "op" in message


# ---------------------------------------------------------------------------
# Typed messages
# ---------------------------------------------------------------------------
#
# Requests serialise as ``{"op": OP, "id": <id>, **wire_fields()}`` and
# responses as ``wire_fields()`` alone — the dispatcher appends ``id`` and
# ``ok`` after the payload, which is where they always sat.  ``from_wire``
# tolerates the envelope keys (``op``/``id``/``ok``) so a decoded frame can
# be parsed directly.


@dataclass(frozen=True)
class Request:
    """Base of all typed requests (messages that carry an ``op``)."""

    OP: ClassVar[str] = ""

    def wire_fields(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_wire(self, request_id: Optional[int] = None) -> Dict[str, Any]:
        """The wire dict, byte-identical to the historical hand-built one."""
        message: Dict[str, Any] = {"op": self.OP}
        if request_id is not None:
            message["id"] = request_id
        message.update(self.wire_fields())
        return message


@dataclass(frozen=True)
class Response:
    """Base of all typed responses (matched to a request by ``id``)."""

    def wire_fields(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_wire(self) -> Dict[str, Any]:
        """The response payload; the dispatcher appends ``id`` and ``ok``."""
        return self.wire_fields()


@dataclass(frozen=True)
class RegisterFeeder(Request):
    """A feeder announces (or, with ``resync``, re-adopts) its keys."""

    OP: ClassVar[str] = "register"

    keys: Tuple[Hashable, ...]
    values: Tuple[float, ...]
    feeder: Optional[str] = None
    resync: bool = False
    time: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.keys) != len(self.values):
            raise ProtocolError("register needs one value per key")
        if self.resync and self.feeder is None:
            raise ProtocolError("a resync registration needs a feeder identity")

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "keys": list(self.keys),
            "values": list(self.values),
        }
        if self.feeder is not None:
            fields["feeder"] = self.feeder
        if self.resync:
            fields["resync"] = True
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "RegisterFeeder":
        try:
            keys = frame["keys"]
            values = frame["values"]
        except KeyError as exc:
            raise ProtocolError(f"register frame missing {exc}") from None
        feeder = frame.get("feeder")
        return cls(
            keys=_keys(keys),
            values=tuple(_value(value) for value in values),
            feeder=None if feeder is None else str(feeder),
            resync=bool(frame.get("resync")),
            time=_stamp(frame),
        )


@dataclass(frozen=True)
class Update(Request):
    """One source value changed."""

    OP: ClassVar[str] = "update"

    key: Hashable
    value: float
    time: Optional[float] = None

    @property
    def updates(self) -> Tuple[Tuple[Hashable, float], ...]:
        """This update as the pairs an :class:`UpdateBatch` carries."""
        return ((self.key, self.value),)

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"key": self.key, "value": self.value}
        if self.time is not None:
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Update":
        try:
            key = frame["key"]
            value = frame["value"]
        except KeyError as exc:
            raise ProtocolError(f"update frame missing {exc}") from None
        return cls(key=_key(key), value=_value(value), time=_stamp(frame))


@dataclass(frozen=True)
class UpdateBatch(Request):
    """Many source values changed at one trace instant."""

    OP: ClassVar[str] = "update_batch"

    updates: Tuple[Tuple[Hashable, float], ...]
    time: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "updates", tuple((key, float(value)) for key, value in self.updates)
        )

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "updates": [[key, value] for key, value in self.updates]
        }
        if self.time is not None:
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "UpdateBatch":
        try:
            updates = frame["updates"]
        except KeyError as exc:
            raise ProtocolError(f"update_batch frame missing {exc}") from None
        request = cls(
            updates=tuple((key, value) for key, value in updates),
            time=_stamp(frame),
        )
        _check_updates(request.updates)
        return request


@dataclass(frozen=True)
class QueryRequest(Request):
    """A bounded aggregate over ``keys`` under a precision ``constraint``."""

    OP: ClassVar[str] = "query"

    keys: Tuple[Hashable, ...]
    aggregate: AggregateKind = AggregateKind.SUM
    constraint: float = math.inf
    time: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "keys": list(self.keys),
            "aggregate": self.aggregate.name,
            "constraint": self.constraint,
        }
        if self.time is not None:
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "QueryRequest":
        try:
            keys = frame["keys"]
        except KeyError as exc:
            raise ProtocolError(f"query frame missing {exc}") from None
        try:
            aggregate = AggregateKind[str(frame.get("aggregate", "SUM")).upper()]
        except KeyError:
            raise ProtocolError(
                f"unknown aggregate {frame.get('aggregate')!r}"
            ) from None
        return cls(
            keys=_keys(keys, distinct=True),
            aggregate=aggregate,
            constraint=_constraint(frame.get("constraint", math.inf)),
            time=_stamp(frame),
        )


@dataclass(frozen=True)
class StatsRequest(Request):
    """Ask for the server's statistics snapshot (a plain mapping reply)."""

    OP: ClassVar[str] = "stats"

    def wire_fields(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "StatsRequest":
        return cls()


@dataclass(frozen=True)
class MetricsRequest(Request):
    """Ask for the server's metrics snapshot (JSON-able mapping)."""

    OP: ClassVar[str] = "metrics"

    def wire_fields(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "MetricsRequest":
        return cls()


@dataclass(frozen=True)
class Refresh(Request):
    """Server-to-feeder: fetch the current exact values of owned keys.

    One frame carries every key of a query's refresh batch that the
    receiving feeder owns, in selection order.
    """

    OP: ClassVar[str] = "refresh"

    keys: Tuple[Hashable, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))

    def wire_fields(self) -> Dict[str, Any]:
        return {"keys": list(self.keys)}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Refresh":
        try:
            keys = frame["keys"]
        except KeyError as exc:
            raise ProtocolError(f"refresh frame missing {exc}") from None
        return cls(keys=_keys(keys))


@dataclass(frozen=True)
class Snapshot(Request):
    """Gateway-to-partition: read cached intervals for a query's keys.

    Counts cache hits/misses and feeds the policy's read observers exactly
    as the local-query snapshot phase does — the gateway then runs the
    *global* refresh selection over the union of partition snapshots.
    """

    OP: ClassVar[str] = "snapshot"

    keys: Tuple[Hashable, ...]
    constraint: float = math.inf
    time: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "keys": list(self.keys),
            "constraint": self.constraint,
        }
        if self.time is not None:
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Snapshot":
        try:
            keys = frame["keys"]
        except KeyError as exc:
            raise ProtocolError(f"snapshot frame missing {exc}") from None
        return cls(
            keys=_keys(keys, distinct=True),
            constraint=_constraint(frame.get("constraint", math.inf)),
            time=_stamp(frame),
        )


@dataclass(frozen=True)
class RefreshKey(Request):
    """Gateway-to-partition: one query-initiated refresh of an owned key."""

    OP: ClassVar[str] = "refresh_key"

    key: Hashable
    time: Optional[float] = None

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"key": self.key}
        if self.time is not None:
            fields["time"] = self.time
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "RefreshKey":
        try:
            return cls(key=_key(frame["key"]), time=_stamp(frame))
        except KeyError as exc:
            raise ProtocolError(f"refresh_key frame missing {exc}") from None


@dataclass(frozen=True)
class Recovered(Request):
    """Gateway-to-partition: crash recovery and resync are complete.

    The partition acknowledges by taking a checkpoint — folding the
    replayed WAL and the resync registrations into its snapshot, so the
    next crash replays from here — and reports its recovery counters.
    The gateway cuts the partition back to live routing on this ack.
    """

    OP: ClassVar[str] = "recovered"

    def wire_fields(self) -> Dict[str, Any]:
        return {}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Recovered":
        return cls()


@dataclass(frozen=True)
class RegisterAck(Response):
    """Reply to ``register``: count adopted, session epoch, resync refreshes."""

    registered: int
    epoch: Optional[int] = None
    refreshes: Optional[int] = None

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"registered": self.registered}
        if self.epoch is not None:
            fields["epoch"] = self.epoch
        if self.refreshes is not None:
            fields["refreshes"] = self.refreshes
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "RegisterAck":
        return cls(
            registered=int(frame.get("registered", 0)),
            epoch=frame.get("epoch"),
            refreshes=frame.get("refreshes"),
        )


@dataclass(frozen=True)
class UpdateAck(Response):
    """Reply to ``update``: whether it fired a value-initiated refresh."""

    refresh: bool

    def wire_fields(self) -> Dict[str, Any]:
        return {"refresh": self.refresh}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "UpdateAck":
        return cls(refresh=bool(frame.get("refresh")))


@dataclass(frozen=True)
class UpdateBatchAck(Response):
    """Reply to ``update_batch``: value-initiated refreshes fired."""

    refreshes: int

    def wire_fields(self) -> Dict[str, Any]:
        return {"refreshes": self.refreshes}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "UpdateBatchAck":
        return cls(refreshes=int(frame.get("refreshes", 0)))


@dataclass(frozen=True)
class BoundedAnswer(Response):
    """Reply to ``query``: the bounded aggregate plus per-query accounting."""

    low: float
    high: float
    refreshed: Tuple[Hashable, ...] = ()
    hits: int = 0
    misses: int = 0
    degraded: bool = False
    degraded_keys: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "refreshed", tuple(self.refreshed))
        object.__setattr__(self, "degraded_keys", tuple(self.degraded_keys))

    @property
    def width(self) -> float:
        return self.high - self.low

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "low": self.low,
            "high": self.high,
            "refreshed": list(self.refreshed),
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.degraded:
            fields["degraded"] = True
            fields["degraded_keys"] = list(self.degraded_keys)
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "BoundedAnswer":
        try:
            low = frame["low"]
            high = frame["high"]
        except KeyError as exc:
            raise ProtocolError(f"query reply missing {exc}") from None
        return cls(
            low=float(low),
            high=float(high),
            refreshed=tuple(frame.get("refreshed", ())),
            hits=int(frame.get("hits", 0)),
            misses=int(frame.get("misses", 0)),
            degraded=bool(frame.get("degraded")),
            degraded_keys=tuple(frame.get("degraded_keys", ())),
        )


@dataclass(frozen=True)
class RefreshValues(Response):
    """A feeder's reply to ``refresh``: exact values, in the frame's key order.

    A feeder answers keys in order and stops at the first it cannot
    answer: its reply is then ``{ok: false, error, values: [answered
    prefix]}``.  A reply without ``values`` answered no key.
    """

    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def wire_fields(self) -> Dict[str, Any]:
        return {"values": list(self.values)}

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "RefreshValues":
        values = frame.get("values")
        if values is None:
            return cls(values=())
        if type(values) is not list:
            raise ProtocolError(f"refresh values must be a list, got {values!r}")
        for value in values:
            # ``type`` identity, so bool (a JSON ``true``) is not a number.
            if type(value) not in (int, float) or value != value:
                raise ProtocolError(
                    f"a refresh value must be a number, got {value!r}"
                )
        # Built through ``__new__``: the values are already a fresh tuple,
        # and this runs once per refresh frame on every server.
        message = cls.__new__(cls)
        object.__setattr__(message, "values", tuple(map(float, values)))
        return message


@dataclass(frozen=True)
class SnapshotReply(Response):
    """Reply to ``snapshot``: cached intervals plus down-key annotations.

    ``intervals`` aligns with the request's keys.  ``down`` lists indices
    (into the request's keys) whose owner is currently down, and
    ``down_intervals`` their honest degraded bounds — both omitted on the
    wire when every key is live, which is the bit-identical fast path.
    """

    intervals: Tuple[Tuple[float, float], ...]
    hits: int = 0
    down: Tuple[int, ...] = ()
    down_intervals: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "intervals", tuple((low, high) for low, high in self.intervals)
        )
        object.__setattr__(self, "down", tuple(self.down))
        object.__setattr__(
            self,
            "down_intervals",
            tuple((low, high) for low, high in self.down_intervals),
        )

    def wire_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "intervals": [[low, high] for low, high in self.intervals],
            "hits": self.hits,
        }
        if self.down:
            fields["down"] = list(self.down)
            fields["down_intervals"] = [
                [low, high] for low, high in self.down_intervals
            ]
        return fields

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "SnapshotReply":
        try:
            intervals = frame["intervals"]
        except KeyError as exc:
            raise ProtocolError(f"snapshot reply missing {exc}") from None
        return cls(
            intervals=tuple((low, high) for low, high in intervals),
            hits=int(frame.get("hits", 0)),
            down=tuple(frame.get("down", ())),
            down_intervals=tuple(
                (low, high) for low, high in frame.get("down_intervals", ())
            ),
        )


#: Request classes by wire operation name (the dispatch registry).
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.OP: cls
    for cls in (
        RegisterFeeder,
        Update,
        UpdateBatch,
        QueryRequest,
        StatsRequest,
        MetricsRequest,
        Refresh,
        Snapshot,
        RefreshKey,
        Recovered,
    )
}


#: Canonical aggregate wire names (what ``QueryRequest.wire_fields`` emits).
_AGGREGATES_BY_WIRE: Dict[str, AggregateKind] = {
    kind.name: kind for kind in AggregateKind
}


def parse_request(frame: Dict[str, Any]) -> Optional[Request]:
    """Parse a decoded request frame into its typed message.

    Returns ``None`` for an unknown operation (the dispatcher's error reply
    carries the op name); raises :class:`ProtocolError` for a frame whose
    shape violates the operation's schema.

    ``query`` and ``update_batch`` dominate a trace replay, and their
    ``from_wire`` validates twice: it coerces the fields, then the
    dataclass ``__post_init__`` re-coerces the same tuples.  A frame of
    either op in the canonical client-emitted shape is therefore built
    through ``__new__`` with the coercion done once; any other frame (wrong
    container type, non-numeric constraint, lowercase aggregate name, …)
    takes ``from_wire``, so errors and tolerance for odd but valid frames
    are the generic ones.  Equivalence is pinned by
    ``tests/test_protocol_typed.py::TestFastPath``.
    """
    op = frame.get("op")
    if op == "query":
        keys = frame.get("keys")
        aggregate = frame.get("aggregate", "SUM")
        kind = _AGGREGATES_BY_WIRE.get(aggregate) if type(aggregate) is str else None
        constraint = frame.get("constraint", math.inf)
        if type(constraint) is int:
            # ``type`` identity, so bool (a JSON ``true``) stays generic.
            constraint = float(constraint)
        if type(keys) is list and kind is not None and type(constraint) is float:
            request = QueryRequest.__new__(QueryRequest)
            set_field = object.__setattr__
            set_field(request, "keys", _keys(keys, distinct=True))
            set_field(request, "aggregate", kind)
            set_field(request, "constraint", _constraint(constraint))
            set_field(request, "time", _stamp(frame))
            return request
    elif op == "update_batch":
        updates = frame.get("updates")
        if type(updates) is list:
            try:
                pairs = tuple((key, float(value)) for key, value in updates)
            except (TypeError, ValueError):
                pairs = None
            if pairs is not None:
                _check_updates(pairs)
                request = UpdateBatch.__new__(UpdateBatch)
                set_field = object.__setattr__
                set_field(request, "updates", pairs)
                set_field(request, "time", _stamp(frame))
                return request
    request_type = REQUEST_TYPES.get(op)
    if request_type is None:
        return None
    return request_type.from_wire(frame)


# ---------------------------------------------------------------------------
# Hot-path encoders
# ---------------------------------------------------------------------------
#
# The client emits ``query`` and ``update_batch`` on every replayed event.
# These helpers build their ``wire_fields()`` dicts without constructing a
# dataclass at all; ``tests/test_protocol_typed.py::TestFastPath`` pins
# their bytes to the dataclass codecs.


def query_fields(
    keys: Any,
    aggregate: AggregateKind,
    constraint: float,
    time: Optional[float] = None,
) -> Dict[str, Any]:
    """``QueryRequest(...).wire_fields()`` without building the dataclass."""
    fields: Dict[str, Any] = {
        "keys": list(keys),
        "aggregate": aggregate.name,
        "constraint": constraint,
    }
    if time is not None:
        fields["time"] = time
    return fields


def update_batch_fields(
    updates: Any, time: Optional[float] = None
) -> Dict[str, Any]:
    """``UpdateBatch(...).wire_fields()`` without building the dataclass."""
    fields: Dict[str, Any] = {
        "updates": [[key, float(value)] for key, value in updates]
    }
    if time is not None:
        fields["time"] = time
    return fields
