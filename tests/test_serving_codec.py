"""The one serving JSON codec (:mod:`repro.serving.protocol`) and the WAL bytes.

``encode_json`` / ``decode_json`` replace ``json.dumps(obj, separators=(",",
":"))`` and ``json.loads`` on every wire frame and WAL record, so they must
agree with them byte for byte and error for error: the encoder on any JSON
value (non-ASCII and control-character strings, non-finite floats), the
decoder on valid text and on every malformed input.  The golden WAL records
pin the log's file format: a WAL written before the codec existed must
replay unchanged, and a WAL assembled from those exact bytes must recover
the state the same ops produce live.
"""

import asyncio
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.policies.static import StaticWidthPolicy
from repro.serving.api import Client
from repro.serving.durability import PartitionDurability
from repro.serving.protocol import (
    ProtocolError,
    _build_json_codec,
    decode_json,
    decode_payload,
    encode_frame,
    encode_json,
)
from repro.serving.server import CacheServer
from refresh_feeder import refresh_answerer

_SRC = Path(__file__).resolve().parent.parent / "src"

#: The codec as built here, and the pure-Python one a ``_json``-less
#: interpreter builds: both must match the ``json`` module exactly.
CODECS = {"built": (encode_json, decode_json), "pure": _build_json_codec(None)}


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


# ----------------------------------------------------------------------
# Encoder: byte-identical to json.dumps
# ----------------------------------------------------------------------
_strings = st.text(st.characters(exclude_categories=()))  # surrogates too
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # ±inf and NaN included
    _strings,
)
_keys = st.one_of(_strings, st.integers(), st.floats(), st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_keys, children, max_size=5),
    ),
    max_leaves=25,
)


@pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))
@given(obj=_values)
@settings(max_examples=200, deadline=None)
def test_encoder_equals_json_dumps(codec, obj):
    encode, _ = codec
    assert encode(obj) == compact(obj)


@pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))
def test_encoder_pins_edge_values(codec):
    encode, _ = codec
    message = {
        "s": 'hé☃\U0001f600\x00\x1f"\\/',
        "f": [math.inf, -math.inf, math.nan, -0.0, 1e-300, 0.1],
        1: True,
        None: [],
    }
    assert encode(message) == (
        '{"s":"h\\u00e9\\u2603\\ud83d\\ude00\\u0000\\u001f\\"\\\\/",'
        '"f":[Infinity,-Infinity,NaN,-0.0,1e-300,0.1],"1":true,"null":[]}'
    )


@pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))
def test_unserialisable_value_raises_the_same_type_error(codec):
    encode, _ = codec
    message = {"op": "x", "keys": {1, 2}}
    with pytest.raises(TypeError) as expected:
        compact(message)
    with pytest.raises(TypeError) as got:
        encode(message)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "encode",
    [encode_json, CODECS["pure"][0], encode_frame],
    ids=["built", "pure", "frame"],
)
def test_cyclic_message_raises_instead_of_yielding_bytes(encode):
    message = {"op": "update_batch", "id": 1, "u": []}
    message["u"].append(message)
    with pytest.raises((ValueError, RecursionError)):
        encode(message)


# ----------------------------------------------------------------------
# Decoder: equal to json.loads, on results and on errors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))
@given(obj=_values)
@settings(max_examples=200, deadline=None)
def test_decoder_equals_json_loads(codec, obj):
    _, decode = codec
    text = compact(obj)
    # Compared re-encoded: NaN != NaN, but both encode as ``NaN``.
    assert compact(decode(text)) == compact(json.loads(text))


#: Valid with surrounding whitespace, and malformed every way a peer can
#: get it wrong; each must behave exactly as ``json.loads`` does.
DECODE_CASES = {
    "leading-space": ' {"a":1}',
    "trailing-newline": '{"a":1}\n',
    "both-whitespace": "\t[1,2] \r\n",
    "whitespace-inside": '{ "a" : [ 1 , 2 ] }',
    "extra-data": '{"a":1}x',
    "two-objects": '{"a":1}{"b":2}',
    "extra-after-space": '{"a":1} 2',
    "truncated-object": '{"a":',
    "truncated-array": "[1,2",
    "truncated-string": '{"a":"bc',
    "truncated-literal": "nul",
    "empty": "",
    "only-whitespace": "  \n",
    "bad-literal": '{"a":nan}',
    "raw-control-character": '{"a":"b\x01"}',
    "trailing-comma": '{"a":1,}',
    "non-finite": '{"a":NaN,"b":-Infinity}',
    "scalar": "1.5",
}


def _outcome(decode, text):
    try:
        return "ok", compact(decode(text))
    except Exception as error:  # the exception is the outcome
        return type(error), str(error)


@pytest.mark.parametrize("codec", CODECS.values(), ids=list(CODECS))
@pytest.mark.parametrize("text", DECODE_CASES.values(), ids=list(DECODE_CASES))
def test_decoder_matches_json_loads_on_edge_input(codec, text):
    _, decode = codec
    assert _outcome(decode, text) == _outcome(json.loads, text)


def test_decode_payload_errors_are_unchanged():
    """The protocol's error text quotes the ``json`` error verbatim."""
    for payload in (b'{"op":', b'{"op":"stats"}x', b"", b"\xff"):
        with pytest.raises(ProtocolError) as got:
            decode_payload(payload)
        try:
            json.loads(payload.decode("utf-8"))
        except ValueError as error:
            assert str(got.value) == f"undecodable frame payload: {error}"
    with pytest.raises(ProtocolError, match="must encode a JSON object"):
        decode_payload(b" [1] ")


# ----------------------------------------------------------------------
# The fallback codec, with the _json accelerator blocked
# ----------------------------------------------------------------------
_BLOCKED = """
import sys
sys.modules["_json"] = None
import json
from repro.serving.protocol import decode_json, encode_json, encode_frame

assert json.encoder.c_make_encoder is None
message = {"op": "q", "c": float("inf"), "s": "\\u00e9\\x01", "v": [1, 2.5, None]}
assert encode_json(message) == json.dumps(message, separators=(",", ":"))
assert decode_json(encode_json(message)) == message
assert decode_json(' {"a":1} ') == {"a": 1}
for text in ('{"a":1}x', ""):
    try:
        decode_json(text)
    except json.JSONDecodeError as error:
        try:
            json.loads(text)
        except json.JSONDecodeError as expected:
            assert str(error) == str(expected)
    else:
        raise AssertionError(f"{text!r} decoded")
loop = []
loop.append(loop)
try:
    encode_frame({"op": "stats", "loop": loop})
except RecursionError:
    pass
else:
    raise AssertionError("a cyclic message encoded")
print("fallback ok")
"""


def test_fallback_codec_with_the_accelerator_blocked():
    completed = subprocess.run(
        [sys.executable, "-c", _BLOCKED],
        env={**os.environ, "PYTHONPATH": str(_SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "fallback ok\n"


# ----------------------------------------------------------------------
# Golden WAL bytes: one record of each kind, and recovery from them
# ----------------------------------------------------------------------
#: The framed WAL records (``>II`` length + CRC-32, compact JSON payload)
#: the ops of :func:`_live_run` write, in order: every record kind, a
#: snapshot at an infinite constraint and a two-key refresh batch among
#: them.  The ``u`` and ``ub`` records end with the request frame exactly
#: as the feeder's client encoded it.
GOLDEN_WAL = (
    b'\x00\x00\x00P\xf7\x80\xd3l{"n":1,"k":"reg","f":"f","r":0,"e":1,"t":null,'
    b'"keys":["a","b"],"vals":[0.0,5.0]}',
    b'\x00\x00\x00[\xd5\xa6\xf8\xec{"n":2,"k":"u","e":1,"t":1.0,'
    b'"req":{"op":"update","id":2,"key":"a","value":1.5,"time":1.0}}',
    b'\x00\x00\x00n\xe97\xd6\xb4{"n":3,"k":"ub","e":1,"t":2.0,'
    b'"req":{"op":"update_batch","id":3,"updates":[["a",-2.25],["b",7.0]],'
    b'"time":2.0}}',
    b'\x00\x00\x0086\xe3?F{"n":4,"k":"snap","keys":["a","b"],"c":Infinity,'
    b'"t":3.0}',
    b'\x00\x00\x003v\xfeQ\xba{"n":5,"k":"snap","keys":["a","b"],"c":0.0,'
    b'"t":4.0}',
    b'\x00\x00\x00<*\xdd\xe5\xf5{"n":6,"k":"qr","keys":["a","b"],'
    b'"vals":[-2.25,7.0],"t":4.0}',
    b'\x00\x00\x00L\xcd\x06$5{"n":7,"k":"reg","f":null,"r":0,"e":null,"t":null,'
    b'"keys":["c"],"vals":[9.0]}',
    b'\x00\x00\x00\'\xeb\xf6,\x10{"n":8,"k":"down","keys":["c"],"t":4.0}',
    b'\x00\x00\x00T%\x83\n\x07{"n":9,"k":"reg","f":null,"r":0,"e":null,"t":null,'
    b'"keys":["q","p"],"vals":[3.0,4.0]}',
    b'\x00\x00\x00,B4\x1f\x9f{"n":10,"k":"down","keys":["q","p"],"t":4.0}',
)


def _server(directory):
    return CacheServer(
        StaticWidthPolicy(width=10.0),
        value_refresh_cost=1.0,
        query_refresh_cost=2.0,
        durability=PartitionDurability(directory, checkpoint_every=10**9),
    )


def _core_state(server):
    """The replayed state: everything but connection-era counters and the
    down-stamps recovery adds for keys whose owner was live at the crash."""
    state = server._capture_durable_state()
    statistics = state.pop("statistics")
    down_since = state.pop("down_since")
    return pickle.dumps(state), statistics.updates_applied, down_since


async def _live_run(directory):
    """Drive a durable server through one op of each kind; return its
    state right after the last golden record, while its feeder is live."""
    server = _server(directory)
    values = {"a": 0.0, "b": 5.0}
    feeder = await Client.from_transport(
        server.connect(), on_request=refresh_answerer(values)
    )
    client = await Client.from_transport(server.connect())
    other = await Client.from_transport(server.connect())
    pair = await Client.from_transport(server.connect())
    await feeder.request("register", keys=["a", "b"], values=[0.0, 5.0], feeder="f")
    values["a"] = 1.5
    await feeder.request("update", key="a", value=1.5, time=1.0)
    values.update(a=-2.25, b=7.0)
    await feeder.request("update_batch", updates=[["a", -2.25], ["b", 7.0]], time=2.0)
    await client.request(
        "query", keys=["a", "b"], aggregate="SUM", constraint=math.inf, time=3.0
    )
    await client.request(
        "query", keys=["a", "b"], aggregate="SUM", constraint=0.0, time=4.0
    )
    # A one-key and a two-key connection going down: a ``down`` record
    # lists the keys in the order the connection registered them.
    await other.request("register", keys=["c"], values=[9.0])
    await other.close()
    await client.request("stats")
    await pair.request("register", keys=["q", "p"], values=[3.0, 4.0])
    await pair.close()
    await client.request("stats")
    state = _core_state(server)
    wal = server.durability.wal_path.read_bytes()
    await client.close()
    await feeder.close()
    await server.close()
    return state, wal


def test_wal_bytes_match_the_golden_records(tmp_path):
    _, wal = asyncio.run(_live_run(tmp_path))
    assert wal == b"".join(GOLDEN_WAL)


#: Prints the golden run's WAL bytes, as hex, from a fresh interpreter.
_WAL_HEX = """
import asyncio, tempfile
from pathlib import Path
from test_serving_codec import _live_run
with tempfile.TemporaryDirectory() as directory:
    _, wal = asyncio.run(_live_run(Path(directory)))
print(wal.hex())
"""


def test_wal_bytes_do_not_depend_on_the_string_hash_seed():
    """Two interpreters with different string-hash seeds write the same WAL.

    A connection's keys are insertion-ordered, so the two-key ``down``
    record lists them as registered, ``["q","p"]``; a hash-ordered set
    listed ``["p","q"]`` under seed 0 and ``["q","p"]`` under seed 2.
    """
    tests = Path(__file__).resolve().parent
    wals = []
    for seed in ("0", "2"):
        completed = subprocess.run(
            [sys.executable, "-c", _WAL_HEX],
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join([str(_SRC), str(tests)]),
            },
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        wals.append(bytes.fromhex(completed.stdout.strip()))
    assert wals[0] == wals[1] == b"".join(GOLDEN_WAL)


def test_recovery_from_golden_wal_equals_the_live_state(tmp_path):
    live_dir, golden_dir = tmp_path / "live", tmp_path / "golden"
    live_dir.mkdir()
    golden_dir.mkdir()
    (live, updates, live_down), _ = asyncio.run(_live_run(live_dir))
    durability = PartitionDurability(golden_dir)
    durability.wal_path.write_bytes(b"".join(GOLDEN_WAL))
    recovered = _server(golden_dir)
    assert recovered.durability.records_replayed == len(GOLDEN_WAL)
    assert recovered.durability.torn_tails == 0
    state, recovered_updates, recovered_down = _core_state(recovered)
    asyncio.run(recovered.close())
    assert state == live
    assert recovered_updates == updates == 3
    assert live_down == {"c": 4.0, "q": 4.0, "p": 4.0}
    # Recovery keeps the logged stamps and marks the rest down at its clock.
    assert recovered_down == {"c": 4.0, "q": 4.0, "p": 4.0, "a": 4.0, "b": 4.0}
