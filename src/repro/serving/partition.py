"""Deterministic hash partitioning of source keys across gateway partitions.

The gateway only keeps serialized replays bit-identical to the offline
simulator if every process, on every run, assigns the same key to the same
partition.  Python's built-in ``hash`` is salted per process for strings
(PEP 456), so the partitioner hashes a canonical byte encoding of the key
with CRC-32 instead: stable across processes, platforms and interpreter
versions, and cheap enough for the per-request routing path.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Iterable, List


def stable_key_hash(key: Hashable) -> int:
    """Return a process-stable 32-bit hash of ``key``.

    Strings hash their UTF-8 bytes directly (the common case: source keys
    like ``"host-03"``); every other key type hashes a NUL-prefixed ``repr``
    — no ``repr`` starts with NUL, so ``1`` and ``"1"`` land in different
    buckets (as dict keys they are distinct too).  Numeric keys that compare
    equal across types (``True == 1 == 1.0``) are one dict key in a single
    cache, so they are canonicalised to one hash input here, keeping the
    gateway's routing consistent with single-cache key semantics.

    Keys are expected to have value-based ``repr``s (strings, numbers,
    tuples of those); objects with the default id-based ``repr`` would
    re-partition per process and must not be used as source keys.
    """
    if type(key) is str:
        data = key.encode("utf-8")
    else:
        data = b"\x00" + repr(_canonical_key(key)).encode("utf-8")
    return zlib.crc32(data)


def _canonical_key(key):
    """Collapse cross-type numeric equality (``True == 1 == 1.0``), recursively
    through tuples, so equal dict keys share one hash input."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    if type(key) is tuple:
        return tuple(_canonical_key(item) for item in key)
    return key


def shard_index(key: Hashable, shard_count: int) -> int:
    """Return the partition owning ``key`` under stable hash partitioning."""
    if not shard_count >= 1:
        raise ValueError("shard_count must be at least 1")
    return stable_key_hash(key) % shard_count


def partition_keys(
    keys: Iterable[Hashable], shard_count: int
) -> Dict[int, List[Hashable]]:
    """Group ``keys`` by owning partition, preserving iteration order per group.

    Only partitions that own at least one key appear in the result; the
    mapping iterates in first-touched order, which the gateway's fan-out
    relies on being deterministic for a given key sequence.
    """
    if not shard_count >= 1:
        raise ValueError("shard_count must be at least 1")
    groups: Dict[int, List[Hashable]] = {}
    for key in keys:
        index = stable_key_hash(key) % shard_count
        group = groups.get(index)
        if group is None:
            groups[index] = [key]
        else:
            group.append(key)
    return groups
