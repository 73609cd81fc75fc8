"""Test support for the ``AdsIndex`` storage formats.

* :func:`columns` -- an index's stored state as comparable lists, read
  through its segments whatever backs them, after checking that its
  per-node tables are what ``HashFamily(seed)`` assigns to its labels
  (:func:`entry_columns` / :func:`entry_slot`: the same walk for tests
  that want the whole-index columns or one node's global entry slot);
* :func:`data_start` / :func:`column_start` / :func:`poke_node_id` --
  where the columns sit in a version-2 file, for tests that corrupt one
  precisely;
* :func:`write_v1_single` / :func:`write_v1_sharded` -- the version-1
  writer (``ADSIDX01`` / ``ADSSHD01``, six 8-byte entry columns) as it
  stood when the format was retired from ``src/``, frozen here so the
  reader keeps being tested against real version-1 bytes.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.ads.storage import (
    ENTRY_COLUMNS,
    MANIFEST_NAME,
    expected_bytes,
    labels_digest,
    shard_ranges,
)
from repro.rand.hashing import HashFamily


def entry_columns(index):
    """``(offsets, dist, hip, node, aux)`` of the whole index as lists,
    walked segment by segment (``aux`` is ``None`` on a bottom-k
    index); offsets are global entry slots."""
    parts = index._segments.segments
    offsets = [0]
    for part in parts:
        offsets.extend(part.base + value for value in part.offsets[1:])
    dist, hip, node, aux = (
        None if parts[0][field] is None
        else [value for part in parts for value in part[field]]
        for field in (2, 3, 4, 5)
    )
    assert len(offsets) == index.num_nodes + 1
    assert len(dist) == len(hip) == len(node) == index.num_entries
    return offsets, dist, hip, node, aux


def entry_slot(index, i: int) -> int:
    """The global entry slot of node id *i*'s first entry."""
    part, lo, _ = index._segments.locate(i)
    return part.base + lo


def columns(index):
    """``(offsets, dist, hip, node, aux, cum_hip, labels)`` as lists
    (``aux`` is ``None`` on a bottom-k index)."""
    family = HashFamily(index.seed)
    labels = index.nodes()
    tiebreaks, ranks = index._node_tables
    assert list(tiebreaks) == [family.tiebreak(label) for label in labels]
    assert [list(table) for table in ranks] == [
        [family.rank(label, h) for label in labels]
        for h in range(index.k if index.flavor == "kmins" else 1)
    ]
    stored = entry_columns(index)
    assert (stored[4] is None) == (index.flavor == "bottomk")
    for name in ("rank", "tiebreak"):  # per node, never per entry
        assert name not in index._segments.segments[0]._fields
    return stored + (list(index._cum_hip), labels)


def data_start(data: bytes) -> int:
    """Byte offset of the first column of a version-2 index or shard
    file: magic, header length, header CRC, padded header."""
    return 24 + int.from_bytes(data[8:16], "little")


def column_start(data: bytes, flavor: str, name: str, rows: int,
                 entries: int) -> int:
    """Byte offset of entry column *name* in a version-2 file holding
    *rows* nodes and *entries* entries."""
    names = [column for column, _ in ENTRY_COLUMNS[flavor]]
    typecodes = [typecode for _, typecode in ENTRY_COLUMNS[flavor]]
    before = names.index(name)
    return data_start(data) + 8 * (rows + 1) + expected_bytes(
        typecodes[:before], [entries] * before
    )


def poke_node_id(path, flavor: str, rows: int, entries: int, slot: int,
                 node_id: int, fix_checksums: bool = False) -> None:
    """Overwrite entry *slot* of the node column of the version-2 file
    at *path* with *node_id* (negative ids are written as the int32 bit
    pattern); *fix_checksums* re-frames the header so that only the id
    itself is wrong."""
    data = bytearray(Path(path).read_bytes())
    position = column_start(data, flavor, "node", rows, entries) + 4 * slot
    struct.pack_into("<i" if node_id < 0 else "<I", data, position, node_id)
    if fix_checksums:
        start = data_start(data)
        header = json.loads(data[24:start])
        node_column = column_start(data, flavor, "node", rows, entries)
        names = [name for name, _ in ENTRY_COLUMNS[flavor]]
        header["crc32"][1 + names.index("node")] = zlib.crc32(
            data[node_column:node_column + 4 * entries]
        )
        payload = json.dumps(header, ensure_ascii=False).encode("utf-8")
        payload += b" " * (-len(payload) % 8)
        data[8:start] = (
            len(payload).to_bytes(8, "little")
            + zlib.crc32(payload).to_bytes(8, "little") + payload
        )
    Path(path).write_bytes(bytes(data))


# ----------------------------------------------------------------------
# The frozen version-1 writer
# ----------------------------------------------------------------------
def _v1_columns(index, stored, lo: int, hi: int):
    """node, dist, rank, tiebreak, aux, hip for entry slots [lo, hi) of
    *stored* (:func:`entry_columns` of *index*)."""
    family = HashFamily(index.seed)
    labels = index.nodes()
    _, dist, hip, node, stored_aux = stored
    nodes = node[lo:hi]
    aux = [-1] * len(nodes) if stored_aux is None else stored_aux[lo:hi]
    ranks = [
        family.rank(labels[v], h if index.flavor == "kmins" else 0)
        for v, h in zip(nodes, aux)
    ]
    return (
        array("q", nodes), array("d", dist[lo:hi]), array("d", ranks),
        array("Q", (family.tiebreak(labels[v]) for v in nodes)),
        array("q", aux), array("d", hip[lo:hi]),
    )


def _write_v1(path, magic: bytes, header: dict, offsets, entry_columns):
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        handle.write(offsets.tobytes())
        for column in entry_columns:
            handle.write(column.tobytes())


def write_v1_single(index, path, **overrides) -> None:
    """*index* as an ``ADSIDX01`` file (*overrides* patch the header)."""
    header = {
        "flavor": index.flavor,
        "k": index.k,
        "seed": index.seed,
        "rank_sup": index.rank_sup,
        "n": index.num_nodes,
        "entries": index.num_entries,
        "byteorder": sys.byteorder,
        "labels": index.nodes(),
    }
    header.update(overrides)
    stored = entry_columns(index)
    _write_v1(path, b"ADSIDX01", header, array("q", stored[0]),
              _v1_columns(index, stored, 0, index.num_entries))


def write_v1_sharded(index, directory, shards: int) -> None:
    """*index* as a version-1 sharded layout (``ADSSHD01`` shards under
    a ``"version": 1`` manifest)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = index.nodes()
    digest = labels_digest(labels)
    stored = entry_columns(index)
    all_offsets = stored[0]
    params = {
        "flavor": index.flavor, "k": index.k, "seed": index.seed,
        "rank_sup": index.rank_sup, "n": index.num_nodes,
    }
    manifest_shards = []
    for i, (start, stop) in enumerate(shard_ranges(len(labels), shards)):
        lo, hi = all_offsets[start], all_offsets[stop]
        file_name = f"shard-{i:05d}.adsshd"
        header = {
            "format": "adsidx-shard", "version": 1, **params,
            "start": start, "stop": stop, "entries": hi - lo,
            "byteorder": sys.byteorder, "labels": labels[start:stop],
            "labels_digest": digest,
        }
        offsets = array("q", (all_offsets[j] - lo
                              for j in range(start, stop + 1)))
        _write_v1(directory / file_name, b"ADSSHD01", header, offsets,
                  _v1_columns(index, stored, lo, hi))
        manifest_shards.append({
            "file": file_name, "start": start, "stop": stop,
            "entries": hi - lo,
        })
    manifest = {
        "format": "adsidx-sharded", "version": 1, **params,
        "entries": index.num_entries, "labels_digest": digest,
        "shards": manifest_shards,
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
