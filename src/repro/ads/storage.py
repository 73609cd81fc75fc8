"""How an :class:`~repro.ads.index.AdsIndex` is laid out, in memory
and on disk: the one module that knows.

**In memory** an index is a list of segments
(:class:`repro.ads.kernels.pure.Columns`): contiguous node ranges, each
a mini-index of flat column buffers with offsets that start at 0.  An
ADS is one contiguous, distance-sorted run of entries per node, and
every estimator reads one node's run or sweeps runs in node order, so
``locate`` / ``locate_range`` / ``segments`` is the whole interface; the
kernels define the two classes, this module builds them:

* a built or eagerly loaded index is one segment over owned arrays;
* ``load(path, mmap=True)`` of a **single file** is one segment over
  views of the mapped file (:func:`map_file_columns`): nothing is
  copied, the OS pages bytes in on first touch;
* ``load(dir, mmap=True)`` of a **sharded layout** is one segment per
  nonempty shard, straight from what the shard file stores (its own
  zero-based offsets, the manifest's node range, the running entry
  base).  Only the manifest, the shard headers and the small offsets
  columns are read at load time; a shard's entry columns are mapped by
  the first query touching a node of its range (:func:`_map_shard`).

**On disk** an entry is :data:`ENTRY_COLUMNS` (20 bytes for bottom-k),
stored column by column behind a checksummed JSON header (``ADSIDX02``;
shard files ``ADSSHD02`` under a ``manifest.json``; version-1 files are
still read and converted).  The writers stream ``locate_range`` pieces
with an incremental CRC, so a save from any backing -- a sharded map
re-saved flat, or re-sharded across its boundaries -- copies no column.

Lifetime rules: the mapped :class:`memoryview` objects hold their
``mmap.mmap`` alive, and the index holds the segments, so the mappings
live exactly as long as the index -- request handlers may slice columns
freely without copying, but must not outlive the index.  The maps are
read-only (``ACCESS_READ``); mutating a served index file while it is
mapped is undefined behaviour, same as any mmap consumer.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import sys
import zlib
from array import array
from bisect import bisect_right
from functools import partial, reduce
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
    Union,
)

from repro._util import atomic_output, require
from repro.ads.kernels.pure import Columns, Segment
from repro.errors import EstimatorError, ParameterError

# One ADS entry is a (node, distance) pair plus its HIP weight; rank and
# tiebreak are functions of (seed, node) and live in per-node tables,
# never per entry.  8-byte columns come first so that every column
# starts aligned behind the 8-aligned header.  Node ids are unsigned:
# no bit pattern is a negative id, so a hostile one is simply out of
# range.  ``aux`` is the k-mins permutation / k-partition bucket.
_BOTTOM_K_COLUMNS = (("dist", "d"), ("hip", "d"), ("node", "I"))
ENTRY_COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bottomk": _BOTTOM_K_COLUMNS,
    "kmins": _BOTTOM_K_COLUMNS + (("aux", "I"),),
    "kpartition": _BOTTOM_K_COLUMNS + (("aux", "I"),),
}
OFFSETS_TYPECODE = "q"

# (current, read-only predecessor) magic of each file kind.  Version 1
# carried six 8-byte entry columns (below); it is converted on load and
# never written.
FORMAT_VERSION = 2
_MAGICS = (b"ADSIDX02", b"ADSIDX01")
_SHARD_MAGICS = (b"ADSSHD02", b"ADSSHD01")
_V1_TYPECODES = ("q", "d", "d", "Q", "q", "d")  # node dist rank tb aux hip
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "adsidx-sharded"
_SHARD_GLOB = "shard-*.adsshd"


def expected_bytes(typecodes: Sequence[str], counts: Sequence[int]) -> int:
    """Bytes taken by ``counts[i]`` values of each ``typecodes[i]``
    stored back to back."""
    return sum(
        array(typecode).itemsize * count
        for typecode, count in zip(typecodes, counts)
    )


def entry_typecodes(flavor: str) -> Tuple[str, ...]:
    """The typecodes of *flavor*'s entry columns, in file order."""
    return tuple(typecode for _, typecode in ENTRY_COLUMNS[flavor])


def labels_digest(labels: Sequence[Hashable]) -> str:
    """Stable fingerprint of the node label list (id order included).

    Shard files embed it so a loader can reject shards that were built
    against a different graph or interning order -- entry node ids are
    global, so mixing shards from different builds would silently
    mislabel entries otherwise.
    """
    payload = json.dumps(
        list(labels), ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def shard_ranges(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split ids ``0..n`` into *shards* contiguous, balanced ranges.

    Example:
        >>> shard_ranges(10, 3)
        [(0, 4), (4, 7), (7, 10)]
    """
    require(shards >= 1, f"shards must be >= 1, got {shards}")
    base, extra = divmod(n, shards)
    # The first *extra* ranges hold one id more.
    bounds = [i * base + min(i, extra) for i in range(shards + 1)]
    return list(zip(bounds, bounds[1:]))


# ----------------------------------------------------------------------
# File framing: header, per-column checksums, manifest
# ----------------------------------------------------------------------
def _read_exact(handle, count: int, path) -> bytes:
    payload = handle.read(count)
    if len(payload) != count:
        raise EstimatorError(f"{path}: truncated file")
    return payload


def _write_header(handle, magic: bytes, header: dict) -> None:
    """Magic, header length, header CRC32, then the JSON header padded
    with spaces to a multiple of 8 so the columns start 8-aligned."""
    payload = json.dumps(header, ensure_ascii=False).encode("utf-8")
    payload += b" " * (-len(payload) % 8)
    handle.write(magic)
    handle.write(len(payload).to_bytes(8, "little"))
    handle.write(zlib.crc32(payload).to_bytes(8, "little"))
    handle.write(payload)


def _read_header(
    handle, path, magics: Tuple[bytes, bytes], kind: str,
    required: Sequence[str],
) -> Tuple[int, dict]:
    """``(format version, header)`` of an index or shard file.  The
    header carries every *required* field; a version-2 header matched
    its checksum and lists its columns' (``"crc32"``), which version 1
    has none of (``None``)."""
    got = handle.read(len(magics[0]))
    if got not in magics:
        raise EstimatorError(f"{path}: not an {kind} file")
    version = FORMAT_VERSION - magics.index(got)
    header_len = int.from_bytes(_read_exact(handle, 8, path), "little")
    if not 0 < header_len <= (1 << 30):
        raise EstimatorError(f"{path}: implausible header length")
    if version == FORMAT_VERSION:
        crc = int.from_bytes(_read_exact(handle, 8, path), "little")
    header_bytes = _read_exact(handle, header_len, path)
    if version == FORMAT_VERSION and zlib.crc32(header_bytes) != crc:
        raise EstimatorError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise EstimatorError(f"{path}: corrupt header ({error})")
    if not isinstance(header, dict):
        raise EstimatorError(f"{path}: corrupt header (not an object)")
    if version != FORMAT_VERSION:
        header["crc32"] = None
    missing = [field for field in (*required, "crc32") if field not in header]
    if missing:
        raise EstimatorError(f"{path}: corrupt header (missing {missing})")
    return version, header


def _file_layout(
    path, version: int, header: dict, rows: int
) -> Tuple[Tuple[str, ...], List[int]]:
    """``(typecodes, counts)`` of the offsets column (for *rows* nodes)
    and every entry column, in file order, once the header's counts and
    checksum list are known to be sane."""
    if header["flavor"] not in ENTRY_COLUMNS:
        raise EstimatorError(
            f"{path}: corrupt header (flavor {header['flavor']!r})"
        )
    typecodes = (OFFSETS_TYPECODE,) + (
        entry_typecodes(header["flavor"])
        if version == FORMAT_VERSION else _V1_TYPECODES
    )
    entries, crcs = header["entries"], header.get("crc32")
    if not (
        type(rows) is int and type(entries) is int and min(rows, entries) >= 0
        and (crcs is None or (
            isinstance(crcs, list) and len(crcs) == len(typecodes)
            and all(type(crc) is int for crc in crcs)
        ))
    ):
        raise EstimatorError(f"{path}: corrupt header counts")
    return typecodes, [rows + 1] + [entries] * (len(typecodes) - 1)


def _read_columns(
    handle, path, typecodes: Sequence[str], counts: Sequence[int],
    header: dict, take: Optional[int] = None,
) -> List[array]:
    """Read back-to-back columns (the first *take*; the file must hold
    them all) into owned arrays, verifying the header's per-column
    CRC32s (version 2) and correcting byte order."""
    position = handle.tell()
    if handle.seek(0, os.SEEK_END) - position < expected_bytes(
        typecodes, counts
    ):
        raise EstimatorError(f"{path}: truncated file")
    handle.seek(position)
    crcs = header["crc32"]
    columns = []
    for i, (typecode, count) in enumerate(zip(typecodes[:take], counts)):
        column = array(typecode)
        payload = _read_exact(handle, column.itemsize * count, path)
        if crcs is not None and zlib.crc32(payload) != crcs[i]:
            raise EstimatorError(f"{path}: column {i} checksum mismatch")
        column.frombytes(payload)
        if header["byteorder"] != sys.byteorder:
            column.byteswap()
        columns.append(column)
    return columns


def _convert_v1(columns: Sequence[array], flavor: str, path):
    """A version-1 file's six entry columns as the current layout, plus
    the dropped ``(rank, tiebreak)`` pair for the caller to hold against
    the tables derived from the file's seed."""
    node, dist, rank, tiebreak, aux, hip = columns
    try:
        converted = [dist, hip, array("I", node)]
        if flavor != "bottomk":
            converted.append(array("I", aux))
    except OverflowError:
        raise EstimatorError(f"{path}: entry node ids must lie in [0, n)")
    return converted, (rank, tiebreak)


def _write_manifest(path: Path, manifest: dict) -> None:
    """Atomically replace a sharded layout's ``manifest.json``."""
    payload = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    with atomic_output(path) as handle:
        handle.write(payload.encode("utf-8"))


def _parse_manifest(manifest_path: Path) -> dict:
    """Read and structurally validate a sharded-layout manifest.

    Raises :class:`EstimatorError` for anything a corrupted or
    hand-edited manifest could get wrong: bad JSON, wrong format tag,
    missing fields, and shard ranges that do not tile ``0..n`` exactly.
    """
    def fail(why: str):
        raise EstimatorError(f"{manifest_path}: {why}")

    try:
        text = manifest_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        fail(f"unreadable manifest ({error})")
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as error:
        fail(f"corrupt manifest ({error})")
    if not isinstance(manifest, dict):
        fail("manifest is not an object")
    if manifest.get("format") != _MANIFEST_FORMAT:
        fail(f"not an {_MANIFEST_FORMAT} manifest "
             f"(format={manifest.get('format')!r})")
    if manifest.get("version") not in (1, FORMAT_VERSION):
        fail(f"unsupported manifest version {manifest.get('version')!r}")
    for field in ("flavor", "k", "seed", "rank_sup", "n", "entries",
                  "labels_digest", "shards"):
        if field not in manifest:
            fail(f"manifest is missing {field!r}")
    n, shards = manifest["n"], manifest["shards"]
    if not (isinstance(n, int) and n >= 0 and isinstance(shards, list)
            and isinstance(manifest["entries"], int)
            and manifest["entries"] >= 0):
        fail("corrupt manifest counts")
    position = 0
    for shard in shards:
        if not isinstance(shard, dict):
            fail("corrupt shard entry")
        for field in ("file", "start", "stop", "entries"):
            if field not in shard:
                fail(f"shard entry is missing {field!r}")
        start, stop = shard["start"], shard["stop"]
        if not (isinstance(shard["entries"], int) and shard["entries"] >= 0):
            fail(f"corrupt shard entry count {shard['entries']!r}")
        if not (isinstance(start, int) and isinstance(stop, int)
                and start == position and stop >= start):
            fail(f"shard ranges must tile 0..{n} contiguously (got "
                 f"[{start}, {stop}) at position {position})")
        if not isinstance(shard["file"], str) or "/" in shard["file"] or (
            "\\" in shard["file"] or shard["file"].startswith(".")
        ):
            fail(f"suspicious shard file name {shard['file']!r}")
        position = stop
    if position != n:
        fail(f"shard ranges cover 0..{position}, manifest claims n={n}")
    return manifest


# ----------------------------------------------------------------------
# Mapped backings
# ----------------------------------------------------------------------
def map_file_columns(
    path: Union[str, Path], fileno: int, data_start: int,
    counts: Sequence[int], typecodes: Sequence[str],
) -> List[memoryview]:
    """Map *path* once and cast one zero-copy view per column.

    ``counts[i]`` values of ``typecodes[i]`` are expected back-to-back
    starting at byte ``data_start``.  Raises :class:`EstimatorError`
    when the file is too short for the claimed counts (the mmap
    equivalent of the eager loader's "truncated file").  The kernel
    process pool's workers re-map a shard file through here too.
    """
    if os.fstat(fileno).st_size < data_start + expected_bytes(
        typecodes, counts
    ):
        raise EstimatorError(f"{path}: truncated file")
    mapped = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
    view = memoryview(mapped)
    columns = []
    position = data_start
    for count, typecode in zip(counts, typecodes):
        stop = position + expected_bytes([typecode], [count])
        columns.append(view[position:stop].cast(typecode))
        position = stop
    return columns


def _map_shard(
    path: Path, data_start: int, typecodes: Tuple[str, ...], base: int,
    offsets: array,
) -> Segment:
    """The segment of one nonempty shard file of a sharded map, from
    what the loader read (the file's own zero-based *offsets*, padded
    for any empty neighbour shards whose nodes ride along; the shard's
    first global entry slot *base*) and where its entry columns sit
    (*typecodes* back to back from *data_start* of *path*).  ``Columns``
    calls this, behind its lock, when a reader first asks for a node of
    the shard's range."""
    try:
        with open(path, "rb") as handle:
            columns = map_file_columns(
                path, handle.fileno(), data_start,
                [offsets[-1]] * len(typecodes), typecodes,
            )
    except OSError as error:
        raise EstimatorError(
            f"{path}: shard file vanished or became unreadable after "
            f"load ({error})"
        )
    return Segment(
        base, offsets, *columns, source=(str(path), data_start, typecodes)
    )


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def load(cls, path: Path, mmap: bool, backend: str, kernel_workers):
    """What :meth:`AdsIndex.load` does once its arguments are vetted:
    *path* is a single-file index, a sharded layout directory, or that
    directory's ``manifest.json``; *cls* is the index class to build."""
    if path.is_dir():
        path = path / MANIFEST_NAME
    if path.name == MANIFEST_NAME:
        return _load_sharded(cls, path, mmap, backend, kernel_workers)
    with open(path, "rb") as handle:
        return read_single(cls, handle, path, mmap, backend, kernel_workers)


def read_single(cls, handle, path, mmap: bool, backend: str, kernel_workers):
    """Parse the single-file layout from an open binary handle."""
    version, header = _read_header(
        handle, path, _MAGICS, "AdsIndex",
        ("flavor", "k", "seed", "rank_sup", "labels", "n", "entries",
         "byteorder"),
    )
    typecodes, counts = _file_layout(path, version, header, header["n"])
    # Zero-copy views need the current layout in native byte order;
    # anything else (foreign-endian, version 1) loads eagerly.
    mmap = mmap and version == FORMAT_VERSION and (
        header["byteorder"] == sys.byteorder
    )
    if mmap:
        columns = map_file_columns(
            path, handle.fileno(), handle.tell(), counts, typecodes
        )
    else:
        columns = _read_columns(handle, path, typecodes, counts, header)
    return _assemble(
        cls, path, version, header, header["labels"], columns[0],
        columns[1:], [path] if mmap else None, backend, kernel_workers,
    )


def _construct(
    cls, path, params: dict, labels, segments: Columns,
    mapped_from: Optional[Iterable[Path]], backend: str, kernel_workers,
):
    """The index over *segments* that a file (or sharded layout)
    described; *mapped_from* lists the files a mapped index's columns
    are views of (``None``: owned arrays, validated in full)."""
    try:
        index = cls._from_segments(
            params["flavor"], params["k"], params["seed"], labels, segments,
            params["rank_sup"], mapped_from is None, backend, kernel_workers,
        )
    except (ParameterError, TypeError, ValueError) as error:
        # Parseable-but-nonsensical header fields (bogus flavor,
        # k <= 0, non-numeric values): corruption, not a caller bug.
        raise EstimatorError(f"{path}: corrupt header ({error})")
    if mapped_from is not None:
        index.mmap_backed = True
        index._mmap_paths = frozenset(
            source.resolve() for source in mapped_from
        )
    return index


def _assemble(
    cls, path, version: int, params: dict, labels, offsets, columns,
    mapped_from: Optional[Iterable[Path]], backend: str, kernel_workers,
):
    """:func:`_construct` over flat columns as read from disk,
    converting version-1 columns and holding their stored ranks and
    tiebreaks against the tables the seed derives."""
    legacy = None
    if version != FORMAT_VERSION:
        columns, legacy = _convert_v1(columns, params["flavor"], path)
    index = _construct(
        cls, path, params, labels, Columns.flat(offsets, *columns),
        mapped_from, backend, kernel_workers,
    )
    if legacy is not None:
        # Converted files load eagerly: flat columns, one segment.
        (part,) = index._segments.segments
        tiebreaks = index._node_tables[0]
        if legacy != (
            array("d", index._slice_ranks(part, 0, index.num_entries)[1]),
            array("Q", map(tiebreaks.__getitem__, part.node)),
        ):
            raise EstimatorError(
                f"{path}: stored ranks / tiebreaks are not the ones "
                f"seed {index.seed} assigns to these labels"
            )
    return index


def _load_sharded(
    cls, manifest_path: Path, mmap: bool, backend: str, kernel_workers
):
    """Assemble an index from a sharded layout.

    Eager mode concatenates every shard's columns into owned arrays:
    one segment.  ``mmap=True`` reads only the manifest, the per-shard
    JSON headers, and the small per-node offset columns, and makes each
    nonempty shard a segment whose entry columns are mapped by the
    first query touching it (:func:`_map_shard`).  Nodes of empty shards
    (no entries: nothing to map) ride in a neighbouring segment.
    """
    manifest = _parse_manifest(manifest_path)
    n = manifest["n"]
    typecodes, _ = _file_layout(
        manifest_path, manifest["version"], manifest, n
    )
    offsets = array(OFFSETS_TYPECODE, [0])
    columns = [array(typecode) for typecode in typecodes[1:]]
    parts: List[Callable[[], Segment]] = []
    bounds: List[int] = []
    labels: List[Hashable] = []
    base = 0
    for shard in manifest["shards"]:
        shard_path = manifest_path.parent / shard["file"]
        try:
            handle = open(shard_path, "rb")
        except OSError as error:
            raise EstimatorError(
                f"{manifest_path}: missing shard file ({error})"
            )
        with handle:
            version, header = _read_header(
                handle, shard_path, _SHARD_MAGICS, "AdsIndex shard",
                ("flavor", "k", "seed", "rank_sup", "n", "start", "stop",
                 "labels_digest", "labels", "entries", "byteorder"),
            )
            # The shard must be the manifest's: same sketch set, same
            # node range, same format version.
            shared = ("flavor", "k", "seed", "rank_sup", "n", "labels_digest")
            claimed = {field: header[field] for field in shared}
            claimed.update(
                start=header["start"], stop=header["stop"], version=version
            )
            expected = {field: manifest[field] for field in shared}
            expected.update(
                start=shard["start"], stop=shard["stop"],
                version=manifest["version"],
            )
            if claimed != expected:
                raise EstimatorError(
                    f"{shard_path}: shard/manifest mismatch "
                    f"(shard claims {claimed}, manifest expects "
                    f"{expected})"
                )
            span = shard["stop"] - shard["start"]
            _, counts = _file_layout(shard_path, version, header, span)
            count = header["entries"]
            if mmap and (
                version != FORMAT_VERSION
                or header["byteorder"] != sys.byteorder
            ):
                # Only current-layout, native-endian shards can be
                # viewed zero-copy; reload the whole layout eagerly
                # (converting / byteswapping).
                return _load_sharded(
                    cls, manifest_path, False, backend, kernel_workers
                )
            if not (isinstance(header["labels"], list)
                    and len(header["labels"]) == span):
                raise EstimatorError(
                    f"{shard_path}: labels do not cover its "
                    f"{span}-node range"
                )
            # A mapped load reads (and checksums) the offsets only.
            shard_offsets, *shard_columns = _read_columns(
                handle, shard_path, typecodes, counts, header,
                take=1 if mmap else None,
            )
            data_start = handle.tell()
            for column, part in zip(columns, shard_columns):
                column.extend(part)
            if shard_offsets[0] != 0 or shard_offsets[-1] != count:
                raise EstimatorError(
                    f"{shard_path}: shard offsets do not span its "
                    "entries"
                )
            if not mmap:
                offsets.extend(value + base for value in shard_offsets[1:])
            elif count:
                if not parts and shard["start"]:
                    # Leading empty shards: their nodes are empty rows
                    # in front of the first segment's own offsets.
                    shard_offsets = array(
                        OFFSETS_TYPECODE, bytes(8 * shard["start"])
                    ) + shard_offsets
                parts.append(partial(
                    _map_shard, shard_path, data_start, typecodes[1:], base,
                    shard_offsets,
                ))
                bounds.append(shard["stop"])
                last_offsets = shard_offsets
            elif parts:
                # An empty shard after a nonempty one: its nodes are
                # empty rows behind that segment's own offsets.
                last_offsets.extend(last_offsets[-1:] * span)
                bounds[-1] = shard["stop"]
            labels.extend(header["labels"])
            base += count
    if labels_digest(labels) != manifest["labels_digest"]:
        raise EstimatorError(
            f"{manifest_path}: assembled labels do not match the "
            "manifest digest"
        )
    if not mmap:
        return _assemble(
            cls, manifest_path, manifest["version"], manifest, labels,
            offsets, columns, None, backend, kernel_workers,
        )
    if parts:
        segments = Columns(parts, [0] + bounds, base)
    else:
        # No entry anywhere: nothing to map.
        segments = Columns.flat(
            array(OFFSETS_TYPECODE, bytes(8 * (n + 1))), *columns
        )
    return _construct(
        cls, manifest_path, manifest, labels, segments,
        [manifest_path.parent / shard["file"] for shard in manifest["shards"]],
        backend, kernel_workers,
    )


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def _range_columns(index, start: int, stop: int) -> List[List[Any]]:
    """What a file stores for node range ``[start, stop)`` of *index*:
    the offsets column rebased to the range's first entry, then every
    entry column in file order -- each a list of bytes-like pieces, one
    zero-copy buffer per segment the range crosses."""
    offsets = array(OFFSETS_TYPECODE, [0])
    columns: List[List[Any]] = [[] for _ in ENTRY_COLUMNS[index.flavor]]
    for part, a, b in index._segments.locate_range(start, stop):
        lo, hi = part.offsets[a], part.offsets[b]
        rows, shift = part.offsets[a + 1:b + 1], offsets[-1] - lo
        if shift:  # else as stored: no per-node Python loop
            rows = (value + shift for value in rows)
        offsets.extend(rows)
        for pieces, column in zip(columns, part[2:]):
            pieces.append(memoryview(column)[lo:hi])
    return [[offsets]] + columns


def _sketch_params(index) -> Dict[str, Any]:
    """What every header and manifest states about the sketch set, and
    what a shard must share with its layout (entry node ids are
    global): in the order the files list them."""
    return {
        "flavor": index.flavor, "k": index.k, "seed": index.seed,
        "rank_sup": index.rank_sup, "n": index.num_nodes,
    }


def _write_file(handle, index, magic: bytes, columns, **fields) -> None:
    """One index or shard file onto an open binary handle: the JSON
    header (*fields* are the file kind's own) with the CRC32 of every
    column of *columns* (:func:`_range_columns`), then the columns."""
    _write_header(handle, magic, {
        **_sketch_params(index),
        "byteorder": sys.byteorder,
        "crc32": [
            reduce(lambda crc, piece: zlib.crc32(piece, crc), pieces, 0)
            for pieces in columns
        ],
        **fields,
    })
    for pieces in columns:
        for piece in pieces:
            handle.write(piece)


def write_single(index, handle) -> None:
    """Serialise the single-file layout onto an open binary handle."""
    _write_file(
        handle, index, _MAGICS[0],
        _range_columns(index, 0, index.num_nodes),
        entries=index.num_entries, labels=index._labels,
    )


def save(index, path: Union[str, Path], shards: Optional[int]) -> None:
    """What :meth:`AdsIndex.save` does (see there)."""
    check_saveable_labels(index)
    if shards is not None:
        _save_sharded(index, Path(path), shards)
        return
    _guard_mmap_overwrite(index, Path(path))
    # Crash-atomic: the bytes land in a same-directory temp file and
    # replace *path* only once fsync'd, so a crash mid-save can
    # never leave a torn index behind.
    with atomic_output(path) as handle:
        write_single(index, handle)


def content_digest(index) -> str:
    """What :meth:`AdsIndex.content_digest` does (see there)."""
    digest = hashlib.blake2b(digest_size=16)
    params = json.dumps(
        [index.flavor, index.k, index.seed, index.rank_sup,
         index.num_nodes, index.num_entries, sys.byteorder],
        ensure_ascii=False, separators=(",", ":"),
    ).encode("utf-8")
    digest.update(params)
    digest.update(labels_digest(index._labels).encode("ascii"))
    for pieces in _range_columns(index, 0, index.num_nodes):
        for piece in pieces:
            digest.update(piece)
    return digest.hexdigest()


def check_saveable_labels(index) -> None:
    index._check_node_count()
    for label in index._labels:
        if not isinstance(label, (int, str)) or isinstance(label, bool):
            raise EstimatorError(
                "AdsIndex.save supports int/str node labels, got "
                f"{type(label).__name__}"
            )


def _guard_mmap_overwrite(index, destination: Path) -> None:
    """Refuse to write a file *index*'s columns are mapped from.

    Truncating a memory-mapped file makes the next column read a
    SIGBUS -- a hard interpreter crash, not an exception -- and the
    write would be reading its own half-clobbered source anyway.
    Save to a different path, or reload eagerly first.
    """
    if not index._mmap_paths:
        return
    try:
        resolved = destination.resolve()
    except OSError:  # pragma: no cover - unresolvable exotic paths
        return
    if resolved in index._mmap_paths:
        raise EstimatorError(
            f"{destination}: this index is memory-mapped from that "
            "file; save to a different path or reload with "
            "mmap=False before overwriting it"
        )


# -- sharded directory layout ------------------------------------------
def _save_sharded(index, directory: Path, shards: int) -> None:
    ranges = shard_ranges(index.num_nodes, shards)  # refuses shards < 1
    directory.mkdir(parents=True, exist_ok=True)
    digest = labels_digest(index._labels)
    manifest_shards = []
    for i, (start, stop) in enumerate(ranges):
        file_name = f"shard-{i:05d}.adsshd"
        manifest_shards.append({
            "file": file_name,
            "start": start,
            "stop": stop,
            "entries": _write_shard_file(
                index, directory / file_name, start, stop, digest
            ),
        })
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": FORMAT_VERSION,
        **_sketch_params(index),
        "entries": index.num_entries,
        "labels_digest": digest,
        "shards": manifest_shards,
    }
    # The manifest lands last and atomically: a crashed save leaves
    # either the old manifest or orphan shard files with none, never
    # a manifest pointing at torn shards.
    _write_manifest(directory / MANIFEST_NAME, manifest)
    # Only now drop the shard files a wider layout left behind here:
    # until the new manifest landed they were the old one's, and a
    # crash before this line leaves harmless orphans.
    named = {shard["file"] for shard in manifest_shards}
    for stale in directory.glob(_SHARD_GLOB):
        if stale.name not in named:
            stale.unlink(missing_ok=True)


def _write_shard_file(
    index, path: Path, start: int, stop: int, digest: str
) -> int:
    """Write node range ``[start, stop)`` as a shard file; the number
    of entries it holds."""
    _guard_mmap_overwrite(index, path)
    columns = _range_columns(index, start, stop)
    entries = columns[0][0][-1]
    with atomic_output(path) as handle:
        _write_file(
            handle, index, _SHARD_MAGICS[0], columns,
            start=start, stop=stop, entries=entries,
            labels=index._labels[start:stop], labels_digest=digest,
        )
    return entries


def _layout_mismatch(index, manifest: dict) -> Optional[str]:
    """Why one shard of the layout *manifest* describes cannot be
    refreshed from *index* (``None`` when it can): the format
    version, sketch parameters and labels must all be the index's,
    because entry node ids are global."""
    for field, mine in (
        ("version", FORMAT_VERSION), *_sketch_params(index).items(),
        ("labels_digest", labels_digest(index._labels)),
    ):
        if manifest[field] != mine:
            return (
                f"layout was built with {field}={manifest[field]!r}, "
                f"index has {mine!r}"
            )
    return None


def write_shard(index, directory: Path, shard_index: int) -> None:
    """What :meth:`AdsIndex.write_shard` does (see there)."""
    manifest_path = directory / MANIFEST_NAME
    manifest = _parse_manifest(manifest_path)
    check_saveable_labels(index)
    mismatch = _layout_mismatch(index, manifest)
    if mismatch is not None:
        raise EstimatorError(f"{manifest_path}: {mismatch}")
    entries = manifest["shards"]
    if not 0 <= shard_index < len(entries):
        raise ParameterError(
            f"shard_index {shard_index} outside [0, {len(entries)})"
        )
    shard = entries[shard_index]
    shard["entries"] = _write_shard_file(
        index, directory / shard["file"], shard["start"], shard["stop"],
        manifest["labels_digest"],
    )
    manifest["entries"] = sum(s["entries"] for s in entries)
    # Shard then manifest, both atomic: at every crash point the
    # manifest on disk describes complete shard files.
    _write_manifest(manifest_path, manifest)


def compact(
    index, path: Path, shards: Optional[int], dirty_ids: Iterable[int]
) -> Dict[str, Any]:
    """Bring the persisted layout at *path* up to date with *index*,
    whose node ids *dirty_ids* changed since it was last written there
    (see :meth:`AdsIndex.compact` for the cases); the summary dict."""
    # An existing sharded layout, named by its directory or manifest?
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    if manifest_path.name != MANIFEST_NAME or not manifest_path.exists():
        manifest_path = None
    if manifest_path is None:
        save(index, path, shards)
        if shards is None:
            return {"layout": "single", "full_rewrite": True}
        rewritten, total, patchable = list(range(shards)), shards, False
    else:
        manifest = _parse_manifest(manifest_path)
        starts = [shard["start"] for shard in manifest["shards"]]
        total = len(starts)
        # A layout this index cannot patch shard by shard (other
        # parameters or labels, or format version 1) is rewritten.
        patchable = _layout_mismatch(index, manifest) is None
        if patchable:
            rewritten = sorted({
                bisect_right(starts, vid) - 1 for vid in dirty_ids
            })
            for shard_index in rewritten:
                write_shard(index, manifest_path.parent, shard_index)
        else:
            save(index, manifest_path.parent, total)
            rewritten = list(range(total))
    return {
        "layout": "sharded",
        "full_rewrite": not patchable,
        "rewritten_shards": rewritten,
        "total_shards": total,
    }
