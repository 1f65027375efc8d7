"""Serialization of graphs and hub labelings.

A library users adopt needs artifacts to survive the process: build a
labeling once, query it from anywhere.  Formats:

* JSON (:func:`labeling_to_json` / :func:`labeling_from_json`) --
  human-readable, interoperable;
* a compact binary stream (:func:`labeling_to_bytes` /
  :func:`labeling_from_bytes`) built on the library's own bit codecs
  (gap + gamma, the same encoding the distance-label sizes are measured
  in), typically ~4x smaller than JSON;
* edge-list text for graphs (:func:`graph_to_edgelist` /
  :func:`graph_from_edgelist`).

Round-trip fidelity is exact (tests cover all three).

Binary labelings are wrapped in a versioned, checksummed **envelope**
(see :data:`ARTIFACT_MAGIC`) so that truncation and bit-flips are
detected at load time -- a labeling answers *exact* distance queries,
so a corrupted artifact must fail loudly, never decode to plausible
garbage.  Envelope layout, all integers big-endian::

    offset  size  field
    0       4     magic  b"RHL\\x01"  (format marker)
    4       1     format version      (1 = bit stream, 2-5 = flat arrays)
    5       8     num_vertices        (redundant with payload; checked)
    13      8     payload length in bytes
    21      4     CRC32 of payload
    25      ...   payload

Version-1 payloads are the legacy bit stream (8-byte bit count + bits).
Version-5 payloads (:func:`flat_labeling_to_bytes` /
:func:`flat_labeling_from_bytes`) carry a
:class:`~repro.perf.flat.FlatHubLabeling` as its own arrays -- the
tail's CSR triple, then the dense part -- raw and little-endian, each
starting 8-byte aligned in the envelope::

    1                 dist tier tag  (1 = uint16, 2 = uint32, 3 = float64)
    1                 hub width in bytes  (2 = uint16, 4 = int32)
    8                 tail entry count T  (big-endian, like the header)
    8                 dense width K  (big-endian)
    8                 dense entry count E  (big-endian)
    5                 zero padding (the offsets start at envelope byte 56)
    8 * (n + 1)       tail offsets  (int64)
    h * T             tail hub ids  (h = 2 or 4 bytes, per the width)
    (-h * T) % 8      zero padding
    w * T             tail distances (w = 2, 4 or 8 bytes, per the tag)
    (-w * T) % 8      zero padding
    h * K             dense hub ids, ascending
    (-h * K) % 8      zero padding
    w * 8 * t * n     the n x K matrix D in t = ceil(K / 8) tiles: tile
                      j holds each vertex's cells of columns 8j..8j+7
                      in turn; the tier's sentinel where a vertex lacks
                      the hub and in the last tile's unused lanes

The hub width is the store's hub tier, which follows from ``n``
(``uint16`` when ``n <= 2**16``); a width that does not match ``n``'s
tier is corrupt, and so is a dense part on the ``uint32`` tier.  An
``mmap`` of the file or a shared-memory copy of the blob *is* a store
(:func:`flat_labeling_view`), dense part included, and serialize/load
are O(bytes) copies -- the format behind the persistent label cache
(:mod:`repro.perf.cache`).

Three earlier flat payloads still load, one way, through the store's
constructor, which narrows them into the version-5 layout and derives
the dense part; nothing writes them any more, and none can be mapped:

* version 4 -- one CSR triple of every entry: the version-5 layout
  without the dense part (the tag, the width, the 8-byte count and 5
  bytes of padding, so the offsets start at envelope byte 40);
* version 3 -- the version-4 layout with always-int32 hubs and no
  width byte (the tag, the 8-byte count, 6 bytes of padding);
* version 2 -- an 8-byte count, then int64 offsets, int64 hubs and
  float64 distances.

Fully loaded flat payloads are structurally validated (offsets
monotone, hub ids in range and ascending per run, distances inside
their tier) before use.

Legacy (pre-envelope) blobs start with the payload directly; since
their leading 8-byte bit count never reaches ``2**56``, the first byte
of a legacy blob is always ``0x00`` and the two formats cannot be
confused.  :func:`labeling_from_bytes` and
:func:`flat_labeling_from_bytes` each read every flavor, converting
between stores as needed.  Malformed input of any flavor raises
:class:`~repro.runtime.errors.ArtifactCorruptError` with the offset
where decoding failed; malformed edge-list text raises
:class:`~repro.runtime.errors.FormatError` naming the offending line.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..labeling.bits import BitReader, BitWriter
from ..runtime.errors import ArtifactCorruptError, FormatError
from .hublabel import HubLabeling

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..perf.flat import FlatHubLabeling

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "FLAT_ARTIFACT_VERSION",
    "labeling_to_json",
    "labeling_from_json",
    "labeling_to_bytes",
    "labeling_from_bytes",
    "flat_labeling_to_bytes",
    "flat_labeling_from_bytes",
    "flat_labeling_view",
    "verify_envelope_crc",
    "graph_to_edgelist",
    "graph_from_edgelist",
]

#: Leading bytes of an enveloped labeling artifact.
ARTIFACT_MAGIC = b"RHL\x01"
#: Envelope format version of the gap+gamma bit-stream payload.
ARTIFACT_VERSION = 1
#: Envelope format version of the flat-array payload.
FLAT_ARTIFACT_VERSION = 5
#: Flat payloads of earlier releases, still readable by
#: :func:`flat_labeling_from_bytes`: one CSR triple with tiered hubs
#: (4), with int32 hubs (3), and with int64 hubs and float64 dists (2).
_V4_FLAT_VERSION = 4
_V3_FLAT_VERSION = 3
_V2_FLAT_VERSION = 2
_FLAT_VERSIONS = (
    FLAT_ARTIFACT_VERSION, _V4_FLAT_VERSION, _V3_FLAT_VERSION,
    _V2_FLAT_VERSION,
)
#: Envelope header size: magic + version + n + payload length + CRC32.
_HEADER_SIZE = 4 + 1 + 8 + 8 + 4


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def labeling_to_json(labeling: HubLabeling) -> str:
    payload = {
        "num_vertices": labeling.num_vertices,
        "labels": [
            {str(hub): dist for hub, dist in sorted(labeling.hubs(v).items())}
            for v in range(labeling.num_vertices)
        ],
    }
    return json.dumps(payload)


def labeling_from_json(text: str) -> HubLabeling:
    payload = json.loads(text)
    labeling = HubLabeling(payload["num_vertices"])
    for v, hubs in enumerate(payload["labels"]):
        for hub, dist in hubs.items():
            labeling.add_hub(v, int(hub), dist)
    return labeling


# ----------------------------------------------------------------------
# Binary (gap + gamma coded, byte-packed, CRC-protected envelope)
# ----------------------------------------------------------------------
def _encode_payload(labeling: HubLabeling) -> bytes:
    writer = BitWriter()
    writer.write_gamma(labeling.num_vertices + 1)
    for v in range(labeling.num_vertices):
        hubs = sorted(labeling.hubs(v).items())
        writer.write_gamma(len(hubs) + 1)
        previous = -1
        for hub, dist in hubs:
            writer.write_gamma(hub - previous)
            writer.write_gamma(int(dist) + 1)
            previous = hub
    bits = writer.getvalue()
    # Pack to bytes, recording the bit length first.
    out = bytearray()
    out += len(bits).to_bytes(8, "big")
    byte = 0
    filled = 0
    for bit in bits:
        byte = (byte << 1) | bit
        filled += 1
        if filled == 8:
            out.append(byte)
            byte = 0
            filled = 0
    if filled:
        out.append(byte << (8 - filled))
    return bytes(out)


def labeling_to_bytes(labeling: HubLabeling, *, envelope: bool = True) -> bytes:
    """Serialize ``labeling``; by default inside the checksummed envelope.

    ``envelope=False`` emits the legacy raw bit stream (still readable by
    :func:`labeling_from_bytes`, but without load-time corruption
    detection beyond structural decode failures).
    """
    payload = _encode_payload(labeling)
    if not envelope:
        return payload
    header = bytearray()
    header += ARTIFACT_MAGIC
    header.append(ARTIFACT_VERSION)
    header += labeling.num_vertices.to_bytes(8, "big")
    header += len(payload).to_bytes(8, "big")
    header += (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
    return bytes(header) + payload


def _decode_payload(payload: bytes, *, base_offset: int = 0) -> HubLabeling:
    """Decode the legacy bit stream, converting decode mishaps into
    :class:`ArtifactCorruptError` with a useful offset."""
    if len(payload) < 8:
        raise ArtifactCorruptError(
            "payload shorter than its 8-byte bit-count header",
            offset=base_offset + len(payload),
        )
    num_bits = int.from_bytes(payload[:8], "big")
    available = 8 * (len(payload) - 8)
    if num_bits > available:
        raise ArtifactCorruptError(
            f"bit count claims {num_bits} bits but only {available} present",
            offset=base_offset + 8,
        )
    bits: List[int] = []
    for byte in payload[8:]:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    reader = BitReader(bits[:num_bits])

    def fail(message: str) -> ArtifactCorruptError:
        # Translate the reader's bit position to a byte offset in the
        # whole input (bits start after the 8-byte count).
        byte_offset = base_offset + 8 + (num_bits - reader.remaining) // 8
        return ArtifactCorruptError(message, offset=byte_offset)

    try:
        n = reader.read_gamma() - 1
        if n > reader.remaining:
            # Every vertex contributes at least a 1-bit hub count, so a
            # decoded n beyond the remaining bits is corruption -- refuse
            # before allocating n label slots.
            raise fail(
                f"implausible vertex count {n} for a "
                f"{reader.remaining}-bit payload"
            )
        labeling = HubLabeling(n)
        for v in range(n):
            count = reader.read_gamma() - 1
            current = -1
            for _ in range(count):
                current += reader.read_gamma()
                if current >= n:
                    raise fail(
                        f"hub id {current} out of range for {n} vertices"
                    )
                distance = reader.read_gamma() - 1
                labeling.add_hub(v, current, distance)
    except EOFError:
        raise fail("bit stream exhausted mid-decode") from None
    except (IndexError, ValueError) as exc:
        if isinstance(exc, ArtifactCorruptError):
            raise
        raise fail(f"malformed bit stream ({exc})") from None
    if reader.remaining:
        raise fail(f"{reader.remaining} trailing bits after decode")
    return labeling


def _open_envelope(blob: bytes) -> Tuple[int, int, memoryview]:
    """Validate an enveloped blob; return (version, declared_n, payload).

    Checks the header size, payload length and CRC32 -- everything but
    the version-specific payload decode.  ``payload`` views ``blob``.
    """
    if len(blob) < _HEADER_SIZE:
        raise ArtifactCorruptError(
            f"envelope header truncated ({len(blob)} of "
            f"{_HEADER_SIZE} bytes)",
            offset=len(blob),
        )
    version = blob[4]
    declared_n = int.from_bytes(blob[5:13], "big")
    payload_len = int.from_bytes(blob[13:21], "big")
    checksum = int.from_bytes(blob[21:25], "big")
    payload = memoryview(blob)[_HEADER_SIZE:]
    if len(payload) != payload_len:
        raise ArtifactCorruptError(
            f"payload is {len(payload)} bytes, header declares "
            f"{payload_len}",
            offset=_HEADER_SIZE + min(len(payload), payload_len),
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != checksum:
        raise ArtifactCorruptError(
            "payload CRC32 mismatch (artifact bytes were altered)",
            offset=_HEADER_SIZE,
        )
    return version, declared_n, payload


def _decode_v1_envelope(declared_n: int, payload: bytes) -> HubLabeling:
    labeling = _decode_payload(payload, base_offset=_HEADER_SIZE)
    if labeling.num_vertices != declared_n:
        raise ArtifactCorruptError(
            f"header declares {declared_n} vertices, payload decodes "
            f"{labeling.num_vertices}",
            offset=5,
        )
    return labeling


def labeling_from_bytes(blob: bytes) -> HubLabeling:
    """Deserialize a labeling from envelope or legacy bytes.

    Accepts every format this module writes or wrote -- version-1 bit
    streams, version-2 to version-5 flat arrays (thawed into the dict
    store), and legacy pre-envelope blobs.  Raises :class:`ArtifactCorruptError` (with the
    failing offset) on truncated, bit-flipped, or otherwise malformed
    input.
    """
    if blob[:4] == ARTIFACT_MAGIC:
        version, declared_n, payload = _open_envelope(blob)
        if version == ARTIFACT_VERSION:
            return _decode_v1_envelope(declared_n, payload)
        if version in _FLAT_VERSIONS:
            return _decode_flat(version, declared_n, payload).to_labeling()
        raise ArtifactCorruptError(
            f"unsupported artifact version {version}", offset=4
        )
    if not blob:
        raise ArtifactCorruptError("empty artifact", offset=0)
    if blob[0] != 0:
        raise ArtifactCorruptError(
            "unrecognized artifact header (neither envelope magic nor a "
            "legacy bit stream)",
            offset=0,
        )
    return _decode_payload(blob)


# ----------------------------------------------------------------------
# Flat-array payload (envelope version 5; versions 2-4 read one way)
# ----------------------------------------------------------------------
#: Dist tier tag of a flat payload -> little-endian dtype.
_DIST_TAGS = {1: np.dtype("<u2"), 2: np.dtype("<u4"), 3: np.dtype("<f8")}
#: Payload bytes before the offsets: tag, hub width, tail entry count,
#: dense width, dense entry count, padding.
_FLAT_PREFIX = 31
#: The same for versions 3 and 4: tag, hub width (version 4 only),
#: entry count, padding.
_CSR_PREFIX = 15


def _after(at: int, nbytes: int) -> int:
    """Where the array after ``nbytes`` bytes at ``at`` starts: the
    next 8-byte boundary of the envelope when ``at`` is on one."""
    return at + nbytes + (-nbytes) % 8


def _flat_layout(
    n: int, total: int, width: int, hub_size: int, dist_size: int
) -> Tuple[int, int, int, int, int]:
    """Version-5 payload offsets of the tail hubs, the tail dists, the
    dense hubs and the dense tiles, and the payload size."""
    from ..perf.kernels import dense_shape

    hubs_at = _FLAT_PREFIX + 8 * (n + 1)
    dists_at = _after(hubs_at, hub_size * total)
    dense_hubs_at = _after(dists_at, dist_size * total)
    dense_at = _after(dense_hubs_at, hub_size * width)
    return (
        hubs_at, dists_at, dense_hubs_at, dense_at,
        dense_at + dist_size * math.prod(dense_shape(width, n)),
    )


def flat_labeling_to_bytes(flat: "FlatHubLabeling") -> bytes:
    """Serialize a flat labeling as a version-5 enveloped artifact.

    The payload is the store's arrays verbatim (little-endian), so both
    directions are O(bytes) copies -- no per-entry coding.  The result
    round-trips through :func:`flat_labeling_from_bytes`, maps through
    :func:`flat_labeling_view` and is also readable by
    :func:`labeling_from_bytes`.
    """
    offsets, hubs, dists = flat.arrays()
    dense_hubs, dense = flat.dense()
    n, total, width = flat.num_vertices, len(hubs), len(dense_hubs)
    tag = next(t for t, dtype in _DIST_TAGS.items() if dtype == dists.dtype)
    *ats, size = _flat_layout(n, total, width, hubs.itemsize, dists.itemsize)
    blob = bytearray(_HEADER_SIZE + size)
    payload = memoryview(blob)[_HEADER_SIZE:]
    payload[0] = tag
    payload[1] = hubs.itemsize
    payload[2:10] = total.to_bytes(8, "big")
    payload[10:18] = width.to_bytes(8, "big")
    payload[18:26] = (flat.total_size() - total).to_bytes(8, "big")
    hub = hubs.dtype.newbyteorder("<")
    for at, values, dtype in zip(
        (_FLAT_PREFIX, *ats),
        (offsets, hubs, dists, dense_hubs, dense),
        ("<i8", hub, _DIST_TAGS[tag], hub, _DIST_TAGS[tag]),
    ):
        raw = np.ascontiguousarray(values, dtype=dtype).view(np.uint8)
        payload[at : at + raw.size] = raw.reshape(-1)
    blob[:4] = ARTIFACT_MAGIC
    blob[4] = FLAT_ARTIFACT_VERSION
    blob[5:13] = n.to_bytes(8, "big")
    blob[13:21] = size.to_bytes(8, "big")
    blob[21:25] = (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
    return bytes(blob)


def _flat_payload_error(message: str, at: int) -> ArtifactCorruptError:
    return ArtifactCorruptError(message, offset=_HEADER_SIZE + at)


def _decode_flat(
    version: int, declared_n: int, payload, *, validate: bool = True
) -> "FlatHubLabeling":
    """A store over a version-5 payload (zero copy), or a version-2 to
    version-4 payload narrowed and split into one."""
    from ..perf.flat import FlatHubLabeling
    from ..perf.kernels import dense_shape, hub_dtype

    length = len(payload)
    n = declared_n
    width = entries = 0
    if version == _V2_FLAT_VERSION:
        prefix = 8
        total = int.from_bytes(payload[:8], "big") if length >= 8 else 0
        hubs_at = 8 + 8 * (n + 1)
        dists_at = hubs_at + 8 * total
        expected = dists_at + 8 * total
        dtypes = ("<i8", "<i8", "<f8")
    else:
        prefix = _CSR_PREFIX if version != FLAT_ARTIFACT_VERSION else _FLAT_PREFIX
        tag = payload[0] if length else 0
        if length and tag not in _DIST_TAGS:
            raise _flat_payload_error(f"unknown dist tier tag {tag}", 0)
        if version == _V3_FLAT_VERSION:
            hub = np.dtype("<i4")
            count_at = 1
        else:
            hub_width = payload[1] if length > 1 else 0
            hub = hub_dtype(n).newbyteorder("<")
            if length > 1 and hub_width != hub.itemsize:
                raise _flat_payload_error(
                    f"hub width {hub_width} does not match the {hub.name} "
                    f"hub tier of {n} vertices",
                    1,
                )
            count_at = 2
        total, width, entries = (
            int.from_bytes(payload[at : at + 8], "big")
            if length >= at + 8
            else 0
            for at in (count_at, 10, 18)
        )
        dist = _DIST_TAGS.get(tag, _DIST_TAGS[1])
        dtypes = ("<i8", hub, dist)
        if version == FLAT_ARTIFACT_VERSION:
            hubs_at, dists_at, dense_hubs_at, dense_at, expected = (
                _flat_layout(n, total, width, hub.itemsize, dist.itemsize)
            )
        else:
            width = entries = 0
            hubs_at = prefix + 8 * (n + 1)
            dists_at = _after(hubs_at, hub.itemsize * total)
            expected = dists_at + dist.itemsize * total
    if length < prefix:
        raise _flat_payload_error(
            f"flat payload shorter than its {prefix}-byte prefix", length
        )
    if length != expected:
        raise _flat_payload_error(
            f"flat payload is {length} bytes, {expected} expected "
            f"for {n} vertices, {total} tail entries and {width} dense "
            "columns",
            min(length, expected),
        )
    arrays = [
        np.frombuffer(payload, dtype=dtype, count=count, offset=at)
        for dtype, count, at in zip(
            dtypes, (n + 1, total, total), (prefix, hubs_at, dists_at)
        )
    ]
    if version == FLAT_ARTIFACT_VERSION:
        arrays.append(
            np.frombuffer(payload, dtype=hub, count=width, offset=dense_hubs_at)
        )
        tiles = dense_shape(width, n)
        arrays.append(
            np.frombuffer(
                payload, dtype=dist, count=math.prod(tiles), offset=dense_at
            ).reshape(tiles)
        )
    # Stores hold native byte order: on a little-endian host a relabelling
    # view (an explicit "<" dtype has no memoryview format, and the
    # dynamic repair iterates memoryviews of the store).  Elsewhere no
    # zero-copy view exists across a byte-order mismatch; one conversion
    # copy beats serving byte-swapped garbage.
    arrays = [
        values.view(values.dtype.newbyteorder("="))
        if sys.byteorder == "little"
        else values.astype(values.dtype.newbyteorder("="))
        for values in arrays
    ]
    try:
        if version != FLAT_ARTIFACT_VERSION:
            return FlatHubLabeling(*arrays, validate=True)
        return FlatHubLabeling.from_buffers(
            *arrays, dense_entries=entries, validate=validate
        )
    except ValueError as exc:
        raise _flat_payload_error(
            f"flat payload failed structural validation ({exc})", prefix
        ) from None


def _open_envelope_header(view: memoryview) -> Tuple[int, int, int, int]:
    """Validate *only* the 25-byte header of an enveloped buffer.

    Returns ``(version, declared_n, payload_len, checksum)`` without
    touching the payload -- the cheap half of :func:`_open_envelope`,
    for callers that defer the CRC (mapped artifacts must not page in
    every byte just to open).  Raises :class:`ArtifactCorruptError` on
    a bad magic, a truncated header, or a length mismatch.
    """
    if len(view) < _HEADER_SIZE:
        raise ArtifactCorruptError(
            f"envelope header truncated ({len(view)} of "
            f"{_HEADER_SIZE} bytes)",
            offset=len(view),
        )
    if bytes(view[:4]) != ARTIFACT_MAGIC:
        raise ArtifactCorruptError(
            "unrecognized artifact header (envelope magic missing)",
            offset=0,
        )
    version = view[4]
    declared_n = int.from_bytes(view[5:13], "big")
    payload_len = int.from_bytes(view[13:21], "big")
    checksum = int.from_bytes(view[21:25], "big")
    actual = len(view) - _HEADER_SIZE
    if actual != payload_len:
        raise ArtifactCorruptError(
            f"payload is {actual} bytes, header declares {payload_len}",
            offset=_HEADER_SIZE + min(actual, payload_len),
        )
    return version, declared_n, payload_len, checksum


def verify_envelope_crc(buffer) -> None:
    """The deferred half of a lazy open: CRC32 the payload now.

    ``buffer`` is any enveloped artifact (bytes, mmap, shared-memory
    view).  This is the only part of a :func:`flat_labeling_view` open
    that reads every payload byte, so callers schedule it off the cold
    -start path -- a background check, a ``verify`` CLI flag, a test.
    Raises :class:`ArtifactCorruptError` on a mismatch.
    """
    view = memoryview(buffer)
    _, _, payload_len, checksum = _open_envelope_header(view)
    payload = view[_HEADER_SIZE : _HEADER_SIZE + payload_len]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != checksum:
        raise ArtifactCorruptError(
            "payload CRC32 mismatch (artifact bytes were altered)",
            offset=_HEADER_SIZE,
        )


def flat_labeling_view(
    buffer, *, verify_crc: bool = False, validate: bool = False
) -> "FlatHubLabeling":
    """A zero-copy :class:`FlatHubLabeling` over an enveloped buffer.

    The buffer must hold a version-5 (flat-array) envelope; the store's
    arrays are read-only NumPy views straight into it -- nothing is
    deserialized, so opening a memory-mapped artifact costs O(pages
    touched), not O(entries).  Validation is tiered to match:

    * the **header** (magic, version, lengths, dist tier tag, hub
      width, dense width against the tier) is always checked -- O(1);
    * the payload **CRC32** runs only with ``verify_crc=True`` (or
      later, via :func:`verify_envelope_crc` on the same buffer);
    * the full **structural** walk (offsets monotone, hub ids in range
      and ascending, dense hubs in no run, distances inside their tier,
      the dense entry count) runs only with ``validate=True``.

    The returned store keeps ``buffer`` alive for as long as it is
    queryable.  Version-2 to version-4 artifacts hold no dense part and
    version 2 and 3 wider arrays than a store, so none can be mapped;
    :func:`flat_labeling_from_bytes` narrows and splits them.
    """
    view = memoryview(buffer)
    version, declared_n, payload_len, _ = _open_envelope_header(view)
    if version != FLAT_ARTIFACT_VERSION:
        raise ArtifactCorruptError(
            f"artifact version {version} cannot back a zero-copy view "
            f"(need the flat version {FLAT_ARTIFACT_VERSION}; "
            "flat_labeling_from_bytes loads older versions)",
            offset=4,
        )
    if verify_crc:
        verify_envelope_crc(view)
    return _decode_flat(
        version,
        declared_n,
        view[_HEADER_SIZE : _HEADER_SIZE + payload_len],
        validate=validate,
    )


def flat_labeling_from_bytes(blob: bytes) -> "FlatHubLabeling":
    """Deserialize a :class:`FlatHubLabeling` from any artifact flavor.

    Version-5 blobs become a validated store over ``blob`` itself (no
    copy, nothing derived); version-2 to version-4 blobs are narrowed
    into the version-5 layout and split by the store's constructor;
    version-1 and legacy bit streams are decoded and frozen, so
    existing artifacts keep working.  Raises
    :class:`ArtifactCorruptError` exactly like
    :func:`labeling_from_bytes`.
    """
    from ..perf.flat import FlatHubLabeling

    if blob[:4] == ARTIFACT_MAGIC:
        # A store views its payload, so it must not alias memory the
        # caller can still change.
        blob = bytes(blob)
        version, declared_n, payload = _open_envelope(blob)
        if version in _FLAT_VERSIONS:
            return _decode_flat(version, declared_n, payload)
        if version == ARTIFACT_VERSION:
            return FlatHubLabeling.from_labeling(
                _decode_v1_envelope(declared_n, payload)
            )
        raise ArtifactCorruptError(
            f"unsupported artifact version {version}", offset=4
        )
    return FlatHubLabeling.from_labeling(labeling_from_bytes(blob))


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def graph_to_edgelist(graph: Graph) -> str:
    """Header line ``n m`` then one ``u v w`` line per edge."""
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    for u, v, w in graph.edges():
        lines.append(f"{u} {v} {w}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"{what} {token!r} is not an integer", line=line_number
        ) from None


def graph_from_edgelist(text: str) -> Graph:
    """Parse ``n m`` header + ``u v [w]`` edge lines into a :class:`Graph`.

    Blank lines and ``#`` comments are skipped.  Malformed lines,
    out-of-range or negative vertex ids, non-numeric or negative
    weights, self-loops, and a header/edge-count mismatch all raise
    :class:`FormatError` naming the offending (1-based) line.
    """
    graph: Graph = Graph()
    header = None
    declared_edges = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise FormatError(
                    f"header must be 'n m', got {len(parts)} fields",
                    line=line_number,
                )
            n = _parse_int(parts[0], "vertex count", line_number)
            m = _parse_int(parts[1], "edge count", line_number)
            if n < 0 or m < 0:
                raise FormatError(
                    "vertex and edge counts must be non-negative",
                    line=line_number,
                )
            header = (n, m)
            declared_edges = m
            graph = Graph(n)
            continue
        if len(parts) not in (2, 3):
            raise FormatError(
                f"edge line must be 'u v [w]', got {len(parts)} fields",
                line=line_number,
            )
        u = _parse_int(parts[0], "vertex id", line_number)
        v = _parse_int(parts[1], "vertex id", line_number)
        weight = (
            _parse_int(parts[2], "edge weight", line_number)
            if len(parts) == 3
            else 1
        )
        n = graph.num_vertices
        for vertex in (u, v):
            if vertex < 0 or vertex >= n:
                raise FormatError(
                    f"vertex id {vertex} outside 0..{n - 1}",
                    line=line_number,
                )
        try:
            graph.add_edge(u, v, weight)
        except ValueError as exc:
            raise FormatError(str(exc), line=line_number) from None
    if header is None:
        return graph
    if graph.num_edges != declared_edges:
        raise FormatError(
            f"edge count mismatch: header says {declared_edges}, "
            f"found {graph.num_edges}",
            line=1,
        )
    return graph
