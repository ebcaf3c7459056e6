"""The self-verifying on-disk page format (v2).

Every persisted page is *framed*: a 16-byte header in front of the
payload lets the reader prove, before deserialising anything, that the
bytes it got back are the bytes that were written.

Layout (little-endian)::

    offset  size  field
    0       2     magic        0x5250 ("PR")
    2       1     format version (2)
    3       1     page kind    (1 = index node)
    4       4     payload length (bytes)
    8       4     CRC-32 over header[0:8] + payload
    12      4     reserved (must be zero)
    16      ...   payload, zero-padded to the page size

The CRC covers the magic/version/kind/length prefix *and* the payload;
the reserved word and the trailing padding are verified to be zero.
Together that makes the kill-a-byte property hold: flipping any single
byte of a framed page — header, payload, or padding — is detected at
read time as a :class:`~repro.exceptions.ChecksumError` (or a version/
framing :class:`~repro.exceptions.StorageError`) instead of surfacing
as a garbage MBR three layers up.

The checksum is ``zlib.crc32`` (the IEEE CRC-32 polynomial): it runs at
C speed from the standard library, which is what keeps verification
affordable on the hot read path.  Hardware CRC32C would need a
third-party wheel.

v1 pages (the pre-frame format, raw node bytes at offset 0) fail the
magic check with an error naming the version mismatch; see
``docs/STORAGE.md`` for the migration path.
"""

from __future__ import annotations

import struct
import zlib

from ..exceptions import ChecksumError, StorageError
from ..obs import state as _obs

__all__ = [
    "FORMAT_VERSION",
    "PAGE_HEADER_BYTES",
    "PAGE_MAGIC",
    "KIND_NODE",
    "KIND_WAL",
    "RECORD_HEADER_BYTES",
    "page_payload_capacity",
    "frame_page",
    "unframe_page",
    "verify_page",
    "frame_record",
    "parse_record",
]

FORMAT_VERSION = 2
PAGE_MAGIC = 0x5250  # "PR" little-endian

_PREFIX_FMT = struct.Struct("<HBBI")  # magic, version, kind, payload_len
_TRAILER_FMT = struct.Struct("<II")  # crc, reserved
PAGE_HEADER_BYTES = _PREFIX_FMT.size + _TRAILER_FMT.size
assert PAGE_HEADER_BYTES == 16

#: Page kinds.  Only index nodes exist today; the byte is in the frame
#: (and covered by the CRC) so future page kinds can share one file.
KIND_NODE = 1

#: Record kinds (the same frame layout carried in append-only logs —
#: tightly packed, no padding).  Pages and records share the kind
#: namespace so a misdirected read fails the kind check immediately.
KIND_WAL = 2

_KNOWN_KINDS = frozenset({KIND_NODE})
_KNOWN_RECORD_KINDS = frozenset({KIND_WAL})

#: Records reuse the 16-byte page frame header verbatim.
RECORD_HEADER_BYTES = PAGE_HEADER_BYTES


def page_payload_capacity(page_size: int) -> int:
    """Bytes available for payload in one framed page."""
    cap = page_size - PAGE_HEADER_BYTES
    if cap < 1:
        raise StorageError(
            f"page size {page_size} leaves no room for a framed payload"
        )
    return cap


def frame_page(payload: bytes, kind: int = KIND_NODE) -> bytes:
    """Wrap ``payload`` in a v2 frame (header + payload, unpadded —
    the page file zero-pads to the page size on write)."""
    prefix = _PREFIX_FMT.pack(PAGE_MAGIC, FORMAT_VERSION, kind, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return b"".join((prefix, _TRAILER_FMT.pack(crc, 0), payload))


def _fail(message: str, *, checksum: bool = False):
    if _obs.ACTIVE is not None:
        _obs.ACTIVE.registry.inc("storage.checksum_failures")
    cls = ChecksumError if checksum else StorageError
    raise cls(message)


def unframe_page(data, page_id: int | None = None):
    """Verify one full (padded) page and return ``(kind, payload)``.

    ``data`` may be ``bytes`` or a ``memoryview``;
    the returned payload is a zero-copy slice of it.  Raises
    :class:`~repro.exceptions.ChecksumError` on CRC mismatch and
    :class:`~repro.exceptions.StorageError` for framing/version
    violations, both naming the page.
    """
    where = f"page {page_id}" if page_id is not None else "page"
    if len(data) < PAGE_HEADER_BYTES:
        _fail(f"{where}: {len(data)} bytes is too short for a page frame")
    magic, version, kind, payload_len = _PREFIX_FMT.unpack_from(data, 0)
    if magic != PAGE_MAGIC:
        _fail(
            f"{where}: bad magic 0x{magic:04x} (expected 0x{PAGE_MAGIC:04x}); "
            f"not a v{FORMAT_VERSION} framed page — v1 index files must be "
            f"rebuilt from the source dataset (see docs/STORAGE.md)"
        )
    if version != FORMAT_VERSION:
        _fail(
            f"{where}: page format version {version}, this build reads "
            f"version {FORMAT_VERSION}"
        )
    if kind not in _KNOWN_KINDS:
        _fail(f"{where}: unknown page kind {kind}")
    if payload_len > len(data) - PAGE_HEADER_BYTES:
        _fail(
            f"{where}: payload length {payload_len} exceeds the "
            f"{len(data) - PAGE_HEADER_BYTES} bytes after the header"
        )
    crc, reserved = _TRAILER_FMT.unpack_from(data, _PREFIX_FMT.size)
    if reserved != 0:
        _fail(f"{where}: reserved header word is 0x{reserved:08x}, not zero")
    payload = data[PAGE_HEADER_BYTES : PAGE_HEADER_BYTES + payload_len]
    want = zlib.crc32(payload, zlib.crc32(data[: _PREFIX_FMT.size]))
    if crc != want:
        _fail(
            f"{where}: checksum mismatch (stored 0x{crc:08x}, computed "
            f"0x{want:08x}) — the page is corrupt",
            checksum=True,
        )
    tail = bytes(data[PAGE_HEADER_BYTES + payload_len :])
    if tail.strip(b"\x00"):
        _fail(
            f"{where}: non-zero bytes in the padding after the "
            f"{payload_len}-byte payload",
            checksum=True,
        )
    return kind, payload


def frame_record(payload: bytes, kind: int = KIND_WAL) -> bytes:
    """Wrap ``payload`` in a v2 frame for an append-only log.

    Identical layout to :func:`frame_page`, but records are packed
    back-to-back with no padding: the ``payload_len`` field is what
    delimits one record from the next.
    """
    prefix = _PREFIX_FMT.pack(PAGE_MAGIC, FORMAT_VERSION, kind, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return b"".join((prefix, _TRAILER_FMT.pack(crc, 0), payload))


def parse_record(data, offset: int = 0, *, where: str = "record"):
    """Verify one framed record at ``offset`` inside ``data``.

    Returns ``(kind, payload, next_offset)``.  Raises
    :class:`~repro.exceptions.ChecksumError` on CRC mismatch and
    :class:`~repro.exceptions.StorageError` for truncation/framing/
    version violations — a torn tail (fewer bytes than the header
    announces) is a :class:`StorageError`, so log recovery can treat
    *any* of these as "the clean prefix ends here".
    """
    if len(data) - offset < RECORD_HEADER_BYTES:
        _fail(
            f"{where}: {len(data) - offset} bytes is too short for a "
            f"record frame"
        )
    magic, version, kind, payload_len = _PREFIX_FMT.unpack_from(data, offset)
    if magic != PAGE_MAGIC:
        _fail(f"{where}: bad magic 0x{magic:04x} (expected 0x{PAGE_MAGIC:04x})")
    if version != FORMAT_VERSION:
        _fail(
            f"{where}: record format version {version}, this build reads "
            f"version {FORMAT_VERSION}"
        )
    if kind not in _KNOWN_RECORD_KINDS:
        _fail(f"{where}: unknown record kind {kind}")
    end = offset + RECORD_HEADER_BYTES + payload_len
    if end > len(data):
        _fail(
            f"{where}: payload length {payload_len} overruns the "
            f"{len(data) - offset - RECORD_HEADER_BYTES} bytes left in "
            f"the log — torn tail"
        )
    crc, reserved = _TRAILER_FMT.unpack_from(data, offset + _PREFIX_FMT.size)
    if reserved != 0:
        _fail(f"{where}: reserved header word is 0x{reserved:08x}, not zero")
    payload = bytes(data[offset + RECORD_HEADER_BYTES : end])
    want = zlib.crc32(payload, zlib.crc32(data[offset : offset + _PREFIX_FMT.size]))
    if crc != want:
        _fail(
            f"{where}: checksum mismatch (stored 0x{crc:08x}, computed "
            f"0x{want:08x}) — the record is corrupt",
            checksum=True,
        )
    return kind, payload, end


def verify_page(data, page_id: int | None = None) -> str | None:
    """Non-raising verification for ``fsck``: the error message for a
    bad page, ``None`` for a good one."""
    try:
        unframe_page(data, page_id)
    except StorageError as exc:
        return str(exc)
    return None
