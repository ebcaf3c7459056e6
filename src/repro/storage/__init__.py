"""Paged storage substrate: self-verifying page format, page files
(in memory while building, on disk once saved), LRU buffer manager,
crash-safe file commitment, I/O stats."""

from .atomic import (
    atomic_write_bytes,
    commit_file,
    file_sha256,
    fsync_directory,
    json_field,
    read_json_object,
)
from .buffer import LRUBufferManager
from .format import (
    FORMAT_VERSION,
    KIND_NODE,
    KIND_WAL,
    PAGE_HEADER_BYTES,
    RECORD_HEADER_BYTES,
    frame_page,
    frame_record,
    page_payload_capacity,
    parse_record,
    unframe_page,
    verify_page,
)
from .pagefile import (
    PAGE_SIZE_DEFAULT,
    DiskPageFile,
    InMemoryPageFile,
    PageFile,
)
from .stats import IOStats

__all__ = [
    "PAGE_SIZE_DEFAULT",
    "PageFile",
    "InMemoryPageFile",
    "DiskPageFile",
    "LRUBufferManager",
    "IOStats",
    "FORMAT_VERSION",
    "PAGE_HEADER_BYTES",
    "KIND_NODE",
    "KIND_WAL",
    "RECORD_HEADER_BYTES",
    "frame_page",
    "unframe_page",
    "verify_page",
    "frame_record",
    "parse_record",
    "page_payload_capacity",
    "atomic_write_bytes",
    "commit_file",
    "file_sha256",
    "fsync_directory",
    "read_json_object",
    "json_field",
]
