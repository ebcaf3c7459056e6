"""Binary ``.sig`` sidecar: crash-safe persistence for signatures.

The sidecar sits next to the index page file (``foo.pages`` →
``foo.pages.sig``) and is committed with the same write-temp → fsync →
atomic-rename discipline as every other artefact, *after* the index
itself: a crash between the two leaves a valid index without a sidecar,
which simply serves unfiltered.

Layout (little-endian, all array sections 8-byte aligned):

========================  =======================================
``<4sI``                  magic ``RSIG``, format version (3)
``<3q``                   binding: num_nodes, num_entries, root_page
``<d``                    simplify_p
``<4q``                   n_traj, n_leaf_pages, total_knots,
                          total_leaf_tids
``n_traj × q``            trajectory ids (sorted)
``(n_traj+1) × q``        knot offsets (CSR)
``total_knots × d`` ×3    knot t / x / y
``(total_knots-n) × d``   per-segment radii
``n_traj × d``            per-trajectory maximum segment speed
``n_leaf_pages × q``      leaf page ids (sorted)
``(n_leaf_pages+1) × q``  leaf-tid offsets (CSR)
``total_leaf_tids × q``   per-leaf trajectory ids (sorted)
``<I``                    CRC-32 of everything above
========================  =======================================

Loading mmaps the file read-only and serves the arrays as zero-copy
``memoryview`` casts; :meth:`TrajectorySignatures.close` releases them.
Before that it checks what the bound pass and the leaf lookups rely on,
so a damaged file with a valid CRC is a :class:`StorageError` too, not
an ``IndexError`` deep in numpy or a wrong bound: ids strictly
ascending (trajectories and leaf pages), each CSR offset section
starting at 0, never decreasing (knot offsets strictly increasing:
every trajectory has a knot) and ending at its section's size, knot
times finite and strictly ascending within each trajectory, every
speed finite and non-negative, and every leaf tid one of the
trajectory ids.
Version 1 also carried a grid-cell cover per trajectory, and version 2
had no speed column; both are refused by the version check — rebuild
the sidecar.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from array import array
from itertools import compress
from math import inf, isfinite
from operator import ge, le, lt
from pathlib import Path

from ..exceptions import StorageError
from ..storage.atomic import atomic_write_bytes
from .signature import TrajectorySignatures

__all__ = ["signature_sidecar_path", "write_signatures", "load_signatures"]

MAGIC = b"RSIG"
FORMAT_VERSION = 3

_HEADER = struct.Struct("<4sI3q1d4q")


def _as_bytes(fmt: str, seq) -> bytes:
    """Serialise an array/memoryview/sequence as packed native bytes
    (the toolchain targets little-endian platforms, matching the page
    file's native framing)."""
    if isinstance(seq, (array, memoryview)):
        return seq.tobytes()
    return array(fmt, seq).tobytes()


def signature_sidecar_path(index_path: str | Path) -> Path:
    """``foo.pages`` → ``foo.pages.sig``."""
    path = Path(index_path)
    return path.with_name(path.name + ".sig")


def write_signatures(sigs: TrajectorySignatures, sig_path: str | Path) -> dict:
    """Serialise and atomically commit a sidecar; returns a small meta
    dict (size, counts) for logging."""
    n = len(sigs.tids)
    parts = [
        _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            sigs.binding[0],
            sigs.binding[1],
            sigs.binding[2],
            sigs.simplify_p,
            n,
            len(sigs.leaf_pages),
            len(sigs.knot_t),
            len(sigs.leaf_tids),
        ),
        _as_bytes("q", sigs.tids),
        _as_bytes("q", sigs.knot_offsets),
        _as_bytes("d", sigs.knot_t),
        _as_bytes("d", sigs.knot_x),
        _as_bytes("d", sigs.knot_y),
        _as_bytes("d", sigs.radii),
        _as_bytes("d", sigs.speeds),
        _as_bytes("q", sigs.leaf_pages),
        _as_bytes("q", sigs.leaf_tid_offsets),
        _as_bytes("q", sigs.leaf_tids),
    ]
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body))
    atomic_write_bytes(sig_path, blob)
    return {
        "path": str(sig_path),
        "bytes": len(blob),
        "trajectories": n,
        "leaf_pages": len(sigs.leaf_pages),
        "knots": len(sigs.knot_t),
    }


def load_signatures(
    sig_path: str | Path,
    expected_binding: tuple[int, int, int] | None = None,
) -> TrajectorySignatures:
    """mmap a sidecar read-only, verify CRC and binding, and return the
    signature store.  Raises :class:`StorageError` on any corruption or
    on an index/sidecar mismatch."""
    sig_path = Path(sig_path)
    try:
        fh = open(sig_path, "rb")
    except OSError as exc:
        raise StorageError(f"{sig_path}: cannot open signature sidecar: {exc}")
    try:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (ValueError, OSError) as exc:
        fh.close()
        raise StorageError(f"{sig_path}: cannot mmap signature sidecar: {exc}")
    fh.close()

    views: list[memoryview] = []
    try:
        size = len(mm)
        if size < _HEADER.size + 4:
            raise StorageError(f"{sig_path}: signature sidecar truncated")
        base = memoryview(mm)
        views.append(base)
        (crc_stored,) = struct.unpack_from("<I", base, size - 4)
        if zlib.crc32(base[: size - 4]) != crc_stored:
            raise StorageError(f"{sig_path}: signature sidecar CRC mismatch")
        # Magic and version sit first in every format version, so an
        # older file fails the version check, not the field parse.
        (
            magic,
            version,
            num_nodes,
            num_entries,
            root_page,
            simplify_p,
            n_traj,
            n_leaf_pages,
            total_knots,
            total_leaf_tids,
        ) = _HEADER.unpack_from(base, 0)
        if magic != MAGIC:
            raise StorageError(f"{sig_path}: not a signature sidecar")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{sig_path}: unsupported sidecar version {version} "
                f"(this build speaks {FORMAT_VERSION}); rebuild it with "
                f"`repro build` or save_index(..., signatures=True)"
            )
        if min(n_traj, n_leaf_pages, total_knots, total_leaf_tids) < 0:
            raise StorageError(f"{sig_path}: negative section count")
        binding = (num_nodes, num_entries, root_page)
        if expected_binding is not None and binding != tuple(expected_binding):
            raise StorageError(
                f"{sig_path}: sidecar was built for a different index "
                f"(sidecar binding {binding}, index {tuple(expected_binding)})"
            )

        offset = _HEADER.size
        sections = [
            ("q", n_traj),
            ("q", n_traj + 1),
            ("d", total_knots),
            ("d", total_knots),
            ("d", total_knots),
            ("d", total_knots - n_traj),
            ("d", n_traj),
            ("q", n_leaf_pages),
            ("q", n_leaf_pages + 1),
            ("q", total_leaf_tids),
        ]
        expected_size = _HEADER.size + sum(8 * count for _f, count in sections) + 4
        if size != expected_size:
            raise StorageError(
                f"{sig_path}: sidecar size {size} does not match its "
                f"section counts (expected {expected_size})"
            )
        arrays = []
        for fmt, count in sections:
            view = base[offset : offset + 8 * count].cast(fmt)
            views.append(view)
            arrays.append(view)
            offset += 8 * count

        _check_structure(sig_path, *arrays[:3], *arrays[6:])

        def close(_views=views, _mm=mm):
            for v in _views:
                v.release()
            _mm.close()

        return TrajectorySignatures(
            binding=binding,
            simplify_p=simplify_p,
            tids=arrays[0],
            knot_offsets=arrays[1],
            knot_t=arrays[2],
            knot_x=arrays[3],
            knot_y=arrays[4],
            radii=arrays[5],
            speeds=arrays[6],
            leaf_pages=arrays[7],
            leaf_tid_offsets=arrays[8],
            leaf_tids=arrays[9],
            close=close,
        )
    except StorageError:
        for v in views:
            v.release()
        mm.close()
        raise


def _check_structure(
    sig_path,
    tids,
    knot_offsets,
    knot_t,
    speeds,
    leaf_pages,
    leaf_tid_offsets,
    leaf_tids,
) -> None:
    """Raise :class:`StorageError` naming ``sig_path`` unless the
    sections hang together (see the module docstring)."""

    def fail(what: str):
        raise StorageError(f"{sig_path}: signature sidecar {what}")

    for name, ids in (("trajectory ids", tids), ("leaf page ids", leaf_pages)):
        if not all(map(lt, ids[:-1], ids[1:])):
            fail(f"{name} are not strictly ascending")
    for name, offsets, size, step, complaint in (
        ("knot offsets", knot_offsets, len(knot_t), lt, "do not increase"),
        ("leaf-tid offsets", leaf_tid_offsets, len(leaf_tids), le, "decrease"),
    ):
        if offsets[0] != 0 or offsets[-1] != size:
            fail(f"{name} do not span their section (0 .. {size})")
        if not all(map(step, offsets[:-1], offsets[1:])):
            fail(f"{name} {complaint}")
    if not all(map(isfinite, knot_t)):
        fail("holds a knot time that is not finite")
    # Where the times fail to rise, a new trajectory must start.  (No
    # local may hold a slice: a raise would keep the buffer exported.)
    if not set(knot_offsets[1:-1]).issuperset(
        compress(range(1, len(knot_t)), map(ge, knot_t[:-1], knot_t[1:]))
    ):
        fail("knot times are not strictly ascending within a trajectory")
    # A NaN fails both compares.
    if not all(0.0 <= speed < inf for speed in speeds):
        fail("holds a speed that is negative or not finite")
    if not set(tids).issuperset(leaf_tids):
        fail("names a leaf tid that has no signature")
