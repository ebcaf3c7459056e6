"""Saving and loading indexes — crash-safe, self-verifying (v2).

An index on disk is a page file (every page framed and checksummed by
:mod:`repro.storage.format`) plus a JSON metadata sidecar
(``<path>.meta.json``) carrying the tree kind, root page, counters,
``max_speed`` for V_max, the page count and a SHA-256 digest of the
page file.

Persistence is *atomic*: both files are written to temporaries in the
destination directory, fsynced, and published with ``os.replace``; the
metadata sidecar is committed last, so it acts as the commit point — a
crash mid-save leaves either the complete old state or the complete
new state, never a torn index.  ``load_index`` reopens the pair with
the page file opened read-only and returns a *finalized* (query-only)
index whose buffer refuses writes; read-only files load.

v1 files (unframed pages, ``"version": 1`` sidecars) are rejected with
an error naming the mismatch: rebuild them from the source dataset.

The TB-tree's per-trajectory leaf-chain anchors are persisted too, so
``trajectory_segments`` keeps working on a loaded tree.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import StorageError
from ..storage import (
    DiskPageFile,
    atomic_write_bytes,
    file_sha256,
    json_field,
    read_json_object,
)
from .base import TrajectoryIndex
from .kinds import tree_class
from .tbtree import TBTree

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 2


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _build_meta(index: TrajectoryIndex, num_pages: int, digest: str) -> dict:
    meta = {
        "version": _FORMAT_VERSION,
        "kind": index.kind,
        "page_size": index.page_size,
        "num_pages": num_pages,
        "pages_sha256": digest,
        "root_page": index.root_page,
        "num_nodes": index.num_nodes,
        "num_entries": index.num_entries,
        "max_speed": index.max_speed,
        "trajectory_ids": sorted(index.trajectory_ids),
    }
    if isinstance(index, TBTree):
        meta["active_leaf"] = {
            str(tid): page for tid, page in index._active_leaf.items()
        }
    return meta


def save_index(
    index: TrajectoryIndex, path: str | Path, *, signatures=False
) -> dict:
    """Atomically write the index's pages and metadata next to each
    other; returns the metadata dict (the sharding layer embeds it in
    its manifest).

    The pages land in a temporary file first, reach stable storage via
    fsync, and are published with an atomic rename; the metadata
    sidecar — the commit point — goes last, the same way.  The index is
    flushed first and stays usable afterwards.

    With ``signatures=True`` a trajectory-signature sidecar
    (``<path>.sig``, see :mod:`repro.filter`) is built and committed
    after the metadata: the sidecar is an accelerator, never part of
    the commit point, so a crash between the two leaves a valid index
    that simply serves unfiltered.  Empty indexes get no sidecar.
    ``signatures`` may also be the store itself, built for this index
    from samples in hand (:func:`repro.filter.signatures_from_points`;
    ``load_index`` refuses one bound to another tree); ``True`` builds
    it by reading the tree back (:func:`repro.filter.build_signatures`).
    """
    path = Path(path)
    if path.exists():
        raise StorageError(f"{path} already exists; refusing to overwrite")
    index.buffer.flush(index._serializer)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # DiskPageFile.close() is durable (flush + fsync) and the
        # rename in commit_file publishes the complete file only.
        from ..storage import commit_file

        with DiskPageFile.create(tmp, page_size=index.page_size) as dst:
            for pid in range(index.pagefile.num_pages):
                dst.allocate()
                dst.write(pid, index.pagefile.read(pid))
            num_pages = dst.num_pages
        commit_file(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    meta = _build_meta(index, num_pages, file_sha256(path))
    atomic_write_bytes(_meta_path(path), json.dumps(meta).encode("ascii"))
    if signatures is not False and index.num_entries > 0:
        from ..filter import build_signatures, signature_sidecar_path
        from ..filter import write_signatures as _write_sigs

        if signatures is True:
            signatures = build_signatures(index)
        meta["signatures"] = _write_sigs(
            signatures, signature_sidecar_path(path)
        )
    return meta


#: The keys ``load_index`` reads without a default.
_REQUIRED_KEYS = (
    "kind",
    "page_size",
    "root_page",
    "num_nodes",
    "num_entries",
    "max_speed",
    "trajectory_ids",
)


def _read_meta(meta_file: Path) -> dict:
    """The one reader of a ``.meta.json`` sidecar: the parsed document,
    or a :class:`StorageError` naming the file and what is wrong."""
    meta = read_json_object(meta_file, "metadata sidecar")
    version = meta.get("version")
    if version == 1:
        raise StorageError(
            f"{meta_file}: this is a v1 index file; this build reads "
            f"format version {_FORMAT_VERSION}.  Rebuild it from the "
            f"source dataset — see docs/STORAGE.md"
        )
    if version != _FORMAT_VERSION:
        raise StorageError(
            f"{meta_file}: unsupported format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    for key in _REQUIRED_KEYS:
        json_field(meta, meta_file, key)
    json_field(meta, meta_file, "page_size", int, minimum=1)
    tree_class(meta["kind"], meta_file)
    return meta


def load_index(
    path: str | Path,
    buffer_fraction: float = 0.10,
    buffer_max_pages: int = 1000,
    *,
    verify: bool = False,
) -> TrajectoryIndex:
    """Reopen a saved index for querying (read-only).

    The page file is opened read-only, so the index's buffer refuses
    writes and closing the page file syncs nothing.  With
    ``verify=True`` the page file's SHA-256 is checked against the
    metadata digest before the index is opened — full-file
    verification, as opposed to the per-page checksums that always
    guard individual reads.
    """
    path = Path(path)
    meta = _read_meta(_meta_path(path))
    if not path.exists():
        raise StorageError(f"missing page file {path}")

    size = path.stat().st_size
    page_size = meta["page_size"]
    if size % page_size != 0:
        raise StorageError(
            f"{path}: size {size} is not a multiple of the page size "
            f"{page_size} — the file is truncated or corrupt"
        )
    num_pages = meta.get("num_pages")
    if num_pages is not None and size != num_pages * page_size:
        raise StorageError(
            f"{path}: {size // page_size} pages on disk, metadata "
            f"records {num_pages} — the file is truncated or corrupt"
        )
    if verify:
        digest = meta.get("pages_sha256")
        if digest is not None and file_sha256(path) != digest:
            raise StorageError(
                f"{path}: SHA-256 digest does not match the metadata "
                f"sidecar — the page file was modified after save"
            )

    pagefile = DiskPageFile(path, page_size=page_size)
    index = tree_class(meta["kind"])(pagefile=pagefile)
    index.root_page = meta["root_page"]
    index.num_nodes = meta["num_nodes"]
    index.num_entries = meta["num_entries"]
    index.max_speed = meta["max_speed"]
    index.trajectory_ids = set(meta["trajectory_ids"])
    if isinstance(index, TBTree) and "active_leaf" in meta:
        index._active_leaf = {
            int(tid): page for tid, page in meta["active_leaf"].items()
        }
    index.buffer.resize_to_fraction(buffer_fraction, buffer_max_pages)
    index._finalized = True

    from ..filter import load_signatures, signature_sidecar_path

    sig_path = signature_sidecar_path(path)
    if sig_path.exists():
        # A corrupt or mismatched sidecar is a storage fault, not a
        # soft miss: serving unfiltered would silently change the
        # performance contract, so the load fails loudly (delete the
        # sidecar to serve unfiltered).
        index.signatures = load_signatures(
            sig_path,
            expected_binding=(
                index.num_nodes,
                index.num_entries,
                index.root_page,
            ),
        )
    return index
