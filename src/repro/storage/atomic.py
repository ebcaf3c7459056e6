"""Crash-safe file commitment: write-temp, fsync, atomic rename.

The persistence layers (``repro.index.persistence`` and
``repro.sharding.persistence``) never write a final file in place.
They produce the content under a temporary name in the *same
directory*, force it to stable storage, and :func:`os.replace` it over
the final name — so a crash at any instant leaves either the complete
old state or the complete new state, never a half-written file that
later loads as garbage.  Directory entries are fsynced too (on POSIX)
so the rename itself survives power loss.

The JSON documents committed that way — an index's ``.meta.json``, a
shard directory's ``manifest.json``, an ingest store's
``MANIFEST.json`` — are read back through :func:`read_json_object` and
:func:`json_field`, so damage to any of them is a
:class:`~repro.exceptions.StorageError` naming the file (and the key),
never an untyped error from the JSON layer.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..exceptions import StorageError

__all__ = [
    "atomic_write_bytes",
    "commit_file",
    "fsync_directory",
    "file_sha256",
    "read_json_object",
    "json_field",
]


def fsync_directory(directory: Path) -> None:
    """Force a directory entry update (a rename/create) to disk.
    Silently skipped where directories cannot be opened (Windows)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def commit_file(tmp_path: Path, final_path: Path) -> None:
    """Atomically rename ``tmp_path`` over ``final_path`` and fsync the
    containing directory.  ``tmp_path`` must already be fsynced."""
    os.replace(tmp_path, final_path)
    fsync_directory(final_path.parent)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + atomic rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    commit_file(tmp, path)


def file_sha256(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's contents (the per-file content digest
    recorded in index metadata and shard manifests)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object ``path`` holds, or a :class:`StorageError`
    naming the file (``what`` says what the file is) when it is
    missing, not UTF-8, not JSON or not an object."""
    if not path.exists():
        raise StorageError(f"missing {what} {path}")
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"{path}: corrupt {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise StorageError(
            f"{path}: corrupt {what}: a JSON {type(doc).__name__}, "
            f"not an object"
        )
    return doc


def json_field(
    doc: dict, path: Path, key: str, kind: type | None = None,
    minimum: int | None = None,
):
    """``doc[key]``, or a :class:`StorageError` naming ``path`` and
    ``key`` when the key is missing, when its value is not exactly of
    type ``kind`` (so ``true`` is not an int) or when an int is below
    ``minimum``."""
    if key not in doc:
        raise StorageError(f"{path}: missing required key {key!r}")
    value = doc[key]
    if kind is not None and (
        type(value) is not kind or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise StorageError(
            f"{path}: key {key!r} is {value!r}, expected "
            f"{kind.__name__}{bound}"
        )
    return value
