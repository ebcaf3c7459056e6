"""Saving and loading sharded indexes.

A sharded index persists as a **directory**: one
``shard_<i>.pages`` file (plus its ``.meta.json`` sidecar, both written
by :func:`repro.index.persistence.save_index`) per shard, and a
``manifest.json`` tying them together:

.. code-block:: json

    {
      "version": 2,
      "kind": "rtree",
      "num_shards": 4,
      "partitioner": {"kind": "temporal", "num_shards": 4,
                      "boundaries": [500.0, 1000.0, 1500.0]},
      "shards": [
        {"file": "shard_0000.pages", "num_nodes": 12, "num_entries": 310,
         "num_pages": 14, "pages_sha256": "…",
         "extent": [0.0, 0.0, 0.0, 1.0, 1.0, 500.0]},
        ...
      ]
    }

``extent`` is the shard's root MBR (``null`` for an empty shard) so a
loader — or an external tool — can do shard pre-filtering straight from
the manifest; ``pages_sha256`` is each shard file's content digest,
recorded at save time for ``fsck``/``verify``-time integrity checks.

The directory is committed crash-safely: every shard file is published
atomically by ``save_index`` (tmp + fsync + rename), and the manifest —
itself written atomically — goes **last**, making it the commit point:
a crash mid-save never leaves a manifest pointing at torn shards.
``load_sharded_index`` validates the manifest and every shard file
before touching pages, raising
:class:`~repro.exceptions.StorageError` on corruption or missing
shards.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import StorageError
from ..index import NO_PAGE, tree_class
from ..index.persistence import load_index, save_index
from ..storage import atomic_write_bytes, json_field, read_json_object
from .index import ShardedIndex

__all__ = [
    "save_sharded_index",
    "load_sharded_index",
    "read_manifest",
    "MANIFEST_NAME",
]

MANIFEST_NAME = "manifest.json"

_MANIFEST_VERSION = 2


def _shard_filename(i: int) -> str:
    return f"shard_{i:04d}.pages"


def save_sharded_index(
    sharded: ShardedIndex,
    directory: str | Path,
    *,
    signatures: bool = False,
) -> None:
    """Write every shard's pages + a ``manifest.json`` into
    ``directory`` (created; must not already contain a manifest).

    Shards are committed first (each atomically), the manifest last —
    the manifest's existence means the whole directory is complete.
    With ``signatures=True`` each non-empty shard also gets a
    trajectory-signature sidecar (see :mod:`repro.filter`).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        raise StorageError(f"{manifest_path} already exists; refusing to overwrite")

    shard_records = []
    for i, index in enumerate(sharded.shards):
        filename = _shard_filename(i)
        shard_meta = save_index(
            index, directory / filename, signatures=signatures
        )
        extent = (
            list(index.mbr().as_tuple()) if index.root_page != NO_PAGE else None
        )
        shard_records.append(
            {
                "file": filename,
                "num_nodes": index.num_nodes,
                "num_entries": index.num_entries,
                "num_pages": shard_meta["num_pages"],
                "pages_sha256": shard_meta["pages_sha256"],
                "extent": extent,
            }
        )

    manifest = {
        "version": _MANIFEST_VERSION,
        "kind": sharded.kind,
        "num_shards": sharded.num_shards,
        "partitioner": sharded.partitioner_params,
        "shards": shard_records,
    }
    atomic_write_bytes(
        manifest_path, json.dumps(manifest, indent=2).encode("ascii")
    )


def read_manifest(directory: str | Path) -> dict:
    """Read and structurally validate a shard directory's manifest."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = read_json_object(manifest_path, "shard manifest")
    version = manifest.get("version")
    if version == 1:
        raise StorageError(
            f"{manifest_path}: this is a v1 shard directory; this build "
            f"reads manifest version {_MANIFEST_VERSION}.  Rebuild it "
            f"from the source dataset — see docs/STORAGE.md"
        )
    if version != _MANIFEST_VERSION:
        raise StorageError(
            f"{manifest_path}: unsupported manifest version {version!r}"
        )
    tree_class(manifest.get("kind"), manifest_path)
    records = manifest.get("shards")
    if not isinstance(records, list) or not records:
        raise StorageError(f"{manifest_path}: manifest lists no shards")
    num_shards = json_field(manifest, manifest_path, "num_shards", int)
    if len(records) != num_shards:
        raise StorageError(
            f"{manifest_path}: num_shards={num_shards} but "
            f"{len(records)} shard records"
        )
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise StorageError(
                f"{manifest_path}: shard record {i} is not an object"
            )
        json_field(record, manifest_path, "file", str)
        json_field(record, manifest_path, "num_entries", int)
    return manifest


def load_sharded_index(
    directory: str | Path,
    buffer_fraction: float = 0.10,
    buffer_max_pages: int = 1000,
    *,
    verify: bool = False,
) -> ShardedIndex:
    """Reopen a sharded index directory for querying (read-only).

    ``verify`` is forwarded to :func:`load_index` per shard.  The
    ``buffer_max_pages`` budget is global: it is split evenly across
    shards here, and the engine's planner re-budgets proportionally to
    shard size when it opens a session.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    records = manifest["shards"]

    per_shard_pages = max(1, buffer_max_pages // len(records))
    shards = []
    for record in records:
        shard_path = directory / record["file"]
        if not shard_path.exists():
            raise StorageError(f"missing shard file {shard_path}")
        index = load_index(
            shard_path, buffer_fraction, per_shard_pages, verify=verify
        )
        if index.num_entries != record["num_entries"]:
            raise StorageError(
                f"{shard_path}: manifest says {record['num_entries']} "
                f"entries, sidecar says {index.num_entries}"
            )
        if index.kind != manifest["kind"]:
            raise StorageError(
                f"{shard_path}: manifest says {manifest['kind']!r}, "
                f"sidecar says {index.kind!r}"
            )
        shards.append(index)
    return ShardedIndex(
        shards,
        partitioner_params=manifest.get("partitioner"),
    )
