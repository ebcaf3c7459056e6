"""The live ingestion store: WAL + memtable + immutable generations.

An :class:`IngestStore` owns one directory::

    store/
      MANIFEST.json            <- commit point (atomic_write_bytes)
      wal-000001.log           <- the active write-ahead log
      gen-000003.pages         <- current generation's index (v2 pages)
      gen-000003.pages.meta.json
      gen-000003.pages.sig     <- its signature sidecar

Write path: :meth:`IngestStore.append` validates the point (integer
id, finite coordinates, strictly increasing time per object), frames
it into the WAL, then absorbs it into the memtable.  Points are
durable once the WAL fsync covering them returns (``sync_every=1``,
the default, fsyncs every append; raise it to trade durability lag for
throughput).

Compaction (:meth:`compact`) freezes the current state into the next
*generation*: a full index over every object's complete history,
packed with its signatures straight from the validated history in
memory, saved with the crash-safe ``save_index`` protocol and served
read-only through ``load_index``.  The generation's pages are the only
on-disk copy of the history it covers: opening the store reads every
object's points back from the leaves (:func:`repro.index.leaf_points`).
An object with a single point has no segment to index, so compaction
carries its point into the next WAL.  The manifest rewrite is the
commit point; the WAL is rotated to a fresh file just before it and
the superseded one deleted just after, so a crash at *any* instant
recovers to either the old generation + full WAL or the new
generation + the carried points — the same logical state.
Superseded generation files are removed once no reader pins them.

Query path: :meth:`view` pins the current generation (refcounted — a
racing compaction retires but never invalidates it) and snapshots the
memtable (O(pages) shallow copy).  The memtable holds only what came
after the generation: an object's first point after a compaction
brings its *joint sample* (its last point before this one, which the
generation or the carried WAL already holds) and itself, so the
generation holds each object's history up to the joint sample and the
memtable the rest, two time slices that meet at one instant.  A view
searches both, with no exclusions, as parts of one search under one
k-th-best bound that keeps one candidate per id: an object's windows
are the rebuild's segments, and its value is their time-ordered sum,
so every answer is byte-identical to a full rebuild.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

from ..exceptions import QueryError, StorageError, TrajectoryError
from ..filter import signatures_from_points
from ..index import leaf_points, load_index, save_index, tree_class
from ..obs import MetricsRegistry
from ..obs import state as _obs
from ..search.bfmst import bfmst_search
from ..storage import (
    atomic_write_bytes,
    fsync_directory,
    json_field,
    read_json_object,
)
from ..trajectory import Trajectory, TrajectoryDataset
from .memtable import Memtable
from .wal import WriteAheadLog, recover_wal

__all__ = ["Generation", "IngestStore", "LiveView", "merged_kmst"]

MANIFEST_NAME = "MANIFEST.json"
#: 2: a generation's points live in its pages only (format 1 stores
#: kept a JSON copy beside them and are refused).
_MANIFEST_FORMAT = 2

#: The object ids a WAL record can carry (it packs them as int64).
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class _Recorder:
    """Fan counter increments out to the store's always-on registry and
    (when a query trace is active) the global observability slot."""

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)
        if _obs.ACTIVE is not None:
            _obs.ACTIVE.registry.inc(name, n)


class Generation:
    """One published, immutable index generation (refcounted)."""

    def __init__(self, number: int, index, pages_path: Path) -> None:
        self.number = number
        self.index = index
        self.pages_path = pages_path
        self.refcount = 0
        self.retired = False

    def close(self) -> None:
        if self.index.signatures is not None:
            self.index.signatures.close()
        self.index.pagefile.close()


def merged_kmst(
    views: list["LiveView"],
    query: Trajectory,
    period: tuple[float, float] | None = None,
    k: int = 1,
    **options,
):
    """k-MST over the union of several pinned views (one per store)
    under a single shared bound; returns ``(matches, stats)``.

    ``options`` are :func:`repro.search.bfmst.bfmst_search`'s.
    Compacted generations carry signature sidecars and get filtered;
    the memtable part has none and is searched unfiltered.

    The search keeps one candidate per id and sums its windows from
    every part, so two parts may share an id only where that id's time
    ranges in them meet at most at an endpoint.  One view's parts do
    so by construction (the store's strictly-increasing-time check
    makes the memtable start at each object's joint sample); nothing
    is checked per query.  The stores' id spaces are their own, so an
    id that two views would both report (the query does not exclude
    it) is a :class:`~repro.exceptions.QueryError`."""
    parts = [part for view in views for part in view.parts]
    if len(views) > 1:
        excluded = frozenset(options.get("exclude_ids") or ())
        seen: set = set()
        for view in views:
            ids = set()
            for index in view.parts:
                ids |= index.trajectory_ids - excluded
            shared = seen & ids
            if shared:
                raise QueryError(
                    f"trajectory ids {sorted(shared)[:5]} are in more than "
                    f"one store; merged_kmst needs the views' ids disjoint"
                )
            seen |= ids
    return bfmst_search(parts, query, period, k, **options)


class LiveView:
    """A consistent, pinned snapshot of one store for querying.

    ``parts`` is the list of indexes it searches: the pinned
    generation and the frozen memtable snapshot, either left out when
    empty.  They share the ids of the objects that have points on both
    sides of the last compaction, as two time slices meeting at the
    object's joint sample, the only way two parts may share an id (see
    :func:`merged_kmst`).  Close (or use as a context manager) to
    release the generation pin.
    """

    def __init__(self, store: "IngestStore", generation: Generation | None, parts) -> None:
        self._store = store
        self._generation = generation
        self.parts = parts
        self._closed = False

    @property
    def generation_number(self) -> int:
        return -1 if self._generation is None else self._generation.number

    def kmst(
        self,
        query: Trajectory,
        period: tuple[float, float] | None = None,
        k: int = 1,
        **kwargs,
    ):
        if self._closed:
            raise StorageError("view is closed")
        return merged_kmst([self], query, period, k, **kwargs)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._generation is not None:
                self._store._unpin(self._generation)

    def __enter__(self) -> "LiveView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class IngestStore:
    """Crash-safe online write path over one directory (see module
    docstring).  Thread-safe: appends/compactions serialise on one
    lock, queries run against pinned views outside it."""

    def __init__(
        self,
        directory: str | Path,
        *,
        sync_every: int = 1,
        auto_compact_points: int | None = None,
        _create: bool = False,
        tree: str = "tbtree",
        page_size: int = 4096,
    ) -> None:
        self.directory = Path(directory)
        self.metrics = MetricsRegistry()
        self._rec = _Recorder(self.metrics)
        self._lock = threading.RLock()
        self._closed = False
        self.sync_every = sync_every
        self.auto_compact_points = auto_compact_points
        self._failpoints = None  # test hook: callable(site_name)

        #: authoritative in-memory history: object id -> [(x, y, t), ...]
        self._history: dict[int, list[tuple[float, float, float]]] = {}
        self.num_points = 0
        self._generation: Generation | None = None

        if _create:
            self._initialise(tree, page_size)
        self._open_existing()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path,
        *,
        tree: str = "tbtree",
        page_size: int = 4096,
        sync_every: int = 1,
        auto_compact_points: int | None = None,
    ) -> "IngestStore":
        """Initialise a fresh store directory (which must not already
        hold one) and open it."""
        return cls(
            directory,
            sync_every=sync_every,
            auto_compact_points=auto_compact_points,
            _create=True,
            tree=tree,
            page_size=page_size,
        )

    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        sync_every: int = 1,
        auto_compact_points: int | None = None,
    ) -> "IngestStore":
        """Open an existing store, recovering the WAL."""
        return cls(
            directory,
            sync_every=sync_every,
            auto_compact_points=auto_compact_points,
        )

    def _initialise(self, tree: str, page_size: int) -> None:
        tree_class(tree)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / MANIFEST_NAME).exists():
            raise StorageError(
                f"{self.directory} already holds an ingest store"
            )
        wal_name = self._wal_name(1)
        (self.directory / wal_name).touch()
        fsync_directory(self.directory)
        self._write_manifest(
            {
                "format": _MANIFEST_FORMAT,
                "tree": tree,
                "page_size": page_size,
                "generation": -1,
                "wal": wal_name,
                "wal_seq": 1,
            }
        )

    def _open_existing(self) -> None:
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(
                f"{self.directory} is not an ingest store (no {MANIFEST_NAME}); "
                f"use IngestStore.create"
            )
        manifest = read_json_object(manifest_path, "store manifest")
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise StorageError(
                f"{manifest_path}: store format {manifest.get('format')!r}, "
                f"this build reads store format {_MANIFEST_FORMAT}; create "
                f"a new store and feed the points again"
            )
        self.tree = manifest.get("tree")
        tree_class(self.tree, manifest_path)
        self.page_size = json_field(
            manifest, manifest_path, "page_size", int, minimum=1
        )
        self._wal_seq = json_field(
            manifest, manifest_path, "wal_seq", int, minimum=1
        )
        gen_number = json_field(
            manifest, manifest_path, "generation", int, minimum=-1
        )
        wal_name = json_field(manifest, manifest_path, "wal", str)

        self._remove_orphans(gen_number, wal_name)

        if gen_number >= 0:
            self._generation = self._load_generation(gen_number)
            try:
                self._history, _ = leaf_points(self._generation.index)
            except StorageError:
                self._generation.close()
                raise
            self.num_points = sum(len(pts) for pts in self._history.values())

        self._memtable = Memtable(self.page_size)
        wal_path = self.directory / wal_name
        if not wal_path.exists():
            raise StorageError(f"missing WAL file {wal_path}")
        records = recover_wal(wal_path, registry=self._rec)
        for i, rec in enumerate(records):
            history = self._history.get(rec.object_id)
            if history and rec.t <= history[-1][2]:
                raise StorageError(
                    f"{wal_path}: record {i} regresses time for object "
                    f"{rec.object_id} ({rec.t} after {history[-1][2]})"
                )
            self._apply(rec.object_id, rec.x, rec.y, rec.t)
        if records:
            self._rec.inc("ingest.recoveries")
        self._wal = WriteAheadLog(wal_path, registry=self._rec)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wal.close()
            if self._generation is not None:
                self._generation.close()

    def __enter__(self) -> "IngestStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # directory plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _wal_name(seq: int) -> str:
        return f"wal-{seq:06d}.log"

    def _gen_path(self, number: int) -> Path:
        return self.directory / f"gen-{number:06d}.pages"

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_bytes(
            self.directory / MANIFEST_NAME,
            json.dumps(manifest, indent=2).encode("ascii"),
        )

    def _manifest(self) -> dict:
        return {
            "format": _MANIFEST_FORMAT,
            "tree": self.tree,
            "page_size": self.page_size,
            "generation": (
                -1 if self._generation is None else self._generation.number
            ),
            "wal": self._wal_name(self._wal_seq),
            "wal_seq": self._wal_seq,
        }

    def _remove_orphans(self, gen_number: int, wal_name: str) -> None:
        """Delete leftovers of an interrupted compaction: generation
        files other than the committed one, WAL files other than the
        manifest's, and stray temporaries."""
        keep = {wal_name}
        if gen_number >= 0:
            pages = self._gen_path(gen_number).name
            keep.update({pages, pages + ".meta.json", pages + ".sig"})
        for path in self.directory.iterdir():
            name = path.name
            if name == MANIFEST_NAME or name in keep:
                continue
            if (
                name.startswith(("gen-", "wal-"))
                or name.endswith(".tmp")
            ):
                path.unlink(missing_ok=True)

    def _load_generation(self, number: int) -> Generation:
        pages = self._gen_path(number)
        index = load_index(pages)
        index.buffer.enable_thread_safety()
        return Generation(number, index, pages)

    def _fault(self, site: str) -> None:
        if self._failpoints is not None:
            self._failpoints(site)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, object_id: int, x: float, y: float, t: float) -> None:
        """Absorb one point: WAL first, then memtable.  Raises
        :class:`~repro.exceptions.TrajectoryError` for malformed points
        (nothing is written in that case)."""
        with self._lock:
            self._check_open()
            # bool is an int subclass.
            if (
                not isinstance(object_id, int)
                or isinstance(object_id, bool)
                or not _INT64_MIN <= object_id <= _INT64_MAX
            ):
                raise TrajectoryError(
                    f"ingest requires int64 object ids, got {object_id!r}"
                )
            x, y, t = float(x), float(y), float(t)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(t)):
                raise TrajectoryError(
                    f"object {object_id}: non-finite point ({x}, {y}, {t})"
                )
            history = self._history.get(object_id)
            if history and t <= history[-1][2]:
                raise TrajectoryError(
                    f"object {object_id}: timestamps must strictly increase "
                    f"({t} after {history[-1][2]})"
                )
            self._wal.append(object_id, x, y, t)
            if self.sync_every and self._wal.unsynced_appends >= self.sync_every:
                self._wal.sync()
            self._apply(object_id, x, y, t)
            if (
                self.auto_compact_points
                and self._memtable.new_points >= self.auto_compact_points
            ):
                self.compact()

    def extend(self, points) -> int:
        """Append an iterable of ``(object_id, x, y, t)`` rows; returns
        how many were absorbed."""
        n = 0
        for object_id, x, y, t in points:
            self.append(object_id, x, y, t)
            n += 1
        return n

    def sync(self) -> None:
        """Force WAL durability for every acknowledged append."""
        with self._lock:
            self._check_open()
            self._wal.sync()

    def _apply(self, object_id: int, x: float, y: float, t: float) -> None:
        history = self._history.setdefault(object_id, [])
        history.append((x, y, t))
        self.num_points += 1
        if object_id in self._memtable:
            self._memtable.append(object_id, x, y, t)
        else:
            # The joint sample and the new point: the memtable's slice
            # starts where the generation's (or the carried WAL's) ends.
            self._memtable.adopt(object_id, history[-2:])
        self._rec.inc("ingest.memtable_points")

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("ingest store is closed")

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> int | None:
        """Flush the memtable into the next immutable generation.

        Returns the new generation number, or ``None`` when the
        memtable is empty (nothing to do).  The store keeps serving
        throughout; views pinned before the publish keep their
        generation until released.
        """
        with self._lock:
            self._check_open()
            if self._memtable.num_points == 0:
                return None
            try:
                return self._compact_locked()
            except BaseException:
                # A half-applied compaction leaves the in-process state
                # untrustworthy; the on-disk state is always consistent,
                # so the recovery path is close + reopen.
                self._closed = True
                raise

    def _compact_locked(self) -> int:
        self._wal.sync()
        number = (
            0 if self._generation is None else self._generation.number + 1
        )
        self._fault("compact.begin")

        index, signatures = self._build_generation_index()
        save_index(index, self._gen_path(number), signatures=signatures)
        self._fault("compact.pages_committed")

        # The generation indexes segments, so an object with one point
        # is not in it: its point goes on in the next WAL.
        old_wal_path = self._wal.path
        new_seq = self._wal_seq + 1
        new_wal_path = self.directory / self._wal_name(new_seq)
        with WriteAheadLog(new_wal_path) as carry:
            for oid, pts in self._history.items():
                if len(pts) == 1:
                    carry.append(oid, *pts[0])
        fsync_directory(self.directory)
        self._fault("compact.wal_rotated")

        # the commit point: after this rename the store *is* at the
        # new generation; before it, recovery sees the old one.
        old_generation = self._generation
        self._wal_seq = new_seq
        self._generation = self._load_generation(number)
        self._write_manifest(self._manifest())
        self._fault("compact.manifest_committed")

        self._wal.close()
        self._wal = WriteAheadLog(new_wal_path, registry=self._rec)
        old_wal_path.unlink(missing_ok=True)
        self._memtable = Memtable(self.page_size)
        if old_generation is not None:
            self._retire(old_generation)
        self._rec.inc("ingest.compactions")
        self._rec.inc("ingest.generations_published")
        self._fault("compact.done")
        return number

    def _build_generation_index(self):
        """The next generation's tree and its signatures, both from the
        history in hand, which the append checks (or the reopen's)
        already validated: one pack, and no page read back."""
        objects = {
            oid: pts
            for oid, pts in sorted(self._history.items())
            if len(pts) >= 2
        }
        index = tree_class(self.tree)(page_size=self.page_size)
        leaf_tids = index.pack(objects.items())
        index.finalize()
        if not objects:
            return index, False
        return index, signatures_from_points(index, objects, leaf_tids)

    # ------------------------------------------------------------------
    # generation pinning
    # ------------------------------------------------------------------
    def _retire(self, generation: Generation) -> None:
        generation.retired = True
        if generation.refcount == 0:
            self._dispose(generation)

    def _dispose(self, generation: Generation) -> None:
        generation.close()
        generation.pages_path.unlink(missing_ok=True)
        generation.pages_path.with_name(
            generation.pages_path.name + ".meta.json"
        ).unlink(missing_ok=True)
        generation.pages_path.with_name(
            generation.pages_path.name + ".sig"
        ).unlink(missing_ok=True)
        self._rec.inc("ingest.generations_retired")

    def _unpin(self, generation: Generation) -> None:
        with self._lock:
            generation.refcount -= 1
            self._rec.inc("ingest.generation_unpins")
            if generation.retired and generation.refcount == 0:
                self._dispose(generation)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def view(self) -> LiveView:
        """Pin a consistent snapshot: the current generation (if any)
        plus a frozen memtable copy."""
        with self._lock:
            self._check_open()
            snapshot = self._memtable.snapshot()
            parts = []
            generation = self._generation
            if generation is not None and generation.index.num_entries > 0:
                generation.refcount += 1
                self._rec.inc("ingest.generation_pins")
                parts.append(generation.index)
            else:
                generation = None
            if snapshot is not None:
                parts.append(snapshot)
            return LiveView(self, generation, parts)

    def kmst(
        self,
        query: Trajectory,
        period: tuple[float, float] | None = None,
        k: int = 1,
        **kwargs,
    ):
        """One-shot k-MST over a fresh view; returns ``(matches, stats)``."""
        with self.view() as view:
            return view.kmst(query, period, k, **kwargs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def ids(self) -> list[int]:
        with self._lock:
            return sorted(self._history)

    def trajectory(self, object_id: int) -> Trajectory:
        """The current full trajectory of one object (>= 2 points)."""
        with self._lock:
            pts = self._history.get(object_id)
            if pts is None:
                raise KeyError(f"no object {object_id!r} in the store")
            return Trajectory(object_id, list(pts))

    def current_dataset(self) -> TrajectoryDataset:
        """A from-scratch dataset of the store's current state — every
        object with at least two points (the rebuild oracle's input)."""
        with self._lock:
            return TrajectoryDataset(
                Trajectory(oid, list(pts))
                for oid, pts in sorted(self._history.items())
                if len(pts) >= 2
            )

    @property
    def generation_number(self) -> int:
        return -1 if self._generation is None else self._generation.number

    @property
    def memtable_points(self) -> int:
        return self._memtable.num_points

    def info(self) -> dict:
        with self._lock:
            return {
                "directory": str(self.directory),
                "tree": self.tree,
                "page_size": self.page_size,
                "objects": len(self._history),
                "points": self.num_points,
                "generation": self.generation_number,
                "memtable_points": self._memtable.num_points,
                "memtable_objects": len(self._memtable),
                "wal_bytes": self._wal.size_bytes(),
                "counters": {
                    name: value
                    for name, value in sorted(self.metrics.counters.items())
                    if name.startswith("ingest.")
                },
            }
