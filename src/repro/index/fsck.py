"""Offline integrity checking (``repro fsck``).

Walks a persisted index — a single page file + sidecar, or a whole
shard directory — and verifies everything that can be verified without
deserialising a node: sidecar presence and version, page-count and
digest agreement, and the v2 frame (magic, version, kind, CRC,
padding) of **every page**.  No writer leaves an all-zero page behind
(every allocated page holds a node, framed when it is written), so a
zeroed page is ``bad`` like any other damage.

The result is a plain report object with per-page verdicts, so the CLI
can print it and tests can assert on it; nothing here raises on
corruption — a broken index yields a report with ``ok == False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import StorageError
from ..storage import file_sha256, verify_page
from .persistence import _meta_path, _read_meta

__all__ = ["PageVerdict", "FsckReport", "fsck_index", "fsck_sharded", "fsck"]


@dataclass
class PageVerdict:
    """The verdict for one page: ``ok`` or ``bad``."""

    page_id: int
    status: str
    detail: str | None = None


@dataclass
class FsckReport:
    """Everything fsck found about one page file (or, aggregated, one
    shard directory)."""

    path: str
    errors: list[str] = field(default_factory=list)
    pages: list[PageVerdict] = field(default_factory=list)
    shards: list["FsckReport"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and all(p.status != "bad" for p in self.pages)
            and all(s.ok for s in self.shards)
        )

    @property
    def bad_pages(self) -> list[PageVerdict]:
        return [p for p in self.pages if p.status == "bad"]

    def summary(self) -> str:
        """One line per problem (plus one for a clean bill of health)."""
        lines = []
        counts = {"ok": 0, "bad": 0}
        for p in self.pages:
            counts[p.status] += 1
        if self.pages or not self.shards:
            state = "OK" if self.ok else "CORRUPT"
            lines.append(
                f"{self.path}: {state} — {counts['ok']} ok, "
                f"{counts['bad']} bad pages"
            )
        for err in self.errors:
            lines.append(f"{self.path}: ERROR: {err}")
        for p in self.bad_pages:
            # verify_page details already name the page.
            lines.append(f"{self.path}: {p.detail}")
        for s in self.shards:
            lines.append(s.summary())
        return "\n".join(lines)


def fsck_index(path: str | Path) -> FsckReport:
    """Check one saved index (page file + ``.meta.json`` sidecar)."""
    path = Path(path)
    report = FsckReport(path=str(path))

    meta: dict | None = None
    try:
        meta = _read_meta(_meta_path(path))
    except StorageError as exc:
        report.errors.append(str(exc))

    if not path.exists():
        report.errors.append("missing page file")
        return report

    if meta is None:
        # Only the sidecar knows the page size: a guessed one would
        # call every page of a differently sized index bad.
        report.errors.append(
            "page size unknown without a readable sidecar; pages not checked"
        )
        _fsck_signatures(path, meta, report)
        return report

    page_size = meta["page_size"]
    size = path.stat().st_size
    if size % page_size != 0:
        report.errors.append(
            f"file size {size} is not a multiple of the page size "
            f"{page_size} (truncated?)"
        )
    num_pages = size // page_size
    want = meta.get("num_pages")
    if want is not None and want != num_pages:
        report.errors.append(
            f"metadata records {want} pages, file holds {num_pages}"
        )
    digest = meta.get("pages_sha256")
    if digest is not None and file_sha256(path) != digest:
        report.errors.append("SHA-256 digest mismatch against sidecar")

    with open(path, "rb") as fh:
        for pid in range(num_pages):
            data = fh.read(page_size)
            if len(data) != page_size:
                report.pages.append(
                    PageVerdict(
                        pid, "bad", f"page {pid}: short read ({len(data)} bytes)"
                    )
                )
                break
            if not data.strip(b"\x00"):
                report.pages.append(
                    PageVerdict(pid, "bad", f"page {pid}: zeroed page")
                )
                continue
            problem = verify_page(data, pid)
            if problem is None:
                report.pages.append(PageVerdict(pid, "ok"))
            else:
                report.pages.append(PageVerdict(pid, "bad", problem))

    _fsck_signatures(path, meta, report)
    return report


def _fsck_signatures(path: Path, meta: dict | None, report: FsckReport) -> None:
    """Verify the optional signature sidecar.  Absence is fine (the
    index serves unfiltered); a sidecar that fails its CRC or binds to
    a different index is an error, because ``load_index`` would refuse
    to open the pair."""
    from ..filter import load_signatures, signature_sidecar_path

    sig_path = signature_sidecar_path(path)
    if not sig_path.exists():
        return
    binding = None
    if meta is not None:
        try:
            binding = (
                int(meta["num_nodes"]),
                int(meta["num_entries"]),
                int(meta["root_page"]),
            )
        except (KeyError, TypeError, ValueError):
            binding = None
    try:
        sigs = load_signatures(sig_path, expected_binding=binding)
    except StorageError as exc:
        report.errors.append(f"signature sidecar: {exc}")
        return
    sigs.close()


def fsck_sharded(directory: str | Path) -> FsckReport:
    """Check a shard directory: the manifest, then every shard file."""
    from ..sharding.persistence import read_manifest

    directory = Path(directory)
    report = FsckReport(path=str(directory))
    try:
        manifest = read_manifest(directory)
    except StorageError as exc:
        report.errors.append(str(exc))
        return report

    for record in manifest["shards"]:
        shard_path = directory / record["file"]
        if not shard_path.exists():
            report.errors.append(f"missing shard file {record['file']}")
            continue
        shard_report = fsck_index(shard_path)
        digest = record.get("pages_sha256")
        if digest is not None and shard_path.exists():
            if file_sha256(shard_path) != digest:
                shard_report.errors.append(
                    "SHA-256 digest mismatch against manifest"
                )
        report.shards.append(shard_report)
    return report


def fsck(path: str | Path) -> FsckReport:
    """Dispatch: a directory is checked as a shard directory, anything
    else as a single index file."""
    path = Path(path)
    if path.is_dir():
        return fsck_sharded(path)
    return fsck_index(path)
