"""I/O accounting for the paged-storage layer.

The paper's performance claims are about node accesses and pruned
space; these counters make both observable.  A single
:class:`IOStats` instance is shared by a page file and its buffer
manager so a search can snapshot/diff it.

Beyond the seed's six page-traffic counters, the durable storage
engine adds two: ``fsyncs`` (explicit durability barriers issued by
:meth:`~repro.storage.pagefile.DiskPageFile.flush`) and
``checksum_failures`` (framed pages rejected by read-time
verification — see ``repro.storage.format``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable counter block for physical and logical page traffic."""

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    evictions: int = 0
    fsyncs: int = 0
    checksum_failures: int = 0

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counters."""
        return IOStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Counter deltas since the ``earlier`` snapshot."""
        return IOStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def hit_ratio(self) -> float:
        """Buffer hit ratio in [0, 1]; 0 when nothing was requested."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0
