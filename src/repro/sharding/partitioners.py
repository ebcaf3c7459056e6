"""Trajectory-to-shard assignment strategies.

A partitioner maps every trajectory of a dataset to exactly one of
``num_shards`` shards — trajectories are never split across shards, so
a candidate's DISSIM accumulation happens entirely inside one shard
and the cross-shard search merges *disjoint* candidate sets.

Two strategies, named in :data:`PARTITIONER_KINDS`:

* :class:`HashPartitioner` — a multiplicative hash of the (integer)
  trajectory id; stable under dataset reordering,
* :class:`TemporalPartitioner` — equi-populated slabs over the
  trajectory's temporal midpoint (quantile boundaries are computed
  from the dataset being partitioned); with staggered fleets this
  gives the planner's time-extent pre-filter real pruning power.

``partitioner.params()`` is recorded in the JSON shard manifest
(:mod:`repro.sharding.persistence`) as metadata: a loaded directory
never rebuilds its partitioner, so one written with a retired kind
still loads.
"""

from __future__ import annotations

from bisect import bisect_right

from ..exceptions import QueryError, TrajectoryError
from ..trajectory import Trajectory, TrajectoryDataset

__all__ = [
    "Partitioner",
    "HashPartitioner",
    "TemporalPartitioner",
    "PARTITIONER_KINDS",
    "make_partitioner",
]

# Knuth's multiplicative constant — spreads consecutive integer ids
# across shards without the modulo banding of ``tid % n``.
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 1 << 32


class Partitioner:
    """Base class: assigns trajectories to ``num_shards`` shards."""

    kind = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise QueryError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards

    def fit(self, dataset: TrajectoryDataset) -> "Partitioner":
        """Derive any data-dependent state (quantile boundaries) from
        the dataset about to be partitioned; returns ``self``."""
        return self

    def shard_of(self, trajectory: Trajectory) -> int:
        """Shard id in ``[0, num_shards)`` for one trajectory."""
        raise NotImplementedError

    def params(self) -> dict:
        """JSON-ready manifest block describing this partitioner."""
        return {"kind": self.kind, "num_shards": self.num_shards}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashPartitioner(Partitioner):
    """Multiplicative hash of the integer trajectory id."""

    kind = "hash"

    def shard_of(self, trajectory: Trajectory) -> int:
        oid = trajectory.object_id
        if not isinstance(oid, int):
            raise TrajectoryError(
                f"hash partitioning requires integer object ids, got {oid!r}"
            )
        return (oid * _HASH_MULTIPLIER % _HASH_MODULUS) % self.num_shards


class TemporalPartitioner(Partitioner):
    """Equi-populated slabs over the trajectory's temporal midpoint:
    sort the midpoints, cut at quantiles, assign by bisection."""

    kind = "temporal"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        self.boundaries: list[float] | None = None

    @staticmethod
    def _key(trajectory: Trajectory) -> float:
        return (trajectory.t_start + trajectory.t_end) / 2.0

    def fit(self, dataset: TrajectoryDataset) -> "Partitioner":
        keys = sorted(self._key(tr) for tr in dataset)
        if not keys:
            raise TrajectoryError("cannot fit a range partitioner on an empty dataset")
        self.boundaries = [
            keys[(i * len(keys)) // self.num_shards]
            for i in range(1, self.num_shards)
        ]
        return self

    def shard_of(self, trajectory: Trajectory) -> int:
        if self.boundaries is None:
            raise QueryError(
                f"{self.kind} partitioner is unfitted: call fit(dataset)"
            )
        return bisect_right(self.boundaries, self._key(trajectory))

    def params(self) -> dict:
        out = super().params()
        out["boundaries"] = self.boundaries
        return out


PARTITIONER_KINDS = {
    cls.kind: cls for cls in (HashPartitioner, TemporalPartitioner)
}


def make_partitioner(kind: str, num_shards: int) -> Partitioner:
    """``kind`` in hash | temporal → instance (a temporal partitioner
    comes back unfitted; ``fit`` runs at partition time)."""
    try:
        cls = PARTITIONER_KINDS[kind]
    except KeyError:
        raise QueryError(
            f"unknown partitioner kind {kind!r}; expected one of "
            f"{sorted(PARTITIONER_KINDS)}"
        ) from None
    return cls(num_shards)
