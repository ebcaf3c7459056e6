"""The trajectory data model.

A :class:`Trajectory` is what the paper calls a "trajectory of a moving
object": a finite sequence of timestamped 2D samples with strictly
increasing timestamps, linearly interpolated in between (Section 3
of the paper; non-linear, e.g. arc, movement is explicitly left to
future work there, and here).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

from ..exceptions import TemporalCoverageError, TrajectoryError
from ..geometry import MBR2D, MBR3D, Point, STPoint, STSegment

__all__ = ["Trajectory"]


class Trajectory:
    """An immutable, time-ordered sequence of spatiotemporal samples.

    Parameters
    ----------
    object_id:
        Identifier of the moving object; any hashable value (ints in
        the bundled generators).
    samples:
        Iterable of :class:`STPoint` (or ``(x, y, t)`` tuples) with
        strictly increasing timestamps.  At least two samples are
        required so that the trajectory spans a positive time interval.
    """

    __slots__ = ("object_id", "_samples", "_times", "_columns", "_max_speed")

    def __init__(self, object_id, samples: Iterable[STPoint | tuple]) -> None:
        pts: list[STPoint] = []
        for s in samples:
            if isinstance(s, STPoint):
                pts.append(s)
            else:
                x, y, t = s
                pts.append(STPoint(float(x), float(y), float(t)))
        if len(pts) < 2:
            raise TrajectoryError(
                f"trajectory {object_id!r} needs >= 2 samples, got {len(pts)}"
            )
        for p in pts:
            if not p.is_finite():
                raise TrajectoryError(
                    f"trajectory {object_id!r} has a non-finite sample: {p}"
                )
        for prev, cur in zip(pts, pts[1:]):
            if cur.t <= prev.t:
                raise TrajectoryError(
                    f"trajectory {object_id!r}: timestamps must strictly "
                    f"increase ({prev.t} then {cur.t})"
                )
        self.object_id = object_id
        self._samples: tuple[STPoint, ...] = tuple(pts)
        self._times: tuple[float, ...] = tuple(p.t for p in pts)
        self._columns = None
        self._max_speed = None

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[STPoint]:
        return iter(self._samples)

    def __getitem__(self, idx: int) -> STPoint:
        return self._samples[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.object_id == other.object_id and self._samples == other._samples
        )

    def __hash__(self) -> int:
        return hash((self.object_id, self._samples))

    def __repr__(self) -> str:
        return (
            f"Trajectory(id={self.object_id!r}, samples={len(self)}, "
            f"span=[{self.t_start}, {self.t_end}])"
        )

    # ------------------------------------------------------------------
    # temporal accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Sequence[STPoint]:
        return self._samples

    @property
    def t_start(self) -> float:
        return self._times[0]

    @property
    def t_end(self) -> float:
        return self._times[-1]

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def covers(self, t_start: float, t_end: float) -> bool:
        """True when the trajectory's lifetime spans ``[t_start, t_end]``."""
        return self.t_start <= t_start and t_end <= self.t_end

    def overlaps(self, t_start: float, t_end: float) -> bool:
        """True when the lifetime intersects ``[t_start, t_end]``."""
        return not (self.t_end < t_start or t_end < self.t_start)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def segments(self) -> Iterator[STSegment]:
        """The ``n - 1`` line segments between consecutive samples."""
        for a, b in zip(self._samples, self._samples[1:]):
            yield STSegment(a, b)

    def segment(self, k: int) -> STSegment:
        """The ``k``-th line segment (0-based)."""
        return STSegment(self._samples[k], self._samples[k + 1])

    @property
    def num_segments(self) -> int:
        return len(self._samples) - 1

    def segment_covering(self, t: float) -> STSegment:
        """The segment whose time span contains ``t``."""
        if not (self.t_start <= t <= self.t_end):
            raise TemporalCoverageError(
                f"time {t} outside trajectory span "
                f"[{self.t_start}, {self.t_end}]"
            )
        idx = bisect_right(self._times, t) - 1
        if idx >= self.num_segments:
            idx = self.num_segments - 1
        return self.segment(idx)

    def segments_overlapping(self, t_start: float, t_end: float) -> Iterator[STSegment]:
        """Segments whose span intersects ``[t_start, t_end]`` in more
        than a single instant (plus the boundary-touching ones when the
        window is degenerate)."""
        if t_start > t_end:
            raise TrajectoryError(f"inverted window [{t_start}, {t_end}]")
        first = max(bisect_left(self._times, t_start) - 1, 0)
        for k in range(first, self.num_segments):
            seg = self.segment(k)
            if seg.ts > t_end:
                break
            if seg.te >= t_start:
                yield seg

    def position_at(self, t: float) -> Point:
        """Linearly interpolated position at time ``t``."""
        return self.segment_covering(t).position_at(t)

    def st_point_at(self, t: float) -> STPoint:
        """Interpolated spatiotemporal point at time ``t``."""
        p = self.position_at(t)
        return STPoint(p.x, p.y, t)

    def mbr(self) -> MBR3D:
        """The 3D bounding box of the whole trajectory."""
        return MBR3D.from_st_points(self._samples)

    def spatial_mbr(self) -> MBR2D:
        """The 2D bounding rectangle of the route."""
        return self.mbr().spatial

    def length(self) -> float:
        """Travelled distance (sum of segment lengths)."""
        return sum(seg.spatial_length() for seg in self.segments())

    def max_speed(self) -> float:
        """Largest segment speed; 0 for a stationary object.  Memoised:
        a search reads the query's several times."""
        if self._max_speed is None:
            self._max_speed = max(seg.speed for seg in self.segments())
        return self._max_speed

    def mean_speed(self) -> float:
        """Distance travelled divided by lifetime duration."""
        return self.length() / self.duration

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def sliced(self, t_start: float, t_end: float) -> "Trajectory":
        """The restriction of the trajectory to ``[t_start, t_end]``.

        End positions are interpolated; the window must lie inside the
        trajectory's lifetime and have positive length.
        """
        if t_start >= t_end:
            raise TrajectoryError(f"empty slice window [{t_start}, {t_end}]")
        if not self.covers(t_start, t_end):
            raise TemporalCoverageError(
                f"trajectory {self.object_id!r} spans "
                f"[{self.t_start}, {self.t_end}], cannot slice "
                f"[{t_start}, {t_end}]"
            )
        lo = bisect_right(self._times, t_start)
        hi = bisect_left(self._times, t_end)
        pts: list[STPoint] = [self.st_point_at(t_start)]
        pts.extend(self._samples[lo:hi])
        pts.append(self.st_point_at(t_end))
        return Trajectory(self.object_id, pts)

    def time_shifted(self, dt: float) -> "Trajectory":
        """A copy with all timestamps shifted by ``dt`` (used by the
        time-relaxed MST extension)."""
        return Trajectory(
            self.object_id, (p.translated(0.0, 0.0, dt) for p in self._samples)
        )

    def translated(self, dx: float, dy: float) -> "Trajectory":
        """A spatially shifted copy."""
        return Trajectory(
            self.object_id, (p.translated(dx, dy) for p in self._samples)
        )

    def with_id(self, object_id) -> "Trajectory":
        """A copy carrying a different object id."""
        return Trajectory(object_id, self._samples)

    def resampled(self, timestamps: Iterable[float]) -> "Trajectory":
        """The trajectory re-sampled (by interpolation) at the given
        strictly increasing timestamps, all inside the lifetime."""
        pts = [self.st_point_at(t) for t in timestamps]
        return Trajectory(self.object_id, pts)

    def uniformly_resampled(self, n: int) -> "Trajectory":
        """Resample at ``n >= 2`` equally spaced instants spanning the
        full lifetime."""
        if n < 2:
            raise TrajectoryError("uniform resampling needs n >= 2")
        step = self.duration / (n - 1)
        times = [self.t_start + i * step for i in range(n - 1)]
        times.append(self.t_end)
        return self.resampled(times)

    def sampling_timestamps_in(self, t_start: float, t_end: float) -> list[float]:
        """The recorded timestamps falling inside ``[t_start, t_end]``."""
        lo = bisect_left(self._times, t_start)
        hi = bisect_right(self._times, t_end)
        return list(self._times[lo:hi])

    # ------------------------------------------------------------------
    # normalisation (for LCSS/EDR comparison, per Chen et al. [5])
    # ------------------------------------------------------------------
    def coordinate_arrays(self) -> tuple[list[float], list[float], list[float]]:
        """Return the x, y and t coordinate lists (copies)."""
        xs = [p.x for p in self._samples]
        ys = [p.y for p in self._samples]
        ts = list(self._times)
        return xs, ys, ts

    def columns(self):
        """Memoised columnar view of the samples (built once; the
        trajectory is immutable, so it is never invalidated)."""
        if self._columns is None:
            from .columns import TrajectoryColumns

            self._columns = TrajectoryColumns(self)
        return self._columns

    def normalised(
        self,
        mean_x: float,
        mean_y: float,
        std_x: float,
        std_y: float,
    ) -> "Trajectory":
        """Z-normalise the spatial coordinates with the given moments
        (timestamps untouched).  Zero deviations are treated as 1."""
        sx = std_x if std_x > 0.0 else 1.0
        sy = std_y if std_y > 0.0 else 1.0
        return Trajectory(
            self.object_id,
            (
                STPoint((p.x - mean_x) / sx, (p.y - mean_y) / sy, p.t)
                for p in self._samples
            ),
        )

    def spatial_std(self) -> tuple[float, float]:
        """Population standard deviation of the x and y coordinates."""
        n = len(self._samples)
        mx = sum(p.x for p in self._samples) / n
        my = sum(p.y for p in self._samples) / n
        vx = sum((p.x - mx) ** 2 for p in self._samples) / n
        vy = sum((p.y - my) ** 2 for p in self._samples) / n
        return (math.sqrt(vx), math.sqrt(vy))
