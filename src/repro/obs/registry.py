"""Metric instruments and the registry that owns them.

Four instrument kinds cover everything the paper's evaluation reports
(node accesses, pruned candidates, refinement work) and what a perf
regression harness needs on top:

* :class:`Counter` — monotonically increasing event count,
* :class:`Gauge` — last-value / high-water-mark sample,
* :class:`Timer` — accumulated wall time with call count,
* :class:`Histogram` — bucketed value distribution with min/max/sum.

A :class:`MetricsRegistry` creates instruments on first use and can
serialise the whole set to JSON (and back — see :meth:`from_dict`), so
benchmark runs can persist machine-readable counter lines next to
their timings.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_HISTOGRAM_BOUNDS",
]

# 1-2-5 decades: wide enough for entry counts, node fanouts and
# millisecond timings alike without tuning per metric.
DEFAULT_HISTOGRAM_BOUNDS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> int:
        """Add ``n`` (default 1); returns the new value."""
        self.value += n
        return self.value

    def as_dict(self) -> int:
        return self.value


class Gauge:
    """A point-in-time sample (supports high-water-mark updates)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def record_max(self, value: float) -> None:
        """Keep the largest value seen (high-water mark)."""
        if value > self.value:
            self.value = value

    def as_dict(self) -> float:
        return self.value


class Timer:
    """Accumulated wall-clock time over any number of timed sections."""

    __slots__ = ("name", "count", "total_seconds", "max_seconds")

    def __init__(
        self,
        name: str,
        count: int = 0,
        total_seconds: float = 0.0,
        max_seconds: float = 0.0,
    ) -> None:
        self.name = name
        self.count = count
        self.total_seconds = total_seconds
        self.max_seconds = max_seconds

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @contextmanager
    def time(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record(time.perf_counter() - start)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
        }


class Histogram:
    """Fixed-bound bucketed distribution with exact min/max/sum.

    ``bounds`` are the *upper* edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything above the last
    edge (so ``counts`` has ``len(bounds) + 1`` slots).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds else DEFAULT_HISTOGRAM_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Create-on-first-use instrument store with JSON round-tripping."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def timer(self, name: str) -> Timer:
        t = self._timers.get(name)
        if t is None:
            t = self._timers[name] = Timer(name)
        return t

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # ------------------------------------------------------------------
    # one-shot conveniences (the forms the instrumentation sites use)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def record_max(self, name: str, value: float) -> None:
        self.gauge(name).record_max(value)

    def time(self, name: str):
        """``with registry.time("phase"): ...`` context manager."""
        return self.timer(name).time()

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, int]:
        """Plain ``{name: value}`` view of every counter."""
        return {name: c.value for name, c in self._counters.items()}

    def value(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def snapshot(self) -> dict[str, int]:
        """Independent copy of the counter values (for before/after
        diffs around a query)."""
        return dict(self.counters)

    def as_dict(self) -> dict:
        return {
            "counters": {n: c.as_dict() for n, c in sorted(self._counters.items())},
            "gauges": {n: g.as_dict() for n, g in sorted(self._gauges.items())},
            "timers": {n: t.as_dict() for n, t in sorted(self._timers.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        reg = cls()
        for name, value in data.get("counters", {}).items():
            reg._counters[name] = Counter(name, value)
        for name, value in data.get("gauges", {}).items():
            reg._gauges[name] = Gauge(name, value)
        for name, t in data.get("timers", {}).items():
            reg._timers[name] = Timer(
                name, t["count"], t["total_seconds"], t["max_seconds"]
            )
        for name, h in data.get("histograms", {}).items():
            hist = Histogram(name, tuple(h["bounds"]))
            hist.counts = list(h["counts"])
            hist.count = h["count"]
            hist.total = h["total"]
            hist.min = h["min"] if h["min"] is not None else float("inf")
            hist.max = h["max"] if h["max"] is not None else float("-inf")
            reg._histograms[name] = hist
        return reg

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_dict(json.loads(text))

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()
