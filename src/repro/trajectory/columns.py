"""Columnar (structure-of-arrays) views of trajectories.

The kernel layer in :mod:`repro.distance.kernels` and the batched
MINDIST in :mod:`repro.index.mindist` want the samples of a trajectory
as contiguous float64 columns rather than a tuple of ``STPoint``
objects.  Because trajectories are immutable the columns can be built
once and memoised forever — :meth:`Trajectory.columns` does exactly
that, backed by this module.

The columns themselves are :class:`array.array` buffers so the view is
fully functional without numpy; when numpy *is* available the arrays
are wrapped zero-copy (``np.frombuffer`` on the buffer protocol) and
marked read-only.  numpy is imported on first use and memoised here:
:func:`have_numpy` is the package's one probe for the optional extra.
"""

from __future__ import annotations

import weakref
from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataset import TrajectoryDataset
    from .trajectory import Trajectory

__all__ = ["TrajectoryColumns", "dataset_columns", "have_numpy"]

#: numpy once probed: the module, ``False`` when it does not import,
#: ``None`` before the first probe.  The one memo of the optional
#: extra — every numpy path in the package asks :func:`have_numpy` or
#: :func:`_numpy` here.
_np = None


def _numpy():
    """Import numpy on first use, memoised; raises an actionable
    :class:`ImportError` when it is not installed."""
    global _np
    if _np is None:
        try:
            import numpy

            # A concurrent *failed* import can hand this thread the
            # half-initialized module object (CPython returns the
            # sys.modules entry it read before waiting on the import
            # lock); probing an attribute rejects it instead of
            # memoising a broken module as "numpy is available".
            numpy.ndarray
        except (ImportError, AttributeError):
            _np = False
        else:
            _np = numpy
    if _np is False:
        raise ImportError(
            "numpy is an optional extra: install it with `pip install "
            "numpy` (or the project's `[test]` extra).  Without it the "
            "search runs its pure-Python MINDIST and signature-filter "
            "paths, and the quality experiment its reference metrics."
        )
    return _np


def have_numpy() -> bool:
    """``True`` when numpy imports.  The search takes its numpy
    MINDIST and signature-filter passes then, and their pure-Python
    twins (bit-equal) otherwise."""
    try:
        _numpy()
    except ImportError:
        return False
    return True


class TrajectoryColumns:
    """Contiguous float64 ``t``/``x``/``y`` columns of one trajectory.

    ``t``, ``x`` and ``y`` are ``array('d')`` buffers (always available);
    :meth:`t_view`, :meth:`x_view`, :meth:`y_view` and :meth:`xy` expose
    numpy ndarrays on demand.  The single-column views are zero-copy
    wrappers over the buffers and read-only; ``xy()`` is an ``(n, 2)``
    stacked copy, built once and memoised (read-only as well).
    """

    __slots__ = ("t", "x", "y", "_t_view", "_x_view", "_y_view", "_xy")

    def __init__(self, trajectory: "Trajectory") -> None:
        t = array("d")
        x = array("d")
        y = array("d")
        for p in trajectory.samples:
            t.append(p.t)
            x.append(p.x)
            y.append(p.y)
        self.t = t
        self.x = x
        self.y = y
        self._t_view = None
        self._x_view = None
        self._y_view = None
        self._xy = None

    def __len__(self) -> int:
        return len(self.t)

    def _wrap(self, buf: array):
        np = _numpy()
        view = np.frombuffer(buf, dtype=np.float64)
        view.flags.writeable = False
        return view

    def t_view(self):
        """Read-only float64 ndarray over the ``t`` column (zero-copy)."""
        if self._t_view is None:
            self._t_view = self._wrap(self.t)
        return self._t_view

    def x_view(self):
        """Read-only float64 ndarray over the ``x`` column (zero-copy)."""
        if self._x_view is None:
            self._x_view = self._wrap(self.x)
        return self._x_view

    def y_view(self):
        """Read-only float64 ndarray over the ``y`` column (zero-copy)."""
        if self._y_view is None:
            self._y_view = self._wrap(self.y)
        return self._y_view

    def xy(self):
        """Read-only ``(n, 2)`` float64 ndarray of the spatial samples."""
        if self._xy is None:
            np = _numpy()
            stacked = np.column_stack((self.x_view(), self.y_view()))
            stacked.flags.writeable = False
            self._xy = stacked
        return self._xy


# Dataset-level cache, keyed like the engine's signature cache: the
# entry is reused while the dataset still "looks the same"
# (same cardinality and total sample count) and rebuilt after any
# add/remove.  Weak keys keep thrown-away datasets collectable.
_DATASET_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def dataset_columns(dataset: "TrajectoryDataset") -> dict:
    """Columns for every trajectory in ``dataset``, memoised per dataset.

    Returns a mapping ``object_id -> TrajectoryColumns``.  The cache key
    is the dataset signature ``(len(dataset), total_samples)`` — the
    same invalidation discipline the query engine applies to its index
    signature — so mutating the dataset transparently rebuilds the
    columns on next use.
    """
    signature = (len(dataset), dataset.total_samples())
    entry = _DATASET_CACHE.get(dataset)
    if entry is not None and entry[0] == signature:
        return entry[1]
    columns = {traj.object_id: traj.columns() for traj in dataset}
    _DATASET_CACHE[dataset] = (signature, columns)
    return columns
