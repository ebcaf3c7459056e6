"""Columnar (structure-of-arrays) views of trajectories.

The kernel layer in :mod:`repro.distance.kernels` and the batched
MINDIST in :mod:`repro.index.mindist` want the samples of a trajectory
as contiguous float64 columns rather than a tuple of ``STPoint``
objects.  Because trajectories are immutable the columns can be built
once and memoised forever — :meth:`Trajectory.columns` does exactly
that, backed by this module.

The columns themselves are :class:`array.array` buffers, which the
segment kernel reads as they are; the numpy views over them (zero-copy,
read-only) import numpy on first use, so building the columns never
does.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trajectory import Trajectory

__all__ = ["TrajectoryColumns"]


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
        import numpy as np

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
            import numpy as np

            stacked = np.column_stack((self.x_view(), self.y_view()))
            stacked.flags.writeable = False
            self._xy = stacked
        return self._xy
