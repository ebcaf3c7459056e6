"""Trajectory data model: trajectories, datasets and I/O."""

from .columns import TrajectoryColumns
from .dataset import TrajectoryDataset
from .io import read_csv, read_json, write_csv, write_json
from .trajectory import Trajectory

__all__ = [
    "Trajectory",
    "TrajectoryColumns",
    "TrajectoryDataset",
    "read_csv",
    "write_csv",
    "read_json",
    "write_json",
]
