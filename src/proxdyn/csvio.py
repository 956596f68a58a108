"""Trajectory CSV writer and reader.

Column layout, for state dimension m:

    t, x_0..x_{m-1}, xdot_0..xdot_{m-1}, moreau_gap, function_gap,
    grad_norm, prox_dist, velocity_combo, dist_to_xstar, tikhonov_gap,
    energy_q, psi

Values are written with the %.17g format, which round-trips float64
bit-exactly (NaN included), so reading a file back reproduces the arrays
that produced it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .diagnostics import Observables
# unused here; perfbench/tracing.py patches these module bindings by name
from .diagnostics import compute_observables, energy_q_series, unanchored_energy_series  # noqa: F401
from .errors import ValidationError

__all__ = ["TrajectoryTable", "table_from_trajectory", "write_csv", "read_csv"]

_SCALAR_COLUMNS = Observables.FIELDS


@dataclass
class TrajectoryTable:
    """Columns of a trajectory CSV, ready to write or just read back."""

    ts: np.ndarray
    xs: np.ndarray
    xdots: np.ndarray
    scalars: dict

    @property
    def dim(self) -> int:
        return self.xs.shape[1]

    def header(self):
        m = self.dim
        cols = ["t"]
        cols += [f"x_{i}" for i in range(m)]
        cols += [f"xdot_{i}" for i in range(m)]
        cols += list(_SCALAR_COLUMNS)
        return cols


def table_from_trajectory(obs: Observables) -> TrajectoryTable:
    """Assemble the CSV columns of a finished run from its observables."""
    traj = obs.traj
    return TrajectoryTable(ts=traj.ts, xs=traj.xs, xdots=traj.xdots,
                           scalars={name: getattr(obs, name) for name in _SCALAR_COLUMNS})


def write_csv(path, table: TrajectoryTable) -> None:
    header = table.header()
    columns = [table.ts, table.xs, table.xdots] + [table.scalars[name] for name in _SCALAR_COLUMNS]
    # one format string per row, with the \r\n line ends of csv.writer
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % tuple(values) for values in np.column_stack(columns).tolist())


def read_csv(path) -> TrajectoryTable:
    """Read a trajectory CSV written by write_csv, bit-exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty csv") from None
        data = [[float(v) for v in row] for row in reader]
    if not data:
        raise ValidationError(f"{path}: csv has a header but no rows")
    xcols = [c for c in header if c.startswith("x_")]
    m = len(xcols)
    expected = ["t"] + [f"x_{i}" for i in range(m)] + [f"xdot_{i}" for i in range(m)] + list(_SCALAR_COLUMNS)
    if header != expected:
        raise ValidationError(f"{path}: unexpected csv columns {header}")
    arr = np.asarray(data, dtype=float)
    ts = arr[:, 0]
    xs = arr[:, 1:1 + m]
    xdots = arr[:, 1 + m:1 + 2 * m]
    scalars = {}
    for j, name in enumerate(_SCALAR_COLUMNS):
        scalars[name] = arr[:, 1 + 2 * m + j]
    return TrajectoryTable(ts=ts, xs=xs, xdots=xdots, scalars=scalars)
