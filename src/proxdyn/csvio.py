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
from array import array
from dataclasses import dataclass

import numpy as np

from .diagnostics import Observables
# unused here; perfbench/tracing.py patches these module bindings by name
from .diagnostics import compute_observables, energy_q_series, unanchored_energy_series  # noqa: F401
from .errors import ValidationError

__all__ = ["TrajectoryTable", "table_from_trajectory", "write_csv", "read_csv"]

_SCALAR_COLUMNS = Observables.FIELDS
# rows per CSV write block: 1,024-row blocks raised peak RSS by about 1 MB
# (their formatted strings) and wrote no faster
_BLOCK_ROWS = 256


def _header(m: int) -> list:
    """The column names of a trajectory CSV for state dimension m."""
    return (["t"] + [f"x_{i}" for i in range(m)] + [f"xdot_{i}" for i in range(m)]
            + list(_SCALAR_COLUMNS))


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
        return _header(self.dim)


def table_from_trajectory(obs: Observables) -> TrajectoryTable:
    """Assemble the CSV columns of a finished run from its observables."""
    traj = obs.traj
    return TrajectoryTable(ts=traj.ts, xs=traj.xs, xdots=traj.xdots,
                           scalars={name: getattr(obs, name) for name in _SCALAR_COLUMNS})


def _write_rows(path, header, columns) -> None:
    """Write header, then np.column_stack(columns) as %.17g rows, CRLF-ended like csv.writer.

    The table goes out in blocks of _BLOCK_ROWS rows, so the text of only
    one block is held at a time.  Each block formats every distinct value
    once (values repeat within a row: prox_dist equals grad_norm when
    lambda = 1) and fills one row template with one % operation.  Values are
    told apart by their bit patterns, not compared as floats, so -0.0 keeps
    its text "-0" apart from 0.0's "0" and a NaN, equal to nothing, still
    finds its text."""
    table = np.column_stack(columns)
    row = ",".join(["%s"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            values = bits.view(np.float64).tolist()
            text = np.array(("%.17g " * len(values) % tuple(values)).split(), dtype=object)
            fh.write(row * len(block) % tuple(text[inverse.ravel()].tolist()))


def write_csv(path, table: TrajectoryTable) -> None:
    _write_rows(path, table.header(), [table.ts, table.xs, table.xdots]
                + [table.scalars[name] for name in _SCALAR_COLUMNS])


def read_csv(path) -> TrajectoryTable:
    """Read a trajectory CSV written by write_csv, bit-exactly.  A malformed
    file raises ValidationError naming the path (and the line of a bad row)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty csv") from None
        # one flat buffer of doubles, not a list of Python floats per row:
        # a 19,490-row file would hold about 9 MB of float objects
        data = array("d")
        for row in reader:
            if len(row) != len(header):
                raise ValidationError(f"{path}: line {reader.line_num}: expected "
                                      f"{len(header)} values, got {len(row)}")
            try:
                data.extend(map(float, row))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if not data:
        raise ValidationError(f"{path}: csv has a header but no rows")
    m = sum(c.startswith("x_") for c in header)
    if header != _header(m):
        raise ValidationError(f"{path}: unexpected csv columns {header}")
    arr = np.frombuffer(data).reshape(-1, len(header))
    ts = arr[:, 0]
    xs = arr[:, 1:1 + m]
    xdots = arr[:, 1 + m:1 + 2 * m]
    scalars = {}
    for j, name in enumerate(_SCALAR_COLUMNS):
        scalars[name] = arr[:, 1 + 2 * m + j]
    return TrajectoryTable(ts=ts, xs=xs, xdots=xdots, scalars=scalars)
