"""Trajectory CSV contract: column order and bit-exact round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from hypothesis.extra.numpy import arrays

from proxdyn import csvio
from proxdyn.csvio import read_csv, table_from_trajectory, write_csv
from proxdyn.diagnostics import compute_observables, energy_q_series
from proxdyn.dynamics import IntegratorSettings, integrate
from proxdyn.errors import ValidationError
from proxdyn.runconfig import build_system, config_from_flat, preset_runs


def small_run(extra=None, preset="fig1", idx=0):
    flat = dict(preset_runs(preset)[idx])
    flat["system.horizon"] = "5"
    flat.update(extra or {})
    cfg, settings = build_system(config_from_flat(flat))
    return integrate(cfg, settings), cfg


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    traj, cfg = small_run()
    table = table_from_trajectory(compute_observables(traj))
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    write_csv(path, table)
    return table, read_csv(path), traj


def test_header_column_order(run_pair):
    table, _, _ = run_pair
    assert table.header() == [
        "t", "x_0", "xdot_0", "moreau_gap", "function_gap", "grad_norm",
        "prox_dist", "velocity_combo", "dist_to_xstar", "tikhonov_gap",
        "energy_q", "psi",
    ]


def test_roundtrip_bit_exact(run_pair):
    table, back, _ = run_pair
    assert back.ts.tobytes() == table.ts.tobytes()
    assert back.xs.tobytes() == table.xs.tobytes()
    assert back.xdots.tobytes() == table.xdots.tobytes()
    for name in table.scalars:
        assert back.scalars[name].tobytes() == table.scalars[name].tobytes(), name


def test_energy_column_uses_alpha_minus_one(run_pair):
    table, _, traj = run_pair
    expected = energy_q_series(traj, traj.cfg.alpha - 1.0)
    assert np.array_equal(table.scalars["energy_q"], expected)


def test_tikhonov_column_nan_when_unregularized(tmp_path):
    traj, _ = small_run({"schedule.eps_coeff": "0"})
    table = table_from_trajectory(compute_observables(traj))
    assert np.all(np.isnan(table.scalars["tikhonov_gap"]))
    path = tmp_path / "t.csv"
    write_csv(path, table)
    back = read_csv(path)
    # NaN must survive the text round-trip bit-exactly too
    assert back.scalars["tikhonov_gap"].tobytes() == table.scalars["tikhonov_gap"].tobytes()


def test_small_alpha_leaves_energy_undefined():
    traj, _ = small_run({"system.alpha": "2.5", "diagnostics.setting": "fast"})
    table = table_from_trajectory(compute_observables(traj))
    assert np.all(np.isnan(table.scalars["energy_q"]))
    assert np.all(np.isnan(table.scalars["psi"]))


def test_vector_state_columns(tmp_path):
    traj, _ = small_run({"objective.name": "l1_norm", "objective.dim": "2",
                         "system.x0": "3,-2", "system.xdot0": "0,0"})
    table = table_from_trajectory(compute_observables(traj))
    assert table.header()[1:5] == ["x_0", "x_1", "xdot_0", "xdot_1"]
    path = tmp_path / "v.csv"
    write_csv(path, table)
    back = read_csv(path)
    assert back.xs.shape == table.xs.shape
    assert back.xs.tobytes() == table.xs.tobytes()


def test_read_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError):
        read_csv(empty)
    headers_only = tmp_path / "h.csv"
    headers_only.write_text("t,x_0\n")
    with pytest.raises(ValidationError):
        read_csv(headers_only)
    wrong = tmp_path / "w.csv"
    wrong.write_text("t,x_0,nope\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_csv(wrong)


def test_read_rejects_malformed_rows_with_path_and_line(run_pair, tmp_path):
    header = run_pair[0].header()
    good = ",".join(["1"] * len(header))
    for name, bad, message in [
            ("short.csv", "1,2", f"expected {len(header)} values, got 2"),
            ("text.csv", good.replace("1", "abc", 1), "could not convert string to float: 'abc'")]:
        path = tmp_path / name
        path.write_text("\n".join([",".join(header), good, bad, good]) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}: line 3: {message}"


def percent_reference(header, table):
    """The file as a per-value %.17g writer makes it, CRLF-ended like csv.writer."""
    lines = [",".join(header).encode()]
    lines += [b",".join(b"%.17g" % v for v in row) for row in table.tolist()]
    return b"\r\n".join(lines) + b"\r\n"


def per_row_reference(table):
    return percent_reference(table.header(), np.column_stack(
        [table.ts, table.xs, table.xdots] + [table.scalars[name] for name in csvio._SCALAR_COLUMNS]))


def crafted_table():
    """A table of awkward values, longer than two blocks; the specials sit on
    both sides of the first block boundary."""
    rows = 2 * csvio._BLOCK_ROWS + 5
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((rows, 11)) * 10.0 ** rng.integers(-300, 300, (rows, 11))
    one_ulp = np.nextafter(1.0, 2.0)
    edge = csvio._BLOCK_ROWS
    for r in (0, edge - 1, edge, rows - 1):
        cols[r, :8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0, one_ulp]
        cols[r, 8:] = cols[r - 1, 8:]  # repeats the previous row, across the boundary at edge
    cols[edge - 1, 9] = cols[edge, 9] = 0.0  # one column, one row apart, across the boundary
    cols[edge + 1, 9] = -0.0
    cols[5, 2] = -5e-324
    cols[:, 10] = cols[:, 3]  # a column equal to another, as prox_dist equals grad_norm
    ts = np.arange(rows, dtype=float)
    return csvio.TrajectoryTable(
        ts=ts, xs=cols[:, :1], xdots=cols[:, 1:2],
        scalars={name: cols[:, 2 + j] for j, name in enumerate(csvio._SCALAR_COLUMNS)})


def test_writer_bytes_equal_per_row_reference(tmp_path):
    table = crafted_table()
    path = tmp_path / "crafted.csv"
    write_csv(path, table)
    assert path.read_bytes() == per_row_reference(table)
    back = read_csv(path)
    for got, want in [(back.ts, table.ts), (back.xs, table.xs), (back.xdots, table.xdots)] + [
            (back.scalars[name], table.scalars[name]) for name in table.scalars]:
        assert got.tobytes() == want.tobytes()


def write_rows_bytes(path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    csvio._write_rows(path, header, [table[:, j] for j in range(table.shape[1])])
    return path.read_bytes(), percent_reference(header, table)


# int64 bit patterns of float64 values: any sign and mantissa; the exponent
# is any, or (for half the draws) one of 2**-23..2**57, where both notations
# and the switch between them lie
FLOAT_BITS = st.builds(lambda sign, exponent, mantissa: (exponent << 52 | mantissa) - (sign << 63),
                       st.integers(0, 1), st.one_of(st.integers(0, 2047), st.integers(1000, 1080)),
                       st.integers(0, 2 ** 52 - 1))


@given(arrays(np.int64, st.tuples(st.integers(1, 12), st.integers(1, 4)), elements=FLOAT_BITS))
@hyp_settings(max_examples=300, deadline=None)
def test_written_cells_equal_percent_format(tmp_path_factory, bits):
    # NaN payloads, subnormals, zeros and infinities included
    got, want = write_rows_bytes(tmp_path_factory.getbasetemp() / "cells.csv", bits.view(np.float64))
    assert got == want


def decade_edges():
    """10**p, and the doubles one ulp away, for p in -300..300."""
    tens = np.array([float(10 ** p) if p >= 0 else 1 / 10 ** -p for p in range(-300, 301)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


def test_edge_values_equal_percent_format(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.integers(2 * 10 ** 15, 45 * 10 ** 14, 2000) * 2 + 1  # odd, in [4e15, 9e15)
    ties = m / 4.0  # 18 significant digits ending in 25 or 75: exact ties at 17
    notation = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e17, 0.0), 1e17,
                np.nextafter(1e17, np.inf), np.nextafter(1e16, 0.0), 1e16]
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    # the doubles nearest 9.99999999999999999 * 10**p; a third of them round up to
    # 1e(p+1) at 17 digits
    carries = np.array([float("9.99999999999999999e%d" % p) for p in range(-300, 301)])
    assert sum(b"%.17g" % v == b"1e%+03d" % (p + 1) for p, v in zip(range(-300, 301), carries)) > 100
    values = np.concatenate([decade_edges(), ties, notation, extremes, carries])
    values = np.concatenate([values, -values])
    got, want = write_rows_bytes(tmp_path / "edges.csv", values.reshape(-1, 2))
    assert got == want
