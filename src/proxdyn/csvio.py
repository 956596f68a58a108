"""Trajectory CSV writer and reader.

Column layout, for state dimension m:

    t, x_0..x_{m-1}, xdot_0..xdot_{m-1}, moreau_gap, function_gap,
    grad_norm, prox_dist, velocity_combo, dist_to_xstar, tikhonov_gap,
    energy_q, psi

Values are written with the %.17g format, which round-trips float64
bit-exactly (NaN included), so reading a file back reproduces the arrays
that produced it.

The text is made in C (_SOURCE, built by the native module), which scales
|v| by a power of ten held as a double-double (_powers) and rounds the
exact product (Dekker's two-product) to 17 digits; +-0, nan (whatever its
sign bit) and +-inf are spelled as by Python, with no libc formatting.
Python's % writes the cells it leaves undecided (|v| outside about
[1e-283, 1e282], subnormals included, and products within 1e-6 of a
rounding tie), or every cell where the C does not build (no C compiler).
"""

from __future__ import annotations

import csv
import ctypes
import functools
from array import array
from dataclasses import dataclass

import numpy as np

from .diagnostics import Observables
# unused here; perfbench/tracing.py patches these module bindings by name
from .diagnostics import compute_observables, energy_q_series, unanchored_energy_series  # noqa: F401
from .errors import ValidationError

__all__ = ["TrajectoryTable", "table_from_trajectory", "write_csv", "read_csv"]

_SCALAR_COLUMNS = Observables.FIELDS
# rows per CSV write block, each one call of the compiled writer into one
# reused buffer.  fig1/n2's write took 16.4 ms in 128-row blocks, 15.5 ms in
# 256 and 14.3 ms in 1,024, which raised the fig1_n2 peak RSS by 0.2 MB
_BLOCK_ROWS = 256
_K_MIN, _K_MAX = -283, 282  # the decimal exponents k of the powers 10**(16 - k)

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <string.h>

/* each double operation rounded to a double, as CPython rounds it: a host
   that keeps intermediates in wider registers (x87) builds no writer */
#if FLT_EVAL_METHOD != 0
#error "double arithmetic here is not IEEE binary64 operation by operation"
#endif

static const char PAIRS[] =  /* the two digits of 0..99 */
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* the high 26 bits of x (Veltkamp's split); x - head(x) is exact */
static double head(double x)
{
    double c = x * 134217729.0;  /* 2**27 + 1 */
    return c - (c - x);
}

/* "%.17g" % v from p on, and the end of its text; NULL where undecided.  k,
   the decimal exponent, is guessed from the binary one and moved up where
   |v| * 10**(15 - k) >= 1e16.  With hi + lo = 10**(16 - k) from the powers,
   prod = |v| * hi is a double and an integer, and rest the rest of the exact
   product to about 1e-15.  prod + rest must lie in [1e16, 1e17), clear of
   them and of a rounding tie by 1e-6; rounded, it is the 17-digit
   significand, unless it rounds up to 10**17, which is undecided too. */
static char *cell(double v, const double *powers, long long kmin, long long nk, char *p)
{
    double a = fabs(v), ah = head(a), at = a - ah, hi, hh, ht, prod, rest, guess;
    unsigned long long bits;
    long long k, n, whole;
    int fixed, last, dot, j;
    char z[21] = "0000", *s = z + 4;  /* the digits, after the zeros of 0.000D0 */

    if (isnan(v))  /* whatever its sign bit */
        return (char *)memcpy(p, "nan", 3) + 3;
    if (signbit(v))
        *p++ = '-';
    if (a == 0.0)
        return (char *)memcpy(p, "0", 1) + 1;
    if (isinf(a))
        return (char *)memcpy(p, "inf", 3) + 3;
    memcpy(&bits, &a, sizeof bits);
    guess = ((long long)(bits >> 52) - 1023) * 0.30102999566398120;  /* log10 2**e */
    k = (long long)guess - (guess < 0.0);  /* its floor: log10 |v| or one less */
    if (k < kmin || k + 1 >= kmin + nk)
        return NULL;
    k += a * powers[2 * (k + 1 - kmin)] >= 1e16;
    hi = powers[2 * (k - kmin)];
    hh = head(hi);
    ht = hi - hh;
    prod = a * hi;  /* and Dekker's two-product of its rounding error, plus |v| * lo */
    rest = (((ah * hh - prod) + ah * ht) + at * hh) + at * ht + a * powers[2 * (k - kmin) + 1];
    whole = (long long)rest;
    whole -= rest < whole;  /* floor(rest) */
    if (!((prod - 1e16) + rest >= 1e-6 && (prod - 1e17) + rest <= -1e-6
          && fabs(rest - whole - 0.5) >= 1e-6))
        return NULL;
    n = (long long)prod + whole + (rest - whole > 0.5);
    if (n == 100000000000000000LL)  /* rounded up into the next decade */
        return NULL;
    for (j = 15; j > 0; j -= 2, n /= 100)
        memcpy(s + j, PAIRS + 2 * (n % 100), 2);
    s[0] = (char)('0' + n);
    for (last = 16; last > 0 && s[last] == '0'; last--)
        ;
    fixed = k >= -4 && k < 17;
    if (fixed && k < 0) {  /* 0.000D0...: s starts at the zeros */
        s += k;
        last -= k;
    }
    dot = fixed && k > 0 ? k + 1 : 1;  /* the digits before the "." */
    memcpy(p, s, dot);
    p += dot;
    if (last >= dot) {
        *p++ = '.';
        memcpy(p, s + dot, last + 1 - dot);
        p += last + 1 - dot;
    }
    if (fixed)
        return p;
    *p++ = 'e';
    *p++ = k < 0 ? '-' : '+';
    k = k < 0 ? -k : k;
    if (k >= 100)
        *p++ = (char)('0' + k / 100);
    memcpy(p, PAIRS + 2 * (k % 100), 2);
    return p + 2;
}

/* the rows x cols cells, row-major, as CSV rows into out (at most 25 bytes a
   cell and 1 a row), and their length; each undecided cell's index and the
   offset of its text into marks, and the count of those numbers into *nmarks */
long long proxdyn_g17(const double *cells, long long rows, long long cols, const double *powers,
                      long long kmin, long long nk, char *out, long long *marks, long long *nmarks)
{
    char *p = out, *end;
    long long r, c, m = 0;
    for (r = 0; r < rows; r++) {
        for (c = 0; c < cols; c++) {
            end = cell(cells[r * cols + c], powers, kmin, nk, p);
            if (!end) {
                marks[m++] = r * cols + c;
                marks[m++] = p - out;
            }
            p = end ? end : p;
            *p++ = ',';
        }
        p[-1] = '\r';
        *p++ = '\n';
    }
    *nmarks = m;
    return p - out;
}
"""


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


@functools.cache
def _powers() -> np.ndarray:
    """Rows (hi, lo) for k in [_K_MIN, _K_MAX]: hi = a / b is the double
    nearest 10**(16 - k) = num / den, and lo the double nearest its rest;
    each is an int / int, which rounds correctly."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        a, b = (num / den).as_integer_ratio()
        rows.append((a / b, (num * b - a * den) / (den * b)))
    return np.array(rows)


@functools.cache
def _compiled():
    """The compiled writer, proxdyn_g17, or None where there is no C compiler
    or its build fails (which warns, once a process)."""
    from . import native  # its build tools stay out of the import of the package

    lib = native._load(_SOURCE, "the CSV writer")
    if lib is None:
        return None
    write = lib.proxdyn_g17
    write.restype = ctypes.c_longlong
    size, address = ctypes.c_longlong, ctypes.c_void_p
    write.argtypes = [address, size, size, address, size, size, address, address, address]
    return write


def _write_rows(path, header, columns) -> None:
    """Write header, then np.column_stack(columns) as %.17g rows, CRLF-ended like csv.writer.

    The table goes out in blocks of _BLOCK_ROWS rows, so the text of only
    one block is held at a time; % writes the cells that the compiled writer
    leaves, or every cell without it."""
    table = np.ascontiguousarray(np.column_stack(columns), dtype=float)
    write, powers = _compiled(), _powers()
    buf = np.empty(_BLOCK_ROWS * (25 * table.shape[1] + 1), np.uint8)
    marks, count = np.empty(2 * _BLOCK_ROWS * table.shape[1], np.int64), ctypes.c_longlong()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            if write is None:
                fh.writelines(b",".join(b"%.17g" % v for v in row) + b"\r\n"
                              for row in block.tolist())
                continue
            size = write(block.ctypes.data, *block.shape, powers.ctypes.data, _K_MIN,
                         len(powers), buf.ctypes.data, marks.ctypes.data, ctypes.addressof(count))
            at = 0
            for index, offset in marks[:count.value].reshape(-1, 2).tolist():
                fh.write(buf[at:offset])
                fh.write(b"%.17g" % block.item(index))
                at = offset
            fh.write(buf[at:size])


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
