"""Trajectory CSV writer and reader.

Column layout, for state dimension m:

    t, x_0..x_{m-1}, xdot_0..xdot_{m-1}, moreau_gap, function_gap,
    grad_norm, prox_dist, velocity_combo, dist_to_xstar, tikhonov_gap,
    energy_q, psi

Values are written with the %.17g format, which round-trips float64
bit-exactly (NaN included), so reading a file back reproduces the arrays
that produced it.

The writer makes that text in numpy, byte for byte what "%.17g" % v gives
(see _g17_words): it scales |v| by a power of ten held as a double-double,
rounds the exact product (Dekker's two-product) to 17 digits and lays the
digits out in 8-byte words.  Python's % still writes the values this
cannot decide: +-0, NaN, +-inf, |v| outside [1e-280, 1e280] (subnormals
included), and values whose scaled product lies within 1e-6 of a rounding
tie or of a power of ten.
"""

from __future__ import annotations

import csv
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
# rows per CSV write block: on fig1/n2, 128-row blocks wrote about 15%
# slower; 512- and 1,024-row blocks wrote 5-10% faster but raised the
# write's peak RSS by 1.0 and 3.3 MB more
_BLOCK_ROWS = 256

# the numpy path formats |v| in [1e-280, 1e280]; their decimal exponents k
# lie in [-281, 280], and the log10 guess and the carry into the next
# decade are one off at most
_LOW, _HIGH = 1e-280, 1e280
_K_MIN, _K_MAX = -283, 282
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves
# a scaled product this close to a rounding tie, 1e16 or 1e17 goes to %
_MARGIN = 1e-6


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


def _head(x: np.ndarray) -> np.ndarray:
    """The high 26 bits of x (Veltkamp's split); x - _head(x) is exact."""
    c = x * _SPLIT
    return c - (c - x)


@functools.cache
def _powers() -> np.ndarray:
    """Rows (hi, head, tail, lo) for k in [_K_MIN, _K_MAX]: hi is the double
    nearest 10**(16 - k), head + tail is hi split by _head, and lo is the
    double nearest 10**(16 - k) - hi.  Built from exact ints, since int to
    float conversion and int / int round correctly."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 16 - k
        if p >= 0:
            hi = float(10 ** p)
            lo = float(10 ** p - int(hi))
        else:
            den = 10 ** -p
            hi = 1 / den
            num, two = hi.as_integer_ratio()
            lo = (two - num * den) / (two * den)  # 1 / den - hi
        rows.append((hi, lo))
    hi, lo = np.array(rows).T
    head = _head(hi)
    table = np.column_stack([hi, head, hi - head, lo])
    table.flags.writeable = False
    return table


@functools.cache
def _layout():
    """The lookup tables of _g17_words.  A value's text is six 8-byte words,
    NUL where it has no byte:

    - word 0: "-", then "0." and up to three "0" (fixed notation below 1),
      then the first digit D0 and the "." after it;
    - words 1-4: D1 "." D2 "." ... D16 ".";
    - word 5: "e", the exponent's sign and its three digits (the hundreds
      NUL below 100), then "," and two NUL, which the last cell of a row
      overwrites with "\\r\\n".

    heads[(sign * 5 + zeros) * 2 + dot] is word 0 without D0; masks[keep *
    17 + dot] keeps D1..D<keep> of words 1-4 and the "." after D<dot> if
    0 < dot < keep; exponents[k - _K_MIN] is word 5."""
    heads = [(sign + (b"0." + b"0" * (zeros - 1) if zeros else b"")).ljust(7, b"\0") + dot
             for sign in (b"\0", b"-") for zeros in range(5) for dot in (b"\0", b".")]
    keep, dot, j = np.ogrid[:17, :17, 1:17]
    masks = np.zeros((17, 17, 16, 2), np.uint8)
    masks[..., 0] = np.where(j <= keep, 0xFF, 0)
    masks[..., 1] = np.where((j == dot) & (dot < keep), 0xFF, 0)
    masks.flags.writeable = False
    exponents = []
    for k in range(_K_MIN, _K_MAX + 1):
        if -4 <= k < 17:
            exponents.append(b"\0" * 5 + b",\0\0")
        else:
            digits = b"%03d" % abs(k) if abs(k) >= 100 else b"\0%02d" % abs(k)
            exponents.append(b"e" + (b"-" if k < 0 else b"+") + digits + b",\0\0")
    return (np.frombuffer(b"".join(heads), np.uint64), masks.reshape(-1, 32).view(np.uint64),
            np.frombuffer(b"".join(exponents), np.uint64))


def _scaled(a: np.ndarray):
    """(n, k, decided) for each a in [_LOW, _HIGH]: n is a * 10**(16 - k)
    rounded to the nearest integer, in [10**16, 10**17), k the decimal
    exponent of that 17-digit significand, and decided False where the
    product lies within _MARGIN of a rounding tie, of 1e16 or of 1e17.

    k = floor(log10 a) is a guess, and a * (hi + lo), with hi + lo =
    10**(16 - k) from _powers, is computed as prod + rest: prod = a * hi is
    a double and an integer (it lies near [1e16, 1e17), above 2**53), and
    rest holds the rest of the exact product to about 1e-15.  k moves by
    one where the product falls outside [1e16, 1e17).  prod + rint(rest) is
    then the significand % rounds to; one of 10**17 carries into the next
    decade as 10**16."""
    k = np.floor(np.log10(a)).astype(np.int32)
    a_head = _head(a)
    a_tail = a - a_head
    for _ in range(2):  # one move at most: a value still outside is not decided
        hi, head, tail, lo = np.take(_powers(), k - _K_MIN, axis=0).T
        prod = a * hi
        # the rounding error of a * hi, exactly (Dekker's two-product), plus a * lo
        rest = (((a_head * head - prod) + a_head * tail) + a_tail * head) + a_tail * tail + a * lo
        below = (prod - 1e16) + rest
        above = (prod - 1e17) + rest
        move = (above >= 0).astype(np.int32) - (below < 0)
        if not move.any():
            break
        k += move
    decided = ((move == 0) & (np.abs(rest - np.floor(rest) - 0.5) >= _MARGIN)
               & (np.abs(below) >= _MARGIN) & (np.abs(above) >= _MARGIN))
    n = prod.astype(np.int64) + np.rint(rest).astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    return n, k + carry, decided


def _digits(n: np.ndarray):
    """(d0, digits, last) of each 17-digit n: its first digit D0, its other
    digits D1..D16 in the 16-bit lanes of four uint64 words (reading order
    in memory), and the index of the last nonzero one of D1..D16 (0 when
    there is none)."""
    high, low = np.divmod(n, 10 ** 8)
    d0, high = np.divmod(high, 10 ** 8)
    quads = np.empty((len(n), 4), np.uint64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10 ** 4)
    # q // 100 as (q * 5243) >> 19 and x // 10 as (x * 103) >> 10 are exact
    # for q < 10**4 and x < 100; the lanes never carry into each other
    pairs = (quads * 5243) >> 19
    pairs |= (quads - pairs * 100) << 32
    tens = ((pairs * 103) >> 10) & 0x0000000F0000000F
    digits = tens | ((pairs - tens * 10) << 16)
    # bit 15 of a lane is set where its digit is not 0; the multiply gathers
    # a word's four lane bits into bits 48-51, and frexp gives the bit
    # length of all 16
    nonzero = ((digits + 0x7FFF7FFF7FFF7FFF) >> 15) & 0x0001000100010001
    nibbles = (nonzero * 0x0001000200040008) >> 48
    flags = nibbles[:, 0] | (nibbles[:, 1] << 4) | (nibbles[:, 2] << 8) | (nibbles[:, 3] << 12)
    return d0, digits, np.frexp(flags.astype(np.float64))[1]


def _g17_words(values: np.ndarray) -> np.ndarray:
    """The text of "%.17g," % v for each float64 v, as rows of six uint64
    words (48 bytes, NUL where the text has no byte; see _layout).  Values
    outside [_LOW, _HIGH] in magnitude, or that _scaled cannot decide, get
    their text from %."""
    a = np.abs(values)
    fast = (a >= _LOW) & (a <= _HIGH)  # False for +-0, subnormals, +-inf and NaN
    n, k, decided = _scaled(np.where(fast, a, 1.0))
    fast &= decided
    d0, digits, last = _digits(n)
    fixed = (k >= -4) & (k < 17)
    dot = np.where(fixed & (k > 0), k, 0)  # fixed notation's "." after D<k>
    keep = np.maximum(last, dot)
    zeros = np.where(fixed & (k < 0), -k, 0)  # "0." and -k - 1 zeros before D0
    dot0 = (keep > 0) & ~(fixed & (k != 0))  # the "." after D0
    heads, masks, exponents = _layout()
    words = np.empty((len(values), 6), np.uint64)
    words[:, 0] = (np.take(heads, (np.signbit(values) * 5 + zeros) * 2 + dot0)
                   | ((d0 + ord("0")).astype(np.uint64) << 48))
    words[:, 1:5] = (digits | 0x2E302E302E302E30) & np.take(masks, keep * 17 + dot, axis=0)
    words[:, 5] = np.take(exponents, k - _K_MIN)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype="S48")
        chars = text.view(np.uint8).reshape(-1, 48)
        chars[:, 45] = ord(",")
        words[slow] = chars.view(np.uint64)
    return words


def _write_rows(path, header, columns) -> None:
    """Write header, then np.column_stack(columns) as %.17g rows, CRLF-ended like csv.writer.

    The table goes out in blocks of _BLOCK_ROWS rows, so the text of only
    one block is held at a time.  Each block formats every distinct value
    once (values repeat within a row: prox_dist equals grad_norm when
    lambda = 1), gathers each cell's words and drops their NUL bytes.
    Values are told apart by their bit patterns, not compared as floats, so
    -0.0 keeps its text "-0" apart from 0.0's "0" and a NaN, equal to
    nothing, still finds its text."""
    table = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            words = np.take(_g17_words(bits.view(np.float64)), inverse.ravel(), axis=0)
            chars = words.view(np.uint8).reshape(block.shape + (48,))
            chars[:, -1, 45:47] = (ord("\r"), ord("\n"))
            fh.write(chars.tobytes().translate(None, b"\0"))


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
