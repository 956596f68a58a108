"""Minimal self-contained SVG polyline charts.

No plotting dependency: runs emit small standalone .svg files with linear
or logarithmic axes, decade/nice-step ticks and a legend. Points that a log
axis cannot show (nonpositive values) are dropped from that series.
"""

from __future__ import annotations

import html
import math

import numpy as np

from .errors import ValidationError

__all__ = ["line_chart"]

_PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8a5bb8", "#c87f1e", "#4d4d4d")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 52


def _nice_step(span: float) -> float:
    raw = span / 6.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float):
    # decade ticks; fall back to two endpoints if the range is sub-decade
    dlo, dhi = math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9)
    if dhi < dlo:
        return [lo, hi]
    return [10.0 ** d for d in range(dlo, dhi + 1)]


def _escape(text: str) -> str:
    """&, < and > escaped, as SVG text content needs."""
    return html.escape(text, quote=False)


# _points lays out a value's text in 8 uint16 words: (pad, sign), the 4 digit
# pairs of the integer part, (".", pad), the 2 decimals and (separator, pad).
# _PAIRS holds "00" to "99" as words, _KEEP the bytes kept for every value,
# and _DIGIT_FROM the least integer part that has a digit at byte 2, ..., 8.
_PAIRS = np.array([list(b"%02d" % k) for k in range(100)], dtype=np.uint8).view(np.uint16)[:, 0]
_KEEP = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0], dtype=bool)
_DIGIT_FROM = [10 ** k for k in range(7, 0, -1)]


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """" ".join("%.2f,%.2f" % p for p in zip(xs, ys)), built in numpy.

    Each value v is written from n = rint(|v| * 100): a "-" when v's sign
    bit is set (as "%.2f" writes it, even for a value that rounds to 0), the
    digits of n // 100 without leading zeros, "." and the two of n % 100.
    The bytes of every value's longest text are laid out in a matrix, and a
    mask keeps those of its text.  Below 1e9, |v| * 100 is within 6e-8 of
    its exact value, so its rint rounds as "%.2f" does unless it lies within
    1e-6 of a half; "%.2f" itself writes those values, any |v| >= 1e7 and
    non-finite v."""
    v = np.column_stack([xs, ys]).ravel()
    a = np.abs(v)
    with np.errstate(over="ignore", invalid="ignore"):
        s = a * 100.0
        fast = (a < 1e7) & (np.abs(s - np.floor(s) - 0.5) >= 1e-6)  # False for inf, NaN
    n = np.rint(np.where(fast, s, 0.0)).astype(np.int32)
    q = n // 100
    words = np.empty((v.size, 8), dtype=np.uint16)
    for col, pair in ((1, q // 1000000), (2, q // 10000 % 100), (3, q // 100 % 100),
                      (4, q % 100), (6, n % 100)):
        words[:, col] = _PAIRS[pair]
    chars = words.view(np.uint8)
    chars[:, 1] = ord("-")
    chars[:, 10] = ord(".")
    chars[0::2, 14] = ord(",")
    chars[1::2, 14] = ord(" ")
    keep = np.empty(chars.shape, dtype=bool)
    keep[:] = _KEEP
    keep[:, 1] = np.signbit(v)
    for col, least in enumerate(_DIGIT_FROM, 2):
        keep[:, col] = q >= least
    keep[~fast, :14] = False
    keep[-1:, 14] = False
    text = chars[keep].tobytes().decode("ascii")
    slow = np.flatnonzero(~fast)
    if slow.size == 0:
        return text
    # a slow value's text goes where its row starts, before its separator
    widths = keep.sum(axis=1)
    starts = (np.cumsum(widths) - widths)[slow].tolist()
    pieces, at = [], 0
    for k, start in zip(slow.tolist(), starts):
        pieces += [text[at:start], "%.2f" % v[k]]
        at = start
    pieces.append(text[at:])
    return "".join(pieces)


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.6g}"
        return s
    return f"{v:.1e}"


class _Axis:
    def __init__(self, values, scale, pix_lo, pix_hi):
        if scale not in ("linear", "log"):
            raise ValidationError(f"axis scale must be linear or log, got {scale!r}")
        self.scale = scale
        vals = np.asarray(values, dtype=float)
        vals = vals[np.isfinite(vals)]
        if scale == "log":
            vals = vals[vals > 0.0]
        if vals.size == 0:
            raise ValidationError("no plottable points for axis")
        lo, hi = float(vals.min()), float(vals.max())
        if scale == "log":
            if hi / lo < 1.0001:
                lo, hi = lo / 2.0, hi * 2.0
            self.lo, self.hi = math.log10(lo), math.log10(hi)
            self.ticks = _log_ticks(lo, hi)
        else:
            if hi - lo < 1e-300:
                lo, hi = lo - 1.0, hi + 1.0
            pad = 0.02 * (hi - lo)
            self.lo, self.hi = lo - pad, hi + pad
            self.ticks = _linear_ticks(self.lo, self.hi)
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def pix(self, v: float):
        t = math.log10(v) if self.scale == "log" else v
        frac = (t - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def pixels(self, values: np.ndarray) -> np.ndarray:
        """pix over a 1-D array, equal to it bit for bit: the same operations
        in the same order, and the log taken by math.log10 per value, since
        numpy's vectorized log10 may differ in the last bit."""
        t = np.array(list(map(math.log10, values.tolist()))) if self.scale == "log" else values
        return self.pix_lo + (t - self.lo) / (self.hi - self.lo) * (self.pix_hi - self.pix_lo)


def line_chart(path, series, title="", xlabel="t", ylabel="",
               xscale="linear", yscale="linear") -> None:
    """Write an SVG chart of one or more (label, xs, ys) series."""
    if not series:
        raise ValidationError("line_chart needs at least one series")
    keep = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValidationError(f"series {label!r}: xs and ys must be equal-length 1-D")
        mask = np.isfinite(xs) & np.isfinite(ys)
        if xscale == "log":
            mask &= xs > 0.0
        if yscale == "log":
            mask &= ys > 0.0
        keep.append((label, xs, mask, ys[mask]))
    ax = _Axis(np.concatenate([xs[mask] for _, xs, mask, _ in keep]), xscale, _ML, _W - _MR)
    ay = _Axis(np.concatenate([s[3] for s in keep]), yscale, _H - _MB, _MT)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_W / 2}" y="22" text-anchor="middle" '
                   f'font-size="15">{_escape(title)}</text>')

    for tv in ax.ticks:
        px = ax.pix(tv)
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle">'
                   f'{_escape(_fmt(tv))}</text>')
    for tv in ay.ticks:
        py = ay.pix(tv)
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end">'
                   f'{_escape(_fmt(tv))}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                   f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        ypos = (_MT + _H - _MB) / 2
        out.append(f'<text x="16" y="{ypos}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {ypos})">{_escape(ylabel)}</text>')

    # series often share their x array (and mask), which is mapped once
    xpix = {}  # (id of an x array, its mask's bytes) -> pixels
    for k, (label, xs, mask, ys) in enumerate(keep):
        color = _PALETTE[k % len(_PALETTE)]
        if ys.size:
            key = (id(xs), mask.tobytes())
            if key not in xpix:
                xpix[key] = ax.pixels(xs[mask])
            out.append(f'<polyline points="{_points(xpix[key], ay.pixels(ys))}" '
                       f'fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        ly = _MT + 16 + 18 * k
        out.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 104}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 98}" y="{ly}">{_escape(str(label))}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
