"""Minimal self-contained SVG polyline charts.

No plotting dependency: runs emit small standalone .svg files with linear
or logarithmic axes, decade/nice-step ticks and a legend. Points that a log
axis cannot show (nonpositive values) are dropped from that series.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

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
        keep.append((label, xs[mask], ys[mask]))
    ax = _Axis(np.concatenate([s[1] for s in keep]), xscale, _ML, _W - _MR)
    ay = _Axis(np.concatenate([s[2] for s in keep]), yscale, _H - _MB, _MT)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if title:
        out.append(f'<text x="{_W / 2}" y="22" text-anchor="middle" '
                   f'font-size="15">{escape(title)}</text>')

    for tv in ax.ticks:
        px = ax.pix(tv)
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle">'
                   f'{escape(_fmt(tv))}</text>')
    for tv in ay.ticks:
        py = ay.pix(tv)
        out.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" y2="{py:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" text-anchor="end">'
                   f'{escape(_fmt(tv))}</text>')
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                   f'text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        ypos = (_MT + _H - _MB) / 2
        out.append(f'<text x="16" y="{ypos}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {ypos})">{escape(ylabel)}</text>')

    for k, (label, xs, ys) in enumerate(keep):
        color = _PALETTE[k % len(_PALETTE)]
        if xs.size:
            xy = np.column_stack([ax.pixels(xs), ay.pixels(ys)]).ravel().tolist()
            pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(xy)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        ly = _MT + 16 + 18 * k
        out.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 104}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 98}" y="{ly}">{escape(str(label))}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
