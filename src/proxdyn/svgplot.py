"""Minimal self-contained SVG polyline charts.

No plotting dependency: runs emit small standalone .svg files with linear
or logarithmic axes, decade/nice-step ticks and a legend. Points that a log
axis cannot show (nonpositive values) are dropped from that series.
"""

from __future__ import annotations

import html
import math
import sys

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
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # a step below the spacing of doubles at v
            break
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


def _digit_tables():
    """(_INTS, _CENTS): the integer digits of q < 1000 in bytes 1-3, and "."
    and the two digits of c < 100 in bytes 4-6."""
    k = np.arange(1000, dtype=np.uint64)
    ones, tens = k % 10 + 48, k // 10 % 10 + 48
    ints = ((np.where(k >= 100, k // 100 + 48, 0) << 8) | (np.where(k >= 10, tens, 0) << 16)
            | (ones << 24))
    return ints, (ord(".") << 32) | (tens[:100] << 40) | (ones[:100] << 48)


# _words writes a value's "%.2f" text as one little-endian uint64 word, NUL
# where the text has no byte: byte 0 the sign, bytes 1-3 the integer digits
# (leading zeros NUL), byte 4 the ".", bytes 5-6 the cents and byte 7 the
# separator, which _points fills in.  A value "%.2f" must write gets the
# word _SLOW, a lone byte 1 that marks its place in the text.
_INTS, _CENTS = _digit_tables()
_MINUS = np.uint64(ord("-"))
_COMMA, _SPACE = np.uint64(ord(",") << 56), np.uint64(ord(" ") << 56)
_SLOW = 1


def _words(v: np.ndarray) -> np.ndarray:
    """The text of "%.2f" % v for each float64 v as a uint64 word (see
    _INTS), without its separator.

    The word is read from n = rint(|v| * 100): a "-" when v's sign bit is
    set (as "%.2f" writes it, even for a value that rounds to 0), the digits
    of n // 100 and the two of n % 100.  Below 1000, |v| * 100 is within
    1e-11 of its exact value, so its rint rounds as "%.2f" does unless it
    lies within 1e-6 of a half; those values, any |v| >= 1000 (no pixel
    reaches it) and non-finite v get _SLOW, and "%.2f" writes them.  The
    arithmetic is done in place: a fresh array of fig1/n2's 19,489 values
    can cost more in page faults than the operation that fills it."""
    s = np.abs(v)
    with np.errstate(over="ignore", invalid="ignore"):
        s *= 100.0
        n = np.rint(s)
        s -= n  # NaN for inf and NaN
    np.abs(s, out=s)
    fast = s <= 0.5 - 1e-6
    if not n.max(initial=0.0) < 1e5:  # a value of 1000 or more, or not finite
        fast &= n < 1e5
        n[~fast] = 0.0
    n = n.astype(np.intp)
    q = n * 42949673  # ceil(2**32 / 100): (n * 42949673) >> 32 is n // 100 for n < 10**5
    q >>= 32
    n -= q * 100
    words = np.take(_INTS, q)
    words |= np.take(_CENTS, n)
    minus = np.signbit(v)
    if minus.any():
        words[minus] |= _MINUS
    if not fast.all():
        words[~fast] = _SLOW
    return words


def _points(xs: np.ndarray, ys: np.ndarray, xwords=None) -> str:
    """" ".join("%.2f,%.2f" % p for p in zip(xs, ys)), built in numpy.

    xwords, if given, is _words(xs), which series that share xs build once.
    The x and y words are interleaved with their separators and the NULs
    dropped; "%.2f" then writes each _SLOW value in its place."""
    if xwords is None:
        xwords = _words(xs)
    words = np.empty((len(xs), 2), np.uint64)
    np.bitwise_or(xwords, _COMMA, out=words[:, 0])
    ywords = _words(ys)
    np.bitwise_or(ywords, _SPACE, out=words[:, 1])
    words[-1:, 1] = ywords[-1:]  # no separator after the last point
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if "\1" not in text:
        return text
    marks = words.view(np.uint8).ravel()[::8] == _SLOW  # byte 0 of each word
    slow = np.column_stack([xs, ys]).ravel()[marks]
    texts = ["%.2f" % v for v in slow.tolist()] + [""]
    return "".join(piece + t for piece, t in zip(text.split("\1"), texts))


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
                # within the doubles: 5e-324 / 2 is 0, and 2 * 1e308 is inf
                lo, hi = max(lo / 2.0, 5e-324), min(hi * 2.0, sys.float_info.max)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
            self.ticks = _log_ticks(lo, hi)
            # numpy's log10 is within 2 ulp of math.log10 (measured with and
            # without AVX-512), and 64 eps * max(|log10 v|, 1) decades is at
            # least 32 ulp.  tie_window is that error in cents at this axis'
            # pixels per decade, plus _words' 1e-6 (which also covers the
            # rounding after the log, about 1e-10 cents)
            decade = abs(pix_hi - pix_lo) / (self.hi - self.lo)
            self.tie_window = 1e-6 + 100.0 * decade * 64 * 2.0 ** -52 * max(
                abs(self.lo), abs(self.hi), 1.0)
        else:
            # the range padded by 2% of its span, after widening a flat one
            # by 1 each way, or by 2**-50 of its size where rounding would
            # lose the 1.  Where that overflows, the axis is laid out on the
            # values times unit, a power of 2 halved until it does not
            self.unit = 1.0
            while True:
                a, b = lo * self.unit, hi * self.unit
                if b - a < 1e-300:
                    w = max(1.0, abs(a) * 2.0 ** -50)
                    a, b = a - w, b + w
                pad = 0.02 * (b - a)
                self.lo, self.hi = a - pad, b + pad
                if self.hi - self.lo < math.inf:
                    break
                self.unit *= 0.5
            # in the values' own units, but for a tick that overflows there
            self.ticks = [v / self.unit for v in _linear_ticks(self.lo, self.hi)
                          if abs(v / self.unit) < math.inf]
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def pixels(self, values: np.ndarray) -> np.ndarray:
        """The pixel of each value of a 1-D array, with the log taken by
        math.log10 per value, since numpy's vectorized log10 may differ in
        the last bit."""
        if self.scale == "log":
            t = np.array(list(map(math.log10, values.tolist())))
        else:
            t = values if self.unit == 1.0 else values * self.unit
        return self.pix_lo + (t - self.lo) / (self.hi - self.lo) * (self.pix_hi - self.pix_lo)

    def line_pixels(self, values: np.ndarray) -> np.ndarray:
        """pixels(values) as far as the "%.2f" text of each pixel goes.  On a
        log axis the log is numpy's log10, and pixels maps again each value
        whose pixel lies within tie_window cents of a half-cent tie, the only
        pixels whose text a last-bit difference of the log can change.  (A
        pixel lies in [pix_lo, pix_hi], far from the sign change at 0.)"""
        if self.scale != "log":
            return self.pixels(values)
        # pixels' operations in the same order, done in place
        p = np.log10(values)
        p -= self.lo
        p /= self.hi - self.lo
        p *= self.pix_hi - self.pix_lo
        p += self.pix_lo
        s = p * 100.0
        d = np.rint(s)
        np.subtract(s, d, out=d)
        np.abs(d, out=d)
        near = np.flatnonzero(d > 0.5 - self.tie_window)
        if near.size:
            p[near] = self.pixels(values[near])
        return p


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

    for tv, px in zip(ax.ticks, ax.pixels(np.array(ax.ticks, dtype=float)).tolist()):
        out.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" y2="{_H - _MB}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle">'
                   f'{_escape(_fmt(tv))}</text>')
    for tv, py in zip(ay.ticks, ay.pixels(np.array(ay.ticks, dtype=float)).tolist()):
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

    # series often share their x array (and mask), whose pixels and words
    # are made once
    xtext = {}  # (id of an x array, its mask's bytes) -> (pixels, words)
    for k, (label, xs, mask, ys) in enumerate(keep):
        color = _PALETTE[k % len(_PALETTE)]
        if ys.size:
            key = (id(xs), mask.tobytes())
            if key not in xtext:
                xpix = ax.line_pixels(xs[mask])
                xtext[key] = xpix, _words(xpix)
            xpix, xwords = xtext[key]
            out.append(f'<polyline points="{_points(xpix, ay.line_pixels(ys), xwords)}" '
                       f'fill="none" stroke="{color}" '
                       f'stroke-width="1.6"/>')
        ly = _MT + 16 + 18 * k
        out.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 104}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 98}" y="{ly}">{_escape(str(label))}</text>')

    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
