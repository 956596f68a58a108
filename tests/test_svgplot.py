"""SVG chart emission: well-formed XML, series handling, axis scales."""

import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from proxdyn.errors import ValidationError
from proxdyn import svgplot
from proxdyn.svgplot import line_chart

NS = "{http://www.w3.org/2000/svg}"


def chart(tmp_path, series, **kw):
    path = tmp_path / "chart.svg"
    line_chart(path, series, **kw)
    return ET.parse(path).getroot()


def test_emits_parseable_svg_with_polylines(tmp_path):
    ts = np.linspace(1.0, 10.0, 50)
    root = chart(tmp_path, [("a", ts, 1.0 / ts), ("b", ts, 2.0 / ts)],
                 title="decay", xscale="log", yscale="log")
    assert root.tag == f"{NS}svg"
    polylines = root.findall(f"{NS}polyline")
    assert len(polylines) == 2
    texts = [el.text for el in root.findall(f"{NS}text")]
    assert "decay" in texts
    assert "a" in texts and "b" in texts


def test_log_axis_drops_nonpositive_points(tmp_path):
    ts = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.array([1.0, 0.0, -1.0, 2.0])
    root = chart(tmp_path, [("s", ts, ys)], yscale="log")
    pts = root.find(f"{NS}polyline").get("points").split()
    assert len(pts) == 2


def test_linear_chart_keeps_all_finite_points(tmp_path):
    ts = np.linspace(0.0, 1.0, 20)
    ys = np.sin(ts)
    root = chart(tmp_path, [("sin", ts, ys)])
    pts = root.find(f"{NS}polyline").get("points").split()
    assert len(pts) == 20


def test_flat_series_still_renders(tmp_path):
    ts = np.linspace(1.0, 2.0, 5)
    root = chart(tmp_path, [("const", ts, np.ones(5))], yscale="log")
    assert root.find(f"{NS}polyline") is not None


def test_axes_at_the_ends_of_the_doubles(tmp_path):
    # a linear t axis one double wide at 1e154, whose tick step lies below
    # the spacing of the doubles there
    t0 = 1.0885586470282513e+154
    ts = np.array([t0, np.nextafter(t0, np.inf)])
    root = chart(tmp_path, [("x", ts, np.array([1.0, 2.0]))])
    assert len(root.find(f"{NS}polyline").get("points").split()) == 2
    # flat series on a log axis, which is widened by a factor 2 each way, at
    # the smallest and the largest double
    for v in (5e-324, sys.float_info.max):
        root = chart(tmp_path, [("flat", ts, np.full(2, v))], yscale="log")
        assert len(root.find(f"{NS}polyline").get("points").split()) == 2


@pytest.mark.parametrize("xs, ys", [
    # flat at 1e17, where widening by 1 each way is lost to rounding
    ([1.0, 2.0], [1e17, 1e17]),
    ([1.0, 2.0], [-sys.float_info.max, -sys.float_info.max]),
    # a span that overflows
    ([1.0, 2.0], [-1.7e308, 1.7e308]),
    # padded by 2%, the t axis of a run to the largest horizon overflowed
    ([1.4, 1.79e308], [0.0, 1.0]),
], ids=["flat-1e17", "flat-max", "span-overflows", "pad-overflows"])
def test_linear_axes_of_any_finite_data(tmp_path, xs, ys):
    root = chart(tmp_path, [("s", np.array(xs), np.array(ys))])
    points = [tuple(map(float, p.split(","))) for p in
              root.find(f"{NS}polyline").get("points").split()]
    assert len(points) == 2
    # inside the plot area, with finite ticks
    for x, y in points:
        assert svgplot._ML <= x <= svgplot._W - svgplot._MR
        assert svgplot._MT <= y <= svgplot._H - svgplot._MB
    for axis in (svgplot._Axis(xs, "linear", 0, 1), svgplot._Axis(ys, "linear", 0, 1)):
        assert axis.ticks and all(math.isfinite(v) for v in axis.ticks)
        assert 0.0 < axis.hi - axis.lo < math.inf


def test_title_is_escaped(tmp_path):
    ts = np.array([1.0, 2.0])
    root = chart(tmp_path, [("s", ts, ts)], title="a < b & c")
    texts = [el.text for el in root.findall(f"{NS}text")]
    assert "a < b & c" in texts


def test_rejects_bad_input(tmp_path):
    with pytest.raises(ValidationError):
        line_chart(tmp_path / "x.svg", [])
    with pytest.raises(ValidationError):
        line_chart(tmp_path / "x.svg", [("s", [1, 2], [1, 2, 3])])
    with pytest.raises(ValidationError):
        line_chart(tmp_path / "x.svg", [("s", [1, 2], [1, 2])], xscale="cubic")
    with pytest.raises(ValidationError):
        # nothing plottable on a log axis
        line_chart(tmp_path / "x.svg", [("s", [1, 2], [-1, -2])], yscale="log")


def pix(axis, v):
    """The pixel of one value on axis: the map _Axis.pixels applies to an
    array, written for one float."""
    t = math.log10(v) if axis.scale == "log" else v * axis.unit
    frac = (t - axis.lo) / (axis.hi - axis.lo)
    return axis.pix_lo + frac * (axis.pix_hi - axis.pix_lo)


def pointwise_reference(series, xscale, yscale):
    """The axes line_chart builds, and each series' points text made one
    point at a time with the scalar pix."""
    kept = []
    for _, xs, ys in series:
        mask = np.isfinite(xs) & np.isfinite(ys)
        if xscale == "log":
            mask &= xs > 0.0
        if yscale == "log":
            mask &= ys > 0.0
        kept.append((xs[mask], ys[mask]))
    ax = svgplot._Axis(np.concatenate([xs for xs, _ in kept]), xscale,
                       svgplot._ML, svgplot._W - svgplot._MR)
    ay = svgplot._Axis(np.concatenate([ys for _, ys in kept]), yscale,
                       svgplot._H - svgplot._MB, svgplot._MT)
    points = [" ".join(f"{pix(ax, x):.2f},{pix(ay, y):.2f}" for x, y in zip(xs, ys))
              for xs, ys in kept]
    return ax, ay, kept, points


@pytest.mark.parametrize("scale", ["log", "linear"])
def test_polylines_equal_pointwise_pix(tmp_path, monkeypatch, scale):
    rng = np.random.default_rng(3)
    ts = np.geomspace(1.0, 140.0, 2000) if scale == "log" else np.linspace(-3.0, 140.0, 2000)
    noisy = rng.lognormal(0.0, 8.0, ts.size)
    noisy[::97] = np.nan
    noisy[5:10] = [np.inf, -np.inf, 0.0, -0.0, -2.0]
    series = [("decay", ts, 1.0 / ts ** 2),
              ("noisy", ts, noisy),
              # nothing left after masking: no polyline, the legend entry stays
              ("empty", ts, np.full(ts.size, -1.0 if scale == "log" else np.nan)),
              # on a log axis the largest and smallest y, which map to the axis ends
              ("ends", ts[:3], np.array([noisy.max(), 1.0, 5e-324])),
              # the x array and mask of "decay": mapped once for both
              ("decay/2", ts, 0.5 / ts ** 2)]
    calls = []
    words = svgplot._words
    monkeypatch.setattr(svgplot, "_words", lambda values: calls.append(values.size) or words(values))
    root = chart(tmp_path, series, xscale=scale, yscale=scale)
    ax, ay, kept, points = pointwise_reference(series, scale, scale)
    assert kept[2][0].size == 0
    got = {el.get("stroke"): el.get("points") for el in root.findall(f"{NS}polyline")}
    assert got == {svgplot._PALETTE[k]: pts for k, pts in enumerate(points) if pts}
    assert len(got) == 4
    # words of x: decay (and decay/2), noisy and ends; of y: the four drawn
    assert len(calls) == 3 + 4
    for xs, ys in kept:
        for axis, values in ((ax, xs), (ay, ys)):
            pointwise = np.array([pix(axis, v) for v in values], dtype=float)
            assert axis.pixels(values).tobytes() == pointwise.tobytes()


# halves that %.2f rounds by their exact binary value, -0.0, negatives that
# round to -0.00, the largest pixel, and values on both sides of 1e7
EDGES = [0.125, 0.375, 2.675, 1.005, -0.0, 0.0, -0.001, -0.005, -0.0049999, 719.995,
         720.0, 9999999.99, 9999999.994, 9999999.995, 1e7, -1e7, 1.0000001e7, 5e-324]


@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats(-2e7, 2e7),
                                    st.floats(allow_nan=True, allow_infinity=True)),
                          st.one_of(st.sampled_from(EDGES), st.floats(-1e3, 1e3))),
                max_size=40))
@example([])
@example([(v, -v) for v in EDGES])
@hyp_settings(max_examples=300, deadline=None)
def test_points_text_equals_percent_format(points):
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    assert svgplot._points(xs, ys) == " ".join("%.2f,%.2f" % p for p in points)


def test_series_sharing_x_with_differing_masks(tmp_path, monkeypatch):
    # one x array, three masks: each (x array, mask) gets its own x words,
    # and a series with the mask of an earlier one reuses them
    ts = np.geomspace(1.0, 50.0, 300)
    holes, negative = 1.0 / ts, 3.0 / ts
    holes[::3] = np.nan
    negative[::5] = -1.0
    series = [("whole", ts, 1.0 / ts), ("holes", ts, holes), ("negative", ts, negative),
              ("whole/2", ts, 0.5 / ts)]
    calls = []
    words = svgplot._words
    monkeypatch.setattr(svgplot, "_words", lambda values: calls.append(values.size) or words(values))
    root = chart(tmp_path, series, xscale="log", yscale="log")
    points = pointwise_reference(series, "log", "log")[3]
    assert [el.get("points") for el in root.findall(f"{NS}polyline")] == points
    assert calls == [300, 300, 200, 200, 240, 240, 300]


def tie_values(lo, hi, pix_lo, pix_hi, rng, count=200):
    """lo, hi and up to count values between them whose exact pixel on the
    log axis from lo to hi lies within 1e-9 px of a half-cent tie."""
    axis = svgplot._Axis([lo, hi], "log", pix_lo, pix_hi)
    values = [lo, hi]
    span = abs(pix_hi - pix_lo)
    for cents in rng.integers(1, int(span * 100) - 1, count):
        tie = min(pix_lo, pix_hi) + (cents + 0.5) / 100
        guess = 10.0 ** (axis.lo + (tie - pix_lo) / (pix_hi - pix_lo) * (axis.hi - axis.lo))
        near = [v for v in guess * (1.0 + 2.0 ** -52 * np.arange(-40, 41))
                if lo < v < hi and abs(pix(axis, v) - tie) < 1e-9]
        values += near[:1]
    return np.array(values), axis


# a wide log axis (about 13 px per decade) and two nearly flat ones (hi / lo
# just above 1.0001: a pixel spans about 1e-7 decades).  Near 3e5 the
# pixels of adjacent doubles lie 8e-9 px apart, so fewer values get close
TIE_AXES = [(1e-30, 1e1), (1.0, 1.00010001), (3.0e5, 3.0e5 * 1.00010001)]


@pytest.mark.parametrize("lo, hi", TIE_AXES)
def test_log_pixels_near_ties_give_exact_text(tmp_path, lo, hi):
    rng = np.random.default_rng(7)
    ys, ay = tie_values(lo, hi, svgplot._H - svgplot._MB, svgplot._MT, rng)
    assert ys.size > 40
    exact = ["%.2f" % pix(ay, v) for v in ys]
    assert ["%.2f" % p for p in ay.line_pixels(ys)] == exact
    xs = tie_values(lo, hi, svgplot._ML, svgplot._W - svgplot._MR, rng, ys.size - 2)[0]
    xs = np.resize(xs, ys.size)
    series = [("ties", xs, ys)]
    root = chart(tmp_path, series, xscale="log", yscale="log")
    assert root.find(f"{NS}polyline").get("points") == pointwise_reference(series, "log", "log")[3][0]


@pytest.mark.parametrize("lo, hi", TIE_AXES)
def test_log_pixels_near_ties_with_a_log10_off_by_ulps(monkeypatch, lo, hi):
    # a vectorized log10 up to 4 ulp away from math.log10 (numpy's AVX-512
    # log10 was measured within 2) still gives every pixel's exact text
    rng = np.random.default_rng(11)
    ys, ay = tie_values(lo, hi, svgplot._H - svgplot._MB, svgplot._MT, rng)
    log10 = np.log10

    def off_by_ulps(values):
        t = log10(values)
        return t + np.spacing(t) * rng.integers(-4, 5, t.shape)

    monkeypatch.setattr(np, "log10", off_by_ulps)
    assert ["%.2f" % p for p in ay.line_pixels(ys)] == ["%.2f" % pix(ay, v) for v in ys]
