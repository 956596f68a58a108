"""SVG chart emission: well-formed XML, series handling, axis scales."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

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


def pointwise_reference(series, xscale, yscale):
    """The axes line_chart builds, and each series' points text made one
    point at a time with the scalar _Axis.pix."""
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
    points = [" ".join(f"{ax.pix(x):.2f},{ay.pix(y):.2f}" for x, y in zip(xs, ys))
              for xs, ys in kept]
    return ax, ay, kept, points


@pytest.mark.parametrize("scale", ["log", "linear"])
def test_polylines_equal_pointwise_pix(tmp_path, scale):
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
              ("ends", ts[:3], np.array([noisy.max(), 1.0, 5e-324]))]
    root = chart(tmp_path, series, xscale=scale, yscale=scale)
    ax, ay, kept, points = pointwise_reference(series, scale, scale)
    assert kept[2][0].size == 0
    got = {el.get("stroke"): el.get("points") for el in root.findall(f"{NS}polyline")}
    assert got == {svgplot._PALETTE[k]: pts for k, pts in enumerate(points) if pts}
    assert len(got) == 3
    for xs, ys in kept:
        for axis, values in ((ax, xs), (ay, ys)):
            pointwise = np.array([axis.pix(v) for v in values], dtype=float)
            assert axis.pixels(values).tobytes() == pointwise.tobytes()
