"""Deterministic SVG plot writer: bytes, structure, and scales."""

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gapchain.svgplot import PALETTE, Series, _fmt, _nice_ticks, render_line_plot

NS = {"svg": "http://www.w3.org/2000/svg"}


def two_series():
    t = np.linspace(0.0, 10.0, 41)
    return [
        Series(t, np.exp(-0.2 * t), label="exact", marker="filled"),
        Series(t, np.exp(-0.25 * t), label="approx", marker="open"),
    ]


def parse(svg):
    return ET.fromstring(svg)


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        a = render_line_plot(two_series(), xlabel="t", ylabel="p", title="x")
        b = render_line_plot(two_series(), xlabel="t", ylabel="p", title="x")
        assert a.encode() == b.encode()

    def test_different_data_different_bytes(self):
        a = render_line_plot(two_series())
        other = two_series()
        other[0].y[3] += 1e-3
        assert a != render_line_plot(other)

    def test_no_volatile_content(self):
        svg = render_line_plot(two_series())
        for needle in ("id=", "date", "time", "uuid"):
            assert needle not in svg


class TestStructure:
    def test_parses_as_xml_with_svg_root(self):
        root = parse(render_line_plot(two_series(), title="T & <check>"))
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"

    def test_polyline_per_series(self):
        root = parse(render_line_plot(two_series()))
        lines = root.findall(".//svg:polyline", NS)
        assert len(lines) == 2
        assert lines[0].get("stroke") == PALETTE[0]
        assert lines[1].get("stroke") == PALETTE[1]

    def test_filled_vs_open_markers(self):
        root = parse(render_line_plot(two_series()))
        circles = root.findall(".//svg:circle", NS)
        fills = {c.get("fill") for c in circles}
        assert PALETTE[0] in fills       # filled markers carry the colour
        assert "#ffffff" in fills        # open markers are white-filled
        open_markers = [c for c in circles if c.get("fill") == "#ffffff"
                        and c.get("stroke") == PALETTE[1]]
        assert open_markers

    def test_marker_stride_thins_markers(self):
        # every k-th point carries a marker, k = max(1, n // 40) for the
        # longest series' length n, and a shorter series shares that k
        for sizes, kept in (((41,), [range(41)]),
                            ((401, 41), [range(0, 401, 10), range(0, 41, 10)])):
            series = [Series(np.arange(n, dtype=float), np.arange(n) % 7.0,
                             marker="filled") for n in sizes]
            root = parse(render_line_plot(series))
            cx = [c.get("cx") for c in root.findall(".//svg:circle", NS)]
            line_x = [[p.split(",")[0] for p in line.get("points").split()]
                      for line in root.findall(".//svg:polyline", NS)]
            assert cx == [xs[j] for xs, js in zip(line_x, kept) for j in js]

    def test_legend_labels_present(self):
        root = parse(render_line_plot(two_series()))
        texts = [t.text for t in root.findall(".//svg:text", NS)]
        assert "exact" in texts and "approx" in texts

    def test_axis_labels_and_title(self):
        root = parse(render_line_plot(two_series(), xlabel="t a^2",
                                      ylabel="population", title="decay"))
        texts = [t.text for t in root.findall(".//svg:text", NS)]
        assert {"t a^2", "population", "decay"} <= set(texts)

    def test_gap_at_nan(self):
        t = np.linspace(0.0, 1.0, 11)
        y = t.copy()
        y[5] = math.nan
        root = parse(render_line_plot([Series(t, y)]))
        assert len(root.findall(".//svg:polyline", NS)) == 2


class TestScales:
    def test_tick_labels_cover_data_range(self):
        t = np.linspace(0.0, 7.3, 50)
        root = parse(render_line_plot([Series(t, 2.0 * t)]))
        texts = [t.text for t in root.findall(".//svg:text", NS)]
        numeric = [float(s) for s in texts if _is_number(s)]
        assert min(numeric) <= 0.0 and max(numeric) >= 7.0

    def test_log_scale_decade_ticks(self):
        t = np.linspace(0.0, 10.0, 201)
        svg = render_line_plot([Series(t, np.exp(-2.0 * t))], log_y=True)
        assert "1e0" in svg and "1e-9" in svg

    def test_log_scale_single_decade_padded(self):
        # positive data on one power of ten: floor and ceil of log10 agree,
        # so the axis is padded up to the next decade
        t = np.linspace(0.0, 1.0, 11)
        root = parse(render_line_plot([Series(t, np.full(11, 100.0))], log_y=True))
        texts = [e.text for e in root.findall(".//svg:text", NS)]
        assert "1e2" in texts and "1e3" in texts and "1e1" not in texts

    def test_log_scale_drops_nonpositive_points(self):
        t = np.linspace(0.0, 1.0, 11)
        y = np.concatenate([np.full(5, -1.0), np.full(6, 0.5)])
        root = parse(render_line_plot([Series(t, y)], log_y=True))
        assert len(root.findall(".//svg:polyline", NS)) == 1

    def test_log_scale_no_positive_data_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="log scale drops"):
            render_line_plot([Series(t, -np.ones(11))], log_y=True)

    def test_log_positions_are_in_log_space(self):
        # equal decade jumps must land equally far apart on screen
        t = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.1, 0.01])
        root = parse(render_line_plot([Series(t, y)], log_y=True))
        pts = root.find(".//svg:polyline", NS).get("points").split()
        ys = [float(p.split(",")[1]) for p in pts]
        assert abs((ys[1] - ys[0]) - (ys[2] - ys[1])) < 0.05


class TestTicks:
    @pytest.mark.parametrize("lo, hi", [(1e16, 1e16 + 4), (1.0, 1.0 + 1e-12),
                                        (1.0, 1.0 + 2e-9), (0.0, 5e-324),
                                        (0.0, 2e-323), (0.0, 1e-310)])
    def test_span_finer_than_labels_is_padded(self, time_limit, lo, hi):
        # a step of 4 cannot move 1e16, and 1e-12 is past ten-digit labels,
        # as is the step of 5e-10 that a span of 2e-9 takes; a raw step below
        # the smallest normal double has none: 5e-324 / 5 is 0, and 10^k of
        # the decade of 2e-323 / 5 underflows to 0
        with time_limit(2):
            ticks, axis_lo, axis_hi = _nice_ticks(lo, hi)
        labels = [_fmt(v) for v in ticks]
        assert 3 <= len(set(labels)) == len(labels) <= 7
        assert axis_lo < lo and hi < axis_hi

    def test_step_at_the_label_resolution_keeps_its_ticks(self):
        # a step of 2e-9 is one that ten-digit labels near 1 resolve
        ticks, axis_lo, axis_hi = _nice_ticks(1.0, 1.0 + 6e-9)
        assert [_fmt(v) for v in ticks] == [
            "1", "1.000000002", "1.000000004", "1.000000006"]
        assert (axis_lo, axis_hi) == (1.0, 1.0 + 6e-9)

    def test_log_axis_steps_whole_decades(self):
        # 600 decades: a tick every 100 of them, with the axis ends on ticks
        svg = render_line_plot([Series([0.0, 1.0, 2.0], [1e-300, 1.0, 1e300])],
                               log_y=True)
        labels = [e.text for e in
                  parse(svg).findall(".//svg:text[@text-anchor='end']", NS)]
        assert labels == [f"1e{k}" for k in range(-300, 301, 100)]


def pinned_cases():
    """Plots built from integers, dyadic fractions and powers of ten (whose
    log10 is exact), so that every coordinate comes from IEEE arithmetic
    and Python's float formatting alone."""
    x41 = np.arange(41.0)
    gap = x41 / 4
    gap[7] = math.nan
    decades = np.array([float(10 ** k) for k in range(9)])
    decades[4] = 0.0  # dropped from the log axis: a gap
    x401 = np.arange(401.0)
    return {
        "two-series-legend-gap": (
            [Series(x41, (x41 - 20) ** 2 / 16, label="exact", marker="filled"),
             Series(x41, gap, label="approx & <fit>", marker="open")],
            dict(xlabel="t", ylabel="p", title="T & <check>")),
        "log-axis": ([Series(np.arange(9.0), decades, label="pop", marker="filled")],
                     dict(xlabel="delta", title="decades", log_y=True)),
        "thinned-markers": ([Series(x401 / 4, np.abs(x401 % 50 - 25) / 4,
                                    marker="open")], dict(ylabel="y")),
    }


# sha256 of the SVG text of each pinned_cases() plot
PINNED_SHA256 = {
    "two-series-legend-gap":
        "40c2275d8e0517c9caf7efca54086c41d75c587618f2f53c2974d8d10946aee6",
    "log-axis":
        "3b27eef10c1acf2f885a424e64bf8f8d718e1fa492f11010c42bf9fc85a8ebbc",
    "thinned-markers":
        "bac31de4bfb5bf0da8049bc6bb7313025588261f6e7d90979aab79dd9b04695a",
}


@pytest.mark.parametrize("case", PINNED_SHA256)
def test_pinned_bytes(case):
    series, options = pinned_cases()[case]
    svg = render_line_plot(series, **options)
    assert hashlib.sha256(svg.encode()).hexdigest() == PINNED_SHA256[case]


class TestValidation:
    def test_no_series_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            render_line_plot([])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="is empty"):
            Series(np.array([]), np.array([]), label="void")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            Series(np.arange(3.0), np.arange(4.0))

    def test_bad_marker_rejected(self):
        with pytest.raises(ValueError, match="marker"):
            Series(np.arange(3.0), np.arange(3.0), marker="square")

    def test_overflowing_axis_span_rejected(self):
        with pytest.raises(ValueError, match="axis range is not finite"):
            render_line_plot([Series([0.0, 1.0], [-1e308, 1e308])])

    def test_flat_series_still_renders(self):
        t = np.linspace(0.0, 1.0, 5)
        svg = render_line_plot([Series(t, np.full(5, 0.3))])
        assert "<polyline" in svg


def _is_number(s):
    if s is None:
        return False
    try:
        float(s)
        return True
    except ValueError:
        return False
