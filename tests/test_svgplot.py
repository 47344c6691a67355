"""Deterministic SVG plot writer: bytes, structure, and scales."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gapchain.svgplot import PALETTE, Series, render_line_plot

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
        dense = render_line_plot(two_series(), marker_stride=1)
        thin = render_line_plot(two_series(), marker_stride=10)
        n_dense = len(parse(dense).findall(".//svg:circle", NS))
        n_thin = len(parse(thin).findall(".//svg:circle", NS))
        assert n_thin < n_dense

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
