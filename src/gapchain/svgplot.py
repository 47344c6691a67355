"""Self-contained deterministic SVG line plots.

The CLI contracts byte-identical artifacts for identical inputs, which
rules out plotting libraries that embed timestamps, random ids, or
version strings in their output.  This writer emits plain SVG 1.1 from
fixed format strings: same data in, same bytes out, on any platform
with IEEE doubles.

Conventions shared with the CLI: one fixed colour palette indexed by
series order; "filled" circle markers for exact/reference curves and
"open" circles for approximate/comparison curves; an optional log10 y
axis for quantities spanning decades (points with y <= 0 are dropped
from log plots, and a gap is left in the line there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "render_line_plot"]

PALETTE = ("#1f5fa8", "#c23a22", "#2e7d32", "#7b1fa2", "#c77f02", "#37474f")

MARKERS = ("none", "filled", "open")

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_B = 64.0, 18.0, 48.0


@dataclass(frozen=True)
class Series:
    """One plotted curve; marker is 'none', 'filled', or 'open'."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""
    marker: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("series x and y must be 1-d and equally long")
        if self.x.size == 0:
            raise ValueError(f"series {self.label!r} is empty")
        if self.marker not in MARKERS:
            raise ValueError("marker must be 'none', 'filled', or 'open'")


def _fmt(v: float) -> str:
    """Tick label: shortest unambiguous decimal."""
    s = f"{v:.10g}"
    return "0" if s == "-0" else s


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5):
    """Tick positions at 1/2/5 x 10^k steps covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("axis range is not finite")
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks, lo, hi


def _decade_ticks(lo: float, hi: float):
    """Integer-decade ticks for a log10 axis, padded to >= 2 ticks."""
    lo_d, hi_d = math.floor(lo), math.ceil(hi)
    if hi_d == lo_d:
        hi_d += 1
    return [float(d) for d in range(lo_d, hi_d + 1)], float(lo_d), float(hi_d)


def _segments(x, y):
    """Split a curve at non-finite points so gaps stay gaps."""
    good = np.isfinite(x) & np.isfinite(y)
    runs = []
    start = None
    for i, ok in enumerate(good):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, good.size))
    return runs


def render_line_plot(series_list, xlabel="", ylabel="", title="",
                     log_y=False, marker_stride=1) -> str:
    """Render curves to a 640 x 440 SVG 1.1 document string.

    marker_stride draws every k-th marker so dense series stay legible;
    the line itself always uses every point.
    """
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to plot: no series given")
    if marker_stride < 1:
        raise ValueError("marker_stride must be >= 1")

    plotted = []
    for s in series_list:
        x, y = s.x.copy(), s.y.copy()
        if log_y:
            y = np.where(y > 0.0, y, np.nan)
            with np.errstate(invalid="ignore"):
                y = np.log10(y)
        plotted.append((s, x, y))

    all_x = np.concatenate([x[np.isfinite(x) & np.isfinite(y)]
                            for _, x, y in plotted])
    all_y = np.concatenate([y[np.isfinite(x) & np.isfinite(y)]
                            for _, x, y in plotted])
    if all_y.size == 0:
        raise ValueError("nothing to plot: no finite points"
                         + (" (log scale drops y <= 0)" if log_y else ""))

    xticks, x_lo, x_hi = _nice_ticks(float(all_x.min()), float(all_x.max()))
    if log_y:
        yticks, y_lo, y_hi = _decade_ticks(float(all_y.min()),
                                           float(all_y.max()))
    else:
        yticks, y_lo, y_hi = _nice_ticks(float(all_y.min()),
                                         float(all_y.max()))

    top = 34.0 if title else 16.0
    px0, px1 = _MARGIN_L, _WIDTH - _MARGIN_R
    py0, py1 = _HEIGHT - _MARGIN_B, top  # y grows downward in SVG

    def sx(v):
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py0 + (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        '<g font-family="Helvetica, Arial, sans-serif" font-size="12" '
        'fill="#222222">',
    ]
    if title:
        out.append(f'<text x="{_coord(_WIDTH / 2)}" y="20" '
                   f'text-anchor="middle" font-size="14">{_escape(title)}</text>')

    # frame and ticks
    out.append(f'<rect x="{_coord(px0)}" y="{_coord(py1)}" '
               f'width="{_coord(px1 - px0)}" height="{_coord(py0 - py1)}" '
               f'fill="none" stroke="#222222" stroke-width="1"/>')
    for v in xticks:
        gx = sx(v)
        out.append(f'<line x1="{_coord(gx)}" y1="{_coord(py0)}" '
                   f'x2="{_coord(gx)}" y2="{_coord(py0 + 4)}" '
                   f'stroke="#222222" stroke-width="1"/>')
        out.append(f'<text x="{_coord(gx)}" y="{_coord(py0 + 17)}" '
                   f'text-anchor="middle">{_fmt(v)}</text>')
    for v in yticks:
        gy = sy(v)
        label = f"1e{int(v)}" if log_y else _fmt(v)
        out.append(f'<line x1="{_coord(px0 - 4)}" y1="{_coord(gy)}" '
                   f'x2="{_coord(px0)}" y2="{_coord(gy)}" '
                   f'stroke="#222222" stroke-width="1"/>')
        out.append(f'<text x="{_coord(px0 - 7)}" y="{_coord(gy + 4)}" '
                   f'text-anchor="end">{label}</text>')
    if xlabel:
        out.append(f'<text x="{_coord((px0 + px1) / 2)}" '
                   f'y="{_coord(_HEIGHT - 10)}" '
                   f'text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        cx, cy = 15.0, (py0 + py1) / 2
        out.append(f'<text x="{_coord(cx)}" y="{_coord(cy)}" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 {_coord(cx)} {_coord(cy)})">'
                   f'{_escape(ylabel)}</text>')

    # curves
    for i, (s, x, y) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        for a, b in _segments(x, y):
            if b - a < 2:
                continue
            pts = " ".join(f"{_coord(sx(xv))},{_coord(sy(yv))}"
                           for xv, yv in zip(x[a:b], y[a:b]))
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        if s.marker != "none":
            fill = color if s.marker == "filled" else "#ffffff"
            for a, b in _segments(x, y):
                for j in range(a, b, marker_stride):
                    out.append(
                        f'<circle cx="{_coord(sx(x[j]))}" '
                        f'cy="{_coord(sy(y[j]))}" r="3" fill="{fill}" '
                        f'stroke="{color}" stroke-width="1"/>')

    # legend, top-right inside the frame
    labelled = [(i, s) for i, (s, _, _) in enumerate(plotted) if s.label]
    if labelled:
        lw = 12 + 7 * max(len(s.label) for _, s in labelled) + 26
        lx, ly = px1 - lw - 6, py1 + 6
        lh = 18 * len(labelled) + 6
        out.append(f'<rect x="{_coord(lx)}" y="{_coord(ly)}" '
                   f'width="{_coord(lw)}" height="{_coord(lh)}" '
                   f'fill="#ffffff" stroke="#bbbbbb" stroke-width="1"/>')
        for row, (i, s) in enumerate(labelled):
            color = PALETTE[i % len(PALETTE)]
            yy = ly + 15 + 18 * row
            out.append(f'<line x1="{_coord(lx + 6)}" y1="{_coord(yy - 4)}" '
                       f'x2="{_coord(lx + 24)}" y2="{_coord(yy - 4)}" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            if s.marker != "none":
                fill = color if s.marker == "filled" else "#ffffff"
                out.append(f'<circle cx="{_coord(lx + 15)}" '
                           f'cy="{_coord(yy - 4)}" r="3" fill="{fill}" '
                           f'stroke="{color}" stroke-width="1"/>')
            out.append(f'<text x="{_coord(lx + 30)}" y="{_coord(yy)}">'
                       f'{_escape(s.label)}</text>')

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
