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
from log plots, and a gap is left in the line there).  Every k-th point
carries a marker, k = max(1, n // 40) for the longest series' length n,
so that dense series stay legible; the lines join every point.
"""

from __future__ import annotations

import math
import sys
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


def _coord(v) -> str:
    """A coordinate to two decimals; a string is written as it is."""
    return v if isinstance(v, str) else f"{v:.2f}"


def _escape(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _line(x1, y1, x2, y2, stroke="#222222", width="1") -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
            f'y2="{_coord(y2)}" stroke="{stroke}" stroke-width="{width}"/>')


def _circle(cx, cy, color, marker) -> str:
    fill = color if marker == "filled" else "#ffffff"
    return (f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="3" fill="{fill}" '
            f'stroke="{color}" stroke-width="1"/>')


def _text(x, y, body, attrs="") -> str:
    return f'<text x="{_coord(x)}" y="{_coord(y)}"{attrs}>{body}</text>'


def _step(raw: float) -> float:
    """The smallest 1/2/5 x 10^k step no finer than raw."""
    mag = 10.0 ** math.floor(math.log10(raw))
    return next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw)


def _nice_ticks(lo: float, hi: float, target: int = 5):
    """Tick positions at 1/2/5 x 10^k steps covering [lo, hi].

    A span that ten-digit labels cannot resolve is padded to half the
    larger of |lo| and 1 on each side, so that the ticks step and their
    labels differ: a span of 1e-9 of the larger |end| or less (a flat axis
    included), one whose step is finer than 1e-9 of the larger |end|'s
    decade, or one whose raw step (hi - lo) / target is below the smallest
    normal double, where 10^k of its decade would underflow.
    """
    big, raw = max(abs(lo), abs(hi)), (hi - lo) / target
    if raw < sys.float_info.min or hi - lo <= 1e-9 * big or (math.isfinite(
            raw) and _step(raw) < 10.0 ** (math.floor(math.log10(big)) - 9)):
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ValueError("axis range is not finite")
    step = _step((hi - lo) / target)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks, lo, hi


def _decade_ticks(lo: float, hi: float):
    """Whole-decade ticks for a log10 axis, padded to >= 2 ticks: every
    decade up to ten, then every 2, 5, 10, 20, ... decades (_step for ten
    ticks), with the axis ends on ticks."""
    lo_d, hi_d = math.floor(lo), math.ceil(hi)
    if hi_d == lo_d:
        hi_d += 1
    step = max(1, int(_step((hi_d - lo_d) / 10)))
    lo_d, hi_d = lo_d // step * step, -(-hi_d // step) * step
    return [float(d) for d in range(lo_d, hi_d + 1, step)], float(lo_d), float(hi_d)


def _segments(good):
    """(start, stop) of each run of True in good: the unbroken pieces of a
    curve whose non-finite points leave gaps."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], good, [0]))))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def render_line_plot(series_list, xlabel="", ylabel="", title="",
                     log_y=False) -> str:
    """Render curves to a 640 x 440 SVG 1.1 document string."""
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to plot: no series given")
    stride = max(1, max(s.x.size for s in series_list) // 40)

    plotted = []  # (series, plotted y, finite mask)
    for s in series_list:
        y = s.y
        if log_y:
            with np.errstate(invalid="ignore"):
                y = np.log10(np.where(y > 0.0, y, np.nan))
        plotted.append((s, y, np.isfinite(s.x) & np.isfinite(y)))

    all_x = np.concatenate([s.x[good] for s, _, good in plotted])
    all_y = np.concatenate([y[good] for _, y, good in plotted])
    if all_y.size == 0:
        raise ValueError("nothing to plot: no finite points"
                         + (" (log scale drops y <= 0)" if log_y else ""))

    xticks, x_lo, x_hi = _nice_ticks(float(all_x.min()), float(all_x.max()))
    yticks, y_lo, y_hi = (_decade_ticks if log_y else _nice_ticks)(
        float(all_y.min()), float(all_y.max()))

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
        out.append(_text(_WIDTH / 2, "20", _escape(title),
                         ' text-anchor="middle" font-size="14"'))

    # frame and ticks
    out.append(f'<rect x="{_coord(px0)}" y="{_coord(py1)}" '
               f'width="{_coord(px1 - px0)}" height="{_coord(py0 - py1)}" '
               f'fill="none" stroke="#222222" stroke-width="1"/>')
    for v in xticks:
        gx = sx(v)
        out += [_line(gx, py0, gx, py0 + 4),
                _text(gx, py0 + 17, _fmt(v), ' text-anchor="middle"')]
    for v in yticks:
        gy = sy(v)
        out += [_line(px0 - 4, gy, px0, gy),
                _text(px0 - 7, gy + 4, f"1e{int(v)}" if log_y else _fmt(v),
                      ' text-anchor="end"')]
    if xlabel:
        out.append(_text((px0 + px1) / 2, _HEIGHT - 10, _escape(xlabel),
                         ' text-anchor="middle"'))
    if ylabel:
        cx, cy = 15.0, (py0 + py1) / 2
        out.append(_text(cx, cy, _escape(ylabel), ' text-anchor="middle" '
                         f'transform="rotate(-90 {_coord(cx)} {_coord(cy)})"'))

    # curves
    for i, (s, y, good) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        px, py = sx(s.x), sy(y)
        runs = _segments(good)
        for a, b in runs:
            if b - a > 1:
                pts = " ".join(f"{_coord(u)},{_coord(v)}"
                               for u, v in zip(px[a:b], py[a:b]))
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
        if s.marker != "none":
            out += [_circle(px[j], py[j], color, s.marker)
                    for a, b in runs for j in range(a, b, stride)]

    # legend, top-right inside the frame
    labelled = [(i, s) for i, s in enumerate(series_list) if s.label]
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
            out.append(_line(lx + 6, yy - 4, lx + 24, yy - 4, color, "1.5"))
            if s.marker != "none":
                out.append(_circle(lx + 15, yy - 4, color, s.marker))
            out.append(_text(lx + 30, yy, _escape(s.label)))

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
