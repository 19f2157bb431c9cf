"""Self-contained deterministic SVG scatter plots of score series.

Plain string assembly, fixed 2-decimal coordinates, no timestamps, no
external references: identical series produce byte-identical files, so
plots can be golden-tested and diffed.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FormatError
from .manifest import write_output
from .speech import ScoreSeries

WIDTH = 800
HEIGHT = 300
MARGIN_LEFT = 50
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 40
POINT_RADIUS = 3.0

# first color doubles as the no-label color
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value: float) -> str:
    return "%.2f" % value


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def plot_coordinates(series: ScoreSeries) -> list[tuple[float, float]]:
    """Pixel position of every data mark, in point order.

    This is the single mapping both the renderer and any coordinate checker
    use: x spreads indices across the plot area, y maps [0,1] scores with 1
    at the top.
    """
    n = len(series.points)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    coords = []
    for point in series.points:
        if n == 1:
            x = MARGIN_LEFT + plot_w / 2.0
        else:
            x = MARGIN_LEFT + plot_w * (point.index - 1) / (n - 1)
        y = MARGIN_TOP + plot_h * (1.0 - point.aldi)
        coords.append((x, y))
    return coords


def render_svg(series: ScoreSeries) -> str:
    if not series.points:
        raise FormatError("cannot plot an empty series")
    labels = sorted({p.di_label for p in series.points if p.di_label})
    color_of = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}

    left = MARGIN_LEFT
    right = WIDTH - MARGIN_RIGHT
    top = MARGIN_TOP
    bottom = HEIGHT - MARGIN_BOTTOM

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="18" font-family="sans-serif" font-size="13">%s (%s)</text>'
        % (left, _escape(series.document_id), _escape(series.estimator_id)),
        # axes
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333"/>'
        % (left, bottom, right, bottom),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333333"/>'
        % (left, top, left, bottom),
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + (bottom - top) * (1.0 - tick)
        parts.append(
            '<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#cccccc"/>'
            % (left, _fmt(y), right, _fmt(y))
        )
        parts.append(
            '<text x="%d" y="%s" font-family="sans-serif" font-size="10" '
            'text-anchor="end">%s</text>' % (left - 6, _fmt(y + 3), _fmt(tick))
        )
    coords = plot_coordinates(series)
    for idx in sorted({1, len(coords)}):
        x = coords[idx - 1][0]
        parts.append(
            '<text x="%s" y="%d" font-family="sans-serif" font-size="10" '
            'text-anchor="middle">%d</text>' % (_fmt(x), bottom + 16, idx)
        )

    for point, (x, y) in zip(series.points, coords):
        color = color_of.get(point.di_label, _PALETTE[0])
        parts.append(
            '<circle class="pt" cx="%s" cy="%s" r="%s" fill="%s"/>'
            % (_fmt(x), _fmt(y), _fmt(POINT_RADIUS), color)
        )

    for i, label in enumerate(labels):
        lx = right - 90
        ly = top + 14 * i
        parts.append(
            '<circle cx="%d" cy="%d" r="4" fill="%s"/>' % (lx, ly, color_of[label])
        )
        parts.append(
            '<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>'
            % (lx + 8, ly + 3, _escape(label))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(series: ScoreSeries, out_path: str | Path) -> None:
    """Write the scatter plot; byte-identical for identical series."""
    write_output(out_path, [render_svg(series)])
