"""Minimal self-contained SVG line/step plots.

No external assets, no timestamps: byte content depends only on the data
and labels.  The raw data table is embedded in a <metadata> element so a
plot file remains machine-readable.
"""
from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _span(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), or (lo, lo + 1) where that range is empty."""
    return (lo, lo + 1.0) if hi <= lo else (lo, hi)


def _nice_ticks(lo: float, hi: float):
    """About six round-numbered ticks spanning [lo, hi]."""
    lo, hi = _span(lo, hi)
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Frame:
    def __init__(self, xlim, ylim, log_y):
        y0, y1 = ylim
        if log_y:
            y0, y1 = math.log10(max(y0, 1e-12)), math.log10(max(y1, 1e-12))
        # one abscissa, or every value at the log floor, still spans one unit
        self.x0, self.x1 = _span(*xlim)
        self.y0, self.y1 = _span(y0, y1)
        self.log_y = log_y

    def px(self, x):
        """Pixel column of a number or of each value of an array."""
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * w

    def row(self, y):
        """Pixel row of a number or array on the axis's scale (log10 on a log axis)."""
        h = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * h

    def py(self, y: np.ndarray) -> np.ndarray:
        """Pixel row of each value of an array."""
        if self.log_y:
            # math.log10 per value: numpy's SIMD log10 need not match libm to the last ulp
            floor = 10.0**self.y0
            y = np.array([math.log10(max(v, floor)) for v in y.tolist()])
        return self.row(y)


def _axes(frame: _Frame, xlabel: str, title: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#404040"/>'
    ]
    for t in _nice_ticks(frame.x0, frame.x1):
        x = frame.px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(frame.y0, frame.y1):
        label = 10.0**t if frame.log_y else t
        y = frame.row(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" '
            f'stroke="#404040"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_fmt(label)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2})">density</text>'
    )
    parts.append(
        f'<text x="{WIDTH / 2}" y="18" font-size="13" text-anchor="middle">{title}</text>'
    )
    return parts


def _polyline(frame: _Frame, xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    """The points (xs, ys), two decimals per pixel coordinate, in one format pass."""
    coords = np.column_stack([frame.px(xs), frame.py(ys)]).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(coords)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def plot_svg(
    series,
    title: str = "",
    xlabel: str = "",
    marks=(),
    log_y: bool = False,
    data_table: str = "",
) -> str:
    """Compose an SVG document from (xs, ys, color, style) series.

    ``style`` is "line" or "step" (step interprets xs as bin edges, one
    longer than ys).  The y axis is labelled "density".  Vertical dashed
    markers are drawn at ``marks``.
    """
    series = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), color, style)
              for xs, ys, color, style in series]
    all_x, all_y = [], []
    for xs, ys, _color, _style in series:
        all_x.extend([float(xs.min()), float(xs.max())])
        vals = ys[ys > 0] if log_y else ys
        if vals.size:
            all_y.extend([float(vals.min()), float(vals.max())])
    if not all_y:
        all_y = [0.0, 1.0]
    y_lo = min(all_y) if log_y else 0.0
    y_hi = max(all_y) * 1.06 or 1.0  # all-zero data still needs a y range
    frame = _Frame((min(all_x), max(all_x)), (y_lo, y_hi), log_y)

    body = _axes(frame, xlabel, title)
    for xs, ys, color, style in series:
        if style == "step":
            # each bin [xs[i], xs[i + 1]] at height ys[i]
            xs = np.column_stack([xs[:ys.size], xs[1:ys.size + 1]]).ravel()
            ys = np.repeat(ys, 2)
        body.append(_polyline(frame, xs, ys, color))
    for m in marks:
        x = frame.px(m)
        body.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T}" x2="{x:.2f}" y2="{HEIGHT - MARGIN_B}" '
            f'stroke="#b03030" stroke-dasharray="4,3"/>'
        )
    meta = ""
    if data_table:
        # CSV payload carries no "]]>", so CDATA embeds it verbatim
        meta = f"<metadata><![CDATA[\n{data_table}]]></metadata>\n"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n'
        f"{meta}" + "\n".join(body) + "\n</svg>\n"
    )
