"""The columnar CSV and SVG writers against their per-value rules.

The references below are the writers' earlier per-value formulas, kept as
the rule the one-pass writers must match character for character.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicdist import svgplot
from magicdist.cli import _csv_bytes
from magicdist.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH


def reference_csv(comments, header, rows) -> bytes:
    """One ``format(v, ".17g")`` per float and one ``str`` per int."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row))
    return ("\r\n".join(lines) + "\r\n").encode()


def reference_polyline(frame, xs, ys, color) -> str:
    """One ``f"{px:.2f},{py:.2f}"`` per point, with the frame's scalar maps."""
    def px(x):
        w = WIDTH - MARGIN_L - MARGIN_R
        return MARGIN_L + (x - frame.x0) / (frame.x1 - frame.x0) * w

    def py(y):
        if frame.log_y:
            y = math.log10(max(y, 10.0**frame.y0))
        h = HEIGHT - MARGIN_T - MARGIN_B
        return HEIGHT - MARGIN_B - (y - frame.y0) / (frame.y1 - frame.y0) * h

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               0.1, 1.0 / 3.0, math.inf, -math.inf, math.nan]
INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


def columns_of(rows):
    return [np.array([r[0] for r in rows], dtype=float), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows], dtype=float)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), INT64, st.floats()), max_size=40))
@example([(v, 0, v) for v in EDGE_FLOATS])
@example([(5e-324, -2**63, -0.0), (-1.7e308, 2**63 - 1, 1.7e308)])
@example([])
def test_csv_matches_the_per_value_rule(rows):
    comments = ["measure=n alpha=2", "n_samples=3"]
    header = ["left", "count", "density"]
    cols = columns_of(rows)
    if rows:
        assert cols[1].dtype == np.int64
    got = _csv_bytes(comments, header, cols, ["%.17g", "%d", "%.17g"])
    assert got == reference_csv(comments, header, [(float(a), int(c), float(b))
                                                   for a, c, b in rows])


def test_csv_float_columns_of_a_curve():
    x = np.linspace(1 / 3, 1, 257)
    y = np.sqrt(x) * 1e-300
    got = _csv_bytes(["variable=n"], ["abscissa", "density"], [x, y], ["%.17g", "%.17g"])
    assert got == reference_csv(["variable=n"], ["abscissa", "density"],
                                zip(x.tolist(), y.tolist()))


FINITE = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def frames(draw, log_y):
    x0 = draw(FINITE)
    x1 = x0 + draw(st.floats(min_value=1e-3, max_value=1e6))
    if log_y:
        # a log frame clamps its range at 1e-12; plot_svg never draws one it collapses
        y0 = draw(st.floats(min_value=1e-12, max_value=1e3))
        y1 = y0 * draw(st.floats(min_value=1.01, max_value=1e8))
    else:
        y0 = 0.0
        y1 = draw(st.floats(min_value=1e-6, max_value=1e6))
    return svgplot._Frame((x0, x1), (y0, y1), log_y)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_polyline_matches_the_per_point_rule(data, log_y):
    frame = data.draw(frames(log_y))
    size = data.draw(st.integers(min_value=0, max_value=30))
    # values beyond the frame, zeros and negatives too: a log frame floors them
    xs = data.draw(st.lists(FINITE, min_size=size, max_size=size))
    ys = data.draw(st.lists(st.one_of(FINITE, st.just(0.0), st.just(-0.0)),
                            min_size=size, max_size=size))
    got = svgplot._polyline(frame, np.array(xs, dtype=float), np.array(ys, dtype=float), "#123")
    assert got == reference_polyline(frame, xs, ys, "#123")


@pytest.mark.parametrize("log_y", [False, True])
def test_polyline_of_a_density_curve(log_y):
    x = np.linspace(0.0, math.log(1.5), 1874)
    y = 1.0 / np.sqrt(np.abs(x - 0.2) + 1e-9)
    frame = svgplot._Frame((x[0], x[-1]), (float(y.min()) if log_y else 0.0, 1.06 * y.max()),
                           log_y)
    assert svgplot._polyline(frame, x, y, "#b03030") == reference_polyline(
        frame, x.tolist(), y.tolist(), "#b03030")


@pytest.mark.parametrize("log_y", [False, True])
def test_step_series_is_the_polyline_of_its_bin_corners(log_y):
    edges = np.linspace(0.2, 0.9, 8)
    dens = np.array([0.0, 1.5, 2.25, 0.125, 3.0, 0.5, 1e-3])
    svg = svgplot.plot_svg([(edges, dens, "#3050b0", "step")], log_y=log_y)
    positive = dens[dens > 0] if log_y else dens
    frame = svgplot._Frame((0.2, 0.9), (positive.min() if log_y else 0.0,
                                        positive.max() * 1.06), log_y)
    sx, sy = [], []
    for i, v in enumerate(dens.tolist()):
        sx.extend([edges[i], edges[i + 1]])
        sy.extend([v, v])
    assert reference_polyline(frame, sx, sy, "#3050b0") in svg.splitlines()


@pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (2.0, -1.0), (0.0, 0.0)])
def test_an_empty_tick_range_spans_one_unit(lo, hi):
    assert svgplot._nice_ticks(lo, hi) == svgplot._nice_ticks(lo, lo + 1.0)


@pytest.mark.parametrize("ys", [[0.0, 0.0, 0.0, 0.0], [0.0, -1.0, -0.0, -2.0]])
def test_a_log_plot_without_a_positive_value_spans_the_floor_to_one(ys):
    svg = svgplot.plot_svg([(np.linspace(0.0, 1.0, 4), np.array(ys), "#000000", "line")],
                           log_y=True)
    # the y range falls back to [0, 1.06]; on the log axis 0 sits at the 1e-12 floor
    y_labels = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    assert y_labels == ["1e-10", "3.16228e-08", "1e-05", "0.00316228", "1"]


# one abscissa, or every positive value under the 1e-12 floor of a log axis: the
# frame widens the empty range to one unit, as the ticks do
@pytest.mark.parametrize("xs, ys, log_y, widened", [
    ([0.5], [1.0], False, ((0.5, 1.5), (0.0, 1.06))),
    ([0.1, 0.2], [1e-13, 2e-13], True, ((0.1, 0.2), (1e-12, 1e-11))),
], ids=["one_abscissa", "under_the_log_floor"])
def test_an_empty_plot_range_spans_one_unit(xs, ys, log_y, widened):
    svg = svgplot.plot_svg([(np.array(xs), np.array(ys), "#000", "line")], log_y=log_y)
    frame = svgplot._Frame(*widened, log_y)
    assert reference_polyline(frame, xs, ys, "#000") in svg.splitlines()
