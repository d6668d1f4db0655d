"""Closed-form single-qubit densities under the Haar measure.

For one qubit the 2-alpha moment of the Bloch vector,
N_alpha = sum_j |n_j|^(2 alpha), has density P(n) supported on
[3^(1-alpha), 1] with a logarithmic divergence at n_c = 2^(1-alpha),
the saddle value of N_alpha on the sphere.  At alpha = 2 the density has
the explicit integral representation

    P(n) = (4/pi) * Integral dx / sqrt((1-x^2)^4 - (3(1-x^2)^2 + 4x^4 - 4n)^2)

taken over [x-, x+] for n in [1/3, 1/2) and over [0, y-) u (y+, x+] for
n in (1/2, 1], where x+-^2 = (1 +- sqrt(6n-2))/3 and
y+-^2 = (1 +- sqrt(2n-1))/2.  The radicand factorizes as
-48 (x^2-x-^2)(x^2-x+^2)(x^2-y-^2)(x^2-y+^2), which this module uses to
evaluate the inverse-square-root endpoints stably; the substitution
x = lo + (hi-lo) sin^2 t then removes them entirely.  For 3/8 < n < 1/2
the interval is also cut at x = 1/sqrt(2), where the integrand peaks, so
that every near-singularity of the integrand as n -> 1/2 (a root just
beyond an end, or that peak) sits at the end of a segment.

One engine evaluates the density for an array of n.  Each segment is
integrated in t by composite 12-node Gauss-Legendre panels, graded
geometrically toward both ends as deep as its closest root or peak needs
(``_graded_depth``).  ``_refine`` certifies the rule against the refined
mesh (every panel halved plus one more graded layer): a segment is
accepted once the two agree within its share of ``tol``, only the others
are refined, and past ``_PDF_MAX_LEVEL`` refinements ArithmeticError is
raised.  All segments of one kind and mesh go through together, in
blocks of at most ``_PDF_BLOCK_NODES`` nodes, so a whole tabulation costs
a few numpy passes in bounded memory.  Near n = 1/2 the density behaves
like -3/(sqrt(2) pi) * ln|n - 1/2| + b with b fitted once from regular
points.  Every exact density is the ``density`` of its row in ``law``, the
one table of exact laws; ``pdf_n2_exact`` evaluates that of "n".

The stabilizer purity Xi, the entropy M and the linear entropy M_lin are
functions of N (``pauli_spectrum.measure_from_n``).  Their supports,
critical values and densities come from that one map: the density of v
is |dN/dv| P(N(v)) (``_mapped_density``), both from the inverse
``pauli_spectrum.n_from_measure``; P_Mlin(v) = P_Xi(1 - v) = 2 P(1 - 2v).

The characteristic function chi(k) = E[exp(i k N_2)] reduces, after the
azimuthal average, to a smooth integral over x = cos(theta) in [0, 1] with
a J0 factor.  It is taken with composite 32-node Gauss-Legendre panels,
vectorised over the nodes with scipy's J0; Fourier-inverting it
reproduces P(n).  The exact mean of M_2 is a smooth integral over [0, 1]
as well, taken with the 12-node panels.  Both go through ``quad``, which
doubles the panels up to ``_MAX_PANELS`` in ``_refine``, the loop that
certifies the density too.

Importing this module loads no scipy, and neither does ``mean_sre_exact``:
the 12-node rule is stored as literals.  Only chi(k) imports scipy.special,
on its first call, for its 32-node rule and J0 (``bessel.j0``).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import InvalidOrder, InvalidSpectrum, ResourceLimit, SingularPoint
from .bessel import j0
from .pauli_spectrum import MOMENT_MEASURES, canonical_measure, check_order, measure_from_n
from .pauli_spectrum import n_from_measure, support_for
from .statevec import BlochVector

DIVERGENCE_SLOPE_N2 = 3.0 / (math.sqrt(2.0) * math.pi)  # 0.675237...
SINGULAR_GUARD = 1e-9
_TOL_RANGE = (1e-12, 1e-4)
MAX_POINTS = 2**20  # most base-grid points a tabulation accepts

# chi(k): composite panels of a 32-node Gauss-Legendre rule (``_chi_rule``)
_CHI_K_PER_PANEL = 16.0
_MAX_PANELS = 2**13  # most panels ``quad`` refines to, for chi(k) and the mean of M_2

# N_2 density: 12-node Gauss-Legendre panels on meshes graded toward both
# ends of each segment in the sin^2 variable (see ``_graded_rule``), at
# most _PDF_MAX_DEPTH layers deep before refinement, refined at most
# _PDF_MAX_LEVEL times.  The rule is scipy's roots_legendre(12) mapped to
# [0, 1] by (x + 1)/2 and w/2, kept bit for bit as literals
_PANEL_NODES = np.array([
    0.009219682876640378, 0.047941371814762546, 0.11504866290284765, 0.20634102285669126,
    0.31608425050090994, 0.4373832957442655, 0.5626167042557345, 0.6839157494990901,
    0.7936589771433087, 0.8849513370971523, 0.9520586281852375, 0.9907803171233596,
])
_PANEL_WEIGHTS = np.array([
    0.023587668193256594, 0.05346966299765891, 0.08003916427167304, 0.10158371336153287,
    0.11674626826917735, 0.1245735229067013, 0.1245735229067013, 0.11674626826917735,
    0.10158371336153287, 0.08003916427167304, 0.05346966299765891, 0.023587668193256594,
])
_PDF_MAX_DEPTH = 48
_PDF_MAX_LEVEL = 6
# nodes per numpy pass; bounds each of the four block buffers to 128 KiB
_PDF_BLOCK_NODES = 2**14


def _check_tol(tol: float):
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol must lie in {_TOL_RANGE}, got {tol!r}")


def n_critical(alpha: float) -> float:
    """Saddle value of N_alpha, where the density diverges (one qubit)."""
    check_order(alpha)
    return 2.0 ** (1.0 - alpha)


@dataclass(frozen=True)
class Law:
    """A measure's value range, where its density diverges, and the density.

    ``density(x, tol)`` gives the density at each value of an array and the
    error that certified it, or is None where the law has no closed form.
    """

    support: tuple[float, float]
    singular_points: tuple[float, ...]
    # left out of ==: a partial compares by identity, so two lookups would differ
    density: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]] | None = field(
        compare=False)


def law(measure: str, alpha: float = 2.0, q: int = 2, n_sites: int = 1) -> Law | None:
    """The exact law of a measure (``canonical_measure``) on a register, or
    None.  A moment measure of one qubit has one at every order, the image
    of [3^(1-alpha), 1] and n_c; at alpha = 2 its density is the N_2
    engine's (``_mapped_density``)."""
    measure = canonical_measure(measure)
    if measure not in MOMENT_MEASURES or (q, n_sites) != (2, 1):
        return None
    c = float(measure_from_n(n_critical(alpha), measure, alpha, 2))
    support = support_for(measure, alpha)
    density = partial(_mapped_density, measure, alpha, support) if alpha == 2 else None
    return Law(support, (c,), density)


def _root_squares(n):
    """Squared roots in cancellation-free form, for a number or an array n.

    x-^2 = (1 - 2n)/(1 + s) with s = sqrt(6n - 2) (negative above n = 1/2),
    y-^2 = (1 - n)/(1 + t) with t = sqrt(2n - 1), whose gap y+^2 - y-^2 is
    t itself, and the gap x+^2 - y+^2 = (n - 1)^2 / ((n + t)(2s + 3t + 1))
    stays accurate even as both squares approach 1.  The y entries and the
    gaps mean something only where n > 1/2 (t is taken as 0 below).
    """
    s = np.sqrt(6.0 * n - 2.0)
    t = np.sqrt(np.maximum(2.0 * n - 1.0, 0.0))
    x_m2 = (1.0 - 2.0 * n) / (1.0 + s)
    x_p2 = (1.0 + s) / 3.0
    y_m2 = (1.0 - n) / (1.0 + t)
    y_p2 = (1.0 + t) / 2.0
    gap_xy2 = (n - 1.0) ** 2 / ((n + t) * (2.0 * s + 3.0 * t + 1.0))
    return x_m2, x_p2, y_m2, y_p2, t, gap_xy2


# The integration segments.  Each radicand R is written without the factors
# of the segment's root ends, which the sin^2 substitution supplies; c holds
# the task's constants as (k, 1) columns, x is the abscissa and d the one of
# dl = x - lo and dr = hi - x that the radicand reads (``_SEGMENTS``).  Near
# n = 1/2 the integrand peaks at x = 1/sqrt(2), the shared end of
# "below_left" and "below_right", so u - 1/2 = (x - 1/sqrt(2)) *
# (x + 1/sqrt(2)) is formed from the exact distance to that end.  A radicand
# writes R into ``out`` in place, with ``tmp`` and ``d`` as scratch, and
# multiplies its factors from left to right as its comment writes them.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _rest_below(c, x, d, out, tmp):
    # over [x-, x+] (n <= 3/8): R = (x-x-)(x+-x) * 48 (x+x-)(x+x+) ((u-1/2)^2 + (1-2n)/4)
    x_m, x_p, q = c
    np.add(x, x_m, out=out)
    out *= 48.0
    out *= np.add(x, x_p, out=tmp)
    np.multiply(x, x, out=tmp)
    tmp -= 0.5
    tmp *= tmp
    tmp += q
    out *= tmp


def _rest_peak_side(c, x, d, out, tmp):
    # over [x-, 1/sqrt(2)] (d = dr, gap = x+ - 1/sqrt(2)) or [1/sqrt(2), x+]
    # (d = dl, gap = 1/sqrt(2) - x-): R = (x-x-) or (x+-x) times
    # 48 (gap + d)(x+x-)(x+x+) ((d (x + 1/sqrt(2)))^2 + (1-2n)/4)
    x_m, x_p, q, gap = c
    np.add(d, gap, out=out)
    out *= 48.0
    out *= np.add(x, x_m, out=tmp)
    out *= np.add(x, x_p, out=tmp)
    np.add(x, _INV_SQRT2, out=tmp)
    tmp *= d
    tmp *= tmp
    tmp += q
    out *= tmp


def _rest_low(c, x, d, out, tmp):
    # over [0, y-] (d = dr): R = (y- - x) * 48 (u-x-^2)(x+^2-u)(x+y-)(y+-x)(x+y+)
    x_m2, x_p2, y_m, y_p, y_gap = c
    u = np.multiply(x, x, out=tmp)
    np.subtract(u, x_m2, out=out)
    out *= 48.0
    out *= np.subtract(x_p2, u, out=tmp)
    out *= np.add(x, y_m, out=tmp)
    d += y_gap
    out *= d
    out *= np.add(x, y_p, out=tmp)


def _rest_high(c, x, d, out, tmp):
    # over [y+, x+] (d = dl): R = (x-y+)(x+-x) * 48 (u-x-^2)(x+x+)(u-y-^2)(x+y+)
    # with u - y-^2 = (dl + y+ - y-)(x + y-)
    x_m2, x_p, y_m, y_p, y_gap = c
    np.multiply(x, x, out=out)
    out -= x_m2
    out *= 48.0
    out *= np.add(x, x_p, out=tmp)
    d += y_gap
    d *= np.add(x, y_m, out=tmp)
    out *= d
    out *= np.add(x, y_p, out=tmp)


# (radicand, whether the left end is a root, whether the right end is one,
# whether the radicand reads dr rather than dl)
_SEGMENTS = {
    "below": (_rest_below, True, True, False),
    "below_left": (_rest_peak_side, True, False, True),
    "below_right": (_rest_peak_side, False, True, False),
    "low": (_rest_low, False, True, True),
    "high": (_rest_high, True, True, False),
}


@lru_cache(maxsize=64)
def _graded_rule(depth: int, level: int):
    """sin t, cos t and the weights of one composite rule on [0, pi/2].

    In s = 2t/pi the half [0, 1/2] is cut geometrically toward 0 at
    s = 2^-(j+1), j = 0..depth+level-1, and every one of those panels is
    cut into 2^level equal ones; the other half is the mirror image, so the
    nodes near t = pi/2 are pi/2 - t and their sine and cosine swap.
    Depth 0, level 0 is the mesh [0, 1/2, 1]; each level halves every
    panel and adds one graded layer at each end.
    """
    geo = np.concatenate([[0.0], 0.5 ** np.arange(depth + level + 1, 0, -1)])
    sub = np.arange(2**level) / 2**level
    edges = np.append((geo[:-1, None] + np.diff(geo)[:, None] * sub).ravel(), 0.5)
    widths = np.diff(edges)
    t = (math.pi / 2.0) * (edges[:-1, None] + widths[:, None] * _PANEL_NODES).ravel()
    weights = (math.pi / 2.0) * (widths[:, None] * _PANEL_WEIGHTS).ravel()
    sin_t, cos_t = np.sin(t), np.cos(t)
    rule = (np.concatenate([sin_t, cos_t]), np.concatenate([cos_t, sin_t]),
            np.concatenate([weights, weights]))
    for a in rule:  # shared by every caller through the cache
        a.setflags(write=False)
    return rule


def _graded_depth(span: np.ndarray, *widths: np.ndarray) -> np.ndarray:
    """Graded layers that put the end panels of each task inside its features.

    Each width is the extent in x, measured from one end of the segment,
    over which the integrand changes fast there: a root just beyond the end,
    or the peak at 1/sqrt(2).  Since x - lo = span sin^2 t, that is
    t ~ sqrt(width/span); the end panels get at most half of the smallest.
    """
    if not widths:
        return np.zeros(span.shape, dtype=int)
    s_min = (2.0 / math.pi) * np.sqrt(np.minimum.reduce(widths) / span)
    depth = np.ceil(-np.log2(np.maximum(s_min, 2.0**-_PDF_MAX_DEPTH)))
    return np.clip(depth, 0, _PDF_MAX_DEPTH).astype(int)


def _graded_quadrature(depth: int, level: int, segment, tasks: np.ndarray) -> np.ndarray:
    """One composite rule for each task row (lo, span, *constants) of a
    segment, given as its ``_SEGMENTS`` record.

    The row integrates 1/sqrt(R) over its segment [lo, lo + span] after the
    substitution x = lo + span sin^2 t, which supplies the factors of the
    root ends exactly (x - lo = span sin^2 t, hi - x = span cos^2 t), so the
    integrand in t is smooth wherever the radicand is positive; where it is
    not, the node contributes 0.  Rows go through in blocks of about
    ``_PDF_BLOCK_NODES`` nodes, every block in the same four buffers.
    """
    rest, left_root, right_root, reads_dr = segment
    sin_t, cos_t, weights = _graded_rule(depth, level)
    sin2, cos2 = sin_t * sin_t, cos_t * cos_t
    rows = max(1, _PDF_BLOCK_NODES // weights.size)
    out = np.empty(len(tasks))
    buffers = np.empty((4, min(rows, len(tasks)), weights.size))
    for start in range(0, len(tasks), rows):
        block = tasks[start:start + rows]
        x, d, g, tmp = buffers[:, :len(block)]
        lo, span, *consts = (block[:, j, None] for j in range(block.shape[1]))
        np.add(lo, np.multiply(span, sin2, out=d), out=x)
        if reads_dr:
            np.multiply(span, cos2, out=d)
        rest(consts, x, d, g, tmp)
        # NaN and negative radicands become 0, whose node the division skips
        np.sqrt(np.fmax(g, 0.0, out=g), out=g)
        num = 2.0
        if not left_root:
            num = np.multiply(num * np.sqrt(span), sin_t, out=tmp)
        if not right_root:
            num = np.multiply(num * np.sqrt(span), cos_t, out=tmp)
        np.divide(num, g, out=g, where=g > 0.0)
        g *= weights
        out[start:start + len(block)] = g.sum(axis=1)
    return out


def _refine(rule, tol: np.ndarray, max_level: int, failure):
    """Value of each row and the difference that certified it: a row is
    accepted once ``rule(level, rows)`` (the rows index ``tol``) at two
    successive levels agree within its ``tol``, only the others go on to
    the next level, and past ``max_level`` ArithmeticError(failure(row))
    is raised for the first row left."""
    rows = np.arange(len(tol))
    coarse = rule(0, rows)
    value = np.empty_like(coarse)
    error = np.empty(len(tol))
    for level in range(1, max_level + 1):
        fine = rule(level, rows)
        diff = np.abs(fine - coarse)
        ok = diff <= tol[rows]
        value[rows[ok]] = fine[ok]
        error[rows[ok]] = diff[ok]
        rows, coarse = rows[~ok], fine[~ok]
        if not rows.size:
            return value, error
    raise ArithmeticError(failure(rows[0]))


def _pdf_n2(n: np.ndarray, tol: np.ndarray):
    """Density of N_2 at each n of an array inside the support of its
    ``law``, with the error that certified it.

    Raises SingularPoint if any n lies within ``SINGULAR_GUARD`` of 1/2.
    The integral runs over [x-, x+] up to n = 3/8, over [x-, 1/sqrt(2)]
    and [1/sqrt(2), x+] up to 1/2, and over [0, y-] and [y+, x+] above.
    Each segment is certified to tol pi/8, so each density is within it.
    """
    if np.any(np.abs(n - 0.5) <= SINGULAR_GUARD):
        # the fit points sit at 1e-4 and 1e-5, well outside this guard
        raise SingularPoint(0.5, DIVERGENCE_SLOPE_N2, n2_log_intercept())
    total = np.zeros(n.size)
    total_err = np.zeros(n.size)
    seg_tol = tol * (math.pi / 8.0)

    def integrate(segment, point, lo, span, consts, widths=()):
        """Add the segment [lo, lo + span] to the integral of each point;
        ``widths`` are its features at the ends (see ``_graded_depth``)."""
        record = rest, left_root, right_root, _ = _SEGMENTS[segment]
        keep = span > 0.0
        if left_root and right_root:
            # sliver between two coalescing roots: exact limit pi / sqrt(rest)
            thin = keep & (span < 1e-13 * np.maximum(np.abs(lo), 1.0))
            half = span[thin] / 2.0
            r, tmp = np.empty((2, half.size))
            rest([c[thin] for c in consts], lo[thin] + half, half.copy(), r, tmp)
            np.add.at(total, point[thin], math.pi / np.sqrt(r))
            keep &= ~thin
        depth = _graded_depth(span[keep], *(w[keep] for w in widths))
        tasks = np.column_stack([lo, span, *consts])[keep]
        point = point[keep]
        task_tol = seg_tol[point]
        # each depth's rule certified by ``_refine``; a point is in one group
        # only, so every point's sums into total keep the segment order
        for d in np.unique(depth):
            group = np.flatnonzero(depth == d)
            val, err = _refine(
                lambda level, rows: _graded_quadrature(d, level, record, tasks[group[rows]]),
                task_tol[group], _PDF_MAX_LEVEL,
                lambda row: f"N_2 density not certified to {task_tol[group[row]]:g} within "
                            f"{_PDF_MAX_LEVEL} levels ({segment} segment)")
            np.add.at(total, point[group], val)
            np.add.at(total_err, point[group], err)

    x_m2, x_p2, y_m2, y_p2, gap_y2, gap_xy2 = _root_squares(n)
    x_p = np.sqrt(x_p2)
    # n <= 3/8: one segment; up to 1/2: cut at its interior peak 1/sqrt(2) < x+
    b = np.flatnonzero(n <= 0.375)
    x_m = np.sqrt(np.maximum(x_m2[b], 0.0))
    integrate("below", b, x_m, x_p[b] - x_m, [x_m, x_p[b], (1.0 - 2.0 * n[b]) / 4.0])
    b = np.flatnonzero((n > 0.375) & (n < 0.5))
    x_m = np.sqrt(x_m2[b])
    q = (1.0 - 2.0 * n[b]) / 4.0
    # x+ - 1/sqrt(2) = (8n - 3) / (2 (2s + 1) (x+ + 1/sqrt(2))), s = 3 x+^2 - 1
    xp_gap = (8.0 * n[b] - 3.0) / (2.0 * (6.0 * x_p2[b] - 1.0) * (x_p[b] + _INV_SQRT2))
    xm_gap = _INV_SQRT2 - x_m
    # the peak (u - 1/2)^2 ~ q spans |x - 1/sqrt(2)| ~ sqrt(q/2)
    peak = np.sqrt(q / 2.0)
    integrate("below_left", b, x_m, xm_gap, [x_m, x_p[b], q, xp_gap], [2.0 * x_m, xp_gap, peak])
    integrate("below_right", b, np.full(b.size, _INV_SQRT2), xp_gap, [x_m, x_p[b], q, xm_gap], [peak])

    a = np.flatnonzero(n > 0.5)
    y_m, y_p = np.sqrt(y_m2[a]), np.sqrt(y_p2[a])
    y_gap = gap_y2[a] / (y_p + y_m)
    integrate("low", a, np.zeros(a.size), y_m, [x_m2[a], x_p2[a], y_m, y_p, y_gap],
              [np.sqrt(-x_m2[a]), y_gap])
    integrate("high", a, y_p, gap_xy2[a] / (x_p[a] + y_p), [x_m2[a], x_p[a], y_m, y_p, y_gap],
              [y_gap])
    return 4.0 / math.pi * total, 4.0 / math.pi * total_err


@lru_cache(maxsize=4)
def n2_log_intercept() -> float:
    """Offset b of the local model P(n) ~ -slope*ln|n - 1/2| + b, fitted once
    to the density at 1/2 +- 1e-4 and 1/2 +- 1e-5."""
    eps = np.array([1e-4, 1e-4, 1e-5, 1e-5])
    p, _ = law("n").density(0.5 + np.array([1.0, -1.0, 1.0, -1.0]) * eps, 1e-11)
    # math.log per value: numpy's SIMD log need not match libm to the last ulp
    log_eps = np.array([math.log(e) for e in eps])
    return float(np.mean(p + DIVERGENCE_SLOPE_N2 * log_eps))


def pdf_n2_exact(n: float, tol: float = 1e-10) -> float:
    """Exact density of N_2 under the Haar measure, absolute error <= tol.

    Returns 0 outside [1/3, 1]; raises SingularPoint within 1e-9 of the
    divergent abscissa n = 1/2, carrying the fitted logarithmic model.
    """
    return float(law("n").density(np.array([n], dtype=float), tol)[0][0])


def _mapped_density(variable: str, alpha: float, support, x: np.ndarray, tol: float):
    """The exact density |dN/dx| P(N(x)) of a variable of N_2 with the given
    support at each x of an array, and its certified error scaled the same way.

    ``tol`` is checked here, once per call; the tolerance of each N point
    is tol / |dN/dx|, clamped to the admissible range.
    """
    _check_tol(tol)
    lo, hi = support
    dens = np.zeros(x.shape)
    error = np.zeros(x.shape)
    inside = (lo <= x) & (x <= hi)
    n, jac = n_from_measure(x[inside], variable, alpha, 2)
    try:
        p, e = _pdf_n2(n, np.broadcast_to(np.clip(tol / jac, *_TOL_RANGE), n.shape))
    except SingularPoint as sp:
        # |n - n_c| = |dN/dx| |x - x_c| to leading order
        c = float(measure_from_n(sp.location, variable, alpha, 2))
        _, scale = n_from_measure(c, variable, alpha, 2)
        intercept = scale * (sp.log_intercept - sp.log_slope * math.log(scale))
        raise SingularPoint(c, scale * sp.log_slope, intercept) from None
    dens[inside] = jac * p
    error[inside] = jac * e
    return dens, error


def pdf_coherence(c: float) -> float:
    """Density of the l1 coherence of a Haar-random qubit: c / sqrt(1 - c^2)."""
    if c == 1.0:
        raise SingularPoint(1.0)
    if not 0.0 <= c < 1.0:
        return 0.0
    return c / math.sqrt(1.0 - c * c)


def pdf_observable(a: float, a1: float, a2: float) -> float:
    """Density of <A> for a Haar-random qubit: uniform on [a1, a2]."""
    if a1 >= a2:
        raise InvalidSpectrum(f"need a1 < a2, got {a1!r} >= {a2!r}")
    return 1.0 / (a2 - a1) if a1 <= a <= a2 else 0.0


def quad(func, a, b, tol, nodes, weights, panels=1):
    """Integral of ``func`` over [a, b] and the difference that certified it.

    ``func`` maps an array of abscissas to real or complex values of its
    shape.  The rule ``nodes``/``weights`` on [0, 1] is applied on
    ``panels`` equal panels, then on twice as many, until two successive
    rules agree within ``tol`` (``_refine``); the finer one is returned.
    Past ``_MAX_PANELS`` panels ArithmeticError is raised.  It keeps the
    name the benchmark's tracer patches and times, ``magicdist.exact_pdf.quad``.
    """
    weights = (b - a) * weights

    def rule(level, rows):
        m = panels << level
        x = a + (b - a) * ((np.arange(m)[:, None] + nodes) / m).ravel()
        return np.array([np.sum(func(x).reshape(m, nodes.size) @ weights) / m])

    max_level = max((_MAX_PANELS // panels).bit_length() - 1, 0)
    value, error = _refine(rule, np.array([tol]), max_level,
                           lambda row: f"integral over [{a!r}, {b!r}] not certified to "
                                       f"{tol!r} within {panels << max_level} panels")
    return value[0], error[0]


def mean_sre_exact(tol: float = 1e-8) -> float:
    """Exact Haar mean of the order-2 stabilizer entropy for one qubit, nats.

    Integral over [0, 1] of
    log(16 / (7x^4 - 6x^2 + 4 sqrt(3x^8 - 5x^6 + 8x^4 - 5x^2 + 3) + 7)),
    which evaluates to 0.2289211... nats (0.3302633... when expressed in
    bits), taken with 12-node Gauss-Legendre panels (``quad``).
    Cross-checked against direct Monte Carlo and against the integral of
    m times the exact entropy density.
    """
    _check_tol(tol)

    def f(x: np.ndarray) -> np.ndarray:
        u = x * x
        inner = 3 * u**4 - 5 * u**3 + 8 * u**2 - 5 * u + 3
        return np.log(16.0 / (7 * u * u - 6 * u + 4 * np.sqrt(inner) + 7))

    return float(quad(f, 0.0, 1.0, tol, _PANEL_NODES, _PANEL_WEIGHTS)[0])


@lru_cache(maxsize=1)
def _chi_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 32-node Gauss-Legendre rule mapped to [0, 1], built on first use."""
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(32)
    return (nodes + 1.0) / 2.0, weights / 2.0


def characteristic_function_n2(k, tol: float = 1e-10):
    """E[exp(i k N_2)] for one Haar qubit; k a number or an array.

    chi(k) = (1/2) Integral_0^pi d(theta) sin(theta)
             exp[i k cos^4(theta) + i k (3/4) sin^4(theta)] J0(k sin^4(theta)/4),
    evaluated after the substitution x = cos(theta) (even integrand) by a
    composite 32-node Gauss-Legendre rule with 1 + |k|/16 panels.  The rule
    with twice the panels is returned once the two agree within ``tol``.
    A number gives a complex; an array gives a complex array of its shape,
    each entry certified on its own.
    """
    _check_tol(tol)
    ks = np.asarray(k, dtype=float)
    if not np.all(np.abs(ks) <= 1e4):
        raise ValueError("characteristic function supported for |k| <= 1e4")

    def chi(kk: float) -> complex:
        def f(x):
            s4 = (1.0 - x * x) ** 2
            return np.exp(1j * kk * (x**4 + 0.75 * s4)) * j0(kk * s4 / 4.0)

        panels = 1 + int(abs(kk) // _CHI_K_PER_PANEL)
        return complex(quad(f, 0.0, 1.0, tol, *_chi_rule(), panels)[0])

    if ks.ndim == 0:
        return chi(float(ks))
    return np.array([chi(float(kk)) for kk in ks.flat], dtype=complex).reshape(ks.shape)


# ---------------------------------------------------------------------------
# Critical-point classification.


@dataclass(frozen=True)
class CriticalPoint:
    bloch: BlochVector
    class_label: str  # "C1_max", "C2_saddle" or "C3_min"
    value: float
    multiplicity: int
    grad_norm: float


def _signs(k: int):
    for bits in range(2**k):
        yield tuple(1.0 if bits & (1 << j) else -1.0 for j in range(k))


def _moment(vec: np.ndarray, alpha: float) -> float:
    return float(np.sum(np.abs(vec) ** (2.0 * alpha)))


def _projected_gradient(vec: np.ndarray, alpha: float, scale: float = 1.0) -> np.ndarray:
    """Tangent part of the gradient of N_alpha at the unit vector ``vec``,
    divided by scale^(2 alpha - 1) without forming that power, which
    underflows at large alpha."""
    g = 2.0 * alpha * np.sign(vec) * (np.abs(vec) / scale) ** (2.0 * alpha - 1.0)
    return g - np.dot(g, vec) * vec


def _tangent_basis(vec: np.ndarray) -> np.ndarray:
    """Orthonormal columns perpendicular to the unit vector ``vec``: the right
    singular vectors of the 1 x 3 matrix past the first."""
    return np.linalg.svd(vec[None, :])[2][1:].T


def _tangent_hessian_eigs(vec: np.ndarray, alpha: float) -> np.ndarray:
    """Eigenvalues of the constrained Hessian on the tangent plane, divided by
    the positive factor 2 alpha m^(2 alpha - 2), m = max |n_i|.

    The factor keeps every sign and brings the eigenvalues to between 1 and
    2 alpha - 2 in size; unscaled they shrink like alpha 2^(1 - alpha) at the
    saddles and alpha 3^(1 - alpha) at the minima, and underflow at large alpha.
    """
    r = (np.abs(vec) / np.max(np.abs(vec))) ** (2.0 * alpha - 2.0)
    lagr = np.diag((2.0 * alpha - 1.0) * r) - np.dot(vec * vec, r) * np.eye(3)
    tangent = _tangent_basis(vec)
    return np.linalg.eigvalsh(tangent.T @ lagr @ tangent)


def _hessian_zero(alpha: float) -> float:
    """Size below which a scaled tangent eigenvalue has no certain sign.

    Every entry of the scaled matrix is at most 2 alpha - 1 in size, and
    the eigenvalues at the 26 points came within 1.7 eps (2 alpha - 1) of
    their exact values (-1, -1 at the maxima; -1, 2 (alpha - 1) at the
    saddles; 2 (alpha - 1) twice at the minima) over 2000 orders from
    1 + 2.2e-16 to 1e4 and up to 1e300; the bound leaves a factor of ten.
    """
    return 16.0 * np.finfo(float).eps * (2.0 * alpha - 1.0)


def _check_critical(vec: np.ndarray, label: str, alpha: float) -> float:
    """Norm of the projected gradient at ``vec`` after checking that ``vec``
    is a critical point of class ``label``; ArithmeticError otherwise.

    The gradient is compared with 1e-10 after division by 2 alpha
    m^(2 alpha - 1), m = max |n_i|, the size of its largest component (the
    Hessian's scale family): unscaled, it shrinks like m^(2 alpha - 1), and
    a point 1e-3 off a saddle would pass an absolute test from alpha ~ 35
    on.  The Hessian signature counts an eigenvalue's sign when it exceeds
    ``_hessian_zero(alpha)`` in size.
    """
    grad = float(np.linalg.norm(_projected_gradient(vec, alpha)))
    m = float(np.max(np.abs(vec)))
    relative = float(np.linalg.norm(_projected_gradient(vec, alpha, m))) / (2.0 * alpha)
    eigs = _tangent_hessian_eigs(vec, alpha)
    zero = _hessian_zero(alpha)
    pos = int(np.sum(eigs > zero))
    neg = int(np.sum(eigs < -zero))
    if neg == 2 and pos == 0:
        seen = "C1_max"
    elif pos == 2 and neg == 0:
        seen = "C3_min"
    elif pos == 1 and neg == 1:
        seen = "C2_saddle"
    else:
        seen = "degenerate"
    if seen != label or relative > 1e-10:
        raise ArithmeticError(f"classification failed at {vec}: grad={grad!r}, eigs={eigs!r}")
    return grad


def critical_points(alpha: float) -> list[CriticalPoint]:
    """The 26 critical Bloch vectors of N_alpha with verified classification.

    Six coordinate vectors (maxima, value 1), twelve two-equal-component
    vectors (saddles, value 2^(1-alpha)) and eight diagonal vectors
    (minima, value 3^(1-alpha)).  Each point is checked numerically:
    projected gradient below 1e-10 and tangent Hessian signature matching
    its class (``_check_critical``).  A failed check raises ArithmeticError.
    An order so close to 1 that the saddles' positive curvature 2 (alpha - 1)
    is under the rounding of the Hessian (``_hessian_zero``, alpha - 1 below
    about 1.8e-15) has no classification, and raises InvalidOrder.
    """
    check_order(alpha)
    if 2.0 * (alpha - 1.0) <= _hessian_zero(alpha):
        raise InvalidOrder(f"alpha = {alpha!r} is too close to 1 to classify the saddles: "
                           f"their curvature 2 (alpha - 1) is under the Hessian's rounding")
    vectors: list[tuple[np.ndarray, str, int]] = []
    for axis in range(3):
        for s in (1.0, -1.0):
            v = np.zeros(3)
            v[axis] = s
            vectors.append((v, "C1_max", 6))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for pair in ((0, 1), (0, 2), (1, 2)):
        for s0, s1 in _signs(2):
            v = np.zeros(3)
            v[pair[0]] = s0 * inv_sqrt2
            v[pair[1]] = s1 * inv_sqrt2
            vectors.append((v, "C2_saddle", 12))
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    for s in _signs(3):
        vectors.append((np.array(s) * inv_sqrt3, "C3_min", 8))

    out = []
    for vec, label, mult in vectors:
        grad = _check_critical(vec, label, alpha)
        out.append(
            CriticalPoint(
                bloch=BlochVector(*vec),
                class_label=label,
                value=_moment(vec, alpha),
                multiplicity=mult,
                grad_norm=grad,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Curve tabulation.


@dataclass(frozen=True)
class PdfCurve:
    """Tabulated density with its support and divergent abscissas."""

    variable: str
    alpha: float
    abscissas: np.ndarray
    densities: np.ndarray
    support: tuple[float, float]
    singular_points: tuple[float, ...] = ()
    # largest certified quadrature error over the tabulation, in density units
    quadrature_error: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.abscissas, dtype=float)
        y = np.asarray(self.densities, dtype=float)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "abscissas", x)
        object.__setattr__(self, "densities", y)
        if x.shape != y.shape:
            raise ValueError("abscissas and densities must have equal length")
        # written so that NaN, which fails every comparison, fails them too
        if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
            raise ValueError("abscissas must be finite and strictly increasing")
        if not np.all(y >= 0):
            raise ValueError("densities must be non-negative")

    def integral(self) -> float:
        """Trapezoid over the tabulation, split at the gaps that straddle the
        singular points, plus each gap under density ~ -s ln|x - c| + b,
        fitted to the six points on each side of it."""
        x, y = self.abscissas, self.densities
        gaps = [(c, r) for c in self.singular_points
                if 0 < (r := int(np.searchsorted(x, c))) < x.size]
        cuts = [0, *(r for _, r in gaps), x.size]
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += float(np.trapezoid(y[lo:hi], x[lo:hi]))
        for c, r in gaps:
            near = slice(max(r - 6, 0), r + 6)
            slope, intercept = np.polyfit(-np.log(np.abs(x[near] - c)), y[near], 1)
            for g in (c - x[r - 1], x[r] - c):
                if g > 0:
                    total += g * (intercept + slope * (1.0 - math.log(g)))
        return total


# grid points nearer a divergence than this fraction of the guard are dropped
_GUARD_KEEP = 0.999


def _refined_grid(lo: float, hi: float, singulars, num_points: int, guard: float) -> np.ndarray:
    """Uniform base grid plus log-spaced wings approaching each singularity."""
    base = np.linspace(lo, hi, num_points)
    pieces = [base]
    for c in singulars:
        span = min(c - lo, hi - c, 0.1)
        wings = np.geomspace(guard, span, num_points // 8)
        pieces.append(c - wings)
        pieces.append(c + wings)
    grid = np.unique(np.concatenate(pieces))
    grid = grid[(grid >= lo) & (grid <= hi)]
    keep = np.ones(grid.size, dtype=bool)
    for c in singulars:
        keep &= np.abs(grid - c) >= guard * _GUARD_KEEP
    grid = grid[keep]
    # the closed forms evaluate to 0 exactly on the support edges (empty
    # integration interval); nudge inward so the step value is tabulated
    edge = 1e-9 * (hi - lo)
    grid[0] = max(grid[0], lo + edge)
    grid[-1] = min(grid[-1], hi - edge)
    return grid


def tabulate_pdf(variable: str, alpha: float = 2.0, num_points: int = 600, tol: float = 1e-9,
                 guard: float = 1e-5, keep=None) -> PdfCurve:
    """Tabulated exact density of a one-qubit variable whose ``law`` has one.

    The grid refines logarithmically into the divergence from both sides
    down to ``guard`` (above SINGULAR_GUARD / 0.999, below 0.1); the open
    interval around the singular abscissa is left to the logarithmic model
    (see ``PdfCurve.integral``).  The base grid has ``num_points >= 2``
    points, both support edges included, and at most ``MAX_POINTS``.  The
    whole grid is one call of the law's density.  ``keep``, if given, maps the
    grid to a boolean mask, and only the points it keeps are evaluated and
    tabulated: each point is certified on its own, so their densities are
    those of the whole grid to the bit.
    """
    v = canonical_measure(variable)
    if num_points < 2:
        raise ValueError(f"num_points must be at least 2, got {num_points}")
    if num_points > MAX_POINTS:
        raise ResourceLimit(f"point guard: num_points <= {MAX_POINTS}, got {num_points}")
    exact = law(v, alpha)
    if exact is None or exact.density is None:
        raise NotImplementedError(f"no closed-form {v} density at alpha = {alpha!r}")
    # every kept grid point must stay outside the density's own guard
    if not (SINGULAR_GUARD < _GUARD_KEEP * guard and guard < 0.1):
        raise ValueError(f"guard must lie in ({SINGULAR_GUARD / _GUARD_KEEP:.6g}, 0.1), "
                         f"got {guard!r}")
    grid = _refined_grid(*exact.support, exact.singular_points, num_points, guard)
    if keep is not None:
        grid = grid[keep(grid)]
    dens, error = exact.density(grid, tol)
    return PdfCurve(
        variable=v,
        alpha=float(alpha),
        abscissas=grid,
        densities=dens,
        support=exact.support,
        singular_points=exact.singular_points,
        quadrature_error=float(error.max(initial=0.0)),
    )
