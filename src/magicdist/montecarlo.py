"""Haar-sampling harness: empirical densities of the scalar measures,
divergence fits and goodness-of-fit against the exact curves.

Sampling is deterministic for a given seed regardless of worker count:
chunk i holds up to 4096 samples from the Philox stream (seed, i), valued
by one call of ``pauli_spectrum.measure_rows``.  ``sample_measure`` is the
one chunk engine: it yields the chunks in stream order and, with several
threads, keeps at most two per thread in flight, so memory stays bounded.
The other samplers only reduce its stream (concatenation, sums, integer
bin counts), so any thread count reproduces the serial result bit for
bit; the per-chunk part of a reduction runs in the workers.

``histogram_measure`` alone sets the range of a bin count and decides
what an out-of-range sample means (a count, or a bug on a ``law``'s
support).  Every histogram refuses bins too narrow for a finite density
(``_check_edges``).
"""
from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientData,
    InvalidEdges,
    MissingObservable,
    ResourceLimit,
    SupportMismatch,
    SupportViolation,
)
from .exact_pdf import PdfCurve, law
from .pauli_spectrum import MOMENT_MEASURES, canonical_measure, check_order, check_spectrum_size
from .pauli_spectrum import hermitian_observable, measure_rows
from .statevec import SeededRng, check_register, haar_block

CHUNK_SIZE = 4096
# worker threads a sampler may start: each draws a chunk at a time, which
# peaks near 192 MiB at ten qubits, so the cap bounds that case near 3 GiB
MAX_THREADS = 16
MAX_BINS = 2**20  # most bins a bin count may ask for


def _default_observable(q: int, n_sites: int) -> np.ndarray:
    """Z: only one qubit has a default observable; no power q**n is formed."""
    if (q, n_sites) != (2, 1):
        raise MissingObservable(
            f"only one qubit has a default observable (Z); for q={q}, n_sites={n_sites} "
            "pass a Hermitian matrix as observable="
        )
    return np.diag([1.0 + 0j, -1.0 + 0j])


def _in_order(work, n_chunks: int, threads: int):
    """Yield ``work(i)`` for i = 0..n_chunks-1, at most 2 * threads in flight."""
    if threads < 2:
        yield from map(work, range(n_chunks))
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    pending = deque()
    try:
        for i in range(n_chunks):
            pending.append(pool.submit(work, i))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def check_threads(threads: int):
    """Raise ValueError below 1 worker thread and ResourceLimit above MAX_THREADS."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        raise ResourceLimit(f"thread guard: threads <= {MAX_THREADS}, got {threads}")


def _check_request(measure, alpha, q, n_sites, n_samples, observable, threads):
    """Validate a sampling request; return (measure, d, observable matrix or None)."""
    check_register(q, n_sites)
    measure = canonical_measure(measure)
    obs = None
    if measure == "observable" and observable is None:
        obs = _default_observable(q, n_sites)  # no register size can supply a missing one
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if measure in MOMENT_MEASURES:
        check_order(alpha)
    if q == 2 and n_sites > 10:
        raise ResourceLimit(f"qubit sampler guard: n_sites <= 10, got {n_sites}")
    check_spectrum_size(q, n_sites)
    check_threads(threads)
    d = q**n_sites
    if measure == "observable" and observable is not None:
        obs = hermitian_observable(observable, d)
    return measure, d, obs


def sample_measure(measure, alpha, q, n_sites, n_samples, seed, observable=None, threads=1,
                   *, post=None):
    """Validate the request, then return a generator of measure-value chunks.

    Chunk i holds up to 4096 samples from the stream (seed, i).  Chunks come
    in stream order for every ``threads``, so the output depends on
    (measure, alpha, q, n_sites, n_samples, seed) alone.  ``post`` maps
    each chunk inside the worker, so per-chunk reductions run in parallel.
    """
    measure, d, obs = _check_request(measure, alpha, q, n_sites, n_samples, observable, threads)

    def work(i):
        states = haar_block(d, SeededRng(seed, i), min(CHUNK_SIZE, n_samples - i * CHUNK_SIZE))
        values = measure_rows(states, measure, alpha, q, obs)
        return values if post is None else post(values)

    return _in_order(work, -(-n_samples // CHUNK_SIZE), threads)


def sample_array(measure, alpha, q, n_sites, n_samples, seed, observable=None) -> np.ndarray:
    """Materialize ``sample_measure`` into one array (mind the memory)."""
    return np.concatenate(
        list(sample_measure(measure, alpha, q, n_sites, n_samples, seed, observable))
    )


def check_bin_count(bins: int):
    """Raise InvalidEdges below one bin and ResourceLimit above MAX_BINS."""
    if bins < 1:
        raise InvalidEdges(f"need at least one bin, got {bins}")
    if bins > MAX_BINS:
        raise ResourceLimit(f"bin guard: bins <= {MAX_BINS}, got {bins}")


def _check_edges(edges) -> np.ndarray:
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or np.any(np.diff(edges) <= 0)):
        raise InvalidEdges("edges must be a strictly increasing 1-D sequence of finite numbers")
    with np.errstate(over="ignore"):  # the density of such a bin would overflow
        if not np.isfinite(1.0 / np.diff(edges)).all():
            raise InvalidEdges("bins narrower than 1 / (largest float) have no finite density")
    return edges


@dataclass(frozen=True)
class Histogram:
    """Exact integer binning: bins are [e_i, e_{i+1}), the last one closed."""

    edges: np.ndarray
    counts: np.ndarray
    total_samples: int
    n_below: int = 0
    n_above: int = 0

    def __post_init__(self):
        e = _check_edges(self.edges)
        c = np.asarray(self.counts, dtype=np.int64)
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "counts", c)
        if c.size != e.size - 1:
            raise InvalidEdges(f"need {e.size - 1} counts for {e.size} edges, got {c.size}")

    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def density(self) -> np.ndarray:
        return self.counts / (self.total_samples * self.widths())


def _bin_chunk(values: np.ndarray, edges: np.ndarray):
    """(counts, below, above, size) of one chunk; ``edges`` already checked."""
    below = int(np.count_nonzero(values < edges[0]))
    above = int(np.count_nonzero(values > edges[-1]))
    return np.histogram(values, edges)[0], below, above, values.size


def _add_bins(binned, edges) -> Histogram:
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    below = above = total = 0
    for c, b, a, n in binned:
        counts += c
        below, above, total = below + b, above + a, total + n
    return Histogram(edges, counts, total, below, above)


def build_histogram(samples, edges) -> Histogram:
    """Bin a sample array or a stream of sample chunks."""
    edges = _check_edges(edges)
    if isinstance(samples, np.ndarray):
        samples = [samples]
    binned = (_bin_chunk(np.asarray(chunk, dtype=float), edges) for chunk in samples)
    return _add_bins(binned, edges)


def _value_range(measure, d, obs):
    """(lo, hi) holding every coherence or observable value on dimension d, else None."""
    if measure == "coherence":
        return 0.0, d - 1.0
    if measure == "observable":
        return tuple(np.linalg.eigvalsh(obs)[[0, -1]])
    return None


def histogram_measure(measure, alpha, q, n_sites, n_samples, seed, edges, observable=None,
                      threads: int = 1) -> Histogram:
    """Sample and bin in one pass, optionally across a thread pool.

    ``edges`` may be a bin count (``check_bin_count``): the bins then span
    the support of the measure's ``law``, else its value range ([0, d-1]
    for the coherence, the observable's extreme eigenvalues), else the first
    ``min(n_samples, 20000)`` samples widened by 5% of their span each side;
    a probe whose values are all equal or not finite raises ``InvalidEdges``.
    Samples outside the edges are counted in ``n_below``/``n_above``, but
    raise ``SupportViolation`` when the edges cover the support of a law,
    which holds every value.  The result is identical for every thread count.
    """
    measure, d, obs = _check_request(measure, alpha, q, n_sites, n_samples, observable, threads)
    exact = law(measure, alpha, q, n_sites)
    span = exact.support if exact else _value_range(measure, d, obs)
    args = (measure, alpha, q, n_sites, n_samples, seed, observable, threads)
    head = []
    if isinstance(edges, (int, np.integer)):
        check_bin_count(edges)
        if span is None:
            stream = sample_measure(*args)
            while sum(c.size for c in head) < min(n_samples, 20000):
                head.append(next(stream))  # these set the range, then are binned
            probe = np.concatenate(head)[:20000]
            lo, hi = probe.min(), probe.max()
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InvalidEdges(f"the first {probe.size} samples span no range; "
                                   "give explicit edges (--window)")
            span = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
        edges = np.linspace(*span, edges + 1)
    edges = _check_edges(edges)
    if head:
        binned = (_bin_chunk(c, edges) for c in itertools.chain(head, stream))
    else:
        # binning in the workers keeps the consuming thread off the hot path
        binned = sample_measure(*args, post=lambda values: _bin_chunk(values, edges))
    hist = _add_bins(binned, edges)

    escaped = hist.n_below + hist.n_above
    if escaped and exact and edges[0] <= span[0] + 1e-12 and edges[-1] >= span[1] - 1e-12:
        raise SupportViolation(f"{escaped} samples escaped an exact support; this is a bug")
    return hist


def measure_mean(measure, alpha, q, n_sites, n_samples, seed, observable=None, threads=1):
    """(mean, standard error) of a measure: per-chunk (sum, squared deviations,
    size) from the workers, merged in stream order by Chan's pairwise update."""
    def moments(v):
        s = float(np.sum(v))
        dev = v - s / v.size
        return s, float(np.sum(dev * dev)), v.size

    total, sq_dev, count = 0.0, 0.0, 0
    for s, m2, n in sample_measure(measure, alpha, q, n_sites, n_samples, seed, observable,
                                   threads, post=moments):
        if count:
            delta = s / n - total / count
            m2 += delta * delta * (count * n / (count + n))
        total, sq_dev, count = total + s, sq_dev + m2, count + n
    return total / count, np.sqrt(sq_dev / count / count)


# ---------------------------------------------------------------------------
# Divergence fitting.


@dataclass(frozen=True)
class DivergenceFit:
    """OLS of density against -ln|x - center| inside an epsilon window
    (fields in the order of the ``fit-divergence`` JSON keys)."""

    center: float
    slope: float
    intercept: float
    window: tuple[float, float]
    side: str  # "left", "right" or "both"
    r_squared: float
    n_points: int


# fewest populated bins a divergence fit accepts
MIN_FIT_POINTS = 6
# most Poisson counts the bootstrap draws at once (8 MiB of int64)
_BOOTSTRAP_BLOCK = 1 << 20
# fewest resamples a bootstrap accepts: it needs max(10, n_boot // 2) fits
MIN_BOOTSTRAP = 10


def check_fit_window(window, center: float):
    """Raise ValueError unless ``center`` is finite and 0 < eps_min < eps_max."""
    if not np.isfinite(center):
        raise ValueError(f"need a finite center, got {center!r}")
    if len(window) != 2 or not 0.0 < window[0] < window[1]:
        raise ValueError(f"need 0 < eps_min < eps_max, got {window!r}")


def check_bootstrap_count(n_boot: int):
    """Raise ValueError unless ``n_boot`` is at least MIN_BOOTSTRAP resamples."""
    if n_boot < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} bootstrap resamples, got {n_boot}")


def window_mask(x, center, window, side) -> np.ndarray:
    """Which abscissas ``x`` lie inside the fit window on the chosen side."""
    check_fit_window(window, center)
    eps_min, eps_max = window
    delta = x - center
    keep = (np.abs(delta) > eps_min) & (np.abs(delta) < eps_max)
    if side == "left":
        keep &= delta < 0
    elif side == "right":
        keep &= delta > 0
    elif side != "both":
        raise ValueError(f"side must be left/right/both, got {side!r}")
    return keep


def _fit_points(source, center, window, side):
    if isinstance(source, Histogram):
        x = source.centers()
        y = source.density()
        keep = source.counts > 0
    elif isinstance(source, PdfCurve):
        x = source.abscissas
        y = source.densities
        keep = np.ones(x.size, dtype=bool)
    else:
        raise TypeError("expected Histogram or PdfCurve")
    keep &= window_mask(x, center, window, side)
    return x[keep], y[keep]


def fit_log_divergence(source, center: float, window, side: str = "both") -> DivergenceFit:
    """Least-squares logarithmic-divergence fit on a histogram or curve."""
    x, y = _fit_points(source, center, window, side)
    if x.size < MIN_FIT_POINTS:
        raise InsufficientData(
            f"only {x.size} populated bins inside the window; need at least {MIN_FIT_POINTS}"
        )
    t = -np.log(np.abs(x - center))
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return DivergenceFit(
        center=float(center),
        side=side,
        slope=float(slope),
        intercept=float(intercept),
        window=(float(window[0]), float(window[1])),
        r_squared=r2,
        n_points=int(x.size),
    )


def bootstrap_slope_ci(
    hist: Histogram,
    center: float,
    window,
    side: str = "both",
    n_boot: int = 100,
    seed: int = 7,
):
    """Percentile bootstrap 95% CI for the fitted slope (Poisson-resampled bins).

    Resample i is row i of the Poisson draws from the stream (seed, 0), one
    row per resample; each is fitted as ``fit_log_divergence`` fits a
    histogram (its populated bins inside the window) and skipped when fewer
    than ``MIN_FIT_POINTS`` remain.  The rows are drawn by one call per block
    of at most ``_BOOTSTRAP_BLOCK`` counts, which equals drawing them one by
    one and bounds the memory for any ``n_boot``.
    """
    check_bootstrap_count(n_boot)
    x = hist.centers()
    inside = window_mask(x, center, window, side)
    t = -np.log(np.abs(x[inside] - center))
    scale = (hist.total_samples * hist.widths())[inside]
    lam = hist.counts.astype(float)
    rows = max(1, _BOOTSTRAP_BLOCK // lam.size)
    g = SeededRng(seed, 0).generator()
    slopes = []
    for start in range(0, n_boot, rows):
        for counts in g.poisson(lam, size=(min(rows, n_boot - start), lam.size))[:, inside]:
            keep = counts > 0
            if np.count_nonzero(keep) >= MIN_FIT_POINTS:
                slopes.append(np.polyfit(t[keep], counts[keep] / scale[keep], 1)[0])
    if len(slopes) < max(MIN_BOOTSTRAP, n_boot // 2):
        raise InsufficientData("too many bootstrap resamples lost their bins")
    tail = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(slopes, [tail, 1.0 - tail])
    return float(lo), float(hi)


def scan_divergence_center(hist: Histogram, candidates, window, side: str = "both"):
    """Fit at every candidate center; return (best_center, best_fit, all fits)."""
    fits = []
    for c in np.asarray(candidates, dtype=float):
        try:
            fits.append(fit_log_divergence(hist, float(c), window, side))
        except InsufficientData:
            continue
    if not fits:
        raise InsufficientData("no candidate center had enough populated bins")
    best = max(fits, key=lambda f: f.r_squared)
    return best.center, best, fits


# ---------------------------------------------------------------------------
# Goodness of fit.


@dataclass(frozen=True)
class GofReport:
    max_sigma_deviation: float
    bins_tested: int
    bins_beyond_4sigma: int
    worst_bin_center: float


def gof_compare(hist: Histogram, exact: PdfCurve, exclude_radius: float) -> GofReport:
    """Poisson z-scores of observed counts against the exact curve.

    Bins within ``exclude_radius`` of a singular abscissa are skipped; the
    expected count per bin comes from the trapezoid integral of the
    tabulated curve across the bin.
    """
    lo, hi = exact.support
    if hist.edges[0] < lo - 1e-9 or hist.edges[-1] > hi + 1e-9:
        raise SupportMismatch(
            f"histogram range [{hist.edges[0]}, {hist.edges[-1]}] exceeds "
            f"curve support [{lo}, {hi}]"
        )
    x, y = exact.abscissas, exact.densities
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    cum_at = np.interp(hist.edges, x, cum)
    expected = hist.total_samples * np.diff(cum_at)

    centers = hist.centers()
    keep = expected > 0
    for c in exact.singular_points:
        keep &= (hist.edges[:-1] > c + exclude_radius) | (hist.edges[1:] < c - exclude_radius)
    z = np.abs(hist.counts[keep] - expected[keep]) / np.sqrt(expected[keep])
    if z.size == 0:
        raise InsufficientData("no bins left to test after exclusions")
    worst = int(np.argmax(z))
    return GofReport(
        max_sigma_deviation=float(z[worst]),
        bins_tested=int(z.size),
        bins_beyond_4sigma=int(np.count_nonzero(z > 4.0)),
        worst_bin_center=float(centers[keep][worst]),
    )
