import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicdist import (
    DimensionMismatch,
    Histogram,
    InsufficientData,
    InvalidDimension,
    InvalidEdges,
    InvalidObservable,
    MissingObservable,
    ResourceLimit,
    SupportMismatch,
    SupportViolation,
    PureState,
    build_histogram,
    bootstrap_slope_ci,
    fit_log_divergence,
    gof_compare,
    histogram_measure,
    measure_mean,
    sample_array,
    sample_measure,
    scan_divergence_center,
    tabulate_pdf,
    SeededRng,
)
from magicdist import haar_block, montecarlo
from magicdist import expectation, haar_sample, law, n_from_measure, support_for
from magicdist.exact_pdf import Law, PdfCurve
from magicdist.montecarlo import CHUNK_SIZE
from magicdist.pauli_spectrum import _ALIASES, canonical_measure, measure_from_n, measure_rows

Z = np.diag([1.0, -1.0])


def _outcome(call):
    """What a call gives, comparable across calls: its value's bits or its error type."""
    try:
        value = call()
    except (ValueError, NotImplementedError) as exc:
        return type(exc)
    if isinstance(value, Histogram):
        return value.edges.tobytes(), value.counts.tobytes()
    if isinstance(value, PdfCurve):
        return value.variable, value.abscissas.tobytes(), value.densities.tobytes()
    if value is None or isinstance(value, Law):
        return value
    return np.asarray(value, dtype=float).tobytes()


# every public function that takes a measure name, called with that name
_BY_NAME = {
    "law": lambda name: law(name, 2.0),
    "tabulate_pdf": lambda name: tabulate_pdf(name, num_points=20),
    "support_for": lambda name: support_for(name, 2.0),
    "measure_from_n": lambda name: measure_from_n(0.4, name, 2.0, 2),
    "n_from_measure": lambda name: n_from_measure(0.2, name, 2.0, 2),
    "histogram_measure": lambda name: histogram_measure(name, 2.0, 2, 1, 500, 5, 8),
    "measure_rows": lambda name: measure_rows(haar_block(2, SeededRng(5), 50), name, 2.0, 2,
                                              Z.astype(complex)),
}


class TestCanonicalMeasure:
    def test_aliases(self):
        assert canonical_measure("N_alpha") == "n"
        assert canonical_measure("Xi") == "xi"
        assert canonical_measure("M_ALPHA") == "m"
        assert canonical_measure("ObservableExpectation") == "observable"

    def test_unknown(self):
        with pytest.raises(ValueError):
            canonical_measure("entropy")

    @pytest.mark.parametrize("function", list(_BY_NAME))
    @pytest.mark.parametrize("alias", sorted(_ALIASES))
    def test_every_function_reads_names_by_the_one_rule(self, alias, function):
        call = _BY_NAME[function]
        expected = _outcome(lambda: call(_ALIASES[alias]))
        for spelled in (alias.upper(), f" \t{alias} ", f"  {alias.upper()}\n"):
            assert _outcome(lambda: call(spelled)) == expected

    @pytest.mark.parametrize("function", list(_BY_NAME))
    def test_every_function_refuses_an_unknown_name(self, function):
        with pytest.raises(ValueError, match="unknown measure 'entropy'"):
            _BY_NAME[function]("entropy")


def test_expectation_is_the_samplers_observable_row():
    # one formula on both routes, so the same bits for every seeded qubit
    for seed in range(200):
        sampled = sample_array("observable", 2.0, 2, 1, 1, seed)[0]
        assert expectation(haar_sample(2, SeededRng(seed)), Z) == sampled
    # and for the rows of one full chunk
    states = haar_block(2, SeededRng(11), 200)
    sampled = sample_array("observable", 2.0, 2, 1, 200, 11)
    for row, value in zip(states, sampled):
        assert expectation(PureState(row, 2, 1), Z) == value


class TestSampling:
    def test_deterministic(self):
        a = sample_array("n", 2.0, 2, 1, 10_000, seed=5)
        b = sample_array("n", 2.0, 2, 1, 10_000, seed=5)
        assert np.array_equal(a, b)

    def test_chunks_are_stream_addressed(self):
        # a shorter run reproduces the prefix of a longer one
        long = sample_array("m", 2.0, 2, 1, 2 * CHUNK_SIZE + 17, seed=9)
        short = sample_array("m", 2.0, 2, 1, CHUNK_SIZE, seed=9)
        assert np.array_equal(long[:CHUNK_SIZE], short)

    def test_chunk_shapes(self):
        chunks = list(sample_measure("n", 2.0, 2, 1, CHUNK_SIZE + 5, seed=1))
        assert [c.size for c in chunks] == [CHUNK_SIZE, 5]

    def test_support_single_qubit(self):
        vals = sample_array("n", 2.0, 2, 1, 50_000, seed=3)
        assert vals.min() >= 1.0 / 3.0
        assert vals.max() <= 1.0

    def test_support_alpha3(self):
        vals = sample_array("n", 3.0, 2, 1, 50_000, seed=4)
        assert vals.min() >= 3.0 ** (1 - 3.0)
        assert vals.max() <= 1.0

    def test_m_mean_quick(self):
        mean, se = measure_mean("m", 2.0, 2, 1, 200_000, seed=6)
        assert abs(mean - 0.2289211) < 4 * se

    def test_multi_qubit_matches_spectrum_path(self):
        from magicdist import PureState, magic_report, pauli_spectrum_fast
        from magicdist.statevec import haar_block

        vals = sample_array("m", 2.0, 2, 3, 8, seed=2)
        states = haar_block(8, SeededRng(2, 0), 8)
        for i in range(8):
            spec = pauli_spectrum_fast(PureState(states[i], 2, 3))
            assert vals[i] == pytest.approx(magic_report(spec, 2.0).m_alpha, abs=1e-12)

    def test_qudit_matches_spectrum_path(self):
        from magicdist import PureState, magic_report, weyl_spectrum
        from magicdist.statevec import haar_block

        vals = sample_array("xi", 2.0, 3, 1, 8, seed=2)
        states = haar_block(3, SeededRng(2, 0), 8)
        for i in range(8):
            spec = weyl_spectrum(PureState(states[i], 3, 1))
            assert vals[i] == pytest.approx(magic_report(spec, 2.0).xi_alpha, abs=1e-12)

    def test_observable_default_z_uniform(self):
        from scipy.stats import kstest

        vals = sample_array("observable", 2.0, 2, 1, 500_000, seed=8)
        stat = kstest(vals, "uniform", args=(-1.0, 2.0)).statistic
        assert stat < 1.628 / np.sqrt(vals.size)

    def test_coherence_range(self):
        vals = sample_array("coherence", 2.0, 2, 1, 20_000, seed=9)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 + 1e-12

    def test_resource_guards(self):
        with pytest.raises(ResourceLimit):
            next(sample_measure("n", 2.0, 2, 11, 10, seed=0))
        with pytest.raises(ResourceLimit):
            next(sample_measure("n", 2.0, 17, 1, 10, seed=0))
        with pytest.raises(InvalidDimension):
            next(sample_measure("n", 2.0, 3, 2, 10, seed=0))

    @pytest.mark.parametrize("q, n_sites", [(1, 1), (2, 0), (2, -1), (3, 2)])
    def test_register_checked_before_the_draw(self, monkeypatch, q, n_sites):
        draws = []
        monkeypatch.setattr(montecarlo, "haar_block", lambda *args: draws.append(args))
        with pytest.raises(InvalidDimension):
            sample_measure("n", 2.0, q, n_sites, 10, seed=0)
        assert draws == []

    @pytest.mark.parametrize("q, n_sites", [(2.0, 1), (2.7, 1), (True, 1), (2, 3.0), (2, True),
                                            (2, np.bool_(True))])
    @pytest.mark.parametrize("sampler", [
        lambda q, n: sample_array("n", 2.0, q, n, 10, 1),
        lambda q, n: histogram_measure("n", 2.0, q, n, 10, 1, [0.0, 1.0]),
    ], ids=["sample_array", "histogram_measure"])
    def test_a_non_integer_register_is_refused_before_the_draw(self, monkeypatch, sampler, q,
                                                               n_sites):
        draws = []
        monkeypatch.setattr(montecarlo, "haar_block", lambda *args: draws.append(args))
        with pytest.raises(InvalidDimension, match="must be integers"):
            sampler(q, n_sites)
        assert draws == []

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3"])
    def test_a_non_integer_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit integer"):
            sample_array("n", 2.0, 2, 1, 10, seed)

    def test_numpy_integers_are_integers(self):
        values = sample_array("n", 2.0, np.int64(2), np.int64(2), 10, np.uint64(5))
        assert np.array_equal(values, sample_array("n", 2.0, 2, 2, 10, 5))

    def test_alpha_guard(self):
        from magicdist import InvalidOrder

        for alpha in (1.0, 0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidOrder):
                sample_measure("m", alpha, 2, 1, 10, seed=0)
            with pytest.raises(InvalidOrder):
                histogram_measure("n", alpha, 2, 1, 10, 0, [0.0, 1.0])

    def test_thread_guard_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", refuse)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                sample_measure("n", 2.0, 2, 1, 10, seed=0, threads=threads)
        with pytest.raises(ResourceLimit):
            histogram_measure("n", 2.0, 2, 1, 10, 0, 4, threads=montecarlo.MAX_THREADS + 1)

    def test_validates_when_called(self):
        # no next(): a bad request fails before any chunk is drawn
        for n_samples in (0, -5):
            with pytest.raises(ValueError, match="n_samples must be positive"):
                sample_measure("n", 2.0, 2, 2, n_samples, seed=0)
            with pytest.raises(ValueError, match="n_samples must be positive"):
                histogram_measure("n", 2.0, 2, 1, n_samples, 0, [0.0, 1.0])
        with pytest.raises(ValueError):
            sample_measure("observable", 2.0, 3, 1, 10, seed=0)

    @pytest.mark.parametrize("q, n_sites", [(3, 1), (2, 2), (2, 11), (2, 10**9)])
    def test_only_one_qubit_has_a_default_observable(self, q, n_sites):
        # refused before the size guards, so a huge register forms no q**n
        with pytest.raises(MissingObservable, match="observable="):
            sample_measure("observable", 2.0, q, n_sites, 10, seed=0)

    @pytest.mark.parametrize("call, error", [
        (lambda: sample_array("n", 2.0, 2, 1, 10.5, 1), ValueError),
        (lambda: sample_array("n", 2.0, 2, 1, 10.0, 1), ValueError),
        (lambda: sample_array("n", 2.0, 2, 1, True, 1), ValueError),
        (lambda: sample_measure("n", 2.0, 2, 1, np.float64(10), seed=0), ValueError),
        (lambda: histogram_measure("n", 2.0, 2, 1, 10, 1, True), InvalidEdges),
        (lambda: montecarlo.check_bin_count(4.0), InvalidEdges),
        (lambda: measure_mean("n", 2.0, 2, 1, 10, 1, threads=1.5), ValueError),
        (lambda: histogram_measure("n", 2.0, 2, 1, 10, 1, 4, threads=True), ValueError),
        (lambda: montecarlo.check_threads(2.0), ValueError),
        (lambda: montecarlo.check_bootstrap_count(20.0), ValueError),
        (lambda: montecarlo.check_bootstrap_count(True), ValueError),
    ], ids=["samples_fraction", "samples_float", "samples_bool", "samples_numpy_float",
            "bins_bool", "bins_float", "threads_fraction", "threads_bool", "threads_float",
            "bootstrap_float", "bootstrap_bool"])
    def test_counts_must_be_integers(self, call, error):
        # one integer rule (statevec._is_integer) for sample, bin, thread and
        # resample counts: a bool or a non-integral number is refused with the
        # count's own error, before anything is drawn
        with pytest.raises(error, match="integer"):
            call()

    def test_numpy_integer_counts_are_counts(self):
        vals = sample_array("n", 2.0, 2, 1, np.int64(10), 1)
        assert np.array_equal(vals, sample_array("n", 2.0, 2, 1, 10, 1))
        h = histogram_measure("n", 2.0, 2, 1, 10, 1, np.int32(4), threads=np.int8(2))
        assert h.counts.size == 4 and h.counts.sum() == 10

    def test_observable_validated_like_expectation(self):
        with pytest.raises(InvalidObservable):
            sample_array("observable", 2.0, 2, 1, 10, seed=0, observable=[[1, 1], [0, -1]])
        with pytest.raises(DimensionMismatch):
            sample_array("observable", 2.0, 2, 1, 10, seed=0, observable=np.eye(3))
        x = np.array([[0, 1], [1, 0]])
        vals = sample_array("observable", 2.0, 2, 1, 10, seed=0, observable=x)
        assert vals.shape == (10,) and np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_mlin_support_and_strict_binning(self):
        vals = sample_array("mlin", 2.0, 2, 1, 30_000, seed=21)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 / 3.0 + 1e-12
        edges = np.linspace(0.0, 1.0 / 3.0, 101)
        h = histogram_measure("mlin", 2.0, 2, 1, 30_000, 21, edges)
        assert h.n_below == 0 and h.n_above == 0
        assert h.counts.sum() == 30_000


class TestBuildHistogram:
    def test_basic_counts(self):
        h = build_histogram(np.array([0.4, 0.5, 0.6]), [0.35, 0.55, 0.75])
        assert h.counts.tolist() == [2, 1]

    def test_empty_stream(self):
        h = build_histogram(iter([]), [0.0, 1.0, 2.0])
        assert h.counts.tolist() == [0, 0]
        assert h.total_samples == 0

    def test_last_bin_closed(self):
        h = build_histogram(np.array([1.0, 2.0]), [0.0, 1.0, 2.0])
        assert h.counts.tolist() == [0, 2]
        assert h.n_above == 0

    def test_out_of_range_tallied(self):
        h = build_histogram(np.array([-1.0, 0.5, 9.0]), [0.0, 1.0])
        assert h.counts.tolist() == [1]
        assert (h.n_below, h.n_above) == (1, 1)

    # a NaN falls in no bin and is neither below nor above, yet counts in total_samples
    @pytest.mark.parametrize("samples, message", [
        (lambda: np.array([0.1, np.nan, 0.7]), "^1 of 3 samples are not finite$"),
        (lambda: iter([np.array([0.1, 0.7]), [np.nan, 0.2, np.inf]]),
         "^2 of 3 samples are not finite$"),
    ], ids=["array", "chunk_stream"])
    def test_non_finite_samples_refused(self, samples, message):
        with pytest.raises(ValueError, match=message):
            build_histogram(samples(), [0.0, 0.5, 1.0])

    def test_bad_edges(self):
        # a bin narrower than 1 / (largest float) would have an infinite density
        for edges in ([0.0, 0.0, 1.0], [np.nan, 1.0], [0.0, np.inf], [0.0, 2.2e-309]):
            with pytest.raises(InvalidEdges):
                build_histogram(np.array([1e-310]), edges)
            with pytest.raises(InvalidEdges):
                Histogram(edges, [1] * (len(edges) - 1), 1)

    @given(
        samples=st.lists(st.floats(-5, 5), max_size=300),
        cuts=st.lists(st.floats(-4, 4), min_size=2, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_histogram(self, samples, cuts):
        edges = np.unique(np.asarray(cuts))
        if edges.size < 2:
            return
        data = np.asarray(samples)
        with np.errstate(over="ignore"):
            narrow = np.isinf(1.0 / np.diff(edges)).any()
        if narrow:
            # a bin narrower than 1 / (largest float) would have an infinite density
            with pytest.raises(InvalidEdges, match="largest float"):
                build_histogram(data, edges)
            return
        h = build_histogram(data, edges)
        ref, _ = np.histogram(data, bins=edges)
        assert np.array_equal(h.counts, ref)
        assert h.counts.sum() + h.n_below + h.n_above == data.size

    def test_density_integrates_to_fraction_in_range(self):
        data = np.array([0.1, 0.2, 0.3, 5.0])
        h = build_histogram(data, [0.0, 0.25, 0.5])
        integral = float(np.sum(h.density() * h.widths()))
        assert integral == pytest.approx(3 / 4)


class TestHistogramMeasure:
    def test_thread_count_invariance(self):
        edges = np.linspace(1 / 3, 1.0, 101)
        h1 = histogram_measure("n", 2.0, 2, 1, 30_000, 12, edges, threads=1)
        h4 = histogram_measure("n", 2.0, 2, 1, 30_000, 12, edges, threads=4)
        assert np.array_equal(h1.counts, h4.counts)

    def test_exact_support_containment(self):
        edges = np.linspace(1 / 3, 1.0, 201)
        h = histogram_measure("n", 2.0, 2, 1, 200_000, 13, edges)
        assert h.n_below == 0 and h.n_above == 0
        assert h.counts.sum() == 200_000

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_observable_is_refused_before_any_draw(self, monkeypatch, bad):
        # a NaN entry used to pass the Hermiticity check and lose every sample from the counts
        def refuse(*args):
            raise AssertionError("drew a state before refusing the observable")

        monkeypatch.setattr(montecarlo, "haar_block", refuse)
        obs = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidObservable, match="finite"):
            histogram_measure("observable", 2.0, 2, 1, 100, 0, [-1.0, 0.0, 1.0], observable=obs)

    @pytest.mark.parametrize("edges", [4, [-1.0, 0.0, 1.0]], ids=["bin_count", "edges"])
    def test_an_observable_too_large_to_sum_is_refused_before_any_draw(self, monkeypatch, edges):
        # A + A^dagger and the eigenvalue span would overflow: the same refusal as expectation
        def refuse(*args):
            raise AssertionError("drew a state before refusing the observable")

        monkeypatch.setattr(montecarlo, "haar_block", refuse)
        obs = np.diag([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidObservable, match="at most"):
                histogram_measure("observable", 2.0, 2, 1, 10, 0, edges, observable=obs)

    def test_windowed_histogram_counts_not_raises(self):
        edges = np.linspace(0.45, 0.55, 21)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = histogram_measure("n", 2.0, 2, 1, 20_000, 14, edges)
        assert not caught
        vals = sample_array("n", 2.0, 2, 1, 20_000, seed=14)
        assert h.n_below == np.count_nonzero(vals < 0.45) > 0
        assert h.n_above == np.count_nonzero(vals > 0.55) > 0
        assert h.counts.sum() + h.n_below + h.n_above == 20_000

    def test_escape_from_the_support_raises_only_when_the_edges_span_it(self, monkeypatch):
        measure_rows = montecarlo.measure_rows

        def escaping(*args):
            values = measure_rows(*args)
            values[0] = 1.0 + 1e-6  # one N_2 value past its exact maximum
            return values

        monkeypatch.setattr(montecarlo, "measure_rows", escaping)
        for edges in (np.linspace(1 / 3, 1.0, 21), 20):
            with pytest.raises(SupportViolation):
                histogram_measure("n", 2.0, 2, 1, 5000, 22, edges)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = histogram_measure("n", 2.0, 2, 1, 5000, 22, np.linspace(0.45, 0.55, 21))
        assert not caught
        vals = sample_array("n", 2.0, 2, 1, 5000, seed=22)
        assert vals.max() == 1.0 + 1e-6
        assert h.n_below == np.count_nonzero(vals < 0.45)
        assert h.n_above == np.count_nonzero(vals > 0.55)
        assert h.counts.sum() + h.n_below + h.n_above == 5000

    @pytest.mark.parametrize("measure,alpha,q,n_sites,observable,lo,hi", [
        ("mlin", 2.0, 2, 1, None, 0.0, 1 / 3),
        ("mlin", 1.5, 2, 1, None, 0.0, (1 - 1 / np.sqrt(3)) / 2),
        ("coherence", 2.0, 2, 1, None, 0.0, 1.0),
        ("coherence", 2.0, 2, 2, None, 0.0, 3.0),
        ("coherence", 2.0, 3, 1, None, 0.0, 2.0),
        ("observable", 2.0, 2, 1, None, -1.0, 1.0),
        ("observable", 2.0, 2, 1, [[1, 2j], [-2j, -2]], -3.0, 2.0),
    ])
    def test_bin_count_spans_the_exact_range(self, measure, alpha, q, n_sites, observable,
                                             lo, hi):
        h = histogram_measure(measure, alpha, q, n_sites, 10_000, 23, 10, observable)
        np.testing.assert_allclose(h.edges, np.linspace(lo, hi, 11), rtol=0, atol=1e-15)
        assert h.counts.sum() == 10_000

    def test_peak_bin_near_nc(self):
        edges = np.linspace(1 / 3, 1.0, 501)
        h = histogram_measure("n", 2.0, 2, 1, 500_000, 15, edges)
        peak = h.centers()[int(np.argmax(h.density()))]
        assert abs(peak - 0.5) < 2.5 / 500  # within a couple of bin widths


class TestChunkEngine:
    def test_mean_thread_count_invariance(self):
        serial = measure_mean("m", 2.0, 2, 1, 5 * CHUNK_SIZE + 11, seed=16, threads=1)
        threaded = measure_mean("m", 2.0, 2, 1, 5 * CHUNK_SIZE + 11, seed=16, threads=3)
        assert serial == threaded

    def test_mean_and_error_match_the_whole_sample(self):
        n_samples = 5 * CHUNK_SIZE + 11
        vals = sample_array("m", 2.0, 2, 1, n_samples, seed=16)
        mean, se = measure_mean("m", 2.0, 2, 1, n_samples, seed=16)
        assert mean == pytest.approx(vals.mean(), rel=1e-14)
        assert se == pytest.approx(vals.std() / np.sqrt(n_samples), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("measure", ["n", "xi", "m", "mlin"])
    def test_one_qubit_kernel_is_pinned_bit_for_bit(self, measure, alpha):
        # the seeded outputs are pinned to this row-wise expression, last bits included
        for stream in range(3):
            states = haar_block(2, SeededRng(23, stream), CHUNK_SIZE)
            a0, a1 = states[:, 0], states[:, 1]
            z = np.conj(a0) * a1
            comp_sq = np.empty((CHUNK_SIZE, 3))
            comp_sq[:, 0] = (2 * z.real) ** 2
            comp_sq[:, 1] = (2 * z.imag) ** 2
            comp_sq[:, 2] = (a0.real**2 + a0.imag**2 - a1.real**2 - a1.imag**2) ** 2
            comp_sq /= np.sum(comp_sq, axis=1, keepdims=True)
            powered = comp_sq**alpha
            if alpha == round(alpha):  # integer orders are repeated products
                powered = comp_sq
                for _ in range(int(alpha) - 1):
                    powered = powered * comp_sq
            n_vals = np.sum(powered, axis=1)
            np.clip(n_vals, 3.0 ** (1 - alpha), 1.0, out=n_vals)
            expected = measure_from_n(n_vals, measure, alpha, 2)
            # haar_block's plane-major columns and the C-ordered rows of from_bloch callers
            for layout in (states, np.ascontiguousarray(states)):
                got = measure_rows(layout, measure, alpha, 2)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_one_qubit_kernel_clips_rounding_into_the_support(self, alpha):
        # at the eight T-type states N_alpha is its minimum 3^(1 - alpha); unclipped,
        # rounding puts some of them a few ulp below it
        from magicdist import BlochVector, from_bloch

        signs = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)])
        states = np.array([from_bloch(BlochVector(*(s / np.sqrt(3.0)))).amplitudes
                           for s in signs])
        values = measure_rows(states, "n", alpha, 2)
        lo = 3.0 ** (1 - alpha)
        assert np.all(values >= lo)
        assert values == pytest.approx(lo, abs=1e-15)

    def test_one_draw_per_chunk(self, monkeypatch):
        calls = []
        draw = montecarlo.haar_block

        def counting(d, rng, count):
            calls.append((d, rng, count))
            return draw(d, rng, count)

        monkeypatch.setattr(montecarlo, "haar_block", counting)
        sample_array("n", 2.0, 2, 1, 2 * CHUNK_SIZE + 5, seed=24)
        assert calls == [(2, SeededRng(24, i), count)
                         for i, count in enumerate([CHUNK_SIZE, CHUNK_SIZE, 5])]

    def test_bounded_in_flight_window(self, monkeypatch):
        started = []
        draw = montecarlo.haar_block

        def counting(d, rng, count):
            started.append(count)
            return draw(d, rng, count)

        monkeypatch.setattr(montecarlo, "haar_block", counting)
        stream = sample_measure("n", 2.0, 2, 1, 100 * CHUNK_SIZE, seed=17, threads=2)
        assert started == []  # nothing is drawn before the first next()
        first = next(stream)
        assert first.size == CHUNK_SIZE
        assert len(started) <= 4
        stream.close()
        assert len(started) <= 4

    @pytest.mark.parametrize("measure,q,n_sites", [("n", 2, 2), ("xi", 2, 2), ("n", 3, 1)])
    def test_bin_count_probes_the_stream_prefix(self, measure, q, n_sites):
        n_samples = 30_000  # the 20000-sample probe ends inside the fifth chunk
        probe = sample_array(measure, 2.0, q, n_sites, 20_000, seed=18)
        span = probe.max() - probe.min()
        edges = np.linspace(probe.min() - 0.05 * span, probe.max() + 0.05 * span, 41)
        ref = build_histogram(sample_array(measure, 2.0, q, n_sites, n_samples, seed=18), edges)
        h = histogram_measure(measure, 2.0, q, n_sites, n_samples, 18, 40, threads=2)
        assert np.array_equal(h.edges, edges)
        assert np.array_equal(h.counts, ref.counts)
        assert (h.n_below, h.n_above, h.total_samples) == (ref.n_below, ref.n_above, n_samples)

    def test_workers_apply_post(self):
        stream = sample_measure("n", 2.0, 2, 1, 2 * CHUNK_SIZE + 5, seed=19, threads=2,
                                post=lambda values: values.size)
        assert list(stream) == [CHUNK_SIZE, CHUNK_SIZE, 5]

    def test_bin_count_must_be_positive(self):
        with pytest.raises(InvalidEdges):
            histogram_measure("n", 2.0, 2, 2, 100, 0, 0)


def synthetic_log_histogram(center=0.5, slope=0.675, intercept=0.115, total=10**7):
    """Histogram whose bin means follow -slope ln|x-c| + intercept exactly."""
    wings = np.geomspace(1e-5, 2e-2, 40)
    edges = np.unique(np.concatenate([center - wings, center + wings]))
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(divide="ignore"):
        dens = -slope * np.log(np.abs(centers - center)) + intercept
    middle = int(np.argmin(np.abs(centers - center)))
    # bin straddling the center: mean of the model over [-eps, eps]
    dens[middle] = slope * (1.0 - np.log(wings[0])) + intercept
    counts = np.rint(dens * np.diff(edges) * total).astype(np.int64)
    return Histogram(edges, counts, total)


class TestDivergenceFit:
    def test_recovers_synthetic_slope(self):
        h = synthetic_log_histogram()
        fit = fit_log_divergence(h, 0.5, (1e-5, 2e-2))
        assert fit.slope == pytest.approx(0.675, rel=1e-3)
        assert fit.intercept == pytest.approx(0.115, abs=2e-3)
        assert fit.r_squared > 0.9999

    def test_sides(self):
        h = synthetic_log_histogram()
        left = fit_log_divergence(h, 0.5, (1e-5, 2e-2), side="left")
        right = fit_log_divergence(h, 0.5, (1e-5, 2e-2), side="right")
        assert left.slope == pytest.approx(right.slope, rel=1e-2)

    def test_insufficient_data(self):
        h = synthetic_log_histogram()
        with pytest.raises(InsufficientData):
            fit_log_divergence(h, 0.5, (1e-5, 1.5e-5))

    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_center_is_refused(self, center):
        h = synthetic_log_histogram()
        with pytest.raises(ValueError, match="finite center"):
            fit_log_divergence(h, center, (1e-5, 2e-2))
        with pytest.raises(ValueError, match="finite center"):
            scan_divergence_center(h, [0.5, center], (1e-4, 1.5e-2))
        with pytest.raises(ValueError, match="finite center"):
            bootstrap_slope_ci(h, center, (1e-4, 2e-2), n_boot=20)

    def test_smooth_density_fits_flat(self):
        vals = sample_array("coherence", 2.0, 2, 1, 300_000, seed=20)
        edges = np.linspace(0.3, 0.7, 80)
        h = build_histogram(vals, edges)
        fit = fit_log_divergence(h, 0.5, (2e-3, 0.19))
        assert abs(fit.slope) < 0.15
        assert fit.r_squared < 0.5

    def test_center_scan_finds_synthetic_center(self):
        h = synthetic_log_histogram(center=0.5)
        candidates = 0.5 + np.linspace(-0.003, 0.003, 13)
        best, fit, fits = scan_divergence_center(h, candidates, (1e-4, 1.5e-2))
        assert best == pytest.approx(0.5, abs=1e-4)
        assert fit.r_squared >= max(f.r_squared for f in fits) - 1e-12

    def test_bootstrap_ci_brackets_slope(self):
        h = synthetic_log_histogram()
        fit = fit_log_divergence(h, 0.5, (1e-4, 2e-2))
        lo, hi = bootstrap_slope_ci(h, 0.5, (1e-4, 2e-2), n_boot=60, seed=3)
        assert lo < fit.slope < hi
        assert hi - lo < 0.05

    @pytest.mark.parametrize("n_boot", [9, 5, 0, -3])
    def test_bootstrap_count_below_ten_is_refused(self, monkeypatch, n_boot):
        # max(10, n_boot // 2) fits can never come from fewer than 10 resamples
        def refuse(*args, **kwargs):
            raise AssertionError("resampled before refusing the count")

        monkeypatch.setattr(montecarlo, "SeededRng", refuse)
        with pytest.raises(ValueError, match="at least 10"):
            bootstrap_slope_ci(synthetic_log_histogram(), 0.5, (1e-4, 2e-2), n_boot=n_boot)

    def test_one_poisson_call_equals_sequential_calls(self):
        lam = synthetic_log_histogram(total=3000).counts.astype(float)
        block = SeededRng(5, 0).generator().poisson(lam, size=(40, lam.size))
        g = SeededRng(5, 0).generator()
        assert np.array_equal(block, [g.poisson(lam) for _ in range(40)])

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("total, window, side, block", [
        (10**7, (1e-4, 2e-2), "both", 1 << 20),
        # about two counts per window bin: resamples lose bins, and 7 (seed 3) and
        # 15 (seed 11) of the 50 keep fewer than six and are skipped
        (300, (4e-3, 2e-2), "left", 1 << 20),
        (300, (4e-3, 2e-2), "left", 200),  # two resamples per Poisson call
    ])
    def test_bootstrap_matches_per_resample_loop(self, monkeypatch, seed, total, window, side,
                                                 block):
        monkeypatch.setattr(montecarlo, "_BOOTSTRAP_BLOCK", block)
        h = synthetic_log_histogram(total=total)
        g = SeededRng(seed, 0).generator()
        slopes, lost = [], 0
        for _ in range(50):
            resampled = Histogram(h.edges, g.poisson(h.counts.astype(float)), h.total_samples)
            try:
                slopes.append(fit_log_divergence(resampled, 0.5, window, side).slope)
            except InsufficientData:
                lost += 1
        expected = tuple(float(v) for v in np.quantile(slopes, [0.025, 0.975]))
        assert bootstrap_slope_ci(h, 0.5, window, side, n_boot=50, seed=seed) == expected
        assert (lost > 0) == (total == 300)


    def test_bootstrap_quantiles_equal_numpy_quantile(self):
        # order statistics by np.partition and numpy's linear interpolation,
        # to the bit, over sizes 10-200 with and without ties
        rng = np.random.default_rng(17)
        for trial in range(400):
            size = int(rng.integers(10, 201))
            values = rng.normal(size=size) * 10.0 ** int(rng.integers(-6, 6))
            if trial % 2:
                values = rng.choice(np.round(values[:5], 2), size=size)  # ties
            probs = [0.025, 0.975, 0.0, 0.5, float(rng.random())]
            got = montecarlo._quantiles(list(values), probs)
            assert got.tobytes() == np.quantile(values, probs).tobytes()


# a four-point curve with a divergence at 0.5, for refusals that need any PdfCurve
_TOY_CURVE = PdfCurve("n", 2.0, [1 / 3, 0.4, 0.6, 1.0], [1.5, 2.0, 2.0, 0.75], (1 / 3, 1.0),
                       (0.5,))


@pytest.mark.parametrize("call, error, match", [
    (lambda: Histogram(np.array([0.0, 1.0, 2.0]), np.array([1]), 1), InvalidEdges,
     "need 2 counts"),
    (lambda: montecarlo.window_mask(np.array([0.4, 0.6]), 0.5, (1e-3, 0.2), "middle"),
     ValueError, "side must be"),
    (lambda: fit_log_divergence(np.ones(3), 0.5, (1e-5, 2e-2)), TypeError,
     "expected Histogram or PdfCurve"),
    # five window bins hold a count, so no resample can keep the six a fit needs
    (lambda: bootstrap_slope_ci(synthetic_log_histogram(total=100), 0.5, (4e-3, 2e-2), "left",
                                n_boot=20), InsufficientData, "lost their bins"),
    (lambda: scan_divergence_center(synthetic_log_histogram(), [0.499, 0.5], (1e-5, 1.5e-5)),
     InsufficientData, "no candidate center"),
    # the one bin straddles the divergence and is excluded
    (lambda: gof_compare(build_histogram(np.array([0.5]), [0.45, 0.55]), _TOY_CURVE, 1e-3),
     InsufficientData, "no bins left"),
], ids=["histogram_counts", "window_side", "fit_source", "bootstrap_bins", "scan_centers",
        "gof_bins"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.fixture(scope="module")
def curve():
    return tabulate_pdf("n", num_points=700, tol=1e-9, guard=1e-6)


class TestGoodnessOfFit:

    def test_self_consistency_inverse_cdf(self, curve):
        # draw from the exact curve itself; deviations must look Poisson
        x, y = curve.abscissas, curve.densities
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
        cdf /= cdf[-1]
        u = SeededRng(33).generator().random(2_000_000)
        samples = np.interp(u, cdf, x)
        edges = np.linspace(1 / 3, 1.0, 301)
        h = build_histogram(samples, edges)
        report = gof_compare(h, curve, exclude_radius=2e-3)
        assert report.bins_beyond_4sigma <= max(1, report.bins_tested // 100)
        assert report.max_sigma_deviation < 6.0

    def test_haar_samples_match_exact(self, curve):
        edges = np.linspace(1 / 3, 1.0, 301)
        h = histogram_measure("n", 2.0, 2, 1, 2_000_000, 34, edges)
        report = gof_compare(h, curve, exclude_radius=2e-3)
        assert report.bins_beyond_4sigma == 0

    def test_mlin_haar_samples_match_exact(self):
        # the partial incompatibility M_lin has the exact law of 1 - Xi
        curve = tabulate_pdf("mlin", num_points=700, tol=1e-9, guard=1e-6)
        edges = np.linspace(*curve.support, 201)
        h = histogram_measure("mlin", 2.0, 2, 1, 400_000, 37, edges)
        report = gof_compare(h, curve, exclude_radius=2e-3)
        assert report.max_sigma_deviation < 5.0
        assert report.bins_beyond_4sigma == 0

    def test_support_mismatch(self, curve):
        h = build_histogram(np.array([0.5]), [0.0, 2.0])
        with pytest.raises(SupportMismatch):
            gof_compare(h, curve, exclude_radius=1e-3)

    def test_estimator_consistency(self, curve):
        # z-scores at regular grid points stay O(1) as the sample grows
        probe_points = [0.37, 0.40, 0.43, 0.58, 0.64, 0.70, 0.78, 0.84, 0.90, 0.96]
        x, y = curve.abscissas, curve.densities
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
        for n_samples, seed in ((200_000, 35), (3_200_000, 36)):
            edges = np.linspace(1 / 3, 1.0, 201)
            h = histogram_measure("n", 2.0, 2, 1, n_samples, seed, edges)
            dens = h.density()
            widths = h.widths()
            for p in probe_points:
                i = min(int((p - 1 / 3) / widths[0]), dens.size - 1)
                lo_c, hi_c = np.interp([h.edges[i], h.edges[i + 1]], x, cum)
                expected = (hi_c - lo_c) / widths[i]
                sigma = np.sqrt(expected / (n_samples * widths[i]))
                assert abs(dens[i] - expected) < 5 * sigma


class TestQuditHistograms:
    def test_qutrit_density_stable_under_refinement(self):
        # no divergence: the maximal density is stable when bins double
        h1 = histogram_measure("n", 2.0, 3, 1, 200_000, 40, np.linspace(0.0, 2.0, 101))
        h2 = histogram_measure("n", 2.0, 3, 1, 400_000, 41, np.linspace(0.0, 2.0, 201))
        m1 = h1.density().max()
        m2 = h2.density().max()
        assert abs(m2 - m1) / m1 < 0.10
