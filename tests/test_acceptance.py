"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them).

Statistical criteria run with fixed seeds, so outcomes are reproducible;
the protocol constants (sample counts, windows, bin layouts) are pinned
here and documented in the README.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

import magicdist as md
from magicdist.cli import main as cli_main

S_N2 = md.DIVERGENCE_SLOPE_N2          # 3/(sqrt(2) pi) = 0.675237...
MEAN_SRE_BITS = 0.330263               # printed mean of the order-2 entropy
M_C = math.log(4.0 / 3.0)              # 0.287682..., divergence of P_M2


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_exact_mean_sre(capsys):
    t0 = time.perf_counter()
    code = cli_main(["mean-sre", "--tol", "1e-8"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_m2_bits"] == pytest.approx(MEAN_SRE_BITS, abs=1e-5)
    assert doc["mean_m2_nats"] == pytest.approx(MEAN_SRE_BITS * math.log(2), abs=1e-5)
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"mean={doc['mean_m2_bits']:.6f} bits in {elapsed*1e3:.0f} ms")


def test_criterion_02_monte_carlo_mean(capsys):
    t0 = time.perf_counter()
    mean, se = md.measure_mean("m", 2.0, 2, 1, 1_000_000, seed=4001)
    elapsed = time.perf_counter() - t0
    ln2 = math.log(2.0)
    mean_bits, se_bits = mean / ln2, se / ln2
    assert abs(mean_bits - MEAN_SRE_BITS) < 3 * se_bits
    assert elapsed < 30.0
    with capsys.disabled():
        report(2, f"mean={mean_bits:.6f}+-{se_bits:.6f} bits, "
                  f"|z|={abs(mean_bits - MEAN_SRE_BITS)/se_bits:.2f}, {elapsed:.1f} s")


def test_criterion_03_divergence_coefficient(capsys):
    # exact curve side
    curve = md.tabulate_pdf("n", num_points=900, tol=1e-10, guard=1e-6)
    fit = md.fit_log_divergence(curve, 0.5, (1e-5, 1e-3))
    assert fit.slope == pytest.approx(S_N2, rel=0.005)

    # Monte Carlo side: geometric bins, both sides of the divergence
    n_samples = 30_000_000
    eps = np.geomspace(1e-4, 4e-2, 40)
    edges = np.unique(np.concatenate([0.5 - eps, 0.5 + eps]))
    hist = md.histogram_measure("n", 2.0, 2, 1, n_samples, 4003, edges)
    mc_fit = md.fit_log_divergence(hist, 0.5, (2e-4, 2e-2))
    lo, hi = md.bootstrap_slope_ci(hist, 0.5, (2e-4, 2e-2), n_boot=100, seed=4004)
    assert abs(mc_fit.slope - S_N2) <= 0.05 * S_N2
    assert lo <= 1.05 * S_N2 and hi >= 0.95 * S_N2
    with capsys.disabled():
        report(3, f"exact slope={fit.slope:.6f} ({(fit.slope/S_N2-1)*100:+.2f}%), "
                  f"mc slope={mc_fit.slope:.4f} CI=({lo:.4f},{hi:.4f}), "
                  f"N={n_samples:.0e}")


@pytest.mark.parametrize("alpha", [3.0, 4.0])
def test_criterion_04_divergence_location(alpha, capsys):
    n_c = 2.0 ** (1.0 - alpha)
    width = 0.002
    edges = np.arange(n_c - 0.06, n_c + 0.06 + width / 2, width)
    hist = md.histogram_measure("n", alpha, 2, 1, 10_000_000, 4010 + int(alpha),
                                edges)
    centers = hist.centers()
    candidates = centers[np.abs(centers - n_c) < 0.03]
    best, fit, _ = md.scan_divergence_center(hist, candidates, (width, 0.03))
    assert abs(best - n_c) <= width
    with capsys.disabled():
        report(4, f"alpha={alpha:g}: located {best:.5f} vs n_c={n_c:.5f} "
                  f"(|err|={abs(best-n_c)/width:.2f} bins, r2={fit.r_squared:.3f})")


def test_criterion_05_exact_vs_mc_agreement(capsys):
    curve = md.tabulate_pdf("n", num_points=900, tol=1e-9, guard=1e-6)
    edges = np.linspace(1.0 / 3.0, 1.0, 501)
    hist = md.histogram_measure("n", 2.0, 2, 1, 10_000_000, 4020, edges)
    rep = md.gof_compare(hist, curve, exclude_radius=1e-3)
    assert rep.max_sigma_deviation < 5.0
    # the densest bin hugs the divergence at n = 1/2
    peak_center = hist.centers()[int(np.argmax(hist.density()))]
    assert abs(peak_center - 0.5) <= hist.widths()[0]
    with capsys.disabled():
        report(5, f"{rep.bins_tested} bins, max |z|={rep.max_sigma_deviation:.2f} "
                  f"at n={rep.worst_bin_center:.3f}; peak bin at {peak_center:.4f}")


def test_criterion_06_entropy_density_peak(capsys):
    bins = 240
    edges = np.linspace(0.0, math.log(1.5), bins + 1)
    hist = md.histogram_measure("m", 2.0, 2, 1, 1_000_000, 4030, edges)
    peak_bin = int(np.argmax(hist.density()))
    assert hist.edges[peak_bin] <= M_C <= hist.edges[peak_bin + 1]
    with capsys.disabled():
        report(6, f"peak bin [{hist.edges[peak_bin]:.5f},{hist.edges[peak_bin+1]:.5f}] "
                  f"contains log(4/3)={M_C:.5f} ({bins} bins)")


REFINEMENT_DELTA = 0.1
REFINEMENT_RATIO = 1.4
REFINEMENT_CASES = [
    # (label, q, n_sites, n_samples, window center, divergent?)
    ("q2n1", 2, 1, 1_000_000, 0.5, True),
    ("q2n2", 2, 2, 1_000_000, 1.046, False),
    ("q2n6", 2, 6, 120_000, 2.786, False),
    ("q3n1", 3, 1, 1_000_000, 0.660, False),
    ("q4n1", 4, 1, 1_000_000, 0.967, False),
]


def _refined_max_density(q, n_sites, n_samples, center, bins_per_side, seed):
    eps = REFINEMENT_DELTA * REFINEMENT_RATIO ** -np.arange(bins_per_side, 0, -1.0)
    eps = np.append(eps, REFINEMENT_DELTA)
    edges = np.unique(np.concatenate([center - eps, center + eps]))
    with np.errstate(all="ignore"):
        h = md.histogram_measure("n", 2.0, q, n_sites, n_samples, seed, edges)
    return float(h.density().max())


@pytest.mark.parametrize("label,q,n_sites,n_samples,center,divergent", REFINEMENT_CASES)
def test_criterion_07_no_divergence_above_one_qubit(
    label, q, n_sites, n_samples, center, divergent, capsys
):
    # doubling samples and bins refines the window geometrically toward the
    # reference point; a log divergence keeps growing, a bounded density
    # stabilizes
    m1 = _refined_max_density(q, n_sites, n_samples, center, 8, seed=4040)
    m2 = _refined_max_density(q, n_sites, 2 * n_samples, center, 16, seed=4041)
    change = abs(m2 - m1) / m1
    if divergent:
        assert change > 0.25
    else:
        assert change < 0.15
    with capsys.disabled():
        report(7, f"{label}: max density {m1:.3f} -> {m2:.3f} "
                  f"({'+' if m2 >= m1 else '-'}{change*100:.1f}%, "
                  f"{'divergent' if divergent else 'stable'})")


def test_criterion_08_oracle_equivalence_and_throughput(capsys):
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(100):
            s = md.haar_sample(2**n, md.SeededRng(4050 + k, n))
            dev = np.max(np.abs(
                md.pauli_spectrum_fast(s).values - md.pauli_spectrum_naive(s).values
            ))
            worst = max(worst, float(dev))
    assert worst < 1e-12

    from magicdist.pauli_spectrum import pauli_moment_batch
    from magicdist.statevec import haar_block

    states = haar_block(64, md.SeededRng(4051), 2048)
    pauli_moment_batch(states[:128], 2.0)  # warm-up
    t0 = time.perf_counter()
    pauli_moment_batch(states, 2.0)
    rate = states.shape[0] / (time.perf_counter() - t0)
    assert rate >= 1_000.0
    with capsys.disabled():
        report(8, f"max fast-naive deviation {worst:.2e}; n=6 rate {rate:.0f} states/s")


def test_criterion_09_identities(capsys):
    worst_g1 = worst_g2 = 0.0
    for k in range(1000):
        s = md.haar_sample(2, md.SeededRng(4060, k))
        g1 = md.incompatibility(s, 1)
        g2 = md.incompatibility(s, 2)
        xi2 = md.magic_report(md.pauli_spectrum_fast(s), 2.0).xi_alpha
        worst_g1 = max(worst_g1, abs(g1 - 4.0))
        worst_g2 = max(worst_g2, abs(g2 - 4.0 * xi2))
    assert worst_g1 < 1e-12
    assert worst_g2 < 1e-12

    worst_add = 0.0
    for k in range(100):
        a = md.haar_sample(2, md.SeededRng(4061, k))
        b = md.haar_sample(2, md.SeededRng(4062, k))
        m_a = md.magic_report(md.pauli_spectrum_fast(a), 2.0).m_alpha
        m_b = md.magic_report(md.pauli_spectrum_fast(b), 2.0).m_alpha
        m_ab = md.magic_report(md.pauli_spectrum_fast(md.tensor(a, b)), 2.0).m_alpha
        worst_add = max(worst_add, abs(m_ab - m_a - m_b))
    assert worst_add < 1e-10

    s = md.haar_sample(2, md.SeededRng(4063))
    base = md.magic_report(md.pauli_spectrum_fast(s), 2.0).m_alpha
    worst_cliff = 0.0
    for u in md.single_qubit_cliffords():
        mapped = md.PureState(u @ s.amplitudes, 2, 1)
        val = md.magic_report(md.pauli_spectrum_fast(mapped), 2.0).m_alpha
        worst_cliff = max(worst_cliff, abs(val - base))
    assert worst_cliff < 1e-12
    with capsys.disabled():
        report(9, f"|G1-4|<{worst_g1:.1e}, |G2-4Xi2|<{worst_g2:.1e}, "
                  f"additivity<{worst_add:.1e}, Clifford<{worst_cliff:.1e}")


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
def test_criterion_10_critical_points(alpha, capsys):
    pts = md.critical_points(alpha)
    counts = {}
    for p in pts:
        counts[p.class_label] = counts.get(p.class_label, 0) + 1
        assert p.grad_norm < 1e-10
    assert counts == {"C1_max": 6, "C2_saddle": 12, "C3_min": 8}
    for p in pts:
        target = {"C1_max": 1.0, "C2_saddle": 2.0 ** (1 - alpha),
                  "C3_min": 3.0 ** (1 - alpha)}[p.class_label]
        assert p.value == pytest.approx(target, abs=1e-13)
    with capsys.disabled():
        report(10, f"alpha={alpha:g}: 6/12/8 points, values 1/{2.0**(1-alpha):g}/"
                   f"{3.0**(1-alpha):g}, grad<1e-10, signatures verified")


def test_criterion_11_ancillary_pdfs(capsys):
    # observable expectation: uniform on the spectrum interval
    vals = md.sample_array("observable", 2.0, 2, 1, 1_000_000, seed=4070)
    ks = kstest(vals, "uniform", args=(-1.0, 2.0)).statistic
    assert ks < 1.628 / math.sqrt(vals.size)  # 99% critical value

    # coherence: density c / sqrt(1 - c^2), checked per bin away from c = 1
    n_samples = 1_000_000
    edges = np.linspace(0.0, 1.0, 201)
    hist = md.histogram_measure("coherence", 2.0, 2, 1, n_samples, 4071, edges)
    cdf = lambda c: 1.0 - np.sqrt(np.maximum(1.0 - c * c, 0.0))
    expected = n_samples * (cdf(hist.edges[1:]) - cdf(hist.edges[:-1]))
    keep = hist.edges[1:] <= 0.98
    z = np.abs(hist.counts[keep] - expected[keep]) / np.sqrt(expected[keep])
    assert float(z.max()) < 4.0
    with capsys.disabled():
        report(11, f"observable KS={ks*math.sqrt(vals.size):.3f}/1.628 (scaled), "
                   f"coherence max |z|={z.max():.2f} over {int(keep.sum())} bins")


def test_criterion_12_normalizations(capsys):
    total_n = md.tabulate_pdf("n", num_points=700, tol=1e-9, guard=1e-6).integral()
    total_m = md.tabulate_pdf("m", num_points=700, tol=1e-9, guard=1e-6).integral()
    assert total_n == pytest.approx(1.0, abs=1e-4)
    assert total_m == pytest.approx(1.0, abs=1e-4)
    with capsys.disabled():
        report(12, f"int P_N2 = {total_n:.6f}, int P_M2 = {total_m:.6f}")
