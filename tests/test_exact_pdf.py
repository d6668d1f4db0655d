import dataclasses
import math
from decimal import Decimal
from functools import partial
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from magicdist import exact_pdf

from magicdist import (
    DIVERGENCE_SLOPE_N2,
    InvalidSpectrum,
    PureState,
    SingularPoint,
    characteristic_function_n2,
    critical_points,
    fit_log_divergence,
    from_bloch,
    law,
    mean_sre_exact,
    n_critical,
    pdf_coherence,
    pdf_n2_exact,
    pdf_observable,
    single_qubit_cliffords,
    support_for,
    tabulate_pdf,
    to_bloch,
    BlochVector,
    haar_moments_n2,
)
from magicdist.errors import InvalidOrder
from magicdist.exact_pdf import PdfCurve

# reference densities integrated independently at 30 digits (tanh-sinh on
# the factored radicand, interval split at the interior peak)
PDF_N2_REFS = [
    (0.35, 1.5596470964180234),
    (0.4, 1.7955993811606531),
    (0.45, 2.2173586490290893),
    (0.499, 4.7833109517202986),
    (0.501, 4.7749211645718891),
    (0.55, 2.089558065256154),
    (0.7, 1.2059936343399199),
    (0.95, 0.79539966777252169),
]

MEAN_SRE_NATS = 0.22892114288710578
MEAN_SRE_BITS = 0.33026339759786131
# mpmath 1.3.0, mp.quad at 40 digits over [0, 1/2] and [1/2, 1]
MEAN_SRE_40_DIGITS = "0.22892114288710578057833977338194509535"

def law_density(variable, alpha, x, tol=1e-10):
    """Density of a one-qubit variable at one value, through the density of its law."""
    return float(law(variable, alpha).density(np.array([x], dtype=float), tol)[0][0])


xi_density, m_density, mlin_density = (partial(law_density, v) for v in ("xi", "m", "mlin"))


CHI_REFS = [
    (1.0, 0.8131191992170205, 0.5556695688954067),
    (5.0, -0.6563092461407328, 0.1471935661131842),
    (20.0, -0.09094124653446146, -0.004581595179836717),
    (137.0, -0.003456721123021187, -0.01223679929601373),
]


class TestPdfN2:
    @pytest.mark.parametrize("n,ref", PDF_N2_REFS)
    def test_reference_values(self, n, ref):
        assert pdf_n2_exact(n, tol=1e-11) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("n,ref", PDF_N2_REFS)
    def test_reference_values_at_the_default_tol(self, n, ref):
        # the 8-node panels certify at level 1 here, far inside the budget
        assert pdf_n2_exact(n, tol=1e-9) == pytest.approx(ref, rel=1e-14)

    def test_zero_outside_support(self):
        for n in (1.0 / 3.0 - 1e-3, 1.0 + 1e-12, 0.2, 1.2, float("nan")):
            assert pdf_n2_exact(n) == 0.0

    def test_step_values_at_edges(self):
        # the density steps to 3/2 at the lower edge and 3/4 at the upper
        assert pdf_n2_exact(1.0 / 3.0 + 1e-11, tol=1e-11) == pytest.approx(1.5, abs=1e-8)
        assert pdf_n2_exact(1.0 - 1e-11, tol=1e-11) == pytest.approx(0.75, abs=1e-8)

    def test_singular_guard(self):
        with pytest.raises(SingularPoint) as err:
            pdf_n2_exact(0.5 + 1e-10)
        sp = err.value
        assert sp.location == 0.5
        assert sp.log_slope == pytest.approx(DIVERGENCE_SLOPE_N2)
        assert sp.log_intercept == pytest.approx(0.1147, abs=2e-3)

    def test_model_predicts_nearby_density(self):
        with pytest.raises(SingularPoint) as err:
            pdf_n2_exact(0.5)
        sp = err.value
        # _mapped_density's remap at "n" (Jacobian 1) keeps the engine's model to the bit
        assert (sp.location, sp.log_slope, sp.log_intercept) == (
            0.5, DIVERGENCE_SLOPE_N2, 0.11472230142428841)
        for eps in (1e-5, 1e-6, 1e-7):
            model = -sp.log_slope * math.log(eps) + sp.log_intercept
            assert pdf_n2_exact(0.5 + eps, tol=1e-11) == pytest.approx(model, abs=2e-4)

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            pdf_n2_exact(0.4, tol=1e-3)
        with pytest.raises(ValueError):
            pdf_n2_exact(0.4, tol=1e-13)

    def test_divergence_slope_sequence(self):
        # fitted slope of P against ln(eps) approaches 3/(sqrt(2) pi)
        eps = np.array([1e-3, 1e-4, 1e-5])
        vals = np.array([pdf_n2_exact(0.5 + e, tol=1e-11) for e in eps])
        slope = np.polyfit(-np.log(eps), vals, 1)[0]
        assert slope == pytest.approx(DIVERGENCE_SLOPE_N2, rel=0.02)


class TestRoots:
    """The engine's squared roots against the textbook (1 +- sqrt(6n-2))/3
    and (1 +- sqrt(2n-1))/2."""

    @pytest.mark.parametrize("n", [0.34, 0.4, 0.49, 0.5])
    def test_below_half(self, n):
        x_m2, x_p2, _, _, t, _ = exact_pdf._root_squares(n)
        s = math.sqrt(6 * n - 2)
        assert x_m2 == pytest.approx((1 - s) / 3, abs=1e-12)
        assert x_p2 == pytest.approx((1 + s) / 3, abs=1e-12)
        assert t == 0.0
        assert 0 <= x_m2 <= x_p2 <= 1

    @pytest.mark.parametrize("n", [0.51, 0.7, 0.99])
    def test_above_half(self, n):
        x_m2, x_p2, y_m2, y_p2, t, gap_xy2 = exact_pdf._root_squares(n)
        s, t_ref = math.sqrt(6 * n - 2), math.sqrt(2 * n - 1)
        assert x_m2 < 0
        assert x_p2 == pytest.approx((1 + s) / 3, abs=1e-12)
        assert y_m2 == pytest.approx((1 - t_ref) / 2, abs=1e-12)
        assert y_p2 == pytest.approx((1 + t_ref) / 2, abs=1e-12)
        # the gaps the engine reads instead of differences of the squares
        assert t == pytest.approx(y_p2 - y_m2, abs=1e-12)
        assert gap_xy2 == pytest.approx(x_p2 - y_p2, abs=1e-12)
        assert 0 <= y_m2 <= y_p2 <= x_p2 <= 1


class TestChangeOfVariable:
    def test_supports(self):
        assert support_for("n", 2.0) == pytest.approx((1 / 3, 1.0))
        assert support_for("xi", 2.0) == pytest.approx((2 / 3, 1.0))
        assert support_for("m", 2.0) == pytest.approx((0.0, math.log(1.5)))

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_entropy_support_starts_at_positive_zero(self, alpha):
        lo = support_for("m", alpha)[0]
        assert lo == 0.0 and math.copysign(1.0, lo) == 1.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_linear_entropy_support(self, alpha):
        xi_lo, xi_hi = support_for("xi", alpha)
        assert support_for("mlin", alpha) == (1.0 - xi_hi, 1.0 - xi_lo)

    def test_singular_models_keep_their_closed_forms(self):
        slope, b = DIVERGENCE_SLOPE_N2, exact_pdf.n2_log_intercept()
        with pytest.raises(SingularPoint) as err:
            xi_density(2.0, 0.75)
        assert err.value.log_slope == pytest.approx(2.0 * slope, rel=1e-12)
        assert err.value.log_intercept == pytest.approx(2.0 * (b - slope * math.log(2.0)),
                                                        rel=1e-12)
        mc = law("m", 2.0).singular_points[0]
        scale = 2.0 * math.exp(-mc)  # 2 e^((1 - alpha) m_c) (alpha - 1) at alpha = 2
        with pytest.raises(SingularPoint) as err:
            m_density(2.0, mc)
        assert err.value.location == mc
        assert err.value.log_slope == pytest.approx(scale * slope, rel=1e-12)
        assert err.value.log_intercept == pytest.approx(
            scale * (b - slope * math.log(scale)), rel=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-13, 1e-3, 1.0])
    def test_tolerance_range_enforced(self, tol):
        for density in (xi_density, m_density):
            with pytest.raises(ValueError, match="tol must lie"):
                density(2.0, 0.2, tol=tol)
        with pytest.raises(ValueError, match="tol must lie"):
            tabulate_pdf("xi", num_points=20, tol=tol)

    def test_xi_value(self):
        assert xi_density(2.0, 0.87, tol=1e-10) == pytest.approx(2.209523923758365, abs=1e-9)

    def test_m_value(self):
        assert m_density(2.0, 0.2, tol=1e-10) == pytest.approx(2.338225249898894, abs=1e-9)

    def test_outside_support(self):
        assert xi_density(2.0, 0.5) == 0.0
        assert m_density(2.0, 0.5) == 0.0
        assert m_density(2.0, -0.01) == 0.0

    def test_alpha_not_two_unsupported(self):
        # the law has no density there, and a tabulation is refused
        assert law("xi", 3.0).density is None
        assert law("m", 3.0).density is None
        with pytest.raises(NotImplementedError, match=r"^no closed-form xi density at "
                                                      r"alpha = 3\.0$"):
            tabulate_pdf("xi", 3.0, num_points=20)

    def test_mapped_singularities(self):
        assert law("xi", 2.0).singular_points[0] == pytest.approx(0.75)
        assert law("m", 2.0).singular_points[0] == pytest.approx(math.log(4 / 3))
        with pytest.raises(SingularPoint) as err:
            xi_density(2.0, 0.75)
        assert err.value.log_slope == pytest.approx(2 * DIVERGENCE_SLOPE_N2, rel=1e-9)
        with pytest.raises(SingularPoint) as err:
            m_density(2.0, math.log(4 / 3))
        assert err.value.location == pytest.approx(math.log(4 / 3))

    def test_xi_divergence_slope(self):
        # chain rule doubles the coefficient: 6/(sqrt(2) pi) against ln(eps)
        eps = np.array([1e-4, 1e-5, 1e-6])
        vals = np.array([xi_density(2.0, 0.75 + e, tol=1e-10) for e in eps])
        slope = np.polyfit(-np.log(eps), vals, 1)[0]
        assert slope == pytest.approx(2 * DIVERGENCE_SLOPE_N2, rel=0.02)

    def test_m_log_divergence_both_sides(self):
        mc = law("m", 2.0).singular_points[0]
        eps = np.array([1e-4, 1e-5, 1e-6])
        for side in (+1, -1):
            vals = np.array([m_density(2.0, mc + side * e, tol=1e-10) for e in eps])
            slope = np.polyfit(-np.log(eps), vals, 1)[0]
            assert slope == pytest.approx(1.5 * DIVERGENCE_SLOPE_N2, rel=0.03)


class TestCriticalPoints:
    # from alpha = 25 on, the unscaled tangent eigenvalues fall below 1e-8
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0, 25.0, 50.0, 200.0, 1000.0])
    def test_census(self, alpha):
        pts = critical_points(alpha)
        assert len(pts) == 26
        by_class = {}
        for p in pts:
            by_class.setdefault(p.class_label, []).append(p)
        assert len(by_class["C1_max"]) == 6
        assert len(by_class["C2_saddle"]) == 12
        assert len(by_class["C3_min"]) == 8
        for p in by_class["C1_max"]:
            assert p.value == pytest.approx(1.0, abs=1e-14)
        for p in by_class["C2_saddle"]:
            assert p.value == pytest.approx(2.0 ** (1 - alpha), abs=1e-14)
        for p in by_class["C3_min"]:
            assert p.value == pytest.approx(3.0 ** (1 - alpha), abs=1e-14)
        for p in pts:
            assert p.grad_norm < 1e-10

    def test_order_guard(self):
        for alpha in (1.0, 0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidOrder):
                critical_points(alpha)

    @pytest.mark.parametrize("alpha", [2.0, 25.0, 50.0])
    def test_gradient_check_is_relative(self, alpha):
        # 1e-3 along the great circle off the (1, 1, 0)/sqrt(2) saddle: the
        # Hessian still reads a saddle, and the unscaled gradient is 1.7e-14
        # at alpha = 50, so only a relative gradient check refuses the point
        saddle = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        along = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert exact_pdf._check_critical(saddle, "C2_saddle", alpha) < 1e-10
        with pytest.raises(ArithmeticError):
            exact_pdf._check_critical(saddle * math.cos(1e-3) + along * math.sin(1e-3),
                                      "C2_saddle", alpha)

    @pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.0 + 1e-14])
    def test_a_nearly_flat_saddle_is_classified(self, alpha):
        # the saddle's positive tangent eigenvalue is 2 (alpha - 1) against -1, and
        # the minimum's are 2 (alpha - 1) twice: far under 1e-8 of the largest, yet
        # their signs are resolved, because the zero is tied to rounding
        pts = critical_points(alpha)
        classes = [p.class_label for p in pts]
        assert {c: classes.count(c) for c in set(classes)} == {
            "C1_max": 6, "C2_saddle": 12, "C3_min": 8}
        saddle = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        eigs = exact_pdf._tangent_hessian_eigs(saddle, alpha)
        assert eigs.min() == pytest.approx(-1.0)
        assert abs(eigs.max() - 2.0 * (alpha - 1.0)) < exact_pdf._hessian_zero(alpha)

    @pytest.mark.parametrize("alpha", [2e14, 1e15, 1e300])
    def test_a_maximum_too_flat_to_classify_is_refused(self, alpha):
        # the maxima's curvature -1 is under the Hessian's rounding from about
        # alpha = 1.4e14 on: refused as an order, not a failed classification
        assert exact_pdf._hessian_zero(alpha) >= 1.0
        with pytest.raises(InvalidOrder, match="too large"):
            critical_points(alpha)

    def test_the_largest_classified_orders(self):
        for alpha in (1e13, 1.4e14):
            classes = [p.class_label for p in critical_points(alpha)]
            assert {c: classes.count(c) for c in set(classes)} == {
                "C1_max": 6, "C2_saddle": 12, "C3_min": 8}

    @pytest.mark.parametrize("alpha", [1.0 + 1e-15, 1.0 + 2**-52])
    def test_a_saddle_too_flat_to_classify_is_refused(self, alpha):
        # 2 (alpha - 1) under the Hessian's rounding: refused as an order, before
        # any point is classified
        assert 2.0 * (alpha - 1.0) <= exact_pdf._hessian_zero(alpha)
        with pytest.raises(InvalidOrder, match="too close to 1"):
            critical_points(alpha)

    def test_saddle_values(self):
        assert n_critical(2.0) == pytest.approx(0.5)
        assert n_critical(4.0) == pytest.approx(0.125)

    def test_saddles_are_h_state_orbit(self):
        h = from_bloch(BlochVector(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)))
        orbit = set()
        for u in single_qubit_cliffords():
            mapped = PureState(u @ h.amplitudes, 2, 1)
            orbit.add(tuple(np.round(to_bloch(mapped).as_array(), 9) + 0.0))
        saddles = {
            tuple(np.round(p.bloch.as_array(), 9) + 0.0)
            for p in critical_points(2.0)
            if p.class_label == "C2_saddle"
        }
        assert orbit == saddles

    def test_tangent_basis_is_orthonormal_and_perpendicular(self):
        points = critical_points(2.0)
        assert len(points) == 26
        for p in points:
            vec = p.bloch.as_array()
            tangent = exact_pdf._tangent_basis(vec)
            assert tangent.shape == (3, 2)
            np.testing.assert_allclose(tangent.T @ tangent, np.eye(2), atol=1e-15)
            np.testing.assert_allclose(vec @ tangent, 0.0, atol=1e-15)


class TestGaussLegendreRules:
    """The fixed rules equal scipy's roots_legendre mapped to [0, 1], bit for bit."""

    @staticmethod
    def _mapped(n):
        x, w = roots_legendre(n)
        return (x + 1.0) / 2.0, w / 2.0

    def test_panel_rule(self):
        nodes, weights = self._mapped(12)
        assert exact_pdf._PANEL_NODES.tobytes() == nodes.tobytes()
        assert exact_pdf._PANEL_WEIGHTS.tobytes() == weights.tobytes()

    def test_density_rule(self):
        nodes, weights = self._mapped(8)
        assert exact_pdf._PDF_NODES.tobytes() == nodes.tobytes()
        assert exact_pdf._PDF_WEIGHTS.tobytes() == weights.tobytes()

    def test_chi_rule(self):
        nodes, weights = self._mapped(32)
        built_nodes, built_weights = exact_pdf._chi_rule()
        assert built_nodes.tobytes() == nodes.tobytes()
        assert built_weights.tobytes() == weights.tobytes()


class TestMeanSre:
    def test_exact_value(self):
        assert mean_sre_exact(tol=1e-10) == pytest.approx(MEAN_SRE_NATS, abs=1e-9)

    def test_bits_equivalent(self):
        assert mean_sre_exact(tol=1e-10) / math.log(2) == pytest.approx(MEAN_SRE_BITS, abs=1e-9)

    def test_tolerance_contract(self):
        assert mean_sre_exact(tol=1e-4) == pytest.approx(mean_sre_exact(tol=1e-8), abs=1e-4)

    def test_integrand_endpoints(self):
        # direct substitution: at x=0 the argument is 16/(4 sqrt(3) + 7),
        # at x=1 it is 16/16
        lo = math.log(16.0 / (4.0 * math.sqrt(3.0) + 7.0))
        assert lo == pytest.approx(math.log(16.0 / 13.9282), abs=1e-4)
        from scipy.integrate import quad

        def f(x):
            u = x * x
            inner = 3 * u**4 - 5 * u**3 + 8 * u**2 - 5 * u + 3
            return math.log(16.0 / (7 * u * u - 6 * u + 4 * math.sqrt(inner) + 7))

        assert f(0.0) == pytest.approx(lo, abs=1e-14)
        assert f(1.0) == pytest.approx(0.0, abs=1e-14)
        assert quad(f, 0, 1)[0] == pytest.approx(MEAN_SRE_NATS, abs=1e-8)


class TestQuad:
    """The certified panel rule behind ``mean_sre_exact`` and chi(k)."""

    def test_mean_within_half_an_ulp(self):
        error = Decimal(mean_sre_exact(1e-12)) - Decimal(MEAN_SRE_40_DIGITS)
        assert abs(error) <= Decimal("1.4e-17")

    def test_exponential(self):
        tol = 1e-14
        value, difference = exact_pdf.quad(np.exp, 0.0, 1.0, tol, exact_pdf._PANEL_NODES,
                                           exact_pdf._PANEL_WEIGHTS)
        assert abs(value - (math.e - 1.0)) <= 1e-15
        assert difference <= tol

    def test_complex_integrand_on_a_shifted_interval(self):
        # Integral_1^3 exp(i x) dx = -i (exp(3i) - exp(i))
        value, difference = exact_pdf.quad(lambda x: np.exp(1j * x), 1.0, 3.0, 1e-13,
                                           exact_pdf._PANEL_NODES, exact_pdf._PANEL_WEIGHTS)
        assert abs(value - (-1j) * (np.exp(3j) - np.exp(1j))) <= 1e-14
        assert difference <= 1e-13

    def test_a_jump_is_not_certified(self, monkeypatch):
        monkeypatch.setattr(exact_pdf, "_MAX_PANELS", 64)
        with pytest.raises(ArithmeticError, match="64 panels"):
            exact_pdf.quad(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, 1e-12,
                           exact_pdf._PANEL_NODES, exact_pdf._PANEL_WEIGHTS)


class TestAncillaryPdfs:
    def test_coherence_values(self):
        assert pdf_coherence(0.0) == 0.0
        assert pdf_coherence(1 / math.sqrt(2)) == pytest.approx(1.0, abs=1e-14)
        assert pdf_coherence(-0.2) == 0.0
        assert pdf_coherence(1.3) == 0.0

    def test_coherence_singular_at_one(self):
        with pytest.raises(SingularPoint):
            pdf_coherence(1.0)

    def test_coherence_normalized(self):
        from scipy.integrate import quad

        val, _ = quad(lambda c: pdf_coherence(c), 0.0, 1.0, points=[1.0], limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_observable_uniform(self):
        assert pdf_observable(0.0, -1.0, 1.0) == pytest.approx(0.5)
        assert pdf_observable(2.0, -1.0, 1.0) == 0.0
        assert pdf_observable(-1.0, -1.0, 1.0) == pytest.approx(0.5)

    def test_observable_normalized(self):
        a1, a2 = -0.7, 2.1
        grid = np.linspace(a1, a2, 1001)
        vals = [pdf_observable(a, a1, a2) for a in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-12)

    def test_observable_bad_spectrum(self):
        with pytest.raises(InvalidSpectrum):
            pdf_observable(0.0, 1.0, 1.0)


class TestCharacteristicFunction:
    def test_at_zero(self):
        assert characteristic_function_n2(0.0) == pytest.approx(1.0 + 0.0j)

    def test_conjugate_symmetry(self):
        for k in (0.5, 3.0, 11.0):
            a = characteristic_function_n2(k, tol=1e-10)
            b = characteristic_function_n2(-k, tol=1e-10)
            assert b == pytest.approx(np.conj(a), abs=1e-9)

    @pytest.mark.parametrize("k,re,im", CHI_REFS)
    def test_reference_values(self, k, re, im):
        val = characteristic_function_n2(k, tol=1e-10)
        assert val.real == pytest.approx(re, abs=1e-8)
        assert val.imag == pytest.approx(im, abs=1e-8)

    def test_k_guard(self):
        with pytest.raises(ValueError):
            characteristic_function_n2(2e4)

    def test_matches_monte_carlo_average(self):
        from magicdist import sample_array

        k = 5.0
        vals = sample_array("n", 2.0, 2, 1, 4_000_000, seed=55)
        phases = np.exp(1j * k * vals)
        mc = phases.mean()
        sigma = np.std(phases.real) / math.sqrt(vals.size)  # ~ same for imag
        chi = characteristic_function_n2(k, tol=1e-10)
        assert abs(mc.real - chi.real) < 3 * sigma
        assert abs(mc.imag - chi.imag) < 3 * sigma

    def test_inverse_transform_matches_density(self):
        # truncated Fourier inversion; a Hann taper on the last quarter of
        # the k grid suppresses Gibbs ringing, and the test points stay
        # clear of the support edges and the divergence
        k_grid = np.linspace(0.0, 320.0, 1281)
        chi = characteristic_function_n2(k_grid, tol=1e-9)
        taper = np.ones_like(k_grid)
        tail = k_grid > 240.0
        taper[tail] = 0.5 * (1 + np.cos(np.pi * (k_grid[tail] - 240.0) / 80.0))
        chi = chi * taper
        test_points = [0.405, 0.415, 0.425, 0.58, 0.64, 0.70, 0.76, 0.82, 0.88, 0.92]
        for n in test_points:
            val = np.trapezoid((chi * np.exp(-1j * k_grid * n)).real, k_grid) / np.pi
            assert val == pytest.approx(pdf_n2_exact(float(n), tol=1e-10), abs=1e-2)

    def test_central_difference_gives_haar_mean(self):
        # chi'(0) = i E[N_2] and the Haar mean of N_2 is 3/5
        h = 1e-4
        slope = (characteristic_function_n2(h) - characteristic_function_n2(-h)) / (2 * h)
        assert abs(slope - 0.6j) < 1e-7

    @staticmethod
    def _sphere_average(k, n_c=600, n_phi=512):
        # E[exp(i k sum_j n_j^4)] over the Bloch sphere: Gauss-Legendre in
        # cos(theta), trapezoid in the periodic azimuth; no J0 involved
        c, w = roots_legendre(n_c)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        s2 = 1.0 - c * c
        n2 = c[:, None] ** 4 + s2[:, None] ** 2 * (np.cos(phi) ** 4 + np.sin(phi) ** 4)
        return complex(w @ np.exp(1j * k * n2).mean(axis=1)) / 2.0

    @pytest.mark.parametrize("k", [1.0, 50.0, 160.0, 320.0])
    def test_matches_sphere_quadrature(self, k):
        assert abs(characteristic_function_n2(k) - self._sphere_average(k)) < 1e-10

    def test_certified_at_the_guard_in_bounded_memory(self):
        tracemalloc.start()
        try:
            fine = characteristic_function_n2(1e4, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(fine - characteristic_function_n2(1e4, tol=1e-10)) < 1e-10
        assert peak < 16 * 2**20

    def test_array_matches_scalar_bitwise(self):
        ks = np.array([[0.0, -3.5, 20.0], [137.0, 1e3, -1e4]])
        vals = characteristic_function_n2(ks)
        assert vals.shape == ks.shape and vals.dtype == complex
        scalars = np.array([[characteristic_function_n2(float(k)) for k in row] for row in ks])
        assert np.array_equal(vals, scalars)
        assert type(characteristic_function_n2(2.0)) is complex

    def test_array_guard_applies_to_every_entry(self):
        with pytest.raises(ValueError):
            characteristic_function_n2(np.array([0.0, 5.0, -2e4]))
        with pytest.raises(ValueError):
            characteristic_function_n2(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-13, 1e-3])
    def test_tol_guard(self, tol):
        with pytest.raises(ValueError, match="tol must lie"):
            characteristic_function_n2(1.0, tol=tol)

    def test_uncertified_raises(self, monkeypatch):
        monkeypatch.setattr(exact_pdf, "_MAX_PANELS", 64)
        with pytest.raises(ArithmeticError):
            characteristic_function_n2(1e4)


class TestTabulation:
    def test_curve_normalization_n(self):
        curve = tabulate_pdf("n", num_points=700, tol=1e-9, guard=1e-6)
        assert curve.integral() == pytest.approx(1.0, abs=1e-4)

    def test_curve_normalization_m(self):
        curve = tabulate_pdf("m", num_points=700, tol=1e-9, guard=1e-6)
        assert curve.integral() == pytest.approx(1.0, abs=1e-4)

    def test_curve_metadata(self):
        curve = tabulate_pdf("n", num_points=200)
        assert curve.singular_points == (0.5,)
        assert curve.support == pytest.approx((1 / 3, 1.0))
        assert np.all(curve.densities >= 0)
        assert np.all(np.diff(curve.abscissas) > 0)
        assert np.all(np.abs(curve.abscissas - 0.5) > 0.9e-5)

    def test_xi_curve(self):
        curve = tabulate_pdf("xi", num_points=400, tol=1e-9, guard=1e-6)
        assert curve.singular_points == (0.75,)
        assert curve.support == pytest.approx((2 / 3, 1.0))
        assert curve.integral() == pytest.approx(1.0, abs=2e-4)
        i = int(np.searchsorted(curve.abscissas, 0.87))
        x = float(curve.abscissas[i])
        assert curve.densities[i] == pytest.approx(xi_density(2.0, x, tol=1e-9), abs=1e-8)

    def test_m_boundary_steps(self):
        # P_M(0+) = 2 P_N(1-) = 3/2 and P_M(log(3/2)-) = (4/3) P_N(1/3+) = 2
        assert m_density(2.0, 1e-10, tol=1e-10) == pytest.approx(1.5, abs=1e-7)
        assert m_density(2.0, math.log(1.5) - 1e-10, tol=1e-10) == pytest.approx(2.0, abs=1e-7)

    def test_exact_curve_divergence_fit(self):
        curve = tabulate_pdf("n", num_points=900, tol=1e-10, guard=1e-6)
        fit = fit_log_divergence(curve, 0.5, (1e-5, 1e-3))
        assert fit.slope == pytest.approx(DIVERGENCE_SLOPE_N2, rel=0.005)
        assert fit.r_squared > 0.999

    def test_curve_normalization_mlin(self):
        curve = tabulate_pdf("mlin", num_points=700, tol=1e-9, guard=1e-6)
        assert curve.support == (0.0, 1.0 - 2.0 / 3.0)
        assert curve.singular_points == (0.25,)
        assert curve.integral() == pytest.approx(1.0, abs=1e-4)

    def test_mlin_is_the_mirrored_purity(self):
        # M_lin = 1 - Xi, so P_Mlin(v) = P_Xi(1 - v) through the same N
        for v in (0.01, 0.1, 0.2, 0.2499, 0.2501, 0.3):
            assert mlin_density(2.0, v) == xi_density(2.0, 1.0 - v)

    def test_mlin_curve_divergence_fit(self):
        # |dN/dv| = 2 doubles the coefficient of N_2, as for Xi
        curve = tabulate_pdf("mlin", num_points=900, tol=1e-10, guard=1e-6)
        fit = fit_log_divergence(curve, 0.25, (1e-5, 1e-3))
        assert fit.slope == pytest.approx(2.0 * DIVERGENCE_SLOPE_N2, rel=0.005)
        assert fit.r_squared > 0.999

    @pytest.mark.parametrize("variable", ["coherence", "observable"])
    def test_no_closed_form_law(self, variable):
        assert exact_pdf.law(variable) is None
        with pytest.raises(NotImplementedError):
            tabulate_pdf(variable, num_points=20)

    # NaN fails every comparison, so a check of the form "if bad: raise" lets it by
    @pytest.mark.parametrize("abscissas, densities, message", [
        ([0.0, 1.0, 2.0], [1.0, 1.0], "equal length"),
        ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, 1.0, 2.0], [1.0, -1.0, 1.0], "non-negative"),
        ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], "finite"),
        ([np.nan], [1.0], "finite"),  # no difference to compare
        ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], "finite"),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "non-negative"),
    ], ids=["lengths", "order", "sign", "nan_abscissa", "lone_nan_abscissa", "inf_abscissa",
            "nan_density"])
    def test_a_malformed_curve_is_refused(self, abscissas, densities, message):
        with pytest.raises(ValueError, match=message):
            PdfCurve("n", 2.0, abscissas, densities, (0.0, 2.0))


class TestDensityEngine:
    """The vectorised Gauss-Legendre engine behind every exact N_2 density."""

    def test_tabulation_equals_scalar_bitwise(self):
        # one path: pdf_n2_exact goes through law and _mapped_density as the
        # tabulation does, also at both support ends nudged inward, where the
        # "high" segment near n = 1 is a sliver between coalescing roots
        curve = tabulate_pdf("n", num_points=1500)
        lo, hi = law("n").support
        assert lo < curve.abscissas[0] < lo + 1e-9 and hi - 1e-9 < curve.abscissas[-1] < hi
        scalars = [pdf_n2_exact(float(x), tol=1e-9) for x in curve.abscissas]
        assert np.array_equal(curve.densities, scalars)

    @pytest.mark.parametrize("variable", ["xi", "m", "mlin"])
    def test_mapped_tabulation_equals_scalar_bitwise(self, variable):
        density = {"xi": xi_density, "m": m_density, "mlin": mlin_density}[variable]
        curve = tabulate_pdf(variable, num_points=300, tol=1e-10)
        scalars = [density(2.0, float(x), tol=1e-10) for x in curve.abscissas]
        assert np.array_equal(curve.densities, scalars)

    def test_rows_straddling_a_block_equal_their_scalar_calls(self, monkeypatch):
        # a block of 2^10 nodes holds 16 rows of the depth-0, level-1 rule
        # and 1 of the deepest, so most depth groups span several blocks
        monkeypatch.setattr(exact_pdf, "_PDF_BLOCK_NODES", 2**10)
        straddled = []
        quadrature = exact_pdf._graded_quadrature

        def spy(depth, level, segment, tasks):
            size = exact_pdf._graded_rule(depth, level, *segment[1:3])[2].size
            straddled.append(len(tasks) > max(1, 2**10 // size))
            return quadrature(depth, level, segment, tasks)

        monkeypatch.setattr(exact_pdf, "_graded_quadrature", spy)
        curve = tabulate_pdf("n", num_points=300)
        assert any(straddled)
        scalars = [pdf_n2_exact(float(x), tol=1e-9) for x in curve.abscissas]
        assert np.array_equal(curve.densities, scalars)
        monkeypatch.undo()
        assert np.array_equal(curve.densities, tabulate_pdf("n", num_points=300).densities)

    @pytest.mark.parametrize("values", [
        [], [3], [2, 0, 2, 1, 1], [0.5, -0.0, 0.25, 0.0, 0.5, -1e-300], np.linspace(1, 0, 7)])
    def test_sorted_unique_is_np_unique(self, values):
        a = np.asarray(values)
        got = exact_pdf.sorted_unique(a)
        assert got.dtype == np.unique(a).dtype
        assert got.tobytes() == np.unique(a).tobytes()

    def test_curve_moments_match_haar_moments(self):
        # exact Haar moments of N_2 for one qubit: mean 3/5, variance 16/525
        mean, var = (float(v) for v in haar_moments_n2(1))
        curve = tabulate_pdf("n", num_points=1500)

        def moment(k):
            weighted = dataclasses.replace(curve, densities=curve.abscissas**k * curve.densities)
            return weighted.integral()

        assert moment(1) == pytest.approx(mean, abs=1e-5)
        assert moment(2) == pytest.approx(var + mean**2, abs=1e-5)

    def test_references_without_a_priori_grading(self, monkeypatch):
        # with every segment on the coarse start mesh, refinement alone
        # reaches the references, and the certificate still bounds the error
        graded = tabulate_pdf("n", num_points=200, tol=1e-6, guard=1e-8)
        monkeypatch.setattr(exact_pdf, "_PDF_MAX_DEPTH", 0)
        for n, ref in PDF_N2_REFS:
            assert pdf_n2_exact(n, tol=1e-11) == pytest.approx(ref, abs=1e-10)
        coarse = tabulate_pdf("n", num_points=200, tol=1e-6, guard=1e-8)
        assert 1e-9 < coarse.quadrature_error <= 1e-6
        assert np.max(np.abs(coarse.densities - graded.densities)) <= 1e-6

    def test_refinement_cap_raises(self, monkeypatch):
        assert pdf_n2_exact(0.5 + 1e-6, tol=1e-11) > 0
        monkeypatch.setattr(exact_pdf, "_PDF_MAX_DEPTH", 0)
        monkeypatch.setattr(exact_pdf, "_PDF_MAX_LEVEL", 2)
        with pytest.raises(ArithmeticError, match="not certified"):
            pdf_n2_exact(0.5 + 1e-6, tol=1e-11)

    def test_near_the_guard_and_the_edges(self):
        # 40-digit values of the unfactored integral (mpmath tanh-sinh)
        assert pdf_n2_exact(0.5 - 1.01e-9, tol=1e-12) == pytest.approx(14.101124123262696,
                                                                      abs=1e-12)
        assert pdf_n2_exact(0.5 + 1.01e-9, tol=1e-12) == pytest.approx(14.101124093604855,
                                                                      abs=1e-12)
        assert pdf_n2_exact(1.0) == 0.0
        assert pdf_n2_exact(float(np.nextafter(0.375, 1.0)), tol=1e-12) == pytest.approx(
            pdf_n2_exact(0.375, tol=1e-12), abs=1e-12)

    def test_tabulation_memory_is_bounded(self):
        tracemalloc.start()
        try:
            tabulate_pdf("n", num_points=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("variable,tol", [("n", 1e-9), ("xi", 1e-10), ("m", 1e-8),
                                              ("mlin", 1e-9)])
    def test_quadrature_error_is_kept(self, variable, tol):
        curve = tabulate_pdf(variable, num_points=200, tol=tol)
        assert 0.0 <= curve.quadrature_error <= tol
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.quadrature_error = 0.0
        assert PdfCurve("n", 2.0, [0.4, 0.6], [1.0, 1.0], (1 / 3, 1.0)).quadrature_error == 0.0

    @pytest.mark.parametrize("guard", [1e-9, 1e-13, 0.0, -1e-5, 0.1, float("nan")])
    def test_guard_range_enforced(self, guard):
        with pytest.raises(ValueError, match="guard must lie"):
            tabulate_pdf("n", num_points=50, guard=guard)

    def test_smallest_guard_tabulates(self):
        for variable in ("n", "xi", "m", "mlin"):
            curve = tabulate_pdf(variable, num_points=50, guard=1.002e-9)
            c = curve.singular_points[0]
            assert np.min(np.abs(curve.abscissas - c)) < 2e-9
