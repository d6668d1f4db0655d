import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from magicdist import (
    DimensionMismatch,
    InvalidObservable,
    InvalidOrder,
    PauliSpectrum,
    ResourceLimit,
    SeededRng,
    UseWeylPath,
    coherence_l1,
    displacement_operator,
    expectation,
    from_bloch,
    haar_sample,
    incompatibility,
    magic_report,
    measure_from_n,
    n_from_measure,
    pauli_spectrum_fast,
    pauli_spectrum_naive,
    single_qubit_cliffords,
    state_from_amplitudes,
    tensor,
    to_bloch,
    weyl_spectrum,
    BlochVector,
    PureState,
)
from magicdist.pauli_spectrum import _SYLVESTER, _factor_bits, _wht_last
from magicdist.pauli_spectrum import hermitian_observable, measure_rows
from magicdist.pauli_spectrum import pauli_moment_batch, weyl_moment_batch
from magicdist.statevec import haar_block, register_shape

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0 + 0j, -1.0])
INV_SQRT2 = 1.0 / np.sqrt(2)

H_STATE = from_bloch(BlochVector(INV_SQRT2, 0.0, INV_SQRT2))
T_STATE = from_bloch(BlochVector(*(np.ones(3) / np.sqrt(3))))


def kron_spectrum(state):
    """Independent oracle: dense Kronecker Pauli strings, site 0 = MSB."""
    n = state.num_sites
    psi = state.amplitudes
    d = psi.size
    out = np.zeros(d * d - 1)
    for codes in itertools.product(range(4), repeat=n):
        if not any(codes):
            continue
        mat = np.array([[1.0 + 0j]])
        a = b = 0
        for site, c in enumerate(codes):
            mat = np.kron(mat, (I2, X, Y, Z)[c])
            bit = 1 << (n - 1 - site)
            if c in (1, 2):
                a |= bit
            if c in (2, 3):
                b |= bit
        amp = np.vdot(psi, mat @ psi)
        out[a * d + b - 1] = abs(amp) ** 2
    return out


class TestQubitSpectra:
    def test_zero_state(self):
        spec = pauli_spectrum_fast(state_from_amplitudes([1, 0]))
        # (a,b) order: Z, X, Y
        assert spec.value(0, 1) == pytest.approx(1.0)
        assert spec.value(1, 0) == pytest.approx(0.0, abs=1e-15)
        assert spec.value(1, 1) == pytest.approx(0.0, abs=1e-15)

    def test_plus_state_naive(self):
        spec = pauli_spectrum_naive(state_from_amplitudes([INV_SQRT2, INV_SQRT2]))
        assert spec.value(1, 0) == pytest.approx(1.0)
        assert spec.value(0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_h_state_values(self):
        spec = pauli_spectrum_fast(H_STATE)
        assert spec.value(1, 0) == pytest.approx(0.5)  # X
        assert spec.value(1, 1) == pytest.approx(0.0, abs=1e-15)  # Y
        assert spec.value(0, 1) == pytest.approx(0.5)  # Z

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fast_matches_kron_oracle(self, n):
        for seed in range(5):
            s = haar_sample(2**n, SeededRng(seed, n))
            assert np.max(np.abs(pauli_spectrum_fast(s).values - kron_spectrum(s))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_fast_matches_naive(self, n):
        # the naive oracle costs O(8^n): three states from four qubits on
        for seed in range(10 if n <= 3 else 3):
            s = haar_sample(2**n, SeededRng(seed, 10 + n))
            f = pauli_spectrum_fast(s).values
            g = pauli_spectrum_naive(s).values
            assert np.max(np.abs(f - g)) < 1e-12

    def test_purity_identity(self):
        for n in (1, 2, 4, 6):
            s = haar_sample(2**n, SeededRng(n, 77))
            total = pauli_spectrum_fast(s).values.sum()
            assert total == pytest.approx(2**n - 1, abs=1e-9)

    def test_h_tensor_zero_purity(self):
        s = tensor(H_STATE, state_from_amplitudes([1, 0]))
        vals = pauli_spectrum_naive(s).values
        assert vals.size == 15
        assert vals.sum() == pytest.approx(3.0, abs=1e-12)

    def test_qudit_rejected(self):
        with pytest.raises(UseWeylPath):
            pauli_spectrum_fast(haar_sample(3, SeededRng(0)))
        with pytest.raises(UseWeylPath):
            pauli_spectrum_naive(haar_sample(3, SeededRng(0)))

    def test_resource_guards(self):
        big = PureState(np.eye(2**7)[0].astype(complex), 2, 7)
        with pytest.raises(ResourceLimit):
            pauli_spectrum_naive(big)
        with pytest.raises(ResourceLimit):
            pauli_spectrum_fast(PureState(np.eye(1, 2**15)[0], 2, 15))
        # the sampler's qudit limit holds for a single spectrum too
        with pytest.raises(ResourceLimit):
            weyl_spectrum(PureState(np.eye(1, 17)[0], 17, 1))

    def test_chunked_fast_path_purity(self):
        # 12 sites exercises the row-chunked transform (scratch cap)
        s = haar_sample(2**12, SeededRng(12, 7))
        spec = pauli_spectrum_fast(s)
        assert spec.values.sum() == pytest.approx(2**12 - 1, abs=1e-9)


def explicit_entry(psi, a, b):
    """|sum_x (-1)^popcount(b & x) conj(psi(x XOR a)) psi(x)|^2, summed directly."""
    x = np.arange(psi.size)
    signs = 1.0 - 2.0 * (np.bitwise_count(b & x) & 1)
    return abs(np.sum(signs * np.conj(psi[x ^ a]) * psi)) ** 2


class TestCosetLayout:
    """The coset-halved kernel against oracles that share none of its code."""

    @pytest.mark.parametrize("n", range(7, 13))
    def test_entries_match_explicit_sum(self, n):
        # every highest-bit group k: its first, last and a random mask, each
        # with b on both sides of bit k, plus the a = 0 row
        d = 2**n
        s = haar_sample(d, SeededRng(n, 31))
        spec = pauli_spectrum_fast(s)
        rng = np.random.default_rng(n)
        pairs = [(0, int(b)) for b in rng.integers(1, d, size=4)]
        for k in range(n):
            for a in (1 << k, (2 << k) - 1, int(rng.integers(1 << k, 2 << k))):
                for b in rng.integers(0, d, size=3):
                    pairs += [(a, int(b) & ~(1 << k)), (a, int(b) | (1 << k))]
        for a, b in pairs:
            assert spec.value(a, b) == pytest.approx(explicit_entry(s.amplitudes, a, b), abs=1e-12)

    @pytest.mark.parametrize("n", [7, 8, 10, 12])
    def test_product_states_meet_the_closed_form(self, n):
        # 1 + N_alpha is multiplicative over tensor factors, and a qubit's
        # N_alpha is the sum of its squared Bloch components to the alpha, so
        # a product of Haar qubits checks every split transform and every
        # shared gather index pointwise
        for seed in range(2):
            qubits = haar_block(2, SeededRng(n, 53 + seed), n)
            amps = qubits[0]
            for q in qubits[1:]:
                amps = np.kron(amps, q)
            z = np.conj(qubits[:, 0]) * qubits[:, 1]
            ends = np.abs(qubits[:, 0]) ** 2 - np.abs(qubits[:, 1]) ** 2
            squares = np.stack([(2.0 * z.real) ** 2, (2.0 * z.imag) ** 2, ends**2])
            spec = pauli_spectrum_fast(PureState(amps, 2, n)) if n <= 10 else None
            for alpha in (1.5, 2.0, 3.0):
                expected = np.prod(1.0 + np.sum(squares**alpha, axis=0)) - 1.0
                got = pauli_moment_batch(amps[None, :], alpha)[0]
                assert got == pytest.approx(expected, rel=1e-13, abs=0)
                if spec is not None:
                    got = magic_report(spec, alpha).n_alpha
                    assert got == pytest.approx(expected, rel=1e-13, abs=0)

    def test_moment_batch_matches_naive_sums(self):
        for n in range(2, 7):
            states = haar_block(2**n, SeededRng(n, 41), 2)
            spectra = [pauli_spectrum_naive(PureState(row, 2, n)).values for row in states]
            for alpha in (1.5, 2.0, 3.0):
                batched = pauli_moment_batch(states, alpha)
                expected = [np.sum(v**alpha) for v in spectra]
                np.testing.assert_allclose(batched, expected, rtol=0, atol=1e-12)


class TestWalshHadamard:
    @pytest.mark.parametrize("k", range(7))
    def test_sylvester_factors_are_scipys(self, k):
        from scipy.linalg import hadamard

        h = _SYLVESTER[k]
        assert h.tobytes() == hadamard(2**k, dtype=float).tobytes()
        assert h.flags.c_contiguous and not h.flags.writeable

    def test_factor_rule(self):
        # one factor up to 6 bits, so every transform of n <= 6 qubits keeps
        # its bits; above, 5 low bits and the fewest near-equal groups of at
        # most 4 bits, larger groups first
        assert [_factor_bits(n) for n in range(7)] == [[n] for n in range(7)]
        assert {n: _factor_bits(n) for n in range(7, 15)} == {
            7: [5, 2], 8: [5, 3], 9: [5, 4], 10: [5, 3, 2], 11: [5, 3, 3], 12: [5, 4, 3],
            13: [5, 4, 4], 14: [5, 3, 3, 3]}

    @pytest.mark.parametrize("n", range(15))
    def test_matches_explicit_sum(self, n):
        # 0..6 bits take one matrix product, 7..9 two, 10..13 three and 14
        # four (``_factor_bits``); integer input keeps every partial sum
        # exact, so equality is exact
        d = 2**n
        rng = np.random.default_rng(n)
        f = rng.integers(-8, 9, size=(3, d)).astype(float)
        g = _wht_last(f.copy(), np.empty_like(f))
        assert g.shape == f.shape
        x = np.arange(d)
        for b in rng.integers(0, d, size=4):
            signs = (-1.0) ** np.bitwise_count(int(b) & x)
            np.testing.assert_array_equal(g[:, b], f @ signs)


class TestSpectrumStorage:
    def test_writable_input_is_copied(self):
        vals = np.full(3, 1.0 / 3.0)
        spec = PauliSpectrum(vals, 2, 1)
        vals[0] = 0.9
        assert spec.values[0] == 1.0 / 3.0
        assert not np.shares_memory(spec.values, vals)
        assert not spec.values.flags.writeable

    def test_read_only_view_of_writable_array_is_copied(self):
        owner = np.full(4, 0.25)
        view = owner[1:]
        view.setflags(write=False)
        spec = PauliSpectrum(view, 2, 1)
        owner[1] = 0.9
        assert spec.values[0] == 0.25

    def test_read_only_input_is_kept(self):
        vals = np.full(3, 1.0 / 3.0)
        vals.setflags(write=False)
        assert np.shares_memory(PauliSpectrum(vals, 2, 1).values, vals)

    def test_fast_spectrum_holds_one_d2_array(self):
        # the spectrum owns one d^2 buffer; the kernel's scratch (~2 MiB) and
        # the report's power sum (8 MiB blocks) add a fixed amount to it
        s = haar_sample(2**11, SeededRng(11, 3))
        d2_bytes = 8 * 4**11
        tracemalloc.start()
        try:
            spec = pauli_spectrum_fast(s)
            report = magic_report(spec, 2.0, state=s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d2_bytes + 16 * 2**20
        assert report.n_alpha == pytest.approx(float(np.sum(spec.values**2)), rel=1e-12)


class TestWeylSpectrum:
    def test_qutrit_basis_state(self):
        spec = weyl_spectrum(state_from_amplitudes([1, 0, 0], local_dim=3))
        assert spec.value(0, 1) == pytest.approx(1.0)
        assert spec.value(0, 2) == pytest.approx(1.0)
        for a1 in (1, 2):
            for a2 in range(3):
                assert spec.value(a1, a2) == pytest.approx(0.0, abs=1e-15)
        # computational basis state is a stabilizer state: Xi_alpha = 1
        assert magic_report(spec, 2.0).xi_alpha == pytest.approx(1.0)

    def test_reduces_to_pauli_at_q2(self):
        for seed in range(5):
            s = haar_sample(2, SeededRng(seed, 31))
            w = weyl_spectrum(s).values
            p = pauli_spectrum_fast(s).values
            assert np.max(np.abs(np.sort(w) - np.sort(p))) < 1e-12

    @pytest.mark.parametrize("q", [3, 4, 5, 8])
    def test_purity_identity(self, q):
        s = haar_sample(q, SeededRng(q, 13), local_dim=q)
        total = weyl_spectrum(s).values.sum()
        # sum over all displacements of |Tr(D psi)|^2 is q for a pure state
        rho = np.outer(s.amplitudes, s.amplitudes.conj())
        direct = sum(
            abs(np.trace(displacement_operator(q, a1, a2) @ rho)) ** 2
            for a1 in range(q)
            for a2 in range(q)
        )
        assert total == pytest.approx(q - 1, abs=1e-9)
        assert direct == pytest.approx(q, abs=1e-9)

    def test_matches_displacement_trace(self):
        q = 5
        s = haar_sample(q, SeededRng(3, 8))
        rho = np.outer(s.amplitudes, s.amplitudes.conj())
        spec = weyl_spectrum(s)
        for a1 in range(q):
            for a2 in range(q):
                if a1 == a2 == 0:
                    continue
                direct = abs(np.trace(displacement_operator(q, a1, a2) @ rho)) ** 2
                assert spec.value(a1, a2) == pytest.approx(direct, abs=1e-12)

    def test_displacement_orthogonality(self):
        q = 4
        ops = {
            (a1, a2): displacement_operator(q, a1, a2)
            for a1 in range(q)
            for a2 in range(q)
        }
        for k1, d1 in ops.items():
            for k2, d2 in ops.items():
                tr = np.trace(d1 @ d2.conj().T)
                assert tr == pytest.approx(q if k1 == k2 else 0.0, abs=1e-12)

    def test_multi_site_rejected(self):
        s = haar_sample(4, SeededRng(0))  # two qubits
        with pytest.raises(DimensionMismatch):
            weyl_spectrum(s)


class TestMagicReport:
    def test_h_state_alpha2(self):
        r = magic_report(pauli_spectrum_fast(H_STATE), 2.0)
        assert r.n_alpha == pytest.approx(0.5, abs=1e-15)
        assert r.xi_alpha == pytest.approx(0.75, abs=1e-15)
        assert r.m_alpha == pytest.approx(np.log(4.0 / 3.0), abs=1e-14)
        assert r.m_lin == pytest.approx(0.25, abs=1e-15)

    def test_t_state_alpha2(self):
        r = magic_report(pauli_spectrum_fast(T_STATE), 2.0)
        assert r.n_alpha == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert r.xi_alpha == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_stabilizer_states_have_zero_magic(self):
        for amps in ([1, 0], [0, 1], [INV_SQRT2, INV_SQRT2], [INV_SQRT2, 1j * INV_SQRT2]):
            s = state_from_amplitudes(amps)
            for alpha in (1.5, 2.0, 3.0, 4.5):
                assert magic_report(pauli_spectrum_fast(s), alpha).m_alpha == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_alpha_guard(self):
        for alpha in (1.0, 0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidOrder):
                magic_report(pauli_spectrum_fast(H_STATE), alpha)

    def test_n_alpha_bounds_single_qubit(self):
        for seed in range(50):
            s = haar_sample(2, SeededRng(seed, 50))
            for alpha in (2.0, 3.0):
                r = magic_report(pauli_spectrum_fast(s), alpha)
                assert 3.0 ** (1 - alpha) - 1e-12 <= r.n_alpha <= 1.0 + 1e-12

    def test_additivity(self):
        for seed in range(100):
            a = haar_sample(2, SeededRng(seed, 61))
            b = haar_sample(2, SeededRng(seed, 62))
            ab = tensor(a, b)
            for alpha in (2.0, 3.0, 4.0):
                m_a = magic_report(pauli_spectrum_fast(a), alpha)
                m_b = magic_report(pauli_spectrum_fast(b), alpha)
                m_ab = magic_report(pauli_spectrum_fast(ab), alpha)
                assert m_ab.m_alpha == pytest.approx(m_a.m_alpha + m_b.m_alpha, abs=1e-10)
                assert m_ab.xi_alpha == pytest.approx(m_a.xi_alpha * m_b.xi_alpha, abs=1e-12)

    def test_clifford_invariance(self):
        s = haar_sample(2, SeededRng(5, 70))
        base = magic_report(pauli_spectrum_fast(s), 2.0).m_alpha
        for u in single_qubit_cliffords():
            mapped = PureState(u @ s.amplitudes, 2, 1)
            val = magic_report(pauli_spectrum_fast(mapped), 2.0).m_alpha
            assert val == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 6])
    def test_multi_qubit_clifford_invariance(self, n):
        # local Cliffords on every site, then one CNOT, permute the Pauli
        # strings up to phase, so N_2 is unchanged
        d = 2**n
        cliffords = single_qubit_cliffords()
        pick = np.random.default_rng(40 + n)
        states = haar_block(d, SeededRng(n, 71), 8)
        index = np.arange(d)
        mapped = np.empty_like(states)
        for row, psi in enumerate(states):
            local = np.ones((1, 1), dtype=complex)
            for u in pick.integers(len(cliffords), size=n):
                local = np.kron(local, cliffords[u])
            control, target = pick.choice(n, size=2, replace=False)
            # site k is bit n - 1 - k of the index
            flip = ((index >> (n - 1 - control)) & 1) << (n - 1 - target)
            mapped[row] = (local @ psi)[index ^ flip]
        before = [magic_report(pauli_spectrum_fast(state_from_amplitudes(s)), 2.0).n_alpha
                  for s in states]
        after = [magic_report(pauli_spectrum_fast(state_from_amplitudes(s)), 2.0).n_alpha
                 for s in mapped]
        assert np.max(np.abs(np.subtract(after, before))) < 1e-12
        batch = pauli_moment_batch(np.concatenate([states, mapped]), 2.0)
        assert np.max(np.abs(batch[8:] - batch[:8])) < 1e-12
        assert np.max(np.abs(batch[:8] - before)) < 1e-12
        # a non-Clifford phase on one site does change it
        t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
        t_first = np.kron(t_gate, np.eye(d // 2)) @ states[0]
        t_value = magic_report(pauli_spectrum_fast(state_from_amplitudes(t_first)), 2.0).n_alpha
        assert abs(t_value - before[0]) > 1e-6

    def test_purity_hierarchy(self):
        # Xi_{2(alpha+1)} <= Xi_{2 alpha} on random states
        for seed in range(20):
            s = haar_sample(4, SeededRng(seed, 81))
            spec = pauli_spectrum_fast(s)
            xis = [magic_report(spec, 2.0 * a).xi_alpha for a in (1, 2, 3, 4)]
            for lo, hi in zip(xis[1:], xis[:-1]):
                assert lo <= hi + 1e-12


class TestMeasureMap:
    N_GRID = np.linspace(0.05, 1.0, 39)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("measure", ["xi", "m", "mlin"])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_round_trip(self, alpha, measure, d):
        for n in self.N_GRID:
            v = float(measure_from_n(float(n), measure, alpha, d))
            assert n_from_measure(v, measure, alpha, d)[0] == pytest.approx(n, abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("measure", ["n", "xi", "m", "mlin"])
    def test_jacobian_is_central_difference(self, alpha, measure):
        h = 1e-6
        for n in (0.2, 0.5, 0.9):
            v = float(measure_from_n(n, measure, alpha, 2))
            n_hi = n_from_measure(v + h, measure, alpha, 2)[0]
            n_lo = n_from_measure(v - h, measure, alpha, 2)[0]
            jac = n_from_measure(v, measure, alpha, 2)[1]
            assert jac == pytest.approx(abs(n_hi - n_lo) / (2 * h), rel=1e-7)

    def test_closed_forms(self):
        assert measure_from_n(0.5, "xi", 2.0, 2) == 0.75
        assert measure_from_n(0.5, "mlin", 2.0, 2) == 0.25
        assert measure_from_n(0.5, "m", 2.0, 2) == pytest.approx(np.log(4 / 3), abs=1e-15)
        assert measure_from_n(0.7, "n", 3.0, 4) == 0.7

    def test_array_equals_number(self):
        ns = np.linspace(0.1, 1.0, 7)
        for measure in ("n", "xi", "m", "mlin"):
            arr = measure_from_n(ns, measure, 3.0, 4)
            assert np.array_equal(arr, [measure_from_n(float(n), measure, 3.0, 4) for n in ns])

    def test_inverse_array_equals_number(self):
        vs = np.linspace(0.1, 0.9, 7)
        for measure in ("n", "xi", "m", "mlin"):
            n_arr, jac_arr = n_from_measure(vs, measure, 3.0, 4)
            pairs = [n_from_measure(float(v), measure, 3.0, 4) for v in vs]
            assert np.array_equal(n_arr, [p[0] for p in pairs])
            assert np.array_equal(np.broadcast_to(jac_arr, vs.shape), [p[1] for p in pairs])

    def test_unknown_measure(self):
        with pytest.raises(ValueError):
            measure_from_n(0.5, "coherence", 2.0, 2)
        with pytest.raises(ValueError):
            n_from_measure(0.5, "coherence", 2.0, 2)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_magic_report_is_the_map(self, alpha):
        for state in (H_STATE, haar_sample(4, SeededRng(3, 9)), haar_sample(3, SeededRng(3, 9))):
            spec = weyl_spectrum(state) if state.local_dim != 2 else pauli_spectrum_fast(state)
            r = magic_report(spec, alpha)
            d = state.dim
            assert r.xi_alpha == measure_from_n(r.n_alpha, "xi", alpha, d)
            assert r.m_alpha == float(measure_from_n(r.n_alpha, "m", alpha, d))
            assert r.m_lin == measure_from_n(r.n_alpha, "mlin", alpha, d)


class TestIncompatibility:
    def test_gamma1_is_four(self):
        for seed in range(50):
            s = haar_sample(2, SeededRng(seed, 90))
            assert incompatibility(s, 1) == pytest.approx(4.0, abs=1e-12)

    def test_gamma2_is_four_xi2(self):
        for seed in range(50):
            s = haar_sample(2, SeededRng(seed, 91))
            xi2 = magic_report(pauli_spectrum_fast(s), 2.0).xi_alpha
            assert incompatibility(s, 2) == pytest.approx(4.0 * xi2, abs=1e-12)

    def test_h_state_commutator_oracle(self):
        # direct Schatten-norm evaluation of sum_j ||[psi, sigma_j]||_4^4
        rho = np.outer(H_STATE.amplitudes, H_STATE.amplitudes.conj())
        total = 0.0
        for sigma in (X, Y, Z):
            c = rho @ sigma - sigma @ rho
            sv = np.linalg.svd(c, compute_uv=False)
            total += float(np.sum(sv**4))
        assert incompatibility(H_STATE, 2) == pytest.approx(total, abs=1e-12)
        assert incompatibility(H_STATE, 2) == pytest.approx(3.0, abs=1e-13)

    def test_binomial_identity(self):
        # Gamma_alpha = 2 sum_s C(alpha, s) (-1)^s ||n||_{2s}^{2s}
        from math import comb

        for seed in range(10):
            s = haar_sample(2, SeededRng(seed, 92))
            n = to_bloch(s).as_array()
            for alpha in (1, 2, 3, 4):
                direct = incompatibility(s, alpha)
                series = 2.0 * sum(
                    comb(alpha, k) * (-1) ** k * np.sum(np.abs(n) ** (2 * k))
                    for k in range(alpha + 1)
                )
                assert direct == pytest.approx(series, abs=1e-11)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_equals_the_reports_bit_for_bit(self, alpha):
        # one route: the library call reads the spectrum values magic_report reads
        for seed in range(100):
            s = haar_sample(2, SeededRng(seed))
            assert incompatibility(s, alpha) == magic_report(
                pauli_spectrum_fast(s), alpha).gamma_alpha

    def test_guards(self):
        with pytest.raises(DimensionMismatch):
            incompatibility(haar_sample(4, SeededRng(0)), 2)
        with pytest.raises(InvalidOrder):
            incompatibility(H_STATE, 2.5)


class TestCoherenceAndExpectation:
    def test_basis_state(self):
        assert coherence_l1(state_from_amplitudes([1, 0])) == 0.0

    def test_plus_state(self):
        assert coherence_l1(state_from_amplitudes([INV_SQRT2, INV_SQRT2])) == pytest.approx(1.0)

    def test_polar_angle(self):
        theta = np.pi / 3
        s = state_from_amplitudes([np.cos(theta / 2), np.sin(theta / 2)])
        assert coherence_l1(s) == pytest.approx(np.sin(theta), abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 1024, 4096])
    def test_matches_one_dimensional_sum_bit_for_bit(self, d):
        # the sampler's row formula gives the bits of the 1-D sum
        for state in haar_block(d, SeededRng(d, 3), 20):
            total = float(np.sum(np.abs(state)))
            expected = max(total * total - 1.0, 0.0)
            assert coherence_l1(PureState(state, *register_shape(d))) == expected

    def test_multiqubit_formula(self):
        s = haar_sample(8, SeededRng(12))
        amps = s.amplitudes
        direct = sum(
            abs(amps[i] * np.conj(amps[j]))
            for i in range(8)
            for j in range(8)
            if i != j
        )
        assert coherence_l1(s) == pytest.approx(direct, abs=1e-12)

    def test_expectation_zero_z(self):
        assert expectation(state_from_amplitudes([1, 0]), Z) == pytest.approx(1.0)

    def test_expectation_h_eigenstate(self):
        obs = (X + Z) / np.sqrt(2)
        assert expectation(H_STATE, obs) == pytest.approx(1.0, abs=1e-14)

    def test_expectation_within_spectrum(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        obs = a + a.conj().T
        eigs = np.linalg.eigvalsh(obs)
        for seed in range(20):
            val = expectation(haar_sample(2, SeededRng(seed, 99)), obs)
            assert eigs[0] - 1e-12 <= val <= eigs[-1] + 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidObservable):
            expectation(H_STATE, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_expectation_of_a_nearly_hermitian_observable_is_the_sampler_row(self):
        # within the 1e-10 Hermiticity check, an anti-Hermitian part of 4.9e-11 per
        # entry would leave <psi|A|psi> an imaginary part of 4 x 4.9e-11 at d = 4;
        # both read the Hermitian part, here 0
        s = state_from_amplitudes([0.5] * 4)
        a = 4.9e-11j * np.ones((4, 4))
        row = measure_rows(s.amplitudes[None, :], "observable", None, 2, hermitian_observable(a, 4))
        assert expectation(s, a) == row[0]

    def test_expectation_is_the_sampler_row_bitwise(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = b + b.conj().T  # exactly Hermitian: (b + b^dagger)_ij = conj((b + b^dagger)_ji)
        assert hermitian_observable(a, 4).tobytes() == a.tobytes()
        states = haar_block(4, SeededRng(11, 2), 20)
        got = np.array([expectation(PureState(state, 2, 2), a) for state in states])
        assert got.tobytes() == measure_rows(states, "observable", None, 2, a).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_observable_rejected(self, bad):
        # checked before A - A^dagger, which warns on inf and lets NaN through
        obs = np.array([[bad, 0], [0, 1]], dtype=complex)
        with pytest.raises(InvalidObservable, match="finite"):
            expectation(haar_sample(2, SeededRng(0)), obs)

    @pytest.mark.parametrize("d", [2, 4])
    def test_an_observable_too_large_to_sum_is_refused(self, d):
        # (A + A^dagger) / 2 overflowed to nan above about 9e307; up to the bound
        # every expectation stays finite, with no warning
        bound = np.finfo(float).max / (4 * d)
        state = haar_sample(d, SeededRng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidObservable, match="at most"):
                expectation(state, np.diag([1e308] + [-1e308] * (d - 1)))
            with pytest.raises(InvalidObservable, match="at most"):
                expectation(state, np.diag([np.nextafter(bound, np.inf)] + [0.0] * (d - 1)))
            edge = bound * (np.ones((d, d)) + 1j * (np.triu(np.ones((d, d)), 1)
                                                    - np.tril(np.ones((d, d)), -1)))
            assert np.isfinite(expectation(state, edge))
            strided = np.zeros((d, 2 * d), dtype=complex)  # no contiguous last axis
            strided[:, ::2] = edge
            assert expectation(state, strided[:, ::2]) == expectation(state, edge)


@pytest.mark.parametrize("call, error, match", [
    (lambda: PauliSpectrum(np.zeros(2), 2, 1), DimensionMismatch, "expected 3 values"),
    (lambda: PauliSpectrum([0.5, 1.5, 0.0], 2, 1), ValueError, "must lie in"),
    (lambda: PauliSpectrum([0.5, -0.1, 0.0], 2, 1), ValueError, "must lie in"),
    (lambda: PauliSpectrum([np.nan] * 3, 2, 1), ValueError, "must lie in"),
    (lambda: PauliSpectrum(np.zeros(3), 2, 1).value(0, 0), IndexError, "out of range"),
    (lambda: PauliSpectrum(np.zeros(3), 2, 1).value(2, 0), IndexError, "out of range"),
], ids=["size", "above_one", "below_zero", "nan", "identity_pair", "pair_past_d"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestBatchedKernels:
    def test_pauli_batch_matches_scalar(self):
        states = haar_block(8, SeededRng(9, 4), 40)
        batched = pauli_moment_batch(states, 2.0)
        for i in range(40):
            spec = pauli_spectrum_fast(PureState(states[i], 2, 3))
            assert batched[i] == pytest.approx(float(np.sum(spec.values**2)), abs=1e-12)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_pauli_batch_ten_qubits_matches_spectrum(self, alpha):
        # the sampler's largest register: each state's masks run in blocks
        states = haar_block(2**10, SeededRng(10, 4), 2)
        batched = pauli_moment_batch(states, alpha)
        for i in range(2):
            spec = pauli_spectrum_fast(PureState(states[i], 2, 10))
            assert batched[i] == pytest.approx(float(np.sum(spec.values**alpha)), abs=1e-12)

    def test_weyl_batch_matches_scalar(self):
        states = haar_block(5, SeededRng(9, 5), 40)
        batched = weyl_moment_batch(states, 2.0)
        for i in range(40):
            spec = weyl_spectrum(PureState(states[i], 5, 1))
            assert batched[i] == pytest.approx(float(np.sum(spec.values**2)), abs=1e-12)
