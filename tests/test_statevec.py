import numpy as np
import pytest

from magicdist import (
    BlochVector,
    DimensionMismatch,
    InvalidBlochVector,
    InvalidDimension,
    PureState,
    SeededRng,
    from_bloch,
    haar_block,
    haar_sample,
    random_single_qubit_clifford,
    single_qubit_cliffords,
    state_from_amplitudes,
    tensor,
    to_bloch,
)
from magicdist import statevec
from magicdist.statevec import register_shape

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestSeededRng:
    def test_reproducible(self):
        a = SeededRng(123, 7).generator().standard_normal(32)
        b = SeededRng(123, 7).generator().standard_normal(32)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = SeededRng(123, 7).generator().standard_normal(32)
        b = SeededRng(123, 8).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SeededRng(-1)


class TestPureState:
    def test_norm_enforced(self):
        for amps in ([1.0, 1.0], [np.nan, 0.0]):
            with pytest.raises(InvalidDimension):
                PureState(np.array(amps), 2, 1)

    def test_size_must_match_sites(self):
        with pytest.raises(InvalidDimension):
            PureState(np.array([1.0, 0, 0]), 2, 2)

    def test_qudit_single_site_only(self):
        with pytest.raises(InvalidDimension):
            PureState(np.zeros(9) + np.eye(9)[0], 3, 2)

    def test_canonicalized_phase(self):
        s = PureState(np.array([0.6j, 0.8j]), 2, 1).canonicalized()
        assert s.amplitudes[0] == pytest.approx(0.6)
        assert s.amplitudes[1] == pytest.approx(0.8)


class TestHaarSample:
    def test_normalized(self):
        s = haar_sample(2, SeededRng(1))
        assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            haar_sample(1, SeededRng(0))

    @pytest.mark.parametrize("d, local_dim", [(8, 3), (6, 2), (3, 2), (4, 3)])
    def test_local_dim_mismatch(self, d, local_dim):
        with pytest.raises(InvalidDimension):
            haar_sample(d, SeededRng(0), local_dim=local_dim)

    @pytest.mark.parametrize("d, local_dim, shape", [
        (2, None, (2, 1)), (8, None, (2, 3)), (3, None, (3, 1)), (4, 4, (4, 1)),
        (3, 2, None), (2, 3, None), (0, None, None),
        (1, None, None), (1, 1, None), (4, 0, None),
    ])
    def test_register_shape_checked_before_the_draw(self, monkeypatch, d, local_dim, shape):
        draws = []
        monkeypatch.setattr(statevec, "haar_block", lambda *args: draws.append(args))
        if shape is None:
            with pytest.raises(InvalidDimension):
                haar_sample(d, SeededRng(0), local_dim=local_dim)
            assert draws == []
        else:
            assert register_shape(d, local_dim) == shape

    def test_explicit_local_dim(self):
        s = haar_sample(4, SeededRng(0), local_dim=4)
        assert (s.local_dim, s.num_sites) == (4, 1)
        assert np.array_equal(s.amplitudes, haar_sample(4, SeededRng(0)).amplitudes)

    def test_qudit_metadata(self):
        s = haar_sample(3, SeededRng(0))
        assert (s.local_dim, s.num_sites) == (3, 1)
        s = haar_sample(8, SeededRng(0))
        assert (s.local_dim, s.num_sites) == (2, 3)

    @pytest.mark.parametrize("d, count", [(2, 1), (2, 5), (2, 4095), (2, 4096), (3, 4096),
                                          (4, 4096), (7, 1000), (8, 1000), (64, 300),
                                          (1024, 20)])
    def test_block_is_pinned_bit_for_bit(self, d, count):
        # the seeded outputs are pinned to this expression, last bits included
        for stream in range(3):
            raw = SeededRng(17, stream).generator().standard_normal((count, 2 * d))
            states = raw[:, :d] + 1j * raw[:, d:]
            norms = np.linalg.norm(states, axis=1, keepdims=True)
            np.maximum(norms, 1e-300, out=norms)
            states /= norms
            got = haar_block(d, SeededRng(17, stream), count)
            assert got.dtype == np.complex128 and got.shape == (count, d)
            assert got.T.flags.c_contiguous == (d == 2)  # plane-major at d = 2 only
            assert got.tobytes() == states.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_zero_stream_gives_zero_rows(self, d):
        class ZeroStream(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                return np.zeros(size, dtype=dtype)

        states = haar_block(d, ZeroStream(np.random.PCG64(0)), 5)
        assert states.shape == (5, d)
        assert np.all(states == 0)

    def test_block_first_row_matches_single(self):
        rng = SeededRng(42, 3)
        blk = haar_block(4, rng, 5)
        single = haar_sample(4, rng)
        assert np.array_equal(blk[0], single.amplitudes)

    def test_overlap_mean_is_half(self):
        # |<0|psi>|^2 is uniform on [0,1] at d=2: mean 1/2, var 1/12
        n = 100_000
        blk = haar_block(2, SeededRng(7), n)
        overlaps = np.abs(blk[:, 0]) ** 2
        sigma = np.sqrt(1.0 / 12.0 / n)
        assert abs(overlaps.mean() - 0.5) < 3 * sigma

    def test_z_expectation_uniform(self):
        from scipy.stats import kstest

        n = 1_000_000
        blk = haar_block(2, SeededRng(11), n)
        z = np.abs(blk[:, 0]) ** 2 - np.abs(blk[:, 1]) ** 2
        stat = kstest(z, "uniform", args=(-1.0, 2.0)).statistic
        assert stat < 1.628 / np.sqrt(n)  # 99% critical value

    def test_unitary_invariance(self):
        # distribution of any scalar of U|psi> matches that of |psi>
        from scipy.stats import ks_2samp

        n = 100_000
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = haar_block(2, SeededRng(21), n)
        b = haar_block(2, SeededRng(22), n) @ u.T
        f = lambda m: np.abs(m[:, 0]) ** 2
        assert ks_2samp(f(a), f(b)).pvalue > 0.01


class TestBloch:
    def test_z_pole(self):
        s = from_bloch(BlochVector(0, 0, 1))
        assert np.allclose(s.amplitudes, [1, 0], atol=1e-15)

    def test_h_state(self):
        s = from_bloch(BlochVector(INV_SQRT2, 0, INV_SQRT2))
        assert np.allclose(s.amplitudes, [np.cos(np.pi / 8), np.sin(np.pi / 8)], atol=1e-15)

    def test_x_axis(self):
        s = from_bloch(BlochVector(1, 0, 0))
        assert np.allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_off_sphere_rejected(self):
        for n1 in (1.0, np.nan):
            with pytest.raises(InvalidBlochVector):
                from_bloch(BlochVector(n1, 1, 1))

    def test_to_bloch_of_zero(self):
        assert to_bloch(state_from_amplitudes([1, 0])).as_array() == pytest.approx([0, 0, 1])

    def test_to_bloch_canonical_h(self):
        s = state_from_amplitudes([INV_SQRT2, np.exp(1j * np.pi / 4) * INV_SQRT2])
        b = to_bloch(s)
        assert b.as_array() == pytest.approx([INV_SQRT2, INV_SQRT2, 0.0], abs=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            to_bloch(state_from_amplitudes([1, 0, 0, 0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip(self, seed):
        s = haar_sample(2, SeededRng(seed, 100))
        b = to_bloch(s)
        assert b.norm() == pytest.approx(1.0, abs=1e-12)
        b2 = to_bloch(from_bloch(b))
        assert np.allclose(b.as_array(), b2.as_array(), atol=1e-12)


class TestTensor:
    def test_zero_zero(self):
        z = state_from_amplitudes([1, 0])
        assert np.allclose(tensor(z, z).amplitudes, [1, 0, 0, 0])

    def test_site_zero_most_significant(self):
        one = state_from_amplitudes([0, 1])
        zero = state_from_amplitudes([1, 0])
        s = tensor(one, zero)  # |1> on site 0, |0> on site 1 -> index 2
        assert s.amplitudes[2] == pytest.approx(1.0)

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            tensor(state_from_amplitudes([1, 0]), haar_sample(3, SeededRng(0)))

    def test_normalization_kept(self):
        a = haar_sample(2, SeededRng(3))
        b = haar_sample(4, SeededRng(4))
        t = tensor(a, b)
        assert np.sum(np.abs(t.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_associativity(self):
        a, b, c = (haar_sample(2, SeededRng(s, 5)) for s in (1, 2, 3))
        left = tensor(tensor(a, b), c).amplitudes
        right = tensor(a, tensor(b, c)).amplitudes
        assert np.max(np.abs(left - right)) < 1e-15


class TestCliffords:
    def test_count(self):
        assert len(single_qubit_cliffords()) == 24

    def test_unitary(self):
        for u in single_qubit_cliffords():
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_h_on_zero(self):
        h = single_qubit_cliffords()[1]  # first BFS expansion is H
        assert np.allclose(h @ [1, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_pauli_axes_permuted(self):
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.diag([1.0 + 0j, -1.0]),
        ]
        axes = [sign * p for p in paulis for sign in (1, -1)]
        for u in single_qubit_cliffords():
            for p in paulis:
                img = u @ p @ u.conj().T
                assert any(np.allclose(img, q, atol=1e-12) for q in axes)

    def test_uniform_sampling(self):
        ident = single_qubit_cliffords()[0]
        n = 100_000
        g = SeededRng(17).generator()
        hits = sum(
            1 for _ in range(n) if random_single_qubit_clifford(g) is ident
        )
        p = 1.0 / 24.0
        sigma = np.sqrt(p * (1 - p) * n)
        assert abs(hits - n * p) < 3 * sigma
