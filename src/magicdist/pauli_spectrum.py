"""All Pauli (or Weyl-Heisenberg) expectation moduli of a state, and the
measures derived from them: the 2-alpha moment N_alpha, stabilizer purity,
stabilizer Renyi entropy (nats), its linear variant, incompatibility and
l1 coherence.  ``measure_from_n`` and its inverse ``n_from_measure`` are
the one definition of the purity, entropy and linear entropy in terms of
N_alpha; the sampler and the exact densities call them too.

Spectra store the d^2 - 1 nontrivial values |<P>|^2 indexed row-major over
the mask pair (a, b) with (0, 0) skipped, where P ~ X^a Z^b up to phase.
Phases never survive the modulus, so no Y-phase convention is needed here.
Bit 0 of a mask addresses site 0, the most significant digit of the
amplitude index (same convention as ``statevec.tensor``).

For qubit registers every |<X^a Z^b>|^2 of one mask a comes from a single
Walsh-Hadamard transform over x of w_a(x) = conj(psi(x XOR a)) psi(x).
The transform of length d = 2^n is the Kronecker product of Sylvester
matrices of order at most 64, so it runs as ceil(n/6) real matrix
products (BLAS GEMMs) rather than n butterfly passes over memory.  Each
entry of the d x d table costs the sum of the factor orders in
multiply-adds (64 at n = 6, 2 * 64 at n = 12), and the table is built in
blocks of about 2^17 entries that stay in cache.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    InvalidObservable,
    InvalidOrder,
    ResourceLimit,
    UseWeylPath,
)
from .statevec import PureState, to_bloch

FAST_MAX_SITES = 14
NAIVE_MAX_SITES = 6
# entries per block of the Pauli kernels' scratch (~2 MiB of complex or
# two planes of reals): blocks that stay in cache run faster than larger ones
_SCRATCH = 2**17
# values per block of the power sum over a stored spectrum
_POWER_SUM_BLOCK = 2**20


@dataclass(frozen=True)
class PauliSpectrum:
    """The d^2 - 1 values |<P>|^2 for the nontrivial Pauli/Weyl operators."""

    values: np.ndarray
    local_dim: int
    num_sites: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        # a read-only array over read-only memory cannot change under the
        # spectrum, so it is kept as given; anything writable is copied
        base = vals.base
        if vals.flags.writeable or (isinstance(base, np.ndarray) and base.flags.writeable):
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        d = self.dim
        if vals.size != d * d - 1:
            raise DimensionMismatch(f"expected {d*d - 1} values, got {vals.size}")
        if vals.size and (vals.min() < -1e-12 or vals.max() > 1.0 + 1e-9):
            raise ValueError("spectrum entries must lie in [0, 1]")

    @property
    def dim(self) -> int:
        return self.local_dim**self.num_sites

    def value(self, a: int, b: int) -> float:
        """Entry for mask pair (a, b) != (0, 0)."""
        d = self.dim
        flat = a * d + b
        if not 0 < flat < d * d:
            raise IndexError(f"mask pair ({a}, {b}) out of range for d={d}")
        return float(self.values[flat - 1])


@dataclass(frozen=True)
class MagicReport:
    """Bundle of the scalar measures derived from one spectrum."""

    alpha: float
    n_alpha: float
    xi_alpha: float
    m_alpha: float
    m_lin: float
    gamma_alpha: float | None = None
    coherence: float | None = None


def _sylvester(k: int) -> np.ndarray:
    """Read-only Sylvester-Hadamard matrix H[b, x] = (-1)^popcount(b & x) of order 2^k."""
    h = scipy.linalg.hadamard(2**k, dtype=float)
    h.setflags(write=False)
    return h


_SYLVESTER = tuple(_sylvester(k) for k in range(7))


def _wht_last(f: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of the real C-contiguous array ``f`` along
    its last axis (length 2^n): g[..., b] = sum_x (-1)^popcount(b & x) f[..., x].

    H_{2^n} is the Kronecker product of ceil(n/6) Sylvester matrices of
    order at most 64, one per group of adjacent bits, so the transform is
    that many matrix products: the lowest bits by a plain product with the
    contiguous axis, each higher group by a product broadcast over the
    blocks of the bits below it.  The products alternate between ``f`` and
    ``spare`` (C-contiguous, same shape and dtype), which are both
    overwritten; the result is returned as one of the two.
    """
    n = f.shape[-1].bit_length() - 1
    parts = max(1, -(-n // 6))
    src, dst = f, spare
    inner = 1  # length of the bit groups already transformed
    for i in range(parts):
        k = (n + i) // parts  # group sizes sum to n and differ by at most 1
        h = _SYLVESTER[k]
        if inner == 1:
            np.matmul(src.reshape(-1, 2**k), h, out=dst.reshape(-1, 2**k))
        else:
            np.matmul(h, src.reshape(-1, 2**k, inner), out=dst.reshape(-1, 2**k, inner))
        src, dst = dst, src
        inner <<= k
    return src


def _xz_scratch(m: int, rows: int, d: int):
    """Buffers for ``_xz_table`` blocks of up to ``m`` states and ``rows``
    masks.  They are reused across blocks because fresh arrays of a MiB or
    more would be mapped and zero-filled by the allocator on every block,
    which costs 2-3x the kernel's time in a fresh process."""
    entries = m * rows * d
    return (np.empty(rows * d, dtype=np.intp), np.empty(entries, dtype=np.complex128),
            np.empty(2 * entries), np.empty(2 * entries))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _xz_table(states: np.ndarray, masks: np.ndarray, scratch) -> np.ndarray:
    """(m, len(masks), d) array of |<psi|X^a Z^b|psi>|^2 for each row psi of
    the (m, d) ``states``, each mask a in ``masks`` and every mask b.  The
    result lives in ``scratch`` (from ``_xz_scratch``) until the next call.

    For each a, w_a(x) = conj(psi(x XOR a)) psi(x), and <X^a Z^b> is, up to
    phase, the Walsh-Hadamard transform of w_a at b.  The real and the
    imaginary plane of w_a go through one real transform (``_wht_last``)
    and the table is f_re^2 + f_im^2.  Transforming the two planes apart,
    not their sum, keeps a one-qubit table exact: |H> gives N_2 = 0.5.
    """
    m, d = states.shape
    shape = (m, masks.size, d)
    index_buf, table_buf, planes_buf, spare_buf = scratch
    index = _view(index_buf, shape[1:])
    np.bitwise_xor(masks[:, None], np.arange(d), out=index)
    # the table is row-major, so later reductions run in a fixed order
    table = _view(table_buf, shape)
    np.take(states, index, axis=1, out=table, mode="clip")
    np.conjugate(table, out=table)
    table *= states[:, None, :]
    planes = _view(planes_buf, (2, *shape))
    planes[0] = table.real
    planes[1] = table.imag
    f = _wht_last(planes, _view(spare_buf, planes.shape))
    np.square(f, out=f)
    return np.add(f[0], f[1], out=f[0])


def pauli_spectrum_fast(s: PureState) -> PauliSpectrum:
    """All qubit Pauli moduli via per-mask Walsh-Hadamard transforms."""
    if s.local_dim != 2:
        raise UseWeylPath("fast Pauli path is qubit-only; call weyl_spectrum")
    if s.num_sites > FAST_MAX_SITES:
        raise ResourceLimit(f"n={s.num_sites} exceeds the fast-path guard of {FAST_MAX_SITES}")
    d = s.dim
    masks = np.arange(d)
    mods = np.empty(d * d)
    rows = max(1, _SCRATCH // d)
    scratch = _xz_scratch(1, rows, d)
    for lo in range(0, d, rows):
        hi = min(d, lo + rows)
        mods[lo * d : hi * d] = _xz_table(s.amplitudes[None, :], masks[lo:hi], scratch).reshape(-1)
    # read-only, so PauliSpectrum keeps this buffer rather than a copy
    mods.setflags(write=False)
    return PauliSpectrum(mods[1:], 2, s.num_sites)


_P1 = {
    0: np.eye(2, dtype=np.complex128),
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _apply_site(phi: np.ndarray, op: np.ndarray, site: int, n: int) -> np.ndarray:
    t = phi.reshape((2,) * n)
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [site])), 0, site)
    return t.reshape(-1)


def pauli_spectrum_naive(s: PureState) -> PauliSpectrum:
    """Oracle path: apply every Pauli string site by site, O(8^n)."""
    if s.local_dim != 2:
        raise UseWeylPath("naive Pauli path is qubit-only; call weyl_spectrum")
    n = s.num_sites
    if n > NAIVE_MAX_SITES:
        raise ResourceLimit(f"n={n} exceeds the naive-path guard of {NAIVE_MAX_SITES}")
    d = s.dim
    psi = s.amplitudes
    values = np.zeros(d * d - 1)
    for code in range(1, 4**n):
        phi = psi
        a = b = 0
        for site in range(n):  # site 0 = most significant base-4 digit
            digit = (code // 4 ** (n - 1 - site)) % 4
            mask_bit = 1 << (n - 1 - site)
            if digit:
                phi = _apply_site(phi, _P1[digit], site, n)
            if digit in (1, 2):
                a |= mask_bit
            if digit in (2, 3):
                b |= mask_bit
        amp = np.vdot(psi, phi)
        values[a * d + b - 1] = amp.real**2 + amp.imag**2
    return PauliSpectrum(values, 2, n)


def displacement_operator(q: int, a1: int, a2: int) -> np.ndarray:
    """Weyl displacement D_a = tau^(a1 a2) X^a1 Z^a2 on dimension q.

    tau = exp(i pi / q) is the fixed primitive 2q-th root used for the
    half-integer power of omega when q is even; moduli of expectation
    values never depend on this choice.
    """
    k = np.arange(q)
    omega = np.exp(2j * np.pi / q)
    mat = np.zeros((q, q), dtype=np.complex128)
    mat[(k + a1) % q, k] = omega**(a2 * k)
    return np.exp(1j * np.pi * a1 * a2 / q) * mat


def _weyl_mods(states: np.ndarray):
    """Yield, for a1 = 0..q-1, the (m, q) array of |Tr(D_a psi)|^2 over a2
    for each row psi of the (m, q) ``states``.

    Tr(D_a psi) = tau^(a1 a2) sum_k conj(psi(k + a1 mod q)) omega^(a2 k) psi(k);
    the tau prefactor drops under the modulus.
    """
    q = states.shape[1]
    k = np.arange(q)
    omega_pow = np.exp(2j * np.pi * np.outer(k, k) / q)  # [a2, k]
    for a1 in range(q):
        r = np.conj(np.roll(states, -a1, axis=1)) * states  # r[k] = conj(psi(k+a1)) psi(k)
        amps = r @ omega_pow.T
        yield amps.real**2 + amps.imag**2


def weyl_spectrum(s: PureState) -> PauliSpectrum:
    """|Tr(D_a psi)|^2 for every displacement a = (a1, a2) != (0, 0)."""
    if s.num_sites != 1:
        raise DimensionMismatch("weyl_spectrum expects a single site")
    vals = np.concatenate(list(_weyl_mods(s.amplitudes[None, :])), axis=1)
    return PauliSpectrum(vals[0, 1:], s.local_dim, 1)


def _is_integer(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) <= tol


def _power_sum(values: np.ndarray, alpha: float, axis=None) -> np.ndarray:
    # integer orders avoid the transcendental pow in hot loops
    if _is_integer(alpha) and 1 <= round(alpha) <= 8:
        k = int(round(alpha))
        acc = values
        for _ in range(k - 1):
            acc = acc * values
        return acc.sum(axis=axis)
    return (values**alpha).sum(axis=axis)


def measure_from_n(n, measure: str, alpha: float, d: int):
    """The named measure of N_alpha (a number or an array) on dimension d.

    ``measure`` is "n" (N_alpha itself), "xi" (stabilizer purity
    Xi = (1 + N)/d), "m" (stabilizer Renyi entropy log(Xi)/(1 - alpha),
    nats) or "mlin" (linear entropy 1 - Xi).
    """
    if measure == "n":
        return n
    xi = (1.0 + n) / d
    if measure == "xi":
        return xi
    if measure == "m":
        return np.log(xi) / (1.0 - alpha)
    if measure == "mlin":
        return 1.0 - xi
    raise ValueError(f"unknown measure {measure!r}")


def n_from_measure(value, measure: str, alpha: float, d: int):
    """Inverse of ``measure_from_n`` for a number or an array: (N_alpha, |dN/d value|).

    The derivative is a number for the affine measures and has the shape
    of ``value`` for the entropy.
    """
    if measure == "n":
        return value, 1.0
    if measure == "xi":
        return d * value - 1.0, float(d)
    if measure == "mlin":
        return d * (1.0 - value) - 1.0, float(d)
    if measure == "m":
        # exp in extended precision, rounded once to double: numpy's double
        # exp is not always correctly rounded, and next to the divergence of
        # the exact densities one ulp of N moves them by ~1e-11
        e = np.exp(np.asarray((1.0 - alpha) * value, dtype=np.longdouble)).astype(float)[()]
        return d * e - 1.0, d * (alpha - 1.0) * e
    raise ValueError(f"unknown measure {measure!r}")


def magic_report(spec: PauliSpectrum, alpha: float, state: PureState | None = None) -> MagicReport:
    """N_alpha, stabilizer purity, SRE (nats) and linear SRE from a spectrum.

    If the originating state is supplied and it is a qubit register, the
    Z-basis l1 coherence is attached; incompatibility is attached for a
    single qubit at integer alpha.
    """
    if alpha <= 1:
        raise InvalidOrder(f"need alpha > 1, got {alpha}")
    d = spec.dim
    # blocks bound the power's temporary; a spectrum of n <= 10 qubits is one block
    vals = spec.values
    n_alpha = float(sum(_power_sum(vals[i : i + _POWER_SUM_BLOCK], alpha)
                        for i in range(0, vals.size, _POWER_SUM_BLOCK)))
    gamma = None
    if d == 2 and _is_integer(alpha):
        gamma = float(2.0 * np.sum((1.0 - spec.values) ** int(round(alpha))))
    coh = None
    if state is not None and state.local_dim == 2:
        coh = coherence_l1(state)
    return MagicReport(
        alpha=float(alpha),
        n_alpha=n_alpha,
        xi_alpha=measure_from_n(n_alpha, "xi", alpha, d),
        m_alpha=float(measure_from_n(n_alpha, "m", alpha, d)),
        m_lin=measure_from_n(n_alpha, "mlin", alpha, d),
        gamma_alpha=gamma,
        coherence=coh,
    )


def incompatibility(s: PureState, alpha: int) -> float:
    """Average non-commutativity with X, Y, Z: 2 sum_j (1 - n_j^2)^alpha.

    Equals the sum over j of the Schatten-2alpha norm (to the 2alpha) of the
    commutators [psi, sigma_j]; defined for integer alpha >= 1 on one qubit.
    """
    if s.dim != 2:
        raise DimensionMismatch("incompatibility is defined for a single qubit")
    if not (_is_integer(alpha) and round(alpha) >= 1):
        raise InvalidOrder(f"incompatibility needs a positive integer order, got {alpha}")
    n = to_bloch(s).as_array()
    return float(2.0 * np.sum((1.0 - n**2) ** int(round(alpha))))


def coherence_l1(s: PureState) -> float:
    """sum_{i != j} |psi_i psi_j*| in the computational basis."""
    total = float(np.sum(np.abs(s.amplitudes)))
    return max(total * total - 1.0, 0.0)


def hermitian_observable(obs, dim: int) -> np.ndarray:
    """``obs`` as a complex (dim, dim) array, checked to be Hermitian."""
    a = np.asarray(obs, dtype=np.complex128)
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"observable shape {a.shape} does not match d={dim}")
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise InvalidObservable("observable is not Hermitian within 1e-10")
    return a


def expectation(s: PureState, obs: np.ndarray) -> float:
    """Real expectation value <psi|A|psi> of a Hermitian observable."""
    a = hermitian_observable(obs, s.dim)
    val = complex(np.vdot(s.amplitudes, a @ s.amplitudes))
    if abs(val.imag) > 1e-10:
        raise InvalidObservable(f"expectation has imaginary residue {val.imag!r}")
    return val.real


# ---------------------------------------------------------------------------
# Batched kernels used by the Monte Carlo sampler.


def pauli_moment_batch(states: np.ndarray, alpha: float) -> np.ndarray:
    """N_alpha for each row of a (m, 2^n) array of qubit-register states."""
    m, d = states.shape
    # blocks of (state, mask) pairs hold about _SCRATCH entries: whole states
    # while d^2 fits, else a run of masks of one state
    pairs = max(1, _SCRATCH // d)
    batch = max(1, pairs // d)
    step = min(d, pairs)
    masks = np.arange(d)
    scratch = _xz_scratch(min(m, batch), step, d)
    out = np.empty(m)
    for i in range(0, m, batch):
        acc = 0.0
        for lo in range(0, d, step):
            mods = _xz_table(states[i : i + batch], masks[lo : lo + step], scratch)
            mods = mods.reshape(mods.shape[0], -1)
            if alpha == 2.0:
                acc = acc + np.einsum("bk,bk->b", mods, mods)
            else:
                acc = acc + _power_sum(mods, alpha, axis=1)
        out[i : i + batch] = acc - 1.0
    return out


def weyl_moment_batch(states: np.ndarray, alpha: float) -> np.ndarray:
    """N_alpha for each row of a (m, q) array of single-qudit states."""
    acc = np.zeros(states.shape[0])
    for a1, mods in enumerate(_weyl_mods(states)):
        if a1 == 0:
            mods = mods[:, 1:]  # drop the identity
        acc += _power_sum(mods, alpha, axis=1)
    return acc
