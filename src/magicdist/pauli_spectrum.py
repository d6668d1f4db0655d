"""All Pauli (or Weyl-Heisenberg) expectation moduli of a state, and the
measures derived from them: the 2-alpha moment N_alpha, stabilizer purity,
stabilizer Renyi entropy (nats), its linear variant, incompatibility and
l1 coherence.

Spectra store the d^2 - 1 nontrivial values |<P>|^2 indexed row-major over
the mask pair (a, b) with (0, 0) skipped, where P ~ X^a Z^b up to phase.
Phases never survive the modulus, so no Y-phase convention is needed here.
Bit 0 of a mask addresses site 0, the most significant digit of the
amplitude index (same convention as ``statevec.tensor``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
PURITY_TOL = 1e-9


@dataclass(frozen=True)
class PauliSpectrum:
    """The d^2 - 1 values |<P>|^2 for the nontrivial Pauli/Weyl operators."""

    values: np.ndarray
    local_dim: int
    num_sites: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1).copy()
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


def _fwht_last(mat: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform along the last axis (length 2^n)."""
    d = mat.shape[-1]
    h = 1
    while h < d:
        view = mat.reshape(mat.shape[:-1] + (d // (2 * h), 2, h))
        top = view[..., 0, :]
        bot = view[..., 1, :]
        diff = top - bot
        np.add(top, bot, out=top)
        bot[...] = diff
        h *= 2
    return mat


def _xz_table(states: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(m, len(masks), d) array of |<psi|X^a Z^b|psi>|^2 for each row psi of
    the (m, d) ``states``, each mask a in ``masks`` and every mask b.

    For each a, w_a(x) = conj(psi(x XOR a)) psi(x); the transform over x
    then yields every b at once, for a total cost O(d^2 log d) per state.
    """
    # a temporary XOR index is freed before the transform allocates; take()
    # returns a row-major table, so later reductions run in a fixed order
    table = np.take(states, masks[:, None] ^ np.arange(states.shape[-1]), axis=1)
    np.conjugate(table, out=table)
    table *= states[:, None, :]
    _fwht_last(table)
    return table.real**2 + table.imag**2


def pauli_spectrum_fast(s: PureState) -> PauliSpectrum:
    """All qubit Pauli moduli via per-mask Walsh-Hadamard transforms."""
    if s.local_dim != 2:
        raise UseWeylPath("fast Pauli path is qubit-only; call weyl_spectrum")
    if s.num_sites > FAST_MAX_SITES:
        raise ResourceLimit(f"n={s.num_sites} exceeds the fast-path guard of {FAST_MAX_SITES}")
    d = s.dim
    masks = np.arange(d)
    mods = np.empty((d, d))
    rows = max(1, 2**22 // d)  # cap the complex scratch at ~64 MiB
    for lo in range(0, d, rows):
        mods[lo : lo + rows] = _xz_table(s.amplitudes[None, :], masks[lo : lo + rows])[0]
    return PauliSpectrum(mods.reshape(-1)[1:], 2, s.num_sites)


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


def magic_report(spec: PauliSpectrum, alpha: float, state: PureState | None = None) -> MagicReport:
    """N_alpha, stabilizer purity, SRE (nats) and linear SRE from a spectrum.

    If the originating state is supplied and it is a qubit register, the
    Z-basis l1 coherence is attached; incompatibility is attached for a
    single qubit at integer alpha.
    """
    if alpha <= 1:
        raise InvalidOrder(f"need alpha > 1, got {alpha}")
    d = spec.dim
    n_alpha = float(_power_sum(spec.values, alpha))
    xi = (1.0 + n_alpha) / d
    m_alpha = float(np.log(xi) / (1.0 - alpha))
    gamma = None
    if d == 2 and _is_integer(alpha):
        gamma = float(2.0 * np.sum((1.0 - spec.values) ** int(round(alpha))))
    coh = None
    if state is not None and state.local_dim == 2:
        coh = coherence_l1(state)
    return MagicReport(
        alpha=float(alpha),
        n_alpha=n_alpha,
        xi_alpha=xi,
        m_alpha=m_alpha,
        m_lin=1.0 - xi,
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


def pauli_moment_batch(states: np.ndarray, alpha: float, batch: int = 0) -> np.ndarray:
    """N_alpha for each row of a (m, 2^n) array of qubit-register states."""
    m, d = states.shape
    if batch <= 0:
        # keep the (batch, d, d) scratch near the cache size; larger blocks
        # are measurably slower, not faster
        batch = max(1, min(m, 2**19 // (d * d) or 1))
    masks = np.arange(d)
    out = np.empty(m)
    for i in range(0, m, batch):
        mods = _xz_table(states[i : i + batch], masks).reshape(-1, d * d)
        if alpha == 2.0:
            out[i : i + batch] = np.einsum("bk,bk->b", mods, mods) - 1.0
        else:
            out[i : i + batch] = _power_sum(mods, alpha, axis=1) - 1.0
    return out


def weyl_moment_batch(states: np.ndarray, alpha: float) -> np.ndarray:
    """N_alpha for each row of a (m, q) array of single-qudit states."""
    acc = np.zeros(states.shape[0])
    for a1, mods in enumerate(_weyl_mods(states)):
        if a1 == 0:
            mods = mods[:, 1:]  # drop the identity
        acc += _power_sum(mods, alpha, axis=1)
    return acc
