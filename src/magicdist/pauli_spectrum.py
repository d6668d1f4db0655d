"""All Pauli (or Weyl-Heisenberg) expectation moduli of a state, and the
measures derived from them: the 2-alpha moment N_alpha, stabilizer purity,
stabilizer Renyi entropy (nats), its linear variant, incompatibility and
l1 coherence.  ``canonical_measure`` is the one rule for a measure's name;
``measure_from_n`` and its inverse ``n_from_measure`` define the purity,
entropy and linear entropy in terms of N_alpha; ``measure_rows`` is the
one evaluator of a measure on rows of amplitudes, for every caller.

Spectra store the d^2 - 1 nontrivial values |<P>|^2 indexed row-major over
the mask pair (a, b) with (0, 0) skipped, where P ~ X^a Z^b up to phase.
Phases never survive the modulus, so no Y-phase convention is needed here.
Bit 0 of a mask addresses site 0, the most significant digit of the
amplitude index (same convention as ``statevec.tensor``).

For qubit registers every |<X^a Z^b>|^2 of one mask a comes from the
Walsh-Hadamard transform over x of w_a(x) = conj(psi(x XOR a)) psi(x).
For a != 0 with highest set bit k, w_a(x XOR a) = conj(w_a(x)): the
transform at b is 2 R(b') when popcount(a & b) is even and 2i I(b') when
it is odd, where R and I transform the real and the imaginary part of w_a
over the d/2 coset representatives x with bit k clear, and b' is b without
bit k.  So only half of each w_a is gathered, multiplied, split into its
two planes and transformed, over n - 1 bits; the parity select puts 4 R^2
or 4 I^2 at each b (a moment sums both planes as they are, since each b'
has one of each over b_k = 0, 1).  The a = 0 row is the full-length
transform of |psi|^2.  A transform of length 2^m is the Kronecker product
of Sylvester matrices of order at most 64, so it runs as ceil(m/6) real
matrix products (BLAS GEMMs) rather than m butterfly passes over memory.
Each of the d^2 values then costs the sum of the factor orders of an
(n - 1)-bit transform in multiply-adds (32 at n = 6, 32 + 64 at n = 12),
against twice the n-bit sum for two full-length planes (128 and 256), and
the work runs by highest-bit group in blocks of about 2^17 entries that
stay in cache.  In ``pauli_spectrum_fast`` on one qubit, X and Y are the
squares of 2 Re w_1(0) and 2 Im w_1(0) with no transform between, and
doubling is exact, so |H> gives N_2 = 0.5 to the bit.

The batch kernel ``pauli_moment_batch`` routes d = 2 around the cosets:
it squares the Bloch components of ``statevec.bloch_components`` in
place, divides them by their sum and clips N_alpha into
``support_for("n", alpha)``.  That is the one one-qubit kernel: through
``measure_rows`` the sampler runs it on every chunk and ``magicdist
measure`` on one state, so both give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidObservable,
    InvalidOrder,
    ResourceLimit,
    UseWeylPath,
)
from .statevec import PureState, bloch_components

FAST_MAX_SITES = 14
NAIVE_MAX_SITES = 6
# largest qudit the Weyl kernels and the sampler accept
MAX_LOCAL_DIM = 16
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
        # written so that NaN, which fails every comparison, fails it too
        if vals.size and not (vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-9):
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
    """Bundle of the scalar measures derived from N_alpha of one state."""

    alpha: float
    n_alpha: float
    xi_alpha: float
    m_alpha: float
    m_lin: float
    gamma_alpha: float | None = None
    coherence: float | None = None


def _sylvester(k: int) -> np.ndarray:
    """Read-only Sylvester-Hadamard matrix H[b, x] = (-1)^popcount(b & x) of order 2^k."""
    b = np.arange(2**k)
    h = 1.0 - 2.0 * (np.bitwise_count(b[:, None] & b) & 1)
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


def _coset_scratch(d: int):
    """Buffers for blocks of up to max(_SCRATCH, d) entries of ``_mask_runs``,
    ``_diagonal_row`` and ``_coset_table``.  They are reused across blocks
    because fresh arrays of a MiB or more would be mapped and zero-filled by
    the allocator on every block, which costs 2-3x the kernel's time in a
    fresh process."""
    entries = max(_SCRATCH, d)
    return (np.empty(entries, dtype=np.intp), np.empty(entries, dtype=np.complex128),
            np.empty(2 * entries), np.empty(2 * entries))


def _view(buf: np.ndarray, shape) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


def _mask_runs(d: int, rows: int, scratch):
    """Yield (k, masks, index) for every mask a != 0 of a register of
    dimension d, by highest bit k: ``masks`` is a run of at most ``rows``
    masks of [2^k, 2^(k+1)), and row r of ``index`` holds x XOR masks[r]
    over the d/2 representatives x, the indices with bit k clear in
    increasing order.  ``index`` lives in ``scratch`` until the next run."""
    x = np.arange(d // 2)
    for k in range(d.bit_length() - 1):
        low = (1 << k) - 1
        reps = ((x & ~low) << 1) | (x & low)
        for lo in range(1 << k, 2 << k, rows):
            masks = np.arange(lo, min(lo + rows, 2 << k))
            index = _view(scratch[0], (masks.size, x.size))
            yield k, masks, np.bitwise_xor(masks[:, None], reps, out=index)


def _diagonal_row(states: np.ndarray, scratch) -> np.ndarray:
    """(m, d) array of |<psi|Z^b|psi>|^2 (mask a = 0) for each row psi of the
    (m, d) ``states``: the full-length transform of |psi|^2, squared, in
    ``scratch`` until the next call."""
    shape = states.shape
    _, table_buf, planes_buf, spare_buf = scratch
    table = _view(table_buf, shape)
    np.conjugate(states, out=table)
    table *= states
    f = _view(planes_buf, shape)
    np.copyto(f, table.real)
    f = _wht_last(f, _view(spare_buf, shape))
    return np.square(f, out=f)


def _coset_table(states: np.ndarray, k: int, index: np.ndarray, scratch) -> np.ndarray:
    """(2, m, rows, d/2) planes 4 R^2 and 4 I^2 for each row psi of the
    (m, d) ``states`` and each of the ``rows`` masks a of one run of
    ``_mask_runs`` (highest bit k, gather ``index``).  The result lives in
    ``scratch`` until the next call.

    With w_a(x) = conj(psi(x XOR a)) psi(x), w_a(x XOR a) = conj(w_a(x)), so
    for a of highest bit k, <X^a Z^b> is, up to phase, 2 R(b') when
    popcount(a & b) is even and 2 I(b') when it is odd: R and I are the
    Walsh-Hadamard transforms (``_wht_last``) of the real and the imaginary
    plane of w_a over the d/2 representatives x with bit k clear, and b' is
    b without bit k.  The table holds conj(w_a) = psi(x XOR a) conj(psi(x)),
    which has the same squares, so only psi at the representatives is
    conjugated, not the gathered table.
    """
    m = states.shape[0]
    rows, half = index.shape
    shape = (m, rows, half)
    _, table_buf, planes_buf, spare_buf = scratch
    # the table is row-major, so later reductions run in a fixed order
    table = _view(table_buf, shape)
    np.take(states, index, axis=1, out=table, mode="clip")
    # conj(psi) at the representatives, in the spare buffer until the transform
    conj_reps = _view(spare_buf.view(np.complex128), (m, 1, half))
    np.conjugate(states.reshape(m, 1, -1, 2, 1 << k)[:, :, :, 0, :],
                 out=conj_reps.reshape(m, 1, -1, 1 << k))
    table *= conj_reps
    # doubling is exact, so the squares below are 4 R^2 and 4 I^2 to the bit
    planes = _view(planes_buf, (2, *shape))
    np.multiply(table.real, 2.0, out=planes[0])
    np.multiply(table.imag, 2.0, out=planes[1])
    f = _wht_last(planes, _view(spare_buf, planes.shape))
    return np.square(f, out=f)


def check_spectrum_size(local_dim: int, num_sites: int):
    """ResourceLimit beyond FAST_MAX_SITES qubits or a qudit above MAX_LOCAL_DIM."""
    if local_dim == 2 and num_sites > FAST_MAX_SITES:
        raise ResourceLimit(f"n={num_sites} exceeds the fast-path guard of {FAST_MAX_SITES}")
    if local_dim > MAX_LOCAL_DIM:
        raise ResourceLimit(f"local dimension {local_dim} exceeds the guard of {MAX_LOCAL_DIM}")


def pauli_spectrum_fast(s: PureState) -> PauliSpectrum:
    """All qubit Pauli moduli via per-mask Walsh-Hadamard transforms."""
    if s.local_dim != 2:
        raise UseWeylPath("fast Pauli path is qubit-only; call weyl_spectrum")
    check_spectrum_size(2, s.num_sites)
    d = s.dim
    psi = s.amplitudes[None, :]
    scratch = _coset_scratch(d)
    mods = np.empty(d * d)
    mods[:d] = _diagonal_row(psi, scratch)[0]
    low_bits = np.arange(d // 2, dtype=np.min_scalar_type(d))
    for k, masks, index in _mask_runs(d, max(1, _SCRATCH // (d // 2)), scratch):
        shape = (masks.size, -1, 1 << k)
        even, odd = (p.reshape(shape) for p in _coset_table(psi, k, index, scratch)[:, 0])
        # b = (bits above k, b_k, bits below k): popcount(a & b) is odd where
        # exactly one of popcount(a & b_low) and b_k is
        a = masks.astype(low_bits.dtype)[:, None, None]
        flip = (np.bitwise_count(a & low_bits[: 1 << k]) & 1).view(bool)
        out = mods[masks[0] * d : (masks[-1] + 1) * d].reshape(masks.size, -1, 2, 1 << k)
        out[:, :, 0] = np.where(flip, odd, even)
        out[:, :, 1] = np.where(flip, even, odd)
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
    check_spectrum_size(s.local_dim, 1)
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


def check_order(alpha: float):
    """Raise InvalidOrder unless the Renyi order is finite and above 1."""
    if not (math.isfinite(alpha) and alpha > 1):
        raise InvalidOrder(f"need a finite alpha > 1, got {alpha}")


# the measures that are functions of N_alpha alone, through ``measure_from_n``
MOMENT_MEASURES = ("n", "xi", "m", "mlin")
MEASURES = (*MOMENT_MEASURES, "coherence", "observable")

_ALIASES = {**{name: name for name in MEASURES}, "n_alpha": "n", "xi_alpha": "xi",
            "m_alpha": "m", "m_lin": "mlin", "observableexpectation": "observable"}


def canonical_measure(name: str) -> str:
    """The ``MEASURES`` name of an alias, in any case and with blanks around
    it: the one name rule of every function that takes a measure."""
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown measure {name!r}; expected one of {MEASURES}")
    return _ALIASES[key]


def measure_from_n(n, measure: str, alpha: float, d: int):
    """The named measure of N_alpha (a number or an array) on dimension d.

    ``measure`` is "n" (N_alpha itself), "xi" (stabilizer purity
    Xi = (1 + N)/d), "m" (stabilizer Renyi entropy log(Xi)/(1 - alpha),
    nats) or "mlin" (linear entropy 1 - Xi), or an alias of one.
    """
    measure = canonical_measure(measure)
    if measure == "n":
        return n
    xi = (1.0 + n) / d
    if measure == "xi":
        return xi
    if measure == "m":
        return np.log(xi) / (1.0 - alpha)
    if measure == "mlin":
        return 1.0 - xi
    raise ValueError(f"{measure!r} is not a function of N_alpha")


def n_from_measure(value, measure: str, alpha: float, d: int):
    """Inverse of ``measure_from_n`` for a number or an array: (N_alpha, |dN/d value|).

    The derivative is a number for the affine measures and has the shape
    of ``value`` for the entropy.
    """
    measure = canonical_measure(measure)
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
    raise ValueError(f"{measure!r} is not a function of N_alpha")


def support_for(variable: str, alpha: float = 2.0) -> tuple[float, float]:
    """Closed support of a moment measure (``MOMENT_MEASURES``) of one qubit."""
    ends = (measure_from_n(n, variable, alpha, 2) for n in (3.0 ** (1.0 - alpha), 1.0))
    # + 0.0 turns the entropy's -0.0 at N = 1 into +0.0
    lo, hi = sorted(float(v) + 0.0 for v in ends)
    return lo, hi


def magic_report(spec: PauliSpectrum, alpha: float, state: PureState | None = None) -> MagicReport:
    """N_alpha, stabilizer purity, SRE (nats) and linear SRE from a spectrum.

    If the originating state is supplied and it is a qubit register, the
    Z-basis l1 coherence is attached; incompatibility is attached for a
    single qubit at integer alpha.
    """
    check_order(alpha)
    # blocks bound the power's temporary; a spectrum of n <= 10 qubits is one block
    vals = spec.values
    n_alpha = float(sum(_power_sum(vals[i : i + _POWER_SUM_BLOCK], alpha)
                        for i in range(0, vals.size, _POWER_SUM_BLOCK)))
    return _report(n_alpha, alpha, spec.dim, vals, state)


def _report(n_alpha: float, alpha: float, d: int, squares,
            state: PureState | None) -> MagicReport:
    """The report of N_alpha on dimension d: ``magic_report`` and ``magicdist
    measure`` both end here.  At d = 2 and integer alpha the incompatibility
    comes from ``squares``, the three one-qubit spectrum values; a
    qubit-register ``state`` adds its coherence."""
    gamma = None
    if d == 2 and _is_integer(alpha):
        gamma = _incompatibility(squares, alpha)
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
    if not (_is_integer(alpha) and round(alpha) >= 1):
        raise InvalidOrder(f"incompatibility needs a positive integer order, got {alpha}")
    if s.dim != 2:
        raise DimensionMismatch(f"incompatibility needs d=2, got d={s.dim}")
    # the three spectrum values magic_report and measure read, to the bit
    return _incompatibility(pauli_spectrum_fast(s).values, alpha)


def _incompatibility(squares: np.ndarray, alpha: float) -> float:
    """2 sum_j (1 - n_j^2)^alpha over the squared Bloch components n_j^2."""
    return float(2.0 * np.sum((1.0 - squares) ** int(round(alpha))))


def coherence_l1(s: PureState) -> float:
    """sum_{i != j} |psi_i psi_j*| in the computational basis."""
    return float(measure_rows(s.amplitudes[None, :], "coherence", None, s.local_dim)[0])


def hermitian_observable(obs, dim: int) -> np.ndarray:
    """The Hermitian part (A + A^dagger)/2 of ``obs`` as a complex (dim, dim)
    array, after checking that A is Hermitian within 1e-10; an exactly
    Hermitian A comes back to the bit.

    The real and imaginary parts of every entry must be at most
    ``finfo(float).max / (4 dim)`` in size.  Then A + A^dagger stays finite,
    and so does every <psi|A|psi>, eigenvalue and eigenvalue span, each at
    most 2 sqrt(2) dim times that bound; the sampler's bins span the
    eigenvalues."""
    a = np.asarray(obs, dtype=np.complex128)
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"observable shape {a.shape} does not match d={dim}")
    if not np.all(np.isfinite(a)):
        raise InvalidObservable("observable entries must be finite")
    bound = np.finfo(float).max / (4 * dim)
    if max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))) > bound:
        raise InvalidObservable(f"observable entries need real and imaginary parts of at most "
                                f"{bound:.6g} in size at d={dim}")
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise InvalidObservable("observable is not Hermitian within 1e-10")
    return (a + a.conj().T) / 2


def expectation(s: PureState, obs: np.ndarray) -> float:
    """Real expectation value <psi|A|psi> of a Hermitian observable: the
    state's ``measure_rows`` row."""
    a = hermitian_observable(obs, s.dim)
    return float(measure_rows(s.amplitudes[None, :], "observable", None, s.local_dim, a)[0])


# ---------------------------------------------------------------------------
# Batched kernels used by the Monte Carlo sampler.


def pauli_moment_batch(states: np.ndarray, alpha: float) -> np.ndarray:
    """N_alpha for each row of a (m, 2^n) array of qubit-register states.

    One qubit has no transform: the squared Bloch components are normalised
    by their sum, so N_alpha lies in ``support_for("n", alpha)`` up to
    rounding, which the clip removes.
    """
    m, d = states.shape
    if d == 2:
        comp_sq = bloch_components(states)
        np.square(comp_sq, out=comp_sq)
        total = comp_sq[0] + comp_sq[1]
        total += comp_sq[2]
        comp_sq /= total
        n_vals = _power_sum(comp_sq, alpha, axis=0)
        return np.clip(n_vals, *support_for("n", alpha), out=n_vals)
    scratch = _coset_scratch(d)

    def moment(mods):
        mods = mods.reshape(mods.shape[0], -1)
        if alpha == 2.0:
            return np.einsum("bk,bk->b", mods, mods)
        return _power_sum(mods, alpha, axis=1)

    # every block holds about _SCRATCH entries: as many whole states as fit,
    # or one state and a run of its masks
    out = np.empty(m)
    step = max(1, _SCRATCH // d)
    for i in range(0, m, step):
        # column 0 is the identity's term (sum |psi|^2)^(2 alpha) = 1; summed
        # and then subtracted, it would cost a small N_alpha its relative precision
        out[i : i + step] = moment(_diagonal_row(states[i : i + step], scratch)[:, 1:])
    rows = max(1, _SCRATCH // (d // 2))
    for k, masks, index in _mask_runs(d, rows, scratch):
        step = max(1, rows // masks.size)
        for i in range(0, m, step):
            # each b' holds one 4 R^2 and one 4 I^2 over b_k = 0, 1, so both
            # planes sum as they are
            even, odd = _coset_table(states[i : i + step], k, index, scratch)
            out[i : i + step] += moment(even)
            out[i : i + step] += moment(odd)
    return out


def weyl_moment_batch(states: np.ndarray, alpha: float) -> np.ndarray:
    """N_alpha for each row of a (m, q) array of single-qudit states."""
    acc = np.zeros(states.shape[0])
    for a1, mods in enumerate(_weyl_mods(states)):
        if a1 == 0:
            mods = mods[:, 1:]  # drop the identity
        acc += _power_sum(mods, alpha, axis=1)
    return acc


def measure_rows(states: np.ndarray, measure: str, alpha: float, q: int,
                 observable: np.ndarray | None = None) -> np.ndarray:
    """The measure of each row of a (m, d) array of states of local dimension
    q ("observable" needs a Hermitian ``observable``).  The kernels are looked
    up at call time, so whatever replaces them here sees every call."""
    measure = canonical_measure(measure)
    if measure == "coherence":  # (sum_i |psi_i|)^2 - 1
        total = np.sum(np.abs(states), axis=1)
        return np.maximum(total * total - 1.0, 0.0)
    if measure == "observable":  # <psi|A|psi>, whose imaginary part is rounding
        return np.einsum("bi,ij,bj->b", states.conj(), observable, states).real
    kernel = pauli_moment_batch if q == 2 else weyl_moment_batch
    return measure_from_n(kernel(states, alpha), measure, alpha, states.shape[1])
