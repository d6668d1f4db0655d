"""Pure states of qubit registers and single qudits, Haar sampling, Bloch frame.

Random sampling is built on the counter-based Philox4x64 bit generator keyed
by the pair (seed, stream_id): identical pairs reproduce identical sample
sequences bit for bit, distinct stream ids give independent streams, so a
parallel harness partitions stream ids instead of sharing generator state.
A Haar sample is a vector of 2d independent standard Gaussians assembled
into d complex entries and normalized; no fiducial state enters anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidBlochVector, InvalidDimension

NORM_TOL = 1e-12
BLOCH_TOL = 1e-10


@dataclass(frozen=True)
class SeededRng:
    """Value object naming one reproducible random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected SeededRng or numpy Generator, got {type(rng).__name__}")


def check_register(q: int, n: int):
    """Raise InvalidDimension unless (q, n) is a register: local dimension
    q >= 2 and n >= 1 sites, a qudit (q > 2) on a single site."""
    if q < 2 or n < 1:
        raise InvalidDimension(f"need local_dim >= 2 and num_sites >= 1, got q={q}, n={n}")
    if q > 2 and n != 1:
        raise InvalidDimension("qudit registers are limited to a single site")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector with local-dimension metadata.

    ``len(amplitudes) == local_dim ** num_sites`` always holds; qudits
    (local_dim > 2) are restricted to a single site.
    """

    amplitudes: np.ndarray
    local_dim: int = 2
    num_sites: int = 1

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        q, n = int(self.local_dim), int(self.num_sites)
        check_register(q, n)
        if amps.size != q**n:
            raise InvalidDimension(f"{amps.size} amplitudes cannot hold {n} sites of dimension {q}")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN fails too
            raise InvalidDimension(f"state not normalized: sum |a|^2 = {norm2!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def canonicalized(self) -> "PureState":
        """Fix the global phase: first non-negligible amplitude real positive."""
        amps = self.amplitudes
        idx = int(np.argmax(np.abs(amps) > 1e-14))
        pivot = amps[idx]
        phase = pivot / abs(pivot)
        return PureState(amps / phase, self.local_dim, self.num_sites)


@dataclass(frozen=True)
class BlochVector:
    n1: float
    n2: float
    n3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2, self.n3], dtype=float)

    def norm(self) -> float:
        return float(np.sqrt(self.n1**2 + self.n2**2 + self.n3**2))


def register_shape(dim: int, local_dim: int | None = None) -> tuple[int, int]:
    """(local_dim, num_sites) of a register of dimension ``dim``: qubits for
    local dimension 2, else one qudit, checked by ``check_register``.  Only
    ``local_dim=None`` infers it: 2 when dim is a power of two, else dim
    itself; any other value, 0 included, is taken as given."""
    if local_dim is None:
        local_dim = 2 if dim & (dim - 1) == 0 else dim
    q = int(local_dim)
    n = int(dim).bit_length() - 1 if q == 2 else 1
    check_register(q, n)
    if q**n != dim:
        raise InvalidDimension(f"dimension {dim} is not a register of local dimension {q}")
    return q, n


def state_from_amplitudes(values, local_dim: int = 2) -> PureState:
    """Build a PureState, inferring the number of sites from the length."""
    amps = np.asarray(values, dtype=np.complex128).reshape(-1)
    return PureState(amps, *register_shape(amps.size, local_dim))


def haar_block(d: int, rng, count: int) -> np.ndarray:
    """Draw ``count`` Haar-random states as the rows of a (count, d) array.

    Row i is assembled from entries [2di, 2d(i+1)) of the stream, so the
    first row coincides with ``haar_sample`` on the same stream.

    The bits are those of ``x / np.linalg.norm(x, axis=1, keepdims=True)``
    on ``x = raw[:, :d] + 1j * raw[:, d:]``, which the seeded outputs are
    pinned to.  Two steps keep them: the squared norm stays the complex
    product ``conj(x) * x``, whose real part numpy forms as
    ``fma(re, re, im * im)`` (``re * re + im * im`` differs in the last
    bit), and the scale multiplies the float view by ``1.0 / norms``,
    which is what numpy's complex-by-real division (Smith's method) does
    (a real ``/ norms`` rounds differently).

    At d = 2 the block is built plane-major, as a contiguous (2, count)
    array, and its transpose is returned: the same values and the same
    ``tobytes()``, but every step runs over vectors of length ``count``
    instead of numpy inner loops of length 2-4 once per row, and the
    one-qubit kernel reads each amplitude as a contiguous column.  The
    norm adds the two planes in order, which is the row ``add.reduce``
    for d < 8 only; and already at d = 4 the Pauli moment kernel runs
    slower on column-major input (2.40 against 2.15 ms per 4096 states,
    one thread of a 2-core Xeon), so every d >= 3 keeps the row layout.
    """
    if d < 2:
        raise InvalidDimension(f"need d >= 2, got {d}")
    g = _as_generator(rng)
    raw = g.standard_normal((count, 2 * d))
    if d == 2:
        planes = np.empty((2, count), dtype=np.complex128)
        planes.real[...] = raw[:, :2].T
        planes.imag[...] = raw[:, 2:].T
        sq = (planes.conj() * planes).real
        norms = np.sqrt(sq[0] + sq[1])
        np.maximum(norms, 1e-300, out=norms)
        np.divide(1.0, norms, out=norms)
        planes.real[...] *= norms
        planes.imag[...] *= norms
        return planes.T
    states = np.empty((count, d), dtype=np.complex128)
    states.real[...] = raw[:, :d]
    states.imag[...] = raw[:, d:]
    norms = np.sqrt(np.add.reduce((states.conj() * states).real, axis=1, keepdims=True))
    # zero norm has probability zero; guard against pathological streams
    np.maximum(norms, 1e-300, out=norms)
    states.view(np.float64)[...] *= np.divide(1.0, norms, out=norms)
    return states


def haar_sample(d: int, rng, local_dim: int | None = None) -> PureState:
    """One state from the unitarily invariant measure on dimension d; its
    register (``register_shape``: ``local_dim=None`` infers it, 0 is no local
    dimension) is checked before the draw."""
    q, n = register_shape(d, local_dim)
    return PureState(haar_block(d, rng, 1)[0], q, n)


def from_bloch(b: BlochVector) -> PureState:
    """Qubit state (1 + n.sigma)/2 with the canonical phase convention."""
    if not abs(b.norm() - 1.0) <= BLOCH_TOL:
        raise InvalidBlochVector(f"|n| = {b.norm()!r} is off the unit sphere")
    theta = np.arccos(np.clip(b.n3, -1.0, 1.0))
    phi = np.arctan2(b.n2, b.n1)
    amps = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    return PureState(amps / np.linalg.norm(amps), 2, 1).canonicalized()


def bloch_components(states: np.ndarray) -> np.ndarray:
    """(3, m) array of the Bloch components (2 Re z, 2 Im z, |a0|^2 - |a1|^2),
    z = conj(a0) a1, of each row (a0, a1) of the (m, 2) ``states``.

    These expressions are the one-qubit moment kernel's
    (``pauli_spectrum.pauli_moment_batch``), which the seeded outputs are
    pinned to bit for bit.  Each component is a contiguous row, built from
    contiguous columns for ``haar_block``'s plane-major d = 2 block.
    """
    a0, a1 = states[:, 0], states[:, 1]
    z = np.conj(a0) * a1
    comp = np.empty((3, states.shape[0]))
    np.multiply(z.real, 2, out=comp[0])
    np.multiply(z.imag, 2, out=comp[1])
    np.square(a0.real, out=comp[2])
    comp[2] += np.square(a0.imag)
    comp[2] -= np.square(a1.real)
    comp[2] -= np.square(a1.imag)
    return comp


def to_bloch(s: PureState) -> BlochVector:
    """(<X>, <Y>, <Z>) of a single-qubit state."""
    if s.dim != 2:
        raise DimensionMismatch(f"to_bloch needs d=2, got d={s.dim}")
    return BlochVector(*bloch_components(s.amplitudes[None, :])[:, 0].tolist())


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; site 0 of ``a`` is the most significant digit."""
    if a.local_dim != b.local_dim:
        raise DimensionMismatch(f"mixed local dimensions {a.local_dim} and {b.local_dim}")
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.local_dim, a.num_sites + b.num_sites)


_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)


def _phase_key(u: np.ndarray) -> bytes:
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-6)]
    canon = np.round(u * (abs(pivot) / pivot), 9) + (0.0 + 0.0j)  # kill -0.0
    return canon.tobytes()


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """All 24 single-qubit Cliffords modulo phase, in a fixed order.

    Enumeration: breadth-first products of the generators (H first, then S)
    starting from the identity, keeping the first representative of each
    phase-equivalence class in discovery order.
    """
    found = {}
    order = []
    frontier = [np.eye(2, dtype=np.complex128)]
    while frontier:
        nxt = []
        for u in frontier:
            key = _phase_key(u)
            if key in found:
                continue
            found[key] = u
            order.append(u)
            nxt.extend((_H @ u, _S @ u))
        frontier = nxt
    assert len(order) == 24
    for u in order:
        u.setflags(write=False)
    return tuple(order)


def random_single_qubit_clifford(rng) -> np.ndarray:
    """Uniform draw from the 24-element single-qubit Clifford group."""
    g = _as_generator(rng)
    return single_qubit_cliffords()[int(g.integers(24))]
