"""Reference values computed apart from magicdist.

Nothing here imports the package: each value comes from a closed form or
from a direct quadrature over the Bloch sphere, so a check built on it
cannot inherit a fault of the program it checks.
"""
from __future__ import annotations

import math

import numpy as np

# coefficient of the logarithmic divergence of the one-qubit N_2 density
DIVERGENCE_SLOPE = 3.0 / (math.sqrt(2.0) * math.pi)


def haar_mean_n2(q: int, n_sites: int = 1) -> float:
    """E[N_2] over Haar states of n qubits, or of one qudit of dimension q.

    A 4-design average gives, for a traceless unitary D on dimension d,
    E|<D>|^4 = (2 d^2 + |Tr D^2|^2 + 6 d) / (d (d+1) (d+2) (d+3)).
    Pauli strings square to the identity (|Tr D^2|^2 = d^2).  A qudit
    displacement squares to a multiple of D_{2a}, which is the identity
    only for the three nonzero a with 2a = 0 mod q when q is even.
    """
    d = q**n_sites
    if q == 2:
        n_identity_squares, n_others = d * d - 1, 0
    elif n_sites == 1:
        n_identity_squares = 3 if q % 2 == 0 else 0
        n_others = d * d - 1 - n_identity_squares
    else:
        raise ValueError("qudit registers are single-site")
    denom = d * (d + 1) * (d + 2) * (d + 3)
    return (n_identity_squares * (3 * d * d + 6 * d) + n_others * (2 * d * d + 6 * d)) / denom


def _sphere_nodes(n_t: int, n_phi: int):
    """Gauss-Legendre nodes in t = cos(theta) on [0, 1] and a uniform
    phi rule on one period [0, pi/2) of cos^4 + sin^4, with weights that
    sum to one; N_2 = t^4 + (1 - t^2)^2 (cos^4 phi + sin^4 phi) is even in
    t, so the half interval carries the full average."""
    t, wt = np.polynomial.legendre.leggauss(n_t)
    t = 0.5 * (t + 1.0)
    wt = 0.5 * wt
    phi = (np.arange(n_phi) + 0.5) * (0.5 * np.pi / n_phi)
    s2 = 1.0 - t * t
    ang = np.cos(phi) ** 4 + np.sin(phi) ** 4
    n2 = t[:, None] ** 4 + (s2 * s2)[:, None] * ang[None, :]
    return n2, wt / n_phi


def mean_m2(n_t: int = 200, n_phi: int = 64) -> float:
    """E[M_2] = E[-ln((1 + N_2) / 2)] for a Haar qubit, in nats."""
    n2, w = _sphere_nodes(n_t, n_phi)
    return float(w @ np.sum(-np.log((1.0 + n2) / 2.0), axis=1))


def characteristic_function(ks, n_t: int = 600, n_phi: int = 192) -> np.ndarray:
    """E[exp(i k N_2)] for a Haar qubit at each k (accurate for |k| <= 320)."""
    n2, w = _sphere_nodes(n_t, n_phi)
    return np.array([w @ np.sum(np.exp(1j * float(k) * n2), axis=1) for k in ks])


def m2_product_h(n_sites: int) -> float:
    """M_2 of |H>^{(x)n}; each |H> has N_2 = 1/2, so M_2 = n ln(4/3)."""
    return n_sites * math.log(4.0 / 3.0)
