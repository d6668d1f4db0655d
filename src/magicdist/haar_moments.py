"""Exact Haar mean and variance of N_2 for an n-qubit register.

For a Haar-random |psi> in C^d the k-fold average is the symmetric
projector over its dimension (Harrow, "The church of the symmetric
subspace", arXiv:1308.6595):

    E[|psi><psi|^(x)k] = sum over pi in S_k of W_pi / (d (d+1) ... (d+k-1)),

with W_pi permuting the k tensor factors.  The average of a product of
expectation values <A_1> ... <A_k> is therefore the sum over pi of the
product, over the cycles of pi, of the trace of the cycle's A's
multiplied in cycle order, divided by that rising factorial.

N_2 = sum over the d^2 - 1 nontrivial Pauli strings P of <P>^4.  A cycle
that holds p copies of P and q copies of another nontrivial string Q
traces to 0 unless p and q are both even, and then to +d if P and Q
commute and to (-1)^(number of Q before P pairs) d if they anticommute;
every such sum is a polynomial in d.  Of the d^2 - 2 nontrivial strings
other than P, d^2/2 - 2 commute with it and d^2/2 anticommute, so

    E[N_2]   = (d^2 - 1) E[<P>^4] = 3 (d - 1)/(d + 3),
    E[N_2^2] = (d^2 - 1) (E[<P>^8] + (d^2/2 - 2) E[<P>^4 <Q>^4]_comm
                          + (d^2/2) E[<P>^4 <Q>^4]_anti).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from numbers import Integral

from .errors import InvalidDimension
from .statevec import check_register


@lru_cache(maxsize=None)
def _cycle_polynomials(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients c_j of sum_j c_j d^j = sum over pi of the cycle-trace
    product for the operators ``word`` (0 = P, 1 = Q), once for commuting
    and once for anticommuting P and Q."""
    k = len(word)
    comm = [0] * (k + 1)
    anti = [0] * (k + 1)
    for perm in permutations(range(k)):
        seen = [False] * k
        cycles = parity = 0
        for start in range(k):
            if seen[start]:
                continue
            p = q = inversions = 0
            j = start
            while not seen[j]:
                seen[j] = True
                if word[j]:
                    q += 1
                else:
                    p += 1
                    inversions += q
                j = perm[j]
            if p % 2 or q % 2:
                break  # the cycle's product is a nontrivial string: trace 0
            cycles += 1
            parity ^= inversions & 1
        else:
            comm[cycles] += 1
            anti[cycles] += -1 if parity else 1
    return tuple(comm), tuple(anti)


def _haar_average(coeffs, d: int) -> Fraction:
    """sum_j c_j d^j over the rising factorial d (d+1) ... (d+k-1)."""
    rising = 1
    for i in range(len(coeffs) - 1):
        rising *= d + i
    return Fraction(sum(c * d**j for j, c in enumerate(coeffs)), rising)


def haar_moments_n2(n_sites: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of N_2 over Haar-random n-qubit states."""
    if isinstance(n_sites, bool) or not isinstance(n_sites, Integral):
        raise InvalidDimension(f"n_sites must be an integer, got {n_sites!r}")
    check_register(2, n_sites)
    d = 2 ** int(n_sites)
    fourth, _ = _cycle_polynomials((0,) * 4)
    eighth, _ = _cycle_polynomials((0,) * 8)
    comm, anti = _cycle_polynomials((0,) * 4 + (1,) * 4)
    mean = (d * d - 1) * _haar_average(fourth, d)
    second = (d * d - 1) * (_haar_average(eighth, d)
                            + (d * d // 2 - 2) * _haar_average(comm, d)
                            + (d * d // 2) * _haar_average(anti, d))
    return mean, second - mean * mean
