"""Bessel function of the first kind, order zero: scipy's ``j0``, even in y.

``exact_pdf`` takes J0 from here, and the benchmark's per-layer tracer
times it at ``magicdist.bessel.j0``.  scipy.special is imported on the
first call, so importing the package does not load it.
"""
from functools import lru_cache


@lru_cache(maxsize=1)
def _scipy_j0():
    # looked up once: chi(k) calls J0 per panel set, and an import statement
    # per call cost several microseconds there, more than a 32-node J0
    from scipy.special import j0

    return j0


def j0(y):
    """J0(y) for a number or an array, elementwise."""
    return _scipy_j0()(y)
