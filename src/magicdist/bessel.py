"""Bessel function of the first kind, order zero: scipy's ``j0``, even in y.

``exact_pdf`` takes J0 from here, and the benchmark's per-layer tracer
times it at ``magicdist.bessel.j0``.
"""
from scipy.special import j0  # noqa: F401
