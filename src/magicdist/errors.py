"""Exception types shared across the package."""
from __future__ import annotations


class InvalidDimension(ValueError):
    """Hilbert-space dimension outside the supported range."""


class DimensionMismatch(ValueError):
    """Operands live in incompatible Hilbert spaces."""


class InvalidBlochVector(ValueError):
    """Bloch vector is not on the unit sphere."""


class UseWeylPath(TypeError):
    """Qubit-only routine called on a qudit; use weyl_spectrum instead."""


class ResourceLimit(RuntimeError):
    """Requested size exceeds the memory/time guard."""


class InvalidOrder(ValueError):
    """Renyi order outside the admissible range."""


class InvalidObservable(ValueError):
    """Observable is not Hermitian within tolerance."""


class MissingObservable(ValueError):
    """No observable given where no default exists (only one qubit has one, Z)."""


class InvalidSpectrum(ValueError):
    """Observable eigenvalues are not ordered a1 < a2."""


class InvalidEdges(ValueError):
    """Histogram bin edges are not strictly increasing."""


class InsufficientData(RuntimeError):
    """Too few populated bins for the requested fit."""


class SupportMismatch(ValueError):
    """Histogram range and exact curve support disagree."""


class SupportViolation(RuntimeError):
    """Samples fell outside an exact support; indicates a bug upstream."""


class SingularPoint(ArithmeticError):
    """Density evaluated at (or within guard of) a divergent abscissa.

    Carries the local asymptotic model so callers can still plot:
    density ~ -log_slope * ln|x - location| + log_intercept.  For
    non-logarithmic divergences the model fields are None.
    """

    def __init__(self, location, log_slope=None, log_intercept=None):
        self.location = float(location)
        self.log_slope = log_slope
        self.log_intercept = log_intercept
        msg = f"density diverges at {self.location!r}"
        if log_slope is not None:
            msg += f" like {log_slope:.6f}*(-ln|x-c|) + {log_intercept:.6f}"
        super().__init__(msg)
