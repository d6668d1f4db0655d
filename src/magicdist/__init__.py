"""Haar-measure distributions of stabilizer entropies for qubits and qudits.

The package computes non-stabilizerness measures of pure states (Pauli or
Weyl-Heisenberg moment N_alpha, stabilizer purity, stabilizer Renyi
entropy, incompatibility, coherence), reconstructs their densities under
the Haar measure exactly for one qubit at alpha = 2, samples them by
seeded Monte Carlo for registers up to ten qubits and single qudits up to
dimension sixteen, and quantifies the logarithmic divergence the exact
single-qubit density shows at its saddle value.
"""
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidBlochVector,
    InvalidDimension,
    InvalidEdges,
    InvalidObservable,
    InvalidOrder,
    InvalidSpectrum,
    MissingObservable,
    ResourceLimit,
    SingularPoint,
    SupportMismatch,
    SupportViolation,
    UseWeylPath,
)
from .statevec import (
    BlochVector,
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
from .pauli_spectrum import (
    MagicReport,
    PauliSpectrum,
    coherence_l1,
    displacement_operator,
    expectation,
    incompatibility,
    magic_report,
    measure_from_n,
    n_from_measure,
    pauli_spectrum_fast,
    pauli_spectrum_naive,
    weyl_spectrum,
)
from .haar_moments import haar_moments_n2
from .exact_pdf import (
    DIVERGENCE_SLOPE_N2,
    CriticalPoint,
    PdfCurve,
    characteristic_function_n2,
    critical_points,
    law,
    mean_sre_exact,
    n_critical,
    pdf_coherence,
    pdf_m,
    pdf_n2_exact,
    pdf_observable,
    pdf_xi,
    support_for,
    tabulate_pdf,
)
from .montecarlo import (
    DivergenceFit,
    GofReport,
    Histogram,
    bootstrap_slope_ci,
    build_histogram,
    fit_log_divergence,
    gof_compare,
    histogram_measure,
    measure_mean,
    sample_array,
    sample_measure,
    scan_divergence_center,
)
from .bessel import j0

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
