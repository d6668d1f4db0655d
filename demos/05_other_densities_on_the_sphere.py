"""Not every quantity on the Bloch sphere inherits the log divergence.

The magic density blows up logarithmically because its level sets pass
through saddle points.  Two other natural single-qubit quantities behave
differently under the same Haar sampling: an observable expectation is
exactly uniform between its eigenvalues (the sphere measure absorbs the
would-be edge singularities), while the l1 coherence ends in a
square-root divergence at its maximum.  The characteristic function of
N_2 closes the loop: Fourier-inverting it reproduces the exact density.
"""
import numpy as np

from magicdist import (
    build_histogram,
    characteristic_function_n2,
    pdf_coherence,
    pdf_n2_exact,
    pdf_observable,
    sample_array,
)

# --- observable expectation: uniform on [a1, a2] ------------------------
vals = sample_array("observable", 2.0, 2, 1, 400_000, seed=17)  # A = Z
h = build_histogram(vals, np.linspace(-1.0, 1.0, 21))
print("observable <Z>: empirical vs uniform density (0.5):")
dens = h.density()
print("   min bin density", f"{dens.min():.4f}", " max", f"{dens.max():.4f}",
      " model", pdf_observable(0.0, -1.0, 1.0))

# --- coherence: c / sqrt(1 - c^2), diverging at c = 1 --------------------
vals = sample_array("coherence", 2.0, 2, 1, 400_000, seed=18)
edges = np.linspace(0.0, 1.0, 26)
h = build_histogram(vals, edges)
print("\ncoherence density, empirical vs c/sqrt(1-c^2):")
for i in (2, 12, 20, 23):
    c = float(h.centers()[i])
    print(f"   c={c:.3f}:  {h.density()[i]:.3f}  vs  {pdf_coherence(c):.3f}")
print("   (the last bins keep growing: square-root blow-up at c = 1)")

# --- characteristic function of N_2 --------------------------------------
print("\ncharacteristic function chi(k) = E[exp(i k N_2)]:")
for k in (0.0, 1.0, 5.0):
    chi = characteristic_function_n2(k)
    print(f"   chi({k:g}) = {chi.real:+.6f} {chi.imag:+.6f}i")

vals = sample_array("n", 2.0, 2, 1, 1_000_000, seed=19)
mc = np.exp(1j * 5.0 * vals).mean()
print(f"   Monte Carlo check at k=5: {mc.real:+.6f} {mc.imag:+.6f}i")

k_grid = np.linspace(0.0, 320.0, 1281)
chi = characteristic_function_n2(k_grid, tol=1e-9)
taper = np.ones_like(k_grid)
tail = k_grid > 240.0
taper[tail] = 0.5 * (1 + np.cos(np.pi * (k_grid[tail] - 240.0) / 80.0))
chi *= taper
print("\nFourier inversion of chi vs the exact density:")
for n in (0.42, 0.64, 0.82):
    val = np.trapezoid((chi * np.exp(-1j * k_grid * n)).real, k_grid) / np.pi
    print(f"   n={n:.2f}:  inverted {val:.4f}  vs exact {pdf_n2_exact(n):.4f}")
