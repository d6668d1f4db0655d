"""Where the divergence goes when the Hilbert space grows.

For one qubit the density of N_2 blows up logarithmically at n_c = 1/2.
For two and six qubits, and for single qudits of dimension three and four
(using Weyl-Heisenberg displacements in place of Pauli strings), the same
histogram protocol produces a bounded, stable density: refining the bins
toward any point no longer grows the peak.
"""
import pathlib

import numpy as np

from magicdist import histogram_measure
from magicdist.svgplot import plot_svg

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

CASES = [
    ("two qubits", 2, 2, 200_000, (0.6, 3.0)),
    ("six qubits", 2, 6, 40_000, (2.3, 3.6)),
    ("qutrit", 3, 1, 400_000, (0.0, 2.0)),
    ("ququart", 4, 1, 400_000, (0.2, 2.9)),
]

series = []
for name, q, n_sites, n_samples, (lo, hi) in CASES:
    edges = np.linspace(lo, hi, 201)
    h = histogram_measure("n", 2.0, q, n_sites, n_samples, 11, edges)  # tails are counted
    print(f"{name:11s} ({n_samples} samples): mean N_2 = "
          f"{np.sum(h.centers() * h.counts) / h.counts.sum():.4f}, "
          f"peak density = {h.density().max():.3f}")
    fname = f"n2_density_{name.replace(' ', '_')}.svg"
    svg = plot_svg(
        [(h.edges, h.density(), "#3050b0", "step")],
        title=f"N_2 density, {name}",
        xlabel="n",
    )
    (out_dir / fname).write_text(svg)
    print(f"   wrote {out_dir / fname}")

print()
print("refinement check (doubling samples and log-spaced bins toward a point):")


def refined_max(q, n_sites, n_samples, center, bins_per_side, seed=13):
    eps = 0.1 * 1.4 ** -np.arange(bins_per_side, 0, -1.0)
    eps = np.append(eps, 0.1)
    edges = np.unique(np.concatenate([center - eps, center + eps]))
    h = histogram_measure("n", 2.0, q, n_sites, n_samples, seed, edges)
    return h.density().max()


for name, q, n_sites, n_samples, center in [
    ("one qubit (divergent)", 2, 1, 500_000, 0.5),
    ("two qubits (bounded) ", 2, 2, 500_000, 1.05),
    ("qutrit (bounded)     ", 3, 1, 500_000, 0.66),
]:
    m1 = refined_max(q, n_sites, n_samples, center, 8)
    m2 = refined_max(q, n_sites, 2 * n_samples, center, 16)
    print(f"   {name}: {m1:.3f} -> {m2:.3f}  ({(m2 - m1) / m1 * 100:+.1f}%)")
