"""The benchmark's workloads: fixed units of work and their checks.

A workload turns the benchmark seed into program inputs once, then runs
the same unit of work as often as the run lasts.  A unit is a list of
operations, each one CLI invocation through ``magicdist.cli.main`` or one
public library call; outputs go to a fresh directory per unit.  After the
unit, ``check`` compares every output with ``references`` (never with a
stored copy of earlier output) and returns the problems it finds.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import magicdist as md
from magicdist import cli

import references as ref

Z95 = 1.959963984540054  # two-sided 95% normal quantile


class OpFailed(RuntimeError):
    """A CLI invocation exited with a nonzero code."""


def _cli(argv):
    def call():
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise OpFailed(f"magicdist {' '.join(map(str, argv))} exited with {code}")
    return call


def _program_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, tag]).integers(0, 2**31, count)]


def _read_csv(path: Path):
    """(comment dict, data rows as floats) of a magicdist CSV file."""
    text = path.read_bytes().decode()
    meta = {}
    body = []
    for line in text.split("\r\n"):
        if line.startswith("# "):
            for item in line[2:].split(" "):
                key, _, value = item.partition("=")
                meta[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, np.array(rows[1:], dtype=float)  # rows[0] is the header


def _svg_table(path: Path) -> str:
    """The data table an SVG plot carries in its <metadata> element."""
    meta = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}metadata")
    return "" if meta is None else (meta.text or "").strip()


def _same_table(csv_path: Path, svg_path: Path) -> bool:
    # XML parsing folds CRLF to LF
    return _svg_table(svg_path) == csv_path.read_bytes().decode().replace("\r\n", "\n").strip()


def _near(problems, label, value, target, tol):
    if not abs(value - target) <= tol:
        problems.append(f"{label}: {value!r} differs from {target!r} by more than {tol:g}")


class DivergenceQ1:
    """fit-divergence (geometric bins, bootstrap CI) and mean-sre --mc, one
    qubit; each command runs ``calls`` times on its own seeds, so that every
    timed operation is short."""

    name = "divergence_q1"
    reference = "array"  # the kind of work its time goes to (see speed.py)
    calls = 4
    samples = 1_000_000
    window = "2e-4,2e-2"
    bootstrap = 100
    mc_samples = 1_000_000

    def __init__(self, seed: int):
        seeds = _program_seeds(seed, 1, 2 * self.calls)
        self.fit_seeds, self.mc_seeds = seeds[:self.calls], seeds[self.calls:]
        self.mean_m2 = ref.mean_m2()

    def ops(self, out: Path):
        ops = []
        for i, s in enumerate(self.fit_seeds):
            ops.append((f"fit-divergence {i}", _cli(
                ["fit-divergence", "--samples", self.samples, "--window", self.window,
                 "--bootstrap", self.bootstrap, "--seed", s, "--threads", 1,
                 "-o", out / f"fit{i}.json"])))
        for i, s in enumerate(self.mc_seeds):
            ops.append((f"mean-sre {i}", _cli(
                ["mean-sre", "--mc", self.mc_samples, "--seed", s, "--threads", 1,
                 "-o", out / f"mean{i}.json"])))
        return ops

    def check(self, results, out: Path) -> list[str]:
        problems = []
        for i, seed in enumerate(self.fit_seeds):
            if f"fit-divergence {i}" not in results:
                continue
            fit = json.loads((out / f"fit{i}.json").read_text())
            lo, hi = fit["bootstrap_ci_95"]
            se = (hi - lo) / (2 * Z95)
            if not (lo < fit["slope"] < hi and se > 0):
                problems.append(f"slope {fit['slope']} outside its own CI {lo, hi}")
            _near(problems, f"divergence slope {i}", fit["slope"], ref.DIVERGENCE_SLOPE, 4 * se)
            if (fit["n_samples"], fit["seed"]) != (self.samples, seed):
                problems.append("fit-divergence reports other samples or seed than requested")
        for i in range(self.calls):
            if f"mean-sre {i}" not in results:
                continue
            mean = json.loads((out / f"mean{i}.json").read_text())
            _near(problems, f"mean_m2_nats {i}", mean["mean_m2_nats"], self.mean_m2, 1e-8)
            _near(problems, f"mc_mean_nats {i}", mean["mc_mean_nats"], self.mean_m2,
                  5 * mean["mc_standard_error_nats"])
            if mean["mc_samples"] != self.mc_samples:
                problems.append("mean-sre reports another sample count than requested")
        return problems


class Figures:
    """reproduce-figures at a reduced scale into a fresh directory."""

    name = "figures"
    reference = "array"  # the kind of work its time goes to (see speed.py)
    scale = 0.01
    # the standard pipelines: measure, local dimension, sites, samples at scale 1
    standard = {
        "fig1_m2_density": ("m", 2, 1, 10_000_000),
        "fig2_n2_density": ("n", 2, 1, 10_000_000),
        "fig4_two_qubits": ("n", 2, 2, 200_000),
        "fig4_six_qubits": ("n", 2, 6, 200_000),
        "fig5_qutrit": ("n", 3, 1, 400_000),
        "fig5_ququart": ("n", 4, 1, 400_000),
    }

    def __init__(self, seed: int):
        (self.seed,) = _program_seeds(seed, 2, 1)
        mean_m2 = ref.mean_m2()
        self.means = {
            name: mean_m2 if measure == "m" else ref.haar_mean_n2(q, sites)
            for name, (measure, q, sites, _) in self.standard.items()
        }

    def ops(self, out: Path):
        return [("reproduce-figures", _cli(["reproduce-figures", "--scale", self.scale,
                                            "--outdir", out / "figures", "--seed", self.seed,
                                            "--threads", 1]))]

    def check(self, results, out: Path) -> list[str]:
        if "reproduce-figures" not in results:
            return []
        problems = []
        figdir = out / "figures"
        manifest = json.loads((figdir / "manifest.json").read_text())
        if sorted(manifest["outputs"]) != sorted(self.standard):
            problems.append(f"manifest lists {sorted(manifest['outputs'])}")
            return problems
        for name, (measure, q, sites, samples) in self.standard.items():
            entry = manifest["outputs"][name]
            n_samples = max(int(samples * self.scale), 1000)
            csv_path = figdir / entry["csv"]
            if entry["n_samples"] != n_samples:
                problems.append(f"{name}: manifest n_samples {entry['n_samples']} != {n_samples}")
            if hashlib.sha256(csv_path.read_bytes()).hexdigest() != entry["csv_sha256"]:
                problems.append(f"{name}: manifest hash does not match the CSV")
            if not _same_table(csv_path, figdir / entry["svg"]):
                problems.append(f"{name}: SVG data table differs from the CSV")
            meta, rows = _read_csv(csv_path)
            if (meta["measure"], int(meta["q"]), int(meta["n_sites"])) != (measure, q, sites):
                problems.append(f"{name}: CSV describes another measure")
            left, right, counts, density = rows.T
            total = counts.sum()
            if total + int(meta["out_of_range"]) != n_samples:
                problems.append(f"{name}: counts {total:.0f} + out of range "
                                f"{meta['out_of_range']} != {n_samples}")
            width = right - left
            if np.max(np.abs(density * n_samples * width - counts)) > 1e-6 * max(counts.max(), 1):
                problems.append(f"{name}: densities disagree with counts")
            centers = 0.5 * (left + right)
            mean = float(counts @ centers / total)
            se = math.sqrt(float(counts @ (centers - mean) ** 2) / total / total)
            _near(problems, f"{name} histogram mean", mean, self.means[name],
                  5 * se + 0.5 * float(width.max()))
        return problems


class ExactCurves:
    """Closed-form densities, exact fit, mean, critical points and chi(k)."""

    name = "exact_curves"
    reference = "interpreter"  # the kind of work its time goes to (see speed.py)
    points = 1500
    k_grid = np.arange(0.0, 161.0, 2.0)  # step below pi: no aliasing on [1/3, 1]
    inversion_tol = 0.08  # truncation at k = 160 with a Hann taper, on [0.58, 0.93]

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.inversion_points = np.sort(rng.uniform(0.58, 0.93, 8))
        self.mean_m2 = ref.mean_m2()
        self.chi_ref = ref.characteristic_function(self.k_grid)
        # support and Haar mean of each curve's variable
        self.curves = {
            "N": ((1 / 3, 1.0), ref.haar_mean_n2(2, 1)),
            "Xi": ((2 / 3, 1.0), (1.0 + ref.haar_mean_n2(2, 1)) / 2.0),
            "M": ((0.0, math.log(1.5)), self.mean_m2),
        }

    def ops(self, out: Path):
        ops = []
        for var in self.curves:
            for fmt in ("csv", "svg"):
                ops.append((f"exact-pdf {var} {fmt}", _cli(
                    ["exact-pdf", "--variable", var, "--points", self.points,
                     "--format", fmt, "-o", out / f"{var}.{fmt}"])))
        ops += [
            ("fit-divergence --exact", _cli(["fit-divergence", "--exact", "--threads", 1,
                                             "-o", out / "fit.json"])),
            ("mean-sre", _cli(["mean-sre", "--threads", 1, "-o", out / "mean.json"])),
            ("critical-points", _cli(["critical-points", "-o", out / "critical.json"])),
        ]
        for k in self.k_grid:
            ops.append((f"chi({k:g})", lambda k=float(k): md.characteristic_function_n2(k)))
        return ops

    def invert(self, chi: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Density from chi on the k grid: Hann taper on the last quarter."""
        k = self.k_grid
        kmax = k[-1]
        taper = np.where(k > 0.75 * kmax,
                         0.5 * (1 + np.cos(np.pi * (k - 0.75 * kmax) / (0.25 * kmax))), 1.0)
        phase = np.exp(-1j * np.outer(n, k))
        return np.trapezoid((phase * (chi * taper)).real, k, axis=1) / np.pi

    def check(self, results, out: Path) -> list[str]:
        problems = []
        tables = {}
        for var, ((lo, hi), mean) in self.curves.items():
            if f"exact-pdf {var} csv" not in results:
                continue
            _, rows = _read_csv(out / f"{var}.csv")
            x, p = rows.T
            tables[var] = (x, p)
            if x.min() < lo - 1e-12 or x.max() > hi + 1e-12:
                problems.append(f"{var} curve leaves its support")
            _near(problems, f"{var} curve integral", float(np.trapezoid(p, x)), 1.0, 1e-3)
            _near(problems, f"{var} curve mean", float(np.trapezoid(x * p, x)), mean, 1e-3)
            if f"exact-pdf {var} svg" in results and not _same_table(
                    out / f"{var}.csv", out / f"{var}.svg"):
                problems.append(f"{var}: SVG data table differs from the CSV")
        if "fit-divergence --exact" in results:
            fit = json.loads((out / "fit.json").read_text())
            _near(problems, "exact divergence slope", fit["slope"], ref.DIVERGENCE_SLOPE, 1e-3)
        if "mean-sre" in results:
            mean = json.loads((out / "mean.json").read_text())
            _near(problems, "mean_m2_nats", mean["mean_m2_nats"], self.mean_m2, 1e-8)
        if "critical-points" in results:
            problems += self._check_critical(json.loads((out / "critical.json").read_text()))
        chi = [results.get(f"chi({k:g})") for k in self.k_grid]
        if all(c is not None for c in chi):
            chi = np.array(chi, dtype=complex)
            dev = np.abs(chi - self.chi_ref)
            if not dev.max() <= 1e-8:
                problems.append(f"chi(k) off the sphere quadrature by {dev.max():.3g} at "
                                f"k={self.k_grid[int(dev.argmax())]:g}")
            if "N" in tables:
                x, p = tables["N"]
                inv = self.invert(chi, self.inversion_points)
                curve = np.interp(self.inversion_points, x, p)
                worst = float(np.max(np.abs(inv - curve)))
                if not worst <= self.inversion_tol:
                    problems.append(f"Fourier inversion of chi is off the N curve by {worst:.3g}")
        return problems

    @staticmethod
    def _check_critical(doc) -> list[str]:
        problems = []
        expected = {"C1_max": (6, 1.0), "C2_saddle": (12, 0.5), "C3_min": (8, 1 / 3)}
        points = doc["points"]
        if len(points) != 26:
            problems.append(f"{len(points)} critical points, expected 26")
        for label, (count, value) in expected.items():
            members = [p for p in points if p["class"] == label]
            if len(members) != count:
                problems.append(f"{len(members)} points of class {label}, expected {count}")
            for p in members:
                b = np.array(p["bloch"])
                _near(problems, f"{label} |n|", float(np.linalg.norm(b)), 1.0, 1e-12)
                _near(problems, f"{label} N_2 from its Bloch vector", float(np.sum(b**4)),
                      value, 1e-12)
                _near(problems, f"{label} value", p["value"], value, 1e-12)
        return problems


class LargeRegister:
    """Single states of 10-12 qubits: Haar states through the CLI, product
    and stabilizer states through pauli_spectrum_fast + magic_report."""

    name = "large_register"
    reference = "array"  # the kind of work its time goes to (see speed.py)
    haar_sites = (10, 11, 12)
    product_sites = 11
    stabilizer_sites = 10

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.haar_seeds = [int(s) for s in rng.integers(0, 2**31, len(self.haar_sites))]
        self.states = {
            "product": md.state_from_amplitudes(self._h_product(rng, self.product_sites)),
            "ghz": md.state_from_amplitudes(self._ghz(rng, self.stabilizer_sites)),
            "basis": md.state_from_amplitudes(self._basis(rng, self.stabilizer_sites)),
        }
        self.expected_m2 = {"product": ref.m2_product_h(self.product_sites),
                            "ghz": 0.0, "basis": 0.0}

    @staticmethod
    def _h_product(rng, n):
        """A tensor product of states drawn from the 12 H-type states, each
        with Bloch vector (+-1, +-1, 0)/sqrt(2) up to a permutation of axes."""
        amps = np.ones(1, dtype=complex)
        for _ in range(n):
            bloch = np.zeros(3)
            axes = rng.choice(3, size=2, replace=False)
            bloch[axes] = rng.choice([-1.0, 1.0], size=2) / math.sqrt(2.0)
            theta = math.acos(bloch[2])
            phi = math.atan2(bloch[1], bloch[0])
            site = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
            amps = np.kron(amps, site)
        return amps

    @staticmethod
    def _ghz(rng, n):
        """(|x> + e^{i pi k/2} |x XOR 1...1>)/sqrt(2) for a random string x."""
        d = 2**n
        x = int(rng.integers(d))
        amps = np.zeros(d, dtype=complex)
        amps[x] = 1 / math.sqrt(2.0)
        amps[x ^ (d - 1)] = 1j ** int(rng.integers(4)) / math.sqrt(2.0)
        return amps

    @staticmethod
    def _basis(rng, n):
        amps = np.zeros(2**n, dtype=complex)
        amps[int(rng.integers(2**n))] = 1.0
        return amps

    def ops(self, out: Path):
        ops = [
            (f"measure --haar n={n}", _cli(["measure", "--haar", "--dim", 2**n, "--seed", s,
                                            "--threads", 1, "-o", out / f"haar{n}.json"]))
            for n, s in zip(self.haar_sites, self.haar_seeds)
        ]
        for label, state in self.states.items():
            ops.append((label, lambda state=state: self._magic(state)))
        return ops

    @staticmethod
    def _magic(state):
        spectrum = md.pauli_spectrum_fast(state)
        return spectrum, md.magic_report(spectrum, 2.0, state=state)

    def largest_state(self):
        """The state of the most expensive single spectrum in the unit."""
        n = max(self.haar_sites)
        return md.haar_sample(2**n, md.SeededRng(self.haar_seeds[-1]))

    def check(self, results, out: Path) -> list[str]:
        problems = []
        for n in self.haar_sites:
            if f"measure --haar n={n}" not in results:
                continue
            doc = json.loads((out / f"haar{n}.json").read_text())
            d = 2**n
            if doc["dim"] != d:
                problems.append(f"measure --haar n={n} reports dim {doc['dim']}")
            _near(problems, f"Haar N_2 at n={n}", doc["n_alpha"], ref.haar_mean_n2(2, n), 0.1)
            xi = (1.0 + doc["n_alpha"]) / d
            _near(problems, f"xi at n={n}", doc["xi_alpha"], xi, 1e-12 * xi)
            _near(problems, f"M_2 at n={n}", doc["m_alpha"], -math.log(xi), 1e-12)
            _near(problems, f"M_lin at n={n}", doc["m_lin"], 1.0 - xi, 1e-12)
        for label, state in self.states.items():
            if label not in results:
                continue
            spectrum, report = results[label]
            values = spectrum.values
            _near(problems, f"{label} spectrum sum", float(values.sum()), state.dim - 1, 1e-8)
            _near(problems, f"{label} M_2", report.m_alpha, self.expected_m2[label], 1e-9)
        return problems


WORKLOADS = {w.name: w for w in (DivergenceQ1, Figures, ExactCurves, LargeRegister)}
