"""Write the byte-contract outputs of the CLI and print one sha256 per file.

    PYTHONPATH=src python tools/contract_digests.py OUTDIR

Every output is produced through ``magicdist.cli.main`` with a fixed seed,
so two checkouts can be compared by diffing what this script prints for
each (point PYTHONPATH at the other checkout's ``src``).  Each line reads
``<sha256> <exit code> <file>``; a command that writes no file prints
``-`` as its digest.  ``reproduce-figures`` contributes one line per file
of its output directory, manifest included.

Warnings do not reach the listing: each one goes to standard error as
``warning in <file>: <category>: <message>`` (the output directory for
``reproduce-figures``), and the script then exits 1.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

from magicdist import cli

H_STATE = "0.7071067811865475,0.7071067811865475,0"

# (output file, CLI arguments without -o)
SINGLE_FILE = [
    *[(f"exact_{v}.{fmt}", ["exact-pdf", "--variable", v, "--format", fmt])
      for v in ("N", "Xi", "M") for fmt in ("csv", "svg")],
    *[(f"exact_{v}_tol{tol}.csv", ["exact-pdf", "--variable", v, "--tol", tol])
      for v in ("N", "Xi", "M") for tol in ("0", "1")],
    *[(f"sample_{name}.{fmt}", ["sample", "--samples", "20000", "--bins", "50", "--seed", "3",
                                "--format", fmt, *extra])
      for fmt in ("csv", "svg")
      for name, extra in [
          ("n", ["--measure", "n"]),
          ("n_t2", ["--measure", "n", "--threads", "2"]),
          ("xi", ["--measure", "xi"]),
          ("m", ["--measure", "m"]),
          ("mlin", ["--measure", "mlin"]),
          ("m_alpha3", ["--measure", "m", "--alpha", "3"]),
          ("xi_alpha3", ["--measure", "xi", "--alpha", "3"]),
          ("mlin_alpha1.5", ["--measure", "mlin", "--alpha", "1.5"]),
          ("m_alpha1.5_q3", ["--measure", "m", "--alpha", "1.5", "--q", "3"]),
          ("n_q3", ["--measure", "n", "--q", "3"]),
          ("n_q4", ["--measure", "n", "--q", "4"]),
          ("n_sites2", ["--measure", "n", "--sites", "2"]),
          ("xi_sites2", ["--measure", "xi", "--sites", "2"]),
          ("n_sites3", ["--measure", "n", "--sites", "3"]),
          ("coherence", ["--measure", "coherence"]),
          ("coherence_sites2", ["--measure", "coherence", "--sites", "2"]),
          ("coherence_q3", ["--measure", "coherence", "--q", "3"]),
          ("observable", ["--measure", "observable"]),
          ("window", ["--measure", "n", "--window", "0.45,0.55"]),
      ]],
    ("exact_M_log_y.svg", ["exact-pdf", "--variable", "M", "--points", "200", "--log-y",
                           "--format", "svg"]),
    ("sample_overlay.svg", ["sample", "--measure", "m", "--samples", "20000", "--bins", "50",
                            "--seed", "3", "--overlay-exact", "--format", "svg"]),
    ("fit_mc.json", ["fit-divergence", "--samples", "1000000", "--window", "2e-4,2e-2",
                     "--bootstrap", "20", "--seed", "9"]),
    ("fit_exact.json", ["fit-divergence", "--exact", "--window", "1e-5,1e-3"]),
    ("exact_N_points1500.csv", ["exact-pdf", "--variable", "N", "--points", "1500"]),
    # a guard below the density's own: no file, only the exit code counts
    ("fit_exact_guard.json", ["fit-divergence", "--exact", "--window", "1e-12,1e-3"]),
    ("mean_sre_mc.json", ["mean-sre", "--mc", "100000", "--seed", "7"]),
    # odd sample counts: the last one-qubit chunk holds 1699, 3617 and 1 states
    ("mean_sre_mc_100003.json", ["mean-sre", "--mc", "100003", "--seed", "7"]),
    ("sample_n_20001.csv", ["sample", "--measure", "n", "--samples", "20001", "--bins", "50",
                            "--seed", "3"]),
    ("sample_n_4097.csv", ["sample", "--measure", "n", "--samples", "4097", "--bins", "50",
                           "--seed", "3"]),
    ("measure_h.json", ["measure", "--bloch", H_STATE]),
    ("measure_h_alpha3_bits.json", ["measure", "--bloch", H_STATE, "--alpha", "3", "--bits"]),
    ("measure_basis.json", ["measure", "--amplitudes", "1,0,0,0"]),
    # generic one-qubit states: every kernel gets |H> to the bit, these pin the last bits
    ("measure_one_qubit.json", ["measure", "--haar", "--dim", "2", "--seed", "5"]),
    ("measure_one_qubit_alpha3.json", ["measure", "--haar", "--dim", "2", "--seed", "5",
                                       "--alpha", "3"]),
    ("measure_bloch.json", ["measure", "--bloch", "0.6,0,0.8"]),
    ("measure_qutrit.json", ["measure", "--haar", "--dim", "3", "--local-dim", "3",
                             "--seed", "5"]),
    ("measure_two_qubits.json", ["measure", "--haar", "--dim", "4", "--seed", "5"]),
    # a ten-qubit spectrum spans many kernel blocks
    ("measure_ten_qubits.json", ["measure", "--haar", "--dim", "1024", "--seed", "5"]),
    ("measure_twelve_qubits.json", ["measure", "--haar", "--dim", "4096", "--seed", "5"]),
    # an order other than 2 takes the moment kernel's power sum, not einsum
    ("measure_six_qubits_alpha3.json", ["measure", "--haar", "--dim", "64", "--seed", "5",
                                        "--alpha", "3"]),
    ("sample_n_sites6.csv", ["sample", "--sites", "6", "--samples", "5000", "--seed", "3"]),
    ("critical_alpha2.json", ["critical-points", "--alpha", "2"]),
    ("critical_alpha4.json", ["critical-points", "--alpha", "4"]),
    # registers that are not one: no file, only the exit code counts
    ("sample_q1.csv", ["sample", "--q", "1"]),
    ("sample_q3_sites2.csv", ["sample", "--q", "3", "--sites", "2"]),
    ("sample_sites0.csv", ["sample", "--sites", "0"]),
    ("measure_local_dim0.json", ["measure", "--haar", "--dim", "4", "--local-dim", "0"]),
    # the linear entropy has an exact law (exact_pdf.law), so a curve and an overlay
    *[(f"exact_mlin.{fmt}", ["exact-pdf", "--variable", "mlin", "--format", fmt])
      for fmt in ("csv", "svg")],
    ("sample_overlay_mlin.svg", ["sample", "--measure", "mlin", "--samples", "20000",
                                 "--bins", "50", "--seed", "3", "--overlay-exact",
                                 "--format", "svg"]),
    # a measure the sampler knows without a closed-form law: no file, exit 3
    ("exact_coherence.csv", ["exact-pdf", "--variable", "coherence"]),
    ("sample_overlay_coherence.svg", ["sample", "--measure", "coherence", "--samples", "20000",
                                      "--overlay-exact", "--format", "svg"]),
    # the smallest bin count past the cap: no file, exit 4
    ("sample_bins_cap.csv", ["sample", "--bins", "1048577"]),
    # an alias of M takes the one name rule: the same bytes as exact_M.csv
    ("exact_m_alpha.csv", ["exact-pdf", "--variable", "m_alpha"]),
    # bins narrower than 1 / (largest float) and a non-finite scan: no file, exit 2
    ("sample_m_alpha1e308.csv", ["sample", "--measure", "m", "--alpha", "1e308",
                                 "--samples", "1000", "--bins", "4"]),
    ("fit_scan_nan.json", ["fit-divergence", "--scan", "nan"]),
    # an alias of M titles the plot by its canonical name: the same bytes as sample_m.svg
    ("sample_m_alias.svg", ["sample", "--samples", "20000", "--bins", "50", "--seed", "3",
                            "--format", "svg", "--measure", " M_ALPHA "]),
    # the exact mean alone, without a Monte Carlo part
    ("mean_sre.json", ["mean-sre"]),
    ("mean_sre_tol1e-12.json", ["mean-sre", "--tol", "1e-12"]),
]


def _run(argv, name: str, warned: list) -> int:
    """Exit code of one command; append (name, text) to ``warned`` per warning."""
    # only the files are compared; keep the console to the digest lines
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag or value this checkout lacks
            code = exc.code
    warned.extend((name, f"{w.category.__name__}: {w.message}") for w in caught)
    return code


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def contract_digests(outdir: Path, warned: list):
    """Yield (digest, exit code, file name relative to ``outdir``).

    Every warning a command raises is appended to ``warned`` as
    (file or directory name, text).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    for threads in ("1", "2"):
        figdir = outdir / f"figures_t{threads}"
        code = _run(["reproduce-figures", "--scale", "0.01", "--seed", "2024",
                     "--threads", threads, "--outdir", str(figdir)], figdir.name, warned)
        for path in sorted(figdir.iterdir()):
            yield _digest(path), code, f"{figdir.name}/{path.name}"
    for name, argv in SINGLE_FILE:
        path = outdir / name
        path.unlink(missing_ok=True)
        code = _run([*argv, "-o", str(path)], name, warned)
        yield _digest(path), code, name


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    warned = []
    for digest, code, name in contract_digests(Path(argv[0]), warned):
        print(f"{digest} {code} {name}", flush=True)
    for name, text in warned:
        print(f"warning in {name}: {text}", file=sys.stderr)
    return 1 if warned else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
