"""Importing the package and running the common CLI paths loads no scipy.

Each check runs in a fresh interpreter, since this suite's own imports
(scipy included) would otherwise already be in ``sys.modules``.
"""
import json
import pathlib
import subprocess
import sys

import magicdist

SRC = str(pathlib.Path(magicdist.__file__).resolve().parents[1])

# the benchmark's set-up calls, then the common CLI paths
_PRELUDE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
import magicdist, magicdist.cli
magicdist.exact_pdf.n2_log_intercept()
magicdist.single_qubit_cliffords()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [magicdist.cli.main(argv) for argv in (
        ["exact-pdf", "--variable", "n", "--points", "100"],
        ["sample", "--samples", "5000"],
        ["measure", "--haar"],
        ["fit-divergence", "--exact"],
        ["mean-sre"],
        ["mean-sre", "--mc", "5000"],
    )]

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

report = {{"codes": codes, "before": scipy_modules()}}
"""


def _run(body: str) -> dict:
    code = _PRELUDE.format(src=SRC) + body + "\nprint(json.dumps(report))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_common_paths_load_no_scipy():
    report = _run("")
    assert report["codes"] == [0] * 6
    assert report["before"] == []


def test_mean_sre_loads_no_scipy():
    report = _run("""
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    report["code"] = magicdist.cli.main(["mean-sre"])
report["value"] = json.loads(buf.getvalue())["mean_m2_nats"]
report["after"] = scipy_modules()
""")
    assert report["code"] == 0
    # the correctly rounded double of the 40-digit value in test_exact_pdf.py
    assert report["value"] == 0.22892114288710577
    assert report["after"] == []


def test_characteristic_function_imports_scipy_special_when_called():
    report = _run("""
chi = magicdist.characteristic_function_n2(1e-4)
report["mean"] = (chi.imag / 1e-4, chi.real)
report["after"] = scipy_modules()
""")
    assert report["before"] == []
    # chi(k) = 1 + i k E[N_2] + O(k^2), and the Haar mean of N_2 is 3/5
    assert abs(report["mean"][0] - 0.6) < 1e-4
    assert abs(report["mean"][1] - 1.0) < 1e-8
    assert "scipy.special" in report["after"]


def test_nothing_loads_numpy_ma():
    # np.unique and np.quantile import numpy.ma on first use; the package
    # dedupes without the one and takes the bootstrap's quantiles without the
    # other, so not even the sampled fit loads it
    report = _run("""
import traceback
report["ma_before"] = "numpy.ma" in sys.modules
importers = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy.ma":
            importers.append([f.name for f in traceback.extract_stack()])

sys.meta_path.insert(0, Spy())
with contextlib.redirect_stdout(io.StringIO()):
    report["more"] = [magicdist.cli.main(argv) for argv in (
        ["sample", "--samples", "5000", "--overlay-exact"],
        ["fit-divergence", "--samples", "20000", "--bootstrap", "20"],
    )]
report["importers"] = importers
report["ma_after"] = "numpy.ma" in sys.modules
""")
    assert report["codes"] == [0] * 6
    assert report["more"] == [0, 0]
    assert report["ma_before"] is False
    assert report["importers"] == []
    assert report["ma_after"] is False
