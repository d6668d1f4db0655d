"""Every demo script runs to the end with warnings as errors, and the plots
it writes equal, byte for byte, the copies tracked in ``demos/output/``.

Each script is copied into a temporary directory first, so the plots it
writes next to itself land there and not in ``demos/output/``.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRACKED = ROOT / "demos" / "output"
# the plots each demo writes into output/ next to itself
PLOTS = {
    "02_exact_density_and_divergence.py": {"exact_density_n2.svg", "exact_density_m2.svg"},
    "03_monte_carlo_versus_exact.py": {"mc_vs_exact_n2.svg"},
    "04_beyond_one_qubit.py": {f"n2_density_{name}.svg" for name in
                               ("two_qubits", "six_qubits", "qutrit", "ququart")},
}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    written = {p.name: p.read_bytes() for p in (tmp_path / "output").glob("*")}
    assert set(written) == PLOTS.get(demo.name, set())
    for name, content in written.items():
        assert content == (TRACKED / name).read_bytes(), name


def test_the_tracked_plots_are_those_the_demos_write():
    assert {p.name for p in TRACKED.iterdir()} == set().union(*PLOTS.values())
    assert set(PLOTS) <= {p.name for p in DEMOS}
