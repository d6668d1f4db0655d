"""The benchmark's own tests: references, tracer, and checks that reject
wrong answers.  Each workload runs one real unit, its check must pass, and
then a perturbed output must fail it.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for _path in (BENCH.parent / "src", BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import magicdist as md  # noqa: E402
from magicdist import montecarlo  # noqa: E402

import references as ref  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, _read_csv  # noqa: E402

SEED = 2026
pytestmark = pytest.mark.filterwarnings("ignore:.*outside the histogram range")


def run_unit(workload, out: Path):
    return {name: call() for name, call in workload.ops(out)}


def test_references():
    assert ref.mean_m2() == pytest.approx(0.22892114288710, abs=1e-13)
    assert ref.mean_m2(400, 128) == pytest.approx(ref.mean_m2(), abs=1e-14)
    assert ref.haar_mean_n2(2, 1) == pytest.approx(0.6, abs=1e-15)
    assert ref.haar_mean_n2(2, 6) == pytest.approx(3 * 63 / 67, abs=1e-15)
    assert ref.haar_mean_n2(3) == pytest.approx(0.8, abs=1e-15)
    assert ref.haar_mean_n2(4) == pytest.approx(37 / 35, abs=1e-15)
    ks = [0.0, 1.0, 50.0, 160.0, 320.0]
    coarse, fine = ref.characteristic_function(ks), ref.characteristic_function(ks, 900, 300)
    assert np.max(np.abs(coarse - fine)) < 1e-12
    assert coarse[0] == pytest.approx(1.0, abs=1e-14)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s",
                                                       "peak_rss_mib"}


def test_speed_probe_scales_to_nominal_speed():
    probe = SpeedProbe()
    probe.slice(0.0)  # one call of each kernel
    assert probe.mark() == 1
    probe.slice(0.0)
    nominal = NOMINAL_S["array"]
    probe.walls["array"][:] = [4 * nominal, 2 * nominal]
    probe.cpus["array"][:] = [nominal, nominal]
    assert probe.factors("array") == (pytest.approx(1 / 3), pytest.approx(1.0))
    assert probe.factors("array", since=1) == (pytest.approx(0.5), pytest.approx(1.0))


def test_tracer_counts_and_restores():
    originals = (montecarlo.haar_block, md.histogram_measure)
    edges = np.linspace(1 / 3, 1.0, 11)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):  # the second call repeats the first exactly
            montecarlo.histogram_measure("n", 2.0, 2, 1, 5000, 3, edges)
    finally:
        tracer.uninstall()
    assert (montecarlo.haar_block, md.histogram_measure) == originals
    m = tracer.layer_metrics()
    assert m["statevec.haar_block.states"] == 10000
    assert m["montecarlo.useful_state_ratio"] == 0.5
    assert m["montecarlo.histogram_measure.self_s"] > 0
    assert m["bessel.j0.calls"] == 0


@pytest.fixture(scope="module")
def units(tmp_path_factory):
    """One real unit of every workload, run once for all the tests below."""
    done = {}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED)
        out = tmp_path_factory.mktemp(name)
        done[name] = (workload, run_unit(workload, out), out)
    return done


def _rewrite_json(path: Path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_unit_passes(units, name):
    workload, results, out = units[name]
    assert workload.check(results, out) == []


def test_divergence_rejects_wrong_slope_and_mean(units, tmp_path):
    workload, results, out = units["divergence_q1"]

    def copy_outputs():
        bad = tmp_path / "outputs"
        bad.mkdir(exist_ok=True)
        for f in out.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        return bad

    fit = json.loads((out / "fit1.json").read_text())
    lo, hi = fit["bootstrap_ci_95"]
    shift = 5 * (hi - lo) / (2 * 1.96)  # five standard errors, CI moved along
    bad = copy_outputs()
    _rewrite_json(bad / "fit1.json", slope=fit["slope"] + shift,
                  bootstrap_ci_95=[lo + shift, hi + shift])
    problems = workload.check(results, bad)
    assert problems and all("divergence slope 1" in p for p in problems)

    mean = json.loads((out / "mean2.json").read_text())
    bad = copy_outputs()
    _rewrite_json(bad / "mean2.json",
                  mc_mean_nats=mean["mc_mean_nats"] + 6 * mean["mc_standard_error_nats"],
                  mean_m2_nats=mean["mean_m2_nats"] + 1e-7)
    problems = workload.check(results, bad)
    assert any("mc_mean_nats 2" in p for p in problems)
    assert any("mean_m2_nats 2" in p for p in problems)


def test_figures_rejects_shifted_histogram(units, tmp_path):
    workload, results, out = units["figures"]
    figdir = tmp_path / "figures"
    figdir.mkdir()
    for f in (out / "figures").iterdir():
        (figdir / f.name).write_bytes(f.read_bytes())
    # move the six-qubit histogram ten bins to the right, keep the files
    # consistent with each other so that only the mean can give it away
    n_samples = max(int(workload.standard["fig4_six_qubits"][3] * workload.scale), 1000)
    csv_path = figdir / "fig4_six_qubits.csv"
    text = csv_path.read_bytes().decode()
    lines = text.split("\r\n")
    head = [i for i, line in enumerate(lines) if line.startswith("bin_left")][0]
    rows = [line.split(",") for line in lines[head + 1:] if line]
    counts = np.roll([int(r[2]) for r in rows], 10)
    counts[:10] = 0
    counts[-1] += n_samples - counts.sum()
    for r, c in zip(rows, counts):
        width = float(r[1]) - float(r[0])
        r[2], r[3] = str(int(c)), format(c / (n_samples * width), ".17g")
    lines[head + 1:] = [",".join(r) for r in rows] + [""]
    csv_path.write_bytes("\r\n".join(lines).encode())
    svg = (figdir / "fig4_six_qubits.svg").read_bytes().decode()
    start, end = svg.index("<![CDATA[\n") + 10, svg.index("]]>")
    (figdir / "fig4_six_qubits.svg").write_bytes(
        (svg[:start] + csv_path.read_bytes().decode() + svg[end:]).encode())
    manifest = json.loads((figdir / "manifest.json").read_text())
    manifest["outputs"]["fig4_six_qubits"]["csv_sha256"] = hashlib.sha256(
        csv_path.read_bytes()).hexdigest()
    (figdir / "manifest.json").write_text(json.dumps(manifest))
    problems = workload.check(results, tmp_path)
    assert problems and all("fig4_six_qubits histogram mean" in p for p in problems)

    (figdir / "fig5_qutrit.csv").write_bytes(b"# tampered\r\n" +
                                             (figdir / "fig5_qutrit.csv").read_bytes())
    assert any("fig5_qutrit: manifest hash" in p for p in workload.check(results, tmp_path))


def test_exact_curves_rejects_wrong_outputs(units, tmp_path):
    workload, results, out = units["exact_curves"]
    for f in out.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    bad = dict(results)
    bad["chi(50)"] = results["chi(50)"] + 1e-7
    assert any("chi(k)" in p for p in workload.check(bad, tmp_path))

    _, rows = _read_csv(out / "N.csv")
    text = (out / "N.csv").read_bytes().decode().split("\r\n")
    body = [i for i, line in enumerate(text) if line.startswith("abscissa")][0]
    text[body + 1:] = [f"{float(x)!r},{1.01 * float(p)!r}" for x, p in rows] + [""]
    (tmp_path / "N.csv").write_bytes("\r\n".join(text).encode())
    _rewrite_json(tmp_path / "fit.json",
                  slope=json.loads((out / "fit.json").read_text())["slope"] + 2e-3)
    doc = json.loads((out / "critical.json").read_text())
    doc["points"] = doc["points"][1:]
    (tmp_path / "critical.json").write_text(json.dumps(doc))
    problems = workload.check(results, tmp_path)
    assert any("N curve integral" in p for p in problems)
    assert any("exact divergence slope" in p for p in problems)
    assert any("25 critical points" in p for p in problems)


def test_large_register_rejects_wrong_magic(units, tmp_path):
    workload, results, out = units["large_register"]
    for f in out.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    spectrum, report = results["product"]
    bad = dict(results)
    bad["product"] = (spectrum, dataclasses.replace(report, m_alpha=report.m_alpha + 1e-8))
    doc = json.loads((out / "haar10.json").read_text())
    n_alpha = doc["n_alpha"] + 0.2
    xi = (1 + n_alpha) / 1024
    _rewrite_json(tmp_path / "haar10.json", n_alpha=n_alpha, xi_alpha=xi,
                  m_alpha=-math.log(xi), m_lin=1 - xi)
    problems = workload.check(bad, tmp_path)
    assert any("product M_2" in p for p in problems)
    assert any("Haar N_2 at n=10" in p for p in problems)
    assert len(problems) == 2
