import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from magicdist import cli, exact_pdf, montecarlo, pauli_spectrum, statevec, svgplot
from magicdist.cli import main
from magicdist.errors import SupportViolation
from magicdist.pauli_spectrum import magic_report, pauli_moment_batch, pauli_spectrum_fast
from magicdist.pauli_spectrum import weyl_moment_batch, weyl_spectrum


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMeasure:
    def test_h_state_bloch(self, capsys):
        code, out = run_cli(
            capsys, "measure",
            "--bloch", "0.7071067811865475,0.7071067811865475,0", "--alpha", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "magicdist/1"
        assert doc["n_alpha"] == 0.5  # the one-qubit kernel is pinned bit for bit
        assert doc["m_alpha"] == pytest.approx(0.287682, abs=1e-6)
        assert doc["xi_alpha"] == pytest.approx(0.75, abs=1e-12)
        assert doc["gamma_alpha"] == pytest.approx(3.0, abs=1e-12)

    def test_basis_state_amplitudes(self, capsys):
        code, out = run_cli(capsys, "measure", "--amplitudes", "1,0,0,0", "--alpha", "2")
        assert code == 0
        assert json.loads(out)["m_alpha"] == pytest.approx(0.0, abs=1e-12)

    def test_t_state(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--bloch", "0.57735026919,0.57735026919,0.57735026919",
            "--alpha", "2",
        )
        assert code == 0
        assert json.loads(out)["xi_alpha"] == pytest.approx(2 / 3, abs=1e-9)

    def test_bits_toggle(self, capsys):
        args = ["measure", "--bloch", "0.7071067811865475,0.7071067811865475,0"]
        _, nats = run_cli(capsys, *args)
        _, bits = run_cli(capsys, *args, "--bits")
        ratio = json.loads(nats)["m_alpha"] / json.loads(bits)["m_alpha"]
        assert ratio == pytest.approx(math.log(2.0), abs=1e-12)

    def test_malformed_state_exit_2(self, capsys):
        assert main(["measure", "--bloch", "1,2"]) == 2
        assert main(["measure", "--bloch", "0.9,0.9,0.9"]) == 2
        assert main(["measure"]) == 2

    def test_haar_qudit(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--haar", "--dim", "3", "--local-dim", "3", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert doc["gamma_alpha"] is None

    @pytest.mark.parametrize("dim, local_dim, kernel", [
        (4, 2, pauli_moment_batch), (64, 2, pauli_moment_batch), (1024, 2, pauli_moment_batch),
        (3, 3, weyl_moment_batch), (16, 16, weyl_moment_batch),
    ])
    def test_haar_n_alpha_is_the_batch_kernel(self, capsys, dim, local_dim, kernel):
        code, out = run_cli(capsys, "measure", "--haar", "--dim", str(dim),
                            "--local-dim", str(local_dim), "--seed", "17")
        assert code == 0
        s = statevec.haar_sample(dim, statevec.SeededRng(17), local_dim=local_dim)
        assert json.loads(out)["n_alpha"] == float(kernel(s.amplitudes[None, :], 2.0)[0])

    @pytest.mark.parametrize("dim, local_dim", [
        (2, 2), (4, 2), (64, 2), (1024, 2), (3, 3), (16, 16),
    ])
    def test_n_alpha_is_the_samplers(self, capsys, dim, local_dim):
        # measure and the sampler reduce the same seeded state to the same bits
        _, n_sites = statevec.register_shape(dim, local_dim)
        for seed in (0, 1, 5):
            for alpha in (1.5, 2.0, 3.0, 40.0):
                code, out = run_cli(capsys, "measure", "--haar", "--dim", str(dim),
                                    "--local-dim", str(local_dim), "--seed", str(seed),
                                    "--alpha", str(alpha))
                assert code == 0
                sampled = montecarlo.sample_array("n", alpha, local_dim, n_sites, 1, seed)
                assert json.loads(out)["n_alpha"] == float(sampled[0])

    @pytest.mark.parametrize("local_dim, sizes", [(2, range(1, 13)), (3, [3]), (16, [16])])
    def test_agrees_with_the_full_spectrum(self, capsys, local_dim, sizes):
        # the moment kernel against the report of every d^2 value
        for n_or_q in sizes:
            dim = 2**n_or_q if local_dim == 2 else n_or_q
            s = statevec.haar_sample(dim, statevec.SeededRng(n_or_q), local_dim=local_dim)
            spec = pauli_spectrum_fast(s) if local_dim == 2 else weyl_spectrum(s)
            for alpha in (1.5, 2.0, 3.0):
                code, out = run_cli(capsys, "measure", "--haar", "--dim", str(dim),
                                    "--local-dim", str(local_dim), "--seed", str(n_or_q),
                                    "--alpha", str(alpha))
                assert code == 0
                doc = json.loads(out)
                report = magic_report(spec, alpha, state=s)
                n_ref = report.n_alpha
                assert abs(doc["n_alpha"] - n_ref) <= 1e-13 * n_ref
                for key in ("xi_alpha", "m_alpha", "m_lin"):
                    assert doc[key] == pytest.approx(getattr(report, key), rel=1e-13, abs=0)
                # read by one formula on both routes, so bit for bit
                assert doc["gamma_alpha"] == report.gamma_alpha
                assert doc["coherence"] == report.coherence

    @pytest.mark.parametrize("source, alpha", [
        (["--bloch", "0.57735026919,0.57735026919,0.57735026919"], 40.0),
        (["--haar", "--dim", "1024", "--seed", "9"], 8.0),
    ])
    def test_small_n_alpha_keeps_its_relative_precision(self, capsys, source, alpha):
        # N_40 of the T state is 3^-39 ~ 2.5e-19 and N_8 of this ten-qubit Haar
        # state 1.5e-12: far below the identity's term of 1, which the kernel
        # must leave out rather than subtract
        code, out = run_cli(capsys, "measure", *source, "--alpha", str(alpha))
        assert code == 0
        n_alpha = json.loads(out)["n_alpha"]
        if source[0] == "--bloch":
            s = statevec.from_bloch(statevec.BlochVector(*[0.57735026919] * 3))
        else:
            s = statevec.haar_sample(1024, statevec.SeededRng(9))
        n_ref = magic_report(pauli_spectrum_fast(s), alpha).n_alpha
        assert n_alpha > 0
        assert abs(n_alpha - n_ref) <= 1e-13 * n_ref

    def test_twelve_qubits_hold_no_d2_array(self, tmp_path):
        # a 12-qubit spectrum is 128 MiB; the kernel's blocks take about 7
        out = tmp_path / "measure.json"
        tracemalloc.start()
        try:
            code = main(["measure", "--haar", "--dim", "4096", "--seed", "5", "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20
        assert json.loads(out.read_text())["dim"] == 4096


class TestExactPdf:
    def test_csv_contents(self, capsys):
        code, out = run_cli(
            capsys, "exact-pdf", "--variable", "N", "--points", "120", "--tol", "1e-8"
        )
        assert code == 0
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("integral=" in c for c in comments)
        integral = float(next(c for c in comments if "integral=" in c).split("=")[1])
        assert integral == pytest.approx(1.0, abs=1e-3)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "abscissa,density"

    def test_pass_through_value(self, capsys, tmp_path):
        from magicdist import pdf_n2_exact

        path = tmp_path / "n.csv"
        code, _ = run_cli(
            capsys, "exact-pdf", "--variable", "N", "--points", "80",
            "--tol", "1e-8", "--output", str(path),
        )
        assert code == 0
        rows = [
            l.split(",") for l in path.read_text().splitlines() if not l.startswith("#")
        ][1:]
        grid = {float(a): float(d) for a, d in rows}
        n0 = min(grid, key=lambda v: abs(v - 0.34))
        assert grid[n0] == pytest.approx(pdf_n2_exact(n0, tol=1e-8), abs=1e-7)

    def test_unsupported_alpha_exit_3(self, capsys):
        assert main(["exact-pdf", "--variable", "N", "--alpha", "3"]) == 3

    def test_unsupported_alpha_is_named_as_given(self, capsys):
        assert main(["exact-pdf", "--variable", "m", "--alpha", "2.0000000001"]) == 3
        assert capsys.readouterr().err == (
            "unsupported parameter: no closed-form m density at alpha = 2.0000000001\n")

    def test_unknown_variable_lists_the_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact-pdf", "--variable", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown measure 'bogus'" in err
        assert all(repr(name) in err for name in pauli_spectrum.MEASURES)

    def test_svg_contains_data_table(self, capsys, tmp_path):
        path = tmp_path / "m.svg"
        code, _ = run_cli(
            capsys, "exact-pdf", "--variable", "M", "--points", "80",
            "--format", "svg", "--output", str(path),
        )
        assert code == 0
        body = path.read_text()
        assert body.startswith("<svg")
        assert "abscissa,density" in body
        assert "polyline" in body

    @pytest.mark.parametrize("variable", ["N", "Xi", "M"])
    @pytest.mark.parametrize("tol", ["0", "1"])
    def test_tol_out_of_range_exit_2(self, capsys, tmp_path, variable, tol):
        path = tmp_path / "curve.csv"
        code = main(["exact-pdf", "--variable", variable, "--tol", tol, "-o", str(path)])
        assert code == 2
        assert "tol must lie" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("points, code", [("0", 2), ("1", 2), ("2", 0)])
    def test_points_below_two_exit_2(self, capsys, tmp_path, points, code):
        path = tmp_path / "curve.csv"
        assert main(["exact-pdf", "--variable", "N", "--points", points, "-o", str(path)]) == code
        assert path.exists() == (code == 0)
        if code:
            assert "num_points must be at least 2" in capsys.readouterr().err

    def test_m_curve_marks_divergence(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        run_cli(
            capsys, "exact-pdf", "--variable", "M", "--points", "80",
            "--output", str(path),
        )
        comments = [l for l in path.read_text().splitlines() if l.startswith("#")]
        singular = next(c for c in comments if "singular=" in c)
        assert float(singular.split("=")[1]) == pytest.approx(math.log(4 / 3), abs=1e-12)


class TestSample:
    def test_csv_reproducible_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--measure", "n", "--samples", "20000", "--bins", "50",
                "--seed", "7"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_guard_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", refuse)
        assert main(["sample", "--samples", "100", "--bins", "4",
                     "--threads", str(montecarlo.MAX_THREADS + 1)]) == 4

    def test_csv_structure(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--measure", "n", "--samples", "5000", "--bins", "20",
            "--seed", "3",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "bin_left,bin_right,count,density"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 20
        total = sum(int(r[2]) for r in rows)
        assert total == 5000

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "x.csv"
        main(["sample", "--measure", "n", "--samples", "2000", "--bins", "10",
              "--seed", "3", "--output", str(path)])
        raw = path.read_bytes()
        assert b"\r\n" in raw
        assert b"\n" not in raw.replace(b"\r\n", b"")

    def test_overlay_guard_exit_3(self):
        code = main(["sample", "--measure", "n", "--alpha", "3", "--samples", "1000",
                     "--overlay-exact"])
        assert code == 3

    def test_overlay_guard_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before rejecting the overlay")

        monkeypatch.setattr(montecarlo, "histogram_measure", refuse)
        assert main(["sample", "--measure", "n", "--alpha", "3", "--samples", "4000000",
                     "--overlay-exact"]) == 3

    def test_overlay_guard_wins_over_resource_guard(self):
        # both inputs are wrong; the overlay is rejected first, before any draw
        assert main(["sample", "--measure", "n", "--sites", "12", "--samples", "10",
                     "--overlay-exact"]) == 3

    def test_resource_guard_exit_4(self):
        assert main(["sample", "--measure", "n", "--q", "2", "--sites", "12",
                     "--samples", "10"]) == 4

    def test_support_violation_exit_1(self, capsys, monkeypatch):
        measure_rows = montecarlo.measure_rows

        def escaping(*args):
            values = measure_rows(*args)
            values[0] = 1.0 + 1e-6  # one N_2 value past its exact maximum
            return values

        monkeypatch.setattr(montecarlo, "measure_rows", escaping)
        assert main(["sample", "--samples", "1000", "--bins", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("q, sites", [(2, 2), (3, 1)])
    def test_observable_beyond_one_qubit_names_the_library_route(self, capsys, q, sites):
        code = main(["sample", "--measure", "observable", "--q", str(q), "--sites", str(sites),
                     "--samples", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "command line has no observable input" in err
        assert "histogram_measure(..., observable=...)" in err

    def test_qudit_sample(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--measure", "n", "--q", "3", "--samples", "5000",
            "--bins", "30", "--seed", "5",
        )
        assert code == 0

    def test_svg_embedded_table_matches_csv(self, tmp_path):
        argv = ["sample", "--measure", "n", "--samples", "10000", "--bins", "40",
                "--seed", "9"]
        csv_path, svg_path = tmp_path / "h.csv", tmp_path / "h.svg"
        assert main(argv + ["--output", str(csv_path)]) == 0
        assert main(argv + ["--output", str(svg_path), "--format", "svg"]) == 0
        svg = svg_path.read_bytes().decode()  # keep CRLF intact
        table = svg.split("<![CDATA[\n", 1)[1].split("]]>", 1)[0]
        assert table == csv_path.read_bytes().decode()

    def test_log_density_svg(self, tmp_path):
        path = tmp_path / "log.svg"
        code = main(["sample", "--measure", "n", "--samples", "20000", "--bins", "60",
                     "--seed", "4", "--format", "svg", "--log-y", "--overlay-exact",
                     "--output", str(path)])
        assert code == 0
        assert path.read_text().startswith("<svg")

    @pytest.mark.parametrize("extra", [["--samples", "0"], ["--samples", "-5"],
                                       ["--sites", "2", "--samples", "0"]])
    def test_non_positive_samples_exit_2(self, capsys, extra):
        assert main(["sample", "--bins", "4", *extra]) == 2
        assert "n_samples must be positive" in capsys.readouterr().err

    def test_explicit_window(self, capsys):
        code, out = run_cli(
            capsys, "sample", "--measure", "n", "--samples", "5000", "--bins", "10",
            "--seed", "5", "--window", "0.45,0.55",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert float(rows[0][0]) == pytest.approx(0.45)
        assert float(rows[-1][1]) == pytest.approx(0.55)

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_window_outside_every_sample(self, tmp_path, fmt):
        path = tmp_path / f"empty.{fmt}"
        assert main(["sample", "--samples", "1000", "--bins", "4", "--window", "2,3",
                     "--format", fmt, "--output", str(path)]) == 0
        text = path.read_bytes().decode()
        if fmt == "svg":
            assert "nan" not in text and "inf" not in text  # a drawable empty plot
            text = text.split("<![CDATA[\n", 1)[1]
        assert "out_of_range=1000" in text
        rows = [l.split(",") for l in text.splitlines() if l[:1].isdigit()]
        assert [int(r[2]) for r in rows] == [0, 0, 0, 0]

    @pytest.mark.parametrize("q, sites", [(2, 1), (2, 2), (3, 1)])
    def test_coherence_bins_span_zero_to_d_minus_one(self, capsys, q, sites):
        code, out = run_cli(
            capsys, "sample", "--measure", "coherence", "--q", str(q), "--sites", str(sites),
            "--samples", "20000", "--bins", "10", "--seed", "3",
        )
        assert code == 0
        assert "out_of_range=0" in out
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][1]) == q**sites - 1
        assert sum(int(r[2]) for r in rows) == 20000

    def test_csv_draws_no_svg(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("CSV output rendered an SVG")

        monkeypatch.setattr(svgplot, "plot_svg", refuse)
        code, _ = run_cli(capsys, "sample", "--samples", "1000", "--bins", "4")
        assert code == 0


class TestFitDivergence:
    def test_exact_mode(self, capsys):
        code, out = run_cli(
            capsys, "fit-divergence", "--exact", "--window", "1e-5,1e-3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exact"
        assert doc["slope"] == pytest.approx(0.675237, rel=0.005)

    def test_mc_mode_with_ci(self, capsys):
        code, out = run_cli(
            capsys, "fit-divergence", "--samples", "2000000", "--seed", "9",
            "--window", "5e-4,2e-2", "--bootstrap", "40",
        )
        assert code == 0
        doc = json.loads(out)
        lo, hi = doc["bootstrap_ci_95"]
        assert lo < doc["slope"] < hi
        assert doc["slope"] == pytest.approx(0.675237, rel=0.10)

    @pytest.mark.parametrize("window", ["1e-12,1e-3", "0,1e-3", "1e-8,1e-3"])
    def test_exact_guard_below_the_density_guard_exit_2(self, capsys, window):
        # the exact curve's guard is window[0] / 10; at or below the density's
        # own 1e-9 guard it is an input error, not a statistical one.  A window
        # starting at 0 is no fit window, which both modes check first
        assert main(["fit-divergence", "--exact", "--window", window]) == 2
        message = "need 0 < eps_min" if window.startswith("0,") else "guard must lie"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["left", "right", "both"])
    @pytest.mark.parametrize("window", [(1e-5, 1e-3), (2e-4, 2e-2)])
    def test_exact_window_equals_the_full_grid_to_the_bit(self, capsys, side, window):
        center = exact_pdf.n_critical(2.0)
        full = exact_pdf.tabulate_pdf("n", num_points=800, guard=window[0] / 10)
        inside = montecarlo.window_mask(full.abscissas, center, window, side)
        part = exact_pdf.tabulate_pdf(
            "n", num_points=800, guard=window[0] / 10,
            keep=lambda x: montecarlo.window_mask(x, center, window, side))
        assert part.abscissas.tobytes() == full.abscissas[inside].tobytes()
        assert part.densities.tobytes() == full.densities[inside].tobytes()
        code, out = run_cli(capsys, "fit-divergence", "--exact", "--side", side,
                            "--window", f"{window[0]!r},{window[1]!r}")
        assert code == 0
        fit = montecarlo.fit_log_divergence(full, center, window, side)
        assert json.loads(out) == {"schema": cli.SCHEMA, "mode": "exact",
                                   **json.loads(json.dumps(dataclasses.asdict(fit)))}

    # 4, 2 and no grid points inside the window
    @pytest.mark.parametrize("window", ["1e-6,1.3e-6", "3e-5,3.1e-5", "3e-5,3.01e-5"])
    def test_exact_window_with_too_few_points_exit_5(self, capsys, window):
        assert main(["fit-divergence", "--exact", "--window", window]) == 5
        assert "need at least 6" in capsys.readouterr().err

    def test_exact_refuses_a_scan_before_tabulating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tabulated before refusing --scan")

        monkeypatch.setattr(exact_pdf, "tabulate_pdf", refuse)
        assert main(["fit-divergence", "--exact", "--scan", "0.01"]) == 2
        assert capsys.readouterr().err.startswith("input error: --scan")

    def test_insufficient_exit_5(self):
        code = main(["fit-divergence", "--samples", "5000", "--seed", "2",
                     "--window", "1e-6,1e-5", "--bins-per-side", "4"])
        assert code == 5

    def test_center_scan_mode(self, capsys):
        code, out = run_cli(
            capsys, "fit-divergence", "--alpha", "3", "--samples", "2000000",
            "--seed", "11", "--window", "2e-3,2e-2", "--scan", "0.01",
            "--bootstrap", "30",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["center"] == pytest.approx(0.25, abs=2.5e-3)


def test_fit_divergence_does_not_warn_about_its_window(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit-divergence", "--samples", "200000", "--window", "2e-4,2e-2",
                     "--bootstrap", "20"])
    assert code == 0
    assert not caught


class TestCriticalPoints:
    def test_alpha2(self, capsys):
        code, out = run_cli(capsys, "critical-points", "--alpha", "2")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["points"]) == 26
        saddles = [p for p in doc["points"] if p["class"] == "C2_saddle"]
        assert len(saddles) == 12
        assert all(p["value"] == pytest.approx(0.5) for p in saddles)
        counts = {c: sum(1 for p in doc["points"] if p["class"] == c)
                  for c in ("C1_max", "C2_saddle", "C3_min")}
        assert counts == {"C1_max": 6, "C2_saddle": 12, "C3_min": 8}

    def test_alpha4_saddle_value(self, capsys):
        _, out = run_cli(capsys, "critical-points", "--alpha", "4")
        saddle = next(p for p in json.loads(out)["points"] if p["class"] == "C2_saddle")
        assert saddle["value"] == pytest.approx(0.125)

    @pytest.mark.parametrize("alpha", ["25", "50", "200", "1000"])
    def test_large_orders(self, capsys, alpha):
        code, out = run_cli(capsys, "critical-points", "--alpha", alpha)
        assert code == 0
        classes = [p["class"] for p in json.loads(out)["points"]]
        assert {c: classes.count(c) for c in set(classes)} == {
            "C1_max": 6, "C2_saddle": 12, "C3_min": 8}

    def test_an_order_too_large_to_classify_exits_3(self, capsys):
        for alpha in ("2e14", "1e300"):
            assert main(["critical-points", "--alpha", alpha]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert "too large to classify" in captured.err
        code, out = run_cli(capsys, "critical-points", "--alpha", "1e13")
        assert code == 0
        assert len(json.loads(out)["points"]) == 26

    def test_numerical_failure_exit_1(self, capsys, monkeypatch):
        def failing(alpha):
            raise ArithmeticError("classification failed")

        monkeypatch.setattr(exact_pdf, "critical_points", failing)
        assert main(["critical-points", "--alpha", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: classification failed\n"


class TestMeanSre:
    def test_values(self, capsys):
        code, out = run_cli(capsys, "mean-sre", "--tol", "1e-8")
        doc = json.loads(out)
        assert code == 0
        assert doc["mean_m2_bits"] == pytest.approx(0.330263, abs=1e-5)
        assert doc["mean_m2_nats"] == pytest.approx(0.228921, abs=1e-5)

    def test_tolerance_consistency(self, capsys):
        _, out1 = run_cli(capsys, "mean-sre", "--tol", "1e-4")
        _, out2 = run_cli(capsys, "mean-sre", "--tol", "1e-8")
        a = json.loads(out1)["mean_m2_nats"]
        b = json.loads(out2)["mean_m2_nats"]
        assert a == pytest.approx(b, abs=1e-4)

    def test_mc_cross_check(self, capsys):
        code, out = run_cli(capsys, "mean-sre", "--mc", "1000000", "--seed", "7")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["mc_mean_nats"] - doc["mean_m2_nats"]) < 3 * doc["mc_standard_error_nats"]


class TestReproduceFigures:
    def test_smoke_manifest(self, tmp_path, capsys):
        code = main([
            "reproduce-figures", "--outdir", str(tmp_path), "--scale", "0.002",
            "--seed", "5", "--only", "fig1_m2_density", "fig5_qutrit",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"fig1_m2_density", "fig5_qutrit"}
        for name, entry in manifest["outputs"].items():
            assert (tmp_path / entry["csv"]).exists()
            assert (tmp_path / entry["svg"]).exists()
            import hashlib

            digest = hashlib.sha256((tmp_path / entry["csv"]).read_bytes()).hexdigest()
            assert digest == entry["csv_sha256"]

    def test_each_state_drawn_once(self, tmp_path, monkeypatch):
        rows = []
        draw = montecarlo.haar_block

        def counting(d, rng, count):
            rows.append(count)
            return draw(d, rng, count)

        monkeypatch.setattr(montecarlo, "haar_block", counting)
        assert main(["reproduce-figures", "--outdir", str(tmp_path), "--scale", "0.01",
                     "--only", "fig4_six_qubits", "fig5_qutrit"]) == 0
        assert sum(rows) == 2000 + 4000

    def test_exact_overlay_tabulated_once(self, tmp_path, monkeypatch):
        calls = []
        tabulate = exact_pdf.tabulate_pdf

        def counting(*args, **kwargs):
            calls.append(args)
            return tabulate(*args, **kwargs)

        monkeypatch.setattr(exact_pdf, "tabulate_pdf", counting)
        assert main(["reproduce-figures", "--outdir", str(tmp_path), "--scale", "0.001",
                     "--only", "fig2_n2_density"]) == 0
        assert len(calls) == 1

    def test_thread_count_keeps_every_byte(self, tmp_path):
        outs = {}
        for threads in ("1", "2"):
            outdir = tmp_path / f"t{threads}"
            assert main(["reproduce-figures", "--outdir", str(outdir), "--scale", "0.005",
                         "--threads", threads]) == 0
            outs[threads] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        assert len(outs["1"]) == 13  # six CSV, six SVG and the manifest
        assert outs["1"] == outs["2"]
        # an exact curve is overlaid wherever exact_pdf.law is closed-form: one qubit only
        overlaid = {name for name, data in outs["1"].items() if b"#b03030" in data}
        assert overlaid == {"fig1_m2_density.svg", "fig2_n2_density.svg"}

    @pytest.mark.parametrize("name, options", [
        ("fig2_n2_density", ["--measure", "n", "--samples", "10000", "--bins", "400",
                             "--overlay-exact"]),
        # no exact law: the range comes from the probe of the first samples
        ("fig5_qutrit", ["--measure", "n", "--q", "3", "--samples", "1000", "--bins", "200"]),
    ])
    def test_a_figure_is_its_sample_command_line(self, tmp_path, name, options):
        assert main(["reproduce-figures", "--outdir", str(tmp_path), "--scale", "0.001",
                     "--seed", "5", "--only", name]) == 0
        for fmt in ("csv", "svg"):
            path = tmp_path / f"sample.{fmt}"
            assert main(["sample", *options, "--seed", "5", "--format", fmt,
                         "-o", str(path)]) == 0
            assert path.read_bytes() == (tmp_path / f"{name}.{fmt}").read_bytes()


class TestFrontEnd:
    def test_parser_built_once(self, tmp_path):
        cli.build_parser.cache_clear()
        for argv in (["critical-points"], ["critical-points", "--alpha", "3"],
                     ["mean-sre", "--tol", "1e-4"],
                     # each figure's sample command line goes through the same parser
                     ["reproduce-figures", "--outdir", str(tmp_path), "--scale", "0.001",
                      "--only", "fig4_two_qubits", "fig5_qutrit"]):
            assert main(argv) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_command_looked_up_when_it_runs(self, monkeypatch):
        cli.build_parser()  # a parser built before the swap runs the swapped command
        seen = []

        def fake(args):
            seen.append(args.alpha)
            return 7

        monkeypatch.setattr(cli, "cmd_critical_points", fake)
        assert main(["critical-points", "--alpha", "3"]) == 7
        assert seen == [3.0]


# inputs rejected before any state is drawn, with their exit codes
REJECTED = [
    (["sample", "--alpha", "inf", "--samples", "1000", "--bins", "4"], 3),
    (["measure", "--bloch", "1,0,0", "--alpha", "inf"], 3),
    (["measure", "--bloch", "1,0,0", "--alpha", "nan"], 3),
    (["critical-points", "--alpha", "nan"], 3),
    # the saddles' curvature 2 (alpha - 1) is under the Hessian's rounding
    (["critical-points", "--alpha", "1.000000000000001"], 3),
    (["fit-divergence", "--samples", "100000", "--window", "1e-3"], 2),
    (["fit-divergence", "--samples", "4000000", "--window", "1e-2,1e-3"], 2),
    (["measure", "--haar", "--alpha", "inf"], 3),
    (["measure", "--haar", "--dim", "1099511627776"], 4),
    (["measure", "--haar", "--dim", "100000", "--local-dim", "100000"], 4),
    (["measure", "--amplitudes", "0,0"], 2),
    (["measure", "--amplitudes", "1,0,0"], 2),  # an odd count is no list of re,im pairs
    (["measure", "--bloch", "nan,0,0"], 2),
    # one state source: a second one is refused, not dropped
    (["measure", "--bloch", "0.6,0,0.8", "--amplitudes", "1,0,0,0"], 2),
    (["measure", "--amplitudes", "1,0,0,0", "--haar", "--dim", "2", "--seed", "5"], 2),
    # the guards hold for every state source, not only --haar
    (["measure", "--amplitudes", ",".join(["1,0"] * 17), "--local-dim", "17"], 4),
    (["measure", "--amplitudes", "1,0,0,0", "--alpha", "inf"], 3),
    (["measure", "--amplitudes", "1,0" + ",0,0" * (2**15 - 1)], 4),  # 15 qubits
    (["sample", "--window", "nan,1"], 2),
    (["sample", "--window", "0,inf"], 2),
    (["reproduce-figures", "--scale", "-1"], 2),
    (["reproduce-figures", "--scale", "0"], 2),
    (["reproduce-figures", "--scale", "nan"], 2),
    (["reproduce-figures", "--only", "nosuchfig"], 2),
    (["sample", "--threads", "0"], 2),
    (["sample", "--threads", "-3"], 2),
    # every command that takes --threads checks it, whether it samples or not
    (["measure", "--bloch", "1,0,0", "--threads", "99"], 4),
    (["measure", "--bloch", "1,0,0", "--threads", "0"], 2),
    (["fit-divergence", "--exact", "--threads", "0"], 2),
    (["mean-sre", "--threads", "99"], 4),
    # a bootstrap needs at least 10 resamples to keep max(10, n // 2) fits
    (["fit-divergence", "--samples", "200000", "--bootstrap", "5"], 2),
    (["fit-divergence", "--samples", "200000", "--bootstrap", "0"], 2),
    (["fit-divergence", "--samples", "200000", "--bootstrap", "-3"], 2),
    # a register needs q >= 2, n >= 1 and a qudit on one site (statevec.check_register)
    (["sample", "--q", "1"], 2),
    (["sample", "--q", "3", "--sites", "2"], 2),
    (["sample", "--sites", "0"], 2),
    (["sample", "--sites", "-1"], 2),
    (["sample", "--sites", "0", "--measure", "observable"], 2),
    # only one qubit has a default observable, and no register size supplies one,
    # so the input error comes before the size guards and forms no q**n
    (["sample", "--measure", "observable", "--sites", "11"], 2),
    (["sample", "--measure", "observable", "--q", "17"], 2),
    (["sample", "--measure", "observable", "--sites", "1000000000"], 2),
    (["measure", "--haar", "--dim", "1", "--local-dim", "1"], 2),
    (["measure", "--haar", "--dim", "4", "--local-dim", "0"], 2),
    # bin and point counts are capped before anything of their size is allocated
    (["sample", "--bins", "10000000000000"], 4),
    (["sample", "--window", "0,1", "--bins", "10000000000000"], 4),
    (["fit-divergence", "--bins-per-side", "10000000000000"], 4),
    (["fit-divergence", "--samples", "200000", "--bins-per-side", "0"], 2),
    (["exact-pdf", "--variable", "N", "--points", "10000000000000"], 4),
    # the entropy's support is about ln2/(alpha - 1) wide: bins narrower than
    # 1/finfo.max would have an infinite density
    (["sample", "--measure", "m", "--alpha", "1e308", "--samples", "1000", "--bins", "4"], 2),
    # a fit needs a finite center and a finite, positive scan
    (["fit-divergence", "--scan", "nan"], 2),
    (["fit-divergence", "--scan", "inf"], 2),
    (["fit-divergence", "--scan", "0"], 2),
    (["fit-divergence", "--center", "nan"], 2),
    (["fit-divergence", "--exact", "--center", "nan"], 2),
    (["fit-divergence", "--exact", "--center", "inf"], 2),
    # an exact fit refuses what the sampled fit refuses, before any density is evaluated
    (["fit-divergence", "--exact", "--bootstrap", "3"], 2),
    (["fit-divergence", "--exact", "--bins-per-side", "0"], 2),
    (["fit-divergence", "--exact", "--bins-per-side", "10000000000000"], 4),
    (["fit-divergence", "--exact", "--window", "1e-2,1e-3"], 2),
    (["fit-divergence", "--exact", "--bootstrap", "3", "--samples", "5",
      "--bins-per-side", "0"], 2),
    # an empty --only names no figure
    (["reproduce-figures", "--only"], 2),
    # the figures go to --outdir only
    (["reproduce-figures", "-o", "x"], 2),
    # every seed is checked before any work: the sampler's, and the bootstrap's seed + 1
    (["fit-divergence", "--samples", "200000", "--seed", "18446744073709551615"], 2),
    (["reproduce-figures", "--seed", "-1"], 2),
    (["sample", "--seed", "-1", "--overlay-exact"], 2),
]


def _argv_id(argv) -> str:
    # an amplitude list of a large register stands in by its length
    return " ".join(a if len(a) <= 100 else f"<{len(a)} characters>" for a in argv)


@pytest.mark.parametrize("argv, code", REJECTED, ids=[_argv_id(a) for a, _ in REJECTED])
def test_rejected_before_any_draw(capsys, monkeypatch, tmp_path, argv, code):
    draws = []

    def recorded(draw):
        def counting(*args):
            draws.append(args)
            return draw(*args)
        return counting

    for module in (montecarlo, statevec):
        monkeypatch.setattr(module, "haar_block", recorded(module.haar_block))
    # nor does any kernel of measure run: measure_rows looks its kernels up in pauli_spectrum
    # nor is any exact density evaluated: every one goes through exact_pdf._pdf_n2
    for module, name in ((pauli_spectrum, "pauli_moment_batch"),
                         (pauli_spectrum, "weyl_moment_batch"), (cli, "pauli_spectrum_fast"),
                         (exact_pdf, "_pdf_n2")):
        monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    outdir = tmp_path / "figures"
    if argv[0] == "reproduce-figures":
        argv = [*argv, "--outdir", str(outdir)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed or unknown flag
            got = exc.code
            last = capsys.readouterr().err.splitlines()[-1]
            assert ": error: argument" in last or ": error: unrecognized arguments: " in last
        else:
            assert len(capsys.readouterr().err.splitlines()) == 1
    assert got == code
    assert draws == []
    assert not outdir.exists()


def test_narrow_entropy_bins_keep_finite_densities(capsys):
    # alpha = 1e304 puts the entropy's support near 7e-305: narrow, but binnable
    code, out = run_cli(capsys, "sample", "--measure", "m", "--alpha", "1e304",
                        "--samples", "1000", "--bins", "4")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 4
    assert all(math.isfinite(float(r[3])) for r in rows)
    assert sum(int(r[2]) for r in rows) == 1000


# a range probe of equal values (every N_alpha underflows to 0 at alpha = 1e308)
# spans no range: the message names the probe, not edges the user never gave
REJECTED_AFTER_PROBE = [
    (["sample", "--measure", "n", "--alpha", "1e308", "--sites", "2", "--samples", "1000",
      "--bins", "4"], 2, "the first 1000 samples span no range", 1000),
    # no chunk is drawn past the probe's five
    (["sample", "--measure", "n", "--alpha", "1e308", "--sites", "2", "--samples", "100000",
      "--bins", "4"], 2, "the first 20000 samples span no range", 5 * montecarlo.CHUNK_SIZE),
]


@pytest.mark.parametrize("argv, code, message, drawn", REJECTED_AFTER_PROBE,
                         ids=[_argv_id(a) for a, *_ in REJECTED_AFTER_PROBE])
def test_rejected_after_the_range_probe(capsys, monkeypatch, argv, code, message, drawn):
    counts = []

    def counting(d, rng, count):
        counts.append(count)
        return statevec.haar_block(d, rng, count)

    monkeypatch.setattr(montecarlo, "haar_block", counting)
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"input error: {message}; give explicit edges (--window)"
    assert sum(counts) == drawn


@pytest.mark.parametrize("argv, target", [
    (["measure", "--bloch", "1,0,0"], "missing/x.json"),  # its directory does not exist
    (["exact-pdf", "--variable", "N"], "."),  # a directory
], ids=["missing directory", "a directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, target):
    assert main([*argv, "-o", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("output error: ")
    assert list(tmp_path.iterdir()) == []


def test_a_new_law_is_one_new_row(monkeypatch, tmp_path):
    # a toy uniform density of the one-qubit coherence on [0, 1], and nothing else
    real_law = exact_pdf.law

    def with_coherence(measure, alpha=2.0, q=2, n_sites=1):
        if pauli_spectrum.canonical_measure(measure) == "coherence" and (q, n_sites) == (2, 1):
            return exact_pdf.Law((0.0, 1.0), (),
                                 lambda x, tol: (np.ones(x.shape), np.zeros(x.shape)))
        return real_law(measure, alpha, q, n_sites)

    monkeypatch.setattr(exact_pdf, "law", with_coherence)
    curve = tmp_path / "curve.csv"
    assert main(["exact-pdf", "--variable", "coherence", "--points", "50", "-o", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert "# integral=1.000000" in lines
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 50 and {float(d) for _, d in rows} == {1.0}

    plot = tmp_path / "overlay.svg"
    assert main(["sample", "--measure", "coherence", "--samples", "2000", "--bins", "20",
                 "--overlay-exact", "--format", "svg", "-o", str(plot)]) == 0
    overlay = re.search(r'stroke="#b03030"[^>]*points="([^"]*)"', plot.read_text())
    points = [p.split(",") for p in overlay.group(1).split()]
    assert len(points) == 600 and len({y for _, y in points}) == 1  # the flat line


@pytest.mark.parametrize("q, sites", [(2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("measure", pauli_spectrum.MEASURES)
def test_every_caller_agrees_with_the_law(capsys, monkeypatch, measure, alpha, q, sites):
    exact = exact_pdf.law(measure, alpha, q, sites)
    closed = exact is not None and exact.density is not None
    options = ["--measure", measure, "--alpha", str(alpha), "--q", str(q), "--sites", str(sites)]
    assert (main(["sample", *options, "--samples", "300", "--bins", "8",
                  "--overlay-exact"]) == 0) == closed
    if (q, sites) == (2, 1):
        assert (main(["exact-pdf", "--variable", measure, "--alpha", str(alpha),
                      "--points", "20"]) == 0) == closed
    capsys.readouterr()

    observable = np.diag(np.arange(q**sites, dtype=float)) if measure == "observable" else None
    request = (measure, alpha, q, sites, 300, 5, 8, observable)
    hist = montecarlo.histogram_measure(*request)
    if exact is not None:
        assert hist.edges.tolist() == np.linspace(*exact.support, 9).tolist()
    measure_rows = montecarlo.measure_rows

    def escaping(*args):
        values = measure_rows(*args)
        values[0] = -1.0  # below every support and every value range
        return values

    monkeypatch.setattr(montecarlo, "measure_rows", escaping)
    if exact is None:
        hist = montecarlo.histogram_measure(*request)  # counted, not raised
        assert hist.counts.sum() + hist.n_below + hist.n_above == 300
    else:
        with pytest.raises(SupportViolation):
            montecarlo.histogram_measure(*request)
