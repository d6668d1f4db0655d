import json
import math
import warnings

import pytest

from magicdist import exact_pdf, montecarlo, svgplot
from magicdist.cli import main


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

    def test_threads_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGICDIST_THREADS", "2")
        a, b = tmp_path / "a.csv", tmp_path / "env.csv"
        argv = ["sample", "--measure", "n", "--samples", "20000", "--bins", "50",
                "--seed", "7"]
        assert main(argv + ["--output", str(a), "--threads", "1"]) == 0
        assert main(argv + ["--output", str(b)]) == 0  # picks up the env cap
        assert a.read_bytes() == b.read_bytes()

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
        # own 1e-9 guard it is an input error, not a statistical one
        assert main(["fit-divergence", "--exact", "--window", window]) == 2
        assert "guard must lie" in capsys.readouterr().err

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
