import importlib.util
import warnings
from pathlib import Path

from magicdist import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "contract_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("contract_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_warning_inside_a_command_is_reported(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    warning_file = tool.SINGLE_FILE[3][0]

    def fake_main(argv):
        if argv[0] == "reproduce-figures":
            outdir = Path(argv[argv.index("--outdir") + 1])
            outdir.mkdir()
            (outdir / "manifest.json").write_text("{}")
        elif Path(argv[-1]).name == warning_file:
            warnings.warn("overflow in the kernel", RuntimeWarning)
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    assert tool.main([str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2 + len(tool.SINGLE_FILE)
    assert "warning" not in captured.out
    assert captured.err.splitlines() == [
        f"warning in {warning_file}: RuntimeWarning: overflow in the kernel"]


def test_no_warning_exits_0(tmp_path, monkeypatch, capsys):
    tool = load_tool()

    def fake_main(argv):
        if argv[0] == "reproduce-figures":
            Path(argv[argv.index("--outdir") + 1]).mkdir()
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    assert tool.main([str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == len(tool.SINGLE_FILE)


# the digests tools/contract_digests.py prints for these rows, the same as
# before the CSV and SVG writers went columnar and before quad's loop moved
# into exact_pdf._refine; a moved byte of a CSV, an SVG (linear or log_y,
# line or step), the exact fit or the exact mean fails here, not only in a
# diff of the tool's whole listing
PINNED = {
    "exact_N.csv": "3ec2538340a911cb16c93f1092252e157bfed852203b6f4859d5d439e346c7cd",
    "exact_M_log_y.svg": "b93fc48824d624914e07766661e6180eb73f08d7caca5f9a8784987883d22875",
    "exact_Xi.csv": "814559313debf71a2e3168fd5c888d9ce20912a41495ce68deee5961d2face91",
    "exact_mlin.csv": "7a462a0d5f4da08a47246e5c1b046b9e98bf7ec810f23f5a24448572dc4b85ac",
    "sample_overlay_mlin.svg": "42d0e7456c9abd27c48305e92d545d62502719685f775acfb36326a2ed7b029c",
    "sample_overlay.svg": "6d55079acd50df1a494b7700f5eabeaa37d45167e129ba1e6ec26631ad69a864",
    "sample_n.csv": "1b872c6caca384ae13fa2d18f15df8c14642eb885015a7636aa6a501d807daa7",
    "fit_exact.json": "a9d49a330404b15440320e05b9303664d201320a378c6e8fb431ba7faa4e0356",
    "mean_sre.json": "510940d4919226e5ace9a61834fb6c59ef0ba4cab69011262b6b4486bb5b0d35",
    "mean_sre_tol1e-12.json": "04a9bec84e6542c7e9e9560fcbc3ebca813f0d0560ed8765d6b424146c35ed03",
    # the paper's 26 classified critical points and the one-qubit n_alpha/gamma_alpha bits
    "critical_alpha2.json": "81fe35a78cac764e5cd13501acb4c071cf802ac9ceba9998c5115ee33a8cde40",
    "measure_one_qubit.json": "ce6944d588d6a0e431ae265d6319f6a29e449daba731523556b2c288e01bb9e0",
}


def test_pinned_rows_keep_their_bytes(tmp_path):
    tool = load_tool()
    rows = dict(tool.SINGLE_FILE)
    warned = []
    got = {}
    for name in PINNED:
        path = tmp_path / name
        assert tool._run([*rows[name], "-o", str(path)], name, warned) == 0
        got[name] = tool._digest(path)
    assert warned == []
    assert got == PINNED


# the digests of the tool's reproduce-figures row at --threads 1, the same as
# before each figure became a `sample` command line; the manifest holds every
# figure CSV's sha256
PINNED_FIGURES = {
    "manifest.json": "a6ff571c57d687e0ea6decf6ba806b999b9cabba6fa7d2e339638c3760f8b29a",
    "fig1_m2_density.svg": "e4c505fad55884ec73d09fa6baa59f473fa966748de970c65f0f1ac5e4fc25e6",
}


def test_pinned_figures_keep_their_bytes(tmp_path):
    tool = load_tool()
    figdir = tmp_path / "figures_t1"
    warned = []
    argv = ["reproduce-figures", "--scale", "0.01", "--seed", "2024", "--threads", "1",
            "--outdir", str(figdir)]
    assert tool._run(argv, figdir.name, warned) == 0
    assert warned == []
    assert {name: tool._digest(figdir / name) for name in PINNED_FIGURES} == PINNED_FIGURES
