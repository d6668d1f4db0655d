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


# every line tools/contract_digests.py prints, "<sha256> <exit code> <file>": the
# seeded CSV, SVG and JSON outputs of every command and both reproduce-figures
# runs, as before the writers went columnar and quad's loop moved into
# exact_pdf._refine; a moved byte anywhere in the byte contract fails here
LISTING = Path(__file__).resolve().parent / "data" / "contract_digests.txt"


def test_the_whole_listing_keeps_its_bytes(tmp_path):
    tool = load_tool()
    warned = []
    rows = tool.contract_digests(tmp_path, warned)
    got = [f"{digest} {code} {name}" for digest, code, name in rows]
    assert warned == []
    assert got == LISTING.read_text().splitlines()


def test_the_listing_holds_its_invariants():
    # a regenerated listing must not hide a thread-dependent stream or an alias
    # that writes other bytes than its canonical name
    digests = {}
    for line in LISTING.read_text().splitlines():
        digest, _, name = line.split(" ", 2)
        digests[name] = digest
    figures = sorted(name.split("/", 1)[1] for name in digests if name.startswith("figures_t1/"))
    assert figures and figures == sorted(
        name.split("/", 1)[1] for name in digests if name.startswith("figures_t2/"))
    pairs = [(f"figures_t1/{name}", f"figures_t2/{name}") for name in figures]
    pairs += [("sample_n.csv", "sample_n_t2.csv"), ("sample_n.svg", "sample_n_t2.svg"),
              ("sample_m.svg", "sample_m_alias.svg"), ("exact_M.csv", "exact_m_alpha.csv")]
    for left, right in pairs:
        assert digests[left] == digests[right] != "-", (left, right)
