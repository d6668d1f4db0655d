import csv
import pathlib

from magicdist.bessel import j0

FIXTURE = pathlib.Path(__file__).parent / "data" / "j0_reference.csv"


def reference_pairs():
    with FIXTURE.open() as fh:
        for row in csv.DictReader(fh):
            yield float(row["y"]), float(row["j0"])


def test_against_reference_fixture():
    worst = 0.0
    for y, ref in reference_pairs():
        worst = max(worst, abs(j0(y) - ref))
    assert worst < 1e-12


def test_even_symmetry():
    for y in (0.3, 2.0, 7.7, 12.5, 40.0):
        assert j0(-y) == j0(y)


def test_at_zero():
    assert j0(0.0) == 1.0


def test_known_roots():
    for root in (2.404825557695773, 5.520078110286311, 8.653727912911013):
        assert abs(j0(root)) < 1e-12
