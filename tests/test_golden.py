"""Golden CLI outputs: every case in ``tests/golden`` reruns to the
recorded exit code and byte-identical JSON and CSV reports."""

import json
import sys
from pathlib import Path

import pytest

from cqwiretap import channels, typicality

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record import CASES, run_case  # noqa: E402

EXITS = json.loads((GOLDEN / "exits.json").read_text())


def test_every_case_recorded():
    assert sorted(EXITS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, report, csv = run_case(name, tmp_path)
    assert code == EXITS[name]
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
    expected_csv = GOLDEN / f"{name}.expected.csv"
    assert csv == (expected_csv.read_bytes() if expected_csv.exists() else None)


@pytest.mark.parametrize(
    "name", ["typicality-report", "typicality-report-clock", "typicality-report-qutrit"]
)
def test_typicality_reports_certify_the_ordering_at_rank_r(name, tmp_path, monkeypatch):
    # the ordering screen certifies every string of these specs: no product
    # output is built and the dense scan receives no triple
    monkeypatch.setattr(
        channels.ProductChannel, "output", lambda *a: pytest.fail("product output built")
    )
    real_scan = typicality._ordering_scan

    def scan(triples):
        return real_scan(pytest.fail(f"dense check of {t[0]}") for t in triples)

    monkeypatch.setattr(typicality, "_ordering_scan", scan)
    code, report, csv = run_case(name, tmp_path)
    assert code == EXITS[name] == 0
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
    assert csv == (GOLDEN / f"{name}.expected.csv").read_bytes()


@pytest.mark.parametrize(
    "name", ["typicality-report", "typicality-report-clock", "typicality-report-qutrit"]
)
def test_typicality_reports_form_no_dn_output(name, tmp_path, monkeypatch):
    # the reports read the R x R cores: no compressed output A K A*, no
    # product output and not even the d^n x R isometry A is formed
    monkeypatch.setattr(typicality, "_sandwich", lambda *a: pytest.fail("A K A* formed"))
    monkeypatch.setattr(typicality, "_column_stack", lambda *a: pytest.fail("A formed"))
    monkeypatch.setattr(
        channels.ProductChannel, "output", lambda *a: pytest.fail("product output built")
    )
    code, report, _ = run_case(name, tmp_path)
    assert code == EXITS[name] == 0
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
