"""Golden CLI outputs: every case in ``tests/golden`` reruns to the
recorded exit code and byte-identical JSON and CSV reports."""

import json
import sys
from pathlib import Path

import pytest

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
