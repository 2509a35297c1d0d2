"""Golden CLI outputs: every case in ``tests/golden`` reruns to the
recorded exit code and byte-identical JSON and CSV reports, from the
recorded inputs and from the same inputs with every matrix in the older
nested ``[re, im]`` layout."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cqwiretap import bounds, channels, serialize, typicality

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from record import CASES, _json_values, drift, run_case  # noqa: E402

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


def nested(obj):
    """``obj`` with every packed matrix rewritten as nested ``[re, im]`` rows."""
    if isinstance(obj, dict):
        if set(obj) == {"data", "shape"}:
            a = serialize.matrix_from_json(obj)
            return a.view(float).reshape(*a.shape, 2).tolist()
        return {key: nested(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [nested(value) for value in obj]
    return obj


@pytest.fixture(scope="module")
def nested_root(tmp_path_factory):
    """A directory whose ``inputs`` are the golden inputs in the nested layout."""
    root = tmp_path_factory.mktemp("nested")
    (root / "inputs").mkdir()
    for path in (GOLDEN / "inputs").glob("*.json"):
        text = serialize.canonical_json(nested(serialize.load_json(path)))
        (root / "inputs" / path.name).write_text(text)
    return root


def test_nested_inputs_rewrite_every_matrix(nested_root):
    rewritten = set()
    for path in (nested_root / "inputs").glob("*.json"):
        recorded = (GOLDEN / "inputs" / path.name).read_text()
        assert '"data"' not in path.read_text()
        if path.read_text() != recorded:
            rewritten.add(path.name)
    channels_and_codes = {"clock", "cr_3x8", "cr_qutrit", "eve_qubit", "flip", "flip_haar",
                          "qutrit", "seed_qutrit"}
    assert rewritten == {f"{name}.json" for name in channels_and_codes}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_from_nested_inputs(name, nested_root, tmp_path):
    code, report, csv = run_case(name, tmp_path, root=nested_root)
    assert code == EXITS[name]
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
    expected_csv = GOLDEN / f"{name}.expected.csv"
    assert csv == (expected_csv.read_bytes() if expected_csv.exists() else None)


class TestDrift:
    """``record.py`` compares matrices as values, whatever their layout."""

    def build_code(self):
        return json.loads((GOLDEN / "build-code.expected.json").read_text())

    def test_layout_change_alone_changes_no_value(self):
        obj = self.build_code()
        old = serialize.canonical_json(nested(obj)).encode()
        new = serialize.canonical_json(obj).encode()
        assert old != new
        assert drift(old, new, _json_values) == ["  the bytes changed, no value did"]

    def test_changed_entry_is_named(self):
        obj = self.build_code()
        old = serialize.canonical_json(nested(obj)).encode()
        decoder = obj["codes"][0][1]["decoders"][1]
        a = serialize.matrix_from_json(decoder[1])
        before = complex(a[1, 0])
        a[1, 0] += 1e-3
        decoder[1] = serialize.matrix_to_json(a)
        lines = drift(old, serialize.canonical_json(obj).encode(), _json_values)
        assert lines == [
            f"  codes[0][1].decoders[1][1](1, 0): {before!r} -> {complex(a[1, 0])!r}"
            f" (relative change {1e-3 / abs(before):.1e})"
        ]


@pytest.mark.parametrize(
    "name", ["typicality-report", "typicality-report-clock", "typicality-report-qutrit"]
)
def test_typicality_reports_certify_the_ordering_at_rank_r(name, tmp_path, monkeypatch):
    # the reports build no product output and solve no eigenproblem larger
    # than the largest rank R (te2-rank-upper) of the run; the ordering
    # V' <= V^n of every block length is then certified by the chain's check
    # on the rank-R pair, the one ordering check of the library
    monkeypatch.setattr(
        channels.ProductChannel, "output", lambda *a: pytest.fail("product output built")
    )
    sizes = []
    for solver in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, solver)
        monkeypatch.setattr(
            np.linalg, solver, lambda a, _real=real: sizes.append(a.shape[-1]) or _real(a)
        )
    code, report, csv = run_case(name, tmp_path)
    assert code == EXITS[name] == 0
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
    assert csv == (GOLDEN / f"{name}.expected.csv").read_bytes()
    ranks = [r["lhs"] for block in json.loads(report)["per_n"] for r in block["reports"]
             if r["name"] == "te2-rank-upper"]
    assert sizes and max(sizes) <= max(ranks)
    monkeypatch.undo()

    _, inputs, params = CASES[name]
    v = serialize.channel_from_json(serialize.load_json(GOLDEN / inputs["channel"]))
    for n in params["ns"]:
        base, prime, iso = typicality.reindexed_pair(v, params["p"], n, params["delta"])
        assert bounds.check_psd_ordering(prime, base, iso) >= -bounds.ORDERING_TOL


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


@pytest.mark.parametrize(
    "name", ["typicality-report", "typicality-report-clock", "typicality-report-qutrit"]
)
def test_typicality_reports_read_no_member_permutation(name, tmp_path, monkeypatch):
    # epsilon, te7 and the mean core are read per type class: no member's
    # permutation of its class core is formed
    monkeypatch.setattr(
        typicality, "_member_perms", lambda *a: pytest.fail("member permutation read")
    )
    code, report, csv = run_case(name, tmp_path)
    assert code == EXITS[name] == 0
    assert report == (GOLDEN / f"{name}.expected.json").read_bytes()
    assert csv == (GOLDEN / f"{name}.expected.csv").read_bytes()
