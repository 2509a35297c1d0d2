"""Tests for the experiment runner.

Every case drives ``main`` in-process on spec files under tmp_path and
checks the exit-code contract (0 ok, 2 parse, 3 validation, 4 bound,
5 cap) plus the byte-identity of re-run reports.  Numeric expectations
are frozen from hand-computable instances: the noiseless channel leaks
exactly one bit per message bit, the mirrored-spectrum qubit pair has
typical trace 0.4928 at n = 2, and the bundled 6x8 section has
d_S = 4, d_X = 3.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_density, random_unitary, rng, wedged_pair

from cqwiretap import bri, cli, codes, serialize, typicality
from cqwiretap.channels import CqChannel, holevo
from cqwiretap.cli import KINDS, main

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def flip_channel() -> CqChannel:
    return CqChannel((0, 1), 2, {0: np.diag([0.8, 0.2]), 1: np.diag([0.2, 0.8])})


def rotated_channel(seed: int) -> CqChannel:
    # common spectrum, independent Haar bases; projector families do not
    # commute, so the sandwich ordering check is expected to fail
    g = rng(seed)
    outputs = {}
    for x in range(2):
        u = random_unitary(g, 2)
        outputs[x] = u @ np.diag([0.8, 0.2]) @ u.conj().T
    return CqChannel((0, 1), 2, outputs)


def noiseless(k: int) -> CqChannel:
    eye = np.eye(k)
    return CqChannel(range(k), k, {x: np.outer(eye[x], eye[x]) for x in range(k)})


def xor_bri_json() -> dict:
    return {"S": 2, "X": 2, "M": [0, 1], "table": [[0, 1], [1, 0]]}


def perfect_code(k: int) -> codes.TransmissionCode:
    eye = np.eye(k)
    return codes.TransmissionCode(
        {c: (c,) for c in range(k)},
        {c: np.outer(eye[c], eye[c]) for c in range(k)},
        n=1,
        dim=k,
    )


class Workspace:
    def __init__(self, root):
        self.root = root

    def file(self, name, obj) -> str:
        path = self.root / name
        serialize.dump_json(obj, path)
        return str(path)

    def channel(self, name, v) -> str:
        return self.file(name, serialize.channel_to_json(v))

    def spec(self, kind, inputs, params, output="report.json", name="spec.json") -> str:
        return self.file(
            name,
            {"kind": kind, "inputs": inputs, "params": params, "output": str(self.root / output)},
        )

    def out(self, name="report.json"):
        return self.root / name


@pytest.fixture()
def ws(tmp_path):
    return Workspace(tmp_path)


class TestExitCodes:
    def test_missing_spec_file(self, tmp_path):
        assert main(["verify-bri", str(tmp_path / "absent.json")]) == 2

    def test_unparseable_spec(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify-bri", str(path)]) == 2

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-subcommand", "x.json"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_kind_mismatch(self, ws):
        spec = ws.spec("capacity", {}, {})
        assert main(["verify-bri", spec]) == 3

    def test_missing_output(self, ws):
        path = ws.file("spec.json", {"kind": "verify-bri", "inputs": {}, "params": {}})
        assert main(["verify-bri", path]) == 3

    def test_missing_input_file_role(self, ws):
        spec = ws.spec("verify-bri", {}, {})
        assert main(["verify-bri", spec]) == 3

    def test_unreadable_referenced_file(self, ws):
        # referenced files follow the same parse contract as the spec file
        spec = ws.spec("verify-bri", {"bri": str(ws.root / "absent.json")}, {})
        assert main(["verify-bri", spec]) == 2

    def test_unparseable_referenced_file(self, ws):
        path = ws.root / "table.json"
        path.write_text("{half a table")
        spec = ws.spec("verify-bri", {"bri": str(path)}, {})
        assert main(["verify-bri", spec]) == 2

    def test_resource_cap_exit(self, ws):
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": 0.5, "ns": [3]},
        )
        assert main(["typicality-report", spec, "--cap", "4"]) == 5

    def test_typical_input_set_over_string_cap_exits_5(self, ws):
        # 32 input letters at n = 12: the 4096-dimensional product outputs
        # fit the operator cap, but the typical input set (12! strings per
        # type class) does not fit the string cap
        g = rng(7)
        v = CqChannel(range(32), 2, {x: random_density(g, 2) for x in range(32)})
        ws.channel("v.json", v)
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [1 / 32] * 32, "delta": 2.0, "ns": [12]},
        )
        assert main(["typicality-report", spec]) == 5

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_params_rejected_and_seed_allowed(self, ws, kind, capsys):
        spec = ws.spec(kind, {}, {"seed": 1, "bogus": 0})
        assert main([kind, spec]) == 3
        assert f"unknown params for {kind}: ['bogus']" in capsys.readouterr().err

    def test_main_leaves_environ_untouched(self, ws, monkeypatch):
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": 0.5, "ns": [3]},
        )
        before = dict(os.environ)
        assert main(["typicality-report", spec, "--cap", "4"]) == 5
        assert dict(os.environ) == before
        # the cap is an argument, not an environment variable
        monkeypatch.setenv("CQWIRETAP_CAP", "4")
        assert main(["typicality-report", spec]) == 0

    @pytest.mark.parametrize("key", ["p", "delta"])
    def test_typicality_report_missing_param_exits_3(self, ws, key, capsys):
        ws.channel("v.json", flip_channel())
        params = {"p": [0.6, 0.4], "delta": 0.5, "ns": [2]}
        del params[key]
        spec = ws.spec("typicality-report", {"channel": str(ws.root / "v.json")}, params)
        assert main(["typicality-report", spec]) == 3
        assert f"missing params for typicality-report: ['{key}']" in capsys.readouterr().err


GOLDEN = GOLDEN_INPUTS.parent
# subcommand -> the golden case whose spec is the valid base of its tests
GOLDEN_CASE = {
    "verify-bri": "verify-bri",
    "build-code": "build-code",
    "eval-leakage": "eval-leakage",
    "bound-chain": "bound-chain-typicality",
    "capacity": "capacity",
    "typicality-report": "typicality-report",
    "derandomize": "derandomize",
}


def golden_spec(ws, kind, edit=lambda spec: None) -> str:
    """The golden spec of ``kind`` with absolute input paths and the output
    in ``ws``, passed through ``edit`` and written to ``ws``."""
    spec = serialize.load_json(GOLDEN / f"{GOLDEN_CASE[kind]}.spec.json")
    spec["inputs"] = {role: str(GOLDEN / path) for role, path in spec["inputs"].items()}
    spec["output"] = str(ws.out())
    edit(spec)
    return ws.file("spec.json", spec)


class TestSpecTable:
    """Every top-level key, input role and params key is read before a
    handler runs: unknown ones, present nulls and values of the wrong type
    exit 3, name the key and write nothing."""

    @pytest.mark.parametrize("where", ["inputs", "spec"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_role_or_top_level_key_exits_3(self, ws, kind, where, capsys):
        # each once ran the golden case and ignored the key
        target = (lambda spec: spec["inputs"]) if where == "inputs" else (lambda spec: spec)
        spec = golden_spec(ws, kind, lambda spec: target(spec).update(bogus="x.json"))
        assert main([kind, spec]) == 3
        label = f"inputs for {kind}" if where == "inputs" else "spec keys"
        assert f"unknown {label}: ['bogus']" in capsys.readouterr().err
        assert not ws.out().exists()

    @staticmethod
    def rename(obj, old, new):
        obj[new] = obj.pop(old)

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            # derandomize once reported no leakage
            ("derandomize", lambda s: TestSpecTable.rename(s["inputs"], "channel_v", "channel_V"),
             "unknown inputs for derandomize: ['channel_V']"),
            # build-code once wrote the transmission code, not the modular one
            ("build-code", lambda s: TestSpecTable.rename(s["inputs"], "bri", "BRI"),
             "unknown inputs for build-code: ['BRI']"),
            # derandomize once ran with N = 1 and no budget
            ("derandomize", lambda s: TestSpecTable.rename(s, "params", "param"),
             "unknown spec keys: ['param']"),
        ],
        ids=["channel_V", "BRI", "param"],
    )
    def test_misspelled_key_exits_3(self, ws, kind, edit, message, capsys):
        assert main([kind, golden_spec(ws, kind, edit)]) == 3
        assert message in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("verify-bri", "seed", "abc"),
            ("verify-bri", "seed", True),
            ("verify-bri", "seed", None),
            ("verify-bri", "seed", 1.5),
            ("build-code", "n", "2"),
            ("build-code", "n", True),
            ("build-code", "n", None),
            ("build-code", "n", 2.0),
            ("build-code", "codewords", "00"),
            ("build-code", "codewords", True),
            ("build-code", "codewords", None),
            ("build-code", "max_error", "0.4"),
            ("build-code", "max_error", True),
            ("build-code", "max_error", None),
            ("build-code", "max_error", math.inf),
            ("build-code", "max_error", math.nan),
            ("build-code", "max_error", -0.1),
            ("eval-leakage", "m_dist", "uniform"),
            ("eval-leakage", "m_dist", True),
            ("eval-leakage", "m_dist", None),
            ("eval-leakage", "m_dist", [0.5, 0.5]),
            ("eval-leakage", "adversarial", "yes"),
            ("eval-leakage", "adversarial", None),
            ("eval-leakage", "restarts", "2"),
            ("eval-leakage", "restarts", True),
            ("eval-leakage", "restarts", None),
            ("eval-leakage", "restarts", 2.0),
            ("eval-leakage", "restarts", -1),
            ("bound-chain", "m_dist", "uniform"),
            ("bound-chain", "m_dist", True),
            ("bound-chain", "m_dist", None),
            ("bound-chain", "m_dist", [0.2, 0.3, 0.5]),
            ("bound-chain", "v_prime", "identity"),
            ("bound-chain", "v_prime", True),
            ("bound-chain", "v_prime", None),
            ("bound-chain", "seed", "1"),
            ("capacity", "n", "1"),
            ("capacity", "n", True),
            ("capacity", "n", None),
            ("capacity", "n", 1.0),
            ("capacity", "starts", "4"),
            ("capacity", "starts", None),
            ("capacity", "starts", 4.0),
            ("capacity", "seed", "3"),
            ("capacity", "seed", True),
            ("capacity", "seed", None),
            ("capacity", "seed", 3.0),
            ("typicality-report", "p", "0.6,0.4"),
            ("typicality-report", "p", True),
            ("typicality-report", "p", None),
            ("typicality-report", "p", [0.5, 0.25, 0.25]),
            ("typicality-report", "delta", "0.5"),
            ("typicality-report", "delta", True),
            ("typicality-report", "delta", None),
            ("typicality-report", "delta", math.inf),
            ("typicality-report", "ns", "2"),
            ("typicality-report", "ns", True),
            ("typicality-report", "ns", None),
            ("typicality-report", "ns", [2.0, 4]),
            ("typicality-report", "ns", []),
            ("typicality-report", "ns", [2, 2]),
            ("derandomize", "N", "2"),
            ("derandomize", "N", True),
            ("derandomize", "N", None),
            ("derandomize", "N", 2.0),
            ("derandomize", "eps", "0.5"),
            ("derandomize", "eps", True),
            ("derandomize", "eps", None),
            ("derandomize", "eps", math.inf),
            ("derandomize", "eps", -0.5),
            ("derandomize", "eps_prime", "0.5"),
            ("derandomize", "eps_prime", None),
            ("derandomize", "eps_prime", math.nan),
            ("derandomize", "eps_prime", -0.25),
        ],
    )
    def test_malformed_param_exits_3(self, ws, kind, key, value, capsys):
        spec = golden_spec(ws, kind, lambda spec: spec["params"].update({key: value}))
        assert main([kind, spec]) == 3
        assert f"params.{key}" in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize(
        "key, value",
        [("p", "0.6,0.4"), ("p", None), ("p", [0.5, 0.25, 0.25]),
         ("n", "2"), ("n", True), ("n", None), ("n", 2.0),
         ("delta", "0.5"), ("delta", None), ("delta", math.inf)],
    )
    def test_malformed_v_prime_key_exits_3(self, ws, key, value, capsys):
        spec = golden_spec(ws, "bound-chain", lambda spec: spec["params"]["v_prime"].update({key: value}))
        assert main(["bound-chain", spec]) == 3
        assert f"params.v_prime.{key}" in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize("factor", [None, math.inf, math.nan])
    def test_malformed_scale_factor_exits_3(self, ws, factor, capsys):
        v_prime = {"mode": "scale", "factor": factor}
        spec = golden_spec(ws, "bound-chain", lambda spec: spec["params"].update(v_prime=v_prime))
        assert main(["bound-chain", spec]) == 3
        assert "params.v_prime.factor" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_null_input_role_exits_3(self, ws, capsys):
        # build-code with "bri": null once ran as if the role were absent
        spec = golden_spec(ws, "build-code", lambda spec: spec["inputs"].update(bri=None))
        assert main(["build-code", spec]) == 3
        assert "inputs.bri" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_restarts_accepted_and_ignored(self, ws):
        spec = golden_spec(ws, "eval-leakage", lambda spec: spec["params"].update(restarts=1))
        assert main(["eval-leakage", spec]) == 0
        assert ws.out().read_bytes() == (GOLDEN / "eval-leakage.expected.json").read_bytes()


class TestVerifyBri:
    def test_bundled_section(self, ws):
        spec = ws.spec("verify-bri", {"bri": str(serialize.bundled("section_6x8.json"))}, {})
        assert main(["verify-bri", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["d_s"] == 4
        assert report["d_x"] == 3
        assert report["balance"] == [24, 24]
        assert report["irreducible"] is True
        assert report["ok"] is True

    def test_rerun_byte_identical(self, ws):
        spec = ws.spec("verify-bri", {"bri": str(serialize.bundled("section_6x8.json"))}, {})
        main(["verify-bri", spec])
        first = ws.out().read_bytes()
        main(["verify-bri", spec])
        assert ws.out().read_bytes() == first

    def test_not_biregular_exits_4(self, ws):
        path = ws.file("bad.json", {"S": 2, "X": 2, "M": [0], "table": [[0, 0], [0, 1]]})
        spec = ws.spec("verify-bri", {"bri": path}, {})
        assert main(["verify-bri", spec]) == 4

    def test_reducible_section_exits_4(self, ws):
        # biregular but disconnected: evens and odds never share an image
        table = [[0, 1, 0, 1], [1, 0, 1, 0]]
        path = ws.file("red.json", {"S": 2, "X": 4, "M": [0], "table": table})
        spec = ws.spec("verify-bri", {"bri": path}, {})
        assert main(["verify-bri", spec]) == 4
        report = serialize.load_json(ws.out())
        assert report["irreducible"] is False
        assert report["lambda2"][0][1] == 1.0

    def test_one_input_table(self, ws):
        path = ws.file("one.json", {"S": 2, "X": 1, "M": [0], "table": [[0], [0]]})
        spec = ws.spec("verify-bri", {"bri": path}, {})
        assert main(["verify-bri", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["irreducible"] is True
        assert report["lambda2"] == [[0, 0.0]]

    def test_out_flag_overrides(self, ws):
        spec = ws.spec("verify-bri", {"bri": str(serialize.bundled("section_6x8.json"))}, {})
        target = ws.root / "elsewhere.json"
        assert main(["verify-bri", spec, "--out", str(target)]) == 0
        assert target.is_file()


class TestBoundChain:
    def setup_spec(self, ws, v_prime, channel=None, m_dist=None, f=None):
        ws.channel("v.json", channel or flip_channel())
        bri_path = ws.file("f.json", xor_bri_json() if f is None else serialize.bri_to_json(f))
        params = {"v_prime": v_prime}
        if m_dist is not None:
            params["m_dist"] = m_dist
        return ws.spec(
            "bound-chain",
            {"channel": str(ws.root / "v.json"), "bri": bri_path},
            params,
        )

    def test_scale_mode_all_hold(self, ws):
        spec = self.setup_spec(ws, {"mode": "scale", "factor": 0.9})
        assert main(["bound-chain", spec]) == 0
        rows = serialize.load_json(ws.out())
        assert [r["name"] for r in rows] == [
            "leakage-vs-divergence",
            "divergence-vs-subnormalized",
            "divergence-vs-renyi2",
            "renyi2-vs-spectrum",
            "leakage-total",
        ]
        assert all(r["holds"] for r in rows)

    def test_csv_alongside_json(self, ws):
        spec = self.setup_spec(ws, {"mode": "identity"})
        assert main(["bound-chain", spec]) == 0
        csv = (ws.root / "report.csv").read_text()
        assert csv.splitlines()[0] == "name,lhs,rhs,slack"
        assert len(csv.splitlines()) == 6

    def test_rerun_byte_identical(self, ws):
        spec = self.setup_spec(ws, {"mode": "scale", "factor": 0.75})
        main(["bound-chain", spec])
        first = ws.out().read_bytes(), (ws.root / "report.csv").read_bytes()
        main(["bound-chain", spec])
        assert (ws.out().read_bytes(), (ws.root / "report.csv").read_bytes()) == first

    def test_typicality_mode_commuting(self, ws):
        # n = 2, delta = 0.5 admits exactly the two mixed-type strings,
        # matching the two-input function table
        spec = self.setup_spec(
            ws, {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5}
        )
        assert main(["bound-chain", spec]) == 0
        rows = serialize.load_json(ws.out())
        assert all(r["holds"] for r in rows)

    def test_typicality_mode_ordering_violation_exits_4(self, ws, capsys):
        # the 6 typical strings meet a 6-input function, so the exit comes
        # from the chain's own ordering check, not from a size mismatch
        spec = self.setup_spec(
            ws,
            {"mode": "typicality", "p": [0.55, 0.45], "n": 3, "delta": 0.5},
            channel=rotated_channel(51),
            f=bri.construct_exhaustive(3, 6, 3, 1.0),
        )
        assert main(["bound-chain", spec]) == 4
        assert "channel ordering violated at symbol 2" in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize("key", ["p", "n", "delta"])
    def test_typicality_mode_missing_key_exits_3(self, ws, key, capsys):
        v_prime = {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5}
        del v_prime[key]
        spec = self.setup_spec(ws, v_prime)
        assert main(["bound-chain", spec]) == 3
        err = capsys.readouterr().err
        assert f"missing keys for v_prime mode 'typicality': ['{key}']" in err

    @pytest.mark.parametrize(
        "key, value",
        [("n", 2.7), ("n", "2"), ("n", True), ("n", 2.0), ("delta", "0.5"), ("delta", True)],
    )
    def test_typicality_mode_malformed_value_exits_3(self, ws, key, value, capsys):
        # each would once run as n = 2 or delta = 0.5 (or 1.0)
        v_prime = {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5, key: value}
        spec = self.setup_spec(ws, v_prime)
        assert main(["bound-chain", spec]) == 3
        assert f"params.v_prime.{key}" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_typicality_mode_size_mismatch(self, ws):
        # delta = 1.5 admits all four strings, too many for a 2-input table
        spec = self.setup_spec(
            ws, {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 1.5}
        )
        assert main(["bound-chain", spec]) == 3

    def test_identity_mode_size_mismatch(self, ws, capsys):
        # a 4-input channel against the 2-input XOR table
        spec = self.setup_spec(ws, {"mode": "identity"}, channel=noiseless(4))
        assert main(["bound-chain", spec]) == 3
        assert "does not match the 2 function inputs" in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize("factor", ["0.9", True, None])
    def test_malformed_scale_factor_exits_3(self, ws, factor, capsys):
        spec = self.setup_spec(ws, {"mode": "scale", "factor": factor})
        assert main(["bound-chain", spec]) == 3
        assert "params.v_prime.factor" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_subnormalized_channel_file_exits_3(self, ws):
        # a channel file holds densities; a trace deficit belongs to V' only
        spec = self.setup_spec(ws, {"mode": "identity"}, channel=flip_channel().scaled(0.9))
        assert main(["bound-chain", spec]) == 3

    def test_bad_m_dist_length(self, ws):
        spec = self.setup_spec(ws, {"mode": "identity"}, m_dist=[0.2, 0.3, 0.5])
        assert main(["bound-chain", spec]) == 3

    @pytest.mark.parametrize("m_dist", [[1.2, -0.2], [0.6, 0.6]])
    def test_m_dist_not_a_probability_vector_exits_3(self, ws, m_dist):
        spec = self.setup_spec(ws, {"mode": "identity"}, m_dist=m_dist)
        assert main(["bound-chain", spec]) == 3

    def test_unknown_mode(self, ws):
        spec = self.setup_spec(ws, {"mode": "shrink"})
        assert main(["bound-chain", spec]) == 3

    def section_spec(self, ws, v_prime):
        # the bundled 6x8 function with a random qubit eavesdropper
        g = rng(53)
        ws.channel("v.json", CqChannel(range(8), 2, {x: random_density(g, 2) for x in range(8)}))
        return ws.spec(
            "bound-chain",
            {"channel": str(ws.root / "v.json"), "bri": str(serialize.bundled("section_6x8.json"))},
            {"v_prime": v_prime},
        )

    def test_unknown_v_prime_keys_rejected(self, ws):
        # "scale" is not a key of the scale mode (its factor is "factor"),
        # so this spec must not run silently as the identity V'
        spec = self.section_spec(ws, {"mode": "scale", "scale": 0.9})
        assert main(["bound-chain", spec]) == 3
        spec = self.section_spec(ws, {"mode": "identity", "factor": 0.9})
        assert main(["bound-chain", spec]) == 3
        spec = self.setup_spec(
            ws, {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5, "cap": 9}
        )
        assert main(["bound-chain", spec]) == 3

    def test_cap_bounds_the_product_not_the_seed_register(self, ws):
        # the leakage is taken per seed, so no |S| * d = 6 * 2 = 12 operator
        # is formed and a cap below 12 leaves the qubit chain running
        spec = self.section_spec(ws, {"mode": "identity"})
        assert main(["bound-chain", spec, "--cap", "8"]) == 0
        # the typicality mode still builds the d^n = 4 product channel
        v_prime = {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5}
        spec = self.setup_spec(ws, v_prime)
        assert main(["bound-chain", spec, "--cap", "4"]) == 0
        assert main(["bound-chain", spec, "--cap", "3"]) == 5


class TestCapacity:
    def test_v_equals_w_is_zero(self, ws):
        ws.channel("w.json", flip_channel())
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 11},
        )
        assert main(["capacity", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["value"] == 0.0
        assert report["converged"] is True

    def test_wedged_pair_stays_on_the_simplex(self, ws):
        # a fourth input that mixes two others, in both channels: with the
        # Newton point unbounded this run wrote value 5.3e16 with
        # converged true and exited 0
        w, v = wedged_pair(8, 1e-2, diagonal=True)
        ws.channel("w.json", w)
        ws.channel("v.json", v)
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 0},
        )
        assert main(["capacity", spec]) == 0
        report = serialize.load_json(ws.out())
        p = np.array(report["argmax"])
        assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12
        assert 0.0 <= report["value"] <= 1.0
        assert abs(holevo(p, w) - holevo(p, v) - report["value"]) <= 1e-12

    def test_seed_required(self, ws):
        ws.channel("w.json", flip_channel())
        ws.channel("v.json", noiseless(2))
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {},
        )
        assert main(["capacity", spec]) == 3

    def test_seed_flag_supplies_missing_seed(self, ws):
        ws.channel("w.json", noiseless(2))
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {},
        )
        assert main(["capacity", spec, "--seed", "7"]) == 0
        report = serialize.load_json(ws.out())
        assert report["value"] > 0.0

    def test_rerun_byte_identical(self, ws):
        ws.channel("w.json", noiseless(2))
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 3},
        )
        main(["capacity", spec])
        first = ws.out().read_bytes()
        main(["capacity", spec])
        assert ws.out().read_bytes() == first

    def test_non_finite_channel_file_exits_3(self, ws, capsys):
        # the golden capacity inputs with nan off-diagonals in one output
        clock = serialize.load_json(GOLDEN_INPUTS / "clock.json")
        out = serialize.matrix_from_json(clock["outputs"]["1"])
        out[0, 1] = out[1, 0] = math.nan
        clock["outputs"]["1"] = serialize.matrix_to_json(out)
        spec = ws.spec(
            "capacity",
            {"channel_w": str(GOLDEN_INPUTS / "qutrit.json"), "channel_v": ws.file("v.json", clock)},
            {"seed": 3, "starts": 4},
        )
        assert main(["capacity", spec]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_short_packed_matrix_exits_3(self, ws, capsys):
        # the golden clock channel with the last entry cut from one output
        clock = serialize.load_json(GOLDEN_INPUTS / "clock.json")
        out = serialize.matrix_from_json(clock["outputs"]["2"])
        clock["outputs"]["2"]["data"] = serialize.matrix_to_json(out.reshape(1, 4)[:, :3])["data"]
        spec = ws.spec(
            "capacity",
            {"channel_w": str(GOLDEN_INPUTS / "qutrit.json"), "channel_v": ws.file("v.json", clock)},
            {"seed": 3, "starts": 4},
        )
        assert main(["capacity", spec]) == 3
        assert "packed matrix data decodes to 48 bytes, expected 16*2*2 = 64" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_lifted_two_letter(self, ws):
        ws.channel("w.json", noiseless(2))
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 5, "n": 2},
        )
        assert main(["capacity", spec]) == 0
        assert serialize.load_json(ws.out())["n"] == 2

    def test_lifted_honours_starts(self, ws, monkeypatch):
        # n = 2 over two symbols searches four strings; starts = 1 draws one
        # Dirichlet start over them from the spec's generator, and no more
        ws.channel("w.json", noiseless(2))
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 5, "n": 2, "starts": 1},
        )
        used = []
        real = cli._rng
        monkeypatch.setattr(cli, "_rng", lambda params: used.append(real(params)) or used[-1])
        assert main(["capacity", spec]) == 0
        expected = rng(5)
        expected.dirichlet(np.ones(4))
        # the streams continue alike only if both made the same draws
        assert np.array_equal(used[0].random(4), expected.random(4))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 2.0),
            ("n", True),
            ("n", 0),
            ("n", 3),
            ("n", "2"),
            ("starts", -2),
            ("starts", True),
            ("starts", 4.0),
            ("starts", "4"),
        ],
    )
    def test_malformed_n_or_starts_rejected(self, ws, capsys, key, value):
        ws.channel("w.json", noiseless(2))
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "capacity",
            {"channel_w": str(ws.root / "w.json"), "channel_v": str(ws.root / "v.json")},
            {"seed": 5, key: value},
        )
        assert main(["capacity", spec]) == 3
        assert f"params.{key}" in capsys.readouterr().err
        assert not ws.out().exists()


class TestBuildAndEval:
    def build_spec(self, ws, with_bri=False, max_error=None):
        ws.channel("w.json", noiseless(2))
        inputs = {"channel": str(ws.root / "w.json")}
        if with_bri:
            inputs["bri"] = ws.file("f.json", xor_bri_json())
        params = {"n": 1, "codewords": [[0, [0]], [1, [1]]]}
        if max_error is not None:
            params["max_error"] = max_error
        return ws.spec("build-code", inputs, params, output="code.json")

    def test_transmission_code_written(self, ws):
        assert main(["build-code", self.build_spec(ws, max_error=0.0)]) == 0
        code = serialize.code_from_json(serialize.load_json(ws.root / "code.json"))
        assert isinstance(code, codes.TransmissionCode)
        assert codes.error_max(code, noiseless(2)) == 0.0

    def test_modular_code_written(self, ws):
        assert main(["build-code", self.build_spec(ws, with_bri=True)]) == 0
        code = serialize.code_from_json(serialize.load_json(ws.root / "code.json"))
        assert isinstance(code, codes.CommonRandomnessCode)
        assert code.seeds == (0, 1)

    @pytest.mark.parametrize(
        "key, value",
        [("n", 2.7), ("n", True), ("n", 1.0), ("n", "1"), ("n", 0),
         ("max_error", "0.4"), ("max_error", True), ("max_error", [0.4])],
    )
    def test_malformed_build_param_exits_3(self, ws, key, value, capsys):
        # each would once run, as n = 1 or 2 or with a budget of 0.4 or 1
        spec = self.build_spec(ws)
        obj = serialize.load_json(spec)
        obj["params"][key] = value
        ws.file("spec.json", obj)
        assert main(["build-code", spec]) == 3
        assert f"params.{key}" in capsys.readouterr().err
        assert not (ws.root / "code.json").exists()

    @pytest.mark.parametrize(
        "codewords, message",
        [([[0, ["0"]], [1, ["1"]], [0, ["1"]]], "message 0"),
         ([[0, ["0"]], [1, "1"]], "message 1")],
        ids=["repeated message", "string codeword"],
    )
    def test_malformed_codewords_exit_3(self, ws, codewords, message, capsys):
        # each once wrote a code: a repeated message kept its last codeword,
        # and the string "1" was read as the codeword ("1",)
        spec = self.build_spec(ws)
        eye = np.eye(2)
        ws.channel("w.json", CqChannel(("0", "1"), 2, {"0": np.outer(eye[0], eye[0]),
                                                        "1": np.outer(eye[1], eye[1])}))
        obj = serialize.load_json(spec)
        obj["params"]["codewords"] = codewords
        ws.file("spec.json", obj)
        assert main(["build-code", spec]) == 3
        assert message in capsys.readouterr().err
        assert not (ws.root / "code.json").exists()

    @pytest.mark.parametrize("adversarial", ["no", 1, 0, None, [True]])
    def test_malformed_adversarial_exits_3(self, ws, adversarial, capsys):
        # "no" once ran the search, 0 and null skipped it
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", noiseless(2))
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {"adversarial": adversarial},
            name="eval.json",
        )
        capsys.readouterr()
        assert main(["eval-leakage", spec]) == 3
        assert "params.adversarial" in capsys.readouterr().err
        assert not ws.out().exists()

    def test_error_budget_violation_exits_4(self, ws):
        ws.channel("w.json", flip_channel())
        spec = ws.spec(
            "build-code",
            {"channel": str(ws.root / "w.json")},
            {"n": 1, "codewords": [[0, [0]], [1, [1]]], "max_error": 0.0},
            output="code.json",
        )
        assert main(["build-code", spec]) == 4

    def test_eval_leakage_noiseless_bit(self, ws):
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", noiseless(2))
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {},
            name="eval.json",
        )
        assert main(["eval-leakage", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["leakage"] == pytest.approx(1.0, abs=1e-12)

    def test_adversarial_needs_no_seed(self, ws):
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", noiseless(2))
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {"adversarial": True},
            name="eval.json",
        )
        assert main(["eval-leakage", spec]) == 0
        worst = serialize.load_json(ws.out())["adversarial"]
        assert worst["converged"] and worst["upper"] - worst["value"] <= 1e-9

    def test_unknown_param_exits_3(self, ws):
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", noiseless(2))
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {"adversarial": True, "restart": 2},
            name="eval.json",
        )
        assert main(["eval-leakage", spec]) == 3

    def test_adversarial_reported(self, ws):
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {"adversarial": True, "seed": 2, "m_dist": [0.5, 0.5]},
            name="eval.json",
        )
        assert main(["eval-leakage", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["adversarial"]["value"] >= report["leakage"] - 1e-9
        assert report["adversarial"]["upper"] >= report["adversarial"]["value"]


    def test_adversarial_validates_the_stack_once(self, ws, monkeypatch):
        # the leakage and the adversarial search share one validated stack:
        # one eigvalsh over the (seeds, messages, d, d) outputs
        main(["build-code", self.build_spec(ws)])
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "eval-leakage",
            {"channel": str(ws.root / "v.json"), "code": str(ws.root / "code.json")},
            {"adversarial": True, "m_dist": [0.5, 0.5]},
            name="eval.json",
        )
        shapes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
        assert main(["eval-leakage", spec]) == 0
        stacks = [s for s in shapes if len(s) == 4]
        assert len(stacks) == 1 and stacks[0][:2] == (1, 2)


class TestEvalLeakageInputs:
    """eval-leakage on the inputs of the ``eval-leakage`` golden case."""

    def spec(self, ws, m_dist):
        inputs = {role: str(GOLDEN_INPUTS / name) for role, name in
                  (("channel", "eve_qubit.json"), ("code", "cr_3x8.json"))}
        return ws.spec("eval-leakage", inputs, {"m_dist": m_dist})

    @pytest.mark.parametrize("m_dist", [[1.2, -0.1, -0.1], [0.6, 0.6, 0.6], [0.5, 0.5]])
    def test_invalid_m_dist_exits_3(self, ws, m_dist, capsys):
        assert main(["eval-leakage", self.spec(ws, m_dist)]) == 3
        assert "params.m_dist" in capsys.readouterr().err
        assert not ws.out().exists()


class TestProbabilityVectors:
    """Every probability vector a spec carries is a JSON list of numbers:
    string or bool entries fail validation rather than being converted
    (["0.6", "0.4"] once ran as p = (0.6, 0.4), [true, false] as (1, 0))."""

    def spec(self, ws, where, entries):
        ws.channel("v.json", flip_channel())
        channel = str(ws.root / "v.json")
        if where == "eval-leakage m_dist":
            inputs = {role: str(GOLDEN_INPUTS / name) for role, name in
                      (("channel", "eve_qubit.json"), ("code", "cr_3x8.json"))}
            return "eval-leakage", ws.spec("eval-leakage", inputs, {"m_dist": entries(3)})
        if where == "typicality-report p":
            return "typicality-report", ws.spec(
                "typicality-report", {"channel": channel},
                {"p": entries(2), "delta": 0.5, "ns": [2]},
            )
        inputs = {"channel": channel, "bri": ws.file("f.json", xor_bri_json())}
        if where == "bound-chain m_dist":
            params = {"v_prime": {"mode": "identity"}, "m_dist": entries(2)}
        else:
            params = {"v_prime": {"mode": "typicality", "p": entries(2), "n": 2, "delta": 0.5}}
        return "bound-chain", ws.spec("bound-chain", inputs, params)

    @pytest.mark.parametrize(
        "where, key",
        [("eval-leakage m_dist", "params.m_dist"), ("bound-chain m_dist", "params.m_dist"),
         ("bound-chain v_prime.p", "params.v_prime.p"), ("typicality-report p", "params.p")],
    )
    @pytest.mark.parametrize(
        "entries",
        [lambda k: [str(1 / k)] * k, lambda k: [True] + [False] * (k - 1)],
        ids=["strings", "bools"],
    )
    def test_non_number_entries_exit_3(self, ws, where, key, entries, capsys):
        kind, spec = self.spec(ws, where, entries)
        assert main([kind, spec]) == 3
        assert f"{key} entry must be a number" in capsys.readouterr().err
        assert not ws.out().exists()


class TestTypicalityReport:
    def run_spec(self, ws, ns=(2, 3), channel=None):
        ws.channel("v.json", channel or flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": 0.5, "ns": list(ns)},
        )
        return main(["typicality-report", spec])

    def test_commuting_instance_ok(self, ws):
        assert self.run_spec(ws) == 0
        report = serialize.load_json(ws.out())
        assert [block["n"] for block in report["per_n"]] == [2, 3]
        assert report["trace_exponent"] is not None

    def test_csv_columns_and_frozen_trace(self, ws):
        self.run_spec(ws)
        lines = (ws.root / "report.csv").read_text().splitlines()
        assert lines[0].split(",")[:3] == ["n", "trace", "rank"]
        assert lines[0].count(",") == 16
        first = lines[1].split(",")
        # spectrum of the average state is (0.56, 0.44); at n = 2 only the
        # two mixed strings are typical, so the trace is 2 * 0.56 * 0.44
        assert float(first[1]) == pytest.approx(0.4928, abs=1e-12)

    def test_rerun_byte_identical(self, ws):
        self.run_spec(ws)
        first = ws.out().read_bytes(), (ws.root / "report.csv").read_bytes()
        self.run_spec(ws)
        assert (ws.out().read_bytes(), (ws.root / "report.csv").read_bytes()) == first

    def test_reruns_byte_identical_across_hash_seeds(self, ws):
        # string symbols iterate in hash order in a set; the conditional
        # profile multiplies traces and sums log extremes per symbol, so a
        # symbol order that followed the hash seed changed te4's last bit
        g = rng(5)
        v = CqChannel(("a", "b", "c"), 2, {x: random_density(g, 2) for x in "abc"})
        ws.channel("v.json", v)
        outputs = set()
        for seed in range(4):
            out = f"report-{seed}.json"
            spec = ws.spec(
                "typicality-report",
                {"channel": str(ws.root / "v.json")},
                {"p": [0.5, 0.3, 0.2], "delta": 1.0, "ns": [3, 5, 6]},
                output=out,
                name=f"spec-{seed}.json",
            )
            done = subprocess.run(
                [sys.executable, "-m", "cqwiretap.cli", "typicality-report", spec],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            assert done.returncode == 0, done.stderr
            outputs.add(
                (ws.out(out).read_bytes(), ws.out(out).with_suffix(".csv").read_bytes())
            )
        assert len(outputs) == 1

    def test_eigensolves_do_not_grow_with_block_lengths(self, monkeypatch):
        # the outputs, PV and each symbol are decomposed once per call: as
        # many d x d eigensolves for three block lengths as for one (at
        # n = 2 the rank R is 2, so its R x R solves count in both), and one
        # eigh of PV and of each symbol
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda a, _real=real, _name=name: calls.append((_name, a.shape[-2:])) or _real(a),
            )
        v, counts = flip_channel(), []
        for ns in ([2], [2, 4, 7]):
            calls.clear()
            assert len(typicality.typicality_reports(v, (0.6, 0.4), 0.5, ns)) == len(ns)
            counts.append((sum(shape == (2, 2) for _, shape in calls), calls.count(("eigh", (2, 2)))))
        assert counts[0] == counts[1]
        assert counts[0][1] == 3

    def test_noncommuting_eavesdropper_exits_0(self, ws):
        # V' <= V^n fails here (bound-chain exits 4 on it), but no report
        # depends on that ordering, and this run does not decide it
        ws.channel("v.json", rotated_channel(51))
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.55, 0.45], "delta": 0.5, "ns": [3]},
        )
        assert main(["typicality-report", spec]) == 0
        (block,) = serialize.load_json(ws.out())["per_n"]
        held = {r["name"]: r["holds"] for r in block["reports"]}
        assert all(held[name] for name in block["asserted"])

    def test_bad_ns(self, ws):
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": 0.5, "ns": [0]},
        )
        assert main(["typicality-report", spec]) == 3

    @pytest.mark.parametrize("ns", [[True], [2, 2.0], ["2"], 2])
    def test_malformed_ns_exits_3(self, ws, ns, capsys):
        # ns: [true] once ran as n = 1
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": 0.5, "ns": ns},
        )
        assert main(["typicality-report", spec]) == 3
        assert "params.ns" in capsys.readouterr().err
        assert not ws.out().exists()

    @pytest.mark.parametrize("delta", ["0.5", True, None, [0.5]])
    def test_malformed_delta_exits_3(self, ws, delta, capsys):
        ws.channel("v.json", flip_channel())
        spec = ws.spec(
            "typicality-report",
            {"channel": str(ws.root / "v.json")},
            {"p": [0.6, 0.4], "delta": delta, "ns": [2]},
        )
        assert main(["typicality-report", spec]) == 3
        assert "params.delta" in capsys.readouterr().err
        assert not ws.out().exists()


class TestDerandomize:
    def setup_files(self, ws):
        t = perfect_code(2)
        inner = codes.assemble_bri_modular(t, serialize.bri_from_json(xor_bri_json()))
        ws.channel("w.json", noiseless(2))
        ws.file("seed_code.json", serialize.code_to_json(t))
        ws.file("inner.json", serialize.code_to_json(inner))
        return {
            "channel_w": str(ws.root / "w.json"),
            "seed_code": str(ws.root / "seed_code.json"),
            "code": str(ws.root / "inner.json"),
        }

    def test_error_and_rate(self, ws):
        inputs = self.setup_files(ws)
        spec = ws.spec("derandomize", inputs, {"N": 2, "eps_prime": 0.0, "eps": 0.0})
        assert main(["derandomize", spec]) == 0
        report = serialize.load_json(ws.out())
        assert report["error"] == 0.0
        assert report["rate"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert report["n_total"] == 3
        assert report["messages"] == 4

    def test_leakage_budget_violation(self, ws):
        # the noiseless eavesdropper reads both message bits, so a zero
        # leakage budget must fail
        inputs = self.setup_files(ws)
        inputs["channel_v"] = inputs["channel_w"]
        spec = ws.spec("derandomize", inputs, {"N": 2, "eps_prime": 0.0, "eps": 0.0})
        assert main(["derandomize", spec]) == 4
        report = serialize.load_json(ws.out())
        assert report["leakage"] == pytest.approx(2.0, abs=1e-9)

    def test_generous_budget_holds(self, ws):
        inputs = self.setup_files(ws)
        inputs["channel_v"] = inputs["channel_w"]
        spec = ws.spec("derandomize", inputs, {"N": 2, "eps_prime": 0.1, "eps": 1.0})
        assert main(["derandomize", spec]) == 0

    def test_wrong_code_kinds(self, ws):
        inputs = self.setup_files(ws)
        inputs["seed_code"], inputs["code"] = inputs["code"], inputs["seed_code"]
        spec = ws.spec("derandomize", inputs, {"N": 1})
        assert main(["derandomize", spec]) == 3

    def test_misspelled_budget_exits_3(self, ws):
        # a silently dropped eps_prime would assert no budget at all
        inputs = self.setup_files(ws)
        spec = ws.spec("derandomize", inputs, {"N": 2, "eps_prim": 0.1})
        assert main(["derandomize", spec]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [("N", 2.7), ("N", True), ("N", 2.0), ("N", "2"), ("N", 0),
         ("eps", "0.5"), ("eps", True), ("eps_prime", "0.25"), ("eps_prime", False)],
    )
    def test_malformed_param_exits_3(self, ws, key, value, capsys):
        # N = 2.7 once ran as N = 2 while its budget charged eps * 2.7
        params = {"N": 2, "eps_prime": 0.25, "eps": 0.5, key: value}
        spec = ws.spec("derandomize", self.setup_files(ws), params)
        assert main(["derandomize", spec]) == 3
        assert f"params.{key}" in capsys.readouterr().err
        assert not ws.out().exists()

    def qutrit_files(self, ws):
        """A qutrit W under a qubit eavesdropper: at N = 2 the legitimate
        side has dimension 3 * 3^2 = 27, the eavesdropper's 2^3 = 8."""
        g = rng(61)
        eye = np.eye(3)
        w = CqChannel(range(3), 3, {x: 0.7 * np.outer(eye[x], eye[x]) + 0.1 * eye for x in range(3)})
        t = codes.transmission_code_pgm({c: (c,) for c in range(3)}, w, 1)
        cyclic3 = {"S": 3, "X": 3, "M": [0, 1, 2], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        inner = codes.assemble_bri_modular(t, serialize.bri_from_json(cyclic3))
        v = CqChannel(range(3), 2, {x: random_density(g, 2) for x in range(3)})
        return {
            "channel_w": ws.channel("w.json", w),
            "seed_code": ws.file("seed_code.json", serialize.code_to_json(t)),
            "code": ws.file("inner.json", serialize.code_to_json(inner)),
            "channel_v": ws.channel("v.json", v),
        }

    def test_legitimate_side_over_cap_is_never_built(self, ws):
        spec = ws.spec("derandomize", self.qutrit_files(ws), {"N": 2})
        assert main(["derandomize", spec, "--cap", "8"]) == 0
        report = serialize.load_json(ws.out())
        assert report["n_total"] == 3 and report["messages"] == 9
        assert report["leakage"] > 0.0

    def test_eavesdropper_over_cap_exits_5(self, ws):
        spec = ws.spec("derandomize", self.qutrit_files(ws), {"N": 2})
        assert main(["derandomize", spec, "--cap", "7"]) == 5


class TestConsoleScript:
    def test_installed_entry_point(self, ws):
        exe = shutil.which("cqwiretap")
        if exe is None:
            pytest.skip("console script not installed")
        spec = ws.spec("verify-bri", {"bri": str(serialize.bundled("section_6x8.json"))}, {})
        done = subprocess.run([exe, "verify-bri", spec], capture_output=True, text=True)
        assert done.returncode == 0
        assert "d_S=4 d_X=3" in done.stdout

    def test_module_invocation(self, ws):
        spec = ws.spec("verify-bri", {"bri": str(serialize.bundled("section_6x8.json"))}, {})
        done = subprocess.run(
            [sys.executable, "-m", "cqwiretap.cli", "verify-bri", spec],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
