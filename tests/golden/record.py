"""Golden CLI outputs: the specs, their inputs and the expected bytes.

Each case is one CLI run.  ``<case>.spec.json`` is the spec, with input
paths relative to this directory; ``<case>.expected.json`` (and
``.expected.csv`` when the subcommand writes a table) are the exact bytes
of its report, and ``exits.json`` holds the exit code of every case.
``tests/test_golden.py`` reruns every case and requires the same exit
code and byte-identical reports.

Regenerate the inputs, specs and expected outputs with

    PYTHONPATH=src python tests/golden/record.py

only when an output change is intended, and name the change.  For every
case whose bytes change, the script prints each changed value, old -> new,
with its relative change, ready to be quoted.
"""

from __future__ import annotations

import cmath
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from cqwiretap import codes, serialize
from cqwiretap.channels import ClassicalChannel, CqChannel
from cqwiretap.cli import main
from cqwiretap.errors import InvalidStateError

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"

_FLIP_TYPICALITY = {"mode": "typicality", "p": [0.6, 0.4], "n": 2, "delta": 0.5}

# case name -> (kind, inputs relative to GOLDEN, params)
CASES = {
    "bound-chain-identity": (
        "bound-chain",
        {"channel": "inputs/eve_qubit.json", "bri": "inputs/section_6x8.json"},
        {"v_prime": {"mode": "identity"}},
    ),
    "bound-chain-scale": (
        "bound-chain",
        {"channel": "inputs/eve_qubit.json", "bri": "inputs/section_6x8.json"},
        {"v_prime": {"mode": "scale", "factor": 0.9}},
    ),
    "bound-chain-typicality": (
        "bound-chain",
        {"channel": "inputs/flip.json", "bri": "inputs/xor.json"},
        {"v_prime": _FLIP_TYPICALITY},
    ),
    "bound-chain-typicality-haar": (
        "bound-chain",
        {"channel": "inputs/flip_haar.json", "bri": "inputs/cyclic3.json"},
        {"v_prime": {"mode": "typicality", "p": [2 / 3, 1 / 3], "n": 3, "delta": 0.5}},
    ),
    "eval-leakage": (
        "eval-leakage",
        {"channel": "inputs/eve_qubit.json", "code": "inputs/cr_3x8.json"},
        {"m_dist": [0.5, 0.3, 0.2]},
    ),
    "eval-leakage-adversarial": (
        "eval-leakage",
        {"channel": "inputs/eve_qubit.json", "code": "inputs/cr_3x8.json"},
        {"adversarial": True, "restarts": 2, "seed": 5},
    ),
    "capacity": (
        "capacity",
        {"channel_w": "inputs/qutrit.json", "channel_v": "inputs/clock.json"},
        {"seed": 3, "starts": 4},
    ),
    "typicality-report": (
        "typicality-report",
        {"channel": "inputs/flip.json"},
        {"p": [0.6, 0.4], "delta": 0.5, "ns": [2, 4]},
    ),
    "typicality-report-qutrit": (
        "typicality-report",
        {"channel": "inputs/qutrit.json"},
        {"p": [0.5, 0.25, 0.25], "delta": 1.0, "ns": [2, 4]},
    ),
    "typicality-report-clock": (
        "typicality-report",
        {"channel": "inputs/clock.json"},
        {"p": [1 / 3, 1 / 3, 1 / 3], "delta": 1.0, "ns": [2, 3]},
    ),
    "verify-bri": ("verify-bri", {"bri": "inputs/section_6x8.json"}, {}),
    "build-code": (
        "build-code",
        {"channel": "inputs/qutrit.json", "bri": "inputs/cyclic3.json"},
        {"n": 2, "codewords": [[c, [c, c]] for c in range(3)], "max_error": 0.4},
    ),
    "derandomize": (
        "derandomize",
        {
            "channel_w": "inputs/qutrit.json",
            "seed_code": "inputs/seed_qutrit.json",
            "code": "inputs/cr_qutrit.json",
            "channel_v": "inputs/clock.json",
        },
        {"N": 2, "eps": 0.5, "eps_prime": 0.5},
    ),
}


def _qubit_eavesdropper(seed: int = 53) -> CqChannel:
    """Eight random full-rank qubit densities from a Philox generator."""
    g = np.random.Generator(np.random.Philox(seed))
    outputs = {}
    for x in range(8):
        a = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        rho = a @ a.conj().T
        outputs[x] = rho / np.trace(rho).real
    return CqChannel(range(8), 2, outputs)


def _haar(g: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _flip_haar(seed: int = 11) -> CqChannel:
    """The 0.8/0.2 flip channel in one Haar frame.

    Its eigenvectors are not unit vectors, so every column of a typical
    projector is a product of dense basis columns."""
    u = _haar(np.random.Generator(np.random.Philox(seed)), 2)
    outputs = {x: u @ np.diag(s) @ u.conj().T for x, s in enumerate(((0.8, 0.2), (0.2, 0.8)))}
    return CqChannel(range(2), 2, outputs)


def _clock_channel(heavy: float = 0.8) -> CqChannel:
    """Three real rotations of one qubit spectrum, 60 degrees apart.

    The outputs do not commute, and their uniform average is exactly I/2."""
    outputs = {}
    for k in range(3):
        c, s = math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)
        u = np.array([[c, -s], [s, c]])
        outputs[k] = u @ np.diag([heavy, 1.0 - heavy]) @ u.T
    return CqChannel(range(3), 2, outputs)


def _qutrit_channel(seed: int = 7) -> CqChannel:
    """Three commuting qutrit outputs with distinct spectra in one Haar frame.

    In the rotated frame every spectrum is three rounded eigenvalues, so
    the order in which the reports sum them shows in the last bits."""
    g = np.random.Generator(np.random.Philox(seed))
    u = _haar(g, 3)
    spectra = ((0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7))
    outputs = {x: u @ np.diag(s) @ u.conj().T for x, s in enumerate(spectra)}
    return CqChannel(range(3), 3, outputs)


def _cr_code() -> codes.CommonRandomnessCode:
    """Two seeds, three messages, stochastic encoders into eight inputs."""
    rows = {
        0: {0: {(0,): 0.5, (1,): 0.5}, 1: {(2,): 0.75, (3,): 0.25}, 2: {(4,): 1.0}},
        1: {0: {(5,): 1.0}, 1: {(6,): 0.5, (0,): 0.5}, 2: {(7,): 0.25, (2,): 0.75}},
    }
    decoders = {m: np.eye(2) / 3.0 for m in range(3)}
    return codes.CommonRandomnessCode({
        s: codes.WiretapCode(ClassicalChannel(range(3), rows[s]), decoders, n=1, dim=2)
        for s in rows
    })


def _qutrit_codes() -> tuple:
    """Square-root-measurement codewords 0, 1, 2 over the qutrit channel:
    the transmission code itself (it sends the seed) and its modular code
    along the cyclic function (three seeds, three messages)."""
    t = codes.transmission_code_pgm({c: (c,) for c in range(3)}, _qutrit_channel(), 1)
    cyclic3 = serialize.bri_from_json(serialize.load_json(INPUTS / "cyclic3.json"))
    return t, codes.assemble_bri_modular(t, cyclic3)


def write_inputs() -> None:
    INPUTS.mkdir(exist_ok=True)
    shutil.copyfile(serialize.bundled("section_6x8.json"), INPUTS / "section_6x8.json")
    serialize.dump_json(serialize.channel_to_json(_qubit_eavesdropper()), INPUTS / "eve_qubit.json")
    flip = CqChannel((0, 1), 2, {0: np.diag([0.8, 0.2]), 1: np.diag([0.2, 0.8])})
    serialize.dump_json(serialize.channel_to_json(flip), INPUTS / "flip.json")
    serialize.dump_json(serialize.channel_to_json(_qutrit_channel()), INPUTS / "qutrit.json")
    serialize.dump_json(serialize.channel_to_json(_flip_haar()), INPUTS / "flip_haar.json")
    serialize.dump_json(serialize.channel_to_json(_clock_channel()), INPUTS / "clock.json")
    serialize.dump_json(serialize.code_to_json(_cr_code()), INPUTS / "cr_3x8.json")
    xor = {"S": 2, "X": 2, "M": [0, 1], "table": [[0, 1], [1, 0]]}
    serialize.dump_json(xor, INPUTS / "xor.json")
    cyclic3 = {"S": 3, "X": 3, "M": [0, 1, 2], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    serialize.dump_json(cyclic3, INPUTS / "cyclic3.json")
    seed_code, cr_code = _qutrit_codes()
    serialize.dump_json(serialize.code_to_json(seed_code), INPUTS / "seed_qutrit.json")
    serialize.dump_json(serialize.code_to_json(cr_code), INPUTS / "cr_qutrit.json")
    for name, (kind, inputs, params) in CASES.items():
        spec = {"kind": kind, "inputs": inputs, "params": params, "output": f"{name}.json"}
        serialize.dump_json(spec, GOLDEN / f"{name}.spec.json")


def run_case(name: str, workdir: Path, root: Path = GOLDEN) -> tuple:
    """Run one case in ``workdir``, its input paths taken relative to
    ``root``; return (exit code, JSON bytes, CSV bytes or None)."""
    spec = json.loads((GOLDEN / f"{name}.spec.json").read_text())
    spec["inputs"] = {role: str(root / path) for role, path in spec["inputs"].items()}
    spec_path = workdir / f"{name}.spec.json"
    serialize.dump_json(spec, spec_path)
    out = workdir / f"{name}.json"
    code = main([spec["kind"], str(spec_path), "--out", str(out)])
    csv = out.with_suffix(".csv")
    return code, out.read_bytes(), csv.read_bytes() if csv.exists() else None


def _json_values(data: bytes):
    """(path, value) for every scalar of a JSON report, in file order.

    A matrix, in either layout, yields its complex entries, each with its
    ``(row, column)`` after the matrix path, so a layout change alone
    shows no value change."""

    def walk(obj, path):
        if isinstance(obj, (dict, list)):
            try:
                matrix = serialize.matrix_from_json(obj)
            except InvalidStateError:
                pass
            else:
                for i, row in enumerate(matrix.tolist()):
                    for j, value in enumerate(row):
                        yield f"{path}({i}, {j})", value
                return
        if isinstance(obj, dict):
            for key, value in obj.items():
                yield from walk(value, f"{path}.{key}" if path else key)
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                yield from walk(value, f"{path}[{i}]")
        else:
            yield path, obj

    return walk(json.loads(data), "")


def _csv_values(data: bytes):
    """(row and column, value) for every cell of a CSV table below its header."""
    header, *rows = (line.split(",") for line in data.decode().splitlines())
    for r, row in enumerate(rows, 1):
        for column, cell in zip(header, row):
            try:
                yield f"row {r} {column}", float(cell)
            except ValueError:
                yield f"row {r} {column}", cell


def _number(value) -> bool:
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def drift(old: bytes, new: bytes, values) -> list:
    """One line per value that differs between two reports, old -> new,
    with the relative change of numbers."""
    before, after = dict(values(old)), dict(values(new))
    lines = []
    for path in {**before, **after}:
        a, b = before.get(path), after.get(path)
        if a == b or (_number(a) and _number(b) and cmath.isnan(a) and cmath.isnan(b)):
            continue
        line = f"  {path}: {a!r} -> {b!r}"
        if _number(a) and _number(b):
            rel = abs(b - a) / abs(a) if a else math.inf
            line += f" (relative change {rel:.1e})"
        lines.append(line)
    return lines or ["  the bytes changed, no value did"]


def _write(path: Path, data: bytes, values) -> None:
    """Write ``data`` to ``path``, printing the drift from what was there."""
    if path.exists() and path.read_bytes() != data:
        print(f"{path.name}:")
        print("\n".join(drift(path.read_bytes(), data, values)))
    path.write_bytes(data)


def record() -> None:
    write_inputs()
    exits_path = GOLDEN / "exits.json"
    old_exits = json.loads(exits_path.read_text()) if exits_path.exists() else {}
    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            code, report, csv = run_case(name, Path(tmp))
            exits[name] = code
            if name in old_exits and old_exits[name] != code:
                print(f"{name}: exit code {old_exits[name]} -> {code}")
            _write(GOLDEN / f"{name}.expected.json", report, _json_values)
            if csv is not None:
                _write(GOLDEN / f"{name}.expected.csv", csv, _csv_values)
    serialize.dump_json(exits, exits_path)


if __name__ == "__main__":
    record()
    sys.exit(0)
