"""JSON and CSV formats for channels, functions, codes, and reports.

Conventions shared by every format here:

* A complex matrix is written as ``{"data": ..., "shape": [rows, cols]}``:
  ``data`` is the RFC 4648 base64 text, without line breaks, of the
  row-major little-endian complex128 bytes, so a round trip is bit-exact
  (signed zeros and NaN payloads included) and the file does not depend on
  the platform.  Readers also accept the older, hand-writable form, a
  nested list of rows whose entries are two-element ``[re, im]`` lists.
  Loading always yields a native complex array.
* A channel file is ``{"alphabet": [...], "dim": d, "outputs": {...}}``
  where ``outputs`` is keyed by ``str(symbol)``; alphabet entries are
  restricted to ints and strings so the keys stay unambiguous.  Every
  output must be a density operator (unit trace).
* A function table file is ``{"S": n_s, "X": n_x, "M": [...], "table": ...}``
  with the table either a list of S rows of X output indices or the same
  entries as one flat row-major list.
* Code files carry a ``"type"`` tag (``transmission``, ``wiretap``,
  ``common-randomness``).  Anything keyed by a message or seed is stored
  as a sorted list of ``[key, value]`` pairs instead of a JSON object, so
  integer keys survive a round trip.
* Bound reports serialize to a list of objects (JSON) or to CSV with
  columns ``name,lhs,rhs,slack``.

Writers produce byte-identical output for equal inputs: keys are sorted,
floats use their shortest round-trip representation, and files end with a
newline.  Infinite values appear as the Python literals ``Infinity`` /
``-Infinity``, which :func:`json.loads` accepts back.

Malformed structure raises :class:`~cqwiretap.errors.InvalidStateError`;
JSON syntax errors propagate as :class:`json.JSONDecodeError`.
"""

from __future__ import annotations

import binascii
import importlib.resources
import json

import numpy as np

from .bri import BriFunction
from .channels import ClassicalChannel, CqChannel
from .codes import CommonRandomnessCode, TransmissionCode, WiretapCode
from .config import TOL_TRACE
from .errors import InvalidStateError

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "bri_to_json",
    "bri_from_json",
    "code_to_json",
    "code_from_json",
    "reports_to_json",
    "reports_to_csv",
    "canonical_json",
    "dump_json",
    "load_json",
    "bundled",
]


def _require(obj, key, kind, what):
    if not isinstance(obj, dict):
        raise InvalidStateError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidStateError(f"{what} is missing the {key!r} field")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise InvalidStateError(f"{what} field {key!r} has type {type(value).__name__}")
    return value


def _symbol(value, what):
    # bool is an int subclass but makes a useless alphabet symbol
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InvalidStateError(f"{what} must be an int or string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(a) -> dict:
    a = np.ascontiguousarray(a, dtype="<c16")
    if a.ndim != 2:
        raise InvalidStateError(f"matrix must be 2-dimensional, got shape {a.shape}")
    data = binascii.b2a_base64(a, newline=False).decode("ascii")
    return {"data": data, "shape": list(a.shape)}


def matrix_from_json(obj) -> np.ndarray:
    if type(obj) is dict:
        return _packed_from_json(obj)
    if not isinstance(obj, list) or not obj:
        raise InvalidStateError("matrix must be a {data, shape} object or a non-empty list of rows")
    fault = _matrix_fault(obj)
    if fault is not None:
        raise InvalidStateError(fault)
    return np.array(obj, dtype=float).view(complex).reshape(len(obj), -1)


def _packed_from_json(obj) -> np.ndarray:
    """The matrix of a ``{"data", "shape"}`` object, as a native complex
    array that owns its data."""
    if set(obj) != {"data", "shape"}:
        keys = sorted(map(str, obj))
        raise InvalidStateError(
            f"packed matrix must have exactly the keys 'data' and 'shape', got {keys}"
        )
    shape, data = obj["shape"], obj["data"]
    if (
        type(shape) is not list or len(shape) != 2
        or any(type(n) is not int or n < 1 for n in shape)
    ):
        raise InvalidStateError(f"packed matrix shape must be two ints >= 1, got {shape!r}")
    if type(data) is not str:
        kind = type(data).__name__
        raise InvalidStateError(f"packed matrix data must be a base64 string, got {kind}")
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except ValueError as err:  # binascii.Error, or a non-ASCII string
        raise InvalidStateError(f"packed matrix data is not strict base64: {err}") from None
    rows, cols = shape
    if len(raw) != 16 * rows * cols:
        raise InvalidStateError(
            f"packed matrix data decodes to {len(raw)} bytes, "
            f"expected 16*{rows}*{cols} = {16 * rows * cols}"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(rows, cols).astype(complex)


def _matrix_fault(obj) -> str | None:
    """The message for the first malformed row or entry of the non-empty
    list ``obj``, or None when it is a well-formed nested matrix."""
    width = len(obj[0]) if type(obj[0]) is list else None
    for i, row in enumerate(obj):
        if type(row) is not list or not row:
            return f"matrix row {i} must be a non-empty list"
        if len(row) != width:
            return f"matrix row {i} has {len(row)} entries, expected {width}"
        for j, e in enumerate(row):
            if type(e) is not list or len(e) != 2 or not {type(e[0]), type(e[1])} <= {int, float}:
                return f"matrix entry ({i}, {j}) must be a [re, im] pair"


# ---------------------------------------------------------------------------
# channels


def channel_to_json(v: CqChannel) -> dict:
    keys = [str(x) for x in v.alphabet]
    if len(set(keys)) != len(keys):
        raise InvalidStateError("alphabet symbols collide under str()")
    alphabet = [_symbol(x, "channel alphabet entry") for x in v.alphabet]
    return {
        "alphabet": alphabet,
        "dim": int(v.dim),
        "outputs": {str(x): matrix_to_json(v.output(x)) for x in v.alphabet},
    }


def channel_from_json(obj) -> CqChannel:
    alphabet = _require(obj, "alphabet", list, "channel spec")
    dim = _require(obj, "dim", int, "channel spec")
    outputs_obj = _require(obj, "outputs", dict, "channel spec")
    alphabet = tuple(_symbol(x, "channel alphabet entry") for x in alphabet)
    if not alphabet:
        raise InvalidStateError("channel alphabet is empty")
    keys = [str(x) for x in alphabet]
    if len(set(keys)) != len(keys):
        raise InvalidStateError("alphabet symbols collide under str()")
    if set(outputs_obj) != set(keys):
        raise InvalidStateError("outputs do not cover the alphabet exactly")
    outputs = {x: matrix_from_json(outputs_obj[str(x)]) for x in alphabet}
    for x, a in outputs.items():
        if a.shape != (dim, dim):
            raise InvalidStateError(f"output for {x!r} has shape {a.shape}, expected ({dim}, {dim})")
    v = CqChannel(alphabet, dim, outputs)
    if v.epsilon > TOL_TRACE:
        raise InvalidStateError(f"channel outputs must have unit trace, deficit {v.epsilon!r}")
    return v


# ---------------------------------------------------------------------------
# biregular functions


def bri_to_json(f: BriFunction) -> dict:
    return {
        "S": int(f.n_seeds),
        "X": int(f.n_inputs),
        "M": [int(m) for m in f.regularity_set],
        "table": [[int(e) for e in row] for row in f.table],
    }


def bri_from_json(obj) -> BriFunction:
    n_s = _require(obj, "S", int, "function table spec")
    n_x = _require(obj, "X", int, "function table spec")
    reg = _require(obj, "M", list, "function table spec")
    table = _require(obj, "table", list, "function table spec")
    if n_s < 1 or n_x < 1:
        raise InvalidStateError(f"need positive S and X, got S={n_s}, X={n_x}")
    if table and all(isinstance(e, int) and not isinstance(e, bool) for e in table):
        if len(table) != n_s * n_x:
            raise InvalidStateError(
                f"flat table has {len(table)} entries, expected S*X = {n_s * n_x}"
            )
        rows = [table[s * n_x : (s + 1) * n_x] for s in range(n_s)]
    else:
        if len(table) != n_s:
            raise InvalidStateError(f"table has {len(table)} rows, expected S = {n_s}")
        rows = []
        for s, row in enumerate(table):
            if (
                not isinstance(row, list)
                or len(row) != n_x
                or not all(isinstance(e, int) and not isinstance(e, bool) for e in row)
            ):
                raise InvalidStateError(f"table row {s} must be a list of {n_x} output indices")
            rows.append(row)
    return BriFunction(np.array(rows, dtype=np.int64), tuple(reg))


# ---------------------------------------------------------------------------
# codes


def _string_to_json(xn) -> list:
    return [_symbol(x, "codeword symbol") for x in xn]


def _string_from_json(obj, what) -> tuple:
    if not isinstance(obj, list):
        raise InvalidStateError(f"{what} must be a list of symbols")
    return tuple(_symbol(x, what + " symbol") for x in obj)


def _pairs_to_json(mapping, value_fn) -> list:
    return [[_symbol(k, "message key"), value_fn(v)] for k, v in sorted(mapping.items(), key=lambda kv: str(kv[0]))]


def _pairs_from_json(obj, value_fn, what) -> dict:
    if not isinstance(obj, list):
        raise InvalidStateError(f"{what} must be a list of [key, value] pairs")
    out = {}
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidStateError(f"{what} entries must be [key, value] pairs")
        key = _symbol(item[0], what + " key")
        if key in out:
            raise InvalidStateError(f"{what} repeats key {key!r}")
        out[key] = value_fn(item[1])
    if not out:
        raise InvalidStateError(f"{what} is empty")
    return out


def _row_to_json(row) -> list:
    items = sorted(row.items(), key=lambda kv: tuple(str(x) for x in kv[0]))
    return [[_string_to_json(xn), float(p)] for xn, p in items]


def _row_from_json(obj) -> dict:
    if not isinstance(obj, list) or not obj:
        raise InvalidStateError("encoder row must be a non-empty list of [string, prob] pairs")
    row = {}
    for item in obj:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[1], (int, float))
            or isinstance(item[1], bool)
        ):
            raise InvalidStateError("encoder row entries must be [string, prob] pairs")
        row[_string_from_json(item[0], "encoder string")] = float(item[1])
    return row


def code_to_json(code) -> dict:
    if isinstance(code, TransmissionCode):
        return {
            "type": "transmission",
            "n": int(code.n),
            "dim": int(code.dim),
            "messages": [_symbol(m, "message") for m in code.messages],
            "codewords": _pairs_to_json(code.codewords, _string_to_json),
            "decoders": _pairs_to_json(code.decoders, matrix_to_json),
        }
    if isinstance(code, WiretapCode):
        return {
            "type": "wiretap",
            "n": int(code.n),
            "dim": int(code.dim),
            "messages": [_symbol(m, "message") for m in code.messages],
            "encoder": _pairs_to_json(code.encoder.rows, _row_to_json),
            "decoders": _pairs_to_json(code.decoders, matrix_to_json),
        }
    if isinstance(code, CommonRandomnessCode):
        return {
            "type": "common-randomness",
            "codes": _pairs_to_json(code.per_seed, code_to_json),
        }
    raise InvalidStateError(f"cannot serialize {type(code).__name__} as a code")


def _message_order(obj, mapping, what) -> tuple:
    # stored order wins; sorted-pair file order is a str-sort artifact
    order = _require(obj, "messages", list, "code spec")
    messages = tuple(_symbol(m, "message") for m in order)
    if set(messages) != set(mapping) or len(messages) != len(mapping):
        raise InvalidStateError(f"messages do not match the {what} keys")
    return messages


def code_from_json(obj):
    kind = _require(obj, "type", str, "code spec")
    if kind == "transmission":
        n = _require(obj, "n", int, "code spec")
        dim = _require(obj, "dim", int, "code spec")
        codewords = _pairs_from_json(
            _require(obj, "codewords", list, "code spec"),
            lambda v: _string_from_json(v, "codeword"),
            "codewords",
        )
        decoders = _pairs_from_json(
            _require(obj, "decoders", list, "code spec"), matrix_from_json, "decoders"
        )
        messages = _message_order(obj, codewords, "codeword")
        return TransmissionCode({m: codewords[m] for m in messages}, decoders, n, dim)
    if kind == "wiretap":
        n = _require(obj, "n", int, "code spec")
        dim = _require(obj, "dim", int, "code spec")
        rows = _pairs_from_json(
            _require(obj, "encoder", list, "code spec"), _row_from_json, "encoder"
        )
        decoders = _pairs_from_json(
            _require(obj, "decoders", list, "code spec"), matrix_from_json, "decoders"
        )
        messages = _message_order(obj, rows, "encoder")
        return WiretapCode(ClassicalChannel(messages, rows), decoders, n, dim)
    if kind == "common-randomness":
        per_seed = _pairs_from_json(
            _require(obj, "codes", list, "code spec"), code_from_json, "codes"
        )
        for s, inner in per_seed.items():
            if not isinstance(inner, WiretapCode):
                raise InvalidStateError(f"seed {s!r} does not hold a wiretap code")
        return CommonRandomnessCode(per_seed)
    raise InvalidStateError(f"unknown code type {kind!r}")


# ---------------------------------------------------------------------------
# reports


def reports_to_json(reports) -> list:
    return [
        {
            "name": r.name,
            "lhs": float(r.lhs),
            "rhs": float(r.rhs),
            "slack": float(r.slack),
            "holds": bool(r.holds),
        }
        for r in reports
    ]


def reports_to_csv(reports) -> str:
    lines = ["name,lhs,rhs,slack"]
    for r in reports:
        lines.append(f"{r.name},{float(r.lhs)!r},{float(r.rhs)!r},{float(r.slack)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# files


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline: sorted
    keys, shortest round-trip floats, ``NaN`` and ``Infinity``, ASCII
    escapes.  Any other type (``np.int64`` included) raises
    :class:`TypeError`, and a circular structure :class:`ValueError`."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bundled(name: str):
    """Filesystem path of a data file shipped with the package."""
    path = importlib.resources.files("cqwiretap") / "data" / name
    if not path.is_file():
        raise InvalidStateError(f"no bundled data file named {name!r}")
    return path
