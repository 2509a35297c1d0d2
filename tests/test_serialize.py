"""Tests for the JSON/CSV file formats.

Round trips are checked for exact equality (the writers use shortest
round-trip float text), frozen golden strings pin the wire format, and
malformed documents are matched against hand-built JSON objects rather
than anything produced by the writers themselves.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cq_channel, random_unitary, rng

from cqwiretap import bri, codes, serialize
from cqwiretap.bounds import make_report
from cqwiretap.channels import ClassicalChannel, CqChannel
from cqwiretap.errors import InvalidStateError

ROOT = Path(__file__).resolve().parent.parent


def xor_table() -> bri.BriFunction:
    return bri.BriFunction(np.array([[0, 1], [1, 0]]), (0, 1))


def small_transmission() -> codes.TransmissionCode:
    eye = np.eye(2)
    return codes.TransmissionCode(
        {1: (0,), 0: (1,)},
        {1: np.outer(eye[0], eye[0]), 0: np.outer(eye[1], eye[1])},
        n=1,
        dim=2,
    )


def small_wiretap() -> codes.WiretapCode:
    enc = ClassicalChannel(
        (0, 1),
        {0: {(0, 0): 0.5, (1, 1): 0.5}, 1: {(0, 1): 1.0}},
    )
    quarter = np.eye(4) / 4.0
    return codes.WiretapCode(enc, {0: quarter, 1: quarter}, n=2, dim=4)


class TestMatrix:
    def test_golden_identity(self):
        obj = serialize.matrix_to_json(np.eye(2))
        assert obj == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def test_complex_entries_preserved(self):
        a = np.array([[1 + 2j, -0.5j], [3.25, -1 - 1j]])
        back = serialize.matrix_from_json(serialize.matrix_to_json(a))
        assert back.dtype == complex
        assert np.array_equal(back, a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_roundtrip_through_text(self, seed, rows, cols):
        g = rng(seed)
        a = g.normal(size=(rows, cols)) + 1j * g.normal(size=(rows, cols))
        text = serialize.canonical_json(serialize.matrix_to_json(a))
        back = serialize.matrix_from_json(json.loads(text))
        assert np.array_equal(back, a)

    def test_rejects_ragged(self):
        with pytest.raises(InvalidStateError):
            serialize.matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_non_pair_entries(self):
        with pytest.raises(InvalidStateError):
            serialize.matrix_from_json([[[1.0, 0.0, 0.0]]])
        with pytest.raises(InvalidStateError):
            serialize.matrix_from_json([[1.0]])
        with pytest.raises(InvalidStateError):
            serialize.matrix_from_json([])

    def test_rejects_bool_components(self):
        with pytest.raises(InvalidStateError):
            serialize.matrix_from_json([[[True, 0.0]]])


class TestMatrixMessages:
    """Malformed matrices after the first entry: the whole-matrix checks
    report the first fault in row-major order, as an entry-by-entry scan does."""

    GOOD = [1.0, 0.0]

    def fault(self, obj) -> str:
        with pytest.raises(InvalidStateError) as err:
            serialize.matrix_from_json(obj)
        return str(err.value)

    @pytest.mark.parametrize("bad", [[True, 0.0], [0.5, "0"], [1.0, 0.0, 0.0], 1.0, None])
    def test_bad_entry_named_by_position(self, bad):
        obj = [[self.GOOD, self.GOOD, self.GOOD], [self.GOOD, self.GOOD, bad]]
        assert self.fault(obj) == "matrix entry (1, 2) must be a [re, im] pair"

    def test_ragged_row(self):
        obj = [[self.GOOD, self.GOOD], [self.GOOD, self.GOOD], [self.GOOD]]
        assert self.fault(obj) == "matrix row 2 has 1 entries, expected 2"

    def test_empty_or_non_list_row(self):
        assert self.fault([[self.GOOD], []]) == "matrix row 1 must be a non-empty list"
        assert self.fault([[self.GOOD], (self.GOOD,)]) == "matrix row 1 must be a non-empty list"

    def test_first_fault_in_row_major_order(self):
        # a bad entry in row 0 comes before a ragged row 1
        obj = [[self.GOOD, [0.0, False]], [self.GOOD]]
        assert self.fault(obj) == "matrix entry (0, 1) must be a [re, im] pair"

    def test_integer_components_accepted(self):
        back = serialize.matrix_from_json([[[1, 0], [0, -2]], [[0, 2], [3, 0]]])
        assert back.dtype == complex
        assert np.array_equal(back, np.array([[1, -2j], [2j, 3]]))


# Values json.dumps(indent=2, sort_keys=True) accepts, and what the
# library writes: nested containers, matrices of [re, im] pairs, and
# "almost matrices" that must take the generic path.
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
SCALARS = (
    st.none() | st.booleans() | st.integers() | FLOATS | FLOATS.map(np.float64) | st.text(max_size=6)
)
KEYS = st.text(max_size=4) | st.integers(-5, 5) | FLOATS | st.booleans() | st.none()


def equal_rows(entries):
    return st.integers(1, 3).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=3)
    )


MATRICES = (
    equal_rows(st.lists(FLOATS, min_size=2, max_size=2))
    | equal_rows(st.lists(FLOATS | st.integers(-3, 3), min_size=2, max_size=2))
    | equal_rows(st.lists(FLOATS.map(np.float64), min_size=2, max_size=2))
    | st.lists(st.lists(st.lists(FLOATS, min_size=1, max_size=3), max_size=3), max_size=3)
)
DOCUMENTS = st.recursive(
    SCALARS | MATRICES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=4)
    ),
    max_leaves=40,
)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestCanonicalJson:
    """The library's encoder against its oracle, ``json.dumps``."""

    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_matches_json_dumps(self, obj):
        try:
            expected = oracle(obj)
        except TypeError:
            # keys of types that do not sort together
            with pytest.raises(TypeError):
                serialize.canonical_json(obj)
            return
        assert serialize.canonical_json(obj) == expected

    def test_every_data_and_golden_file(self):
        paths = sorted((ROOT / "tests" / "golden").rglob("*.json"))
        paths += sorted((ROOT / "src" / "cqwiretap" / "data").glob("*.json"))
        assert len(paths) > 30
        for path in paths:
            obj = json.loads(path.read_text())
            assert serialize.canonical_json(obj) == oracle(obj), path.name

    def test_code_files_match_the_oracle(self):
        g = rng(12)
        v = random_cq_channel(g, 3, 2)
        for obj in (
            serialize.channel_to_json(v),
            serialize.code_to_json(small_wiretap()),
            serialize.code_to_json(codes.CommonRandomnessCode({0: small_wiretap(), 1: small_wiretap()})),
            serialize.matrix_to_json(random_unitary(g, 4)),
        ):
            assert serialize.canonical_json(obj) == oracle(obj)

    def test_non_finite_matrix_entries(self):
        obj = [[[math.nan, -0.0], [math.inf, -math.inf]], [[1e-300, 1e300], [-2.5, 0.1]]]
        assert serialize.canonical_json(obj) == oracle(obj)
        assert "NaN" in serialize.canonical_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), [1, np.int64(2)], {"a": np.bool_(True)}, {np.int64(1): 1}, {1, 2}, object()],
    )
    def test_unsupported_types_raise_type_error(self, obj):
        with pytest.raises(TypeError) as ours:
            serialize.canonical_json(obj)
        with pytest.raises(TypeError) as theirs:
            oracle(obj)
        assert str(ours.value) == str(theirs.value)


class TestChannel:
    def test_roundtrip_random(self):
        g = rng(3)
        v = random_cq_channel(g, 3, 2)
        back = serialize.channel_from_json(serialize.channel_to_json(v))
        assert back.alphabet == v.alphabet
        assert back.dim == v.dim
        for x in v.alphabet:
            assert np.array_equal(back.output(x), v.output(x))

    def test_string_alphabet(self):
        v = CqChannel(("lo", "hi"), 2, {"lo": np.diag([1.0, 0.0]), "hi": np.diag([0.0, 1.0])})
        back = serialize.channel_from_json(serialize.channel_to_json(v))
        assert back.alphabet == ("lo", "hi")

    def test_outputs_keyed_by_symbol_text(self):
        v = CqChannel((0, 1), 2, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        obj = serialize.channel_to_json(v)
        assert set(obj["outputs"]) == {"0", "1"}

    def test_rejects_missing_output(self):
        v = CqChannel((0, 1), 2, {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
        obj = serialize.channel_to_json(v)
        del obj["outputs"]["1"]
        with pytest.raises(InvalidStateError):
            serialize.channel_from_json(obj)

    def test_rejects_wrong_shape(self):
        obj = {
            "alphabet": [0],
            "dim": 2,
            "outputs": {"0": [[[1.0, 0.0]]]},
        }
        with pytest.raises(InvalidStateError):
            serialize.channel_from_json(obj)

    def test_rejects_colliding_keys(self):
        obj = {"alphabet": [0, "0"], "dim": 2, "outputs": {}}
        with pytest.raises(InvalidStateError):
            serialize.channel_from_json(obj)

    def test_rejects_non_density_output(self):
        obj = {
            "alphabet": [0],
            "dim": 1,
            "outputs": {"0": [[[2.0, 0.0]]]},
        }
        with pytest.raises(InvalidStateError):
            serialize.channel_from_json(obj)


class TestBri:
    def test_roundtrip(self):
        f = xor_table()
        back = serialize.bri_from_json(serialize.bri_to_json(f))
        assert np.array_equal(back.table, f.table)
        assert back.regularity_set == f.regularity_set
        assert (back.d_s, back.d_x) == (f.d_s, f.d_x)

    def test_flat_table_accepted(self):
        nested = serialize.bri_from_json({"S": 2, "X": 2, "M": [0], "table": [[0, 1], [1, 0]]})
        flat = serialize.bri_from_json({"S": 2, "X": 2, "M": [0], "table": [0, 1, 1, 0]})
        assert np.array_equal(nested.table, flat.table)

    def test_flat_table_wrong_length(self):
        with pytest.raises(InvalidStateError):
            serialize.bri_from_json({"S": 2, "X": 2, "M": [0], "table": [0, 1, 1]})

    def test_bad_row_shape(self):
        with pytest.raises(InvalidStateError):
            serialize.bri_from_json({"S": 2, "X": 2, "M": [0], "table": [[0, 1, 1], [1, 0]]})

    def test_bundled_section(self):
        f = serialize.bri_from_json(serialize.load_json(serialize.bundled("section_6x8.json")))
        assert (f.n_seeds, f.n_inputs) == (6, 8)
        assert (f.d_s, f.d_x) == (4, 3)
        assert f.regularity_set == (0,)
        assert f.irreducible

    def test_bundled_missing_name(self):
        with pytest.raises(InvalidStateError):
            serialize.bundled("no_such_file.json")


class TestCode:
    def test_transmission_roundtrip(self):
        t = small_transmission()
        back = serialize.code_from_json(serialize.code_to_json(t))
        assert isinstance(back, codes.TransmissionCode)
        assert back.messages == t.messages
        assert back.codewords == t.codewords
        for m in t.messages:
            assert np.array_equal(back.decoders[m], t.decoders[m])

    def test_message_order_survives_sorted_pairs(self):
        # pair lists are sorted by text, so (1, 0) order must come back
        t = small_transmission()
        assert t.messages == (1, 0)
        back = serialize.code_from_json(serialize.code_to_json(t))
        assert back.messages == (1, 0)

    def test_wiretap_roundtrip(self):
        c = small_wiretap()
        back = serialize.code_from_json(serialize.code_to_json(c))
        assert isinstance(back, codes.WiretapCode)
        assert back.messages == c.messages
        for m in c.messages:
            assert back.encoder.row(m) == c.encoder.row(m)
            assert np.array_equal(back.decoders[m], c.decoders[m])

    def test_common_randomness_roundtrip(self):
        inner = small_wiretap()
        c = codes.CommonRandomnessCode({0: inner, 1: inner})
        back = serialize.code_from_json(serialize.code_to_json(c))
        assert isinstance(back, codes.CommonRandomnessCode)
        assert back.seeds == (0, 1)
        assert back.per_seed[1].encoder.row(0) == inner.encoder.row(0)

    def test_rejects_unknown_type(self):
        with pytest.raises(InvalidStateError):
            serialize.code_from_json({"type": "polar"})

    def test_rejects_message_mismatch(self):
        obj = serialize.code_to_json(small_transmission())
        obj["messages"] = [0, 2]
        with pytest.raises(InvalidStateError):
            serialize.code_from_json(obj)

    def test_rejects_duplicate_pair_keys(self):
        obj = serialize.code_to_json(small_transmission())
        obj["codewords"].append(obj["codewords"][0])
        with pytest.raises(InvalidStateError):
            serialize.code_from_json(obj)

    def test_rejects_non_wiretap_seed_entry(self):
        inner = serialize.code_to_json(small_transmission())
        obj = {"type": "common-randomness", "codes": [[0, inner]]}
        with pytest.raises(InvalidStateError):
            serialize.code_from_json(obj)


class TestReports:
    def test_json_fields(self):
        rows = serialize.reports_to_json([make_report("a", 1.0, 2.0)])
        assert rows == [{"name": "a", "lhs": 1.0, "rhs": 2.0, "slack": 1.0, "holds": True}]

    def test_csv_golden(self):
        text = serialize.reports_to_csv(
            [make_report("first", 0.5, 1.0), make_report("second", 2.0, 1.0)]
        )
        assert text == "name,lhs,rhs,slack\nfirst,0.5,1.0,0.5\nsecond,2.0,1.0,-1.0\n"

    def test_csv_full_precision(self):
        lhs = 1.0 / 3.0
        text = serialize.reports_to_csv([make_report("x", lhs, 1.0)])
        cell = text.splitlines()[1].split(",")[1]
        assert float(cell) == lhs

    def test_infinite_sides_survive(self):
        rows = serialize.reports_to_json([make_report("inf", 1.0, math.inf)])
        text = serialize.canonical_json(rows)
        assert json.loads(text)[0]["rhs"] == math.inf


class TestFiles:
    def test_canonical_sorted_and_terminated(self):
        assert serialize.canonical_json({"b": 1, "a": 2}).endswith("\n")
        assert serialize.canonical_json({"b": 1, "a": 2}) == serialize.canonical_json(
            {"a": 2, "b": 1}
        )

    def test_dump_load_roundtrip(self, tmp_path):
        path = tmp_path / "obj.json"
        serialize.dump_json({"x": [1.5, -2.25]}, path)
        assert serialize.load_json(path) == {"x": [1.5, -2.25]}

    def test_dump_byte_identical(self, tmp_path):
        g = rng(9)
        u = random_unitary(g, 3)
        obj = serialize.matrix_to_json(u)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(obj, first)
        serialize.dump_json(obj, second)
        assert first.read_bytes() == second.read_bytes()
