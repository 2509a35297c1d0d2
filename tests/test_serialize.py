"""Tests for the JSON/CSV file formats.

Round trips are checked for exact equality (matrices travel as their
complex128 bytes, other floats as shortest round-trip text), frozen golden
strings pin the wire format, and
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
        # the 64 little-endian bytes of [1, 0, 0, 0, 0, 0, 1, 0]; 1.0 is
        # 00 .. 00 f0 3f, whence the two "8D8"
        obj = serialize.matrix_to_json(np.eye(2))
        data = "AAAAAAAA8D8" + "A" * 61 + "8D8AAAAAAAAAAA=="
        assert obj == {"data": data, "shape": [2, 2]}

    def test_nested_layout_still_read(self):
        nested = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        assert np.array_equal(serialize.matrix_from_json(nested), np.eye(2))

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


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestMatrixExact:
    """The packed layout is the complex128 bytes: every value comes back
    with the same bits, and the text does not depend on byte order."""

    SPECIAL = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 0.1]

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4)])
    def test_special_values_bit_identical(self, shape):
        values = np.resize(np.array(self.SPECIAL), 2 * shape[0] * shape[1])
        rng(len(values)).shuffle(values)
        a = values.view(complex).reshape(shape)
        back = serialize.matrix_from_json(serialize.matrix_to_json(a))
        assert back.shape == shape
        assert np.array_equal(bits(back), bits(a))

    def test_each_special_value_as_a_1x1_matrix(self):
        for re in self.SPECIAL:
            for im in self.SPECIAL:
                a = np.array([[complex(re, im)]])
                back = serialize.matrix_from_json(serialize.matrix_to_json(a))
                assert np.array_equal(bits(back), bits(a)), (re, im)

    def test_nan_payload_survives(self):
        a = np.array([[0j]])
        a.view(np.uint64)[0, 0] = 0x7FF8_0000_DEAD_BEEF
        back = serialize.matrix_from_json(serialize.matrix_to_json(a))
        assert np.array_equal(bits(back), bits(a))

    def test_through_the_file_text(self, tmp_path):
        a = np.array([[-0.0 + 1j * math.nan, math.inf - 1j * math.inf, 5e-324j]])
        serialize.dump_json(serialize.matrix_to_json(a), tmp_path / "m.json")
        back = serialize.matrix_from_json(serialize.load_json(tmp_path / "m.json"))
        assert np.array_equal(bits(back), bits(a))

    def test_big_endian_writes_the_same_text(self):
        a = rng(5).normal(size=(2, 3)) + 1j * rng(6).normal(size=(2, 3))
        big = a.astype(">c16")
        assert serialize.matrix_to_json(big) == serialize.matrix_to_json(a)
        back = serialize.matrix_from_json(serialize.matrix_to_json(big))
        assert back.dtype == np.dtype(complex)
        assert np.array_equal(bits(back), bits(a))

    def test_real_and_strided_inputs(self):
        a = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(serialize.matrix_from_json(serialize.matrix_to_json(a)), a)
        view = (a + 1j)[:, ::2]
        assert np.array_equal(serialize.matrix_from_json(serialize.matrix_to_json(view)), view)

    def test_result_is_writable_and_owns_its_data(self):
        back = serialize.matrix_from_json(serialize.matrix_to_json(np.eye(3)))
        assert back.flags.writeable and back.flags.owndata and back.flags.c_contiguous
        back[0, 0] = 2.0
        assert back[0, 0] == 2.0

    def test_rejects_non_matrix_arrays(self):
        for a in (np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(InvalidStateError):
                serialize.matrix_to_json(a)


ONE = "AAAAAAAA8D8AAAAAAAAAAA=="  # the 16 bytes of 1+0j


class TestMatrixMessages:
    """Malformed matrices.  In the nested layout, a fault after the first
    entry is reported as an entry-by-entry scan finds it, first in row-major
    order; a malformed packed matrix raises a fault that names what is wrong."""

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

    @pytest.mark.parametrize(
        "obj",
        [
            {"data": ONE},
            {"shape": [1, 1]},
            {"data": ONE, "shape": [1, 1], "dtype": "c16"},
            {"Data": ONE, "shape": [1, 1]},
            {},
        ],
    )
    def test_keys_must_be_data_and_shape(self, obj):
        assert self.fault(obj).startswith(
            "packed matrix must have exactly the keys 'data' and 'shape'"
        )

    @pytest.mark.parametrize(
        "shape",
        [[1], [1, 1, 1], [], [0, 1], [1, -1], [True, 1], [1, False], [1.0, 1], ["1", 1],
         (1, 1), None, 1],
    )
    def test_shape_must_be_two_positive_ints(self, shape):
        assert self.fault({"data": ONE, "shape": shape}) == (
            f"packed matrix shape must be two ints >= 1, got {shape!r}"
        )

    @pytest.mark.parametrize("data", [None, 1, [ONE], {"b64": ONE}, b"AAAA"])
    def test_data_must_be_a_string(self, data):
        assert self.fault({"data": data, "shape": [1, 1]}).startswith(
            "packed matrix data must be a base64 string, got "
        )

    @pytest.mark.parametrize(
        "data",
        [
            "AAAAAAAA8D8AAAAAAAAAAA",  # padding dropped
            "AAAAAAAA8D8AAAAA\nAAAAAAA==",  # a line break
            " " + ONE,
            ONE + "AAAA",  # data after the padding
            "AAAAAAAA8D8AAAAAAAAAAA=A",
            "AAAAAAAA-D8AAAAAAAAAAA==",  # the URL-safe alphabet
            "AAAAAAAA8D8AAAAAAAAAAA\u00e9=",
        ],
    )
    def test_data_must_be_strict_base64(self, data):
        assert self.fault({"data": data, "shape": [1, 1]}).startswith(
            "packed matrix data is not strict base64: "
        )

    @pytest.mark.parametrize(
        "data, shape, size",
        [
            ("", [1, 1], 0),
            ("AAAAAAAA8D8=", [1, 1], 8),
            (ONE, [1, 2], 16),
            ("A" * 44, [1, 1], 33),
            ("A" * 64, [2, 1], 48),
        ],
    )
    def test_data_must_hold_16_bytes_per_entry(self, data, shape, size):
        rows, cols = shape
        assert self.fault({"data": data, "shape": shape}) == (
            f"packed matrix data decodes to {size} bytes, "
            f"expected 16*{rows}*{cols} = {16 * rows * cols}"
        )

    def test_non_list_non_object_named(self):
        assert self.fault("AAAA") == (
            "matrix must be a {data, shape} object or a non-empty list of rows"
        )


class TestCanonicalJson:
    """The writer is ``json.dumps(indent=2, sort_keys=True)`` plus a
    newline; these pin the files it must reproduce and the values it must
    carry or refuse."""

    def test_every_data_and_golden_file(self):
        # every shipped file is already in canonical form
        paths = sorted((ROOT / "tests" / "golden").rglob("*.json"))
        paths += sorted((ROOT / "src" / "cqwiretap" / "data").glob("*.json"))
        assert len(paths) > 30
        for path in paths:
            text = path.read_text()
            assert serialize.canonical_json(json.loads(text)) == text, path.name

    def test_non_finite_matrix_entries(self):
        obj = [[[math.nan, -0.0], [math.inf, -math.inf]], [[1e-300, 1e300], [-2.5, 0.1]]]
        text = serialize.canonical_json(obj)
        assert "NaN" in text and "-Infinity" in text and "Infinity," in text
        back = serialize.matrix_from_json(json.loads(text))
        expected = np.array([[complex(math.nan, -0.0), complex(math.inf, -math.inf)],
                             [complex(1e-300, 1e300), complex(-2.5, 0.1)]])
        assert np.array_equal(back, expected, equal_nan=True)
        assert math.copysign(1.0, back[0, 0].imag) == -1.0

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), [1, np.int64(2)], {"a": np.bool_(True)}, {np.int64(1): 1}, {1, 2}, object()],
    )
    def test_unsupported_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            serialize.canonical_json(obj)

    def test_circular_structure_raises_value_error(self):
        loop = {"a": []}
        loop["a"].append(loop)
        with pytest.raises(ValueError, match="[Cc]ircular"):
            serialize.canonical_json(loop)


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
