"""Biregular functions: verification, section matrices, spectra,
constructors.

The 6x8 incidence section (d_S = 4, d_X = 3) is checked against hand
counting; section matrices against a brute-force triple loop over seeds;
the shifted-block construction against its closed-form circulant spectrum
sin^2(pi d/L) / (d^2 sin^2(pi/L)), L = 2^k d, evaluated with math.sin in
this file, independent of the library's SVD route.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    ENUMERATIONS,
    exhaustive_candidates,
    lambda2_per_m,
    mix,
    quadratic_form_bound,
    random_cq_channel,
    rng,
    sample_preimage,
)
from cqwiretap import bri
from cqwiretap.config import STRING_CAP
from cqwiretap.errors import (
    ConstructionUnverifiedError,
    InvalidStateError,
    ResourceCapError,
    VerificationError,
)

# 6x8 incidence section: positions of the regular output per seed row
SECTION_ROWS = [
    (0, 3, 4, 5),
    (1, 2, 5, 7),
    (0, 1, 3, 5),
    (2, 4, 6, 7),
    (0, 1, 3, 6),
    (2, 4, 6, 7),
]


def section_6x8() -> np.ndarray:
    table = np.ones((6, 8), dtype=np.int64)
    for s, cols in enumerate(SECTION_ROWS):
        for x in cols:
            table[s, x] = 0
    return table


def shift_lambda2(k: int, d: int) -> float:
    length = (2**k) * d
    return math.sin(math.pi * d / length) ** 2 / (d**2 * math.sin(math.pi / length) ** 2)


class TestVerifyBiregular:
    def test_incidence_section_constants(self):
        report = bri.verify_biregular(section_6x8(), (0,))
        assert report.ok
        assert (report.d_s, report.d_x) == (4, 3)

    def test_size_identity(self):
        report = bri.verify_biregular(section_6x8(), (0,))
        assert report.d_x * 8 == report.d_s * 6 == 24

    def test_partial_support_rejected(self):
        # x = 1 never maps to 0, so the seed count is not constant in x
        table = np.tile(np.arange(4) % 2, (5, 1))
        report = bri.verify_biregular(table, (0, 1))
        assert not report.ok
        assert report.violation == (0, "x", 1)

    def test_flipped_entry_names_broken_row(self):
        table = section_6x8()
        table[2, 0] = 1  # break seed row 2 for m=0
        report = bri.verify_biregular(table, (0,))
        assert not report.ok
        assert report.violation == (0, "s", 2)

    def test_column_violation_named(self):
        # rows balanced but a column starved: swap two entries in one row
        table = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        report = bri.verify_biregular(table, (0, 1))
        assert not report.ok
        assert report.violation[1] == "x"

    def test_per_m_constant_rejected(self):
        # each m is regular on its own (d_s = 2 vs 1), constants differ
        table = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        report = bri.verify_biregular(table, (0, 1))
        assert not report.ok
        assert report.violation == (1, "constant", None)

    def test_empty_regularity_set_rejected(self):
        with pytest.raises(InvalidStateError):
            bri.verify_biregular(section_6x8(), ())

    def test_constructor_rejects_non_biregular(self):
        table = section_6x8()
        table[0, 0] = 1
        with pytest.raises(VerificationError):
            bri.BriFunction(table, (0,))


class TestSectionMatrix:
    def test_matches_bruteforce_cooccurrence(self):
        f = bri.BriFunction(section_6x8(), (0,))
        sm = f.section(0)
        expected = np.zeros((8, 8))
        for x in range(8):
            for y in range(8):
                expected[x, y] = sum(
                    1 for s in range(6) if f.table[s, x] == 0 and f.table[s, y] == 0
                )
        expected /= f.d_s * f.d_x
        assert_allclose(sm.matrix, expected, atol=1e-15)

    def test_doubly_stochastic_and_symmetric(self):
        f = bri.BriFunction(section_6x8(), (0,))
        sm = f.section(0)
        assert_allclose(sm.matrix.sum(axis=0), np.ones(8), atol=1e-12)
        assert_allclose(sm.matrix.sum(axis=1), np.ones(8), atol=1e-12)
        assert_allclose(sm.matrix, sm.matrix.T, atol=0)

    def test_full_preimage_gives_flat_matrix(self):
        f = bri.BriFunction(np.zeros((3, 4), dtype=np.int64), (0,))
        sm = f.section(0)
        assert_allclose(sm.matrix, np.full((4, 4), 0.25), atol=1e-15)
        assert sm.lambda2 == pytest.approx(0.0, abs=1e-12)

    def test_singleton_preimages_give_identity(self):
        table = np.array([[0, 1], [1, 0]])
        f = bri.BriFunction(table, (0, 1))
        sm = f.section(0)
        assert_allclose(sm.matrix, np.eye(2), atol=1e-15)
        assert sm.lambda2 == 1.0
        assert not f.irreducible

    def test_m_outside_regularity_set(self):
        f = bri.BriFunction(section_6x8(), (0,))
        with pytest.raises(InvalidStateError):
            f.section(1)


class TestLambda2:
    def test_matches_independent_svd(self):
        g = rng(60)
        f = bri.construct_exhaustive(6, 6, 2, 1 - 1e-9)
        assert f is not None
        for m in f.regularity_set:
            counts = np.zeros((6, 6))
            for x in range(6):
                for y in range(6):
                    counts[x, y] = sum(
                        1 for s in range(6) if f.table[s, x] == m and f.table[s, y] == m
                    )
            sv = np.linalg.svd(counts / (f.d_s * f.d_x), compute_uv=False)
            assert_allclose(bri.lambda2(f, m), sv[1], atol=1e-12)

    def test_tie_reports_one(self):
        table = np.array([[0, 1], [1, 0]])
        f = bri.BriFunction(table, (0, 1))
        assert bri.lambda2(f, 0) == 1.0

    def test_one_input_is_zero(self):
        # the complement of the all-ones direction is {0}
        f = bri.BriFunction([[0], [0]], [0])
        assert bri.lambda2(f, 0) == 0.0
        assert f.irreducible
        lhs, rhs = quadratic_form_bound(f.section(0), [3.0])
        assert lhs == rhs == 9.0


class TestBatchedSpectrumParity:
    @pytest.mark.parametrize("sizes", ENUMERATIONS, ids=lambda s: "x".join(map(str, s)))
    def test_equals_per_m_oracle_on_every_candidate(self, sizes):
        n_s, n_x, n_m = sizes
        rs = tuple(range(n_m))
        for table, expected in exhaustive_candidates(*sizes):
            assert bri._section_spectra(table, rs, n_x // n_m, n_s // n_m)[1] == expected

    def test_enumerations_cover_3592_tables(self):
        assert sum(len(exhaustive_candidates(*sizes)) for sizes in ENUMERATIONS) == 3592

    @pytest.mark.parametrize("sizes", ENUMERATIONS, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("target", [0.0, 0.5, 0.75, 1 - 1e-9, 1.0])
    def test_construct_matches_per_candidate_loop(self, sizes, target):
        expected = next(
            (t for t, lams in exhaustive_candidates(*sizes) if max(lams) <= target), None
        )
        f = bri.construct_exhaustive(*sizes, target)
        if expected is None:
            assert f is None
        else:
            assert f is not None
            assert f.table.tolist() == expected.tolist()
            assert [bri.lambda2(f, m) for m in f.regularity_set] == lambda2_per_m(
                expected, f.regularity_set
            )


def collision_graph_connected(table, m) -> bool:
    """Whether the inputs are connected when x ~ y for some seed mapping
    both to m, by breadth-first search over the table."""
    table = np.asarray(table)
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in np.nonzero(table[:, x] == m)[0]:
            for y in np.nonzero(table[s] == m)[0].tolist():
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return len(seen) == table.shape[1]


class TestDisconnectedPrefilter:
    def test_disconnected_sections_screen_to_one(self):
        sections = disconnected = 0
        for n_s, n_x, n_m in ENUMERATIONS:
            rs = tuple(range(n_m))
            for table, lams in exhaustive_candidates(n_s, n_x, n_m):
                matrices = bri._section_matrices(table, rs, n_x // n_m, n_s // n_m)
                connected = bri._connected(matrices > 0).tolist()
                for m in rs:
                    sections += 1
                    assert connected[m] == collision_graph_connected(table, m)
                    if not connected[m]:
                        disconnected += 1
                        assert lams[m] == 1.0
        assert (sections, disconnected) == (10_508, 3_716)

    def test_disconnected_table_takes_no_svd_below_target_one(self, monkeypatch):
        table, lams = exhaustive_candidates(6, 6, 3)[0]
        assert not all(collision_graph_connected(table, m) for m in range(3))
        assert max(lams) == 1.0
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert bri._first_passing(table[None], (0, 1, 2), 2, 2, 1 - 1e-9) is None
        assert calls == []
        assert bri._first_passing(table[None], (0, 1, 2), 2, 2, 1.0) == 0
        assert calls == [(1, 3, 6, 6)]

    @pytest.mark.parametrize("target", [1.0, 2.0])
    def test_off_from_target_one(self, target):
        # the first table has a disconnected section and lambda2 = 1.0
        first = exhaustive_candidates(6, 6, 3)[0][0]
        f = bri.construct_exhaustive(6, 6, 3, target)
        assert f.table.tolist() == first.tolist()


class TestSamplePreimage:
    def test_singleton_deterministic(self):
        table = np.array([[0, 1], [1, 0]])
        f = bri.BriFunction(table, (0, 1))
        g = rng(61)
        assert all(sample_preimage(f, 0, 0, g) == 0 for _ in range(5))

    def test_uniform_frequencies(self):
        f = bri.BriFunction(section_6x8(), (0,))
        g = rng(62)
        draws = np.array([sample_preimage(f, 0, 0, g) for _ in range(100_000)])
        for x in SECTION_ROWS[0]:
            freq = (draws == x).mean()
            sigma = math.sqrt(0.25 * 0.75 / 100_000)
            assert abs(freq - 0.25) <= 3 * sigma

    def test_seed_average_identity_exact(self):
        # (1/|S|) sum_s V(f_s^{-1}(m)) = V(X), entrywise to 1e-12
        g = rng(63)
        f = bri.BriFunction(section_6x8(), (0,))
        v = random_cq_channel(g, 8, 3)
        avg = sum(
            mix(v, bri.preimage(f, s, 0)) for s in range(f.n_seeds)
        ) / f.n_seeds
        assert_allclose(avg, mix(v, v.alphabet), atol=1e-12)


class TestQuadraticFormBound:
    def test_random_vectors(self):
        g = rng(64)
        f = bri.BriFunction(section_6x8(), (0,))
        sm = f.section(0)
        for _ in range(200):
            omega = g.normal(size=8) + 1j * g.normal(size=8)
            lhs, rhs = quadratic_form_bound(sm, omega)
            assert lhs <= rhs + 1e-9

    def test_flat_vector_saturates(self):
        f = bri.BriFunction(np.zeros((2, 4), dtype=np.int64), (0,))
        sm = f.section(0)
        lhs, rhs = quadratic_form_bound(sm, np.ones(4))
        assert_allclose(lhs, rhs, atol=1e-12)


class TestConstructExhaustive:
    def test_four_by_four_two_outputs(self):
        f = bri.construct_exhaustive(4, 4, 2, 1 - 1e-9)
        assert f is not None
        assert (f.d_s, f.d_x) == (2, 2)
        assert max(bri.lambda2(f, m) for m in f.regularity_set) < 1

    def test_more_outputs_than_inputs(self):
        assert bri.construct_exhaustive(4, 2, 3, 1.0) is None

    def test_found_function_verifies(self):
        f = bri.construct_exhaustive(6, 6, 3, 1 - 1e-9)
        assert f is not None
        report = bri.verify_biregular(f.table, f.regularity_set)
        assert report.ok

    def test_unreachable_target_returns_none(self):
        # 2x2 with two outputs only admits permutation tables, lambda2 = 1
        assert bri.construct_exhaustive(2, 2, 2, 0.5) is None

    def test_cap_exceeded(self):
        with pytest.raises(ResourceCapError) as exc:
            bri.construct_exhaustive(8, 8, 2, 0.0, cap=50)
        assert (exc.value.requested, exc.value.cap) == (51, 50)
        assert exc.value.progress == "open row 4"

    def test_first_irreducible_six_by_six_three(self):
        # the 402nd complete table, whose last row is looked up at the
        # 22,373rd node, is the first irreducible one
        candidates = exhaustive_candidates(6, 6, 3)
        first = next(i for i, (_, lams) in enumerate(candidates) if max(lams) < 1.0)
        assert first == 401
        with pytest.raises(ResourceCapError) as exc:
            bri.construct_exhaustive(6, 6, 3, 1 - 1e-9, cap=22_372)
        assert (exc.value.requested, exc.value.cap) == (22_373, 22_372)
        assert exc.value.progress == "open row 5"
        f = bri.construct_exhaustive(6, 6, 3, 1 - 1e-9, cap=22_373)
        assert f.table.tolist() == candidates[first][0].tolist()

    def test_row_listing_capped_before_listing(self):
        # 20! / (5!)^4 balanced rows
        with pytest.raises(ResourceCapError) as exc:
            bri.construct_exhaustive(20, 20, 4, 1.0)
        assert (exc.value.requested, exc.value.cap) == (11_732_745_024, STRING_CAP)

    def test_nan_target_rejected_before_search(self):
        # cap 0 would stop any search at its first node
        with pytest.raises(InvalidStateError, match="nan"):
            bri.construct_exhaustive(6, 6, 3, float("nan"), cap=0)

    @pytest.mark.parametrize(
        "sizes", [(6.0, 6, 3), (6, 6.0, 3), (6, 6, 3.0), (True, 1, 1), (2, True, 1), (2, 1, True)]
    )
    def test_non_integer_sizes_rejected_before_search(self, sizes):
        with pytest.raises(InvalidStateError, match="integers"):
            bri.construct_exhaustive(*sizes, 1.0, cap=0)

    def test_numpy_integer_sizes(self):
        f = bri.construct_exhaustive(np.int64(4), np.int64(4), np.int64(2), 1 - 1e-9)
        assert f.table.tolist() == bri.construct_exhaustive(4, 4, 2, 1 - 1e-9).table.tolist()

    def test_one_input(self):
        f = bri.construct_exhaustive(2, 1, 1, 1.0)
        assert f.table.tolist() == [[0], [0]]
        assert (f.d_s, f.d_x) == (1, 2)
        assert bri.lambda2(f, 0) == 0.0


class TestConstructSeeded:
    def test_k1_d3_certified(self):
        f = bri.construct_seeded(1, 3)
        assert f.n_seeds == f.n_inputs == 6
        assert f.regularity_set == (0, 1)
        assert (f.d_s, f.d_x) == (3, 3)
        measured = max(bri.lambda2(f, m) for m in f.regularity_set)
        assert_allclose(measured, shift_lambda2(1, 3), atol=1e-9)
        assert_allclose(measured, 4 / 9, atol=1e-9)  # <= 4/d = 4/3, gate passes

    def test_k2_d8_gate_fails_with_measured_value(self):
        with pytest.raises(ConstructionUnverifiedError) as exc:
            bri.construct_seeded(2, 8)
        assert exc.value.measured_lambda2 == pytest.approx(shift_lambda2(2, 8), abs=1e-9)
        assert exc.value.measured_lambda2 > 0.5

    def test_size_identity(self):
        f = bri.construct_seeded(1, 4)
        assert f.d_x * f.n_inputs == f.d_s * f.n_seeds

    def test_parameter_validation(self):
        with pytest.raises(InvalidStateError):
            bri.construct_seeded(0, 3)
        with pytest.raises(InvalidStateError):
            bri.construct_seeded(1, 2)
