"""Tests for typical sets, typical projectors, and projected channels.

Every projector built by the library is checked against a brute-force
oracle that enumerates index strings directly and sums rank-one terms from
its own eigendecomposition.  Set sizes for the skewed coin are frozen from
a hand count of admissible letter frequencies.
"""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compress_per_string,
    cond_typical_projector,
    dense_compression,
    gathered_mean_core,
    member_ordering_minima,
    mix,
    operator_norm,
    random_density,
    random_unitary,
    rng,
    typical_projector,
)

from cqwiretap import bounds, channels, serialize, typicality
from cqwiretap import operators as op
from cqwiretap.bounds import ORDERING_TOL
from cqwiretap.channels import CqChannel, holevo, tensor_power
from cqwiretap.errors import (
    DimensionMismatchError,
    InvalidStateError,
    PsdOrderingError,
    ResourceCapError,
)
from cqwiretap.config import STRING_CAP
from cqwiretap.typicality import (
    _class_total,
    _column_stack,
    check_typical_projector,
    reindexed_pair,
    sorted_eigenbasis,
    subnormalized_channel,
    typical_set,
    typicality_reports,
)

def factor_pairs(v, p, delta, ns):
    """``(epsilon, [factor-norm, factor-rank, factor-product])`` per n: the
    last three reports of :func:`typicality_reports`."""
    return [(epsilon, reports[-3:]) for epsilon, reports in typicality_reports(v, p, delta, ns)]


# hand count for p = (3/4, 1/4), delta = 1/2: the letter-0 frequency may
# range over [1/2, 1], so the member count is sum_{k >= n/2} C(n, k)
SKEW = (0.75, 0.25)
SKEW_COUNTS = {2: 3, 4: 11, 8: 163}


def brute_typical_strings(p, n, delta):
    """Direct filter over all strings: every letter frequency within
    delta/|alphabet| of its probability, absent letters where p is zero."""
    k = len(p)
    tol = delta / k + 1e-12
    out = []
    for xs in itertools.product(range(k), repeat=n):
        ok = True
        for a in range(k):
            c = xs.count(a)
            if p[a] <= 1e-12:
                if c:
                    ok = False
                    break
            elif abs(c / n - p[a]) > tol:
                ok = False
                break
        if ok:
            out.append(xs)
    return out


def brute_spectrum(rho):
    """Independent eigendecomposition: descending clipped spectrum."""
    w, u = np.linalg.eigh(rho)
    w = np.clip(w[::-1], 0.0, None)
    return w / w.sum(), np.ascontiguousarray(u[:, ::-1])


def brute_typical_projector(rho, n, delta):
    w, u = brute_spectrum(rho)
    members = brute_typical_strings(w, n, delta)
    d = rho.shape[0]
    proj = np.zeros((d**n, d**n), dtype=complex)
    for jn in members:
        vec = np.ones(1, dtype=complex)
        for j in jn:
            vec = np.kron(vec, u[:, j])
        proj += np.outer(vec, vec.conj())
    return proj, members


def brute_cond_projector(v, xn, delta):
    """Per-letter construction: group positions by channel symbol, admit an
    index string when every group's subsequence is typical for that
    symbol's spectrum."""
    d = v.dim
    n = len(xn)
    spectra, bases = {}, {}
    for a in set(xn):
        spectra[a], bases[a] = brute_spectrum(v.output(a))
    groups = {a: [i for i, b in enumerate(xn) if b == a] for a in set(xn)}
    proj = np.zeros((d**n, d**n), dtype=complex)
    for jn in itertools.product(range(d), repeat=n):
        ok = True
        for a, pos in groups.items():
            m = len(pos)
            for j in range(d):
                c = sum(1 for i in pos if jn[i] == j)
                q = spectra[a][j]
                if q <= 1e-12:
                    if c:
                        ok = False
                        break
                elif abs(c / m - q) > delta / d + 1e-12:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            vec = np.ones(1, dtype=complex)
            for i in range(n):
                vec = np.kron(vec, bases[xn[i]][:, jn[i]])
            proj += np.outer(vec, vec.conj())
    return proj


def flip_channel(heavy: float = 0.8) -> CqChannel:
    """Two diagonal outputs with mirrored spectra; both share one entropy."""
    return CqChannel(
        (0, 1),
        2,
        {
            0: np.diag([heavy, 1.0 - heavy]).astype(complex),
            1: np.diag([1.0 - heavy, heavy]).astype(complex),
        },
    )


def rotated_channel(g, heavy: float = 0.8, k: int = 2) -> CqChannel:
    """Random-basis outputs with a common spectrum."""
    d = np.diag([heavy, 1.0 - heavy]).astype(complex)
    outputs = {}
    for x in range(k):
        u = random_unitary(g, 2)
        outputs[x] = u @ d @ u.conj().T
    return CqChannel(tuple(range(k)), 2, outputs)


def clock_channel(heavy: float = 0.8) -> CqChannel:
    """Three rotated copies of one spectrum whose uniform average is exactly
    maximally mixed, so the average-state projector is full at delta >= 1."""
    d = np.diag([heavy, 1.0 - heavy]).astype(complex)
    outputs = {}
    for x, theta in enumerate((0.0, np.pi / 3, 2 * np.pi / 3)):
        c, s = np.cos(theta), np.sin(theta)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        outputs[x] = u @ d @ u.conj().T
    return CqChannel((0, 1, 2), 2, outputs)


class TestTypicalSet:
    def test_frozen_counts_skewed_coin(self):
        for n, count in SKEW_COUNTS.items():
            ts = typical_set(SKEW, n, 0.5)
            assert len(ts) == count
            assert sorted(ts.members) == brute_typical_strings(SKEW, n, 0.5)

    def test_members_exact_at_n2(self):
        ts = typical_set(SKEW, 2, 0.5)
        assert set(ts.members) == {(0, 0), (0, 1), (1, 0)}

    def test_point_mass_single_string(self):
        ts = typical_set((1.0, 0.0), 5, 0.3)
        assert ts.members == ((0,) * 5,)
        ts = typical_set((0.0, 1.0, 0.0), 4, 0.3)
        assert ts.members == ((1,) * 4,)

    def test_uniform_coin_delta_one_everything(self):
        ts = typical_set((0.5, 0.5), 2, 1.0)
        assert len(ts) == 4

    def test_zero_mass_letter_never_appears(self):
        ts = typical_set((0.75, 0.25, 0.0), 3, 0.9)
        assert ts.members
        assert all(2 not in xs for xs in ts.members)
        assert sorted(ts.members) == brute_typical_strings((0.75, 0.25, 0.0), 3, 0.9)

    def test_contains_agrees_with_members(self):
        ts = typical_set(SKEW, 4, 0.5)
        members = set(ts.members)
        for xs in itertools.product(range(2), repeat=4):
            assert ts.contains(xs) == (xs in members)
            assert (xs in ts) == (xs in members)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=4).filter(
            lambda w: sum(w) > 0
        ),
        n=st.integers(min_value=1, max_value=7),
        delta=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
    )
    def test_matches_brute_force(self, weights, n, delta):
        # members come from type classes; order and content must equal the
        # full-space filter, zero-mass letters included
        p = np.asarray(weights, dtype=float) / sum(weights)
        ts = typical_set(p, n, delta)
        assert list(ts.members) == brute_typical_strings(p, n, delta)

    def test_symbol_alphabet(self):
        ts = typical_set(SKEW, 2, 0.5, alphabet=("a", "b"))
        assert set(ts.members) == {("a", "a"), ("a", "b"), ("b", "a")}
        assert ts.contains(("b", "a"))

    def test_predicate_mode_above_cap(self):
        ts = typical_set((0.5, 0.5), 21, 0.5)
        assert ts.members is None
        assert ts.contains((0, 1) * 10 + (0,))
        with pytest.raises(ResourceCapError):
            len(ts)

    def test_cap_override_forces_predicate(self):
        ts = typical_set(SKEW, 2, 0.5, cap=2)
        assert ts.members is None
        assert ts.contains((0, 1))
        assert not ts.contains((1, 1))

    def test_cap_counts_typical_strings_not_all_strings(self):
        # |T| = 163 of the 256 strings at n = 8; the cap is compared with |T|
        size = SKEW_COUNTS[8]
        assert len(typical_set(SKEW, 8, 0.5, cap=size)) == size
        ts = typical_set(SKEW, 8, 0.5, cap=size - 1)
        assert ts.members is None
        with pytest.raises(ResourceCapError) as info:
            len(ts)
        assert info.value.requested == size
        assert info.value.cap == size - 1

    def test_large_alphabet_stops_counting_at_the_cap(self, monkeypatch):
        # 32 uniform letters at n = 12, window {0, 1} per letter: the first
        # admissible type class alone has 12! strings, so the set turns
        # predicate-only after one class instead of walking all C(43, 12)
        # count vectors
        seen = []
        classes = typicality._type_classes

        def counted(*args):
            for item in classes(*args):
                seen.append(item)
                yield item

        monkeypatch.setattr(typicality, "_type_classes", counted)
        ts = typical_set(np.full(32, 1 / 32), 12, 2.0)
        assert ts.members is None
        assert len(seen) == 1
        with pytest.raises(ResourceCapError) as info:
            len(ts)
        assert info.value.requested == math.factorial(12)
        assert info.value.cap == STRING_CAP

    def test_listed_beyond_full_space_cap(self):
        # 4^10 strings exceed STRING_CAP, but only the exact type
        # (4, 3, 2, 1) is admitted: 10! / (4! 3! 2! 1!) = 12600 strings
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert 4**10 > STRING_CAP
        ts = typical_set(p, 10, 0.2)
        assert len(ts) == 12600
        assert len(ts) == _class_total(p, 10, 0.2, STRING_CAP)
        assert list(ts.members) == sorted(set(ts.members))
        assert all(ts.contains(xs) for xs in ts.members)

    def test_validation(self):
        with pytest.raises(InvalidStateError):
            typical_set((0.5, 0.6), 2, 0.5)
        with pytest.raises(InvalidStateError):
            typical_set((-0.1, 1.1), 2, 0.5)
        with pytest.raises(InvalidStateError):
            typical_set(SKEW, 0, 0.5)
        with pytest.raises(InvalidStateError):
            typical_set(SKEW, 2, 0.0)
        with pytest.raises(DimensionMismatchError):
            typical_set(SKEW, 2, 0.5, alphabet=("a", "b", "c"))

    def test_contains_rejects_malformed_strings(self):
        ts = typical_set(SKEW, 2, 0.5)
        with pytest.raises(DimensionMismatchError):
            ts.contains((0, 1, 0))
        with pytest.raises(DimensionMismatchError):
            ts.contains((0, 7))


class TestSortedEigenbasis:
    def test_descending_order_and_reconstruction(self):
        g = rng(11)
        a = random_density(g, 4)
        vals, vecs = sorted_eigenbasis(a)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-10)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-10)

    def test_leading_component_real_positive(self):
        g = rng(12)
        a = random_density(g, 3)
        _, vecs = sorted_eigenbasis(a)
        for c in range(3):
            lead = vecs[np.flatnonzero(np.abs(vecs[:, c]) > 1e-12)[0], c]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_diagonal_input_standard_basis(self):
        vals, vecs = sorted_eigenbasis(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(vals, [0.75, 0.25])
        assert np.allclose(vecs, [[0, 1], [1, 0]])

    def test_degenerate_spectrum_deterministic(self):
        a = np.eye(2, dtype=complex) / 2
        first = sorted_eigenbasis(a)
        second = sorted_eigenbasis(a)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestTypicalProjector:
    def test_pure_state_rank_one(self):
        g = rng(21)
        psi = g.normal(size=3) + 1j * g.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        tp = typical_projector(rho, 3, 0.4)
        assert tp.rank == 1
        psi3 = np.kron(np.kron(psi, psi), psi)
        assert np.allclose(tp.projector, np.outer(psi3, psi3.conj()), atol=1e-10)

    def test_maximally_mixed_large_delta_identity(self):
        tp = typical_projector(np.eye(2, dtype=complex) / 2, 3, 1.0)
        assert np.allclose(tp.projector, np.eye(8), atol=1e-12)

    def test_skewed_qubit_rank_matches_set_size(self):
        rho = np.diag(SKEW).astype(complex)
        tp = typical_projector(rho, 4, 0.4)
        assert tp.rank == 4
        assert tp.rank == len(typical_set(SKEW, 4, 0.4))

    def test_skewed_qubit_frozen_ranks(self):
        rho = np.diag(SKEW).astype(complex)
        for n, count in SKEW_COUNTS.items():
            assert typical_projector(rho, n, 0.5).rank == count

    def test_matches_brute_force_qubit(self):
        g = rng(22)
        rho = random_density(g, 2)
        tp = typical_projector(rho, 3, 0.6)
        expected, members = brute_typical_projector(rho, 3, 0.6)
        assert np.allclose(tp.projector, expected, atol=1e-10)
        assert tp.rank == len(members)

    def test_matches_brute_force_qutrit(self):
        g = rng(23)
        rho = random_density(g, 3)
        tp = typical_projector(rho, 2, 0.8)
        expected, members = brute_typical_projector(rho, 2, 0.8)
        assert np.allclose(tp.projector, expected, atol=1e-10)
        assert tp.rank == len(members)

    def test_projector_algebra(self):
        g = rng(24)
        rho = random_density(g, 3)
        tp = typical_projector(rho, 2, 0.7)
        pi = tp.projector
        assert np.allclose(pi @ pi, pi, atol=1e-9)
        assert np.allclose(pi, pi.conj().T, atol=1e-9)
        rho_n = np.kron(rho, rho)
        assert np.allclose(pi @ rho_n, rho_n @ pi, atol=1e-9)

    def test_sandwich_eigenvalues_are_member_products(self):
        g = rng(25)
        rho = random_density(g, 2)
        tp = typical_projector(rho, 4, 0.5)
        w, _ = brute_spectrum(rho)
        products = sorted(np.prod([w[j] for j in jn]) for jn in tp.strings)
        rho_n = np.kron(np.kron(np.kron(rho, rho), rho), rho)
        sandwich = tp.projector @ rho_n @ tp.projector
        eigs = sorted(np.linalg.eigvalsh(sandwich))[-len(products):]
        assert np.allclose(eigs, products, atol=1e-10)

    def test_degenerate_spectrum_reruns_identical(self):
        rho = np.eye(2, dtype=complex) / 2
        a = typical_projector(rho, 2, 0.5).projector
        b = typical_projector(rho, 2, 0.5).projector
        assert np.array_equal(a, b)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 1.0
        assert np.allclose(a, expected, atol=1e-12)

    def test_rejects_non_density(self):
        with pytest.raises(InvalidStateError):
            typical_projector(2.0 * np.eye(2, dtype=complex), 2, 0.5)

    def test_dimension_cap(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ResourceCapError):
            typical_projector(rho, 13, 0.5)

    def test_string_cap(self):
        # the dimension fits its cap, but |T| = 2^21 strings exceed STRING_CAP
        with pytest.raises(ResourceCapError) as info:
            typical_projector(np.eye(2) / 2, 21, 1.0, cap=2**21)
        assert info.value.cap == STRING_CAP


class TestColumnStack:
    @staticmethod
    def kron_chain(bases, strings):
        """The definition: one np.kron chain per string."""
        cols = np.empty((math.prod(b.shape[0] for b in bases), len(strings)), dtype=complex)
        for t, jn in enumerate(strings):
            vec = np.ones(1, dtype=complex)
            for pos, j in enumerate(jn):
                vec = np.kron(vec, bases[pos][:, j])
            cols[:, t] = vec
        return cols

    def test_bit_identical_to_kron_chain(self):
        g = rng(71)
        for case in range(60):
            d, n = 2 + case % 2, 1 + case % 5
            bases = [random_unitary(g, d) for _ in range(n)]
            every = list(itertools.product(range(d), repeat=n))
            keep = np.sort(g.choice(len(every), int(g.integers(1, len(every) + 1)), replace=False))
            strings = [every[i] for i in keep]
            got = _column_stack(bases, strings)
            assert np.array_equal(got, self.kron_chain(bases, strings))

    def test_empty_string_set(self):
        g = rng(72)
        for d, n in ((2, 1), (3, 2), (2, 5)):
            bases = [random_unitary(g, d) for _ in range(n)]
            assert _column_stack(bases, []).shape == (d**n, 0)


class TestCondTypicalProjector:
    def test_constant_string_matches_plain_projector(self):
        g = rng(31)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        cp = cond_typical_projector(v, (0, 0, 0), 0.6)
        tp = typical_projector(v.output(0), 3, 0.6)
        assert np.allclose(cp.projector, tp.projector, atol=1e-10)
        assert cp.rank == tp.rank

    def test_matches_brute_force_qubit(self):
        g = rng(32)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        for xn in [(0, 1, 0), (1, 1, 0), (0, 0, 1)]:
            cp = cond_typical_projector(v, xn, 0.7)
            assert np.allclose(cp.projector, brute_cond_projector(v, xn, 0.7), atol=1e-10)

    def test_matches_brute_force_qutrit(self):
        g = rng(33)
        v = CqChannel((0, 1, 2), 3, {x: random_density(g, 3) for x in range(3)})
        cp = cond_typical_projector(v, (2, 0), 0.9)
        assert np.allclose(cp.projector, brute_cond_projector(v, (2, 0), 0.9), atol=1e-10)

    def test_projector_algebra_and_commutation(self):
        g = rng(34)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        xn = (0, 1, 1)
        cp = cond_typical_projector(v, xn, 0.8)
        pi = cp.projector
        assert np.allclose(pi @ pi, pi, atol=1e-9)
        assert np.allclose(pi, pi.conj().T, atol=1e-9)
        rho_xn = tensor_power(v, 3).output(xn)
        assert np.allclose(pi @ rho_xn, rho_xn @ pi, atol=1e-9)

    def test_swap_covariance(self):
        g = rng(35)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        a = cond_typical_projector(v, (0, 1), 0.7).projector
        b = cond_typical_projector(v, (1, 0), 0.7).projector
        swap = np.zeros((4, 4))
        for i, j in itertools.product(range(2), repeat=2):
            swap[2 * j + i, 2 * i + j] = 1.0
        assert np.allclose(b, swap @ a @ swap.T, atol=1e-10)

    def test_defined_for_any_string(self):
        v = flip_channel()
        cp = cond_typical_projector(v, (1, 1, 1, 1), 0.5)
        assert np.allclose(cp.projector @ cp.projector, cp.projector, atol=1e-9)
        assert cp.rank >= 1

    def test_large_delta_identity(self):
        g = rng(36)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        cp = cond_typical_projector(v, (0, 1), 2.5)
        assert np.allclose(cp.projector, np.eye(4), atol=1e-12)

    def test_weights_are_sandwich_eigenvalues(self):
        g = rng(37)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        xn = (0, 1, 0)
        cp = cond_typical_projector(v, xn, 0.8)
        rho_xn = tensor_power(v, 3).output(xn)
        sandwich = cp.projector @ rho_xn @ cp.projector
        eigs = sorted(np.linalg.eigvalsh(sandwich))[-len(cp.weights):]
        assert np.allclose(sorted(cp.weights), eigs, atol=1e-10)

    def test_validation(self):
        v = flip_channel()
        with pytest.raises(DimensionMismatchError):
            cond_typical_projector(v, (0, 3), 0.5)
        with pytest.raises(InvalidStateError):
            cond_typical_projector(v, (), 0.5)
        with pytest.raises(ResourceCapError):
            cond_typical_projector(v, (0, 1) * 7, 0.5)


class TestCheckTypicalProjector:
    def test_unconditional_report_names(self):
        reports = check_typical_projector(np.diag(SKEW).astype(complex), 2, 0.5)
        assert [r.name for r in reports] == [
            "te1-trace",
            "te2-rank-lower",
            "te2-rank-upper",
            "te3-eig-lower",
            "te3-eig-upper",
        ]

    def test_skewed_qubit_all_hold(self):
        rho = np.diag(SKEW).astype(complex)
        for n in (2, 4, 8):
            for r in check_typical_projector(rho, n, 0.5):
                assert r.holds, r

    def test_te2_te3_recomputed_from_scratch(self):
        rho = np.diag(SKEW).astype(complex)
        n = 4
        entropy = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        gamma = 0.5 * 2.0  # delta times |log2 1/4|
        reports = {r.name: r for r in check_typical_projector(rho, n, 0.5)}
        assert reports["te2-rank-lower"].lhs == pytest.approx(2 ** (n * (entropy - gamma)))
        assert reports["te2-rank-lower"].rhs == 11.0
        assert reports["te2-rank-upper"].lhs == 11.0
        assert reports["te2-rank-upper"].rhs == pytest.approx(2 ** (n * (entropy + gamma)))
        products = [0.75**4, 0.75**3 * 0.25, 0.75**2 * 0.25**2]
        assert reports["te3-eig-lower"].rhs == pytest.approx(min(products))
        assert reports["te3-eig-lower"].lhs == pytest.approx(2 ** (-n * (entropy + gamma)))
        assert reports["te3-eig-upper"].lhs == pytest.approx(max(products))
        assert reports["te3-eig-upper"].rhs == pytest.approx(2 ** (-n * (entropy - gamma)))

    def test_te1_trace_matches_dense_oracle(self):
        g = rng(41)
        rho = random_density(g, 3)
        pi, _ = brute_typical_projector(rho, 2, 0.8)
        reports = {r.name: r for r in check_typical_projector(rho, 2, 0.8)}
        dense = np.trace(np.kron(rho, rho) @ pi).real
        assert reports["te1-trace"].lhs == pytest.approx(dense, abs=1e-10)
        assert reports["te1-trace"].rhs == 1.0

    def test_empty_typical_set_reported_honestly(self):
        rho = np.diag([0.99, 0.01]).astype(complex)
        reports = {r.name: r for r in check_typical_projector(rho, 2, 0.01)}
        assert reports["te2-rank-lower"].rhs == 0.0
        assert not reports["te2-rank-lower"].holds
        assert reports["te3-eig-lower"].slack == 0.0 and reports["te3-eig-lower"].holds

    def test_conditional_report_names(self):
        reports = check_typical_projector(flip_channel(), 2, 0.5, p=(0.6, 0.4))
        assert [r.name for r in reports] == [
            "te4-trace",
            "te6-rank-lower",
            "te6-rank-upper",
            "te5-eig-lower",
            "te5-eig-upper",
            "te7-trace",
        ]

    def test_flip_channel_hand_values(self):
        # typical strings at n=2 are the two mixed ones; each conditional
        # projector keeps only the heavy index per position, so the
        # sandwich eigenvalue is 0.8^2 and the projected trace is
        # 0.64 + 0.04 against the diagonal average state
        reports = {
            r.name: r
            for r in check_typical_projector(flip_channel(), 2, 0.5, p=(0.6, 0.4))
        }
        assert reports["te4-trace"].lhs == pytest.approx(0.64, abs=1e-12)
        assert reports["te5-eig-lower"].rhs == pytest.approx(0.64, abs=1e-12)
        assert reports["te5-eig-upper"].lhs == pytest.approx(0.64, abs=1e-12)
        assert reports["te6-rank-lower"].rhs == 1.0
        assert reports["te6-rank-upper"].lhs == 1.0
        assert reports["te7-trace"].lhs == pytest.approx(0.68, abs=1e-12)

    def test_equal_entropy_sandwiches_hold(self):
        for n in (2, 4):
            reports = {
                r.name: r
                for r in check_typical_projector(flip_channel(), n, 0.5, p=(0.6, 0.4))
            }
            for name in ("te5-eig-lower", "te5-eig-upper", "te6-rank-lower", "te6-rank-upper"):
                assert reports[name].holds, reports[name]

    def test_rotated_equal_entropy_sandwiches_hold(self):
        g = rng(42)
        v = rotated_channel(g)
        reports = check_typical_projector(v, 3, 0.5, p=(0.55, 0.45))
        for r in reports:
            if "te5" in r.name or "te6" in r.name:
                assert r.holds, r

    def test_te5_constants_recomputed(self):
        v = flip_channel()
        n = 2
        s_cond = np.dot((0.6, 0.4), op.entropies(np.array(v.states())))
        gamma_p = 0.5 * abs(np.log2(0.2))
        reports = {r.name: r for r in check_typical_projector(v, n, 0.5, p=(0.6, 0.4))}
        assert reports["te5-eig-lower"].lhs == pytest.approx(2 ** (-n * (s_cond + gamma_p)))
        assert reports["te5-eig-upper"].rhs == pytest.approx(2 ** (-n * (s_cond - gamma_p)))
        assert reports["te6-rank-upper"].rhs == pytest.approx(2 ** (n * (s_cond + gamma_p)))

    def test_conditional_requires_distribution(self):
        with pytest.raises(InvalidStateError):
            check_typical_projector(flip_channel(), 2, 0.5)

    def test_conditional_empty_typical_set_raises(self):
        with pytest.raises(InvalidStateError):
            check_typical_projector(flip_channel(), 2, 0.01, p=(0.99, 0.01))


class TestSubnormalizedChannel:
    def test_flip_channel_hand_construction(self):
        sub = subnormalized_channel(flip_channel(), (0.6, 0.4), 2, 0.5)
        assert isinstance(sub, CqChannel)
        assert sub.alphabet == ((0, 1), (1, 0))
        assert sub.epsilon == pytest.approx(0.36, abs=1e-12)
        first = np.zeros((4, 4), dtype=complex)
        first[1, 1] = 0.64
        second = np.zeros((4, 4), dtype=complex)
        second[2, 2] = 0.64
        assert np.allclose(sub.output((0, 1)), first, atol=1e-12)
        assert np.allclose(sub.output((1, 0)), second, atol=1e-12)

    def test_outputs_dominated_commuting_instance(self):
        sub = subnormalized_channel(flip_channel(), (0.6, 0.4), 3, 0.5)
        v3 = tensor_power(flip_channel(), 3)
        for xn in sub.alphabet:
            diff = v3.output(xn) - sub.output(xn)
            assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_outputs_dominated_noncommuting_full_average(self):
        # non-commuting outputs, but the average state is exactly I/2, so
        # the outer projector is the identity at delta = 1 and domination
        # reduces to the commuting inner sandwich
        v = clock_channel()
        sub = subnormalized_channel(v, (1 / 3, 1 / 3, 1 / 3), 3, 1.0)
        assert len(sub.alphabet) == 24
        assert sub.epsilon == pytest.approx(1.0 - 0.8**3, abs=1e-10)
        v3 = tensor_power(v, 3)
        for xn in sub.alphabet:
            diff = v3.output(xn) - sub.output(xn)
            assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_noncommuting_generic_instance_raises(self):
        # generic rotated outputs break the domination at short blocks: the
        # average-state projector does not commute with the inner sandwich
        # and pushes weight outside it; the construction returns, and the
        # chain's ordering check refuses the pair
        v, p, n, delta = rotated_channel(rng(51)), (0.55, 0.45), 3, 0.5
        assert len(subnormalized_channel(v, p, n, delta)) == 6
        got = chain_ordering_minimum(v, p, n, delta)
        assert got < -1e-3
        assert got == pytest.approx(min(member_ordering_minima(v, p, n, delta).values()),
                                    abs=1e-15)

    def test_constant_pure_channel_lossless(self):
        pure = np.zeros((2, 2), dtype=complex)
        pure[0, 0] = 1.0
        v = CqChannel((0, 1), 2, {0: pure, 1: pure})
        sub = subnormalized_channel(v, (0.7, 0.3), 2, 0.5)
        assert sub.epsilon == 0.0
        v2 = tensor_power(v, 2)
        for xn in sub.alphabet:
            assert np.allclose(sub.output(xn), v2.output(xn), atol=1e-12)

    def test_huge_delta_keeps_everything(self):
        g = rng(52)
        v = CqChannel((0, 1), 2, {x: random_density(g, 2) for x in range(2)})
        sub = subnormalized_channel(v, (0.5, 0.5), 2, 5.0)
        assert len(sub.alphabet) == 4
        assert sub.epsilon <= 1e-12
        v2 = tensor_power(v, 2)
        for xn in sub.alphabet:
            assert np.allclose(sub.output(xn), v2.output(xn), atol=1e-10)

    def test_norm_bound_exact_equal_entropy(self):
        p = (0.6, 0.4)
        n = 3
        v = flip_channel()
        sub = subnormalized_channel(v, p, n, 0.5)
        s_cond = np.dot(p, op.entropies(np.array(v.states())))
        gamma_p = 0.5 * abs(np.log2(0.2))
        cap = 2 ** (-n * (s_cond - gamma_p))
        worst = max(operator_norm(sub.output(x)) for x in sub.alphabet)
        assert worst <= cap + 1e-12
        assert worst == pytest.approx(0.8**3, abs=1e-12)

    def test_rank_and_product_bound(self):
        v = flip_channel()
        p = (0.6, 0.4)
        n = 3
        delta = 0.5
        sub = subnormalized_channel(v, p, n, delta)
        avg = mix(sub, sub.alphabet)
        pv = 0.6 * v.output(0) + 0.4 * v.output(1)
        w, _ = brute_spectrum(pv)
        beta = delta * max(abs(np.log2(q)) for q in w if q > 1e-12)
        s_avg = -(w * np.log2(w)).sum()
        assert op.rank_eps(avg) == 3
        assert op.rank_eps(avg) <= 2 ** (n * (s_avg + beta)) + 1e-9
        gamma_p = delta * abs(np.log2(0.2))
        worst = max(operator_norm(sub.output(x)) for x in sub.alphabet)
        chi = holevo(p, v)
        assert op.rank_eps(avg) * worst <= 2 ** (n * (chi + beta + gamma_p)) + 1e-9

    def test_trace_deficit_matches_reports(self):
        v = flip_channel()
        p = (0.6, 0.4)
        sub = subnormalized_channel(v, p, 2, 0.5)
        traces = [np.trace(sub.output(x)).real for x in sub.alphabet]
        assert sub.epsilon == pytest.approx(1.0 - min(traces), abs=1e-12)

    def test_validation_and_caps(self):
        v = flip_channel()
        with pytest.raises(InvalidStateError):
            subnormalized_channel(v, (0.99, 0.01), 2, 0.01)
        with pytest.raises(InvalidStateError):
            subnormalized_channel(v, (0.5, 0.6), 2, 0.5)
        g = rng(55)
        v3 = CqChannel((0, 1, 2), 3, {x: random_density(g, 3) for x in range(3)})
        with pytest.raises(ResourceCapError):
            subnormalized_channel(v3, (1 / 3,) * 3, 8, 0.5)

    def test_empty_conditional_projectors(self):
        # every conditional window is empty here: each compressed output is
        # exactly zero, so the whole trace is deficit and the norm is 0
        v, p, n, delta = flip_channel(), (0.75, 0.25), 4, 0.2
        sub = subnormalized_channel(v, p, n, delta)
        assert len(sub.alphabet) == 4
        for t in sub.alphabet:
            assert not sub.output(t).any()
        assert sub.epsilon == 1.0
        (_, reports), = factor_pairs(v, p, delta, [n])
        assert reports[0].name == "factor-norm" and reports[0].lhs == 0.0


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_channel(name: str) -> CqChannel:
    return serialize.channel_from_json(serialize.load_json(GOLDEN_INPUTS / name))


# (channel, p, n, delta, rank R of the average state's typical projector);
# every instance but the clock channel has R < d^n
ORACLE_CASES = {
    "flip": (flip_channel, (0.6, 0.4), 3, 0.5, 6),
    "clock": (clock_channel, (1 / 3, 1 / 3, 1 / 3), 3, 1.0, 8),
    "flip-haar": (lambda: golden_channel("flip_haar.json"), (2 / 3, 1 / 3), 3, 0.5, 3),
    "qutrit-2": (lambda: golden_channel("qutrit.json"), (0.5, 0.25, 0.25), 2, 1.0, 4),
    "qutrit-4": (lambda: golden_channel("qutrit.json"), (0.5, 0.25, 0.25), 4, 1.0, 56),
    # every conditional window is empty: all outputs are exactly zero
    "empty-conditional": (flip_channel, (0.75, 0.25), 4, 0.2, 4),
}


class TestDenseOracle:
    """The subspace-compressed V' against the dense projector sandwich."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_dense_sandwich(self, case):
        make, p, n, delta, rank = ORACLE_CASES[case]
        v = make()
        avg = channels._mixtures(np.asarray(p, dtype=float), np.array(v.states()))
        assert typical_projector(avg, n, delta).rank == rank
        dense, te7 = dense_compression(v, p, n, delta)
        sub = subnormalized_channel(v, p, n, delta)
        assert sub.alphabet == tuple(dense)
        for xn in sub.alphabet:
            assert np.abs(sub.output(xn) - dense[xn]).max() <= 1e-13
        deficit = max(0.0, max(1.0 - np.trace(out).real for out in dense.values()))
        assert abs(sub.epsilon - deficit) <= 1e-13
        (_, reports), = factor_pairs(v, p, delta, [n])
        norm = max(np.linalg.eigvalsh(out)[-1] for out in dense.values())
        assert reports[0].name == "factor-norm"
        assert abs(reports[0].lhs - norm) <= 1e-13
        named = {r.name: r for r in check_typical_projector(v, n, delta, p=p)}
        assert abs(named["te7-trace"].lhs - te7) <= 1e-13

    def test_ordering_violation_matches_dense_sandwich(self):
        # the chain's check of the reindexed pair; the bound-chain CLI turns
        # the same error into exit 4 (test_cli,
        # test_typicality_mode_ordering_violation_exits_4)
        v, p, n, delta = rotated_channel(rng(51)), (0.55, 0.45), 3, 0.5
        worst = min(dense_minima(v, p, n, delta).values())
        got = chain_ordering_minimum(v, p, n, delta)
        assert got == pytest.approx(worst, abs=1e-13)
        assert got == pytest.approx(min(member_ordering_minima(v, p, n, delta).values()),
                                    abs=1e-15)
        assert worst < -1e-3


class TestStreamingCompression:
    """Per type class: one R x R eigensolve (validation and spectrum of
    the compressed outputs), no ordering decided, and no product output,
    d^n eigensolve or d^n projector.  Flip channel, p (0.6, 0.4), n 3,
    delta 0.5: R = 6 of d^n = 8, so the counts tell the R x R validation
    apart from a d^n one.  The 3 typical strings form one type class, so
    the counts also tell one solve per class apart from one per string."""

    P, N, DELTA = (0.6, 0.4), 3, 0.5

    def count(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, _real=real: calls.append(a.shape) or _real(a)
            )
        real_output = channels.ProductChannel.output
        monkeypatch.setattr(
            channels.ProductChannel,
            "output",
            lambda self, xn: calls.append("product") or real_output(self, xn),
        )
        return calls

    def test_no_product_and_no_dn_eigensolve(self, monkeypatch):
        calls = self.count(monkeypatch)
        sub = subnormalized_channel(flip_channel(), self.P, self.N, self.DELTA)
        assert len(sub) == 3
        assert calls.count((8, 8)) == 0
        assert calls.count((6, 6)) == 1
        assert "product" not in calls

    def test_factor_reports_reuse_the_spectra(self, monkeypatch):
        calls = self.count(monkeypatch)
        monkeypatch.setattr(typicality, "_sandwich", lambda *a: pytest.fail("A K A* formed"))
        monkeypatch.setattr(typicality, "_column_stack", lambda *a: pytest.fail("A formed"))
        (epsilon, reports), = factor_pairs(flip_channel(), self.P, self.DELTA, [self.N])
        # at R the one validation of the class plus the rank of the mean
        # core: no d^n eigensolve, neither for the ordering nor for the
        # average output, and no d^n x d^n output
        assert calls.count((8, 8)) == 0
        assert calls.count((6, 6)) == 1 + 1
        assert "product" not in calls
        assert epsilon == pytest.approx(1.0 - 0.8**3, abs=1e-12)
        assert reports[0].lhs == pytest.approx(0.8**3, abs=1e-12)

    def test_reindexed_pair_builds_each_product_once(self, monkeypatch):
        calls = self.count(monkeypatch)
        base, prime, iso = reindexed_pair(flip_channel(), self.P, self.N, self.DELTA)
        # the products are built for the chain, and none is decomposed here:
        # the chain's own ordering check is the one dense check of the pair;
        # V' keeps its R x R cores, so no output of V' is formed at d^n
        assert calls.count("product") == len(base) == len(prime) == 3
        assert calls.count((8, 8)) == 0
        assert calls.count((6, 6)) == 1
        assert (base.dim, prime.dim) == iso.shape == (8, 6)

    def test_violation_reaches_the_dense_eigensolves(self, monkeypatch):
        calls = self.count(monkeypatch)
        base, prime, iso = reindexed_pair(rotated_channel(rng(51)), (0.55, 0.45), self.N, 0.5)
        # the pair builds each of the 6 products once and decomposes none
        assert calls.count("product") == len(base) == 6
        assert (8, 8) not in calls
        # the chain's check solves each member's difference once at d^n
        with pytest.raises(PsdOrderingError):
            bounds.check_psd_ordering(prime, base, iso)
        assert calls.count("product") == calls.count((8, 8)) == 6

    @pytest.mark.parametrize(
        "make, p, n, delta",
        [
            # V' <= V^n holds (the average is I/2, so Pi = I), yet 2 of the
            # 12 classes once went to a dense d^n check
            (clock_channel, (1 / 3, 1 / 3, 1 / 3), 5, 1.0),
            # V' <= V^n fails, once found by a dense d^n check
            (lambda: rotated_channel(rng(51)), (0.55, 0.45), 3, 0.5),
        ],
        ids=["clock-5", "rotated-3"],
    )
    def test_typicality_reports_do_no_dn_work(self, make, p, n, delta, monkeypatch):
        v = make()
        calls = self.count(monkeypatch)
        (_, reports), = typicality_reports(v, p, delta, [n])
        rank = {r.name: r.lhs for r in reports}["te2-rank-upper"]
        assert "product" not in calls
        assert max(shape[-1] for shape in calls) <= rank

    def test_conditional_reports_build_no_product(self, monkeypatch):
        calls = self.count(monkeypatch)
        reports = check_typical_projector(flip_channel(), self.N, self.DELTA, p=self.P)
        assert reports[-1].name == "te7-trace"
        assert "product" not in calls
        assert (8, 8) not in calls


def dense_minima(v, p, n, delta):
    """Per typical string, the smallest eigenvalue of V^n(x) - V'(x) with
    V' from the dense-sandwich oracle."""
    dense, _ = dense_compression(v, p, n, delta)
    vn = tensor_power(v, n)
    return {xn: np.linalg.eigvalsh(vn.output(xn) - out)[0] for xn, out in dense.items()}


def chain_ordering_minimum(v, p, n, delta):
    """The minimum eigenvalue of the :class:`PsdOrderingError` that the
    chain's ordering check raises on ``reindexed_pair``, or None when it
    passes; ``typicality_reports`` at the same n returns either way."""
    assert len(typicality_reports(v, p, delta, [n])) == 1
    base, prime, iso = reindexed_pair(v, p, n, delta)
    try:
        bounds.check_psd_ordering(prime, base, iso)
    except PsdOrderingError as exc:
        return exc.min_eigenvalue
    return None


def near_commuting_channel(g, d, k, theta):
    """Commuting outputs in a random frame, each turned by its own small
    rotation exp(i theta H) with a random Hermitian H."""
    frame = random_unitary(g, d)
    outputs = {}
    for x in range(k):
        h = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
        vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
        turn = frame @ (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
        rho = turn @ np.diag(g.dirichlet(np.ones(d))) @ turn.conj().T
        outputs[x] = (rho + rho.conj().T) / 2
    return CqChannel(tuple(range(k)), d, outputs)


def theta_channel(theta):
    """V(0) = diag(0.9, 0.1) and V(1) the same state rotated by theta."""
    c, s = np.cos(theta), np.sin(theta)
    turn = np.array([[c, -s], [s, c]], dtype=complex)
    first = np.diag([0.9, 0.1]).astype(complex)
    return CqChannel((0, 1), 2, {0: first, 1: turn @ first @ turn.T})


class TestOrderingScreen:
    """The ordering V' <= V^n, screened by the chain's check alone: on the
    rotated pairs below ``typicality_reports`` returns, and
    ``bounds.check_psd_ordering`` on the reindexed pair raises with the
    dense rule's minimum eigenvalue."""

    @pytest.mark.parametrize("theta", [1e-3, 0.01, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("n, delta", [(2, 0.5), (4, 0.5), (6, 0.5), (6, 0.3)])
    def test_rotated_sweep_still_raises(self, theta, n, delta):
        v, p = theta_channel(theta), (0.75, 0.25)
        worst = min(dense_minima(v, p, n, delta).values())
        got = chain_ordering_minimum(v, p, n, delta)
        assert worst < -ORDERING_TOL
        assert got == pytest.approx(worst, abs=1e-13)
        assert got == pytest.approx(min(member_ordering_minima(v, p, n, delta).values()),
                                    abs=1e-15)


class TestChainPair:
    def test_reindexed_pair_matches_subnormalized_channel(self):
        v = flip_channel()
        sub = subnormalized_channel(v, (0.6, 0.4), 2, 0.5)
        base, prime, iso = reindexed_pair(v, (0.6, 0.4), 2, 0.5)
        assert base.alphabet == prime.alphabet == (0, 1)
        # epsilon is read off tr K at rank R, sub's off tr A K A* at d^n
        assert abs(prime.epsilon - sub.epsilon) <= 1e-15
        assert base.epsilon <= 1e-12
        vn = tensor_power(v, 2)
        for i, t in enumerate(sub.alphabet):
            assert np.array_equal(bounds._sandwich(iso, prime.output(i)), sub.output(t))
            assert np.allclose(base.output(i), vn.output(t), atol=1e-15)

    def test_factor_reports_commuting_instance(self):
        v, p, n, delta = flip_channel(), (0.6, 0.4), 3, 0.5
        pairs = factor_pairs(v, p, delta, [2, n])
        assert isinstance(pairs, list) and len(pairs) == 2
        for (epsilon, _), m in zip(pairs, [2, n]):
            assert epsilon == pytest.approx(subnormalized_channel(v, p, m, delta).epsilon, abs=1e-15)
        epsilon, reports = pairs[1]
        assert epsilon == pytest.approx(1.0 - 0.8**3, abs=1e-12)
        assert [r.name for r in reports] == ["factor-norm", "factor-rank", "factor-product"]
        assert all(r.holds for r in reports)
        assert reports[0].lhs == pytest.approx(0.8**3, abs=1e-12)
        assert reports[1].lhs == 3


class TestPerClassCompression:
    """The per-class cores of ``_compress`` against the per-string oracle
    ``conftest.compress_per_string``: every K_x, the largest eigenvalue,
    the trace deficit and the mean core agree within 1e-14."""

    @staticmethod
    def assert_parity(v, p, n, delta):
        cores, tops, epsilon, core = compress_per_string(v, p, n, delta)
        block = typicality._block(v, p, n, delta)
        per_class, top = typicality._compress(block)
        (eps, _), = factor_pairs(v, p, delta, [n])
        sub = subnormalized_channel(v, p, n, delta)
        got = dict(typicality._member_cores(block, per_class))
        assert block.members == tuple(got) == tuple(cores)
        for xn, k in got.items():
            assert np.abs(k - cores[xn]).max(initial=0.0) <= 1e-14
        assert abs(top - max(tops)) <= 1e-14
        assert np.abs(sum(got.values()) / len(got) - core).max(initial=0.0) <= 1e-14
        assert abs(eps - epsilon) <= 1e-14
        assert abs(sub.epsilon - epsilon) <= 1e-14

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_string_oracle(self, case):
        make, p, n, delta, _ = ORACLE_CASES[case]
        self.assert_parity(make(), p, n, delta)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["commuting", "generic", "near"]),
        log_theta=st.floats(-6.0, -1.0),
        n=st.integers(2, 3),
        delta=st.sampled_from([0.3, 0.5, 1.0, 2.0]),
    )
    def test_qutrit_sweep(self, seed, kind, log_theta, n, delta):
        # 3-letter alphabet, d = 3: the classes hold up to 6 strings
        g = rng(seed)
        if kind == "generic":
            v = CqChannel((0, 1, 2), 3, {x: random_density(g, 3) for x in range(3)})
        else:
            v = near_commuting_channel(g, 3, 3, 0.0 if kind == "commuting" else 10**log_theta)
        p = g.dirichlet(np.ones(3))
        try:
            minima = dense_minima(v, p, n, delta)
        except (InvalidStateError, ValueError):
            return  # empty typical set
        worst = min(minima.values())
        got = chain_ordering_minimum(v, p, n, delta)
        assert (got is not None) == (worst < -ORDERING_TOL)
        if got is not None:
            assert abs(got - worst) <= 1e-13
        self.assert_parity(v, p, n, delta)


# the golden typicality-report channels at small block lengths
GOLDEN_FACTOR_CASES = {
    "flip": ("flip.json", (0.6, 0.4), 0.5, [2, 4]),
    "flip-haar": ("flip_haar.json", (2 / 3, 1 / 3), 0.5, [2, 3, 4]),
    "clock": ("clock.json", (1 / 3, 1 / 3, 1 / 3), 1.0, [2, 3]),
    "qutrit": ("qutrit.json", (0.5, 0.25, 0.25), 1.0, [2, 4]),
}


class TestFactorReportsPerClass:
    """epsilon, factor-norm and factor-rank read per type class (the class
    cores' traces, the class's top eigenvalue and the orbit-averaged mean
    core) against the per-string oracle ``conftest.compress_per_string``."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_FACTOR_CASES))
    def test_matches_per_string_oracle(self, case):
        name, p, delta, ns = GOLDEN_FACTOR_CASES[case]
        v = golden_channel(name)
        for n, (epsilon, reports) in zip(ns, factor_pairs(v, p, delta, ns)):
            cores, tops, _, core = compress_per_string(v, p, n, delta)
            norm, rank, _ = reports
            assert rank.lhs == op.rank_eps(core)
            assert abs(norm.lhs - max(tops)) <= 1e-12
            # a per-string core multiplies the d x d overlaps in its own
            # string's order, so its trace may differ in the last bits
            traces = [float(np.trace(k).real) for k in cores.values()]
            assert abs(epsilon - max(0.0, 1.0 - min(traces))) <= 1e-15
            # a gathered member core holds its class core's entries, and on
            # these channels its trace gives the same epsilon bit for bit
            block = typicality._block(v, p, n, delta)
            per_class, top = typicality._compress(block)
            members = typicality._member_cores(block, per_class)
            assert epsilon == max(0.0, 1.0 - min(float(np.trace(k).real) for _, k in members))
            assert norm.lhs == top

    @pytest.mark.parametrize(
        "theta, n, delta, recorded",
        [
            (1e-3, 4, 0.5, -4.146003598405894e-07),
            (0.1, 6, 0.3, -0.0042505631971615125),
            (0.3, 4, 0.5, -0.032444989188591615),
        ],
    )
    def test_rotated_instance_still_raises(self, theta, n, delta, recorded):
        # the factor reports return; the chain's check raises the payload
        # recorded when every string kept its own core, and the dense rule's
        # minimum
        v, p = theta_channel(theta), (0.75, 0.25)
        assert len(factor_pairs(v, p, delta, [n])) == 1
        got = chain_ordering_minimum(v, p, n, delta)
        assert got == pytest.approx(recorded, abs=1e-13)
        assert got == pytest.approx(min(dense_minima(v, p, n, delta).values()), abs=1e-13)
        per_member = min(member_ordering_minima(v, p, n, delta).values())
        assert got == pytest.approx(per_member, abs=1e-15)

    def test_peak_memory_in_r_squared(self):
        # flip 0.8 in a Haar frame, p (0.6, 0.4), delta 0.5 at n = 8: 210
        # typical strings in 4 type classes, R = 210; one R x R core per
        # string held 148 MiB
        v = haar_flip()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            (epsilon, _), = factor_pairs(v, (0.6, 0.4), 0.5, [8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert epsilon == pytest.approx(0.4232832, abs=1e-12)
        assert peak < 16 * 2**20


def haar_flip():
    """Flip 0.8 in the frame ``random_unitary(rng(3), 2)``: both outputs
    are diagonal in one basis, which is not the standard one."""
    u = random_unitary(rng(3), 2)
    return CqChannel((0, 1), 2, {x: u @ np.diag(d) @ u.conj().T
                                 for x, d in ((0, [0.8, 0.2]), (1, [0.2, 0.8]))})


def pair_orbits(strings):
    """Oracle partition of the row pairs of ``strings`` by the multiset of
    their letter pairs (t_i, t'_i)."""
    keys = [tuple(sorted(zip(t, u))) for t in strings.tolist() for u in strings.tolist()]
    first = {}
    return np.array([first.setdefault(key, len(first)) for key in keys])


class TestOrbitAverage:
    """The mean core as an orbit average of the class cores, against the
    member-by-member gather ``conftest.gathered_mean_core``: equal
    factor-ranks, and entries within 1e-14 of the largest."""

    @staticmethod
    def assert_matches_gather(v, p, n, delta):
        block = typicality._block(v, p, n, delta)
        cores, _ = typicality._compress(block)
        got = typicality._mean_core(block, cores)
        want = gathered_mean_core(block, cores)
        assert op.rank_eps(got) == op.rank_eps(want)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(initial=0.0)

    @pytest.mark.parametrize("case", sorted(GOLDEN_FACTOR_CASES))
    def test_golden_channels(self, case):
        name, p, delta, ns = GOLDEN_FACTOR_CASES[case]
        for n in ns:
            self.assert_matches_gather(golden_channel(name), p, n, delta)

    @pytest.mark.parametrize("n", [5, 7, 8, 9])
    def test_rotated_frame(self, n):
        # R = 25, 91, 210 and 456
        self.assert_matches_gather(haar_flip(), (0.6, 0.4), n, 0.5)

    @pytest.mark.parametrize("n", [3, 4])
    def test_labels_exact_where_a_naive_code_wraps(self, n):
        # d = 8: a base-(n + 1) code of the 64 pair counts reaches
        # (n + 1)^63, far beyond int64, and numpy wraps it silently; at
        # n = 3 (base 4) every pair (a, b) with a >= 4 then codes to 0
        d = 8
        assert (n + 1) ** (d * d - 1) > 2**63
        g = rng(5)
        strings = np.concatenate([
            g.integers(0, d, size=(60, n)),
            # high letters, whose pairs carry the highest digits
            g.integers(d - 2, d, size=(20, n)),
            # permutations of one string: every pair with its own
            # permutation falls in one orbit
            np.array(list(itertools.permutations([7, 6, 7, 0][:n]))),
        ])
        labels = typicality._orbit_labels(strings, d)
        oracle = pair_orbits(strings)
        assert labels.shape == oracle.shape == (len(strings) ** 2,)
        # the same partition: a bijection between the two labellings
        pairs = set(zip(labels.tolist(), oracle.tolist()))
        assert len(pairs) == len(set(labels.tolist())) == len(set(oracle.tolist()))
        # the wrapped int64 code merges orbits on these strings at n = 3
        weight = (np.int64(n + 1) ** np.arange(d * d, dtype=np.int64)).reshape(d, d)
        naive = sum(weight[strings[:, i, None], strings[None, :, i]] for i in range(n))
        assert (len(set(naive.ravel().tolist())) < len(pairs)) == (n == 3)

    def test_labels_single_chunk_qubit(self):
        strings = np.array(list(itertools.product(range(2), repeat=3)))
        labels = typicality._orbit_labels(strings, 2)
        pairs = set(zip(labels.tolist(), pair_orbits(strings).tolist()))
        # 4 letter pairs, counts summing to 3: C(6, 3) = 20 orbits
        assert len(pairs) == len(set(labels.tolist())) == 20
