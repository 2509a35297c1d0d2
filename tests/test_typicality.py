"""Tests for typical sets, typical projectors, and projected channels.

Every projector built by the library is checked against a brute-force
oracle that enumerates index strings directly and sums rank-one terms from
its own eigendecomposition.  Set sizes for the skewed coin are frozen from
a hand count of admissible letter frequencies.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_unitary, rng

from cqwiretap import channels, typicality
from cqwiretap import operators as op
from cqwiretap.channels import CqChannel, conditional_entropy, holevo, mix, tensor_power
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
    cond_typical_projector,
    factor_reports,
    reindexed_pair,
    sorted_eigenbasis,
    subnormalized_channel,
    typical_projector,
    typical_set,
)

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
        s_cond = conditional_entropy((0.6, 0.4), v)
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
        # and pushes weight outside it; the construction must refuse
        g = rng(51)
        v = rotated_channel(g)
        with pytest.raises(PsdOrderingError) as info:
            subnormalized_channel(v, (0.55, 0.45), 3, 0.5)
        assert info.value.min_eigenvalue < -1e-3

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
        s_cond = conditional_entropy(p, v)
        gamma_p = 0.5 * abs(np.log2(0.2))
        cap = 2 ** (-n * (s_cond - gamma_p))
        worst = max(op.operator_norm(sub.output(x)) for x in sub.alphabet)
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
        worst = max(op.operator_norm(sub.output(x)) for x in sub.alphabet)
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
        (_, reports), = factor_reports(v, p, delta, [n])
        assert reports[0].name == "factor-norm" and reports[0].lhs == 0.0


class TestStreamingCompression:
    """Per typical string: one product output, two d^n eigensolves."""

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

    def test_two_eigensolves_and_one_product_per_string(self, monkeypatch):
        calls = self.count(monkeypatch)
        sub = subnormalized_channel(clock_channel(), (1 / 3, 1 / 3, 1 / 3), 3, 1.0)
        assert len(sub) == 24
        assert calls.count((8, 8)) == 2 * 24
        assert calls.count("product") == 24

    def test_factor_reports_reuse_the_spectra(self, monkeypatch):
        calls = self.count(monkeypatch)
        monkeypatch.setattr(op, "operator_norm", lambda a: pytest.fail("operator_norm called"))
        (sub, reports), = factor_reports(flip_channel(), (0.6, 0.4), 0.5, [3])
        # plus the rank of the average output
        assert calls.count((8, 8)) == 2 * len(sub) + 1
        assert calls.count("product") == len(sub)
        assert reports[0].lhs == pytest.approx(0.8**3, abs=1e-12)

    def test_reindexed_pair_builds_each_product_once(self, monkeypatch):
        calls = self.count(monkeypatch)
        base, prime = reindexed_pair(flip_channel(), (0.6, 0.4), 3, 0.5)
        assert calls.count("product") == len(base) == len(prime) == 3
        # validation and ordering only: the product outputs are not validated again
        assert calls.count((8, 8)) == 2 * len(base)


class TestChainPair:
    def test_reindexed_pair_matches_subnormalized_channel(self):
        v = flip_channel()
        sub = subnormalized_channel(v, (0.6, 0.4), 2, 0.5)
        base, prime = reindexed_pair(v, (0.6, 0.4), 2, 0.5)
        assert base.alphabet == prime.alphabet == (0, 1)
        assert prime.epsilon == sub.epsilon
        assert base.epsilon <= 1e-12
        vn = tensor_power(v, 2)
        for i, t in enumerate(sub.alphabet):
            assert np.array_equal(prime.output(i), sub.output(t))
            assert np.allclose(base.output(i), vn.output(t), atol=1e-15)

    def test_factor_reports_commuting_instance(self):
        v, p, n, delta = flip_channel(), (0.6, 0.4), 3, 0.5
        pairs = list(factor_reports(v, p, delta, [2, n]))
        assert [len(sub.alphabet[0]) for sub, _ in pairs] == [2, n]
        sub, reports = pairs[1]
        expected = subnormalized_channel(v, p, n, delta)
        assert sub.alphabet == expected.alphabet
        assert sub.epsilon == expected.epsilon
        for t in sub.alphabet:
            assert np.array_equal(sub.output(t), expected.output(t))
        assert [r.name for r in reports] == ["factor-norm", "factor-rank", "factor-product"]
        assert all(r.holds for r in reports)
        assert reports[0].lhs == pytest.approx(0.8**3, abs=1e-12)
        assert reports[1].lhs == 3
