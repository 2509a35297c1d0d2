"""Operator core: entropies, divergences, norms, supports.

Frozen expected values below come from scalar closed forms computed
independently of the library (binary entropy and classical divergences on
2x2 diagonal pairs), so the matrix code is checked against hand arithmetic,
not against itself.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import random_density, random_unitary, rng
from cqwiretap import operators as op
from cqwiretap.errors import DimensionMismatchError, InvalidStateError

# closed forms: h(1/4) = 2 - (3/4) log2 3; D and D_alpha of (1/2,1/2) vs (3/4,1/4)
H_QUARTER = 0.8112781244591329
D_HALF_VS_3QUARTER = 0.20751874963942196  # 1 - (log2 3)/2
D2_HALF_VS_3QUARTER = 0.41503749927884376  # log2(4/3)
DHALF_HALF_VS_3QUARTER = 0.10003137304700856  # -2 log2(sqrt(3/8) + sqrt(1/8))

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def diag(*vals):
    return np.diag(np.array(vals, dtype=complex))


class TestValidation:
    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidStateError):
            op.check_hermitian(a)

    def test_accepts_hermitian_within_tolerance(self):
        a = I2 + 1e-12 * np.array([[0, 1j], [0, 0]])
        op.check_hermitian(a)

    def test_density_trace_must_be_one(self):
        with pytest.raises(InvalidStateError):
            op.check_density(0.9 * I2 / 2)

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            op.check_density(diag(1.5, -0.5))

    def test_density_tolerates_eigenvalue_noise(self):
        op.check_density(diag(1.0 + 5e-11, -5e-11))

    def test_measurement_operator_range(self):
        op.check_measurement(diag(1.0, 0.25))
        with pytest.raises(InvalidStateError):
            op.check_measurement(diag(1.5, 0.0))

    def test_sub_povm_sum(self):
        op.check_sub_povm([0.5 * I2, 0.5 * I2], 2)
        with pytest.raises(InvalidStateError):
            op.check_sub_povm([0.7 * I2, 0.7 * I2], 2)


class TestEntropy:
    def test_pure_state_zero(self):
        assert op.entropy(KET0) == 0.0

    def test_maximally_mixed_one_bit(self):
        assert_allclose(op.entropy(I2 / 2), 1.0, atol=1e-12)

    def test_frozen_binary_entropy(self):
        assert_allclose(op.entropy(diag(0.75, 0.25)), H_QUARTER, atol=1e-12)

    def test_frozen_dyadic_spectrum(self):
        # S(diag(1/2,1/4,1/8,1/8)) = 1/2 + 2/4 + 2*3/8 = 7/4, exactly representable
        assert_allclose(op.entropy(diag(0.5, 0.25, 0.125, 0.125)), 1.75, atol=1e-12)

    def test_unitary_invariance(self):
        g = rng(11)
        for dim in (2, 3, 5):
            rho = random_density(g, dim)
            u = random_unitary(g, dim)
            assert_allclose(op.entropy(u @ rho @ u.conj().T), op.entropy(rho), atol=1e-9)

    def test_additive_under_tensor(self):
        g = rng(12)
        rho, sigma = random_density(g, 2), random_density(g, 3)
        assert_allclose(
            op.entropy(np.kron(rho, sigma)),
            op.entropy(rho) + op.entropy(sigma),
            atol=1e-9,
        )

    def test_binary_entropy_helper(self):
        assert op.binary_entropy(0.0) == 0.0
        assert op.binary_entropy(1.0) == 0.0
        assert_allclose(op.binary_entropy(0.25), H_QUARTER, atol=1e-14)


class TestRelativeEntropy:
    def test_identical_arguments_zero(self):
        g = rng(13)
        rho = random_density(g, 3)
        assert_allclose(op.relative_entropy(rho, rho), 0.0, atol=1e-10)

    def test_pure_vs_maximally_mixed(self):
        assert_allclose(op.relative_entropy(KET0, I2 / 2), 1.0, atol=1e-12)

    def test_support_violation_is_infinite(self):
        assert op.relative_entropy(I2 / 2, KET0) == np.inf

    def test_frozen_classical_pair(self):
        assert_allclose(
            op.relative_entropy(diag(0.5, 0.5), diag(0.75, 0.25)),
            D_HALF_VS_3QUARTER,
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            op.relative_entropy(I2 / 2, np.eye(3, dtype=complex) / 3)

    def test_nonnegative_on_random_pairs(self):
        g = rng(14)
        for _ in range(25):
            rho, sigma = random_density(g, 3), random_density(g, 3)
            assert op.relative_entropy(rho, sigma) >= -1e-10

    def test_pinsker_on_random_pairs(self):
        # ||rho - sigma||_1^2 <= 2 ln2 D(rho||sigma) whenever supports nest
        g = rng(15)
        for _ in range(50):
            rho, sigma = random_density(g, 4), random_density(g, 4)
            lhs = op.trace_norm(rho - sigma) ** 2
            rhs = 2 * np.log(2) * op.relative_entropy(rho, sigma)
            assert lhs <= rhs + 1e-9


def _eigh_entropy(rho):
    p = np.clip(np.linalg.eigh(rho)[0], 0.0, None)
    p = p[p > 0.0]
    return -float((p * np.log2(p)).sum())


def _eigh_divergence(rho, sigma):
    """D(rho||sigma) of one pair from two per-matrix eigendecompositions."""
    tr = np.trace(rho).real
    p = np.clip(np.linalg.eigh(rho)[0], 0.0, None)
    p = p[p > 0.0]
    t, v = np.linalg.eigh(sigma)
    supp = np.abs(t) > 1e-12 * np.abs(t).max()
    q = np.real(np.diag(v.conj().T @ rho @ v))
    if np.clip(q[~supp], 0.0, None).sum() > 1e-10 * tr:
        return np.inf
    return float((p * np.log2(p)).sum() - (q[supp] * np.log2(t[supp])).sum())


def _pure(g, dim):
    psi = g.normal(size=dim) + 1j * g.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


class TestStacked:
    def test_entropies_match_per_matrix_eigh(self):
        g = rng(31)
        for dim in (2, 3, 5):
            stack = np.array(
                [[random_density(g, dim, rank=1 + (i + j) % dim) for j in range(4)] for i in range(3)]
            )
            expected = np.array([[_eigh_entropy(r) for r in row] for row in stack])
            got = op.entropies(stack)
            assert got.shape == (3, 4)
            assert_allclose(got, expected, atol=1e-12)
            assert op.entropy(stack[1, 2]) == got[1, 2]

    def test_divergences_match_per_matrix_eigh(self):
        # message states (S, k, d, d) against per-seed averages (S, 1, d, d):
        # seed 1's average has rank 2 < d, so a full-rank state leaks (inf)
        # and states inside its support stay finite; all operands subnormalized
        g = rng(32)
        dim, k = 3, 4
        full = [[random_density(g, dim) for _ in range(k)] for _ in range(2)]
        pure = [_pure(g, dim), _pure(g, dim)]
        inside = [0.3 * pure[0] + 0.7 * pure[1], pure[0], pure[1], random_density(g, dim)]
        scales = g.uniform(0.2, 1.0, size=(2, k))
        rho = np.array([full[0], inside]) * scales[:, :, None, None]
        sigma = np.array([np.mean(full[1], axis=0), 0.5 * (pure[0] + pure[1])])[:, None] * 0.8
        got = op.relative_entropies(rho, sigma)
        expected = np.array([[_eigh_divergence(r, sigma[s, 0]) for r in rho[s]] for s in range(2)])
        assert got.shape == (2, k)
        assert np.isinf(expected[1, 3]) and np.isfinite(expected[1, :3]).all()
        assert_allclose(got, expected, atol=1e-10)
        assert op.relative_entropy(rho[1, 0], sigma[1, 0]) == got[1, 0]
        assert op.relative_entropy(rho[1, 3], sigma[1, 0]) == np.inf

    def test_known_entropies_skip_the_second_decomposition(self):
        g = rng(33)
        rho = np.array([random_density(g, 3, rank=r) for r in (1, 2, 3)])
        sigma = random_density(g, 3)
        assert_allclose(
            op.relative_entropies(rho, sigma, rho_entropy=op.entropies(rho)),
            op.relative_entropies(rho, sigma),
            atol=1e-13,
        )

    def test_each_operand_decomposed_once(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, _real=real: calls.append(a.shape) or _real(a)
            )
        g = rng(34)
        rho, sigma = random_density(g, 3), random_density(g, 3)
        for fn in (
            op.relative_entropy,
            op.exp2_renyi2,
            op.support_leq,
            lambda a, b: op.renyi_relative_entropy(2.0, a, b),
        ):
            calls.clear()
            fn(rho, sigma)
            assert calls == [(3, 3), (3, 3)]
        calls.clear()
        op.entropies(np.array([[rho, sigma]] * 5))
        assert calls == [(5, 2, 3, 3)]

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),  # not Hermitian
            diag(0.6, 0.6),  # trace 1.2
            diag(1.2, -0.2),  # negative eigenvalue
        ],
    )
    def test_one_invalid_matrix_rejects_the_stack(self, bad):
        stack = np.array([[I2 / 2, KET0], [KET1, bad]])
        with pytest.raises(InvalidStateError):
            op.entropies(stack)
        with pytest.raises(InvalidStateError):
            op.check_density(stack)


class TestRenyiRelativeEntropy:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            op.renyi_relative_entropy(1.0, I2 / 2, I2 / 2)

    def test_identical_arguments_zero(self):
        g = rng(16)
        rho = random_density(g, 3)
        for alpha in (0.5, 2.0):
            assert_allclose(op.renyi_relative_entropy(alpha, rho, rho), 0.0, atol=1e-10)

    def test_pure_vs_maximally_mixed_renyi2(self):
        assert_allclose(op.renyi_relative_entropy(2.0, KET0, I2 / 2), 1.0, atol=1e-12)

    def test_frozen_classical_pair(self):
        rho, sigma = diag(0.5, 0.5), diag(0.75, 0.25)
        assert_allclose(
            op.renyi_relative_entropy(2.0, rho, sigma), D2_HALF_VS_3QUARTER, atol=1e-12
        )
        assert_allclose(
            op.renyi_relative_entropy(0.5, rho, sigma), DHALF_HALF_VS_3QUARTER, atol=1e-12
        )

    def test_support_violation_above_one(self):
        assert op.renyi_relative_entropy(2.0, I2 / 2, KET0) == np.inf

    def test_orthogonal_supports_below_one(self):
        assert op.renyi_relative_entropy(0.5, KET0, KET1) == np.inf

    def test_monotone_in_alpha(self):
        # D_alpha nondecreasing across {0.5, 0.9, 1 (KL), 1.1, 2}
        g = rng(17)
        for _ in range(20):
            rho, sigma = random_density(g, 3), random_density(g, 3)
            d = op.relative_entropy(rho, sigma)
            grid = [
                op.renyi_relative_entropy(0.5, rho, sigma),
                op.renyi_relative_entropy(0.9, rho, sigma),
                d,
                op.renyi_relative_entropy(1.1, rho, sigma),
                op.renyi_relative_entropy(2.0, rho, sigma),
            ]
            for lo, hi in zip(grid, grid[1:]):
                assert lo <= hi + 1e-9

    def test_exp2_renyi2_matches_explicit_inverse(self):
        # tr(rho^2 sigma^{-1}) against a dense inverse of a full-rank sigma
        g = rng(18)
        for _ in range(10):
            rho = random_density(g, 3)
            sigma = random_density(g, 3)
            expected = np.trace(rho @ rho @ np.linalg.inv(sigma)).real
            assert_allclose(op.exp2_renyi2(rho, sigma), expected, rtol=1e-9)

    def test_exp2_renyi2_consistent_with_renyi2(self):
        g = rng(19)
        rho, sigma = random_density(g, 4), random_density(g, 4)
        assert_allclose(
            np.log2(op.exp2_renyi2(rho, sigma)),
            op.renyi_relative_entropy(2.0, rho, sigma),
            atol=1e-10,
        )


class TestNormsAndSupports:
    def test_trace_norm_zero(self):
        assert op.trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_trace_norm_orthogonal_pure_difference(self):
        assert_allclose(op.trace_norm(KET0 - KET1), 2.0, atol=1e-12)

    def test_trace_norm_against_singular_values(self):
        # independent route: singular values of a Hermitian matrix
        g = rng(20)
        for _ in range(20):
            a = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
            h = a + a.conj().T
            h -= np.trace(h) / 4 * np.eye(4)
            assert_allclose(op.trace_norm(h), np.linalg.svd(h, compute_uv=False).sum(), rtol=1e-10)

    def test_operator_norm_identity(self):
        assert_allclose(op.operator_norm(np.eye(3, dtype=complex)), 1.0, atol=1e-12)

    def test_rank_eps(self):
        assert op.rank_eps(KET0) == 1
        assert op.rank_eps(I2) == 2
        assert op.rank_eps(np.zeros((2, 2), dtype=complex)) == 0
        # relative threshold: a tiny but genuine eigenvalue still counts
        assert op.rank_eps(diag(1.0, 1e-9)) == 2

    def test_support_leq(self):
        assert op.support_leq(KET0, I2 / 2)
        assert not op.support_leq(I2 / 2, KET0)
        assert op.support_leq(np.zeros((2, 2), dtype=complex), KET0)


class TestPartialTrace:
    def test_product_state_factors(self):
        g = rng(21)
        rho, sigma = random_density(g, 2), random_density(g, 3)
        joint = np.kron(rho, sigma)
        assert_allclose(op.partial_trace(joint, 2, 3, keep=0), rho, atol=1e-12)
        assert_allclose(op.partial_trace(joint, 2, 3, keep=1), sigma, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        joint = np.outer(psi, psi.conj())
        assert_allclose(op.partial_trace(joint, 2, 2, keep=0), I2 / 2, atol=1e-12)


# hypothesis strategies: Hermitian matrices at shared sizes
_dims = st.shared(st.integers(2, 6), key="dim")
_reals = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=64)
_mats = arrays(np.float64, st.tuples(_dims, _dims), elements=_reals)


@given(_mats, _mats)
@settings(max_examples=40, deadline=None)
def test_entropy_bounds_property(re, im):
    a = re + 1j * im
    rho = a @ a.conj().T + 1e-6 * np.eye(a.shape[0])
    tr = np.trace(rho).real
    assume(np.isfinite(tr) and tr > 1e-4)
    rho = rho / tr
    s = op.entropy(rho)
    assert -1e-9 <= s <= np.log2(a.shape[0]) + 1e-9


@given(_mats)
@settings(max_examples=40, deadline=None)
def test_trace_norm_dominates_trace_property(re):
    h = (re + re.T) / 2
    h = h.astype(complex)
    assume(np.all(np.isfinite(h)))
    assert op.trace_norm(h) >= abs(np.trace(h).real) - 1e-9
