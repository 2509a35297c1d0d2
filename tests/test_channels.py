"""Classical-quantum channels: composition, Holevo quantities, leakage,
optimizers.

The Holevo quantity is computed three ways (entropy difference, relative
entropy of the joint state, averaged relative entropy); the tests treat the
latter two as oracles for the first.  Leakage under common randomness is
checked against an explicit joint-state construction that embeds the seed
into the eavesdropper's output.  Optimizers are certified against
exhaustive simplex grids.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_cq_channel, random_density, random_probability, rng
from cqwiretap import operators as op
from cqwiretap.channels import (
    ClassicalChannel,
    CqChannel,
    adversarial_leakage,
    capacity_lifted,
    capacity_single_letter,
    complementary_pair,
    compose,
    conditional_entropy,
    holevo,
    holevo_average_form,
    holevo_relative_entropy_form,
    leakage_cr,
    mix,
    tensor_power,
)
from cqwiretap.errors import (
    ConvergenceWarning,
    DimensionMismatchError,
    InvalidStateError,
    ResourceCapError,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
I2 = np.eye(2, dtype=complex)

# chi of the uniform ensemble {|0><0|, |+><+|}: h((1 + 1/sqrt2)/2), closed form
CHI_ZERO_PLUS = 0.6008760366928562


def classical_channel_det(n: int) -> CqChannel:
    """Noiseless cq channel: n symbols to n orthogonal pure states."""
    outs = {x: np.zeros((n, n), dtype=complex) for x in range(n)}
    for x in range(n):
        outs[x][x, x] = 1.0
    return CqChannel(tuple(range(n)), n, outs)


def constant_channel(n_inputs: int, state: np.ndarray) -> CqChannel:
    return CqChannel(
        tuple(range(n_inputs)), state.shape[0], {x: state for x in range(n_inputs)}
    )


class TestTypes:
    def test_invalid_output_rejected(self):
        with pytest.raises(InvalidStateError):
            CqChannel((0,), 2, {0: 2 * I2})

    def test_alphabet_outputs_must_match(self):
        with pytest.raises(InvalidStateError):
            CqChannel((0, 1), 2, {0: I2 / 2})

    def test_classical_channel_rows_sum_to_one(self):
        with pytest.raises(InvalidStateError):
            ClassicalChannel((0,), {0: {0: 0.6, 1: 0.3}})

    def test_classical_channel_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            ClassicalChannel((0,), {0: {0: 1.2, 1: -0.2}})


class TestCompose:
    def test_identity_encoder(self):
        v = random_cq_channel(rng(30), 3, 2)
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        ev = compose(e, v)
        for m in range(3):
            assert_allclose(ev.output(m), v.output(m), atol=1e-14)

    def test_uniform_encoder_rows_give_full_mix(self):
        v = random_cq_channel(rng(31), 4, 2)
        e = ClassicalChannel((0, 1), {m: {x: 0.25 for x in range(4)} for m in range(2)})
        ev = compose(e, v)
        full = mix(v, v.alphabet)
        assert_allclose(ev.output(0), full, atol=1e-14)
        assert_allclose(ev.output(1), full, atol=1e-14)

    def test_matches_bruteforce_sum(self):
        g = rng(32)
        v = random_cq_channel(g, 3, 2)
        rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(3)}
        e = ClassicalChannel((0, 1, 2), rows)
        ev = compose(e, v)
        for m in range(3):
            expected = np.zeros((2, 2), dtype=complex)
            for x in range(3):
                expected = expected + rows[m][x] * v.output(x)
            assert_allclose(ev.output(m), expected, atol=1e-12)

    def test_alphabet_mismatch(self):
        v = random_cq_channel(rng(33), 2, 2)
        e = ClassicalChannel((0,), {0: {5: 1.0}})
        with pytest.raises(DimensionMismatchError):
            compose(e, v)


class TestTensorPower:
    def test_single_power_identical(self):
        v = random_cq_channel(rng(34), 2, 2)
        v1 = tensor_power(v, 1)
        assert_allclose(v1.output((0,)), v.output(0), atol=1e-14)

    def test_pure_product_state(self):
        v = classical_channel_det(2)
        v2 = tensor_power(v, 2)
        out = v2.output((0, 1))
        expected = np.kron(KET0, KET1)
        assert_allclose(out, expected, atol=1e-14)

    def test_entropy_additivity(self):
        g = rng(35)
        v = random_cq_channel(g, 2, 2)
        v2 = tensor_power(v, 2)
        s = op.entropy(v2.output((0, 1)))
        assert_allclose(s, op.entropy(v.output(0)) + op.entropy(v.output(1)), atol=1e-9)

    def test_dimension_cap(self):
        v = random_cq_channel(rng(36), 2, 4)
        with pytest.raises(ResourceCapError):
            tensor_power(v, 7)  # 4^7 = 16384 > 4096


class TestMix:
    def test_singleton(self):
        v = random_cq_channel(rng(37), 3, 2)
        assert_allclose(mix(v, [1]), v.output(1), atol=1e-14)

    def test_full_alphabet(self):
        v = random_cq_channel(rng(38), 3, 2)
        expected = sum(v.output(x) for x in range(3)) / 3
        assert_allclose(mix(v, v.alphabet), expected, atol=1e-14)

    def test_orthogonal_pure_pair_eigenvalues(self):
        v = classical_channel_det(2)
        w = np.linalg.eigvalsh(mix(v, [0, 1]))
        assert_allclose(np.sort(w), [0.5, 0.5], atol=1e-12)

    def test_empty_subset_rejected(self):
        v = random_cq_channel(rng(39), 2, 2)
        with pytest.raises(InvalidStateError):
            mix(v, [])


class TestHolevo:
    def test_constant_channel_zero(self):
        v = constant_channel(3, I2 / 2)
        assert_allclose(holevo(np.array([0.2, 0.3, 0.5]), v), 0.0, atol=1e-12)

    def test_orthogonal_pure_ensemble_one_bit(self):
        v = classical_channel_det(2)
        assert_allclose(holevo(np.array([0.5, 0.5]), v), 1.0, atol=1e-12)

    def test_frozen_zero_plus_ensemble(self):
        v = CqChannel((0, 1), 2, {0: KET0, 1: PLUS})
        assert_allclose(holevo(np.array([0.5, 0.5]), v), CHI_ZERO_PLUS, atol=1e-12)

    def test_three_forms_agree(self):
        g = rng(40)
        for _ in range(20):
            v = random_cq_channel(g, 3, 2)
            p = random_probability(g, 3)
            chi = holevo(p, v)
            assert_allclose(holevo_relative_entropy_form(p, v), chi, atol=1e-9)
            assert_allclose(holevo_average_form(p, v), chi, atol=1e-9)

    def test_bounds(self):
        g = rng(41)
        for _ in range(20):
            v = random_cq_channel(g, 4, 3)
            p = random_probability(g, 4)
            chi = holevo(p, v)
            avg = sum(pp * v.output(x) for pp, x in zip(p, v.alphabet))
            assert -1e-10 <= chi <= min(op.entropy(avg), 2.0) + 1e-9

    def test_data_processing(self):
        g = rng(42)
        for _ in range(10):
            v = random_cq_channel(g, 3, 2)
            rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(2)}
            e = ClassicalChannel((0, 1), rows)
            p = random_probability(g, 2)
            p_pushed = np.zeros(3)
            for i, m in enumerate((0, 1)):
                for x, prob in rows[m].items():
                    p_pushed[x] += p[i] * prob
            assert holevo(p, compose(e, v)) <= holevo(p_pushed, v) + 1e-9


class TestConditionalEntropy:
    def test_pure_state_channel(self):
        v = classical_channel_det(3)
        assert_allclose(conditional_entropy(np.ones(3) / 3, v), 0.0, atol=1e-12)

    def test_constant_channel(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        v = constant_channel(2, rho)
        assert_allclose(conditional_entropy(np.array([0.4, 0.6]), v), op.entropy(rho), atol=1e-12)

    def test_entropy_decomposition(self):
        g = rng(43)
        v = random_cq_channel(g, 3, 2)
        p = random_probability(g, 3)
        avg = sum(pp * v.output(x) for pp, x in zip(p, v.alphabet))
        assert_allclose(
            conditional_entropy(p, v), op.entropy(avg) - holevo(p, v), atol=1e-9
        )


def _joint_leakage_oracle(m_dist, encoders, v):
    """chi(M; S, E^S V) via the explicit seed-tagged joint ensemble."""
    seeds = sorted(encoders)
    n_s = len(seeds)
    d = v.dim
    states = []
    for m_i, m in enumerate(encoders[seeds[0]].inputs):
        sigma = np.zeros((n_s * d, n_s * d), dtype=complex)
        for s_i, s in enumerate(seeds):
            ev = compose(encoders[s], v)
            block = ev.output(m) / n_s
            sigma[s_i * d : (s_i + 1) * d, s_i * d : (s_i + 1) * d] = block
        states.append(sigma)
    avg = sum(p * sig for p, sig in zip(m_dist, states))
    return op.entropy(avg) - sum(
        p * op.entropy(sig) for p, sig in zip(m_dist, states) if p > 0
    )


class TestLeakageCr:
    def test_single_seed_reduces_to_plain_holevo(self):
        g = rng(44)
        v = random_cq_channel(g, 3, 2)
        rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(2)}
        e = ClassicalChannel((0, 1), rows)
        p = random_probability(g, 2)
        assert_allclose(leakage_cr(p, {0: e}, v), holevo(p, compose(e, v)), atol=1e-12)

    def test_constant_wiretap_zero(self):
        g = rng(45)
        v = constant_channel(3, I2 / 2)
        rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(2)}
        encoders = {s: ClassicalChannel((0, 1), rows) for s in range(3)}
        assert_allclose(leakage_cr(np.array([0.5, 0.5]), encoders, v), 0.0, atol=1e-12)

    def test_matches_joint_state_oracle(self):
        g = rng(46)
        v = random_cq_channel(g, 3, 2)
        encoders = {}
        for s in range(2):
            rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(2)}
            encoders[s] = ClassicalChannel((0, 1), rows)
        p = random_probability(g, 2)
        oracle = _joint_leakage_oracle(p, encoders, v)
        assert_allclose(leakage_cr(p, encoders, v), oracle, atol=1e-9)

    def test_repeated_encoder_equals_single_seed(self):
        g = rng(47)
        v = random_cq_channel(g, 3, 2)
        rows = {m: dict(zip(range(3), random_probability(g, 3))) for m in range(2)}
        e = ClassicalChannel((0, 1), rows)
        p = random_probability(g, 2)
        single = leakage_cr(p, {0: e}, v)
        repeated = leakage_cr(p, {s: e for s in range(4)}, v)
        assert repeated == pytest.approx(single, abs=1e-14)


class TestAdversarialLeakage:
    def test_constant_wiretap(self):
        v = constant_channel(2, I2 / 2)
        e = ClassicalChannel((0, 1), {m: {m: 1.0} for m in range(2)})
        res = adversarial_leakage({0: e}, v)
        assert_allclose(res.value, 0.0, atol=1e-9)

    def test_orthogonal_pure_pair_max_one_at_uniform(self):
        v = classical_channel_det(2)
        e = ClassicalChannel((0, 1), {m: {m: 1.0} for m in range(2)})
        res = adversarial_leakage({0: e}, v)
        assert_allclose(res.value, 1.0, atol=1e-8)
        assert_allclose(res.argmax, [0.5, 0.5], atol=1e-4)

    def test_dominates_uniform_leakage(self):
        g = rng(48)
        v = random_cq_channel(g, 3, 2)
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        res = adversarial_leakage({0: e}, v)
        uni = leakage_cr(np.ones(3) / 3, {0: e}, v)
        assert res.value >= uni - 1e-9

    def test_against_grid_oracle(self):
        g = rng(49)
        v = random_cq_channel(g, 3, 2)
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        res = adversarial_leakage({0: e}, v)
        best = 0.0
        resolution = 140  # 10011 grid points on the 3-simplex
        for a in range(resolution + 1):
            for b in range(resolution + 1 - a):
                p = np.array([a, b, resolution - a - b]) / resolution
                best = max(best, leakage_cr(p, {0: e}, v))
        assert res.value >= best - 1e-9
        assert abs(res.value - best) <= 1e-6

    @pytest.mark.parametrize("rank", [None, 2], ids=["qubit", "rank2-qutrit"])
    @pytest.mark.parametrize("n_seeds", [1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_two_sided_certificate(self, k, n_seeds, rank):
        # the lower side is attained and the upper side bounds every grid point
        g = rng(5600 + 100 * k + 10 * n_seeds + (rank or 0))
        dim = 3 if rank else 2
        v = CqChannel(range(4), dim, {x: random_density(g, dim, rank) for x in range(4)})
        encoders = {
            s: ClassicalChannel(
                range(k), {m: dict(enumerate(random_probability(g, 4))) for m in range(k)}
            )
            for s in range(n_seeds)
        }
        res = adversarial_leakage(encoders, v)
        assert res.converged and res.upper - res.value <= 1e-9
        if k == 2:
            grid = [np.array([a, 200 - a]) / 200 for a in range(201)]
        else:
            grid = [
                np.array([a, b, 30 - a - b]) / 30 for a in range(31) for b in range(31 - a)
            ]
        grid_best = max(leakage_cr(p, encoders, v) for p in grid)
        oracle = max(grid_best, leakage_cr(res.argmax, encoders, v))
        assert res.value <= oracle + 1e-9
        assert grid_best <= res.upper + 1e-12
        assert res.value >= grid_best - 1e-9

    def test_identical_states_certified_at_iteration_zero(self):
        v = constant_channel(3, random_density(rng(57), 2))
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        res = adversarial_leakage({0: e}, v, max_iters=0)
        assert res.converged
        assert res.upper - res.value == 0.0
        assert_allclose(res.argmax, np.full(3, 1 / 3), atol=0)

    def test_deterministic_and_draws_nothing(self, monkeypatch):
        v = random_cq_channel(rng(58), 3, 2)
        encoders = {
            s: ClassicalChannel((0, 1, 2), {m: {(m + s) % 3: 1.0} for m in range(3)})
            for s in range(2)
        }
        first = adversarial_leakage(encoders, v)
        legacy = np.random.get_state()
        for name in ("Generator", "default_rng", "RandomState"):
            monkeypatch.setattr(np.random, name, lambda *a, _n=name: pytest.fail(f"{_n} called"))
        second = adversarial_leakage(encoders, v)
        assert first.value == second.value and first.upper == second.upper
        assert np.array_equal(first.argmax, second.argmax)
        assert first.converged and second.converged
        saved = np.random.get_state()
        assert saved[0] == legacy[0] and np.array_equal(saved[1], legacy[1])
        assert saved[2:] == legacy[2:]


class TestCapacity:
    def test_equal_channels_exactly_zero(self):
        v = random_cq_channel(rng(50), 3, 2)
        res = capacity_single_letter(v, v)
        assert res.value == 0.0

    def test_noiseless_vs_constant(self):
        w = classical_channel_det(2)
        v = constant_channel(2, I2 / 2)
        res = capacity_single_letter(w, v)
        assert_allclose(res.value, 1.0, atol=1e-8)
        assert_allclose(res.argmax, [0.5, 0.5], atol=1e-3)

    def test_against_grid_oracle_qubits(self):
        g = rng(51)
        w = random_cq_channel(g, 2, 2)
        v = random_cq_channel(g, 2, 2)
        res = capacity_single_letter(w, v)

        def objective(p):
            return holevo(p, w) - holevo(p, v)

        best = -np.inf
        for a in range(10001):
            best = max(best, objective(np.array([a, 10000 - a]) / 10000))
        assert abs(res.value - best) <= 1e-4

    def test_lifted_lower_bound_consistency(self):
        g = rng(52)
        w = random_cq_channel(g, 2, 2)
        v = constant_channel(2, I2 / 2)
        single = capacity_single_letter(w, v).value
        lifted = capacity_lifted(w, v, 2).value
        # two-letter optimization can only improve on the product of singles
        assert lifted >= single - 1e-6


# one output of each invalid kind, stored unchecked so only the optimizers see it
INVALID_OUTPUTS = {
    "non-hermitian": np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
    "trace": np.diag([0.6, 0.6]).astype(complex),
    "negative": np.diag([1.2, -0.2]).astype(complex),
    "subnormalized": np.diag([0.5, 0.4]).astype(complex),
}


def unchecked_channel(bad: np.ndarray) -> CqChannel:
    return CqChannel((0, 1, 2), 2, {0: I2 / 2, 1: KET0, 2: bad}, validate=False)


class TestOptimizerInputs:
    @pytest.mark.parametrize("kind", sorted(INVALID_OUTPUTS))
    def test_adversarial_leakage_rejects_invalid_output(self, kind):
        v = unchecked_channel(INVALID_OUTPUTS[kind])
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        with pytest.raises(InvalidStateError):
            adversarial_leakage({0: e}, v)

    @pytest.mark.parametrize("kind", sorted(INVALID_OUTPUTS))
    def test_capacity_rejects_invalid_output(self, kind):
        bad = unchecked_channel(INVALID_OUTPUTS[kind])
        good = random_cq_channel(rng(53), 3, 2)
        with pytest.raises(InvalidStateError):
            capacity_single_letter(bad, good, starts=1)
        with pytest.raises(InvalidStateError):
            capacity_single_letter(good, bad, starts=1)

    def test_one_batched_eigensolve_per_evaluation(self, monkeypatch):
        # two seeds, three messages: after the entry check every eigensolve
        # is one eigh over both seeds' averages
        v = random_cq_channel(rng(55), 3, 2)
        encoders = {
            s: ClassicalChannel((0, 1, 2), {m: {(m + s) % 3: 1.0} for m in range(3)})
            for s in range(2)
        }
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg,
                name,
                lambda a, _real=real, _name=name: calls.append((_name, a.shape[:-2])) or _real(a),
            )
        res = adversarial_leakage(encoders, v)
        assert res.converged
        assert calls[:2] == [("eigvalsh", (2, 3)), ("eigvalsh", (2, 3))]
        assert len(calls) > 2 and set(calls[2:]) == {("eigh", (2, 1))}

    def test_unconverged_searches_warn(self):
        g = rng(54)
        w, v = random_cq_channel(g, 3, 2), random_cq_channel(g, 3, 2)
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        with pytest.warns(ConvergenceWarning, match="adversarial_leakage"):
            res = adversarial_leakage({0: e}, v, max_iters=1)
        assert not res.converged
        with pytest.warns(ConvergenceWarning, match="capacity_single_letter"):
            res = capacity_single_letter(w, v, starts=1, max_iters=1)
        assert not res.converged


class TestComplementaryPair:
    def test_copy_isometry_classical(self):
        # |x> -> |x>|x>
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = 1.0
        u[3, 1] = 1.0
        f = classical_channel_det(2)
        w, v = complementary_pair(u, 2, 2, f)
        for x in range(2):
            assert_allclose(w.output(x), f.output(x), atol=1e-12)
            assert_allclose(v.output(x), f.output(x), atol=1e-12)

    def test_product_embedding_constant_environment(self):
        # U = I (x) |0>_E : W = F, V constant
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = 1.0
        u[2, 1] = 1.0
        g = rng(53)
        f = random_cq_channel(g, 3, 2)
        w, v = complementary_pair(u, 2, 2, f)
        for x in range(3):
            assert_allclose(w.output(x), f.output(x), atol=1e-12)
            assert_allclose(v.output(x), KET0, atol=1e-12)

    def test_trace_preservation_random_isometry(self):
        g = rng(54)
        a = g.normal(size=(6, 2)) + 1j * g.normal(size=(6, 2))
        u, _ = np.linalg.qr(a)
        f = random_cq_channel(g, 2, 2)
        w, v = complementary_pair(u, 2, 3, f)
        for x in range(2):
            assert_allclose(np.trace(w.output(x)).real, 1.0, atol=1e-10)
            assert_allclose(np.trace(v.output(x)).real, 1.0, atol=1e-10)

    def test_equal_entropies_for_pure_inputs(self):
        g = rng(55)
        a = g.normal(size=(6, 2)) + 1j * g.normal(size=(6, 2))
        u, _ = np.linalg.qr(a)
        psi = g.normal(size=2) + 1j * g.normal(size=2)
        psi /= np.linalg.norm(psi)
        f = CqChannel((0,), 2, {0: np.outer(psi, psi.conj())})
        w, v = complementary_pair(u, 2, 3, f)
        assert_allclose(op.entropy(w.output(0)), op.entropy(v.output(0)), atol=1e-9)

    def test_non_isometry_rejected(self):
        u = np.ones((4, 2), dtype=complex)
        f = classical_channel_det(2)
        with pytest.raises(InvalidStateError):
            complementary_pair(u, 2, 2, f)
