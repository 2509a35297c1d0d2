"""Classical-quantum channels: composition, Holevo quantities, leakage,
optimizers.

The library computes the Holevo quantity one way, as an entropy
difference; the relative entropy of the joint state and the averaged
relative entropy are its oracles, kept in ``conftest``.  Leakage under common randomness is
checked against an explicit joint-state construction that embeds the seed
into the eavesdropper's output.  Optimizers are certified against
exhaustive simplex grids.
"""

import tracemalloc
import warnings
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    capacity_sequential,
    grid_holevo,
    holevo_average_form,
    holevo_relative_entropy_form,
    load_workloads,
    mix,
    random_cq_channel,
    random_density,
    random_probability,
    random_unitary,
    rng,
    simplex_grid,
)
from cqwiretap import channels
from cqwiretap import operators as op
from cqwiretap import serialize
from cqwiretap.channels import (
    ClassicalChannel,
    CqChannel,
    adversarial_leakage,
    capacity_lifted,
    capacity_single_letter,
    complementary_pair,
    check_distribution,
    compose,
    holevo,
    leakage_cr,
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


class TestValidatedOutputs:
    """The outputs are checked as one stack; each message matches the one
    the same fault gave when the outputs were checked one at a time."""

    HALF = I2 / 2

    def test_one_eigensolve_per_channel(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        g = rng(41)
        v = CqChannel(range(5), 3, {x: random_density(g, 3) for x in range(5)})
        assert calls == [(5, 3, 3)]
        back = serialize.channel_from_json(serialize.channel_to_json(v))
        assert calls == [(5, 3, 3), (5, 3, 3)]
        for x in v.alphabet:
            assert np.array_equal(back.output(x), v.output(x))

    def test_scaled_channel_not_validated_again(self, monkeypatch):
        # a factor in (0, 1] keeps validated outputs Hermitian PSD of trace
        # <= 1, so damping makes no eigensolve
        g = rng(41)
        v = CqChannel(range(8), 2, {x: random_density(g, 2) for x in range(8)})
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, _real=real: calls.append(a.shape) or _real(a))
        damped = v.scaled(0.9)
        assert calls == []
        for x in v.alphabet:
            assert np.array_equal(damped.output(x), 0.9 * v.output(x))
        assert damped.epsilon == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(InvalidStateError):
            v.scaled(1.5)

    def test_non_hermitian_output_after_the_first(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError) as err:
            CqChannel((0, 1, 2), 2, {0: self.HALF, 1: self.HALF, 2: skew})
        assert str(err.value) == "matrix is not Hermitian: deviation 1.000e-01 > 1.0e-10"

    def test_negative_output_after_the_first(self):
        with pytest.raises(InvalidStateError) as err:
            CqChannel((0, 1, 2), 2, {0: self.HALF, 1: np.diag([1.2, -0.2]), 2: self.HALF})
        assert str(err.value) == "operator is not positive semidefinite: min eigenvalue -2.000e-01"

    def test_over_trace_names_the_first_failing_symbol(self):
        with pytest.raises(InvalidStateError) as err:
            outputs = {"a": self.HALF, "b": np.diag([0.75, 0.5]), "c": np.diag([1.0, 1.0])}
            CqChannel(("a", "b", "c"), 2, outputs)
        assert str(err.value) == "output for 'b' has trace 1.25 > 1"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_output_rejected(self, value):
        bad = self.HALF.copy()
        bad[0, 1] = bad[1, 0] = value
        with pytest.raises(InvalidStateError, match="non-finite"):
            CqChannel((0, 1), 2, {0: self.HALF, 1: bad})


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
    """``channels._mixtures``, the one mixture routine of the package."""

    def test_singleton(self):
        v = random_cq_channel(rng(37), 3, 2)
        states = np.array(v.states())
        assert np.array_equal(channels._mixtures(np.eye(3)[1], states), v.output(1))

    def test_full_alphabet(self):
        v = random_cq_channel(rng(38), 3, 2)
        expected = sum(v.output(x) for x in range(3)) / 3
        got = channels._mixtures(np.full(3, 1 / 3), np.array(v.states()))
        assert_allclose(got, expected, atol=1e-14)
        assert_allclose(got, mix(v, v.alphabet), atol=1e-14)

    def test_orthogonal_pure_pair_eigenvalues(self):
        v = classical_channel_det(2)
        w = np.linalg.eigvalsh(channels._mixtures(np.full(2, 0.5), np.array(v.states())))
        assert_allclose(np.sort(w), [0.5, 0.5], atol=1e-12)

    def test_batch_rows_match_single_mixtures(self):
        # a weight array of any leading shape gives every row the bits it
        # gets alone, as the chain table's (|M|, |S|, |X|) weights rely on
        g = rng(39)
        v = random_cq_channel(g, 4, 3)
        states = np.array(v.states())
        weights = np.array([[random_probability(g, 4) for _ in range(3)] for _ in range(2)])
        batch = channels._mixtures(weights, states)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(batch[i, j], channels._mixtures(weights[i, j], states))


class TestCheckDistribution:
    def test_returns_a_float_vector(self):
        p = check_distribution((1, 0, 0), 3)
        assert p.dtype == float and p.tolist() == [1.0, 0.0, 0.0]
        assert check_distribution([0.25, 0.75]).tolist() == [0.25, 0.75]

    @pytest.mark.parametrize(
        "p", [[1.2, -0.1, -0.1], [0.6, 0.6, 0.6], [0.5, 0.5, np.nan], [np.inf, 0.0, 0.0]]
    )
    def test_not_a_probability_vector(self, p):
        with pytest.raises(InvalidStateError):
            check_distribution(p, 3)

    @pytest.mark.parametrize(
        "p, size", [([0.5, 0.5], 3), ([[0.5, 0.5]], 2), ([], 2), (1.0, 1), ([], None), ([[1.0]], None)]
    )
    def test_wrong_shape(self, p, size):
        with pytest.raises(DimensionMismatchError):
            check_distribution(p, size)

    @pytest.mark.parametrize(
        "p",
        [["0.5", "0.5"], [True, False], [0.5, True], [0.5, "0.5"], (1, False),
         np.array([True, False]), np.array(["0.5", "0.5"])],
        ids=["strings", "bools", "float-and-bool", "float-and-string", "int-and-bool tuple",
             "bool array", "string array"],
    )
    def test_non_number_entries_rejected(self, p):
        # numpy alone reads [0.5, True] as (0.5, 1.0) and "0.5" as 0.5
        with pytest.raises(InvalidStateError, match="^m entry must be a number$"):
            check_distribution(p, 2, "m")

    def test_non_number_entries_rejected_by_library_entries(self):
        v = CqChannel((0, 1), 2, {0: np.diag([0.8, 0.2]), 1: np.diag([0.2, 0.8])})
        for p in (["0.5", "0.5"], [True, False]):
            with pytest.raises(InvalidStateError, match="entry must be a number"):
                holevo(p, v)

    @pytest.mark.parametrize(
        "p", [[0, 1], (1, 0), np.array([0.25, 0.75]), np.array([1, 0]), np.array([0.5, 0.5], np.float32)]
    )
    def test_numbers_accepted(self, p):
        q = check_distribution(p, 2)
        assert q.dtype == float and q.tolist() == [float(x) for x in p]


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


def conditional_entropy(p, v) -> float:
    """S(V|P) as the library reads it: the entropies of the validated
    output stack, weighted by P."""
    return float((channels._validated_stack(v.states())[1] * np.asarray(p)).sum())


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

    @pytest.mark.parametrize("p", [[1.2, -0.1, -0.1], [0.6, 0.6, 0.6]])
    def test_invalid_message_distribution_rejected(self, p):
        # the average of a non-probability vector is no density, and the
        # entropies would read it as one without this check
        v = random_cq_channel(rng(48), 3, 2)
        e = ClassicalChannel((0, 1, 2), {m: {m: 1.0} for m in range(3)})
        with pytest.raises(InvalidStateError):
            leakage_cr(p, {0: e, 1: e}, v)
        with pytest.raises(InvalidStateError):
            holevo(p, v)


def encoders_over(*message_sets):
    """One encoder per seed, message i of each set sent to input i."""
    return {
        s: ClassicalChannel(msgs, {m: {i: 1.0} for i, m in enumerate(msgs)})
        for s, msgs in enumerate(message_sets)
    }


@pytest.mark.parametrize(
    "message_sets", [(("a", "b"), ("c", "d")), ((0, 1), (0, 1, 2))], ids=["renamed", "sizes"]
)
@pytest.mark.parametrize("search", [adversarial_leakage, partial(leakage_cr, [0.5, 0.5])])
def test_seeds_must_share_one_message_set(message_sets, search):
    v = random_cq_channel(rng(49), 3, 2)
    with pytest.raises(InvalidStateError, match="one message set"):
        search(encoders_over(*message_sets), v)


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
        resolution = 140  # 10011 grid points on the 3-simplex
        points = [
            np.array([a, b, resolution - a - b]) / resolution
            for a in range(resolution + 1)
            for b in range(resolution + 1 - a)
        ]
        # e is the identity encoder, so the leakage is chi over v itself
        best = max(0.0, grid_holevo(points, v.states()).max())
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


    @pytest.mark.parametrize("seed", [8, 156, 213, 389])
    def test_flat_four_message_codes_certify(self, seed, monkeypatch):
        # four messages over three qubit inputs: the four message states are
        # linearly dependent, so chi is linear along one direction of the
        # simplex, where first-order ascent alone stalls short of its gap
        # within 2000 steps; the search certifies the gap within 100
        # evaluations, and its upper side bounds chi on the whole simplex
        g = rng(seed)
        v = CqChannel(range(3), 2, {x: random_density(g, 2) for x in range(3)})
        code = ClassicalChannel(
            range(4), {m: dict(enumerate(random_probability(g, 3))) for m in range(4)}
        )
        eigh = count_eigh(monkeypatch)
        res = adversarial_leakage({0: code}, v)
        assert res.converged and res.upper - res.value <= 1e-9
        assert len(eigh) <= 100
        points = np.vstack([rng(9).dirichlet(np.ones(4), size=20000), np.eye(4)])
        assert grid_holevo(points, compose(code, v).states()).max() <= res.upper

    @pytest.mark.parametrize(
        "k, n_seeds, dim, rank",
        [(4, 1, 2, None), (5, 2, 2, None), (6, 1, 3, 2), (7, 2, 3, 2), (8, 1, 2, None)],
    )
    def test_sweep_certifies(self, k, n_seeds, dim, rank):
        g = rng(5700 + 10 * k + n_seeds)
        v = CqChannel(range(4), dim, {x: random_density(g, dim, rank) for x in range(4)})
        encoders = {
            s: ClassicalChannel(
                range(k), {m: dict(enumerate(random_probability(g, 4))) for m in range(k)}
            )
            for s in range(n_seeds)
        }
        assert_certified(adversarial_leakage(encoders, v), encoders, v, rng(k))

    def test_rank_deficient_average_certifies_without_newton(self, monkeypatch):
        # qutrit outputs on one plane: every average has an eigenvalue 0,
        # so no Newton trial is tried and the Blahut-Arimoto step alone
        # certifies the gap
        g = rng(5790)
        plane = np.zeros((3, 3), dtype=complex)
        outputs = {}
        for x in range(4):
            outputs[x] = plane.copy()
            outputs[x][:2, :2] = random_density(g, 2)
        v = CqChannel(range(4), 3, outputs)
        encoders = {
            0: ClassicalChannel(
                range(5), {m: dict(enumerate(random_probability(g, 4))) for m in range(5)}
            )
        }
        hessians = []
        real = channels._chi_hessian
        monkeypatch.setattr(channels, "_chi_hessian", lambda *a: hessians.append(1) or real(*a))
        assert_certified(adversarial_leakage(encoders, v), encoders, v, rng(5))
        assert not hessians


def count_eigh(monkeypatch) -> list:
    """Record one entry per ``np.linalg.eigh`` call from here on."""
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real(a))
    return calls


def assert_certified(res, encoders, v, g):
    """The search converged, its value is attained at ``argmax``, and 2000
    Dirichlet points and the vertices stay at or below its upper side."""
    assert res.converged and res.upper - res.value <= 1e-9
    assert abs(res.value - leakage_cr(res.argmax, encoders, v)) <= 1e-12
    k = len(res.argmax)
    points = np.vstack([g.dirichlet(np.ones(k), size=2000), np.eye(k)])
    grid = [grid_holevo(points, compose(e, v).states()) for e in encoders.values()]
    assert np.mean(grid, axis=0).max() <= res.upper


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
        points = np.stack([np.arange(10001), 10000 - np.arange(10001)], axis=1) / 10000
        best = (grid_holevo(points, w.states()) - grid_holevo(points, v.states())).max()
        assert abs(res.value - best) <= 1e-4

    def test_lifted_lower_bound_consistency(self):
        g = rng(52)
        w = random_cq_channel(g, 2, 2)
        v = constant_channel(2, I2 / 2)
        single = capacity_single_letter(w, v).value
        lifted = capacity_lifted(w, v, 2).value
        # two-letter optimization can only improve on the product of singles
        assert lifted >= single - 1e-6


def golden_channel(name: str) -> CqChannel:
    path = Path(__file__).resolve().parent / "golden" / "inputs" / f"{name}.json"
    return serialize.channel_from_json(serialize.load_json(path))


def random_pair(seed: int, k: int, dim_w: int = 2, dim_v: int = 2, rank=None):
    g = rng(seed)
    w = CqChannel(range(k), dim_w, {x: random_density(g, dim_w, rank) for x in range(k)})
    v = CqChannel(range(k), dim_v, {x: random_density(g, dim_v, rank) for x in range(k)})
    return w, v


CAPACITY_PAIRS = {
    "golden-qutrit-clock": lambda: (golden_channel("qutrit"), golden_channel("clock")),
    "qubit-k2": lambda: random_pair(70, 2),
    "qubit-k3": lambda: random_pair(71, 3),
    "w-equals-v": lambda: (random_pair(72, 3)[0],) * 2,
    "k4-no-grid": lambda: random_pair(73, 4),
    "k5-no-grid": lambda: random_pair(74, 5),
    "unequal-dims": lambda: random_pair(75, 3, dim_w=3, dim_v=2),
    # pure outputs leave the support of the average on the simplex faces,
    # so the gradient has infinite entries there
    "rank-deficient": lambda: random_pair(76, 3, dim_w=2, dim_v=3, rank=1),
    "rank-deficient-k4": lambda: random_pair(77, 4, rank=1),
}


def both_searches(w, v, seed=3, **kw):
    """Run the lockstep search and the sequential oracle on the same
    stream, require bit-equal results and return the lockstep one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        batch = capacity_single_letter(w, v, rng=rng(seed), **kw)
    oracle = capacity_sequential(w, v, rng=rng(seed), **kw)
    assert batch.value == oracle.value
    assert np.array_equal(batch.argmax, oracle.argmax)
    assert batch.converged == oracle.converged
    return batch


@pytest.fixture
def stall_only(monkeypatch):
    """Switch off the residual stop of the capacity ascent, in the search
    and in the sequential oracle, so every row ends by the stall rule, the
    step floor or its budget."""
    monkeypatch.setattr(channels, "_KKT_TOL", -np.inf)


# one round of a row of the capacity ascent: the trials it tried, those it
# took (all of them in a round after an accepted one or in its first round,
# else up to and including the first accepted one) and whether one was
# accepted
Round = namedtuple("Round", ["tried", "taken", "accepted"])
# a row of the ascent replayed alone: its rounds, whether it stopped (not
# out of trials) and its final point
Row = namedtuple("Row", ["rounds", "stopped", "point"])


def ladder_rows(monkeypatch, w, v, seed=3, **kw):
    """Run :func:`both_searches` and replay each row of its ascent alone.

    Returns the search's result and a :data:`Row` per row.  Each row is
    replayed through ``channels._ascend`` with the search's own objective
    and gradient, and must end on the bits it ended on inside the batch.
    """
    seen = {}
    real = channels._ascend

    def spy(p, objectives, gradients, max_iters):
        seen.update(p=p.copy(), objectives=objectives, gradients=gradients)
        seen["out"] = real(p, objectives, gradients, max_iters)
        return seen["out"]

    monkeypatch.setattr(channels, "_ascend", spy)
    batch = both_searches(w, v, seed=seed, **kw)
    max_iters = kw.get("max_iters", 400)
    rows = []
    for r, p0 in enumerate(seen["p"]):
        rounds, current = [], []

        def objectives(p):
            vals = seen["objectives"](p)
            if not current:
                current.append(vals[0])
                return vals
            up = np.flatnonzero(vals > current[-1] + 1e-15)
            if not rounds or rounds[-1].accepted:
                # Newton point and doubled steps: every trial counts, the
                # best accepted one is taken
                rounds.append(Round(len(vals), len(vals), bool(up.size)))
                if up.size:
                    current.append(vals[up].max())
            else:
                taken = up[0] + 1 if up.size else len(vals)
                rounds.append(Round(len(vals), taken, bool(up.size)))
                if up.size:
                    current.append(vals[up[0]])
            return vals

        p, val, stopped = real(p0[None].copy(), objectives, seen["gradients"], max_iters)
        out_p, out_val, out_stopped = seen["out"]
        assert np.array_equal(p[0], out_p[r]) and val[0] == out_val[r]
        assert stopped[0] == out_stopped[r]
        rows.append(Row(rounds, bool(stopped[0]), p[0]))
    return batch, rows


class TestCapacityParity:
    @pytest.mark.parametrize("name", sorted(CAPACITY_PAIRS))
    def test_lockstep_matches_sequential(self, name):
        batch = both_searches(*CAPACITY_PAIRS[name]())
        if name == "w-equals-v":
            assert batch.value == 0.0

    @pytest.mark.usefixtures("stall_only")
    @pytest.mark.parametrize("max_iters", [3, 45])
    def test_rows_stopping_at_different_steps(self, monkeypatch, max_iters):
        # max_iters is each row's budget of trials; at 3 no row can stop, at
        # 45 some rows have stopped and others run out of trials
        w, v = random_pair(71, 3)
        batch, rows = ladder_rows(monkeypatch, w, v, max_iters=max_iters)
        spent = [sum(r.taken for r in row.rounds) for row in rows]
        stopped = [row.stopped for row in rows]
        assert len(rows) == 18 and max(spent) <= max_iters
        assert all(row_stopped or n == max_iters for n, row_stopped in zip(spent, stopped))
        if max_iters == 3:
            assert not any(stopped) and not batch.converged
        else:
            assert any(stopped) and not all(stopped)
            assert min(spent) < max_iters

    def test_finite_gradient_per_row(self):
        g = np.array(
            [
                [1.0, np.inf, -np.inf, 3.0],
                [-5.0, np.nan, 10.0, -np.inf],
                [np.inf, -np.inf, np.nan, np.inf],
            ]
        )
        out = channels._finite_gradient(g)
        assert np.array_equal(out[0], [1.0, 103.0, -99.0, 3.0])
        assert np.array_equal(out[1], [-5.0, 110.0, 10.0, -105.0])
        assert np.array_equal(out[2], [100.0, -100.0, 100.0, 100.0])
        # a row alone gets the same bits as inside the stack
        for row, expected in zip(g, out):
            assert np.array_equal(channels._finite_gradient(row), expected)

    def test_project_simplex_rows_match_single_rows(self):
        y = rng(78).normal(size=(6, 4))
        y[0] = [2.0, 2.0, -1.0, 0.5]
        out = channels._project_simplex(y)
        assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out >= 0.0).all()
        for row, expected in zip(y, out):
            assert np.array_equal(channels._project_simplex(row), expected)


# rows of the last two accept trials after runs of rejections, where a
# batch of every remaining halving would take 2.7-2.8 times the oracle's
# trials
LADDER_PAIRS = {
    "qubit-k3": (71, 3),
    "qubit-k2": (70, 2),
    "late-accepts-k3": (75, 3),
    "late-accepts-k2": (77, 2),
}


def closing_run(rounds):
    """The rounds after a row's last accepted trial."""
    last = max((i for i, r in enumerate(rounds) if r.accepted), default=-1)
    return rounds[last + 1 :]


@pytest.mark.usefixtures("stall_only")
class TestCapacityLadder:
    """A row whose last round was accepted tries its Newton point and four
    doubled steps in one round; a row rejected s times in a row tries its
    next s halved steps as one batch; the iterates and budgets are the
    sequential ascent's.  The residual stop is off, so the closing runs
    are those of the stall rule."""

    @pytest.mark.parametrize("name", sorted(LADDER_PAIRS))
    def test_row_trials_at_most_twice_the_oracle(self, monkeypatch, name):
        # each row takes the trials of the sequential oracle (ladder_rows
        # and both_searches check that bit for bit); a halving batch tries
        # more than it takes only past its first accepted trial
        _, rows = ladder_rows(monkeypatch, *random_pair(*LADDER_PAIRS[name]))
        tried = sum(r.tried for row in rows for r in row.rounds)
        taken = sum(r.taken for row in rows for r in row.rounds)
        assert 0 < tried <= 2 * taken

    @pytest.mark.parametrize("name", sorted(LADDER_PAIRS))
    def test_closing_run_takes_five_rounds(self, monkeypatch, name):
        # 41 rejections: the round of the Newton point and doubled steps,
        # then halving batches of 5, 10 and 20 trials and one last trial, or
        # without a Newton point 4 doubled steps and batches of 4, 8, 16, 9
        _, rows = ladder_rows(monkeypatch, *random_pair(*LADDER_PAIRS[name]))
        stalls = 0
        for row in rows:
            assert row.stopped
            run = closing_run(row.rounds)
            assert len(run) <= 5 and sum(r.tried for r in run) <= 41
            if sum(r.tried for r in run) == 41:
                stalls += 1
                assert [r.tried for r in run] in ([5, 5, 10, 20, 1], [4, 4, 8, 16, 9])
        assert stalls > 0

    @pytest.mark.parametrize("name", sorted(LADDER_PAIRS))
    def test_budget_ending_mid_ladder(self, monkeypatch, name):
        # the budget ends two trials into the third batch (10 or 8 halved
        # steps) of the closing run of the row whose point the full search
        # returns
        w, v = random_pair(*LADDER_PAIRS[name])
        full, rows = ladder_rows(monkeypatch, w, v)
        r = next(i for i, row in enumerate(rows) if np.array_equal(row.point, full.argmax))
        rounds = rows[r].rounds
        run = closing_run(rounds)
        assert full.converged and len(run) == 5
        before = sum(x.taken for x in rounds[: len(rounds) - len(run)])
        budget = before + run[0].tried + run[1].tried + 2
        cut, cut_rows = ladder_rows(monkeypatch, w, v, max_iters=budget)
        assert not cut.converged
        assert np.array_equal(cut.argmax, full.argmax)
        assert not cut_rows[r].stopped
        assert cut_rows[r].rounds == rounds[: len(rounds) - 3] + [Round(2, 2, False)]


# rounds and trial rows of the capacity ascent of each pair at seed 3; a
# projected-gradient ascent without the Newton trial, whose accepted steps
# grew by 1.2, took at least twice these rounds: 17, 18, 22, 16, 10, 25,
# 24, 31 and 0 (the stall rule alone takes 738-1065 trial rows on each)
CAPACITY_COUNTS = {
    "golden-qutrit-clock": (5, 315),
    "k4-no-grid": (6, 343),
    "k5-no-grid": (4, 249),
    "qubit-k2": (4, 156),
    "qubit-k3": (3, 126),
    # the infinite gradient entries at its simplex vertex keep the residual
    # large, so its rows still end by the stall rule
    "rank-deficient": (10, 886),
    "rank-deficient-k4": (6, 326),
    "unequal-dims": (10, 357),
    "w-equals-v": (0, 0),
}


def count_trials(monkeypatch) -> list:
    """Record the trial rows of each round of the capacity ascent (one
    ``channels._project_simplex`` call per round) from here on."""
    rounds = []
    real = channels._project_simplex
    monkeypatch.setattr(channels, "_project_simplex", lambda y: rounds.append(len(y)) or real(y))
    return rounds


class TestCapacityResidualStop:
    """A row of the capacity ascent stops once max g - min_{p_x > 0} g_x is
    at most ``_KKT_TOL``, before its first trial and each time it moves."""

    def test_residual_reads_the_support(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
        g = np.array([[1.0, 1.0, 0.5], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
        # 0 on a flat support with lower entries off it and at a vertex
        # whose entry is the largest, whatever multiple of ones g carries
        assert np.array_equal(channels._kkt_residual(p, g), [0.0, 0.0, 1.0, 2.0])
        assert np.array_equal(channels._kkt_residual(p, g - 5.0), [0.0, 0.0, 1.0, 2.0])
        assert channels._KKT_TOL == 1e-6
        # a weight at or below the support floor is off the support
        assert channels._SUPPORT_FLOOR == 1e-12
        p[0, 2], p[1, 0] = 4e-17, 1e-12
        p[0] /= p[0].sum()
        assert np.array_equal(channels._kkt_residual(p, g), [0.0, 0.0, 1.0, 2.0])
        p[1, 0] = 2e-12
        assert channels._kkt_residual(p, g)[1] == 2.0

    def test_kkt_start_takes_no_trial(self, monkeypatch):
        # the golden pair's uniform start is a KKT point: one gradient, no
        # trial, and it stays uniform bit for bit; another row reaches the
        # same maximum 2.2e-16 higher through rounding, 1.3e-12 off uniform
        seen = {}
        real = channels._ascend

        def spy(p, objectives, gradients, max_iters):
            seen.update(objectives=objectives, gradients=gradients)
            return real(p, objectives, gradients, max_iters)

        monkeypatch.setattr(channels, "_ascend", spy)
        res = both_searches(*CAPACITY_PAIRS["golden-qutrit-clock"](), starts=4)
        uniform = np.full(3, 1.0 / 3)
        gradients, trials = [], count_trials(monkeypatch)
        p, val, stopped = real(
            uniform[None].copy(),
            seen["objectives"],
            lambda p: gradients.append(len(p)) or seen["gradients"](p),
            400,
        )
        assert gradients == [1] and trials == [] and stopped[0]
        assert np.array_equal(p[0], uniform)
        assert res.converged and 0.0 <= res.value - val[0] <= 1e-15
        assert_allclose(res.argmax, uniform, rtol=0, atol=1e-11)

    def test_single_input_takes_no_trial(self, monkeypatch):
        # with the stall rule alone each of the 18 rows took 41 trials
        trials = count_trials(monkeypatch)
        res = both_searches(*random_pair(79, 1))
        assert trials == [] and res.converged and abs(res.value) <= 1e-15

    @pytest.mark.parametrize("name", sorted(CAPACITY_PAIRS))
    def test_rounds_and_trials(self, monkeypatch, name):
        trials = count_trials(monkeypatch)
        res = capacity_single_letter(*CAPACITY_PAIRS[name](), rng=rng(3))
        assert res.converged
        assert (len(trials), sum(trials)) == CAPACITY_COUNTS[name]

    @pytest.mark.parametrize(
        "dims", [(2, 2), (3, 2), (2, 3)], ids=["qubit-qubit", "qutrit-qubit", "qubit-qutrit"]
    )
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sweep_against_the_stall_rule(self, monkeypatch, k, dims):
        # 48 pairs in all: the residual stop moves no value by more than
        # 1e-11 bits (7e-14 measured) and changes no converged flag
        for seed in range(4):
            w, v = random_pair(500 + 10 * k + seed, k, *dims)
            fast = capacity_single_letter(w, v, rng=rng(seed))
            with monkeypatch.context() as m:
                m.setattr(channels, "_KKT_TOL", -np.inf)
                slow = capacity_single_letter(w, v, rng=rng(seed))
            assert fast.converged == slow.converged
            assert abs(fast.value - slow.value) <= 1e-11


# capacity_single_letter values of the 48 pairs of the stall-rule sweep
# (random_pair(500 + 10 k + seed, k, *dims) at rng(seed)), recorded with a
# projected-gradient ascent without the Newton trial, whose accepted steps
# grew by 1.2; every one converged
RECORDED_VALUES = {
    ("qubit-qubit", 2): (0.0, 0.28556725025616186, 0.15467023581679984, 0.0),
    ("qubit-qubit", 3): (0.06334400379458976, 0.011321957485700196, 0.0, 0.6348250134813619),
    ("qubit-qubit", 4): (
        0.26298092420056396, 0.20099360033048536, 0.33509244230788926, 0.3478980491544511
    ),
    ("qubit-qubit", 5): (
        0.40996679068927466, 0.30848814381867196, 0.4136360798857698, 0.5707867307633703
    ),
    ("qutrit-qubit", 2): (0.10054517318955059, 0.0, 0.07672312211035359, 0.0),
    ("qutrit-qubit", 3): (
        0.43209228400351574, 0.2941504677866742, 0.2702215094004812, 0.11276725996008508
    ),
    ("qutrit-qubit", 4): (
        0.23264248534842447, 0.1520591428064486, 0.2559076966211793, 0.3548602590381199
    ),
    ("qutrit-qubit", 5): (
        0.4647412836719743, 0.3587233865241717, 0.3341495566205737, 0.2649166873735123
    ),
    ("qubit-qutrit", 2): (0.005865394079575127, 0.271026781121752, 0.0, 0.0740384098890885),
    ("qubit-qutrit", 3): (0.20667786814946876, 0.0, 0.0, 0.3462333814460454),
    ("qubit-qutrit", 4): (
        0.43626268723300654, 0.15030713177731825, 0.24266174535314333, 0.2708270875337224
    ),
    ("qubit-qutrit", 5): (
        0.3776705276502186, 0.4187097549828285, 0.27230514936971806, 0.36302542825686424
    ),
}
PAIR_DIMS = {"qubit-qubit": (2, 2), "qutrit-qubit": (3, 2), "qubit-qutrit": (2, 3)}


def secrecy_derivatives(p, w, v):
    """The gradient and curvature of chi(P;W) - chi(P;V) at each row of p,
    as the capacity search takes them, before the gradient's clean-up."""
    (sw, ew), (sv, ev) = (channels._validated_stack(c.states()) for c in (w, v))
    (gw, hw), (gv, hv) = (
        channels._chi_gradient(p, s, e, curvature=True) for s, e in ((sw, ew), (sv, ev))
    )
    return gw - gv, hw - hv


class TestCapacityNewton:
    """Each row of the capacity ascent that moved gets a Newton point on
    its support from the curvature H_W - H_V of its gradient's eigensolve,
    where the model has a maximum on the face."""

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)], ids=["qubit", "qutrit"])
    def test_curvature_matches_finite_differences(self, dims):
        # per row, H_W - H_V is the Jacobian of the gradient difference, and
        # a row gets the same bits alone as inside the batch
        w, v = random_pair(81, 4, *dims)
        g = rng(82)
        p = np.array([random_probability(g, 4) for _ in range(5)])
        grad, h = secrecy_derivatives(p, w, v)
        (sw, ew), (sv, ev) = (channels._validated_stack(c.states()) for c in (w, v))
        step = 1e-6
        for n in range(4):
            e = np.zeros(4)
            e[n] = step
            up, down = (
                channels._chi_gradient(p + d, sw, ew) - channels._chi_gradient(p + d, sv, ev)
                for d in (e, -e)
            )
            assert_allclose(h[:, :, n], (up - down) / (2 * step), rtol=0, atol=1e-7)
        assert_allclose(h, h.swapaxes(1, 2), rtol=0, atol=1e-12)
        for row, expected in zip(p, h):
            assert np.array_equal(secrecy_derivatives(row[None], w, v)[1][0], expected)

    def test_no_curvature_at_a_rank_deficient_average(self):
        # pure outputs: at a vertex the average has an eigenvalue 0 and the
        # gradient is infinite, so the row has no curvature and no Newton
        # point; inside the simplex both are finite
        w, v = random_pair(76, 3, dim_w=2, dim_v=3, rank=1)
        p = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        with np.errstate(invalid="ignore"):
            grad, h = secrecy_derivatives(p, w, v)
        assert np.isnan(h[0]).all() and np.isfinite(h[1]).all()
        assert not np.isfinite(grad[0]).all() and np.isfinite(grad[1]).all()

    def test_newton_point_levels_the_model_gradient(self):
        # at a point, g + H delta is level on the support (the model's KKT
        # condition), the point sums to 1 and is 0 off the support
        w, v = random_pair(83, 4)
        p = np.array([[0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.5, 0.0], [0.25, 0.25, 0.5, 0.0]])
        grad, h = secrecy_derivatives(p, w, v)
        # a concave model on every face
        h -= 2 * np.abs(h).max() * np.eye(4)
        points = channels._newton_points(p, grad, h)
        for row, g, curvature, point in zip(p, grad, h, points):
            on = row > 0.0
            model = (g + curvature @ (point - row))[on]
            assert np.ptp(model) <= 1e-12
            assert abs(point.sum() - 1.0) <= 1e-15 and (point[~on] == 0.0).all()
            alone = channels._newton_points(row[None], g[None], curvature[None])[0]
            assert np.array_equal(alone, point)

    def test_rows_without_a_newton_point(self):
        # one support entry, non-finite curvature, a model with no maximum
        # on the face, and a singular system (zero curvature): no point, and
        # the concave row of the same batch gets its bits alone
        inner = [0.3, 0.3, 0.4]
        p = np.array([[1.0, 0.0, 0.0], inner, inner, [0.5, 0.5, 0.0], inner])
        g = np.where(p > 0.0, [1.0, 2.0, 0.5], 0.0)
        h = np.stack([-np.eye(3), np.full((3, 3), np.nan), np.eye(3), np.zeros((3, 3)), -np.eye(3)])
        points = channels._newton_points(p, g, h)
        assert np.isnan(points[:4]).all() and np.isfinite(points[4]).all()
        assert np.array_equal(channels._newton_points(p[4:], g[4:], h[4:])[0], points[4])
        # H = -I: delta = g - mean(g), whatever lies past the simplex
        assert_allclose(points[4], [0.3 - 1 / 6, 0.3 + 5 / 6, 0.4 - 2 / 3], rtol=0, atol=1e-15)

    def test_duplicated_input(self, monkeypatch):
        # an input that repeats another makes the curvature of a face that
        # holds both exactly singular along their difference, where the
        # eigenvalues read it as rounding noise: the batched solve fails and
        # each row is solved alone; the value is the pair's without it
        w, v = random_pair(84, 3)
        w4, v4 = (
            CqChannel(range(4), c.dim, {**{x: c.output(x) for x in range(3)}, 3: c.output(0)})
            for c in (w, v)
        )
        singular, real = [], np.linalg.solve

        def solve(a, b):
            try:
                return real(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        res = both_searches(w4, v4)
        # the batched solve of the search (a stack of systems) failed
        assert any(len(shape) == 3 for shape in singular) and res.converged
        assert abs(res.value - capacity_single_letter(w, v, rng=rng(3)).value) <= 1e-12

    def test_no_newton_trial_at_a_saddle(self):
        # a row whose first Newton point, at a saddle of its model, would
        # jump to another face ends 0.026 bits lower; with the point dropped
        # where the model has no maximum the search keeps its value
        w, v = random_pair(10_343, 5, 3, 2)
        res = capacity_single_letter(w, v, rng=rng(343))
        assert res.converged and abs(res.value - 0.1502096884949703) <= 1e-10

    def test_perfbench_capacity_jobs(self, monkeypatch):
        # rounds and trial rows of the benchmark's two capacity jobs at their
        # seeds, without the frame rotation (10 and 18 rounds with steps
        # grown by 1.2 and no Newton trial)
        jobs = [j for j in load_workloads()._adversarial_catalogue() if j["job"] == "capacity"]
        counts = []
        for job in jobs:
            k = len(job["w"])
            w, v = (CqChannel(range(k), 2, job[c]) for c in ("w", "v"))
            trials = count_trials(monkeypatch)
            seeded = np.random.Generator(np.random.Philox(job["seed"]))
            res = capacity_single_letter(w, v, rng=seeded)
            assert res.converged
            counts.append((job["id"], len(trials), sum(trials)))
        assert counts == [("cap-0", 3, 108), ("cap-1", 7, 357)]

    @pytest.mark.parametrize("dims", sorted(PAIR_DIMS))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sweep_against_recorded_values(self, k, dims):
        # 48 full-rank pairs: no value moves by more than 1e-10 bits from
        # the one recorded without the Newton trial, and every one converges
        for seed, recorded in enumerate(RECORDED_VALUES[dims, k]):
            w, v = random_pair(500 + 10 * k + seed, k, *PAIR_DIMS[dims])
            res = capacity_single_letter(w, v, rng=rng(seed))
            assert res.converged
            assert abs(res.value - recorded) <= 1e-10


def mixed_pair(k: int, kind: str, seed: int):
    """A capacity pair of the grid sweep: qubit or qutrit outputs, pure
    outputs, W = V, or a V that mixes W with 0.001 of another channel."""
    dims = {"qutrit-qubit": (3, 2), "qubit-qutrit": (2, 3)}.get(kind, (2, 2))
    w, v = random_pair(seed, k, *dims, rank=1 if kind == "rank-1" else None)
    if kind == "w-equals-v":
        return w, w
    if kind == "w-near-v":
        outputs = {x: 0.999 * w.output(x) + 0.001 * v.output(x) for x in w.alphabet}
        return w, CqChannel(w.alphabet, 2, outputs)
    return w, v


GRID_KINDS = ("qubit-qubit", "qutrit-qubit", "qubit-qutrit", "rank-1", "w-equals-v", "w-near-v")


class TestCapacityGrid:
    """The grid is screened in closed form for qubit channels and only the
    points within twice ``_GRID_ALLOWANCE`` of the screened maximum are
    evaluated exactly; the result is the exact grid's, bit for bit."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_sweep_matches_the_exact_grid(self, k, kind, seed):
        w, v = mixed_pair(k, kind, 300 + 10 * seed + k)
        batch = both_searches(w, v, seed=seed, starts=4)
        if kind == "w-equals-v":
            assert batch.value == 0.0

    def test_qubit_grid_solves_only_its_candidates(self, monkeypatch):
        w, v = random_pair(71, 3)
        (sw, ew), (sv, ev) = (channels._validated_stack(c.states()) for c in (w, v))
        points = simplex_grid(3)
        exact = channels._chi(points, sw, ew) - channels._chi(points, sv, ev)
        expected = points[exact >= exact.max() - 2 * channels._GRID_ALLOWANCE]
        assert 1 <= len(expected) <= 3
        shapes, rows = [], []
        real_eigvalsh, real_chi = np.linalg.eigvalsh, channels._chi
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real_eigvalsh(a)
        )
        monkeypatch.setattr(channels, "_chi", lambda p, *a: rows.append(p) or real_chi(p, *a))
        capacity_single_letter(w, v, rng=rng(3), starts=16)
        assert (512, 2, 2) not in shapes
        # the exact pass over the candidates, one call per channel, comes
        # before the first step of the (18, 3) batch of starts
        first = next(i for i, p in enumerate(rows) if p.shape == (18, 3))
        assert first == 2
        assert all(np.array_equal(p, expected) for p in rows[:first])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equal_channels_stay_chunked(self, dim):
        # W = V: every one of the 10,011 points is a candidate; one block
        # of the grid at a time keeps the traced peak below 1.5 MB, where
        # the whole grid at once peaks at 3.2 MB (qubits) or 6.4 MB (qutrits)
        g = rng(72)
        v = CqChannel(range(3), dim, {x: random_density(g, dim) for x in range(3)})
        capacity_single_letter(v, v, rng=rng(3), starts=0)
        tracemalloc.start()
        try:
            res = capacity_single_letter(v, v, rng=rng(3), starts=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == 0.0
        assert peak < 1.5e6

    @pytest.mark.parametrize("size", [1, 3, 512])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_chi_row_alone_equals_the_batch(self, dim, size):
        # the exact pass evaluates a subset of the grid: each row must get
        # the bits it gets inside any batch
        g = rng(400 + dim)
        states, ent = channels._validated_stack(
            [random_density(g, dim, rank=r) for r in (1, dim, dim)]
        )
        points = simplex_grid(3)[: 512 * 4 : 4]
        batch = channels._chi(points, states, ent)
        for start in range(0, len(points), size):
            block = points[start : start + size]
            assert np.array_equal(channels._chi(block, states, ent), batch[start : start + size])
        assert all(channels._chi(p, states, ent) == batch[i] for i, p in enumerate(points[:8]))

    def test_closed_form_entropy_within_the_allowance(self):
        # random qubit mixtures, pure states and I/2: the closed form is
        # within 1e-13 bits of the eigensolver, far below the allowance
        g = rng(410)
        states, ent = channels._validated_stack(
            [random_density(g, 2, rank=r) for r in (1, 1, 2, 2)] + [I2 / 2]
        )
        points = np.vstack([g.dirichlet(np.ones(5), size=2000), np.eye(5)])
        points[-1] = [0.5, 0.0, 0.0, 0.0, 0.5]
        screen = channels._screened_chi(points, states, ent)
        exact = channels._chi(points, states, ent)
        assert np.abs(screen - exact).max() <= 1e-13
        assert channels._GRID_ALLOWANCE == 1e-9
        # qutrit stacks take the exact evaluation
        qutrits = channels._validated_stack([random_density(g, 3) for _ in range(5)])
        assert np.array_equal(
            channels._screened_chi(points, *qutrits), channels._chi(points, *qutrits)
        )


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
        # two seeds, three messages: the entry check is one eigvalsh over
        # the stack, and after it every eigensolve is one eigh over both
        # seeds' averages
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
        assert calls[0] == ("eigvalsh", (2, 3))
        assert len(calls) > 1 and set(calls[1:]) == {("eigh", (2, 1))}

    def test_capacity_one_eigh_per_channel_per_step(self, monkeypatch):
        # uniform start, 16 random starts and the grid point ascend as one
        # (18, 1) batch of averages; after the first step a batch holds only
        # the rows that moved, with one eigh per channel for the step
        w, v = random_pair(56, 3)
        shapes = []
        real = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: shapes.append(a.shape[:-2]) or real(a)
        )
        res = capacity_single_letter(w, v, rng=rng(1), starts=16, max_iters=400)
        assert res.converged
        assert shapes[0] == (18, 1)
        assert all(s[1:] == (1,) for s in shapes)
        batch = [s[0] for s in shapes]
        assert batch[::2] == batch[1::2]
        assert max(batch) == 18
        assert len(shapes) <= 2 * 400

    def test_capacity_gradient_once_per_point(self, monkeypatch):
        # a row keeps its gradient while its trial steps are rejected, so
        # no row's gradient is taken twice at the same point
        w, v = random_pair(56, 3)
        rows, steps = [], []
        real_gradient = channels._chi_gradient
        real_project = channels._project_simplex

        def gradient(p, states, ent, **curvature):
            rows.extend(map(bytes, p))
            return real_gradient(p, states, ent, **curvature)

        monkeypatch.setattr(channels, "_chi_gradient", gradient)
        monkeypatch.setattr(
            channels, "_project_simplex", lambda y: steps.append(len(y)) or real_project(y)
        )
        res = capacity_single_letter(w, v, rng=rng(1), starts=16, max_iters=400)
        assert res.converged
        # the two channels are evaluated at the same points
        per_channel = len(rows) // 2
        assert len(set(rows)) == per_channel
        # one gradient row per start and at most one per accepted trial;
        # with the residual stop the rows end without their closing runs of
        # rejections, so a row tries at most its Newton point and four
        # doubled steps per gradient (79 gradient rows and 278 trials here;
        # 256 and 254 with steps grown by 1.2 and no Newton trial, 1043 and
        # 291 with the stall rule alone)
        assert 18 <= per_channel <= 18 + sum(steps)
        assert sum(steps) <= 5 * per_channel

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


# rng seed, dimension, rank and number of code seeds of each stack
CURVATURE_STACKS = {
    "qubit": (95, 2, None, 1),
    "qubit-two-seeds": (96, 2, None, 2),
    "rank2-qutrit-a": (97, 3, 2, 2),
    "rank2-qutrit-b": (98, 3, 2, 2),
}


class TestStepKernels:
    """The optimizers' per-step kernels check nothing that their validated
    stack makes redundant, and equal the checked public path bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_seeded_stack_matches_the_checked_path(self, dim):
        # two seeds of four states, two of them pure; p on one pure state
        # (and at d = 3 on two) leaves the other states outside the support
        # of the average, which gives inf gradient entries
        g = rng(80 + dim)
        ranks = [1, 1, dim - 1, dim]
        states, ent = channels._validated_stack(
            [[random_density(g, dim, rank=r) for r in ranks] for _ in range(2)]
        )
        points = [random_probability(g, 4), [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]]
        infinite = 0
        for p in map(np.array, points):
            avg = channels._mixtures(p, states)
            assert np.array_equal(
                channels._chi(p, states, ent), op.entropies(avg) - (ent * p).sum(axis=-1)
            )
            grad = channels._chi_gradient(p, states, ent)
            assert grad.shape == (2, 4)
            assert np.array_equal(grad, op.relative_entropies(states, avg[..., None, :, :]))
            infinite += np.isinf(grad).sum()
        assert infinite == (10 if dim == 3 else 6)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_points_match_the_checked_path(self, dim):
        # one channel's states against a batch of distributions, as the
        # capacity search evaluates them
        g = rng(90 + dim)
        states, ent = channels._validated_stack(
            [random_density(g, dim, rank=r) for r in (1, dim - 1, dim)]
        )
        p = np.array([random_probability(g, 3), [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        avg = channels._mixtures(p, states)
        assert np.array_equal(
            channels._chi(p, states, ent), op.entropies(avg) - (ent * p).sum(axis=-1)
        )
        grad = channels._chi_gradient(p, states, ent)
        assert np.isinf(grad[1]).sum() == 2
        assert np.array_equal(grad, op.relative_entropies(states, avg[:, None]))

    @pytest.mark.parametrize("case", [*CURVATURE_STACKS, "clock-uniform"])
    def test_curvature_matches_finite_differences(self, case):
        # the Newton step's H is the Jacobian in p of the seed mean of the
        # gradient; at the clock channel's uniform average I/2 every pair
        # of eigenvalues takes the close-pair limit
        if case == "clock-uniform":
            stack, p = [golden_channel("clock").states()], np.full(3, 1 / 3)
        else:
            seed, dim, rank, seeds = CURVATURE_STACKS[case]
            g = rng(seed)
            stack = [[random_density(g, dim, rank) for _ in range(4)] for _ in range(seeds)]
            p = random_probability(g, 4)
        states, ent = channels._validated_stack(stack)
        h = channels._chi_hessian(states, *channels._average_eigh(p, states))
        step = 1e-6
        for n in range(len(p)):
            e = np.zeros(len(p))
            e[n] = step
            up, down = (channels._chi_gradient(p + d, states, ent).mean(axis=0) for d in (e, -e))
            assert_allclose(h[:, n], (up - down) / (2 * step), rtol=0, atol=1e-7)
        assert_allclose(h, h.T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(h).max() <= 1e-12

    def test_states_checked_on_entry_only(self, monkeypatch):
        # the Hermiticity checks do not grow with the steps taken
        checks = []
        real = op.check_hermitian
        monkeypatch.setattr(op, "check_hermitian", lambda a, *r: checks.append(1) or real(a, *r))
        w, v = random_pair(56, 3)
        encoders = {
            s: ClassicalChannel((0, 1, 2), {m: {(m + s) % 3: 1.0} for m in range(3)})
            for s in range(2)
        }

        def count(search, *args, **kw):
            checks.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                res = search(*args, **kw)
            return len(checks), res

        short, res = count(adversarial_leakage, encoders, v, max_iters=1)
        assert not res.converged
        full, res = count(adversarial_leakage, encoders, v, max_iters=400)
        assert res.converged and short == full > 0
        short, res = count(capacity_single_letter, w, v, rng=rng(1), starts=4, max_iters=5)
        assert not res.converged
        full, res = count(capacity_single_letter, w, v, rng=rng(1), starts=4, max_iters=400)
        assert res.converged and short == full > 0

    def test_adversarial_traces_taken_once(self, monkeypatch):
        # every gradient's leak flag compares against the stack's traces,
        # taken once per search, not once per evaluation
        v = random_cq_channel(rng(55), 3, 2)
        encoders = {
            s: ClassicalChannel((0, 1, 2), {m: {(m + s) % 3: 1.0} for m in range(3)})
            for s in range(2)
        }
        stack = channels.SeedStack(encoders, v)
        traces, evaluations = [], []
        real_trace, real_eigh = op._trace, np.linalg.eigh
        monkeypatch.setattr(op, "_trace", lambda a: traces.append(a.shape) or real_trace(a))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: evaluations.append(1) or real_eigh(a))
        res = stack.adversarial_leakage()
        assert res.converged and len(evaluations) > 1
        assert traces == [stack.states.shape]
        again = adversarial_leakage(encoders, v)
        assert (res.value, res.upper) == (again.value, again.upper)
        assert np.array_equal(res.argmax, again.argmax)


class TestAdversarialStall:
    @pytest.mark.parametrize("frame", range(4))
    def test_zero_weight_optimum_converges_promptly(self, frame, monkeypatch):
        # four messages over three qubit inputs, in a Haar frame; the worst
        # message distribution gives message 1 zero weight.  Near the
        # optimum a trial's value differs from the current one by rounding
        # only; a step rule that rejects such trials (and resets its step
        # length) needs over 1000 gradient evaluations in each of these
        # frames, and the Blahut-Arimoto step alone needs 152
        g = rng(65)
        states = [random_density(g, 2) for _ in range(3)]
        rows = {m: dict(enumerate(random_probability(g, 3))) for m in range(4)}
        code = ClassicalChannel(range(4), rows)
        u = random_unitary(rng(1000 + frame), 2)
        v = CqChannel(range(3), 2, {x: u @ s @ u.conj().T for x, s in enumerate(states)})
        calls = count_eigh(monkeypatch)
        res = adversarial_leakage({0: code}, v)
        assert res.converged and res.upper - res.value <= 1e-9
        assert len(calls) < 60
        # the optimum lies on the face without message 1: the search leaves
        # it a negligible weight, and chi on that face reaches the value
        assert np.argmin(res.argmax) == 1 and res.argmax[1] < 1e-6
        a, ab = np.triu_indices(141)
        face = np.stack([a, ab - a, 140 - ab], axis=1) / 140
        states_m = np.array(compose(code, v).states())
        assert abs(grid_holevo(face, states_m[[0, 2, 3]]).max() - res.value) <= 1e-6
        # the certificate against a grid of the 4-simplex
        ticks = 24
        grid = np.array(
            [
                [a, b, c, ticks - a - b - c]
                for a in range(ticks + 1)
                for b in range(ticks + 1 - a)
                for c in range(ticks + 1 - a - b)
            ]
        ) / ticks
        grid_best = grid_holevo(grid, states_m).max()
        assert grid_best <= res.upper + 1e-12
        assert res.value >= grid_best - 1e-9
        assert abs(res.value - leakage_cr(res.argmax, {0: code}, v)) <= 1e-12


def binary_entropy(q: float) -> float:
    return -q * np.log2(q) - (1 - q) * np.log2(1 - q)


def amplitude_damping(gamma: float):
    """(W, V) of U|0> = |00>, U|1> = sqrt(1 - gamma)|10> + sqrt(gamma)|01>
    (receiver first), with the pure basis states as inputs."""
    u = np.zeros((4, 2), dtype=complex)
    u[0, 0] = 1.0
    u[2, 1] = np.sqrt(1 - gamma)
    u[1, 1] = np.sqrt(gamma)
    return complementary_pair(u, 2, 2, classical_channel_det(2))


def damping_rate(gamma: float) -> float:
    """max_p h((1 - gamma) p) - h(gamma p) for gamma < 1/2, by bisection on
    the derivative, which falls from +inf at p = 0 to -log2((1 - gamma) / gamma)
    at p = 1 (the objective is concave: the pair is degradable)."""

    def slope(p):
        a, b = (1 - gamma) * p, gamma * p
        return (1 - gamma) * np.log2((1 - a) / a) - gamma * np.log2((1 - b) / b)

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
    p = (lo + hi) / 2
    return binary_entropy((1 - gamma) * p) - binary_entropy(gamma * p)


class TestComplementaryPair:
    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.4])
    def test_amplitude_damping_matches_the_closed_form(self, gamma):
        # chi(P;W) - chi(P;V) = h((1 - gamma) p) - h(gamma p) with p = P(1)
        res = capacity_single_letter(*amplitude_damping(gamma), rng=rng(3))
        assert res.converged
        assert abs(res.value - damping_rate(gamma)) <= 1e-12

    def test_amplitude_damping_at_one_half_is_zero(self):
        # W = V: receiver and environment each keep half of |1>
        res = capacity_single_letter(*amplitude_damping(0.5), rng=rng(3))
        assert res.converged and res.value == 0.0

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
