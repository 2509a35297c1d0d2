"""Tests for wiretap codes, modular assembly, and derandomization.

The decoding-error oracle is a direct triple loop over messages, support
strings, and operator traces, written against numpy only, so the module
under test is compared term by term with an independent summation.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_density, random_probability, rng

from cqwiretap import bri, channels, codes
from cqwiretap import operators as op
from cqwiretap.channels import ClassicalChannel, CqChannel, tensor_power
from cqwiretap.errors import DimensionMismatchError, InvalidStateError


def noiseless(k: int) -> CqChannel:
    eye = np.eye(k)
    return CqChannel(range(k), k, {x: np.outer(eye[x], eye[x]) for x in range(k)})


def basis_projectors(dim: int) -> list:
    eye = np.eye(dim)
    return [np.outer(eye[i], eye[i]) for i in range(dim)]


def perfect_code(k: int, n: int = 1) -> codes.TransmissionCode:
    """k orthogonal codewords over the noiseless k-ary channel, n = 1."""
    assert n == 1
    return codes.TransmissionCode(
        {c: (c,) for c in range(k)},
        {c: p for c, p in enumerate(basis_projectors(k))},
        n=1,
        dim=k,
    )


def random_sub_povm(g, dim: int, k: int, scale: float = 1.0) -> list:
    blobs = [random_density(g, dim) + 0.05 * np.eye(dim) for _ in range(k)]
    total = sum(blobs)
    w, u = np.linalg.eigh(total)
    inv_sqrt = u @ np.diag(w ** -0.5) @ u.conj().T
    return [scale * (inv_sqrt @ b @ inv_sqrt) for b in blobs]


def error_oracle(encoder: ClassicalChannel, decoders: dict, w_n) -> float:
    """Term-by-term brute-force decoding error, independent of codes.py."""
    worst = 0.0
    for m in encoder.inputs:
        total = 0.0
        for x, prob in encoder.row(m).items():
            if prob == 0.0:
                continue
            total += prob * (1.0 - np.trace(decoders[m] @ w_n.output(x)).real)
        worst = max(worst, total)
    return worst


class TestTransmissionCode:
    def test_fields(self):
        t = perfect_code(3)
        assert t.n == 1 and t.dim == 3
        assert t.messages == (0, 1, 2)
        assert t.codewords[2] == (2,)

    def test_decoders_validated(self):
        with pytest.raises(InvalidStateError):
            codes.TransmissionCode(
                {0: (0,), 1: (1,)},
                {0: np.eye(2), 1: np.eye(2)},
                n=1,
                dim=2,
            )

    def test_decoders_validated_once(self, monkeypatch):
        # one spectrum per decoder plus one for their sum; the stored
        # decoders are the symmetrized inputs
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        skew = np.diag([0.3, 0.2]).astype(complex)
        skew[0, 1] = 1e-12
        t = codes.TransmissionCode({0: (0,), 1: (1,), 2: (0,)}, {0: skew, 1: skew, 2: skew}, n=1, dim=2)
        assert len(calls) == 4
        for d in t.decoders.values():
            assert np.array_equal(d, (skew + skew.conj().T) / 2)

    def test_key_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            codes.TransmissionCode(
                {0: (0,), 1: (1,)},
                {0: np.eye(2) / 2},
                n=1,
                dim=2,
            )

    def test_string_length_checked(self):
        with pytest.raises(InvalidStateError):
            codes.TransmissionCode({0: (0, 0)}, {0: np.eye(2)}, n=1, dim=2)

    def test_as_wiretap_rows_are_point_masses(self):
        t = perfect_code(4)
        wt = t.as_wiretap()
        assert wt.encoder.row(3) == {(3,): 1.0}
        assert np.allclose(wt.decoders[1], t.decoders[1])


class TestErrorMax:
    def test_orthogonal_codewords_zero(self):
        w = noiseless(4)
        assert codes.error_max(perfect_code(4), w) == 0.0

    def test_all_zero_decoders_one(self):
        t = codes.TransmissionCode(
            {c: (c,) for c in range(3)},
            {c: np.zeros((3, 3)) for c in range(3)},
            n=1,
            dim=3,
        )
        assert codes.error_max(t, noiseless(3)) == 1.0

    def test_matches_brute_force(self):
        g = rng(21)
        v = CqChannel(range(2), 2, {x: random_density(g, 2) for x in range(2)})
        enc = ClassicalChannel(
            (0, 1),
            {0: {(0,): 0.7, (1,): 0.3}, 1: {(1,): 1.0}},
        )
        decs = dict(zip((0, 1), random_sub_povm(g, 2, 2, scale=0.9)))
        code = codes.WiretapCode(enc, decs, n=1, dim=2)
        got = codes.error_max(code, v)
        want = error_oracle(enc, code.decoders, tensor_power(v, 1))
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got <= 1.0

    def test_block_length_two(self):
        g = rng(22)
        v = CqChannel(range(2), 2, {x: random_density(g, 2) for x in range(2)})
        enc = ClassicalChannel(
            (0, 1),
            {0: {(0, 0): 0.5, (0, 1): 0.5}, 1: {(1, 1): 1.0}},
        )
        decs = dict(zip((0, 1), random_sub_povm(g, 4, 2, scale=0.8)))
        code = codes.WiretapCode(enc, decs, n=2, dim=4)
        want = error_oracle(enc, code.decoders, tensor_power(v, 2))
        assert codes.error_max(code, v) == pytest.approx(want, abs=1e-12)

    def test_unknown_symbol_rejected(self):
        enc = ClassicalChannel((0,), {0: {(7,): 1.0}})
        code = codes.WiretapCode(enc, {0: np.eye(2)}, n=1, dim=2)
        with pytest.raises(DimensionMismatchError):
            codes.error_max(code, noiseless(2))


class TestErrorExpectedCr:
    def test_single_seed_is_error_max(self):
        t = perfect_code(3).as_wiretap()
        cr = codes.CommonRandomnessCode({0: t})
        assert codes.error_expected_cr(cr, noiseless(3)) == codes.error_max(t, noiseless(3))

    def test_mean_over_seeds(self):
        good = perfect_code(2).as_wiretap()
        dead = codes.WiretapCode(
            good.encoder,
            {m: np.zeros((2, 2)) for m in good.messages},
            n=1,
            dim=2,
        )
        cr = codes.CommonRandomnessCode({0: good, 1: dead})
        assert codes.error_expected_cr(cr, noiseless(2)) == pytest.approx(0.5, abs=1e-15)

    def test_hand_average(self):
        g = rng(23)
        w = CqChannel(range(2), 2, {x: random_density(g, 2) for x in range(2)})
        per_seed = {}
        for s in range(2):
            enc = ClassicalChannel(
                (0, 1), {0: {(0,): 1.0}, 1: {(0,): 0.4, (1,): 0.6}}
            )
            decs = dict(zip((0, 1), random_sub_povm(g, 2, 2, scale=0.9)))
            per_seed[s] = codes.WiretapCode(enc, decs, n=1, dim=2)
        cr = codes.CommonRandomnessCode(per_seed)
        want = 0.5 * sum(codes.error_max(per_seed[s], w) for s in (0, 1))
        assert codes.error_expected_cr(cr, w) == pytest.approx(want, abs=1e-15)

    def test_mismatched_messages_rejected(self):
        a = perfect_code(2).as_wiretap()
        b = perfect_code(3).as_wiretap()
        with pytest.raises(InvalidStateError):
            codes.CommonRandomnessCode({0: a, 1: b})


class TestAssembleBriModular:
    def setup_method(self):
        self.f = bri.construct_exhaustive(4, 4, 2, lambda2_target=0.999)
        assert self.f is not None

    def test_perfect_transmission_gives_error_zero(self):
        modular = codes.assemble_bri_modular(perfect_code(4), self.f)
        w = noiseless(4)
        for s in modular.seeds:
            assert codes.error_max(modular.per_seed[s], w) == 0.0
        assert codes.error_expected_cr(modular, w) == 0.0

    def test_encoder_rows_uniform_over_preimages(self):
        modular = codes.assemble_bri_modular(perfect_code(4), self.f)
        for s in modular.seeds:
            for m in self.f.regularity_set:
                row = modular.per_seed[s].encoder.row(m)
                pre = bri.preimage(self.f, s, m)
                assert set(row) == {(int(c),) for c in pre}
                for prob in row.values():
                    assert prob == pytest.approx(1.0 / self.f.d_s, abs=1e-15)

    def test_decoders_coarse_grain(self):
        t = perfect_code(4)
        modular = codes.assemble_bri_modular(t, self.f)
        for s in modular.seeds:
            for m in self.f.regularity_set:
                want = sum(t.decoders[int(c)] for c in bri.preimage(self.f, s, m))
                assert np.allclose(modular.per_seed[s].decoders[m], want, atol=1e-14)

    def test_sub_povm_sum_preserved(self):
        # regularity set covers every output, so the coarse graining
        # repartitions the full decoder sum exactly
        t = perfect_code(4)
        modular = codes.assemble_bri_modular(t, self.f)
        full = sum(t.decoders.values())
        for s in modular.seeds:
            got = sum(modular.per_seed[s].decoders.values())
            assert np.allclose(got, full, atol=1e-14)

    def test_modular_error_never_worse(self):
        g = rng(25)
        # noisy 4-ary channel: mostly correct, small leak to a fixed state
        blur = random_density(g, 4)
        eye = np.eye(4)
        outs = {x: 0.9 * np.outer(eye[x], eye[x]) + 0.1 * blur for x in range(4)}
        w = CqChannel(range(4), 4, outs)
        t = perfect_code(4)
        base_err = codes.error_max(t, w)
        modular = codes.assemble_bri_modular(t, self.f)
        for s in modular.seeds:
            assert codes.error_max(modular.per_seed[s], w) <= base_err + 1e-12

    def test_d_s_one_is_relabeling(self):
        # cyclic shifts: every seed is a bijection, so the modular code is
        # the transmission code with permuted message labels
        table = (np.arange(4)[None, :] + np.arange(4)[:, None]) % 4
        f = bri.BriFunction(table, range(4))
        assert f.d_s == 1
        t = perfect_code(4)
        modular = codes.assemble_bri_modular(t, f)
        for s in modular.seeds:
            wc = modular.per_seed[s]
            for m in range(4):
                c = (m - s) % 4
                assert wc.encoder.row(m) == {(c,): 1.0}
                assert np.allclose(wc.decoders[m], t.decoders[c])

    def test_message_set_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            codes.assemble_bri_modular(perfect_code(3), self.f)

    def test_non_bri_rejected(self):
        with pytest.raises(InvalidStateError):
            codes.assemble_bri_modular(perfect_code(4), "not a bri function")

    def test_leakage_matches_composed_channel(self):
        """CR leakage of the modular code equals the same computation on the
        codeword-composed channel, which addresses messages instead of
        strings."""
        g = rng(26)
        v = CqChannel(range(4), 2, {x: random_density(g, 2) for x in range(4)})
        t = perfect_code(4)
        modular = codes.assemble_bri_modular(t, self.f)
        m_dist = random_probability(g, len(self.f.regularity_set))

        direct = channels.leakage_cr(
            m_dist,
            {s: modular.per_seed[s].encoder for s in modular.seeds},
            tensor_power(v, 1),
        )
        u = codes.codeword_channel(t, v)
        composed_encoders = {
            s: ClassicalChannel(
                self.f.regularity_set,
                {
                    m: {int(c): 1.0 / self.f.d_s for c in bri.preimage(self.f, s, m)}
                    for m in self.f.regularity_set
                },
            )
            for s in modular.seeds
        }
        oracle = channels.leakage_cr(m_dist, composed_encoders, u)
        assert direct == pytest.approx(oracle, abs=1e-12)


class TestCodewordChannel:
    def test_outputs_are_codeword_states(self):
        g = rng(27)
        v = CqChannel(range(2), 2, {x: random_density(g, 2) for x in range(2)})
        t = codes.TransmissionCode(
            {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
            {c: p for c, p in enumerate(basis_projectors(4))},
            n=2,
            dim=4,
        )
        u = codes.codeword_channel(t, v)
        assert u.alphabet == (0, 1, 2, 3)
        v2 = tensor_power(v, 2)
        for c in range(4):
            assert np.allclose(u.output(c), v2.output(t.codewords[c]))


def seed_code_with_error(eps: float, k: int = 2) -> codes.TransmissionCode:
    """Noiseless k-ary codewords whose decoders give back exactly eps."""
    return codes.TransmissionCode(
        {s: (s,) for s in range(k)},
        {s: (1.0 - eps) * p for s, p in enumerate(basis_projectors(k))},
        n=1,
        dim=k,
    )


def inner_cr_code(eps: float, n_seeds: int = 2, k: int = 2) -> codes.CommonRandomnessCode:
    per_seed = {}
    for s in range(n_seeds):
        enc = ClassicalChannel(range(k), {m: {(m,): 1.0} for m in range(k)})
        decs = {m: (1.0 - eps) * p for m, p in enumerate(basis_projectors(k))}
        per_seed[s] = codes.WiretapCode(enc, decs, n=1, dim=k)
    return codes.CommonRandomnessCode(per_seed)


class TestDerandomize:
    def test_perfect_components_error_zero(self):
        d = codes.DerandomizedCode(seed_code_with_error(0.0), inner_cr_code(0.0), 1)
        w = noiseless(2)
        assert codes.error_derandomized(d, w) == 0.0
        flat = codes.derandomize(d.seed_code, d.inner, 1)
        assert codes.error_max(flat, w) == 0.0

    def test_message_set_is_product(self):
        d = codes.DerandomizedCode(seed_code_with_error(0.0), inner_cr_code(0.0), 3)
        assert d.messages == tuple(itertools.product((0, 1), repeat=3))
        assert d.n_total == 1 + 3

    def test_seed_mismatch_rejected(self):
        with pytest.raises(InvalidStateError):
            codes.DerandomizedCode(seed_code_with_error(0.0, k=3), inner_cr_code(0.0), 1)

    def test_error_budget(self):
        w = noiseless(2)
        for eps_seed, eps_inner, reps in itertools.product(
            (0.0, 0.1), (0.0, 0.05), (1, 2, 3)
        ):
            d = codes.DerandomizedCode(
                seed_code_with_error(eps_seed), inner_cr_code(eps_inner), reps
            )
            err = codes.error_derandomized(d, w)
            assert err <= eps_seed + eps_inner * reps + 1e-9

    def test_blockwise_equals_monolithic(self):
        g = rng(28)
        # noisy qubit: both blocks go through the same imperfect channel
        blur = random_density(g, 2)
        eye = np.eye(2)
        w = CqChannel(
            range(2),
            2,
            {x: 0.85 * np.outer(eye[x], eye[x]) + 0.15 * blur for x in range(2)},
        )
        d = codes.DerandomizedCode(seed_code_with_error(0.05), inner_cr_code(0.1), 2)
        flat = codes.derandomize(d.seed_code, d.inner, 2)
        assert flat.n == 3
        assert flat.dim == 8
        blockwise = codes.error_derandomized(d, w)
        monolithic = codes.error_max(flat, w)
        assert blockwise == pytest.approx(monolithic, abs=1e-12)

    def test_materialized_encoder_rows(self):
        d = codes.DerandomizedCode(seed_code_with_error(0.0), inner_cr_code(0.0), 2)
        flat = codes.derandomize(d.seed_code, d.inner, 2)
        row = flat.encoder.row((0, 1))
        # seed block ranges over both seeds, message blocks are fixed
        assert row == {(0, 0, 1): 0.5, (1, 0, 1): 0.5}

    def test_leakage_budget_toy(self):
        """Derandomized leakage stays within reps * per-seed adversarial
        leakage, the quantity the seed-reuse argument charges per block."""
        g = rng(29)
        eye = np.eye(2)
        v = CqChannel(
            range(2),
            2,
            {x: 0.9 * np.eye(2) / 2 + 0.1 * np.outer(eye[x], eye[x]) for x in range(2)},
        )
        d = codes.DerandomizedCode(seed_code_with_error(0.05), inner_cr_code(0.1), 2)
        per_seed_encoders = {s: d.inner.per_seed[s].encoder for s in d.inner.seeds}
        eps_leak = channels.adversarial_leakage(per_seed_encoders, tensor_power(v, 1)).value
        flat = codes.derandomize(d.seed_code, d.inner, 2)
        worst = channels.adversarial_leakage(
            {0: flat.encoder}, tensor_power(v, flat.n)
        ).upper
        assert worst <= 2 * eps_leak + 0.05 + 1e-9


class TestRate:
    def test_two_messages_one_use(self):
        assert codes.rate(perfect_code(2)) == 1.0

    def test_four_messages_two_uses(self):
        t = codes.TransmissionCode(
            {c: (c % 2, c // 2) for c in range(4)},
            {c: p for c, p in enumerate(basis_projectors(4))},
            n=2,
            dim=4,
        )
        assert codes.rate(t) == 1.0

    def test_wiretap_and_cr(self):
        wc = perfect_code(4).as_wiretap()
        assert codes.rate(wc) == 2.0
        assert codes.rate(codes.CommonRandomnessCode({0: wc})) == 2.0

    def test_derandomized_formula(self):
        for reps in (1, 2, 3):
            d = codes.DerandomizedCode(seed_code_with_error(0.0), inner_cr_code(0.0), reps)
            want = reps * math.log2(2) / (1 + reps)
            assert codes.rate(d) == want


class TestPgm:
    def test_orthogonal_states_give_projectors(self):
        t = codes.transmission_code_pgm({c: (c,) for c in range(3)}, noiseless(3), n=1)
        for c in range(3):
            assert np.allclose(t.decoders[c], basis_projectors(3)[c], atol=1e-10)
        assert codes.error_max(t, noiseless(3)) <= 1e-12

    def test_sub_povm_on_random_channel(self):
        g = rng(30)
        v = CqChannel(range(3), 3, {x: random_density(g, 3, rank=2) for x in range(3)})
        t = codes.transmission_code_pgm({c: (c,) for c in range(3)}, v, n=1)
        total = sum(t.decoders.values())
        assert np.linalg.eigvalsh(total).max() <= 1.0 + 1e-9
        assert 0.0 <= codes.error_max(t, v) <= 1.0

    def test_block_length_two(self):
        g = rng(31)
        v = CqChannel(range(2), 2, {x: random_density(g, 2) for x in range(2)})
        cws = {0: (0, 0), 1: (1, 1)}
        t = codes.transmission_code_pgm(cws, v, n=2)
        assert t.n == 2 and t.dim == 4
        assert codes.error_max(t, v) < 1.0
