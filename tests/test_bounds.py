"""Tests for the inequality-certification reports.

The continuity check is cross-validated with a mutual-information oracle
built from partial traces and entropies only; distances and divergences in
the expurgation tests are recomputed with raw numpy sums.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    mix,
    operator_norm,
    random_density,
    random_probability,
    rng,
    seed_embedded_leakage,
)

from cqwiretap import bounds, bri, channels, codes, serialize, typicality
from cqwiretap import operators as op
from cqwiretap.channels import ClassicalChannel, CqChannel, tensor_power
from cqwiretap.errors import DimensionMismatchError, InvalidStateError, PsdOrderingError

# largest entry gap between a mixture of densities formed with weights
# 1/|D| and the same mixture summed and then divided by |D|
MIXTURE_ROUNDING = 4 * np.finfo(float).eps
TWO_LN_TWO = 1.3862943611198906
G_AT_HALF = 1.3774437510817343


def qubit_channel(g, k: int = 4) -> CqChannel:
    return CqChannel(range(k), 2, {x: random_density(g, 2) for x in range(k)})


def cq_joint(dist, states):
    """Block-diagonal classical-quantum state sum_m P_m |m><m| (x) rho_m."""
    k = len(states)
    d = states[0].shape[0]
    out = np.zeros((k * d, k * d), dtype=complex)
    for i, (p, s) in enumerate(zip(dist, states)):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = p * s
    return out


def mutual_information_oracle(joint, k, d):
    """I(A:B) = S(A) + S(B) - S(AB) from partial traces only."""
    a = op.partial_trace(joint, k, d, keep=0)
    b = op.partial_trace(joint, k, d, keep=1)
    return op.entropy(a) + op.entropy(b) - op.entropy(joint)


class TestBoundReport:
    def test_holds_matches_slack(self):
        assert bounds.make_report("x", 1.0, 2.0).holds
        assert bounds.make_report("x", 1.0, 1.0 - 2e-9).holds is False
        assert bounds.make_report("x", 1.0, 1.0).holds

    def test_infinite_rhs_holds(self):
        r = bounds.make_report("x", 3.0, np.inf)
        assert r.holds and r.slack == np.inf

    def test_infinite_lhs_fails(self):
        r = bounds.make_report("x", np.inf, 3.0)
        assert not r.holds

    def test_both_infinite_holds(self):
        r = bounds.make_report("x", np.inf, np.inf)
        assert r.holds and r.slack == 0.0


class TestSubnormalizedChannel:
    def test_measured_epsilon(self):
        v = CqChannel((0, 1), 2, {0: 0.9 * np.eye(2) / 2, 1: np.eye(2) / 2})
        assert v.epsilon == pytest.approx(0.1, abs=1e-12)

    def test_trace_above_one_rejected(self):
        with pytest.raises(InvalidStateError):
            CqChannel((0,), 2, {0: 1.1 * np.eye(2) / 2})

    def test_scaled(self):
        g = rng(40)
        v = qubit_channel(g, 3)
        vp = v.scaled(0.75)
        assert vp.epsilon == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(vp.output(1), 0.75 * v.output(1))
        avg = mix(vp, vp.alphabet)
        assert np.allclose(avg, 0.75 * mix(v, v.alphabet))

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5, math.nan])
    def test_factor_outside_unit_interval_rejected(self, factor):
        v = qubit_channel(rng(40), 3)
        with pytest.raises(InvalidStateError):
            v.scaled(factor)


class TestPinsker:
    def test_product_state_both_zero(self):
        rho = np.eye(2) / 2
        mu = np.diag([0.3, 0.7]).astype(complex)
        sigma = np.kron(mu, rho)
        r = bounds.pinsker_gap(sigma, np.kron(mu, rho))
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_random_cq_states_hold(self):
        g = rng(41)
        for _ in range(25):
            k, d = int(g.integers(2, 4)), int(g.integers(2, 4))
            dist = random_probability(g, k)
            states = [random_density(g, d) for _ in range(k)]
            sigma = cq_joint(dist, states)
            avg = sum(p * s for p, s in zip(dist, states))
            mu_rho = np.kron(np.diag(dist).astype(complex), avg)
            r = bounds.pinsker_gap(sigma, mu_rho)
            assert r.holds, r
            want_lhs = op.trace_norm(sigma - mu_rho) ** 2
            assert r.lhs == pytest.approx(want_lhs, abs=1e-12)
            assert r.rhs == pytest.approx(TWO_LN_TWO * op.relative_entropy(sigma, mu_rho), abs=1e-12)

    def test_support_violation_infinite_rhs(self):
        sigma = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mu_rho = np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2).astype(complex)
        r = bounds.pinsker_gap(sigma, mu_rho)
        assert r.rhs == np.inf and r.holds


class TestContinuityBound:
    def test_g_closed_form(self):
        assert bounds.g_continuity(0.0) == 0.0
        assert bounds.g_continuity(1.0) == pytest.approx(2.0, abs=1e-12)
        assert bounds.g_continuity(0.5) == pytest.approx(G_AT_HALF, abs=1e-12)

    def test_identical_states_zero_both_sides(self):
        rho = np.eye(2) / 2
        r = bounds.continuity_bound([0.5, 0.5], [rho, rho])
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-9)
        assert r.holds

    def test_random_ensembles_hold_and_match_oracle(self):
        g = rng(42)
        for _ in range(20):
            k, d = int(g.integers(2, 5)), int(g.integers(2, 4))
            dist = random_probability(g, k)
            states = [random_density(g, d) for _ in range(k)]
            r = bounds.continuity_bound(dist, states)
            assert r.holds, r
            joint = cq_joint(dist, states)
            assert r.lhs == pytest.approx(
                mutual_information_oracle(joint, k, d), abs=1e-9
            )

    def test_reference_state_changes_epsilon_not_lhs(self):
        g = rng(43)
        dist = np.array([0.5, 0.5])
        states = [random_density(g, 2) for _ in range(2)]
        far = random_density(g, 2)
        r_avg = bounds.continuity_bound(dist, states)
        r_far = bounds.continuity_bound(dist, states, ref=far)
        assert r_avg.lhs == pytest.approx(r_far.lhs, abs=1e-12)
        assert r_far.holds

    def test_dim_override(self):
        rho = np.eye(2) / 2
        r = bounds.continuity_bound([0.5, 0.5], [rho, np.diag([0.9, 0.1])], dim_d=16)
        assert r.rhs >= bounds.continuity_bound([0.5, 0.5], [rho, np.diag([0.9, 0.1])]).rhs


def uniform_code(states, n=1, dim=None):
    """Wiretap code whose message states are fixed; decoders play no role."""
    k = len(states)
    dim = dim or states[0].shape[0]
    enc = ClassicalChannel(range(k), {m: {(m,): 1.0} for m in range(k)})
    decs = {m: np.zeros((dim, dim)) for m in range(k)}
    return codes.WiretapCode(enc, decs, n, dim)


class TestExpurgation:
    def test_equal_states_keep_all(self):
        rho = np.eye(2) / 2
        v = CqChannel(range(3), 2, {x: rho for x in range(3)})
        code = uniform_code([rho] * 3, dim=2)
        kept, report = bounds.expurgate_semantic(code, v)
        assert kept.messages == (0, 1, 2)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.holds

    def test_two_messages_always_kept(self):
        eye = np.eye(2)
        v = CqChannel(range(2), 2, {x: np.outer(eye[x], eye[x]) for x in range(2)})
        code = uniform_code([np.outer(eye[x], eye[x]) for x in range(2)], dim=2)
        kept, report = bounds.expurgate_semantic(code, v)
        # both distances equal the average, so the 2x threshold keeps both
        assert set(kept.messages) == {0, 1}
        assert report.holds

    def test_outlier_dropped(self):
        eye = np.eye(2)
        psi, phi = np.outer(eye[0], eye[0]), np.outer(eye[1], eye[1])
        v = CqChannel(range(5), 2, {x: (psi if x < 4 else phi) for x in range(5)})
        code = uniform_code([psi] * 4 + [phi], dim=2)
        kept, report = bounds.expurgate_semantic(code, v)
        assert set(kept.messages) == {0, 1, 2, 3}
        # kept distances are exactly 0.4, the average is 0.64
        assert report.lhs == pytest.approx(0.4, abs=1e-12)
        assert report.rhs == pytest.approx(1.28, abs=1e-12)

    def test_kept_at_least_half(self):
        g = rng(44)
        for _ in range(20):
            k = int(g.integers(2, 9))
            states = [random_density(g, 2) for _ in range(k)]
            v = CqChannel(range(k), 2, dict(enumerate(states)))
            code = uniform_code(states, dim=2)
            kept, report = bounds.expurgate_semantic(code, v)
            assert len(kept.messages) >= math.ceil(k / 2)
            assert report.holds

    def test_single_message_identity(self):
        rho = np.eye(2) / 2
        v = CqChannel(range(1), 2, {0: rho})
        code = uniform_code([rho], dim=2)
        kept, report = bounds.expurgate_semantic(code, v)
        assert kept is code and report.lhs == 0.0

    def test_kept_leakage_below_continuity_rhs(self):
        """Expurgation then continuity: the quantitative core of the
        strong-to-semantic upgrade at finite block length."""
        g = rng(45)
        for _ in range(10):
            k = int(g.integers(4, 7))
            states = [random_density(g, 2) for _ in range(k)]
            v = CqChannel(range(k), 2, dict(enumerate(states)))
            code = uniform_code(states, dim=2)
            kept, report = bounds.expurgate_semantic(code, v)
            kept_states = [states[m] for m in kept.messages]
            original_avg = sum(states) / k
            worst = channels.adversarial_leakage(
                {0: kept.encoder}, tensor_power(v, 1)
            ).upper
            eps = report.lhs / 2.0
            rhs = 2 * eps * math.log2(len(kept.messages)) + bounds.g_continuity(eps)
            # the continuity argument bounds leakage measured against the
            # original average state; adversarial chi is measured against
            # the per-distribution average, which only helps
            del kept_states, original_avg
            assert worst <= rhs + 1e-9


def shift_bri(size: int = 4) -> bri.BriFunction:
    table = (np.arange(size)[None, :] + np.arange(size)[:, None]) % size
    return bri.BriFunction(table, range(size))


def flat_bri(n_seeds: int = 2, n_inputs: int = 4) -> bri.BriFunction:
    return bri.BriFunction(np.zeros((n_seeds, n_inputs), dtype=int), (0,))


def chain_report(name, f, v, v_prime, m_dist) -> bounds.BoundReport:
    """The report ``name`` of :func:`bounds.certify_chain`."""
    return {r.name: r for r in bounds.certify_chain(f, v, v_prime, m_dist)}[name]


class TestChainSteps:
    """Chain-level reports through :func:`bounds.certify_chain`; the
    per-message steps through the helpers it runs on its tables."""

    def setup_method(self):
        self.f = bri.construct_exhaustive(4, 4, 2, lambda2_target=0.999)
        g = rng(46)
        self.v = qubit_channel(g, 4)
        self.m_dist = random_probability(g, 2)

    def test_leakage_by_divergence_constant_channel(self):
        rho = np.eye(2) / 2
        v = CqChannel(range(4), 2, {x: rho for x in range(4)})
        r = chain_report("leakage-vs-divergence", self.f, v, v, self.m_dist)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_leakage_by_divergence_random(self):
        r = chain_report("leakage-vs-divergence", self.f, self.v, self.v, self.m_dist)
        assert r.holds
        # lhs recomputed: seed-average Holevo of the preimage-mixture channel
        per_seed = []
        for s in range(self.f.n_seeds):
            states = [
                mix(self.v, bri.preimage(self.f, s, m))
                for m in self.f.regularity_set
            ]
            avg = sum(p * st for p, st in zip(self.m_dist, states))
            per_seed.append(
                op.entropy(avg)
                - sum(p * op.entropy(st) for p, st in zip(self.m_dist, states))
            )
        assert r.lhs == pytest.approx(np.mean(per_seed), abs=1e-9)

    def test_deterministic_message_still_bounded(self):
        r = chain_report("leakage-vs-divergence", self.f, self.v, self.v, [1.0, 0.0])
        assert r.holds

    def subnormalized(self, vp, i):
        return bounds._divergence_vs_subnormalized(
            bounds._Table(self.f, self.v), bounds._Table(self.f, vp), i
        )

    def test_subnormalized_equality_at_identity(self):
        vp = self.v.scaled(1.0)
        for i in range(len(self.f.regularity_set)):
            r = self.subnormalized(vp, i)
            assert r.slack == pytest.approx(0.0, abs=1e-10)
            assert r.holds

    def test_subnormalized_scaled(self):
        vp = self.v.scaled(0.9)
        for i in range(len(self.f.regularity_set)):
            r = self.subnormalized(vp, i)
            assert r.holds
            assert r.rhs == pytest.approx(
                0.9 * self.subnormalized(self.v.scaled(1.0), i).lhs
                + 0.1 * math.log2(4 / self.f.d_s),
                abs=1e-9,
            )

    def test_ordering_violation_rejected(self):
        big = CqChannel(
            self.v.alphabet,
            2,
            {x: self.v.output(x) for x in self.v.alphabet},
        )
        shrunk = CqChannel(
            range(4), 2, {x: 0.9 * self.v.output(x) + 0.1 * np.eye(2) / 2 for x in range(4)}
        )
        with pytest.raises(PsdOrderingError):
            bounds.certify_chain(self.f, shrunk, big, self.m_dist)

    def test_renyi2_single_seed_exact_zero(self):
        # one seed forces the preimage mixture to equal the average, so
        # both sides collapse: 0 <= log2(tr sigma) + 0 at full trace
        f1 = flat_bri(n_seeds=1, n_inputs=4)
        vp = self.v.scaled(1.0)
        r = bounds._divergence_vs_renyi2(bounds._Table(f1, vp), 0)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-10)
        assert r.holds

    def test_renyi2_degenerate_subnormalized_corner_fails(self):
        # complete mixing with a strictly subnormalized channel: the
        # recorded inequality collapses to 0 <= log2(t) + (1 - t), false
        # for every t < 1 (the +epsilon term is a nat-sized allowance
        # charged in bits), so the report honestly carries negative slack
        f1 = flat_bri(n_seeds=1, n_inputs=4)
        vp = self.v.scaled(0.95)
        r = bounds._divergence_vs_renyi2(bounds._Table(f1, vp), 0)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(math.log2(0.95) + 0.05, abs=1e-9)
        assert not r.holds

    def test_renyi2_normalized_always_holds(self):
        t = bounds._Table(self.f, self.v.scaled(1.0))
        for i in range(len(self.f.regularity_set)):
            r = bounds._divergence_vs_renyi2(t, i)
            assert r.holds, r

    def test_renyi2_subnormalized_with_spread(self):
        # singleton preimages keep the per-seed divergences macroscopic,
        # which is the regime the subnormalized variant is meant for
        f = shift_bri(4)
        t = bounds._Table(f, self.v.scaled(0.9))
        for i in range(len(f.regularity_set)):
            r = bounds._divergence_vs_renyi2(t, i)
            assert r.holds, r

    def test_spectrum_step_complete_mixing_lhs_one(self):
        # d_S = |X|: every preimage mixture equals the full average
        f = flat_bri(n_seeds=3, n_inputs=4)
        r = bounds._renyi2_vs_spectrum(bounds._Table(f, self.v.scaled(1.0)), 0)
        assert r.lhs == pytest.approx(1.0, abs=1e-10)
        assert r.holds

    def test_spectrum_step_random(self):
        for scale in (1.0, 0.85):
            vp = self.v.scaled(scale)
            t = bounds._Table(self.f, vp)
            for i, m in enumerate(self.f.regularity_set):
                r = bounds._renyi2_vs_spectrum(t, i)
                assert r.holds, r
                lam = bri.lambda2(self.f, m)
                want_rhs = (
                    lam
                    * op.rank_eps(mix(vp, vp.alphabet))
                    * max(operator_norm(vp.output(x)) for x in range(4))
                    + 1.0
                )
                assert r.rhs == pytest.approx(want_rhs, abs=1e-9)


class TestTotalAndChain:
    def test_constant_channel_zero(self):
        f = bri.construct_exhaustive(4, 4, 2, lambda2_target=0.999)
        rho = np.eye(2) / 2
        v = CqChannel(range(4), 2, {x: rho for x in range(4)})
        r = chain_report("leakage-total", f, v, v.scaled(1.0), [0.5, 0.5])
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_lambda2_zero_leakage_zero(self):
        f = flat_bri(n_seeds=2, n_inputs=4)
        g = rng(47)
        v = qubit_channel(g, 4)
        r = chain_report("leakage-total", f, v, v.scaled(1.0), [1.0])
        assert r.lhs <= 1e-10
        assert r.rhs == pytest.approx(0.0, abs=1e-9) or r.rhs >= 0.0
        assert r.holds

    def test_chain_emits_five_ordered_reports(self):
        f = shift_bri(4)
        g = rng(48)
        v = qubit_channel(g, 4)
        vp = v.scaled(0.92)
        reports = bounds.certify_chain(f, v, vp, random_probability(g, 4))
        assert len(reports) == 5
        assert [r.name for r in reports] == [
            "leakage-vs-divergence",
            "divergence-vs-subnormalized",
            "divergence-vs-renyi2",
            "renyi2-vs-spectrum",
            "leakage-total",
        ]
        assert all(r.holds for r in reports)

    def test_randomized_instances_normalized_all_hold(self):
        g = rng(49)
        corpus = [
            bri.construct_exhaustive(4, 4, 2, lambda2_target=0.999),
            bri.construct_seeded(1, 3),
            shift_bri(4),
            flat_bri(2, 4),
        ]
        checked = 0
        for f in corpus:
            for _ in range(4):
                dim = int(g.integers(2, 4))
                v = CqChannel(
                    range(f.n_inputs),
                    dim,
                    {x: random_density(g, dim) for x in range(f.n_inputs)},
                )
                m_dist = random_probability(g, len(f.regularity_set))
                vp = v.scaled(1.0)
                for r in bounds.certify_chain(f, v, vp, m_dist):
                    assert r.holds, (f.table.shape, r)
                    checked += 1
        assert checked == 80

    def test_randomized_instances_subnormalized_spread_hold(self):
        # strictly subnormalized family on functions whose preimages mix
        # partially; the complete-mixing corner is pinned separately as a
        # counterexample to the intermediate step
        g = rng(51)
        corpus = [
            bri.construct_exhaustive(4, 4, 2, lambda2_target=0.999),
            bri.construct_seeded(1, 3),
            shift_bri(4),
        ]
        checked = 0
        for f in corpus:
            for _ in range(2):
                dim = int(g.integers(2, 4))
                v = CqChannel(
                    range(f.n_inputs),
                    dim,
                    {x: random_density(g, dim) for x in range(f.n_inputs)},
                )
                m_dist = random_probability(g, len(f.regularity_set))
                scale = float(g.uniform(0.9, 0.98))
                vp = v.scaled(scale)
                for r in bounds.certify_chain(f, v, vp, m_dist):
                    assert r.holds, (f.table.shape, scale, r)
                    checked += 1
        assert checked == 30

    def test_total_bound_matches_formula(self):
        f = bri.construct_seeded(1, 3)
        g = rng(50)
        v = CqChannel(range(6), 2, {x: random_density(g, 2) for x in range(6)})
        vp = v.scaled(0.88)
        m_dist = random_probability(g, 2)
        r = chain_report("leakage-total", f, v, vp, m_dist)
        lam = max(bri.lambda2(f, m) for m in f.regularity_set)
        spectral = (
            lam
            * op.rank_eps(mix(vp, vp.alphabet))
            * max(operator_norm(vp.output(x)) for x in range(6))
        )
        want = spectral / math.log(2) + vp.epsilon + vp.epsilon * math.log2(6 / f.d_s)
        assert r.rhs == pytest.approx(want, abs=1e-9)

    def test_chain_checks_the_ordering_once(self, monkeypatch):
        # typicality-mode pair of the flip channel under the XOR table: the
        # per-message step and the closing report share one check
        flip = CqChannel((0, 1), 2, {0: np.diag([0.8, 0.2]), 1: np.diag([0.2, 0.8])})
        base, prime, iso = typicality.reindexed_pair(flip, (0.6, 0.4), 2, 0.5)
        calls = []
        real = bounds.check_psd_ordering
        monkeypatch.setattr(
            bounds, "check_psd_ordering", lambda *a: calls.append(a) or real(*a)
        )
        reports = bounds.certify_chain(shift_bri(2), base, prime, [0.5, 0.5], iso)
        assert len(calls) == 1
        assert all(r.holds for r in reports)

    def test_chain_rejects_an_ordering_violation(self):
        # V' = v is not below V = 0.9 v + 0.1 I/2: V - V' = -0.1 (v - I/2)
        # has a negative eigenvalue for every qubit state other than I/2
        g = rng(51)
        v = qubit_channel(g, 4)
        mixed = CqChannel(
            range(4), 2, {x: 0.9 * v.output(x) + 0.1 * np.eye(2) / 2 for x in range(4)}
        )
        with pytest.raises(PsdOrderingError):
            bounds.certify_chain(shift_bri(4), mixed, v, [0.25] * 4)


def section_6x8() -> bri.BriFunction:
    return serialize.bri_from_json(serialize.load_json(serialize.bundled("section_6x8.json")))


FLIP = CqChannel((0, 1), 2, {0: np.diag([0.8, 0.2]), 1: np.diag([0.2, 0.8])})


class TestChainTable:
    """The chain is read off one table per channel: the seed leakage is
    taken per seed, and the eigensolves do not grow with |M| or |S|."""

    def pairs(self):
        # (function, V, V', message distribution, isometry or None)
        g = rng(55)
        f = section_6x8()
        v = qubit_channel(g, 8)
        k = len(f.regularity_set)
        out = [
            (f, v, v, random_probability(g, k), None),
            (f, v, v.scaled(0.9), random_probability(g, k), None),
        ]
        base, prime, iso = typicality.reindexed_pair(FLIP, (0.6, 0.4), 2, 0.5)
        out.append((shift_bri(2), base, prime, [0.3, 0.7], iso))
        # rank-one outputs in a qutrit: every preimage mixture is rank deficient
        pure = CqChannel(range(4), 3, {x: random_density(g, 3, rank=1) for x in range(4)})
        out.append((shift_bri(4), pure, pure.scaled(0.9), random_probability(g, 4), None))
        return out

    def test_per_seed_leakage_matches_the_embedded_oracle(self):
        for f, v, vp, m_dist, iso in self.pairs():
            want = seed_embedded_leakage(f, v, m_dist)
            reports = bounds.certify_chain(f, v, vp, m_dist, iso)
            assert reports[0].lhs == pytest.approx(want, abs=1e-12)
            assert reports[4].lhs == reports[0].lhs

    def test_step_functions_agree_with_the_chain(self):
        # each per-message report of the chain is the helper's report of
        # smallest slack over m, ties going to the earlier m
        for f, v, vp, m_dist, iso in self.pairs():
            reports = bounds.certify_chain(f, v, vp, m_dist, iso)
            tv, tp = bounds._Table(f, v), bounds._Table(f, vp)
            steps = [
                lambda i: bounds._divergence_vs_subnormalized(tv, tp, i),
                lambda i: bounds._divergence_vs_renyi2(tp, i),
                lambda i: bounds._renyi2_vs_spectrum(tp, i),
            ]
            for report, step in zip(reports[1:4], steps):
                per_message = [step(i) for i in range(len(f.regularity_set))]
                least = min(r.slack for r in per_message)
                assert report == next(r for r in per_message if r.slack == least)

    def test_eigensolves_do_not_grow_with_messages_or_seeds(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda a, _real=real: calls.append(a.shape) or _real(a)
            )
        g = rng(56)
        counts = {"scale": [], "identity": []}
        for f in (shift_bri(2), shift_bri(4), section_6x8()):
            v = qubit_channel(g, f.n_inputs)
            k = len(f.regularity_set)
            for mode, vp in (("scale", v.scaled(0.9)), ("identity", v)):
                calls.clear()
                bounds.certify_chain(f, v, vp, [1.0 / k] * k)
                # one 2 x 2 eigensolve per symbol for the ordering V' <= V
                assert calls[: f.n_inputs] == [(2, 2)] * f.n_inputs
                counts[mode].append(len(calls) - f.n_inputs)
        # per table: one eigvalsh of the preimage stack and one eigh of
        # sigma; V adds the eigvalsh of the leakage's averages, V' the
        # eigvalsh of its outputs for the norm; identity mode has one table
        assert counts == {"scale": [6, 6, 6], "identity": [4, 4, 4]}

    def test_table_reads_match_the_public_functions(self):
        # the cores see the stack and sigma the public functions would
        # validate and decompose again, so the bits agree
        for f, v, vp, m_dist, _ in self.pairs():
            for channel in (v, vp):
                t = bounds._Table(f, channel)
                want = op.relative_entropies(t.stack, t.sigma).mean(axis=1)
                assert np.array_equal(t.divergences, want)
                assert np.array_equal(t.renyi2, op.exp2_renyi2(t.stack, t.sigma).mean(axis=1))
                norm = max(operator_norm(channel.output(x)) for x in range(f.n_inputs))
                assert t.spectral == (norm, op.rank_eps(t.sigma))
            t, p = bounds._Table(f, v), np.asarray(m_dist, dtype=float)
            seeds = [
                CqChannel(range(len(m_dist)), v.dim, dict(enumerate(t.stack[:, s])))
                for s in range(f.n_seeds)
            ]
            assert t.leakage(p) == np.mean([channels.holevo(p, u) for u in seeds])

    def test_table_mixtures_match_the_subset_oracle(self):
        # weights 1/|D| times each output, against the oracle's sum over D
        # divided by |D|: the two differ by rounding only (six inputs give
        # sigma weights of 1/6, which are not exact)
        g = rng(58)
        six = CqChannel(range(6), 3, {x: random_density(g, 3) for x in range(6)})
        cases = [(f, v) for f, v, *_ in self.pairs()]
        for f, v in cases + [(bri.construct_exhaustive(3, 6, 3, 1.0), six)]:
            t = bounds._Table(f, v)
            for i, m in enumerate(f.regularity_set):
                for s in range(f.n_seeds):
                    want = mix(v, bri.preimage(f, s, m))
                    assert np.abs(t.stack[i, s] - want).max() <= MIXTURE_ROUNDING
            assert np.abs(t.sigma - mix(v, range(f.n_inputs))).max() <= MIXTURE_ROUNDING

    def test_subnormalized_v_rejected(self):
        # the leakage takes entropies, so V must have density outputs
        f = section_6x8()
        v = qubit_channel(rng(57), f.n_inputs).scaled(0.9)
        k = len(f.regularity_set)
        with pytest.raises(InvalidStateError, match="trace"):
            bounds.certify_chain(f, v, v.scaled(0.9), [1.0 / k] * k)
        with pytest.raises(InvalidStateError, match="trace"):
            bounds.certify_chain(f, v, v, [1.0 / k] * k)


def cyclic_bri(size: int) -> bri.BriFunction:
    """(x + s) mod k over k seeds and ``size`` inputs, with k the largest
    divisor of ``size`` up to 5: every seed row holds each of the k
    messages size / k times and every input column once, so any typical
    set size |T| has a function with mixing preimages."""
    k = max(d for d in range(1, 6) if size % d == 0)
    return bri.BriFunction((np.arange(size)[None, :] + np.arange(k)[:, None]) % k, range(k))


def dense_prime(prime, iso) -> CqChannel:
    """V' at the dimension of V: the outputs A K_x A*, the reference the
    chain on the R x R cores is compared against."""
    return CqChannel(prime.alphabet, iso.shape[0],
                     {x: bounds._sandwich(iso, prime.output(x)) for x in prime.alphabet},
                     validate=False)


class TestChainOnTheTypicalSubspace:
    """Typicality mode hands the chain V' as its R x R cores with the
    isometry A: the reports agree with the chain on A K A* at d^n, and
    no operator of V' is decomposed at d^n."""

    @staticmethod
    def instances():
        from test_typicality import clock_channel, flip_channel, haar_flip

        for n in range(2, 6):
            yield flip_channel(), (0.6, 0.4), n, 0.5
            yield haar_flip(), (0.6, 0.4), n, 0.5
            yield clock_channel(), (1 / 3, 1 / 3, 1 / 3), n, 1.0

    def test_matches_the_chain_at_dn(self):
        g = rng(60)
        checked = 0
        for v, p, n, delta in self.instances():
            base, prime, iso = typicality.reindexed_pair(v, p, n, delta)
            assert (base.dim, prime.dim) == iso.shape
            f = cyclic_bri(len(base))
            m_dist = random_probability(g, len(f.regularity_set))
            got = bounds.certify_chain(f, base, prime, m_dist, iso)
            want = bounds.certify_chain(f, base, dense_prime(prime, iso), m_dist)
            assert [r.name for r in got] == [r.name for r in want]
            for a, b in zip(got, want):
                assert abs(a.lhs - b.lhs) <= 1e-12, (v.dim, n, a, b)
                assert abs(a.rhs - b.rhs) <= 1e-12, (v.dim, n, a, b)
                assert a.holds == b.holds
            checked += 1
        assert checked == 12

    def test_empty_typical_subspace(self):
        # the average state's typical subspace is empty (R = 0) while the
        # typical inputs are not: V' has 0 x 0 outputs, and every report
        # is the one V' = 0 gives at d^n
        v = CqChannel((0, 1), 2, {0: np.diag([0.95, 0.05]), 1: np.diag([0.9, 0.1])})
        base, prime, iso = typicality.reindexed_pair(v, (0.5, 0.5), 2, 0.05)
        assert iso.shape == (4, 0) and len(base) == 2
        f = shift_bri(2)
        got = bounds.certify_chain(f, base, prime, [0.5, 0.5], iso)
        assert got == bounds.certify_chain(f, base, dense_prime(prime, iso), [0.5, 0.5])

    def test_rejects_a_non_isometry(self):
        base, prime, iso = typicality.reindexed_pair(FLIP, (0.6, 0.4), 2, 0.5)
        with pytest.raises(InvalidStateError, match="isometry"):
            bounds.certify_chain(shift_bri(2), base, prime, [0.5, 0.5], 2 * iso)

    def test_rejects_a_wrong_iso_shape(self):
        base, prime, iso = typicality.reindexed_pair(FLIP, (0.6, 0.4), 2, 0.5)
        for wrong in (iso.T, iso[:, :-1], iso[:-1]):
            with pytest.raises(DimensionMismatchError, match="iso has shape"):
                bounds.certify_chain(shift_bri(2), base, prime, [0.5, 0.5], wrong)
            with pytest.raises(DimensionMismatchError, match="iso has shape"):
                bounds.check_psd_ordering(prime, base, wrong)

    def test_violation_through_the_iso_still_raises(self):
        # adding c I to every core adds c P (P = A A*) to A K A*, which
        # exceeds V^n on the typical eigenvectors where A K A* meets it
        base, prime, iso = typicality.reindexed_pair(FLIP, (0.6, 0.4), 2, 0.5)
        eye = np.eye(prime.dim) / prime.dim
        bumped = CqChannel(prime.alphabet, prime.dim,
                           {x: prime.output(x) + 0.01 * eye for x in prime.alphabet})
        with pytest.raises(PsdOrderingError) as err:
            bounds.certify_chain(shift_bri(2), base, bumped, [0.5, 0.5], iso)
        assert err.value.min_eigenvalue < -bounds.ORDERING_TOL

    def test_dimension_mismatch_without_iso(self):
        # a qutrit V' against a qubit V on the bundled 6x8 function
        g = rng(61)
        f = section_6x8()
        v = qubit_channel(g, f.n_inputs)
        qutrit = CqChannel(range(f.n_inputs), 3,
                           {x: 0.5 * random_density(g, 3) for x in range(f.n_inputs)})
        k = len(f.regularity_set)
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            bounds.certify_chain(f, v, qutrit, [1.0 / k] * k)
        with pytest.raises(DimensionMismatchError, match="dimension 3"):
            bounds.check_psd_ordering(qutrit, v)

    def test_no_operator_of_v_prime_is_decomposed_at_dn(self, monkeypatch):
        # the chain-typ-6 instance of the typical-projection benchmark:
        # D = 64, R = 21, |T| = 6 typical strings, |M| = |S| = 3
        flip = CqChannel((0, 1), 2, {0: np.diag([0.9, 0.1]), 1: np.diag([0.1, 0.9])})
        base, prime, iso = typicality.reindexed_pair(flip, (5 / 6, 1 / 6), 6, 0.2)
        f = bri.construct_exhaustive(3, 6, 3, 1.0)
        sizes, count = {}, (len(f.regularity_set), f.n_seeds, len(base))
        assert iso.shape == (64, 21) and count == (3, 3, 6)
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, _real=real):
                a = np.asarray(a)
                sizes[a.shape[-1]] = sizes.get(a.shape[-1], 0) + a[..., 0, 0].size
                return _real(a)

            monkeypatch.setattr(np.linalg, name, counted)
        bounds.certify_chain(f, base, prime, [1 / 3] * 3, iso)
        m, s, t = count
        # at d^n only V: its preimage stack, the seed averages of the
        # leakage, the ordering differences and sigma; at R all of V'
        assert sizes == {64: m * s + s + t + 1, 21: m * s + t + 1}
        # with V' handed over at d^n its operators are decomposed there too
        sizes.clear()
        bounds.certify_chain(f, base, dense_prime(prime, iso), [1 / 3] * 3)
        assert sizes == {64: 2 * (m * s + t + 1) + s} == {64: 35}
