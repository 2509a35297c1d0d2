"""Certified inequality reports: the BRI leakage chain and expurgation.

Each check is packaged as a :class:`BoundReport` carrying both sides of
one inequality together with the measured slack.  The chain runs

    seed-average leakage
      <= worst-message expected divergence           (leakage-vs-divergence)
      <= the same under a dominated subnormalized
         channel, plus a trace-deficit charge        (divergence-vs-subnormalized)
      <= a log-average of quadratic divergences      (divergence-vs-renyi2)
      <= a spectral product lambda2 * rank * norm    (renyi2-vs-spectrum)

and the closing report (leakage-total) compares the leakage directly
against the combined spectral bound.  Everything is computed in bits;
exp2 of the quadratic divergence is tr(rho^2 sigma^+) exactly.  The
leakage chi(M; S, V o f_S^{-1}) keeps the seed register, and for a uniform
seed independent of M it is exactly (1/|S|) sum_s chi(M; V o f_s^{-1}),
so it is taken per seed on the ``(|S|, |M|, d, d)`` stack of preimage
mixtures; the joint |S| d-dimensional operator is never formed.

One defect is recorded rather than hidden: the divergence-vs-renyi2 step
charges the trace deficit as "+ epsilon" in bits, but the underlying
estimate -t log t <= 1 - t is a natural-log inequality, so the charge can
fall short for any strictly subnormalized V'.  Complete mixing (every
preimage mixture equal to the channel average) is only the plainest case,
with a right side of log2(t) + (1 - t) < 0 against a left side of 0.  On
the bundled 6x8 function, 15 of 20 random qubit eavesdroppers
(``default_rng`` seeds 0-19) damped to 0.9 give negative slack as well,
the worst -0.0278.  The report keeps that honest negative slack; a charge
that is sound in bits is the ROADMAP item "A chain that is sound in bits".
The closing leakage-total report does not inherit this: its derivation
replaces the logarithm by the chord bound log2(1 + u) <= u / ln 2 before
the deficit enters.

A subnormalized channel V' is a :class:`~cqwiretap.channels.CqChannel`
whose ``epsilon`` is its measured trace deficit.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators as op
from .bri import BriFunction, lambda2
from .channels import ClassicalChannel, _chi, _mixtures, _validated_stack, compose, tensor_power
from .channels import check_distribution
from .codes import TransmissionCode, WiretapCode
from .config import TOL_BOUND
from .errors import DimensionMismatchError, InvalidStateError, PsdOrderingError

LN2 = math.log(2.0)
ORDERING_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """One inequality lhs <= rhs with its measured slack.

    ``holds`` is slack >= -1e-9; infinities are legal on either side
    (slack of two infinite sides is 0 by convention).
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


def make_report(name: str, lhs, rhs) -> BoundReport:
    lhs, rhs = float(lhs), float(rhs)
    if math.isinf(lhs) and math.isinf(rhs) and lhs == rhs:
        slack = 0.0
    else:
        slack = rhs - lhs
    return BoundReport(name, lhs, rhs, slack, slack >= -TOL_BOUND)


def check_psd_ordering(v_prime, v, tol: float = ORDERING_TOL) -> float:
    """Assert V'(x) <= V(x) in PSD order for every shared symbol.

    Returns the most negative eigenvalue seen across the differences
    (0.0 when the ordering is exact); raises :class:`PsdOrderingError`
    when it drops below -tol.
    """
    return _ordering_scan(((x, v.output(x), v_prime.output(x)) for x in v_prime.alphabet), tol)


def _ordering_scan(triples, tol: float = ORDERING_TOL) -> float:
    """The rule of :func:`check_psd_ordering` over ``(x, V(x), V'(x))``
    triples, consumed one at a time so a caller may build them lazily.
    The worst symbol is reported after the whole scan."""
    worst = 0.0
    worst_x = None
    for x, big, small in triples:
        diff = op.check_hermitian(big - small)
        w = np.linalg.eigvalsh(diff)
        low = float(w[0]) if w.size else 0.0
        if low < worst:
            worst, worst_x = low, x
    if worst < -tol:
        raise PsdOrderingError(
            f"channel ordering violated at symbol {worst_x!r}: "
            f"min eigenvalue of the difference is {worst:.3e}",
            min_eigenvalue=worst,
        )
    return worst


def _require(f, *channels):
    """``f`` is a verified BRI function and every channel has its inputs."""
    if not isinstance(f, BriFunction):
        raise InvalidStateError(f"expected a verified BriFunction, got {type(f).__name__}")
    for channel in channels:
        if len(channel) != f.n_inputs or not all(map(channel.has_symbol, range(f.n_inputs))):
            raise DimensionMismatchError(
                f"channel alphabet does not match the {f.n_inputs} function inputs"
            )


def _index(f, m) -> int:
    if m not in f.regularity_set:
        raise InvalidStateError(f"{m!r} is not in the regularity set")
    return f.regularity_set.index(m)


class _Table:
    """One channel's share of the chain over a BRI function.

    ``stack[i, s]`` is the preimage mixture V o f_s^{-1}(m) of the i-th
    message m of the regularity set, one :func:`_mixtures` call over
    ``(|M|, |S|, |X|)`` weights, and ``sigma`` the average over all inputs.
    The stack is validated and decomposed once, and sigma's ``eigh`` taken
    once; each quantity below reads them through the unchecked operator
    cores, on first use, and is kept.
    """

    def __init__(self, f, channel):
        self.f, self.channel = f, channel
        self.outputs = np.array([channel.output(x) for x in range(f.n_inputs)])
        hits = np.array([f.table == m for m in f.regularity_set], dtype=float)
        stack = _mixtures(hits / hits.sum(axis=-1, keepdims=True), self.outputs)
        self.stack, self.spectra = op._spectra(stack)
        sigma = _mixtures(np.full(f.n_inputs, 1.0 / f.n_inputs), self.outputs)
        self.sigma, *self.sigma_eigh = op._spectra(sigma, vectors=True)

    @cached_property
    def divergences(self) -> np.ndarray:
        """E_S D(V o f_S^{-1}(m) || sigma) for every m."""
        return op._relative_core(self.stack, self.spectra, *self.sigma_eigh).mean(axis=1)

    @cached_property
    def renyi2(self) -> np.ndarray:
        """E_S tr((V o f_S^{-1}(m))^2 sigma^+) for every m."""
        return op._renyi2_core(self.stack, *self.sigma_eigh).mean(axis=1)

    @cached_property
    def spectral(self):
        """The largest output operator norm, from one ``eigvalsh`` over the
        outputs, and the support rank of sigma, from its ``eigh``."""
        w = np.linalg.eigvalsh(op.check_hermitian(self.outputs))
        return float(np.abs(w).max()), int(op._support_mask(self.sigma_eigh[0]).sum())

    def leakage(self, p) -> float:
        """chi(M; S, V o f_S^{-1}) = (1/|S|) sum_s chi(M; V o f_s^{-1}) for a
        uniform seed independent of M, one Holevo quantity per seed; the
        mixtures must have unit trace, as in :func:`_validated_stack`."""
        op._check_unit_trace(self.stack)
        ent = op._entropy_core(self.spectra)
        return max(0.0, float(_chi(p, self.stack.swapaxes(0, 1), ent.swapaxes(0, 1)).mean()))


def _worst(step, *tables):
    """The report of ``step`` with the smallest slack over the regularity
    set, ties resolved toward the earlier m."""
    count = len(tables[0].f.regularity_set)
    return min((step(*tables, i) for i in range(count)), key=lambda r: r.slack)


def _divergence_vs_subnormalized(tv, tp, i) -> BoundReport:
    f = tv.f
    rhs = tp.divergences[i] + tp.channel.epsilon * math.log2(f.n_inputs / f.d_s)
    return make_report("divergence-vs-subnormalized", tv.divergences[i], rhs)


def _divergence_vs_renyi2(tp, i) -> BoundReport:
    avg_exp = float(tp.renyi2[i])
    if math.isinf(avg_exp):
        rhs = math.inf
    elif avg_exp <= 0.0:
        rhs = -math.inf
    else:
        rhs = math.log2(avg_exp) + tp.channel.epsilon
    return make_report("divergence-vs-renyi2", tp.divergences[i], rhs)


def _renyi2_vs_spectrum(tp, i) -> BoundReport:
    lhs = float(tp.renyi2[i])
    if math.isinf(lhs):
        # unreachable for genuine inputs: sigma dominates every preimage
        # mixture by (d_S/|X|) r <= sigma, so a support leak is numerical;
        # the divergence convention makes the pair vacuously certified
        return make_report("renyi2-vs-spectrum", lhs, math.inf)
    norm, rank = tp.spectral
    rhs = lambda2(tp.f, tp.f.regularity_set[i]) * rank * norm + 1.0
    return make_report("renyi2-vs-spectrum", lhs, rhs)


def _leakage_total(tp, leak) -> BoundReport:
    f = tp.f
    norm, rank = tp.spectral
    lam = max(lambda2(f, m) for m in f.regularity_set)
    eps = tp.channel.epsilon
    rhs = lam * rank * norm / LN2 + eps + eps * math.log2(f.n_inputs / f.d_s)
    return make_report("leakage-total", leak, rhs)


def bound_leakage_by_divergence(f, v, m_dist) -> BoundReport:
    """Leakage of the seeded preimage ensemble vs the worst-message
    expected divergence from the channel average.

    lhs = chi(M; S, V o f_S^{-1}), taken per seed;
    rhs = max_m E_S D(V o f_s^{-1}(m) || V(X)).
    """
    _require(f, v)
    p = check_distribution(m_dist, len(f.regularity_set), "message distribution")
    tv = _Table(f, v)
    return make_report("leakage-vs-divergence", tv.leakage(p), tv.divergences.max())


def bound_divergence_by_subnormalized(f, v, v_prime, m) -> BoundReport:
    """Expected divergence under V vs under a dominated V', plus the
    trace-deficit charge epsilon * log2(|X| / d_S).

    Requires V' <= V in PSD order symbol by symbol (checked).
    """
    _require(f, v, v_prime)
    i = _index(f, m)
    check_psd_ordering(v_prime, v)
    return _divergence_vs_subnormalized(_Table(f, v), _Table(f, v_prime), i)


def bound_divergence_by_renyi2(f, v_prime, m) -> BoundReport:
    """Expected divergence vs log2 of the seed-averaged tr(rho^2 sigma^+),
    plus the trace deficit epsilon.

    The "+ epsilon" charge comes from a natural-log estimate and is short
    in bits, so a strictly subnormalized V' can give negative slack well
    beyond complete mixing (see the module docstring and the ROADMAP item
    "A chain that is sound in bits").
    """
    _require(f, v_prime)
    return _divergence_vs_renyi2(_Table(f, v_prime), _index(f, m))


def bound_renyi2_by_spectrum(f, v_prime, m) -> BoundReport:
    """Seed-averaged tr(rho^2 sigma^+) vs lambda2 * rank * max norm + 1."""
    _require(f, v_prime)
    return _renyi2_vs_spectrum(_Table(f, v_prime), _index(f, m))


def bound_leakage_total(f, v, v_prime, m_dist) -> BoundReport:
    """Leakage vs the closed-form spectral bound

    (1/ln 2) max_m lambda2(f,m) * rank * max norm + eps + eps log2(|X|/d_S).
    """
    _require(f, v, v_prime)
    p = check_distribution(m_dist, len(f.regularity_set), "message distribution")
    check_psd_ordering(v_prime, v)
    return _leakage_total(_Table(f, v_prime), _Table(f, v).leakage(p))


def certify_chain(f, v, v_prime, m_dist) -> list:
    """All five chain reports in derivation order.

    The three per-message steps are evaluated for every m in the
    regularity set and the worst (smallest slack) report is kept, ties
    resolved toward the earlier m.  The ordering V' <= V is checked once,
    for all steps that need it, and every report is read off one table
    per channel (one in all when ``v_prime is v``), so the eigensolves do
    not grow with |M| or |S|.
    """
    _require(f, v, v_prime)
    p = check_distribution(m_dist, len(f.regularity_set), "message distribution")
    check_psd_ordering(v_prime, v)
    tv = _Table(f, v)
    tp = tv if v_prime is v else _Table(f, v_prime)
    leak = tv.leakage(p)
    return [
        make_report("leakage-vs-divergence", leak, tv.divergences.max()),
        _worst(_divergence_vs_subnormalized, tv, tp),
        _worst(_divergence_vs_renyi2, tp),
        _worst(_renyi2_vs_spectrum, tp),
        _leakage_total(tp, leak),
    ]


def pinsker_gap(sigma, mu_tensor_rho) -> BoundReport:
    """Trace-norm-squared vs 2 ln 2 times the relative entropy (bits)."""
    sigma = np.asarray(sigma, dtype=complex)
    mu_tensor_rho = np.asarray(mu_tensor_rho, dtype=complex)
    lhs = op.trace_norm(sigma - mu_tensor_rho) ** 2
    rhs = 2.0 * LN2 * op.relative_entropy(sigma, mu_tensor_rho)
    return make_report("pinsker", lhs, rhs)


def g_continuity(x: float) -> float:
    """(1 + x) h(x / (1 + x)), the additive term of the continuity bound."""
    x = float(x)
    if x < 0.0:
        raise InvalidStateError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    return (1.0 + x) * op.binary_entropy(x / (1.0 + x))


def continuity_bound(m_dist, states, dim_d: int | None = None, ref=None) -> BoundReport:
    """Holevo quantity of an ensemble vs 2 eps' log2(d) + g(eps').

    eps' is half the average trace distance of the ensemble members from
    the reference state (the ensemble average unless ``ref`` is given;
    expurgation passes the unexpurgated average).  ``d`` defaults to the
    number of ensemble members, the dimension of the message register.
    """
    p = check_distribution(m_dist, len(states), "message distribution")
    states, ent = _validated_stack(states)
    lhs = _chi(p, states, ent)
    avg = _mixtures(p, states)
    ref_state = avg if ref is None else np.asarray(ref, dtype=complex)
    eps = 0.5 * float(
        sum(prob * op.trace_norm(s - ref_state) for prob, s in zip(p, states))
    )
    d = int(dim_d) if dim_d is not None else len(states)
    rhs = 2.0 * eps * math.log2(d) + g_continuity(eps)
    return make_report("continuity", lhs, rhs)


def expurgate_semantic(code, v):
    """Drop every message whose output strays more than twice the average
    trace distance from the uniform-ensemble average.

    Returns the restricted code and a report with lhs = largest kept
    distance and rhs = the 2x-average threshold.  Markov's inequality
    guarantees at least half the messages survive.  The kept messages are
    ordered by (distance, original position).
    """
    if isinstance(code, TransmissionCode):
        code = code.as_wiretap()
    if not isinstance(code, WiretapCode):
        raise InvalidStateError(f"expected a wiretap code, got {type(code).__name__}")
    messages = code.messages
    if len(messages) == 1:
        return code, make_report("expurgation", 0.0, 0.0)
    ev = compose(code.encoder, tensor_power(v, code.n))
    rho = _mixtures(np.full(len(messages), 1.0 / len(messages)), np.array(ev.states()))
    dist = {m: op.trace_norm(ev.output(m) - rho) for m in messages}
    threshold = 2.0 * float(np.mean(list(dist.values())))
    order = {m: i for i, m in enumerate(messages)}
    kept = sorted(
        (m for m in messages if dist[m] <= threshold),
        key=lambda m: (dist[m], order[m]),
    )
    encoder = ClassicalChannel(kept, {m: dict(code.encoder.row(m)) for m in kept})
    restricted = WiretapCode(
        encoder, {m: code.decoders[m] for m in kept}, code.n, code.dim
    )
    report = make_report("expurgation", max(dist[m] for m in kept), threshold)
    return restricted, report
