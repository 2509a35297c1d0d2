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
exp2 of the quadratic divergence is tr(rho^2 sigma^+) exactly.

One defect is recorded rather than hidden: the divergence-vs-renyi2 step
charges the trace deficit as "+ epsilon" in bits, but the underlying
estimate -t log t <= 1 - t is a natural-log inequality, so the charge can
fall short for any strictly subnormalized V'.  Complete mixing (every
preimage mixture equal to the channel average) is only the plainest case,
with a right side of log2(t) + (1 - t) < 0 against a left side of 0.  On
the bundled 6x8 function, 15 of 20 random qubit eavesdroppers
(``default_rng`` seeds 0-19) damped to 0.9 give negative slack as well,
the worst -0.0278.  The report keeps that honest negative slack; a charge
that is sound in bits is ROADMAP item 4.  The closing leakage-total
report does not inherit this: its derivation replaces the logarithm by
the chord bound log2(1 + u) <= u / ln 2 before the deficit enters.

A subnormalized channel V' is a :class:`~cqwiretap.channels.CqChannel`
whose ``epsilon`` is its measured trace deficit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .bri import BriFunction, lambda2, preimage
from .channels import ClassicalChannel, CqChannel, compose, holevo, mix, tensor_power
from .codes import TransmissionCode, WiretapCode
from .config import TOL_BOUND, TOL_ROWSUM, check_dim
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


def _require_bri(f):
    if not isinstance(f, BriFunction):
        raise InvalidStateError(f"expected a verified BriFunction, got {type(f).__name__}")


def _require_alphabet(channel, f):
    if len(channel) != f.n_inputs or not all(
        channel.has_symbol(x) for x in range(f.n_inputs)
    ):
        raise DimensionMismatchError(
            f"channel alphabet does not match the {f.n_inputs} function inputs"
        )


def _check_m(f, m):
    if m not in f.regularity_set:
        raise InvalidStateError(f"{m!r} is not in the regularity set")


def _check_m_dist(f, m_dist) -> np.ndarray:
    p = np.asarray(m_dist, dtype=float)
    if p.ndim != 1 or p.size != len(f.regularity_set):
        raise DimensionMismatchError(
            f"message distribution length {p.size} != {len(f.regularity_set)}"
        )
    if p.min() < 0.0 or abs(p.sum() - 1.0) > TOL_ROWSUM:
        raise InvalidStateError("message distribution must be a probability vector")
    return p


def _preimage_mixtures(f, channel, m) -> list:
    return [mix(channel, preimage(f, s, m)) for s in range(f.n_seeds)]


def _seed_embedded_leakage(f, v, m_dist, cap=None) -> float:
    """chi(M; S, V o f_S^{-1}) on the literal joint seed-output system.

    The per-message state is the block-diagonal embedding of all seeds'
    preimage mixtures, each weighted 1/|S|; the seed register is part of
    the eavesdropper's system, whose dimension |S| d is checked against
    ``cap``.
    """
    k, d = f.n_seeds, v.dim
    check_dim(k * d, cap)
    states = {}
    for i, m in enumerate(f.regularity_set):
        block = np.zeros((k * d, k * d), dtype=complex)
        for s in range(k):
            block[s * d : (s + 1) * d, s * d : (s + 1) * d] = (
                mix(v, preimage(f, s, m)) / k
            )
        states[i] = block
    joint = CqChannel(range(len(f.regularity_set)), k * d, states, validate=False)
    return holevo(m_dist, joint)


def bound_leakage_by_divergence(f, v, m_dist, cap=None) -> BoundReport:
    """Leakage of the seeded preimage ensemble vs the worst-message
    expected divergence from the channel average.

    lhs = chi(M; S, V o f_S^{-1}) computed on the explicit joint system;
    rhs = max_m E_S D(V o f_s^{-1}(m) || V(X)).
    """
    _require_bri(f)
    _require_alphabet(v, f)
    p = _check_m_dist(f, m_dist)
    lhs = _seed_embedded_leakage(f, v, p, cap)
    v_avg = mix(v, range(f.n_inputs))
    rhs = max(
        float(np.mean([op.relative_entropy(r, v_avg) for r in _preimage_mixtures(f, v, m)]))
        for m in f.regularity_set
    )
    return make_report("leakage-vs-divergence", lhs, rhs)


def _require_pair(f, v, v_prime):
    _require_bri(f)
    _require_alphabet(v, f)
    _require_alphabet(v_prime, f)


def bound_divergence_by_subnormalized(f, v, v_prime, m) -> BoundReport:
    """Expected divergence under V vs under a dominated V', plus the
    trace-deficit charge epsilon * log2(|X| / d_S).

    Requires V' <= V in PSD order symbol by symbol (checked).
    """
    _require_pair(f, v, v_prime)
    _check_m(f, m)
    check_psd_ordering(v_prime, v)
    return _divergence_by_subnormalized(f, v, v_prime, m)


def _divergence_by_subnormalized(f, v, v_prime, m) -> BoundReport:
    v_avg = mix(v, range(f.n_inputs))
    lhs = float(
        np.mean([op.relative_entropy(r, v_avg) for r in _preimage_mixtures(f, v, m)])
    )
    vp_avg = mix(v_prime, range(f.n_inputs))
    inner = np.mean(
        [op.relative_entropy(r, vp_avg) for r in _preimage_mixtures(f, v_prime, m)]
    )
    rhs = float(inner) + v_prime.epsilon * math.log2(f.n_inputs / f.d_s)
    return make_report("divergence-vs-subnormalized", lhs, rhs)


def bound_divergence_by_renyi2(f, v_prime, m) -> BoundReport:
    """Expected divergence vs log2 of the seed-averaged tr(rho^2 sigma^+),
    plus the trace deficit epsilon.

    The "+ epsilon" charge comes from a natural-log estimate and is short
    in bits, so a strictly subnormalized V' can give negative slack well
    beyond complete mixing (see the module docstring; ROADMAP item 4).
    """
    _require_bri(f)
    _require_alphabet(v_prime, f)
    _check_m(f, m)
    sigma = mix(v_prime, range(f.n_inputs))
    mixtures = _preimage_mixtures(f, v_prime, m)
    lhs = float(np.mean([op.relative_entropy(r, sigma) for r in mixtures]))
    avg_exp = float(np.mean([op.exp2_renyi2(r, sigma) for r in mixtures]))
    if math.isinf(avg_exp):
        rhs = math.inf
    elif avg_exp <= 0.0:
        rhs = -math.inf
    else:
        rhs = math.log2(avg_exp) + v_prime.epsilon
    return make_report("divergence-vs-renyi2", lhs, rhs)


def bound_renyi2_by_spectrum(f, v_prime, m) -> BoundReport:
    """Seed-averaged tr(rho^2 sigma^+) vs lambda2 * rank * max norm + 1."""
    _require_bri(f)
    _require_alphabet(v_prime, f)
    _check_m(f, m)
    sigma = mix(v_prime, range(f.n_inputs))
    lhs = float(
        np.mean([op.exp2_renyi2(r, sigma) for r in _preimage_mixtures(f, v_prime, m)])
    )
    if math.isinf(lhs):
        # unreachable for genuine inputs: sigma dominates every preimage
        # mixture by (d_S/|X|) r <= sigma, so a support leak is numerical;
        # the divergence convention makes the pair vacuously certified
        return make_report("renyi2-vs-spectrum", lhs, math.inf)
    norm = max(op.operator_norm(v_prime.output(x)) for x in range(f.n_inputs))
    rhs = lambda2(f, m) * op.rank_eps(sigma) * norm + 1.0
    return make_report("renyi2-vs-spectrum", lhs, rhs)


def bound_leakage_total(f, v, v_prime, m_dist, cap=None) -> BoundReport:
    """Leakage vs the closed-form spectral bound

    (1/ln 2) max_m lambda2(f,m) * rank * max norm + eps + eps log2(|X|/d_S).
    """
    _require_pair(f, v, v_prime)
    p = _check_m_dist(f, m_dist)
    check_psd_ordering(v_prime, v)
    return _leakage_total(f, v, v_prime, p, cap)


def _leakage_total(f, v, v_prime, p, cap=None) -> BoundReport:
    lhs = _seed_embedded_leakage(f, v, p, cap)
    sigma = mix(v_prime, range(f.n_inputs))
    norm = max(op.operator_norm(v_prime.output(x)) for x in range(f.n_inputs))
    lam = max(lambda2(f, m) for m in f.regularity_set)
    eps = v_prime.epsilon
    rhs = (
        lam * op.rank_eps(sigma) * norm / LN2
        + eps
        + eps * math.log2(f.n_inputs / f.d_s)
    )
    return make_report("leakage-total", lhs, rhs)


def certify_chain(f, v, v_prime, m_dist, cap=None) -> list:
    """All five chain reports in derivation order.

    The three per-message steps are evaluated for every m in the
    regularity set and the worst (smallest slack) report is kept, ties
    resolved toward the earlier m.  The ordering V' <= V is checked once,
    for all steps that need it.  ``cap`` bounds the dimension of the
    seed-embedded joint system.
    """
    _require_pair(f, v, v_prime)
    p = _check_m_dist(f, m_dist)
    check_psd_ordering(v_prime, v)

    def worst(fn, *args):
        best = None
        for m in f.regularity_set:
            r = fn(*args, m)
            if best is None or r.slack < best.slack:
                best = r
        return best

    return [
        bound_leakage_by_divergence(f, v, m_dist, cap),
        worst(_divergence_by_subnormalized, f, v, v_prime),
        worst(bound_divergence_by_renyi2, f, v_prime),
        worst(bound_renyi2_by_spectrum, f, v_prime),
        _leakage_total(f, v, v_prime, p, cap),
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
    p = np.asarray(m_dist, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in states]
    if p.ndim != 1 or p.size != len(states):
        raise DimensionMismatchError(
            f"distribution length {p.size} != {len(states)} states"
        )
    if p.min() < 0.0 or abs(p.sum() - 1.0) > TOL_ROWSUM:
        raise InvalidStateError("message distribution must be a probability vector")
    avg = sum(prob * s for prob, s in zip(p, states))
    lhs = op.entropy(avg) - sum(
        prob * op.entropy(s) for prob, s in zip(p, states) if prob > 0.0
    )
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
    rho = mix(ev, messages)
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
