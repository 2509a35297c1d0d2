"""Classical-quantum channels and their information quantities.

A cq channel maps a finite input alphabet to density operators on a fixed
finite-dimensional space, or to subnormalized ones whose worst trace
deficit it carries as ``epsilon``.  This module provides composition with
classical pre-processing, lazy tensor powers, the one check of a
probability vector, mixtures, the Holevo quantity, leakage under common
randomness, and the two optimizers the secrecy analysis needs: the
adversarial (worst message distribution) leakage and the single-letter
secrecy-capacity objective.

Every Holevo quantity in the package is :func:`_chi` on a stack that
:func:`_validated_stack` checked, and every mixture is :func:`_mixtures`.
Both optimizers stack their output states as one ``(..., k, d, d)`` array,
validate it once on entry, and evaluate objectives and analytic gradients
with one eigensolve of the average states per call.  The steps call the
unchecked entropy and divergence cores of :mod:`cqwiretap.operators`
directly, so the only check left per step is the eigenvalue floor; the
values are those of :func:`cqwiretap.operators.entropies` and
:func:`cqwiretap.operators.relative_entropies` bit for bit.

The adversarial search is concave and deterministic: it starts at the
uniform distribution, and each iteration tries a Newton step on the face
of the distribution's non-negligible weights, with its curvature from the
eigensolve that gave the gradient, then a Blahut-Arimoto step.  Its
certificate holds whatever steps it takes.  The capacity search draws its
random starts from a caller-supplied ``numpy.random.Generator`` (by
default Philox with a fixed seed), so repeated calls reproduce each other
exactly.  Its starts ascend together as one ``(N, k)`` batch, each row
with its own step length and its own budget of ``max_iters`` trials.  A
row that moved tries a Newton point on its support, from the curvature
``H_W - H_V`` of the eigensolve that gave its gradient, together with four
doubled steps, and takes the best of them; a rejected trial leaves a row
as it was, so a row rejected s times in a row tries its next s halved
steps in one round.  Each round is one ``eigvalsh`` per channel over the
trials of the live rows, and at most one ``eigh`` per channel and one
batched bordered solve over the rows that moved.  A weight counts as on
the support above 1e-12.  Every row takes the trials and follows the
iterates it would take and follow alone, and restart reduction is by
best value with ties to the lowest restart index, then the grid rule.  For
up to three inputs the grid point that joins the starts is screened first:
qubit averages take closed-form spectra from entries linear in the point,
with no eigensolve, and only the few points near the screened maximum are
evaluated exactly.
"""

import itertools
import warnings
from collections import namedtuple
from functools import reduce

import numpy as np

from . import operators as op
from .config import TOL_ROWSUM, TOL_TRACE, check_dim
from .errors import ConvergenceWarning, DimensionMismatchError, InvalidStateError


class CqChannel:
    """A classical-quantum channel with explicitly stored outputs.

    Each output is a Hermitian PSD operator of trace at most 1.  Unless
    ``validate`` is off, the ``(k, d, d)`` stack of outputs is validated by
    one :func:`cqwiretap.operators._spectra` call, so by one ``eigvalsh``
    per channel.  ``epsilon`` is the measured worst trace deficit
    ``max(0, max_x 1 - tr V(x))``: 0 for a channel of density outputs,
    positive for a subnormalized one such as the dominated V' <= V of the
    leakage chain.  Unit trace is checked where a channel enters from a
    file and where entropies are taken.

    Parameters
    ----------
    alphabet : ordered iterable of hashable symbols
    dim : output dimension
    outputs : mapping symbol -> PSD matrix of trace <= 1
    """

    __slots__ = ("alphabet", "dim", "epsilon", "_outputs")

    def __init__(self, alphabet, dim, outputs, validate: bool = True):
        self.alphabet = tuple(alphabet)
        self.dim = int(dim)
        if set(outputs) != set(self.alphabet) or len(self.alphabet) != len(set(self.alphabet)):
            raise InvalidStateError("outputs must cover the alphabet exactly")
        states = []
        for x in self.alphabet:
            rho = np.asarray(outputs[x], dtype=complex)
            if rho.shape != (self.dim, self.dim):
                raise InvalidStateError(
                    f"output for {x!r} has shape {rho.shape}, expected ({self.dim}, {self.dim})"
                )
            states.append(rho)
        if validate:
            states = list(_checked_outputs(self.alphabet, np.array(states))[0])
        deficit = 0.0
        for rho in states:
            deficit = max(deficit, 1.0 - float(np.real(np.trace(rho))))
        self.epsilon = max(0.0, deficit)
        self._outputs = dict(zip(self.alphabet, states))

    def scaled(self, factor: float) -> "CqChannel":
        """Uniform damping V'(x) = factor * V(x) for 0 < factor <= 1.

        Not validated again: scaling a Hermitian PSD output of trace <= 1
        by a factor in (0, 1] keeps it one, so no eigensolve is made.
        """
        if not 0.0 < factor <= 1.0:
            raise InvalidStateError(f"factor must be in (0, 1], got {factor}")
        outputs = {x: factor * self.output(x) for x in self.alphabet}
        return CqChannel(self.alphabet, self.dim, outputs, validate=False)

    def output(self, x) -> np.ndarray:
        try:
            return self._outputs[x]
        except KeyError:
            raise DimensionMismatchError(f"symbol {x!r} not in alphabet") from None

    def has_symbol(self, x) -> bool:
        return x in self._outputs

    def states(self) -> list:
        return [self._outputs[x] for x in self.alphabet]

    def __len__(self) -> int:
        return len(self.alphabet)


def _checked_outputs(symbols, rho):
    """Validate the outputs ``rho`` for ``symbols``: Hermitian PSD of trace
    <= 1, the trace check naming the first symbol that fails it.

    ``rho`` is the ``(k, d, d)`` stack of the k symbols' outputs, or the
    ``(d, d)`` output of a single symbol.  One
    :func:`cqwiretap.operators._spectra` call, so one eigensolve.  Returns
    the symmetrized outputs and their clipped ascending spectra.
    """
    rho, w = op._spectra(rho)
    t = op._trace(rho)
    over = np.flatnonzero(t > 1.0 + TOL_TRACE)
    if over.size:
        i = over[0]
        raise InvalidStateError(f"output for {symbols[i]!r} has trace {float(t.flat[i])} > 1")
    return rho, w


class ProductChannel:
    """Lazy n-fold tensor power of a cq channel.

    Outputs are Kronecker products built per queried string; the full
    alphabet ``X^n`` is never materialized.  Individual outputs are valid
    densities by construction (products of valid densities), so no
    per-output validation is repeated here.
    """

    __slots__ = ("base", "n", "dim")

    def __init__(self, base: CqChannel, n: int, cap: int | None = None):
        if n < 1:
            raise InvalidStateError(f"tensor power needs n >= 1, got {n}")
        self.base = base
        self.n = int(n)
        self.dim = check_dim(base.dim**n, cap)

    def output(self, xn) -> np.ndarray:
        xn = tuple(xn)
        if len(xn) != self.n:
            raise DimensionMismatchError(f"string length {len(xn)} != {self.n}")
        return reduce(np.kron, (self.base.output(x) for x in xn))

    def has_symbol(self, xn) -> bool:
        return (
            isinstance(xn, tuple)
            and len(xn) == self.n
            and all(self.base.has_symbol(x) for x in xn)
        )

    def strings(self):
        """Iterator over X^n in lexicographic order."""
        return itertools.product(self.base.alphabet, repeat=self.n)


class ClassicalChannel:
    """Sparse classical channel: each input row is a distribution over symbols."""

    __slots__ = ("inputs", "rows")

    def __init__(self, inputs, rows):
        self.inputs = tuple(inputs)
        if set(rows) != set(self.inputs):
            raise InvalidStateError("rows must cover the inputs exactly")
        clean = {}
        for m in self.inputs:
            row = dict(rows[m])
            total = 0.0
            for x, prob in row.items():
                prob = float(prob)
                if prob < -TOL_ROWSUM:
                    raise InvalidStateError(f"negative probability {prob} in row {m!r}")
                row[x] = max(prob, 0.0)
                total += prob
            if abs(total - 1.0) > TOL_ROWSUM:
                raise InvalidStateError(f"row {m!r} sums to {total!r}, not 1")
            clean[m] = row
        self.rows = clean

    def row(self, m) -> dict:
        return self.rows[m]

    def __len__(self) -> int:
        return len(self.inputs)


def compose(e: ClassicalChannel, v) -> CqChannel:
    """Channel composition (EV)(m) = sum_x E(x|m) V(x).

    ``v`` may be a :class:`CqChannel` or a lazy :class:`ProductChannel`;
    every symbol in e's row supports must be a valid input of ``v``.
    """
    outputs = {}
    for m in e.inputs:
        out = np.zeros((v.dim, v.dim), dtype=complex)
        for x, prob in e.row(m).items():
            if not v.has_symbol(x):
                raise DimensionMismatchError(f"encoder emits {x!r}, unknown to the channel")
            if prob > 0.0:
                out += prob * v.output(x)
        outputs[m] = out
    return CqChannel(e.inputs, v.dim, outputs, validate=False)


def tensor_power(v: CqChannel, n: int, cap: int | None = None):
    """Lazy n-fold tensor power over strings (tuples) of length n.

    n = 1 yields a channel with identical outputs, addressed by 1-tuples,
    so code strings keep a uniform type at every block length.
    """
    return ProductChannel(v, n, cap)


def check_distribution(p, size: int | None = None, what: str = "distribution") -> np.ndarray:
    """``p`` as a float vector of ``size`` entries (any nonzero number by
    default), nonnegative and summing to 1 within ``TOL_ROWSUM``; a wrong
    shape is a :class:`DimensionMismatchError`, nan and the rest (a string or
    bool entry too: numpy reads ``[0.5, True]`` as floats) an
    :class:`InvalidStateError`."""
    entries = p if isinstance(p, (list, tuple)) else ()
    p = np.asarray(p)
    if p.dtype.kind not in "iuf" or any(isinstance(x, (bool, np.bool_)) for x in entries):
        raise InvalidStateError(f"{what} entry must be a number")
    p = p.astype(float, copy=False)
    if p.ndim != 1 or p.size == 0 or (size is not None and p.size != size):
        want = "a nonempty vector" if size is None else f"{size} entries"
        raise DimensionMismatchError(f"{what} has shape {p.shape}, expected {want}")
    if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= TOL_ROWSUM):
        raise InvalidStateError(f"{what} must be a probability vector, got {p.tolist()}")
    return p


def _mixtures(p: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Mixtures ``sum_x p[..., x] states[..., x, :, :]`` for stacked states.

    The reduction over the alphabet axis adds the terms in alphabet order,
    so a distribution gets the same bits alone as inside a batch.
    """
    return (p[..., None, None] * states).sum(axis=-3)


def holevo(p, v) -> float:
    """Holevo quantity chi(P; V) = S(PV) - sum_x P(x) S(V(x)), in bits."""
    p = check_distribution(p, len(v.alphabet))
    return max(0.0, float(_chi(p, *_validated_stack(v.states()))))


AdversarialLeakage = namedtuple("AdversarialLeakage", ["value", "upper", "argmax", "converged"])
CapacityResult = namedtuple("CapacityResult", ["value", "argmax", "converged"])


def _default_rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(0))


def _validated_stack(states):
    """Stack output states, validate them once, and return them
    (symmetrized) with their entropies, from one ``eigvalsh`` call.

    This is the only check of the states of a Holevo quantity (the chain
    table makes the same on its own stack): :func:`_chi` and
    :func:`_chi_gradient` take what it returns and check nothing but the
    eigenvalue floor of the averages.  A mixture of these states with a
    distribution p is exactly Hermitian (the states are, and p is real)
    and has unit trace (p lies on the simplex).
    """
    states, w = op._spectra(np.array(states), density=True)
    return states, op._entropy_core(w)


def _chi(p: np.ndarray, states: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """Holevo quantities ``S(PU) - sum_x p_x S(U_x)`` of stacked states.

    ``states`` is ``(..., k, d, d)`` with entropies ``ent`` of shape
    ``(..., k)``, both from :func:`_validated_stack`; ``p`` is one
    distribution ``(k,)`` or a batch ``(N, k)``.  One ``eigvalsh`` call
    covers every average.
    """
    w = op.clip_spectrum(np.linalg.eigvalsh(_mixtures(p, states)))
    return op._entropy_core(w) - (ent * p).sum(axis=-1)


def _chi_gradient(p: np.ndarray, states: np.ndarray, ent: np.ndarray, curvature: bool = False):
    """``D(U_x || PU)`` for every state: the gradient of chi in p up to a
    constant, from one ``eigh`` call over the averages.  Takes what
    :func:`_validated_stack` returns, as :func:`_chi` does.  With
    ``curvature``, for one channel's ``(k, d, d)`` states, it also returns
    the ``(..., k, k)`` :func:`_chi_hessian` at each row of p from the same
    ``eigh``, nan where the row's average has an eigenvalue 0."""
    w, u = _average_eigh(p, states)
    g = _gradient_at(states, ent, op._trace(states), w, u)
    if not curvature:
        return g
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 where w has an eigenvalue 0
        h = _chi_hessian(states[None], w[..., None, :, :], u[..., None, :, :])
    h[w.min(axis=(-2, -1)) <= 0.0] = np.nan
    return g, h


def _average_eigh(p: np.ndarray, states: np.ndarray):
    """Clipped spectra and eigenvectors of the averages ``PU``, shaped
    ``(..., 1, d)`` and ``(..., 1, d, d)`` to broadcast over the states."""
    w, u = np.linalg.eigh(_mixtures(p, states)[..., None, :, :])
    return op.clip_spectrum(w), u


def _gradient_at(states, ent, traces, w, u) -> np.ndarray:
    """:func:`_chi_gradient` from the states' traces and the averages'
    :func:`_average_eigh`."""
    leaked, cross = op._divergence_core(states, w, u, traces)[2:]
    return np.where(leaked, np.inf, -ent - cross)


# eigenvalue pairs closer than this, relative to their sum, take the limit
# 2/(a + b) of the divided difference (ln a - ln b)/(a - b)
_CLOSE_PAIR = 1e-6


def _chi_hessian(states: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The ``(..., k, k)`` Jacobian in p of the seed mean of
    :func:`_chi_gradient`, one per row.

    ``states`` is ``(S, k, d, d)`` and ``w, u`` the :func:`_average_eigh`
    of its averages, which must have full rank: ``(S, 1, d)`` and
    ``(S, 1, d, d)`` at one distribution, or with a leading axis of rows,
    ``(N, S, 1, d)``, for a batch of them.  With ``PU_s = V diag(l) V*``
    and ``T = V* U V``, ``H_mn = -(1/(S ln 2)) sum_s Re sum_ij G_ij
    conj(T_m)_ij (T_n)_ij``, where ``G_ij`` is the divided difference of
    ``ln`` at ``l_i, l_j``: the derivative of ``-tr U_m log2 PU`` along U_n.
    A row gets the same bits alone as inside a batch.
    """
    log_w = np.log(w)
    total, diff = w[..., :, None] + w[..., None, :], w[..., :, None] - w[..., None, :]
    gamma = 2.0 / total
    far = np.abs(diff) > _CLOSE_PAIR * total
    np.divide(log_w[..., :, None] - log_w[..., None, :], diff, out=gamma, where=far)
    t = u.conj().swapaxes(-1, -2) @ states @ u
    h = np.einsum("...smij,...snij->...mn", t.conj() * gamma, t).real
    return h / (-len(states) * np.log(2.0))


def _finite_gradient(g: np.ndarray) -> np.ndarray:
    """Replace non-finite gradient entries so a step never sees inf or nan.

    Works on each row (last axis) of ``g`` alone: ``+inf`` and nan go 100
    above the row's largest finite entry, so that mass moves towards them;
    ``-inf`` goes 100 below its smallest, so that mass moves away.  A row
    with no finite entry takes 0 for both.
    """
    ok = np.isfinite(g)
    if ok.all():
        return g
    top = np.where(ok, g, -np.inf).max(axis=-1, keepdims=True)
    bottom = np.where(ok, g, np.inf).min(axis=-1, keepdims=True)
    top, bottom = (np.where(np.isfinite(b), b, 0.0) for b in (top, bottom))
    return np.where(ok, g, np.where(g == -np.inf, bottom - 100.0, top + 100.0))


def _warn_unconverged(name: str, max_iters: int) -> None:
    warnings.warn(
        f"{name} did not converge within max_iters={max_iters}; "
        "returning the best value found",
        ConvergenceWarning,
        stacklevel=3,
    )


# certification gap at which the adversarial search stops, in bits
_GAP_TOL = 1e-9
# The Newton step's face, with d_m = max g - g_m in bits and the gap
# max g - <p, g>: the messages whose weight is above _FACE_SHARE of the
# largest, or above _FLAT_SHARE of it where d_m < _FLAT_GAP (there the
# Blahut-Arimoto step moves weight slowly), except the steep ones, whose d_m
# is above both _FLAT_GAP and _STEEP_GAPS gaps.  A weight goes at most
# _BOUNDARY_SHARE of the way to zero: on the face through the step length,
# and off it, where d_m >= _FLAT_GAP, at once.
_FACE_SHARE = 1e-3
_FLAT_SHARE = 1e-5
_FLAT_GAP = 1e-2
_STEEP_GAPS = 3.0
_BOUNDARY_SHARE = 0.9


def _newton_trial(p: np.ndarray, g: np.ndarray, states: np.ndarray, w, u):
    """The Newton trial of the adversarial search at p, or None.

    On the face F it solves ``[[H_FF, 1], [1, 0]] [delta; mu] = [-g_F; 0]``,
    with the :func:`_chi_hessian` H at p from the averages' eigh ``w, u``
    that gave g, and goes ``min(1, 0.9 min p_m/|delta_m|)`` along delta;
    the weights off F whose gradient entry is 1e-2 bits or more below the
    largest shrink to a tenth.  A rank-deficient average (an eigenvalue 0),
    where g may be infinite, or a face of one message has no trial.
    """
    if w.min() <= 0.0 or not np.isfinite(g).all():
        return None
    top, deficit = p.max(), g.max() - g
    flat = deficit < _FLAT_GAP
    steep = deficit > max(_FLAT_GAP, _STEEP_GAPS * (g.max() - p @ g))
    on = ~steep & ((p > _FACE_SHARE * top) | (flat & (p > _FLAT_SHARE * top)))
    face = np.flatnonzero(on)
    n = len(face)
    if n < 2:
        return None
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = _chi_hessian(states[:, face], w, u)
    kkt[n, n] = 0.0
    try:
        delta = np.linalg.solve(kkt, np.append(-g[face], 0.0))[:n]
    except np.linalg.LinAlgError:
        return None
    shrink = delta < 0.0
    reach = (p[face][shrink] / -delta[shrink]).min(initial=np.inf)
    trial = p.copy()
    trial[face] += min(1.0, _BOUNDARY_SHARE * reach) * delta
    trial[~(on | flat)] *= 1.0 - _BOUNDARY_SHARE
    return trial / trial.sum()


class SeedStack:
    """The outputs E^s V_n of a code's encoders, one validated stack for
    every leakage quantity of the code.

    ``encoders`` maps seeds to :class:`ClassicalChannel` instances sharing
    one message set, and ``v_n`` is the eavesdropper's channel or a lazy
    :class:`ProductChannel`.  ``states`` is the ``(S, M, d, d)`` stack of
    the composed outputs, seeds sorted, validated by one ``eigvalsh`` call
    (:func:`_validated_stack`), and ``ent`` holds their entropies.
    """

    __slots__ = ("states", "ent")

    def __init__(self, encoders, v_n):
        seeds = sorted(encoders)
        if not seeds:
            raise InvalidStateError("need at least one seed")
        msgs = encoders[seeds[0]].inputs
        if any(encoders[s].inputs != msgs for s in seeds):
            raise InvalidStateError("encoders must share one message set")
        self.states, self.ent = _validated_stack(
            [compose(encoders[s], v_n).states() for s in seeds]
        )

    def leakage_cr(self, m_dist) -> float:
        """Leakage under common randomness at ``m_dist``: the seed mean of
        chi(M; E^s V), the seed uniform and independent of the message."""
        p = check_distribution(m_dist, self.states.shape[1], "message distribution")
        return max(0.0, float(_chi(p, self.states, self.ent).mean()))

    def adversarial_leakage(self, max_iters: int = 2000) -> AdversarialLeakage:
        """Worst-case leakage over message distributions, bounded from both
        sides.

        The objective (1/|S|) sum_s chi(P; U_s) is concave in P.  Its
        gradient ``g_m = (1/|S|) sum_s D(U_s(m) || U_s P)`` gives
        ``<P, g> = chi(P)`` and ``chi(Q) <= <Q, g>`` for every Q: each
        evaluated point bounds the maximum below by ``<P, g>`` and above by
        ``max_m g_m`` (Blahut 1972, Arimoto 1972; Ramakrishnan et al.,
        arXiv:1905.01286).  The search starts at the uniform P, and each
        iteration tries two steps.  First a Newton step
        (:func:`_newton_trial`) on the face of the weights that are not
        negligible, whose curvature (:func:`_chi_hessian`) comes from the
        eigensolve that gave g; in the same trial the small weights whose
        gradient entry lies well below the largest shrink to a tenth.  It is
        skipped where an average has an eigenvalue 0.  Then the cq
        Blahut-Arimoto step P <- P 2^(lam (g - max g)), which carries the
        search where Newton steps do not.  A trial that certifies (a finite
        g and no zero weight) is accepted when it does not lower the value,
        when its own gap ``max g - <P, g>`` is no larger than the current
        point's, so that a value lower by rounding alone does not stop the
        search, or, for the Blahut-Arimoto step, when ``lam`` is 1.  ``lam``
        grows by 1.5 per accepted Blahut-Arimoto step and falls back to the
        monotone step 1 when such a trial is rejected.

        The certificate does not depend on the steps.  ``value`` is the
        best lower side ``<P, g> = chi(P)``, reached at the certified
        evaluated point ``argmax``, and ``upper`` the least ``max_m g_m``
        over every evaluated point, always from the raw gradient, which
        bounds the maximum at any point by concavity.  The search stops when
        ``upper - value <= 1e-9``, or warns with a
        :class:`~cqwiretap.errors.ConvergenceWarning` and
        ``converged=False``.  It draws no random numbers.  Each evaluation
        is one ``eigh`` of the ``(S, 1, d, d)`` averages; the traces of the
        stack, against which a gradient entry is found infinite, are taken
        once per search.
        """
        states, ent = self.states, self.ent
        traces = op._trace(states)
        k = states.shape[1]
        if k == 1:
            return AdversarialLeakage(0.0, 0.0, np.array([1.0]), True)

        def sides(p):
            # the gradient, <p, g> (-inf unless certified), max_m g_m, in bits,
            # and the averages' eigh that gave them
            w, u = _average_eigh(p, states)
            g = _gradient_at(states, ent, traces, w, u).sum(axis=0) / len(states)
            certified = np.isfinite(g).all() and (p > 0.0).all()
            return g, float(p @ g) if certified else -np.inf, float(g.max()), (w, u)

        def move(trial, lenient=False):
            # evaluate a trial and take it when it certifies no worse than the
            # current point, even when rounding puts its value a hair lower
            nonlocal p, g, val, eig, upper, best_val, best_p
            trial_g, trial_val, trial_upper, trial_eig = sides(trial)
            upper = min(upper, trial_upper)
            if trial_val == -np.inf or not (
                lenient or trial_val >= val or trial_upper - trial_val <= g.max() - val
            ):
                return False
            p, g, val, eig = trial, trial_g, trial_val, trial_eig
            if val > best_val:
                best_val, best_p = val, p
            return True

        p = np.full(k, 1.0 / k)
        g, val, upper, eig = sides(p)
        best_val, best_p = val, p
        lam = 1.0
        for _ in range(max_iters):
            if upper - best_val <= _GAP_TOL:
                break
            newton = _newton_trial(p, g, states, *eig)
            if newton is not None:
                move(newton)
                if upper - best_val <= _GAP_TOL:
                    break
            step = _finite_gradient(g)
            trial = p * np.exp2(lam * (step - step.max()))
            if move(trial / trial.sum(), lenient=lam == 1.0):
                lam *= 1.5
            elif lam > 1.0:
                lam = 1.0
            else:
                break
        converged = upper - best_val <= _GAP_TOL
        if not converged:
            _warn_unconverged("adversarial_leakage", max_iters)
        return AdversarialLeakage(best_val, upper, best_p, converged)


def leakage_cr(m_dist, encoders, v_n) -> float:
    """Leakage under common randomness: (1/|S|) sum_s chi(M; E^s V).

    ``encoders`` maps seeds to :class:`ClassicalChannel` instances sharing
    one message set; the seed is uniform and independent of the message.
    :meth:`SeedStack.leakage_cr` of the encoders' outputs.
    """
    return SeedStack(encoders, v_n).leakage_cr(m_dist)


def adversarial_leakage(encoders, v_n, max_iters: int = 2000):
    """Worst-case leakage over message distributions, bounded from both
    sides: :meth:`SeedStack.adversarial_leakage` of the encoders' outputs."""
    return SeedStack(encoders, v_n).adversarial_leakage(max_iters)


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto the probability simplex."""
    k = y.shape[-1]
    u = np.sort(y, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    cond = u - css / np.arange(1, k + 1) > 0
    # one past the last index where cond holds (cond holds at index 0)
    rho = k - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)
    theta = np.take_along_axis(css, rho - 1, axis=-1) / rho
    return np.clip(y - theta, 0.0, None)


def _simplex_grid(k: int) -> np.ndarray:
    """Grid polish points for k <= 3 inputs, one row each, in search order:
    10,001 points for k = 2, 10,011 (resolution 140) for k = 3."""
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        a = np.arange(10001)
        return np.stack([a, 10000 - a], axis=1) / 10000
    a, ab = np.triu_indices(141)  # a outer, a + b = ab inner
    return np.stack([a, ab - a, 140 - ab], axis=1) / 140


# matrix entries per block of the exact grid evaluations: 512 points of
# qubit averages (227 of qutrit ones), for the screen of a pair with a
# larger output and for the exact pass over the screen's candidates
_GRID_ENTRIES = 2048
# grid points per block of the screen of a qubit pair
_QUBIT_SCREEN_POINTS = 2048
# bound, in bits, on |screened chi - exact chi| at any grid point
_GRID_ALLOWANCE = 1e-9


def _screened_chi(p: np.ndarray, states: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """:func:`_chi` within ``_GRID_ALLOWANCE``, without LAPACK for qubits.

    A qubit average M = [[a, b], [b*, c]] has eigenvalues
    (a + c)/2 -+ hypot((a - c)/2, |b|); these go through the same floor and
    entropy core as :func:`_chi`.  The entries are linear in p, so one
    ``(N, k) x (k, 4)`` product gives them for a batch of N points.  Other
    dimensions take :func:`_chi`.
    """
    if states.shape[-1] != 2:
        return _chi(p, states, ent)
    m = p @ states.reshape(-1, 4)
    a, c = m[..., 0].real, m[..., 3].real
    mean, radius = (a + c) / 2, np.hypot((a - c) / 2, np.abs(m[..., 1]))
    w = op.clip_spectrum(np.stack([mean - radius, mean + radius], axis=-1))
    return op._entropy_core(w) - (ent * p).sum(axis=-1)


# a row of the capacity ascent stops once its first-order residual (see
# _kkt_residual) is at most _KKT_TOL bits; failing that, after
# _STALL_LIMIT rejected trials in a row, or once its step falls below
# _STEP_FLOOR.  A weight counts as on a row's support above _SUPPORT_FLOOR.
_KKT_TOL = 1e-6
_STALL_LIMIT = 41
_STEP_FLOOR = 1e-13
_SUPPORT_FLOOR = 1e-12
# a row whose last round was accepted tries the steps t 2^j, j < _DOUBLINGS
_DOUBLINGS = 4


def _kkt_residual(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """First-order residual of each row of p on the simplex, in bits.

    ``max_x g_x - min_{x : p_x > 1e-12} g_x``, with the support read above
    ``_SUPPORT_FLOOR``: 0 exactly where g is level on the support and no
    higher off it (at a vertex: where its own entry is the largest), so at
    a KKT point of the simplex up to weights of at most 1e-12, and the same
    for g shifted by any multiple of the all-ones vector.  Where the
    objective is concave it bounds the gap to the maximum: f* - f(p) <=
    max g - <p, g>, which is at most the residual plus
    ``k * 1e-12 * (max g - min g)``, the most that the weights at or below
    the floor can add.
    """
    return g.max(axis=-1) - np.where(p > _SUPPORT_FLOOR, g, np.inf).min(axis=-1)


def _newton_points(p: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Newton point of each row of p on its support, nan where it has
    none.

    On the support S (the weights above ``_SUPPORT_FLOOR``) it solves
    ``[[H_SS, 1], [1, 0]] [delta; mu] = [-g_S; 0]`` and returns
    ``p + delta`` on S and 0 off it, for the simplex projection to place.
    Each system is ``(k + 1, k + 1)``, with ``-1`` on the diagonal of the
    rows and columns off the support, and one batched ``eigvalsh`` and one
    batched solve cover every row, so a row gets the same bits alone as
    inside a batch.  A row has a point only where the curvature is
    negative definite on the face, so that the quadratic model has a
    maximum there: where the system has one positive eigenvalue (the
    border's) and k negative ones.  So it has none where its curvature
    ``h`` is not finite (nan marks an average with an eigenvalue 0 or a
    gradient that is not finite), where its support has fewer than 2
    entries, or where its system is singular.
    """
    k = p.shape[1]
    on = p > _SUPPORT_FLOOR
    ok = np.flatnonzero((on.sum(axis=1) >= 2) & np.isfinite(h).all(axis=(1, 2)))
    out = np.full_like(p, np.nan)
    if not ok.size:
        return out
    on = on[ok]
    kkt = np.zeros((len(ok), k + 1, k + 1))
    kkt[:, :k, :k] = np.where(on[:, :, None] & on[:, None, :], h[ok], -np.eye(k))
    kkt[:, :k, k] = kkt[:, k, :k] = on
    lam = np.linalg.eigvalsh(kkt)
    peak = ((lam > 0.0).sum(axis=1) == 1) & ((lam < 0.0).sum(axis=1) == k)
    ok, on, kkt = ok[peak], on[peak], kkt[peak]
    rhs = np.zeros((len(ok), k + 1, 1))
    rhs[:, :k, 0] = np.where(on, -g[ok], 0.0)
    try:
        delta = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:  # an eigenvalue 0 read as rounding noise
        delta = np.full_like(rhs, np.nan)
        for i in range(len(ok)):
            try:
                delta[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    out[ok] = np.where(on, p[ok] + delta[:, :k, 0], 0.0)
    out[~np.isfinite(out).all(axis=1)] = np.nan
    return out


def _ascend(p: np.ndarray, objectives, gradients, max_iters: int):
    """Ascent of every row of p on the simplex, each with its own step:
    projected gradient steps and a Newton trial on the row's support.

    ``gradients`` returns the finite gradient g of each row and its
    ``(k, k)`` curvature, nan where the row takes no Newton trial.  A step
    trial at step t is the simplex projection of ``p + t g``, and the
    Newton trial the projection of the row's :func:`_newton_points` point.
    A trial is accepted when it raises the objective by more than 1e-15.
    A row starts at step 0.25, and a round of a row is one of two kinds.
    In its first round and after each accepted one it tries its Newton
    point, where it has one, and the doubled steps ``t 2^j`` for j = 0..3,
    and takes the best trial that raises its value: t then stays where the
    Newton trial is best and becomes s/2 where the step s is, so the next
    such round brackets s.  After a rejected round it tries halved steps
    in one batch: a row rejected s times in a row tries its next s
    halvings, cut where the stall rule, the step floor (compared on the
    exact halved steps) or its remaining trials would end it, and takes the
    first accepted trial, at whose step s t becomes s/2.  A round with no
    accepted trial halves t (a doubling round) or the last halving.  A
    row stops once the :func:`_kkt_residual` of the gradient at its point
    is at most ``_KKT_TOL``, checked before its first trial and each time it
    moves, so a row that starts at a KKT point takes no trial.  Failing
    that, it stops after ``_STALL_LIMIT`` rejections in a row or once its
    step falls below ``_STEP_FLOOR``.  ``max_iters`` bounds the trials each
    row takes.  A closing run of 41 rejections, where the residual never
    reaches the tolerance, so takes 5 rounds: 5, 5, 10, 20 and 1 trials
    after a round with a Newton trial, 4, 4, 8, 16 and 9 without one.

    A rejected trial leaves the row's point, gradient, curvature and value
    as they were, so the trials after it are known in advance.  Each round
    is one :func:`_project_simplex` and one ``objectives`` call over the
    trials of every live row, and one ``gradients`` call and one
    :func:`_newton_points` call over the rows that moved in the round
    before.  Every trial of a doubling round counts against the budget;
    the halvings after a row's first accepted one are discarded.  So the
    trials each row takes, ``max_iters`` among them, are those of an ascent
    of its own, bit for bit.  Returns the final rows, their values and
    whether each one stopped.
    """
    rows = len(p)
    val = objectives(p)
    step = np.full(rows, 0.25)
    stall = np.zeros(rows, dtype=int)
    spent = np.zeros(rows, dtype=int)
    stopped = np.zeros(rows, dtype=bool)
    # a row keeps its gradient and Newton point until it moves
    grad, newton = np.empty_like(p), np.full_like(p, np.nan)
    moved = np.arange(rows)
    while True:
        moved = moved[spent[moved] < max_iters]
        if moved.size:
            grad[moved], curvature = gradients(p[moved])
            stopped[moved] = _kkt_residual(p[moved], grad[moved]) <= _KKT_TOL
            newton[moved] = _newton_points(p[moved], grad[moved], curvature)
        live = np.flatnonzero(~stopped & (spent < max_iters))
        if not live.size:
            return p, val, stopped
        budget = max_iters - spent[live]
        # a row whose last round was accepted: its Newton point and doubled
        # steps; any other row: its next halvings
        fresh = stall[live] == 0
        use_newton = fresh & np.isfinite(newton[live]).all(axis=1)
        halvings = np.minimum(stall[live], _STALL_LIMIT - stall[live])
        size = np.minimum(np.where(fresh, _DOUBLINGS, halvings), budget - use_newton)
        # column 0 is the Newton trial and column j the j-th step; doubling
        # and halving are exact, so these are the sequential ascent's steps
        width = size.max()
        steps = np.zeros((len(live), width + 1))
        steps[:, 1:] = step[live, None] * np.where(fresh, 2.0, 0.5)[:, None] ** np.arange(width)
        size = np.where(fresh, size, np.minimum(size, (steps[:, 1:] >= _STEP_FLOOR).sum(axis=1)))
        tried = np.zeros(steps.shape, dtype=bool)
        tried[:, 0] = use_newton
        tried[:, 1:] = np.arange(width) < size[:, None]
        r, c = np.nonzero(tried)
        owner = live[r]
        y = np.where((c == 0)[:, None], newton[owner], p[owner] + steps[r, c, None] * grad[owner])
        trial = _project_simplex(y)
        trial_val = objectives(trial)
        table = np.full(tried.shape, -np.inf)
        table[tried] = trial_val
        up = table > val[live, None] + 1e-15
        took = up.any(axis=1)
        # the best trial of a fresh row, the first accepted halving of another
        best = np.argmax(np.where(up, table, -np.inf), axis=1)
        col = np.where(fresh, best, np.argmax(up, axis=1))
        taken = np.where(fresh | ~took, tried.sum(axis=1), col)
        at = np.arange(len(live))
        halved = np.where(fresh, step[live], steps[at, size]) * 0.5
        chosen = np.where(col > 0, steps[at, col] * 0.5, step[live])
        step[live] = np.where(took, chosen, halved)
        stall[live] = np.where(took, 0, stall[live] + taken)
        spent[live] += taken
        pick = (np.cumsum(tried.ravel()).reshape(tried.shape) - 1)[at, col][took]
        moved = live[took]
        p[moved], val[moved] = trial[pick], trial_val[pick]
        stopped[live] = ~took & ((step[live] < _STEP_FLOOR) | (stall[live] >= _STALL_LIMIT))


def capacity_single_letter(
    w,
    v,
    rng: np.random.Generator | None = None,
    starts: int = 16,
    max_iters: int = 400,
) -> CapacityResult:
    """max_P chi(P;W) - chi(P;V), the single-letter secrecy objective.

    The objective is a difference of concave functions, so the search uses
    projected gradient ascent with a Newton trial (:func:`_ascend`) from a
    uniform start, ``starts`` random starts and, for alphabets up to size
    3, the best point of a simplex grid.  The gradient is the analytic
    Holevo gradient ``D(W_x || PW) - D(V_x || PV)``; it differs from the
    gradient on the normalized extension by a multiple of the all-ones
    vector, which the simplex projection removes.  Its curvature
    ``H_W - H_V`` (:func:`_chi_hessian` for each channel) comes from the
    same ``eigh`` of the averages.

    All starts ascend together as one ``(N, k)`` batch, each row with its
    own step length, stall count and budget of ``max_iters`` trials.  A row
    that moved (and each row at its start) tries, in one round, its Newton
    point on its support and the doubled steps t, 2t, 4t and 8t, and takes
    the best trial that raises its value; a rejected row tries batches of
    halved steps.  The Newton point solves the bordered system of the
    quadratic model on the face of the weights above 1e-12, with the
    weights off it held at 0, by one batched solve per round; a row has
    none where an average has an eigenvalue 0, where its gradient is not
    finite, where its support has fewer than 2 entries, or where the model
    has no maximum on the face (its curvature is not negative definite
    there), so a Newton trial never heads for a saddle of the model.  A row
    stops once the spread of its gradient, from the largest entry down to
    the smallest on its support (the weights above 1e-12), is at most
    ``_KKT_TOL``; the stall rule and step floor of :func:`_ascend` end the
    rows that never get there.  The spread ignores the multiple of the
    all-ones vector, is 0 exactly at a KKT point of the simplex and, where
    the objective is concave (V a degraded W), bounds the row's gap to the
    maximum up to the weights at or below the floor: the gap is at most
    the spread plus ``k * 1e-12 * (max g - min g)``.  A round is one
    ``eigvalsh`` per channel over every live row's trials, and at most one
    ``eigh`` per channel and one batched bordered solve (with one
    ``eigvalsh`` of its systems) over the rows that moved on the round
    before; a row keeps its gradient and Newton point while its
    trials are rejected.  Each row takes the same trials, and follows the
    same iterates, as an ascent of its own.  The result is the best start's
    value, ties to the lowest restart index, unless the grid row's ascent
    or the grid point itself is better (the ascent when it is at least the
    grid value).  The output states are validated once here, and the grid,
    evaluated in chunks before the ascent, draws no random numbers.  When
    ``w is v`` holds numerically the two chi evaluations cancel to exactly
    0.0 at every point.  A search whose result spent its ``max_iters``
    trials without stopping returns ``converged=False`` with a
    :class:`~cqwiretap.errors.ConvergenceWarning`.

    The grid point is the first exact maximum of the objective over the
    grid, found in two passes.  The screen takes every point's objective
    from :func:`_screened_chi`: closed-form spectra of averages whose
    entries come from one linear map of the points for a qubit channel,
    the exact :func:`_chi` for any other.  The exact pass evaluates, in
    grid order, only the points whose screened value is within
    ``2 * _GRID_ALLOWANCE`` of the screened maximum.  This is exact.  The
    screened entries differ from those of the exact mixture only in their
    order of summation, by a few unit roundoffs; the closed form and the
    eigensolver are each within a few unit roundoffs of the spectrum of a
    unit-trace 2 x 2 matrix; together they move -w log2 w by less than
    1e-13 bits, far below the allowance of 1e-9.  So a point that
    maximizes the exact objective is screened within the allowance of its
    exact value, and so within twice the allowance of the screened
    maximum.  :func:`_chi` gives a row the same bits alone as inside any
    batch, so every candidate's exact value, and the first maximum among
    them, are those of the exact pass over the whole grid.
    """
    rng = rng or _default_rng()
    if tuple(w.alphabet) != tuple(v.alphabet):
        raise DimensionMismatchError("channels must share one input alphabet")
    k = len(w.alphabet)
    (sw, ew), (sv, ev) = _validated_stack(w.states()), _validated_stack(v.states())

    def objectives(p):
        # one value per distribution on the last axis of p
        return _chi(p, sw, ew) - _chi(p, sv, ev)

    def gradients(p):
        # the finite gradient of each row and its curvature, nan where the
        # row takes no Newton trial
        (gw, hw), (gv, hv) = (
            _chi_gradient(p, s, e, curvature=True) for s, e in ((sw, ew), (sv, ev))
        )
        with np.errstate(invalid="ignore"):  # inf - inf where both leave the support
            g = gw - gv
        h = hw - hv
        h[~np.isfinite(g).all(axis=-1)] = np.nan
        return _finite_gradient(g), h

    candidates = [np.full(k, 1.0 / k)]
    candidates += [rng.dirichlet(np.ones(k)) for _ in range(starts)]
    restarts = len(candidates)
    if k <= 3:
        points = _simplex_grid(k)
        chunk = max(1, _GRID_ENTRIES // max(w.dim, v.dim) ** 2)
        screen_chunk = _QUBIT_SCREEN_POINTS if w.dim == v.dim == 2 else chunk
        screen = np.concatenate([
            _screened_chi(block, sw, ew) - _screened_chi(block, sv, ev)
            for block in (
                points[s : s + screen_chunk] for s in range(0, len(points), screen_chunk)
            )
        ])
        near = points[screen >= screen.max() - 2 * _GRID_ALLOWANCE]
        grid_best, grid_arg = -np.inf, None
        for start in range(0, len(near), chunk):
            block = near[start : start + chunk]
            vals = objectives(block)
            i = int(np.argmax(vals))
            if vals[i] > grid_best:
                grid_best, grid_arg = float(vals[i]), block[i]
        candidates.append(grid_arg)
    p, val, conv = _ascend(np.array(candidates), objectives, gradients, max_iters)
    i = int(np.argmax(val[:restarts]))
    best_p, best_val, best_conv = p[i], val[i], conv[i]
    if k <= 3 and max(val[-1], grid_best) > best_val:
        if val[-1] >= grid_best:
            best_p, best_val, best_conv = p[-1], val[-1], conv[-1]
        else:
            best_p, best_val, best_conv = grid_arg, grid_best, True
    if not best_conv:
        _warn_unconverged("capacity_single_letter", max_iters)
    return CapacityResult(float(best_val), best_p, bool(best_conv))


def capacity_lifted(
    w,
    v,
    n: int,
    rng: np.random.Generator | None = None,
    cap: int | None = None,
    starts: int = 16,
) -> CapacityResult:
    """Per-letter lower bound from the n-letter objective, n in {1, 2}.

    Materializes the n-fold product channels over X^n and optimizes the
    single-letter objective there with ``starts`` random starts, reporting
    value / n.  The product dimensions are checked against ``cap``.  Higher
    n is a computationally open problem and out of scope.
    """
    if n == 1:
        return capacity_single_letter(w, v, rng, starts)
    if n != 2:
        raise InvalidStateError("lifted capacity is provided for n in {1, 2} only")

    def materialize(ch):
        prod = ProductChannel(ch, n, cap)
        strings = list(prod.strings())
        return CqChannel(strings, prod.dim, {s: prod.output(s) for s in strings}, validate=False)

    res = capacity_single_letter(materialize(w), materialize(v), rng, starts)
    return CapacityResult(res.value / n, res.argmax, res.converged)


def complementary_pair(isometry, dim_q: int, dim_e: int, f: CqChannel):
    """Receiver/environment channel pair from a Stinespring isometry.

    ``isometry`` maps the input space into H_Q (x) H_E, shaped
    ``(dim_q * dim_e, dim_p)`` with U*U = identity within 1e-10.  Returns
    ``(W, V)`` with W(x) = tr_E(U F(x) U*) and V(x) = tr_Q(U F(x) U*).
    """
    u = np.asarray(isometry, dtype=complex)
    if u.ndim != 2 or u.shape[0] != dim_q * dim_e:
        raise InvalidStateError(f"isometry shape {u.shape} != ({dim_q * dim_e}, input dim)")
    dim_p = u.shape[1]
    dev = np.max(np.abs(u.conj().T @ u - np.eye(dim_p)))
    if dev > 1e-10:
        raise InvalidStateError(f"not an isometry: U*U deviates from identity by {dev:.3e}")
    if f.dim != dim_p:
        raise DimensionMismatchError(f"channel dim {f.dim} != isometry input dim {dim_p}")
    w_out, v_out = {}, {}
    for x in f.alphabet:
        lifted = u @ f.output(x) @ u.conj().T
        w_out[x] = op.partial_trace(lifted, dim_q, dim_e, keep=0)
        v_out[x] = op.partial_trace(lifted, dim_q, dim_e, keep=1)
    return (
        CqChannel(f.alphabet, dim_q, w_out),
        CqChannel(f.alphabet, dim_e, v_out),
    )
