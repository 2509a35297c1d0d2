"""Classical-quantum channels and their information quantities.

A cq channel maps a finite input alphabet to density operators on a fixed
finite-dimensional space, or to subnormalized ones whose worst trace
deficit it carries as ``epsilon``.  This module provides composition with
classical pre-processing, lazy tensor powers, uniform mixtures, the Holevo
quantity in its three equivalent forms, leakage under common randomness,
and the two optimizers the secrecy analysis needs: the adversarial (worst
message distribution) leakage and the single-letter secrecy-capacity
objective.

Both optimizers stack their output states as one ``(..., k, d, d)`` array,
validate it once on entry, and evaluate objectives and analytic gradients
with one eigensolve of the average states per call (see
:func:`cqwiretap.operators.entropies` and
:func:`cqwiretap.operators.relative_entropies`).

The adversarial search is concave and deterministic: it starts at the
uniform distribution.  The capacity search draws its random starts from a
caller-supplied ``numpy.random.Generator`` (by default Philox with a fixed
seed), so repeated calls reproduce each other exactly; restart reduction
is by best value with ties to the lowest restart index.
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

    Each output is a Hermitian PSD operator of trace at most 1, validated
    one at a time unless ``validate`` is off.  ``epsilon`` is the measured
    worst trace deficit ``max(0, max_x 1 - tr V(x))``: 0 for a channel of
    density outputs, positive for a subnormalized one such as the
    dominated V' <= V of the leakage chain.  Unit trace is checked where a
    channel enters from a file and where entropies are taken.

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
        table = {}
        deficit = 0.0
        for x in self.alphabet:
            rho = np.asarray(outputs[x], dtype=complex)
            if rho.shape != (self.dim, self.dim):
                raise InvalidStateError(
                    f"output for {x!r} has shape {rho.shape}, expected ({self.dim}, {self.dim})"
                )
            if validate:
                rho = _checked_output(x, rho)[0]
            deficit = max(deficit, 1.0 - float(np.real(np.trace(rho))))
            table[x] = rho
        self.epsilon = max(0.0, deficit)
        self._outputs = table

    def scaled(self, factor: float) -> "CqChannel":
        """Uniform damping V'(x) = factor * V(x) for 0 < factor <= 1."""
        if not 0.0 < factor <= 1.0:
            raise InvalidStateError(f"factor must be in (0, 1], got {factor}")
        return CqChannel(self.alphabet, self.dim, {x: factor * self.output(x) for x in self.alphabet})

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


def _checked_output(x, rho):
    """Validate the output for symbol ``x``: Hermitian PSD of trace <= 1.

    One eigensolve.  Returns the symmetrized output and its clipped
    ascending spectrum.
    """
    rho, w = op._spectra(rho)
    t = float(np.real(np.trace(rho)))
    if t > 1.0 + TOL_TRACE:
        raise InvalidStateError(f"output for {x!r} has trace {t} > 1")
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


def mix(v, subset) -> np.ndarray:
    """Uniform mixture (1/|D|) sum_{x in D} V(x) over a nonempty subset."""
    subset = list(subset)
    if not subset:
        raise InvalidStateError("mixture over an empty subset")
    out = np.zeros((v.dim, v.dim), dtype=complex)
    for x in subset:
        out += v.output(x)
    return out / len(subset)


def _average_state(p: np.ndarray, v) -> np.ndarray:
    out = np.zeros((v.dim, v.dim), dtype=complex)
    for prob, x in zip(p, v.alphabet):
        if prob > 0.0:
            out += prob * v.output(x)
    return out


def holevo(p, v) -> float:
    """Holevo quantity chi(P; V) = S(PV) - sum_x P(x) S(V(x)), in bits."""
    p = np.asarray(p, dtype=float)
    avg = _average_state(p, v)
    val = op.entropy(avg)
    cond = 0.0
    for prob, x in zip(p, v.alphabet):
        if prob > 0.0:
            cond += prob * op.entropy(v.output(x))
    return float(max(0.0, val - cond))


def holevo_relative_entropy_form(p, v) -> float:
    """chi as D(rho_XV || rho_X (x) PV) on the explicit joint state."""
    p = np.asarray(p, dtype=float)
    k, d = len(v.alphabet), v.dim
    joint = np.zeros((k * d, k * d), dtype=complex)
    for i, (prob, x) in enumerate(zip(p, v.alphabet)):
        joint[i * d : (i + 1) * d, i * d : (i + 1) * d] = prob * v.output(x)
    marginal = np.kron(np.diag(p).astype(complex), _average_state(p, v))
    return op.relative_entropy(joint, marginal)


def holevo_average_form(p, v) -> float:
    """chi as the P-average of D(V(x) || PV)."""
    p = np.asarray(p, dtype=float)
    avg = _average_state(p, v)
    total = 0.0
    for prob, x in zip(p, v.alphabet):
        if prob > 0.0:
            total += prob * op.relative_entropy(v.output(x), avg)
    return float(total)


def conditional_entropy(p, v) -> float:
    """S(V|P) = sum_x P(x) S(V(x)), in bits."""
    p = np.asarray(p, dtype=float)
    return float(
        sum(prob * op.entropy(v.output(x)) for prob, x in zip(p, v.alphabet) if prob > 0.0)
    )


def leakage_cr(m_dist, encoders, v_n) -> float:
    """Leakage under common randomness: (1/|S|) sum_s chi(M; E^s V).

    ``encoders`` maps seeds to :class:`ClassicalChannel` instances sharing
    one message set; the seed is uniform and independent of the message.
    """
    seeds = sorted(encoders)
    if not seeds:
        raise InvalidStateError("need at least one seed")
    msgs = encoders[seeds[0]].inputs
    total = 0.0
    for s in seeds:
        if encoders[s].inputs != msgs:
            raise InvalidStateError("encoders must share one message set")
        total += holevo(m_dist, compose(encoders[s], v_n))
    return float(total / len(seeds))


AdversarialLeakage = namedtuple("AdversarialLeakage", ["value", "upper", "argmax", "converged"])
CapacityResult = namedtuple("CapacityResult", ["value", "argmax", "converged"])


def _default_rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(0))


def _mixtures(p: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Mixtures ``sum_x p[..., x] states[..., x, :, :]`` for stacked states.

    The reduction over the alphabet axis adds the terms in alphabet order,
    so a distribution gets the same bits alone as inside a batch.
    """
    return (p[..., None, None] * states).sum(axis=-3)


def _validated_stack(states):
    """Stack output states, validate them once, and return them
    (symmetrized) with their entropies."""
    states = op.check_density(np.array(states))
    return states, op.entropies(states)


def _chi(p: np.ndarray, states: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """Holevo quantities ``S(PU) - sum_x p_x S(U_x)`` of stacked states.

    ``states`` is ``(..., k, d, d)`` with entropies ``ent`` of shape
    ``(..., k)``; ``p`` is one distribution ``(k,)`` or a batch ``(N, k)``.
    One ``eigvalsh`` call covers every average.
    """
    return op.entropies(_mixtures(p, states)) - (ent * p).sum(axis=-1)


def _chi_gradient(p: np.ndarray, states: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """``D(U_x || PU)`` for every state: the gradient of chi in p up to a
    constant, from one ``eigh`` call over the averages."""
    avg = _mixtures(p, states)[..., None, :, :]
    return op.relative_entropies(states, avg, rho_entropy=ent)


def _finite_gradient(g: np.ndarray) -> np.ndarray:
    """Replace non-finite gradient entries so a step never sees inf or nan.

    ``+inf`` and nan go 100 above the largest finite entry, so that mass
    moves towards them; ``-inf`` goes 100 below the smallest, so that mass
    moves away.
    """
    ok = np.isfinite(g)
    if ok.all():
        return g
    finite = g[ok]
    top = finite.max() if finite.size else 0.0
    bottom = finite.min() if finite.size else 0.0
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


def adversarial_leakage(encoders, v_n, max_iters: int = 2000) -> AdversarialLeakage:
    """Worst-case leakage over message distributions, bounded from both sides.

    The objective (1/|S|) sum_s chi(P; U_s) is concave in P.  Its gradient
    ``g_m = (1/|S|) sum_s D(U_s(m) || U_s P)`` gives ``<P, g> = chi(P)`` and
    ``chi(Q) <= <Q, g>`` for every Q: each step bounds the maximum below by
    ``<P, g>`` and above by ``max_m g_m`` (Blahut 1972, Arimoto 1972;
    Ramakrishnan et al., arXiv:1905.01286).  The cq Blahut-Arimoto step
    P <- P 2^(lam (g - max g)) starts at the uniform P; ``lam`` grows by 1.5
    per accepted step and falls back to the monotone step 1 when a trial
    lowers the value or certifies nothing (a non-finite g or a zero weight).
    ``value`` is the best lower side, reached at ``argmax``, and ``upper``
    the least upper side, always from the raw gradient.  The search stops
    when ``upper - value <= 1e-9``, or warns with a
    :class:`~cqwiretap.errors.ConvergenceWarning` and ``converged=False``.
    It draws no random numbers.  The ``(S, k, d, d)`` state stack is
    validated once; each step is one ``eigh`` of the ``(S, 1, d, d)`` averages.
    """
    seeds = sorted(encoders)
    k = len(encoders[seeds[0]].inputs)
    if k == 1:
        return AdversarialLeakage(0.0, 0.0, np.array([1.0]), True)
    states, ent = _validated_stack([compose(encoders[s], v_n).states() for s in seeds])

    def sides(p):
        # the gradient, <p, g> (-inf unless certified) and max_m g_m, in bits
        g = _chi_gradient(p, states, ent).sum(axis=0) / len(seeds)
        certified = np.isfinite(g).all() and (p > 0.0).all()
        return g, float(p @ g) if certified else -np.inf, float(g.max())

    p = np.full(k, 1.0 / k)
    g, val, upper = sides(p)
    best_val, best_p = val, p
    lam = 1.0
    for _ in range(max_iters):
        if upper - best_val <= _GAP_TOL:
            break
        step = _finite_gradient(g)
        trial = p * np.exp2(lam * (step - step.max()))
        trial /= trial.sum()
        trial_g, trial_val, trial_upper = sides(trial)
        upper = min(upper, trial_upper)
        if trial_val > -np.inf and (trial_val >= val or lam == 1.0):
            p, g, val = trial, trial_g, trial_val
            lam *= 1.5
            if val > best_val:
                best_val, best_p = val, p
        elif lam > 1.0:
            lam = 1.0
        else:
            break
    converged = upper - best_val <= _GAP_TOL
    if not converged:
        _warn_unconverged("adversarial_leakage", max_iters)
    return AdversarialLeakage(best_val, upper, best_p, converged)


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(y) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
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


# matrix entries per grid chunk: 512 points of qubit states per eigensolve
_GRID_ENTRIES = 2048


def capacity_single_letter(
    w,
    v,
    rng: np.random.Generator | None = None,
    starts: int = 16,
    max_iters: int = 400,
) -> CapacityResult:
    """max_P chi(P;W) - chi(P;V), the single-letter secrecy objective.

    The objective is a difference of concave functions, so the search uses
    projected gradient ascent from a uniform start plus ``starts`` random
    starts, followed by a simplex grid polish for alphabets up to size 3.
    The gradient is the analytic Holevo gradient
    ``D(W_x || PW) - D(V_x || PV)``; it differs from the gradient on the
    normalized extension by a multiple of the all-ones vector, which the
    simplex projection removes.  The output states are validated once
    here; each evaluation is one eigensolve per channel, and the grid is
    evaluated in chunks.  When ``w is v`` holds numerically the two chi
    evaluations cancel to exactly 0.0 at every point.  A search that
    stops on ``max_iters`` returns ``converged=False`` with a
    :class:`~cqwiretap.errors.ConvergenceWarning`.
    """
    rng = rng or _default_rng()
    if tuple(w.alphabet) != tuple(v.alphabet):
        raise DimensionMismatchError("channels must share one input alphabet")
    k = len(w.alphabet)
    (sw, ew), (sv, ev) = _validated_stack(w.states()), _validated_stack(v.states())

    def objectives(p):
        # one value per distribution on the last axis of p
        return _chi(p, sw, ew) - _chi(p, sv, ev)

    def objective(p):
        return float(objectives(p))

    def gradient(p):
        with np.errstate(invalid="ignore"):  # inf - inf where both leave the support
            g = _chi_gradient(p, sw, ew) - _chi_gradient(p, sv, ev)
        return _finite_gradient(g)

    def ascend(p):
        val = objective(p)
        step = 0.25
        stall = 0
        for _ in range(max_iters):
            trial = _project_simplex(p + step * gradient(p))
            trial_val = objective(trial)
            if trial_val > val + 1e-15:
                p, val = trial, trial_val
                step *= 1.2
                stall = 0
            else:
                step *= 0.5
                stall += 1
                if step < 1e-13 or stall > 40:
                    return p, val, True
        return p, val, False

    candidates = [np.full(k, 1.0 / k)]
    candidates += [rng.dirichlet(np.ones(k)) for _ in range(starts)]
    best_p, best_val, best_conv = None, -np.inf, False
    for p0 in candidates:
        p, val, conv = ascend(p0)
        if val > best_val:
            best_p, best_val, best_conv = p, val, conv
    if k <= 3:
        points = _simplex_grid(k)
        chunk = max(1, _GRID_ENTRIES // max(w.dim, v.dim) ** 2)
        grid_best, grid_arg = -np.inf, None
        for start in range(0, len(points), chunk):
            block = points[start : start + chunk]
            vals = objectives(block)
            i = int(np.argmax(vals))
            if vals[i] > grid_best:
                grid_best, grid_arg = float(vals[i]), block[i]
        p, val, conv = ascend(grid_arg)
        if max(val, grid_best) > best_val:
            if val >= grid_best:
                best_p, best_val, best_conv = p, val, conv
            else:
                best_p, best_val, best_conv = grid_arg, grid_best, True
    if not best_conv:
        _warn_unconverged("capacity_single_letter", max_iters)
    return CapacityResult(float(best_val), best_p, best_conv)


def capacity_lifted(w, v, n: int, rng: np.random.Generator | None = None) -> CapacityResult:
    """Per-letter lower bound from the n-letter objective, n in {1, 2}.

    Materializes the n-fold product channels over X^n and optimizes the
    single-letter objective there, reporting value / n.  Higher n is a
    computationally open problem and out of scope.
    """
    if n == 1:
        return capacity_single_letter(w, v, rng)
    if n != 2:
        raise InvalidStateError("lifted capacity is provided for n in {1, 2} only")

    def materialize(ch):
        prod = ProductChannel(ch, n)
        strings = list(prod.strings())
        return CqChannel(strings, prod.dim, {s: prod.output(s) for s in strings}, validate=False)

    res = capacity_single_letter(materialize(w), materialize(v), rng)
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
