"""Classical-quantum channels and their information quantities.

A cq channel maps a finite input alphabet to density operators on a fixed
finite-dimensional space.  This module provides composition with classical
pre-processing, lazy tensor powers, uniform mixtures, the Holevo quantity
in its three equivalent forms, leakage under common randomness, and the
two optimizers the secrecy analysis needs: the adversarial (worst message
distribution) leakage and the single-letter secrecy-capacity objective.

Optimizer determinism: every randomized search draws from a caller-supplied
``numpy.random.Generator``; the default is a Philox generator with a fixed
seed, so repeated calls reproduce each other exactly.  Restart reduction is
by best value with ties to the lowest restart index.
"""

import itertools
from collections import namedtuple
from functools import reduce

import numpy as np

from . import operators as op
from .config import TOL_ROWSUM, check_dim
from .errors import DimensionMismatchError, InvalidStateError


class CqChannel:
    """A classical-quantum channel with explicitly stored outputs.

    Parameters
    ----------
    alphabet : ordered iterable of hashable symbols
    dim : output dimension
    outputs : mapping symbol -> density matrix (validated)
    """

    __slots__ = ("alphabet", "dim", "_outputs")

    def __init__(self, alphabet, dim, outputs, validate: bool = True):
        self.alphabet = tuple(alphabet)
        self.dim = int(dim)
        if set(outputs) != set(self.alphabet) or len(self.alphabet) != len(set(self.alphabet)):
            raise InvalidStateError("outputs must cover the alphabet exactly")
        table = {}
        for x in self.alphabet:
            rho = np.asarray(outputs[x], dtype=complex)
            if rho.shape != (self.dim, self.dim):
                raise InvalidStateError(
                    f"output for {x!r} has shape {rho.shape}, expected ({self.dim}, {self.dim})"
                )
            table[x] = op.check_density(rho) if validate else rho
        self._outputs = table

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


AdversarialLeakage = namedtuple("AdversarialLeakage", ["value", "argmax", "converged"])
CapacityResult = namedtuple("CapacityResult", ["value", "argmax", "converged"])


def _default_rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(0))


def adversarial_leakage(
    encoders,
    v_n,
    rng: np.random.Generator | None = None,
    restarts: int = 8,
    max_iters: int = 2000,
    patience: int = 50,
    gain_tol: float = 1e-10,
) -> AdversarialLeakage:
    """Worst-case leakage over message distributions.

    chi(M; S, E^S V) is concave in the message distribution, so a
    multiplicative-weights ascent from a few random interior starts finds
    the maximum; steps that decrease the objective halve the step size.
    Convergence is declared when the gain over the last ``patience``
    iterations falls below ``gain_tol``; otherwise the best value is
    returned with ``converged=False``.
    """
    rng = rng or _default_rng()
    seeds = sorted(encoders)
    msgs = encoders[seeds[0]].inputs
    k = len(msgs)
    if k == 1:
        return AdversarialLeakage(0.0, np.array([1.0]), True)
    # per-seed message states and their entropies, computed once
    per_seed = [compose(encoders[s], v_n).states() for s in seeds]
    ent = np.array([[op.entropy(sig) for sig in states] for states in per_seed])

    def objective(p):
        val = 0.0
        for s_i, states in enumerate(per_seed):
            avg = sum(prob * sig for prob, sig in zip(p, states) if prob > 0.0)
            val += op.entropy(avg) - float(np.dot(p, ent[s_i]))
        return val / len(seeds)

    def gradient(p):
        # g_m = (1/|S|) sum_s D(U_s(m) || sum_m' p U_s(m')), in bits
        g = np.zeros(k)
        for states in per_seed:
            avg = sum(prob * sig for prob, sig in zip(p, states) if prob > 0.0)
            for m_i, sig in enumerate(states):
                g[m_i] += op.relative_entropy(sig, avg)
        return g / len(seeds)

    best_val, best_p, best_conv = -np.inf, None, False
    for _ in range(restarts):
        p = rng.dirichlet(np.ones(k))
        p = np.clip(p, 1e-12, None)
        p /= p.sum()
        val = objective(p)
        step = 1.0
        history = [val]
        converged = False
        for _ in range(max_iters):
            g = gradient(p)
            finite = g[np.isfinite(g)]
            top = finite.max() if finite.size else 0.0
            g = np.where(np.isfinite(g), g, top + 100.0)
            trial = p * np.exp2(np.clip(step * (g - g.max()), -700, 0))
            total = trial.sum()
            if total <= 0.0:
                break
            trial /= total
            trial_val = objective(trial)
            if trial_val < val - 1e-15:
                step *= 0.5
                if step < 1e-14:
                    converged = True
                    break
                continue
            p, val = trial, trial_val
            history.append(val)
            if len(history) > patience and val - history[-patience - 1] < gain_tol:
                converged = True
                break
        if val > best_val:
            best_val, best_p, best_conv = val, p, converged
    return AdversarialLeakage(float(best_val), best_p, best_conv)


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(y) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.clip(y - theta, 0.0, None)


def capacity_single_letter(
    w,
    v,
    rng: np.random.Generator | None = None,
    starts: int = 16,
    max_iters: int = 400,
    grad_h: float = 1e-6,
) -> CapacityResult:
    """max_P chi(P;W) - chi(P;V), the single-letter secrecy objective.

    The objective is a difference of concave functions, so the search uses
    projected gradient ascent (central-difference gradients on the
    normalized extension) from a uniform start plus ``starts`` random
    starts, followed by a simplex grid polish for alphabets up to size 3.
    When ``w is v`` holds numerically the two chi evaluations cancel to
    exactly 0.0 at every point.
    """
    rng = rng or _default_rng()
    if tuple(w.alphabet) != tuple(v.alphabet):
        raise DimensionMismatchError("channels must share one input alphabet")
    k = len(w.alphabet)
    ent_w = np.array([op.entropy(s) for s in w.states()])
    ent_v = np.array([op.entropy(s) for s in v.states()])

    def objective(p):
        chi_w = op.entropy(_average_state(p, w)) - float(np.dot(p, ent_w))
        chi_v = op.entropy(_average_state(p, v)) - float(np.dot(p, ent_v))
        return chi_w - chi_v

    def extended(q):
        total = q.sum()
        if total <= 0.0:
            return objective(np.full(k, 1.0 / k))
        return objective(q / total)

    def gradient(p):
        g = np.zeros(k)
        for i in range(k):
            e = np.zeros(k)
            e[i] = grad_h
            g[i] = (extended(p + e) - extended(np.clip(p - e, 0.0, None))) / (2 * grad_h)
        return g

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
        resolution = 10000 if k == 2 else 140
        grid_best, grid_arg = -np.inf, None
        if k == 2:
            for a in range(resolution + 1):
                p = np.array([a, resolution - a]) / resolution
                val = objective(p)
                if val > grid_best:
                    grid_best, grid_arg = val, p
        elif k == 3:
            for a in range(resolution + 1):
                for b in range(resolution + 1 - a):
                    p = np.array([a, b, resolution - a - b]) / resolution
                    val = objective(p)
                    if val > grid_best:
                        grid_best, grid_arg = val, p
        else:
            grid_best, grid_arg = objective(np.array([1.0])), np.array([1.0])
        p, val, conv = ascend(grid_arg)
        if max(val, grid_best) > best_val:
            if val >= grid_best:
                best_p, best_val, best_conv = p, val, conv
            else:
                best_p, best_val, best_conv = grid_arg, grid_best, True
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
