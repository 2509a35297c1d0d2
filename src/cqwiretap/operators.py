"""Finite-dimensional operator core.

Dense Hermitian operators as complex numpy arrays, with the handful of
spectral quantities everything else is built from: von Neumann entropy,
relative entropy, the quadratic Renyi exponential tr(rho^2 sigma^+), trace
norms and ranks.  All logarithms are base 2 and the convention 0 log 0 = 0
applies throughout.

Matrix functions go through full Hermitian eigendecompositions; at the desk
scales this package targets (dimension <= 4096) that is the simplest route
that stays exactly auditable.  :func:`entropies`,
:func:`relative_entropies` and :func:`exp2_renyi2` take ``(..., d, d)``
stacks, validated in one vectorised pass and decomposed by one
``eigvalsh``/``eigh`` call; :func:`entropy` and :func:`relative_entropy`
are their one-matrix case.  Each of the three validates its operands and
then calls one private core: ``_entropy_core``, ``_relative_core`` or
``_renyi2_core``; the last two take sigma's ``eigh`` and build on
``_divergence_core`` (overlaps, support mask, leak flag, cross term).
The optimizers of :mod:`cqwiretap.channels` and the chain table of
:mod:`cqwiretap.bounds` validate their stacks once and call the cores.

Tolerances
----------
Hermiticity is checked to 1e-10 max entry deviation, density traces to
1e-10, and eigenvalues may undershoot zero by at most 1e-10 (they are
clipped before logs; anything more negative is an error, not noise).  An
eigenvalue belongs to the support when it exceeds 1e-12 times the largest
eigenvalue, a scale-relative cutoff that survives tensor powers.
"""

import numpy as np

from .config import (
    EIG_FLOOR,
    SUPPORT_RTOL,
    TOL_HERM,
    TOL_SUBPOVM,
    TOL_TRACE,
)
from .errors import DimensionMismatchError, InvalidStateError

_LOG2 = np.log(2.0)


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_stack(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidStateError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within ``TOL_HERM`` (max absolute entry deviation).

    ``a`` is a matrix or a ``(..., d, d)`` stack of them, with finite
    entries: nan and inf are rejected here, so no validator built on this
    one accepts them.  Returns the symmetrized ``(a + a*)/2`` so downstream
    spectral calls operate on an exactly Hermitian input.
    """
    a = _as_stack(a)
    if not np.isfinite(a).all():
        raise InvalidStateError("matrix has a non-finite entry")
    a_star = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - a_star)) if a.size else 0.0
    if dev > TOL_HERM:
        raise InvalidStateError(f"matrix is not Hermitian: deviation {dev:.3e} > {TOL_HERM:.1e}")
    return (a + a_star) / 2


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Clip eigenvalue noise in ``[EIG_FLOOR, 0)`` to zero.

    Eigenvalues below ``EIG_FLOOR`` indicate a genuinely invalid operator and
    raise instead of being clipped.
    """
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < EIG_FLOOR:
        raise InvalidStateError(
            f"operator is not positive semidefinite: min eigenvalue {w.min():.3e}"
        )
    return np.where(w < 0.0, 0.0, w)


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def _spectra(a: np.ndarray, density: bool = False, vectors: bool = False):
    """Validate a ``(..., d, d)`` stack of PSD operators and decompose it once.

    One vectorised pass checks every matrix: Hermiticity to ``TOL_HERM``,
    unit trace to ``TOL_TRACE`` when ``density`` is set, and the
    ``EIG_FLOOR`` eigenvalue floor on the spectrum of the single
    ``eigvalsh`` call (``eigh`` when ``vectors`` is set).  Returns the
    symmetrized stack and its clipped eigenvalues, plus the eigenvectors
    when ``vectors`` is set.
    """
    a = check_hermitian(a)
    if density:
        _check_unit_trace(a)
    if vectors:
        w, u = np.linalg.eigh(a)
        return a, clip_spectrum(w), u
    return a, clip_spectrum(np.linalg.eigvalsh(a))


def _check_unit_trace(a: np.ndarray) -> None:
    """Raise unless every matrix of the stack ``a`` has trace 1."""
    tr = _trace(a)
    dev = np.abs(tr - 1.0)
    if dev.size and dev.max() > TOL_TRACE:
        worst = tr.flat[np.argmax(dev)]
        raise InvalidStateError(
            f"density operator trace {worst!r} is not 1 within {TOL_TRACE:.1e}"
        )


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density operator (or a stack): Hermitian, PSD, unit trace.

    Returns the symmetrized matrix.
    """
    return _spectra(rho, density=True)[0]


def check_psd(a: np.ndarray) -> np.ndarray:
    """Validate a Hermitian PSD operator (any trace, or a stack). Returns symmetrized."""
    return _spectra(a)[0]


def check_measurement(d: np.ndarray) -> np.ndarray:
    """Validate a measurement operator: Hermitian with spectrum in [0, 1].

    ``d`` is a matrix or a ``(..., d, d)`` stack of them, checked by one
    :func:`check_hermitian` and one ``eigvalsh``; the message of a bad
    spectrum gives that of the first failing matrix.  Eigenvalues may stray
    into [-1e-10, 1+1e-10]; more is an error.  Returns the symmetrized input.
    """
    d = check_hermitian(d)
    w = np.linalg.eigvalsh(d)
    if w.size:
        lo, hi = w.min(axis=-1), w.max(axis=-1)
        bad = np.flatnonzero((lo < EIG_FLOOR) | (hi > 1.0 - EIG_FLOOR))
        if bad.size:
            i = bad[0]
            raise InvalidStateError(
                f"measurement operator spectrum [{lo.flat[i]:.3e}, {hi.flat[i]:.3e}] leaves [0, 1]"
            )
    return d


def check_sub_povm(elements, dim: int) -> list:
    """Validate a sub-POVM: each element a measurement operator, sum <= identity.

    ``elements`` is any iterable of matrices (dict values are accepted).
    The deficit from the identity is the abort outcome, so the sum may fall
    short but must not exceed the identity by more than ``TOL_SUBPOVM``.  The
    ``(k, d, d)`` stack of elements is checked by one
    :func:`check_measurement` (one ``check_hermitian`` and one ``eigvalsh``)
    and the sum by one more ``eigvalsh``.  Returns the symmetrized elements
    in input order.
    """
    if isinstance(elements, dict):
        elements = elements.values()
    elements = [_as_square(d) for d in elements]
    for d in elements:
        if d.shape[0] != dim:
            raise DimensionMismatchError(
                f"sub-POVM element dimension {d.shape[0]} != {dim}"
            )
    stack = check_measurement(np.array(elements).reshape(len(elements), dim, dim))
    # a sum of exactly Hermitian matrices is exactly Hermitian
    excess = np.linalg.eigvalsh(stack.sum(axis=0)).max() - 1.0 if dim else 0.0
    if excess > TOL_SUBPOVM:
        raise InvalidStateError(f"sub-POVM exceeds the identity by {excess:.3e}")
    return list(stack)


def _xlog2x(w: np.ndarray) -> np.ndarray:
    """``w log2 w`` elementwise on clipped eigenvalues, with 0 log 0 = 0."""
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def _entropy_core(w: np.ndarray) -> np.ndarray:
    """Entropies in bits of clipped spectra, one per row (last axis)."""
    neg = _xlog2x(w).sum(axis=-1)
    return np.where(neg < 0.0, -neg, 0.0)


def entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a ``(..., d, d)`` stack of densities.

    The stack is validated in one pass and decomposed by one ``eigvalsh``
    call.  Returns an array of shape ``rho.shape[:-2]`` with entries in
    ``[0, log2 d]``.
    """
    return _entropy_core(_spectra(rho, density=True)[1])


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, ``-tr(rho log2 rho)``.

    Parameters
    ----------
    rho : array
        A valid density operator (validated here).

    Returns
    -------
    float
        Entropy in ``[0, log2 dim]``.
    """
    return float(entropies(rho))


def _support_mask(w: np.ndarray) -> np.ndarray:
    """Boolean mask of eigenvalues counted as support (relative threshold).

    Applies along the last axis, so a stack of spectra gets one mask each.
    """
    w = np.abs(np.asarray(w, dtype=float))
    if w.size == 0:
        return np.zeros(w.shape, dtype=bool)
    return w > SUPPORT_RTOL * w.max(axis=-1, keepdims=True)


def _overlaps(rho: np.ndarray, w_sigma: np.ndarray, u_sigma: np.ndarray):
    """Diagonal of rho in sigma's eigenbasis, sigma's support mask, and
    whether rho puts more than ``1e-10 tr rho`` outside that support.

    Every argument may be a broadcastable stack; the results have one row
    (or one flag) per matrix.
    """
    q = np.sum(u_sigma.conj() * (rho @ u_sigma), axis=-2).real
    mask = _support_mask(w_sigma)
    outside = np.where(mask, 0.0, np.clip(q, 0.0, None)).sum(axis=-1)
    return q, mask, outside > 1e-10 * _trace(rho)


def _divergence_core(rho: np.ndarray, w_sigma: np.ndarray, u_sigma: np.ndarray):
    """The terms of ``D(rho || sigma)`` from sigma's ``eigh``, unchecked.

    Returns the overlaps, sigma's support mask and the leak flag of
    :func:`_overlaps`, and the cross term ``sum_j q_j log2 t_j`` over the
    support of ``sigma = sum_j t_j |v_j><v_j|``, one per matrix of the
    broadcast stacks.  ``w_sigma`` must be clipped already.
    """
    q, mask, leaked = _overlaps(rho, w_sigma, u_sigma)
    cross = np.where(mask, q * np.log2(np.where(mask, w_sigma, 1.0)), 0.0).sum(axis=-1)
    return q, mask, leaked, cross


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")


def relative_entropies(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Quantum relative entropies ``D(rho || sigma)`` in bits over stacks.

    ``rho`` and ``sigma`` are ``(..., d, d)`` stacks whose leading axes
    broadcast; each is validated in one pass and decomposed by one call.
    Each entry is ``-S(rho) - sum_j <v_j|rho|v_j> log2 t_j`` over the
    support of ``sigma = sum_j t_j |v_j><v_j|``; it is ``inf`` when rho
    puts more than ``1e-10 tr rho`` outside that support, and 0 when
    ``tr rho <= 0``.  Both must be Hermitian PSD; traces need not be 1.
    """
    rho, p = _spectra(rho)
    sigma, t, v = _spectra(sigma, vectors=True)
    _check_shapes(rho, sigma)
    return _relative_core(rho, p, t, v)


def _relative_core(rho, w_rho, w_sigma, u_sigma) -> np.ndarray:
    """:func:`relative_entropies` on validated stacks, unchecked: ``rho``
    symmetrized with clipped spectra ``w_rho``, and sigma's clipped ``eigh``."""
    leaked, cross = _divergence_core(rho, w_sigma, u_sigma)[2:]
    val = np.where(leaked, np.inf, _xlog2x(w_rho).sum(axis=-1) - cross)
    return np.where(_trace(rho) <= 0.0, 0.0, val)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy ``D(rho || sigma)`` in bits.

    ``tr rho (log2 rho - log2 sigma)`` evaluated on the supports; returns
    ``inf`` when the support of ``rho`` is not contained in the support of
    ``sigma``.  Both arguments must be Hermitian PSD; traces need not be 1
    (subnormalized arguments appear throughout the leakage chain and the
    formula is evaluated as written).  The one-matrix case of
    :func:`relative_entropies`.
    """
    return float(relative_entropies(rho, sigma))


def exp2_renyi2(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``tr(rho^2 sigma^+)``, the base-2 exponential of D_2 in bits, over stacks.

    ``rho`` and ``sigma`` are ``(..., d, d)`` stacks whose leading axes
    broadcast, as in :func:`relative_entropies`; a single pair is the 0-d
    case.  ``sigma^+`` is the pseudo-inverse on sigma's support.  An entry
    is ``inf`` when rho leaks outside that support and 0 when
    ``tr rho <= 0``.  Used directly by the leakage chain, where both
    arguments are subnormalized.
    """
    rho = check_psd(rho)
    sigma, t, v = _spectra(sigma, vectors=True)
    _check_shapes(rho, sigma)
    return _renyi2_core(rho, t, v)


def _renyi2_core(rho, w_sigma, u_sigma) -> np.ndarray:
    """:func:`exp2_renyi2` on a validated, symmetrized ``rho`` and sigma's
    clipped ``eigh``, unchecked."""
    _, mask, leaked = _overlaps(rho, w_sigma, u_sigma)
    tinv = np.where(mask, 1.0 / np.where(mask, w_sigma, 1.0), 0.0)
    pinv = (u_sigma * tinv[..., None, :]) @ u_sigma.conj().swapaxes(-1, -2)
    val = np.where(leaked, np.inf, _trace(rho @ pinv @ rho))
    return np.where(_trace(rho) <= 0.0, 0.0, val)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    w = np.linalg.eigvalsh(check_hermitian(a))
    return float(np.abs(w).sum())


def rank_eps(a: np.ndarray) -> int:
    """Support rank: eigenvalues above 1e-12 of the largest in magnitude."""
    w = np.linalg.eigvalsh(check_hermitian(a))
    return int(_support_mask(w).sum())


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) in bits with h(0) = h(1) = 0."""
    p = float(p)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def partial_trace(rho: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    """Partial trace of a bipartite operator on C^d1 (x) C^d2.

    ``keep=0`` traces out the second factor, ``keep=1`` the first.
    """
    rho = _as_square(rho)
    if rho.shape[0] != d1 * d2:
        raise DimensionMismatchError(f"operator dim {rho.shape[0]} != {d1}*{d2}")
    r = rho.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 0 or 1")
