"""Finite-dimensional operator core.

Dense Hermitian operators as complex numpy arrays, with the handful of
spectral quantities everything else is built from: von Neumann entropy,
relative and Renyi relative entropies, trace and operator norms, ranks and
support comparisons.  All logarithms are base 2 and the convention
0 log 0 = 0 applies throughout.

Matrix functions go through full Hermitian eigendecompositions; at the desk
scales this package targets (dimension <= 4096) that is the simplest route
that stays exactly auditable.  :func:`entropies` and
:func:`relative_entropies` take ``(..., d, d)`` stacks, validated in one
vectorised pass and decomposed by one ``eigvalsh``/``eigh`` call;
:func:`entropy` and :func:`relative_entropy` are their one-matrix case.

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


def check_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (max absolute entry deviation).

    ``a`` is a matrix or a ``(..., d, d)`` stack of them.  Returns the
    symmetrized ``(a + a*)/2`` so downstream spectral calls operate on an
    exactly Hermitian input.
    """
    a = _as_stack(a)
    a_star = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - a_star)) if a.size else 0.0
    if dev > tol:
        raise InvalidStateError(f"matrix is not Hermitian: deviation {dev:.3e} > {tol:.1e}")
    return (a + a_star) / 2


def clip_spectrum(w: np.ndarray, floor: float = EIG_FLOOR) -> np.ndarray:
    """Clip eigenvalue noise in ``[floor, 0)`` to zero.

    Eigenvalues below ``floor`` indicate a genuinely invalid operator and
    raise instead of being clipped.
    """
    w = np.asarray(w, dtype=float)
    if w.size and w.min() < floor:
        raise InvalidStateError(
            f"operator is not positive semidefinite: min eigenvalue {w.min():.3e}"
        )
    return np.where(w < 0.0, 0.0, w)


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real


def _spectra(a: np.ndarray, density: bool = False, vectors: bool = False,
             tol_trace: float = TOL_TRACE):
    """Validate a ``(..., d, d)`` stack of PSD operators and decompose it once.

    One vectorised pass checks every matrix: Hermiticity to ``TOL_HERM``,
    unit trace to ``tol_trace`` when ``density`` is set, and the
    ``EIG_FLOOR`` eigenvalue floor on the spectrum of the single
    ``eigvalsh`` call (``eigh`` when ``vectors`` is set).  Returns the
    symmetrized stack and its clipped eigenvalues, plus the eigenvectors
    when ``vectors`` is set.
    """
    a = check_hermitian(a)
    if density:
        tr = _trace(a)
        dev = np.abs(tr - 1.0)
        if dev.size and dev.max() > tol_trace:
            worst = tr.flat[np.argmax(dev)]
            raise InvalidStateError(
                f"density operator trace {worst!r} is not 1 within {tol_trace:.1e}"
            )
    if vectors:
        w, u = np.linalg.eigh(a)
        return a, clip_spectrum(w), u
    return a, clip_spectrum(np.linalg.eigvalsh(a))


def check_density(rho: np.ndarray, tol_trace: float = TOL_TRACE) -> np.ndarray:
    """Validate a density operator (or a stack): Hermitian, PSD, unit trace.

    Returns the symmetrized matrix.
    """
    return _spectra(rho, density=True, tol_trace=tol_trace)[0]


def check_psd(a: np.ndarray) -> np.ndarray:
    """Validate a Hermitian PSD operator (any trace, or a stack). Returns symmetrized."""
    return _spectra(a)[0]


def check_measurement(d: np.ndarray) -> np.ndarray:
    """Validate a measurement operator: Hermitian with spectrum in [0, 1].

    Eigenvalues may stray into [-1e-10, 1+1e-10]; more is an error.
    """
    d = check_hermitian(d)
    w = np.linalg.eigvalsh(d)
    if w.size and (w.min() < EIG_FLOOR or w.max() > 1.0 - EIG_FLOOR):
        raise InvalidStateError(
            f"measurement operator spectrum [{w.min():.3e}, {w.max():.3e}] leaves [0, 1]"
        )
    return d


def check_sub_povm(elements, dim: int, tol: float = TOL_SUBPOVM) -> list:
    """Validate a sub-POVM: each element a measurement operator, sum <= identity.

    ``elements`` is any iterable of matrices (dict values are accepted).
    The deficit from the identity is the abort outcome, so the sum may fall
    short but must not exceed the identity by more than ``tol``.  Returns
    the symmetrized elements in input order.
    """
    if isinstance(elements, dict):
        elements = list(elements.values())
    cleaned = []
    total = np.zeros((dim, dim), dtype=complex)
    for d in elements:
        d = check_measurement(d)
        if d.shape[0] != dim:
            raise DimensionMismatchError(
                f"sub-POVM element dimension {d.shape[0]} != {dim}"
            )
        cleaned.append(d)
        total += d
    excess = np.linalg.eigvalsh(check_hermitian(total)).max() - 1.0 if dim else 0.0
    if excess > tol:
        raise InvalidStateError(f"sub-POVM exceeds the identity by {excess:.3e}")
    return cleaned


def _xlog2x(w: np.ndarray) -> np.ndarray:
    """``w log2 w`` elementwise on clipped eigenvalues, with 0 log 0 = 0."""
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a ``(..., d, d)`` stack of densities.

    The stack is validated in one pass and decomposed by one ``eigvalsh``
    call.  Returns an array of shape ``rho.shape[:-2]`` with entries in
    ``[0, log2 d]``.
    """
    _, w = _spectra(rho, density=True)
    neg = _xlog2x(w).sum(axis=-1)
    return np.where(neg < 0.0, -neg, 0.0)


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


def _support_mask(w: np.ndarray, rtol: float = SUPPORT_RTOL) -> np.ndarray:
    """Boolean mask of eigenvalues counted as support (relative threshold).

    Applies along the last axis, so a stack of spectra gets one mask each.
    """
    w = np.abs(np.asarray(w, dtype=float))
    if w.size == 0:
        return np.zeros(w.shape, dtype=bool)
    return w > rtol * w.max(axis=-1, keepdims=True)


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


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")


def relative_entropies(rho: np.ndarray, sigma: np.ndarray, rho_entropy=None) -> np.ndarray:
    """Quantum relative entropies ``D(rho || sigma)`` in bits over stacks.

    ``rho`` and ``sigma`` are ``(..., d, d)`` stacks whose leading axes
    broadcast; each is validated in one pass and decomposed by one call.
    Each entry is ``-S(rho) - sum_j <v_j|rho|v_j> log2 t_j`` over the
    support of ``sigma = sum_j t_j |v_j><v_j|``; it is ``inf`` when rho
    puts more than ``1e-10 tr rho`` outside that support, and 0 when
    ``tr rho <= 0``.  Both must be Hermitian PSD; traces need not be 1.

    ``rho_entropy``, when given, holds ``S(rho)`` for every rho in the
    stack (as from :func:`entropies`); rho must then be validated and
    symmetrized already, and is not decomposed again.
    """
    if rho_entropy is None:
        rho, p = _spectra(rho)
        rho_log_rho = _xlog2x(p).sum(axis=-1)
    else:
        rho = np.asarray(rho, dtype=complex)
        rho_log_rho = -np.asarray(rho_entropy, dtype=float)
    sigma, t, v = _spectra(sigma, vectors=True)
    _check_shapes(rho, sigma)
    q, mask, leaked = _overlaps(rho, t, v)
    cross = np.where(mask, q * np.log2(np.where(mask, t, 1.0)), 0.0).sum(axis=-1)
    val = np.where(leaked, np.inf, rho_log_rho - cross)
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


def renyi_relative_entropy(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Renyi relative entropy ``D_alpha`` in bits for alpha in (0,1) or (1,inf).

    ``(1/(alpha-1)) log2 tr(rho^alpha sigma^(1-alpha))`` with sigma's
    negative powers taken on its support (pseudo-inverse).  Returns ``inf``
    on support violation when alpha > 1, and when the supports are
    orthogonal for alpha < 1.  ``alpha = 1`` is rejected; use
    :func:`relative_entropy`.
    """
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    rho, p, u = _spectra(_as_square(rho), vectors=True)
    sigma, t, v = _spectra(_as_square(sigma), vectors=True)
    _check_shapes(rho, sigma)
    if _trace(rho) <= 0.0:
        return 0.0
    if alpha > 1.0 and _overlaps(rho, t, v)[2]:
        return np.inf
    pa = np.where(p > 0.0, p, 0.0) ** alpha
    mask = _support_mask(t)
    tb = np.zeros_like(t)
    tb[mask] = t[mask] ** (1.0 - alpha)
    a_mat = (u * pa) @ u.conj().T
    b_mat = (v * tb) @ v.conj().T
    val = np.trace(a_mat @ b_mat).real
    if val <= 1e-300:
        return np.inf if alpha < 1.0 else -np.inf
    return float(np.log2(val) / (alpha - 1.0))


def exp2_renyi2(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``tr(rho^2 sigma^+)``, the base-2 exponential of D_2 in bits.

    ``sigma^+`` is the pseudo-inverse on sigma's support.  Returns ``inf``
    when rho leaks outside that support.  Used directly by the leakage
    chain, where both arguments are subnormalized.
    """
    rho = check_psd(_as_square(rho))
    sigma, t, v = _spectra(_as_square(sigma), vectors=True)
    _check_shapes(rho, sigma)
    if _trace(rho) <= 0.0:
        return 0.0
    _, mask, leaked = _overlaps(rho, t, v)
    if leaked:
        return np.inf
    tinv = np.zeros_like(t)
    tinv[mask] = 1.0 / t[mask]
    pinv = (v * tinv) @ v.conj().T
    return float(np.trace(rho @ pinv @ rho).real)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    w = np.linalg.eigvalsh(check_hermitian(a))
    return float(np.abs(w).sum())


def operator_norm(a: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: largest absolute eigenvalue."""
    w = np.linalg.eigvalsh(check_hermitian(a))
    return float(np.abs(w).max()) if w.size else 0.0


def rank_eps(a: np.ndarray) -> int:
    """Support rank: eigenvalues above 1e-12 of the largest in magnitude."""
    w = np.linalg.eigvalsh(check_hermitian(a))
    return int(_support_mask(w).sum())


def support_leq(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether supp(a) is contained in supp(b), both Hermitian PSD."""
    a = check_psd(_as_square(a))
    b, t, v = _spectra(_as_square(b), vectors=True)
    _check_shapes(a, b)
    if _trace(a) <= 0.0:
        return True
    return not _overlaps(a, t, v)[2]


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
