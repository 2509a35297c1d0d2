"""Typical subspaces for product states and per-string channel outputs.

A string is typical for a distribution when every letter frequency sits
within ``delta / |alphabet|`` of its probability and letters of zero
probability never occur.  Lifting this to operators, the typical projector
of a state keeps the eigenvector products indexed by typical strings of its
spectrum; the conditional projector of a channel at an input string applies
the same filter per symbol group.  Both are assembled in a deterministic
eigenbasis (descending eigenvalues, near-ties ordered by phase-fixed
eigenvector entries) so repeated runs produce identical matrices.

``check_typical_projector`` reports the trace, rank, and eigenvalue windows
of the projected operators.  The eigenvalue sandwiches and the rank upper
bounds are sharp at every block length once the window constants
``gamma = delta * max |log2 q|`` are instantiated from the spectrum (for
conditional checks the constant ranges over all output spectra, and the
stated window additionally requires the output entropies to agree or the
string to have exact type).  The rank lower bounds and the trace bounds
tighten only as the block length grows, so they are reported, not promised.

``subnormalized_channel`` compresses each product output between its own
conditional projector and the typical projector of the average state.  The
result is dominated by the product channel whenever the two projector
families are compatible; this is measured on every output and a violation
raises rather than returning a channel that would poison later bounds.
``reindexed_pair`` gives the (V, V') pair the leakage chain takes in
typicality mode, and ``factor_reports`` the spectral factor bounds of the
compressed channel.

The compression streams over the typical strings.  The symbol eigenbases
and the average-state projector are taken once per call; per string, the
product output is built by one Kronecker chain, compressed, and decomposed
twice at dimension d^n: once to validate the result (that spectrum also
gives the factor-norm) and once for the ordering V' <= V.  Then it is
dropped, so no stack of |T| product outputs is ever held.  The product
columns of every projector are built together, one broadcast step per
letter position.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .bounds import _ordering_scan, make_report
from .channels import (
    CqChannel,
    _average_state,
    _checked_output,
    conditional_entropy,
    holevo,
    mix,
    tensor_power,
)
from .config import STRING_CAP, TOL_ROWSUM, check_dim
from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    ResourceCapError,
)

__all__ = [
    "TypicalSet",
    "TypicalProjector",
    "ConditionalTypicalProjector",
    "sorted_eigenbasis",
    "typical_set",
    "typical_projector",
    "cond_typical_projector",
    "check_typical_projector",
    "subnormalized_channel",
    "reindexed_pair",
    "factor_reports",
]

# eigenvalues at or below this are treated as exact zeros for the
# absent-letter rule; well above eigh noise, well below any real weight
SPECTRUM_FLOOR = 1e-12
# eigenvalues closer than this are ordered by eigenvector entries
TIE_TOL = 1e-10
# slop added to the frequency window so exact boundary cases are kept
MEMBER_GUARD = 1e-12


def sorted_eigenbasis(a: np.ndarray):
    """Hermitian eigendecomposition with a reproducible column order.

    Eigenvalues come out descending.  Each eigenvector is rescaled so its
    leading nonzero component is real and positive, and columns whose
    eigenvalues agree within ``TIE_TOL`` are ordered lexicographically by
    their entries.  Within a degenerate block the subspace basis is the one
    LAPACK returned, so determinism is per platform, which is all that
    byte-identical reruns need.
    """
    h = op.check_hermitian(np.asarray(a, dtype=complex))
    vals, vecs = np.linalg.eigh(h)
    vals = vals[::-1].copy()
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    for c in range(vecs.shape[1]):
        nz = np.flatnonzero(np.abs(vecs[:, c]) > SPECTRUM_FLOOR)
        if nz.size:
            lead = vecs[nz[0], c]
            vecs[:, c] *= np.conj(lead) / abs(lead)
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[start] - vals[stop] <= TIE_TOL:
            stop += 1
        if stop - start > 1:
            order = sorted(
                range(start, stop),
                key=lambda c: tuple(
                    (round(x.real, 12), round(x.imag, 12)) for x in vecs[:, c]
                ),
            )
            vecs[:, start:stop] = vecs[:, order]
            vals[start:stop] = vals[order]
        start = stop
    return vals, vecs


def _validate_dist(p) -> np.ndarray:
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0 or np.any(p < 0.0) or abs(p.sum() - 1.0) > TOL_ROWSUM:
        raise InvalidStateError("need a probability vector summing to one")
    return p


def _validate_block(n, delta):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidStateError(f"block length must be a positive integer, got {n!r}")
    if not delta > 0.0:
        raise InvalidStateError(f"window width must be positive, got {delta!r}")
    return int(n), float(delta)


def _clean_spectrum(vals: np.ndarray) -> np.ndarray:
    q = np.clip(np.asarray(vals, dtype=float), 0.0, None)
    q[q <= SPECTRUM_FLOOR] = 0.0
    total = q.sum()
    if total <= 0.0:
        raise InvalidStateError("spectrum has no weight")
    return q / total


def _count_admissible(q, c, n, tol) -> bool:
    if q <= SPECTRUM_FLOOR:
        return c == 0
    return abs(c / n - q) <= tol


def _counts_admissible(counts, n, p, tol) -> bool:
    return all(_count_admissible(q, c, n, tol) for q, c in zip(p, counts))


def _windows(p: np.ndarray, n: int, delta: float):
    """Per letter, the (lowest, highest) admissible count; lowest > highest
    when none is.  The admissible counts are contiguous because ``c/n - q``
    is monotone in ``c``."""
    tol = delta / p.size + MEMBER_GUARD
    out = []
    for q in p:
        lo = max(0, math.floor(n * (q - tol)) - 1)
        hi = min(n, math.ceil(n * (q + tol)) + 1)
        ok = [c for c in range(lo, hi + 1) if _count_admissible(q, c, n, tol)]
        out.append((ok[0], ok[-1]) if ok else (1, 0))
    return out


def _compositions(total: int, windows):
    """Count vectors summing to ``total`` with every count in its letter's
    window, in lexicographic order.  A count is chosen only if the later
    letters can still make up the rest, so every step yields a vector."""
    m = len(windows)
    if any(lo > hi for lo, hi in windows):
        return
    rest_lo = list(itertools.accumulate(reversed([lo for lo, _ in windows]), initial=0))
    rest_hi = list(itertools.accumulate(reversed([hi for _, hi in windows]), initial=0))
    rest_lo.reverse()
    rest_hi.reverse()
    if not rest_lo[0] <= total <= rest_hi[0]:
        return
    counts = [0] * m

    def fill(k, left):
        for j in range(k, m):
            counts[j] = max(windows[j][0], left - rest_hi[j + 1])
            left -= counts[j]

    fill(0, total)
    while True:
        yield tuple(counts)
        left = counts[-1]
        for k in range(m - 2, -1, -1):
            left += counts[k]
            if counts[k] < min(windows[k][1], left - rest_lo[k + 1]):
                counts[k] += 1
                fill(k + 1, left - counts[k])
                break
        else:
            return


def _type_classes(p: np.ndarray, n: int, delta: float):
    """Admissible letter-count vectors with their type-class sizes."""
    for counts in _compositions(n, _windows(p, n, delta)):
        size, left = 1, n
        for c in counts:
            size *= math.comb(left, c)
            left -= c
        yield counts, size


def _profiles(p: np.ndarray, n: int, delta: float):
    """Admissible letter-count vectors with multiplicity and log2 weight."""
    return [
        (counts, size, sum(c * math.log2(q) for q, c in zip(p, counts) if c))
        for counts, size in _type_classes(p, n, delta)
    ]


def _class_total(p: np.ndarray, n: int, delta: float, limit: int) -> int:
    """Size |T| of the typical set, the summed sizes of its type classes.

    Counting stops at the first class that takes the sum above ``limit``,
    so the work is bounded by the limit; a result above it is a lower
    bound on |T|.
    """
    total = 0
    for _, size in _type_classes(p, n, delta):
        total += size
        if total > limit:
            break
    return total


def _type_class(counts):
    """Distinct arrangements of a letter-count vector, in lexicographic
    order (next-permutation steps from the sorted arrangement)."""
    s = [a for a, c in enumerate(counts) for _ in range(c)]
    out = [tuple(s)]
    while True:
        i = len(s) - 2
        while i >= 0 and s[i] >= s[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(s) - 1
        while s[j] <= s[i]:
            j -= 1
        s[i], s[j] = s[j], s[i]
        s[i + 1 :] = reversed(s[i + 1 :])
        out.append(tuple(s))


def _typical_strings(p: np.ndarray, n: int, delta: float) -> list:
    """Index strings of the typical set, big-endian lexicographic."""
    return sorted(
        s for counts, _ in _type_classes(p, n, delta) for s in _type_class(counts)
    )


def _entropy_and_window(q: np.ndarray, delta: float):
    live = q[q > 0.0]
    entropy = float(-(live * np.log2(live)).sum())
    window = delta * float(np.max(np.abs(np.log2(live))))
    return entropy, window


@dataclass(frozen=True, eq=False)
class TypicalSet:
    """Letter-frequency window around a distribution.

    ``members`` lists the admitted strings in alphabet order when the
    typical-set size |T| fits under ``cap`` and is None otherwise;
    ``contains`` works in both modes.
    """

    p: np.ndarray
    n: int
    delta: float
    alphabet: tuple
    members: tuple | None
    cap: int

    def __post_init__(self):
        object.__setattr__(
            self, "_position", {x: i for i, x in enumerate(self.alphabet)}
        )

    def contains(self, xn) -> bool:
        xn = tuple(xn)
        if len(xn) != self.n:
            raise DimensionMismatchError(
                f"string length {len(xn)} != block length {self.n}"
            )
        counts = [0] * len(self.alphabet)
        for x in xn:
            i = self._position.get(x)
            if i is None:
                raise DimensionMismatchError(f"symbol {x!r} not in alphabet")
            counts[i] += 1
        tol = self.delta / len(self.alphabet) + MEMBER_GUARD
        return _counts_admissible(counts, self.n, self.p, tol)

    def __contains__(self, xn) -> bool:
        return self.contains(xn)

    def _listed(self, what):
        if self.members is None:
            raise ResourceCapError(
                f"typical set exceeds the string cap; no member list to {what}",
                requested=_class_total(self.p, self.n, self.delta, self.cap),
                cap=self.cap,
            )
        return self.members

    def __len__(self) -> int:
        return len(self._listed("count"))

    def __iter__(self):
        return iter(self._listed("iterate"))


def typical_set(p, n, delta, alphabet=None, cap=None) -> TypicalSet:
    """Strings whose letter frequencies all sit within ``delta/|alphabet|``.

    Letters with zero probability must not occur at all.  The set is the
    union of the admissible type classes; its members are listed in
    alphabet order when its size |T| fits under the cap (``STRING_CAP`` by
    default), and otherwise the set is predicate-only.
    """
    p = _validate_dist(p)
    n, delta = _validate_block(n, delta)
    if alphabet is None:
        alphabet = tuple(range(p.size))
    else:
        alphabet = tuple(alphabet)
        if len(alphabet) != p.size:
            raise DimensionMismatchError(
                f"alphabet size {len(alphabet)} != distribution size {p.size}"
            )
        if len(set(alphabet)) != len(alphabet):
            raise InvalidStateError("alphabet has repeated symbols")
    limit = STRING_CAP if cap is None else int(cap)
    members = None
    if _class_total(p, n, delta, limit) <= limit:
        members = tuple(
            tuple(alphabet[i] for i in idx) for idx in _typical_strings(p, n, delta)
        )
    return TypicalSet(
        p=p, n=n, delta=delta, alphabet=alphabet, members=members, cap=limit
    )


def _column_stack(bases, strings):
    """One unit column per admitted string: the Kronecker product of its
    basis columns, ``bases[0][:, j0] (x) bases[1][:, j1] (x) ...``.

    All columns are built together in one broadcast step per position, in
    the order a per-string ``np.kron`` chain multiplies, so every entry is
    the same product bit for bit.
    """
    idx = np.array(strings, dtype=np.intp).reshape(len(strings), len(bases))
    cols = np.ones((1, len(strings)), dtype=complex)
    for pos, basis in enumerate(bases):
        step = cols[:, None, :] * basis[None, :, idx[:, pos]]
        cols = step.reshape(cols.shape[0] * basis.shape[0], len(strings))
    return cols


def _assemble(cols, dim_total):
    if cols.shape[1] == 0:
        return np.zeros((dim_total, dim_total), dtype=complex)
    proj = cols @ cols.conj().T
    return (proj + proj.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class TypicalProjector:
    """Projector onto eigenvector products indexed by spectrum-typical strings."""

    rho: np.ndarray
    n: int
    delta: float
    eigenvalues: np.ndarray
    basis: np.ndarray
    strings: tuple
    projector: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.strings)


def typical_projector(rho, n, delta, cap=None) -> TypicalProjector:
    """Typical projector of ``rho**(x) n`` in its deterministic eigenbasis."""
    rho = op.check_density(np.asarray(rho, dtype=complex))
    n, delta = _validate_block(n, delta)
    dim_total = check_dim(rho.shape[0] ** n, cap)
    vals, basis = sorted_eigenbasis(rho)
    q = _clean_spectrum(vals)
    strings = typical_set(q, n, delta)._listed("project onto")
    cols = _column_stack([basis] * n, strings)
    return TypicalProjector(
        rho=rho,
        n=n,
        delta=delta,
        eigenvalues=q,
        basis=basis,
        strings=strings,
        projector=_assemble(cols, dim_total),
    )


@dataclass(frozen=True, eq=False)
class ConditionalTypicalProjector:
    """Per-symbol-group typical projector at one channel input string.

    ``strings`` are the admitted eigenvalue-index strings and ``weights``
    their product eigenvalues; these are exactly the nonzero spectrum of
    the projected output.
    """

    xn: tuple
    delta: float
    strings: tuple
    weights: np.ndarray
    projector: np.ndarray

    @property
    def n(self) -> int:
        return len(self.xn)

    @property
    def rank(self) -> int:
        return len(self.strings)


def _group_filter(xn, spectra, delta):
    """Admitted index strings: every symbol group's subsequence is typical
    for that symbol's spectrum, with window ``delta/dim``."""
    groups = []
    for a in dict.fromkeys(xn):
        positions = [i for i, b in enumerate(xn) if b == a]
        admitted = _typical_strings(spectra[a], len(positions), delta)
        groups.append((positions, admitted))
    strings = []
    for pick in itertools.product(*(admitted for _, admitted in groups)):
        jn = [0] * len(xn)
        for (positions, _), sub in zip(groups, pick):
            for i, j in zip(positions, sub):
                jn[i] = j
        strings.append(tuple(jn))
    strings.sort()
    return tuple(strings)


def _symbol_eigenbases(v, symbols):
    """Cleaned spectrum and deterministic eigenbasis of each symbol's output."""
    spectra, bases = {}, {}
    for a in symbols:
        vals, u = sorted_eigenbasis(v.output(a))
        spectra[a] = _clean_spectrum(vals)
        bases[a] = u
    return spectra, bases


def cond_typical_projector(v, xn, delta, cap=None) -> ConditionalTypicalProjector:
    """Conditional typical projector of a cq channel at an input string.

    Defined for every string over the channel alphabet, typical or not;
    the projector commutes with the product output at the same string.
    """
    xn = tuple(xn)
    if not xn:
        raise InvalidStateError("input string is empty")
    for x in xn:
        if not v.has_symbol(x):
            raise DimensionMismatchError(f"symbol {x!r} not in channel alphabet")
    _, delta = _validate_block(len(xn), delta)
    dim_total = check_dim(v.dim ** len(xn), cap)
    spectra, bases = _symbol_eigenbases(v, set(xn))
    strings = _group_filter(xn, spectra, delta)
    weights = np.array(
        [
            float(np.prod([spectra[a][j] for a, j in zip(xn, jn)]))
            for jn in strings
        ]
    )
    cols = _column_stack([bases[a] for a in xn], strings)
    return ConditionalTypicalProjector(
        xn=xn,
        delta=float(delta),
        strings=strings,
        weights=weights,
        projector=_assemble(cols, dim_total),
    )


def _unconditional_reports(rho, n, delta):
    rho = op.check_density(np.asarray(rho, dtype=complex))
    q = _clean_spectrum(np.linalg.eigvalsh(rho)[::-1])
    entropy, window = _entropy_and_window(q, delta)
    profiles = _profiles(q, n, delta)
    rank = sum(size for _, size, _ in profiles)
    trace = sum(size * 2.0**logw for _, size, logw in profiles)
    reports = [
        make_report("te1-trace", trace, 1.0),
        make_report("te2-rank-lower", 2.0 ** (n * (entropy - window)), float(rank)),
        make_report("te2-rank-upper", float(rank), 2.0 ** (n * (entropy + window))),
    ]
    if rank:
        low = 2.0 ** min(logw for _, _, logw in profiles)
        high = 2.0 ** max(logw for _, _, logw in profiles)
        reports.append(
            make_report("te3-eig-lower", 2.0 ** (-n * (entropy + window)), low)
        )
        reports.append(
            make_report("te3-eig-upper", high, 2.0 ** (-n * (entropy - window)))
        )
    else:
        # empty typical set: the sandwich is vacuous, the rank window is not
        reports.append(make_report("te3-eig-lower", 0.0, 0.0))
        reports.append(make_report("te3-eig-upper", 0.0, 0.0))
    return reports


def _string_profile(xn, spectra, delta):
    """Rank, trace, and log-eigenvalue extremes of the projected output,
    computed per symbol group without materializing the projector."""
    rank = 1
    trace = 1.0
    log_lo = 0.0
    log_hi = 0.0
    for a in set(xn):
        m = sum(1 for b in xn if b == a)
        profiles = _profiles(spectra[a], m, delta)
        group_rank = sum(size for _, size, _ in profiles)
        if group_rank == 0:
            return 0, 0.0, None, None
        rank *= group_rank
        trace *= sum(size * 2.0**logw for _, size, logw in profiles)
        log_lo += min(logw for _, _, logw in profiles)
        log_hi += max(logw for _, _, logw in profiles)
    return rank, trace, log_lo, log_hi


def _typical_inputs(v, p, n, delta, cap):
    """Validated input distribution, product dimension, and the listed
    typical input strings of a channel; an empty set is an error."""
    p = _validate_dist(p)
    if p.size != len(v.alphabet):
        raise DimensionMismatchError(
            f"distribution size {p.size} != alphabet size {len(v.alphabet)}"
        )
    dim_total = check_dim(v.dim**n, cap)
    members = typical_set(p, n, delta, alphabet=v.alphabet)._listed("list")
    if not members:
        raise InvalidStateError("typical set is empty at this block length")
    return p, dim_total, members


def _conditional_reports(v, p, n, delta, cap):
    p, _, members = _typical_inputs(v, p, n, delta, cap)
    spectra = {}
    for a in v.alphabet:
        spectra[a] = _clean_spectrum(np.linalg.eigvalsh(v.output(a))[::-1])
    cond_entropy = sum(
        prob * _entropy_and_window(spectra[a], delta)[0]
        for prob, a in zip(p, v.alphabet)
        if prob > 0.0
    )
    window = max(_entropy_and_window(spectra[a], delta)[1] for a in v.alphabet)

    ranks, traces, lows, highs = [], [], [], []
    for xn in members:
        rank, trace, log_lo, log_hi = _string_profile(xn, spectra, delta)
        ranks.append(rank)
        traces.append(trace)
        if rank:
            lows.append(log_lo)
            highs.append(log_hi)

    pi_avg = typical_projector(_average_state(p, v), n, delta, cap).projector
    vn = tensor_power(v, n, cap)
    avg_trace = min(
        float(np.trace(vn.output(xn) @ pi_avg).real) for xn in members
    )

    reports = [
        make_report("te4-trace", min(traces), 1.0),
        make_report(
            "te6-rank-lower", 2.0 ** (n * (cond_entropy - window)), float(min(ranks))
        ),
        make_report(
            "te6-rank-upper", float(max(ranks)), 2.0 ** (n * (cond_entropy + window))
        ),
    ]
    if lows:
        reports.append(
            make_report(
                "te5-eig-lower", 2.0 ** (-n * (cond_entropy + window)), 2.0 ** min(lows)
            )
        )
        reports.append(
            make_report(
                "te5-eig-upper", 2.0 ** max(highs), 2.0 ** (-n * (cond_entropy - window))
            )
        )
    else:
        reports.append(make_report("te5-eig-lower", 0.0, 0.0))
        reports.append(make_report("te5-eig-upper", 0.0, 0.0))
    reports.append(make_report("te7-trace", avg_trace, 1.0))
    return reports


def check_typical_projector(source, n, delta, p=None, cap=None):
    """Trace, rank, and eigenvalue reports for a typical projector.

    With a density matrix: the projected power ``Pi rho**(x) n Pi`` is
    checked against the window constant from the spectrum (reports te1-te3).
    With a cq channel and an input distribution: the conditional projectors
    at every typical input string are checked, worst case per report, plus
    the projected trace against the average-state projector (te4-te7).
    Trace reports carry the measured value against the trivial bound 1.
    """
    n, delta = _validate_block(n, delta)
    if hasattr(source, "output") and hasattr(source, "alphabet"):
        if p is None:
            raise InvalidStateError(
                "conditional checks need the input distribution"
            )
        return _conditional_reports(source, p, n, delta, cap)
    return _unconditional_reports(source, n, delta)


def _compress(v, p, n, delta, cap=None, products=None):
    """The channel of :func:`subnormalized_channel` and the largest
    eigenvalue over its outputs, from one pass over the typical strings.

    The symbol eigenbases and the average-state projector are taken once.
    Per string, the product output V^n(x) is built once, compressed,
    validated by one eigensolve that also gives its spectrum, and checked
    for V'(x) <= V(x) by a second; then it is dropped, unless ``products``
    is a dict, which keeps it under its string.
    """
    n, delta = _validate_block(n, delta)
    p, dim_total, members = _typical_inputs(v, p, n, delta, cap)
    pi_avg = typical_projector(_average_state(p, v), n, delta, cap).projector
    vn = tensor_power(v, n, cap)
    spectra, bases = _symbol_eigenbases(v, v.alphabet)
    outputs, tops = {}, []

    def triples():
        for xn in members:
            strings = _group_filter(xn, spectra, delta)
            cols = _column_stack([bases[a] for a in xn], strings)
            pi_cond = _assemble(cols, dim_total)
            rho = vn.output(xn)
            out, w = _checked_output(xn, pi_avg @ (pi_cond @ rho @ pi_cond) @ pi_avg)
            outputs[xn] = out
            tops.append(float(w[-1]) if w.size else 0.0)
            if products is not None:
                products[xn] = rho
            yield xn, rho, out

    _ordering_scan(triples())
    return CqChannel(members, dim_total, outputs, validate=False), max(tops)


def subnormalized_channel(v, p, n, delta, cap=None) -> CqChannel:
    """Project each typical product output into the typical subspaces.

    Every output of ``v**(x) n`` at a typical string is compressed first by
    its conditional projector, then by the typical projector of the average
    state.  The trace deficit is measured and becomes the channel's
    epsilon.  Domination by the product channel is verified on every
    output; a violation raises :class:`PsdOrderingError`.  The strings are
    streamed: each product output is built once and dropped after its two
    eigensolves (validation and ordering).
    """
    return _compress(v, p, n, delta, cap)[0]


def reindexed_pair(v, p, n, delta):
    """The leakage chain's (V, V') pair in typicality mode.

    V' is :func:`subnormalized_channel` and V the n-letter product channel
    on the same typical strings, kept from the same pass.  Both are
    re-indexed 0..|T|-1 in string order, so a function with |X| = |T|
    inputs applies.
    """
    products = {}
    sub = _compress(v, p, n, delta, products=products)[0]
    index = range(len(sub))
    # neither is validated again: Kronecker products of validated densities
    # are exactly Hermitian, and _compress validated every output of V'
    base = CqChannel(
        index, sub.dim, {i: products[t] for i, t in enumerate(sub.alphabet)}, validate=False
    )
    prime = CqChannel(
        index, sub.dim, {i: sub.output(t) for i, t in enumerate(sub.alphabet)}, validate=False
    )
    return base, prime


def factor_reports(v, p, delta, ns):
    """``(sub, reports)`` for every block length n in ``ns``, built lazily.

    ``sub`` is ``subnormalized_channel(v, p, n, delta)`` and ``reports``
    its spectral factor bounds.  factor-norm: the largest output operator
    norm, read off the spectra that validated the outputs, against
    2^(-n (S(V|P) - gamma)); factor-rank: the rank of the uniform average
    output against 2^(n (S(PV) + beta)); factor-product: their product
    against 2^(n (chi + beta + gamma)).  The window constants are
    ``delta * max |log2 q|``, beta over the spectrum of the average state
    PV and gamma the worst over the output spectra; they and the entropies
    are computed once, on the call.
    """
    p = np.asarray(p, dtype=float)
    avg = _average_state(p, v)

    def window(rho):
        # ascending spectrum: the normalizing sum adds the smallest
        # eigenvalues first, the order the golden reports were recorded in
        return _entropy_and_window(_clean_spectrum(np.linalg.eigvalsh(rho)), delta)[1]

    chi, s_cond, s_avg = holevo(p, v), conditional_entropy(p, v), op.entropy(avg)
    beta = window(avg)
    gamma = max(window(v.output(a)) for a in v.alphabet)

    def reports(n):
        sub, norm = _compress(v, p, n, delta)
        rank = op.rank_eps(mix(sub, sub.alphabet))
        return sub, [
            make_report("factor-norm", norm, 2.0 ** (-n * (s_cond - gamma))),
            make_report("factor-rank", rank, 2.0 ** (n * (s_avg + beta))),
            make_report("factor-product", rank * norm, 2.0 ** (n * (chi + beta + gamma))),
        ]

    return map(reports, ns)
