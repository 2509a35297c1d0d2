"""Typical subspaces for product states and per-string channel outputs.

A string is typical for a distribution when every letter frequency sits
within ``delta / |alphabet|`` of its probability and letters of zero
probability never occur.  Lifting this to operators, the typical projector
of a state keeps the eigenvector products indexed by typical strings of its
spectrum; the conditional projector of a channel at an input string applies
the same filter per symbol group.  Both live in a deterministic eigenbasis
(descending eigenvalues, near-ties ordered by phase-fixed eigenvector
entries) so repeated runs produce identical outputs.  Neither projector is
ever formed at dimension d^n: every quantity below is read off the index
strings and d x d overlaps.

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
families are compatible (commuting outputs, or a full average-state
projector), and not in general.  Nothing here decides that ordering: the
leakage chain needs it at one step, and
:func:`~cqwiretap.bounds.check_psd_ordering`, which
:func:`~cqwiretap.bounds.certify_chain` runs over every member, decides it
there.  ``reindexed_pair`` gives the (V, V', A) the chain takes in
typicality mode, V' as its R x R cores on the range of the isometry A (no
d^n output of V' is formed; the chain's ordering check forms each A K A*),
and ``typicality_reports`` every report of a ``typicality-report`` run,
the spectral factor bounds of the compressed channel among them.

Every report of one (V, p, n, delta) reads one private block: the typical
inputs grouped by type class, the eigenbasis and typical strings of the
average state, and the symbol eigenbases with their d x d overlaps, so
each is computed once per block length.  The compression works inside the
typical subspace of the average state, of rank R <= d^n, once per type
class.  The compressed output of a class's first member is A K A*, with A
the d^n x R isometry onto the subspace and an R x R matrix K built from
the overlaps, validated by one R x R eigensolve (that spectrum also gives
the factor-norm); every other member of the class has the same K with rows
and columns permuted, because permuting positions maps the typical
subspace onto itself.

Only the class cores are kept, never one per typical string, and every
quantity the reports read is invariant under permuting positions, so each
is read once per type class: the trace deficit off the class core's
diagonal, the te7 trace against the average-state projector off the
product structure of the first member, and the mean core as the average of
the class cores over the orbits of index pairs under the permutations of
positions.  So the reports hold R x R buffers whatever the size |T| of the
typical set, do no work per member, and form neither A nor any
d^n x d^n operator.  The product columns of A are built together, one
broadcast step per letter position.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators as op
from .bounds import _sandwich, make_report
from .channels import CqChannel, _checked_outputs, _mixtures, _validated_stack
from .channels import check_distribution, tensor_power
from .config import STRING_CAP, check_dim
from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    ResourceCapError,
)

__all__ = [
    "TypicalSet",
    "sorted_eigenbasis",
    "typical_set",
    "check_typical_projector",
    "subnormalized_channel",
    "reindexed_pair",
    "typicality_reports",
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
    p = check_distribution(p)
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
    """Raw spectrum, cleaned spectrum and deterministic eigenbasis of each
    symbol's output."""
    raw, spectra, bases = {}, {}, {}
    for a in symbols:
        raw[a], bases[a] = sorted_eigenbasis(v.output(a))
        spectra[a] = _clean_spectrum(raw[a])
    return raw, spectra, bases


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
    """Validated input distribution and the listed typical input strings of
    a channel, once the product dimension is checked against ``cap``; an
    empty set is an error."""
    p = check_distribution(p, len(v.alphabet))
    check_dim(v.dim**n, cap)
    members = typical_set(p, n, delta, alphabet=v.alphabet)._listed("list")
    if not members:
        raise InvalidStateError("typical set is empty at this block length")
    return p, members


def _average_basis(avg, n, delta):
    """Deterministic eigenbasis of the average state PV, validated here as
    a density, and the index strings of its typical subspace, one row per
    string."""
    vals, basis = sorted_eigenbasis(op.check_density(avg))
    strings = typical_set(_clean_spectrum(vals), n, delta)._listed("project onto")
    return basis, np.array(strings, dtype=np.intp).reshape(len(strings), n)


@dataclass(frozen=True, eq=False)
class _Block:
    """What every report of one (V, p, n, delta) reads, computed once.

    ``classes`` groups the typical input strings ``members`` (string order)
    by type class, keyed by their sorted letter indices, in the order of
    the classes' first members.  ``basis`` and ``avg_strings`` are the
    eigenbasis of PV and its typical index strings; ``raw`` and
    ``spectra`` the raw and cleaned spectra of the symbols, ``overlaps``
    the d x d matrices basis* E_a, with E_a the eigenbasis of symbol a.
    """

    v: CqChannel
    p: np.ndarray
    n: int
    delta: float
    members: tuple
    classes: dict
    basis: np.ndarray
    avg_strings: np.ndarray
    raw: dict
    spectra: dict
    overlaps: dict

    @cached_property
    def iso(self):
        """The d^n x R isometry A onto the typical subspace of PV."""
        return _column_stack([self.basis] * self.n, self.avg_strings)


def _block(v, p, n, delta, cap=None, avg=None):
    """The :class:`_Block` of (v, p, n, delta); ``avg`` is PV when the
    caller has it, and is formed here otherwise."""
    n, delta = _validate_block(n, delta)
    p, members = _typical_inputs(v, p, n, delta, cap)
    if avg is None:
        avg = _mixtures(p, np.array(v.states()))
    basis, avg_strings = _average_basis(avg, n, delta)
    raw, spectra, bases = _symbol_eigenbases(v, v.alphabet)
    letter = {a: i for i, a in enumerate(v.alphabet)}
    classes = {}
    for xn in members:
        classes.setdefault(tuple(sorted(letter[a] for a in xn)), []).append(xn)
    return _Block(
        v=v, p=p, n=n, delta=delta, members=members, classes=classes,
        basis=basis, avg_strings=avg_strings, raw=raw, spectra=spectra,
        overlaps={a: basis.conj().T @ bases[a] for a in v.alphabet},
    )


def _conditional_reports(block):
    v, p, n, delta = block.v, block.p, block.n, block.delta
    spectra = block.spectra
    cond_entropy = sum(
        prob * _entropy_and_window(spectra[a], delta)[0]
        for prob, a in zip(p, v.alphabet)
        if prob > 0.0
    )
    window = max(_entropy_and_window(spectra[a], delta)[1] for a in v.alphabet)

    # the profile depends on the letter counts of xn only, so it is taken
    # on the first member of each type class
    ranks, traces, lows, highs = [], [], [], []
    for xn, *_ in block.classes.values():
        rank, trace, log_lo, log_hi = _string_profile(xn, spectra, delta)
        ranks.append(rank)
        traces.append(trace)
        if rank:
            lows.append(log_lo)
            highs.append(log_hi)

    # tr(V^n(x) Pi_avg) = sum over typical t of prod_i <a_{t_i}|V(x_i)|a_{t_i}>
    basis, avg_strings = block.basis, block.avg_strings
    diagonals = {
        a: (basis.conj().T @ v.output(a) @ basis).diagonal().real for a in v.alphabet
    }

    def avg_trace_at(xn):
        terms = np.ones(len(avg_strings))
        for pos, a in enumerate(xn):
            terms *= diagonals[a][avg_strings[:, pos]]
        return float(terms.sum())

    # the trace is invariant under permuting positions: one per type class
    avg_trace = min(avg_trace_at(xn) for xn, *_ in block.classes.values())

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
        return _conditional_reports(_block(source, p, n, delta, cap))
    return _unconditional_reports(source, n, delta)


def _compress(block):
    """The R x R core K of every type class of ``block`` (of its first
    member, keyed as ``block.classes``) and the largest eigenvalue of its
    output A K A*; :func:`_member_cores` gives each member its core.

    With A the D x R isometry onto the average state's typical subspace
    (columns a_t, products of its eigenvectors) and b_j the conditional
    typical eigenvector products of V^n(x) with raw product eigenvalues
    w_j, the compressed output is V'(x) = A K_x A* with
    K_x = M diag(w) M* and M[t, j] = <a_t|b_j> = prod_i <a_{t_i}|b^{x_i}_{j_i}>,
    a product of d x d overlaps.  So neither projector is formed at
    dimension D = d^n, nor is A.  The symbol eigenbases and their overlaps
    with the average eigenbasis come from the block.  K_x is validated by
    one eigensolve that also gives the nonzero spectrum of V'(x).  The
    ordering V' <= V^n is not decided here (see the module docstring).

    The work is done once per type class.  The typical set of the average
    state is a union of type classes, so permuting positions maps it onto
    itself, and A uses the same eigenbasis at every position.  So for a
    string y with y_i = x_{pi(i)} (the same letter counts as x), exactly,
    V^n(y) = U V^n(x) U* with U the unitary permuting the factors, and
    K_y[t, t'] = K_x[s, s'] with s_{pi(i)} = t_i and s'_{pi(i)} = t'_i: the
    conditional strings of y are those of x permuted the same way, with
    the same weights.  K_y is a re-indexing of K_x, without arithmetic,
    with the same spectrum and trace.  The same U maps the columns of A
    onto columns of A (U A = A P with P the permutation matrix of that
    re-indexing), so V'(y) = A P K_x P* A* = U V'(x) U*.  M, K and its
    validation are taken on the first member x of each class only, and
    only the |classes| cores are kept: a member's permuted core is formed
    when it is read (:func:`_member_cores`), so the memory is in R^2, not
    in |T| R^2.
    """
    n = block.n
    cores, tops = {}, {}
    for key, (xn, *_) in block.classes.items():
        strings = _group_filter(xn, block.spectra, block.delta)
        jdx = np.array(strings, dtype=np.intp).reshape(len(strings), n)
        m = np.ones((len(block.avg_strings), len(strings)), dtype=complex)
        w = np.ones(len(strings))
        for pos, a in enumerate(xn):
            m *= block.overlaps[a][block.avg_strings[:, pos, None], jdx[None, :, pos]]
            w *= block.raw[a][jdx[:, pos]]
        cores[key], spectrum = _checked_outputs((xn,), (m * w) @ m.conj().T)
        tops[key] = float(spectrum[-1]) if spectrum.size else 0.0
    return cores, max(tops.values())


def _member_perms(block):
    """``(y, key, perm)`` for every typical string y, in string order: its
    type class and the index map with K_y = K_x[perm][:, perm] for the
    class's first member x.  y = x[pi], and perm maps each average string
    t to the index of the string s with s_{pi(i)} = t_i, found by
    ``searchsorted`` on big-endian codes."""
    n, avg_strings = block.n, block.avg_strings
    letter = {a: i for i, a in enumerate(block.v.alphabet)}
    # big-endian codes of the average strings, ascending as the rows are
    powers = block.basis.shape[0] ** np.arange(n - 1, -1, -1)
    codes = avg_strings @ powers
    firsts = {
        key: np.argsort([letter[a] for a in first], kind="stable")
        for key, (first, *_) in block.classes.items()
    }
    for xn in block.members:
        idx = np.array([letter[a] for a in xn])
        order = np.argsort(idx, kind="stable")
        key = tuple(idx[order].tolist())
        pi = np.empty(n, dtype=np.intp)
        pi[order] = firsts[key]
        yield xn, key, np.searchsorted(codes, avg_strings @ powers[pi])


def _member_cores(block, cores):
    """``(y, K_y)`` for every typical string y, in string order."""
    for xn, key, perm in _member_perms(block):
        yield xn, cores[key][np.ix_(perm, perm)]


def _orbit_labels(strings, d):
    """One label per pair (t, t') of rows of ``strings`` (row-major over
    the len(strings)^2 pairs), equal for two pairs exactly when one maps
    onto the other by a permutation of positions applied to both strings:
    when their joint letter-pair types, the counts of each (t_i, t'_i) in
    the d^2 letter pairs, agree.

    A count vector is coded in base n + 1, but d^2 such digits can exceed
    int64 (at d = 8, n = 4 already), so the digits are split into chunks
    whose codes fit, and the rows of chunk codes are labelled by
    ``np.unique``: exact for every d and n.
    """
    r, n = strings.shape
    base = n + 1
    width = 1
    while base ** (width + 1) < 2**63:
        width += 1
    chunks = []
    for lo in range(0, d * d, width):
        digits = [base ** (k - lo) if lo <= k < lo + width else 0 for k in range(d * d)]
        weight = np.array(digits, dtype=np.int64).reshape(d, d)
        code = np.zeros((r, r), dtype=np.int64)
        for i in range(n):
            code += weight[strings[:, i, None], strings[None, :, i]]
        chunks.append(code.ravel())
    if len(chunks) == 1:
        return np.unique(chunks[0], return_inverse=True)[1]
    return np.unique(np.stack(chunks, axis=1), axis=0, return_inverse=True)[1].ravel()


def _mean_core(block, cores):
    """The uniform average (1/|T|) sum_y K_y of the cores of every typical
    string y, without a per-member loop.

    The cores of a class c are its first member's core K_c permuted, one
    permutation of positions per member (:func:`_member_perms`), and K_c
    is invariant under the permutations that fix the first member (exactly
    in exact arithmetic; the computed K_c up to rounding).  So
    sum_{y in c} K_y = |c| P(K_c), with P the average of a matrix over all
    n! permutations of positions applied to both of its indices.  P maps a
    matrix to its averages over the orbits of index pairs (t, t'), which
    :func:`_orbit_labels` names; P is linear, so the mean core is
    P(sum_c |c| K_c) / |T|: one label pass, orbit sums by ``bincount`` and
    one gather.  A class whose core is zero (an empty conditional window)
    adds nothing.
    """
    labels = _orbit_labels(block.avg_strings, block.basis.shape[0])
    sizes = np.bincount(labels)
    sums = np.zeros(sizes.size, dtype=complex)
    for key, k in cores.items():
        if k.any():
            flat = k.ravel()
            sums += len(block.classes[key]) * (
                np.bincount(labels, flat.real, sizes.size)
                + 1j * np.bincount(labels, flat.imag, sizes.size)
            )
    r = len(block.avg_strings)
    return (sums / (sizes * len(block.members)))[labels].reshape(r, r)


def subnormalized_channel(v, p, n, delta, cap=None) -> CqChannel:
    """Project each typical product output into the typical subspaces.

    Every output of ``v**(x) n`` at a typical string is compressed first by
    its conditional projector, then by the typical projector of the average
    state.  The trace deficit is measured and becomes the channel's
    epsilon.  Domination by the product channel is not checked here: the
    leakage chain decides it (:func:`~cqwiretap.bounds.check_psd_ordering`),
    and a non-commuting channel may violate it.  The work runs per type
    class of the typical set: one eigensolve at the rank R of the
    average-state projector validates the class's compressed outputs, no
    product output is built and no eigensolve runs at d^n.  ``cap`` bounds
    the dimension d^n.
    """
    block = _block(v, p, n, delta, cap)
    cores, _ = _compress(block)
    outputs = {xn: _sandwich(block.iso, k) for xn, k in _member_cores(block, cores)}
    return CqChannel(block.members, block.iso.shape[0], outputs, validate=False)


def reindexed_pair(v, p, n, delta, cap=None):
    """The leakage chain's (V, V', A) in typicality mode.

    V is the n-letter product channel on the typical strings and A the
    d^n x R isometry onto the typical subspace of the average state.  V'
    is :func:`subnormalized_channel` on the range of A: its outputs are
    the R x R cores K_x, so A K_x A* is the compressed output, and no d^n
    output of V' is built.  Both channels are re-indexed 0..|T|-1 in
    string order, so a function with |X| = |T| inputs applies, and
    :func:`~cqwiretap.bounds.certify_chain` takes the three together.
    Every product output is built once here, for the chain, and none is
    decomposed: the ordering V' <= V is not checked here, and the chain's
    own :func:`~cqwiretap.bounds.check_psd_ordering` is the one ordering
    check of the pair, over all members.  ``cap`` bounds the dimension d^n.
    """
    block = _block(v, p, n, delta, cap)
    cores, _ = _compress(block)
    index = range(len(block.members))
    iso = block.iso
    vn = tensor_power(v, n, cap)
    # neither is validated again: Kronecker products of validated densities
    # are exactly Hermitian, and _compress validated and symmetrized every
    # core K, whose permutations are the member cores
    base = CqChannel(index, iso.shape[0], {i: vn.output(t) for i, t in enumerate(block.members)},
                     validate=False)
    prime = CqChannel(index, iso.shape[1],
                      dict(enumerate(k for _, k in _member_cores(block, cores))),
                      validate=False)
    return base, prime, iso


def typicality_reports(v, p, delta, ns, cap=None):
    """``(epsilon, reports)`` for every block length n in ``ns``: the
    reports te1-te3 of the average state PV, te4-te7 of the channel
    (:func:`check_typical_projector`) and the three factor reports of the
    compressed channel, in that order.  PV and the window constants are
    formed once, and the typical inputs and the basis and typical strings
    of PV once per n, for all of them.  ``cap`` bounds the dimension d^n.

    ``epsilon`` is the trace deficit of ``subnormalized_channel(v, p, n,
    delta)``, read off the cores as 1 - min_x tr K_x (tr A K A* = tr K, as
    A is an isometry).  factor-norm: the largest output operator norm, read
    off the R x R spectra that validated the outputs, against
    2^(-n (S(V|P) - gamma)); factor-rank: the rank of the uniform average
    output A K A* (the rank of the R x R mean core K) against
    2^(n (S(PV) + beta)); factor-product: their product against
    2^(n (chi + beta + gamma)).  The window constants are
    ``delta * max |log2 q|``, beta over the spectrum of PV and gamma the
    worst over the output spectra; one spectrum of PV gives chi, S(PV) and
    beta.

    All three are read per type class, from the cores of :func:`_compress`:
    the norm is the class's top eigenvalue, tr K_y = tr K_x for every
    member y of x's class, and the mean core is the orbit average of
    :func:`_mean_core`.  So the work after :func:`_compress` is one label
    pass over the R^2 index pairs and one R x R eigensolve per block
    length, without a loop over the members, the memory is in R^2 whatever
    the size |T| of the typical set, and no d^n x d^n output is formed.

    No report depends on the ordering V' <= V^n, and none decides it: the
    reports are returned for a non-commuting channel that violates it,
    and the leakage chain's :func:`~cqwiretap.bounds.check_psd_ordering`
    decides it where the chain needs it.
    """
    p = check_distribution(p, len(v.alphabet))
    states, ent = _validated_stack(v.states())
    avg = _mixtures(p, states)
    # PV is exactly Hermitian (a real mixture of symmetrized states), so its
    # spectrum is the one every entropy routine would take of it; ascending,
    # so the normalizing sum of the window adds the smallest eigenvalues
    # first, the order the golden reports were recorded in
    w = op.clip_spectrum(np.linalg.eigvalsh(avg))
    s_cond, s_avg = float((ent * p).sum()), float(op._entropy_core(w))
    chi = max(0.0, s_avg - s_cond)

    def window(q):
        return _entropy_and_window(_clean_spectrum(q), delta)[1]

    beta = window(w)
    gamma = max(window(np.linalg.eigvalsh(v.output(a))) for a in v.alphabet)
    out = []
    for length in ns:
        block = _block(v, p, length, delta, cap, avg)
        n = block.n
        cores, norm = _compress(block)
        # tr K_y = tr K_x for every member y of x's class
        least = min(float(k.diagonal().sum().real) for k in cores.values())
        rank = op.rank_eps(_mean_core(block, cores))
        factors = [
            make_report("factor-norm", norm, 2.0 ** (-n * (s_cond - gamma))),
            make_report("factor-rank", rank, 2.0 ** (n * (s_avg + beta))),
            make_report("factor-product", rank * norm, 2.0 ** (n * (chi + beta + gamma))),
        ]
        out.append((max(0.0, 1.0 - least), _unconditional_reports(avg, n, block.delta)
                    + _conditional_reports(block) + factors))
    return out
