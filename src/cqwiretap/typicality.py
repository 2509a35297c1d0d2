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

``typicality_reports`` gives every report of a ``typicality-report`` run:
the trace, rank and eigenvalue windows of the typical projector of the
average state PV (te1-te3) and of the conditional projectors of the
channel (te4-te7), and the spectral factor bounds of the compressed
channel.  The eigenvalue sandwiches and the rank upper bounds are sharp at
every block length once the window constants ``gamma = delta * max |log2
q|`` are instantiated from the spectrum (for the conditional reports the
constant ranges over all output spectra, and the stated window
additionally requires the output entropies to agree or the string to have
exact type).  The rank lower bounds and the trace bounds tighten only as
the block length grows, so they are reported, not promised.

The compressed channel V' maps each typical input string to its product
output compressed first by its own conditional projector, then by the
typical projector of PV.  It is dominated by the product channel whenever
the two projector families are compatible (commuting outputs, or a full
average-state projector), and not in general.  Nothing here decides that
ordering: the leakage chain needs it at one step, and
:func:`~cqwiretap.bounds.check_psd_ordering`, which
:func:`~cqwiretap.bounds.certify_chain` runs over every member, decides it
there.  ``reindexed_pair`` gives the (V, V', A) the chain takes in
typicality mode, V' as its R x R cores on the range of the isometry A (no
d^n output of V' is formed; the chain's ordering check forms each A K A*).

A call takes its eigen-data once, for all its block lengths: one batched
eigensolve validates the outputs of V, and PV and each output are
decomposed once.  Every report of one (V, p, n, delta) then reads one
private block: the type classes of the typical inputs with their sizes
(the method of types: each report reads a class's first member and its
size |c|, never the |T| typical input strings) and the typical strings of
PV at that n, with the shared eigenbases and d x d overlaps
(:func:`_blocks`).  The compression works inside the typical subspace of
the average state, of rank R <= d^n, once per type class.  The compressed
output of a class's first member is A K A*, with A the d^n x R isometry
onto the subspace and an R x R matrix K built from the overlaps, validated
by one R x R eigensolve (that spectrum also gives the factor-norm); every
other member of the class has the same K with rows and columns permuted,
because permuting positions maps the typical subspace onto itself.

Only the class cores are kept, never one per typical string, and every
quantity the reports read is invariant under permuting positions, so each
is read once per type class: the trace deficit off the class core's
diagonal, the te7 trace against the average-state projector off the
product structure of the first member, and the mean core as the average of
the class cores over the orbits of index pairs under the permutations of
positions.  So the reports hold R x R buffers whatever the size |T| of the
typical set, do no work per member, and form neither A nor any
d^n x d^n operator.  The product columns of A are built together, one
broadcast step per letter position.  Only ``reindexed_pair``, whose
channels have one input per typical string, lists the typical inputs.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators as op
from .bounds import make_report
from .channels import CqChannel, _checked_outputs, _mixtures
from .channels import check_distribution, tensor_power
from .config import STRING_CAP, check_dim
from .errors import InvalidStateError, ResourceCapError

__all__ = [
    "sorted_eigenbasis",
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


def _capped_size(p: np.ndarray, n: int, delta: float, what: str) -> int:
    """Size |T| of the typical set, counted by type class without listing;
    ``ResourceCapError`` when it exceeds ``STRING_CAP``, as its strings
    could not be listed to ``what``."""
    total = _class_total(p, n, delta, STRING_CAP)
    if total > STRING_CAP:
        raise ResourceCapError(
            f"typical set exceeds the string cap; no member list to {what}",
            requested=total,
            cap=STRING_CAP,
        )
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


def _unconditional_reports(q, n, delta):
    """te1-te3 of the typical projector of a state with cleaned spectrum
    ``q`` (descending) at block length n."""
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
    # symbols in order of first occurrence, not in set (hash) order: the
    # rounding of the products and sums must not follow PYTHONHASHSEED
    for a in dict.fromkeys(xn):
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


@dataclass(frozen=True, eq=False)
class _Block:
    """What every report of one (V, p, n, delta) reads, computed once.

    ``classes`` maps each type class of the typical inputs to its size |c|,
    keyed by its sorted letter indices, which is the index string of its
    first member (:meth:`first`), in ascending order: the order of the
    first members among all typical strings.  ``size`` is their sum |T|,
    and ``avg_strings`` are the typical index strings of PV, one row per
    string.  No typical input string is listed but the first members.
    The eigen-data of (V, p) is shared by every block of one :func:`_blocks`
    call: ``basis`` the eigenbasis of PV; ``raw`` and ``spectra`` the raw
    and cleaned spectra of the symbols, ``overlaps`` the d x d matrices
    basis* E_a, with E_a the eigenbasis of symbol a; ``avg_spectrum`` the
    clipped ascending ``eigvalsh`` spectrum of PV and ``output_spectra``
    those of the outputs, one row per symbol, from the call that validated
    them.
    """

    v: CqChannel
    p: np.ndarray
    n: int
    delta: float
    size: int
    classes: dict
    basis: np.ndarray
    avg_strings: np.ndarray
    raw: dict
    spectra: dict
    overlaps: dict
    avg_spectrum: np.ndarray
    output_spectra: np.ndarray

    @cached_property
    def iso(self):
        """The d^n x R isometry A onto the typical subspace of PV."""
        return _column_stack([self.basis] * self.n, self.avg_strings)

    def first(self, key):
        """The first member of the type class ``key``, in channel symbols."""
        return tuple(self.v.alphabet[i] for i in key)


def _blocks(v, p, delta, ns, cap=None):
    """The :class:`_Block` of (v, p, n, delta) for each n in ``ns``, in
    order.

    The eigen-data is taken before the first block, once for all of them:
    one batched ``eigvalsh`` validates the outputs of v as densities, and
    PV (their mixture, so a density too, validated by no call of its own)
    and each output are decomposed once.  Per block length only the type
    classes of the typical inputs, with their sizes, and the typical
    strings of PV are found.  ``cap`` bounds the dimension d^n, and
    ``STRING_CAP`` both |T| and R (:func:`_capped_size`); an empty typical
    input set is an error.
    """
    p = check_distribution(p, len(v.alphabet))
    states, output_spectra = op._spectra(np.array(v.states()), density=True)
    avg = _mixtures(p, states)
    # PV is exactly Hermitian (a real mixture of symmetrized states), so this
    # is the spectrum every entropy routine would take of it
    avg_spectrum = op.clip_spectrum(np.linalg.eigvalsh(avg))
    vals, basis = sorted_eigenbasis(avg)
    q = _clean_spectrum(vals)
    raw, spectra, bases = _symbol_eigenbases(v, v.alphabet)
    overlaps = {a: basis.conj().T @ bases[a] for a in v.alphabet}
    for n in ns:
        n, delta = _validate_block(n, delta)
        check_dim(v.dim**n, cap)
        size = _capped_size(p, n, delta, "list")
        if not size:
            raise InvalidStateError("typical set is empty at this block length")
        classes = dict(sorted(
            (tuple(i for i, c in enumerate(counts) for _ in range(c)), c_size)
            for counts, c_size in _type_classes(p, n, delta)
        ))
        _capped_size(q, n, delta, "project onto")
        strings = _typical_strings(q, n, delta)
        yield _Block(
            v=v, p=p, n=n, delta=delta, size=size, classes=classes, basis=basis,
            avg_strings=np.array(strings, dtype=np.intp).reshape(len(strings), n),
            raw=raw, spectra=spectra, overlaps=overlaps, avg_spectrum=avg_spectrum,
            output_spectra=output_spectra,
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
    for key in block.classes:
        rank, trace, log_lo, log_hi = _string_profile(block.first(key), spectra, delta)
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
    avg_trace = min(avg_trace_at(block.first(key)) for key in block.classes)

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
    for key in block.classes:
        xn = block.first(key)
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
    class's first member x.  The only reader of all |T| typical strings,
    which it lists itself (the block's check bounds |T|).  The first member
    is sorted, so y = x[pi] with pi the inverse of y's stable argsort, and
    perm maps each average string t to the index of the string s with
    s_{pi(i)} = t_i, found by ``searchsorted`` on big-endian codes."""
    n, avg_strings = block.n, block.avg_strings
    # big-endian codes of the average strings, ascending as the rows are
    powers = block.basis.shape[0] ** np.arange(n - 1, -1, -1)
    codes = avg_strings @ powers
    for idx in _typical_strings(block.p, n, block.delta):
        order = np.argsort(idx, kind="stable")
        pi = np.empty(n, dtype=np.intp)
        pi[order] = np.arange(n)
        yield block.first(idx), tuple(sorted(idx)), np.searchsorted(codes, avg_strings @ powers[pi])


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
            sums += block.classes[key] * (
                np.bincount(labels, flat.real, sizes.size)
                + 1j * np.bincount(labels, flat.imag, sizes.size)
            )
    r = len(block.avg_strings)
    return (sums / (sizes * block.size))[labels].reshape(r, r)


def reindexed_pair(v, p, n, delta, cap=None):
    """The leakage chain's (V, V', A) in typicality mode.

    V is the n-letter product channel on the typical strings and A the
    d^n x R isometry onto the typical subspace of the average state.  V'
    is the compressed channel (see the module docstring) on the range of
    A: its outputs are the R x R cores K_x, so A K_x A* is the compressed
    output, and no d^n output of V' is built.  Both channels are
    re-indexed 0..|T|-1 in string order, so a function with |X| = |T|
    inputs applies, and :func:`~cqwiretap.bounds.certify_chain` takes the
    three together.  Every product output is built once here, for the
    chain, and none is decomposed: the ordering V' <= V is not checked
    here, and the chain's own :func:`~cqwiretap.bounds.check_psd_ordering`
    is the one ordering check of the pair, over all members.  ``cap``
    bounds the dimension d^n.
    """
    block, = _blocks(v, p, delta, [n], cap)
    cores, _ = _compress(block)
    members = list(_member_cores(block, cores))
    index = range(block.size)
    iso = block.iso
    vn = tensor_power(v, block.n, cap)
    # neither is validated again: Kronecker products of validated densities
    # are exactly Hermitian, and _compress validated and symmetrized every
    # core K, whose permutations are the member cores
    base = CqChannel(index, iso.shape[0], {i: vn.output(y) for i, (y, _) in enumerate(members)},
                     validate=False)
    prime = CqChannel(index, iso.shape[1], {i: k for i, (_, k) in enumerate(members)},
                      validate=False)
    return base, prime, iso


def typicality_reports(v, p, delta, ns, cap=None):
    """``(epsilon, reports)`` for every block length n in ``ns``: the
    reports te1-te3 of the average state PV, te4-te7 of the channel's
    conditional projectors and the three factor reports of the compressed
    channel, in that order.  The eigen-data of V and PV is taken once for
    all of them (:func:`_blocks`); each block length adds only its typical
    strings, its R x R work and arithmetic on the shared spectra.  ``cap``
    bounds the dimension d^n.

    te1-te3 hold the trace, rank and eigenvalue extremes of the typical
    projector of PV, read off its type classes.  te4-te6 hold those of the
    conditional projectors, worst case over the typical inputs, and te7
    the projected trace tr(V^n(x) Pi) against the typical projector Pi of
    PV, the least over the typical inputs.  Trace reports carry the
    measured value against the trivial bound 1.

    ``epsilon`` is the trace deficit of the compressed channel, read off
    the cores as 1 - min_x tr K_x (tr A K A* = tr K, as A is an isometry).
    factor-norm: the largest output operator norm, read off the R x R
    spectra that validated the outputs, against 2^(-n (S(V|P) - gamma));
    factor-rank: the rank of the uniform average output A K A* (the rank
    of the R x R mean core K) against 2^(n (S(PV) + beta)); factor-product:
    their product against 2^(n (chi + beta + gamma)).  The window constants
    are ``delta * max |log2 q|``, beta over the spectrum of PV and gamma
    the worst over the output spectra; one spectrum of PV gives chi, S(PV)
    and beta, and the spectra that validated the outputs give gamma and
    S(V|P).

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

    def window(q):
        return _entropy_and_window(_clean_spectrum(q), delta)[1]

    out = []
    for block in _blocks(v, p, delta, ns, cap):
        n, w = block.n, block.avg_spectrum
        s_cond = float((op._entropy_core(block.output_spectra) * block.p).sum())
        s_avg = float(op._entropy_core(w))
        chi = max(0.0, s_avg - s_cond)
        # w is ascending, so the normalizing sum of the window adds the
        # smallest eigenvalues first, the order the golden reports were
        # recorded in
        beta = window(w)
        gamma = max(window(q) for q in block.output_spectra)
        cores, norm = _compress(block)
        # tr K_y = tr K_x for every member y of x's class
        least = min(float(k.diagonal().sum().real) for k in cores.values())
        rank = op.rank_eps(_mean_core(block, cores))
        factors = [
            make_report("factor-norm", norm, 2.0 ** (-n * (s_cond - gamma))),
            make_report("factor-rank", rank, 2.0 ** (n * (s_avg + beta))),
            make_report("factor-product", rank * norm, 2.0 ** (n * (chi + beta + gamma))),
        ]
        out.append((max(0.0, 1.0 - least),
                    _unconditional_reports(_clean_spectrum(w[::-1]), n, block.delta)
                    + _conditional_reports(block) + factors))
    return out
