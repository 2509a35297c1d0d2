"""Shared helpers for the test suite.

Random objects are always drawn from a Philox generator with a fixed seed so
every run sees the same instances.
"""

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from functools import cache, reduce
from pathlib import Path

import numpy as np

from cqwiretap import bounds, bri, channels, typicality
from cqwiretap import operators as op
from cqwiretap.channels import ClassicalChannel, CqChannel, _mixtures, tensor_power
from cqwiretap.codes import (
    CommonRandomnessCode,
    DerandomizedCode,
    TransmissionCode,
    WiretapCode,
)
from cqwiretap.config import STRING_CAP, check_dim
from cqwiretap.errors import DimensionMismatchError, InvalidStateError


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def rng(seed: int = 7) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@cache
def load_workloads():
    """``perfbench/workloads.py`` as a module, leaving no bytecode cache
    under ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


def random_unitary(g: np.random.Generator, dim: int) -> np.ndarray:
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(g: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    a = g.normal(size=(dim, r)) + 1j * g.normal(size=(dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_probability(g: np.random.Generator, k: int) -> np.ndarray:
    p = g.dirichlet(np.ones(k))
    return p / p.sum()


def discard_dirichlet_draws(g: np.random.Generator, k: int, count: int) -> None:
    """Draw and discard ``count`` Dirichlet samples over ``k`` weights.

    Some tests fixed their random instances while an optimizer still drew
    that many random starts from their generator; making the same draws
    here keeps every later instance unchanged.
    """
    for _ in range(count):
        g.dirichlet(np.ones(k))


def grid_holevo(points, states) -> np.ndarray:
    """Holevo quantity chi(p; states) in bits for every row p of ``points``.

    A grid oracle written against numpy only: all mixtures are formed in
    one batched product and decomposed by one ``eigvalsh`` on the stack.
    """
    points = np.asarray(points, dtype=float)
    states = np.asarray(states, dtype=complex)

    def entropy(stack):
        lam = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
        logs = np.log2(np.where(lam > 0.0, lam, 1.0))
        return -(lam * logs).sum(axis=-1)

    mixtures = np.einsum("gx,xij->gij", points, states)
    return np.maximum(entropy(mixtures) - points @ entropy(states), 0.0)


def mix(v, subset) -> np.ndarray:
    """Uniform mixture (1/|D|) sum_{x in D} V(x) over a nonempty subset."""
    subset = list(subset)
    if not subset:
        raise InvalidStateError("mixture over an empty subset")
    out = np.zeros((v.dim, v.dim), dtype=complex)
    for x in subset:
        out += v.output(x)
    return out / len(subset)


def sample_preimage(f, s: int, m, g: np.random.Generator) -> int:
    """Uniform draw from f_s^{-1}(m) (exactly d_S candidates for m in M)."""
    candidates = bri.preimage(f, s, m)
    if candidates.size == 0:
        raise InvalidStateError(f"empty preimage of {m!r} at seed {s}")
    return int(g.choice(candidates))


def cell_search_step(table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget):
    """Reference oracle: resume a cell-by-cell depth-first search over
    balanced tables.

    ``table`` is n_s x n_x, ``row_counts`` n_s x n_m, ``col_counts``
    n_x x n_m and ``nxt`` (the next value to try per cell) has n_s * n_x
    entries; all are updated in place and indexed ``a[i][j]``.
    Cells are filled row-major; row 0 is preset to the sorted block
    partition and rows from index 2 on are constrained to be
    lexicographically >= their predecessor (symmetry reduction; sound
    because row and column permutations preserve biregularity and section
    spectra).  Row and column counts per output value must never exceed
    d_s / d_x and must reach them exactly on completion, which the
    balanced cell counts force automatically.

    A node is one value tried at one cell.  Returns (status, pos, nodes):
    status 1 = complete table found (state resumes past it on the next
    call), 0 = search space exhausted, -1 = node budget exceeded.  The
    ``nodes`` of a -1 return include the refused node, which the next
    call tries again.  It tries one value per cell, so it only serves to
    enumerate the tables that the row-level
    :func:`cqwiretap._kernels.search_step` and the screen of
    :func:`cqwiretap.bri.construct_exhaustive` are checked against.
    """
    n_cells = n_s * n_x
    nodes = 0
    if pos == n_cells:
        # resuming past a previously returned solution: undo its last cell
        pos -= 1
        r, x = divmod(pos, n_x)
        v = table[r][x]
        row_counts[r][v] -= 1
        col_counts[x][v] -= 1
    while True:
        r, x = divmod(pos, n_x)
        row = table[r]
        # lexicographic lower bound vs the previous row
        lb = 0
        if r >= 2:
            prev = table[r - 1]
            tight = True
            for j in range(x):
                if row[j] != prev[j]:
                    tight = False
                    break
            if tight:
                lb = prev[x]
        v = nxt[pos]
        if v < lb:
            v = lb
        row_count = row_counts[r]
        col_count = col_counts[x]
        advanced = False
        while v < n_m:
            nodes += 1
            if nodes > budget:
                nxt[pos] = v
                return -1, pos, nodes
            if row_count[v] < d_s and col_count[v] < d_x:
                row[x] = v
                row_count[v] += 1
                col_count[v] += 1
                nxt[pos] = v + 1
                pos += 1
                if pos == n_cells:
                    return 1, pos, nodes
                nxt[pos] = 0
                advanced = True
                break
            v += 1
        if advanced:
            continue
        # exhausted this cell: backtrack
        nxt[pos] = 0
        pos -= 1
        if pos < n_x:
            return 0, pos, nodes
        r, x = divmod(pos, n_x)
        v = table[r][x]
        row_counts[r][v] -= 1
        col_counts[x][v] -= 1


def drive(n_s, n_x, n_m, budget):
    """Step :func:`cell_search_step` to exhaustion on 2-D numpy state.

    Row 0 is preset to the sorted block partition, and the kernel is
    called with ``budget`` nodes at a time.  Returns (tables, nodes):
    every complete table in visiting order and the nodes visited, where a
    budget stop's refused node counts once, at the call that tries it
    again.
    """
    d_s, d_x = n_x // n_m, n_s // n_m
    table = np.zeros((n_s, n_x), dtype=np.int64)
    table[0] = np.arange(n_x) // d_s
    row_counts = np.zeros((n_s, n_m), dtype=np.int64)
    row_counts[0] = d_s
    col_counts = np.zeros((n_x, n_m), dtype=np.int64)
    col_counts[np.arange(n_x), table[0]] = 1
    nxt = np.zeros(n_s * n_x, dtype=np.int64)
    pos = n_x
    tables, visited = [], 0
    while True:
        status, pos, nodes = cell_search_step(
            table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget
        )
        visited += nodes - (status == -1)
        if status == 1:
            tables.append(table.copy())
        elif status == 0:
            return tables, visited


def lambda2_per_m(table, regularity_set) -> list[float]:
    """Reference oracle: lambda2 of every m, one section matrix at a time.

    Builds the verified :class:`~cqwiretap.bri.BriFunction`, then takes one
    SVD per m with the tie rule, as the exhaustive search once did for
    every complete table; it only serves to check the batched section
    spectrum of :mod:`cqwiretap.bri`.
    """
    f = bri.BriFunction(table, regularity_set)
    out = []
    for m in f.regularity_set:
        hits = (f.table == m).astype(np.float64)
        sv = np.linalg.svd(hits.T @ hits / (f.d_s * f.d_x), compute_uv=False)
        out.append(1.0 if sv[0] - sv[1] < bri.LAMBDA2_TIE_TOL else float(sv[1]))
    return out


# (seeds, inputs, outputs) of the full enumerations the row search and the
# batched spectrum are checked on: 3,592 tables in all
ENUMERATIONS = [(4, 4, 2), (6, 6, 2), (6, 6, 3), (4, 8, 2), (8, 4, 2)]


@cache
def full_enumeration(n_s, n_x, n_m):
    """``drive`` in one unbounded call, kept for the session; do not mutate."""
    return drive(n_s, n_x, n_m, 10**9)


@cache
def exhaustive_candidates(n_s, n_x, n_m):
    """Every complete table of the canonical search with its per-m lambda2."""
    tables, _ = full_enumeration(n_s, n_x, n_m)
    return [(t, lambda2_per_m(t, range(n_m))) for t in tables]


def holevo_relative_entropy_form(p, v) -> float:
    """chi as D(rho_XV || rho_X (x) PV) on the explicit joint state."""
    p = np.asarray(p, dtype=float)
    k, d = len(v.alphabet), v.dim
    joint = np.zeros((k * d, k * d), dtype=complex)
    for i, (prob, x) in enumerate(zip(p, v.alphabet)):
        joint[i * d : (i + 1) * d, i * d : (i + 1) * d] = prob * v.output(x)
    avg = sum(prob * v.output(x) for prob, x in zip(p, v.alphabet))
    marginal = np.kron(np.diag(p).astype(complex), avg)
    return op.relative_entropy(joint, marginal)


def holevo_average_form(p, v) -> float:
    """chi as the P-average of D(V(x) || PV)."""
    p = np.asarray(p, dtype=float)
    avg = sum(prob * v.output(x) for prob, x in zip(p, v.alphabet))
    total = 0.0
    for prob, x in zip(p, v.alphabet):
        if prob > 0.0:
            total += prob * op.relative_entropy(v.output(x), avg)
    return float(total)


def renyi_relative_entropy(alpha: float, rho, sigma) -> float:
    """Reference oracle: the Renyi relative entropy ``D_alpha`` in bits for
    alpha in (0,1) or (1,inf).

    ``(1/(alpha-1)) log2 tr(rho^alpha sigma^(1-alpha))`` with sigma's
    negative powers taken on its support (pseudo-inverse).  Returns ``inf``
    on support violation when alpha > 1, and when the supports are
    orthogonal for alpha < 1.  ``alpha = 1`` is rejected.  The library's
    chain needs only alpha = 2, as :func:`cqwiretap.operators.exp2_renyi2`.
    """
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    rho, p, u = op._spectra(op._as_square(rho), vectors=True)
    sigma, t, v = op._spectra(op._as_square(sigma), vectors=True)
    op._check_shapes(rho, sigma)
    if op._trace(rho) <= 0.0:
        return 0.0
    if alpha > 1.0 and op._overlaps(rho, t, v)[2]:
        return np.inf
    pa = np.where(p > 0.0, p, 0.0) ** alpha
    mask = op._support_mask(t)
    tb = np.zeros_like(t)
    tb[mask] = t[mask] ** (1.0 - alpha)
    val = np.trace((u * pa) @ u.conj().T @ (v * tb) @ v.conj().T).real
    if val <= 1e-300:
        return np.inf if alpha < 1.0 else -np.inf
    return float(np.log2(val) / (alpha - 1.0))


def support_leq(a, b) -> bool:
    """Reference oracle: whether supp(a) lies in supp(b), both Hermitian PSD."""
    a = op.check_psd(op._as_square(a))
    b, t, v = op._spectra(op._as_square(b), vectors=True)
    op._check_shapes(a, b)
    return op._trace(a) <= 0.0 or not op._overlaps(a, t, v)[2]


def operator_norm(a) -> float:
    """Reference oracle: the largest absolute eigenvalue of a Hermitian matrix."""
    w = np.linalg.eigvalsh(op.check_hermitian(a))
    return float(np.abs(w).max()) if w.size else 0.0


def quadratic_form_bound(sm, omega) -> tuple[float, float]:
    """Reference oracle: <w|P|w> against lambda2 <w|w> + |<w|1>|^2 for a
    :class:`~cqwiretap.bri.SectionMatrix` P.

    The all-ones direction carries the simple top singular value of a
    doubly stochastic symmetric matrix; everything orthogonal to it is
    contracted by lambda2.  Returns (lhs, rhs) for the caller to compare.
    """
    omega = np.asarray(omega, dtype=complex)
    n = sm.matrix.shape[0]
    lhs = float(np.real(omega.conj() @ sm.matrix @ omega))
    ones = np.full(n, 1.0 / np.sqrt(n))
    overlap = np.abs(np.dot(ones, omega)) ** 2
    rhs = float(sm.lambda2 * np.real(np.vdot(omega, omega)) + overlap)
    return lhs, rhs


def random_cq_channel(g: np.random.Generator, n_inputs: int, dim: int):
    outputs = {x: random_density(g, dim) for x in range(n_inputs)}
    return CqChannel(tuple(range(n_inputs)), dim, outputs)


def codeword_channel(t: TransmissionCode, v) -> CqChannel:
    """Reference oracle: the channel c -> V^{(x)n}(x^n_c) seen through the
    codeword map of a transmission code."""
    v_n = tensor_power(v, t.n)
    outputs = {c: v_n.output(x) for c, x in t.codewords.items()}
    return CqChannel(t.messages, v_n.dim, outputs, validate=False)


def derandomize(
    seed_code: TransmissionCode,
    crcode: CommonRandomnessCode,
    n_repeats: int,
    cap: int | None = None,
) -> WiretapCode:
    """Reference oracle: the derandomized code flattened into one wiretap code.

    Encoder: mixture over the uniform seed of the seed codeword followed by
    N independent draws from the seed's inner encoder.  Decoder: coarse
    graining sum_s D'_s (x) D^s_{m_1} (x) ... (x) D^s_{m_N}.  It lists every
    encoder string and builds every decoder on the concatenated space, so
    it only serves to check the blockwise evaluations of the library.
    """
    d = DerandomizedCode(seed_code, crcode, n_repeats)
    dim = check_dim(seed_code.dim * crcode.dim**n_repeats, cap)
    messages = d.messages
    if len(messages) * len(crcode.seeds) > STRING_CAP:
        raise InvalidStateError("derandomized message set exceeds the string cap")
    weight = 1.0 / len(crcode.seeds)
    rows = {}
    decoders = {}
    for mbar in messages:
        row = {}
        for s in crcode.seeds:
            head = seed_code.codewords[s]
            block_rows = [crcode.per_seed[s].encoder.row(m) for m in mbar]
            for combo in itertools.product(*(r.items() for r in block_rows)):
                string = head + tuple(itertools.chain.from_iterable(x for x, _ in combo))
                prob = weight
                for _, p in combo:
                    prob *= p
                if prob > 0.0:
                    row[string] = row.get(string, 0.0) + prob
        rows[mbar] = row
        total = np.zeros((dim, dim), dtype=complex)
        for s in crcode.seeds:
            parts = [seed_code.decoders[s]] + [crcode.per_seed[s].decoders[m] for m in mbar]
            total = total + reduce(np.kron, parts)
        decoders[mbar] = total
    encoder = ClassicalChannel(messages, rows)
    return WiretapCode(encoder, decoders, d.n_total, dim)


def seed_embedded_leakage(f, v, m_dist) -> float:
    """Reference oracle: chi(M; S, V o f_S^{-1}) on the literal joint system.

    The state of message m is the block-diagonal embedding of every seed's
    preimage mixture V o f_s^{-1}(m), each weighted 1/|S|, so the seed
    register is part of the eavesdropper's |S| d-dimensional system.  It
    forms that operator in full, so it only serves to check the per-seed
    leakage of :mod:`cqwiretap.bounds`.
    """
    k, d = f.n_seeds, v.dim
    states = {}
    for i, m in enumerate(f.regularity_set):
        block = np.zeros((k * d, k * d), dtype=complex)
        for s in range(k):
            block[s * d : (s + 1) * d, s * d : (s + 1) * d] = (
                mix(v, bri.preimage(f, s, m)) / k
            )
        states[i] = block
    joint = CqChannel(range(len(f.regularity_set)), k * d, states, validate=False)
    return channels.holevo(m_dist, joint)


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
    """Reference oracle: the typical projector of ``rho**(x) n`` in the
    library's deterministic eigenbasis, assembled at dimension d^n.  The
    library works inside its typical subspace and never forms it."""
    rho = op.check_density(np.asarray(rho, dtype=complex))
    n, delta = typicality._validate_block(n, delta)
    dim_total = check_dim(rho.shape[0] ** n, cap)
    vals, basis = typicality.sorted_eigenbasis(rho)
    q = typicality._clean_spectrum(vals)
    typicality._capped_size(q, n, delta, "project onto")
    strings = typicality._typical_strings(q, n, delta)
    cols = typicality._column_stack([basis] * n, strings)
    return TypicalProjector(
        rho=rho, n=n, delta=delta, eigenvalues=q, basis=basis, strings=strings,
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


def cond_typical_projector(v, xn, delta, cap=None) -> ConditionalTypicalProjector:
    """Reference oracle: the conditional typical projector of a cq channel
    at an input string, typical or not, assembled at dimension d^n; it
    commutes with the product output at the same string."""
    xn = tuple(xn)
    if not xn:
        raise InvalidStateError("input string is empty")
    for x in xn:
        if not v.has_symbol(x):
            raise DimensionMismatchError(f"symbol {x!r} not in channel alphabet")
    _, delta = typicality._validate_block(len(xn), delta)
    dim_total = check_dim(v.dim ** len(xn), cap)
    _, spectra, bases = typicality._symbol_eigenbases(v, set(xn))
    strings = typicality._group_filter(xn, spectra, delta)
    weights = np.array(
        [float(np.prod([spectra[a][j] for a, j in zip(xn, jn)])) for jn in strings]
    )
    cols = typicality._column_stack([bases[a] for a in xn], strings)
    return ConditionalTypicalProjector(
        xn=xn, delta=float(delta), strings=strings, weights=weights,
        projector=_assemble(cols, dim_total),
    )


def dense_compression(v, p, n, delta):
    """Reference oracle: the typicality-compressed outputs, formed densely.

    Every typical input string x maps to
    Pi_avg (Pi_c(x) V^n(x) Pi_c(x)) Pi_avg, with the average state's typical
    projector and the conditional typical projector both assembled at
    dimension d^n.  Also returns min_x tr(V^n(x) Pi_avg), the te7 trace.
    It builds every projector and product output in full, so it only
    serves to check the library's subspace-compressed construction.
    """
    p = channels.check_distribution(p, len(v.alphabet))
    avg = _mixtures(p, np.array(v.states()))
    pi_avg = typical_projector(avg, n, delta).projector
    vn = tensor_power(v, n)
    outputs = {}
    avg_traces = []
    typicality._capped_size(p, n, delta, "list")
    for idx in typicality._typical_strings(p, n, delta):
        xn = tuple(v.alphabet[i] for i in idx)
        pi_cond = cond_typical_projector(v, xn, delta).projector
        rho = vn.output(xn)
        outputs[xn] = pi_avg @ (pi_cond @ rho @ pi_cond) @ pi_avg
        avg_traces.append(float(np.trace(rho @ pi_avg).real))
    return outputs, min(avg_traces)


def typicality_block(v, p, n, delta):
    """The library's block of (v, p, n, delta): the one block of a
    single-length :func:`cqwiretap.typicality._blocks` call."""
    block, = typicality._blocks(v, p, delta, [n])
    return block


def compress_per_string(v, p, n, delta):
    """Reference oracle: the typicality cores K_x built string by string.

    For every typical input string x, in string order,
    M[t, j] = prod_i <a_{t_i}|b^{x_i}_{j_i}> over the average state's
    typical strings t and the conditional typical strings j of x, and
    K_x = M diag(w) M* with w the raw product eigenvalues, validated by its
    own eigensolve.  Returns (cores, tops, epsilon, core): K_x per string,
    the largest eigenvalue of each K_x, the trace deficit of the outputs
    A K_x A* and the mean core.  It repeats the R x R work of every member
    of a type class, so it only serves to check the per-class construction
    of :func:`cqwiretap.typicality._compress`.
    """
    block = typicality_block(v, p, n, delta)
    avg_strings, raw, spectra, overlaps = block.avg_strings, block.raw, block.spectra, block.overlaps
    iso = typicality._column_stack([block.basis] * n, avg_strings)
    cores, tops, deficit = {}, [], 0.0
    for idx in typicality._typical_strings(block.p, n, delta):
        xn = tuple(v.alphabet[i] for i in idx)
        strings = typicality._group_filter(xn, spectra, delta)
        idx = np.array(strings, dtype=np.intp).reshape(len(strings), n)
        m = np.ones((len(avg_strings), len(strings)), dtype=complex)
        w = np.ones(len(strings))
        for pos, a in enumerate(xn):
            m *= overlaps[a][avg_strings[:, pos, None], idx[None, :, pos]]
            w *= raw[a][idx[:, pos]]
        k, spectrum = channels._checked_outputs((xn,), (m * w) @ m.conj().T)
        cores[xn] = k
        tops.append(float(spectrum[-1]) if spectrum.size else 0.0)
        out = iso @ k @ iso.conj().T
        deficit = max(deficit, 1.0 - float(np.trace((out + out.conj().T) / 2.0).real))
    return cores, tops, max(0.0, deficit), sum(cores.values()) / len(cores)


def gathered_mean_core(block, cores):
    """Reference oracle: the mean core (1/|T|) sum_y K_y gathered member by
    member, K_y = K_x[perm][:, perm] of its class core, skipping classes
    whose core is zero.  One R x R gather per typical string, so it only
    serves to check the orbit average of
    :func:`cqwiretap.typicality._mean_core`."""
    mean = np.zeros_like(next(iter(cores.values())))
    for _, key, perm in typicality._member_perms(block):
        if cores[key].any():
            mean += cores[key][np.ix_(perm, perm)]
    return mean / block.size


def member_ordering_minima(v, p, n, delta):
    """Reference oracle: per typical string y, the smallest eigenvalue of
    V^n(y) - A K_y A*, with K_y its permuted class core, decomposed at
    dimension d^n for every member, outside the chain's check."""
    block = typicality_block(v, p, n, delta)
    cores, _ = typicality._compress(block)
    vn = tensor_power(v, n)
    return {
        y: float(np.linalg.eigvalsh(vn.output(y) - bounds._sandwich(block.iso, k))[0])
        for y, k in typicality._member_cores(block, cores)
    }


def wedged_pair(seed: int, eta: float, diagonal: bool) -> tuple:
    """Three random qubit inputs and a fourth, in both channels the mixture
    (1 - eta) x_1 + eta x_0, with W then V drawn from ``default_rng(seed)``:
    diagonal outputs with Dirichlet(1/2, 1/2) spectra, or generic ones.  The
    fourth input makes H_W - H_V nearly singular along one direction of a
    face that holds it."""
    g = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        if diagonal:
            outputs = [np.diag(q).astype(complex) for q in g.dirichlet([0.5, 0.5], size=3)]
        else:
            outputs = [random_density(g, 2) for _ in range(3)]
        outputs.append((1 - eta) * outputs[1] + eta * outputs[0])
        pair.append(CqChannel(range(4), 2, dict(enumerate(outputs))))
    return tuple(pair)


def simplex_grid(k: int) -> np.ndarray:
    """The capacity search's grid, in its order: 10,001 points for k = 2,
    10,011 (resolution 140, first weight outer) for k = 3, the vertex for
    k = 1."""
    if k == 1:
        return np.ones((1, 1))
    if k == 2:
        return np.array([[a, 10000 - a] for a in range(10001)]) / 10000
    return np.array(
        [[a, b, 140 - a - b] for a in range(141) for b in range(141 - a)]
    ) / 140


def capacity_sequential(w, v, rng=None, starts=16, max_iters=400):
    """Reference oracle: the capacity search with one start at a time.

    Each of the uniform start, the ``starts`` Dirichlet starts and the grid
    point (k <= 3) ascends alone, with its own one-dimensional simplex
    projection, gradient clean-up and Newton solve, and stops before a
    trial once ``max g - min_{p_x > 1e-12} g_x`` is at most
    ``channels._KKT_TOL``.  Each time it moves (and at its start) it tries
    its Newton point, where the model has a maximum on its face, and the
    steps ``t 2^j``, j = 0..3, one trial after another, and takes the best
    that raises its value; after a rejection it tries one halved step at a
    time.  An accepted step s leaves the step at s/2.  The grid point is
    the first exact maximum over every point of :func:`simplex_grid`, with
    no screen.  The reduction is by best value with ties to the lowest
    restart index, then the grid rule.  It repeats the eigensolves of every
    start and of every grid point, so it only serves to check the lockstep
    batch and the screened grid of
    :func:`cqwiretap.channels.capacity_single_letter`.
    """
    rng = rng or channels._default_rng()
    k = len(w.alphabet)
    (sw, ew), (sv, ev) = channels._validated_stack(w.states()), channels._validated_stack(v.states())

    def objective(p):
        return channels._chi(p, sw, ew) - channels._chi(p, sv, ev)

    def project(y):
        u = np.sort(y)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, len(y) + 1)
        rho = idx[u - css / idx > 0][-1]
        return np.clip(y - css[rho - 1] / rho, 0.0, None)

    def gradient(p):
        # the finite gradient and the curvature H_W - H_V, None where the
        # point takes no Newton trial
        (gw, hw), (gv, hv) = (
            channels._chi_gradient(p, s, e, curvature=True) for s, e in ((sw, ew), (sv, ev))
        )
        with np.errstate(invalid="ignore"):
            g = gw - gv
        ok = np.isfinite(g)
        h = hw - hv
        h = h if ok.all() and np.isfinite(h).all() else None
        if ok.all():
            return g, h
        finite = g[ok]
        top = finite.max() if finite.size else 0.0
        bottom = finite.min() if finite.size else 0.0
        return np.where(ok, g, np.where(g == -np.inf, bottom - 100.0, top + 100.0)), h

    def newton(p, g, h):
        # [[H_SS, 1], [1, 0]] [delta; mu] = [-g_S; 0] on the support S, in
        # the (k + 1) x (k + 1) layout of the search (-1 on the diagonal
        # off S), where the model has a maximum on the face: one positive
        # eigenvalue and k negative ones
        on = p > channels._SUPPORT_FLOOR
        if h is None or on.sum() < 2:
            return None
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = np.where(np.outer(on, on), h, -np.eye(k))
        kkt[:k, k] = kkt[k, :k] = on
        lam = np.linalg.eigvalsh(kkt)
        if (lam > 0.0).sum() != 1 or (lam < 0.0).sum() != k:
            return None
        rhs = np.append(np.where(on, -g, 0.0), 0.0)[:, None]
        try:
            delta = np.linalg.solve(kkt, rhs)[:k, 0]
        except np.linalg.LinAlgError:
            return None
        # at most 0.9 of the way to the face's boundary
        shrink = on & (delta < 0.0)
        reach = (p[shrink] / -delta[shrink]).min(initial=np.inf)
        point = np.where(on, p + min(1.0, channels._BOUNDARY_SHARE * reach) * delta, 0.0)
        return point if np.isfinite(point).all() else None

    def ascend(p):
        val = float(objective(p))
        step, stall, spent = 0.25, 0, 0
        while spent < max_iters:
            if stall == 0:
                g, h = gradient(p)
                if g.max() - g[p > channels._SUPPORT_FLOOR].min() <= channels._KKT_TOL:
                    return p, val, True
                point = newton(p, g, h)
                # a Newton trial keeps the step; a step trial s leaves s/2
                ys = [] if point is None else [(step, point)]
                ys += [(step * 2.0**j / 2, p + step * 2.0**j * g) for j in range(4)]
                ys = ys[: max_iters - spent]
                spent += len(ys)
                best = None
                for next_step, y in ys:
                    trial = project(y)
                    trial_val = float(objective(trial))
                    if trial_val > val + 1e-15 and (best is None or trial_val > best[0]):
                        best = trial_val, next_step, trial
                if best is None:
                    step, stall = step * 0.5, len(ys)
                else:
                    val, step, p = best
            else:
                trial = project(p + step * g)
                trial_val = float(objective(trial))
                spent += 1
                if trial_val > val + 1e-15:
                    p, val, step, stall = trial, trial_val, step * 0.5, 0
                else:
                    step, stall = step * 0.5, stall + 1
            if stall and (step < 1e-13 or stall > 40):
                return p, val, True
        return p, val, False

    candidates = [np.full(k, 1.0 / k)] + [rng.dirichlet(np.ones(k)) for _ in range(starts)]
    best_p, best_val, best_conv = None, -np.inf, False
    for p0 in candidates:
        p, val, conv = ascend(p0)
        if val > best_val:
            best_p, best_val, best_conv = p, val, conv
    if k <= 3:
        points = simplex_grid(k)
        # every grid point evaluated exactly, 2048 matrix entries per block
        chunk = max(1, 2048 // max(w.dim, v.dim) ** 2)
        grid_best, grid_arg = -np.inf, None
        for start in range(0, len(points), chunk):
            block = points[start : start + chunk]
            vals = objective(block)
            i = int(np.argmax(vals))
            if vals[i] > grid_best:
                grid_best, grid_arg = float(vals[i]), block[i]
        p, val, conv = ascend(grid_arg)
        if max(val, grid_best) > best_val:
            if val >= grid_best:
                best_p, best_val, best_conv = p, val, conv
            else:
                best_p, best_val, best_conv = grid_arg, grid_best, True
    return channels.CapacityResult(float(best_val), best_p, best_conv)
