"""Biregular functions f: S x X -> N, their section matrices and spectra.

A function is biregular on a regularity set M when every seed's preimage
of each m in M has one fixed size d_S and every input appears in each m's
preimage under one fixed count d_X of seeds (both nonzero, both constant
across M), forcing the size identity d_X |X| = d_S |S|.  The section
matrix of m counts seeds under which two inputs collide on m, normalized
to a symmetric doubly stochastic matrix; its second singular value
lambda2 is the quantity the leakage bounds consume, and the function is
irreducible when every lambda2 is strictly below 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import RowSearch, search_step
from .config import STRING_CAP, TABLE_CAP
from .errors import (
    ConstructionUnverifiedError,
    InvalidStateError,
    ResourceCapError,
    VerificationError,
)

LAMBDA2_TIE_TOL = 1e-10


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a biregularity check.

    ``violation`` is None when ok, else a triple: (m, "s", s) for a seed
    row whose preimage size disagrees with seed 0's, (m, "x", x) for an
    input column off seed-count, or (m, "constant", None) when m's
    constants differ from the first regular output's.
    """

    ok: bool
    d_s: int | None
    d_x: int | None
    violation: tuple | None = None
    message: str = ""


def verify_biregular(table, regularity_set) -> RegularityReport:
    """Check both regularity conditions for every m in the regularity set.

    Constants are anchored at seed row 0 / input column 0 of the first m;
    the first disagreeing (m, s) or (m, x) is reported.  Checks run in
    regularity-set order, rows before columns.
    """
    table = np.asarray(table)
    if table.ndim != 2:
        raise InvalidStateError(f"table must be 2-dimensional, got shape {table.shape}")
    regularity_set = tuple(regularity_set)
    if not regularity_set:
        raise InvalidStateError("regularity set is empty")
    d_s = d_x = None
    for m in regularity_set:
        hits = table == m
        row_counts = hits.sum(axis=1)
        col_counts = hits.sum(axis=0)
        d_s_m, d_x_m = int(row_counts[0]), int(col_counts[0])
        if d_s_m == 0:
            return RegularityReport(
                False, None, None, (m, "s", 0), f"empty preimage of {m!r} at seed 0"
            )
        bad = np.nonzero(row_counts != d_s_m)[0]
        if bad.size:
            return RegularityReport(
                False,
                None,
                None,
                (m, "s", int(bad[0])),
                f"seed {int(bad[0])} has {int(row_counts[bad[0]])} preimages of {m!r}, "
                f"expected {d_s_m}",
            )
        if d_x_m == 0:
            return RegularityReport(
                False, None, None, (m, "x", 0), f"input 0 never maps to {m!r}"
            )
        bad = np.nonzero(col_counts != d_x_m)[0]
        if bad.size:
            return RegularityReport(
                False,
                None,
                None,
                (m, "x", int(bad[0])),
                f"input {int(bad[0])} maps to {m!r} under {int(col_counts[bad[0]])} seeds, "
                f"expected {d_x_m}",
            )
        if d_s is None:
            d_s, d_x = d_s_m, d_x_m
        elif (d_s_m, d_x_m) != (d_s, d_x):
            return RegularityReport(
                False,
                None,
                None,
                (m, "constant", None),
                f"constants ({d_s_m}, {d_x_m}) for {m!r} differ from ({d_s}, {d_x})",
            )
    return RegularityReport(True, d_s, d_x)


@dataclass(frozen=True)
class SectionMatrix:
    """Normalized seed-collision matrix of one regular output."""

    m: object
    matrix: np.ndarray
    lambda2: float

    def __post_init__(self):
        p = self.matrix
        n = p.shape[0]
        if np.max(np.abs(p - p.T)) > 1e-12:
            raise InvalidStateError("section matrix must be symmetric")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise InvalidStateError("section matrix rows must sum to 1")
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-12:
            raise InvalidStateError("section matrix columns must sum to 1")
        if n and p.min() < 0.0:
            raise InvalidStateError("section matrix entries must be nonnegative")


class BriFunction:
    """A verified-biregular function with measured spectral data.

    Biregularity is enforced at construction (a failed check raises
    :class:`VerificationError` carrying the report).  Irreducibility
    (every lambda2 < 1) is measured, not assumed: the ``irreducible``
    property reports it, and near-ties at the top singular value are
    conservatively reported as lambda2 = 1.
    """

    __slots__ = ("table", "regularity_set", "d_s", "d_x", "_sections")

    def __init__(self, table, regularity_set):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int64))
        regularity_set = tuple(regularity_set)
        report = verify_biregular(table, regularity_set)
        if not report.ok:
            raise VerificationError(f"not biregular: {report.message}", report=report)
        table.setflags(write=False)
        self.table = table
        self.regularity_set = regularity_set
        self.d_s = report.d_s
        self.d_x = report.d_x
        self._sections = {}

    @property
    def n_seeds(self) -> int:
        return self.table.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.table.shape[1]

    @property
    def outputs(self) -> tuple:
        return tuple(sorted(set(np.unique(self.table).tolist()) | set(self.regularity_set)))

    @property
    def irreducible(self) -> bool:
        return all(lambda2(self, m) < 1.0 for m in self.regularity_set)

    def section(self, m) -> SectionMatrix:
        if m not in self.regularity_set:
            raise InvalidStateError(f"{m!r} is not in the regularity set")
        if not self._sections:
            matrices, lams = _section_spectra(self.table, self.regularity_set, self.d_s, self.d_x)
            self._sections = {
                key: SectionMatrix(key, matrix, lam)
                for key, matrix, lam in zip(self.regularity_set, matrices, lams)
            }
        return self._sections[m]


def _section_matrices(tables, regularity_set, d_s, d_x):
    """Section matrices hits_m^T hits_m / (d_S d_X) of every m, stacked
    on axis -3, for one table (n_s, n_x) or a stack (..., n_s, n_x)."""
    hits = np.stack([tables == m for m in regularity_set], axis=-3).astype(np.float64)
    return np.swapaxes(hits, -1, -2) @ hits / (d_s * d_x)


def _lambda2s(matrices):
    """lambda2 of every section matrix in a stack, by one batched SVD.

    A tie with the top singular value (difference below
    ``LAMBDA2_TIE_TOL``) gives lambda2 = 1.0; a one-input table gives
    lambda2 = 0.0, since the complement of the all-ones direction is {0}.
    """
    if matrices.shape[-1] == 1:
        return np.zeros(matrices.shape[:-2])
    sv = np.linalg.svd(matrices, compute_uv=False)
    return np.where(sv[..., 0] - sv[..., 1] < LAMBDA2_TIE_TOL, 1.0, sv[..., 1])


def _section_spectra(table, regularity_set, d_s, d_x):
    """Section matrices and lambda2 of every m in the regularity set,
    as (matrices, lambda2s) in regularity-set order."""
    matrices = _section_matrices(table, regularity_set, d_s, d_x)
    return matrices, _lambda2s(matrices).tolist()


def _connected(adjacency):
    """Whether each boolean adjacency matrix of a stack (..., n, n) with a
    full diagonal is connected, by repeated boolean squaring."""
    reach = adjacency
    for _ in range((adjacency.shape[-1] - 1).bit_length()):
        reach = reach @ reach
    return reach[..., 0, :].all(axis=-1)


def _first_passing(tables, regularity_set, d_s, d_x, lambda2_target):
    """Index of the first table of a stack whose max lambda2 meets the
    target, or None, by one batched SVD.  Below target 1, tables with a
    disconnected collision graph for some m are dropped before the SVD,
    as :func:`construct_exhaustive` explains."""
    matrices = _section_matrices(tables, regularity_set, d_s, d_x)
    keep = np.arange(len(tables))
    if lambda2_target < 1.0:
        keep = np.flatnonzero(_connected(matrices > 0).all(axis=-1))
        if not keep.size:
            return None
    passing = keep[_lambda2s(matrices[keep]).max(axis=-1) <= lambda2_target]
    return int(passing[0]) if passing.size else None


def lambda2(f: BriFunction, m) -> float:
    """Second largest singular value of the section matrix of m.

    A tie with the top singular value (difference below 1e-10) is
    reported as exactly 1.0, failing irreducibility conservatively.  A
    one-input function has no second singular value; its lambda2 is 0.0.
    """
    return f.section(m).lambda2


def preimage(f: BriFunction, s: int, m) -> np.ndarray:
    """Inputs x with f_s(x) = m, ascending."""
    return np.nonzero(f.table[s] == m)[0]


def construct_exhaustive(
    n_seeds: int,
    n_inputs: int,
    n_outputs: int,
    lambda2_target: float,
    cap: int = TABLE_CAP,
):
    """Search all balanced tables for one with max lambda2 <= target.

    The regularity set is the full output set {0..n_outputs-1}, so every
    row partitions the inputs into n_outputs blocks of d_S and every
    column meets each output exactly d_X times; divisibility failures
    (including more outputs than inputs) return None immediately.  Sizes
    must be integers (not bools) and the target a number other than nan.

    Enumeration is canonical, which preserves completeness up to row and
    column permutations: row 0 is the sorted block partition, row 1 any
    balanced row and each later row lexicographically at or after its
    predecessor.  The balanced rows, n_inputs! / (d_S!)^n_outputs of
    them, are listed once in lexicographic order; more than
    :data:`~cqwiretap.config.STRING_CAP` raises a resource error before
    any is listed.  Rows 1 to n_seeds - 2 are searched depth first, each
    from its predecessor's index, so complete tables come out in the
    lexicographic order of their rows.  The last row is forced: after
    n_seeds - 1 rows each column lacks exactly one value, so that value
    is the only candidate, and it is looked up and checked against the
    lexicographic bound.  A search node is one balanced row tested at one
    row position (the lookup counts as one); visiting more than ``cap``
    nodes raises a resource error with progress attached, unless a table
    found within the cap passes.

    :func:`~cqwiretap._kernels.search_step` hands complete tables back in
    batches of 1, 2, 4, ... up to 64.  Each batch is screened in order by
    one batched section spectrum, and a :class:`BriFunction` is built only
    for the first table whose max lambda2 meets the target.  Below target
    1, a table whose collision graph for some m is disconnected is
    dropped before the SVD: that section matrix is block diagonal with
    doubly stochastic blocks, so 1 is a repeated singular value, which
    the tie rule reports as lambda2 = 1.0 and the target rejects.
    """
    sizes = (n_seeds, n_inputs, n_outputs)
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
        raise InvalidStateError(f"sizes must be integers, got {sizes!r}")
    n_seeds, n_inputs, n_outputs = map(int, sizes)
    if math.isnan(lambda2_target):
        raise InvalidStateError("lambda2 target is nan")
    if n_outputs < 1 or n_seeds < 1 or n_inputs < 1:
        raise InvalidStateError("sizes must be positive")
    if n_inputs % n_outputs or n_seeds % n_outputs:
        return None
    d_s = n_inputs // n_outputs
    d_x = n_seeds // n_outputs
    regularity_set = tuple(range(n_outputs))

    if n_seeds == 1:
        table = np.arange(n_inputs)[None, :] // d_s
        if _first_passing(table[None], regularity_set, d_s, d_x, lambda2_target) is None:
            return None
        return BriFunction(table, regularity_set)

    n_rows = math.factorial(n_inputs) // math.factorial(d_s) ** n_outputs
    if n_rows > STRING_CAP:
        raise ResourceCapError(
            f"{n_rows} balanced rows exceed the listing cap {STRING_CAP}",
            requested=n_rows,
            cap=STRING_CAP,
        )
    search = RowSearch(n_seeds, n_inputs, n_outputs)
    used, want = 0, 1
    while True:
        found = []
        status, pos, nodes = search_step(search, found, want, cap - used)
        used += nodes
        if found:
            tables = search.values[np.array(found)]
            i = _first_passing(tables, regularity_set, d_s, d_x, lambda2_target)
            if i is not None:
                return BriFunction(tables[i], regularity_set)
        if status == 0:
            return None
        if status == -1:
            raise ResourceCapError(
                f"table search exceeded {cap} nodes",
                requested=used,
                cap=cap,
                progress=f"open row {pos}",
            )
        want = min(2 * want, 64)


def construct_seeded(k: int, d: int, cap: int = TABLE_CAP) -> BriFunction:
    """Shifted-block candidate on S = X = Z_{2^k d}, gated by measurement.

    f_s(x) = floor(((x + s) mod 2^k d) / d) with regularity set
    {0..2^k - 1} is biregular by construction, but its spectral gap is a
    heuristic: the constructor verifies biregularity and requires the
    measured max lambda2 to meet the 4/d certificate, raising a
    construction-unverified error carrying the measured value otherwise.
    """
    if k < 1:
        raise InvalidStateError(f"k must be >= 1, got {k}")
    if d < 3:
        raise InvalidStateError(f"d must be >= 3, got {d}")
    length = (2**k) * d
    if length * length > cap:
        raise ResourceCapError(
            f"table with {length}x{length} cells exceeds cap {cap}",
            requested=length * length,
            cap=cap,
        )
    s_idx = np.arange(length).reshape(-1, 1)
    x_idx = np.arange(length).reshape(1, -1)
    table = ((x_idx + s_idx) % length) // d
    regularity_set = tuple(range(2**k))
    try:
        f = BriFunction(table, regularity_set)
    except VerificationError as exc:
        raise ConstructionUnverifiedError(
            f"seeded candidate k={k}, d={d} is not biregular: {exc}",
            report=exc.report,
        ) from exc
    measured = max(lambda2(f, m) for m in regularity_set)
    if measured > 4.0 / d:
        raise ConstructionUnverifiedError(
            f"seeded candidate k={k}, d={d} measured lambda2 {measured:.6f} "
            f"exceeds the 4/d certificate {4.0 / d:.6f}",
            measured_lambda2=measured,
        )
    return f
