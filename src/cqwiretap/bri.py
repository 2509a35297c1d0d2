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

from dataclasses import dataclass

import numpy as np

from ._kernels import search_step
from .config import TABLE_CAP
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


def _section_spectra(table, regularity_set, d_s, d_x):
    """Section matrices and lambda2 of every m in the regularity set.

    The m-section matrices hits_m^T hits_m / (d_S d_X) are formed as one
    stack and their singular values taken by one batched SVD.  A tie with
    the top singular value (difference below ``LAMBDA2_TIE_TOL``) gives
    lambda2 = 1.0; a one-input table gives lambda2 = 0.0, since the
    complement of the all-ones direction is {0}.  Returns
    (matrices, lambda2s) in regularity-set order.
    """
    hits = np.stack([table == m for m in regularity_set]).astype(np.float64)
    matrices = hits.transpose(0, 2, 1) @ hits / (d_s * d_x)
    if matrices.shape[-1] == 1:
        return matrices, [0.0] * len(regularity_set)
    sv = np.linalg.svd(matrices, compute_uv=False)
    lams = np.where(sv[:, 0] - sv[:, 1] < LAMBDA2_TIE_TOL, 1.0, sv[:, 1])
    return matrices, lams.tolist()


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
    (including more outputs than inputs) return None immediately.
    Enumeration is canonical (first row a sorted block partition, later
    rows lexicographically nondecreasing) which preserves completeness up
    to row/column permutations; visiting more than ``cap`` search nodes
    raises a resource error with progress attached.

    The search state is held in Python lists and stepped by
    :func:`~cqwiretap._kernels.search_step`.  Each complete table is
    screened by one batched section spectrum; a :class:`BriFunction` is
    built only for the first table whose max lambda2 meets the target.
    """
    if n_outputs < 1 or n_seeds < 1 or n_inputs < 1:
        raise InvalidStateError("sizes must be positive")
    if n_inputs % n_outputs or n_seeds % n_outputs:
        return None
    d_s = n_inputs // n_outputs
    d_x = n_seeds // n_outputs
    regularity_set = tuple(range(n_outputs))

    def screened(rows):
        table = np.array(rows, dtype=np.int64)
        if max(_section_spectra(table, regularity_set, d_s, d_x)[1]) <= lambda2_target:
            return BriFunction(table, regularity_set)
        return None

    table = [[0] * n_inputs for _ in range(n_seeds)]
    table[0] = [x // d_s for x in range(n_inputs)]
    if n_seeds == 1:
        return screened(table)

    row_counts = [[0] * n_outputs for _ in range(n_seeds)]
    row_counts[0] = [d_s] * n_outputs
    col_counts = [[0] * n_outputs for _ in range(n_inputs)]
    for x, v in enumerate(table[0]):
        col_counts[x][v] = 1
    nxt = [0] * (n_seeds * n_inputs)
    pos = n_inputs
    used = 0
    while True:
        status, pos, nodes = search_step(
            table,
            nxt,
            row_counts,
            col_counts,
            pos,
            n_seeds,
            n_inputs,
            n_outputs,
            d_s,
            d_x,
            cap - used,
        )
        used += nodes
        if status == 0:
            return None
        if status == -1:
            raise ResourceCapError(
                f"table search exceeded {cap} nodes",
                requested=used,
                cap=cap,
                progress=f"deepest open cell at row {pos // n_inputs}",
            )
        f = screened(table)
        if f is not None:
            return f


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
