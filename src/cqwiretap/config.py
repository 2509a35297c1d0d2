"""Resource caps and numeric tolerances.

Caps keep every computation at desk scale: dense operators up to
``DIM_CAP``, string enumerations up to ``STRING_CAP``, combinatorial table
searches up to ``TABLE_CAP`` visited nodes.  Functions that materialize
operators take an explicit ``cap`` argument that overrides ``DIM_CAP``.
"""

# operator dimension for any materialized matrix (kron products included)
DIM_CAP = 4096
# listed strings: typical-set size |T| (summed type-class sizes, not |X|^n)
# and message-seed pairs of a derandomized code's eavesdropper channel
STRING_CAP = 10**6
# visited nodes in exhaustive BRI table search
TABLE_CAP = 10**7

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
EIG_FLOOR = -1e-10
TOL_SUBPOVM = 1e-9
SUPPORT_RTOL = 1e-12
TOL_ROWSUM = 1e-12
TOL_BOUND = 1e-9


def dim_cap(override: int | None = None) -> int:
    """Effective operator dimension cap: ``override`` when given, else
    :data:`DIM_CAP`."""
    return DIM_CAP if override is None else int(override)


def check_dim(dim: int, override: int | None = None) -> int:
    """Validate a materialized operator dimension against the cap."""
    from .errors import ResourceCapError

    cap = dim_cap(override)
    if dim > cap:
        raise ResourceCapError(
            f"operator dimension {dim} exceeds cap {cap}",
            requested=dim,
            cap=cap,
        )
    return dim
