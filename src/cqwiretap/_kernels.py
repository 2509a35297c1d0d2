"""The balanced-table search kernel.

The exhaustive search over balanced BRI tables is loop-bound at desk
scale (up to 10^7 visited nodes); it runs in pure Python, resumable
under a node budget.  Its state is indexed as ``table[r][x]``, so it runs
on nested Python lists, which :func:`cqwiretap.bri.construct_exhaustive`
passes because a list cell reads and writes as a plain ``int``, and
equally on 2-D integer arrays.
"""

# there is no compiled path; perfbench records these in its run metadata
HAS_NUMBA = USE_NUMBA = False


def search_step(table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget):
    """Resume a depth-first search over balanced tables.

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
    call tries again.
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
