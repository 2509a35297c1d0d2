"""The balanced-table search kernel.

The exhaustive search over balanced BRI tables is loop-bound at desk
scale (up to 10^7 visited nodes); it runs in pure Python, resumable
under a node budget.
"""

# there is no compiled path; perfbench records these in its run metadata
HAS_NUMBA = USE_NUMBA = False


def search_step(table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget):
    """Resume a depth-first search over balanced tables.

    Cells are filled row-major; row 0 is preset to the sorted block
    partition and rows from index 2 on are constrained to be
    lexicographically >= their predecessor (symmetry reduction; sound
    because row and column permutations preserve biregularity and section
    spectra).  Row and column counts per output value must never exceed
    d_s / d_x and must reach them exactly on completion, which the
    balanced cell counts force automatically.

    Returns (status, pos, nodes): status 1 = complete table found (state
    resumes past it on the next call), 0 = search space exhausted,
    -1 = node budget exceeded.
    """
    n_cells = n_s * n_x
    nodes = 0
    if pos == n_cells:
        # resuming past a previously returned solution: undo its last cell
        pos -= 1
        r = pos // n_x
        x = pos - r * n_x
        v = table[r, x]
        row_counts[r, v] -= 1
        col_counts[x, v] -= 1
    while True:
        r = pos // n_x
        x = pos - r * n_x
        # lexicographic lower bound vs the previous row
        lb = 0
        if r >= 2:
            tight = True
            for j in range(x):
                if table[r, j] != table[r - 1, j]:
                    tight = False
                    break
            if tight:
                lb = table[r - 1, x]
        v = nxt[pos]
        if v < lb:
            v = lb
        advanced = False
        while v < n_m:
            nodes += 1
            if nodes > budget:
                nxt[pos] = v
                return -1, pos, nodes
            if row_counts[r, v] < d_s and col_counts[x, v] < d_x:
                table[r, x] = v
                row_counts[r, v] += 1
                col_counts[x, v] += 1
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
        r = pos // n_x
        x = pos - r * n_x
        v = table[r, x]
        row_counts[r, v] -= 1
        col_counts[x, v] -= 1
