"""The balanced-table search kernel.

An exhaustive BRI search fills a table one row at a time.  Every row of a
balanced table holds each output d_S times, so the candidates for a row
are the balanced rows, listed once in lexicographic order by
:class:`RowSearch`.  Each row is packed into one Python int with a field
per (column, value) pair, and the column counts of a partial table are
packed the same way, so testing a row against them is one AND and adding
it one addition.  The last row is forced by the others and is looked up,
not searched.  :func:`search_step` runs the search in pure Python,
resumable under a node budget, and hands complete tables back in batches
for :func:`cqwiretap.bri.construct_exhaustive` to screen.
"""

import numpy as np

# there is no compiled path; perfbench records these in its run metadata
HAS_NUMBA = USE_NUMBA = False


def balanced_rows(n_x, n_m, d_s):
    """Every row of n_x cells holding each value 0..n_m-1 exactly d_s
    times, in lexicographic order, as an (n_rows, n_x) uint8 array
    (n_m <= 255)."""
    counts = np.zeros((1, n_m), dtype=np.int64)
    eye = np.eye(n_m, dtype=np.int64)
    levels = []
    for _ in range(n_x):
        # row-major nonzero keeps the prefixes in order, values ascending
        prefix, v = (counts < d_s).nonzero()
        counts = counts[prefix]
        counts += eye[v]
        levels.append((prefix, v))
    rows = np.empty((len(counts), n_x), dtype=np.uint8)
    idx = np.arange(len(counts))
    for x in range(n_x - 1, -1, -1):
        prefix, v = levels[x]
        rows[:, x] = v[idx]
        idx = prefix[idx]
    return rows


class RowSearch:
    """State of a depth-first search over n_s x n_x balanced tables, n_s >= 2.

    ``values`` lists the balanced rows in lexicographic order and ``rows``
    the same rows packed, then a sentinel 0: value v in column x sets the
    low bit of field x * n_m + v, each field ``width`` = bit_length(d_X) + 1
    bits wide.  ``counts[r]`` holds the column counts of rows 0..r-1, each
    field offset by 2^(width-1) - d_X so that its high bit is set exactly
    when the column holds that value d_X times; ``high`` has every high
    bit set.  ``picks[r]`` is the index of row r (or the next candidate to
    try at the open position ``pos``).  Row 0 is the first balanced row,
    the sorted block partition.
    """

    __slots__ = ("values", "rows", "lookup", "high", "shift", "picks", "counts", "pos")

    def __init__(self, n_s, n_x, n_m):
        d_s, d_x = n_x // n_m, n_s // n_m
        width = d_x.bit_length() + 1
        unit = np.array(
            [[1 << width * (x * n_m + v) for v in range(n_m)] for x in range(n_x)], dtype=object
        )
        self.values = balanced_rows(n_x, n_m, d_s)
        packed = unit[0][self.values[:, 0]]
        for x in range(1, n_x):
            packed = packed + unit[x][self.values[:, x]]
        self.rows = packed.tolist()
        self.lookup = dict(zip(self.rows, range(len(self.rows))))
        self.rows.append(0)
        self.shift = width - 1
        fields = int(unit.sum())
        self.high = fields << self.shift
        self.picks = [0] * n_s
        self.counts = [0] * n_s
        self.counts[1] = fields * ((1 << self.shift) - d_x) + self.rows[0]
        self.pos = 1


def search_step(search, found, want, budget):
    """Resume ``search`` until ``want`` more complete tables are found.

    Complete tables are appended to ``found`` as lists of n_s row indices
    into ``search.values``, in the lexicographic order of their rows 1 to
    n_s - 1: row 1 may be any balanced row, and each later row starts at
    its predecessor's index (symmetry reduction; sound because row and
    column permutations preserve biregularity and section spectra).  A
    row fits when no column already holds one of its values d_X times.
    After n_s - 1 rows each column lacks exactly one value, so the last
    row is ``high - counts``, found by one dict lookup and kept when it
    meets the lexicographic bound.

    A node is one balanced row tested at one row position; the lookup of
    the last row is one node.  Returns (status, pos, nodes): status 1 =
    ``want`` tables found (the state resumes past them on the next call),
    0 = search space exhausted, -1 = node budget exceeded.  The ``nodes``
    of a -1 return include the refused node, which the next call tries
    again; ``pos`` is the open row position.
    """
    rows, lookup, high, shift = search.rows, search.lookup, search.high, search.shift
    picks, counts, pos = search.picks, search.counts, search.pos
    last = len(picks) - 1
    n_rows = len(rows) - 1  # rows ends in the sentinel 0, which always fits
    nodes = 0
    while True:
        if pos == last:
            if nodes == budget:
                search.pos = pos
                return -1, pos, nodes + 1
            nodes += 1
            j = lookup[high - counts[pos]]
            if pos == 1 or j >= picks[pos - 1]:
                picks[pos] = j
                found.append(picks[:])
                want -= 1
        else:
            c = counts[pos]
            full = (c & high) >> shift
            start = i = picks[pos]
            while rows[i] & full:
                i += 1
            # the rows start..i-1 are rejected and row i, if real, fits
            tested = i - start + (i < n_rows)
            if nodes + tested > budget:
                picks[pos] = start + budget - nodes
                search.pos = pos
                return -1, pos, budget + 1
            nodes += tested
            if i < n_rows:
                # descend, the next row starting at index i
                picks[pos] = i
                pos += 1
                counts[pos] = c + rows[i]
                picks[pos] = i
                continue
        # this position is exhausted: advance the row above it
        pos -= 1
        if pos == 0:
            search.pos = pos
            return 0, pos, nodes
        picks[pos] += 1
        if not want:
            search.pos = pos
            return 1, pos, nodes
