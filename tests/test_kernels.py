"""Tests for the balanced-table search kernel, driven to exhaustion."""

import numpy as np

from cqwiretap._kernels import search_step
from cqwiretap.bri import verify_biregular


def drive(n_s, n_x, n_m, d_s, d_x, budget):
    """Mirror the construct_exhaustive state and step to exhaustion."""
    table = np.zeros((n_s, n_x), dtype=np.int64)
    table[0] = np.arange(n_x) // d_s
    row_counts = np.zeros((n_s, n_m), dtype=np.int64)
    row_counts[0] = d_s
    col_counts = np.zeros((n_x, n_m), dtype=np.int64)
    col_counts[np.arange(n_x), table[0]] = 1
    nxt = np.zeros(n_s * n_x, dtype=np.int64)
    pos = n_x
    solutions = []
    while True:
        status, pos, _ = search_step(
            table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget
        )
        if status == 1:
            solutions.append(table.copy())
        elif status == 0:
            return solutions


class TestSearchStep:
    def test_solutions_are_biregular(self):
        solutions = drive(4, 4, 2, 2, 2, 10**7)
        assert solutions
        for table in solutions:
            report = verify_biregular(table, (0, 1))
            assert report.ok
            assert (report.d_s, report.d_x) == (2, 2)

    def test_canonical_rows_nondecreasing(self):
        solutions = drive(4, 4, 2, 2, 2, 10**7)
        for table in solutions:
            assert list(table[0]) == [0, 0, 1, 1]
            for r in range(2, 4):
                assert list(table[r]) >= list(table[r - 1])
