"""Tests for the balanced-table search kernel, driven to exhaustion."""

import pytest

from conftest import drive, full_enumeration
from cqwiretap.bri import verify_biregular


class TestSearchStep:
    def test_solutions_are_biregular(self):
        solutions, _ = drive(4, 4, 2, 10**7)
        assert solutions
        for table in solutions:
            report = verify_biregular(table, (0, 1))
            assert report.ok
            assert (report.d_s, report.d_x) == (2, 2)

    def test_canonical_rows_nondecreasing(self):
        solutions, _ = drive(4, 4, 2, 10**7)
        for table in solutions:
            assert list(table[0]) == [0, 0, 1, 1]
            for r in range(2, 4):
                assert list(table[r]) >= list(table[r - 1])

    @pytest.mark.parametrize(
        "sizes, n_tables, n_nodes",
        [((6, 6, 3), 3324, 452_234), ((6, 6, 2), 148, 15_377)],
    )
    def test_full_enumeration_pinned(self, sizes, n_tables, n_nodes):
        tables, nodes = full_enumeration(*sizes)
        assert (len(tables), nodes) == (n_tables, n_nodes)

    def test_budget_stepping_matches_unbounded_run(self):
        tables, nodes = full_enumeration(6, 6, 3)
        stepped, stepped_nodes = drive(6, 6, 3, 997)
        assert stepped_nodes == nodes
        assert len(stepped) == len(tables)
        assert all((a == b).all() for a, b in zip(stepped, tables))
