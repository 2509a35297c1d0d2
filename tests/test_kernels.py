"""Tests for the balanced-table search kernels, driven to exhaustion.

The cell-by-cell oracle of ``conftest`` enumerates every canonical table;
the row-level kernel of the library must list the same tables in the same
order.
"""

import pytest

from conftest import ENUMERATIONS, drive, full_enumeration
from cqwiretap._kernels import RowSearch, balanced_rows, search_step
from cqwiretap.bri import verify_biregular


def row_drive(n_s, n_x, n_m, budget, want):
    """Step the row-level kernel to exhaustion, ``budget`` nodes and
    ``want`` tables at a time.  Returns (tables, nodes) as :func:`drive`
    does: every complete table in order and the nodes visited, where a
    budget stop's refused node counts once, at the call that tries it
    again."""
    search = RowSearch(n_s, n_x, n_m)
    tables, visited = [], 0
    while True:
        found = []
        status, _, nodes = search_step(search, found, want, budget)
        visited += nodes - (status == -1)
        assert len(found) <= want
        tables += [search.values[picks] for picks in found]
        if status == 0:
            return tables, visited


class TestSearchStep:
    """The cell-by-cell oracle, ``conftest.cell_search_step``."""

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


class TestRowSearch:
    @pytest.mark.parametrize("n_x, n_m, d_s, n_rows", [(6, 3, 2, 90), (8, 2, 4, 70), (4, 4, 1, 24)])
    def test_balanced_rows_lexicographic(self, n_x, n_m, d_s, n_rows):
        rows = balanced_rows(n_x, n_m, d_s).tolist()
        assert len(rows) == n_rows
        assert rows == sorted(rows)
        assert all(row.count(v) == d_s for row in rows for v in range(n_m))

    @pytest.mark.parametrize("sizes", ENUMERATIONS, ids=lambda s: "x".join(map(str, s)))
    def test_same_tables_in_same_order_as_cell_oracle(self, sizes):
        expected, _ = full_enumeration(*sizes)
        tables, _ = row_drive(*sizes, 10**9, 64)
        assert len(tables) == len(expected)
        assert all((a == b).all() for a, b in zip(tables, expected))

    @pytest.mark.parametrize(
        "sizes, n_tables, n_nodes",
        [((6, 6, 3), 3324, 266_942), ((6, 6, 2), 148, 4_918)],
    )
    def test_full_enumeration_pinned(self, sizes, n_tables, n_nodes):
        tables, nodes = row_drive(*sizes, 10**9, 10**9)
        assert (len(tables), nodes) == (n_tables, n_nodes)

    @pytest.mark.parametrize("budget, want", [(1, 1), (7, 3), (997, 64)])
    def test_budget_and_batch_stepping_match_unbounded_run(self, budget, want):
        tables, nodes = row_drive(6, 6, 2, 10**9, 10**9)
        stepped, stepped_nodes = row_drive(6, 6, 2, budget, want)
        assert stepped_nodes == nodes
        assert len(stepped) == len(tables)
        assert all((a == b).all() for a, b in zip(stepped, tables))

    def test_two_seeds_force_the_complement(self):
        tables, nodes = row_drive(2, 4, 2, 10**9, 1)
        assert [t.tolist() for t in tables] == [[[0, 0, 1, 1], [1, 1, 0, 0]]]
        assert nodes == 1
