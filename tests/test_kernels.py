"""Parity tests for the balanced-table search kernel.

The jitted and pure-Python paths must agree bit for bit: the table search
is driven to exhaustion on both paths with full traces compared.  The env
flag is exercised in a subprocess because it is read at import time.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from cqwiretap import _kernels, bri
from cqwiretap.bri import verify_biregular

needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not installed")


def drive(impl, n_s, n_x, n_m, d_s, d_x, budget):
    """Mirror the construct_exhaustive state and step to exhaustion."""
    table = np.zeros((n_s, n_x), dtype=np.int64)
    table[0] = np.arange(n_x) // d_s
    row_counts = np.zeros((n_s, n_m), dtype=np.int64)
    row_counts[0] = d_s
    col_counts = np.zeros((n_x, n_m), dtype=np.int64)
    col_counts[np.arange(n_x), table[0]] = 1
    nxt = np.zeros(n_s * n_x, dtype=np.int64)
    pos = n_x
    solutions, trace = [], []
    while True:
        status, pos, nodes = impl(
            table, nxt, row_counts, col_counts, pos, n_s, n_x, n_m, d_s, d_x, budget
        )
        trace.append((int(status), int(pos), int(nodes)))
        if status == 1:
            solutions.append(table.copy())
        elif status == 0:
            return solutions, trace


class TestSearchStep:
    @needs_numba
    @pytest.mark.parametrize("budget", [10**7, 7])
    def test_exhaustion_parity(self, budget):
        jit_solutions, jit_trace = drive(
            _kernels._search_step_jit, 4, 4, 2, 2, 2, budget
        )
        py_solutions, py_trace = drive(_kernels._search_step_impl, 4, 4, 2, 2, 2, budget)
        assert jit_trace == py_trace
        assert len(jit_solutions) == len(py_solutions)
        for a, b in zip(jit_solutions, py_solutions):
            assert np.array_equal(a, b)

    def test_solutions_are_biregular(self):
        solutions, _ = drive(_kernels._search_step_impl, 4, 4, 2, 2, 2, 10**7)
        assert solutions
        for table in solutions:
            report = verify_biregular(table, (0, 1))
            assert report.ok
            assert (report.d_s, report.d_x) == (2, 2)

    def test_canonical_rows_nondecreasing(self):
        solutions, _ = drive(_kernels._search_step_impl, 4, 4, 2, 2, 2, 10**7)
        for table in solutions:
            assert list(table[0]) == [0, 0, 1, 1]
            for r in range(2, 4):
                assert list(table[r]) >= list(table[r - 1])

    def test_construct_exhaustive_same_result(self, monkeypatch):
        monkeypatch.setattr(_kernels, "USE_NUMBA", False)
        plain = bri.construct_exhaustive(4, 4, 2, 1 - 1e-9)
        if not _kernels.HAS_NUMBA:
            pytest.skip("numba not installed")
        monkeypatch.setattr(_kernels, "USE_NUMBA", True)
        jitted = bri.construct_exhaustive(4, 4, 2, 1 - 1e-9)
        assert np.array_equal(plain.table, jitted.table)


class TestEnvFlag:
    SCRIPT = (
        "from cqwiretap import _kernels, bri\n"
        "f = bri.construct_exhaustive(4, 4, 2, 1 - 1e-9)\n"
        "print(_kernels.USE_NUMBA, ''.join(str(v) for v in f.table.ravel()))\n"
    )

    def run_flagged(self, value):
        env = dict(os.environ)
        if value is None:
            env.pop("CQWIRETAP_NO_NUMBA", None)
        else:
            env["CQWIRETAP_NO_NUMBA"] = value
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        flag, table = done.stdout.split()
        return flag, table

    def test_flag_disables_numba_and_result_matches(self, monkeypatch):
        flag, table = self.run_flagged("1")
        assert flag == "False"
        monkeypatch.setattr(_kernels, "USE_NUMBA", False)
        expected = bri.construct_exhaustive(4, 4, 2, 1 - 1e-9).table
        assert table == "".join(str(v) for v in expected.ravel())

    @needs_numba
    def test_default_uses_numba(self):
        flag, _ = self.run_flagged(None)
        assert flag == "True"

    @needs_numba
    def test_other_values_do_not_disable(self):
        flag, _ = self.run_flagged("0")
        assert flag == "True"
