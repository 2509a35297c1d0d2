"""The benchmark's catalogues against its recorded reference.

Every workload of ``perfbench/`` is generated (seed 1) and one pass of
its catalogue is run in-process through ``perfbench/workloads.py``, as a
benchmark run does; ``check_job`` must find no problem with any job.  A
change that moves a reported value past the reference's tolerance shows
here as a failed job, before the benchmark reads it as a lower
``ok_frac``.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    """``perfbench/workloads.py`` as a module, leaving no bytecode cache
    under ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


workloads = _load_workloads()

REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.CATALOGUES))
def test_one_pass_matches_the_reference(workload, tmp_path):
    plan = workloads.generate(workload, 1, tmp_path)
    order = workloads.pass_order(plan, 1, 0)
    assert sorted(order) == sorted(REFERENCE[workload])
    problems = []
    for job_id in order:
        steps = plan["jobs"][job_id]
        results = workloads.run_job(steps)
        problems += workloads.check_job(job_id, steps, results, REFERENCE[workload])
    assert problems == []
