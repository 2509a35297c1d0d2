"""Record ``perfbench/reference.json``: every catalogue job's exit codes
and reported quantities, against which every benchmark run is checked.

Run from the root of a source checkout::

    python3 perfbench/record.py

Record again only when a change to the library is meant to change its
reports; say so where the change is described.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main():
    reference = {}
    work = ROOT / ".bench_work" / "record"
    try:
        for workload in WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            plan = workloads.generate(workload, 0, work)
            reference[workload] = {
                job_id: workloads.record_job(steps, workloads.run_job(steps))
                for job_id, steps in sorted(plan["jobs"].items())
            }
            print(f"{workload}: {len(reference[workload])} jobs recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
