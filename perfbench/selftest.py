"""Smoke test of the benchmark itself: one pass of every workload.

Run from the root of a source checkout (about three minutes)::

    python3 perfbench/selftest.py

For every workload it runs one untraced pass and two traced passes with
the same seed (``--seconds 0`` gives one pass), and fails unless

* every metric named in ``BENCHMARK.json`` is emitted with its unit,
* no job failed its output check (``failed`` is 0 and ``correct`` holds),
* the counts ``bri.search_nodes``, ``typicality.strings_scanned`` and
  ``operators.calls`` repeat exactly across the two traced runs,
* the summed per-layer self times do not exceed the traced wall time, and
* the traced runs show the layer profile each workload was chosen for
  (``PROFILE_CHECKS``).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REPEATED_COUNTS = ("bri.search_nodes", "typicality.strings_scanned", "operators.calls")


def _value(metrics, name):
    return metrics[name]["value"]


def _dispatch_bound(m):
    """Operator and channel code covers at least half of the traced time."""
    covered = _value(m, "operators.self_s") + _value(m, "channels.self_s")
    wall = _value(m, "trace.wall_s")
    return covered >= 0.5 * wall, f"operators+channels self_s {covered:.3g} s of {wall:.3g} s traced"


def _typical_d256(m):
    """Some strings are rejected, and d=256 carries most eigensolver work,
    most of it from typicality and operator code."""
    total = sum(v["value"] for k, v in m.items() if k.endswith(".eig_work"))
    ours = _value(m, "typicality.eig_work") + _value(m, "operators.eig_work")
    ok = (0 < _value(m, "typicality.kept_ratio") < 1 and _value(m, "eig.top_d") == 256
          and _value(m, "eig.top_d_share") > 0.5 and ours > 0.5 * total)
    return ok, (f"kept_ratio {_value(m, 'typicality.kept_ratio'):.3g}, top_d {_value(m, 'eig.top_d'):g} "
                f"with share {_value(m, 'eig.top_d_share'):.3g}, typicality+operators eig_work "
                f"{ours:.3g} of {total:.3g}")


def _searches_tables(m):
    """The table search visits nodes."""
    return _value(m, "bri.search_nodes") > 0, f"bri.search_nodes {_value(m, 'bri.search_nodes'):g}"


PROFILE_CHECKS = {
    "adversarial-search": _dispatch_bound,
    "modular-pipeline": _searches_tables,
    "typical-projection": _typical_d256,
}


def _run(workload, trace, seed=7):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _emitted(result, declared):
    problems = []
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} in {got['unit']}, declared {metric['unit']}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"undeclared metrics {sorted(set(result['metrics']) - {m['name'] for m in declared})}")
    return problems


def check(workload, spec):
    untraced, traced, again = _run(workload, 0), _run(workload, 1), _run(workload, 1)
    problems = _emitted(untraced, spec["end_to_end"]) + _emitted(traced, spec["per_layer"])
    for result in (untraced, traced, again):
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} of {result['attempted']} jobs failed their checks")
    for name in REPEATED_COUNTS:
        first, second = traced["metrics"][name]["value"], again["metrics"][name]["value"]
        if first != second:
            problems.append(f"{name} changed between identical runs: {first} then {second}")
    for result in (traced, again):
        metrics = result["metrics"]
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        if self_total > metrics["trace.wall_s"]["value"]:
            problems.append(f"layer self times {self_total} exceed traced wall {metrics['trace.wall_s']['value']}")
        ok, figures = PROFILE_CHECKS[workload](metrics)
        print(f"  {workload} traced: {figures}; overhead {_value(metrics, 'trace.overhead'):.3g}")
        if not ok:
            problems.append(f"layer profile not as sized: {figures}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check(workload, spec)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for line in problems:
            print(f"  {line}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
