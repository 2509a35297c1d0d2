"""Workload catalogues, job execution and output checks.

Every workload is a fixed catalogue of instances drawn once from
``CATALOGUE_SEED``; ``perfbench/reference.json`` holds what each instance
reported at the commit that introduced the benchmark.  The run seed
changes the inputs without changing any reported quantity:

* every channel file is written in a frame rotated by a seeded Haar
  unitary (entropies, divergences, norms, ranks, decoding errors and
  optimizer maxima are unitarily invariant), except the clock channel
  whose average state is exactly I/2, and
* the seed shuffles the order of the catalogue in every pass.

So every run does the same amount of work on different input files, and
every output can be checked against the recorded reference.  The library
sees only the spec and input files written here (plus the constructors
that the modular pipeline calls in-process as its first step).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from cqwiretap import bri, channels, cli, codes, serialize

CATALOGUE_SEED = 2001_05719

WHY = {
    "adversarial-search": (
        "dispatch-bound on 2x2 operators, where the batched spectral core lands; "
        "no typicality, search or I/O worth measuring"
    ),
    "modular-pipeline": (
        "many short jobs across bri, codes, bounds, serialize and cli at dimensions 2-512; "
        "no optimizer loop, so it bypasses the gradient change"
    ),
    "typical-projection": (
        "few large operators (d=256) and typical-string enumeration, where a batching change "
        "can cost time or memory and type-class typical sets show"
    ),
}

# acceptance-suite tolerances: closed-form values and optimizer maxima
TOL_CLOSED = 1e-9
TOL_OPTIMIZER = 1e-4
BOUND_HOLDS = -1e-9
# chain steps reported for the message with the smallest slack; when
# messages tie (symmetric functions), rounding picks which one, so only
# their slack is compared, not the chosen message's two sides
PER_MESSAGE_REPORTS = {"divergence-vs-subnormalized", "divergence-vs-renyi2", "renyi2-vs-spectrum"}


# ---------------------------------------------------------------------------
# random objects


def _gen(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(list(key)))


def _density(g, dim):
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _unitary(g, dim):
    a = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _flip(heavy):
    return {0: np.diag([heavy, 1 - heavy]), 1: np.diag([1 - heavy, heavy])}


def _clock(heavy):
    """Three rotated copies of one qubit spectrum whose average is I/2."""
    outputs = {}
    for k, theta in enumerate((0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)):
        c, s = math.cos(theta), math.sin(theta)
        u = np.array([[c, -s], [s, c]])
        outputs[k] = u @ np.diag([heavy, 1.0 - heavy]) @ u.T
    return outputs


def _random_channel(g, n_inputs, dim=2):
    return {x: _density(g, dim) for x in range(n_inputs)}


def _near_noiseless(k, noise):
    eye = np.eye(k)
    return {x: (1 - noise) * np.outer(eye[x], eye[x]) + noise * eye / k for x in range(k)}


# ---------------------------------------------------------------------------
# catalogues: plain dicts, identical for every run seed


# (messages, inputs) of each random code, keyed by the index that seeds it;
# seven codes spanning 4-8 messages and 3-6 inputs keep a pass short
# enough for four passes in a 30-second run
ADVERSARIAL_SHAPES = {0: (4, 3), 3: (4, 6), 5: (5, 4), 7: (5, 6), 8: (6, 3), 11: (6, 6), 13: (8, 4)}


def _adversarial_catalogue():
    out = []
    for i, (n_m, n_x) in ADVERSARIAL_SHAPES.items():
        g = _gen(CATALOGUE_SEED, 1, i)
        rows = [g.dirichlet(np.ones(n_x)).tolist() for _ in range(n_m)]
        out.append({
            "id": f"adv-{i}", "job": "adversarial", "messages": n_m, "inputs": n_x,
            "eve": _random_channel(g, n_x), "rows": rows, "seed": 100 + i,
        })
    for i, k in enumerate((2, 3)):
        g = _gen(CATALOGUE_SEED, 2, i)
        out.append({
            "id": f"cap-{i}", "job": "capacity", "w": _random_channel(g, k),
            "v": _random_channel(g, k), "seed": 200 + i,
        })
    return out


IRREDUCIBLE = 1 - 1e-9
MODULAR_FUNCTIONS = (
    ("ex-4x4-2", ("exhaustive", 4, 4, 2, IRREDUCIBLE)),
    ("ex-6x6-3", ("exhaustive", 6, 6, 3, IRREDUCIBLE)),
    ("ex-6x6-2", ("exhausted", 6, 6, 2)),
    ("seeded-1-3", ("seeded", 1, 3)),
    ("seeded-1-5", ("seeded", 1, 5)),
    ("seeded-2-3", ("seeded", 2, 3)),
    ("bundled-6x8", ("bundled",)),
)
# (seeds, inputs) of each function above, fixed by its construction
MODULAR_SHAPES = {
    "ex-4x4-2": (4, 4), "ex-6x6-3": (6, 6), "ex-6x6-2": (6, 6), "seeded-1-3": (6, 6),
    "seeded-1-5": (10, 10), "seeded-2-3": (12, 12), "bundled-6x8": (6, 8),
}


def _modular_catalogue():
    out = []
    for i, (name, construct) in enumerate(MODULAR_FUNCTIONS):
        g = _gen(CATALOGUE_SEED, 3, i)
        n_s, n_x = MODULAR_SHAPES[name]
        out.append({
            "id": f"mod-{name}", "job": "pipeline", "construct": list(construct),
            "seeds": n_s, "inputs": n_x, "noise": float(g.uniform(0.01, 0.05)),
            "eve": _random_channel(g, n_x),
            # derandomized dimension |X|^(N+1): N = 2 keeps it at most 512
            "repeats": 2 if n_x <= 8 else 1,
        })
    return out


def _typical_catalogue():
    # the clock average is exactly I/2; a rotated frame would leave its
    # eigenbasis, and so the typical projector, to rounding noise
    return [
        {"id": "typ-flip-7", "job": "typicality", "channel": _flip(0.8), "frame": True,
         "p": [0.6, 0.4], "delta": 0.5, "ns": [2, 4, 7]},
        {"id": "typ-clock-5", "job": "typicality", "channel": _clock(0.8), "frame": False,
         "p": [1 / 3, 1 / 3, 1 / 3], "delta": 1.0, "ns": [2, 4, 5]},
        {"id": "typ-flip-8", "job": "typicality", "channel": _flip(0.9), "frame": True,
         "p": [0.875, 0.125], "delta": 0.2, "ns": [8]},
        {"id": "typ-flip-8w", "job": "typicality", "channel": _flip(0.8), "frame": True,
         "p": [0.75, 0.25], "delta": 0.2, "ns": [8]},
        # 6 typical strings feed a 3x6 function; its seed register keeps the
        # joint operator at 3 * 64 = 192, below the d=256 of the reports
        {"id": "chain-typ-6", "job": "chain-typicality", "channel": _flip(0.9), "frame": True,
         "construct": ["exhaustive", 3, 6, 3, 1.0], "p": [5 / 6, 1 / 6], "n": 6, "delta": 0.2},
    ]


CATALOGUES = {
    "adversarial-search": _adversarial_catalogue,
    "modular-pipeline": _modular_catalogue,
    "typical-projection": _typical_catalogue,
}


# ---------------------------------------------------------------------------
# setup: write every input and spec file of a workload


class _Writer:
    def __init__(self, frame_gen):
        self.frame_gen = frame_gen

    def json(self, path: Path, obj) -> str:
        serialize.dump_json(obj, path)
        return str(path)

    def channel(self, path: Path, outputs, rotate=True) -> str:
        """Write a channel, in a seeded rotated frame unless told not to."""
        if rotate:
            u = _unitary(self.frame_gen, next(iter(outputs.values())).shape[0])
            outputs = {x: u @ rho @ u.conj().T for x, rho in outputs.items()}
        v = channels.CqChannel(tuple(outputs), len(next(iter(outputs.values()))), outputs)
        return self.json(path, serialize.channel_to_json(v))

    def spec(self, path: Path, kind, inputs, params, output: Path) -> str:
        return self.json(path, {"kind": kind, "inputs": inputs, "params": params, "output": str(output)})


def _cli_step(kind, spec, output, extra=()):
    return {"step": "cli", "kind": kind, "spec": spec, "outputs": [str(output), *extra]}


def _write_adversarial(w: _Writer, inst, d: Path):
    if inst["job"] == "capacity":
        inputs = {
            "channel_w": w.channel(d / "w.json", inst["w"]),
            "channel_v": w.channel(d / "v.json", inst["v"]),
        }
        spec = w.spec(d / "spec.json", "capacity", inputs, {"seed": inst["seed"]}, d / "report.json")
        return [_cli_step("capacity", spec, d / "report.json")]
    n_m = inst["messages"]
    code = {
        "type": "wiretap", "n": 1, "dim": 2, "messages": list(range(n_m)),
        "encoder": [[m, [[[x], p] for x, p in enumerate(row)]] for m, row in enumerate(inst["rows"])],
        "decoders": [[m, serialize.matrix_to_json(np.eye(2) / n_m)] for m in range(n_m)],
    }
    inputs = {"channel": w.channel(d / "eve.json", inst["eve"]), "code": w.json(d / "code.json", code)}
    params = {"adversarial": True, "restarts": 1, "seed": inst["seed"]}
    spec = w.spec(d / "spec.json", "eval-leakage", inputs, params, d / "report.json")
    return [_cli_step("eval-leakage", spec, d / "report.json")]


def _write_modular(w: _Writer, inst, d: Path):
    n_s, n_x = inst["seeds"], inst["inputs"]
    f, code = str(d / "f.json"), str(d / "code.json")
    wire = w.channel(d / "w.json", _near_noiseless(n_x, inst["noise"]))
    eve = w.channel(d / "eve.json", inst["eve"])
    # the seed-transmitting code of the derandomization, over the same W
    w_chan = serialize.channel_from_json(serialize.load_json(wire))
    seed_code = codes.transmission_code_pgm({s: (s,) for s in range(n_s)}, w_chan, 1)
    seed = w.json(d / "seed_code.json", serialize.code_to_json(seed_code))

    def step(name, kind, inputs, params, out=None, csv=False):
        out = Path(out or d / f"{name}.out.json")
        extra = [str(out.with_suffix(".csv"))] if csv else []
        return _cli_step(kind, w.spec(d / f"{name}.json", kind, inputs, params, out), out, extra)

    codewords = [[x, [x]] for x in range(n_x)]
    steps = [
        {"step": "construct", "construct": inst["construct"], "outputs": [f]},
        step("verify", "verify-bri", {"bri": f}, {}),
        step("build", "build-code", {"channel": wire, "bri": f},
             {"n": 1, "codewords": codewords, "max_error": 0.25}, out=code),
        step("leak", "eval-leakage", {"channel": eve, "code": code}, {}),
        step("chain-identity", "bound-chain", {"bri": f, "channel": eve},
             {"v_prime": {"mode": "identity"}}, csv=True),
        step("chain-scale", "bound-chain", {"bri": f, "channel": eve},
             {"v_prime": {"mode": "scale", "factor": 0.9}}, csv=True),
        step("derandomize", "derandomize",
             {"channel_w": wire, "seed_code": seed, "code": code, "channel_v": eve},
             {"N": inst["repeats"], "eps_prime": 0.25, "eps": 1.0}),
    ]
    return steps


def _write_typical(w: _Writer, inst, d: Path):
    v = w.channel(d / "v.json", inst["channel"], rotate=inst["frame"])
    out = d / "report.json"
    if inst["job"] == "typicality":
        params = {"p": inst["p"], "delta": inst["delta"], "ns": inst["ns"]}
        spec = w.spec(d / "spec.json", "typicality-report", {"channel": v}, params, out)
        return [_cli_step("typicality-report", spec, out, [str(out.with_suffix(".csv"))])]
    f = str(d / "f.json")
    v_prime = {"mode": "typicality", "p": inst["p"], "n": inst["n"], "delta": inst["delta"]}
    spec = w.spec(d / "spec.json", "bound-chain", {"bri": f, "channel": v}, {"v_prime": v_prime}, out)
    return [
        {"step": "construct", "construct": inst["construct"], "outputs": [f]},
        _cli_step("bound-chain", spec, out, [str(out.with_suffix(".csv"))]),
    ]


WRITERS = {
    "adversarial-search": _write_adversarial,
    "modular-pipeline": _write_modular,
    "typical-projection": _write_typical,
}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write every file of ``workload`` under ``root``; return the plan,
    which lists each catalogue job's steps (``pass_order`` orders them)."""
    writer = _Writer(_gen(seed, 0))
    jobs = {}
    for inst in CATALOGUES[workload]():
        d = root / inst["id"]
        d.mkdir(parents=True, exist_ok=True)
        jobs[inst["id"]] = WRITERS[workload](writer, inst, d)
    plan = {"workload": workload, "seed": seed, "jobs": jobs}
    writer.json(root / "plan.json", plan)
    return plan


def pass_order(plan, seed: int, index: int) -> list:
    """Job ids of pass ``index`` in the seeded order."""
    ids = sorted(plan["jobs"])
    order = _gen(seed, 1, index).permutation(len(ids))
    return [ids[i] for i in order]


# ---------------------------------------------------------------------------
# execution


def construct(spec):
    """The modular pipeline's first step: a library constructor."""
    kind = spec[0]
    if kind == "exhaustive":
        return bri.construct_exhaustive(*spec[1:])
    if kind == "exhausted":
        # an unreachable target drives the search through every table
        if bri.construct_exhaustive(*spec[1:], 0.0) is not None:
            raise RuntimeError("exhaustive search met an unreachable target")
        return bri.construct_exhaustive(*spec[1:], IRREDUCIBLE)
    if kind == "seeded":
        return bri.construct_seeded(*spec[1:])
    if kind == "bundled":
        return serialize.bri_from_json(serialize.load_json(serialize.bundled("section_6x8.json")))
    raise ValueError(f"unknown construction {spec!r}")


def run_job(steps) -> list:
    """Run one job's steps; return per step (exit code, captured stdout).

    A step that raises propagates; the caller counts the job as failed.
    """
    results = []
    for step in steps:
        if step["step"] == "construct":
            f = construct(step["construct"])
            serialize.dump_json(serialize.bri_to_json(f), step["outputs"][0])
            results.append((0, ""))
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([step["kind"], step["spec"]])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        results.append((code, out.getvalue() + err.getvalue()))
    return results


# ---------------------------------------------------------------------------
# output checks


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def _report_problems(where, reports):
    """A report's slack is rhs - lhs and ``holds`` is slack >= -1e-9."""
    problems = []
    for r in reports:
        lhs, rhs, slack = r["lhs"], r["rhs"], r["slack"]
        expected = 0.0 if math.isinf(lhs) and lhs == rhs else rhs - lhs
        if not (slack == expected or (math.isnan(slack) and math.isnan(expected))):
            problems.append(f"{where} {r['name']}: slack {slack!r} != rhs - lhs {expected!r}")
        if r["holds"] != (slack >= BOUND_HOLDS):
            problems.append(f"{where} {r['name']}: holds={r['holds']} with slack {slack!r}")
    return problems


_SUMMARY_FLOAT = re.compile(r"(error|rate)=([-+0-9.eE]+|inf|nan)")


def measure(step, code, stdout):
    """Quantities a step reported, each with its tolerance, plus problems
    found inside the report itself (ok versus the asserted reports)."""
    kind = step["kind"]
    values, problems = {}, []
    if code not in (0, 4):
        return values, [f"{kind}: exit {code}: {stdout.strip()[-300:]}"]
    ok = code == 0
    if kind == "build-code":
        for key, num in _SUMMARY_FLOAT.findall(stdout):
            values[key] = (float(num), TOL_CLOSED)
        return values, problems
    report = _load(step["outputs"][0])
    if kind == "verify-bri":
        asserted = report["balance"][0] == report["balance"][1] and all(l < 1.0 for _, l in report["lambda2"])
        if report["ok"] != asserted or report["irreducible"] != all(l < 1.0 for _, l in report["lambda2"]):
            problems.append("verify-bri: ok does not match balance and lambda2")
        asserted_ok = report["ok"]
        for key in ("d_s", "d_x"):
            values[key] = (report[key], TOL_CLOSED)
        for m, lam in report["lambda2"]:
            values[f"lambda2[{m}]"] = (lam, TOL_CLOSED)
    elif kind == "eval-leakage":
        values["leakage"] = (report["leakage"], TOL_CLOSED)
        asserted_ok = True
        if "adversarial" in report:
            worst = report["adversarial"]["value"]
            values["adversarial"] = (worst, TOL_OPTIMIZER)
            if worst < report["leakage"] - TOL_OPTIMIZER:
                problems.append("eval-leakage: adversarial value below the uniform leakage")
    elif kind == "capacity":
        values["value"] = (report["value"], TOL_OPTIMIZER)
        asserted_ok = True
    elif kind == "bound-chain":
        problems += _report_problems(kind, report)
        asserted_ok = all(r["holds"] for r in report)
        for r in report:
            values[f"{r['name']}.slack"] = (r["slack"], TOL_CLOSED)
            if r["name"] not in PER_MESSAGE_REPORTS:
                values[f"{r['name']}.lhs"] = (r["lhs"], TOL_CLOSED)
                values[f"{r['name']}.rhs"] = (r["rhs"], TOL_CLOSED)
    elif kind == "typicality-report":
        asserted_ok = True
        for block in report["per_n"]:
            problems += _report_problems(f"{kind} n={block['n']}", block["reports"])
            for r in block["reports"]:
                if r["name"] in block["asserted"]:
                    asserted_ok = asserted_ok and r["holds"]
                values[f"n{block['n']}.{r['name']}.lhs"] = (r["lhs"], TOL_CLOSED)
                values[f"n{block['n']}.{r['name']}.rhs"] = (r["rhs"], TOL_CLOSED)
        if report["trace_exponent"] is not None:
            values["trace_exponent"] = (report["trace_exponent"], TOL_CLOSED)
    elif kind == "derandomize":
        budget = report.get("budget", [])
        problems += _report_problems(kind, budget)
        asserted_ok = all(r["holds"] for r in budget)
        for key in ("error", "rate", "leakage"):
            if key in report:
                values[key] = (report[key], TOL_CLOSED)
    else:
        raise ValueError(f"no check for {kind!r}")
    if asserted_ok != ok:
        problems.append(f"{kind}: exit {code} but asserted reports {'hold' if asserted_ok else 'fail'}")
    return values, problems


def _close(value, ref, tol) -> bool:
    if isinstance(ref, float) and math.isinf(ref):
        return value == ref
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def check_job(job_id, steps, results, reference) -> list:
    """Problems with one job's outputs: exit codes, report consistency,
    and measured quantities against the recorded reference."""
    problems = []
    expected = reference.get(job_id)
    if expected is None or len(expected) != len(steps):
        return [f"{job_id}: no reference recorded"]
    for step, (code, stdout), ref in zip(steps, results, expected):
        if step["step"] == "construct":
            continue
        where = f"{job_id} {step['kind']}"
        if code != ref["exit"]:
            problems.append(f"{where}: exit {code}, expected {ref['exit']}: {stdout.strip()[-300:]}")
            continue
        values, found = measure(step, code, stdout)
        problems += [f"{job_id} {p}" for p in found]
        if set(values) != set(ref["values"]):
            problems.append(f"{where}: reported {sorted(values)}, expected {sorted(ref['values'])}")
            continue
        for key, (value, tol) in values.items():
            if not _close(value, ref["values"][key], tol):
                problems.append(f"{where}: {key} = {value!r}, reference {ref['values'][key]!r}")
    return problems


def record_job(steps, results) -> list:
    """Reference entry for one job: exit code and quantities per step."""
    entry = []
    for step, (code, stdout) in zip(steps, results):
        if step["step"] == "construct":
            entry.append({"exit": code, "values": {}})
            continue
        values, problems = measure(step, code, stdout)
        if problems:
            raise RuntimeError(f"cannot record an inconsistent report: {problems}")
        entry.append({"exit": code, "values": {k: v for k, (v, _) in values.items()}})
    return entry


def output_bytes(steps) -> dict:
    return {path: Path(path).read_bytes() for step in steps for path in step["outputs"]}
