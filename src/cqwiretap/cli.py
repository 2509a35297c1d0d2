"""Reproducible experiment runner over the library modules.

A run is ``cqwiretap <kind> <specfile>`` where the spec file is a single
self-describing JSON object::

    {"kind": "...", "inputs": {...}, "params": {...}, "output": "report.json"}

``kind`` must match the subcommand.  ``inputs`` maps role names to JSON
files in the :mod:`~cqwiretap.serialize` formats, ``params`` holds plain
values (tolerances, n, delta, N, rng seed), and ``output`` is where the
JSON report goes.  Subcommands that also produce a CSV table write it
next to the report with the suffix replaced by ``.csv``.  The only flags
are overrides: ``--seed``, ``--out``, ``--cap``.

Every run with the same spec and seed writes byte-identical reports:
keys are sorted, floats keep their shortest round-trip form, and all
randomness flows from one counter-based generator built from the seed.
A seed is required exactly when a step is randomized (the random starts
of the capacity search); other runs ignore it, and ``eval-leakage`` also
accepts and ignores ``restarts``.

Exit codes: 0 all asserted checks hold; 2 a file does not parse;
3 a spec or input fails validation; 4 an asserted bound or verification
fails; 5 a resource cap is exceeded.

Subcommands
-----------
verify-bri         biregularity, balance d_X|X| = d_S|S|, per-output
                   lambda2; asserts all three.
build-code         square-root-measurement transmission code for given
                   codewords, optionally coarse-grained along a function
                   table into a common-randomness code; writes the code
                   file.  Asserts ``max_error`` when given.
eval-leakage       leakage of a code file against an eavesdropper
                   channel, optionally the certified adversarial bounds.
bound-chain        the five-step leakage certification chain; asserts
                   every report.  ``v_prime`` modes: identity, scale,
                   typicality (sandwich the n-letter channel between
                   typical projectors and re-index typical strings).
capacity           single-letter (or two-letter lifted) secrecy-rate
                   search; no asserted bound, convergence is reported.
typicality-report  per-n CSV of projector traces, ranks, eigenvalue
                   sandwich slacks and spectral factor bounds.  Asserts
                   only the instance-independent rows (te2 upper rank,
                   te3 sandwich, spectral rank factor); the rest are
                   reported, their sharpness depends on the instance.
derandomize        error, rate and optional leakage accounting for a
                   seed-transmitting code driving N reuses of an inner
                   code; asserts the ``eps_prime``/``eps`` budget rows
                   when given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds, bri, channels, codes, serialize, typicality
from .config import ENV_CAP
from .errors import (
    ConstructionUnverifiedError,
    DimensionMismatchError,
    InvalidStateError,
    PsdOrderingError,
    ResourceCapError,
    VerificationError,
)

KINDS = (
    "verify-bri",
    "build-code",
    "eval-leakage",
    "bound-chain",
    "capacity",
    "typicality-report",
    "derandomize",
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BOUND = 4
EXIT_CAP = 5


def _spec_dict(obj, key, what):
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise InvalidStateError(f"{what} must be a JSON object")
    return value


def _input_path(inputs, role) -> str:
    path = inputs.get(role)
    if not isinstance(path, str) or not path:
        raise InvalidStateError(f"spec inputs are missing the {role!r} file")
    return path


def _rng(params) -> np.random.Generator:
    seed = params.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidStateError("an integer rng seed is required for randomized steps")
    return np.random.Generator(np.random.Philox(seed))


def _dist(params, key, size, what):
    raw = params.get(key)
    if raw is None:
        return np.full(size, 1.0 / size)
    dist = np.asarray(raw, dtype=float)
    if dist.shape != (size,):
        raise InvalidStateError(f"{what} must list {size} probabilities")
    return dist


def _load_channel(inputs, role) -> channels.CqChannel:
    return serialize.channel_from_json(serialize.load_json(_input_path(inputs, role)))


def _write_reports(reports, output) -> None:
    serialize.dump_json(serialize.reports_to_json(reports), output)
    Path(output).with_suffix(".csv").write_text(serialize.reports_to_csv(reports))


# ---------------------------------------------------------------------------
# handlers; each returns (ok, summary) and writes its report files


def _run_verify_bri(inputs, params, output):
    f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
    balance = f.d_x * f.n_inputs == f.d_s * f.n_seeds
    lambda2 = [[m, bri.lambda2(f, m)] for m in f.regularity_set]
    irreducible = all(v < 1.0 for _, v in lambda2)
    report = {
        "kind": "verify-bri",
        "ok": balance and irreducible,
        "d_s": f.d_s,
        "d_x": f.d_x,
        "n_seeds": f.n_seeds,
        "n_inputs": f.n_inputs,
        "balance": [f.d_x * f.n_inputs, f.d_s * f.n_seeds],
        "regularity_set": list(f.regularity_set),
        "lambda2": lambda2,
        "irreducible": irreducible,
    }
    serialize.dump_json(report, output)
    summary = f"d_S={f.d_s} d_X={f.d_x} balance {f.d_x * f.n_inputs}={f.d_s * f.n_seeds}"
    return report["ok"], summary


def _run_build_code(inputs, params, output):
    w = _load_channel(inputs, "channel")
    n = params.get("n", 1)
    raw = params.get("codewords")
    if not isinstance(raw, list) or not raw:
        raise InvalidStateError("params.codewords must list [message, string] pairs")
    codewords = {}
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidStateError("params.codewords entries must be [message, string] pairs")
        codewords[item[0]] = tuple(item[1])
    t = codes.transmission_code_pgm(codewords, w, n)
    code = t
    if "bri" in inputs:
        f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
        code = codes.assemble_bri_modular(t, f)
        error = codes.error_expected_cr(code, w)
    else:
        error = codes.error_max(t, w)
    serialize.dump_json(serialize.code_to_json(code), output)
    ok = True
    budget = params.get("max_error")
    if budget is not None:
        ok = error <= float(budget) + 1e-9
    return ok, f"error={error!r} rate={codes.rate(code)!r}"


def _leakage_encoders(code):
    if isinstance(code, codes.TransmissionCode):
        code = code.as_wiretap()
    if isinstance(code, codes.WiretapCode):
        return {0: code.encoder}, code
    return {s: code.per_seed[s].encoder for s in code.seeds}, code


# restarts and seed are accepted and ignored: older spec files carry them
_EVAL_LEAKAGE_KEYS = {"m_dist", "adversarial", "restarts", "seed"}


def _run_eval_leakage(inputs, params, output):
    unknown = sorted(set(params) - _EVAL_LEAKAGE_KEYS)
    if unknown:
        raise InvalidStateError(f"unknown params for eval-leakage: {unknown}")
    v = _load_channel(inputs, "channel")
    code = serialize.code_from_json(serialize.load_json(_input_path(inputs, "code")))
    encoders, code = _leakage_encoders(code)
    v_n = channels.tensor_power(v, code.n)
    m_dist = _dist(params, "m_dist", len(code.messages), "params.m_dist")
    value = channels.leakage_cr(m_dist, encoders, v_n)
    report = {
        "kind": "eval-leakage",
        "n": code.n,
        "messages": len(code.messages),
        "m_dist": [float(x) for x in m_dist],
        "leakage": value,
    }
    summary = f"leakage={value!r}"
    if params.get("adversarial", False):
        worst = channels.adversarial_leakage(encoders, v_n)
        report["adversarial"] = {
            "value": worst.value,
            "upper": worst.upper,
            "argmax": [float(x) for x in worst.argmax],
            "converged": bool(worst.converged),
        }
        summary += f" adversarial={worst.value!r}"
    serialize.dump_json(report, output)
    return True, summary


# keys a v_prime object may carry, per mode; any other key is a spec error
_V_PRIME_KEYS = {
    "identity": {"mode"},
    "scale": {"mode", "factor"},
    "typicality": {"mode", "p", "n", "delta"},
}


def _chain_pair(v, params):
    """The (V, V') pair of the chain for the spec's ``v_prime`` mode."""
    mode = params.get("v_prime", {"mode": "identity"})
    if not isinstance(mode, dict) or "mode" not in mode:
        raise InvalidStateError("params.v_prime must be an object with a 'mode'")
    name = mode["mode"]
    if name not in _V_PRIME_KEYS:
        raise InvalidStateError(f"unknown v_prime mode {name!r}")
    unknown = sorted(set(mode) - _V_PRIME_KEYS[name])
    if unknown:
        raise InvalidStateError(f"unknown keys for v_prime mode {name!r}: {unknown}")
    if name == "identity":
        return v, v
    if name == "scale":
        return v, v.scaled(float(mode.get("factor", 1.0)))
    p = np.asarray(mode["p"], dtype=float)
    return typicality.reindexed_pair(v, p, int(mode["n"]), float(mode["delta"]))


def _run_bound_chain(inputs, params, output):
    v = _load_channel(inputs, "channel")
    f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
    base, v_prime = _chain_pair(v, params)
    if len(base.alphabet) != f.n_inputs:
        raise InvalidStateError(
            f"function expects {f.n_inputs} inputs, channel provides {len(base.alphabet)}"
        )
    m_dist = _dist(params, "m_dist", len(f.regularity_set), "params.m_dist")
    reports = bounds.certify_chain(f, base, v_prime, m_dist)
    _write_reports(reports, output)
    ok = all(r.holds for r in reports)
    return ok, f"{sum(r.holds for r in reports)}/{len(reports)} reports hold"


def _run_capacity(inputs, params, output):
    w = _load_channel(inputs, "channel_w")
    v = _load_channel(inputs, "channel_v")
    n = params.get("n", 1)
    rng = _rng(params)
    if n == 1:
        result = channels.capacity_single_letter(w, v, rng=rng, starts=params.get("starts", 16))
    else:
        result = channels.capacity_lifted(w, v, n, rng=rng)
    report = {
        "kind": "capacity",
        "n": n,
        "value": result.value,
        "argmax": [float(x) for x in result.argmax],
        "converged": bool(result.converged),
    }
    serialize.dump_json(report, output)
    return True, f"value={result.value!r} converged={result.converged}"


def _run_typicality_report(inputs, params, output):
    v = _load_channel(inputs, "channel")
    p = np.asarray(params["p"], dtype=float)
    delta = float(params["delta"])
    ns = params.get("ns", [2, 4, 8])
    if not isinstance(ns, list) or not all(isinstance(n, int) and n >= 1 for n in ns):
        raise InvalidStateError("params.ns must be a list of positive block lengths")

    if p.shape != (len(v.alphabet),):
        raise InvalidStateError(f"params.p must list {len(v.alphabet)} probabilities")
    avg = channels._average_state(p, v)
    factors = typicality.factor_reports(v, p, delta, ns)

    asserted = {"te2-rank-upper", "te3-eig-lower", "te3-eig-upper", "factor-rank"}
    columns = [
        "n", "trace", "rank",
        "te2_lower_slack", "te2_upper_slack", "te3_lower_slack", "te3_upper_slack",
        "te4_trace", "te5_lower_slack", "te5_upper_slack",
        "te6_lower_slack", "te6_upper_slack", "te7_trace",
        "epsilon", "norm_slack", "rank_slack", "product_slack",
    ]
    rows = []
    per_n = []
    ok = True
    for n in ns:
        reports = {r.name: r for r in typicality.check_typical_projector(avg, n, delta)}
        reports.update(
            {r.name: r for r in typicality.check_typical_projector(v, n, delta, p=p)}
        )
        sub, sub_reports = next(factors)
        reports.update({r.name: r for r in sub_reports})
        ok = ok and all(reports[name].holds for name in asserted)
        rows.append([
            n,
            reports["te1-trace"].lhs,
            reports["te2-rank-upper"].lhs,
            reports["te2-rank-lower"].slack,
            reports["te2-rank-upper"].slack,
            reports["te3-eig-lower"].slack,
            reports["te3-eig-upper"].slack,
            reports["te4-trace"].lhs,
            reports["te5-eig-lower"].slack,
            reports["te5-eig-upper"].slack,
            reports["te6-rank-lower"].slack,
            reports["te6-rank-upper"].slack,
            reports["te7-trace"].lhs,
            sub.epsilon,
            reports["factor-norm"].slack,
            reports["factor-rank"].slack,
            reports["factor-product"].slack,
        ])
        per_n.append({
            "n": n,
            "asserted": sorted(asserted),
            "reports": serialize.reports_to_json(reports.values()),
        })

    traces = [row[1] for row in rows]
    alpha = _trace_exponent(ns, traces)
    report = {
        "kind": "typicality-report",
        "p": [float(x) for x in p],
        "delta": delta,
        "per_n": per_n,
        "trace_exponent": alpha,
    }
    serialize.dump_json(report, output)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([str(row[0])] + [repr(float(c)) for c in row[1:]]))
    Path(output).with_suffix(".csv").write_text("\n".join(lines) + "\n")
    return ok, f"n={ns} traces={[round(t, 6) for t in traces]} alpha={alpha}"


def _trace_exponent(ns, traces):
    """Least-squares alpha in 1 - tr = 2^(-n alpha), None when a trace is 1."""
    pairs = [(n, 1.0 - t) for n, t in zip(ns, traces) if 0.0 < 1.0 - t]
    if len(pairs) < 2:
        return None
    xs = np.array([n for n, _ in pairs], dtype=float)
    ys = np.array([-math.log2(gap) for _, gap in pairs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def _run_derandomize(inputs, params, output):
    w = _load_channel(inputs, "channel_w")
    seed_code = serialize.code_from_json(serialize.load_json(_input_path(inputs, "seed_code")))
    inner = serialize.code_from_json(serialize.load_json(_input_path(inputs, "code")))
    if not isinstance(seed_code, codes.TransmissionCode):
        raise InvalidStateError("seed_code must be a transmission code")
    if not isinstance(inner, codes.CommonRandomnessCode):
        raise InvalidStateError("code must be a common-randomness code")
    n_repeats = params.get("N", 1)
    d = codes.DerandomizedCode(seed_code, inner, n_repeats)
    error = codes.error_derandomized(d, w)
    report = {
        "kind": "derandomize",
        "N": int(n_repeats),
        "n_total": d.n_total,
        "messages": len(d.messages),
        "rate": codes.rate(d),
        "error": error,
    }
    checks = []
    if "eps_prime" in params or "eps" in params:
        eps_prime = float(params.get("eps_prime", 0.0))
        eps = float(params.get("eps", 0.0))
        checks.append(bounds.make_report("error-budget", error, eps_prime + eps * n_repeats))
    if "channel_v" in inputs:
        v = _load_channel(inputs, "channel_v")
        code = codes.derandomize(seed_code, inner, n_repeats)
        v_total = channels.tensor_power(v, code.n)
        m_dist = np.full(len(code.messages), 1.0 / len(code.messages))
        leakage = channels.leakage_cr(m_dist, {0: code.encoder}, v_total)
        report["leakage"] = leakage
        if checks:
            checks.append(
                bounds.make_report("leakage-budget", leakage, eps * n_repeats + eps_prime)
            )
    if checks:
        report["budget"] = serialize.reports_to_json(checks)
    serialize.dump_json(report, output)
    ok = all(r.holds for r in checks)
    return ok, f"error={error!r} rate={report['rate']!r}"


_HANDLERS = {
    "verify-bri": _run_verify_bri,
    "build-code": _run_build_code,
    "eval-leakage": _run_eval_leakage,
    "bound-chain": _run_bound_chain,
    "capacity": _run_capacity,
    "typicality-report": _run_typicality_report,
    "derandomize": _run_derandomize,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqwiretap",
        description="run one experiment described by a self-contained JSON spec file",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(KINDS))
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("spec", help="path to the experiment spec JSON")
        p.add_argument(
            "--seed", type=int, default=None,
            help="override params.seed (eval-leakage accepts and ignores seed and restarts)",
        )
        p.add_argument("--out", default=None, help="override the spec output path")
        p.add_argument("--cap", type=int, default=None, help="override the dimension cap")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = serialize.load_json(args.spec)
    except (OSError, ValueError) as exc:
        print(f"cqwiretap: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_PARSE
    saved_cap = os.environ.get(ENV_CAP)
    try:
        if not isinstance(spec, dict):
            raise InvalidStateError("spec must be a JSON object")
        if spec.get("kind") != args.kind:
            raise InvalidStateError(
                f"spec kind {spec.get('kind')!r} does not match subcommand {args.kind!r}"
            )
        inputs = _spec_dict(spec, "inputs", "spec inputs")
        params = dict(_spec_dict(spec, "params", "spec params"))
        if args.seed is not None:
            params["seed"] = args.seed
        output = args.out or spec.get("output")
        if not isinstance(output, str) or not output:
            raise InvalidStateError("spec needs an output path (or pass --out)")
        if args.cap is not None:
            os.environ[ENV_CAP] = str(args.cap)
        ok, summary = _HANDLERS[args.kind](inputs, params, output)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cqwiretap: cannot read a referenced file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print(f"cqwiretap: resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (VerificationError, ConstructionUnverifiedError, PsdOrderingError) as exc:
        print(f"cqwiretap: verification failed: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (InvalidStateError, DimensionMismatchError, KeyError, TypeError, ValueError) as exc:
        print(f"cqwiretap: invalid spec or inputs: {exc!r}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if args.cap is not None:
            if saved_cap is None:
                os.environ.pop(ENV_CAP, None)
            else:
                os.environ[ENV_CAP] = saved_cap
    status = EXIT_OK if ok else EXIT_BOUND
    print(f"cqwiretap {args.kind}: {'ok' if ok else 'FAIL'} {summary} -> {output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
