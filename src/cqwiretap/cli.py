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
accepts and ignores ``restarts``.  Each subcommand takes only the params
keys it reads, plus ``seed``; any other key, a missing required key, or
a value of the wrong JSON type (a string or a bool for a number, a
float for a count, anything but true or false for ``adversarial``)
is a validation error.  ``--cap`` is passed to the library as an
explicit dimension cap.

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
                   The leakage is taken per seed, so the seed register
                   does not count against the cap; only the typicality
                   mode's product dimension d^n does.
capacity           single-letter (or two-letter lifted) secrecy-rate
                   search; no asserted bound, convergence is reported.
                   ``n`` is the integer 1 or 2 and ``starts`` a
                   non-negative integer; other values fail validation.
typicality-report  per-n CSV of projector traces, ranks, eigenvalue
                   sandwich slacks and spectral factor bounds.  Asserts
                   only the instance-independent rows (te2 upper rank,
                   te3 sandwich, spectral rank factor); the rest are
                   reported, their sharpness depends on the instance.
derandomize        error, rate and optional leakage accounting for a
                   seed-transmitting code driving N reuses of an inner
                   code; asserts the ``eps_prime``/``eps`` budget rows
                   when given.  The error is blockwise; the leakage is
                   taken on the eavesdropper's channel, so only its
                   dimension v.dim^{n'+nN} counts against the cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds, bri, channels, codes, serialize, typicality
from .errors import (
    ConstructionUnverifiedError,
    DimensionMismatchError,
    InvalidStateError,
    PsdOrderingError,
    ResourceCapError,
    VerificationError,
)

# subcommand -> the params keys it reads; ``seed`` is allowed for every
# kind because --seed writes it, and eval-leakage accepts and ignores the
# ``restarts`` older spec files carry
_PARAMS = {
    "verify-bri": set(),
    "build-code": {"n", "codewords", "max_error"},
    "eval-leakage": {"m_dist", "adversarial", "restarts"},
    "bound-chain": {"v_prime", "m_dist"},
    "capacity": {"n", "starts"},
    "typicality-report": {"p", "delta", "ns"},
    "derandomize": {"N", "eps_prime", "eps"},
}
KINDS = tuple(_PARAMS)
# subcommand -> the params keys it cannot run without
_REQUIRED = {"typicality-report": {"p", "delta"}}

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


def _is_int(value) -> bool:
    # JSON integers only: not floats such as 2.0, not true/false
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what) -> float:
    """A JSON number, not a string or a bool (its range is checked where
    it is used)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidStateError(f"{what} must be a number, got {value!r}")
    return float(value)


def _rng(params) -> np.random.Generator:
    seed = params.get("seed")
    if not _is_int(seed):
        raise InvalidStateError("an integer rng seed is required for randomized steps")
    return np.random.Generator(np.random.Philox(seed))


def _dist(params, key, size):
    """``params[key]`` as a checked probability vector of ``size``
    entries, uniform when the key is absent."""
    raw = params.get(key)
    if raw is None:
        return np.full(size, 1.0 / size)
    return channels.check_distribution(raw, size, f"params.{key}")


def _load_channel(inputs, role) -> channels.CqChannel:
    return serialize.channel_from_json(serialize.load_json(_input_path(inputs, role)))


def _write_reports(reports, output) -> None:
    serialize.dump_json(serialize.reports_to_json(reports), output)
    Path(output).with_suffix(".csv").write_text(serialize.reports_to_csv(reports))


def _require(keys, required, what):
    missing = sorted(required - set(keys))
    if missing:
        raise InvalidStateError(f"missing {what}: {missing}")


# ---------------------------------------------------------------------------
# handlers; each takes the spec's inputs, params and output path and the
# --cap dimension cap (None for the default), returns (ok, summary) and
# writes its report files


def _run_verify_bri(inputs, params, output, cap):
    f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
    balance = f.d_x * f.n_inputs == f.d_s * f.n_seeds
    irreducible = f.irreducible
    report = {
        "kind": "verify-bri",
        "ok": balance and irreducible,
        "d_s": f.d_s,
        "d_x": f.d_x,
        "n_seeds": f.n_seeds,
        "n_inputs": f.n_inputs,
        "balance": [f.d_x * f.n_inputs, f.d_s * f.n_seeds],
        "regularity_set": list(f.regularity_set),
        "lambda2": [[m, bri.lambda2(f, m)] for m in f.regularity_set],
        "irreducible": irreducible,
    }
    serialize.dump_json(report, output)
    summary = f"d_S={f.d_s} d_X={f.d_x} balance {f.d_x * f.n_inputs}={f.d_s * f.n_seeds}"
    return report["ok"], summary


def _run_build_code(inputs, params, output, cap):
    n = params.get("n", 1)
    if not _is_int(n) or n < 1:
        raise InvalidStateError(f"params.n must be a positive integer, got {n!r}")
    budget = params.get("max_error")
    if budget is not None:
        budget = _number(budget, "params.max_error")
    w = _load_channel(inputs, "channel")
    raw = params.get("codewords")
    if not isinstance(raw, list) or not raw:
        raise InvalidStateError("params.codewords must list [message, string] pairs")
    codewords = {}
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidStateError("params.codewords entries must be [message, string] pairs")
        codewords[item[0]] = tuple(item[1])
    t = codes.transmission_code_pgm(codewords, w, n, cap)
    code = t
    if "bri" in inputs:
        f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
        code = codes.assemble_bri_modular(t, f)
        error = codes.error_expected_cr(code, w)
    else:
        error = codes.error_max(t, w)
    serialize.dump_json(serialize.code_to_json(code), output)
    ok = budget is None or error <= budget + 1e-9
    return ok, f"error={error!r} rate={codes.rate(code)!r}"


def _leakage_encoders(code):
    if isinstance(code, codes.TransmissionCode):
        code = code.as_wiretap()
    if isinstance(code, codes.WiretapCode):
        return {0: code.encoder}, code
    return {s: code.per_seed[s].encoder for s in code.seeds}, code


def _run_eval_leakage(inputs, params, output, cap):
    adversarial = params.get("adversarial", False)
    if not isinstance(adversarial, bool):
        raise InvalidStateError(f"params.adversarial must be true or false, got {adversarial!r}")
    v = _load_channel(inputs, "channel")
    code = serialize.code_from_json(serialize.load_json(_input_path(inputs, "code")))
    encoders, code = _leakage_encoders(code)
    v_n = channels.tensor_power(v, code.n, cap)
    m_dist = _dist(params, "m_dist", len(code.messages))
    value = channels.leakage_cr(m_dist, encoders, v_n)
    report = {
        "kind": "eval-leakage",
        "n": code.n,
        "messages": len(code.messages),
        "m_dist": [float(x) for x in m_dist],
        "leakage": value,
    }
    summary = f"leakage={value!r}"
    if adversarial:
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
# keys a v_prime mode cannot run without, besides "mode"
_V_PRIME_REQUIRED = {"typicality": {"p", "n", "delta"}}


def _chain_pair(v, params, cap):
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
    _require(mode, _V_PRIME_REQUIRED.get(name, set()), f"keys for v_prime mode {name!r}")
    if name == "identity":
        return v, v
    if name == "scale":
        return v, v.scaled(_number(mode.get("factor", 1.0), "params.v_prime.factor"))
    p = np.asarray(mode["p"], dtype=float)
    n = mode["n"]
    if not _is_int(n):
        raise InvalidStateError(f"params.v_prime.n must be an integer, got {n!r}")
    delta = _number(mode["delta"], "params.v_prime.delta")
    return typicality.reindexed_pair(v, p, n, delta, cap)


def _run_bound_chain(inputs, params, output, cap):
    v = _load_channel(inputs, "channel")
    f = serialize.bri_from_json(serialize.load_json(_input_path(inputs, "bri")))
    base, v_prime = _chain_pair(v, params, cap)
    m_dist = _dist(params, "m_dist", len(f.regularity_set))
    reports = bounds.certify_chain(f, base, v_prime, m_dist)
    _write_reports(reports, output)
    ok = all(r.holds for r in reports)
    return ok, f"{sum(r.holds for r in reports)}/{len(reports)} reports hold"


def _run_capacity(inputs, params, output, cap):
    w = _load_channel(inputs, "channel_w")
    v = _load_channel(inputs, "channel_v")
    n = params.get("n", 1)
    if not _is_int(n) or n not in (1, 2):
        raise InvalidStateError(f"params.n must be the integer 1 or 2, got {n!r}")
    starts = params.get("starts", 16)
    if not _is_int(starts) or starts < 0:
        raise InvalidStateError(f"params.starts must be a non-negative integer, got {starts!r}")
    result = channels.capacity_lifted(w, v, n, rng=_rng(params), cap=cap, starts=starts)
    report = {
        "kind": "capacity",
        "n": n,
        "value": result.value,
        "argmax": [float(x) for x in result.argmax],
        "converged": bool(result.converged),
    }
    serialize.dump_json(report, output)
    return True, f"value={result.value!r} converged={result.converged}"


def _run_typicality_report(inputs, params, output, cap):
    v = _load_channel(inputs, "channel")
    p = channels.check_distribution(params["p"], len(v.alphabet), "params.p")
    delta = _number(params["delta"], "params.delta")
    ns = params.get("ns", [2, 4, 8])
    if not isinstance(ns, list) or not all(_is_int(n) and n >= 1 for n in ns):
        raise InvalidStateError("params.ns must be a list of positive block lengths")

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
    for n, (epsilon, named) in zip(ns, typicality.typicality_reports(v, p, delta, ns, cap)):
        reports = {r.name: r for r in named}
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
            epsilon,
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


def _run_derandomize(inputs, params, output, cap):
    n_repeats = params.get("N", 1)
    if not _is_int(n_repeats) or n_repeats < 1:
        raise InvalidStateError(f"params.N must be a positive integer, got {n_repeats!r}")
    budget = "eps_prime" in params or "eps" in params
    eps_prime = _number(params.get("eps_prime", 0.0), "params.eps_prime")
    eps = _number(params.get("eps", 0.0), "params.eps")
    w = _load_channel(inputs, "channel_w")
    seed_code = serialize.code_from_json(serialize.load_json(_input_path(inputs, "seed_code")))
    inner = serialize.code_from_json(serialize.load_json(_input_path(inputs, "code")))
    if not isinstance(seed_code, codes.TransmissionCode):
        raise InvalidStateError("seed_code must be a transmission code")
    if not isinstance(inner, codes.CommonRandomnessCode):
        raise InvalidStateError("code must be a common-randomness code")
    d = codes.DerandomizedCode(seed_code, inner, n_repeats)
    error = codes.error_derandomized(d, w, cap)
    report = {
        "kind": "derandomize",
        "N": n_repeats,
        "n_total": d.n_total,
        "messages": len(d.messages),
        "rate": codes.rate(d),
        "error": error,
    }
    checks = []
    if budget:
        checks.append(bounds.make_report("error-budget", error, eps_prime + eps * n_repeats))
    if "channel_v" in inputs:
        eve = codes.derandomized_channel(d, _load_channel(inputs, "channel_v"), cap)
        uniform = np.full(len(eve.alphabet), 1.0 / len(eve.alphabet))
        leakage = channels.holevo(uniform, eve)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parsing leaves it
    unchanged, so every :func:`main` call in a process shares it."""
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
    try:
        if not isinstance(spec, dict):
            raise InvalidStateError("spec must be a JSON object")
        if spec.get("kind") != args.kind:
            raise InvalidStateError(
                f"spec kind {spec.get('kind')!r} does not match subcommand {args.kind!r}"
            )
        inputs = _spec_dict(spec, "inputs", "spec inputs")
        params = dict(_spec_dict(spec, "params", "spec params"))
        unknown = sorted(set(params) - _PARAMS[args.kind] - {"seed"})
        if unknown:
            raise InvalidStateError(f"unknown params for {args.kind}: {unknown}")
        _require(params, _REQUIRED.get(args.kind, set()), f"params for {args.kind}")
        if args.seed is not None:
            params["seed"] = args.seed
        output = args.out or spec.get("output")
        if not isinstance(output, str) or not output:
            raise InvalidStateError("spec needs an output path (or pass --out)")
        ok, summary = _HANDLERS[args.kind](inputs, params, output, args.cap)
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
    status = EXIT_OK if ok else EXIT_BOUND
    print(f"cqwiretap {args.kind}: {'ok' if ok else 'FAIL'} {summary} -> {output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
