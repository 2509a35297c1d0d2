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

``_SPECS`` declares each subcommand's input roles and params keys, each
with its reader and its default or ``REQUIRED``, and :func:`main` reads
the whole spec through it before a handler runs: any other key, a
missing required one, a present ``null`` or a value of the wrong JSON
type (a string or a bool for a number, a float for a count, a non-finite
number, a negative budget, a repeat in ``ns``) is a validation error.
Handlers size the probability vectors with
:func:`~cqwiretap.channels.check_distribution`.  ``capacity`` requires
``seed``; the others accept and ignore it, ``eval-leakage`` also
``restarts``.  ``--cap`` is passed to the library as a dimension cap.

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
                   every report, and exits 4 when V' <= V fails (the
                   chain's ordering check, the only one in the library).
                   ``v_prime`` modes: identity, scale,
                   typicality (sandwich the n-letter channel between
                   typical projectors and re-index typical strings).
                   The leakage is taken per seed, so the seed register
                   does not count against the cap; only the typicality
                   mode's product dimension d^n does.
capacity           single-letter (or two-letter lifted) secrecy-rate
                   search; no asserted bound, convergence is reported.
typicality-report  per-n CSV of projector traces, ranks, eigenvalue
                   sandwich slacks and spectral factor bounds.  Asserts
                   only the instance-independent rows (te2 upper rank,
                   te3 sandwich, spectral rank factor); the rest are
                   reported, their sharpness depends on the instance.
                   Exits 4 only when an asserted row fails: no report
                   depends on V' <= V^n, which is not decided here.
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

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BOUND = 4
EXIT_CAP = 5

REQUIRED = object()  # the default of a key a spec must give


# ---------------------------------------------------------------------------
# readers; each takes a JSON value and its name in the spec, and returns the
# typed value or raises InvalidStateError naming the key


def _is_int(value) -> bool:
    # JSON integers only: not floats such as 2.0, not true/false
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # the bound also rejects nan, +-inf and ints too large for a float
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _reader(check, want, cast=lambda value: value):
    def read(value, what):
        if not check(value):
            raise InvalidStateError(f"{what} must be {want}, got {value!r}")
        return cast(value)
    return read


_positive = _reader(lambda v: _is_int(v) and v >= 1, "a positive integer")
_count = _reader(lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_one_or_two = _reader(lambda v: _is_int(v) and v in (1, 2), "the integer 1 or 2")
_number = _reader(_is_finite, "a finite number", float)
_budget = _reader(lambda v: _is_finite(v) and v >= 0, "a finite number of at least 0", float)
_bool = _reader(lambda v: isinstance(v, bool), "true or false")
# the entries and the size are checked by channels.check_distribution
_vector = _reader(lambda v: isinstance(v, list), "a list of probabilities")
_block_lengths = _reader(
    lambda v: isinstance(v, list) and v and all(_is_int(n) and n >= 1 for n in v)
    and len(set(v)) == len(v),
    "a nonempty list of distinct positive block lengths",
)
_path = _reader(lambda v: isinstance(v, str) and v, "a file path")
_object = _reader(lambda v: isinstance(v, dict), "a JSON object")


def _codewords(value, what) -> dict:
    """``[[message, string], ...]`` as a message -> codeword tuple dict."""
    if not isinstance(value, list) or not value:
        raise InvalidStateError(f"{what} must list [message, string] pairs")
    codewords = {}
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise InvalidStateError(f"{what} entries must be [message, string] pairs")
        message, string = item
        if message in codewords:
            raise InvalidStateError(f"{what} repeats message {message!r}")
        if not isinstance(string, list):
            raise InvalidStateError(f"{what} string of message {message!r} is not a list")
        codewords[message] = tuple(string)
    return codewords


# v_prime mode -> its keys besides "mode", in the shape of a params table
_V_PRIME_MODES = {
    "identity": {},
    "scale": {"factor": (_number, 1.0)},
    "typicality": {"p": (_vector, REQUIRED), "n": (_positive, REQUIRED),
                   "delta": (_number, REQUIRED)},
}


def _v_prime(value, what) -> tuple:
    """The ``v_prime`` object as ``(mode, {key: typed value})``."""
    if not isinstance(value, dict) or "mode" not in value:
        raise InvalidStateError(f"{what} must be an object with a 'mode'")
    name, keys = value["mode"], {k: v for k, v in value.items() if k != "mode"}
    if name not in _V_PRIME_MODES:
        raise InvalidStateError(f"unknown v_prime mode {name!r}")
    return name, _read(_V_PRIME_MODES[name], keys, f"keys for v_prime mode {name!r}", what)


def _file(loader):
    """The reader of an input role: the JSON file at a path, loaded."""
    return lambda value, what: loader(serialize.load_json(_path(value, what)))


_CHANNEL = _file(serialize.channel_from_json)
_BRI = _file(serialize.bri_from_json)
_CODE = _file(serialize.code_from_json)
_SEED = (_count, None)

# the top-level keys of every spec
_SPEC_KEYS = {"kind": (lambda value, what: value, REQUIRED), "inputs": (_object, {}),
              "params": (_object, {}), "output": (_path, None)}

# subcommand -> {"inputs": role -> (loader, None or REQUIRED),
#                "params": key -> (reader, default or REQUIRED)}
_SPECS = {
    "verify-bri": {"inputs": {"bri": (_BRI, REQUIRED)}, "params": {"seed": _SEED}},
    "build-code": {
        "inputs": {"channel": (_CHANNEL, REQUIRED), "bri": (_BRI, None)},
        "params": {"n": (_positive, 1), "codewords": (_codewords, REQUIRED),
                   "max_error": (_budget, None), "seed": _SEED},
    },
    "eval-leakage": {
        "inputs": {"channel": (_CHANNEL, REQUIRED), "code": (_CODE, REQUIRED)},
        "params": {"m_dist": (_vector, None), "adversarial": (_bool, False),
                   "restarts": (_count, None), "seed": _SEED},
    },
    "bound-chain": {
        "inputs": {"channel": (_CHANNEL, REQUIRED), "bri": (_BRI, REQUIRED)},
        "params": {"v_prime": (_v_prime, ("identity", {})), "m_dist": (_vector, None),
                   "seed": _SEED},
    },
    "capacity": {
        "inputs": {"channel_w": (_CHANNEL, REQUIRED), "channel_v": (_CHANNEL, REQUIRED)},
        "params": {"n": (_one_or_two, 1), "starts": (_count, 16), "seed": (_count, REQUIRED)},
    },
    "typicality-report": {
        "inputs": {"channel": (_CHANNEL, REQUIRED)},
        "params": {"p": (_vector, REQUIRED), "delta": (_number, REQUIRED),
                   "ns": (_block_lengths, [2, 4, 8]), "seed": _SEED},
    },
    "derandomize": {
        "inputs": {"channel_w": (_CHANNEL, REQUIRED), "seed_code": (_CODE, REQUIRED),
                   "code": (_CODE, REQUIRED), "channel_v": (_CHANNEL, None)},
        "params": {"N": (_positive, 1), "eps_prime": (_budget, None), "eps": (_budget, None),
                   "seed": _SEED},
    },
}
KINDS = tuple(_SPECS)


def _read(table, obj, what, label) -> dict:
    """Every key of ``table`` (key -> (reader, default)) read from the JSON
    object ``obj``: a present key by its reader, under the name
    ``label.key``, an absent one as its default.  An unknown key or an
    absent ``REQUIRED`` one is an error."""
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise InvalidStateError(f"unknown {what}: {unknown}")
    missing = sorted(key for key, (_, default) in table.items()
                     if default is REQUIRED and key not in obj)
    if missing:
        raise InvalidStateError(f"missing {what}: {missing}")
    return {key: reader(obj[key], f"{label}.{key}") if key in obj else default
            for key, (reader, default) in table.items()}


def _rng(params) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(params["seed"]))


def _write_reports(reports, output) -> None:
    serialize.dump_json(serialize.reports_to_json(reports), output)
    Path(output).with_suffix(".csv").write_text(serialize.reports_to_csv(reports))


# ---------------------------------------------------------------------------
# handlers; each takes the spec's inputs, params and output path and the
# --cap dimension cap (None for the default), returns (ok, summary) and
# writes its report files


def _run_verify_bri(inputs, params, output, cap):
    f = inputs["bri"]
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
    w, f = inputs["channel"], inputs["bri"]
    t = codes.transmission_code_pgm(params["codewords"], w, params["n"], cap)
    code = t if f is None else codes.assemble_bri_modular(t, f)
    error = codes.error_max(t, w) if f is None else codes.error_expected_cr(code, w)
    serialize.dump_json(serialize.code_to_json(code), output)
    budget = params["max_error"]
    ok = budget is None or error <= budget + 1e-9
    return ok, f"error={error!r} rate={codes.rate(code)!r}"


def _leakage_encoders(code):
    if isinstance(code, codes.TransmissionCode):
        code = code.as_wiretap()
    if isinstance(code, codes.WiretapCode):
        return {0: code.encoder}, code
    return {s: code.per_seed[s].encoder for s in code.seeds}, code


def _run_eval_leakage(inputs, params, output, cap):
    encoders, code = _leakage_encoders(inputs["code"])
    v_n = channels.tensor_power(inputs["channel"], code.n, cap)
    k = len(code.messages)
    m_dist = np.full(k, 1.0 / k) if params["m_dist"] is None else params["m_dist"]
    m_dist = channels.check_distribution(m_dist, k, "params.m_dist")
    stack = channels.SeedStack(encoders, v_n)
    value = stack.leakage_cr(m_dist)
    report = {
        "kind": "eval-leakage",
        "n": code.n,
        "messages": len(code.messages),
        "m_dist": [float(x) for x in m_dist],
        "leakage": value,
    }
    summary = f"leakage={value!r}"
    if params["adversarial"]:
        worst = stack.adversarial_leakage()
        report["adversarial"] = {
            "value": worst.value,
            "upper": worst.upper,
            "argmax": [float(x) for x in worst.argmax],
            "converged": bool(worst.converged),
        }
        summary += f" adversarial={worst.value!r}"
    serialize.dump_json(report, output)
    return True, summary


def _chain_pair(v, v_prime, cap):
    """The (V, V', A) of the chain for the spec's ``v_prime`` mode: A is
    the isometry V' is read through in typicality mode, None otherwise."""
    name, mode = v_prime
    if name == "identity":
        return v, v, None
    if name == "scale":
        return v, v.scaled(mode["factor"]), None
    p = channels.check_distribution(mode["p"], len(v.alphabet), "params.v_prime.p")
    return typicality.reindexed_pair(v, p, mode["n"], mode["delta"], cap)


def _run_bound_chain(inputs, params, output, cap):
    f = inputs["bri"]
    base, v_prime, iso = _chain_pair(inputs["channel"], params["v_prime"], cap)
    k = len(f.regularity_set)
    m_dist = np.full(k, 1.0 / k) if params["m_dist"] is None else params["m_dist"]
    m_dist = channels.check_distribution(m_dist, k, "params.m_dist")
    reports = bounds.certify_chain(f, base, v_prime, m_dist, iso)
    _write_reports(reports, output)
    ok = all(r.holds for r in reports)
    return ok, f"{sum(r.holds for r in reports)}/{len(reports)} reports hold"


def _run_capacity(inputs, params, output, cap):
    result = channels.capacity_lifted(inputs["channel_w"], inputs["channel_v"], params["n"],
                                      rng=_rng(params), cap=cap, starts=params["starts"])
    report = {
        "kind": "capacity",
        "n": params["n"],
        "value": result.value,
        "argmax": [float(x) for x in result.argmax],
        "converged": bool(result.converged),
    }
    serialize.dump_json(report, output)
    return True, f"value={result.value!r} converged={result.converged}"


# typicality-report CSV column -> the (report, field) it holds; epsilon is
# the block's own value, not a report's
_TYPICALITY_COLUMNS = {
    "trace": ("te1-trace", "lhs"), "rank": ("te2-rank-upper", "lhs"),
    "te2_lower_slack": ("te2-rank-lower", "slack"), "te2_upper_slack": ("te2-rank-upper", "slack"),
    "te3_lower_slack": ("te3-eig-lower", "slack"), "te3_upper_slack": ("te3-eig-upper", "slack"),
    "te4_trace": ("te4-trace", "lhs"),
    "te5_lower_slack": ("te5-eig-lower", "slack"), "te5_upper_slack": ("te5-eig-upper", "slack"),
    "te6_lower_slack": ("te6-rank-lower", "slack"), "te6_upper_slack": ("te6-rank-upper", "slack"),
    "te7_trace": ("te7-trace", "lhs"), "epsilon": None,
    "norm_slack": ("factor-norm", "slack"), "rank_slack": ("factor-rank", "slack"),
    "product_slack": ("factor-product", "slack"),
}


def _run_typicality_report(inputs, params, output, cap):
    v, delta, ns = inputs["channel"], params["delta"], params["ns"]
    p = channels.check_distribution(params["p"], len(v.alphabet), "params.p")

    asserted = {"te2-rank-upper", "te3-eig-lower", "te3-eig-upper", "factor-rank"}
    rows = []
    per_n = []
    ok = True
    for n, (epsilon, named) in zip(ns, typicality.typicality_reports(v, p, delta, ns, cap)):
        reports = {r.name: r for r in named}
        ok = ok and all(reports[name].holds for name in asserted)
        rows.append([n] + [epsilon if column is None else getattr(reports[column[0]], column[1])
                           for column in _TYPICALITY_COLUMNS.values()])
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
    lines = [",".join(["n", *_TYPICALITY_COLUMNS])]
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
    return float(np.polyfit(xs, ys, 1)[0])


def _run_derandomize(inputs, params, output, cap):
    n_repeats, eps_prime, eps = params["N"], params["eps_prime"], params["eps"]
    budget = eps_prime is not None or eps is not None
    eps_prime, eps = (0.0 if x is None else x for x in (eps_prime, eps))
    seed_code, inner = inputs["seed_code"], inputs["code"]
    if not isinstance(seed_code, codes.TransmissionCode):
        raise InvalidStateError("seed_code must be a transmission code")
    if not isinstance(inner, codes.CommonRandomnessCode):
        raise InvalidStateError("code must be a common-randomness code")
    d = codes.DerandomizedCode(seed_code, inner, n_repeats)
    error = codes.error_derandomized(d, inputs["channel_w"], cap)
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
    if inputs["channel_v"] is not None:
        eve = codes.derandomized_channel(d, inputs["channel_v"], cap)
        uniform = np.full(len(eve.alphabet), 1.0 / len(eve.alphabet))
        leakage = channels.holevo(uniform, eve)
        report["leakage"] = leakage
        if checks:
            checks.append(bounds.make_report("leakage-budget", leakage, eps * n_repeats + eps_prime))
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
            help="override params.seed (only capacity uses it)",
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
        spec = _read(_SPEC_KEYS, _object(spec, "spec"), "spec keys", "spec")
        if spec["kind"] != args.kind:
            raise InvalidStateError(
                f"spec kind {spec['kind']!r} does not match subcommand {args.kind!r}"
            )
        output = args.out or spec["output"]
        if output is None:
            raise InvalidStateError("spec needs an output path (or pass --out)")
        # plain values first, then the input files
        table, params = _SPECS[args.kind], spec["params"]
        if args.seed is not None:
            params = {**params, "seed": args.seed}
        params = _read(table["params"], params, f"params for {args.kind}", "params")
        inputs = _read(table["inputs"], spec["inputs"], f"inputs for {args.kind}", "inputs")
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
