"""Command-line surface producing machine-readable reports.

Every subcommand emits one report (JSON by default, schema version 1) with
the command, the echoed configuration (only the options that take effect), a
result payload, counts, a status and the wall time.  Reports for identical
configurations are byte-identical except for the wall-time field.  Exit
codes: 0 ok, 2 precondition-error, 3 budget-exceeded, 4 theorem-violation
(reserved for outcomes that exact arithmetic rules out).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict

from . import applications, uncertainty
from .cyclotomic import PrimeModulus
from .errors import BudgetExceededError, TheoremViolationError
from .fourier import SupportSet

SCHEMA_VERSION = 1

_STATUS_CODES = {
    "ok": 0,
    "precondition-error": 2,
    "budget-exceeded": 3,
    "theorem-violation": 4,
}


def _parse_residues(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def parse_values_file(path: str, p: int, ndim: int) -> dict[tuple[int, ...], int]:
    """Parse the line-oriented `x1,...,xn: value` table; missing entries are 0."""
    table: dict[tuple[int, ...], int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            coords, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'x1,...,xn: value'")
            try:
                point = tuple(int(tok) for tok in coords.split(","))
                number = int(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected integers in "
                                 f"'x1,...,xn: value', got {line!r}") from None
            if len(point) != ndim:
                raise ValueError(f"{path}:{lineno}: expected {ndim} coordinates")
            if not all(0 <= x < p for x in point):
                raise ValueError(f"{path}:{lineno}: coordinates outside [0, {p})")
            if point in table:
                raise ValueError(f"{path}:{lineno}: duplicate entry for {point}")
            table[point] = number
    return table


def _support_payload(s: SupportSet) -> list[int]:
    return list(s.members)


def _signal_payload(f) -> list[str]:
    return [str(v) for v in f.values]


def _witness_payload(witness) -> dict:
    return {
        "support": _support_payload(witness.target_support),
        "spectrum": _support_payload(witness.target_spectrum),
        "combination_coeffs": list(witness.combination_coeffs),
        "signal": _signal_payload(witness.signal),
    }


def _cmd_certify(args) -> tuple[dict, dict, Iterable[dict]]:
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {args.seed}")
    modulus = PrimeModulus(args.p)
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    summary = uncertainty.exhaustive_certification(modulus, max_p=args.budget)
    rows = ()
    if args.format == "csv":
        # One row per orbit record the sweep checked, standing for orbit_size
        # instances.  The sweep raises on any failure, so every record passed.
        rows = (
            {"kind": kind, "first": ";".join(map(str, first)),
             "second": ";".join(map(str, second)), "orbit_size": orbit_size, "ok": True}
            for kind, first, second, orbit_size in uncertainty._certification_orbits(modulus.p)
        )
    result = dict(asdict(summary), all_ok=True)
    counts = {"minors": summary.minors_checked, "tightness": summary.tightness_checked,
              "achievability": summary.achievability_checked}
    return result, counts, rows


def _cmd_construct(args) -> tuple[dict, dict, list[dict]]:
    modulus = PrimeModulus(args.p)
    a = SupportSet(modulus, _parse_residues(args.a))
    b = SupportSet(modulus, _parse_residues(args.b))
    witness = uncertainty.construct_support_pair(a, b)
    result = _witness_payload(witness)
    counts = {"a": len(a), "b": len(b),
              "combination_terms": len(witness.combination_coeffs)}
    row = {
        "p": args.p,
        "a": ";".join(map(str, a.members)),
        "b": ";".join(map(str, b.members)),
        "signal": "|".join(result["signal"]),
        "combination_coeffs": ";".join(map(str, witness.combination_coeffs)),
    }
    return result, counts, [row]


def _cmd_sparse(args) -> tuple[dict, dict, list[dict]]:
    modulus = PrimeModulus(args.p)
    exponents = _parse_residues(args.exponents)
    coefficients = _parse_residues(args.coefficients)
    if len(exponents) != len(coefficients):
        raise ValueError(
            f"{len(exponents)} exponents but {len(coefficients)} coefficients"
        )
    poly = applications.SparsePoly(modulus, zip(exponents, coefficients))
    report = applications.sparse_zero_count(poly)
    result = {
        "zeros": _support_payload(report.zeros),
        "max_zeros": report.max_zeros,
        "bound_holds": report.bound_holds,
    }
    counts = {"zeros": len(report.zeros), "terms": len(poly.terms)}
    row = {
        "p": args.p,
        "exponents": ";".join(map(str, exponents)),
        "zeros": ";".join(map(str, report.zeros.members)),
        "max_zeros": report.max_zeros,
        "bound_holds": report.bound_holds,
    }
    return result, counts, [row]


def _cmd_sumset(args) -> tuple[dict, dict, list[dict]]:
    modulus = PrimeModulus(args.p)
    a = SupportSet(modulus, _parse_residues(args.a))
    b = SupportSet(modulus, _parse_residues(args.b))
    check = applications.cauchy_davenport_check(a, b)
    result = {
        "sumset": _support_payload(applications.sumset(a, b)),
        "lhs": check.lhs,
        "rhs": check.rhs,
        "holds": check.holds,
    }
    if args.witness:
        witness = applications.cd_proof_witness(a, b)
        result["witness"] = {
            "spectrum_a": _support_payload(witness.spectrum_a),
            "spectrum_b": _support_payload(witness.spectrum_b),
            "f": _signal_payload(witness.f),
            "g": _signal_payload(witness.g),
            "conv": _signal_payload(witness.conv),
            "inequality_chain": asdict(witness.inequality_chain),
        }
    counts = {"a": len(a), "b": len(b), "sumset": check.lhs}
    row = {
        "p": args.p,
        "a": ";".join(map(str, a.members)),
        "b": ";".join(map(str, b.members)),
        "lhs": check.lhs,
        "rhs": check.rhs,
        "holds": check.holds,
    }
    return result, counts, [row]


def _cmd_meshulam(args) -> tuple[dict, dict, list[dict]]:
    modulus = PrimeModulus(args.p)
    # Refuse an oversized table before the values file is read.
    applications._check_table_size(modulus.p, args.n)
    table = parse_values_file(args.values_file, modulus.p, args.n)
    signal = applications.MultiSignal(modulus, args.n, table)
    report = applications.meshulam_check(signal)
    result = {
        "support_size": report.support_size,
        "fourier_support_size": report.fourier_support_size,
        "per_j": list(report.per_j),
        "hull_ok": report.hull_ok,
    }
    counts = {
        "support": report.support_size,
        "fourier_support": report.fourier_support_size,
    }
    row = {
        "p": args.p,
        "n": args.n,
        "support_size": report.support_size,
        "fourier_support_size": report.fourier_support_size,
        "hull_ok": report.hull_ok,
    }
    return result, counts, [row]


_COMMANDS = {
    "certify": _cmd_certify,
    "construct": _cmd_construct,
    "sparse": _cmd_sparse,
    "sumset": _cmd_sumset,
    "meshulam": _cmd_meshulam,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primefourier",
        description="Exact certifications and constructions on Z/pZ",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="prime modulus")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")

    sp = sub.add_parser("certify", help="exhaustive minor/tightness/achievability sweep")
    common(sp)
    sp.add_argument("--seed", type=int, default=0,
                    help="64-bit seed, range-checked and ignored: the sweep is not randomized")
    sp.add_argument("--budget", type=int, default=uncertainty.DEFAULT_MAX_CERTIFY_P,
                    help="largest p the sweep will accept (default %(default)s, which "
                         "takes about 2 s serially; p = 23 takes minutes)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="at least 1, range-checked and ignored: the sweep runs serially")

    sp = sub.add_parser("construct", help="build a signal with prescribed supports")
    common(sp)
    sp.add_argument("--a", required=True, help="target support, comma-separated residues")
    sp.add_argument("--b", required=True, help="target Fourier support")

    sp = sub.add_parser("sparse", help="count zeros of a sparse polynomial at roots of unity")
    common(sp)
    sp.add_argument("--exponents", required=True, help="comma-separated exponents")
    sp.add_argument("--coefficients", required=True, help="comma-separated integer coefficients")

    sp = sub.add_parser("sumset", help="Cauchy-Davenport check, optionally with proof witness")
    common(sp)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--witness", action="store_true",
                    help="also build and verify the convolution witness")

    sp = sub.add_parser("meshulam", help="support bound for a function on (Z/pZ)^n")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="number of coordinates")
    sp.add_argument("--values-file", required=True,
                    help="line-oriented table: x1,...,xn: integer-value")

    return parser


def _config_echo(args) -> dict:
    # certify ignores its --seed and --jobs, so the report does not echo them.
    hidden = {"command", "seed", "jobs"} if args.command == "certify" else {"command"}
    return {key: value for key, value in vars(args).items() if key not in hidden}


def _emit_text(report: dict, out) -> None:
    print(f"command: {report['command']}", file=out)
    print(f"status: {report['status']}", file=out)
    if "error" in report:
        print(f"error: {report['error']}", file=out)
    for key, value in sorted(report["config"].items()):
        print(f"config.{key}: {value}", file=out)
    if report["result"] is not None:
        for key, value in sorted(report["result"].items()):
            print(f"result.{key}: {value}", file=out)
    print(f"wall_time_s: {report['wall_time_s']}", file=out)


def _emit_csv(report: dict, rows: Iterable[dict], out) -> None:
    rows = iter(rows)
    first = next(rows, None) or {"status": report["status"],
                                 "error": report.get("error", "")}
    writer = csv.DictWriter(out, fieldnames=list(first.keys()))
    writer.writeheader()
    writer.writerow(first)
    writer.writerows(rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    result = None
    counts: dict = {}
    rows: Iterable[dict] = ()
    error = None
    try:
        result, counts, rows = _COMMANDS[args.command](args)
        status = "ok"
    except (ValueError, OSError) as exc:
        status, error = "precondition-error", str(exc)
    except BudgetExceededError as exc:
        status, error = "budget-exceeded", str(exc)
    except TheoremViolationError as exc:
        status, error = "theorem-violation", str(exc)
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "config": _config_echo(args),
        "status": status,
        "result": result,
        "counts": counts,
        "wall_time_s": round(time.perf_counter() - start, 6),
    }
    if error is not None:
        report["error"] = error
    out = sys.stdout
    if args.format == "json":
        json.dump(report, out, sort_keys=True, indent=2)
        out.write("\n")
    elif args.format == "csv":
        _emit_csv(report, rows, out)
    else:
        _emit_text(report, out)
    return _STATUS_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
