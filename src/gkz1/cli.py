"""File-driven command line interface.

Reads a problem description (JSON, or TOML by extension), runs the requested
stage of the pipeline and prints a machine-readable report.  All rationals
cross the boundary as exact "p/q" strings; no floats enter anywhere.

Exit codes: 0 success, 1 internal invariant failure, 2 invalid input,
3 hypothesis violation (e.g. a resonant parameter passed to classify).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .classify import is_mum_holomorphic, singularity_type
from .errors import HypothesisError, InputError, InternalInvariantError
from .exponents import fake_exponents, normalized_set
from .lattice import build_config, is_nonresonant, parameter, volume_crosscheck
from .series import log_solution, solution_bundle
from .verify import certify

DEFAULT_WINDOW = (-10, 20)


@dataclass
class ProblemSpec:
    points: list[list[int]]
    beta: list[Fraction]
    u: list[Fraction] | None = None
    lift: list[int] | None = None
    window: tuple[int, int] = DEFAULT_WINDOW
    r: int | None = None
    verify: bool = True


def _rational(value, field: str) -> Fraction:
    try:
        if isinstance(value, float):
            raise InputError(f"{field}: floats are not accepted, use 'p/q' strings")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"{field}: cannot parse rational {value!r}: {exc}") from None


def _int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field}: expected an integer, got {value!r}")
    return value


def load_problem(path: str) -> ProblemSpec:
    file_path = Path(path)
    if not file_path.exists():
        raise InputError(f"input file not found: {path}")
    try:
        if file_path.suffix.lower() == ".toml":
            try:
                import tomllib  # Python >= 3.11
            except ModuleNotFoundError:
                import tomli as tomllib
            data = tomllib.loads(file_path.read_text())
        else:
            data = json.loads(file_path.read_text())
    except Exception as exc:
        raise InputError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must contain a table/object at top level")
    if "A" not in data:
        raise InputError("A: missing (list of integer points)")
    if "beta" not in data:
        raise InputError("beta: missing (list of rationals)")
    points = [
        [_int(x, f"A[{i}]") for x in col] for i, col in enumerate(data["A"])
    ]
    beta = [_rational(x, f"beta[{i}]") for i, x in enumerate(data["beta"])]
    spec = ProblemSpec(points=points, beta=beta)
    if "u" in data:
        spec.u = [_rational(x, f"u[{i}]") for i, x in enumerate(data["u"])]
    if "lift" in data:
        spec.lift = [_int(x, f"lift[{i}]") for i, x in enumerate(data["lift"])]
    if "window" in data:
        window = data["window"]
        if not (isinstance(window, (list, tuple)) and len(window) == 2):
            raise InputError("window: expected [lo, hi]")
        spec.window = (_int(window[0], "window[0]"), _int(window[1], "window[1]"))
    if "r" in data:
        spec.r = _int(data["r"], "r")
    if "verify" in data:
        if not isinstance(data["verify"], bool):
            raise InputError("verify: expected a boolean")
        spec.verify = data["verify"]
    return spec


def _apply_overrides(spec: ProblemSpec, args) -> ProblemSpec:
    if args.window is not None:
        try:
            lo, _, hi = args.window.partition(":")
            spec.window = (int(lo), int(hi))
        except ValueError:
            raise InputError(f"--window: expected LO:HI, got {args.window!r}") from None
    if args.u is not None:
        spec.u = [
            _rational(x.strip(), "--u") for x in args.u.split(",") if x.strip() != ""
        ]
    if args.lift is not None:
        try:
            spec.lift = [int(x) for x in args.lift.split(",")]
        except ValueError:
            raise InputError(f"--lift: expected integers, got {args.lift!r}") from None
    if args.r is not None:
        spec.r = args.r
    if getattr(args, "no_verify", False):
        spec.verify = False
    if spec.window[0] > spec.window[1]:
        raise InputError(f"window: lo > hi in {spec.window}")
    return spec


def _rat_list(values) -> list[str]:
    return [str(v) if type(v) in (Fraction, int) else str(Fraction(v)) for v in values]


def _exponent_dict(exp) -> dict:
    return {
        "vector": _rat_list(exp.vector),
        "labels": [list(label) for label in exp.labels],
        "m_support": sorted(exp.m_support),
        "multiplicity": exp.multiplicity,
    }


def _verdict_dict(verdict) -> dict:
    return {
        "indices": sorted(verdict.indices),
        "lift": list(verdict.lift),
        "minimal": verdict.minimal,
        "membership": [list(iv) for iv in verdict.membership.intervals],
    }


def cmd_analyze(spec: ProblemSpec) -> dict:
    config = build_config(spec.points)
    beta = parameter(config, spec.beta)
    resonance = is_nonresonant(config, beta)
    return {
        "n": config.n,
        "dim": config.dim,
        "columns": [list(c) for c in config.columns],
        "relation": list(config.relation),
        "k": config.k,
        "perm": list(config.perm),
        "vol": config.volume,
        "vol_crosscheck": volume_crosscheck(config),
        "positive_sum": config.positive_sum,
        "negative_sum": config.negative_sum,
        "singularity": singularity_type(config).value,
        "beta": _rat_list(beta.beta),
        "nonresonant": bool(resonance),
        "resonance_witness": (
            {
                "i": resonance.witness[0],
                "j": resonance.witness[1],
                "value": resonance.witness[2],
            }
            if resonance.witness
            else None
        ),
    }


def cmd_exponents(spec: ProblemSpec) -> dict:
    config = build_config(spec.points)
    beta = parameter(config, spec.beta)
    fakes = fake_exponents(config, beta)
    primes = normalized_set(config, fakes)
    return {
        "beta": _rat_list(beta.beta),
        "fake_exponents": [_exponent_dict(e) for e in fakes],
        "prime_exponents": [_exponent_dict(e) for e in primes.exponents],
        "multiplicity_sum": primes.multiplicity_sum,
        "relation_sum": primes.relation_sum,
    }


def _solve_report(spec: ProblemSpec) -> tuple[dict, object, object]:
    config = build_config(spec.points)
    beta = parameter(config, spec.beta)
    report = solution_bundle(
        config, beta, u=spec.u, u_lift=spec.lift, window=spec.window
    )
    out = {
        "beta": _rat_list(beta.beta),
        "parameter": _rat_list(report.bundles[0].parameter)
        if report.bundles
        else _rat_list(beta.beta),
        "window": list(spec.window),
        "expected_total": report.expected_total,
        "total_solutions": report.total_solutions,
        "complete": report.complete,
        "bundles": [],
    }
    for bundle in report.bundles:
        entry = {
            "exponent": _exponent_dict(bundle.exponent),
            "lift": list(bundle.lift),
            "phi_empty": bundle.phi_empty,
            "hypothesis_failures": [sorted(s) for s in bundle.hypothesis_failures],
            "certificates": [_verdict_dict(v) for v in bundle.certificates],
            "solutions": [],
        }
        for degree, series in enumerate(bundle.solutions):
            solution = {"r": degree, "series": series.to_json_dict()}
            if spec.verify:
                solution["verification"] = certify(
                    config, bundle.parameter, series
                ).to_json_dict()
            entry["solutions"].append(solution)
        out["bundles"].append(entry)
    if spec.r is not None:
        # explicit degree request: build it for every exponent, or fail loudly
        config_series = [
            {
                "exponent": _exponent_dict(bundle.exponent),
                "series": log_solution(
                    config, bundle.exponent, bundle.lift, spec.r, spec.window
                ).to_json_dict(),
            }
            for bundle in report.bundles
        ]
        out["requested_degree"] = {"r": spec.r, "solutions": config_series}
    return out, config, report


def cmd_solve(spec: ProblemSpec) -> dict:
    out, _, _ = _solve_report(spec)
    return out


def cmd_verify(spec: ProblemSpec) -> dict:
    spec.verify = True
    out, config, report = _solve_report(spec)
    checks = []
    for bundle_entry in out["bundles"]:
        for solution in bundle_entry["solutions"]:
            checks.append(
                {
                    "exponent": bundle_entry["exponent"]["vector"],
                    "r": solution["r"],
                    "verification": solution["verification"],
                }
            )
    return {
        "parameter": out["parameter"],
        "window": out["window"],
        "all_passed": all(c["verification"]["passed"] for c in checks),
        "checks": checks,
    }


def cmd_classify(spec: ProblemSpec) -> dict:
    config = build_config(spec.points)
    classification = is_mum_holomorphic(config, spec.beta)
    return {
        "regular": classification.regular,
        "nonresonant": classification.nonresonant,
        "mum": classification.mum,
        "mum_holomorphic": classification.mum_holomorphic,
        "witness": classification.witness,
    }


_COMMANDS = {
    "analyze": cmd_analyze,
    "exponents": cmd_exponents,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "classify": cmd_classify,
}


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz1",
        description="Exact series solutions of codimension-one GKZ systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "configuration summary: relation, volume, resonance"),
        ("exponents", "fake and normalized exponents with multiplicities"),
        ("solve", "construct the log series solutions"),
        ("verify", "construct solutions and report operator certification"),
        ("classify", "regularity and maximal-unipotent-monodromy test"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem file (.json or .toml)")
        p.add_argument("--window", help="z window as LO:HI")
        p.add_argument("--u", help="parameter shift u as comma-separated rationals")
        p.add_argument("--lift", help="integer lift as comma-separated integers")
        p.add_argument("--r", type=int, help="requested log degree")
        p.add_argument("--no-verify", action="store_true", dest="no_verify")
        p.add_argument("--format", choices=["json", "text"], default="json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _apply_overrides(load_problem(args.input), args)
        report = _COMMANDS[args.command](spec)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "text":
        print(_render_text(report))
    else:
        print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
