"""File-driven command line interface.

Reads a problem description (JSON, or TOML by extension), runs the requested
stage of the pipeline and prints a machine-readable report.  All rationals
cross the boundary as exact "p/q" strings; no floats enter anywhere.

Exit codes: 0 success, 1 internal invariant failure, 2 invalid input,
3 hypothesis violation (e.g. a resonant parameter passed to classify).

Output: the JSON report is exactly ``json.dumps(report, indent=2)``, byte for
byte, but written by ``_json_text``, not by the standard library: with
``indent`` set, ``json`` falls back to its pure-Python encoder, which costs
about one generator step per token.  Reports hold only dicts with str keys,
lists, tuples, str, int, bool and None; a float or a non-str key is refused
with TypeError.  A dict the report holds in two places is written once: the
``exponents`` report lists each unshifted exponent's entry, one dict object,
in both ``fake_exponents`` and ``prime_exponents``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from ._record import Record
from .classify import is_mum_holomorphic, singularity_type
from .errors import HypothesisError, InputError, InternalInvariantError
from .exponents import fake_exponents, normalized_set
from .lattice import build_config, is_nonresonant, parameter, volume_crosscheck
from .series import log_solution, solution_bundle
from .verify import certify

DEFAULT_WINDOW = (-10, 20)


class ProblemSpec(Record):
    # mutable, as load_problem and the command-line overrides assign to it
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, columns, beta, u=None, lift=None, window=DEFAULT_WINDOW, r=None, verify=True
    ):
        self.columns = columns
        self.beta = beta
        self.u = u
        self.lift = lift
        self.window = window
        self.r = r
        self.verify = verify


def _rational(value, field: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise InputError(f"{field}: expected a rational, got {value!r}")
        if isinstance(value, float):
            raise InputError(f"{field}: floats are not accepted, use 'p/q' strings")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"{field}: cannot parse rational {value!r}: {exc}") from None


def _int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field}: expected an integer, got {value!r}")
    return value


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list, got {value!r}")
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
    columns = [
        [_int(x, f"A[{i}]") for x in _list(col, f"A[{i}]")]
        for i, col in enumerate(_list(data["A"], "A"))
    ]
    beta = [
        _rational(x, f"beta[{i}]") for i, x in enumerate(_list(data["beta"], "beta"))
    ]
    spec = ProblemSpec(columns=columns, beta=beta)
    if "u" in data:
        spec.u = [_rational(x, f"u[{i}]") for i, x in enumerate(_list(data["u"], "u"))]
    if "lift" in data:
        spec.lift = [
            _int(x, f"lift[{i}]") for i, x in enumerate(_list(data["lift"], "lift"))
        ]
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


def _exponent_dict(exp, supports: dict) -> dict:
    """The report entry of an exponent.

    supports maps each m_support set to its sorted list, so the entries of
    one report share one list per set instead of making one each.
    """
    support = supports.get(exp.m_support)
    if support is None:
        support = supports[exp.m_support] = sorted(exp.m_support)
    return {
        "vector": _rat_list(exp.vector),
        "labels": [list(label) for label in exp.labels],
        "m_support": support,
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
    config = build_config(spec.columns)
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
            dict(zip(("i", "j", "value"), resonance.witness)) if resonance.witness else None
        ),
    }


def cmd_exponents(spec: ProblemSpec) -> dict:
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    fakes = fake_exponents(config, beta)
    primes = normalized_set(config, fakes)
    # the normalized set keeps every fake it does not shift, as the same
    # object; such an exponent gets one dict, listed in both places
    supports: dict = {}
    entries = {id(e): _exponent_dict(e, supports) for e in fakes}
    return {
        "beta": _rat_list(beta.beta),
        "fake_exponents": list(entries.values()),
        "prime_exponents": [
            entries.get(id(e)) or _exponent_dict(e, supports) for e in primes.exponents
        ],
        "multiplicity_sum": primes.multiplicity_sum,
        "relation_sum": primes.relation_sum,
    }


def _bundle_report(spec: ProblemSpec):
    """The configuration, the parameter, the reported parameter and the bundles.

    The reported parameter is the first bundle's, shifted by u, as "p/q"
    strings; with no bundle it is the parameter itself.
    """
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    report = solution_bundle(
        config, beta, u=spec.u, u_lift=spec.lift, window=spec.window
    )
    shifted = report.bundles[0].parameter if report.bundles else beta.beta
    return config, beta, _rat_list(shifted), report


def _requested_series(config, spec: ProblemSpec, bundle):
    """The bundle's own solution of degree spec.r.

    For a degree the bundle lacks, log_solution raises the error that
    degree meets.
    """
    if 0 <= spec.r < len(bundle.solutions):
        return bundle.solutions[spec.r]
    return log_solution(config, bundle.exponent, bundle.lift, spec.r, spec.window)


def cmd_solve(spec: ProblemSpec) -> dict:
    config, beta, shifted, report = _bundle_report(spec)
    supports: dict = {}
    out = {
        "beta": _rat_list(beta.beta),
        "parameter": shifted,
        "window": list(spec.window),
        "expected_total": report.expected_total,
        "total_solutions": report.total_solutions,
        "complete": report.complete,
        "bundles": [],
    }
    for bundle in report.bundles:
        entry = {
            "exponent": _exponent_dict(bundle.exponent, supports),
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
        out["requested_degree"] = {
            "r": spec.r,
            "solutions": [
                {
                    "exponent": _exponent_dict(bundle.exponent, supports),
                    "series": _requested_series(config, spec, bundle).to_json_dict(),
                }
                for bundle in report.bundles
            ],
        }
    return out


def cmd_verify(spec: ProblemSpec) -> dict:
    """The certificate of every solution of the bundles; no series is written."""
    config, _, shifted, report = _bundle_report(spec)
    checks = [
        {
            "exponent": _rat_list(bundle.exponent.vector),
            "r": degree,
            "verification": certify(config, bundle.parameter, series).to_json_dict(),
        }
        for bundle in report.bundles
        for degree, series in enumerate(bundle.solutions)
    ]
    if spec.r is not None:
        # a degree request fails here exactly as it fails in solve
        for bundle in report.bundles:
            _requested_series(config, spec, bundle)
    return {
        "parameter": shifted,
        "window": list(spec.window),
        "all_passed": all(c["verification"]["passed"] for c in checks),
        "checks": checks,
    }


def cmd_classify(spec: ProblemSpec) -> dict:
    config = build_config(spec.columns)
    classification = is_mum_holomorphic(config, spec.beta)
    return {name: getattr(classification, name) for name in classification._fields}


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


def _json_text(report) -> str:
    """``json.dumps(report, indent=2)``, without the pure-Python encoder.

    One recursive pass appends the text of each value to one list, joined
    once at the end.  The newline-plus-indent string of each depth is made
    once per call.  A dict's str and int values are written inline, and a
    list of only str or only int is one join over the C string encoder or
    ``int.__repr__``.  bool is tested before int, as ``json`` does.

    A dict below the root is joined into one string and kept under its
    ``id`` at its depth, so a dict the report holds twice (an exponent entry
    of both ``fake_exponents`` and ``prime_exponents``) is written once.  The
    report keeps every object alive while it is written, so the ids stay
    distinct; the memo holds only ints and strs, which the cyclic collector
    does not track.  Floats and non-str keys raise TypeError: reports carry
    rationals as "p/q" strings.
    """
    out: list[str] = []
    write = out.append
    newlines = ["\n"]  # newlines[depth]: a line break, then the depth's indent
    memos: list[dict[int, str]] = [{}]  # memos[depth]: id of a dict -> its text

    def put(value, depth: int) -> None:
        if isinstance(value, dict):
            if not value:
                write("{}")
                return
            if len(newlines) == depth + 1:
                newlines.append(newlines[-1] + "  ")
                memos.append({})
            memo = memos[depth]
            known = memo.get(id(value))
            if known is not None:
                write(known)
                return
            start = len(out)
            inner = newlines[depth + 1]
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head = sep + _encode_str(key) + ": "
                kind = type(item)
                if kind is str:
                    write(head + _encode_str(item))
                elif kind is int:
                    write(head + int.__repr__(item))
                else:
                    write(head)
                    put(item, depth + 1)
                sep = "," + inner
            write(newlines[depth] + "}")
            if depth:  # the root is written once anyway
                memo[id(value)] = text = "".join(out[start:])
                del out[start:]
                write(text)
            return
        if isinstance(value, (list, tuple)):
            if not value:
                write("[]")
                return
            if len(newlines) == depth + 1:
                newlines.append(newlines[-1] + "  ")
                memos.append({})
            inner = newlines[depth + 1]
            first = type(value[0])
            if first is str and all(type(x) is str for x in value):
                items = ("," + inner).join(map(_encode_str, value))
            elif first is int and all(type(x) is int for x in value):
                items = ("," + inner).join(map(int.__repr__, value))
            else:
                sep = "[" + inner
                for item in value:
                    write(sep)
                    put(item, depth + 1)
                    sep = "," + inner
                write(newlines[depth] + "]")
                return
            write("[" + inner + items + newlines[depth] + "]")
            return
        if isinstance(value, str):
            write(_encode_str(value))
        elif value is None:
            write("null")
        elif value is True:
            write("true")
        elif value is False:
            write("false")
        elif isinstance(value, int):
            write(int.__repr__(value))
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )

    try:
        put(report, 0)
        return "".join(out)
    finally:
        del put  # put refers to itself; free the memo now, not at a collection


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz1",
        description="Exact series solutions of codimension-one GKZ systems",
    )
    # the options every command takes, declared once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="problem file (.json or .toml)")
    common.add_argument("--window", help="z window as LO:HI")
    common.add_argument("--u", help="parameter shift u as comma-separated rationals")
    common.add_argument("--lift", help="integer lift as comma-separated integers")
    common.add_argument("--r", type=int, help="requested log degree")
    common.add_argument("--no-verify", action="store_true", dest="no_verify")
    common.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "configuration summary: relation, volume, resonance"),
        ("exponents", "fake and normalized exponents with multiplicities"),
        ("solve", "construct the log series solutions"),
        ("verify", "construct solutions and report operator certification"),
        ("classify", "regularity and maximal-unipotent-monodromy test"),
    ]:
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; returns the exit code.

    Exact coefficients can have more digits than Python's limit on int-to-str
    conversion allows.  Where that limit exists (sys.set_int_max_str_digits),
    it is lifted while the command runs and writes its report, and restored
    afterwards, so the output never depends on it.
    """
    args = _parser().parse_args(argv)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(args)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(args)
    finally:
        set_limit(limit)


def _run(args) -> int:
    try:
        spec = _apply_overrides(load_problem(args.input), args)
        report = _COMMANDS[args.command](spec)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "text":
        print(_render_text(report))
    else:
        print(_json_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
