"""File-driven command line interface.

Reads a problem description (JSON, or TOML by extension), runs the requested
stage of the pipeline and prints a machine-readable report.  All rationals
cross the boundary as exact "p/q" strings; no floats enter anywhere.  Each
number of the file passes the library's one check (gkz1._linalg), named by
its field, such as beta[1]; the file adds only that a vector is a list.  A
plain command line is read by _plain; any other, help and usage errors among
them, goes to build_parser, which alone imports argparse.

Exit codes: 0 success, else the exit_code of the error class, printed with its
label on one stderr line: 1 internal invariant failure, 2 invalid input,
3 hypothesis violation (e.g. a resonant parameter passed to classify).

solve and verify build one bundle per exponent; a requested degree (--r) is
read off those bundles by SolutionBundle.solution, never built again.

Output: the JSON report is exactly ``json.dumps(report, indent=2)``, byte for
byte, but written by ``_json_text``, not by the standard library: with
``indent`` set, ``json`` falls back to its pure-Python encoder, which costs
about one generator step per token.  Reports hold only dicts with str keys,
lists, tuples, str, int, bool and None; a float or a non-str key is refused
with TypeError.  The exponents report is no dict: cmd_exponents makes one
pass over the integer keys of the parameter's line and fills one template
per exponent, each coordinate a "p/q" string made from its numerator with
one gcd.  The pass checks the count law after its last key, so a refusal
prints nothing; then the entries are written one by one, and a normalized
exponent's entry is its fake entry's text, written again.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd
from pathlib import Path
from types import SimpleNamespace

from ._linalg import integer, pair, rational
from ._record import Record
from .classify import is_mum_holomorphic, singularity_type
from .errors import GkzError, InputError
from .exponents import exponent_rows
from .lattice import build_config, is_nonresonant, parameter, volume_crosscheck
from .series import DEFAULT_WINDOW, solution_bundle, window_bounds
from .verify import certify


class ProblemSpec(Record):
    # mutable, as load_problem and the command-line overrides assign to it
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, columns, beta, u=None, lift=None, window=DEFAULT_WINDOW, r=None, verify=True
    ):
        self._set(columns=columns, beta=beta, u=u, lift=lift, window=window, r=r, verify=verify)


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list, got {value!r}")
    return value


def _numbers(value, field: str, check) -> list:
    values = _list(value, field)
    try:
        return [check(x, field) for x in values]
    except InputError:  # as in _linalg.fracs, an entry is named once refused
        return [check(x, f"{field}[{i}]") for i, x in enumerate(values)]


def load_problem(path: str) -> ProblemSpec:
    file_path = Path(path)
    try:
        with open(file_path) as file:
            text = file.read()
        if file_path.suffix.lower() == ".toml":
            try:
                import tomllib  # Python >= 3.11
            except ModuleNotFoundError:
                import tomli as tomllib
            data = tomllib.loads(text)
        else:
            data = json.loads(text)
    except Exception as exc:
        # asked only once a read or parse fails, so a good file costs no stat
        if not file_path.exists():
            raise InputError(f"input file not found: {path}") from None
        raise InputError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must contain a table/object at top level")
    if "A" not in data:
        raise InputError("A: missing (list of integer points)")
    if "beta" not in data:
        raise InputError("beta: missing (list of rationals)")
    columns = [
        _numbers(col, f"A[{i}]", integer) for i, col in enumerate(_list(data["A"], "A"))
    ]
    spec = ProblemSpec(columns=columns, beta=_numbers(data["beta"], "beta", rational))
    for field, check in (("u", rational), ("lift", integer), ("window", integer)):
        if field in data:
            setattr(spec, field, _numbers(data[field], field, check))
    if "window" in data:  # two bounds, even where --window replaces them
        pair(spec.window, "window")
    if "r" in data:
        spec.r = integer(data["r"], "r")
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
        spec.u = [rational(x, "--u") for x in args.u.split(",")]
    if args.lift is not None:
        try:
            spec.lift = [int(x) for x in args.lift.split(",")]
        except ValueError:
            raise InputError(f"--lift: expected integers, got {args.lift!r}") from None
    if args.r is not None:
        spec.r = args.r
    if args.no_verify:
        spec.verify = False
    spec.window = window_bounds(spec.window)
    return spec


def _rat_list(values) -> list[str]:
    return [str(v) for v in values]


def _exponent_dict(exp) -> dict:
    return {
        "vector": _rat_list(exp.vector),
        "labels": [list(label) for label in exp.labels],
        "m_support": sorted(exp.m_support),
        "multiplicity": len(exp.m_support),
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


# The two forms of an exponents entry, JSON and --format text: the template
# of one entry (its vector, its labels, then its m_support and multiplicity),
# the separator of the vector's strings, the template of one label and the
# separator of labels.  Coordinates are "p/q" digit strings, which JSON and
# repr quote as they are.  A JSON entry starts with the "," that follows
# the entry before it.
_JSON_FORM = (
    ',\n    {\n      "vector": [\n        "%s"\n      ],\n      "labels": [\n        %s\n      ],'
    '\n      "m_support": %s\n    }',
    '",\n        "',
    "[\n          %d,\n          %d\n        ]",
    ",\n        ",
)
_TEXT_FORM = ("\n  vector: ['%s']\n  labels: [%s]\n  m_support: %s\n  -", "', '", "[%d, %d]", ", ")


def cmd_exponents(spec: ProblemSpec, text: bool) -> chain:
    """The exponents report in pieces: ``json.dumps(report, indent=2)``, or
    the report's _render_text when text is set.

    One pass over the fake keys of the parameter's line (exponent_rows)
    fills one template per exponent, each coordinate the "p/q" string of
    its numerator over den, reduced by one gcd as str(Fraction) writes it.
    A normalized exponent is a fake one, so its entry is the fake's text.
    The pass checks the count law after its last key, so a refusal comes
    before any piece.  The pieces are written one by one, never joined.
    """
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    den = beta.line.den
    entry, vector_sep, label, label_sep = _TEXT_FORM if text else _JSON_FORM
    tails: dict = {}  # m_support -> its text, then the multiplicity's
    fakes, primes = [], []
    for nums, labels, support, normalized in exponent_rows(beta.line):
        tail = tails.get(support)
        if tail is None:
            listed = sorted(support)
            tail = tails[support] = (
                f"{listed}\n  multiplicity: {len(listed)}" if text
                else f'{_json_text(listed, 3)},\n      "multiplicity": {len(listed)}'
            )
        piece = entry % (
            vector_sep.join([
                str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
                for x in nums
            ]),
            label_sep.join([label % pair for pair in labels]),
            tail,
        )
        fakes.append(piece)
        if normalized:
            primes.append(piece)
    # exponent_rows has checked that the multiplicities sum to the relation's,
    # so neither list is empty
    total, shown = config.positive_sum, _rat_list(beta.beta)
    if text:
        return chain(
            (f"beta: {shown}\nfake_exponents:",), fakes, ("\nprime_exponents:",), primes,
            (f"\nmultiplicity_sum: {total}\nrelation_sum: {total}",),
        )
    return chain(
        (f'{{\n  "beta": {_json_text(shown, 1)},\n  "fake_exponents": [', fakes[0][1:]),
        islice(fakes, 1, None),
        ('\n  ],\n  "prime_exponents": [', primes[0][1:]),
        islice(primes, 1, None),
        (f'\n  ],\n  "multiplicity_sum": {total},\n  "relation_sum": {total}\n}}',),
    )


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


def cmd_solve(spec: ProblemSpec) -> dict:
    config, beta, shifted, report = _bundle_report(spec)
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
        out["requested_degree"] = {
            "r": spec.r,
            "solutions": [
                {
                    "exponent": _exponent_dict(bundle.exponent),
                    "series": bundle.solution(spec.r).to_json_dict(),
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
            bundle.solution(spec.r)
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


# the commands whose report is a dict, written by _json_text or _render_text
_COMMANDS = {
    "analyze": cmd_analyze,
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


def _json_text(report, depth: int = 0) -> str:
    """``json.dumps(report, indent=2)``, without the pure-Python encoder; at a
    depth above 0, the text of a value nested that deep in a report.

    One recursive pass appends the text of each value to one list, joined
    once at the end.  The newline-plus-indent string of each depth is made
    once per call.  A dict's str and int values are written inline, and a
    list of only str or only int is one join over the C string encoder or
    ``int.__repr__``.  bool is tested before int, as ``json`` does.  Floats
    and non-str keys raise TypeError: reports carry rationals as "p/q"
    strings.
    """
    out: list[str] = []
    write = out.append
    newlines = ["\n"]  # newlines[depth]: a line break, then the depth's indent

    def indents(depth: int) -> list[str]:
        while len(newlines) <= depth:
            newlines.append(newlines[-1] + "  ")
        return newlines

    def put(value, depth: int) -> None:
        if isinstance(value, dict):
            if not value:
                write("{}")
                return
            inner = indents(depth + 1)[depth + 1]
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
            return
        if isinstance(value, (list, tuple)):
            if not value:
                write("[]")
                return
            inner = indents(depth + 1)[depth + 1]
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

    indents(depth)
    try:
        put(report, depth)
        return "".join(out)
    finally:
        del put  # put refers to itself; free it, and the list it fills, now


def build_parser():
    import argparse  # here, not with the module: only help and usage errors need it

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


_parser = functools.cache(build_parser)  # the process's one parser, built when first needed


_COMMAND_NAMES = frozenset(_COMMANDS) | {"exponents"}
# the options that take a value, by spelling, and their namespace names
_VALUED = {
    "--input": "input", "--window": "window", "--u": "u", "--lift": "lift",
    "--r": "r", "--format": "format",
}


def _plain(argv):
    """The namespace that build_parser().parse_args(argv) returns, read
    without argparse; None for a line that is not plain, which argparse reads.

    A plain line is a command, then options spelled in full: --no-verify
    alone, the others as "--opt=value" or as "--opt value" with a value not
    starting with a dash, an int --r, a --format of json or text, and --input
    given.  Help, abbreviations, "--" and malformed lines are argparse's.
    """
    if not argv or argv[0] not in _COMMAND_NAMES:
        return None
    args = {
        "command": argv[0], "input": None, "window": None, "u": None,
        "lift": None, "r": None, "no_verify": False, "format": "json",
    }
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if option == "--no-verify" and not eq:
            args["no_verify"] = True
            continue
        name = _VALUED.get(option)
        if name is None:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value is declined as a dash
            if value[:1] == "-":
                return None
        elif value == "--":  # some argparse versions read "--opt=--" as no value
            return None
        # each occurrence is checked, as argparse checks it, even if a later one wins
        if name == "r":
            try:
                value = int(value)
            except ValueError:
                return None
        elif name == "format" and value not in ("json", "text"):
            return None
        args[name] = value
    if args["input"] is None:
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); returns the exit code.

    Exact coefficients can have more digits than Python's limit on int-to-str
    conversion allows.  Where that limit exists (sys.set_int_max_str_digits),
    it is lifted while the command runs and writes its report, and restored
    afterwards, so the output never depends on it.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv) or _parser().parse_args(argv)
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
    text = args.format == "text"
    try:
        spec = _apply_overrides(load_problem(args.input), args)
        if args.command == "exponents":
            pieces = cmd_exponents(spec, text)
        else:
            report = _COMMANDS[args.command](spec)
            pieces = (_render_text(report) if text else _json_text(report),)
    except GkzError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    write = sys.stdout.write
    for piece in pieces:
        write(piece)
    write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
