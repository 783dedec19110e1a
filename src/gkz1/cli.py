"""File-driven command line interface.

Reads a problem description (JSON, or TOML by extension), runs the requested
stage of the pipeline and prints a machine-readable report.  All rationals
cross the boundary as exact "p/q" strings; no floats enter anywhere.  Each
number of the file passes the library's one check (gkz1._linalg), named by
its field, such as beta[1]; the file adds only that a vector is a list.  A
plain command line is read by _plain; any other, help and usage errors among
them, goes to build_parser, whose module, gkz1._usage, alone imports argparse.

Exit codes: 0 success, else the exit_code of the error class, printed with its
label on one stderr line: 1 internal invariant failure, 2 invalid input,
3 hypothesis violation (e.g. a resonant parameter passed to classify).  A
stdout closed by its reader (gkz1 ... | head) ends the output with exit 0
and no traceback: the reader stopped it, and gkz1 did not fail.

solve and verify build one bundle per exponent; a requested degree (--r) is
read off those bundles by SolutionBundle.solution, never built again, and
is checked against every bundle before any certificate is made.  Each
bundle is certified by one verify.certify_bundle call.

Output: the JSON report is exactly ``json.dumps(report, indent=2)`` of the
report as a dict, byte for byte, and --format text is one "key: value" line
per field, a nested record's lines two spaces deeper.  No report is built as
a dict.  Each record kind, from the analyze report down to a series term and
an operator report, has one JSON template and one text template in _FORMS,
filled with %; the record's place in the report only shifts its lines, and
every command returns its report as pieces for _run to write.  cmd_exponents
fills one exponent template per key of the parameter's line, read in blocks a
column at a time, each coordinate a "p/q" string made with one gcd.
cmd_solve and cmd_verify build every bundle and check --r first; then solve
certifies, writes and drops one bundle at a time, and verify, whose
all_passed comes first, certifies every bundle and writes one piece per
bundle.  So a refusal prints nothing, and no report is held whole.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import chain, compress, islice, repeat
from math import gcd
from types import SimpleNamespace

from ._linalg import integer, pair, rational, window_bounds
from ._record import Record
from .classify import is_mum_holomorphic, singularity_type
from .errors import GkzError, InputError
from .exponents import exponent_blocks
from .lattice import build_config, is_nonresonant, parameter, volume_crosscheck
from .series import DEFAULT_WINDOW, solution_bundle
from .verify import certify_bundle


class ProblemSpec(Record):
    """One command line's problem: the file's fields, the options over them."""

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
    if check is integer and all(type(x) is int for x in values):
        return values  # a type test first: a list of ints needs no check
    try:
        return [check(x, field) for x in values]
    except InputError:  # as in _linalg.fracs, an entry is named once refused
        return [check(x, f"{field}[{i}]") for i, x in enumerate(values)]


def load_problem(path: str) -> dict:
    """The problem file's fields, each checked, by their ProblemSpec names;
    _apply_overrides builds the spec from them.  A .toml suffix, any case, is TOML."""
    try:
        with open(path) as file:
            text = file.read()
        if os.path.splitext(path)[1].lower() == ".toml":
            try:
                import tomllib  # Python >= 3.11
            except ModuleNotFoundError:
                import tomli as tomllib
            data = tomllib.loads(text)
        else:
            data = json.loads(text)
    except Exception as exc:
        # asked only once a read or parse fails, so a good file costs no stat
        if not os.path.exists(path):
            raise InputError(f"input file not found: {path}") from None
        raise InputError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("problem file must contain a table/object at top level")
    if "A" not in data:
        raise InputError("A: missing (list of integer points)")
    if "beta" not in data:
        raise InputError("beta: missing (list of rationals)")
    columns = _list(data["A"], "A")
    if not all(type(col) is list and all(type(x) is int for x in col) for col in columns):
        columns = [_numbers(col, f"A[{i}]", integer) for i, col in enumerate(columns)]
    fields = {"columns": columns, "beta": _numbers(data["beta"], "beta", rational)}
    for field, check in (("u", rational), ("lift", integer), ("window", integer)):
        if field in data:
            fields[field] = _numbers(data[field], field, check)
    if "window" in data:  # two bounds, even where --window replaces them
        pair(fields["window"], "window")
    if "r" in data:
        fields["r"] = integer(data["r"], "r")
    if "verify" in data:
        if not isinstance(data["verify"], bool):
            raise InputError("verify: expected a boolean")
        fields["verify"] = data["verify"]
    return fields


def _apply_overrides(fields: dict, args) -> ProblemSpec:
    """The spec of one command line: load_problem's fields, each replaced
    by its option where the line gives one."""
    fields = dict(fields)
    if args.window is not None:
        try:
            lo, _, hi = args.window.partition(":")
            fields["window"] = (int(lo), int(hi))
        except ValueError:
            raise InputError(f"--window: expected LO:HI, got {args.window!r}") from None
    if args.u is not None:
        fields["u"] = [rational(x, "--u") for x in args.u.split(",")]
    if args.lift is not None:
        try:
            fields["lift"] = [int(x) for x in args.lift.split(",")]
        except ValueError:
            raise InputError(f"--lift: expected integers, got {args.lift!r}") from None
    if args.r is not None:
        fields["r"] = args.r
    if args.no_verify:
        fields["verify"] = False
    fields["window"] = window_bounds(fields.get("window", DEFAULT_WINDOW))
    return ProblemSpec(**fields)


def _rat_list(values) -> list[str]:
    return [str(v) for v in values]


def cmd_analyze(spec: ProblemSpec, text: bool) -> tuple:
    """The analyze report in one piece: the configuration's relation, volume
    and singularity type, and the parameter's resonance witness."""
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    resonance = is_nonresonant(config, beta)
    return (_FORMS["analyze"][text] % (
        config.n, config.dim, _leaf(list(map(list, config.columns)), "", text),
        _leaf(list(config.relation), "", text), config.k, _leaf(list(config.perm), "", text),
        config.volume, volume_crosscheck(config), config.positive_sum, config.negative_sum,
        singularity_type(config).value, _leaf(_rat_list(beta.beta), "", text),
        _BOOLS[text][bool(resonance)],
        _form("resonance_witness", "  ", text) % resonance.witness if resonance.witness
        else _FORMS["null"][text],
    ),)


# Every report is written from its records, one template per record kind:
# its JSON text at depth 0, then its --format text lines at indent 0, each
# line after its newline.  _form moves a template to a record's place,
# shifting each line by the record's pad; a record's pad grows by two spaces
# for a field's value and by _STEP for a list's item.
_FORMS = {
    "analyze": (
        '{\n  "n": %d,\n  "dim": %d,\n  "columns": %s,\n  "relation": %s,\n  "k": %d,'
        '\n  "perm": %s,\n  "vol": %d,\n  "vol_crosscheck": %d,\n  "positive_sum": %d,'
        '\n  "negative_sum": %d,\n  "singularity": "%s",\n  "beta": %s,\n  "nonresonant": %s,'
        '\n  "resonance_witness": %s\n}',
        "n: %d\ndim: %d\ncolumns: %s\nrelation: %s\nk: %d\nperm: %s\nvol: %d"
        "\nvol_crosscheck: %d\npositive_sum: %d\nnegative_sum: %d\nsingularity: %s\nbeta: %s"
        "\nnonresonant: %s\nresonance_witness:%s",
    ),
    "resonance_witness": (
        '{\n  "i": %d,\n  "j": %d,\n  "value": %d\n}', "\ni: %d\nj: %d\nvalue: %d"
    ),
    "classify": (
        '{\n  "regular": %s,\n  "nonresonant": %s,\n  "mum": %s,\n  "mum_holomorphic": %s,'
        '\n  "witness": %s\n}',
        "regular: %s\nnonresonant: %s\nmum: %s\nmum_holomorphic: %s\nwitness:%s",
    ),
    # the lattice conditions of a classification, and its one exponent
    "witness": (
        '{\n  "singleton": %s,\n  "integer_class_on_positive": %s,'
        '\n  "unit_positive_entries": %s,\n  "negative_span": %s,\n  "exponent": %s\n}',
        "\nsingleton: %s\ninteger_class_on_positive: %s\nunit_positive_entries: %s"
        "\nnegative_span: %s\nexponent: %s",
    ),
    "solve": (
        '{\n  "beta": %s,\n  "parameter": %s,\n  "window": %s,\n  "expected_total": %d,'
        '\n  "total_solutions": %d,\n  "complete": %s,\n  "bundles": ',
        "beta: %s\nparameter: %s\nwindow: %s\nexpected_total: %d\ntotal_solutions: %d"
        "\ncomplete: %s\nbundles:",
    ),
    "requested": (
        ',\n  "requested_degree": {\n    "r": %d,\n    "solutions": ',
        "\nrequested_degree:\n  r: %d\n  solutions:",
    ),
    "verify": (
        '{\n  "parameter": %s,\n  "window": %s,\n  "all_passed": %s,\n  "checks": ',
        "parameter: %s\nwindow: %s\nall_passed: %s\nchecks:",
    ),
    "bundle": (
        '{\n  "exponent": %s,\n  "lift": %s,\n  "phi_empty": %s,\n  "hypothesis_failures": %s,'
        '\n  "certificates": %s,\n  "solutions": %s\n}',
        "\nexponent:%s\nlift: %s\nphi_empty: %s\nhypothesis_failures: %s\ncertificates:%s"
        "\nsolutions:%s",
    ),
    # an exponent's vector, labels, then its m_support and multiplicity
    # (support); the separator of the vector's "p/q" strings, one label and
    # the separator of labels
    "exponent": (
        '{\n  "vector": [\n    "%s"\n  ],\n  "labels": [\n    %s\n  ],\n  "m_support": %s\n}',
        "\nvector: ['%s']\nlabels: [%s]\nm_support: %s",
    ),
    "support": ('%s,\n  "multiplicity": %d', "%s\nmultiplicity: %d"),
    "vector": ('",\n    "', "', '"),
    "label": ("[\n      %d,\n      %d\n    ]", "[%d, %d]"),
    "labels": (",\n    ", ", "),
    "verdict": (
        '{\n  "indices": %s,\n  "lift": %s,\n  "minimal": %s,\n  "membership": %s\n}',
        "\nindices: %s\nlift: %s\nminimal: %s\nmembership: %s",
    ),
    # a solution's degree and series, then its verification if it has one
    "solution": ('{\n  "r": %d,\n  "series": %s%s\n}', "\nr: %d\nseries:%s%s"),
    "verification": (',\n  "verification": %s', "\nverification:%s"),
    "requested solution": ('{\n  "exponent": %s,\n  "series": %s\n}', "\nexponent:%s\nseries:%s"),
    "check": (
        '{\n  "exponent": %s,\n  "r": %d,\n  "verification": %s\n}',
        "\nexponent: %s\nr: %d\nverification:%s",
    ),
    "series": (
        '{\n  "base_exponent": %s,\n  "relation": %s,\n  "window": %s,\n  "terms": %s\n}',
        "\nbase_exponent: %s\nrelation: %s\nwindow: %s\nterms:%s",
    ),
    "term": ('{\n  "z": %d,\n  "r": %d,\n  "coeff": "%s"\n}', "\nz: %d\nr: %d\ncoeff: %s"),
    "certificate": (
        '{\n  "passed": %s,\n  "box": %s,\n  "euler": %s\n}', "\npassed: %s\nbox:%s\neuler:%s"
    ),
    "operator": (
        '{\n  "operator": "%s",\n  "safe_window": %s,\n  "passed": %s,\n  "first_failure": %s\n}',
        "\noperator: %s\nsafe_window: %s\npassed: %s\nfirst_failure:%s",
    ),
    "failure": ('{\n  "z": %d,\n  "r": %d,\n  "residual": "%s"\n}', "\nz: %d\nr: %d\nresidual: %s"),
    "null": ("null", " None"),
    "end": ("\n}", ""),
    "requested end": ("\n  }\n}", ""),
    "exponents": ('{\n  "beta": %s,\n  "fake_exponents": [', "beta: %s\nfake_exponents:"),
    "prime exponents": ('\n  ],\n  "prime_exponents": [', "\nprime_exponents:"),
    "exponents end": (
        '\n  ],\n  "multiplicity_sum": %d,\n  "relation_sum": %d\n}',
        "\nmultiplicity_sum: %d\nrelation_sum: %d",
    ),
}


_STEP = ("    ", "  ")  # what a list's item adds to its record's pad: JSON nests it
_BOOLS = (("false", "true"), ("False", "True"))


def _form(kind: str, pad: str, text: bool) -> str:
    return _FORMS[kind][text].replace("\n", "\n" + pad)


@functools.cache
def _entry_forms(text: bool) -> tuple:
    """An exponents report entry's template, vector separator, label and label separator."""
    form, *rest = (_form(k, _STEP[text], text) for k in ("exponent", "vector", "label", "labels"))
    # JSON entries open with the comma after the entry before; text ones end
    # with their "-" line
    return (form + "\n  -" if text else ",\n    " + form, *rest)


@functools.lru_cache(maxsize=256)
def _support_text(mask: int, text: bool) -> str:
    """An exponents entry's m_support (the bits of mask) and multiplicity, kept: masks recur."""
    support = [mu for mu in range(mask.bit_length()) if mask >> mu & 1]
    return _form("support", _STEP[text], text) % (_leaf(support, _STEP[text], text), len(support))


def _leaf(value, pad: str, text: bool) -> str:
    """A field's value that holds no record, in a record at pad: None, or a
    list of ints, None and "p/q" strings, or of such lists.  In text, its
    repr; in JSON, a flat list is its repr with one entry per line, double
    quotes and null, as no entry is a string holding a quote, ", " or None."""
    if text:
        return str(value)
    if not value:
        return "null" if value is None else "[]"
    sep = "\n" + pad + "    "
    if type(value[0]) is list:
        items = ("," + sep).join([_leaf(x, pad + "  ", text) for x in value])
    else:
        items = str(value)[1:-1].replace(", ", "," + sep).replace("'", '"').replace("None", "null")
    return "[" + sep + items + "\n" + pad + "  ]"


def _pieces(head: str, groups, pad: str, text: bool, tail: str):
    """head, then the records' texts of each group as one piece, then tail:
    the items of a list field of a record at pad, each at pad + _STEP[text],
    in JSON brackets or each followed by a "-" line.  A group is made only
    when its piece is asked for."""
    inner = "\n" + pad + ("  -" if text else "    ")
    if text:
        first, sep, close = "", inner, inner
    else:
        first, sep, close = "[" + inner, "," + inner, "\n" + pad + "  ]"
    yield head
    lead = first
    for texts in groups:
        if texts:
            yield lead + sep.join(texts)
            lead = sep
    yield (close if lead is sep else " []" if text else "[]") + tail


def _items(texts: list, pad: str, text: bool) -> str:
    return "".join(_pieces("", (texts,), pad, text, ""))


def _exponent(exp, pad: str, text: bool) -> str:
    return _form("exponent", pad, text) % (
        _form("vector", pad, text).join(map(str, exp.vector)),
        _form("labels", pad, text).join(map(_form("label", pad, text).__mod__, exp.labels)),
        _form("support", pad, text) % (_leaf(sorted(exp.m_support), pad, text), len(exp.m_support)),
    )


def _series(series, pad: str, text: bool) -> str:
    term = _form("term", pad + _STEP[text], text)
    return _form("series", pad, text) % (
        _leaf(_rat_list(series.base_exponent), pad, text),
        _leaf(list(series.relation), pad, text),
        _leaf(list(series.window), pad, text),
        _items([term % (z, r, c) for (z, r), c in sorted(series.terms.items())], pad, text),
    )


def _certificate(certificate, pad: str, text: bool) -> str:
    def operator(report, pad):
        failure = report.first_failure
        return _form("operator", pad, text) % (
            report.operator,
            _leaf(list(report.safe_window) if report.safe_window else None, pad, text),
            _BOOLS[text][report.passed],
            _form("failure", pad + "  ", text) % failure if failure else _FORMS["null"][text],
        )

    return _form("certificate", pad, text) % (
        _BOOLS[text][certificate.passed],
        operator(certificate.box, pad + "  "),
        _items([operator(row, pad + _STEP[text]) for row in certificate.euler], pad, text),
    )


def _bundle(bundle, certificates, pad: str, text: bool) -> str:
    """A bundle's entry; certificates is None where nothing is verified."""
    inner = pad + _STEP[text]
    verdict, solution = _form("verdict", inner, text), _form("solution", inner, text)
    verification = _form("verification", inner, text)
    # the verdicts carry the bundle's lift, and share most memberships: each once
    verdicts = bundle.certificates
    lift = _leaf(list(bundle.lift), inner, text)
    memberships = {
        x: _leaf(list(map(list, x)), inner, text)
        for x in {v.membership.intervals for v in verdicts}
    }
    return _form("bundle", pad, text) % (
        _exponent(bundle.exponent, pad + "  ", text),
        _leaf(list(bundle.lift), pad, text),
        _BOOLS[text][bundle.phi_empty],
        _leaf(list(map(sorted, bundle.hypothesis_failures)), pad, text),
        _items([
            verdict % (
                _leaf(sorted(v.indices), inner, text), lift,
                _BOOLS[text][v.minimal], memberships[v.membership.intervals],
            )
            for v in verdicts
        ], pad, text),
        _items([
            solution % (
                r, _series(series, inner + "  ", text),
                "" if certificates is None
                else verification % _certificate(certificates[r], inner + "  ", text),
            )
            for r, series in enumerate(bundle.solutions)
        ], pad, text),
    )


def cmd_exponents(spec: ProblemSpec, text: bool) -> chain:
    """The exponents report in pieces, in JSON or, when text is set, in
    --format text.

    One pass over the fake keys of the parameter's line (exponent_blocks)
    fills one exponent template per exponent, a block of keys at a time: the
    "p/q" strings of each column, made as str(Fraction) makes them with one
    gcd, are joined key by key.  A normalized exponent's entry is its fake's
    text.  The count law is checked after the last block, so a refusal comes
    before any piece.  The pieces are written one by one, never joined.
    """
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    den, dens = beta.line.den, repeat(beta.line.den)
    form, vector_sep, label, label_sep = _entry_forms(text)
    fakes, primes = [], []
    for columns, labels, masks, normalized in exponent_blocks(beta.line):
        shown = {mask: _support_text(mask, text) for mask in set(masks)}
        texts = [[  # each column's "p/q" strings, one gcd per entry
            str(x // g) if g == den else f"{x // g}/{den // g}"
            for x, g in zip(c, map(gcd, c, dens))
        ] for c in columns]
        # most keys have one label, written with one %
        entries = list(map(form.__mod__, zip(
            map(vector_sep.join, zip(*texts)),
            [label_sep.join(map(label.__mod__, p)) if p[1:] else label % p[0] for p in labels],
            map(shown.__getitem__, masks),
        )))
        fakes += entries
        primes += compress(entries, normalized)
    # exponent_blocks has checked that the multiplicities sum to the relation's,
    # so neither list is empty; the first JSON entry drops its comma
    total, first = config.positive_sum, not text
    return chain(
        (_FORMS["exponents"][text] % _leaf(_rat_list(beta.beta), "", text), fakes[0][first:]),
        islice(fakes, 1, None),
        (_FORMS["prime exponents"][text], primes[0][first:]),
        islice(primes, 1, None),
        (_FORMS["exponents end"][text] % (total, total),),
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


def _requested(spec: ProblemSpec, report) -> list | None:
    """The solution of degree spec.r of every bundle, or None when no degree
    is requested; a degree a bundle lacks raises its error here, before any
    certificate is made."""
    if spec.r is None:
        return None
    return [bundle.solution(spec.r) for bundle in report.bundles]


def cmd_solve(spec: ProblemSpec, text: bool):
    """The solve report in pieces, one per bundle, each bundle certified as
    its piece is made.  Every bundle is built, and a requested degree read
    off each, before the first piece."""
    config, beta, shifted, report = _bundle_report(spec)
    requested = _requested(spec, report)
    pad = _STEP[text]
    head = _form("solve", "", text) % (
        _leaf(_rat_list(beta.beta), "", text), _leaf(shifted, "", text),
        _leaf(list(spec.window), "", text), report.expected_total, report.total_solutions,
        _BOOLS[text][report.complete],
    )
    bundles = (
        [_bundle(
            b, certify_bundle(config, b.parameter, b.solutions) if spec.verify else None, pad, text
        )]
        for b in report.bundles
    )
    if requested is None:
        return _pieces(head, bundles, "", text, _FORMS["end"][text])
    item = "  " + pad  # a requested solution, in the requested_degree record
    solution = _form("requested solution", item, text)
    return chain(_pieces(head, bundles, "", text, ""), _pieces(
        _form("requested", "", text) % spec.r,
        (
            [solution % (_exponent(b.exponent, item + "  ", text), _series(s, item + "  ", text))]
            for b, s in zip(report.bundles, requested)
        ),
        "  ", text, _FORMS["requested end"][text],
    ))


def cmd_verify(spec: ProblemSpec, text: bool):
    """The certificate of every solution of the bundles, in pieces, one per
    bundle; no series is written.  all_passed comes first, so every bundle is
    certified before the first piece.  A degree request (--r) fails here
    exactly as it fails in solve."""
    config, _, shifted, report = _bundle_report(spec)
    _requested(spec, report)
    certified = [
        (bundle, certify_bundle(config, bundle.parameter, bundle.solutions))
        for bundle in report.bundles
    ]
    pad = _STEP[text]
    check = _form("check", pad, text)
    head = _form("verify", "", text) % (
        _leaf(shifted, "", text), _leaf(list(spec.window), "", text),
        _BOOLS[text][all(c.passed for _, certificates in certified for c in certificates)],
    )
    return _pieces(head, (
        [
            check % (
                _leaf(_rat_list(bundle.exponent.vector), pad, text), r,
                _certificate(c, pad + "  ", text),
            )
            for r, c in enumerate(certificates)
        ]
        for bundle, certificates in certified
    ), "", text, _FORMS["end"][text])


def cmd_classify(spec: ProblemSpec, text: bool) -> tuple:
    """The classify report in one piece: the MUM verdicts and their witness."""
    result = is_mum_holomorphic(build_config(spec.columns), spec.beta)
    bools, witness = _BOOLS[text], result.witness
    return (_FORMS["classify"][text] % (
        bools[result.regular], bools[result.nonresonant], bools[result.mum],
        bools[result.mum_holomorphic],
        _form("witness", "  ", text) % (
            bools[witness["singleton"]], bools[witness["integer_class_on_positive"]],
            bools[witness["unit_positive_entries"]], bools[witness["negative_span"]],
            _leaf(witness["exponent"], "  ", text),
        ),
    ),)


# each command returns its report's pieces, in JSON or in --format text
_COMMANDS = {
    "analyze": cmd_analyze, "exponents": cmd_exponents, "solve": cmd_solve,
    "verify": cmd_verify, "classify": cmd_classify,
}


def build_parser():
    from ._usage import build_parser  # only help and usage errors need argparse
    return build_parser()


_parser = functools.cache(build_parser)  # the process's one parser, built when first needed


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
    if not argv or argv[0] not in _COMMANDS:
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
        pieces = _COMMANDS[args.command](spec, text)
    except GkzError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        write = sys.stdout.write
        for piece in pieces:
            write(piece)
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (gkz1 ... | head): the reader ended the
        # output, not an error of gkz1's.  As the signal module's docs advise,
        # fd 1 goes to devnull, so the flush at exit fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
