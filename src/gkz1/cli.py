"""File-driven command line interface.

Reads a problem file (JSON, or TOML by extension) as bytes, in one unbuffered
read decoded as UTF-8, which both formats require, runs the requested stage
of the pipeline and prints a machine-readable report.  All rationals cross
the boundary as exact "p/q" strings; no floats enter anywhere.  Each number
of the file passes the library's one check (gkz1._linalg), named by its
field, such as beta[1]; the file adds only that a vector is a list.  A plain
command line is read by _plain; any other, help and usage errors among
them, goes to build_parser, whose module, gkz1._usage, alone imports argparse.

Exit codes: 0 success, else the exit_code of the error class, printed with its
label on one stderr line: 1 internal invariant failure, 2 invalid input,
3 hypothesis violation (e.g. a resonant parameter passed to classify).  A
stdout closed by its reader (gkz1 ... | head) ends the output with exit 0
and no traceback: the reader stopped it, and gkz1 did not fail.

Output: the JSON report is exactly ``json.dumps(report, indent=2)`` of the
report as a dict, byte for byte, but no report is built as a dict.  Each
record kind has one JSON template in _FORMS, filled with %; the record's
place in the report only shifts its lines, and every command returns its
report as pieces for _run to write.  cmd_exponents fills one exponent
template per key of the parameter's line, read in blocks a column at a time.
solve and verify build every bundle, one per exponent, and check --r
(SolutionBundle.solution, never built again) first, so a refusal prints
nothing; then solve certifies, writes and drops one bundle at a time, and
verify, whose all_passed comes first, certifies every bundle (one
verify.certify_bundle call each) and writes one piece per bundle.  A built
series is written from its integer rows (_series), with no Fraction, so
verify, which writes none, builds its rows without lowest terms.  Each
distinct certificate is written once per report (_certificate).  --format
text is rendered by _text from the parsed JSON report, which it holds whole.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import chain, compress, islice, repeat
from math import gcd, perm
from types import SimpleNamespace

from ._linalg import integer, nonempty, pair, rational
from ._record import Record
from .classify import is_mum_holomorphic, singularity_type
from .errors import GkzError, InputError
from .exponents import exponent_blocks
from .lattice import _Points, _box_row, build_config, is_nonresonant, parameter, volume_crosscheck
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
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode()
        if "\r" in text:  # newlines as text mode reads them, for a parse error's position
            text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    # one type test, which LatticeConfig trusts: a _Points is not tested again
    if not {*map(type, columns)} <= {list} or {*map(type, chain.from_iterable(columns))} - {int}:
        columns = [_numbers(col, f"A[{i}]", integer) for i, col in enumerate(columns)]
    beta = _numbers(data["beta"], "beta", rational)
    fields = {"columns": _Points(map(tuple, columns)), "beta": beta}
    for field, check in (("u", rational), ("lift", integer), ("window", integer)):
        if field in data:
            fields[field] = _numbers(data[field], field, check)
    if "window" in data:  # two bounds, even where --window replaces them
        fields["window"] = pair(fields["window"], "window")
    if "r" in data:
        fields["r"] = integer(data["r"], "r")
    if "verify" in data:
        if not isinstance(data["verify"], bool):
            raise InputError("verify: expected a boolean")
        fields["verify"] = data["verify"]
    return fields


def _apply_overrides(fields: dict, args) -> ProblemSpec:
    """The spec of one command line: load_problem's fields, each replaced
    by its option where the line gives one.  The window, the file's pair,
    --window's or the default, is only tested for emptiness here."""
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
    fields["window"] = nonempty(fields.get("window", DEFAULT_WINDOW))
    return ProblemSpec(**fields)


def _rat_list(values) -> list[str]:
    return [str(v) for v in values]


def cmd_analyze(spec: ProblemSpec) -> tuple:
    """The analyze report in one piece: the configuration's relation, volume
    and singularity type, and the parameter's resonance witness."""
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    resonance = is_nonresonant(config, beta)
    return (_FORMS["analyze"] % (
        config.n, config.dim, _leaf(list(map(list, config.columns)), ""),
        _leaf(list(config.relation), ""), config.k, _leaf(list(config.perm), ""),
        config.volume, volume_crosscheck(config), config.positive_sum, config.negative_sum,
        singularity_type(config).value, _leaf(_rat_list(beta.beta), ""),
        _BOOLS[bool(resonance)],
        _form("resonance_witness", "  ") % resonance.witness if resonance.witness else "null",
    ),)


# Every report is written from its records, one JSON template per record
# kind at depth 0.  _form moves a template to a record's place, shifting each
# line after a newline by the record's pad; a record's pad grows by two
# spaces for a field's value and by _STEP for a list's item.
_FORMS = {
    "analyze": (
        '{\n  "n": %d,\n  "dim": %d,\n  "columns": %s,\n  "relation": %s,\n  "k": %d,'
        '\n  "perm": %s,\n  "vol": %d,\n  "vol_crosscheck": %d,\n  "positive_sum": %d,'
        '\n  "negative_sum": %d,\n  "singularity": "%s",\n  "beta": %s,\n  "nonresonant": %s,'
        '\n  "resonance_witness": %s\n}'
    ),
    "resonance_witness": '{\n  "i": %d,\n  "j": %d,\n  "value": %d\n}',
    "classify": (
        '{\n  "regular": %s,\n  "nonresonant": %s,\n  "mum": %s,\n  "mum_holomorphic": %s,'
        '\n  "witness": %s\n}'
    ),
    # the lattice conditions of a classification, and its one exponent
    "witness": (
        '{\n  "singleton": %s,\n  "integer_class_on_positive": %s,'
        '\n  "unit_positive_entries": %s,\n  "negative_span": %s,\n  "exponent": %s\n}'
    ),
    "solve": (
        '{\n  "beta": %s,\n  "parameter": %s,\n  "window": %s,\n  "expected_total": %d,'
        '\n  "total_solutions": %d,\n  "complete": %s,\n  "bundles": '
    ),
    "requested": ',\n  "requested_degree": {\n    "r": %d,\n    "solutions": ',
    "verify": '{\n  "parameter": %s,\n  "window": %s,\n  "all_passed": %s,\n  "checks": ',
    "bundle": (
        '{\n  "exponent": %s,\n  "lift": %s,\n  "phi_empty": %s,\n  "hypothesis_failures": %s,'
        '\n  "certificates": %s,\n  "solutions": %s\n}'
    ),
    # an exponent's vector, labels, then its m_support and multiplicity
    # (support); the separator of the vector's "p/q" strings, one label and
    # the separator of labels
    "exponent": (
        '{\n  "vector": [\n    "%s"\n  ],\n  "labels": [\n    %s\n  ],\n  "m_support": %s\n}'
    ),
    "support": '%s,\n  "multiplicity": %d',
    "vector": '",\n    "',
    "label": "[\n      %d,\n      %d\n    ]",
    "labels": ",\n    ",
    "verdict": '{\n  "indices": %s,\n  "lift": %s,\n  "minimal": %s,\n  "membership": %s\n}',
    # a solution's degree and series, then its verification if it has one
    "solution": '{\n  "r": %d,\n  "series": %s%s\n}',
    "verification": ',\n  "verification": %s',
    "requested solution": '{\n  "exponent": %s,\n  "series": %s\n}',
    "check": '{\n  "exponent": %s,\n  "r": %d,\n  "verification": %s\n}',
    "series": '{\n  "base_exponent": %s,\n  "relation": %s,\n  "window": %s,\n  "terms": %s\n}',
    "term": '{\n  "z": %d,\n  "r": %d,\n  "coeff": "%s"\n}',
    "certificate": '{\n  "passed": %s,\n  "box": %s,\n  "euler": %s\n}',
    "operator": (
        '{\n  "operator": "%s",\n  "safe_window": %s,\n  "passed": %s,\n  "first_failure": %s\n}'
    ),
    "failure": '{\n  "z": %d,\n  "r": %d,\n  "residual": "%s"\n}',
    "end": "\n}",
    "requested end": "\n  }\n}",
    "exponents": '{\n  "beta": %s,\n  "fake_exponents": [',
    "prime exponents": '\n  ],\n  "prime_exponents": [',
    "exponents end": '\n  ],\n  "multiplicity_sum": %d,\n  "relation_sum": %d\n}',
}


_STEP = "    "  # what a list's item adds to its record's pad
_BOOLS = ("false", "true")


def _form(kind: str, pad: str) -> str:
    return _FORMS[kind].replace("\n", "\n" + pad)


@functools.cache
def _entry_forms() -> tuple:
    """An exponents report entry's template, vector separator, label and label separator."""
    form, *rest = (_form(k, _STEP) for k in ("exponent", "vector", "label", "labels"))
    return (",\n" + _STEP + form, *rest)  # an entry opens with the comma after the one before


@functools.lru_cache(maxsize=256)
def _support_text(mask: int) -> str:
    """An exponents entry's m_support (the bits of mask) and multiplicity, kept: masks recur."""
    support = [mu for mu in range(mask.bit_length()) if mask >> mu & 1]
    return _form("support", _STEP) % (_leaf(support, _STEP), len(support))


def _leaf(value, pad: str) -> str:
    """A field's value that holds no record, in a record at pad: None, or a
    list of ints, None and "p/q" strings, or of such lists.  A flat list is
    its repr with one entry per line, double quotes and null, as no entry is
    a string holding a quote, ", " or None."""
    if not value:
        return "null" if value is None else "[]"
    sep = "\n" + pad + "    "
    if type(value[0]) is list:
        items = ("," + sep).join([_leaf(x, pad + "  ") for x in value])
    else:
        items = str(value)[1:-1].replace(", ", "," + sep).replace("'", '"').replace("None", "null")
    return "[" + sep + items + "\n" + pad + "  ]"


def _pieces(head: str, groups, pad: str, tail: str):
    """head, then the records' texts of each group as one piece, then tail:
    the items of a list field of a record at pad, each at pad + _STEP, in
    brackets.  A group is made only when its piece is asked for."""
    inner = "\n" + pad + _STEP
    sep = "," + inner
    yield head
    lead = "[" + inner
    for texts in groups:
        if texts:
            yield lead + sep.join(texts)
            lead = sep
    yield ("\n" + pad + "  ]" if lead is sep else "[]") + tail


def _items(texts: list, pad: str) -> str:
    return "".join(_pieces("", (texts,), pad, ""))


def _exponent(exp, pad: str) -> str:
    return _form("exponent", pad) % (
        _form("vector", pad).join(map(str, exp.vector)),
        _form("labels", pad).join(map(_form("label", pad).__mod__, exp.labels)),
        _form("support", pad) % (_leaf(sorted(exp.m_support), pad), len(exp.m_support)),
    )


def _series(series, pad: str, reduced: dict) -> str:
    """A series' text at pad; one that holds rows (LogSeries.rows) is written
    from them as str(Fraction) writes its terms: N_s/den in lowest terms by
    one gcd, kept in reduced for the bundle's other solutions and its
    requested one (a one-entry row is reduced), times r!/(r-s)! over a gcd
    with that small weight."""
    term = _form("term", pad + _STEP)
    if series.rows is None:
        terms = [term % (z, r, c) for (z, r), c in sorted(series.terms.items())]
    else:
        products, r = series.rows
        weights, terms = [perm(r, s) for s in range(r + 1)], []
        for z in sorted(products):
            row = reduced.get(z)
            if row is None:
                num, den = products[z]
                row = reduced[z] = list(zip(num, repeat(den))) if len(num) == 1 else [
                    (x // g, den // g) for x, g in zip(num, map(gcd, num, repeat(den)))
                ]
            for s in range(r, -1, -1):
                n, d = row[s]
                if n:
                    g = gcd(weights[s], d)
                    n, d = n * (weights[s] // g), d // g
                    terms.append(term % (z, r - s, n if d == 1 else f"{n}/{d}"))
    return _form("series", pad) % (
        _leaf(_rat_list(series.base_exponent), pad),
        _leaf(list(series.relation), pad),
        _leaf(list(series.window), pad),
        _items(terms, pad),
    )


def _certificate(certificate, pad: str, texts: dict) -> str:
    """A certificate's text at pad, rendered once per report: texts maps its
    printed fields and pad to it, passed and each operator's name, safe
    window, passed and first failure."""
    def operator(report, pad):
        failure = report.first_failure
        return _form("operator", pad) % (
            report.operator,
            _leaf(list(report.safe_window) if report.safe_window else None, pad),
            _BOOLS[report.passed],
            _form("failure", pad + "  ") % failure if failure else "null",
        )

    key = (pad, certificate.passed, *[
        (r.operator, r.safe_window, r.passed, r.first_failure)
        for r in (certificate.box, *certificate.euler)
    ])
    text = texts.get(key)
    if text is None:
        text = texts[key] = _form("certificate", pad) % (
            _BOOLS[certificate.passed],
            operator(certificate.box, pad + "  "),
            _items([operator(row, pad + _STEP) for row in certificate.euler], pad),
        )
    return text


def _bundle(bundle, certificates, pad: str, texts: dict, reduced: dict) -> str:
    """A bundle's entry; certificates is None where nothing is verified,
    texts is the report's certificate texts (_certificate) and reduced the
    bundle's rows in lowest terms, filled as _series writes them."""
    inner = pad + _STEP
    verdict, solution = _form("verdict", inner), _form("solution", inner)
    verification = _form("verification", inner)
    # the verdicts carry the bundle's lift, and share most memberships: each once
    verdicts = bundle.certificates
    lift = _leaf(list(bundle.lift), inner)
    memberships = {
        x: _leaf(list(map(list, x)), inner) for x in {v.membership.intervals for v in verdicts}
    }
    return _form("bundle", pad) % (
        _exponent(bundle.exponent, pad + "  "),
        _leaf(list(bundle.lift), pad),
        _BOOLS[bundle.phi_empty],
        _leaf(list(map(sorted, bundle.hypothesis_failures)), pad),
        _items([
            verdict % (
                _leaf(sorted(v.indices), inner), lift,
                _BOOLS[v.minimal], memberships[v.membership.intervals],
            )
            for v in verdicts
        ], pad),
        _items([
            solution % (
                r, _series(series, inner + "  ", reduced),
                "" if certificates is None
                else verification % _certificate(certificates[r], inner + "  ", texts),
            )
            for r, series in enumerate(bundle.solutions)
        ], pad),
    )


def cmd_exponents(spec: ProblemSpec) -> chain:
    """The exponents report in pieces.

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
    form, vector_sep, label, label_sep = _entry_forms()
    fakes, primes = [], []
    for columns, labels, masks, normalized in exponent_blocks(beta.line):
        shown = {mask: _support_text(mask) for mask in set(masks)}
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
    # so neither list is empty; the first entry drops its comma
    total = config.positive_sum
    return chain(
        (_FORMS["exponents"] % _leaf(_rat_list(beta.beta), ""), fakes[0][1:]),
        islice(fakes, 1, None),
        (_FORMS["prime exponents"], primes[0][1:]),
        islice(primes, 1, None),
        (_FORMS["exponents end"] % (total, total),),
    )


def _bundle_report(spec: ProblemSpec, lowest_terms=True):
    """The configuration, the parameter, the reported parameter and the bundles.

    The reported parameter is the first bundle's, shifted by u, as "p/q"
    strings; with no bundle it is the parameter itself.  The bundles are
    built under lowest_terms (solution_bundle), which only a command that
    writes coefficients needs.
    """
    config = build_config(spec.columns)
    beta = parameter(config, spec.beta)
    report = solution_bundle(
        config, beta, u=spec.u, u_lift=spec.lift, window=spec.window, lowest_terms=lowest_terms
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


def cmd_solve(spec: ProblemSpec):
    """The solve report in pieces, one per bundle, each bundle certified as
    its piece is made.  Every bundle is built, and a requested degree read
    off each, before the first piece."""
    config, beta, shifted, report = _bundle_report(spec)
    requested = _requested(spec, report)
    head = _FORMS["solve"] % (
        _leaf(_rat_list(beta.beta), ""), _leaf(shifted, ""), _leaf(list(spec.window), ""),
        report.expected_total, report.total_solutions, _BOOLS[report.complete],
    )
    texts = {}  # the report's certificate texts, each rendered once
    # each bundle's reduced rows (_series), kept for the requested block if any
    reduced = None if requested is None else [{} for _ in report.bundles]
    bundles = (
        [_bundle(
            b, certify_bundle(config, b.parameter, b.solutions) if spec.verify else None,
            _STEP, texts, {} if reduced is None else reduced[i],
        )]
        for i, b in enumerate(report.bundles)
    )
    if requested is None:
        return _pieces(head, bundles, "", _FORMS["end"])
    item = "  " + _STEP  # a requested solution, in the requested_degree record
    solution = _form("requested solution", item)
    return chain(_pieces(head, bundles, "", ""), _pieces(
        _FORMS["requested"] % spec.r,
        (
            [solution % (_exponent(b.exponent, item + "  "), _series(s, item + "  ", rows))]
            for b, s, rows in zip(report.bundles, requested, reduced)
        ),
        "  ", _FORMS["requested end"],
    ))


def cmd_verify(spec: ProblemSpec):
    """The certificate of every solution of the bundles, in pieces, one per
    bundle; no series is written.  all_passed comes first, so every bundle is
    certified before the first piece.  A degree request (--r) fails here
    exactly as it fails in solve.  As it writes no coefficient, its bundles'
    log-free rows need not be in lowest terms (solution_bundle).  The
    bundles are certified newest first, so the box rows that the last walks
    left kept (gkz1.lattice._box_row) are read before newer rows push them
    out, and written in bundle order."""
    config, _, shifted, report = _bundle_report(spec, lowest_terms=False)
    _requested(spec, report)
    certified = [
        (bundle, certify_bundle(config, bundle.parameter, bundle.solutions))
        for bundle in reversed(report.bundles)
    ][::-1]
    check, texts = _form("check", _STEP), {}  # texts: each distinct certificate once
    head = _FORMS["verify"] % (
        _leaf(shifted, ""), _leaf(list(spec.window), ""),
        _BOOLS[all(c.passed for _, certificates in certified for c in certificates)],
    )
    return _pieces(head, (
        [
            check % (
                _leaf(_rat_list(bundle.exponent.vector), _STEP), r,
                _certificate(c, _STEP + "  ", texts),
            )
            for r, c in enumerate(certificates)
        ]
        for bundle, certificates in certified
    ), "", _FORMS["end"])


def cmd_classify(spec: ProblemSpec) -> tuple:
    """The classify report in one piece: the MUM verdicts and their witness."""
    result = is_mum_holomorphic(build_config(spec.columns), spec.beta)
    witness = result.witness
    return (_FORMS["classify"] % (
        _BOOLS[result.regular], _BOOLS[result.nonresonant], _BOOLS[result.mum],
        _BOOLS[result.mum_holomorphic],
        _form("witness", "  ") % (
            _BOOLS[witness["singleton"]], _BOOLS[witness["integer_class_on_positive"]],
            _BOOLS[witness["unit_positive_entries"]], _BOOLS[witness["negative_span"]],
            _leaf(witness["exponent"], "  "),
        ),
    ),)


# each command returns its JSON report's pieces
_COMMANDS = {
    "analyze": cmd_analyze, "exponents": cmd_exponents, "solve": cmd_solve,
    "verify": cmd_verify, "classify": cmd_classify,
}


def _text(report: dict, pad: str = "") -> str:
    """A parsed report as --format text: one "key: value" line per field, the
    value's repr; a nested record, and each record of a list followed by a
    "-" line, two spaces deeper under its "key:" line."""
    lines = []
    for key, value in report.items():
        if type(value) is dict:
            lines += (f"{pad}{key}:", _text(value, pad + "  "))
        elif type(value) is list and value and type(value[0]) is dict:
            lines.append(f"{pad}{key}:")
            for item in value:
                lines += (_text(item, pad + "  "), pad + "  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


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
    afterwards, so the output never depends on it.  The box rows that the
    command's walks and certificates shared (gkz1.lattice._box_row) are
    dropped when it ends, so every command starts with none kept.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv) or _parser().parse_args(argv)
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    limit = set_limit and sys.get_int_max_str_digits()
    if set_limit:
        set_limit(0)
    try:
        return _run(args)
    finally:
        if set_limit:
            set_limit(limit)
        _box_row.cache_clear()


def _run(args) -> int:
    try:
        spec = _apply_overrides(load_problem(args.input), args)
        pieces = _COMMANDS[args.command](spec)
        if args.format == "text":  # rendered from the whole JSON report
            pieces = (_text(json.loads("".join(pieces))),)
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
