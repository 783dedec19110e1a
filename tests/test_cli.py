import argparse
import contextlib
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkz1 import _linalg, cli, exponents, lattice, series
from gkz1.cli import main
from gkz1._linalg import window_bounds
from gkz1.errors import ExcludedCase, GkzError
from gkz1.lattice import build_config, is_nonresonant, parameter
from gkz1.series import LogSeries
from gkz1.verify import Certificate, OperatorReport

from conftest import (
    QUINTIC,
    random_config,
    random_integral_beta,
    random_nonresonant_beta,
    random_relation_config,
)
from reference import (
    analyze_report_reference,
    classify_report_reference,
    fake_exponents_reference,
    normalized_set_reference,
    render_text_reference,
    solve_report_reference,
    verify_report_reference,
)

TRIANGLE_PROBLEM = {
    "A": [[1, 0], [1, 2], [1, 1]],
    "beta": ["10", "8"],
    "window": [-5, 10],
}
TRIANGLE_BYTES = json.dumps(TRIANGLE_PROBLEM).encode()


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_PROBLEM))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_json_report(self, capsys, triangle_file):
        code, out, _ = run(capsys, "analyze", "--input", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert report["relation"] == [1, 1, -2]
        assert report["vol"] == report["vol_crosscheck"] == 2
        assert report["singularity"] == "regular"
        assert report["nonresonant"] is False

    def test_gauss_toml(self, capsys, tmp_path):
        path = tmp_path / "gauss.toml"
        path.write_text(
            'A = [[1,1,-1],[0,0,1],[1,0,0],[0,1,0]]\n'
            'beta = ["-1/2", "-1/3", "-4/5"]\n'
        )
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["vol"] == 2
        assert report["nonresonant"] is True

    def test_malformed_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": ["1/0", "8"]}))
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "beta[0]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/nonexistent.json")
        assert code == 2
        assert "not found" in err

    # an entry is checked under its field's name and named only once refused;
    # the messages are pinned byte for byte
    @pytest.mark.parametrize("fields, message", [
        ({"A": [[1, 0], [1, "x"], [1, 1]]}, "A[1][1]: expected an integer, got 'x'"),
        ({"beta": [10, "1/0"]}, "beta[1]: cannot parse rational '1/0': Fraction(1, 0)"),
        ({"lift": [0, 0, True]}, "lift[2]: expected an integer, got True"),
        ({"u": [1, 0.5]}, "u[1]: 0.5 is a float, not an exact rational"),
        ({"window": [0, 0.5]}, "window[1]: expected an integer, got 0.5"),
    ])
    def test_refused_entry_named(self, capsys, tmp_path, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TRIANGLE_PROBLEM, **fields}))
        assert run(capsys, "analyze", "--input", str(path)) == (2, "", f"input error: {message}\n")

    # a refused vector is written as its "p/q" entries, not as Fraction reprs
    @pytest.mark.parametrize("command, fields, message", [
        ("analyze", {"A": [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "beta": [0, 0, 1]},
         "(0, 0, 1) is not in the span of the columns"),
        ("solve", {"u": ["1/2", 0]}, "(1/2, 0) is not an integer combination of the columns"),
    ])
    def test_refused_vector_written_as_rationals(self, capsys, tmp_path, command, fields, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TRIANGLE_PROBLEM, **fields}))
        assert run(capsys, command, "--input", str(path)) == (2, "", f"input error: {message}\n")

    def test_unreadable_paths(self, capsys, tmp_path):
        # the file is opened once; whether it exists is asked only after that fails
        through_a_file = tmp_path / "file.json" / "x.json"
        (tmp_path / "file.json").write_text("{}")
        assert run(capsys, "analyze", "--input", str(through_a_file)) == (
            2, "", f"input error: input file not found: {through_a_file}\n"
        )
        code, out, err = run(capsys, "analyze", "--input", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot parse {tmp_path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbf" + TRIANGLE_BYTES,
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (TRIANGLE_BYTES[:42] + b"\xff" + TRIANGLE_BYTES[43:],
         "'utf-8' codec can't decode byte 0xff in position 42: invalid start byte"),
        # a parse error after CRLF newlines is placed as a text-mode read places it
        (b'{\r\n  "A": [[1, 0], [1, 2], [1, 1]],\r\n  "beta": [1/2]\r\n}',
         "Expecting ',' delimiter: line 3 column 13 (char 47)"),
    ], ids=["bom", "byte-0xff", "crlf"])
    def test_bytes_are_refused_as_a_text_read_refuses_them(self, capsys, tmp_path, data, message):
        # the file is read as bytes and decoded as UTF-8: json.loads on the
        # raw bytes would accept the BOM
        path = tmp_path / "p.json"
        path.write_bytes(data)
        assert run(capsys, "analyze", "--input", str(path)) == (
            2, "", f"input error: cannot parse {path}: {message}\n"
        )

    def test_newlines_are_read_as_text_mode_reads_them(self, capsys, tmp_path, triangle_file):
        # CRLF and a lone CR are newlines, in JSON and in TOML alike
        expected = run(capsys, "analyze", "--input", triangle_file)
        toml = 'A = [[1, 0], [1, 2], [1, 1]]\nbeta = ["10", "8"]\nwindow = [-5, 10]\n'
        for name, text in ("p.json", json.dumps(TRIANGLE_PROBLEM, indent=1)), ("p.toml", toml):
            for newline in "\r\n", "\r":
                path = tmp_path / name
                path.write_bytes(text.replace("\n", newline).encode())
                assert run(capsys, "analyze", "--input", str(path)) == expected

    def test_suffix_picks_the_reader(self, capsys, tmp_path, triangle_file):
        # a .toml suffix, in any case, is read as TOML; only the file's own
        # suffix counts, so a JSON file in a .toml directory is JSON
        expected = run(capsys, "analyze", "--input", triangle_file)
        toml = 'A = [[1, 0], [1, 2], [1, 1]]\nbeta = ["10", "8"]\nwindow = [-5, 10]\n'
        folder = tmp_path / "dir.toml"
        folder.mkdir()
        (folder / "p.json").write_text(json.dumps(TRIANGLE_PROBLEM))
        for name, text in ("p.toml", toml), ("p.TOML", toml), ("dir.toml/p.json", None):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            assert run(capsys, "analyze", "--input", str(path)) == expected
        # a TOML file read as JSON fails as JSON does
        (tmp_path / "p.txt").write_text(toml)
        code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "p.txt"))
        assert code == 2 and "Expecting value" in err
        # the refusals of a missing file and of a directory, byte for byte
        missing = tmp_path / "missing.toml"
        assert run(capsys, "analyze", "--input", str(missing)) == (
            2, "", f"input error: input file not found: {missing}\n"
        )
        directory = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(folder))
        assert run(capsys, "analyze", "--input", str(folder)) == (
            2, "", f"input error: cannot parse {folder}: {directory}\n"
        )

    def test_float_rejected(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": [0.5, "8"]}))
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "float" in err


class TestExponents:
    def test_report(self, capsys, triangle_file):
        code, out, _ = run(capsys, "exponents", "--input", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert [e["vector"] for e in report["fake_exponents"]] == [
            ["0", "-2", "12"],
            ["2", "0", "8"],
        ]
        assert [e["vector"] for e in report["prime_exponents"]] == [["2", "0", "8"]]
        assert report["multiplicity_sum"] == report["relation_sum"] == 2

    def test_deterministic_output(self, capsys, triangle_file):
        _, first, _ = run(capsys, "exponents", "--input", triangle_file)
        _, second, _ = run(capsys, "exponents", "--input", triangle_file)
        assert first == second

    def test_builds_no_exponent(self, capsys, monkeypatch, tmp_path):
        # the report is written from the line's integer keys; the library's
        # Exponent records are not built on the way
        def refuse(*args):
            raise AssertionError("an Exponent was built")

        monkeypatch.setattr(exponents, "Exponent", refuse)
        for problem in (TRIANGLE_PROBLEM, TWO_LABELS_PROBLEM):
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            code, out, _ = run(capsys, "exponents", "--input", str(path))
            report = json.loads(out)
            assert code == 0 and report["multiplicity_sum"] == report["relation_sum"]

    @pytest.mark.parametrize("text", [False, True])
    def test_count_law_failure_prints_nothing(self, capsys, monkeypatch, triangle_file, text):
        # the count law is checked after the last block, before the first byte
        from gkz1 import lattice

        block = lattice.RelationLine.block

        def never_normalized(self, keys):
            columns, labels, masks, normalized = block(self, keys)
            return columns, labels, masks, [False] * len(normalized)

        monkeypatch.setattr(lattice.RelationLine, "block", never_normalized)
        argv = ["exponents", "--input", triangle_file] + (["--format", "text"] if text else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "internal invariant failure: multiplicities sum to 0, relation demands 2\n"

    def test_peak_memory_stays_below_the_output(self, monkeypatch, tmp_path):
        # nothing is joined: the entries' texts, the line's keys and one
        # block's columns are what is held when the writing starts, under the
        # output itself; a table over the whole line would not be
        class Counted(io.TextIOBase):
            size = 0

            def write(self, piece):
                self.size += len(piece)
                return len(piece)

        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({"A": [[1], [100000]], "beta": ["1/7"]}))
        sink = Counted()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["exponents", "--input", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 40_000_000
        assert peak < sink.size


def _reference_exponents_report(config, beta) -> dict:
    """The exponents report from the Fraction-vector route of tests/reference.py."""
    fakes = fake_exponents_reference(config, beta)
    primes = normalized_set_reference(config, fakes)

    def entry(e):
        return {
            "vector": [str(x) for x in e.vector],
            "labels": [list(label) for label in e.labels],
            "m_support": sorted(e.m_support),
            "multiplicity": len(e.m_support),
        }

    return {
        "beta": [str(x) for x in beta],
        "fake_exponents": [entry(e) for e in fakes],
        "prime_exponents": [entry(e) for e in primes],
        "multiplicity_sum": sum(len(e.m_support) for e in primes),
        "relation_sum": config.positive_sum,
    }


def _exponents_output(path, problem, *argv) -> tuple[int, str]:
    """The exit code and stdout of gkz1 exponents on the problem, written to path."""
    path.write_text(json.dumps(problem))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["exponents", "--input", str(path), *argv])
    return code, out.getvalue()


def _reference_output(problem, command, r=None, verify=True, text=False):
    """The exit code and stdout that gkz1 solve or verify must give on the
    problem (its A, beta, window and lift), from the reference report of
    tests/reference.py, and the BundleReport it was made from (None for a
    refusal, which prints nothing)."""
    config = build_config(problem["A"])
    try:
        window = window_bounds(problem.get("window", series.DEFAULT_WINDOW))
        beta = parameter(config, problem["beta"]).beta
        report = series.solution_bundle(config, beta, u_lift=problem.get("lift"), window=window)
        if command == "solve":
            reference = solve_report_reference(config, beta, report, window, r, verify)
        else:
            reference = verify_report_reference(config, beta, report, window, r)
    except GkzError as exc:
        return exc.exit_code, "", None
    out = render_text_reference(reference) if text else json.dumps(reference, indent=2)
    return 0, out + "\n", report


def _cli_output(path, problem, *argv) -> tuple[int, str]:
    """The exit code and stdout of gkz1 on the problem, written to path."""
    path.write_text(json.dumps(problem))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--input", str(path), *argv[1:]])
    return code, out.getvalue()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.integers(0, 3),
    command=st.sampled_from(["solve", "verify"]),
    text=st.booleans(),
    r=st.none() | st.integers(-1, 3),
    verify=st.booleans(),
    window=st.tuples(st.integers(-3, 3), st.integers(-1, 5)),
    lifted=st.booleans(),
    on_line=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
)
def test_solve_and_verify_match_the_reference(
    tmp_path_factory, seed, kind, command, text, r, verify, window, lifted, on_line
):
    # every template branch against the reference's json.dumps and
    # render_text_reference: requested degrees, --no-verify, many bundles, empty
    # series and empty check lists, lifts, refusals (which print nothing).
    # Each of window, lift, r and verify goes in the problem file or, where
    # on_line says so, on the command line, which builds the same spec
    rng = random.Random(seed)
    config = random_relation_config(rng, 12) if kind % 2 else random_config(rng)
    beta = random_integral_beta(rng, config) if kind > 1 else random_nonresonant_beta(rng, config)
    problem = {
        "A": [list(c) for c in config.columns],
        "beta": [str(b) for b in beta],
        "window": [window[0], window[0] + window[1]],
    }
    if lifted:
        problem["lift"] = [rng.randint(-2, 2) for _ in range(config.n)]
    argv = [command] + (["--format", "text"] if text else [])
    written = dict(problem)
    window_on_line, lift_on_line, r_on_line, verify_on_line = on_line
    if window_on_line:
        del written["window"]
        argv.append("--window=%d:%d" % tuple(problem["window"]))
    if lifted and lift_on_line:
        argv.append("--lift=" + ",".join(map(str, written.pop("lift"))))
    if r is not None:
        if r_on_line:
            argv.append(f"--r={r}")
        else:
            written["r"] = r
    if not verify:
        if verify_on_line:
            argv.append("--no-verify")
        else:
            written["verify"] = False
    code, out, report = _reference_output(problem, command, r, verify, text)
    path = tmp_path_factory.mktemp("report") / "problem.json"
    assert _cli_output(path, written, *argv) == (code, out)
    event(f"{command} exit {code}")
    if report is not None:
        if len(report.bundles) > 3:
            event("more than three bundles")
        if any(s.is_zero for b in report.bundles for s in b.solutions):
            event("a series with no terms")
        if not any(b.solutions for b in report.bundles):
            event("no solution at all")
        if r is not None:
            event("a requested degree")
        if command == "solve" and not verify:
            event("solve --no-verify")


# One bundle, whose lift fails minimal negative support on every column:
# no solution, so solve writes an empty solutions list and verify no check.
NO_SOLUTION_PROBLEM = {
    "A": [[2, 1, 1, 0], [0, 0, -2, 2], [2, 1, 3, -2]],
    "beta": ["2", "1", "5", "-4"],
    "lift": [-1, 2, 1],
    "window": [0, 2],
}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("text", [False, True])
def test_no_solution_matches_the_reference(tmp_path, command, text):
    code, out, report = _reference_output(NO_SOLUTION_PROBLEM, command, text=text)
    assert code == 0 and [len(b.solutions) for b in report.bundles] == [0]
    argv = [command] + (["--format", "text"] if text else [])
    assert _cli_output(tmp_path / "problem.json", NO_SOLUTION_PROBLEM, *argv) == (0, out)
    key = "solutions" if command == "solve" else "checks"
    assert (f"{key}: []" if text else f'"{key}": []') in out


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("text", [False, True])
def test_failing_certificate_matches_the_reference(monkeypatch, tmp_path, command, text):
    # a top coefficient changed after the build fails the box operator, so
    # the bundle is certified solution by solution: a first failure, and
    # passing certificates beside it, are written as to_json_dict reads them
    build = series.solution_bundle

    def tampered(*args, **kwargs):
        report = build(*args, **kwargs)
        bundle = report.bundles[-1]
        top = bundle.solutions[-1]
        key = max(top.terms)
        changed = LogSeries(
            top.base_exponent, top.relation, top.window, {**top.terms, key: top.terms[key] + 1}
        )
        fields = {name: getattr(bundle, name) for name in bundle._fields}
        fields["solutions"] = bundle.solutions[:-1] + (changed,)
        return series.BundleReport(
            report.bundles[:-1] + (series.SolutionBundle(**fields),), report.expected_total
        )

    monkeypatch.setattr(series, "solution_bundle", tampered)
    monkeypatch.setattr(cli, "solution_bundle", tampered)
    problem = {**TRIANGLE_PROBLEM, "window": [0, 3]}
    code, out, _ = _reference_output(problem, command, text=text)
    argv = [command] + (["--format", "text"] if text else [])
    assert _cli_output(tmp_path / "problem.json", problem, *argv) == (0, out)
    assert code == 0 and ("first_failure:\n" if text else '"first_failure": {') in out
    assert ("passed: True" if text else '"passed": true') in out


# Reports whose certificates print alike: the 150 log-free bundles of
# [(1),(150)], and the five solutions of the quintic's one bundle, which share
# their top's certificate.  Each distinct certificate text is rendered once.
PENCIL_PROBLEM = {"A": [[1], [150]], "beta": ["1/7"], "window": [-2, 2]}
QUINTIC_PROBLEM = {"A": [list(p) for p in QUINTIC], "beta": [-1, 0, 0, 0, 0], "window": [0, 6]}


@pytest.mark.parametrize("problem, command", [
    (PENCIL_PROBLEM, "verify"), (PENCIL_PROBLEM, "solve"), (QUINTIC_PROBLEM, "solve"),
])
def test_shared_certificate_texts_match_the_reference(tmp_path, problem, command):
    code, out, report = _reference_output(problem, command)
    assert code == 0 and len(report.bundles) == (150 if problem is PENCIL_PROBLEM else 1)
    assert _cli_output(tmp_path / "problem.json", problem, command) == (0, out)


def test_certificate_texts_keep_every_printed_field():
    # one report's dict of certificate texts: certificates that differ only
    # in one operator's safe window, or only in its first failure (its
    # shift, or its residual), or only in their pad, get texts of their own,
    # and each text is json.dumps of the certificate's dict at its pad
    box, row = OperatorReport("box", (0, 3), {}), OperatorReport("euler[0]", (0, 4), {})

    def failing(key, value):
        return Certificate(OperatorReport("box", (0, 3), {key: value}), (row,))

    certificates = [
        Certificate(box, (row,)),
        Certificate(box, (OperatorReport("euler[0]", (0, 5), {}),)),
        Certificate(box, (OperatorReport("euler[0]", None, {}),)),
        failing((1, 0), Fraction(1, 2)),
        failing((2, 0), Fraction(1, 2)),
        failing((1, 0), Fraction(1, 3)),
    ]
    texts, pad = {}, "      "
    rendered = [cli._certificate(c, pad, texts) for c in certificates]
    assert len(set(rendered)) == len(texts) == len(certificates)
    for c, text in zip(certificates, rendered):
        assert text == json.dumps(c.to_json_dict(), indent=2).replace("\n", "\n" + pad)
    # equal printed fields read the kept text; another pad gets its own
    assert cli._certificate(Certificate(box, (row,)), pad, texts) is rendered[0]
    assert cli._certificate(certificates[0], "  ", texts) != rendered[0]
    assert len(texts) == len(certificates) + 1


def test_solve_peak_memory_is_bounded_by_a_bundle(monkeypatch, tmp_path):
    # every bundle is built before the first byte, and each is then
    # certified, written and dropped: the peak is the built bundles plus
    # about one bundle's text, where a joined report held several copies of
    # the whole output
    class Counted(io.TextIOBase):
        size = largest = 0

        def write(self, piece):
            self.size += len(piece)
            self.largest = max(self.largest, len(piece))
            return len(piece)

    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"A": [[1], [150]], "beta": ["1/7"], "window": [-2, 2]}))
    spec = cli._apply_overrides(cli.load_problem(str(path)), cli._plain(["solve", "--input", "x"]))
    sink = Counted()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._bundle_report(spec)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["solve", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 400_000
    assert sink.largest < sink.size / 100  # one piece per bundle
    assert peak < built + sink.size / 3


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("text", [False, True])
def test_excluded_case_prints_nothing(capsys, monkeypatch, tmp_path, command, text):
    # ExcludedCase is raised while a bundle is built, and every bundle is
    # built before the first byte: here the last of five bundles raises it
    # built in lowest terms only where coefficients are written
    builds = []

    def excluded(config, vec, lift, cap, window, lowest_terms):
        assert lowest_terms is (command == "solve")
        builds.append(vec)
        if len(builds) == 5:
            raise ExcludedCase(1, 0, vec[0])
        return build(config, vec, lift, cap, window, lowest_terms)

    build = series._build
    monkeypatch.setattr(series, "_build", excluded)
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"A": [[1], [5]], "beta": ["1/7"], "window": [-2, 2]}))
    argv = [command, "--input", str(path)] + (["--format", "text"] if text else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, len(builds)) == (1, "", 5)
    assert err.startswith("internal invariant failure: M_(1,0)") and err.count("\n") == 1


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), kind=st.integers(0, 3))
def test_exponents_report_matches_the_reference(tmp_path_factory, seed, kind):
    # the bytes, in JSON and in --format text, are those of the Fraction
    # route's report, on nonresonant and on integral parameters
    rng = random.Random(seed)
    config = random_relation_config(rng, 12) if kind % 2 else random_config(rng)
    beta = random_integral_beta(rng, config) if kind > 1 else random_nonresonant_beta(rng, config)
    reference = _reference_exponents_report(config, beta)
    path = tmp_path_factory.mktemp("exponents") / "problem.json"
    problem = {"A": [list(c) for c in config.columns], "beta": [str(b) for b in beta]}
    assert _exponents_output(path, problem) == (0, json.dumps(reference, indent=2) + "\n")
    text = _exponents_output(path, problem, "--format", "text")
    assert text == (0, render_text_reference(reference) + "\n")
    fakes = reference["fake_exponents"]
    if len(reference["prime_exponents"]) < len(fakes):
        event("a fake is shifted")
    if any(len(entry["labels"]) > 1 for entry in fakes):
        event("a key with two labels")


# Relation (2999, 1, -3000): 3,000 fake keys, more than two blocks of the pass,
# with two positive columns.  At (1499, -3000) the key of the label (0, 1500),
# in the second block, has coordinate 1 at -1: that fake is not normalized.
LONG_LINE = [[1, 0], [1, 3000], [1, 1]]


@pytest.mark.parametrize("beta", [["1/3", "-2/7"], ["1499", "-3000"]])
@pytest.mark.parametrize("text", [False, True])
def test_exponents_across_blocks_match_the_reference(tmp_path, beta, text):
    config = build_config(LONG_LINE)
    reference = _reference_exponents_report(config, [Fraction(b) for b in beta])
    assert len(reference["fake_exponents"]) == 3000 > 2 * exponents._BLOCK
    shifted = len(reference["fake_exponents"]) - len(reference["prime_exponents"])
    assert shifted == (beta[0] == "1499")
    out = render_text_reference(reference) if text else json.dumps(reference, indent=2)
    argv = ["--format", "text"] if text else []
    problem = {"A": LONG_LINE, "beta": beta}
    assert _exponents_output(tmp_path / "problem.json", problem, *argv) == (0, out + "\n")


# A fake with two labels, (1, 0) and (2, 0), whose coordinate 0 is the negative
# integer -4: it is shifted, onto the other fake.
TWO_LABELS_PROBLEM = {"A": [[2, -1], [-2, 2], [0, -1]], "beta": ["-8", "4"]}
TWO_LABELS_TEXT = """\
beta: ['-8', '4']
fake_exponents:
  vector: ['-4', '0', '0']
  labels: [[1, 0], [2, 0]]
  m_support: [1, 2]
  multiplicity: 2
  -
  vector: ['0', '4', '4']
  labels: [[0, 0]]
  m_support: [0, 1, 2]
  multiplicity: 3
  -
prime_exponents:
  vector: ['0', '4', '4']
  labels: [[0, 0]]
  m_support: [0, 1, 2]
  multiplicity: 3
  -
multiplicity_sum: 3
relation_sum: 3
"""


def test_two_labels_and_a_shift(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_LABELS_PROBLEM))
    code, out, _ = run(capsys, "exponents", "--input", str(path), "--format", "text")
    assert (code, out) == (0, TWO_LABELS_TEXT)
    code, out, _ = run(capsys, "exponents", "--input", str(path))
    report = json.loads(out)
    assert report["fake_exponents"][0]["labels"] == [[1, 0], [2, 0]]
    assert report["prime_exponents"] == report["fake_exponents"][1:]


class TestSolve:
    def test_solutions_and_verification(self, capsys, triangle_file):
        code, out, _ = run(capsys, "solve", "--input", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert report["total_solutions"] == 2
        assert report["complete"] is True
        for bundle in report["bundles"]:
            for solution in bundle["solutions"]:
                assert solution["verification"]["passed"] is True
                series = LogSeries.from_json_dict(solution["series"])
                assert series.to_json_dict() == solution["series"]

    def test_no_verify_flag(self, capsys, triangle_file):
        code, out, _ = run(capsys, "solve", "--input", triangle_file, "--no-verify")
        assert code == 0
        report = json.loads(out)
        assert "verification" not in report["bundles"][0]["solutions"][0]

    def test_window_override(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "solve", "--input", triangle_file, "--window", "0:4"
        )
        assert code == 0
        assert json.loads(out)["window"] == [0, 4]

    def test_u_flag(self, capsys, tmp_path):
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({"A": [[1, 0], [0, 1], [1, 1]], "beta": ["0", "0"]}))
        # leading dash needs the = form, or argparse reads it as a flag
        code, out, _ = run(
            capsys, "solve", "--input", str(path), "--u=-1,-1", "--window", "0:6"
        )
        assert code == 0
        report = json.loads(out)
        assert report["parameter"] == ["-1", "-1"]
        assert report["bundles"][0]["phi_empty"] is True
        assert report["complete"] is False

    def test_requested_degree_read_from_the_bundle(self, capsys, monkeypatch, tmp_path):
        # the Gauss log branch: solutions[1] exists, so nothing is rebuilt
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps({
            "A": [[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]],
            "beta": ["-1/2", "-1/3", "1"],
            "window": [-4, 8],
        }))
        builds = []

        def counted(*args):
            builds.append(args)
            return build(*args)

        build = series._build
        monkeypatch.setattr(series, "_build", counted)
        code, out, _ = run(capsys, "solve", "--input", str(path), "--r", "1")
        assert code == 0
        report = json.loads(out)
        # one build per exponent, none for the requested degree
        assert len(builds) == len(report["bundles"])
        requested = report["requested_degree"]["solutions"]
        assert [s["series"] for s in requested] == [
            b["solutions"][1]["series"] for b in report["bundles"]
        ]

    def test_requested_block_reads_each_bundles_reduced_rows(self, capsys, monkeypatch, tmp_path):
        # each requested solution is written from the rows in lowest terms
        # that writing its bundle kept, so no row is reduced twice; relation
        # (2, 2, -1) at this beta has two bundles of two solutions each
        path = tmp_path / "towers.json"
        path.write_text(json.dumps({
            "A": [[0, -2, -1], [-1, 2, 0], [-2, 0, -2]], "beta": [-4, 2, -3], "window": [-2, 6],
        }))
        calls = []

        def recorded(series, pad, reduced):
            calls.append((series.rows[0], reduced, len(reduced)))
            return write(series, pad, reduced)

        write = cli._series
        monkeypatch.setattr(cli, "_series", recorded)
        code, out, _ = run(capsys, "solve", "--input", str(path), "--r", "1")
        assert code == 0
        requested = len(json.loads(out)["requested_degree"]["solutions"])
        written, asked = calls[:-requested], calls[-requested:]
        assert requested > 1 and len({id(reduced) for _, reduced, _ in written}) == requested
        for products, reduced, size in asked:
            assert size == len(products)
            assert any(r is reduced for p, r, _ in written if p is products)

    def test_requested_degree_too_big(self, capsys, triangle_file):
        code, _, err = run(capsys, "solve", "--input", triangle_file, "--r", "5")
        assert code == 3
        assert "multiplicity" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_refused_degree_certifies_nothing(self, capsys, monkeypatch, triangle_file, command):
        # the degree is checked against every bundle before any certificate
        calls = []
        monkeypatch.setattr(cli, "certify_bundle", lambda *args: calls.append(args))
        code, out, err = run(capsys, command, "--input", triangle_file, "--r", "5")
        assert (code, out, calls) == (3, "", [])
        assert "multiplicity" in err and err.count("\n") == 1


class TestVerifyCommand:
    def test_all_passed(self, capsys, triangle_file):
        code, out, _ = run(capsys, "verify", "--input", triangle_file)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert len(report["checks"]) == 2


class TestClassify:
    def test_mum_report(self, capsys, tmp_path):
        path = tmp_path / "interior.json"
        path.write_text(json.dumps({"A": [[1, 0], [0, 1], [-1, -1]], "beta": ["0", "0"]}))
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["mum"] is True and report["mum_holomorphic"] is True

    def test_resonant_exit_code(self, capsys, tmp_path):
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps({"A": [[1, 0], [0, 1], [1, 1]], "beta": ["0", "0"]}))
        code, _, err = run(capsys, "classify", "--input", str(path))
        assert code == 3
        assert "resonant" in err


# The full --format text output on the triangle at window 0:1.  The text is
# rendered from the parsed JSON report, so these lines pin the renderer's
# rule (a value's repr, a nested record two spaces deeper, a "-" line after
# each record of a list) on the reports of exponents, solve and verify.
TRIANGLE_TEXT = {
    "exponents": """\
beta: ['10', '8']
fake_exponents:
  vector: ['0', '-2', '12']
  labels: [[0, 0]]
  m_support: [0]
  multiplicity: 1
  -
  vector: ['2', '0', '8']
  labels: [[1, 0]]
  m_support: [0, 1]
  multiplicity: 2
  -
prime_exponents:
  vector: ['2', '0', '8']
  labels: [[1, 0]]
  m_support: [0, 1]
  multiplicity: 2
  -
multiplicity_sum: 2
relation_sum: 2
""",
    "solve": """\
beta: ['10', '8']
parameter: ['10', '8']
window: [0, 1]
expected_total: 2
total_solutions: 2
complete: True
bundles:
  exponent:
    vector: ['2', '0', '8']
    labels: [[1, 0]]
    m_support: [0, 1]
    multiplicity: 2
  lift: [0, 0, 0]
  phi_empty: False
  hypothesis_failures: []
  certificates:
    indices: [0, 1, 2]
    lift: [0, 0, 0]
    minimal: True
    membership: [[0, 4]]
    -
    indices: [1, 2]
    lift: [0, 0, 0]
    minimal: True
    membership: [[0, 4]]
    -
    indices: [0, 2]
    lift: [0, 0, 0]
    minimal: True
    membership: [[-2, 4]]
    -
    indices: [0, 1]
    lift: [0, 0, 0]
    minimal: True
    membership: [[0, None]]
    -
  solutions:
    r: 0
    series:
      base_exponent: ['2', '0', '8']
      relation: [1, 1, -2]
      window: [0, 1]
      terms:
        z: 0
        r: 0
        coeff: 1
        -
        z: 1
        r: 0
        coeff: 56/3
        -
    verification:
      passed: True
      box:
        operator: box
        safe_window: [0, 0]
        passed: True
        first_failure: None
      euler:
        operator: euler[0]
        safe_window: [0, 1]
        passed: True
        first_failure: None
        -
        operator: euler[1]
        safe_window: [0, 1]
        passed: True
        first_failure: None
        -
    -
    r: 1
    series:
      base_exponent: ['2', '0', '8']
      relation: [1, 1, -2]
      window: [0, 1]
      terms:
        z: 0
        r: 1
        coeff: 1
        -
        z: 1
        r: 0
        coeff: -314/9
        -
        z: 1
        r: 1
        coeff: 56/3
        -
    verification:
      passed: True
      box:
        operator: box
        safe_window: [0, 0]
        passed: True
        first_failure: None
      euler:
        operator: euler[0]
        safe_window: [0, 1]
        passed: True
        first_failure: None
        -
        operator: euler[1]
        safe_window: [0, 1]
        passed: True
        first_failure: None
        -
    -
  -
""",
    "verify": """\
parameter: ['10', '8']
window: [0, 1]
all_passed: True
checks:
  exponent: ['2', '0', '8']
  r: 0
  verification:
    passed: True
    box:
      operator: box
      safe_window: [0, 0]
      passed: True
      first_failure: None
    euler:
      operator: euler[0]
      safe_window: [0, 1]
      passed: True
      first_failure: None
      -
      operator: euler[1]
      safe_window: [0, 1]
      passed: True
      first_failure: None
      -
  -
  exponent: ['2', '0', '8']
  r: 1
  verification:
    passed: True
    box:
      operator: box
      safe_window: [0, 0]
      passed: True
      first_failure: None
    euler:
      operator: euler[0]
      safe_window: [0, 1]
      passed: True
      first_failure: None
      -
      operator: euler[1]
      safe_window: [0, 1]
      passed: True
      first_failure: None
      -
  -
""",
}

_TRIANGLE_ANALYZE_HEAD = """\
n: 3
dim: 2
columns: [[1, 0], [1, 2], [1, 1]]
relation: [1, 1, -2]
k: 2
perm: [0, 1, 2]
vol: 2
vol_crosscheck: 2
positive_sum: 2
negative_sum: 2
singularity: regular
"""

# The full --format text output of analyze and classify on the triangle's
# points, by command and beta: a nested resonance witness and a None one, a
# MUM exponent written as a list and a None one.
COMBINATORIAL_TEXT = {
    ("analyze", "10", "8"): _TRIANGLE_ANALYZE_HEAD + """\
beta: ['10', '8']
nonresonant: False
resonance_witness:
  i: 0
  j: 2
  value: 12
""",
    ("analyze", "1/2", "1/3"): _TRIANGLE_ANALYZE_HEAD + """\
beta: ['1/2', '1/3']
nonresonant: True
resonance_witness: None
""",
    ("classify", "1/3", "1/3"): """\
regular: True
nonresonant: True
mum: True
mum_holomorphic: True
witness:
  singleton: True
  integer_class_on_positive: True
  unit_positive_entries: True
  negative_span: True
  exponent: ['0', '0', '1/3']
""",
    ("classify", "1/2", "1/3"): """\
regular: True
nonresonant: True
mum: False
mum_holomorphic: False
witness:
  singleton: False
  integer_class_on_positive: False
  unit_positive_entries: True
  negative_span: False
  exponent: None
""",
}


class TestTextFormat:
    @pytest.mark.parametrize("command, beta0, beta1", sorted(COMBINATORIAL_TEXT))
    def test_analyze_and_classify_pinned(self, capsys, tmp_path, command, beta0, beta1):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({**TRIANGLE_PROBLEM, "beta": [beta0, beta1]}))
        code, out, _ = run(capsys, command, "--input", str(path), "--format", "text")
        assert (code, out) == (0, COMBINATORIAL_TEXT[(command, beta0, beta1)])

    def test_renders_lines(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "analyze", "--input", triangle_file, "--format", "text"
        )
        assert code == 0
        assert "relation: [1, 1, -2]" in out
        assert "vol: 2" in out

    @pytest.mark.parametrize("command", sorted(TRIANGLE_TEXT))
    def test_full_output_pinned(self, capsys, triangle_file, command):
        code, out, _ = run(
            capsys, command, "--input", triangle_file, "--window", "0:1", "--format", "text"
        )
        assert code == 0
        assert out == TRIANGLE_TEXT[command]


class TestParserReuse:
    def test_calls_match_fresh_parser_runs(self, capsys, monkeypatch, triangle_file):
        calls = [
            ("solve", "--input", triangle_file, "--window", "0:4", "--no-verify"),
            ("solve", "--input", triangle_file, "--window"),  # argparse error
            ("solve", "--input", triangle_file, "--window", "0:4"),
            ("exponents", "--input", triangle_file, "--format", "text"),
            ("bogus", "--input", triangle_file),  # argparse error
            ("solve", "--input", triangle_file, "--r", "1", "--window", "0:3"),
            ("analyze", "--input", triangle_file),
            ("verify", "--input", triangle_file, "--window", "0:3"),
        ]

        def outcomes():
            out = []
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        cached = outcomes()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
        assert cached == outcomes()
        assert [code for code, _, _ in cached] == [0, ("exit", 2), 0, 0, ("exit", 2), 0, 0, 0]

    def test_parser_not_built_at_import(self):
        src = str(Path(cli.__file__).resolve().parent.parent)
        probe = "import gkz1.cli as c; print(c._parser.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "0"


def _old_style_parser():
    """The parser as it was declared before the shared options moved to one
    parent parser: each subcommand declaring all seven options itself."""
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


def _help_texts(parser):
    commands = parser._subparsers._group_actions[0].choices
    return {"": parser.format_help()} | {
        name: command.format_help() for name, command in commands.items()
    }


# the help of each subcommand, as argparse lays it out at 80 columns in
# Python 3.11; the options list is the same for every subcommand
_OPTIONS_HELP = """
options:
  -h, --help            show this help message and exit
  --input INPUT         problem file (.json or .toml)
  --window WINDOW       z window as LO:HI
  --u U                 parameter shift u as comma-separated rationals
  --lift LIFT           integer lift as comma-separated integers
  --r R                 requested log degree
  --no-verify
  --format {json,text}
"""
HELP_TEXTS = {
    "analyze": """usage: gkz1 analyze [-h] --input INPUT [--window WINDOW] [--u U] [--lift LIFT]
                    [--r R] [--no-verify] [--format {json,text}]
""",
    "exponents": """usage: gkz1 exponents [-h] --input INPUT [--window WINDOW] [--u U]
                      [--lift LIFT] [--r R] [--no-verify]
                      [--format {json,text}]
""",
    "solve": """usage: gkz1 solve [-h] --input INPUT [--window WINDOW] [--u U] [--lift LIFT]
                  [--r R] [--no-verify] [--format {json,text}]
""",
    "verify": """usage: gkz1 verify [-h] --input INPUT [--window WINDOW] [--u U] [--lift LIFT]
                   [--r R] [--no-verify] [--format {json,text}]
""",
    "classify": """usage: gkz1 classify [-h] --input INPUT [--window WINDOW] [--u U]
                     [--lift LIFT] [--r R] [--no-verify]
                     [--format {json,text}]
""",
}


class TestHelp:
    def test_same_as_options_declared_per_subcommand(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _help_texts(cli.build_parser()) == _help_texts(_old_style_parser())

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="argparse lays help out differently by version"
    )
    def test_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        texts = _help_texts(cli.build_parser())
        assert {name: texts[name] for name in HELP_TEXTS} == {
            name: usage + _OPTIONS_HELP for name, usage in HELP_TEXTS.items()
        }


class TestBadSolveRequests:
    # each once ended in a traceback with exit code 1
    @pytest.mark.parametrize("flags", [
        ["--r", "-1"],
        ["--lift", "1,2"],
        ["--u", "1,1", "--lift", "0,0,0"],
    ])
    def test_exit_code_2_with_one_line(self, tmp_path, flags):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8]}))
        src = str(Path(cli.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "gkz1.cli", "solve", "--input", str(path), *flags],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("input error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    # --u once skipped an empty entry, so "1,,1" ran with u = (1, 1); --lift
    # refused the same entry
    @pytest.mark.parametrize("u", ["--u=1,,1", "--u=1,1,", "--u="])
    def test_empty_u_entry_is_refused(self, capsys, tmp_path, u):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8]}))
        assert run(capsys, "solve", "--input", str(path), "--u=1,1")[0] == 0
        code, out, err = run(capsys, "solve", "--input", str(path), u)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: --u: ")
        assert err.count("\n") == 1


class TestWindowTooWide:
    # the shifts of [0, 10^20] overflowed a list index: exit 1 with a traceback
    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_exit_code_2_with_one_line(self, tmp_path, command):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8]}))
        src = str(Path(cli.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "gkz1.cli", command, "--input", str(path),
             "--window", "0:100000000000000000000"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("input error: window [0, 100000000000000000000]")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    def test_wide_window_with_few_members_still_runs(self, capsys, tmp_path):
        # the shifts of every verdict are bounded below, so few are built
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8]}))
        code, out, err = run(
            capsys, "verify", "--input", str(path), "--window=-100000000000000000000:4"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["window"] == [-100000000000000000000, 4]


class TestClosedStdout:
    # a reader that stops early (gkz1 ... | head -c 1) once met a
    # BrokenPipeError traceback and exit code 1, which means an internal fault
    @pytest.mark.parametrize("command, problem", [
        ("exponents", {"A": [[1], [20000]], "beta": ["1/7"]}),  # 8.9 MB of entries
        ("solve", {"A": [list(p) for p in QUINTIC], "beta": [-1, 0, 0, 0, 0], "window": [0, 100]}),
    ])
    def test_exit_code_0_and_no_traceback(self, tmp_path, command, problem):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        src = str(Path(cli.__file__).resolve().parent.parent)
        process = subprocess.Popen(
            [sys.executable, "-m", "gkz1.cli", command, "--input", str(path)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert process.stdout.read(1) == b"{"
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert (process.wait(timeout=120), err) == (0, b"")


# a configuration of the benchmark's corpus size: four points in Z^4
CORPUS_PROBLEM = {
    "A": [[0, 1, -1, -1], [0, 1, -1, 1], [1, 0, 1, 0], [1, -3, 4, 1]],
    "beta": ["-14/5", "8/5", "-22/5", "-16/5"], "window": [-3, 5],
}


@pytest.mark.parametrize("command", ["analyze", "exponents", "solve", "verify", "classify"])
def test_one_read_and_one_elimination_per_call(capsys, monkeypatch, tmp_path, command):
    # every command opens its problem file once and eliminates its
    # configuration once: each parameter and lift reads that one reduction
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(CORPUS_PROBLEM))
    opened, reduced = [], []
    real_open, real_reduction = open, _linalg.reduction
    monkeypatch.setattr("builtins.open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))
    monkeypatch.setattr(_linalg, "reduction", lambda *a: reduced.append(1) or real_reduction(*a))
    code, out, err = run(capsys, command, "--input", str(path))
    assert (code, err) == (0, "") and out
    assert opened == [str(path)] and reduced == [1]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("problem, window", [
    ({"A": QUINTIC, "beta": [-1, 0, 0, 0, 0]}, "0:30"),
    ({"A": [[1, 0], [1, 80], [1, 1]], "beta": ["1/3", "2/5"]}, "0:3"),
])
def test_each_box_row_is_computed_once_per_call(capsys, tmp_path, command, problem, window):
    # the certificate's shifts ask for the rows that the builder's walk
    # stepped with, and get the kept ones: no row is computed twice in one
    # command, and none is kept when the command ends
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    computed, kernel = [], lattice._box_row.__wrapped__.__code__

    def profile(frame, event, arg):  # the arguments of each computed row
        if event == "call" and frame.f_code is kernel:
            computed.append(tuple(frame.f_locals[name] for name in ("factors", "z", "top")))

    lattice._box_row.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code, out, err = run(capsys, command, "--window", window, "--input", str(path))
    finally:
        sys.setprofile(previous)
    assert (code, err) == (0, "") and out
    assert computed and len(set(computed)) == len(computed)
    assert lattice._box_row.cache_info().currsize == 0


class TestMalformedProblemFiles:
    # each once raised TypeError in load_problem: exit 1 with a traceback
    @pytest.mark.parametrize("data", [
        {"A": 2, "beta": [10, 8]},
        {"A": [1], "beta": [10, 8]},
        {"A": [[1, 0], [1, 2], [1, 1]], "beta": 2},
        {"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8], "lift": 1},
        {"A": [[1, 0], [1, 2], [1, 1]], "beta": [10, 8], "u": None},
        # once read as beta = (1, 8): a JSON true passed for the rational 1
        {"A": [[1, 0], [1, 2], [1, 1]], "beta": [True, 8]},
    ])
    def test_exit_code_2_with_one_line(self, tmp_path, data):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        src = str(Path(cli.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "gkz1.cli", "solve", "--input", str(path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("input error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr


# -- the plain reader: the namespace argparse gives, or None ------------------

_ARGV_OPTIONS = ["--input", "--window", "--u", "--lift", "--r", "--no-verify", "--format"]
_ARGV_ABBREVIATIONS = ["--inp", "--fo", "--no"]
_ARGV_VALUES = st.sampled_from(["-1", "", " 2", "1_0", "xml", "text", "json", "p.json", "0:3", "--"])
_ARGV_SPELLED = st.sampled_from(_ARGV_OPTIONS + _ARGV_ABBREVIATIONS)
# an option and its value, and "--opt=value", drawn more often spelled in
# full, so that many lines are plain
_ARGV_TOKENS = st.one_of(
    *[st.tuples(st.sampled_from(_ARGV_OPTIONS), _ARGV_VALUES).map(list)] * 2,
    *[st.builds("{}={}".format, st.sampled_from(_ARGV_OPTIONS), _ARGV_VALUES).map(
        lambda token: [token]
    )] * 2,
    st.tuples(_ARGV_SPELLED, _ARGV_VALUES).map(list),
    st.builds("{}={}".format, _ARGV_SPELLED, _ARGV_VALUES).map(lambda token: [token]),
    # one option twice: argparse checks both values, though the last one wins
    st.builds(
        lambda option, first, last: [f"{option}={first}", option, last],
        st.sampled_from(_ARGV_OPTIONS), _ARGV_VALUES, _ARGV_VALUES,
    ),
    st.sampled_from(_ARGV_OPTIONS + _ARGV_ABBREVIATIONS + ["-h", "--help", "--"]).map(
        lambda token: [token]
    ),
    _ARGV_VALUES.map(lambda value: [value]),
)


@st.composite
def _argvs(draw):
    """A command line: a command (or a bogus one), most often first, and up
    to four options, values, abbreviations, help requests or "--", repeats too."""
    argv = ["--input", "p.json"] if draw(st.integers(0, 3)) else []
    for tokens in draw(st.lists(_ARGV_TOKENS, max_size=4)):
        argv += tokens
    command = draw(st.sampled_from(["analyze", "exponents", "solve", "verify", "classify", "bogus"]))
    argv.insert(0 if draw(st.integers(0, 3)) else draw(st.integers(0, len(argv))), command)
    return argv


@settings(max_examples=1500, deadline=None)
@given(argv=_argvs())
def test_plain_reader_agrees_with_argparse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(cli._parser().parse_args(argv))
    except SystemExit:
        expected = None
    plain = cli._plain(argv)
    event("read plainly" if plain is not None else "left to argparse")
    if plain is not None:
        assert expected is not None, argv  # argparse exits where the reader read
        assert vars(plain) == expected


# -- fuzzed problem files: every run ends with exit 0, 2 or 3 and one line ----

_JUNK = st.sampled_from([None, True, 0.5, "x", "1/0", "", [], {}, [[1]], 7])
_RATIONALS = st.integers(-4, 4) | st.builds(
    "{}/{}".format, st.integers(-9, 9), st.integers(1, 7)
)
_BAD_RATIONALS = st.sampled_from(["1/0", "a/b", "1/2/3", "", 0.5, None, [1], True])
_FIELDS = ["A", "beta", "u", "lift", "r", "window", "verify"]


@st.composite
def _problems(draw):
    """A problem file: half raw points, half small valid configurations.

    Half the files give one field a value of the wrong type; vectors may
    have the wrong length or a bad rational.
    """
    if draw(st.booleans()):
        n, d = draw(st.integers(1, 5)), draw(st.integers(0, 4))
        point = st.lists(st.integers(-3, 3), min_size=d, max_size=d + 1)
        columns = draw(st.lists(point, min_size=n, max_size=n))
        config = None
    else:
        config = random_config(random.Random(draw(st.integers(0, 2**32 - 1))), max_entry=3)
        columns = [list(col) for col in config.columns]
        n, d = config.n, config.dim

    def vector(integral):
        # a column combination is in the span, and in the lattice if integral
        if config is not None and draw(st.integers(0, 3)):
            q = 1 if integral else draw(st.integers(1, 7))
            weights = [Fraction(draw(st.integers(-3 * q, 3 * q)), q) for _ in range(n)]
            return [str(x) for x in config.column_combination(weights)]
        size = max(d + draw(st.integers(-1, 1)), 0)
        entries = draw(st.lists(_RATIONALS, min_size=size, max_size=size))
        if entries and not draw(st.integers(0, 3)):
            entries[draw(st.integers(0, size - 1))] = draw(_BAD_RATIONALS)
        return entries

    problem = {"A": columns, "beta": vector(False)}
    if draw(st.booleans()):
        problem["u"] = vector(True)
    if draw(st.booleans()):
        problem["lift"] = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if draw(st.booleans()):
        problem["r"] = draw(st.integers(-1, 3))
    lo = draw(st.integers(-3, 3))
    problem["window"] = [lo, lo + draw(st.integers(-1, 6))]
    if draw(st.booleans()):
        problem["verify"] = draw(st.booleans())
    broken = draw(st.sampled_from([None] * len(_FIELDS) + _FIELDS))
    if broken is not None:
        problem[broken] = draw(_JUNK)
    return problem


@settings(max_examples=1000, deadline=None)
@given(
    problem=_problems(),
    command=st.sampled_from(sorted(cli._COMMANDS)),
    text=st.booleans(),
)
def test_fuzzed_problem_files_end_cleanly(tmp_path_factory, problem, command, text):
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(json.dumps(problem))
    argv = [command, "--input", str(path)] + (["--format", "text"] if text else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert err.getvalue().count("\n") == (0 if code == 0 else 1)
    assert "Traceback" not in err.getvalue()
    event(f"{command} exit {code}")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_output_does_not_depend_on_the_digit_limit(capsys, tmp_path):
    # solve writes coefficients of more than 640 digits; analyze fills the
    # relation entry 10**700 + 1 into its %d fields, and reads it from the file
    path = tmp_path / "problem.json"
    for command, problem in [
        ("solve", {"A": [[1], [300]], "beta": ["1/7"], "window": [-1, 1]}),
        ("analyze", {"A": [[1], [10**700 + 1]], "beta": ["1/7"]}),
    ]:
        path.write_text(json.dumps(problem))
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            unlimited = run(capsys, command, "--input", str(path))
            sys.set_int_max_str_digits(640)
            limited = run(capsys, command, "--input", str(path))
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert limited == unlimited
        assert unlimited[0] == 0
        # the output holds an integer too long to print under the limit
        assert max(len(x) for x in re.findall(r"\d+", unlimited[1])) > 640


class TestInvalidConfigs:
    def test_dependent_subset_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps({"A": [[1, 0], [-1, 0], [0, 1]], "beta": ["0", "0"]}))
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "dependent" in err

    def test_beta_outside_span(self, capsys, tmp_path):
        path = tmp_path / "span.json"
        path.write_text(json.dumps({"A": [[1, 0], [1, 0]], "beta": ["0", "1"]}))
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2


def test_failed_volume_crosscheck_exits_1(capsys, monkeypatch, triangle_file):
    # analyze reports vol_crosscheck, so a wrong lattice index must refuse
    true_index = _linalg.saturation_index
    monkeypatch.setattr(_linalg, "saturation_index", lambda cols: len(cols) * true_index(cols))
    code, out, err = run(capsys, "analyze", "--input", triangle_file)
    assert (code, out) == (1, "")
    assert err.startswith("internal invariant failure: ") and err.count("\n") == 1


# The exit code of every error class.  A class added without one of the three
# base classes is missing here, so the walk below fails on it.
EXIT_CODES = {
    "InputError": 2,
    "KernelRankNotOne": 2,
    "DependentSubset": 2,
    "BetaNotInSpan": 2,
    "NotInLattice": 2,
    "LiftMismatch": 2,
    "NegativeDegree": 2,
    "EmptyWindow": 2,
    "HypothesisError": 3,
    "NotNonresonant": 3,
    "IrregularSingularity": 3,
    "NotMinimalSupport": 3,
    "HypothesisViolated": 3,
    "RNotLessThanMultiplicity": 3,
    "InternalInvariantError": 1,
    "ExcludedCase": 1,
    "CountMismatch": 1,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_has_its_exit_code(capsys, monkeypatch, triangle_file):
    classes = {cls.__name__: cls for cls in _subclasses(GkzError)}
    assert sorted(classes) == sorted(EXIT_CODES)
    for name, cls in classes.items():
        def fail(path, exc=cls.__new__(cls)):
            raise exc

        monkeypatch.setattr(cli, "load_problem", fail)
        code, _, _ = run(capsys, "analyze", "--input", triangle_file)
        assert code == EXIT_CODES[name], name


# -- every report: the reference dict's json.dumps and render_text_reference --


def _combinatorial_output(config, beta, command, text) -> tuple[int, str]:
    """The exit code and stdout that gkz1 analyze or classify must give on the
    configuration and beta, from the reference report of tests/reference.py;
    a refusal prints nothing."""
    reference = analyze_report_reference if command == "analyze" else classify_report_reference
    try:
        report = reference(config, beta)
    except GkzError as exc:
        return exc.exit_code, ""
    return 0, (render_text_reference(report) if text else json.dumps(report, indent=2)) + "\n"


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.integers(0, 3),
    command=st.sampled_from(["analyze", "classify"]),
    text=st.booleans(),
)
def test_analyze_and_classify_match_the_reference(tmp_path_factory, seed, kind, command, text):
    # every field of both templates against the reference's json.dumps and
    # render_text_reference: resonant and nonresonant parameters, irregular
    # points, and classify's refusals (exit 3), which print nothing
    rng = random.Random(seed)
    config = random_relation_config(rng, 12) if kind % 2 else random_config(rng)
    beta = random_integral_beta(rng, config) if kind > 1 else random_nonresonant_beta(rng, config)
    problem = {"A": [list(c) for c in config.columns], "beta": [str(b) for b in beta]}
    expected = _combinatorial_output(config, beta, command, text)
    path = tmp_path_factory.mktemp("report") / "problem.json"
    argv = [command] + (["--format", "text"] if text else [])
    assert _cli_output(path, problem, *argv) == expected
    event(f"{command} exit {expected[0]}")
    event("nonresonant" if is_nonresonant(config, beta) else "resonant")


# MUM and holomorphic MUM (a list in witness.exponent), MUM that is not
# holomorphic, and neither, on named points; and a resonant and an irregular
# parameter, which analyze reports and classify refuses
NAMED_COMBINATORIAL_PROBLEMS = [
    ([[1, 0], [1, 2], [1, 1]], ["1/3", "1/3"]),
    ([[1, 0], [1, 2], [1, 1]], ["1/2", "1/3"]),
    ([[1, 0], [1, 2], [1, 1]], ["10", "8"]),
    ([[1, 0], [0, 1], [-1, -1]], ["0", "0"]),
    ([[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]], ["-1/2", "-1/3", "1"]),
    ([[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]], ["-1/2", "-1/3", "2"]),
    ([[1, 1], [1, 0], [0, 1]], ["1/2", "1/3"]),
]


@pytest.mark.parametrize("columns, beta", NAMED_COMBINATORIAL_PROBLEMS)
@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize("text", [False, True])
def test_analyze_and_classify_match_the_reference_on_named_points(
    tmp_path, columns, beta, command, text
):
    expected = _combinatorial_output(build_config(columns), beta, command, text)
    argv = [command] + (["--format", "text"] if text else [])
    assert _cli_output(tmp_path / "problem.json", {"A": columns, "beta": beta}, *argv) == expected


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_writer_matches_json_dumps_on_every_report(tmp_path_factory, seed):
    # the five commands on one problem: each prints the bytes of its
    # reference report's json.dumps, or nothing where it refuses
    rng = random.Random(seed)
    config = random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    path = tmp_path_factory.mktemp("reports") / "problem.json"
    problem = {"A": [list(c) for c in config.columns], "beta": [str(b) for b in beta]}
    for command in ("analyze", "classify"):
        expected = _combinatorial_output(config, beta, command, False)
        assert _cli_output(path, problem, command) == expected
    problem["window"] = [-1, 3]
    for command in ("solve", "verify"):
        expected = _reference_output(problem, command, r=0)
        assert _cli_output(path, problem, command, "--r", "0") == expected[:2]
    exponents = json.dumps(_reference_exponents_report(config, beta), indent=2) + "\n"
    assert _cli_output(path, problem, "exponents") == (0, exponents)


def test_writer_matches_json_dumps_with_exponent_entries(tmp_path):
    # exponents and solve fill one exponent template, at depths 2, 3 and 4,
    # in JSON and in text; each prints the reference report's bytes: on two
    # labels and a shift, integral and nonresonant parameters, shifted
    # fakes, a requested degree
    problems = [
        TWO_LABELS_PROBLEM,
        TRIANGLE_PROBLEM,
        {"A": [[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]], "beta": ["-1/2", "-1/3", "1"]},
        {"A": [[1, 1, -1], [0, 0, 1], [1, 0, 0], [0, 1, 0]], "beta": ["0", "2", "-3"]},
        {"A": [[1], [12]], "beta": ["-5/3"]},
    ]
    shifted = two_labels = 0
    for problem in problems:
        config = build_config(problem["A"])
        beta = [Fraction(b) for b in problem["beta"]]
        reference = _reference_exponents_report(config, beta)
        output = _exponents_output(tmp_path / "problem.json", problem)
        assert output == (0, json.dumps(reference, indent=2) + "\n")
        fakes = reference["fake_exponents"]
        shifted += len(reference["prime_exponents"]) < len(fakes)
        two_labels += any(len(entry["labels"]) > 1 for entry in fakes)
        problem = {**problem, "window": [-1, 2]}
        for text in ([], ["--format", "text"]):
            code, out, report = _reference_output(problem, "solve", r=0, text=bool(text))
            assert code == 0 and report.bundles
            assert _cli_output(tmp_path / "solve.json", problem, "solve", "--r", "0", *text) == (
                code, out
            )
    assert shifted >= 2 and two_labels >= 1


def test_integer_writer_prints_what_to_json_dict_prints():
    # a series that holds its bundle's rows is written from them with no
    # Fraction; each degree r of these rows must print as json.dumps of
    # to_json_dict, whose terms are the Fractions r!/(r-s)! * N_s/den: zero
    # entries, negative numerators, a weight that cancels all of the
    # denominator (1/6 * 3!), or part of it (3/4 * 3!/1!), terms whose
    # reduced denominator is 1 (-4/4, 12/12), and a log-free row
    config = build_config([(1, 0), (1, 2), (1, 1)])
    base = (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2))
    products = {
        -1: ((3, 0, -5, 7), 6),
        0: ((0, 0, 0, 1), 6),
        1: ((-4, 2, 3, 0), 4),
        2: ((12, -8, 6, 5), 12),
    }
    reduced = {}  # one per bundle, as _bundle keeps it across the solutions
    for r in range(4):
        built = series._assemble(config, base, r, (-1, 2), products)
        expected = json.dumps(built.to_json_dict(), indent=2)
        assert built.terms and cli._series(built, "", reduced) == expected
        assert cli._series(built, "", {}) == expected
    assert {z: len(row) for z, row in reduced.items()} == {z: 4 for z in products}
    terms = series._assemble(config, base, 3, (-1, 2), products).terms
    assert (terms[(0, 0)], terms[(1, 1)], terms[(1, 3)], terms[(2, 3)]) == (1, Fraction(9, 2), -1, 1)
    log_free = series._assemble(config, base, 0, (-1, 2), {0: ((-3,), 7), 1: ((5,), 1)})
    assert cli._series(log_free, "", {}) == json.dumps(log_free.to_json_dict(), indent=2)
    # a series made from its terms takes the Fraction route, to the same text
    for built in (log_free, series._assemble(config, base, 2, (-1, 2), products)):
        copy = LogSeries(*(getattr(built, name) for name in LogSeries._fields))
        assert copy.rows is None and cli._series(copy, "", {}) == cli._series(built, "", {})


def test_verify_builds_no_fraction_per_stored_entry(tmp_path):
    # gkz1 verify certifies each bundle from its rows.  gkz1.series may build
    # a Fraction where it sets up (the parameter's shift) and in a seed, whose
    # coefficient_M rows are Fractions of gkz1.coefficients; no row of the
    # walk may be one, and no solution's terms may be read.  Each Fraction is
    # booked to the innermost function of gkz1 that built it, directly or
    # through Fraction arithmetic
    package = Path(cli.__file__).parent
    codes = {Fraction.__new__.__code__,
             getattr(Fraction, "_from_coprime_ints", Fraction.__new__).__code__}
    series_file = str(package / "series.py")
    # one bundle of five log solutions, and 150 log-free bundles
    problems = [({"A": QUINTIC, "beta": [-1, 0, 0, 0, 0]}, "0:200", 5),
                ({"A": [[1], [150]], "beta": ["1/7"]}, "-2:2", 150)]
    for problem, window, solutions in problems:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        spec = cli._apply_overrides(
            cli.load_problem(str(path)), cli._plain(["verify", "--input", "x", f"--window={window}"])
        )
        built, reads = {}, []

        def profile(frame, event, arg):
            if event != "call":
                return
            if frame.f_code in codes:
                # a comprehension's frame is booked to the function it runs in
                while frame is not None and (
                    Path(frame.f_code.co_filename).parent != package
                    or frame.f_code.co_name.startswith("<")
                ):
                    frame = frame.f_back
                if frame is not None and frame.f_code.co_filename == series_file:
                    built[frame.f_code.co_name] = built.get(frame.f_code.co_name, 0) + 1
            elif frame.f_code.co_filename == series_file and frame.f_code.co_name == "__getattr__":
                reads.append(frame.f_locals.get("name"))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = json.loads("".join(cli.cmd_verify(spec)))
        finally:
            sys.setprofile(previous)
        assert report["all_passed"] and len(report["checks"]) == solutions
        assert set(built) <= {"solution_bundle", "_seed"}, built
        # beta's shift, one sum per entry; from Python 3.12 a Fraction plus an
        # int builds two, as the int is made a Fraction first
        assert built.get("solution_bundle", 0) <= 2 * len(problem["beta"])
        assert reads == []
