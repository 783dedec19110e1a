import json

import pytest

from gkz1 import cli
from gkz1.cli import main
from gkz1.errors import GkzError
from gkz1.series import LogSeries

TRIANGLE_PROBLEM = {
    "A": [[1, 0], [1, 2], [1, 1]],
    "beta": ["10", "8"],
    "window": [-5, 10],
}


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

    def test_requested_degree_too_big(self, capsys, triangle_file):
        code, _, err = run(capsys, "solve", "--input", triangle_file, "--r", "5")
        assert code == 3
        assert "multiplicity" in err


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


class TestTextFormat:
    def test_renders_lines(self, capsys, triangle_file):
        code, out, _ = run(
            capsys, "analyze", "--input", triangle_file, "--format", "text"
        )
        assert code == 0
        assert "relation: [1, 1, -2]" in out
        assert "vol: 2" in out


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


# The exit code of every error class.  A class added without one of the three
# base classes is missing here, so the walk below fails on it.
EXIT_CODES = {
    "InputError": 2,
    "KernelRankNotOne": 2,
    "DependentSubset": 2,
    "IndexOutOfRange": 2,
    "BetaNotInSpan": 2,
    "NotInLattice": 2,
    "DegreeTooLarge": 2,
    "HypothesisError": 3,
    "NotNonresonant": 3,
    "IrregularSingularity": 3,
    "NotMinimalSupport": 3,
    "HypothesisViolated": 3,
    "RNotLessThanMultiplicity": 3,
    "SigmaIntegral": 3,
    "InternalInvariantError": 1,
    "ExcludedCase": 1,
    "CountMismatch": 1,
    "MismatchDetected": 1,
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
