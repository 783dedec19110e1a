"""Tests of the gkz1 benchmark itself: inputs, checks, tracing, refusal.

    python3 -m pytest gkz1bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import gen
import oracles
import run

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _manifest_with(tmp_path, workload, ids):
    """A generated workload cut down to the named problems."""
    manifest = gen.write_workload(workload, 1, tmp_path)
    data = json.loads(manifest.read_text())
    data["problems"] = [p for p in data["problems"] if p["id"] in ids]
    manifest.write_text(json.dumps(data))
    return manifest


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_bytes_other_seed_other_corpus(tmp_path):
    gen.write_workload("corpus", 5, tmp_path / "a")
    gen.write_workload("corpus", 5, tmp_path / "b")
    gen.write_workload("corpus", 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_every_generated_invocation_has_a_pinned_digest():
    digests = oracles.load_digests()
    for workload in gen.WORKLOADS:
        for seed in (0, 1, 2):
            for problem in gen.problems_for(workload, seed):
                key = oracles.invocation_key(problem, gen.input_text(problem["data"]))
                assert key in digests, problem["id"]


def test_corpus_shape():
    problems = gen.corpus_problems(3)
    commands = [p["command"] for p in problems]
    assert commands.count("verify") == gen.CORPUS_SIZE
    refusals = [p["expect"]["exit"] for p in problems if p["id"].split("-")[0] in ("dependent", "resonant")]
    assert sorted(refusals) == [2] * gen.REFUSALS_PER_KIND + [3] * gen.REFUSALS_PER_KIND


def test_generator_and_oracles_import_nothing_from_gkz1():
    code = (
        "import sys; sys.path.insert(0, %r); import gen, oracles; "
        "gen.corpus_problems(0); "
        "print(any(m == 'gkz1' or m.startswith('gkz1.') for m in sys.modules))" % str(BENCH_DIR)
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_closed_forms():
    assert [oracles.quintic_period(z) for z in range(3)] == [1, -120, 113400]
    assert oracles.pencil_exponents(3, Fraction(1, 7))[1] == ["1", "-2/7"]


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and percentile == 90.0
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def _run_one(tmp_path, trace=False):
    bench = run.Run(_manifest_with(tmp_path, "deep-window", {"triangle-25"}), perf_counter() + 120)
    summary = bench.one_pass(tmp_path / "spans" if trace else None)
    return bench, summary


def test_clean_pass_has_no_failures(tmp_path):
    bench, summary = _run_one(tmp_path)
    assert (bench.attempted, bench.failures) == (1, [])
    assert summary["latencies"][0][0] == "triangle-25"
    assert all(0 < s < 10 for s in summary["speeds"])


def test_wrong_oracle_value_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setitem(oracles.TRIANGLE_TERMS, 2, Fraction(71))
    bench, _ = _run_one(tmp_path)
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert "log-free" in bench.failures[0]


def test_wrong_digest_counts_as_failed(tmp_path):
    manifest = _manifest_with(tmp_path, "deep-window", {"triangle-25"})
    bench = run.Run(manifest, perf_counter() + 120)
    bench.digests = {key: "0" * 16 for key in bench.digests}
    bench.one_pass(None)
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert "digest" in bench.failures[0]


def test_traced_pass_covers_every_layer(tmp_path):
    (tmp_path / "spans").mkdir()
    _, summary = _run_one(tmp_path, trace=True)
    layers, counts = summary["layers"], summary["counts"]
    for layer in ("cli", "lattice", "linalg", "exponents", "coefficients", "series", "verify"):
        assert layers[f"{layer}.self_s"] > 0, layer
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum <= sum(summary["walls"].values())
    assert counts["series.grid_points"] > 0 and counts["exponents.fake_count"] > 0
    spans = [json.loads(line) for line in (tmp_path / "spans" / "spans-0.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s[4] == -1]
    assert [s[1] for s in roots] == ["cli.main"] and roots[0][5] == "triangle-25"
    assert any(s[1] == "series._assemble" for s in spans)
    assert any(s[1] == "coefficients.coefficient_M" for s in spans)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
