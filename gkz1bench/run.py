"""The gkz1 benchmark: time to a certified solution, end to end and per layer.

    python3 gkz1bench/run.py --workload deep-window --seed 1 --seconds 30 --trace 0

Run from the root of a gkz1 source tree.  The benchmark generates the
workload's problem files from the seed (gen.py), runs each problem through
``gkz1.cli.main`` in a fresh interpreter (worker.py), checks every output
against independent oracles and pinned digests (oracles.py), and prints as
its last line one JSON object with the end-to-end metrics (--trace 0) or
the per-layer metrics of a traced run (--trace 1).  The line before it
gives every metric with its unit for a reader.

Each workload is a closed loop with one client in one thread: the next
problem starts when the previous one returns.  A run measures a fixed
number of passes over the workload, proportional to --seconds, so that a
faster program measures the same work in less time and percentiles stay
comparable across commits.  Times are scaled to the reference host speed
with the probe in speed.py.  See README.md for the workloads and metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import gen
import oracles
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Passes per 30 s of --seconds.  At the seed commit on the reference machine a
# pass takes about 11 s, 6 s and 4 s: deep-window gets more than its share of
# the time because its per-problem medians are the noisiest.
PASSES_PER_30_S = {"deep-window": 4, "high-order": 5, "corpus": 7}
MIN_PASSES = 3
DEADLINE_S = 150.0  # passes end by then; a run must end within 180 s

# One interpreter per problem, except the corpus: one per pass, cache warm across it.
FRESH_PER_PROBLEM = {"deep-window", "high-order"}

LADDERS = ("triangle-", "quintic-")


class Run:
    """The problems of one generated workload and the checks of their outputs."""

    def __init__(self, manifest: Path, deadline: float):
        self.manifest = manifest
        data = json.loads(manifest.read_text())
        self.workload = data["workload"]
        self.problems = data["problems"]
        self.inputs = {
            p["file"]: (manifest.parent / p["file"]).read_text() for p in self.problems
        }
        self.digests = oracles.load_digests()
        self.deadline = deadline
        self.verdicts: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def _worker(self, select: str, trace_path: Path | None):
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
            "--manifest", str(self.manifest), "--select", select,
        ]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        spawn = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline + 20.0 - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker for {select} timed out") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {select} exited {proc.returncode}: {err.strip()[-2000:]}")
        report = json.loads(out)
        # Times at the reference host speed: each call is scaled by the mean of
        # the probes just before and after its block, set-up by the first probe.
        probes = report["probes"]
        report["speed"] = speed.REFERENCE_PROBE_S / statistics.fmean(probes)
        raw_setup = report["ready"] - spawn
        report["setup"] = raw_setup * speed.REFERENCE_PROBE_S / probes[0]
        raw_calls = 0.0
        for result in report["results"]:
            raw_calls += result["seconds"]
            block = result["block"]
            result["seconds"] *= speed.REFERENCE_PROBE_S / statistics.fmean(probes[block:block + 2])
        report["raw_wall"] = raw_setup + raw_calls
        report["wall"] = report["setup"] + sum(r["seconds"] for r in report["results"])
        for key in report.get("layers", {}):
            if key.endswith(".self_s"):
                report["layers"][key] *= report["speed"]
        return report

    def one_pass(self, trace_dir: Path | None) -> dict:
        """Run every problem once; returns the pass's timings and counters."""
        if self.workload in FRESH_PER_PROBLEM:
            selections = [str(i) for i in range(len(self.problems))]
        else:
            selections = ["all"]
        reports = [
            self._worker(select, trace_dir / f"spans-{select}.jsonl" if trace_dir else None)
            for select in selections
        ]
        results = [r for report in reports for r in report["results"]]
        by_id = {p["id"]: p for p in self.problems}
        for result in results:
            problem = by_id[result["id"]]
            key = oracles.invocation_key(problem, self.inputs[problem["file"]])
            # the same bytes get the same verdict: check each distinct output once
            seen = (key, result["code"], oracles.output_digest(result["code"], result["stdout"]))
            if seen not in self.verdicts:
                self.verdicts[seen] = oracles.check(problem, result["code"], result["stdout"], key, self.digests)
            errors = self.verdicts[seen]
            self.attempted += 1
            if errors:
                self.failures.append(f"{result['id']}: {'; '.join(errors)} {result['stderr'].strip()[-300:]}")
        summary = {
            "walls": {select: r["wall"] for select, r in zip(selections, reports)},
            "raw_walls": {select: r["raw_wall"] for select, r in zip(selections, reports)},
            "speeds": [r["speed"] for r in reports],
            "setups": [r["setup"] for r in reports],
            "latencies": [(r["id"], r["seconds"]) for r in results],
            "rss_kb": max(r["rss_kb"] for r in results),
            "output_bytes": sum(len(r["stdout"].encode()) for r in results),
        }
        if trace_dir is not None:
            layers: dict = {}
            counts: dict = {}
            for report in reports:
                for key, value in report["layers"].items():
                    layers[key] = layers.get(key, 0) + value
                for key, value in report["counts"].items():
                    if key.startswith("series.max_"):
                        counts[key] = max(counts.get(key, 0), value)
                    else:
                        counts[key] = counts.get(key, 0) + value
            summary["layers"] = layers
            summary["counts"] = counts
        return summary


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1  # fewer than 11 samples: the maximum
    return ordered[index], 100.0 * (index + 1) / n, n


def problem_latencies(passes: list[dict]) -> dict[str, float]:
    """Per problem, the median over passes of its call time."""
    times: dict = {}
    for summary in passes:
        for pid, seconds in summary["latencies"]:
            times.setdefault(pid, []).append(seconds)
    return {pid: statistics.median(values) for pid, values in times.items()}


def window_slope(latencies: dict[str, float]) -> float | None:
    """Least-squares exponent of time against window width, averaged over ladders."""
    slopes = []
    for prefix in LADDERS:
        points = sorted(
            (math.log(int(pid[len(prefix):])), math.log(seconds))
            for pid, seconds in latencies.items() if pid.startswith(prefix)
        )
        if len(points) < 2:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        slopes.append(
            sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)
        )
    return statistics.fmean(slopes) if slopes else None


def pass_wall(passes: list[dict], key: str = "walls") -> float:
    """Typical pass time: the sum over the pass's interpreters of each one's
    median time, its set-up plus the time inside its gkz1.cli.main calls."""
    return sum(
        statistics.median(p[key][select] for p in passes) for select in passes[0][key]
    )


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    latencies = problem_latencies(passes)
    tail_value, tail_pct, n = tail(list(latencies.values()))
    metrics = {
        "setup_s": (statistics.median(s for p in passes for s in p["setups"]), "s"),
        "wall_s": (pass_wall(passes), "s"),
        "latency_p50_s": (statistics.median(latencies.values()), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }
    extra = {
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_problems": n,
        "passes": len(passes),
        "raw_wall_s": round(pass_wall(passes, "raw_walls"), 4),
        "host_speed": round(statistics.median(s for p in passes for s in p["speeds"]), 4),
    }
    if len(latencies) <= 10:
        extra["per_problem_s"] = {pid: round(v, 4) for pid, v in sorted(latencies.items())}
    slope = window_slope(latencies)
    if slope is not None:
        extra["window_slope"] = round(slope, 4)
    return metrics, extra


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    def med(key, source="layers"):
        return statistics.median(p[source].get(key, 0) for p in traced)

    metrics = {}
    for layer in ("coefficients", "series", "exponents", "linalg", "verify", "lattice", "cli"):
        metrics[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    for layer in ("coefficients", "exponents", "linalg", "verify", "lattice", "classify"):
        metrics[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
    coefficient_calls = med("coefficients.coefficient_M_calls")
    distinct = med("coefficients.distinct_args", "counts")
    metrics["coefficients.distinct_args"] = (distinct, "count")
    metrics["coefficients.reuse_ratio"] = (
        1.0 - distinct / coefficient_calls if coefficient_calls else 0.0, "ratio"
    )
    for key in ("series.grid_points", "series.max_num_bits", "series.max_den_bits",
                "exponents.fake_count", "verify.terms_checked"):
        metrics[key] = (med(key, "counts"), "bits" if "bits" in key else "count")
    metrics["cli.output_bytes"] = (statistics.median(p["output_bytes"] for p in traced), "bytes")
    traced_wall = pass_wall(traced)
    metrics["trace.overhead_ratio"] = (traced_wall / pass_wall(untraced), "ratio")
    self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")) + med("classify.self_s")
    extra = {
        "classify.self_s": med("classify.self_s"),
        "coefficient_M_calls": coefficient_calls,
        "traced_wall_s": traced_wall,
        "self_s_sum": self_sum,
        "passes": len(traced),
    }
    return metrics, extra


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = perf_counter()
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        run = Run(gen.write_workload(workload, seed, out_dir), started + DEADLINE_S)
        passes = max(MIN_PASSES, round(PASSES_PER_30_S[workload] * seconds / 30))
        trace_dir = WORK / f"trace-{workload}"
        if trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        untraced, traced = [], []
        longest = 0.0
        for index in range(passes):
            # a pass that might not finish before the deadline is not started
            if index > 1 and perf_counter() + 1.5 * longest > run.deadline:
                break
            begin = perf_counter()
            if trace and index % 2 == 1:
                traced.append(run.one_pass(trace_dir))
            else:
                untraced.append(run.one_pass(None))
            longest = max(longest, perf_counter() - begin)
        if trace:
            metrics, extra = per_layer(traced, untraced)
        else:
            metrics, extra = end_to_end(untraced)
        return {"run": run, "metrics": metrics, "extra": extra}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gkz1 benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gkz1" / "cli.py").is_file():
        print(f"gkz1 sources not found under {SRC}; run from a gkz1 source tree", file=sys.stderr)
        return 2
    if not oracles.DIGESTS_PATH.is_file():
        print(f"pinned digests missing: {oracles.DIGESTS_PATH}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    run = result["run"]
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(run.failures)
    readable = {name: f"{value:.6g} {unit}" for name, (value, unit) in result["metrics"].items()}
    readable.update(result["extra"])
    readable["failed_ratio"] = f"{failed}/{run.attempted}"
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **readable}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
