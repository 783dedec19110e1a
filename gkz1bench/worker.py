"""One fresh interpreter of the gkz1 benchmark: runs problems through gkz1.cli.main.

    python3 gkz1bench/worker.py --src SRC --manifest M --select all|INDEX [--trace PATH]

Imports ``gkz1.cli`` from SRC, parses the selected problem files with the
CLI's own loader (the set-up the benchmark times), then calls
``gkz1.cli.main`` once per problem with its output captured.  Prints one
JSON object: the moment set-up ended, the host speed probes taken before
every block of PROBE_EVERY calls and after the last one, and per call its
block, the exit code, the seconds it took, the peak resident memory after it
and its output.  With --trace, spans are installed before the first call
and written to PATH when the last one returns.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

PROBE_EVERY = 50  # calls between host speed probes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--select", required=True)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(args.src))
    import gkz1.cli as cli

    if Path(cli.__file__).resolve().parent != (args.src / "gkz1").resolve():
        print(f"gkz1 imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    manifest = json.loads(args.manifest.read_text())
    problems = manifest["problems"]
    if args.select != "all":
        problems = [problems[int(args.select)]]
    for path in sorted({p["file"] for p in problems}):
        cli.load_problem(str(args.manifest.parent / path))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = perf_counter()

    probes = []
    results = []
    for index, problem in enumerate(problems):
        if index % PROBE_EVERY == 0:
            probes.append(speed.probe())
        argv = [problem["command"], "--input", str(args.manifest.parent / problem["file"]), *problem["args"]]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.problem = problem["id"]
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, reported with its traceback
            code = 1
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
        results.append({
            "id": problem["id"],
            "block": len(probes) - 1,
            "code": code,
            "seconds": seconds,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
        })
    probes.append(speed.probe())

    report = {"ready": ready, "probes": probes, "results": results}
    if tracer is not None:
        from tracing import layer_times, write_spans

        report["layers"] = layer_times(tracer.spans)
        report["counts"] = tracer.finish_process()
        write_spans(tracer.spans, args.trace)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
