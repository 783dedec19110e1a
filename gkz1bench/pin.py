"""Pin the digest of every CLI output the benchmark can ask for.

    python3 gkz1bench/pin.py

Run from the root of a gkz1 source tree whose JSON output is the reference
(byte-identical output is a project requirement, so the digests only change
when an output is meant to change).  Runs every invocation any seed can
produce, checks it against the oracles, and rewrites digests.json.  Refuses
to pin an output that fails its oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gkz1.cli as cli

    digests = {}
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        for problem in gen.every_problem():
            text = gen.input_text(problem["data"])
            path.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([problem["command"], "--input", str(path), *problem["args"]])
            key = oracles.invocation_key(problem, text)
            digest = oracles.output_digest(code, out.getvalue())
            errors = oracles.check(problem, code, out.getvalue(), key, {key: digest})
            if errors:
                failures += 1
                print(f"{problem['id']}: {'; '.join(errors)}", file=sys.stderr)
            digests[key] = digest
    if failures:
        print(f"{failures} outputs fail their oracles; digests not written", file=sys.stderr)
        return 1
    oracles.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests in {oracles.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
