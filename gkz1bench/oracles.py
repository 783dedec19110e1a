"""Output checks for the gkz1 benchmark.

Every check here is independent of the series code: closed-form
coefficients (triangle polynomial, quintic periods, Gauss rising factorials
and harmonic sums), exponent lists worked out by hand, and the relation
facts that gen.py derives with its own arithmetic.  A digest of each CLI
output, pinned in digests.json, guards the bytes of the JSON as well.
Imports nothing from gkz1.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def invocation_key(problem: dict, input_text: str) -> str:
    """Stable key for one CLI invocation: command, extra args and input bytes."""
    blob = json.dumps([problem["command"], problem["args"], input_text])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def output_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def rising(a: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def _terms(series: dict) -> dict:
    return {(t["z"], t["r"]): Fraction(t["coeff"]) for t in series["terms"]}


def _solutions(out: dict, exponent: list[str]) -> list[dict]:
    """The series of the bundle with the given exponent, ordered by degree."""
    for bundle in out["bundles"]:
        if bundle["exponent"]["vector"] == exponent:
            return [_terms(s["series"]) for s in bundle["solutions"]]
    raise KeyError(f"no bundle with exponent {exponent}")


def _solve_totals(out: dict, expect: dict, errors: list) -> None:
    if out["total_solutions"] != out["expected_total"]:
        errors.append(f"total_solutions {out['total_solutions']} != expected_total {out['expected_total']}")
    if out["expected_total"] != expect["total"]:
        errors.append(f"expected_total {out['expected_total']} != {expect['total']}")
    for bundle in out["bundles"]:
        for solution in bundle["solutions"]:
            if not solution["verification"]["passed"]:
                errors.append(f"certificate failed at r={solution['r']}")


# Log-free series of the triangle at beta = (10, 8): a polynomial in x0.
TRIANGLE_TERMS = {0: Fraction(1), 1: Fraction(56, 3), 2: Fraction(70), 3: Fraction(56), 4: Fraction(14, 3)}


def check_triangle(out: dict, expect: dict, errors: list) -> None:
    _solve_totals(out, expect, errors)
    logfree = _solutions(out, ["2", "0", "8"])[0]
    if logfree != {(z, 0): c for z, c in TRIANGLE_TERMS.items()}:
        errors.append("triangle log-free terms differ from 1, 56/3, 70, 56, 14/3")


def quintic_period(z: int) -> Fraction:
    return Fraction((-1) ** z * factorial(5 * z), factorial(z) ** 5)


def check_quintic(out: dict, expect: dict, errors: list) -> None:
    _solve_totals(out, expect, errors)
    solutions = _solutions(out, ["0", "0", "0", "0", "0", "-1"])
    lo, hi = out["window"]
    logfree = {(z, 0): quintic_period(z) for z in range(max(lo, 0), hi + 1)}
    if solutions[0] != logfree:
        errors.append("quintic log-free coefficients differ from (-1)^z (5z)!/(z!)^5")
    # -5 * 5! * (H_5 - H_1): the first log solution at z = 1
    if hi >= 1 and solutions[1].get((1, 0)) != -770:
        errors.append(f"quintic degree-1 coefficient at z=1 is {solutions[1].get((1, 0))}, not -770")


def check_gauss(out: dict, expect: dict, errors: list) -> None:
    """Log branch of the Gauss system at sigma = 2, theta = (1/2, 1/3)."""
    _solve_totals(out, expect, errors)
    t1, t2, sigma = Fraction(1, 2), Fraction(1, 3), Fraction(2)
    (requested,) = out["requested_degree"]["solutions"]
    if requested["exponent"]["vector"] != ["0", "1", "-1/2", "-1/3"]:
        errors.append(f"unexpected Gauss exponent {requested['exponent']['vector']}")
    terms = _terms(requested["series"])
    lo, hi = out["window"]
    expected = {(-1, 0): -rising(1 - sigma, 1) / (rising(1 - t1, 1) * rising(1 - t2, 1))}
    harmonic = Fraction(0)
    for z in range(0, hi + 1):
        base = rising(t1, z) * rising(t2, z) / (rising(sigma, z) * factorial(z))
        expected[(z, 1)] = base
        if harmonic:
            expected[(z, 0)] = base * harmonic
        harmonic += 1 / (t1 + z) + 1 / (t2 + z) - 1 / (sigma + z) - Fraction(1, 1 + z)
    if lo > -1 or terms != expected:
        errors.append("Gauss log branch differs from the rising-factorial and harmonic oracle")


def check_certified(out: dict, expect: dict, errors: list) -> None:
    if not out["all_passed"]:
        errors.append("all_passed is false")
    if len(out["checks"]) != expect["total"]:
        errors.append(f"{len(out['checks'])} solutions certified, expected {expect['total']}")


def pencil_exponents(n: int, beta: Fraction) -> list[list[str]]:
    """Fake exponents of [(1), (n)]: (b, (beta - b)/n) for b = 0..n-1."""
    return [[str(Fraction(b)), str((beta - b) / n)] for b in range(n)]


def check_pencil(out: dict, expect: dict, errors: list) -> None:
    n = expect["n"]
    vectors = pencil_exponents(n, Fraction(expect["beta"]))
    for key in ("fake_exponents", "prime_exponents"):
        got = [e["vector"] for e in out[key]]
        if got != vectors:
            errors.append(f"{key} differ from (b, (beta - b)/{n})")
        if any(e["multiplicity"] != 1 for e in out[key]):
            errors.append(f"{key} has a multiplicity other than 1")
    if out["multiplicity_sum"] != n or out["relation_sum"] != n:
        errors.append("multiplicity law broken")


def check_corpus_analyze(out: dict, expect: dict, errors: list) -> None:
    got = (out["relation"], out["positive_sum"], out["vol"], out["vol_crosscheck"], out["nonresonant"])
    want = (expect["relation"], expect["positive_sum"], expect["volume"], expect["volume"], True)
    if got != want:
        errors.append(f"analyze reports {got}, expected {want}")


def check_corpus_exponents(out: dict, expect: dict, errors: list) -> None:
    total = sum(e["multiplicity"] for e in out["prime_exponents"])
    if not total == out["multiplicity_sum"] == out["relation_sum"] == expect["positive_sum"]:
        errors.append(f"multiplicities sum to {total}, expected {expect['positive_sum']}")


def check_corpus_classify(out: dict, expect: dict, errors: list) -> None:
    if not (out["regular"] and out["nonresonant"]):
        errors.append("classify does not report regular and nonresonant")


ORACLES = {
    "triangle": check_triangle,
    "quintic": check_quintic,
    "gauss": check_gauss,
    "certified": check_certified,
    "pencil": check_pencil,
    "corpus-analyze": check_corpus_analyze,
    "corpus-exponents": check_corpus_exponents,
    "corpus-verify": check_certified,
    "corpus-classify": check_corpus_classify,
}


def check(problem: dict, code: int, stdout: str, digest_key: str, digests: dict) -> list[str]:
    """All failures of one CLI call; an empty list means it passed."""
    expect = problem["expect"]
    errors = []
    if code != expect["exit"]:
        errors.append(f"exit code {code}, expected {expect['exit']}")
    pinned = digests.get(digest_key)
    if pinned is None:
        errors.append("no pinned digest for this invocation")
    elif pinned != output_digest(code, stdout):
        errors.append("output digest differs from the pinned one")
    if errors or "oracle" not in expect:
        return errors
    try:
        ORACLES[expect["oracle"]](json.loads(stdout), expect, errors)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        errors.append(f"malformed output: {exc!r}")
    return errors
