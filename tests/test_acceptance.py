"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction as F
from math import factorial

from gkz1 import (
    build_config,
    certify,
    exponent_set_prime,
    is_mum,
    is_mum_holomorphic,
    is_nonresonant,
    log_solution,
    match_exponent,
    phi_series,
    scalar_relation_check,
    singularity_type,
    solution_bundle,
    volume_crosscheck,
)
from gkz1.classify import SingularityType

from conftest import TRIANGLE, CORNER, GAUSS, INTERIOR, random_integral_beta
from reference import gauss_oracle


def _line(number: int, description: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"[criterion {number:02d}] {status}  {description}{suffix}")


def rising(a, m):
    out = F(1)
    for i in range(m):
        out *= a + i
    return out


def test_criterion_01_golden_series():
    ok = False
    started = time.perf_counter()
    try:
        config = build_config(TRIANGLE)
        report = solution_bundle(config, [10, 8], window=(0, 10))
        series = report.bundles[0].solutions[0]
        elapsed = time.perf_counter() - started
        expected = {0: F(1), 1: F(56, 3), 2: F(70), 3: F(56), 4: F(14, 3)}
        assert series.log_part(0) == expected
        assert len(series.terms) == 5
        # exponent vector at z = 4: last coordinate must be exactly 0
        top = tuple(b + 4 * e for b, e in zip(series.base_exponent, config.relation))
        assert top == (6, 4, 0)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _line(1, "golden logarithm-free series, 5 exact terms", ok,
              f"{time.perf_counter() - started:.3f}s")


def test_criterion_02_initial_monomial():
    ok = False
    try:
        config = build_config(TRIANGLE)
        v = (F(2), F(0), F(8))
        component = phi_series(config, v, (0, 0, 0), (1,), (-5, 10))
        assert component.coefficient(-2) == F(-1, 5940)
        solution = log_solution(config, v, (0, 0, 0), 1, (-5, 10))
        assert solution.coefficient(-2, 0) == F(-1, 5940)
        ok = True
    finally:
        _line(2, "initial monomial coefficient -1/5940 at z = -2", ok)


def test_criterion_03_log_solution():
    ok = False
    try:
        config = build_config(CORNER)
        report = solution_bundle(config, [0, 0], window=(0, 12))
        constant, logarithmic = report.bundles[0].solutions
        assert constant.terms == {(0, 0): F(1)}
        expected = {(0, 1): F(1)}
        for z in range(1, 13):
            expected[(z, 0)] = F((-1) ** z, z * factorial(z))
        assert logarithmic.terms == expected
        ok = True
    finally:
        _line(3, "constant and log solutions exact through z = 12", ok)


def test_criterion_04_resonant_edge_cases():
    ok = False
    try:
        config = build_config(CORNER)
        report = solution_bundle(config, [-1, -1], window=(0, 10))
        assert [e.exponent.vector for e in report.bundles] == [(0, 0, -1)]
        assert report.total_solutions == 2 and report.complete
        phi = phi_series(config, (F(0), F(-2), F(1)), (0, 0, 0), (), (0, 10))
        assert phi.base_exponent == (0, -2, 1)
        assert phi.log_part(0) == {0: F(1), 1: F(-1)}
        ok = True
    finally:
        _line(4, "resonant parameters: exponents, counts, explicit series", ok)


def test_criterion_05_gauss_branch():
    ok = False
    try:
        config = build_config(GAUSS)
        t1, t2 = F(1, 2), F(1, 3)
        # two-solution branch at sigma = 1/5, validated against the oracle
        sigma = F(1, 5)
        beta = (-t1, -t2, sigma - 1)
        oracles = {s.base_exponent: s for s in gauss_oracle(t1, t2, sigma, 10)}
        primes = exponent_set_prime(config, beta).exponents
        assert len(primes) == 2
        for v in primes:
            phi = phi_series(config, v, (0,) * 4, (), (0, 10))
            assert phi.terms == oracles[v.vector].terms
        # log branch at sigma = 2, validated against direct evaluation
        sigma = F(2)
        v = (F(0), sigma - 1, -t1, -t2)
        solution = log_solution(config, v, (0,) * 4, 1, (-4, 8))
        tail = -factorial(0) * rising(1 - sigma, 1) / (
            rising(1 - t1, 1) * rising(1 - t2, 1)
        )
        assert solution.coefficient(-1, 0) == tail
        assert all(solution.coefficient(z, 0) == 0 for z in range(-4, -1))
        for z in range(0, 9):
            base = rising(t1, z) * rising(t2, z) / (rising(sigma, z) * factorial(z))
            assert solution.coefficient(z, 1) == base
            if z >= 1:
                harmonic = sum(
                    1 / (t1 + s) + 1 / (t2 + s) - 1 / (sigma + s) - F(1, 1 + s)
                    for s in range(z)
                )
                assert solution.coefficient(z, 0) == base * harmonic
        ok = True
    finally:
        _line(5, "Gauss branches match independent evaluation", ok)


def test_criterion_06_operator_certification(corpus):
    ok = False
    started = time.perf_counter()
    checked = 0
    try:
        for config, beta in corpus:
            report = solution_bundle(config, beta, window=(-3, 5))
            assert report.total_solutions == config.positive_sum
            for bundle in report.bundles:
                for series in bundle.solutions:
                    result = certify(config, bundle.parameter, series)
                    assert result.passed, (config.columns, beta)
                    checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _line(6, f"all {checked} corpus solutions certified exactly", ok,
              f"{time.perf_counter() - started:.1f}s")


def test_criterion_07_counting_law(corpus, corpus_rng):
    ok = False
    try:
        for config, beta in corpus:
            primes = exponent_set_prime(config, beta)
            assert primes.multiplicity_sum == config.positive_sum
            resonant = random_integral_beta(corpus_rng, config)
            primes = exponent_set_prime(config, resonant)
            assert primes.multiplicity_sum == config.positive_sum
        ok = True
    finally:
        _line(7, "multiplicity count law over the corpus (incl. resonant)", ok)


def test_criterion_08_volume_consistency(corpus):
    ok = False
    try:
        for config, _ in corpus:
            assert volume_crosscheck(config) == config.volume
        ok = True
    finally:
        _line(8, "relation volume equals lattice-index volume on the corpus", ok)


def test_criterion_09_exponent_matching(corpus, corpus_rng):
    ok = False
    try:
        for config, beta in corpus[:50]:
            coefficients = [corpus_rng.randint(-3, 3) for _ in range(config.n)]
            u = config.column_combination(coefficients)
            for v in exponent_set_prime(config, beta).exponents:
                matched, lift = match_exponent(config, beta, u, v)
                assert all(
                    (a - b).denominator == 1
                    for a, b in zip(matched.vector, v.vector)
                )
                assert matched.m_support == v.m_support
                scalar_relation_check(config, beta, u, v, matched, (0, 8))
        ok = True
    finally:
        _line(9, "exponent matching and scalar relation over 50 shifts", ok)


def test_criterion_10_mum_equivalence(corpus):
    ok = False
    try:
        tested = 0
        for config, beta in corpus:
            if singularity_type(config) is not SingularityType.REGULAR:
                continue
            assert is_nonresonant(config, beta)
            result = is_mum(config, beta)  # internal cross-check must hold
            singleton = len(exponent_set_prime(config, beta).exponents) == 1
            assert result.mum == singleton
            tested += 1
        assert tested > 0
        interior = build_config(INTERIOR)
        verdicts = {
            label: is_mum_holomorphic(interior, beta).mum_holomorphic
            for label, beta in [
                ("0", (0, 0)),
                ("a1", (1, 0)),
                ("a2", (0, 1)),
                ("a1+a2", (1, 1)),
            ]
        }
        assert verdicts == {"0": True, "a1": False, "a2": False, "a1+a2": False}
        ok = True
    finally:
        _line(10, "MUM singleton test agrees with lattice conditions", ok)
