import json
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import gkz1.series
from gkz1 import (
    LogSeries,
    build_config,
    certify,
    exponent_set_prime,
    log_solution,
    phi_series,
    solution_bundle,
)
from gkz1.coefficients import coefficient_run
from gkz1.errors import (
    ExcludedCase,
    HypothesisViolated,
    NegativeDegree,
    NotMinimalSupport,
    RNotLessThanMultiplicity,
)

from conftest import GAUSS, QUINTIC, random_config, random_nonresonant_beta, random_relation_config
from reference import (
    MismatchDetected,
    SigmaIntegral,
    gauss_oracle,
    indicial_classes_reference,
    line_class,
    log_solution_reference,
    mirror_map_and_instantons,
    relation_points,
    scalar_relation_check,
)

GOLDEN = {0: F(1), 1: F(56, 3), 2: F(70), 3: F(56), 4: F(14, 3)}


def rising(a, m):
    out = F(1)
    for i in range(m):
        out *= a + i
    return out


class TestPhiSeries:
    def test_golden_polynomial(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 10))
        assert phi.log_part(0) == GOLDEN
        assert phi.base_exponent == (2, 0, 8)

    def test_corner_log_companion(self, corner):
        phi = phi_series(corner, (F(0),) * 3, (0, 0, 0), (2,), (0, 6))
        expected = {z: F((-1) ** (z - 1), z * factorial(z)) for z in range(1, 7)}
        assert phi.log_part(0) == expected

    def test_alternate_exponent_polynomial(self, corner):
        phi = phi_series(corner, (F(0), F(-2), F(1)), (0, 0, 0), (), (0, 8))
        assert phi.log_part(0) == {0: F(1), 1: F(-1)}
        assert phi.base_exponent == (0, -2, 1)

    def test_vanishing_series(self, corner):
        phi = phi_series(corner, (F(0),) * 3, (0, 0, 0), (0,), (0, 6))
        assert phi.is_zero

    def test_minimal_support_required(self, corner):
        with pytest.raises(NotMinimalSupport):
            phi_series(corner, (F(2), F(0), F(-1)), (0, 0, 0), (1,), (0, 6))

    def test_excluded_case_propagates(self, corner):
        # negative integer on the positive side inside an index set that
        # keeps the shift alive pushes a factor into the excluded regime
        with pytest.raises(ExcludedCase):
            phi_series(corner, (F(-1), F(0), F(1, 2)), (0, 0, 0), (0,), (0, 6))


class TestLogSolution:
    def test_degree_zero_equals_phi(self, triangle):
        v = (F(2), F(0), F(8))
        assert log_solution(triangle, v, (0, 0, 0), 0, (0, 10)).terms == phi_series(
            triangle, v, (0, 0, 0), (), (0, 10)
        ).terms

    def test_corner_log_solution(self, corner):
        solution = log_solution(corner, (F(0),) * 3, (0, 0, 0), 1, (0, 12))
        expected = {(0, 1): F(1)}
        for z in range(1, 13):
            expected[(z, 0)] = F((-1) ** z, z * factorial(z))
        assert solution.terms == expected

    def test_top_log_coefficient_is_phi(self, triangle, corner, gauss):
        cases = [
            (triangle, (F(2), F(0), F(8)), 1),
            (corner, (F(0), F(0), F(0)), 1),
            (gauss, (F(0), F(1), F(-1, 2), F(-1, 3)), 1),
        ]
        for config, v, r in cases:
            zero = (0,) * config.n
            solution = log_solution(config, v, zero, r, (-3, 8))
            phi = phi_series(config, v, zero, (), (-3, 8))
            assert solution.log_part(r) == phi.log_part(0)

    def test_degree_capped_by_multiplicity(self, triangle):
        with pytest.raises(RNotLessThanMultiplicity):
            log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 2, (0, 5))

    def test_hypothesis_failure_reported(self, corner):
        with pytest.raises(HypothesisViolated) as info:
            log_solution(corner, (F(2), F(0), F(-1)), (0, 0, 0), 1, (0, 5))
        assert frozenset({0, 2}) in info.value.failing_sets

    def test_gauss_integer_sigma_log_solution(self, gauss):
        # the sigma = 2 branch: log part, finite negative tail, harmonic part
        t1, t2, sg = F(1, 2), F(1, 3), F(2)
        v = (F(0), sg - 1, -t1, -t2)
        solution = log_solution(gauss, v, (0,) * 4, 1, (-4, 8))
        for z in range(0, 9):
            assert solution.coefficient(z, 1) == rising(t1, z) * rising(t2, z) / (
                rising(sg, z) * factorial(z)
            )
        tail = -factorial(0) * rising(1 - sg, 1) / (rising(1 - t1, 1) * rising(1 - t2, 1))
        assert solution.coefficient(-1, 0) == tail
        assert solution.coefficient(-2, 0) == 0
        for z in range(1, 9):
            harmonic = sum(
                1 / (t1 + s) + 1 / (t2 + s) - 1 / (sg + s) - F(1, 1 + s)
                for s in range(z)
            )
            base = rising(t1, z) * rising(t2, z) / (rising(sg, z) * factorial(z))
            assert solution.coefficient(z, 0) == base * harmonic


class TestSolutionBundle:
    def test_triangle_two_solutions(self, triangle):
        report = solution_bundle(triangle, [10, 8], window=(0, 10))
        assert report.total_solutions == 2 == report.expected_total
        assert report.complete
        bundle = report.bundles[0]
        assert [s.max_log_degree for s in bundle.solutions] == [0, 1]
        assert not bundle.phi_empty

    def test_vanishing_leading_series_flagged(self, corner):
        report = solution_bundle(corner, [0, 0], u=(-1, -1), window=(0, 8))
        assert report.bundles[0].phi_empty
        assert not report.complete

    def test_nonresonant_always_complete(self):
        rng = random.Random(31)
        for _ in range(15):
            config = random_config(rng)
            beta = random_nonresonant_beta(rng, config)
            report = solution_bundle(config, beta, window=(-2, 4))
            assert report.complete
            assert report.total_solutions == config.positive_sum

    def test_capped_degree_with_diagnostics(self, corner):
        report = solution_bundle(corner, [1, -1], window=(0, 8))
        bundle = report.bundles[0]
        assert len(bundle.solutions) == 1
        assert bundle.hypothesis_failures
        assert not report.complete

    def test_explicit_lift_matches_u(self, corner):
        by_u = solution_bundle(corner, [0, 0], u=(-1, -1), window=(0, 6))
        by_lift = solution_bundle(corner, [0, 0], u_lift=(-1, -1, 0), window=(0, 6))
        assert by_u.bundles[0].solutions == by_lift.bundles[0].solutions
        with pytest.raises(ValueError):
            solution_bundle(corner, [0, 0], u=(1, 1), u_lift=(-1, -1, 0))

    def test_certificates_cover_hypothesis_sets(self, triangle):
        report = solution_bundle(triangle, [10, 8], window=(0, 6))
        bundle = report.bundles[0]
        index_sets = {v.indices for v in bundle.certificates}
        n = triangle.n
        assert frozenset(range(n)) in index_sets
        assert all(len(s) >= n - (bundle.exponent.multiplicity - 1) for s in index_sets)

    def test_solution_reads_the_bundle(self, triangle, corner):
        bundle = solution_bundle(triangle, [10, 8], window=(0, 6)).bundles[0]
        assert [bundle.solution(r) for r in range(2)] == list(bundle.solutions)
        assert bundle.solution(1) is bundle.solutions[1]
        with pytest.raises(NegativeDegree, match="r=-1 is negative"):
            bundle.solution(-1)
        with pytest.raises(RNotLessThanMultiplicity, match="r=2 but multiplicity is 2"):
            bundle.solution(2)
        # corner at (1, -1): degree 1 is below the multiplicity but capped
        capped = solution_bundle(corner, [1, -1], window=(0, 8)).bundles[0]
        assert len(capped.solutions) == 1 < capped.exponent.multiplicity
        with pytest.raises(HypothesisViolated) as built:
            log_solution(corner, capped.exponent, capped.lift, 1, (0, 8))
        with pytest.raises(HypothesisViolated) as read:
            capped.solution(1)
        assert read.value.failing_sets == built.value.failing_sets
        assert str(read.value) == str(built.value)

    def test_empty_window_refused(self, triangle):
        v = (F(2), F(0), F(8))
        with pytest.raises(ValueError, match=r"empty window \[3, 2\]"):
            LogSeries.make(v, triangle.relation, (3, 2), {})
        with pytest.raises(ValueError, match=r"empty window \[3, 2\]"):
            solution_bundle(triangle, [10, 8], window=(3, 2))
        for r in (0, 1):
            with pytest.raises(ValueError, match=r"empty window \[3, 2\]"):
                log_solution(triangle, v, (0, 0, 0), r, (3, 2))


class TestGaussOracle:
    def test_leading_terms(self):
        first, second = gauss_oracle(F(1, 2), F(1, 3), F(1, 5), 4)
        assert first.coefficient(0) == 1
        assert second.coefficient(0) == 1
        assert first.coefficient(1) == F(5, 6)

    def test_second_base_exponent_shift(self):
        t1, t2, sg = F(1, 2), F(1, 3), F(1, 5)
        first, second = gauss_oracle(t1, t2, sg, 4)
        relation = (1, 1, -1, -1)
        shift = tuple(
            b + (1 - sg) * e for b, e in zip(first.base_exponent, relation)
        )
        assert second.base_exponent == shift

    def test_integral_sigma_rejected(self):
        with pytest.raises(SigmaIntegral):
            gauss_oracle(F(1, 2), F(1, 3), 2, 4)

    def test_matches_series_machinery(self, gauss):
        t1, t2, sg = F(1, 2), F(1, 3), F(1, 5)
        beta = (-t1, -t2, sg - 1)
        oracles = {s.base_exponent: s for s in gauss_oracle(t1, t2, sg, 10)}
        for v in exponent_set_prime(gauss, beta).exponents:
            phi = phi_series(gauss, v, (0,) * 4, (), (0, 10))
            assert phi.terms == oracles[v.vector].terms


class TestScalarRelation:
    def test_zero_shift(self, corner):
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0]
        assert scalar_relation_check(corner, beta, (0, 0), v, v, (0, 8)) == 1

    def test_gauss_column_shift(self, gauss):
        from gkz1 import match_exponent

        beta = (F(-1, 2), F(-1, 3), F(1, 5) - 1)
        u = gauss.columns[2]
        v = exponent_set_prime(gauss, beta).exponents[0]
        matched, _ = match_exponent(gauss, beta, u, v)
        scalar = scalar_relation_check(gauss, beta, u, v, matched, (0, 8))
        assert scalar != 0

    def test_relation_survives_relation_shift(self, corner):
        # shifting by the relation itself stays consistent: the single-step
        # factors compose coordinatewise when no entry crosses a negative
        # integer, so the check passes even though v' is not normalized
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0]
        shifted = tuple(x + e for x, e in zip(v.vector, corner.relation))
        u = corner.column_combination((0,) * 3)
        scalar = scalar_relation_check(corner, beta, u, v, shifted, (0, 8))
        assert scalar == F(3, 5)

    def test_wrong_match_detected(self, corner):
        # dropping the integral coordinate below zero kills the scalar while
        # the shifted series itself does not vanish
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0]
        assert v.vector[0] == 0
        bad = (v.vector[0] - 1, v.vector[1], v.vector[2])
        u = tuple(-x for x in corner.columns[0])
        with pytest.raises(MismatchDetected):
            scalar_relation_check(corner, beta, u, v, bad, (0, 8))

    def test_nonintegral_difference_rejected(self, corner):
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0]
        off = tuple(x + F(1, 2) for x in v.vector)
        with pytest.raises(ValueError):
            scalar_relation_check(corner, beta, (0, 0), v, off, (0, 4))


class TestSeriesStructure:
    def test_nonresonant_coefficients_all_nonzero(self):
        rng = random.Random(41)
        for _ in range(15):
            config = random_config(rng)
            beta = random_nonresonant_beta(rng, config)
            zero = (0,) * config.n
            for v in exponent_set_prime(config, beta).exponents:
                from gkz1 import support_verdict

                verdict = support_verdict(config, v, range(config.n), zero)
                phi = phi_series(config, v, zero, (), (-4, 6))
                for z in verdict.membership.clip(-4, 6):
                    assert phi.coefficient(z) != 0

    def test_distinct_top_degrees(self, triangle):
        report = solution_bundle(triangle, [10, 8], window=(0, 8))
        bundle = report.bundles[0]
        degrees = [s.max_log_degree for s in bundle.solutions]
        assert degrees == sorted(set(degrees))
        for r, series in enumerate(bundle.solutions):
            assert series.log_part(r)

    def test_json_round_trip(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 1, (-5, 10))
        data = solution.to_json_dict()
        assert LogSeries.from_json_dict(data) == solution
        # rationals survive as exact strings
        assert all(isinstance(t["coeff"], str) for t in data["terms"])

    def test_window_is_restriction(self, triangle):
        wide = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (-10, 20))
        narrow = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (1, 3))
        for z in range(1, 4):
            assert narrow.coefficient(z) == wide.coefficient(z)

    def test_degree_two_matches_raw_product_expansion(self):
        # Oracle for the multiset collapse: expand the weighted product of
        # iterated integrals over raw index sequences, tracking per-variable
        # log degrees, and compare after rewriting log x0 multinomially.
        # Repeated indices only enter at degree two, where the collapse
        # weight is r(r-1)...(r-s+1) * prod(relation entries), not the
        # plain count of sequences realizing the multiset.
        from collections import defaultdict
        from itertools import product

        from gkz1 import build_config
        from gkz1.coefficients import coefficient_M
        from reference import falling_factorial

        config = build_config([(2, -2, 1), (0, 1, -1), (-4, 3, -1)])
        rel = config.relation
        assert rel == (2, 1, 1)
        v = (F(2), F(1), F(0))
        n, r = 3, 2

        direct = defaultdict(F)  # (z, per-variable log degrees) -> coeff
        for seq in product(range(n), repeat=r):
            weight = 1
            for p in seq:
                weight *= rel[p]
            rho = [seq.count(i) for i in range(n)]
            for z in range(-6, 7):
                terms = [(F(1), ())]
                for i in range(n):
                    level = z * rel[i]
                    factors = [
                        (
                            coefficient_M(level, s, v[i])
                            * falling_factorial(rho[i], s),
                            rho[i] - s,
                        )
                        for s in range(rho[i] + 1)
                    ]
                    terms = [
                        (c0 * c, degs + (d,))
                        for c0, degs in terms
                        for c, d in factors
                        if c0 * c != 0
                    ]
                    if not terms:
                        break
                for c, degs in terms:
                    direct[(z, degs)] += weight * c

        solution = log_solution(config, v, (0, 0, 0), r, (-6, 6))
        expanded = defaultdict(F)
        for (z, rr), c in solution.terms.items():
            for degs in product(range(rr + 1), repeat=n):
                if sum(degs) != rr:
                    continue
                count = factorial(rr)
                weight = 1
                for mu in range(n):
                    count //= factorial(degs[mu])
                    weight *= rel[mu] ** degs[mu]
                expanded[(z, degs)] += c * count * weight
        assert {k: c for k, c in direct.items() if c} == {
            k: c for k, c in expanded.items() if c
        }


class TestDeepWindows:
    """Long windows checked against closed forms that share no series code."""

    def test_quintic_periods(self):
        config = build_config(QUINTIC)
        report = solution_bundle(config, (-1, 0, 0, 0, 0), window=(0, 60))
        (bundle,) = report.bundles
        assert report.total_solutions == 5 and report.complete
        solutions = bundle.solutions
        assert solutions[0].terms == {
            (z, 0): F((-1) ** z * factorial(5 * z), factorial(z) ** 5)
            for z in range(61)
        }
        # -5 * 5! * (H_5 - H_1)
        assert solutions[1].coefficient(1, 0) == -770
        for series in solutions:
            assert certify(config, bundle.parameter, series).passed

    def test_quintic_wide_window(self):
        # 200 steps of the recurrence from one seed; an error in a step compounds
        config = build_config(QUINTIC)
        (bundle,) = solution_bundle(config, (-1, 0, 0, 0, 0), window=(0, 200)).bundles
        assert bundle.solutions[0].terms == {
            (z, 0): F((-1) ** z * factorial(5 * z), factorial(z) ** 5)
            for z in range(201)
        }
        assert bundle.solutions[1].coefficient(1, 0) == -770

    def test_triangle_polynomial(self, triangle):
        report = solution_bundle(triangle, [10, 8], window=(0, 400))
        (bundle,) = report.bundles
        assert bundle.exponent.vector == (2, 0, 8)
        assert report.total_solutions == 2 and report.complete
        assert bundle.solutions[0].terms == {(z, 0): c for z, c in GOLDEN.items()}
        for series in bundle.solutions:
            assert certify(triangle, bundle.parameter, series).passed


def _assert_matches_multiset_sum(config, beta, window, u_lift=None) -> int:
    """Every built solution equals the literal multiset sum; returns the top degree.

    Covers each solution of solution_bundle, with the lift if one is given,
    and of log_solution at every degree below the multiplicity.  log_solution
    and the reference cover the same shifts, so they refuse the same degrees
    with ExcludedCase.
    """
    top = 0
    for bundle in solution_bundle(config, beta, u_lift=u_lift, window=window).bundles:
        vec, lift = bundle.exponent.vector, bundle.lift
        for r, series in enumerate(bundle.solutions):
            assert series.terms == log_solution_reference(config, vec, lift, r, window).terms
            top = max(top, r)
        for r in range(bundle.exponent.multiplicity):
            try:
                series = log_solution(config, bundle.exponent, lift, r, window)
            except HypothesisViolated:
                assert r >= len(bundle.solutions)
                continue
            except ExcludedCase:
                with pytest.raises(ExcludedCase):
                    log_solution_reference(config, vec, lift, r, window)
                continue
            assert series.terms == log_solution_reference(config, vec, lift, r, window).terms
    return top


@st.composite
def bundle_cases(draw, lifted=False):
    """A configuration, a parameter in its span and a window of width 0-8,
    and, if lifted, a lift with entries in [-3, 3] or None, half and half.

    Half the configurations have relation entries up to 5.  Half the time
    the positive-side weights of the parameter are small integers, which
    puts integers at several coordinates of an exponent, so log towers of
    degree 2 and more appear.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        config = random_relation_config(rng, max_relation=5)
    else:
        config = random_config(rng)
    integral_positive = draw(st.booleans())
    weights = []
    for mu in range(config.n):
        if integral_positive and config.relation[mu] > 0:
            weights.append(F(draw(st.integers(min_value=-3, max_value=3))))
        else:
            weights.append(F(
                draw(st.integers(min_value=-30, max_value=30)),
                draw(st.sampled_from([1, 2, 3, 5, 7])),
            ))
    lo = draw(st.integers(min_value=-4, max_value=4))
    window = (lo, lo + draw(st.integers(min_value=0, max_value=8)))
    case = config, config.column_combination(weights), window
    if not lifted:
        return case
    lifts = st.lists(st.integers(-3, 3), min_size=config.n, max_size=config.n)
    return *case, draw(st.none() | lifts)


class TestEpsilonProducts:
    """The eps-product assembly against the literal sum over multisets."""

    @settings(max_examples=200, deadline=None)
    @given(case=bundle_cases(lifted=True))
    # a lift that puts a root of the recurrence at z = 0, inside a log tower
    @example(case=(build_config(GAUSS), (F(-1, 2), F(-1, 3), 1), (-4, 6), (0, 1, -1, 0)))
    def test_matches_multiset_sum(self, case):
        try:
            top = _assert_matches_multiset_sum(*case)
        except ExcludedCase:
            event("solution_bundle refused: ExcludedCase")
            return
        event(f"top log degree >= 2: {top >= 2}")

    @pytest.mark.parametrize("points, beta, window, top", [
        (QUINTIC, (-1, 0, 0, 0, 0), (0, 12), 4),
        (QUINTIC, (-1, 0, 0, 0, 0), (-3, 4), 4),
        # the Gauss branches: sigma = 2 (a log tower) and sigma = 1/5
        (GAUSS, (F(-1, 2), F(-1, 3), 1), (-4, 12), 1),
        (GAUSS, (F(-1, 2), F(-1, 3), F(-4, 5)), (-4, 12), 0),
        # F+_0(0) = 0: the recurrence does not fix C(0), so the walk seeds again
        ([(-1,), (1,)], (-6,), (-3, 5), 1),
        ([(-1, 1), (3, 3), (0, 3)], (1, 8), (-4, 2), 1),
    ])
    def test_named_cases(self, points, beta, window, top):
        assert _assert_matches_multiset_sum(build_config(points), beta, window) == top

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), top=st.integers(0, 3))
    def test_refuses_as_the_column_runs_refuse(self, seed, top):
        # a run of each column over every member, in index order, refuses at
        # the first column whose l enters the excluded strip; the walk must
        # raise that same ExcludedCase, or none where the runs raise none
        rng = random.Random(seed)
        config = random_config(rng)
        vec = tuple(F(rng.randint(-4, 4)) for _ in range(config.n))
        lift = tuple(rng.randint(-3, 3) for _ in range(config.n))
        lo = rng.randint(-4, 4)
        members = sorted(rng.sample(range(lo, lo + 9), rng.randint(1, 9)))

        def refusal(build):
            try:
                build()
            except ExcludedCase as exc:
                return str(exc)

        expected = refusal(lambda: [
            coefficient_run(v, [l + z * e for z in members], top)
            for v, l, e in zip(vec, lift, config.relation)
        ])
        assert refusal(
            lambda: gkz1.series._epsilon_products(config, vec, lift, members, top)
        ) == expected
        event(f"refused: {expected is not None}")


def _outcome(build):
    """The series a call returns, or its error's class, message and sets."""
    try:
        return build()
    except (NegativeDegree, RNotLessThanMultiplicity, HypothesisViolated) as exc:
        return type(exc), str(exc), getattr(exc, "failing_sets", None)


@settings(max_examples=100, deadline=None)
@given(case=bundle_cases())
def test_bundle_answers_every_degree_as_log_solution_does(case):
    config, beta, window = case
    try:
        report = solution_bundle(config, beta, window=window)
    except ExcludedCase:
        event("refused: ExcludedCase")
        return
    for bundle in report.bundles:
        for r in range(-1, bundle.exponent.multiplicity + 1):
            read = _outcome(lambda: bundle.solution(r))
            assert read == _outcome(
                lambda: log_solution(config, bundle.exponent, bundle.lift, r, window)
            )
            event(f"outcome: {read[0].__name__ if type(read) is tuple else 'series'}")


class TestWindowsAndJson:
    """The triangle checks of TestSeriesStructure, over random configurations."""

    @settings(max_examples=100, deadline=None)
    @given(case=bundle_cases(), below=st.integers(0, 4), above=st.integers(0, 4))
    def test_window_is_restriction(self, case, below, above):
        # every stored coefficient is the full series' value, so a narrower
        # window gives the same bundles with the terms restricted to it
        config, beta, (lo, hi) = case
        try:
            wide = solution_bundle(config, beta, window=(lo - below, hi + above))
        except ExcludedCase:  # the narrow window's shifts are among the wide one's
            event("refused: ExcludedCase")
            return
        narrow = solution_bundle(config, beta, window=(lo, hi))
        assert [b.exponent for b in narrow.bundles] == [b.exponent for b in wide.bundles]
        for small, large in zip(narrow.bundles, wide.bundles):
            assert len(small.solutions) == len(large.solutions)
            for part, whole in zip(small.solutions, large.solutions):
                assert part.window == (lo, hi)
                assert part.terms == {
                    (z, r): c for (z, r), c in whole.terms.items() if lo <= z <= hi
                }
        event(f"solutions: {narrow.total_solutions > 0}")

    @settings(max_examples=100, deadline=None)
    @given(case=bundle_cases())
    def test_json_round_trip(self, case):
        config, beta, window = case
        try:
            report = solution_bundle(config, beta, window=window)
        except ExcludedCase:
            event("refused: ExcludedCase")
            return
        for bundle in report.bundles:
            for series in bundle.solutions:
                text = json.dumps(series.to_json_dict())
                assert LogSeries.from_json_dict(json.loads(text)) == series
                # the assembly builds its LogSeries directly, with the types
                # that from_json_dict's LogSeries.make gives
                assert all(type(x) is F for x in series.base_exponent)
                assert all(type(e) is int for e in series.relation)
                assert all(type(x) is int for x in series.window)
                assert all(
                    type(z) is int and type(r) is int and type(c) is F and c
                    for (z, r), c in series.terms.items()
                )


def _family(relation):
    """The points of a relation, and beta minus the sum of its negative columns."""
    points = relation_points(relation)
    beta = [
        -sum(p[i] for p, e in zip(points, relation) if e < 0) for i in range(len(points[0]))
    ]
    return points, beta


def _mirror(points, beta, kappa, n):
    """The mirror map and instanton numbers of the bundle whose exponent is 0
    at every positive column, from its solutions at window (0, n)."""
    config = build_config(points)
    bundle = next(
        b for b in solution_bundle(config, beta, window=(0, n)).bundles
        if all(b.exponent.vector[mu] == 0 for mu in config.positive)
    )
    f = [[bundle.solutions[r].coefficient(z, 0) for z in range(n + 1)] for r in range(3)]
    # x = -t where that makes f0's coefficients positive
    sign = 1 if f[0][1] > 0 else -1
    f = [[c * sign**z for z, c in enumerate(part)] for part in f]
    assert all(c > 0 for c in f[0])
    return mirror_map_and_instantons(*f, kappa)


class TestMirrorSymmetry:
    """The log-degree 1 and 2 solutions at a point of maximal unipotent
    monodromy give the mirror map and the instanton numbers, which
    enumerative geometry knows and which must be integers: a wrong eps
    coefficient of degree 1 or 2 shows as a wrong or fractional number."""

    def test_quintic(self):
        # Candelas, de la Ossa, Green and Parkes (1991); the mirror map is
        # integral (Lian and Yau)
        mirror_map, instantons = _mirror(QUINTIC, (-1, 0, 0, 0, 0), 5, 6)
        assert mirror_map[:4] == [1, 770, 1014275, 1703916750]
        assert instantons == [
            2875, 609250, 317206375, 242467530000, 229305888887625, 248249742118022000
        ]
        assert all(x.denominator == 1 for x in mirror_map + instantons)

    # relation, kappa, n_1 and n_2 of the other one-parameter hypergeometric
    # families (Klemm and Theisen 1993; Libgober and Teitelbaum 1993)
    FAMILIES = [
        ((1, 1, 1, 1, 2, -6), 3, 7884, 6028452),
        ((1, 1, 1, 1, 4, -8), 2, 29504, 128834912),
        ((1, 1, 1, 2, 5, -10), 1, 231200, 12215785600),
        ((1,) * 6 + (-3, -3), 9, 1053, 52812),
        ((1,) * 6 + (-2, -4), 8, 1280, 92288),
        ((1,) * 7 + (-2, -2, -3), 12, 720, 22428),
        ((1,) * 8 + (-2,) * 4, 16, 512, 9728),
    ]

    @pytest.mark.parametrize("relation, kappa, n1, n2", FAMILIES)
    def test_other_families(self, relation, kappa, n1, n2):
        mirror_map, instantons = _mirror(*_family(relation), kappa, 2)
        assert instantons == [n1, n2]
        assert all(x.denominator == 1 for x in mirror_map + instantons)


def _indicial_bundle_sizes(points, beta, window=(0, 2)) -> list[int]:
    """The multiplicities of the bundles of solution_bundle, checked against
    the roots of the indicial polynomial (tests/reference.py), which shares no
    code with gkz1.exponents: one bundle per root class mod Z, its
    multiplicity the class's number of roots, and its solutions of log
    degree exactly 0, ..., multiplicity - 1."""
    config = build_config(points)
    w0, classes = indicial_classes_reference(config, beta)
    bundles = solution_bundle(config, beta, window=window).bundles
    found = [line_class(config, w0, b.exponent.vector) for b in bundles]
    assert sorted(found) == sorted(classes)
    for root_class, bundle in zip(found, bundles):
        multiplicity = bundle.exponent.multiplicity
        assert classes[root_class] == multiplicity
        assert [s.max_log_degree for s in bundle.solutions] == list(range(multiplicity))
    return sorted((b.exponent.multiplicity for b in bundles), reverse=True)


class TestIndicialPolynomial:
    """P(t) = prod_{rel[mu] > 0} prod_{i < rel[mu]} (w0_mu + rel[mu]*t - i), with
    roots t = (i - w0_mu)/rel[mu], against the exponents and bundles."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), large=st.booleans())
    def test_random_nonresonant(self, seed, large):
        rng = random.Random(seed)
        config = random_relation_config(rng, 12) if large else random_config(rng)
        beta = random_nonresonant_beta(rng, config)
        sizes = _indicial_bundle_sizes(config.columns, beta)
        assert sum(sizes) == config.positive_sum
        if len(sizes) > 1:
            event("more than one class")
        if sizes[0] > 1:
            event("a class with logarithms")

    # the eight families of TestMirrorSymmetry at their resonant beta: the
    # class of 0 holds five roots or more, each other class one
    @pytest.mark.parametrize("relation, sizes", [
        ((1, 1, 1, 1, 1, -5), [5]),
        ((1, 1, 1, 1, 2, -6), [5, 1]),
        ((1, 1, 1, 1, 4, -8), [5, 1, 1, 1]),
        ((1, 1, 1, 2, 5, -10), [5, 1, 1, 1, 1, 1]),
        ((1,) * 6 + (-3, -3), [6]),
        ((1,) * 6 + (-2, -4), [6]),
        ((1,) * 7 + (-2, -2, -3), [7]),
        ((1,) * 8 + (-2,) * 4, [8]),
    ])
    def test_mirror_families(self, relation, sizes):
        assert _indicial_bundle_sizes(*_family(relation)) == sizes
