import random
from fractions import Fraction as F
from types import ModuleType

from hypothesis import given, settings
from hypothesis import strategies as st

from gkz1 import (
    LogSeries,
    apply_box,
    apply_euler,
    apply_euler_row,
    certify,
    log_solution,
    phi_series,
    solution_bundle,
)

from conftest import random_config, random_nonresonant_beta
from reference import literal_box


def corrupt(series: LogSeries, key, value) -> LogSeries:
    terms = dict(series.terms)
    terms[key] = value
    return LogSeries.make(series.base_exponent, series.relation, series.window, terms)


class TestBox:
    def test_golden_polynomial_annihilated(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 10))
        report = apply_box(triangle, phi)
        assert report.passed
        assert report.safe_window == (0, 9)
        assert report.first_failure is None

    def test_log_solution_annihilated(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 1, (-5, 10))
        report = apply_box(triangle, solution)
        assert report.passed
        assert report.safe_window == (-5, 9)

    def test_single_monomial_is_not_a_solution(self, triangle):
        # window [0, 1] claims the z = 1 coefficient is zero, so the
        # negative-side derivative of the monomial has nothing to cancel
        monomial = LogSeries.make((F(2), F(0), F(8)), triangle.relation, (0, 1), {(0, 0): F(1)})
        report = apply_box(triangle, monomial)
        assert not report.passed
        assert report.first_failure == (0, 0, F(-56))  # -8*7 from d^2/dx3^2

    def test_zero_series_passes(self, triangle):
        zero = LogSeries.make((F(2), F(0), F(8)), triangle.relation, (0, 5), {})
        assert apply_box(triangle, zero).passed

    def test_width_one_window_has_nothing_checkable(self, triangle):
        monomial = LogSeries.make((F(2), F(0), F(8)), triangle.relation, (0, 0), {(0, 0): F(1)})
        report = apply_box(triangle, monomial)
        assert report.safe_window is None
        assert report.passed

    def test_empty_product_side(self, interior):
        # all relation entries positive: the negative-side product is the
        # identity operator, and the box becomes prod(d_i) - 1
        report = solution_bundle(interior, [0, 0], window=(0, 8))
        for bundle in report.bundles:
            for series in bundle.solutions:
                assert apply_box(interior, series).passed


class TestEuler:
    def test_termwise_identity(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 1, (-5, 10))
        for row_report in apply_euler(triangle, [10, 8], solution):
            assert row_report.passed
            assert row_report.safe_window == solution.window

    def test_wrong_parameter_detected(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 0, (0, 10))
        shift = triangle.columns[0]  # perturb by a_0
        wrong = [10 + shift[0], 8 + shift[1]]
        for row, report in enumerate(apply_euler(triangle, wrong, solution)):
            expected = {
                key: -shift[row] * c for key, c in solution.terms.items() if shift[row]
            }
            assert report.residual == expected
            assert report.passed == (shift[row] == 0)

    def test_gauss_series(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1, 5) - 1)
        v = (F(0), F(1, 5) - 1, F(-1, 2), F(-1, 3))
        phi = phi_series(gauss, v, (0,) * 4, (), (0, 8))
        for report in apply_euler(gauss, beta, phi):
            assert report.passed

    def test_single_row(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 5))
        report = apply_euler_row(triangle, [10, 8], phi, 1)
        assert report.operator == "euler[1]"
        assert report.passed


class TestCertify:
    def test_bundle_solutions_certified(self, triangle):
        report = solution_bundle(triangle, [10, 8], window=(0, 10))
        for bundle in report.bundles:
            for series in bundle.solutions:
                assert certify(triangle, bundle.parameter, series).passed

    def test_gauss_log_branch(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1))  # sigma = 2
        v = (F(0), F(1), F(-1, 2), F(-1, 3))
        solution = log_solution(gauss, v, (0,) * 4, 1, (-4, 8))
        assert certify(gauss, beta, solution).passed

    def test_shifted_parameter_bundles(self):
        # nonzero lifts: solutions for beta + u, built from the exponents of
        # beta, must still be annihilated at the shifted parameter
        rng = random.Random(77)
        for _ in range(15):
            config = random_config(rng)
            beta = random_nonresonant_beta(rng, config)
            coeffs = [rng.randint(-2, 2) for _ in range(config.n)]
            u = config.column_combination(coeffs)
            report = solution_bundle(config, beta, u=u, window=(-3, 5))
            assert report.total_solutions == config.positive_sum
            for bundle in report.bundles:
                for series in bundle.solutions:
                    assert certify(config, bundle.parameter, series).passed

    def test_corruption_detected(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 10))
        broken = corrupt(phi, (2, 0), phi.coefficient(2) + 1)
        result = certify(triangle, [10, 8], broken)
        assert not result.passed
        assert not result.box.passed

    def test_json_shape(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 10))
        data = certify(triangle, [10, 8], phi).to_json_dict()
        assert data["passed"] is True
        assert data["box"]["first_failure"] is None
        assert {r["operator"] for r in data["euler"]} == {"euler[0]", "euler[1]"}


class TestSafeWindowSoundness:
    def test_shrinking_never_flips_to_failed(self, triangle, corner):
        cases = [
            (triangle, [10, 8], (F(2), F(0), F(8)), 1),
            (corner, [0, 0], (F(0), F(0), F(0)), 1),
        ]
        for config, beta, v, r in cases:
            zero = (0,) * config.n
            wide = log_solution(config, v, zero, r, (-6, 12))
            assert certify(config, beta, wide).passed
            for lo, hi in [(-6, 8), (0, 6), (2, 5)]:
                narrow_terms = {
                    key: c for key, c in wide.terms.items() if lo <= key[0] <= hi
                }
                narrow = LogSeries.make(v, config.relation, (lo, hi), narrow_terms)
                assert certify(config, beta, narrow).passed


@st.composite
def box_cases(draw):
    """A random configuration and series on it, plus a once-perturbed copy.

    Base entries mix integers in [0, |rel[mu]|) (where mu's falling factorial
    vanishes), other integers, negative ones and fractions with q <= 7.  Log
    degrees go up to 4; a few terms sit just outside the window, which
    may have lo == hi, and the series may have no terms at all.
    """
    config = random_config(random.Random(draw(st.integers(0, 2**32 - 1))))

    def entry(e):
        return draw(
            st.one_of(
                st.integers(0, abs(e) - 1),
                st.integers(-8, 8),
                st.integers(-8, -1),
                st.fractions(min_value=-8, max_value=8, max_denominator=7),
            )
        )

    base = [F(entry(e)) for e in config.relation]
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 4))
    top = draw(st.integers(0, 4))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(lo - 1, hi + 1), st.integers(0, top)),
            st.fractions(min_value=-6, max_value=6, max_denominator=9),
            max_size=12,
        )
    )
    series = LogSeries.make(base, config.relation, (lo, hi), terms)
    key = (draw(st.integers(lo, hi)), draw(st.integers(0, top)))
    bump = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    return config, series, corrupt(series, key, series.coefficient(*key) + bump)


class TestClosedFormBox:
    """The closed-form box against literal derivative passes, report for report."""

    @settings(max_examples=200, deadline=None)
    @given(case=box_cases())
    def test_reports_equal_literal_passes(self, case):
        config, series, perturbed = case
        for s in (series, perturbed):
            report = apply_box(config, s)
            assert report == literal_box(config, s)
            assert report.passed == (not report.residual)

    def test_bundles_and_corruptions_match(self, triangle, gauss):
        rng = random.Random(4242)
        cases = [(triangle, [10, 8], (0, 10)), (gauss, (F(-1, 2), F(-1, 3), F(1)), (-4, 8))]
        for _ in range(12):
            config = random_config(rng)
            cases.append((config, random_nonresonant_beta(rng, config), (-3, 5)))
        for config, beta, window in cases:
            report = solution_bundle(config, beta, window=window)
            for bundle in report.bundles:
                for series in bundle.solutions:
                    box = apply_box(config, series)
                    assert box.passed and box == literal_box(config, series)
                    key = (rng.randint(*window), rng.randint(0, series.max_log_degree))
                    broken = corrupt(series, key, series.coefficient(*key) + F(1, 3))
                    assert apply_box(config, broken) == literal_box(config, broken)


def test_certificate_imports_no_builder():
    # the certificate reads series as data; it shares no code with their builders
    import gkz1.verify as verify

    names = {getattr(value, "__module__", None) for value in vars(verify).values()}
    names |= {value.__name__ for value in vars(verify).values() if isinstance(value, ModuleType)}
    assert not names & {"gkz1.series", "gkz1.coefficients", "gkz1.exponents"}
