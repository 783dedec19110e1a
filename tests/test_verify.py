import random
import re
import sys
from collections import namedtuple
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkz1
from gkz1 import (
    LogSeries,
    apply_box,
    apply_euler,
    apply_euler_row,
    build_config,
    certify,
    certify_bundle,
    log_solution,
    parameter,
    phi_series,
    solution_bundle,
)
from gkz1.errors import InputError
from gkz1.lattice import _ROWS, _box_row, _box_sides

from conftest import GAUSS, QUINTIC, TRIANGLE, random_config, random_nonresonant_beta
from reference import apply_euler_row_reference, box_side_reference, literal_box


def corrupt(series: LogSeries, key, value) -> LogSeries:
    terms = dict(series.terms)
    terms[key] = value
    return LogSeries.make(series.base_exponent, series.relation, series.window, terms)


def _fractions_built(call) -> int:
    """How many Fractions call() builds: calls of Fraction.__new__, and of the
    constructor that Fraction arithmetic uses instead on Python 3.12+."""
    codes = {F.__new__.__code__, getattr(F, "_from_coprime_ints", F.__new__).__code__}
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code in codes

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return built


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

    def test_validated_parameter_reads_like_its_vector(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 1, (0, 6))
        wrong = [F(21, 2), 8]
        reports = apply_euler(triangle, parameter(triangle, wrong), solution)
        assert reports == apply_euler(triangle, wrong, solution)
        assert not reports[0].passed

    def test_float_parameter_refused(self, triangle):
        solution = log_solution(triangle, (F(2), F(0), F(8)), (0, 0, 0), 1, (0, 6))
        with pytest.raises(InputError, match="parameter entry 1: 8.0 is a float"):
            apply_euler_row(triangle, [10, 8.0], solution, 1)

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

    def test_checks_the_series_once(self, monkeypatch):
        # one grid check per certificate, not one per operator: 1 + 5 before
        import gkz1.verify as verify

        quintic = build_config(QUINTIC)
        calls = []
        check = verify._check_grid
        monkeypatch.setattr(verify, "_check_grid", lambda *a: calls.append(a) or check(*a))
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 6)).bundles
        for series in bundle.solutions:
            assert certify(quintic, bundle.parameter, series).passed
        assert len(calls) == len(bundle.solutions) == 5

    def test_passing_certificate_builds_no_fraction(self, gauss):
        # integers throughout: a Fraction is built only for a residual entry
        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 30)).bundles
        cases = [(quintic, bundle.parameter, series) for series in bundle.solutions]
        v = (F(0), F(1), F(-1, 2), F(-1, 3))
        log_branch = log_solution(gauss, v, (0,) * 4, 1, (-4, 8))
        cases.append((gauss, (F(-1, 2), F(-1, 3), F(1)), log_branch))
        # log-free series, checked from their Fractions: relation (15, -1)
        pencil = build_config([(1,), (15,)])
        for bundle in solution_bundle(pencil, [F(1, 7)], window=(-2, 2)).bundles:
            cases += [(pencil, bundle.parameter, series) for series in bundle.solutions]
        for config, beta, series in cases:
            assert certify(config, beta, series).passed
            assert _fractions_built(lambda: certify(config, beta, series)) == 0
        # the count sees the Fractions of a residual
        broken = corrupt(log_branch, (0, 0), log_branch.coefficient(0) + 1)
        assert _fractions_built(lambda: certify(gauss, (F(-1, 2), F(-1, 3), F(1)), broken)) > 0

    def test_make_of_a_built_series_builds_no_fraction(self):
        # make reads a series as the certificate does: a dict of Fractions on
        # int keys is taken as it is, not rebuilt term by term
        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 30)).bundles
        for series in bundle.solutions:
            fields = (series.base_exponent, series.relation, series.window, series.terms)
            assert LogSeries.make(*fields) == series
            assert _fractions_built(lambda: LogSeries.make(*fields)) == 0

    def test_json_shape(self, triangle):
        phi = phi_series(triangle, (F(2), F(0), F(8)), (0, 0, 0), (), (0, 10))
        data = certify(triangle, [10, 8], phi).to_json_dict()
        assert data["passed"] is True
        assert data["box"]["first_failure"] is None
        assert {r["operator"] for r in data["euler"]} == {"euler[0]", "euler[1]"}


@st.composite
def bundle_cases(draw):
    """A random configuration, a nonresonant parameter and one bundle of its
    solutions on a window of up to 7 shifts; shrinking goes to the bundle
    with the most solutions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    config = random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    lo = draw(st.integers(-4, 2))
    report = solution_bundle(config, beta, window=(lo, lo + draw(st.integers(0, 6))))
    ranked = sorted(report.bundles, key=lambda b: -len(b.solutions))
    bundle = draw(st.sampled_from(ranked))
    return config, bundle.parameter, bundle.solutions


def _assert_as_certify(config, param, solutions):
    """certify_bundle gives, solution by solution, what certify gives."""
    got = certify_bundle(config, param, solutions)
    expected = [certify(config, param, s) for s in solutions]
    assert [c.to_json_dict() for c in got] == [c.to_json_dict() for c in expected]
    assert [(c.box.residual, [e.residual for e in c.euler]) for c in got] == [
        (c.box.residual, [e.residual for e in c.euler]) for c in expected
    ]
    assert list(got) == expected
    return got


def _corrupted(solutions, r, kind, key=None):
    """The bundle with solution r changed: a term bumped, dropped or added
    at key, the window widened, or the base exponent's first entry moved."""
    s = solutions[r]
    base, window, terms = s.base_exponent, s.window, dict(s.terms)
    if kind == "bump":
        terms[key] = terms.get(key, F(0)) + F(1, 3)
    elif kind == "drop":
        del terms[key]
    elif kind == "add":
        terms[key] = F(-2, 5)
    elif kind == "window":
        window = (window[0], window[1] + 1)
    else:
        base = (base[0] + 1, *base[1:])
    changed = LogSeries(base, s.relation, window, terms)
    return solutions[:r] + (changed,) + solutions[r + 1:]


CORRUPTIONS = ["bump", "drop", "add", "window", "base"]


class TestCertifyBundle:
    @settings(max_examples=120, deadline=None)
    @given(case=bundle_cases())
    def test_equals_certify_per_solution(self, case):
        config, param, solutions = case
        got = _assert_as_certify(config, param, solutions)
        assert all(c.passed for c in got)

    @settings(max_examples=150, deadline=None)
    @given(case=bundle_cases(), data=st.data())
    def test_corrupted_bundle_equals_certify_per_solution(self, case, data):
        # a corruption of the top makes every solution go through certify
        config, param, solutions = case
        r = data.draw(st.integers(0, len(solutions) - 1), label="r")
        kind = data.draw(st.sampled_from(CORRUPTIONS), label="kind")
        terms = solutions[r].terms
        if kind in ("bump", "drop") and not terms:
            kind = "add"
        if kind in ("bump", "drop"):
            key = data.draw(st.sampled_from(sorted(terms)), label="key")
        else:
            lo, hi = solutions[r].window
            key = data.draw(st.tuples(st.integers(lo, hi), st.integers(0, r + 1)), label="key")
        if kind == "add" and key in terms:
            kind = "bump"
        # a corruption need not fail (a window of one shift checks no box);
        # the reports must be certify's either way
        _assert_as_certify(config, param, _corrupted(solutions, r, kind, key))

    def test_every_corruption_of_the_quintic_bundle(self):
        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 6)).bundles
        solutions, top = bundle.solutions, len(bundle.solutions) - 1
        _assert_as_certify(quintic, bundle.parameter, solutions)
        for r in range(top + 1):
            keys = sorted(solutions[r].terms)
            cases = [("bump", keys[0]), ("bump", keys[-1]), ("drop", keys[0]),
                     ("drop", keys[-1]), ("add", (6, r + 1)), ("window", None), ("base", None)]
            for kind, key in cases:
                broken = _corrupted(solutions, r, kind, key)
                got = _assert_as_certify(quintic, bundle.parameter, broken)
                assert sum(not c.passed for c in got) == 1

    def test_lower_solution_read_otherwise(self, monkeypatch):
        # a lower solution with terms only, whose fields equal the top's but
        # read otherwise or are no longer Fractions on int keys, is certified
        # by itself: certify runs on the top and on it
        import gkz1.verify as verify

        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 4)).bundles
        s, top = bundle.solutions[0], bundle.solutions[-1]
        certified = []
        certify_ = verify.certify
        monkeypatch.setattr(verify, "certify", lambda *a: certified.append(a[2]) or certify_(*a))
        variants = [
            LogSeries(s.base_exponent, list(s.relation), list(s.window), s.terms),
            LogSeries(s.base_exponent, s.relation, s.window,
                      {key: str(c) for key, c in s.terms.items()}),
            LogSeries(s.base_exponent, s.relation, s.window,
                      {key: int(c) if c.denominator == 1 else c for key, c in s.terms.items()}),
            LogSeries(s.base_exponent, s.relation, s.window, s.terms),
        ]
        for variant in variants:
            certified.clear()
            _assert_as_certify(quintic, bundle.parameter, (variant, *bundle.solutions[1:]))
            assert certified == [top, variant]
        floats = LogSeries(s.base_exponent, s.relation, (0.0, 4.0), s.terms)
        with pytest.raises(InputError):
            certify_bundle(quintic, bundle.parameter, (floats, *bundle.solutions[1:]))
        # a zero off the grid, at log degree -1, in place of a term, is
        # refused alike
        terms = dict(s.terms)
        del terms[(1, 0)]
        terms[(1, -1)] = F(0)
        off = LogSeries(s.base_exponent, s.relation, s.window, terms)
        for call in (certify, lambda *a: certify_bundle(*a[:2], (a[2], *bundle.solutions[1:]))):
            with pytest.raises(ValueError, match="off its grid"):
                call(quintic, bundle.parameter, off)

    def test_top_rows_on_fields_read_otherwise(self):
        # a lower solution that holds the top's rows shares its certificate
        # only where its fields read as the top's: a list window does, a
        # float window is refused as certify refuses it, and another window
        # goes through certify
        from gkz1.series import _assemble

        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 4)).bundles
        s, rest, top = bundle.solutions[0], bundle.solutions[1:], bundle.solutions[-1]
        products, degree = s.rows
        assert degree == 0 and products is top.rows[0]
        listed = _assemble(quintic, s.base_exponent, 0, [0, 4], products)
        shared = SimpleNamespace(base_exponent=list(s.base_exponent), relation=list(s.relation),
                                 window=[0, 4], rows=s.rows)
        for series in (listed, shared):
            got = _assert_as_certify(quintic, bundle.parameter, (series, *rest))
            assert got[0] is got[-1] and got[0].passed
        wider = SimpleNamespace(base_exponent=s.base_exponent, relation=s.relation,
                                window=(0, 5), rows=s.rows)
        got = _assert_as_certify(quintic, bundle.parameter, (wider, *rest))
        assert not got[0].passed and got[-1].passed
        floats = _assemble(quintic, s.base_exponent, 0, [0.0, 4], products)
        with pytest.raises(InputError) as refused:
            certify(quintic, bundle.parameter, floats)
        with pytest.raises(InputError) as refused_in_bundle:
            certify_bundle(quintic, bundle.parameter, (floats, *rest))
        assert str(refused_in_bundle.value) == str(refused.value)

    def test_box_runs_once_on_a_passing_bundle(self, monkeypatch):
        import gkz1.verify as verify

        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 30)).bundles
        calls = {"_box": 0, "_check_grid": 0, "grid_rows": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(verify, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(verify, name, counted)
        certificates = certify_bundle(quintic, bundle.parameter, bundle.solutions)
        assert len(certificates) == 5 and all(c.passed for c in certificates)
        # the built solutions share the top's field objects: none is read
        assert calls == {"_box": 1, "_check_grid": 1, "grid_rows": 1}
        # series read back from JSON hold terms, not rows, so each is
        # certified by itself, with the built bundle's certificates
        read = tuple(LogSeries.from_json_dict(s.to_json_dict()) for s in bundle.solutions)
        assert certify_bundle(quintic, bundle.parameter, read) == certificates
        assert calls == {"_box": 1 + 5, "_check_grid": 1 + 5, "grid_rows": 1 + 5}

    def test_one_solution_bundle_is_one_certify(self, monkeypatch):
        import gkz1.verify as verify

        pencil = build_config([(1,), (15,)])
        (bundle, *_) = solution_bundle(pencil, [F(1, 7)], window=(-2, 2)).bundles
        calls = []
        check = verify._check_grid
        monkeypatch.setattr(verify, "_check_grid", lambda *a: calls.append(a) or check(*a))
        certify_ = verify.certify
        monkeypatch.setattr(verify, "certify", lambda *a: calls.append(a) or certify_(*a))
        (certificate,) = certify_bundle(pencil, bundle.parameter, bundle.solutions)
        assert certificate.passed and len(calls) == 2
        assert certify_bundle(pencil, bundle.parameter, ()) == ()

    def test_passing_bundle_builds_no_fraction(self, gauss):
        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 30)).bundles
        cases = [(quintic, bundle.parameter, bundle.solutions)]
        beta = (F(-1, 2), F(-1, 3), F(1))  # sigma = 2: a bundle of two solutions
        cases += [(gauss, b.parameter, b.solutions)
                  for b in solution_bundle(gauss, beta, window=(-4, 8)).bundles]
        assert max(len(solutions) for _, _, solutions in cases[1:]) == 2
        for config, param, solutions in cases:
            assert all(c.passed for c in certify_bundle(config, param, solutions))
            assert _fractions_built(lambda: certify_bundle(config, param, solutions)) == 0


def _printed(series):
    """A SimpleNamespace of a series as solve prints it: its four fields, its
    terms as the printed "p/q" strings, and no rows."""
    data = series.to_json_dict()
    return SimpleNamespace(**{**data, "terms": {(t["z"], t["r"]): t["coeff"] for t in data["terms"]}})


def _quintic_at_200():
    quintic = build_config(QUINTIC)
    (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 200)).bundles
    return quintic, bundle.parameter, bundle.solutions


def _assert_routes_agree(config, param, solutions):
    """certify and certify_bundle report on a bundle's solutions, read as
    their rows, what they report on the printed terms; certify's reports."""
    assert all(s.rows is not None for s in solutions)
    printed = [_printed(s) for s in solutions]
    got = [certify(config, param, s) for s in solutions]
    assert got == [certify(config, param, p) for p in printed]
    assert certify_bundle(config, param, solutions) == certify_bundle(config, param, printed)
    return got


class TestTwoRoutes:
    """A builder's series enters the certificate as its rows, and a printed
    one as its terms, through one reader (_linalg.grid_rows): the reports
    must not tell the two apart."""

    @settings(max_examples=60, deadline=None)
    @given(case=bundle_cases())
    def test_rows_read_as_printed_terms(self, case):
        assert all(c.passed for c in _assert_routes_agree(*case))

    def test_quintic_at_200(self):
        config, param, solutions = _quintic_at_200()
        got = _assert_routes_agree(config, param, solutions)
        assert all(c.passed for c in got) and certify_bundle(config, param, solutions) == tuple(got)

    def test_moved_row_numerator_fails_alike(self, gauss):
        # one numerator N_s of the bundle's rows moved by +-1, read at the top
        # degree and at a lower degree r >= s: that solution fails, alone in
        # its bundle, on both routes, with one first failure
        gauss_beta = (F(-1, 2), F(-1, 3), F(1))  # sigma = 2: two solutions
        (pair,) = [b for b in solution_bundle(gauss, gauss_beta, window=(-4, 8)).bundles
                   if len(b.solutions) == 2]
        cases = [(*_quintic_at_200(), [(4, 4, 1), (4, 0, -1), (1, 1, -1)]),
                 (gauss, pair.parameter, pair.solutions, [(1, 1, 1), (0, 0, -1)])]
        for config, param, solutions, moves in cases:
            top = solutions[-1]
            products = top.rows[0]
            zs = sorted(z for z, (num, _) in products.items() if any(num))
            for r, s, delta in moves:
                z = zs[len(zs) // 2]
                num, den = products[z]
                moved = {**products, z: (num[:s] + (num[s] + delta,) + num[s + 1:], den)}
                series = gkz1.series._assemble(config, top.base_exponent, r, top.window, moved)
                got, printed = certify(config, param, series), certify(config, param, _printed(series))
                assert not got.passed and got == printed
                assert got.box.first_failure == printed.box.first_failure
                assert got.box == literal_box(config, series)
                bundle = solutions[:r] + (series,) + solutions[r + 1:]
                reports = certify_bundle(config, param, bundle)
                assert [c.passed for c in reports] == [i != r for i in range(len(bundle))]
                assert reports[r] == got
                assert reports == certify_bundle(config, param, [_printed(x) for x in bundle])


def _cold(call):
    """call() with no box row kept."""
    _box_row.cache_clear()
    return call()


def _assert_kept_rows_change_nothing(config, param, window, bundles):
    """certify on each series of the bundles, and certify_bundle on each
    bundle, report after solution_bundle has built the bundles on window,
    whose walks leave their rows kept, what they report with no row kept,
    call by call, first failures included; the reports and the cache hits of
    the first reading."""
    calls = [lambda s=s: (certify(config, param, s),) for bundle in bundles for s in bundle]
    calls += [lambda bundle=bundle: certify_bundle(config, param, bundle) for bundle in bundles]
    _box_row.cache_clear()
    solution_bundle(config, param, window=window)
    warm = [c for call in calls for c in call()]
    hits = _box_row.cache_info().hits
    cold = [c for call in calls for c in _cold(call)]
    assert warm == cold
    assert [c.box.first_failure for c in warm] == [c.box.first_failure for c in cold]
    assert [c.to_json_dict() for c in warm] == [c.to_json_dict() for c in cold]
    return warm, hits


class TestRowCache:
    """The certificate reads the box rows that the builder's walk left in
    lattice._box_row's cache: a kept row is what the same arguments give, so
    no report may depend on what the cache holds."""

    def test_moved_rows_and_base_fail_as_with_no_row_kept(self, gauss):
        # TestTwoRoutes' variants: a numerator N_s of the bundle's rows moved
        # by +-1, read at the top degree and at a lower degree r >= s, and
        # the printed copies; and the top's base exponent moved, on its rows
        # and printed, which asks for other rows than the walk kept
        gauss_beta = (F(-1, 2), F(-1, 3), F(1))  # sigma = 2: two solutions
        (pair,) = [b for b in solution_bundle(gauss, gauss_beta, window=(-4, 8)).bundles
                   if len(b.solutions) == 2]
        cases = [(*_quintic_at_200(), (0, 200), [(4, 4, 1), (4, 0, -1), (1, 1, -1)]),
                 (gauss, pair.parameter, pair.solutions, (-4, 8), [(1, 1, 1), (0, 0, -1)])]
        for config, param, solutions, window, moves in cases:
            top = solutions[-1]
            products, degree = top.rows
            zs = sorted(z for z, (num, _) in products.items() if any(num))
            z = zs[len(zs) // 2]
            num, den = products[z]
            bundles = [solutions, tuple(map(_printed, solutions))]
            for r, s, delta in moves:
                moved = {**products, z: (num[:s] + (num[s] + delta,) + num[s + 1:], den)}
                series = gkz1.series._assemble(config, top.base_exponent, r, top.window, moved)
                bundles += [solutions[:r] + (series,) + solutions[r + 1:]]
            base = (top.base_exponent[0] + 1, *top.base_exponent[1:])
            series = gkz1.series._assemble(config, base, degree, top.window, products)
            bundles += [solutions[:-1] + (series,), solutions[:-1] + (_printed(series),)]
            warm, hits = _assert_kept_rows_change_nothing(config, param, window, bundles)
            assert hits
            n = len(solutions)
            passed = [True] * 2 * n + [i != r for r, _, _ in moves for i in range(n)]
            passed += [i != n - 1 for _ in range(2) for i in range(n)]
            assert [c.passed for c in warm[:len(passed)]] == passed

    @settings(max_examples=60, deadline=None)
    @given(case=bundle_cases())
    def test_bundles_report_as_with_no_row_kept(self, case):
        config, param, solutions = case
        top = solutions[-1]
        products, degree = top.rows
        base = (top.base_exponent[0] + 1, *top.base_exponent[1:])
        moved = gkz1.series._assemble(config, base, degree, top.window, products)
        bundles = [solutions, tuple(map(_printed, solutions)), solutions[:-1] + (moved,)]
        warm, _ = _assert_kept_rows_change_nothing(config, param, top.window, bundles)
        assert all(c.passed for c in warm[:2 * len(solutions)])

    def test_rows_are_tuples_and_the_cache_is_bounded(self):
        # the sides and rows are tuples, which no caller can change, and a
        # loop over distinct problems keeps at most _ROWS rows
        (plus, _), (minus, _) = _box_sides((F(1, 3), F(-2, 5), F(7)), (2, -3, 1))
        assert (plus, minus) == (((1, 3, 2), (7, 1, 1)), ((-2, 5, -3),))
        assert all(type(row) is tuple for row in (_box_row(plus, 2, 3), _box_row(minus, -1, 0)))
        _box_row.cache_clear()
        for e in (20, 30, 40):
            pencil = build_config([(1,), (e,)])
            for k in (1, 2, 3):
                for bundle in solution_bundle(pencil, [F(k, 7)], window=(-10, 20)).bundles:
                    assert all(c.passed for c in certify_bundle(
                        pencil, bundle.parameter, bundle.solutions
                    ))
        info = _box_row.cache_info()
        assert info.maxsize == _ROWS and info.currsize == _ROWS < info.misses


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
    degrees go up to 4; the window may have lo == hi, and the series may
    have no terms at all.  Every term lies in the window, as make requires
    (TestOtherGrid.test_terms_off_the_grid).
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
            st.tuples(st.integers(lo, hi), st.integers(0, top)),
            st.fractions(min_value=-6, max_value=6, max_denominator=9),
            max_size=12,
        )
    )
    series = LogSeries.make(base, config.relation, (lo, hi), terms)
    key = (draw(st.integers(lo, hi)), draw(st.integers(0, top)))
    bump = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    return config, series, corrupt(series, key, series.coefficient(*key) + bump)


def _box_case(points, base, window, terms, key, bump):
    """A fixed box_cases draw: a series and its copy bumped at key."""
    config = build_config(points)
    series = LogSeries.make(base, config.relation, window, terms)
    return config, series, corrupt(series, key, series.coefficient(*key) + bump)


class TestClosedFormBox:
    """The closed-form box against literal derivative passes, report for report."""

    @settings(max_examples=200, deadline=None)
    @given(case=box_cases())
    # the edges of the shifts checked: a column at z = hi only (its bumped
    # copy adds one at lo), a column at z = lo only, and lo == hi with terms
    @example(case=_box_case(
        TRIANGLE, (F(1, 2), F(-1, 3), F(5, 2)), (-1, 2), {(2, 0): F(3), (2, 1): F(-1, 2)},
        (-1, 0), F(1, 3),
    ))
    @example(case=_box_case(
        GAUSS, (F(0), F(1, 5), F(-1, 2), F(-1, 3)), (0, 3), {(0, 0): F(1), (0, 2): F(2, 3)},
        (0, 1), F(-4, 5),
    ))
    @example(case=_box_case(
        TRIANGLE, (F(2), F(0), F(8)), (1, 1), {(1, 0): F(1), (1, 1): F(-2)}, (1, 2), F(1),
    ))
    # the same edges for log-free series, which the box checks from their
    # Fractions directly: a column at hi only, a column at lo only, and one
    # coefficient of a solution bumped
    @example(case=_box_case(
        TRIANGLE, (F(1, 2), F(-1, 3), F(5, 2)), (-1, 2), {(2, 0): F(3)}, (2, 0), F(1, 3),
    ))
    @example(case=_box_case(
        GAUSS, (F(0), F(1, 5), F(-1, 2), F(-1, 3)), (0, 3), {(0, 0): F(-2, 7)}, (0, 0), F(1),
    ))
    @example(case=_box_case(
        TRIANGLE, (F(1, 2), F(-1, 3), F(5, 2)), (-1, 3),
        {(-1, 0): F(-2, 189), (0, 0): F(1), (1, 0): F(15, 4), (2, 0): F(-9, 40),
         (3, 0): F(-81, 896)},
        (1, 0), F(1, 5),
    ))
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
        # long runs of log-free factors: relations (60, -1) and (39, 1, -40)
        cases.append((build_config([(1,), (60,)]), [F(1, 7)], (-2, 2)))
        cases.append((build_config([(1, 0), (1, 40), (1, 1)]), [F(1, 3), F(2, 5)], (0, 3)))
        for config, beta, window in cases:
            report = solution_bundle(config, beta, window=window)
            for bundle in report.bundles:
                for series in bundle.solutions:
                    box = apply_box(config, series)
                    assert box.passed and box == literal_box(config, series)
                    key = (rng.randint(*window), rng.randint(0, series.max_log_degree))
                    broken = corrupt(series, key, series.coefficient(*key) + F(1, 3))
                    assert apply_box(config, broken) == literal_box(config, broken)


    @pytest.mark.parametrize("points, beta, window", [
        ([(1,), (150,)], [F(1, 7)], (-3, 2)),
        ([(1,), (79,)], [F(2, 9)], (-3, 2)),
        ([(1, 0), (1, 80), (1, 1)], [F(1, 3), F(2, 5)], (-1, 3)),
    ])
    def test_long_integral_runs_match(self, points, beta, window):
        # log-free series whose positive side holds an integral column of 150
        # or 79 factors: the certificate takes each run as a falling
        # factorial, all-negative (of even and odd length) at the negative
        # shifts and through 0 where the series starts.  Each coefficient in
        # turn is bumped, which puts a column at each of those shifts
        config = build_config(points)
        report = solution_bundle(config, beta, window=window)
        lo, hi = window
        for bundle in report.bundles[:6] + report.bundles[-2:]:  # a sample, for time
            (series,) = bundle.solutions
            box = apply_box(config, series)
            assert box.passed and box == literal_box(config, series)
            for z in range(lo, hi + 1):
                broken = corrupt(series, (z, 0), series.coefficient(z) + F(1, 3))
                assert apply_box(config, broken) == literal_box(config, broken)


    def test_one_term_of_high_log_degree(self, triangle):
        # rows r!/k! are built for the log degrees the series holds only:
        # one term at degree 2,000 is one row, not 2,001^2 / 2 perms
        base = (F(1, 2), F(-1, 3), F(5, 2))
        for degree in (40, 2000):
            series = LogSeries.make(base, triangle.relation, (0, 1), {(0, degree): F(1)})
            report = apply_box(triangle, series)
            assert not report.passed and report.safe_window == (0, 0)
            # F-_0 has degree 2 in eps: the image of the term starts at degree - 2
            assert report.first_failure[:2] == (0, degree - 2)
            if degree == 40:
                assert report == literal_box(triangle, series)


def _bumped(solutions, r, key, delta):
    """The bundle with the numerator of solution r's term at key moved by delta."""
    s = solutions[r]
    c = s.terms[key]
    changed = corrupt(s, key, F(c.numerator + delta, c.denominator))
    return solutions[:r] + (changed,) + solutions[r + 1:]


def _scales(base, relation):
    """prod_mu q_mu^|rel[mu]| over the positive side, and over the negative
    side, for base[mu] = p_mu/q_mu: the scales of the integer box rows."""
    plus = minus = 1
    for w, e in zip(base, relation):
        if e > 0:
            plus *= F(w).denominator ** e
        else:
            minus *= F(w).denominator ** -e
    return plus, minus


def _division_lemma_holds(config, series) -> bool:
    """Whether, at every shift z of the safe window where the scaled constant
    term P0 of F+_{z+1} is not 0, the lcm of column z+1's denominators divides
    column z's lcm times minus_scale times P0^(top+1), top the series' top log
    degree and an empty column over 1.  Read with box_side_reference only."""
    base, rel, (lo, hi) = series.base_exponent, series.relation, series.window
    top = series.max_log_degree
    plus, minus = _scales(base, rel)
    dens = {}
    for (z, _), c in series.terms.items():
        dens[z] = lcm(dens.get(z, 1), c.denominator)
    for z in range(lo, hi):
        p0 = plus * box_side_reference(base, rel, True, z + 1, 0)[0]
        assert p0.denominator == 1
        if p0 and dens.get(z, 1) * minus * int(p0) ** (top + 1) % dens.get(z + 1, 1):
            return False
    return True


class TestDivisionCheck:
    """Each shift passes by one exact division or is cross-multiplied: both
    ways out give literal_box's residual and first failure."""

    @staticmethod
    def cases():
        """(config, parameter, solutions, solution indices to bump): the quintic
        mirror at (0, 200), of top log degree 4 and coefficients of thousands
        of bits, its top and one lower solution; the log-free bundles of
        [(1), (15)] at beta = 1/7 on (-2, 2), each of which starts at a root
        of F+, where P0 = 0; and the three bundles of relation (2, 1, -2, 1)
        at (0, 40), one of two solutions on base (1, 12/7, -4/7, 1), whose
        positive side has scale 7."""
        quintic = build_config(QUINTIC)
        (bundle,) = solution_bundle(quintic, (-1, 0, 0, 0, 0), window=(0, 200)).bundles
        cases = [(quintic, bundle.parameter, bundle.solutions, (4, 1))]
        problems = [
            ([(1,), (15,)], [F(1, 7)], (-2, 2)),
            ([(2, 0, -1, 1), (-2, 0, 1, 0), (1, 2, -1, 2), (0, 4, -1, 2)],
             [-2, F(20, 7), F(2, 7), F(13, 7)], (0, 40)),
        ]
        for points, beta, window in problems:
            config = build_config(points)
            for bundle in solution_bundle(config, beta, window=window).bundles:
                top = len(bundle.solutions) - 1
                cases.append((config, bundle.parameter, bundle.solutions, (top, 0)[:top + 1]))
        return cases

    def test_bumped_numerator_reads_as_literal_box(self):
        # one numerator moved by +-1 at each edge of the series' z range and
        # in between, in the top solution and in a lower one
        for config, param, solutions, indices in self.cases():
            for r in indices:
                keys = sorted(solutions[r].terms)
                for key, delta in zip((keys[0], keys[len(keys) // 2], keys[-1]), (1, -1, 1)):
                    broken = _bumped(solutions, r, key, delta if r else -delta)
                    expected = literal_box(config, broken[r])
                    assert not expected.passed
                    got = certify_bundle(config, param, broken)
                    assert [c.passed for c in got] == [i != r for i in range(len(got))]
                    for box in (got[r].box, certify(config, param, broken[r]).box):
                        assert box == expected
                        assert box.residual == expected.residual
                        assert box.first_failure == expected.first_failure

    def test_terms_at_each_edge_of_the_window(self, triangle):
        # a column at lo and one at hi only: the shifts next to them meet an
        # empty column, for a log series and a log-free one, both bumped.  A
        # column over 10^30 alone, past D0 * minus_scale * X, divides with
        # quotient 0 and a remainder, which must not read as a pass
        base = (F(1, 2), F(-1, 3), F(5, 2))
        for terms in ({(-1, 0): F(3, 4), (-1, 1): F(-1, 2), (2, 0): F(5, 7), (2, 2): F(1, 3)},
                      {(-1, 0): F(3, 4), (2, 0): F(5, 7)},
                      {(2, 0): F(3, 10**30), (2, 1): F(1, 7)}, {(2, 0): F(3, 10**30)}):
            series = LogSeries.make(base, triangle.relation, (-1, 2), terms)
            for key, delta in [(None, 0), (min(terms), 1), (max(terms), -1)]:
                s = series if key is None else _bumped((series,), 0, key, delta)[0]
                expected = literal_box(triangle, s)
                assert expected.residual and apply_box(triangle, s) == expected
                (got,) = certify_bundle(triangle, [0, 0], (s,))
                assert got.box == expected and got.box.first_failure == expected.first_failure

    def test_passing_shifts_divide_exactly(self, monkeypatch):
        # a passing series leaves the box at every shift by the division's
        # quotient, and builds no Fraction: wherever P0 != 0 in a series with
        # logs, and at every shift, roots included, in a log-free one
        import gkz1.verify as verify

        divisions = []  # [remainder, products the quotient took part in]

        class Quotient(int):
            def __mul__(self, other):
                divisions[self.index][1] += 1
                return int(self) * other

            __rmul__ = __mul__

        def counted(a, b):
            quotient, rem = divmod(a, b)
            quotient = Quotient(quotient)
            quotient.index = len(divisions)
            divisions.append([rem, 0])
            return quotient, rem

        monkeypatch.setattr(verify, "divmod", counted, raising=False)
        for config, param, solutions, _ in self.cases():
            series = solutions[-1]
            base, (lo, hi), top = series.base_exponent, series.window, series.max_log_degree
            divisions.clear()
            assert _fractions_built(lambda: apply_box(config, series)) == 0
            shifts = {z for z, _ in series.terms if z < hi} | {z - 1 for z, _ in series.terms if z > lo}
            if top:
                shifts = {z for z in shifts
                          if box_side_reference(base, series.relation, True, z + 1, 0)[0]}
            assert len(divisions) == len(shifts) > 0
            assert all(rem == 0 and used for rem, used in divisions)

    @settings(max_examples=60, deadline=None)
    @given(case=bundle_cases())
    def test_division_lemma(self, case):
        # the claim the division rests on, read from the built series with no
        # gkz1.verify code: a correct series never needs the cross-multiplication
        # where F+'s constant term is nonzero
        config, _, solutions = case
        assert all(_division_lemma_holds(config, s) for s in solutions)

    def test_division_lemma_on_wide_windows(self):
        for config, _, solutions, _ in self.cases():
            assert all(_division_lemma_holds(config, s) for s in solutions)


class TestEulerAgainstTermwise:
    """Each homogeneity row against the term-by-term reference, report for report."""

    @settings(max_examples=100, deadline=None)
    @given(case=box_cases(), data=st.data())
    def test_reports_equal_termwise_reference(self, case, data):
        config, series, _ = case
        beta = config.column_combination(series.base_exponent)
        small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        wrong = [b + data.draw(small) for b in beta]
        mu = data.draw(st.integers(0, config.n - 1))
        base = list(series.base_exponent)
        base[mu] += data.draw(small.filter(bool))
        moved = LogSeries.make(base, series.relation, series.window, series.terms)
        for param, s in [(beta, series), (wrong, series), (beta, moved)]:
            expected = tuple(
                apply_euler_row_reference(config, param, s, row) for row in range(config.dim)
            )
            for row in range(config.dim):
                assert apply_euler_row(config, param, s, row) == expected[row]
            # every row at once, over one common denominator, reads alike
            assert apply_euler(config, param, s) == expected
            assert certify(config, param, s).euler == expected
        assert all(apply_euler_row(config, beta, series, row).passed for row in range(config.dim))


def _failure_dict(report):
    """The first_failure entry to_json_dict() should give for a report."""
    z, r, value = report.first_failure
    return {"z": z, "r": r, "residual": str(value)}


class TestFailureJson:
    """to_json_dict() of failing reports, against the literal routes."""

    def test_wrong_parameter(self, triangle, gauss):
        cases = [
            (triangle, [10, 8], [11, 8], (F(2), F(0), F(8)), 1, (-5, 10)),
            (gauss, (F(-1, 2), F(-1, 3), F(1)), (F(-1, 2), F(1, 3), F(1)),
             (F(0), F(1), F(-1, 2), F(-1, 3)), 1, (-4, 8)),
        ]
        for config, beta, wrong, v, r, window in cases:
            solution = log_solution(config, v, (0,) * config.n, r, window)
            data = certify(config, wrong, solution).to_json_dict()
            assert data["passed"] is False and data["box"]["first_failure"] is None
            failed = 0
            for row, entry in enumerate(data["euler"]):
                expected = apply_euler_row_reference(config, wrong, solution, row)
                assert entry["passed"] is expected.passed
                if expected.passed:
                    assert entry["first_failure"] is None
                else:
                    failed += 1
                    assert entry["first_failure"] == _failure_dict(expected)
            assert failed

    def test_perturbed_coefficient(self, triangle, gauss):
        cases = [
            (triangle, [10, 8], (F(2), F(0), F(8)), (-5, 10), (3, 1), F(1, 3)),
            (gauss, (F(-1, 2), F(-1, 3), F(1)), (F(0), F(1), F(-1, 2), F(-1, 3)),
             (-4, 8), (2, 0), F(-5, 7)),
        ]
        for config, beta, v, window, key, bump in cases:
            solution = log_solution(config, v, (0,) * config.n, 1, window)
            broken = corrupt(solution, key, solution.coefficient(*key) + bump)
            data = certify(config, beta, broken).to_json_dict()
            expected = literal_box(config, broken)
            assert data["passed"] is False and expected.first_failure is not None
            assert data["box"]["first_failure"] == _failure_dict(expected)
            assert data["box"]["safe_window"] == list(expected.safe_window)
            for row, entry in enumerate(data["euler"]):
                reference = apply_euler_row_reference(config, beta, broken, row)
                assert entry["passed"] is reference.passed is True
                assert entry["first_failure"] is None


class TestOtherGrid:
    """A series, or a parameter, from another grid is refused, not certified."""

    @pytest.fixture
    def case(self, triangle):
        bundle = solution_bundle(triangle, [10, 8], window=(-5, 10)).bundles[0]
        return triangle, bundle.parameter, bundle.solutions[0]

    def refused(self, config, param, series, *shapes):
        checks = [
            lambda: apply_box(config, series),
            lambda: apply_euler_row(config, param, series, 0),
            lambda: apply_euler(config, param, series),
            lambda: certify(config, param, series),
        ]
        for check in checks:
            with pytest.raises(ValueError) as info:
                check()
            for shape in shapes:
                assert shape in str(info.value)

    def test_relation_negated_or_doubled(self, case):
        config, param, series = case
        for relation in [(-1, -1, 2), (2, 2, -4)]:
            other = LogSeries(series.base_exponent, relation, series.window, series.terms)
            self.refused(config, param, other, str(relation), str(config.relation))

    def test_relation_negated_through_json(self, case):
        config, param, series = case
        data = series.to_json_dict()
        data["relation"] = [-e for e in data["relation"]]
        other = LogSeries.from_json_dict(data)
        self.refused(config, param, other, "(-1, -1, 2)", "(1, 1, -2)")

    def test_base_exponent_entry_added_or_missing(self, case):
        config, param, series = case
        for base in [series.base_exponent + (F(1),), series.base_exponent[:2]]:
            other = LogSeries(base, series.relation, series.window, series.terms)
            self.refused(config, param, other, f"{len(base)} entries", "3 columns")

    def test_parameter_entry_added_or_missing(self, case):
        config, param, series = case
        assert apply_box(config, series).passed
        for wrong in [tuple(param) + (F(1),), tuple(param[:1])]:
            for check in [
                lambda: apply_euler_row(config, wrong, series, 0),
                lambda: apply_euler(config, wrong, series),
                lambda: certify(config, wrong, series),
            ]:
                with pytest.raises(ValueError, match=f"{len(wrong)} entries.* 2 rows"):
                    check()

    def test_terms_off_the_grid(self, case, triangle):
        # a negative log degree or a shift outside the window is no term of
        # the series: make refuses it, and a certificate refuses it in a
        # series built without make
        config, param, series = case
        for key in [(0, -1), (11, 0), (-6, 2)]:
            with pytest.raises(InputError, match=re.escape(f"term {key}: off the grid")):
                corrupt(series, key, 1)
            terms = {**series.terms, key: F(2)}
            other = LogSeries(series.base_exponent, series.relation, series.window, terms)
            self.refused(config, param, other, f"series term {key} is off its grid")
        off = {(0, -1): 1, (5, 0): 2}
        with pytest.raises(InputError):
            certify(triangle, [10, 8], LogSeries.make((2, 0, 8), (1, 1, -2), (0, 1), off))
        plain = LogSeries((F(2), F(0), F(8)), (1, 1, -2), (0, 1), {k: F(c) for k, c in off.items()})
        with pytest.raises(ValueError, match="off its grid"):
            certify(triangle, [10, 8], plain)

    def test_loose_series_read_as_make_reads_it(self, case):
        # a series built by its constructor, with strings for numbers and lists
        # for tuples, is certified as the series make builds from the same data
        config, param, series = case
        key = (3, 1)
        for terms in [series.terms, corrupt(series, key, F(1, 2)).terms]:
            made = LogSeries.make(series.base_exponent, series.relation, series.window, terms)
            loose = LogSeries(
                [str(w) for w in series.base_exponent], list(series.relation),
                list(series.window), {k: str(c) for k, c in terms.items()},
            )
            assert certify(config, param, loose) == certify(config, param, made)
        assert not certify(config, param, loose).passed

    def test_relation_as_a_list_still_runs(self, case):
        config, param, series = case
        listed = LogSeries(series.base_exponent, list(series.relation), series.window, series.terms)
        assert certify(config, param, listed) == certify(config, param, series)
        assert certify(config, param, listed).passed


def test_certificate_imports_no_builder():
    # the certificate reads series as data; it shares no code with their builders
    import gkz1.verify as verify

    names = {getattr(value, "__module__", None) for value in vars(verify).values()}
    names |= {value.__name__ for value in vars(verify).values() if isinstance(value, ModuleType)}
    assert not names & {"gkz1.series", "gkz1.coefficients", "gkz1.exponents"}


def _bundles():
    """(config, parameter, solutions) of each bundle of the triangle at
    beta = (10, 8), of the quintic mirror at window (0, 6) and of the Gauss
    log branch."""
    problems = [
        (TRIANGLE, [10, 8], (0, 10)),
        (QUINTIC, (-1, 0, 0, 0, 0), (0, 6)),
        (GAUSS, (F(-1, 2), F(-1, 3), F(1)), (-4, 8)),  # sigma = 2
    ]
    cases = []
    for points, beta, window in problems:
        config = build_config(points)
        for bundle in solution_bundle(config, beta, window=window).bundles:
            cases.append((config, bundle.parameter, bundle.solutions))
    assert max(len(solutions) for _, _, solutions in cases) == 5
    return cases


def _reports(config, param, solutions):
    """What the five certificate entry points report on a bundle's solutions."""
    return [certify_bundle(config, param, solutions)] + [
        (certify(config, param, s), apply_box(config, s), apply_euler(config, param, s),
         *(apply_euler_row(config, param, s, row) for row in range(config.dim)))
        for s in solutions
    ]


def test_certificate_runs_no_builder_code():
    # every Python call the entry points make, traced: none runs code of a
    # builder, so the certificate reads a series as its four fields only
    package = Path(gkz1.__file__).parent
    ran = set()

    def profile(frame, event, arg):
        path = Path(frame.f_code.co_filename)
        if event == "call" and path.parent == package:
            ran.add(f"{path.name}:{frame.f_code.co_name}")

    for config, param, solutions in _bundles():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            _reports(config, param, solutions)
        finally:
            sys.setprofile(previous)
    assert {"verify.py:certify_bundle", "verify.py:_box", "verify.py:_image"} <= ran
    builders = {f"{name}.py" for name in ("series", "coefficients", "exponents", "classify")}
    assert not {call for call in ran if call.split(":")[0] in builders}


def test_four_field_copies_read_as_the_series():
    # a certificate takes anything with a series' four fields: a namedtuple,
    # or a SimpleNamespace with a list window, reports as the LogSeries does;
    # certify_bundle reads its solutions from any iterable
    Fields = namedtuple("Fields", "base_exponent relation window terms")
    for config, param, solutions in _bundles():
        expected = _reports(config, param, solutions)
        assert certify_bundle(config, param, iter(solutions)) == expected[0]
        copies = [
            [Fields(s.base_exponent, s.relation, s.window, s.terms) for s in solutions],
            [SimpleNamespace(base_exponent=s.base_exponent, relation=s.relation,
                             window=list(s.window), terms=s.terms) for s in solutions],
        ]
        for copy in copies:
            assert _reports(config, param, copy) == expected
