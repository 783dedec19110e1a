import re
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkz1 import coefficient_M
from gkz1._linalg import _product, _times_linear
from gkz1.coefficients import _reciprocal, _times
from gkz1.lattice import _box_row
from gkz1.errors import ExcludedCase, InputError

from reference import (
    DegreeTooLarge,
    coefficient_M_reference,
    elementary_symmetric,
    f_coefficients,
    falling_factorial,
    pochhammer,
)

# sample values covering the regimes: nonnegative integers, positive and
# negative rationals, and the sigma-1 style parameter from the worked cases
SAMPLES = [F(0), F(1), F(8), F(1, 2), F(-1, 3), F(-4, 5), F(-7, 3)]


def test_pochhammer_values():
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(123, 7), 0) == 1
    assert pochhammer(-2, 4) == 0


@settings(max_examples=80, deadline=None)
@given(
    v=st.fractions(max_denominator=6, min_value=-6, max_value=6),
    a=st.integers(min_value=0, max_value=6),
    b=st.integers(min_value=0, max_value=6),
)
def test_pochhammer_splits(v, a, b):
    assert pochhammer(v, a + b) == pochhammer(v, a) * pochhammer(v + a, b)


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(F(1, 2), -1)


def test_elementary_symmetric_rejects_negative_degree():
    with pytest.raises(ValueError):
        elementary_symmetric(-1, [1, 2])


def test_f_coefficients_rejects_negative_log_power():
    with pytest.raises(ValueError):
        f_coefficients(F(1, 2), -1, 3)


def test_elementary_symmetric():
    assert elementary_symmetric(0, [F(5), F(-2)]) == 1
    assert elementary_symmetric(2, [1, 2, 3]) == 11
    assert elementary_symmetric(1, [F(7, 3)]) == F(7, 3)
    with pytest.raises(DegreeTooLarge):
        elementary_symmetric(3, [1, 2])


class TestCoefficientM:
    def test_l_zero(self):
        for v in SAMPLES:
            assert coefficient_M(0, 0, v) == 1
            assert coefficient_M(0, 1, v) == 0
            assert coefficient_M(0, 3, v) == 0

    def test_known_values(self):
        assert coefficient_M(2, 1, 0) == F(-3, 4)
        assert coefficient_M(-2, 0, 8) == 56
        for v in SAMPLES:
            assert coefficient_M(-3, 3, v) == 1
            assert coefficient_M(-1, 1, v) == 1

    def test_excluded_case(self):
        with pytest.raises(ExcludedCase):
            coefficient_M(2, 0, -1)
        with pytest.raises(ExcludedCase):
            coefficient_M(5, 2, -3)
        # one step outside the excluded strip everything is fine
        assert coefficient_M(2, 0, -3) == F(1, 2)

    def test_fast_paths_match_defining_sums(self):
        for v in SAMPLES:
            for l in range(-8, 9):
                for s in range(4):
                    if v.denominator == 1 and v < 0 and l > 0 and v + l >= 0:
                        continue
                    assert coefficient_M(l, s, v) == coefficient_M_reference(l, s, v), (
                        l,
                        s,
                        v,
                    )

    def test_leading_vanishing_characterization(self):
        for v in SAMPLES:
            for l in range(-8, 9):
                if v.denominator == 1 and v < 0 and l > 0 and v + l >= 0:
                    continue
                vanishes = coefficient_M(l, 0, v) == 0
                expected = v.denominator == 1 and v >= 0 and l < 0 and v + l < 0
                assert vanishes == expected

    def test_long_products_match_defining_sums(self):
        # l up to 300 either way: one-term truncations take their product in one step
        for v in (F(1, 7), F(-3, 5), F(-151), F(40)):
            for l in (-300, -151, 150, 299):
                for s in (0, 1):
                    if v.denominator == 1 and v < 0 and l > 0 and v + l >= 0:
                        continue
                    assert coefficient_M(l, s, v) == coefficient_M_reference(l, s, v), (l, s, v)

    @settings(max_examples=80, deadline=None)
    @given(
        l=st.integers(min_value=-400, max_value=400),
        s=st.integers(min_value=0, max_value=1),
        v=st.integers(min_value=-450, max_value=450),
    )
    # integral v: each one-term product is a run of step 1, taken as a falling
    # factorial; a run through 0, and all-negative runs of even and odd length
    @example(l=-400, s=0, v=399)
    @example(l=-400, s=0, v=-3)
    @example(l=-399, s=1, v=-1)
    @example(l=400, s=0, v=-450)
    @example(l=399, s=1, v=-450)
    @example(l=400, s=0, v=-5)  # excluded
    def test_integral_runs_match_defining_sums(self, l, s, v):
        try:
            expected = coefficient_M_reference(l, s, v)
        except ExcludedCase as exc:
            with pytest.raises(ExcludedCase, match=re.escape(str(exc))):
                coefficient_M(l, s, v)
        else:
            assert coefficient_M(l, s, v) == expected

    def test_float_refused(self):
        with pytest.raises(InputError, match="0.1 is a float"):
            coefficient_M(1, 0, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(min_value=-5, max_value=5),
        b=st.integers(min_value=-5, max_value=5),
        c=st.fractions(max_denominator=5, min_value=-5, max_value=5),
    )
    def test_leading_additivity(self, a, b, c):
        # M(a+b, 0)(c) = M(a, 0)(c) * M(b, 0)(a+c) away from negative integers
        if c.denominator == 1 and (c < 0 or a + c < 0):
            return
        assert coefficient_M(a + b, 0, c) == coefficient_M(a, 0, c) * coefficient_M(
            b, 0, a + c
        )


class TestFCoefficients:
    def test_log_free(self):
        for v in SAMPLES:
            assert f_coefficients(v, 0, -4) == {0: coefficient_M(-4, 0, v)}

    def test_pure_log_power(self):
        assert f_coefficients(F(5, 7), 2, 0) == {0: F(1), 1: F(0), 2: F(0)}

    def test_integrated_five_times(self):
        harmonic = sum(F(1, t) for t in range(1, 6))
        assert f_coefficients(0, 1, 5) == {0: F(1, 120), 1: -F(1, 120) * harmonic}

    def test_excluded_case_propagates(self):
        with pytest.raises(ExcludedCase):
            f_coefficients(-2, 1, 3)

    def test_derivative_recurrence(self):
        # d/dt of the level-l polynomial is the level-(l-1) polynomial:
        # in coefficients, (v+l)*c[s] + (r-s+1)*c[s-1] == next[s]
        for v in SAMPLES:
            for r in range(4):
                for l in range(-5, 6):
                    if v.denominator == 1 and v < 0:
                        if (l > 0 and v + l >= 0) or (l - 1 > 0 and v + l - 1 >= 0):
                            continue
                    current = f_coefficients(v, r, l)
                    lower = f_coefficients(v, r, l - 1)
                    for s in range(r + 1):
                        derived = (v + l) * current[s]
                        if s:
                            derived += (r - s + 1) * current[s - 1]
                        assert derived == lower[s], (v, r, l, s)


def test_falling_factorial():
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(3, 2) == 6
    assert falling_factorial(2, 3) == 0


# runs of integers of step +-1, which are falling factorials, and of step +-q
RUNS = st.builds(
    range, st.integers(-160, 160), st.integers(-160, 160), st.sampled_from([1, -1, 2, -2, 3, -7])
)


class TestRunProducts:
    """The product of a run of integers, which the builder and the certificate share."""

    @settings(max_examples=300, deadline=None)
    @given(cs=RUNS, c=st.integers(-9, 9), slope=st.integers(-6, 6))
    @example(cs=range(5, 5), c=1, slope=0)  # empty
    @example(cs=range(3, -4, -1), c=1, slope=0)  # through 0
    @example(cs=range(-1, -8, -1), c=1, slope=0)  # all negative, odd length
    @example(cs=range(-9, -1), c=1, slope=0)  # all negative, even length
    @example(cs=range(150, 0, -1), c=1, slope=0)
    def test_run_product_is_math_prod(self, cs, c, slope):
        assert _product(cs) == prod(cs)
        row = [c]  # the one-term row of the kernel takes the same product
        _times_linear(row, cs, slope)
        assert row == [c * prod(cs)]

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(-400, 400),
        q=st.sampled_from([1, 2, 3, 7]),
        e=st.integers(-150, 150).filter(bool),
        z=st.integers(-3, 3),
    )
    def test_certificate_constant_is_math_prod(self, p, q, e, z):
        # the scaled factors p + q*(z*e - i), i < |e|, of one column: the
        # box row truncated at eps^0
        run = range(p + q * z * e, p + q * (z * e - abs(e)), -q)
        assert _box_row([(p, q, e)], z, 0) == [prod(run)]


class TestKernel:
    """The truncated-row arithmetic of the coefficient engine and the series step."""

    @settings(max_examples=150, deadline=None)
    @given(
        row=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=4),
        start=st.integers(min_value=-40, max_value=40),
        step=st.sampled_from([-3, -1, 1, 2]),
        count=st.integers(min_value=0, max_value=8),
        slope=st.integers(min_value=-6, max_value=6),
    )
    def test_one_term_product_is_the_constant_term(self, row, start, step, count, slope):
        # the one math.prod over the range is the multi-term walk at x^0
        cs = range(start, start + step * count, step)
        one, many = row[:1], list(row)
        _times_linear(one, cs, slope)
        _times_linear(many, cs, slope)
        assert one == many[:1]
        # and the walk multiplies by each factor c + slope*x in turn
        expected = list(row)
        for c in cs:
            _times(expected, [c, slope] + [0] * len(row))
        assert many == expected

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=6)
        .filter(lambda a: a[0] != 0)
    )
    def test_reciprocal_times_row_is_one(self, a):
        # [x^n] 1/a = r[n] / a0^(n+1); scaled to one denominator a0^(top+1),
        # the truncated product with a is a0^(top+1) * 1
        top = len(a) - 1
        r = _reciprocal(a)
        assert len(r) == len(a)
        scaled = [x * a[0] ** (top - n) for n, x in enumerate(r)]
        _times(scaled, a)
        assert [F(x, a[0] ** (top + 1)) for x in scaled] == [1] + [0] * top
