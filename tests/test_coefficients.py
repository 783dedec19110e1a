from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkz1 import coefficient_M, elementary_symmetric, f_coefficients, pochhammer
from gkz1.coefficients import coefficient_run, falling_factorial
from gkz1.errors import DegreeTooLarge, ExcludedCase

from reference import coefficient_M_reference

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


@st.composite
def runs(draw):
    """A coefficient run along a relation line: v, the requested l, s_max.

    The l are lift + z*e over a window of z with some members dropped, kept
    within |l| <= 12 so the reference sums stay cheap.  For a negative
    integer v the lift may put the top l right below the excluded strip.
    """
    v = draw(
        st.one_of(
            st.integers(min_value=-8, max_value=8).map(F),
            st.fractions(max_denominator=7, min_value=-8, max_value=8),
        )
    )
    e = draw(st.integers(min_value=1, max_value=6)) * draw(st.sampled_from((1, -1)))
    lo = draw(st.integers(min_value=-2, max_value=1))
    zs = range(lo, lo + draw(st.integers(min_value=1, max_value=24 // abs(e))) + 1)
    steps = [z * e for z in zs]
    low, high = -12 - min(steps), 12 - max(steps)
    edge = -v.numerator - 1 - max(steps)  # top l = -v - 1, below the strip
    if v.denominator == 1 and v < 0 and low <= edge <= high and draw(st.booleans()):
        lift = edge
    else:
        lift = draw(st.integers(min_value=low, max_value=high))
    kept = [lift + t for t in steps if draw(st.booleans())] or [lift + steps[0]]
    return v, kept, draw(st.integers(min_value=0, max_value=3))


class TestCoefficientRun:
    @settings(max_examples=150, deadline=None)
    @given(case=runs())
    def test_every_stored_value_matches_defining_sums(self, case):
        v, ls, s_max = case
        if v.denominator == 1 and v < 0 and max(ls) + v >= 0 and max(ls) > 0:
            with pytest.raises(ExcludedCase):
                coefficient_run(v, ls, s_max)
            return
        run = coefficient_run(v, ls, s_max)
        assert sorted(run) == sorted(set(ls))
        for l, row in run.items():
            expected = tuple(coefficient_M_reference(l, s, v) for s in range(s_max + 1))
            assert row == expected, (l, v)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=6),
        above=st.integers(min_value=0, max_value=6),
        below=st.integers(min_value=1, max_value=12),
        s_max=st.integers(min_value=0, max_value=3),
    )
    def test_top_inside_excluded_strip_raises(self, m, above, below, s_max):
        # v = -m excludes every l >= m; only the top of the run has to be there
        top = m + above
        with pytest.raises(ExcludedCase):
            coefficient_run(-m, range(top - below, top + 1), s_max)

    def test_zero_factor_and_gaps(self):
        # v = 2: the factor v + k + x is x itself at k = -2, so M(l, 0, 2)
        # vanishes for l <= -3; the walk crosses l = 0 and skips between stored l
        run = coefficient_run(2, (4, 1, -2, -5), 2)
        for l in (4, 1, -2, -5):
            assert run[l] == tuple(coefficient_M_reference(l, s, 2) for s in range(3))
        assert run[-5][0] == 0 and run[-5][1] != 0

    def test_empty_and_invalid(self):
        assert coefficient_run(F(1, 3), [], 2) == {}
        with pytest.raises(ValueError):
            coefficient_run(F(1, 3), [0], -1)
