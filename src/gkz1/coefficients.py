"""Rational constants appearing in iterated integrals of t^v log^r t.

The two-parameter family M(l, s, v) gives the coefficient structure of the
functions obtained from t^v log^r t by |l| integrations (l > 0, constants of
integration zero) or derivations (l < 0): the result is t^(v+l) times a log
polynomial whose coefficients are falling factorials times M values.

Every M value is a Taylor coefficient of one Gamma ratio,

    M(l, s, v) = [x^s] Gamma(v+1+x) / Gamma(v+1+l+x),

which for l <= 0 is the polynomial prod_{k=l+1}^{0} (v+k+x) (elementary
symmetric functions of v, v-1, ..., v+l+1) and for l > 0 the reciprocal of
prod_{k=1}^{l} (v+k+x) (a reciprocal Pochhammer symbol times complete
homogeneous sums).  coefficient_M, the one public function here, takes
one such product for each value, in integers (v = p/q, y = q*x): a run of
factors truncated at x^0 is the product of their constants, an arithmetic
progression of integers, one _product of gkz1._linalg: a falling
factorial for step +-1 (an integral v), one math.prod over its range
otherwise.

The family is undefined when v is a negative integer, l > 0 and v + l >= 0
(the antiderivative then picks up an extra log); requesting that regime is
always a caller bug and raises ExcludedCase.  This strip is closed upward in
l, so a column whose largest l is outside it has every smaller l outside it.

The rows are multiplied by runs of linear factors c + slope*x with
_times_linear, the integer-run kernel of gkz1._linalg, which the box
operator's factors in gkz1.lattice read too.  The rest of the truncated-row
arithmetic is kept here for gkz1.series: _reciprocal gives the reciprocal
series of a row in integers over powers of its constant term, and _times
multiplies two rows.

Nothing here is cached across calls.  The one walk of gkz1.series seeds
one row per column from coefficient_M at the first shift of each run of
member shifts, and steps from there by its two-term recurrence, whose
factors are gkz1.lattice's; its seed, series._seed, is the one caller of
coefficient_M in the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._linalg import _times_linear, integer, rational
from .errors import ExcludedCase


def _is_excluded(l: int, v: Fraction) -> bool:
    p = v.numerator  # in integers: v + l would build a Fraction
    return v.denominator == 1 and p < 0 and l > 0 and p + l >= 0


def _reciprocal(a: list[int]) -> list[int]:
    """r with [x^n] 1/a(x) = r[n] / a[0]^(n+1) for n < len(a); a[0] is nonzero.

    r[n] = -sum_{i=1}^{n} a[i] * a[0]^(i-1) * r[n-i], with the products
    a[i] * a[0]^(i-1) taken once, from one running power of a[0]."""
    a0, power, scaled = a[0], 1, []
    for c in a[1:]:
        scaled.append(c * power)
        power *= a0
    r = [1]
    for _ in scaled:
        r.append(-sum(map(mul, scaled, reversed(r))))
    return r


def _times(a: list[int], b: list[int]) -> None:
    """a <- a * b as polynomials, truncated to len(a) terms, in place; b has
    at least len(a) terms.  Each a[s] reads a[0..s] before any is replaced."""
    for s in range(len(a) - 1, -1, -1):
        a[s] = sum(map(mul, a, b[s::-1]))


def coefficient_M(l: int, s: int, v) -> Fraction:
    """M(l, s, v), the x^s coefficient of the truncated Gamma-ratio product.

    Raises ExcludedCase in the regime where the product has no inverse.
    """
    l, s, v = integer(l, "l"), integer(s, "s"), rational(v, "v")
    if s < 0:
        raise ValueError("s must be nonnegative")
    if _is_excluded(l, v):
        raise ExcludedCase(l, s, v)
    # with v = p/q and y = q*x, each factor q*(v + k + x) is y + p + q*k,
    # so the row of y-coefficients stays integers
    p, q = v.numerator, v.denominator
    a = [1] + [0] * s
    if l <= 0:
        _times_linear(a, range(p + q * (l + 1), p + q, q), 1)
        return Fraction(a[s] * q**s, q**-l)
    _times_linear(a, range(p + q, p + q * (l + 1), q), 1)
    return Fraction(_reciprocal(a)[s] * q ** (l + s), a[0] ** (s + 1))

