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
homogeneous sums).  One step down in l multiplies by a single linear factor,

    P(l-1) = P(l) * (v+l+x),   truncated at the top degree in x,

so coefficient_run walks a whole range of l downward from one seed, with
multiplications only.

The family is undefined when v is a negative integer, l > 0 and v + l >= 0
(the antiderivative then picks up an extra log); requesting that regime is
always a caller bug and raises ExcludedCase.  This strip is closed upward in
l, so a downward walk whose seed is outside it never enters it.

Nothing here is cached across calls: series memoizes one run per column and
bundle, so no cache outlives the bundle it serves.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DegreeTooLarge, ExcludedCase


def pochhammer(v, l: int) -> Fraction:
    """Rising factorial v(v+1)...(v+l-1); empty product is 1."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    v = Fraction(v)
    result = Fraction(1)
    for t in range(l):
        result *= v + t
    return result


def falling_factorial(r: int, s: int) -> int:
    result = 1
    for t in range(s):
        result *= r - t
    return result


def elementary_symmetric(tau: int, values) -> Fraction:
    """Degree-tau elementary symmetric polynomial of the given rationals."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    values = [Fraction(x) for x in values]
    if tau > len(values):
        raise DegreeTooLarge(f"degree {tau} in {len(values)} variables")
    e = [Fraction(0)] * (tau + 1)
    e[0] = Fraction(1)
    for x in values:
        for t in range(min(tau, len(values)), 0, -1):
            e[t] += x * e[t - 1]
    return e[tau]


def _is_excluded(l: int, v: Fraction) -> bool:
    return v.denominator == 1 and v < 0 and l > 0 and v + l >= 0


def _times_factors(a: list[int], p: int, q: int, ks) -> None:
    """a(y) <- a(y) * prod_{k in ks} (y + p + q*k), truncated to len(a) terms.

    With v = p/q and y = q*x, each factor is q times v + k + x, so the
    coefficients stay integers.
    """
    top = len(a) - 1
    for k in ks:
        c = p + q * k
        for s in range(top, 0, -1):
            a[s] = a[s] * c + a[s - 1]
        a[0] *= c


def coefficient_M(l: int, s: int, v) -> Fraction:
    """M(l, s, v), the x^s coefficient of the truncated Gamma-ratio product.

    Raises ExcludedCase in the regime where the product has no inverse.
    """
    v = Fraction(v)
    if s < 0:
        raise ValueError("s must be nonnegative")
    if _is_excluded(l, v):
        raise ExcludedCase(l, s, v)
    p, q = v.numerator, v.denominator
    a = [1] + [0] * s
    if l <= 0:
        _times_factors(a, p, q, range(l + 1, 1))
        return Fraction(a[s] * q**s, q**-l)
    # reciprocal power series: c[n] / a[0]^(n+1) is the y^n coefficient of 1/a
    _times_factors(a, p, q, range(1, l + 1))
    c = [1]
    for n in range(1, s + 1):
        c.append(-sum(a[i] * c[n - i] * a[0] ** (i - 1) for i in range(1, n + 1)))
    return Fraction(c[s] * q ** (l + s), a[0] ** (s + 1))


def coefficient_run(v, ls, s_max: int) -> dict[int, tuple[Fraction, ...]]:
    """l -> (M(l, 0, v), ..., M(l, s_max, v)) for every l in ls.

    Seeds at the largest l with coefficient_M, which raises ExcludedCase if
    that l is excluded; no smaller l then is.  The walk down to the smallest
    l multiplies one linear factor per step, in integers over a power of the
    denominator of v, and crosses the gaps between requested l the same way.
    A Fraction is built only at the requested l.
    """
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    v = Fraction(v)
    wanted = sorted(set(ls), reverse=True)
    if not wanted:
        return {}
    p, q = v.numerator, v.denominator
    # P(l)(y/q) = sum(a[s] * y^s) / den, so M(l, s, v) = a[s] * q^s / den
    scaled = [coefficient_M(wanted[0], s, v) / q**s for s in range(s_max + 1)]
    den = lcm(*(c.denominator for c in scaled))
    a = [c.numerator * (den // c.denominator) for c in scaled]
    out = {}
    l = wanted[0]
    for target in wanted:
        _times_factors(a, p, q, range(l, target, -1))
        den *= q ** (l - target)
        l = target
        out[l] = tuple(Fraction(a[s] * q**s, den) for s in range(s_max + 1))
    return out


def f_coefficients(v, r: int, l: int) -> dict[int, Fraction]:
    """Log-basis coefficients of the l-th iterate of t^v log^r t.

    Entry s holds the coefficient of log^(r-s) t over the monomial t^(v+l),
    namely M(l, s, v) * r(r-1)...(r-s+1).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    v = Fraction(v)
    return {
        s: coefficient_M(l, s, v) * falling_factorial(r, s) for s in range(r + 1)
    }
