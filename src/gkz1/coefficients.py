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
multiplications only.  Truncated at x^0, a run of factors is the product of
their constants, an arithmetic progression of integers once scaled by the
denominator of v, multiplied in one math.prod over its range.  The run hands
each requested l back as integer numerators over one denominator, and builds
no Fraction past its seed: the series multiply those integers, and a
Fraction is built only where a series stores a coefficient.  A log-free seed
is one such product over a power of q, or a power over one, in lowest terms
with no gcd, since every p + q*k is prime to q.

The family is undefined when v is a negative integer, l > 0 and v + l >= 0
(the antiderivative then picks up an extra log); requesting that regime is
always a caller bug and raises ExcludedCase.  This strip is closed upward in
l, so a downward walk whose seed is outside it never enters it.

The truncated-row arithmetic is one kernel, kept here and imported by
gkz1.series: _times_linear multiplies a row by a range of linear factors
c + slope*x, _reciprocal gives the reciprocal series of a row in integers
over powers of its constant term, and _times multiplies two rows.

Nothing here is cached across calls.  The series builder asks for one row
per column at the first shift of each run of member shifts, and steps from
there by the two-term recurrence of gkz1.series, built with the same kernel;
phi_series asks for one run per column over its members.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from ._linalg import integer, rational, sequence
from .errors import ExcludedCase


def _is_excluded(l: int, v: Fraction) -> bool:
    p = v.numerator  # in integers: v + l would build a Fraction
    return v.denominator == 1 and p < 0 and l > 0 and p + l >= 0


def _times_linear(a: list[int], cs: range, slope: int) -> None:
    """a(x) <- a(x) * prod_{c in cs} (c + slope*x), truncated to len(a) terms;
    one term is the product of the constants, one math.prod over cs."""
    top = len(a) - 1
    if not top:
        a[0] *= prod(cs)
        return
    for c in cs:
        for s in range(top, 0, -1):
            a[s] = a[s] * c + a[s - 1] * slope
        a[0] *= c


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


def _log_free(l: int, p: int, q: int) -> tuple[int, int]:
    """M(l, 0, p/q) as (n, d) in lowest terms with d > 0: the product of the
    progression p + q*k, k in (l, 0], over q^-l for l <= 0, and q^l over the
    product for k in (0, l] for l > 0.  Every p + q*k is prime to q, so
    neither needs a gcd; a product is 0 only for q = 1, so 0 is over 1."""
    if l > 0:
        d = prod(range(p + q, p + q * (l + 1), q))
        return (q**l, d) if d > 0 else (-(q**l), -d)
    return prod(range(p + q * (l + 1), p + q, q)), q**-l


def coefficient_run(v, ls, s_max: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """l -> ((n_0, ..., n_s_max), d) with M(l, s, v) = n_s / d, for every l in ls.

    Every l and s_max is read by _linalg.integer first, named ls[i] and s_max.
    Seeds at the largest l, which raises ExcludedCase if that l is excluded;
    no smaller l then is.  A log-free seed (s_max = 0) is _log_free's, stored
    as it is; a longer one takes coefficient_M at each s.  The walk down to
    the smallest l multiplies one linear factor per step, in integers over a
    power of the denominator of v, and crosses the gaps between requested l
    the same way.  Every other requested l gets its integer numerators over
    one denominator, their common factor removed by one gcd: d is the lcm of
    the reduced denominators of the row.  No Fraction is built past a seed.
    """
    s_max = integer(s_max, "s_max")
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    v = rational(v, "v")
    ls = sequence(ls, "ls")
    if not all(type(l) is int for l in ls):  # a type test first, as in _linalg.fracs
        ls = [integer(l, f"ls[{i}]") for i, l in enumerate(ls)]
    wanted = sorted(set(ls), reverse=True)
    if not wanted:
        return {}
    p, q = v.numerator, v.denominator
    l = wanted[0]
    if s_max:
        # P(l)(y/q) = sum(a[s] * y^s) / den, so M(l, s, v) = a[s] * q^s / den
        scaled = [coefficient_M(l, s, v) / q**s for s in range(s_max + 1)]
        den = lcm(*(c.denominator for c in scaled))
        a = [c.numerator * (den // c.denominator) for c in scaled]
        out = {}
    elif _is_excluded(l, v):
        raise ExcludedCase(l, 0, v)
    else:
        n, den = _log_free(l, p, q)
        a, out = [n], {l: ((n,), den)}  # in lowest terms already: no gcd
    q_powers = [q**s for s in range(s_max + 1)]
    for target in wanted[len(out):]:  # past the seed where it is stored
        _times_linear(a, range(p + q * l, p + q * target, -q), 1)
        den *= q ** (l - target)
        l = target
        nums = [x * y for x, y in zip(a, q_powers)]
        g = gcd(den, *nums)
        out[l] = (tuple(x // g for x in nums), den // g)
    return out
