"""Truncated logarithmic series solutions along the distinguished monomial.

A series lives on the grid of monomials x^(w0 + z*relation) times powers of
log x0, with w0 the base exponent.  Windows restrict z; every stored
coefficient is the exact value of the full series at that grid point, so a
"truncation" is a restriction, never an approximation.

A bundle's eps-products C(z, eps) follow the two-term recurrence of the box
operator, C(z) * F+_z = C(z-1) * F-_{z-1}: each run of consecutive shifts is
seeded once, from one coefficient row per column (log-free, one value per
column, its numerator and denominator multiplied in), and every later shift
is one step by the box operator's rows of gkz1.lattice, whose cache keeps
them for the certificate, which asks for the same rows.  Each C(z) is kept
as its row, integer numerators over one denominator, with no Fraction;
these rows are a bundle's one data format.
Each solution holds them at its degree (LogSeries.rows), the certificate
reads them as they are, and gkz1.cli writes each coefficient from them, so
a Fraction is made only where a caller reads a series' terms.  A row's
content gcd(den, *num) is 1, so a log-free row's one entry is in lowest
terms, which the writer relies on; under lowest_terms=False, which gkz1
verify passes as it prints no coefficient, a log-free row stepped by a
ratio wider than one int digit is left unreduced instead.

One builder, _build, makes the certificates and the solutions of an
exponent, from the members of its distinct memberships; one membership, as
every bundle of multiplicity 1 has, gives them ascending with no set and no
sort.  solution_bundle builds each exponent up to its multiplicity, and
a degree is read off the bundle by SolutionBundle.solution; log_solution
builds up to the degree it is asked for and reads it off by the same rule.
phi_series, the log-free series of one multiset q, runs the same walk on
each column alone, truncated at q's count of it, so every coefficient here
comes from that one walk.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, perm, prod
from operator import mul
from sys import int_info

from ._linalg import fracs, grid_fields, integer, integers, pair, sequence, window_bounds
from ._record import Record
from .coefficients import _is_excluded, _reciprocal, _times, coefficient_M
from .errors import (
    ExcludedCase,
    HypothesisViolated,
    InputError,
    LiftMismatch,
    NegativeDegree,
    NotMinimalSupport,
    RNotLessThanMultiplicity,
)
from .exponents import (
    _support_verdicts,
    exponent_set_prime,
    exponent_vector,
    integer_lift,
    lift_vector,
    m_support,
)
from .lattice import LatticeConfig, _box_row, _box_sides, parameter

# the shifts z that a series keeps when no window is given, ends included
DEFAULT_WINDOW = (-10, 20)
# one digit of a CPython int: an unreduced log-free step is one wider than this
_DIGIT = 1 << int_info.bits_per_digit


def _fields(data, where: str, names: tuple) -> list:
    """The values of the named fields of a JSON object, in that order."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object, got {data!r}")
    for name in names:
        if name not in data:
            raise InputError(f"{where}: missing field {name!r}")
    return [data[name] for name in names]


class LogSeries(Record):
    """Exact coefficients c[(z, r)] of x^(base + z*relation) * log^r x0.

    A series that _assemble builds holds rows = (products, r), its bundle's
    rows z -> ((N_0, ..., N_top), den) and its degree r <= top, and its terms
    c[(z, r-s)] = r!/(r-s)! * N_s/den are made as Fractions on each read (so
    keep them to read them often); coefficient, log_part, is_zero and
    max_log_degree read the rows instead, and make a Fraction only for an
    entry they return.  Any other series has rows None.
    """

    rows = None

    def __init__(self, base_exponent, relation, window, terms):
        self._set(base_exponent=base_exponent, relation=relation, window=window, terms=terms)

    def __getattr__(self, name):
        if name != "terms" or self.rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        products, r = self.rows
        return {
            (z, r - s): Fraction(perm(r, s) * x, den)
            for s in range(r + 1) for z, (num, den) in products.items() if (x := num[s])
        }

    @classmethod
    def make(cls, base_exponent, relation, window, terms) -> "LogSeries":
        """A series from loose data read by _linalg.grid_fields; zeros are dropped.

        Every key (z, r) must lie on the grid: lo <= z <= hi and r >= 0.
        """
        base, relation, window, terms, off = grid_fields(base_exponent, relation, window, terms)
        if off is not None:
            raise InputError(f"term {off!r}: off the grid z in {list(window)}, r >= 0")
        return cls(base, relation, window, {k: c for k, c in terms.items() if c})

    def coefficient(self, z: int, r: int = 0) -> Fraction:
        """c[(z, r)], one Fraction made; of a series with rows, read from its row."""
        if self.rows is None:
            return self.terms.get((z, r), Fraction(0))
        products, degree = self.rows
        s, row = degree - r, products.get(z)
        if row is None or not 0 <= s <= degree:
            return Fraction(0)
        return Fraction(perm(degree, s) * row[0][s], row[1])

    @property
    def max_log_degree(self) -> int:
        if self.rows is None:
            return max((r for _, r in self.terms), default=0)
        products, degree = self.rows
        return next((degree - s for s in range(degree + 1) if any(
            num[s] for num, _ in products.values()
        )), 0)

    @property
    def is_zero(self) -> bool:
        if self.rows is None:
            return not self.terms
        products, degree = self.rows
        return not any(any(num[:degree + 1]) for num, _ in products.values())

    def log_part(self, r: int) -> dict[int, Fraction]:
        """Coefficients {z: c} of log^r x0; of a series with rows, one Fraction each."""
        if self.rows is None:
            return {z: c for (z, rr), c in self.terms.items() if rr == r}
        products, degree = self.rows
        s = degree - r
        if not 0 <= s <= degree:
            return {}
        weight = perm(degree, s)
        return {
            z: Fraction(weight * num[s], den) for z, (num, den) in products.items() if num[s]
        }

    def to_json_dict(self) -> dict:
        return {
            "base_exponent": [str(x) for x in self.base_exponent],
            "relation": list(self.relation),
            "window": list(self.window),
            "terms": [
                {"z": z, "r": r, "coeff": str(c)} for (z, r), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LogSeries":
        """The series to_json_dict wrote; InputError names a bad or repeated field."""
        *head, terms = _fields(data, "series", ("base_exponent", "relation", "window", "terms"))
        keyed = {}
        for i, term in enumerate(sequence(terms, "terms")):
            z, r, coeff = _fields(term, f"terms[{i}]", ("z", "r", "coeff"))
            key = pair((z, r), f"terms[{i}] (z, r)")
            if key in keyed:
                raise InputError(f"terms[{i}]: repeats the term {key!r}")
            keyed[key] = coeff
        return cls.make(*head, keyed)


def phi_series(config: LatticeConfig, v, u_lift, q=(), window=DEFAULT_WINDOW) -> LogSeries:
    """The log-free building-block series for a multiset q of column indices.

    The sum runs over the shifts where the negative support away from q is
    preserved; the exponent must have minimal negative support there, or the
    defining sum would depend on more than the multiset.  Each coefficient is
    the product over the columns mu of M(l, rho[mu], v_mu) at
    l = lift[mu] + z*rel[mu], rho being q's counts: the last entry of
    _epsilon_products on column mu alone, truncated at eps^rho[mu], over
    rel[mu]^rho[mu].  Each walk first checks its column, so in index order
    a refusal names the column and l that _build's walk names.
    """
    vec = exponent_vector(v, config.n)
    lift = lift_vector(config, u_lift)
    rho = Counter(integers(q, "q", config.n))
    lo, hi = window_bounds(window)
    indices = frozenset(range(config.n)) - frozenset(rho)
    verdict = _support_verdicts(config, vec, lift, (indices,))[0]
    if not verdict.minimal:
        raise NotMinimalSupport(indices, lift)
    members = verdict.membership.clip(lo, hi)
    rel, terms = config.relation, {}
    base = tuple(x + l if l else x for x, l in zip(vec, lift))
    walks = [
        _epsilon_products((e,), (v,), (l,), (w,), members, rho[mu])
        for mu, (v, l, e, w) in enumerate(zip(vec, lift, rel, base))
    ]
    scale = prod(e ** rho[mu] for mu, e in enumerate(rel))
    for z in members:
        c = prod(walk[z][0][-1] for walk in walks)
        if c:
            terms[(z, 0)] = Fraction(c, prod(walk[z][1] for walk in walks) * scale)
    return LogSeries(base, rel, (lo, hi), terms)


def _seed(vec, lift, rel, z, top) -> tuple[list[int], int]:
    """C(z, eps) as integer numerators over one denominator: one row per column,
    coefficient_M at l = lift[mu] + z*rel[mu] and s <= top over the lcm of
    their denominators, times rel[mu]^s in integers, multiplied once.  A
    log-free C (top = 0) is the product of one value per column, taken as
    numerators and denominators."""
    if not top:
        num = den = 1
        for v, l0, e in zip(vec, lift, rel):
            c = coefficient_M(l0 + z * e, 0, v)
            num *= c.numerator
            den *= c.denominator
        return [num], den
    num, den = [1] + [0] * top, 1
    for v, l0, e in zip(vec, lift, rel):
        row = [coefficient_M(l0 + z * e, s, v) for s in range(top + 1)]
        d = lcm(*[c.denominator for c in row])
        _times(num, [c.numerator * (d // c.denominator) * e**s for s, c in enumerate(row)])
        den *= d
    return num, den


def _epsilon_products(rel, vec, lift, base, members, top, lowest_terms=True) -> dict[int, tuple]:
    """z -> ((N_0, ..., N_top), den), [eps^s] C(z) = N_s/den, for every member z.

    C(z, eps) = prod_mu sum_{s <= top} M(l_mu(z), s, v_mu) * (rel[mu]*eps)^s
    with l_mu(z) = lift[mu] + z*rel[mu], the product of the Gamma ratios of
    gkz1.coefficients at x = rel[mu]*eps, truncated at eps^top; rel is a
    bundle's relation, or one entry of it for phi_series.  With
    w_mu(z) = v_mu + l_mu(z), the Gamma ratios give the two-term recurrence

        C(z) * F+_z = C(z-1) * F-_{z-1},
        F+_z = prod_{rel[mu] > 0} prod_{i < rel[mu]} (w_mu(z) - i + rel[mu]*eps),
        F-_z = prod_{rel[mu] < 0} prod_{i < |rel[mu]|} (w_mu(z) - i + rel[mu]*eps),

    each an integer row over its scale, from gkz1.lattice's _box_sides and
    _box_row at the base exponent w(0) = base.  The rows are tuples that
    _box_row keeps for its next caller, the certificate: a log step
    multiplies F-_{z-1} into the reciprocal of F+_z, which it builds, and
    writes no row.

    C is seeded by _seed at the first shift of each run of consecutive
    members, where F+_z is not built, and again at a root, a shift where
    F+_z(0) = 0 and the recurrence does not fix C(z).  Every other shift is
    one step from the last, dividing by F+_z through its reciprocal series
    (_reciprocal of gkz1.coefficients).  C is kept as its row: integer
    numerators over one positive denominator, divided by their content
    gcd(den, *num) at each seed and step, so den is the lcm of the entries'
    reduced denominators.  A log-free C (top = 0) is stepped as Fraction
    multiplies, by one ratio p/q with gcds of p and q only, which is faster
    there than the content gcd of the product; under lowest_terms its one
    entry stays in lowest terms.  Without it, a step whose p or q is wider
    than one CPython digit (_DIGIT) multiplies num by p and den by q and
    takes no gcd: den stays positive and the entry's value is the same, but
    it may be left unreduced, which only a printed coefficient would see.
    No Fraction is built.

    Before anything is built, each column is checked, in index order, at
    its largest l over the sorted members: the first in the excluded strip
    of gkz1.coefficients raises ExcludedCase(l, 0, v).  The strip is closed
    upward in l, so when the check passes no column meets it at any member.
    """
    if not members:
        return {}
    for v, l0, e in zip(vec, lift, rel):
        l = l0 + e * (members[-1] if e > 0 else members[0])
        if _is_excluded(l, v):
            raise ExcludedCase(l, 0, v)
    # F+ = _box_row(plus) / scale and F- = _box_row(minus) / unscale
    (plus, scale), (minus, unscale) = _box_sides(base, rel)
    out = {}
    for z in members:
        # scale * F+_z, wanted only after a built z - 1; (0,) asks for a seed
        a = _box_row(plus, z, top) if z - 1 in out else (0,)
        if not a[0]:
            num, den = _seed(vec, lift, rel, z, top)
            g = 0  # the content may hold any prime
        elif not top:
            p, q = _box_row(minus, z - 1, 0)[0] * scale, a[0] * unscale
            if lowest_terms or (abs(p) | abs(q)) < _DIGIT:
                # n/den times p/q in lowest terms, by gcds with p or q, as Fraction does
                g = gcd(p, q)
                p, q = p // g, q // g
                g, h = gcd(num[0], q), gcd(p, den)
                num, den = [num[0] // g * (p // h)], den // h * (q // g)
            else:
                # a ratio wider than one digit: its gcds would cost more than they save
                num, den = [num[0] * p], den * q
            g = 1
        else:
            # [eps^n] 1/a = r[n] / a0^(n+1), so 1/F+ = sum_n r'[n] eps^n / a0^(top+1)
            # with r'[n] = scale * a0^(top-n) * r[n]
            a0 = a[0]
            f = [x * a0 ** (top - n) * scale for n, x in enumerate(_reciprocal(a))]
            _times(f, _box_row(minus, z - 1, top))  # times unscale * F-_{z-1}, read only
            _times(num, f)
            m = unscale * a0 ** (top + 1)
            den *= m
            # the row had content 1, and f is a unit mod any prime not
            # dividing f[0], so every prime of the new content divides m * f[0]
            g = m * f[0]
        # the content gcd(den, *num), taken by gcds with g, which is small
        while (g := gcd(g, den, *num)) > 1:
            num, den = [x // g for x in num], den // g
        if den < 0:
            num, den = [-x for x in num], -den
        out[z] = (tuple(num), den)
    return out


def _assemble(config, base, r, window, products) -> LogSeries:
    """Write the degree-r log solution from the eps-products of its bundle.

    The paper's degree-r solution sums, over multisets rho of columns of size
    s <= r, the product of iterated integrals of rho with total weight
    r!/(r-s)! * prod_mu rel[mu]^rho[mu] on log^(r-s) x0.  Expanding
    C(z, eps) = prod_mu P_mu(z, eps), with P_mu the rel[mu]-scaled Gamma
    ratio of column mu, collects each multiset's product exactly once, so

        c[(z, r-s)] = r!/(r-s)! * [eps^s] C(z, eps),

    the Frobenius eps-derivative of the Gamma series: the solution is
    r! [eps^r] sum_z C(z, eps) x^(w(z) + eps*rel), and x^(eps*rel) carries
    log^k x0 / k! at eps^k.  So the series holds the rows, products, at
    degree r (LogSeries.rows), with entries up to eps^r at the members z of
    the bundle's verdicts; base is v + l and window the pair of ints that
    _build has checked.  The paper restricts each multiset, supported on S,
    to the shifts in membership(S); running over every member instead
    changes no value (README, Series assembly).
    """
    series = LogSeries.__new__(LogSeries)
    series._set(base_exponent=base, relation=config.relation, window=window, rows=(products, r))
    return series


def _build(config, vec, lift, cap, window, lowest_terms=True) -> tuple[tuple, tuple]:
    """The certificates and the solutions of one exponent, for degrees below cap.

    The certificates are the support verdicts of every index set missing
    fewer than cap columns, ordered by the number of columns missing, then
    lexicographically in them, all read off the columns' half-lines in one
    pass (exponents._support_verdicts).  The solutions run from degree 0 up
    to the last degree r for which every index set missing at most r
    columns keeps minimal negative support; all of them read one
    eps-product per shift in the memberships of those sets, each distinct
    membership clipped to the window once, and stepped under lowest_terms
    (_epsilon_products).
    """
    lo, hi = window = window_bounds(window)
    n = config.n
    everything = frozenset(range(n))
    verdicts = _support_verdicts(config, vec, lift, [
        everything.difference(missing)
        for size in range(cap) for missing in combinations(range(n), size)
    ])
    r_top = next((n - len(v.indices) for v in verdicts if not v.minimal), cap) - 1
    # each distinct membership once (equal ones are one IntervalSet), in
    # certificate order, so that clip names the first one too wide for a list
    memberships = [*dict.fromkeys(v.membership for v in verdicts if n - len(v.indices) <= r_top)]
    if len(memberships) == 1:  # one interval at most (_support_verdicts), so ascending
        members = memberships[0]._members(lo, hi)
    else:
        members = sorted({z for membership in memberships for z in membership._members(lo, hi)})
    # only a nonzero lift entry is added: x + 0 would build an equal Fraction
    base = tuple(x + l if l else x for x, l in zip(vec, lift))
    products = _epsilon_products(
        config.relation, vec, lift, base, members, max(r_top, 0), lowest_terms
    )
    # one base and one window object for the bundle, which certify_bundle
    # then need not read for each solution
    solutions = tuple(_assemble(config, base, r, window, products) for r in range(r_top + 1))
    return tuple(verdicts), solutions


def _degree(r: int, multiplicity: int, certificates=(), solutions=()) -> LogSeries:
    """solutions[r], or the error that degree r meets.

    A degree below the multiplicity that the solutions lack fails minimal
    negative support on some index set missing at most r columns; those
    sets are reported, ordered by their sorted missing columns.
    """
    if 0 <= r < len(solutions):
        return solutions[r]
    if r < 0:
        raise NegativeDegree(f"requested log degree r={r} is negative")
    if r >= multiplicity:
        raise RNotLessThanMultiplicity(f"r={r} but multiplicity is {multiplicity}")

    def missing(verdict):
        return sorted(set(range(len(verdict.lift))) - verdict.indices)

    failing = [v for v in certificates if not v.minimal and len(missing(v)) <= r]
    raise HypothesisViolated(v.indices for v in sorted(failing, key=missing))


def log_solution(config: LatticeConfig, v, u_lift, r: int, window=DEFAULT_WINDOW) -> LogSeries:
    """The formal log solution of degree r attached to a normalized exponent.

    Valid for r below the exponent multiplicity, provided the exponent keeps
    minimal negative support on every index set missing at most r columns;
    the failing sets are reported otherwise.  A negative r and an r at or
    above the multiplicity are refused before anything is built; otherwise
    the exponent's solutions below degree r + 1 are built and r is read off
    them as SolutionBundle.solution reads it.
    """
    r = integer(r, "r")
    vec = exponent_vector(v, config.n)
    lift = lift_vector(config, u_lift)
    mv = len(m_support(config, vec))
    if not 0 <= r < mv:
        _degree(r, mv)  # raises
    return _degree(r, mv, *_build(config, vec, lift, r + 1, window))


class SolutionBundle(Record):
    """All log solutions attached to one normalized exponent.

    solutions[r] has top log-degree r; its top-log coefficient equals the
    log-free series.  certificates are the support verdicts that _build
    orders, the first on every column.  Derived from them:
    hypothesis_failures, the index sets without minimal negative support,
    in certificate order, which capped the achievable degree; and
    phi_empty, whether the first verdict's membership is empty, so that
    the log-free series vanishes (the linear-independence hypothesis then
    fails).
    """

    def __init__(self, parameter, exponent, lift, solutions, certificates):
        self._set(
            parameter=parameter, exponent=exponent, lift=lift, solutions=solutions,
            certificates=certificates,
            hypothesis_failures=tuple(v.indices for v in certificates if not v.minimal),
            phi_empty=certificates[0].membership.empty,
        )

    def solution(self, r: int) -> LogSeries:
        """solutions[r]; for a degree the bundle lacks, the error it meets.

        That is NegativeDegree, RNotLessThanMultiplicity or HypothesisViolated,
        exactly as log_solution raises it, without building anything again.
        """
        r = integer(r, "r")
        return _degree(r, self.exponent.multiplicity, self.certificates, self.solutions)


class BundleReport(Record):
    """The bundles of a parameter; total_solutions counts their solutions."""

    def __init__(self, bundles, expected_total):
        self._set(
            bundles=bundles, expected_total=expected_total,
            total_solutions=sum(len(b.solutions) for b in bundles),
        )

    @property
    def complete(self) -> bool:
        return self.total_solutions == self.expected_total and not any(
            b.phi_empty for b in self.bundles
        )


def solution_bundle(
    config: LatticeConfig, beta, u=None, u_lift=None, window=DEFAULT_WINDOW, *,
    lowest_terms=True,
) -> BundleReport:
    """Construct every available log solution for the parameter beta + u.

    Works through the normalized exponents of beta; for each, builds the
    solutions of all degrees the minimal-support hypothesis allows, and
    collects diagnostics instead of failing when it caps out early.  With
    lowest_terms=False a log-free row may be left unreduced where its walk
    steps by a wide ratio (_epsilon_products): its terms, the bundles'
    equality and their certificates are unchanged, and only a reader of
    the rows themselves, such as a writer of coefficients, would see it.
    """
    beta = parameter(config, beta)
    if u_lift is None:
        u_lift = (0,) * config.n if u is None else integer_lift(config, u)
    lift = lift_vector(config, u_lift)
    # sum_mu lift[mu] * a_mu, in integers: the lift and the columns are ints
    u_vec = tuple(sum(map(mul, lift, row)) for row in zip(*config.columns))
    if u is not None and fracs(u, "u") != u_vec:
        raise LiftMismatch("explicit lift does not produce the given u")
    gamma = tuple(b + x for b, x in zip(beta.beta, u_vec))
    primes = exponent_set_prime(config, beta)
    bundles = []
    for exp in primes.exponents:
        certificates, solutions = _build(
            config, exp.vector, lift, exp.multiplicity, window, lowest_terms
        )
        bundles.append(SolutionBundle(gamma, exp, lift, solutions, certificates))
    return BundleReport(tuple(bundles), config.positive_sum)
