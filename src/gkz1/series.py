"""Truncated logarithmic series solutions along the distinguished monomial.

A series lives on the grid of monomials x^(w0 + z*relation) times powers of
log x0, with w0 the base exponent.  Windows restrict z; every stored
coefficient is the exact value of the full series at that grid point, so a
"truncation" is a restriction, never an approximation.

A bundle's eps-products C(z, eps) follow the two-term recurrence of the box
operator, C(z) * F+_z = C(z-1) * F-_{z-1}: each run of consecutive shifts is
seeded once, from one coefficient row per column, and every later shift is
one step by small integer factors.  A log-free product is a Fraction, times
one reduced ratio per step: it stays apart from the integer-row walk, which
is slower on log-free bundles.  A longer one stays integers over one running
denominator, stepped with the truncated-row kernel of gkz1.coefficients,
and becomes one Fraction per nonzero (shift, eps degree), whose gcd also
gives the row's common factor.  The assembly stores those, times r!/(r-s)!
where that weight is not 1, in a LogSeries it builds directly.

One builder, _build, makes the certificates and the solutions of an
exponent.  solution_bundle builds each exponent up to its multiplicity, and
a degree is read off the bundle by SolutionBundle.solution; log_solution
builds up to the degree it is asked for and reads it off by the same rule.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, perm

from ._linalg import fracs, grid_fields, integer, integers, pair, sequence, window_bounds
from ._record import Record
from .coefficients import _is_excluded, _reciprocal, _times, _times_linear, coefficient_run
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
    exponent_set_prime,
    exponent_vector,
    integer_lift,
    lift_vector,
    m_support,
    support_verdict,
)
from .lattice import LatticeConfig, parameter

# the shifts z that a series keeps when no window is given, ends included
DEFAULT_WINDOW = (-10, 20)


def _fields(data, where: str, names: tuple) -> list:
    """The values of the named fields of a JSON object, in that order."""
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object, got {data!r}")
    for name in names:
        if name not in data:
            raise InputError(f"{where}: missing field {name!r}")
    return [data[name] for name in names]


class LogSeries(Record):
    """Exact coefficients c[(z, r)] of x^(base + z*relation) * log^r x0."""

    def __init__(self, base_exponent, relation, window, terms):
        self._set(base_exponent=base_exponent, relation=relation, window=window, terms=terms)

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
        return self.terms.get((z, r), Fraction(0))

    @property
    def max_log_degree(self) -> int:
        return max((r for _, r in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def log_part(self, r: int) -> dict[int, Fraction]:
        """Coefficients {z: c} of log^r x0."""
        return {z: c for (z, rr), c in self.terms.items() if rr == r}

    def to_json_dict(self) -> dict:
        return {
            "base_exponent": [str(x) for x in self.base_exponent],
            "relation": list(self.relation),
            "window": list(self.window),
            "terms": [
                {"z": z, "r": r, "coeff": str(self.terms[(z, r)])}
                for z, r in sorted(self.terms)
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
    defining sum would depend on more than the multiset.
    """
    vec = exponent_vector(v, config.n)
    lift = lift_vector(config, u_lift)
    rho = Counter(integers(q, "q", config.n))
    lo, hi = window_bounds(window)
    indices = frozenset(range(config.n)) - frozenset(rho)
    verdict = support_verdict(config, vec, indices, lift)
    if not verdict.minimal:
        raise NotMinimalSupport(indices, lift)
    members = verdict.membership.clip(lo, hi)
    rel, terms = config.relation, {}
    s_max = max(rho.values(), default=0)
    runs = [
        coefficient_run(vec[mu], [lift[mu] + z * rel[mu] for z in members], s_max)
        for mu in range(config.n)
    ]
    for z in members:
        num = den = 1
        for mu in range(config.n):
            nums, d = runs[mu][lift[mu] + z * rel[mu]]
            num *= nums[rho[mu]]
            den *= d
        if num:
            terms[(z, 0)] = Fraction(num, den)
    base = tuple(x + l for x, l in zip(vec, lift))
    return LogSeries(base, rel, (lo, hi), terms)


def _seed(vec, lift, rel, z, top) -> tuple[list[int], int]:
    """C(z, eps) as integer numerators over one denominator: one row per column,
    each from coefficient_run at l = lift[mu] + z*rel[mu], multiplied once."""
    num, den = [1] + [0] * top, 1
    for v, l0, e in zip(vec, lift, rel):
        l = l0 + z * e
        row, d = coefficient_run(v, [l], top)[l]
        _times(num, [c * e**s for s, c in enumerate(row)])
        den *= d
    return num, den


def _linear_factors(factors, z: int, top: int) -> list[int]:
    """prod over (b, q, e) in factors and i < |e| of (b + z*q*e - q*i) + q*e*eps,
    truncated at eps^top: q_mu times each factor w_mu(z) - i + e*eps of F_z."""
    f = [1] + [0] * top
    for b, q, e in factors:
        start = b + z * q * e
        _times_linear(f, range(start, start - q * abs(e), -q), q * e)
    return f


def _epsilon_products(config, vec, lift, members, top) -> dict[int, tuple]:
    """z -> ([eps^0] C(z), ..., [eps^top] C(z)) for every member z.

    C(z, eps) = prod_mu sum_{s <= top} M(l_mu(z), s, v_mu) * (rel[mu]*eps)^s
    with l_mu(z) = lift[mu] + z*rel[mu], the product of the Gamma ratios of
    gkz1.coefficients at x = rel[mu]*eps, truncated at eps^top.  With
    w_mu(z) = v_mu + l_mu(z), the Gamma ratios give the two-term recurrence

        C(z) * F+_z = C(z-1) * F-_{z-1},
        F+_z = prod_{rel[mu] > 0} prod_{i < rel[mu]} (w_mu(z) - i + rel[mu]*eps),
        F-_z = prod_{rel[mu] < 0} prod_{i < |rel[mu]|} (w_mu(z) - i + rel[mu]*eps).

    C is seeded by _seed at the first shift of each run of consecutive
    members, where F+_z is not built, and again at a root, a shift where
    F+_z(0) = 0 and the recurrence does not fix C(z).  Every other shift is
    one step from the last, dividing by F+_z through its reciprocal series
    (_reciprocal of gkz1.coefficients).  A log-free C (top = 0) is a Fraction
    times one reduced ratio per step; otherwise it is one integer row over a
    running denominator.  Each entry meets one gcd, as its Fraction is built,
    and the row is divided by the common factor of those gcds, so it stays
    reduced with no gcd of its own; a zero entry is the int 0.  Before
    anything is built, each column is checked, in index order, at its
    largest l over the members, so ExcludedCase is raised exactly where a
    run of that column over every member would raise it.
    """
    rel = config.relation
    if not members:
        return {}
    # (b, q, e) per column, q_mu * w_mu(z) = b + z*q*e with v_mu = p/q and
    # b = p + q*lift[mu]; F+ = _linear_factors(plus) / scale, F- likewise
    plus, minus, scale, unscale = [], [], 1, 1
    for v, l0, e in zip(vec, lift, rel):
        l = l0 + e * (members[-1] if e > 0 else members[0])
        if _is_excluded(l, v):
            raise ExcludedCase(l, 0, v)
        q = v.denominator
        if e > 0:
            plus.append((v.numerator + q * l0, q, e))
            scale *= q**e
        elif e < 0:
            minus.append((v.numerator + q * l0, q, e))
            unscale *= q**-e
    out = {}
    for z in members:
        # scale * F+_z, wanted only after a built z - 1; [0] asks for a seed
        a = _linear_factors(plus, z, top) if z - 1 in out else [0]
        if not a[0]:
            num, den = _seed(vec, lift, rel, z, top)
            if not top:
                c = Fraction(num[0], den)
        elif not top:
            c *= Fraction(_linear_factors(minus, z - 1, 0)[0] * scale, a[0] * unscale)
        else:
            # [eps^n] 1/a = r[n] / a0^(n+1), so 1/F+ = sum_n r'[n] eps^n / a0^(top+1)
            # with r'[n] = scale * a0^(top-n) * r[n]
            a0 = a[0]
            f = _linear_factors(minus, z - 1, top)  # unscale * F-_{z-1}
            _times(f, [x * a0 ** (top - n) * scale for n, x in enumerate(_reciprocal(a))])
            _times(num, f)
            den *= unscale * a0 ** (top + 1)
        if not top:
            out[z] = (c,)
            continue
        row = [Fraction(x, den) if x else 0 for x in num]
        # gcd(x, den) is den // denominator (den for a zero entry), so the
        # row's common factor comes from the entries' own gcds
        k = gcd(*[den // f.denominator for f in row])
        if k > 1:
            num = [x // k for x in num]
            den //= k
        out[z] = tuple(row)
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
    log^k x0 / k! at eps^k.  products needs entries up to eps^r at the
    members z of the bundle's verdicts; base is v + l and window the pair
    of ints that _build has checked.

    The paper restricts each multiset rho, supported on S, to the shifts in
    membership(S); the product here runs over every member z of the bundle
    instead, and that changes no value.  Let w = v + l.  For z outside
    membership(S) some column mu not in S, where rho[mu] = 0, either
    (i) has v_mu a nonnegative integer and w_mu(z) < 0, so
    M(l, 0, v) = prod_{k=l+1}^{0} (v+k) holds the factor k = -v_mu and
    vanishes; or (ii) has v_mu a negative integer and w_mu(z) >= 0, so
    l > 0 lies in the excluded strip, and _epsilon_products, which checks
    column mu at its largest l over every member z before it builds
    anything, has already raised ExcludedCase.
    """
    terms = {}
    for s in range(r + 1):
        weight = perm(r, s)
        for z, column in products.items():
            c = column[s]
            if c:
                terms[(z, r - s)] = c if weight == 1 else c * weight
    return LogSeries(base, config.relation, window, terms)


def _build(config, vec, lift, cap, window) -> tuple[tuple, tuple]:
    """The certificates and the solutions of one exponent, for degrees below cap.

    The certificates are the support verdicts of every index set missing
    fewer than cap columns, ordered by the number of columns missing, then
    lexicographically in them.  The solutions run from degree 0 up to the
    last degree r for which every index set missing at most r columns keeps
    minimal negative support; all of them read one eps-product per shift in
    the memberships of those sets.
    """
    lo, hi = window_bounds(window)
    everything = frozenset(range(config.n))
    verdicts = {}  # missing columns -> the verdict on the other columns
    for size in range(cap):
        for missing in combinations(range(config.n), size):
            verdicts[missing] = support_verdict(
                config, vec, everything.difference(missing), lift
            )
    r_top = min((len(m) for m, v in verdicts.items() if not v.minimal), default=cap) - 1
    members = set()
    for missing, verdict in verdicts.items():
        if len(missing) <= r_top:
            members.update(verdict.membership.clip(lo, hi))
    products = _epsilon_products(config, vec, lift, sorted(members), max(r_top, 0))
    base = tuple(x + l for x, l in zip(vec, lift))
    solutions = tuple(
        _assemble(config, base, r, (lo, hi), products) for r in range(r_top + 1)
    )
    return tuple(verdicts.values()), solutions


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
    config: LatticeConfig, beta, u=None, u_lift=None, window=DEFAULT_WINDOW
) -> BundleReport:
    """Construct every available log solution for the parameter beta + u.

    Works through the normalized exponents of beta; for each, builds the
    solutions of all degrees the minimal-support hypothesis allows, and
    collects diagnostics instead of failing when it caps out early.
    """
    beta = parameter(config, beta)
    if u_lift is None:
        u_lift = (0,) * config.n if u is None else integer_lift(config, u)
    lift = lift_vector(config, u_lift)
    u_vec = config.column_combination(lift)
    if u is not None and fracs(u, "u") != u_vec:
        raise LiftMismatch("explicit lift does not produce the given u")
    gamma = tuple(b + x for b, x in zip(beta.beta, u_vec))
    primes = exponent_set_prime(config, beta)
    bundles = []
    for exp in primes.exponents:
        certificates, solutions = _build(config, exp.vector, lift, exp.multiplicity, window)
        bundles.append(SolutionBundle(gamma, exp, lift, solutions, certificates))
    return BundleReport(tuple(bundles), config.positive_sum)
