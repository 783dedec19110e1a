"""Truncated logarithmic series solutions along the distinguished monomial.

A series lives on the grid of monomials x^(w0 + z*relation) times powers of
log x0, with w0 the base exponent.  Windows restrict z; every stored
coefficient is the exact value of the full series at that grid point, so a
"truncation" is a restriction, never an approximation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

from ._linalg import Vector, fracs
from .coefficients import coefficient_M, coefficient_run
from .errors import (
    HypothesisViolated,
    MismatchDetected,
    NotMinimalSupport,
    NotNonresonant,
    RNotLessThanMultiplicity,
)
from .exponents import (
    Exponent,
    SupportVerdict,
    exponent_set_prime,
    exponent_vector,
    integer_lift,
    m_support,
    support_verdict,
)
from .lattice import LatticeConfig, is_nonresonant, parameter


@dataclass(frozen=True, eq=True)
class LogSeries:
    """Exact coefficients c[(z, r)] of x^(base + z*relation) * log^r x0."""

    base_exponent: Vector
    relation: tuple[int, ...]
    window: tuple[int, int]
    terms: dict[tuple[int, int], Fraction]

    @classmethod
    def make(cls, base_exponent, relation, window, terms) -> "LogSeries":
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        clean = {
            (int(z), int(r)): Fraction(c)
            for (z, r), c in terms.items()
            if c != 0
        }
        return cls(fracs(base_exponent), tuple(int(e) for e in relation), (lo, hi), clean)

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
        return cls.make(
            [Fraction(x) for x in data["base_exponent"]],
            data["relation"],
            tuple(data["window"]),
            {
                (term["z"], term["r"]): Fraction(term["coeff"])
                for term in data["terms"]
            },
        )


def _column_runs(config, vec, lift, window, verdicts, s_max: int) -> list[dict]:
    """One coefficient run per column, covering every member z of the verdicts.

    Column mu needs M(lift[mu] + z*relation[mu], s, vec[mu]) for s up to
    s_max at each of those z, which is exactly what the blocks built from the
    verdicts evaluate.
    """
    rel = config.relation
    members = set()
    for verdict in verdicts:
        members.update(verdict.membership.clip(*window))
    return [
        coefficient_run(vec[mu], [lift[mu] + z * rel[mu] for z in members], s_max)
        for mu in range(config.n)
    ]


def _phi_coefficients(config, lift, rho, verdict, window, runs) -> dict[int, Fraction]:
    """z -> coefficient of the log-free series for the multiset rho."""
    rel = config.relation
    out: dict[int, Fraction] = {}
    for z in verdict.membership.clip(*window):
        c = Fraction(1)
        for mu in range(config.n):
            c *= runs[mu][lift[mu] + z * rel[mu]][rho.get(mu, 0)]
        if c:
            out[z] = c
    return out


def phi_series(config: LatticeConfig, v, u_lift, q=(), window=(-10, 20)) -> LogSeries:
    """The log-free building-block series for a multiset q of column indices.

    The sum runs over the shifts where the negative support away from q is
    preserved; the exponent must have minimal negative support there, or the
    defining sum would depend on more than the multiset.
    """
    vec = exponent_vector(v)
    lift = tuple(int(x) for x in u_lift)
    rho = Counter(int(i) for i in q)
    indices = frozenset(range(config.n)) - frozenset(rho)
    verdict = support_verdict(config, vec, indices, lift)
    if not verdict.minimal:
        raise NotMinimalSupport(indices, lift)
    runs = _column_runs(config, vec, lift, window, [verdict], max(rho.values(), default=0))
    terms = {
        (z, 0): c
        for z, c in _phi_coefficients(config, lift, rho, verdict, window, runs).items()
    }
    base = tuple(x + l for x, l in zip(vec, lift))
    return LogSeries.make(base, config.relation, window, terms)


def _hypothesis_verdicts(config, vec, lift, r) -> dict[frozenset, SupportVerdict]:
    """Verdicts keyed by multiset support S, for all |S| <= r."""
    verdicts = {}
    everything = frozenset(range(config.n))
    for size in range(r + 1):
        for s_tuple in combinations(range(config.n), size):
            support = frozenset(s_tuple)
            verdicts[support] = support_verdict(
                config, vec, everything - support, lift
            )
    return verdicts


def _assemble(config, vec, lift, r, window, verdicts, runs, phi_cache) -> LogSeries:
    """Evaluate the degree-r log solution from its building blocks.

    The sum over length-s index sequences collapses to one over multisets
    with total weight r(r-1)...(r-s+1) times the product of signed relation
    entries: expanding the product of iterated integrals, each slot that
    sheds all its logs contributes a falling factorial of its multiplicity,
    which exactly cancels the 1/multiplicity! of the multiset ordering count.
    """
    rel = config.relation
    acc: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for s in range(r + 1):
        count = comb(r, s) * factorial(s)  # = r(r-1)...(r-s+1)
        for q in combinations_with_replacement(range(config.n), s):
            rho = Counter(q)
            support = frozenset(rho)
            key = tuple(sorted(q))
            if key not in phi_cache:
                phi_cache[key] = _phi_coefficients(
                    config, lift, rho, verdicts[support], window, runs
                )
            weight = 1
            for mu, m in rho.items():
                weight *= rel[mu] ** m
            for z, c in phi_cache[key].items():
                acc[(z, r - s)] += count * weight * c
    base = tuple(x + l for x, l in zip(vec, lift))
    return LogSeries.make(base, rel, window, acc)


def log_solution(config: LatticeConfig, v, u_lift, r: int, window=(-10, 20)) -> LogSeries:
    """The formal log solution of degree r attached to a normalized exponent.

    Valid for r below the exponent multiplicity, provided the exponent keeps
    minimal negative support on every index set missing at most r columns;
    the failing sets are reported otherwise.
    """
    vec = exponent_vector(v)
    lift = tuple(int(x) for x in u_lift)
    mv = len(m_support(config, vec))
    if r >= mv:
        raise RNotLessThanMultiplicity(f"r={r} but multiplicity is {mv}")
    verdicts = _hypothesis_verdicts(config, vec, lift, r)
    failing = [
        frozenset(range(config.n)) - support
        for support, verdict in sorted(verdicts.items(), key=lambda kv: sorted(kv[0]))
        if not verdict.minimal
    ]
    if failing:
        raise HypothesisViolated(failing)
    runs = _column_runs(config, vec, lift, window, verdicts.values(), r)
    return _assemble(config, vec, lift, r, window, verdicts, runs, {})


@dataclass(frozen=True)
class SolutionBundle:
    """All log solutions attached to one normalized exponent.

    solutions[r] has top log-degree r; its top-log coefficient equals the
    log-free series.  hypothesis_failures lists the index sets that capped
    the achievable degree; phi_empty records a vanishing log-free series
    (the linear-independence hypothesis then fails).
    """

    parameter: Vector
    exponent: Exponent
    lift: tuple[int, ...]
    solutions: tuple[LogSeries, ...]
    certificates: tuple[SupportVerdict, ...]
    hypothesis_failures: tuple[frozenset, ...]
    phi_empty: bool


@dataclass(frozen=True)
class BundleReport:
    bundles: tuple[SolutionBundle, ...]
    total_solutions: int
    expected_total: int

    @property
    def complete(self) -> bool:
        return self.total_solutions == self.expected_total and not any(
            b.phi_empty for b in self.bundles
        )


def solution_bundle(
    config: LatticeConfig, beta, u=None, u_lift=None, window=(-10, 20)
) -> BundleReport:
    """Construct every available log solution for the parameter beta + u.

    Works through the normalized exponents of beta; for each, builds the
    solutions of all degrees the minimal-support hypothesis allows, and
    collects diagnostics instead of failing when it caps out early.
    """
    beta = parameter(config, beta)
    if u_lift is not None:
        lift = tuple(int(x) for x in u_lift)
        u_vec = config.column_combination(lift)
        if u is not None and fracs(u) != u_vec:
            raise ValueError("explicit lift does not produce the given u")
    elif u is not None:
        lift = integer_lift(config, u)
        u_vec = fracs(u)
    else:
        lift = (0,) * config.n
        u_vec = (Fraction(0),) * config.dim
    gamma = tuple(b + x for b, x in zip(beta.beta, u_vec))
    primes = exponent_set_prime(config, beta)
    bundles = []
    for exp in primes.exponents:
        mv = exp.multiplicity
        verdicts = _hypothesis_verdicts(config, exp.vector, lift, mv - 1)
        failing_sizes = [
            len(support)
            for support, verdict in verdicts.items()
            if not verdict.minimal
        ]
        r_top = mv - 1 if not failing_sizes else min(failing_sizes) - 1
        # the blocks of every degree share one run per column and one cache
        used = [verdict for support, verdict in verdicts.items() if len(support) <= r_top]
        runs = _column_runs(config, exp.vector, lift, window, used, max(r_top, 0))
        phi_cache: dict = {}
        solutions = tuple(
            _assemble(config, exp.vector, lift, r, window, verdicts, runs, phi_cache)
            for r in range(r_top + 1)
        )
        failures = tuple(
            frozenset(range(config.n)) - support
            for support, verdict in sorted(
                verdicts.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
            if not verdict.minimal
        )
        certificates = tuple(
            verdicts[key]
            for key in sorted(verdicts, key=lambda s: (len(s), sorted(s)))
        )
        bundles.append(
            SolutionBundle(
                parameter=gamma,
                exponent=exp,
                lift=lift,
                solutions=solutions,
                certificates=certificates,
                hypothesis_failures=failures,
                phi_empty=verdicts[frozenset()].membership.empty,
            )
        )
    total = sum(len(b.solutions) for b in bundles)
    return BundleReport(
        bundles=tuple(bundles),
        total_solutions=total,
        expected_total=config.positive_sum,
    )


def scalar_relation_check(
    config: LatticeConfig, beta, u, v, v_prime, window=(0, 8)
) -> Fraction:
    """Verify the scalar relating the two log-free series for beta + u.

    With lift = v' - v, the series built from v at shifted parameter equals
    the product of the single-step M factors times the series built from v'
    at its own parameter; both sides share the base exponent v', so the
    comparison is coefficient-by-coefficient on the window.
    """
    beta = parameter(config, beta)
    resonance = is_nonresonant(config, beta)
    if not resonance:
        raise NotNonresonant(resonance.witness)
    vec = exponent_vector(v)
    pvec = exponent_vector(v_prime)
    deltas = [a - b for a, b in zip(pvec, vec)]
    if any(x.denominator != 1 for x in deltas):
        raise ValueError("v' - v must be an integer vector")
    lift = tuple(int(x) for x in deltas)
    if u is not None and config.column_combination(lift) != fracs(u):
        raise ValueError("v' - v does not lift the given u")
    scalar = Fraction(1)
    for mu in range(config.n):
        scalar *= coefficient_M(lift[mu], 0, vec[mu])
    lhs = phi_series(config, vec, lift, (), window)
    if scalar == 0:
        # a vanishing factor forces the whole shifted series to vanish
        for z in range(window[0], window[1] + 1):
            if lhs.coefficient(z):
                raise MismatchDetected(z, lhs.coefficient(z), Fraction(0))
        return scalar
    rhs = phi_series(config, pvec, (0,) * config.n, (), window)
    for z in range(window[0], window[1] + 1):
        left = lhs.coefficient(z)
        right = scalar * rhs.coefficient(z)
        if left != right:
            raise MismatchDetected(z, left, right)
    return scalar
