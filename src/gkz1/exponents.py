"""Candidate leading exponents of series solutions at x0 = 0.

For each positive-relation column mu and each offset b in [0, relation[mu]),
there is a unique rational vector with mu-th coordinate b whose column
combination equals the parameter.  These are the fake exponents.  Discarding
those with a negative integer in a positive-side coordinate and deduplicating
gives the normalized set, whose multiplicities (number of positive-side
nonnegative-integer coordinates) always sum to the positive relation sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from ._linalg import Vector, fracs
from .errors import CountMismatch, InternalInvariantError, NotInLattice, NotNonresonant
from .lattice import LatticeConfig, RelationLine, is_nonresonant, parameter


@dataclass(frozen=True)
class Exponent:
    """A fake exponent: rational vector v with sum_mu v_mu a_mu = beta.

    labels     -- the (column, offset) pairs that produce this vector;
    m_support  -- positive-side columns where the entry is a nonnegative
                  integer (nonempty for normalized exponents).
    """

    vector: Vector
    labels: tuple[tuple[int, int], ...]
    m_support: frozenset[int]

    @property
    def multiplicity(self) -> int:
        return len(self.m_support)


def exponent_vector(v) -> Vector:
    if isinstance(v, Exponent):
        return v.vector
    return fracs(v)


def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def _is_neg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x < 0


def m_support(config: LatticeConfig, vec) -> frozenset[int]:
    vec = exponent_vector(vec)
    return frozenset(mu for mu in config.positive if _is_nonneg_int(vec[mu]))


def _labels(config: LatticeConfig, vec: Vector) -> tuple[tuple[int, int], ...]:
    out = []
    for mu in config.positive:
        x = vec[mu]
        if x.denominator == 1 and 0 <= x < config.relation[mu]:
            out.append((mu, int(x)))
    return tuple(out)


def _make_exponent(config: LatticeConfig, vec: Vector) -> Exponent:
    return Exponent(
        vector=vec, labels=_labels(config, vec), m_support=m_support(config, vec)
    )


def fake_exponents(config: LatticeConfig, beta) -> list[Exponent]:
    """All fake exponents for the parameter, duplicates merged by label.

    Sorted lexicographically by coordinates, so output order is stable.
    """
    line = RelationLine.of(config, parameter(config, beta).beta)
    found = {
        line.through(mu, b): None
        for mu in config.positive
        for b in range(config.relation[mu])
    }
    return [_make_exponent(config, vec) for vec in sorted(found)]


def normalize_to_e_prime(config: LatticeConfig, v) -> tuple[Exponent, int]:
    """Shift a fake exponent along the relation into the normalized set.

    Returns the shifted exponent and the unique shift z0: the least integer
    such that no positive-side coordinate of v + z0*relation is a negative
    integer.
    """
    vec = exponent_vector(v)
    bounds = [
        ceil(Fraction(-vec[mu], config.relation[mu]))
        for mu in config.positive
        if vec[mu].denominator == 1
    ]
    if not bounds:
        raise ValueError("not a fake exponent: no integral positive-side entry")
    z0 = max(bounds)
    return _make_exponent(config, RelationLine(vec, config.relation).at(z0)), z0


@dataclass(frozen=True)
class PrimeExponents:
    """The normalized exponents plus the multiplicity tally of both sides."""

    exponents: tuple[Exponent, ...]
    multiplicity_sum: int
    relation_sum: int


def exponent_set_prime(config: LatticeConfig, beta) -> PrimeExponents:
    """Normalized exponent set; the multiplicity count law is enforced."""
    return normalized_set(config, fake_exponents(config, beta))


def normalized_set(config: LatticeConfig, fakes) -> PrimeExponents:
    """The normalized set of a parameter's fake exponents, count law enforced."""
    seen: dict[Vector, Exponent] = {}
    for v in fakes:
        normalized, _ = normalize_to_e_prime(config, v)
        seen[normalized.vector] = normalized
    exponents = tuple(seen[key] for key in sorted(seen))
    total = sum(e.multiplicity for e in exponents)
    expected = config.positive_sum
    if total != expected:
        raise CountMismatch(
            f"multiplicities sum to {total}, relation demands {expected}"
        )
    return PrimeExponents(exponents, total, expected)


def negative_support(v, indices) -> frozenset[int]:
    """Indices in the given set whose coordinate is a negative integer."""
    vec = exponent_vector(v)
    return frozenset(mu for mu in indices if _is_neg_int(vec[mu]))


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of integer intervals; None endpoints are unbounded."""

    intervals: tuple[tuple[int | None, int | None], ...]

    def __contains__(self, z: int) -> bool:
        return any(
            (lo is None or z >= lo) and (hi is None or z <= hi)
            for lo, hi in self.intervals
        )

    @property
    def empty(self) -> bool:
        return not self.intervals

    def clip(self, lo: int, hi: int) -> list[int]:
        """All members inside [lo, hi], ascending."""
        out = []
        for a, b in self.intervals:
            start = lo if a is None else max(lo, a)
            stop = hi if b is None else min(hi, b)
            out.extend(range(start, stop + 1))
        return sorted(set(out))


def _interval(lo: int | None, hi: int | None) -> IntervalSet:
    if lo is not None and hi is not None and lo > hi:
        return IntervalSet(())
    return IntervalSet(((lo, hi),))


@dataclass(frozen=True)
class SupportVerdict:
    """Exact answer to the minimal negative-support question.

    membership collects the shifts z for which the negative support of
    v + lift + z*relation inside `indices` equals that of v; `minimal`
    says no shift produces a proper subset.
    """

    indices: frozenset[int]
    lift: tuple[int, ...]
    minimal: bool
    membership: IntervalSet


def support_verdict(config: LatticeConfig, v, indices, lift) -> SupportVerdict:
    """Decide minimal negative support along the relation line.

    Each coordinate with an integral shifted entry is a negative integer on
    a half-line in z (direction given by the relation sign), so both the
    equality set and the subset set are integer intervals; minimality is
    their coincidence.
    """
    vec = exponent_vector(v)
    lift = tuple(int(x) for x in lift)
    indices = frozenset(indices)
    baseline = negative_support(vec, indices)
    eq_lo = eq_hi = None
    sub_lo = sub_hi = None
    for mu in sorted(indices):
        w = vec[mu] + lift[mu]
        if w.denominator != 1:
            continue
        e = config.relation[mu]
        if e > 0:
            # negative integer exactly for z <= t
            t = floor(Fraction(-1 - w, e))
            if mu in baseline:
                eq_hi = t if eq_hi is None else min(eq_hi, t)
            else:
                eq_lo = t + 1 if eq_lo is None else max(eq_lo, t + 1)
                sub_lo = t + 1 if sub_lo is None else max(sub_lo, t + 1)
        else:
            # negative integer exactly for z >= s
            s = ceil(Fraction(w + 1, -e))
            if mu in baseline:
                eq_lo = s if eq_lo is None else max(eq_lo, s)
            else:
                eq_hi = s - 1 if eq_hi is None else min(eq_hi, s - 1)
                sub_hi = s - 1 if sub_hi is None else min(sub_hi, s - 1)
    equality = _interval(eq_lo, eq_hi)
    subset = _interval(sub_lo, sub_hi)
    return SupportVerdict(
        indices=indices,
        lift=lift,
        minimal=equality == subset,
        membership=equality,
    )


def integer_lift(config: LatticeConfig, u) -> tuple[int, ...]:
    """A canonical integer vector whose column combination equals u.

    Among the one-parameter family of integer lifts, picks the one whose
    last coordinate lies in [0, |relation[-1]|).  Raises NotInLattice when
    u is not an integer combination of the columns.
    """
    u = fracs(u)
    if len(u) != config.dim:
        raise NotInLattice(f"u has length {len(u)}, expected {config.dim}")
    line = RelationLine.of(config, u)
    if line is None:
        raise NotInLattice(f"{u} is not in the span of the columns")
    steps = line.integral_steps(range(config.n))
    if steps is None:
        raise NotInLattice(f"{u} is not an integer combination of the columns")
    lift = line.at(steps[0])
    assert all(x.denominator == 1 for x in lift)
    lift = [int(x) for x in lift]
    rel = config.relation
    shift = (lift[-1] % abs(rel[-1]) - lift[-1]) // rel[-1]
    return tuple(x + shift * e for x, e in zip(lift, rel))


def match_exponent(config: LatticeConfig, beta, u, v) -> tuple[Exponent, tuple[int, ...]]:
    """The unique normalized exponent for beta + u in v's integer class.

    Requires a nonresonant parameter; the matched exponent has the same
    positive-side integer support as v, which is asserted.
    """
    beta = parameter(config, beta)
    resonance = is_nonresonant(config, beta)
    if not resonance:
        raise NotNonresonant(resonance.witness)
    integer_lift(config, u)  # validates u
    vec = exponent_vector(v)
    gamma = tuple(b + Fraction(x) for b, x in zip(beta.beta, u))
    primes = exponent_set_prime(config, gamma)
    matches = [
        e
        for e in primes.exponents
        if all((a - b).denominator == 1 for a, b in zip(e.vector, vec))
    ]
    if len(matches) != 1:
        raise InternalInvariantError(
            f"expected exactly one integer-class match, found {len(matches)}"
        )
    matched = matches[0]
    if matched.m_support != m_support(config, vec):
        raise InternalInvariantError("integer support changed under matching")
    u_lift = tuple(int(a - b) for a, b in zip(matched.vector, vec))
    return matched, u_lift
