"""Candidate leading exponents of series solutions at x0 = 0.

For each positive-relation column mu and each offset b in [0, relation[mu]),
there is a unique rational vector with mu-th coordinate b whose column
combination equals the parameter.  These are the fake exponents.  Discarding
those with a negative integer in a positive-side coordinate and deduplicating
gives the normalized set, whose multiplicities (number of positive-side
nonnegative-integer coordinates) always sum to the positive relation sum.

Every fake exponent lies on the parameter's ``RelationLine`` w + t*relation,
at t = (b - w[mu]) / relation[mu], which is an integer key k over the
line's ``den``.  Coordinate 0 of the point at t is w[0] + t*relation[0],
and relation[0] > 0, so it strictly increases with t: ordering the vectors
lexicographically is ordering them by t, and two vectors are equal exactly
when their t are.  So the exponents are sorted, merged and normalized as
integer keys, each coordinate (offsets[i] + k*relation[i]) / den built once
from its numerator.  Matching an exponent v of beta to beta + u builds no
exponent set: the match is the normalization of v + (the lift of u).

A parameter has one exponent per unit of the positive relation sum, so the
per-exponent objects are kept few: ``Exponent`` is a slotted record, with no
``__dict__``, whose fields are written through the slots' descriptors, and
the exponents of one line that share an m_support share one frozenset.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from ._linalg import Vector, fracs
from ._record import Record
from .errors import CountMismatch, InternalInvariantError, NotInLattice, NotNonresonant
from .lattice import LatticeConfig, RelationLine, is_nonresonant, parameter


class Exponent(Record):
    """A fake exponent: rational vector v with sum_mu v_mu a_mu = beta.

    labels     -- the (column, offset) pairs that produce this vector;
    m_support  -- positive-side columns where the entry is a nonnegative
                  integer (nonempty for normalized exponents).
    """

    __slots__ = ("vector", "labels", "m_support")

    def __init__(self, vector, labels, m_support):
        _set_vector(self, vector)
        _set_labels(self, labels)
        _set_m_support(self, m_support)

    def __reduce__(self):
        return Exponent, (self.vector, self.labels, self.m_support)

    @property
    def multiplicity(self) -> int:
        return len(self.m_support)


# the slots' own setters, which Exponent.__setattr__ does not guard
_set_vector, _set_labels, _set_m_support = (
    getattr(Exponent, name).__set__ for name in Exponent._fields
)


def exponent_vector(v) -> Vector:
    if isinstance(v, Exponent):
        return v.vector
    return fracs(v)


def m_support(config: LatticeConfig, vec) -> frozenset[int]:
    vec = exponent_vector(vec)
    return frozenset(
        mu for mu in config.positive if vec[mu].denominator == 1 and vec[mu] >= 0
    )


def _exponent(line: RelationLine, supports: dict, k: int) -> Exponent:
    """The point of the line at key k, labels and m_support read off its numerators;
    supports (bit mask -> m_support) shares one frozenset per m_support."""
    den, rel, positive = line.den, line.relation, line.positive
    nums = [a + k * e for a, e in zip(line.offsets, rel)]
    labels, mask = [], 0
    for mu in positive:
        q, r = divmod(nums[mu], den)
        if not r and q >= 0:
            mask |= 1 << mu
            if q < rel[mu]:
                labels.append((mu, q))
    support = supports.get(mask)
    if support is None:
        support = supports[mask] = frozenset(mu for mu in positive if mask >> mu & 1)
    return Exponent(tuple([Fraction(x, den) for x in nums]), tuple(labels), support)


def fake_exponents(config: LatticeConfig, beta) -> list[Exponent]:
    """All fake exponents for the parameter, duplicates merged by label.

    Sorted lexicographically by coordinates, so output order is stable.
    """
    line, supports = parameter(config, beta).line, {}
    return [_exponent(line, supports, k) for k in sorted(line.keys())]


def normalize_to_e_prime(config: LatticeConfig, v) -> tuple[Exponent, int]:
    """Shift a fake exponent along the relation into the normalized set.

    Returns the shifted exponent and the unique shift z0: the least integer
    such that no positive-side coordinate of v + z0*relation is a negative
    integer.
    """
    line = RelationLine(exponent_vector(v), config.relation)
    z0 = line.shift(0)
    if z0 == 0 and isinstance(v, Exponent):
        return v, 0  # already normalized: same vector, labels and m_support
    return _exponent(line, {}, z0 * line.den), z0


class PrimeExponents(Record):
    """The normalized exponents plus the multiplicity tally of both sides."""

    def __init__(self, exponents, multiplicity_sum, relation_sum):
        self.__dict__.update(
            exponents=exponents, multiplicity_sum=multiplicity_sum, relation_sum=relation_sum
        )


def exponent_set_prime(config: LatticeConfig, beta) -> PrimeExponents:
    """Normalized exponent set; the multiplicity count law is enforced."""
    return normalized_set(config, fake_exponents(config, beta))


def normalized_set(config: LatticeConfig, fakes) -> PrimeExponents:
    """The normalized set of a parameter's fake exponents, count law enforced.

    The fakes lie on one relation line; each is shifted by the z0 of
    normalize_to_e_prime, and the results are merged and ordered by key.
    """
    line, supports = None, {}
    found: dict[int, Exponent] = {}
    for v in fakes:
        vec = exponent_vector(v)
        if line is None:
            line = RelationLine(vec, config.relation)
        k = line.key_of(vec)
        z0 = line.shift(k)
        if z0 == 0 and isinstance(v, Exponent):
            found[k] = v
        else:
            k += z0 * line.den
            if k not in found:
                found[k] = _exponent(line, supports, k)
    exponents = tuple(found[k] for k in sorted(found))
    total = sum(e.multiplicity for e in exponents)
    expected = config.positive_sum
    if total != expected:
        raise CountMismatch(f"multiplicities sum to {total}, relation demands {expected}")
    return PrimeExponents(exponents, total, expected)


def negative_support(v, indices) -> frozenset[int]:
    """Indices in the given set whose coordinate is a negative integer."""
    vec = exponent_vector(v)
    return frozenset(mu for mu in indices if vec[mu].denominator == 1 and vec[mu] < 0)


class IntervalSet(Record):
    """A finite union of integer intervals; None endpoints are unbounded."""

    def __init__(self, intervals):
        self.__dict__["intervals"] = intervals

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


class SupportVerdict(Record):
    """Exact answer to the minimal negative-support question.

    membership collects the shifts z for which the negative support of
    v + lift + z*relation inside `indices` equals that of v; `minimal`
    says no shift produces a proper subset.
    """

    def __init__(self, indices, lift, minimal, membership):
        self.__dict__.update(
            indices=indices, lift=lift, minimal=minimal, membership=membership
        )


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
        minimal=equality.intervals == subset.intervals,
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
    # the integral points are t0 + Z, 0 <= t0 < 1, and coordinate -1 is
    # t*relation[-1]: in range at t0, or at t0 - 1 if relation[-1] < 0 < t0
    lift = line.at(steps[0] - (config.relation[-1] < 0 < steps[0]))
    if any(x.denominator != 1 for x in lift):
        raise InternalInvariantError(f"lift {lift} of {u} is not integral")
    return tuple(int(x) for x in lift)


def match_exponent(config: LatticeConfig, beta, u, v) -> tuple[Exponent, tuple[int, ...]]:
    """The unique normalized exponent for beta + u in v's integer class.

    Requires a nonresonant parameter and an exponent v of it.  The class is
    v + lift + Z*relation, with lift the integer lift of u, so the match is
    its normalization; its positive-side integer support is v's, as checked.
    """
    beta = parameter(config, beta)
    resonance = is_nonresonant(config, beta)
    if not resonance:
        raise NotNonresonant(resonance.witness)
    lift = integer_lift(config, u)
    vec = exponent_vector(v)
    support = m_support(config, vec)
    if not support or config.column_combination(vec) != beta.beta:
        raise InternalInvariantError(f"{vec} is not an exponent of {beta.beta}")
    matched, z0 = normalize_to_e_prime(config, tuple(x + y for x, y in zip(vec, lift)))
    if matched.m_support != support:
        raise InternalInvariantError("integer support changed under matching")
    return matched, tuple(x + z0 * e for x, e in zip(lift, config.relation))
