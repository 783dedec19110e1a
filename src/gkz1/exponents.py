"""Candidate leading exponents of series solutions at x0 = 0.

For each positive-relation column mu and each offset b in [0, relation[mu]),
there is a unique rational vector with mu-th coordinate b whose column
combination equals the parameter.  These are the fake exponents.  Discarding
those with a negative integer in a positive-side coordinate and deduplicating
gives the normalized set, whose multiplicities (number of positive-side
nonnegative-integer coordinates) always sum to the positive relation sum.

Every fake exponent lies on the parameter's relation line w + t*relation,
at t = (b - w[mu]) / relation[mu].  Coordinate 0 of the point at t is
w[0] + t*relation[0], and relation[0] > 0, so it strictly increases with t:
ordering the vectors lexicographically is ordering them by t, and two
vectors are equal exactly when their t are.  With D the common denominator
of w and L the lcm of the positive relation entries, every such t is an
integer k over D*L, so the exponents are sorted, merged and normalized as
integer keys k, and each coordinate (w[i]*D*L + k*relation[i]) / (D*L) is
built once from its integer numerator.

A parameter has one exponent per unit of the positive relation sum, so the
per-exponent objects are kept few: ``Exponent`` is a slotted record, with no
``__dict__``, whose fields are written through the slots' descriptors, and
the exponents of one line that share an m_support share one frozenset.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

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


class _Grid:
    """The points base + (k / den) * relation of a relation line, k an integer.

    den = D*L, with D the common denominator of the base point and L the lcm
    of the positive relation entries, and offsets holds the base point's
    numerators over den.  The point whose positive-side coordinate mu is an
    integer b lies at k = (b*den - offsets[mu]) / relation[mu], an integer
    because relation[mu] divides L.  So every fake exponent of the line has
    an integer key, and so does every shift of one by whole relation steps
    (k + z*den).
    """

    def __init__(self, config: LatticeConfig, base: Vector):
        self.relation = config.relation
        self.positive = config.positive
        self.den = lcm(*(x.denominator for x in base)) * lcm(
            *(self.relation[mu] for mu in self.positive)
        )
        self.offsets = tuple(x.numerator * (self.den // x.denominator) for x in base)
        self.supports: dict[int, frozenset[int]] = {}  # bit mask -> its m_support

    def keys(self) -> set[int]:
        """The keys of the points (mu, b) for mu positive and 0 <= b < relation[mu]."""
        out: set[int] = set()
        for mu in self.positive:
            e, a = self.relation[mu], self.offsets[mu]
            out.update(range(-a // e, (e * self.den - a) // e, self.den // e))
        return out

    def key_of(self, vec: Vector) -> int:
        """The key of a point of the line, read off its coordinate 0."""
        x = vec[0]
        scaled, r = divmod(x.numerator * self.den, x.denominator)
        k, r2 = divmod(scaled - self.offsets[0], self.relation[0])
        if r or r2:
            raise ValueError(f"not a fake exponent of this line: {vec}")
        return k

    def shift(self, k: int) -> int:
        """The least z making no positive-side coordinate at k + z*den a negative integer."""
        bounds = []
        for mu in self.positive:
            q, r = divmod(self.offsets[mu] + k * self.relation[mu], self.den)
            if not r:
                bounds.append(-(q // self.relation[mu]))
        if not bounds:
            raise ValueError("not a fake exponent: no integral positive-side entry")
        return max(bounds)

    def exponent(self, k: int) -> Exponent:
        """The point at key k, with its labels and m_support from the numerators."""
        den, rel = self.den, self.relation
        nums = [a + k * e for a, e in zip(self.offsets, rel)]
        labels = []
        mask = 0
        for mu in self.positive:
            q, r = divmod(nums[mu], den)
            if not r and q >= 0:
                mask |= 1 << mu
                if q < rel[mu]:
                    labels.append((mu, q))
        support = self.supports.get(mask)
        if support is None:
            support = frozenset(mu for mu in self.positive if mask >> mu & 1)
            self.supports[mask] = support
        return Exponent(tuple([Fraction(x, den) for x in nums]), tuple(labels), support)


def fake_exponents(config: LatticeConfig, beta) -> list[Exponent]:
    """All fake exponents for the parameter, duplicates merged by label.

    Sorted lexicographically by coordinates, so output order is stable.
    """
    grid = _Grid(config, parameter(config, beta).line.point)
    return [grid.exponent(k) for k in sorted(grid.keys())]


def normalize_to_e_prime(config: LatticeConfig, v) -> tuple[Exponent, int]:
    """Shift a fake exponent along the relation into the normalized set.

    Returns the shifted exponent and the unique shift z0: the least integer
    such that no positive-side coordinate of v + z0*relation is a negative
    integer.
    """
    vec = exponent_vector(v)
    grid = _Grid(config, vec)
    z0 = grid.shift(0)
    if z0 == 0 and isinstance(v, Exponent):
        return v, 0  # already normalized: same vector, labels and m_support
    return grid.exponent(z0 * grid.den), z0


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
    grid = None
    found: dict[int, Exponent] = {}
    for v in fakes:
        vec = exponent_vector(v)
        if grid is None:
            grid = _Grid(config, vec)
        k = grid.key_of(vec)
        z0 = grid.shift(k)
        if z0 == 0 and isinstance(v, Exponent):
            found[k] = v
        else:
            k += z0 * grid.den
            if k not in found:
                found[k] = grid.exponent(k)
    exponents = tuple(found[k] for k in sorted(found))
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
    lift = line.at(steps[0])
    if any(x.denominator != 1 for x in lift):
        raise InternalInvariantError(f"lift {lift} of {u} is not integral")
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
