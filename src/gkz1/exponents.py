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
integer keys, in one pass: exponent_rows walks the sorted fake keys and
gives, per key, what ``RelationLine.parts`` reads off it (its numerators
offsets[i] + k*relation[i] over den, its labels, its m_support and whether
it is normalized), and it checks the count law after the last key.  A
normalized key k + shift(k)*den is a fake key: the column that sets the
shift ends at an entry b in [0, relation[mu]), a label.  So the normalized
set is the fakes of shift 0, the same objects.  The library wraps each row
into an ``Exponent``, each coordinate a Fraction built once from its
numerator; the CLI's exponents report writes the numerators as "p/q"
strings and builds no Exponent.  Matching an exponent v of beta to beta + u
builds no exponent set: the match is the normalization of v + (the lift of
u).

A parameter has one exponent per unit of the positive relation sum, so the
per-exponent objects are kept few: ``Exponent`` is a slotted record, with no
``__dict__`` (``Record._set`` writes its fields through the slots'
descriptors), and the exponents of one line that share an m_support share
one frozenset.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from ._linalg import Vector, fracs, integers, pair
from ._record import Record
from .errors import (
    CountMismatch,
    InputError,
    InternalInvariantError,
    LiftMismatch,
    NotInLattice,
    NotNonresonant,
)
from .lattice import LatticeConfig, RelationLine, is_nonresonant, parameter


class Exponent(Record):
    """A fake exponent: rational vector v with sum_mu v_mu a_mu = beta.

    labels     -- the (column, offset) pairs that produce this vector;
    m_support  -- positive-side columns where the entry is a nonnegative
                  integer (nonempty for normalized exponents).
    """

    __slots__ = ("vector", "labels", "m_support")

    def __init__(self, vector, labels, m_support):
        self._set(vector=vector, labels=labels, m_support=m_support)

    def __reduce__(self):
        return Exponent, (self.vector, self.labels, self.m_support)

    @property
    def multiplicity(self) -> int:
        return len(self.m_support)


def exponent_vector(v, n: int | None = None) -> Vector:
    """An Exponent's vector, or v's entries as Fractions, n of them if n is given."""
    vec = v.vector if isinstance(v, Exponent) else fracs(v, "v")
    if n is not None and len(vec) != n:
        raise InputError(f"v has {len(vec)} entries, expected {n}")
    return vec


def lift_vector(config: LatticeConfig, lift) -> tuple[int, ...]:
    """An integer lift as ints; LiftMismatch when it has not n entries."""
    lift = integers(lift, "lift")
    if len(lift) != config.n:
        raise LiftMismatch(f"lift has length {len(lift)}, expected {config.n}")
    return lift


def m_support(config: LatticeConfig, vec) -> frozenset[int]:
    vec = exponent_vector(vec, config.n)
    return frozenset(
        mu for mu in config.positive if vec[mu].denominator == 1 and vec[mu] >= 0
    )


def _exponent(line: RelationLine, nums: list[int], labels: list, support) -> Exponent:
    """The exponent of numerators nums over the line's den, one Fraction per coordinate."""
    den = line.den
    return Exponent(tuple([Fraction(x, den) for x in nums]), tuple(labels), support)


def exponent_rows(line: RelationLine):
    """One pass over the sorted fake keys of the line.

    Yields RelationLine.parts of each key: its numerators over den, its
    labels, its m_support and whether it is normalized.  A normalized key
    k + shift(k)*den is a fake key again: the column whose bound sets the
    shift ends at an entry b in [0, relation[mu]), a label.  So the
    normalized keys are the fake keys of shift 0, and the pass sums their
    multiplicities as it goes.  After the last key it raises CountMismatch
    unless they sum to the positive relation sum; a class of keys whose
    normalization were no fake key would be missing from that sum.  A
    caller that writes nothing before the pass ends writes nothing on a
    refusal.
    """
    parts, supports, total = line.parts, {}, 0
    for k in sorted(line.keys()):
        row = parts(k, supports)
        if row[3]:
            total += len(row[2])
        yield row
    expected = sum(line.relation[mu] for mu in line.positive)
    if total != expected:
        raise CountMismatch(f"multiplicities sum to {total}, relation demands {expected}")


def fake_exponents(config: LatticeConfig, beta) -> list[Exponent]:
    """All fake exponents for the parameter, duplicates merged by label.

    Sorted lexicographically by coordinates, so output order is stable: one
    exponent per row of exponent_rows, in the order of its keys, and the
    count law checked on the way.
    """
    line = parameter(config, beta).line
    return [_exponent(line, *row[:3]) for row in exponent_rows(line)]


def normalize_to_e_prime(config: LatticeConfig, v) -> tuple[Exponent, int]:
    """Shift a fake exponent along the relation into the normalized set.

    Returns the shifted exponent and the unique shift z0: the least integer
    such that no positive-side coordinate of v + z0*relation is a negative
    integer.
    """
    line = RelationLine(exponent_vector(v, config.n), config.relation)
    z0 = line.shift(0)
    if z0 == 0 and isinstance(v, Exponent):
        return v, 0  # already normalized: same vector, labels and m_support
    return _exponent(line, *line.parts(z0 * line.den, {})[:3]), z0


class PrimeExponents(Record):
    """The normalized exponents and the positive relation sum, which the
    count law says their multiplicities sum to; multiplicity_sum is that
    sum, tallied from the exponents."""

    def __init__(self, exponents, relation_sum):
        self._set(
            exponents=exponents, relation_sum=relation_sum,
            multiplicity_sum=sum(e.multiplicity for e in exponents),
        )


def exponent_set_prime(config: LatticeConfig, beta) -> PrimeExponents:
    """Normalized exponent set; the multiplicity count law is enforced.

    Each normalized exponent is a fake exponent, the same object: one whose
    integral positive-side coordinates are all in its m_support, so that
    none is a negative integer (a fake always has a label).
    """
    positive = config.positive
    exponents = tuple(
        e for e in fake_exponents(config, beta)  # the module global, which tracing wraps
        if all(mu in e.m_support or e.vector[mu].denominator != 1 for mu in positive)
    )
    # exponent_rows has checked that the multiplicities sum to the relation's
    return PrimeExponents(exponents, config.positive_sum)


def negative_support(v, indices) -> frozenset[int]:
    """Indices in the given set whose coordinate is a negative integer."""
    vec = exponent_vector(v)
    indices = integers(indices, "indices", len(vec))
    return frozenset(mu for mu in indices if vec[mu].denominator == 1 and vec[mu] < 0)


class IntervalSet(Record):
    """A finite union of integer intervals; None endpoints are unbounded."""

    def __init__(self, intervals):
        self._set(intervals=intervals)

    def __contains__(self, z: int) -> bool:
        return any(
            (lo is None or z >= lo) and (hi is None or z <= hi)
            for lo, hi in self.intervals
        )

    @property
    def empty(self) -> bool:
        return not self.intervals

    def clip(self, lo: int, hi: int) -> list[int]:
        """All members inside [lo, hi], ascending.

        Raises InputError when a bound is not an integer, or when some
        interval keeps more members than a list can index on this platform
        (sys.maxsize).
        """
        lo, hi = pair((lo, hi), "clip bounds")
        out = []
        for a, b in self.intervals:
            start = lo if a is None else max(lo, a)
            stop = hi if b is None else min(hi, b)
            if stop - start >= sys.maxsize:
                raise InputError(
                    f"window [{lo}, {hi}]: {stop - start + 1} shifts in one piece,"
                    f" more than a list can index (at most {sys.maxsize})"
                )
            out.extend(range(start, stop + 1))
        return sorted(set(out))


def _interval(lo: int | None, hi: int | None) -> tuple | None:
    """(lo, hi), or None when the interval is empty, whatever its bounds."""
    return None if lo is not None and hi is not None and lo > hi else (lo, hi)


class SupportVerdict(Record):
    """Exact answer to the minimal negative-support question.

    membership collects the shifts z for which the negative support of
    v + lift + z*relation inside `indices` equals that of v; `minimal`
    says no shift produces a proper subset.
    """

    def __init__(self, indices, lift, minimal, membership):
        self._set(indices=indices, lift=lift, minimal=minimal, membership=membership)


def support_verdict(config: LatticeConfig, v, indices, lift) -> SupportVerdict:
    """Decide minimal negative support along the relation line.

    Each coordinate with an integral shifted entry is a negative integer on
    a half-line in z (direction given by the relation sign), so both the
    equality set and the subset set are integer intervals; minimality is
    their coincidence.  A lift of the wrong length raises LiftMismatch.
    """
    vec = exponent_vector(v, config.n)
    lift = lift_vector(config, lift)
    indices = frozenset(integers(indices, "indices", config.n))
    eq_lo = eq_hi = None
    sub_lo = sub_hi = None
    for mu in sorted(indices):
        x = vec[mu]
        if x.denominator != 1:
            continue
        w = x.numerator + lift[mu]
        e = config.relation[mu]
        if e > 0:
            # negative integer exactly for z <= t = floor((-1 - w) / e)
            t = (-1 - w) // e
            if x.numerator < 0:  # mu is in v's own negative support
                eq_hi = t if eq_hi is None else min(eq_hi, t)
            else:
                eq_lo = t + 1 if eq_lo is None else max(eq_lo, t + 1)
                sub_lo = t + 1 if sub_lo is None else max(sub_lo, t + 1)
        else:
            # negative integer exactly for z >= s = ceil((w + 1) / -e)
            s = -((w + 1) // e)
            if x.numerator < 0:  # mu is in v's own negative support
                eq_lo = s if eq_lo is None else max(eq_lo, s)
            else:
                eq_hi = s - 1 if eq_hi is None else min(eq_hi, s - 1)
                sub_hi = s - 1 if sub_hi is None else min(sub_hi, s - 1)
    equality = _interval(eq_lo, eq_hi)
    return SupportVerdict(
        indices=indices,
        lift=lift,
        minimal=equality == _interval(sub_lo, sub_hi),
        membership=IntervalSet(() if equality is None else (equality,)),
    )


def integer_lift(config: LatticeConfig, u) -> tuple[int, ...]:
    """A canonical integer vector whose column combination equals u.

    Among the one-parameter family of integer lifts, picks the one whose
    last coordinate lies in [0, |relation[-1]|).  Raises NotInLattice when
    u is not an integer combination of the columns.
    """
    u = fracs(u, "u")
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
    vec = exponent_vector(v, config.n)
    support = m_support(config, vec)
    if not support or config.column_combination(vec) != beta.beta:
        raise InternalInvariantError(f"{vec} is not an exponent of {beta.beta}")
    matched, z0 = normalize_to_e_prime(config, tuple(x + y for x, y in zip(vec, lift)))
    if matched.m_support != support:
        raise InternalInvariantError("integer support changed under matching")
    return matched, tuple(x + z0 * e for x, e in zip(lift, config.relation))
