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
integer keys, in one pass: exponent_blocks reads the sorted fake keys a
block at a time, each block a column at a time (``RelationLine.block``), and
checks the count law after the last block.  The library wraps each key into
an ``Exponent``; the CLI's exponents report writes the numerators as "p/q"
strings and builds no Exponent.  Matching an exponent v of beta to beta + u
builds no exponent set: it is the normalization of v + (the lift of u).

A parameter has one exponent per unit of the positive relation sum, so the
per-exponent objects are kept few: ``Exponent`` is a slotted record, with no
``__dict__`` (``Record._set`` writes its fields through the slots'
descriptors), and the exponents that share an m_support share one
frozenset, kept per mask (_support) for up to 1024 masks.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from itertools import compress, repeat

from ._linalg import Vector, fracs, integers, pair, shown
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
    return frozenset(mu for mu in config.positive if vec[mu].denominator == 1 and vec[mu] >= 0)


@functools.lru_cache(maxsize=1024)  # masks recur, within a line and across lines
def _support(mask: int) -> frozenset[int]:
    return frozenset(mu for mu in range(mask.bit_length()) if mask >> mu & 1)


def _exponents(den: int, blocks) -> list[Exponent]:
    """The blocks' Exponents: a Fraction per numerator, one frozenset per m_support."""
    dens, out = repeat(den), []
    for columns, labels, masks, _ in blocks:
        vectors = zip(*[map(Fraction, column, dens) for column in columns])
        out += map(Exponent, vectors, labels, map(_support, masks))
    return out


_BLOCK = 1024  # keys per block: the pass holds one block's columns at a time


def exponent_blocks(line: RelationLine):
    """One pass over the sorted fake keys of the line, _BLOCK keys at a time.

    Yields RelationLine.block of each block.  A normalized key k +
    shift(k)*den is a fake key again: the column whose bound sets the shift
    ends at an entry b in [0, relation[mu]), a label.  So the pass sums the
    multiplicities of the keys of shift 0, and after the last block raises
    CountMismatch unless they sum to the positive relation sum, which a
    normalization off the fake keys would miss.  A caller that writes nothing
    before the pass ends writes nothing on a refusal.
    """
    # sorted backwards to cut each block off the end: no read key is held
    keys, total = sorted(line.keys(), reverse=True), 0
    while keys:
        block = line.block(keys[:-_BLOCK - 1:-1])
        del keys[-_BLOCK:]
        total += sum(map(int.bit_count, compress(block[2], block[3])))
        yield block
    expected = sum(line.relation[mu] for mu in line.positive)
    if total != expected:
        raise CountMismatch(f"multiplicities sum to {total}, relation demands {expected}")


def fake_exponents(config: LatticeConfig, beta) -> list[Exponent]:
    """All fake exponents for the parameter, duplicates merged by label.

    Sorted lexicographically by coordinates, so output order is stable: one
    exponent per key of exponent_blocks, in the order of its keys, and the
    count law checked on the way.
    """
    line = parameter(config, beta).line
    return _exponents(line.den, exponent_blocks(line))


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
    return _exponents(line.den, [line.block((z0 * line.den,))])[0], z0


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
    # exponent_blocks has checked that the multiplicities sum to the relation's
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
        return sorted(set(self._members(lo, hi)))

    def _members(self, lo: int, hi: int) -> list[int]:
        """clip on two checked ints, each interval's members in turn: neither
        sorted nor made distinct, which one interval needs neither of."""
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
        return out


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
    return _support_verdicts(config, vec, lift, (indices,))[0]


def _extreme(bounds, indices):
    """The first bound of (bound, column) pairs whose column is in indices, or None."""
    for bound, mu in bounds:
        if mu in indices:
            return bound
    return None


def _support_verdicts(config, vec, lift, index_sets) -> list[SupportVerdict]:
    """support_verdict of each index set, for a checked vector and lift.

    Each column's half-line is read once.  Column mu, with w = v_mu + lift_mu
    an integer, is a negative integer at shift z exactly for z <= t =
    floor((-1 - w) / e) when e = relation[mu] > 0, and for z >= s =
    ceil((w + 1) / -e) when e < 0.  If mu is in v's own negative support it
    bounds the equality interval only, from above for e > 0 and from below
    for e < 0; otherwise it bounds both the equality and the subset
    interval, from below (at t + 1) for e > 0 and from above (at s - 1) for
    e < 0.  Each of those four kinds keeps its bounds most extreme first,
    so an index set's verdict reads the first bound of each kind whose
    column it keeps: its intervals are the max of the lower and the min of
    the upper bounds over its columns.  Equal memberships share one
    IntervalSet.
    """
    own_lo, own_hi, lo, hi = [], [], [], []
    for mu, (x, l, e) in enumerate(zip(vec, lift, config.relation)):
        if x.denominator != 1:
            continue
        w = x.numerator + l
        if e > 0:
            t = (-1 - w) // e
            if x.numerator < 0:  # mu is in v's own negative support
                own_hi.append((t, mu))
            else:
                lo.append((t + 1, mu))
        else:
            s = -((w + 1) // e)
            if x.numerator < 0:
                own_lo.append((s, mu))
            else:
                hi.append((s - 1, mu))
    own_lo.sort(reverse=True)
    lo.sort(reverse=True)
    own_hi.sort()
    hi.sort()
    shared, out = {}, []
    for indices in index_sets:
        sub_lo, sub_hi = _extreme(lo, indices), _extreme(hi, indices)
        eq_lo, eq_hi = _extreme(own_lo, indices), _extreme(own_hi, indices)
        if eq_lo is None or sub_lo is not None and sub_lo > eq_lo:
            eq_lo = sub_lo
        if eq_hi is None or sub_hi is not None and sub_hi < eq_hi:
            eq_hi = sub_hi
        equality = _interval(eq_lo, eq_hi)
        membership = shared.get(equality)
        if membership is None:
            membership = shared[equality] = IntervalSet(() if equality is None else (equality,))
        out.append(SupportVerdict(
            indices, lift, equality == _interval(sub_lo, sub_hi), membership
        ))
    return out


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
        raise NotInLattice(f"{shown(u)} is not in the span of the columns")
    steps = line.integral_steps(range(config.n))
    if steps is None:
        raise NotInLattice(f"{shown(u)} is not an integer combination of the columns")
    # the integral points are t0 + Z, 0 <= t0 < 1, and coordinate -1 is
    # t*relation[-1]: in range at t0, or at t0 - 1 if relation[-1] < 0 < t0
    lift = line.at(steps[0] - (config.relation[-1] < 0 < steps[0]))
    if any(x.denominator != 1 for x in lift):
        raise InternalInvariantError(f"lift {shown(lift)} of {shown(u)} is not integral")
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
        raise InternalInvariantError(f"{shown(vec)} is not an exponent of {shown(beta.beta)}")
    matched, z0 = normalize_to_e_prime(config, tuple(x + y for x, y in zip(vec, lift)))
    if matched.m_support != support:
        raise InternalInvariantError("integer support changed under matching")
    return matched, tuple(x + z0 * e for x, e in zip(lift, config.relation))
