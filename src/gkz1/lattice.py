"""Integer point configurations with a one-dimensional relation lattice.

A configuration is a list of n integer points in Z^d spanning an
(n-1)-dimensional space, with every (n-1)-subset independent.  Its integer
relations then form a rank-one lattice generated by a single signed coprime
vector, which fixes the distinguished monomial

    x0 = prod_{rel[mu] > 0} x_mu^rel[mu] / prod_{rel[mu] < 0} x_mu^(-rel[mu]).

One type, ``LatticeConfig``, holds it: it stores the columns and the
relation, found while validating the columns, and derives the rest (the
sides of the relation, ``perm``, ``k`` and the volume) from those two.

The solutions of sum_mu c_mu a_mu = target form one line, w + t*relation,
held by ``RelationLine`` in integers: a coordinate is an integer only at
t = k/den for an integer key k, so exponents, normalization shifts, lifts,
resonance and the negative-span test are integer congruences on keys.

All column indices in this package are 0-based and refer to the caller's
original column order; the canonical positives-first ordering is available
through ``perm``/``ell`` but is never imposed on inputs or outputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import _linalg
from ._linalg import Vector, fracs
from ._record import Record
from .errors import BetaNotInSpan, DependentSubset, InternalInvariantError, KernelRankNotOne


class LatticeConfig(Record):
    """n integer points (columns) in Z^d with a rank-one relation lattice.

    Validates on construction that the points span exactly an
    (n-1)-dimensional space and that every subset of n-1 points is
    linearly independent, with one kernel computation: once the kernel is
    the line through ``relation``, the columns without mu are independent
    exactly when relation[mu] != 0.  Only the columns and the relation are
    stored; the rest is derived from the relation on first use:

    relation  -- the kernel's coprime integer generator, in the caller's
                 column order, signed so that relation[0] > 0;
    perm      -- stable permutation listing positive-relation columns first;
    k         -- number of positive relation entries;
    volume    -- normalized volume of the polytope spanned by the points and
                 the origin (the larger of the two signed coefficient sums).
    """

    def __init__(self, columns):
        cols = tuple(tuple(int(x) for x in col) for col in columns)
        n = len(cols)
        if n < 2:
            raise KernelRankNotOne(f"need at least 2 points, got {n}")
        d = len(cols[0])
        if d < 1 or any(len(c) != d for c in cols):
            raise KernelRankNotOne("points must be nonempty and equal length")
        kernel = _linalg.nullspace_columns(cols)
        if len(kernel) != 1:
            raise KernelRankNotOne(
                f"points span rank {n - len(kernel)}, expected {n - 1}"
            )
        relation = _linalg.primitive_integer_vector(kernel[0])
        if 0 in relation:
            raise DependentSubset(relation.index(0))
        if relation[0] < 0:
            relation = tuple(-e for e in relation)
        self.__dict__.update(columns=cols, relation=relation)

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return self.positive + self.negative

    @cached_property
    def k(self) -> int:
        return len(self.positive)

    @cached_property
    def volume(self) -> int:
        return max(self.positive_sum, self.negative_sum)

    @property
    def ell(self) -> tuple[int, ...]:
        """The relation in canonical order: positive entries first."""
        return tuple(self.relation[p] for p in self.perm)

    @cached_property
    def positive(self) -> tuple[int, ...]:
        return tuple(mu for mu in range(self.n) if self.relation[mu] > 0)

    @cached_property
    def negative(self) -> tuple[int, ...]:
        return tuple(mu for mu in range(self.n) if self.relation[mu] < 0)

    @property
    def positive_sum(self) -> int:
        return sum(self.relation[mu] for mu in self.positive)

    @property
    def negative_sum(self) -> int:
        return -sum(self.relation[mu] for mu in self.negative)

    def column_combination(self, coefficients) -> Vector:
        """sum_mu coefficients[mu] * a_mu as a rational d-vector."""
        coeffs = fracs(coefficients)
        return tuple(
            sum((c * a for c, a in zip(coeffs, col)), Fraction(0))
            for col in zip(*self.columns)
        )


class RelationLine(Record):
    """Every solution c of sum_mu c_mu a_mu = target: point + t*relation.

    den = D*L, with D the common denominator of the point and L the lcm of
    all |relation| entries; offsets are the point's numerators over den.
    Coordinate mu is an integer b only at t = (b - point[mu])/relation[mu],
    which is k/den for an integer key k, where offsets[mu] + k*relation[mu]
    = 0 mod den; positive lists the mu with relation[mu] > 0.  Only point and
    relation are fields; the attributes are set with object.__setattr__, as
    CPython reads a real __dict__ slower.
    """

    def __init__(self, point, relation):
        den = lcm(*(x.denominator for x in point)) * lcm(*relation)
        offsets = tuple(x.numerator * (den // x.denominator) for x in point)
        positive = tuple(mu for mu, e in enumerate(relation) if e > 0)
        names = ("point", "relation", "den", "offsets", "positive")
        for name, value in zip(names, (point, relation, den, offsets, positive)):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, config: LatticeConfig, target) -> RelationLine | None:
        """The line of solutions for the target, or None outside the span.

        The last column is the one left out: the others are independent and
        span the same space, so the solve is unique.
        """
        partial = _linalg.solve_columns(config.columns[:-1], target)
        if partial is None:
            return None
        return cls(partial + (Fraction(0),), config.relation)

    def at(self, t) -> Vector:
        """The point at parameter t: point + t*relation."""
        return tuple(c + t * e for c, e in zip(self.point, self.relation))

    def keys(self) -> set[int]:
        """The keys where coordinate mu is b, for relation[mu] > 0 and 0 <= b < relation[mu]."""
        den, rel, offsets, out = self.den, self.relation, self.offsets, set()
        for mu in self.positive:
            e, a = rel[mu], offsets[mu]
            out.update(range(-a // e, (e * den - a) // e, den // e))
        return out

    def key_of(self, vec: Vector) -> int:
        """The key of a point of the line, read off its coordinate 0."""
        x = vec[0]
        scaled, r = divmod(x.numerator * self.den, x.denominator)
        k, r2 = divmod(scaled - self.offsets[0], self.relation[0])
        if r or r2:
            raise ValueError(f"not a point of this line at an integer key: {vec}")
        return k

    def shift(self, k: int) -> int:
        """The least z making no positive-side coordinate at k + z*den a negative integer."""
        den, rel, offsets = self.den, self.relation, self.offsets
        bounds = []
        for mu in self.positive:
            q, r = divmod(offsets[mu] + k * rel[mu], den)
            if not r:
                bounds.append(-(q // rel[mu]))
        if not bounds:
            raise ValueError("not a fake exponent: no integral positive-side entry")
        return max(bounds)

    def integral_steps(self, indices) -> tuple[Fraction, Fraction] | None:
        """(t0, step), 0 <= t0 < step, with the listed coordinates integers
        exactly at t0 + step*Z, or None.  Their congruences on the keys merge
        by the Chinese remainder theorem into k = k0 mod m: t0 = k0/den and
        step = m/den.
        """
        if not indices:
            raise ValueError("need at least one index")
        den = self.den
        k0, m = 0, 1
        for mu in indices:
            # k = k0 + m*j: solve (e*m)*j = c mod den for j
            e = self.relation[mu]
            c, g = -self.offsets[mu] - e * k0, gcd(e * m, den)
            if c % g:
                return None
            mod = den // g
            k0 += m * (c // g * pow(e * m // g, -1, mod) % mod)
            m *= mod
        return Fraction(k0, den), Fraction(m, den)


class Parameter(Record):
    """A rational parameter vector lying in the span of the columns.

    ``line`` is the relation line of its solutions, kept from the solve
    that validated the parameter; it is neither shown nor compared.
    """

    _fields = ("beta",)

    def __init__(self, beta, line):
        self.__dict__.update(beta=beta, line=line)

    def __iter__(self):
        return iter(self.beta)

    def __getitem__(self, index):
        return self.beta[index]


class Nonresonance(Record):
    """Outcome of the resonance test, with a witness pair (i, j, value) on failure."""

    def __init__(self, nonresonant, witness=None):
        self.__dict__.update(nonresonant=nonresonant, witness=witness)

    def __bool__(self) -> bool:
        return self.nonresonant


def build_config(points) -> LatticeConfig:
    """The validated configuration of a point set; a LatticeConfig is returned as is."""
    if isinstance(points, LatticeConfig):
        return points
    return LatticeConfig(points)


def volume_crosscheck(config: LatticeConfig) -> int:
    """Recompute the volume from sublattice indices and check agreement.

    Sums, over the columns on the heavier side of the relation, the index
    of the sublattice spanned by the remaining columns inside the full
    column lattice.  Each index is a ratio of products of Smith invariant
    factors.  Must equal ``config.volume``.
    """
    full = _linalg.saturation_index(config.columns)
    side = config.positive if config.positive_sum >= config.negative_sum else config.negative
    total = 0
    for mu in side:
        rest = config.columns[:mu] + config.columns[mu + 1:]
        sub = _linalg.saturation_index(rest)
        index, remainder = divmod(sub, full)
        if remainder:
            raise InternalInvariantError("sublattice index must be integral")
        total += index
    if total != config.volume:
        raise InternalInvariantError(
            f"volume mismatch: indices sum to {total}, relation gives {config.volume}"
        )
    return total


def parameter(config: LatticeConfig, beta) -> Parameter:
    """Validate that beta is a rational combination of the columns.

    One solve does it: the line of solutions exists exactly when beta is in
    the span, and the parameter keeps it.
    """
    if isinstance(beta, Parameter):
        return beta
    vec = fracs(beta)
    if len(vec) != config.dim:
        raise BetaNotInSpan(f"parameter has length {len(vec)}, expected {config.dim}")
    line = RelationLine.of(config, vec)
    if line is None:
        raise BetaNotInSpan(f"{vec} is not in the span of the columns")
    return Parameter(beta=vec, line=line)


def facet_pairs(config: LatticeConfig):
    for i in config.positive:
        for j in config.negative:
            yield i, j


def is_nonresonant(config: LatticeConfig, beta) -> Nonresonance:
    """Check that no facet functional takes an integer value on beta.

    The primitive functional h_ij of a positive column i and a negative
    column j is zero on every column but a_i and a_j, where it takes
    |rel[j]|/g and rel[i]/g, with g = gcd(rel[i], rel[j]).  So on any point
    c of beta's relation line

        h_ij(beta) = (c[i]*|rel[j]| + c[j]*rel[i]) / g,

    the same at every t, as h_ij(relation) = 0: at t = 0, one division of
    offsets[i]*|rel[j]| + offsets[j]*rel[i] by g*den.  Resonance only depends on
    beta modulo the column lattice, since the functionals are integral on
    it.  Returns the first integral pair as the witness (i, j, value).
    """
    line = parameter(config, beta).line
    a, rel = line.offsets, line.relation
    for i, j in facet_pairs(config):
        value, r = divmod(a[i] * -rel[j] + a[j] * rel[i], gcd(rel[i], rel[j]) * line.den)
        if not r:
            return Nonresonance(False, (i, j, value))
    return Nonresonance(True)
