"""Integer point configurations with a one-dimensional relation lattice.

A configuration is a list of n integer points in Z^d spanning an
(n-1)-dimensional space, with every (n-1)-subset independent.  Its integer
relations then form a rank-one lattice generated by a single signed coprime
vector, which fixes the distinguished monomial

    x0 = prod_{rel[mu] > 0} x_mu^rel[mu] / prod_{rel[mu] < 0} x_mu^(-rel[mu]).

One type, ``LatticeConfig``, holds it: the columns, their one integer
reduction, which every solve on them reads, and the relation, found while
validating the columns; the rest (the sides of the relation, their sums,
``perm``, ``k`` and the volume) is derived from the relation on construction.

The solutions of sum_mu c_mu a_mu = target form one line, w + t*relation,
held by ``RelationLine`` in integers: a coordinate is an integer only at
t = k/den for an integer key k, so exponents, normalization shifts, lifts,
resonance and the negative-span test are integer congruences on keys.

Along that line the box operator is the two-term recurrence
C(z) F+_z = C(z-1) F-_{z-1}, with one side's factor

    F_z(eps) = prod_{mu on the side} prod_{i < |rel[mu]|} (w_mu(z) - i + eps*rel[mu])

at w(z) = w0 + z*relation.  Its factors are read here, once, for the series
builder and for the certificate alike: ``_box_sides`` lists each side's
columns as a tuple of (p, q, rel[mu]), w0_mu = p/q, with the scale
prod_mu q^|rel[mu]|, and ``_box_row`` gives F_z truncated at eps^top, times
that scale, as a tuple of integers.  A row is a pure function of its
factors, z and top, so ``_box_row`` keeps the last _ROWS rows it computed in
one lru_cache: the certificate's shifts ask for the rows the builder's walk
stepped with, and get them without computing them again.  A row is a tuple,
so no caller can change a shared one; gkz1.cli empties the cache when a
command ends.

All column indices in this package are 0-based and refer to the caller's
original column order; the canonical positives-first ordering is available
through ``perm``/``ell`` but is never imposed on inputs or outputs.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from . import _linalg
from ._linalg import Vector, _times_linear, fracs, integers, sequence, shown
from ._record import Record
from .errors import BetaNotInSpan, DependentSubset, InternalInvariantError, KernelRankNotOne


class _Points(tuple):
    """Points that cli.load_problem type-tested, tuples of ints: LatticeConfig trusts them."""


class LatticeConfig(Record):
    """n integer points (columns) in Z^d with a rank-one relation lattice.

    Validates on construction that the points span exactly an
    (n-1)-dimensional space and that every subset of n-1 points is
    linearly independent, with one elimination: once the kernel is the line
    through ``relation``, the columns without mu are independent exactly
    when relation[mu] != 0.  The columns are the one field; the rest is
    derived on construction:

    reduction -- the columns' integer reduction (_linalg.reduction), which
                 gives the kernel here and every RelationLine.of solve;
    relation  -- the kernel's coprime integer generator, in the caller's
                 column order, signed so that relation[0] > 0;
    positive, negative -- the columns with relation[mu] > 0, and < 0;
    positive_sum, negative_sum -- the sums of |relation[mu]| over each side;
    perm      -- stable permutation listing positive-relation columns first;
    k         -- number of positive relation entries;
    volume    -- normalized volume of the polytope spanned by the points and
                 the origin (the larger of the two signed coefficient sums).
    """

    def __init__(self, columns):
        # a type test first: a point is named only when integers() reads it
        cols = tuple(columns) if type(columns) is _Points else tuple(
            tuple(p) if type(p) in (tuple, list) and all(type(x) is int for x in p)
            else integers(p, f"point {i}") for i, p in enumerate(sequence(columns, "points"))
        )
        n = len(cols)
        if n < 2:
            raise KernelRankNotOne(f"need at least 2 points, got {n}")
        d = len(cols[0])
        if d < 1 or any(len(c) != d for c in cols):
            raise KernelRankNotOne("points must be nonempty and equal length")
        reduction = _linalg.reduction(cols, d)
        kernel = _linalg.nullspace(reduction)
        if len(kernel) != 1:
            raise KernelRankNotOne(f"points span rank {n - len(kernel)}, expected {n - 1}")
        kernel = kernel[0]  # divided by its content, signed so that relation[0] > 0
        content = gcd(*kernel) if kernel[0] > 0 else -gcd(*kernel)
        relation = tuple(x // content for x in kernel)
        if 0 in relation:
            raise DependentSubset(relation.index(0))
        positive = tuple(mu for mu, e in enumerate(relation) if e > 0)
        negative = tuple(mu for mu, e in enumerate(relation) if e < 0)
        positive_sum = sum(relation[mu] for mu in positive)
        negative_sum = positive_sum - sum(relation)
        self._set(
            columns=cols, reduction=reduction, relation=relation, positive=positive,
            negative=negative, perm=positive + negative, k=len(positive),
            positive_sum=positive_sum, negative_sum=negative_sum,
            volume=max(positive_sum, negative_sum),
        )

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])

    @property
    def ell(self) -> tuple[int, ...]:
        """The relation in canonical order: positive entries first."""
        return tuple(self.relation[p] for p in self.perm)

    def column_combination(self, coefficients) -> Vector:
        """sum_mu coefficients[mu] * a_mu as a rational d-vector."""
        coeffs = fracs(coefficients, "coefficients")
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
    relation are fields, and the point is read off the offsets; the rest is
    derived once, on construction.
    """

    def __init__(self, point, relation):
        d = lcm(*(x.denominator for x in point))
        self._line([x.numerator * (d // x.denominator) for x in point], d, relation)

    def _line(self, numerators, d: int, relation) -> RelationLine:
        """Set the line through the point numerators/d, d their least common denominator."""
        scale, positive = lcm(*relation), tuple(mu for mu, e in enumerate(relation) if e > 0)
        offsets = tuple(x * scale for x in numerators)
        self._set(relation=relation, den=d * scale, offsets=offsets, positive=positive)
        return self

    point = property(lambda self: tuple(Fraction(a, self.den) for a in self.offsets))

    @classmethod
    def of(cls, config: LatticeConfig, target) -> RelationLine | None:
        """The line of solutions for the target, or None outside the span.

        Its point is read off the configuration's reduction by
        back-substitution: the last column is its one free coordinate, as
        the others are independent, so the point is the unique solution
        with last coordinate 0.
        """
        solved = _linalg.solve(config.reduction, target)
        return None if solved is None else cls.__new__(cls)._line(*solved, config.relation)

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

    def block(self, keys) -> tuple[list, list, list, list]:
        """The points at the keys, a column at a time: (columns, labels, masks,
        normalized), columns[mu] the numerators of coordinate mu over den, the
        others one entry per key.  The m_support, the bits of a mask, holds the
        mu with relation[mu] > 0 where the coordinate is an integer b >= 0; the
        labels are its pairs (mu, b) with b < relation[mu].  A point is
        normalized, shift(k) == 0, when it has a label and none of these
        coordinates is a negative integer.
        """
        rel, dens = self.relation, repeat(self.den)
        columns = [[a + k * e for k in keys] for a, e in zip(self.offsets, rel)]
        masks, labels, normalized = [0] * len(keys), [()] * len(keys), [True] * len(keys)
        for mu in self.positive:
            e, bit = rel[mu], 1 << mu
            for i, (q, r) in enumerate(map(divmod, columns[mu], dens)):
                if r:
                    continue
                if q < 0:
                    normalized[i] = False
                else:
                    masks[i] |= bit
                    if q < e:
                        labels[i] += ((mu, q),)
        normalized = [ok and bool(pairs) for ok, pairs in zip(normalized, labels)]
        return columns, labels, masks, normalized

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


# the most box rows _box_row keeps; every benchmark report's rows fit
_ROWS = 4096


def _box_sides(base, relation) -> tuple[tuple[tuple, int], tuple[tuple, int]]:
    """((factors, scale) of the positive side, and of the negative side): the
    factors, a tuple of (p, q, rel[mu]) for each column mu on the side, in
    index order, with base[mu] = p/q, and scale = prod_mu q^|rel[mu]|."""
    plus, minus, plus_scale, minus_scale = [], [], 1, 1
    for w, e in zip(base, relation):
        q = w.denominator
        if e < 0:
            minus.append((w.numerator, q, e))
            minus_scale *= q ** -e
        else:
            plus.append((w.numerator, q, e))
            plus_scale *= q ** e
    return (tuple(plus), plus_scale), (tuple(minus), minus_scale)


@functools.lru_cache(maxsize=_ROWS)  # the walk's rows, read again by the certificate
def _box_row(factors: tuple, z: int, top: int) -> tuple[int, ...]:
    """scale * F_z(eps), truncated at eps^top, for one side's factors.  The
    scaled factors q*(w_mu(z) - i + eps*rel[mu]), i < |rel[mu]|, are the run
    (p + q*z*rel[mu] - q*i) + eps*q*rel[mu], of step -q in i.  The last
    _ROWS rows are kept, and a row asked for again is the kept one."""
    f = [1] + [0] * top
    for p, q, e in factors:
        start = p + q * z * e
        _times_linear(f, range(start, start - q * abs(e), -q), q * e)
    return tuple(f)


class Parameter(Record):
    """A rational parameter vector lying in the span of the columns.

    ``line`` is the relation line of its solutions, kept from the solve
    that validated the parameter; it is neither shown nor compared.
    """

    _fields = ("beta",)

    def __init__(self, beta, line):
        self._set(beta=beta, line=line)

    def __iter__(self):
        return iter(self.beta)

    def __getitem__(self, index):
        return self.beta[index]

    def __len__(self):
        return len(self.beta)


class Nonresonance(Record):
    """Outcome of the resonance test: a witness pair (i, j, value) on failure,
    None otherwise; nonresonant is whether there is no witness."""

    def __init__(self, witness=None):
        self._set(witness=witness, nonresonant=witness is None)

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
    the span, and the parameter keeps it.  A Parameter is returned as is when
    its line is one of this configuration's: at once when RelationLine.of
    built it from this configuration (it holds the same relation object),
    and otherwise when its relation is this one and sum_mu offsets[mu]*a_mu
    = beta*den.  Any other Parameter raises BetaNotInSpan.
    """
    if isinstance(beta, Parameter):
        line = beta.line
        if line.relation is config.relation:
            return beta
        if len(beta.beta) == config.dim and line.relation == config.relation and all(
            sum(a * x for a, x in zip(row, line.offsets)) * b.denominator
            == b.numerator * line.den
            for row, b in zip(zip(*config.columns), beta.beta)
        ):
            return beta
        raise BetaNotInSpan(f"beta: the parameter {shown(beta.beta)} belongs to other points")
    vec = fracs(beta, "beta")
    if len(vec) != config.dim:
        raise BetaNotInSpan(f"parameter has length {len(vec)}, expected {config.dim}")
    line = RelationLine.of(config, vec)
    if line is None:
        raise BetaNotInSpan(f"{shown(vec)} is not in the span of the columns")
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
            return Nonresonance((i, j, value))
    return Nonresonance()
