"""Integer point configurations with a one-dimensional relation lattice.

A configuration is a list of n integer points in Z^d spanning an
(n-1)-dimensional space, with every (n-1)-subset independent.  Its integer
relations then form a rank-one lattice generated by a single signed coprime
vector, which fixes the distinguished monomial

    x0 = prod_{rel[mu] > 0} x_mu^rel[mu] / prod_{rel[mu] < 0} x_mu^(-rel[mu]).

All column indices in this package are 0-based and refer to the caller's
original column order; the canonical positives-first ordering is available
through ``perm``/``ell`` but is never imposed on inputs or outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import _linalg
from ._linalg import Progression, Vector, fracs
from .errors import BetaNotInSpan, DependentSubset, IndexOutOfRange, KernelRankNotOne


@dataclass(frozen=True)
class PointConfig:
    """The raw input: n integer points (columns) in Z^d.

    Validates on construction that the points span exactly an
    (n-1)-dimensional space and that every subset of n-1 points is
    linearly independent, with one kernel computation: once the kernel is
    the line through ``relation``, the columns without mu are independent
    exactly when relation[mu] != 0.  ``relation`` is that kernel's
    coprime integer generator, signed so that relation[0] > 0.
    """

    columns: tuple[tuple[int, ...], ...]
    relation: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = tuple(tuple(int(x) for x in col) for col in self.columns)
        object.__setattr__(self, "columns", cols)
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
        object.__setattr__(self, "relation", relation)

    @property
    def n(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns[0])


@dataclass(frozen=True)
class LatticeConfig:
    """A validated configuration together with its relation data.

    relation  -- the signed coprime generator of the relation lattice, in the
                 caller's column order, sign fixed so relation[0] > 0;
    perm      -- stable permutation listing positive-relation columns first;
    k         -- number of positive relation entries;
    volume    -- normalized volume of the polytope spanned by the points and
                 the origin (the larger of the two signed coefficient sums).
    """

    points: PointConfig
    relation: tuple[int, ...]
    perm: tuple[int, ...]
    k: int
    volume: int

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def dim(self) -> int:
        return self.points.dim

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self.points.columns

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


@dataclass(frozen=True)
class RelationLine:
    """Every solution c of sum_mu c_mu a_mu = target: point + t*relation.

    The relation lattice has rank one, so the solutions form one line over
    the rationals, and every exponent, lift and integrality question about
    a target is arithmetic on it.
    """

    point: Vector
    relation: tuple[int, ...]

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

    def through(self, mu: int, x) -> Vector:
        """The unique point whose mu-th coordinate is x."""
        return self.at((x - self.point[mu]) / self.relation[mu])

    def integral_steps(self, indices) -> Progression | None:
        """The progression of t making every listed coordinate an integer."""
        return _linalg.intersect_progressions([
            (-self.point[mu] / self.relation[mu], Fraction(1, abs(self.relation[mu])))
            for mu in indices
        ])


@dataclass(frozen=True)
class Parameter:
    """A rational parameter vector lying in the span of the columns."""

    beta: Vector

    def __iter__(self):
        return iter(self.beta)


@dataclass(frozen=True)
class FacetFunctional:
    """Primitive integral functional vanishing on all columns but two.

    ``coeffs`` is one rational representative of the functional on Q^d;
    it is only meaningful on the span of the columns.  ``values`` holds the
    integers taken on the n columns; exactly the entries at ``i`` (positive
    side) and ``j`` (negative side) are nonzero, and they are coprime and
    positive.
    """

    i: int
    j: int
    coeffs: Vector
    values: tuple[int, ...]

    def __call__(self, vector) -> Fraction:
        return sum(
            (c * Fraction(x) for c, x in zip(self.coeffs, vector)), Fraction(0)
        )


@dataclass(frozen=True)
class Nonresonance:
    """Outcome of the resonance test, with a witness pair on failure."""

    nonresonant: bool
    witness: tuple[int, int, int] | None = None  # (i, j, integer value)

    def __bool__(self) -> bool:
        return self.nonresonant


def build_config(points) -> LatticeConfig:
    """Construct the canonical LatticeConfig for a point configuration.

    The relation generator is the one PointConfig computed while
    validating the points.
    """
    if not isinstance(points, PointConfig):
        points = PointConfig(tuple(tuple(col) for col in points))
    relation = points.relation
    perm = tuple(
        sorted(range(points.n), key=lambda mu: (relation[mu] < 0, mu))
    )
    k = sum(1 for e in relation if e > 0)
    pos_sum = sum(e for e in relation if e > 0)
    neg_sum = -sum(e for e in relation if e < 0)
    return LatticeConfig(
        points=points,
        relation=relation,
        perm=perm,
        k=k,
        volume=max(pos_sum, neg_sum),
    )


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
        assert remainder == 0, "sublattice index must be integral"
        total += index
    assert total == config.volume, (
        f"volume mismatch: indices sum to {total}, relation gives {config.volume}"
    )
    return total


def facet_functional(config: LatticeConfig, i: int, j: int) -> FacetFunctional:
    """The primitive functional h vanishing on every column except i and j.

    Requires relation[i] > 0 and relation[j] < 0: only those pairs span
    facets of the polytope through the origin.  Applying h to the relation
    forces relation[i]*h(a_i) = -relation[j]*h(a_j), so the primitive values
    are h(a_i) = |relation[j]|/g and h(a_j) = relation[i]/g with g their gcd;
    primitivity on the column lattice is exactly coprimality of the values
    on the columns, which generate it.
    """
    n = config.n
    if not (0 <= i < n and 0 <= j < n) or config.relation[i] <= 0 or config.relation[j] >= 0:
        raise IndexOutOfRange(
            f"need a (positive, negative) relation pair, got ({i}, {j})"
        )
    li = config.relation[i]
    lj = -config.relation[j]
    g = gcd(li, lj)
    others = [s for s in range(n) if s not in (i, j)]
    rows = others + [i]
    rhs = [Fraction(0)] * len(others) + [Fraction(lj, g)]
    matrix_columns = [
        [config.columns[s][t] for s in rows] for t in range(config.dim)
    ]
    coeffs = _linalg.solve_columns(matrix_columns, rhs)
    assert coeffs is not None, "facet system must be solvable"
    functional = FacetFunctional(i=i, j=j, coeffs=coeffs, values=())
    raw_values = [functional(col) for col in config.columns]
    assert all(v.denominator == 1 for v in raw_values)
    values = tuple(int(v) for v in raw_values)
    assert values[i] == lj // g and values[j] == li // g
    assert li * values[i] == lj * values[j]
    assert gcd(*values) == 1
    return FacetFunctional(i=i, j=j, coeffs=coeffs, values=values)


def parameter(config: LatticeConfig, beta) -> Parameter:
    """Validate that beta is a rational combination of the columns."""
    if isinstance(beta, Parameter):
        return beta
    vec = fracs(beta)
    if len(vec) != config.dim:
        raise BetaNotInSpan(f"parameter has length {len(vec)}, expected {config.dim}")
    if _linalg.solve_columns(config.columns, vec) is None:
        raise BetaNotInSpan(f"{vec} is not in the span of the columns")
    return Parameter(beta=vec)


def facet_pairs(config: LatticeConfig):
    for i in config.positive:
        for j in config.negative:
            yield i, j


def is_nonresonant(config: LatticeConfig, beta) -> Nonresonance:
    """Check that no facet functional takes an integer value on beta.

    Resonance only depends on beta modulo the column lattice, since the
    functionals are integral on it.  Returns a witness pair on failure.
    """
    beta = parameter(config, beta)
    for i, j in facet_pairs(config):
        value = facet_functional(config, i, j)(beta.beta)
        if value.denominator == 1:
            return Nonresonance(False, (i, j, int(value)))
    return Nonresonance(True)
