"""The integer elimination in ``gkz1._linalg`` against the Fraction oracle."""

import random
from fractions import Fraction as F
from math import lcm

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gkz1 import PointConfig, _linalg, build_config, parameter

from conftest import random_config, random_nonresonant_beta, random_relation_config
from reference import nullspace_columns_reference, relation_reference, solve_columns_reference

BIG = 10**6
entries = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
rationals = st.builds(F, st.integers(-BIG, BIG), st.sampled_from([1, 1, 2, 3, 7, 12, 97]))
# square, full rank, entries near 10^6: without content division its rows
# grow to about 250 bits
FULL_RANK = [
    tuple(x * 10**5 + (i + j) % 3 for i, x in enumerate(col))
    for j, col in enumerate([(3, -1, 4, 1, -5), (9, 2, -6, 5, 3), (-5, 8, 9, 7, -9),
                             (3, 2, -3, 8, 4), (6, -2, 6, 4, -3)])
]


@st.composite
def systems(draw):
    """(columns, rhs): m columns of length d, often rank-deficient, with zero
    rows or columns, and a right-hand side with mixed denominators that is
    in the span or drawn freely (then usually outside it when rank < d)."""
    m = draw(st.integers(0, 5), label="m")
    d = draw(st.integers(0, 5), label="d")
    columns = [draw(st.lists(entries, min_size=d, max_size=d)) for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        # one column a combination of two others
        s, t, u = draw(st.permutations(range(m)))[:3]
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        columns[u] = [a * x + b * y for x, y in zip(columns[s], columns[t])]
    for t in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)) if m else ():
        columns[t] = [0] * d
    for i in draw(st.sets(st.integers(0, max(d - 1, 0)), max_size=2)) if d else ():
        for col in columns:
            col[i] = 0
    if draw(st.booleans()):
        weights = draw(st.lists(rationals, min_size=m, max_size=m))
        rhs = [sum((w * col[i] for w, col in zip(weights, columns)), F(0)) for i in range(d)]
    else:
        rhs = draw(st.lists(rationals, min_size=d, max_size=d))
    return [tuple(col) for col in columns], rhs


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _within_minor_bound(rows, ncols) -> bool:
    """Whether the integer elimination of the rows keeps their entries small.

    A primitive row is a vector of (rank+1)-minors divided by their gcd,
    and Hadamard bounds a k-minor by k*(bits + log2(k)/2) bits.
    """
    before = _bits(rows)
    rank = len(_linalg._rref(rows, ncols))
    return _bits(rows) <= (rank + 1) * (before + 2)


@settings(max_examples=400, deadline=None)
@given(system=systems())
@example(system=([], [F(0), F(0)]))
@example(system=([], [F(1, 3)]))
@example(system=([(1, 0), (2, 0)], [F(0), F(1, 2)]))
@example(system=([(0, 0, 0), (BIG, -BIG, 1)], [F(1), F(-1), F(1, BIG)]))
@example(system=(FULL_RANK, [F(1, 2), F(-3, 7), F(5), F(2, 3), F(-1, 12)]))
def test_integer_elimination_matches_the_fraction_oracle(system):
    columns, rhs = system
    m, d = len(columns), len(rhs)
    expected = solve_columns_reference(columns, rhs)
    assert _linalg.solve_columns(columns, rhs) == expected
    event("m == 0" if m == 0 else "d < m" if d < m else "d == m" if d == m else "d > m")
    event("inconsistent" if expected is None else "consistent")
    if m == 0:
        return
    # each integer basis vector is its reference vector times one positive
    # integer, the lcm of the pivots, shared by every vector
    basis = _linalg.nullspace_columns(columns)
    reference = nullspace_columns_reference(columns)
    assert len(basis) == len(reference)
    scales = set()
    for vec, ref in zip(basis, reference):
        assert all(type(x) is int for x in vec)
        lead = next(t for t, x in enumerate(ref) if x)
        scale = F(vec[lead]) / ref[lead]
        assert scale > 0 and scale.denominator == 1
        assert tuple(F(x) for x in vec) == tuple(scale * x for x in ref)
        scales.add(scale)
    assert len(scales) <= 1
    event("rank-deficient" if basis else "full column rank")
    assert _within_minor_bound([[col[i] for col in columns] for i in range(d)], m)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), relation_first=st.booleans())
def test_relation_and_line_point_match_the_fraction_route(seed, relation_first):
    rng = random.Random(seed)
    config = random_relation_config(rng) if relation_first else random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    assert PointConfig(config.columns).relation == relation_reference(config.columns)
    point = solve_columns_reference(config.columns[:-1], beta) + (F(0),)
    assert parameter(config, beta).line.point == point


def _relation_points(relation):
    """Points whose relation is the given primitive vector: the columns of
    the rows relation[j]*e_0 - relation[0]*e_j, which are orthogonal to it."""
    n = len(relation)
    rows = [[relation[j] if t == 0 else -relation[0] if t == j else 0 for t in range(n)]
            for j in range(1, n)]
    return [tuple(col) for col in zip(*rows)]


class TestLargeEntries:
    """The relations and line points of configurations with large entries,
    pinned against the Fraction route, and the size of the eliminated rows."""

    CASES = [
        ([(1, 0), (1, BIG), (1, 1)], (999999, 1, -BIG), [F(1, 3), F(-2, 7)]),
        (_relation_points((126, -57, 97, -27, -3)), (126, -57, 97, -27, -3),
         [F(1, 2), F(-3, 5), F(7, 3), F(0)]),
    ]

    def test_relation_and_line_point(self):
        for points, relation, beta in self.CASES:
            config = build_config(points)
            assert config.relation == relation == relation_reference(points)
            point = solve_columns_reference(points[:-1], beta) + (F(0),)
            assert parameter(config, beta).line.point == point

    def test_eliminated_rows_stay_small(self):
        for points, _, beta in self.CASES:
            d = len(points[0])
            assert _within_minor_bound([[p[i] for p in points] for i in range(d)], len(points))
            # the augmented solve, after clearing beta's denominators
            den = lcm(*(x.denominator for x in beta))
            rows = [[p[i] * den for p in points[:-1]] + [int(beta[i] * den)] for i in range(d)]
            assert _within_minor_bound(rows, len(points) - 1)
