"""The integer elimination in ``gkz1._linalg`` against the Fraction oracle."""

import random
from fractions import Fraction as F
from math import lcm

from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import pytest

from gkz1 import LatticeConfig, _linalg, build_config, integer_lift, parameter
from gkz1.errors import BetaNotInSpan, InputError
from gkz1.lattice import RelationLine

from conftest import random_config, random_nonresonant_beta, random_relation_config
from reference import (
    nullspace_columns_reference,
    relation_points,
    relation_reference,
    saturation_index_reference,
    solve_columns_reference,
)

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


def _augmented(columns, d) -> list[list[int]]:
    """The rows of [A | I] that _linalg.reduction eliminates."""
    return [[col[i] for col in columns] + [int(i == j) for j in range(d)] for i in range(d)]


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
    reduced = _linalg.reduction(columns, d)
    solved = _linalg.solve(reduced, rhs)
    if expected is None:
        assert solved is None
    else:  # integers over the least common denominator of the solution
        numerators, den = solved
        assert tuple(F(x, den) for x in numerators) == expected
        assert den == lcm(*(x.denominator for x in expected))
    event("m == 0" if m == 0 else "d < m" if d < m else "d == m" if d == m else "d > m")
    event("inconsistent" if expected is None else "consistent")
    if m == 0:
        return
    # each integer basis vector is its reference vector times one positive
    # integer, the lcm of the pivots, shared by every vector
    basis = _linalg.nullspace(reduced)
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
    assert _within_minor_bound(_augmented(columns, d), m)


@st.composite
def small_matrices(draw):
    """Columns of an integer matrix with up to 4 rows and 5 columns, entries
    in -6..6, often rank-deficient, with zero rows or columns."""
    m = draw(st.integers(1, 5), label="m")
    d = draw(st.integers(1, 4), label="d")
    columns = [draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d)) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        # one column a combination of the others
        u = draw(st.integers(0, m - 1))
        weights = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        columns[u] = [sum(w * col[i] for t, (w, col) in enumerate(zip(weights, columns)) if t != u)
                      for i in range(d)]
    for t in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        columns[t] = [0] * d
    for i in draw(st.sets(st.integers(0, d - 1), max_size=2)):
        for col in columns:
            col[i] = 0
    return [tuple(col) for col in columns]


@settings(max_examples=400, deadline=None)
@given(columns=small_matrices())
@example(columns=[(0, 0), (0, 0)])
@example(columns=[(2,), (4,)])
@example(columns=[(2, 0), (0, 3), (2, 3)])
def test_saturation_index_is_the_gcd_of_maximal_minors(columns):
    expected = saturation_index_reference(columns)
    assert _linalg.saturation_index(columns) == expected
    event("index 1" if expected == 1 else "index > 1")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), relation_first=st.booleans())
def test_relation_and_line_point_match_the_fraction_route(seed, relation_first):
    rng = random.Random(seed)
    config = random_relation_config(rng) if relation_first else random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    assert LatticeConfig(config.columns).relation == relation_reference(config.columns)
    point = solve_columns_reference(config.columns[:-1], beta) + (F(0),)
    assert parameter(config, beta).line.point == point


class TestLargeEntries:
    """The relations and line points of configurations with large entries,
    pinned against the Fraction route, and the size of the eliminated rows."""

    CASES = [
        ([(1, 0), (1, BIG), (1, 1)], (999999, 1, -BIG), [F(1, 3), F(-2, 7)]),
        (relation_points((126, -57, 97, -27, -3)), (126, -57, 97, -27, -3),
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
            # the reduction every solve back-substitutes through: [A | I]
            assert _within_minor_bound(_augmented(points, d), len(points))


@st.composite
def configs_and_targets(draw):
    """A configuration and a target of its length: a rational combination of
    its columns, or drawn freely, then outside their span when d >= n."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        config = random_config(rng)
    else:
        config = random_relation_config(rng, max_relation=12, max_n=4)
    if draw(st.booleans()):
        target = config.column_combination(draw(st.lists(rationals, min_size=config.n,
                                                         max_size=config.n)))
    else:
        target = draw(st.lists(rationals, min_size=config.dim, max_size=config.dim))
    return config, target


@settings(max_examples=300, deadline=None)
@given(case=configs_and_targets())
def test_parameter_reads_the_fraction_solve_off_the_reduction(case):
    # the line's point is the solve of the first n-1 columns, its last
    # coordinate 0, read off the configuration's one reduction
    config, beta = case
    point = solve_columns_reference(config.columns[:-1], beta)
    event("in the span" if point is not None else "outside the span")
    if point is None:
        with pytest.raises(BetaNotInSpan):
            parameter(config, beta)
    else:
        assert parameter(config, beta).line == RelationLine(point + (F(0),), config.relation)


def test_one_elimination_per_configuration(monkeypatch):
    # build_config eliminates its columns once; every parameter and lift on
    # the built configuration back-substitutes through that reduction
    calls = []
    rref = _linalg._rref
    monkeypatch.setattr(_linalg, "_rref", lambda *args: calls.append(1) or rref(*args))
    rng = random.Random(31)
    for _ in range(20):
        columns = random_config(rng).columns  # drawn with retries, each a build
        calls.clear()
        config = build_config(columns)
        assert len(calls) == 1
        for _ in range(5):
            parameter(config, random_nonresonant_beta(rng, config))
            integer_lift(config, config.column_combination([rng.randint(-3, 3)] * config.n))
        assert len(calls) == 1


# a plain "p" or "p/q" is read past Fraction's regex; these strings sit at
# the edge of that path, and each must come out as Fraction(s) or as its refusal
RATIONAL_EDGES = [
    "-0", "007/010", "1/0", "+1", " 1", "1_0", "--1", "1/-2", "1.5", "1e3", "\u0661",
    "\u00b2", "", "-", "1/", "/2", "1/2/3", "0/0", "-5/10", "1 ", "0x10", "2" * 5000,
    "3/" + "7" * 5000,
]


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(
    st.sampled_from(RATIONAL_EDGES),
    st.text(alphabet="-+/0123456789 ._e\u0661\u00b2", max_size=8),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
))
def test_rational_string_is_read_as_fraction_reads_it(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(InputError) as refused:
            _linalg.rational(text, "beta[0]")
        assert str(refused.value) == f"beta[0]: cannot parse rational {text!r}: {exc}"
        event("refused")
    else:
        value = _linalg.rational(text, "beta[0]")
        assert type(value) is F and value == expected
        event("read")
