import random
from fractions import Fraction as F

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gkz1 import (
    LatticeConfig,
    _linalg,
    Nonresonance,
    build_config,
    is_nonresonant,
    parameter,
    volume_crosscheck,
)
from gkz1.errors import (
    BetaNotInSpan,
    DependentSubset,
    InternalInvariantError,
    KernelRankNotOne,
)
from gkz1.classify import _parameter_in_negative_span
from gkz1.lattice import RelationLine, facet_pairs

from conftest import random_config, random_nonresonant_beta, random_relation_config
from reference import (
    IndexOutOfRange,
    config_reference,
    facet_functional,
    integral_steps_reference,
    nullspace_columns_reference,
    solve_columns_reference,
)


class TestBuildConfig:
    def test_triangle(self, triangle):
        assert triangle.relation == (1, 1, -2)
        assert triangle.k == 2
        assert triangle.volume == 2
        assert triangle.perm == (0, 1, 2)

    def test_gauss(self, gauss):
        assert gauss.relation == (1, 1, -1, -1)
        assert gauss.k == 2
        assert gauss.volume == 2

    def test_equal_points_line(self):
        config = build_config([(1,), (1,)])
        assert config.relation == (1, -1)
        assert config.k == 1
        assert config.volume == 1

    def test_reordered_columns_get_permuted(self):
        # a1 + a3 = 2*a2, so the middle column sits on the negative side
        config = build_config([(1, 0), (1, 1), (1, 2)])
        assert config.relation == (1, -2, 1)
        assert config.perm == (0, 2, 1)
        assert config.ell == (1, 1, -2)
        assert config.k == 2

    def test_all_positive_relation(self, interior):
        assert interior.relation == (1, 1, 1)
        assert interior.k == 3
        assert interior.negative == ()
        assert interior.volume == 3

    def test_relation_annihilates_columns(self, triangle, gauss, interior):
        for config in (triangle, gauss, interior):
            combo = config.column_combination(config.relation)
            assert all(x == 0 for x in combo)

    def test_rank_too_small(self):
        with pytest.raises(KernelRankNotOne):
            build_config([(1, 0), (2, 0), (3, 0)])

    def test_rank_too_large(self):
        with pytest.raises(KernelRankNotOne):
            build_config([(1, 0), (0, 1)])

    def test_dependent_subset(self):
        with pytest.raises(DependentSubset) as info:
            build_config([(1, 0), (-1, 0), (0, 1)])
        assert info.value.omitted == 2


def _brute_force_verdict(columns):
    """(error class, omitted index) from ranks of the set and its subsets."""
    n = len(columns)
    if n - len(nullspace_columns_reference(columns)) != n - 1:
        return KernelRankNotOne, None
    for omit in range(n):
        if nullspace_columns_reference(columns[:omit] + columns[omit + 1:]):
            return DependentSubset, omit
    return None, None


def _point_sets(n, d):
    """Raw small points (often rank-deficient), or n-1 points plus a
    combination of them whose zero weights give zero relation entries."""
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    raw = st.lists(point, min_size=n, max_size=n)

    def with_combination(base_weights):
        base, weights = base_weights
        last = [sum(w * p[i] for w, p in zip(weights, base)) for i in range(d)]
        return base + [last]

    built = st.tuples(
        st.lists(point, min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(-1, 2), min_size=n - 1, max_size=n - 1),
    ).map(with_combination)
    return st.one_of(raw, built)


@settings(max_examples=300, deadline=None)
@given(
    points=st.integers(2, 5).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda d: _point_sets(n, d))
    )
)
@example(points=[[1, 0], [2, 0], [3, 0]])  # rank 1
@example(points=[[1, 0], [0, 1]])  # rank 2 with two points
@example(points=[[1, 0], [-1, 0], [0, 1]])  # relation (1, 1, 0)
@example(points=[[1, 0], [1, 2], [1, 1]])  # valid
def test_validation_matches_subset_ranks(points):
    columns = tuple(tuple(p) for p in points)
    error, omitted = _brute_force_verdict(columns)
    if error is None:
        relation = LatticeConfig(columns).relation
        assert relation[0] > 0 and 0 not in relation
        assert all(
            sum(e * col[i] for e, col in zip(relation, columns)) == 0
            for i in range(len(columns[0]))
        )
    else:
        with pytest.raises(error) as info:
            LatticeConfig(columns)
        assert type(info.value) is error
        if omitted is not None:
            assert info.value.omitted == omitted


def _configurations():
    """Columns of random_config and random_relation_config, or raw point sets."""
    seeded = st.builds(
        lambda make, seed: [list(col) for col in make(random.Random(seed)).columns],
        st.sampled_from([random_config, random_relation_config]),
        st.integers(0, 2**32 - 1),
    )
    raw = st.integers(2, 5).flatmap(lambda n: st.integers(1, 4).flatmap(lambda d: _point_sets(n, d)))
    return st.one_of(seeded, raw)


@settings(max_examples=300, deadline=None)
@given(points=_configurations())
def test_configuration_derives_relation_perm_k_and_volume(points):
    columns = tuple(tuple(p) for p in points)
    error, omitted = _brute_force_verdict(columns)
    if error is not None:
        with pytest.raises(error) as info:
            build_config(points)
        assert type(info.value) is error
        if omitted is not None:
            assert info.value.omitted == omitted
        else:
            rank = len(columns) - len(nullspace_columns_reference(columns))
            assert str(info.value) == f"points span rank {rank}, expected {len(columns) - 1}"
        event(error.__name__)
        return
    config = build_config(points)
    assert config.columns == columns
    assert (config.relation, config.perm, config.k, config.volume) == config_reference(columns)
    assert build_config(config) is config
    twin = LatticeConfig(columns)
    assert twin is not config and twin == config and hash(twin) == hash(config)
    assert twin.relation == config.relation
    assert repr(twin) == f"LatticeConfig(columns={columns!r})"
    event("valid")


class TestRelationLine:
    def test_operations(self, triangle):
        line = RelationLine.of(triangle, [10, 8])
        assert triangle.column_combination(line.point) == (10, 8)
        assert line.at(2) == tuple(c + 2 * e for c, e in zip(line.point, (1, 1, -2)))
        offset, step = line.integral_steps(range(3))
        assert step == 1 and all(x.denominator == 1 for x in line.at(offset))
        assert RelationLine.of(triangle, [F(1, 2), 0]).integral_steps([0, 1]) is None

    def test_outside_span(self):
        flat = build_config([(1, 0), (1, 0)])
        assert RelationLine.of(flat, [0, 1]) is None

    def test_integers_over_den(self, triangle):
        line = RelationLine.of(triangle, [F(1, 2), F(1, 3)])
        assert line.point == (F(1, 3), F(1, 6), F(0))
        # den = 6 * lcm(1, 1, 2); coordinate mu at key k is (offsets[mu] + k*rel[mu])/den
        assert (line.den, line.offsets) == (12, (4, 2, 0))
        assert line.keys() == {-4, -2}  # coordinate 0 is 0, coordinate 1 is 0
        assert [line.key_of(line.at(F(k, 12))) for k in (-4, 8, -16)] == [-4, 8, -16]
        with pytest.raises(ValueError):
            line.key_of(line.at(F(1, 24)))
        assert [line.shift(k) for k in (-4, 8, -16, -2)] == [0, -1, 1, 0]
        with pytest.raises(ValueError):
            line.shift(0)  # no integral positive coordinate
        assert line.integral_steps([0]) == (F(2, 3), 1)
        assert line.integral_steps([2]) == (0, F(1, 2))
        assert line.integral_steps([0, 1]) is None
        with pytest.raises(ValueError):
            line.integral_steps([])


@st.composite
def lines_and_indices(draw):
    """A line through a target of denominator 1 to 7, and an index set: all
    columns, the positive ones, or a single negative column."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        config = random_config(rng)
    else:
        config = random_relation_config(rng, max_relation=12, max_n=4)
    q = draw(st.integers(1, 7))
    weights = [F(draw(st.integers(-3 * q, 3 * q)), q) for _ in range(config.n)]
    line = RelationLine.of(config, config.column_combination(weights))
    choices = [tuple(range(config.n)), config.positive]
    choices += [(mu,) for mu in config.negative]
    indices = draw(st.sampled_from(choices))
    return line, indices


@settings(max_examples=300, deadline=None)
@given(case=lines_and_indices())
def test_integral_steps_match_the_progression_reference(case):
    line, indices = case
    steps = line.integral_steps(indices)
    assert steps == integral_steps_reference(line.point, line.relation, indices)
    event("integral" if steps else "none")
    if steps is not None:
        t0, step = steps
        for t in (t0, t0 + step, t0 - 2 * step):
            assert all(line.at(t)[mu].denominator == 1 for mu in indices)


class TestVolumeCrosscheck:
    def test_examples(self, triangle, gauss):
        assert volume_crosscheck(gauss) == 2
        assert volume_crosscheck(triangle) == 2
        assert volume_crosscheck(build_config([(1,), (1,)])) == 1

    def test_sparse_lattice(self):
        # ZA = 2Z inside Z, so the saturation index is nontrivial
        config = build_config([(2,), (2,)])
        assert volume_crosscheck(config) == config.volume == 1

    def test_wrong_index_raises(self, triangle, monkeypatch):
        true_index = _linalg.saturation_index
        # the full lattice's index tripled: a sublattice index is not integral
        monkeypatch.setattr(
            _linalg, "saturation_index",
            lambda cols: true_index(cols) * (3 if len(cols) == triangle.n else 1),
        )
        with pytest.raises(InternalInvariantError, match="must be integral"):
            volume_crosscheck(triangle)
        # every sublattice index doubled: the sum misses the volume
        monkeypatch.setattr(
            _linalg, "saturation_index",
            lambda cols: true_index(cols) * (2 if len(cols) < triangle.n else 1),
        )
        with pytest.raises(InternalInvariantError, match="indices sum to 4, relation gives 2"):
            volume_crosscheck(triangle)

    def test_random_corpus_sample(self):
        rng = random.Random(4)
        for _ in range(40):
            config = random_config(rng, max_entry=5, max_n=6, max_d=5)
            assert volume_crosscheck(config) == config.volume


class TestFacetFunctional:
    def test_triangle_values(self, triangle):
        h = facet_functional(triangle, 0, 2)
        assert h.values == (2, 0, 1)
        # coefficient vector is (2, -1) up to the sign fixed by h(a_0) > 0
        assert h.coeffs == (F(2), F(-1))

    def test_gauss_unit_values(self, gauss):
        h = facet_functional(gauss, 0, 2)
        assert h.values[0] == h.values[2] == 1
        assert h.values[1] == h.values[3] == 0

    def test_zero_vector(self, triangle):
        h = facet_functional(triangle, 0, 2)
        assert h((0, 0)) == 0

    def test_invariants_over_all_pairs(self, triangle, corner, gauss):
        from math import gcd

        for config in (triangle, corner, gauss):
            for i, j in facet_pairs(config):
                h = facet_functional(config, i, j)
                for s in range(config.n):
                    if s not in (i, j):
                        assert h.values[s] == 0
                assert h.values[i] > 0 and h.values[j] > 0
                assert config.relation[i] * h.values[i] == -config.relation[j] * h.values[j]
                assert gcd(*h.values) == 1

    def test_bad_pair_rejected(self, triangle):
        with pytest.raises(IndexOutOfRange):
            facet_functional(triangle, 0, 1)  # both on the positive side
        with pytest.raises(IndexOutOfRange):
            facet_functional(triangle, 2, 0)


class TestNonresonance:
    def test_integer_witness(self, corner):
        result = is_nonresonant(corner, [0, 0])
        assert not result
        assert result.witness == (0, 2, 0)

    def test_generic_rational(self, corner):
        assert is_nonresonant(corner, [F(1, 2), F(1, 3)])

    def test_gauss_parameters(self, gauss):
        theta1, theta2, sigma = F(1, 2), F(1, 3), F(1, 5)
        beta = (-theta1, -theta2, sigma - 1)
        assert is_nonresonant(gauss, beta)
        for quantity in (theta1, theta2, theta1 - sigma, theta2 - sigma):
            assert quantity.denominator != 1

    def test_no_facet_pairs_means_vacuous(self, interior):
        # with no negative side there are no origin facets at all
        assert is_nonresonant(interior, [F(3, 7), F(-1, 5)])

    def test_depends_only_on_lattice_class(self, triangle, corner, gauss):
        rng = random.Random(11)
        for config in (triangle, corner, gauss):
            for _ in range(20):
                weights = [
                    F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
                    for _ in range(config.n)
                ]
                beta = config.column_combination(weights)
                shift = config.column_combination(
                    [rng.randint(-3, 3) for _ in range(config.n)]
                )
                shifted = tuple(b + u for b, u in zip(beta, shift))
                assert bool(is_nonresonant(config, beta)) == bool(
                    is_nonresonant(config, shifted)
                )

    def test_random_nonresonant_generator(self):
        rng = random.Random(5)
        for _ in range(10):
            config = random_config(rng)
            beta = random_nonresonant_beta(rng, config)
            assert is_nonresonant(config, beta)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    relation_first=st.booleans(),
    kind=st.sampled_from(["integral", "rational", "zero on positive"]),
    data=st.data(),
)
def test_line_closed_forms_match_the_solves(seed, relation_first, kind, data):
    # is_nonresonant and the negative-span test read beta's relation line;
    # the oracles solve for each facet functional and on the negative columns
    rng = random.Random(seed)
    if relation_first:
        config = random_relation_config(rng, max_relation=12)
    else:
        config = random_config(rng)
    q = 1 if kind == "integral" else data.draw(st.integers(2, 7), label="q")
    weights = [
        F(0) if kind == "zero on positive" and config.relation[mu] > 0
        else F(data.draw(st.integers(-3 * q, 3 * q)), q)
        for mu in range(config.n)
    ]
    beta = parameter(config, config.column_combination(weights))
    values = ((i, j, facet_functional(config, i, j)(beta.beta)) for i, j in facet_pairs(config))
    witness = next(((i, j, int(v)) for i, j, v in values if v.denominator == 1), None)
    assert is_nonresonant(config, beta) == Nonresonance(witness is None, witness)
    negative_columns = [config.columns[j] for j in config.negative]
    in_span = solve_columns_reference(negative_columns, beta.beta) is not None
    assert _parameter_in_negative_span(config, beta) == in_span
    event("resonant" if witness else "nonresonant")
    event("in the negative span" if in_span else "outside the negative span")


class TestParameter:
    def test_not_in_span(self):
        config = build_config([(1,), (1,)])
        parameter(config, [F(1, 2)])  # fine: span is all of Q^1
        flat = build_config([(1, 0), (1, 0)])  # spans only the first axis
        with pytest.raises(BetaNotInSpan):
            parameter(flat, [0, 1])

    def test_wrong_length(self, triangle):
        with pytest.raises(BetaNotInSpan):
            parameter(triangle, [1, 2, 3])
