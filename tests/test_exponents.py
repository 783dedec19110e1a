import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gkz1 import (
    build_config,
    exponent_set_prime,
    fake_exponents,
    integer_lift,
    is_nonresonant,
    m_support,
    match_exponent,
    negative_support,
    normalize_to_e_prime,
    support_verdict,
)
from gkz1 import exponents
from gkz1.errors import InternalInvariantError, NotInLattice, NotNonresonant

from conftest import (
    random_config,
    random_integral_beta,
    random_nonresonant_beta,
    random_relation_config,
)
from reference import (
    fake_exponents_reference,
    match_exponent_reference,
    normalized_set_reference,
    solve_columns_reference,
    support_verdict_reference,
)


def vectors(exponents):
    return [e.vector for e in exponents]


class TestFakeExponents:
    def test_triangle(self, triangle):
        fakes = fake_exponents(triangle, [10, 8])
        assert vectors(fakes) == [(0, -2, 12), (2, 0, 8)]
        by_vector = {e.vector: e.labels for e in fakes}
        assert by_vector[(2, 0, 8)] == ((1, 0),)
        assert by_vector[(0, -2, 12)] == ((0, 0),)

    def test_gauss_symbolic_instance(self, gauss):
        theta1, theta2, sigma = F(1, 2), F(1, 3), F(1, 5)
        fakes = fake_exponents(gauss, (-theta1, -theta2, sigma - 1))
        assert (0, sigma - 1, -theta1, -theta2) in vectors(fakes)
        assert (1 - sigma, 0, sigma - theta1 - 1, sigma - theta2 - 1) in vectors(fakes)

    def test_gauss_collision_at_sigma_one(self, gauss):
        theta1, theta2 = F(1, 2), F(1, 3)
        fakes = fake_exponents(gauss, (-theta1, -theta2, 0))
        assert len(fakes) == 1
        assert fakes[0].labels == ((0, 0), (1, 0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fake_exponents_match_reference_solves(seed):
    # reference: the point with mu-th coordinate b, by a row reduction on
    # the other columns, once per (mu, b)
    rng = random.Random(seed)
    config = random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    reference: dict = {}
    for mu in config.positive:
        others = [s for s in range(config.n) if s != mu]
        for b in range(config.relation[mu]):
            target = [x - b * a for x, a in zip(beta, config.columns[mu])]
            coeffs = solve_columns_reference([config.columns[s] for s in others], target)
            vec = [F(0)] * config.n
            vec[mu] = F(b)
            for s, c in zip(others, coeffs):
                vec[s] = c
            reference.setdefault(tuple(vec), []).append((mu, b))
    fakes = fake_exponents(config, beta)
    assert vectors(fakes) == sorted(reference)
    for e in fakes:
        assert e.labels == tuple(reference[e.vector])
        assert config.column_combination(e.vector) == tuple(beta)


@st.composite
def configs_and_parameters(draw):
    """A configuration and a parameter in its span.

    Half the configurations have relation entries up to 30.  The weights of
    the parameter have denominators up to 10**6, except that half the time
    the positive-side weights are integers, which puts integers at several
    positive-side coordinates at once, so labels of different columns merge.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    config = random_relation_config(rng) if draw(st.booleans()) else random_config(rng)
    integral_positive = draw(st.booleans())
    weights = []
    for mu in range(config.n):
        if integral_positive and config.relation[mu] > 0:
            weights.append(F(draw(st.integers(min_value=-40, max_value=40))))
        else:
            weights.append(F(
                draw(st.integers(min_value=-10**7, max_value=10**7)),
                draw(st.integers(min_value=1, max_value=10**6)),
            ))
    return config, config.column_combination(weights)


@settings(max_examples=200, deadline=None)
@given(case=configs_and_parameters())
def test_keyed_exponents_match_the_fraction_route(case):
    # same exponents, in the same order, with the same vector, labels and
    # m_support as the route through whole Fraction vectors
    config, beta = case
    fakes = fake_exponents(config, beta)
    reference = fake_exponents_reference(config, beta)
    assert fakes == reference
    assert all(type(x) is F for e in fakes for x in e.vector)
    assert exponent_set_prime(config, beta).exponents == normalized_set_reference(
        config, reference
    )
    for fake in fakes:
        normalized, _ = normalize_to_e_prime(config, fake.vector)
        assert (normalized,) == normalized_set_reference(config, [fake])


@pytest.mark.parametrize("beta", [(F(1, 3), F(-2, 7)), (F(1499), F(-3000))])
def test_exponents_across_blocks_match_the_fraction_route(beta):
    # relation (2999, 1, -3000): 3,000 fake keys in three blocks, with two
    # positive columns; at the integral parameter the fake of label (0, 1500),
    # in the second block, is not normalized
    config = build_config([(1, 0), (1, 3000), (1, 1)])
    fakes = fake_exponents(config, beta)
    reference = fake_exponents_reference(config, beta)
    assert fakes == reference and len(fakes) == 3000 > 2 * exponents._BLOCK
    # one frozenset per m_support, across the blocks
    assert len({id(e.m_support) for e in fakes}) == len({e.m_support for e in fakes}) > 1
    primes = exponent_set_prime(config, beta).exponents
    assert primes == normalized_set_reference(config, reference)
    assert len(primes) == 3000 - (beta[0] == 1499)


class TestNormalize:
    def test_shift_into_prime_set(self, triangle):
        normalized, z0 = normalize_to_e_prime(triangle, (F(0), F(-2), F(12)))
        assert normalized.vector == (2, 0, 8)
        assert z0 == 2

    def test_fixed_point(self, triangle):
        normalized, z0 = normalize_to_e_prime(triangle, (F(2), F(0), F(8)))
        assert normalized.vector == (2, 0, 8)
        assert z0 == 0

    def test_gauss_integer_sigma(self, gauss):
        theta1, theta2, sigma = F(1, 2), F(1, 3), F(3)
        second = (1 - sigma, F(0), sigma - theta1 - 1, sigma - theta2 - 1)
        normalized, z0 = normalize_to_e_prime(gauss, second)
        assert z0 == 2
        assert normalized.vector == (0, sigma - 1, -theta1, -theta2)
        primes = exponent_set_prime(gauss, (-theta1, -theta2, sigma - 1))
        assert vectors(primes.exponents) == [normalized.vector]

    def test_normalized_fake_comes_back_unchanged(self):
        # a fake exponent already in the normalized set is returned as it is,
        # equal to the exponent rebuilt from its bare vector
        rng = random.Random(11)
        for _ in range(25):
            config = random_config(rng)
            for fake in fake_exponents(config, random_integral_beta(rng, config)):
                normalized, z0 = normalize_to_e_prime(config, fake)
                rebuilt, z1 = normalize_to_e_prime(config, fake.vector)
                assert (normalized, z0) == (rebuilt, z1)
                assert (normalized is fake) == (z0 == 0)

    def test_uniqueness_of_shift(self):
        # exactly one shift of each fake exponent lands in the prime set
        rng = random.Random(7)
        for _ in range(25):
            config = random_config(rng)
            beta = random_integral_beta(rng, config)
            prime_vectors = set(vectors(exponent_set_prime(config, beta).exponents))
            for fake in fake_exponents(config, beta):
                hits = []
                for z in range(-25, 26):
                    shifted = tuple(
                        x + z * e for x, e in zip(fake.vector, config.relation)
                    )
                    if shifted in prime_vectors:
                        hits.append(z)
                assert len(hits) == 1
                _, z0 = normalize_to_e_prime(config, fake)
                assert hits == [z0]


class TestPrimeSet:
    def test_triangle(self, triangle):
        primes = exponent_set_prime(triangle, [10, 8])
        assert vectors(primes.exponents) == [(2, 0, 8)]
        assert primes.exponents[0].multiplicity == 2
        assert primes.multiplicity_sum == primes.relation_sum == 2

    def test_corner_resonant(self, corner):
        primes = exponent_set_prime(corner, [0, 0])
        assert vectors(primes.exponents) == [(0, 0, 0)]
        assert primes.exponents[0].multiplicity == 2

    def test_corner_multiplicity_drop(self, corner):
        primes = exponent_set_prime(corner, [1, -1])
        assert vectors(primes.exponents) == [(2, 0, -1)]
        assert primes.exponents[0].multiplicity == 2

    def test_counting_law_on_random_parameters(self):
        rng = random.Random(13)
        for _ in range(30):
            config = random_config(rng)
            for beta in (
                random_integral_beta(rng, config),
                random_nonresonant_beta(rng, config),
            ):
                primes = exponent_set_prime(config, beta)
                assert primes.multiplicity_sum == config.positive_sum


def test_negative_support():
    assert negative_support((F(2), F(0), F(-1)), {0, 2}) == {2}
    assert negative_support((F(0), F(-2), F(12)), {0, 1, 2}) == {1}
    assert (
        negative_support((F(0), F(-4, 5), F(-1, 2), F(-1, 3)), {0, 1, 2, 3})
        == frozenset()
    )


class TestSupportVerdict:
    def test_full_index_window(self, triangle):
        verdict = support_verdict(triangle, (F(2), F(0), F(8)), {0, 1, 2}, (0, 0, 0))
        assert verdict.minimal
        assert verdict.membership.intervals == ((0, 4),)
        assert verdict.membership.clip(-10, 10) == [0, 1, 2, 3, 4]

    def test_half_infinite(self, triangle):
        verdict = support_verdict(triangle, (F(2), F(0), F(8)), {0, 1}, (0, 0, 0))
        assert verdict.minimal
        assert verdict.membership.intervals == ((0, None),)
        assert 10**6 in verdict.membership

    def test_two_sided(self, triangle):
        # the index set skipping the middle column opens z = -2..-1 as well
        verdict = support_verdict(triangle, (F(2), F(0), F(8)), {0, 2}, (0, 0, 0))
        assert verdict.minimal
        assert verdict.membership.intervals == ((-2, 4),)

    def test_not_minimal(self, corner):
        verdict = support_verdict(corner, (F(2), F(0), F(-1)), {0, 2}, (0, 0, 0))
        assert not verdict.minimal
        assert verdict.membership.intervals == ((0, None),)

    def test_one_interval_set_per_call(self, triangle, corner, monkeypatch):
        # a verdict builds the membership it keeps and no second set to
        # compare it with: minimal, half-infinite, not minimal, empty
        built = []
        init = exponents.IntervalSet.__init__

        def counting(self, intervals):
            built.append(intervals)
            init(self, intervals)

        monkeypatch.setattr(exponents.IntervalSet, "__init__", counting)
        cases = [
            (triangle, (F(2), F(0), F(8)), {0, 1, 2}, (0, 0, 0)),
            (triangle, (F(2), F(0), F(8)), {0, 1}, (0, 0, 0)),
            (corner, (F(2), F(0), F(-1)), {0, 2}, (0, 0, 0)),
            (triangle, (F(-2), F(-1), F(-1)), {0, 1, 2}, (0, 0, 1)),
        ]
        for config, vec, indices, lift in cases:
            built.clear()
            verdict = support_verdict(config, vec, indices, lift)
            assert built == [verdict.membership.intervals]
        assert verdict.membership.empty and not verdict.minimal

    def test_brute_force_cross_check(self):
        # oracle: scan the definition directly over a wide z range
        rng = random.Random(99)
        for _ in range(60):
            config = random_config(rng)
            n = config.n
            vec = tuple(
                F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(n)
            )
            lift = tuple(rng.randint(-3, 3) for _ in range(n))
            indices = frozenset(mu for mu in range(n) if rng.random() < 0.7)
            verdict = support_verdict(config, vec, indices, lift)
            base_support = negative_support(vec, indices)
            lo, hi = -40, 40
            member, subset = [], []
            for z in range(lo, hi + 1):
                shifted = tuple(
                    x + l + z * e for x, l, e in zip(vec, lift, config.relation)
                )
                support = negative_support(shifted, indices)
                if support == base_support:
                    member.append(z)
                if support < base_support:
                    subset.append(z)
            assert member == verdict.membership.clip(lo, hi)
            # the scan range is wide enough that any proper-subset shift
            # appears inside it
            assert verdict.minimal == (not subset)


@st.composite
def verdict_cases(draw):
    """A configuration, a vector, a lift and an index set.

    Coordinates are integers half the time, so thresholds appear; the
    relation entries reach 30 and the lifts 40, so the floor and ceiling
    divisions that place them are not exact.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    config = random_relation_config(rng) if draw(st.booleans()) else random_config(rng)
    n = config.n
    vec = tuple(
        F(draw(st.integers(min_value=-60, max_value=60)))
        if draw(st.booleans())
        else F(draw(st.integers(min_value=-60, max_value=60)),
               draw(st.integers(min_value=1, max_value=7)))
        for _ in range(n)
    )
    lift = tuple(draw(st.integers(min_value=-40, max_value=40)) for _ in range(n))
    indices = frozenset(mu for mu in range(n) if draw(st.booleans()))
    return config, vec, lift, indices


@settings(max_examples=300, deadline=None)
@given(case=verdict_cases())
def test_support_verdict_matches_the_scan(case):
    config, vec, lift, indices = case
    verdict = support_verdict(config, vec, indices, lift)
    assert verdict == support_verdict_reference(config, vec, indices, lift)
    event(f"minimal: {verdict.minimal}")
    event(f"bounded membership: {all(None not in i for i in verdict.membership.intervals)}")


class TestIntegerLift:
    def test_combination_recovers_u(self, triangle, gauss):
        rng = random.Random(3)
        for config in (triangle, gauss):
            for _ in range(20):
                coeffs = [rng.randint(-4, 4) for _ in range(config.n)]
                u = config.column_combination(coeffs)
                lift = integer_lift(config, u)
                assert config.column_combination(lift) == u
                assert 0 <= lift[-1] < abs(config.relation[-1])

    def test_outside_lattice(self):
        config = build_config([(2,), (2,)])  # column lattice is 2Z
        assert integer_lift(config, [4]) == (2, 0)
        with pytest.raises(NotInLattice):
            integer_lift(config, [1])
        with pytest.raises(NotInLattice):
            integer_lift(config, [F(1, 2)])
        plane = build_config([(1, 0, 0), (0, 1, 0), (1, 1, 0)])  # spans the plane z = 0
        with pytest.raises(NotInLattice, match=r"^\(0, 0, 1\) is not in the span of the columns$"):
            integer_lift(plane, [0, 0, 1])


class TestMatchExponent:
    def test_zero_shift_is_identity(self, corner):
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0]
        matched, lift = match_exponent(corner, beta, (0, 0), v)
        assert matched.vector == v.vector
        assert lift == (0, 0, 0)

    def test_corner_shift(self, corner):
        beta = (F(1, 2), F(1, 3))
        for v in exponent_set_prime(corner, beta).exponents:
            matched, lift = match_exponent(corner, beta, (1, 0), v)
            assert all(
                (a - b).denominator == 1
                for a, b in zip(matched.vector, v.vector)
            )
            assert corner.column_combination(lift) == (1, 0)
            assert matched.m_support == v.m_support

    def test_gauss_shift_by_column(self, gauss):
        beta = (F(-1, 2), F(-1, 3), F(1, 5) - 1)
        u = gauss.columns[2]
        for v in exponent_set_prime(gauss, beta).exponents:
            matched, lift = match_exponent(gauss, beta, u, v)
            assert gauss.column_combination(lift) == tuple(F(x) for x in u)
            assert matched.m_support == v.m_support

    def test_requires_nonresonant(self, corner):
        v = exponent_set_prime(corner, [0, 0]).exponents[0]
        with pytest.raises(NotNonresonant):
            match_exponent(corner, [0, 0], (1, 0), v)

    def test_refuses_what_is_not_an_exponent_of_beta(self, corner):
        beta = (F(1, 2), F(1, 3))
        v = exponent_set_prime(corner, beta).exponents[0].vector
        # an exponent of beta + a_0, and a point of beta's line with no
        # integral positive-side coordinate
        for bad in (tuple(x + (mu == 0) for mu, x in enumerate(v)),
                    tuple(x + F(1, 2) * e for x, e in zip(v, corner.relation))):
            with pytest.raises(InternalInvariantError):
                match_exponent(corner, beta, (1, 0), bad)

    def test_builds_no_exponent_set(self, gauss, monkeypatch):
        beta = (F(-1, 2), F(-1, 3), F(1, 5) - 1)
        primes = exponent_set_prime(gauss, beta).exponents
        expected = [match_exponent(gauss, beta, gauss.columns[2], v) for v in primes]

        def refuse(*args):
            raise AssertionError("match_exponent built a whole exponent set")

        monkeypatch.setattr(exponents, "exponent_set_prime", refuse)
        monkeypatch.setattr(exponents, "fake_exponents", refuse)
        assert [match_exponent(gauss, beta, gauss.columns[2], v) for v in primes] == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_match_exponent_matches_the_whole_set_search(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    beta = random_nonresonant_beta(rng, config)
    u = config.column_combination([rng.randint(-3, 3) for _ in range(config.n)])
    for v in exponent_set_prime(config, beta).exponents:
        matched, lift = match_exponent(config, beta, u, v)
        assert (matched, lift) == match_exponent_reference(config, beta, u, v)
        assert config.column_combination(lift) == u


class TestNonresonantStructure:
    def test_prime_exponents_have_no_negative_integers(self):
        # off-side coordinates are nonintegral as well, so every support
        # verdict is minimal regardless of index set and lift
        rng = random.Random(21)
        for _ in range(25):
            config = random_config(rng)
            beta = random_nonresonant_beta(rng, config)
            assert is_nonresonant(config, beta)
            for v in exponent_set_prime(config, beta).exponents:
                assert negative_support(v.vector, range(config.n)) == frozenset()
                for mu in config.negative:
                    assert v.vector[mu].denominator != 1
                for _ in range(5):
                    indices = frozenset(
                        mu for mu in range(config.n) if rng.random() < 0.6
                    )
                    lift = tuple(rng.randint(-3, 3) for _ in range(config.n))
                    assert support_verdict(config, v, indices, lift).minimal

    def test_prime_exponents_minimal_on_everything(self):
        rng = random.Random(22)
        for _ in range(25):
            config = random_config(rng)
            beta = random_integral_beta(rng, config)
            zero = (0,) * config.n
            for v in exponent_set_prime(config, beta).exponents:
                verdict = support_verdict(config, v, range(config.n), zero)
                assert verdict.minimal


def test_m_support_helper(triangle):
    assert m_support(triangle, (F(2), F(0), F(8))) == {0, 1}
    assert m_support(triangle, (F(0), F(-2), F(12))) == {0}
