import random
from fractions import Fraction
from math import gcd

import pytest

from gkz1 import build_config, is_nonresonant
from gkz1.errors import GkzError

# Named configurations used throughout; comments give the signed relation.
TRIANGLE = [(1, 0), (1, 2), (1, 1)]        # (1, 1, -2), volume 2
CORNER = [(1, 0), (0, 1), (1, 1)]          # (1, 1, -1), volume 2
GAUSS = [(1, 1, -1), (0, 0, 1), (1, 0, 0), (0, 1, 0)]  # (1, 1, -1, -1)
INTERIOR = [(1, 0), (0, 1), (-1, -1)]      # (1, 1, 1), origin interior
QUINTIC = [
    (1, 1, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (1, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
    (1, -1, -1, -1, -1),
    (1, 0, 0, 0, 0),
]  # (1, 1, 1, 1, 1, -5): the quintic mirror


@pytest.fixture(scope="session")
def triangle():
    return build_config(TRIANGLE)


@pytest.fixture(scope="session")
def corner():
    return build_config(CORNER)


@pytest.fixture(scope="session")
def gauss():
    return build_config(GAUSS)


@pytest.fixture(scope="session")
def interior():
    return build_config(INTERIOR)


def random_config(rng, max_entry=4, max_n=5, max_d=4):
    """Random valid configuration: n <= max_n, d <= max_d, bounded entries.

    Generated relation-first: independent base points plus one point that is
    a small rational combination of them, rejected until every invariant
    holds and all entries are in range.
    """
    sizes = [n for n in (2, 3, 3, 4, 4, 5, 6) if n <= max_n]
    while True:
        n = rng.choice(sizes)
        d = rng.randint(max(1, n - 1), max_d)
        base = [
            tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n - 1)
        ]
        weights = [rng.choice([-2, -1, 1, 2]) for _ in range(n - 1)]
        divisor = rng.choice([1, 1, 1, 2, 3])
        numerators = [
            sum(w * p[j] for w, p in zip(weights, base)) for j in range(d)
        ]
        if any(num % divisor for num in numerators):
            continue
        last = tuple(num // divisor for num in numerators)
        columns = base + [last]
        if any(abs(x) > max_entry for col in columns for x in col):
            continue
        try:
            return build_config(columns)
        except GkzError:
            continue


def random_relation_config(rng, max_relation=30, max_n=5):
    """Random valid configuration whose relation has entries up to max_relation.

    Generated from the relation l: the rows l[j]*e_0 - l[0]*e_j are
    orthogonal to l and independent, so the points they make have the
    kernel spanned by l; a unimodular mix of the rows varies the points.
    """
    n = rng.randint(2, max_n)
    while True:
        rel = [rng.choice([-1, 1]) * rng.randint(1, max_relation) for _ in range(n)]
        if gcd(*rel) == 1:
            break
    rows = [[rel[j] if t == 0 else -rel[0] if t == j else 0 for t in range(n)]
            for j in range(1, n)]
    for i in range(1, n - 1):
        for k in range(i):
            factor = rng.randint(-1, 1)
            rows[i] = [a + factor * b for a, b in zip(rows[i], rows[k])]
    return build_config([list(col) for col in zip(*rows)])


def random_nonresonant_beta(rng, config):
    for _ in range(200):
        q = rng.choice([5, 7, 11, 97])
        if rng.random() < 0.5:
            weights = [
                Fraction(rng.randint(-2 * q, 2 * q), q) for _ in range(config.n)
            ]
        else:
            # integral weights on the positive side give exponents with
            # several integral coordinates, hence genuine log towers
            weights = [
                Fraction(rng.randint(-3, 3))
                if config.relation[mu] > 0
                else Fraction(rng.randint(-2 * q, 2 * q), q)
                for mu in range(config.n)
            ]
        beta = config.column_combination(weights)
        if is_nonresonant(config, beta):
            return beta
    raise RuntimeError("could not find a nonresonant parameter")


def random_integral_beta(rng, config):
    weights = [rng.randint(-3, 3) for _ in range(config.n)]
    return config.column_combination(weights)


@pytest.fixture(scope="session")
def corpus():
    """200 (config, nonresonant beta) pairs, deterministic."""
    rng = random.Random(20260809)
    out = []
    for _ in range(200):
        config = random_config(rng)
        out.append((config, random_nonresonant_beta(rng, config)))
    return out


@pytest.fixture(scope="session")
def corpus_rng():
    return random.Random(915)
