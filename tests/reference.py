"""Test-only oracles: slow, literal routes to what gkz1 computes fast.

Each evaluates its quantity straight from the definition and shares no
arithmetic with the route it checks:

- ``literal_box`` applies the box operator as |relation|_1 single
  derivative passes d/dx_mu over the coefficient grid;
- ``coefficient_M_reference`` evaluates M(l, s, v) by its multi-index and
  subset sums;
- ``gauss_oracle`` evaluates the two classical Gauss series by rising
  factorials;
- ``fake_exponents_reference`` and ``normalized_set_reference`` find the
  exponents as whole ``Fraction`` vectors, one ``solve_columns_reference``
  per (mu, b) point, merged by hashing and ordered by sorting the vectors;
- ``classification_reference`` decides maximal unipotency from the whole
  normalized exponent set of that route, which the classifier builds only
  when the lattice conditions already say it is a singleton;
- ``integral_steps_reference`` finds the t making chosen coordinates of a
  line integers by intersecting progressions of ``Fraction``s, where
  ``RelationLine.integral_steps`` solves integer congruences on keys;
- ``match_exponent_reference`` matches an exponent of beta to beta + u by
  searching the whole normalized set of beta + u from those routes, where
  ``match_exponent`` normalizes one vector;
- ``log_solution_reference`` sums the degree-r log solution over every
  multiset of columns, each restricted to its own support's membership;
- ``apply_euler_row_reference`` applies one homogeneity row term by term,
  even where every term's weight is zero;
- ``solve_columns_reference`` and ``nullspace_columns_reference`` solve
  and find kernels by reduced row echelon form over ``Fraction``, with the
  pivot scaled to 1 at every step; ``relation_reference`` makes the
  kernel's primitive generator from them.  They check ``_linalg``'s
  integer elimination;
- ``config_reference`` computes a configuration's relation, ``perm``, ``k``
  and volume from that generator by sorting and summing its entries;
- ``saturation_index_reference`` finds a lattice's index in its
  saturation as a gcd of determinants, with no elimination at all;
- ``facet_functional`` finds the primitive functional h_ij of a (positive,
  negative) pair by a row reduction on the other columns, so
  ``h(beta)`` checks ``is_nonresonant``'s closed form on the relation line.

The scalar helpers ``pochhammer``, ``falling_factorial``,
``elementary_symmetric`` and ``f_coefficients`` evaluate the same constants
by their textbook formulas; only tests use them.  The errors below are
raised only by these oracles, so no command of the CLI maps them to an exit
code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import ceil, factorial, gcd, lcm

from gkz1 import Exponent, LatticeConfig, LogSeries, coefficient_M, support_verdict
from gkz1._linalg import Vector
from gkz1.coefficients import coefficient_run
from gkz1.errors import ExcludedCase
from gkz1.verify import OperatorReport


class DegreeTooLarge(ValueError):
    """Elementary symmetric polynomial degree exceeds the variable count."""


class IndexOutOfRange(ValueError):
    """A facet-functional index pair is not of the positive/negative form."""


class SigmaIntegral(ValueError):
    """The two-solution Gauss oracle needs a nonintegral third parameter."""


def pochhammer(v, l: int) -> Fraction:
    """Rising factorial v(v+1)...(v+l-1); empty product is 1."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    v = Fraction(v)
    result = Fraction(1)
    for t in range(l):
        result *= v + t
    return result


def falling_factorial(r: int, s: int) -> int:
    result = 1
    for t in range(s):
        result *= r - t
    return result


def elementary_symmetric(tau: int, values) -> Fraction:
    """Degree-tau elementary symmetric polynomial of the given rationals."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    values = [Fraction(x) for x in values]
    if tau > len(values):
        raise DegreeTooLarge(f"degree {tau} in {len(values)} variables")
    e = [Fraction(0)] * (tau + 1)
    e[0] = Fraction(1)
    for x in values:
        for t in range(min(tau, len(values)), 0, -1):
            e[t] += x * e[t - 1]
    return e[tau]


def f_coefficients(v, r: int, l: int) -> dict[int, Fraction]:
    """Log-basis coefficients of the l-th iterate of t^v log^r t.

    Entry s holds the coefficient of log^(r-s) t over the monomial t^(v+l),
    namely M(l, s, v) * r(r-1)...(r-s+1).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    v = Fraction(v)
    return {
        s: coefficient_M(l, s, v) * falling_factorial(r, s) for s in range(r + 1)
    }


def _derivative_step(terms, base, mu, relation):
    """One application of d/dx_mu on the coefficient grid.

    d/dx_mu (x^w log^r x0) = w_mu x^(w-e_mu) log^r x0
                             + r * relation[mu] * x^(w-e_mu) log^(r-1) x0.
    """
    step = relation[mu]
    out: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for (z, r), c in terms.items():
        w = base[mu] + z * step
        if w:
            out[(z, r)] += w * c
        if r:
            out[(z, r - 1)] += r * step * c
    new_base = tuple(
        x - 1 if idx == mu else x for idx, x in enumerate(base)
    )
    return {k: v for k, v in out.items() if v}, new_base


def literal_box(config, series: LogSeries) -> OperatorReport:
    """The box operator's report, one literal derivative pass at a time."""
    rel = config.relation
    pos_terms, pos_base = dict(series.terms), series.base_exponent
    for mu in config.positive:
        for _ in range(rel[mu]):
            pos_terms, pos_base = _derivative_step(pos_terms, pos_base, mu, rel)
    neg_terms, neg_base = dict(series.terms), series.base_exponent
    for mu in config.negative:
        for _ in range(-rel[mu]):
            neg_terms, neg_base = _derivative_step(neg_terms, neg_base, mu, rel)
    assert all(
        nb - pb == e for nb, pb, e in zip(neg_base, pos_base, rel)
    ), "derivative products must land one relation step apart"
    lo, hi = series.window
    safe = (lo, hi - 1) if hi - 1 >= lo else None
    residual: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    if safe is not None:
        for (z, r), c in pos_terms.items():
            if lo <= z - 1 <= hi - 1:
                residual[(z - 1, r)] += c
        for (z, r), c in neg_terms.items():
            if lo <= z <= hi - 1:
                residual[(z, r)] -= c
    residual = {key: value for key, value in residual.items() if value}
    first = min(residual) if residual else None
    return OperatorReport(
        operator="box",
        input_window=series.window,
        safe_window=safe,
        passed=not residual,
        first_failure=(first[0], first[1], residual[first]) if first else None,
        residual=residual,
    )


def apply_euler_row_reference(config, param, series: LogSeries, row: int) -> OperatorReport:
    """One homogeneity row's report, read off every term of the series."""
    param = [Fraction(x) for x in param]
    a_row = [config.columns[j][row] for j in range(config.n)]
    base_dot = sum(
        (Fraction(a) * w for a, w in zip(a_row, series.base_exponent)), Fraction(0)
    )
    rel_dot = sum(a * e for a, e in zip(a_row, config.relation))
    residual: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for (z, r), c in series.terms.items():
        value = base_dot + z * rel_dot - param[row]
        if value:
            residual[(z, r)] += value * c
        if r and rel_dot:
            residual[(z, r - 1)] += r * rel_dot * c
    residual = {key: value for key, value in residual.items() if value}
    first = min(residual) if residual else None
    return OperatorReport(
        operator=f"euler[{row}]",
        input_window=series.window,
        safe_window=series.window,
        passed=not residual,
        first_failure=(first[0], first[1], residual[first]) if first else None,
        residual=residual,
    )


def coefficient_M_reference(l: int, s: int, v) -> Fraction:
    """Literal multi-index / subset-sum evaluation of M(l, s, v).

    Exponentially slower than coefficient_M; exists so tests can check the
    product against the defining sums.
    """
    v = Fraction(v)
    if v.denominator == 1 and v < 0 and l > 0 and v + l >= 0:
        raise ExcludedCase(l, s, v)
    if l == 0:
        return Fraction(1) if s == 0 else Fraction(0)
    if l > 0:
        total = Fraction(0)
        for composition in _compositions(s, l):
            term = Fraction(1)
            for t, power in enumerate(composition, start=1):
                term /= (v + t) ** power
            total += term
        return (-1) ** s / pochhammer(v + 1, l) * total
    if s > -l:
        return Fraction(0)
    values = [v - t for t in range(-l)]
    total = Fraction(0)
    for subset in combinations(values, -l - s):
        term = Fraction(1)
        for x in subset:
            term *= x
        total += term
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def gauss_oracle(theta1, theta2, sigma, n_terms: int = 10) -> tuple[LogSeries, LogSeries]:
    """Directly evaluated hypergeometric coefficient sequences.

    Computes the two classical series attached to the four-point Gauss
    configuration without touching the series machinery, so tests can
    cross-validate phi_series against an independent route.  Needs a
    nonintegral third parameter, otherwise only one series exists.
    """
    t1, t2, sg = Fraction(theta1), Fraction(theta2), Fraction(sigma)
    if sg.denominator == 1:
        raise SigmaIntegral(f"sigma={sg} is an integer")

    def rising(a: Fraction, m: int) -> Fraction:
        out = Fraction(1)
        for i in range(m):
            out *= a + i
        return out

    relation = (1, 1, -1, -1)
    window = (0, n_terms)
    first_base = (Fraction(0), sg - 1, -t1, -t2)
    second_base = (1 - sg, Fraction(0), sg - t1 - 1, sg - t2 - 1)
    first = {
        (z, 0): rising(t1, z) * rising(t2, z) / (rising(sg, z) * factorial(z))
        for z in range(n_terms + 1)
    }
    second = {
        (z, 0): rising(t1 - sg + 1, z)
        * rising(t2 - sg + 1, z)
        / (rising(2 - sg, z) * factorial(z))
        for z in range(n_terms + 1)
    }
    return (
        LogSeries.make(first_base, relation, window, first),
        LogSeries.make(second_base, relation, window, second),
    )


def _exponent_reference(config, vec) -> Exponent:
    """The exponent at a vector, labels and m_support read off its Fractions."""
    integral = [
        (mu, vec[mu]) for mu in config.positive
        if vec[mu].denominator == 1 and vec[mu] >= 0
    ]
    return Exponent(
        vector=vec,
        labels=tuple((mu, int(x)) for mu, x in integral if x < config.relation[mu]),
        m_support=frozenset(mu for mu, _ in integral),
    )


def fake_exponents_reference(config, beta) -> list[Exponent]:
    """The solution with coordinate mu equal to b, for each (mu, b), sorted
    as vectors: the other columns solved against beta - b*a_mu."""
    beta = [Fraction(x) for x in beta]
    found = set()
    for mu in config.positive:
        others = config.columns[:mu] + config.columns[mu + 1:]
        for b in range(config.relation[mu]):
            target = [x - b * a for x, a in zip(beta, config.columns[mu])]
            rest = solve_columns_reference(others, target)
            found.add(rest[:mu] + (Fraction(b),) + rest[mu:])
    return [_exponent_reference(config, vec) for vec in sorted(found)]


def normalized_set_reference(config, fakes) -> tuple[Exponent, ...]:
    """Each fake shifted by its least admissible z0, merged and sorted as vectors."""
    rel = config.relation
    seen = {}
    for fake in fakes:
        vec = fake.vector
        z0 = max(
            ceil(-vec[mu] / rel[mu]) for mu in config.positive if vec[mu].denominator == 1
        )
        shifted = tuple(x + z0 * e for x, e in zip(vec, rel))
        seen[shifted] = _exponent_reference(config, shifted)
    return tuple(seen[key] for key in sorted(seen))


def classification_reference(config, beta) -> tuple[bool, bool, Vector | None]:
    """(mum, mum_holomorphic, the one exponent's vector or None) from the whole set.

    Maximal unipotency is the normalized set being a singleton; holomorphy
    is its one exponent being zero at every positive coordinate.
    """
    exponents = normalized_set_reference(config, fake_exponents_reference(config, beta))
    if len(exponents) != 1:
        return False, False, None
    vec = exponents[0].vector
    return True, all(vec[mu] == 0 for mu in config.positive), vec


def _merge_progressions(p, q):
    r1, s1 = p
    r2, s2 = q
    den = lcm(r1.denominator, s1.denominator, r2.denominator, s2.denominator)
    R1, S1, R2, S2 = (int(x * den) for x in (r1, s1, r2, s2))
    g = gcd(S1, S2)
    if (R2 - R1) % g:
        return None
    s2g = S2 // g
    x0 = ((R2 - R1) // g) * pow(S1 // g, -1, s2g) % s2g
    step = Fraction(S1 * s2g, den)
    return (Fraction(R1 + S1 * x0, den) % step, step)


def integral_steps_reference(point, relation, indices) -> tuple[Fraction, Fraction] | None:
    """(t0, step), 0 <= t0 < step, with point + t*relation an integer at every
    listed coordinate exactly for t in t0 + step*Z, or None.

    Coordinate mu is an integer on the progression -point[mu]/relation[mu]
    + Z/|relation[mu]| of rationals; the progressions are intersected pairwise,
    each pair by the Chinese remainder theorem over a common denominator.
    """
    acc = None
    for mu in indices:
        step = Fraction(1, abs(relation[mu]))
        progression = (-point[mu] / relation[mu] % step, step)
        acc = progression if acc is None else _merge_progressions(acc, progression)
        if acc is None:
            return None
    return acc


def match_exponent_reference(config, beta, u, v) -> tuple[Exponent, tuple[int, ...]]:
    """The exponent of beta + u's whole normalized set that differs from v by
    an integer vector, found by searching the set; and that difference."""
    gamma = [Fraction(b) + Fraction(x) for b, x in zip(beta, u)]
    exponents = normalized_set_reference(config, fake_exponents_reference(config, gamma))
    matches = [
        e for e in exponents
        if all((a - b).denominator == 1 for a, b in zip(e.vector, v.vector))
    ]
    assert len(matches) == 1, f"expected one integer-class match, found {len(matches)}"
    return matches[0], tuple(int(a - b) for a, b in zip(matches[0].vector, v.vector))


def log_solution_reference(config, vec, lift, r, window) -> LogSeries:
    """The degree-r log solution as the literal sum over multisets of columns.

    Each multiset rho of size s <= r, supported on S, contributes
    r!/(r-s)! * prod_mu rel[mu]^rho[mu] * M(l_mu(z), rho[mu], v_mu) on
    log^(r-s) x0 at every shift z in the membership of its own verdict, the
    one for the index set missing S.  The M values come from one
    coefficient run per column over all those shifts.
    """
    rel = config.relation
    everything = frozenset(range(config.n))
    memberships = {}
    for size in range(r + 1):
        for support in combinations(range(config.n), size):
            verdict = support_verdict(config, vec, everything - frozenset(support), lift)
            memberships[frozenset(support)] = verdict.membership.clip(*window)
    members = sorted({z for zs in memberships.values() for z in zs})
    runs = [
        coefficient_run(vec[mu], [lift[mu] + z * rel[mu] for z in members], r)
        for mu in range(config.n)
    ]
    acc: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for s in range(r + 1):
        count = falling_factorial(r, s)
        for q in combinations_with_replacement(range(config.n), s):
            rho = Counter(q)
            weight = count
            for mu, m in rho.items():
                weight *= rel[mu] ** m
            for z in memberships[frozenset(rho)]:
                c = Fraction(weight)
                for mu in range(config.n):
                    c *= runs[mu][lift[mu] + z * rel[mu]][rho.get(mu, 0)]
                acc[(z, r - s)] += c
    base = tuple(x + l for x, l in zip(vec, lift))
    return LogSeries.make(base, rel, window, acc)


def _rref_reference(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduced row echelon form over Q in place; returns the pivot columns.

    The pivot row of each column is the first remaining row with a nonzero
    entry there, scaled to 1.  Trailing columns are carried, never pivoted.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_columns_reference(columns, rhs) -> Vector | None:
    """One solution c of sum_t c_t * columns[t] = rhs over Q, or None.

    Free coordinates are zero.
    """
    rhs = [Fraction(x) for x in rhs]
    m = len(columns)
    d = len(rhs)
    if m == 0:
        return () if all(x == 0 for x in rhs) else None
    rows = [[Fraction(columns[t][i]) for t in range(m)] + [rhs[i]] for i in range(d)]
    pivots = _rref_reference(rows, m)
    for i in range(len(pivots), d):
        if rows[i][m] != 0:
            return None
    solution = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        solution[c] = rows[r][m]
    return tuple(solution)


def nullspace_columns_reference(columns) -> list[Vector]:
    """Basis of {c in Q^m : sum_t c_t * columns[t] = 0}, one vector per free
    coordinate f, with c_f = 1 and the other free coordinates 0."""
    m = len(columns)
    d = len(columns[0])
    rows = [[Fraction(columns[t][i]) for t in range(m)] for i in range(d)]
    pivots = _rref_reference(rows, m)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def relation_reference(columns) -> tuple[int, ...]:
    """The coprime integer generator of the columns' one-dimensional kernel,
    signed so that its first entry is positive."""
    (vec,) = nullspace_columns_reference(columns)
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    sign = 1 if ints[0] > 0 else -1
    return tuple(sign * x // g for x in ints)


def config_reference(columns) -> tuple:
    """(relation, perm, k, volume) of valid columns: perm sorts the columns
    on (relation[mu] < 0, mu), k counts the positive relation entries and
    the volume is the larger of the two signed sums."""
    relation = relation_reference(columns)
    perm = tuple(sorted(range(len(relation)), key=lambda mu: (relation[mu] < 0, mu)))
    k = sum(1 for e in relation if e > 0)
    volume = max(sum(e for e in relation if e > 0), -sum(e for e in relation if e < 0))
    return relation, perm, k, volume


def _determinant(rows) -> int:
    """Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _determinant([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def saturation_index_reference(columns) -> int:
    """Index of the lattice the integer columns span inside its saturation.

    It is the gcd of the largest nonvanishing minors of the matrix with
    these columns: for each size k from min(d, m) down, the gcd of every
    k x k minor; the first nonzero one is the index, and 1 when all vanish.
    """
    rows = [[col[i] for col in columns] for i in range(len(columns[0]))]
    for k in range(min(len(rows), len(columns)), 0, -1):
        g = 0
        for picked_rows in combinations(rows, k):
            for picked in combinations(range(len(columns)), k):
                g = gcd(g, _determinant([[row[j] for j in picked] for row in picked_rows]))
        if g:
            return g
    return 1


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
    coeffs = solve_columns_reference(matrix_columns, rhs)
    assert coeffs is not None, "facet system must be solvable"
    functional = FacetFunctional(i=i, j=j, coeffs=coeffs, values=())
    raw_values = [functional(col) for col in config.columns]
    assert all(v.denominator == 1 for v in raw_values)
    values = tuple(int(v) for v in raw_values)
    assert values[i] == lj // g and values[j] == li // g
    assert li * values[i] == lj * values[j]
    assert gcd(*values) == 1
    return FacetFunctional(i=i, j=j, coeffs=coeffs, values=values)
