"""Test-only oracles: slow, literal routes to what gkz1 computes fast.

Each evaluates its quantity straight from the definition and shares no
arithmetic with the route it checks:

- ``literal_box`` applies the box operator as |relation|_1 single
  derivative passes d/dx_mu over the coefficient grid;
- ``derivative_reference`` applies d/dx_mu to a series term by term, so
  the solutions at beta give solutions at beta - a_mu, which no route of
  the package builds from them;
- ``box_side_reference`` expands one side's factor F_z(eps) of the box
  operator's two-term recurrence as a product of ``Fraction`` polynomials,
  one linear factor at a time, straight from the base exponent and the
  relation, where ``lattice._box_row`` multiplies scaled integer runs;
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
- ``support_verdict_reference`` finds the negative support at every shift
  in a range that covers all the thresholds, where ``support_verdict``
  solves for the thresholds by floor and ceiling division;
- ``log_solution_reference`` sums the degree-r log solution over every
  multiset of columns, each restricted to its own support's membership,
  with every M value from ``coefficient_M_reference``;
- ``scalar_relation_check`` compares the log-free series of v at beta + u
  with the one of the matched exponent v' at its own parameter, through
  the product of single-step M factors that relates them;
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
  ``h(beta)`` checks ``is_nonresonant``'s closed form on the relation line;
- ``mirror_map_and_instantons`` reads the mirror map and the instanton
  numbers off the log-free parts of the solutions of log degree 0, 1 and 2,
  with the exact power series helpers ``series_*``, so the builder's
  degree-1 and degree-2 coefficients meet numbers known from enumerative
  geometry;
- ``indicial_classes_reference`` finds the roots of the indicial polynomial
  of the relation line, from a point of the line that a row reduction finds,
  and counts them by class mod Z; ``line_class`` reads an exponent's class
  on that line.  With neither the exponent code's keys nor its labels, they
  check the bundles that ``exponent_set_prime`` makes;
- ``solve_report_reference`` and ``verify_report_reference`` build the
  ``gkz1 solve`` and ``gkz1 verify`` reports as dicts, from the records'
  ``to_json_dict`` and one ``certify`` per solution, where the CLI fills one
  template per record and certifies a bundle at once;
  ``analyze_report_reference`` and ``classify_report_reference`` build the
  ``gkz1 analyze`` and ``gkz1 classify`` reports as dicts, from the
  library's calls and the classification's fields;
- ``render_text_reference`` writes such a report dict as ``--format text``,
  key by key and nested dict by nested dict, by the rule the CLI's one
  renderer applies to its parsed JSON report.

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

from gkz1 import (
    Exponent,
    IntervalSet,
    LatticeConfig,
    LogSeries,
    SupportVerdict,
    coefficient_M,
    is_mum_holomorphic,
    is_nonresonant,
    parameter,
    phi_series,
    singularity_type,
    support_verdict,
    volume_crosscheck,
)
from gkz1._linalg import Vector, fracs
from gkz1.errors import ExcludedCase, NotNonresonant
from gkz1.exponents import exponent_vector
from gkz1.verify import OperatorReport, certify


class DegreeTooLarge(ValueError):
    """Elementary symmetric polynomial degree exceeds the variable count."""


class IndexOutOfRange(ValueError):
    """A facet-functional index pair is not of the positive/negative form."""


class SigmaIntegral(ValueError):
    """The two-solution Gauss oracle needs a nonintegral third parameter."""


class MismatchDetected(ValueError):
    """Two series that must agree coefficientwise differ."""

    def __init__(self, z, lhs, rhs):
        self.z = z
        super().__init__(f"series disagree at z={z}: {lhs} != {rhs}")


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


def derivative_reference(series: LogSeries, mu: int) -> LogSeries:
    """d/dx_mu of a series, one _derivative_step on its grid: the base b
    becomes b - e_mu, the relation and the window stay, and

        c'(z, r) = (b_mu + z*rel[mu]) * c(z, r) + (r+1) * rel[mu] * c(z, r+1).

    d/dx_mu commutes with the box operator and carries the Euler system at
    beta to the one at beta - a_mu, so it maps solutions at beta to
    solutions at beta - a_mu (contiguity)."""
    terms, base = _derivative_step(series.terms, series.base_exponent, mu, series.relation)
    return LogSeries.make(base, series.relation, series.window, terms)


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
    return OperatorReport("box", safe, residual)


def box_side_reference(base, relation, positive: bool, z: int, top: int) -> list[Fraction]:
    """[eps^0] F_z, ..., [eps^top] F_z for one side of the relation:

        F_z(eps) = prod_{mu on the side} prod_{i < |rel[mu]|} (w_mu(z) - i + eps*rel[mu]),

    w(z) = base + z*relation, the positive side where relation[mu] > 0."""
    f = [Fraction(1)] + [Fraction(0)] * top
    for w0, e in zip(base, relation):
        if (e > 0) != positive:
            continue
        for i in range(abs(e)):
            c = Fraction(w0) + z * e - i
            f = [c * f[s] + (e * f[s - 1] if s else 0) for s in range(top + 1)]
    return f


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
    return OperatorReport(f"euler[{row}]", series.window, residual)


def coefficient_M_reference(l: int, s: int, v) -> Fraction:
    """Literal multi-index / subset-sum evaluation of M(l, s, v).

    For l < 0, M is the x^s coefficient of prod_{t < -l} (v - t + x): the sum,
    over the ways to take x from s of the factors, of the product of the
    others.  For l > 0 it is (-1)^s / (v+1)_l times the sum, over the
    compositions c of s into l parts, of prod_t (v+t)^(-c_t); a composition
    is listed by the multiset of parts t it raises.  Each term is one
    product, in integers over the powers of the denominator of v.  Much
    slower than coefficient_M; exists so tests can check the product against
    the defining sums.
    """
    v = Fraction(v)
    if v.denominator == 1 and v < 0 and l > 0 and v + l >= 0:
        raise ExcludedCase(l, s, v)
    if l == 0:
        return Fraction(1) if s == 0 else Fraction(0)
    p, q = v.numerator, v.denominator
    if l > 0:
        # q * (v + t) for t = 1..l; none is zero outside the excluded strip
        factors = [p + q * t for t in range(1, l + 1)]
        whole = 1
        for y in factors:
            whole *= y
        # 1 / prod_{t in T} (v+t) = q^s * prod_{t in T} (whole / y_t) / whole^s
        cofactors = [whole // y for y in factors]
        total = 0
        for raised in combinations_with_replacement(range(l), s):
            term = 1
            for t in raised:
                term *= cofactors[t]
            total += term
        # 1 / (v+1)_l = q^l / whole
        return Fraction((-1) ** s * q ** (l + s) * total, whole ** (s + 1))
    m = -l
    if s > m:
        return Fraction(0)
    # q * (v - t); segment[i][j] is the product of those for i <= t < j
    factors = [p - q * t for t in range(m)]
    segment = []
    for i in range(m + 1):
        row, acc = [1], 1
        for t in range(i, m):
            acc *= factors[t]
            row.append(acc)
        segment.append(row)
    total = 0
    for chosen in combinations(range(m), s):
        term, start = 1, 0
        for t in chosen:
            term *= segment[start][t - start]
            start = t + 1
        total += term * segment[start][m - start]
    return Fraction(total, q ** (m - s))


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


def support_verdict_reference(config, v, indices, lift) -> SupportVerdict:
    """The minimal negative-support verdict, by scanning every shift that can matter.

    Finds the negative support of v + lift + z*relation on the given indices
    for every z in [-bound, bound].  An integral coordinate w + z*e changes
    sign between z and z + 1 only where |z| <= |w| + 1 < bound, so the scan
    covers every threshold and the support at +-bound is the support at
    +-infinity.  The membership is the runs of shifts whose support is v's
    own, open-ended where a run reaches the end of the scan; minimal means no
    shift gives a proper subset.  No floor or ceiling division is taken.
    """
    vec = [Fraction(x) for x in (v.vector if isinstance(v, Exponent) else v)]
    lift = tuple(int(x) for x in lift)
    indices = frozenset(indices)
    rel = config.relation

    def support(z):
        return frozenset(
            mu for mu in indices
            if (w := vec[mu] + lift[mu] + z * rel[mu]).denominator == 1 and w < 0
        )

    baseline = frozenset(mu for mu in indices if vec[mu].denominator == 1 and vec[mu] < 0)
    bound = 2 + max((int(abs(vec[mu] + lift[mu])) for mu in indices), default=0)
    supports = {z: support(z) for z in range(-bound, bound + 1)}
    runs: list[list[int]] = []
    for z, found in supports.items():
        if found == baseline:
            if runs and runs[-1][1] == z - 1:
                runs[-1][1] = z
            else:
                runs.append([z, z])
    membership = IntervalSet(tuple(
        (None if lo == -bound else lo, None if hi == bound else hi) for lo, hi in runs
    ))
    minimal = not any(found < baseline for found in supports.values())
    return SupportVerdict(indices, lift, minimal, membership)


def log_solution_reference(config, vec, lift, r, window) -> LogSeries:
    """The degree-r log solution as the literal sum over multisets of columns.

    Each multiset rho of size s <= r, supported on S, contributes
    r!/(r-s)! * prod_mu rel[mu]^rho[mu] * M(l_mu(z), rho[mu], v_mu) on
    log^(r-s) x0 at every shift z in the membership of its own verdict, the
    one for the index set missing S.  The M values come from
    ``coefficient_M_reference``, the defining sums, so nothing here shares
    the coefficient engine or the eps-products of gkz1.series.  Like the
    series route, it raises ExcludedCase when some column's l lies in the
    excluded strip at any member z, whether or not a multiset reads it.
    """
    rel = config.relation
    everything = frozenset(range(config.n))
    memberships = {}
    for size in range(r + 1):
        for support in combinations(range(config.n), size):
            verdict = support_verdict(config, vec, everything - frozenset(support), lift)
            memberships[frozenset(support)] = verdict.membership.clip(*window)
    members = sorted({z for zs in memberships.values() for z in zs})
    values: dict[tuple[int, int, int], Fraction] = {}

    def m_value(mu, z, s):
        key = (mu, z, s)
        if key not in values:
            values[key] = coefficient_M_reference(lift[mu] + z * rel[mu], s, vec[mu])
        return values[key]

    for mu in range(config.n):
        for z in members:
            m_value(mu, z, 0)
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
                    c *= m_value(mu, z, rho.get(mu, 0))
                acc[(z, r - s)] += c
    base = tuple(x + l for x, l in zip(vec, lift))
    return LogSeries.make(base, rel, window, acc)


def scalar_relation_check(
    config: LatticeConfig, beta, u, v, v_prime, window=(0, 8)
) -> Fraction:
    """Verify the scalar relating the two log-free series for beta + u.

    With lift = v' - v, the series built from v at shifted parameter equals
    the product of the single-step M factors times the series built from v'
    at its own parameter; both sides share the base exponent v', so the
    comparison is coefficient-by-coefficient on the window.
    """
    beta = parameter(config, beta)
    resonance = is_nonresonant(config, beta)
    if not resonance:
        raise NotNonresonant(resonance.witness)
    vec = exponent_vector(v)
    pvec = exponent_vector(v_prime)
    deltas = [a - b for a, b in zip(pvec, vec)]
    if any(x.denominator != 1 for x in deltas):
        raise ValueError("v' - v must be an integer vector")
    lift = tuple(int(x) for x in deltas)
    if u is not None and config.column_combination(lift) != fracs(u, "u"):
        raise ValueError("v' - v does not lift the given u")
    scalar = Fraction(1)
    for mu in range(config.n):
        scalar *= coefficient_M(lift[mu], 0, vec[mu])
    lhs = phi_series(config, vec, lift, (), window)
    if scalar == 0:
        # a vanishing factor forces the whole shifted series to vanish
        for z in range(window[0], window[1] + 1):
            if lhs.coefficient(z):
                raise MismatchDetected(z, lhs.coefficient(z), Fraction(0))
        return scalar
    rhs = phi_series(config, pvec, (0,) * config.n, (), window)
    for z in range(window[0], window[1] + 1):
        left = lhs.coefficient(z)
        right = scalar * rhs.coefficient(z)
        if left != right:
            raise MismatchDetected(z, left, right)
    return scalar


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


def relation_points(relation):
    """Points whose relation is the given primitive vector: the columns of
    the rows relation[j]*e_0 - relation[0]*e_j, which are orthogonal to it."""
    n = len(relation)
    rows = [[relation[j] if t == 0 else -relation[0] if t == j else 0 for t in range(n)]
            for j in range(1, n)]
    return [tuple(col) for col in zip(*rows)]


# -- exact power series: lists of Fractions, all of one length n, truncated at x^n


def series_mul(a, b) -> list[Fraction]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_inverse(a) -> list[Fraction]:
    """1/a, for a[0] != 0."""
    out = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) * out[0])
    return out


def series_exp(a) -> list[Fraction]:
    """exp(a), for a[0] == 0, from k*e[k] = sum_i i*a[i]*e[k-i] (e' = a'e)."""
    if a[0]:
        raise ValueError("exp needs a zero constant term")
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(sum(i * a[i] * out[k - i] for i in range(1, k + 1)) / k)
    return out


def series_compose(a, b) -> list[Fraction]:
    """a(b(x)), for b[0] == 0, by Horner's rule."""
    if b[0]:
        raise ValueError("the inner series needs a zero constant term")
    out = [Fraction(0)] * len(a)
    for c in reversed(a):
        out = series_mul(out, b)
        out[0] += c
    return out


def series_revert(q) -> list[Fraction]:
    """The t(q) with q(t(q)) = q, for q = t + q[2]*t^2 + ...: the fixed point of
    t = q/u(t), u = q/t, reached after one step per coefficient."""
    if q[0] or q[1] != 1:
        raise ValueError("reversion needs q = t + O(t^2)")
    n = len(q)
    u = list(q[1:]) + [Fraction(0)]
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
    for _ in range(n):
        t = [Fraction(0)] + series_inverse(series_compose(u, t))[:-1]
    return t


def series_theta(a) -> list[Fraction]:
    """x d/dx of a."""
    return [k * c for k, c in enumerate(a)]


def mirror_map_and_instantons(f0, f1, f2, kappa) -> tuple[list[Fraction], list[Fraction]]:
    """The mirror map and the instanton numbers of a point of maximal
    unipotent monodromy, from the log-free parts f0, f1, f2 of its solutions
    of log degree 0, 1 and 2, as series in x of one length n.

    The mirror map is q = x*exp(f1/f0).  With h = f2/f0 - (f1/f0)^2 and x
    written in q, the Yukawa coupling is Y = kappa*(1 + theta_q^2 h / 2) =
    kappa + sum_d n_d d^3 q^d/(1 - q^d), so [q^m] Y is kappa*[m = 0] plus the
    sum of n_d d^3 over the divisors d of m.  Returns the coefficients of
    q/x, from x^0 up, and n_1, ..., n_(n-1).
    """
    ratio = series_inverse(f0)
    g1, g2 = series_mul(f1, ratio), series_mul(f2, ratio)
    q = [Fraction(0)] + series_exp(g1)[:-1]
    h = [a - b for a, b in zip(g2, series_mul(g1, g1))]
    y = [kappa * c / 2 for c in series_theta(series_theta(series_compose(h, series_revert(q))))]
    n = {}
    for m in range(1, len(f0)):
        n[m] = (y[m] - sum(n[d] * d**3 for d in n if m % d == 0)) / m**3
    return q[1:], list(n.values())


# -- the solve and verify reports, as dicts built from the records' to_json_dict


def _exponent_dict(exp) -> dict:
    return {
        "vector": [str(x) for x in exp.vector],
        "labels": [list(label) for label in exp.labels],
        "m_support": sorted(exp.m_support),
        "multiplicity": len(exp.m_support),
    }


def _verdict_dict(verdict) -> dict:
    return {
        "indices": sorted(verdict.indices),
        "lift": list(verdict.lift),
        "minimal": verdict.minimal,
        "membership": [list(iv) for iv in verdict.membership.intervals],
    }


def _reported_parameter(beta, report) -> list[str]:
    shifted = report.bundles[0].parameter if report.bundles else beta
    return [str(x) for x in shifted]


def solve_report_reference(config, beta, report, window, r=None, verify=True) -> dict:
    """What ``gkz1 solve`` prints for the BundleReport report of the parameter
    beta (Fractions), as the dict whose ``json.dumps(..., indent=2)`` and
    ``render_text_reference`` are its two formats.  Each solution is certified by
    ``certify`` on its own, and a requested degree r read by
    ``SolutionBundle.solution``, which raises where the command refuses."""
    out = {
        "beta": [str(x) for x in beta],
        "parameter": _reported_parameter(beta, report),
        "window": list(window),
        "expected_total": report.expected_total,
        "total_solutions": report.total_solutions,
        "complete": report.complete,
        "bundles": [],
    }
    for bundle in report.bundles:
        solutions = []
        for degree, series in enumerate(bundle.solutions):
            solution = {"r": degree, "series": series.to_json_dict()}
            if verify:
                certificate = certify(config, bundle.parameter, series)
                solution["verification"] = certificate.to_json_dict()
            solutions.append(solution)
        out["bundles"].append({
            "exponent": _exponent_dict(bundle.exponent),
            "lift": list(bundle.lift),
            "phi_empty": bundle.phi_empty,
            "hypothesis_failures": [sorted(s) for s in bundle.hypothesis_failures],
            "certificates": [_verdict_dict(v) for v in bundle.certificates],
            "solutions": solutions,
        })
    if r is not None:
        out["requested_degree"] = {
            "r": r,
            "solutions": [
                {"exponent": _exponent_dict(b.exponent), "series": b.solution(r).to_json_dict()}
                for b in report.bundles
            ],
        }
    return out


def verify_report_reference(config, beta, report, window, r=None) -> dict:
    """What ``gkz1 verify`` prints, as solve_report_reference builds it; a
    requested degree r is read off every bundle, and written nowhere."""
    if r is not None:
        for bundle in report.bundles:
            bundle.solution(r)
    checks = [
        {
            "exponent": [str(x) for x in bundle.exponent.vector],
            "r": degree,
            "verification": certify(config, bundle.parameter, series).to_json_dict(),
        }
        for bundle in report.bundles
        for degree, series in enumerate(bundle.solutions)
    ]
    return {
        "parameter": _reported_parameter(beta, report),
        "window": list(window),
        "all_passed": all(c["verification"]["passed"] for c in checks),
        "checks": checks,
    }


def analyze_report_reference(config, beta) -> dict:
    """What ``gkz1 analyze`` prints for the parameter beta, as a dict whose
    ``json.dumps(..., indent=2)`` and ``render_text_reference`` are its two
    formats; raises where the command refuses."""
    beta = parameter(config, beta)
    resonance = is_nonresonant(config, beta)
    return {
        "n": config.n,
        "dim": config.dim,
        "columns": [list(c) for c in config.columns],
        "relation": list(config.relation),
        "k": config.k,
        "perm": list(config.perm),
        "vol": config.volume,
        "vol_crosscheck": volume_crosscheck(config),
        "positive_sum": config.positive_sum,
        "negative_sum": config.negative_sum,
        "singularity": singularity_type(config).value,
        "beta": [str(x) for x in beta.beta],
        "nonresonant": bool(resonance),
        "resonance_witness": (
            dict(zip(("i", "j", "value"), resonance.witness)) if resonance.witness else None
        ),
    }


def classify_report_reference(config, beta) -> dict:
    """What ``gkz1 classify`` prints for the parameter beta, as
    analyze_report_reference builds it: the classification's verdicts, mum
    among them, and its witness."""
    classification = is_mum_holomorphic(config, beta)
    names = ("regular", "nonresonant", "mum", "mum_holomorphic", "witness")
    return {name: getattr(classification, name) for name in names}


def render_text_reference(report: dict, indent: int = 0) -> str:
    """A report dict as ``--format text``: one "key: value" line per field,
    a value's repr; a nested dict, and each dict of a list followed by a
    "-" line, two spaces deeper under its "key:" line."""
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text_reference(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(render_text_reference(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


# -- the indicial polynomial of the relation line


def indicial_classes_reference(config, beta) -> tuple[tuple, dict[Fraction, int]]:
    """A point w0 with sum_mu w0_mu a_mu = beta, and the roots of the
    indicial polynomial P(t) = prod_{rel[mu] > 0} prod_{i < rel[mu]}
    (w0_mu + rel[mu]*t - i), t = (i - w0_mu)/rel[mu], counted by their class
    mod Z: the class's representative in [0, 1) -> its number of roots.

    w0 comes from a row reduction over Fractions, not from the exponent code,
    so the classes check the bundles that exponent code makes."""
    w0 = solve_columns_reference(config.columns, beta)
    classes = Counter(
        ((i - w0[mu]) / e) % 1
        for mu, e in enumerate(config.relation) if e > 0
        for i in range(e)
    )
    return w0, dict(classes)


def line_class(config, w0, vector) -> Fraction:
    """The class mod Z of the t with vector = w0 + t*relation; ValueError when
    vector is off w0's line."""
    rel = config.relation
    t = next((x - w) / e for x, w, e in zip(vector, w0, rel) if e)
    if any(x != w + t * e for x, w, e in zip(vector, w0, rel)):
        raise ValueError(f"{vector} is not on the line of {w0}")
    return t % 1
