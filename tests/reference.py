"""Test-only oracles: slow, literal routes to what gkz1 computes fast.

Each evaluates its quantity straight from the definition and shares no
arithmetic with the route it checks:

- ``literal_box`` applies the box operator as |relation|_1 single
  derivative passes d/dx_mu over the coefficient grid;
- ``coefficient_M_reference`` evaluates M(l, s, v) by its multi-index and
  subset sums;
- ``gauss_oracle`` evaluates the two classical Gauss series by rising
  factorials.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import factorial

from gkz1 import LogSeries, pochhammer
from gkz1.errors import ExcludedCase, SigmaIntegral
from gkz1.verify import OperatorReport


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
