"""``certify`` against SymPy: each series written out as an expression in
x_0..x_{n-1}, with log x0 = sum_mu rel[mu]*log(x_mu), and every operator
applied by literal differentiation.

The residual expression is split by monomial: over x^(w0 - ell_minus) for
the box operator and over x^w0 for the homogeneity rows, every monomial is
x^(z*relation), and z is read off the power of x_0.  The log part at each z
must be a polynomial in log x0; it is checked to be one, and its
coefficients are the residual of certify at (z, k).  Only the shifts in
certify's safe window are compared.  Nothing here shares arithmetic with
the grid operators of ``gkz1.verify``.
"""

import random
from collections import defaultdict
from fractions import Fraction as F

import pytest

from gkz1 import LogSeries, build_config, certify, solution_bundle

from conftest import GAUSS, QUINTIC, TRIANGLE, random_config, random_nonresonant_beta

sympy = pytest.importorskip("sympy")


def _rational(x) -> "sympy.Rational":
    x = F(x)
    return sympy.Rational(x.numerator, x.denominator)


class _Expanded:
    """A series as one SymPy expression, and the residual splitter for it."""

    def __init__(self, config, series: LogSeries):
        self.config = config
        self.x = sympy.symbols(f"x0:{config.n}", positive=True)
        self.t = sympy.Symbol("t")
        rel = config.relation
        self.log_x0 = sum(e * sympy.log(x) for e, x in zip(rel, self.x))
        self.base = [_rational(w) for w in series.base_exponent]
        self.expr = sum(
            _rational(c)
            * sympy.Mul(*(x ** (w + z * e) for x, w, e in zip(self.x, self.base, rel)))
            * self.log_x0 ** r
            for (z, r), c in series.terms.items()
        )

    def split(self, residual, lowered) -> dict[tuple[int, int], F]:
        """(z, k) -> coefficient of x^(w0 - lowered + z*rel) log^k x0 in residual."""
        x, rel, t = self.x, self.config.relation, self.t
        scale = sympy.Mul(*(xi ** (w - d) for xi, w, d in zip(x, self.base, lowered)))
        logs = {sympy.log(xi): sympy.Symbol(f"L{mu}") for mu, xi in enumerate(x)}
        parts = defaultdict(lambda: sympy.Integer(0))
        for term in sympy.Add.make_args(sympy.expand(sympy.expand_log(residual / scale))):
            term = term.subs(logs)
            powers = term.as_powers_dict()
            z = sympy.Rational(powers.get(x[0], 0), rel[0])
            assert z.q == 1 and all(powers.get(xi, 0) == z * e for xi, e in zip(x, rel))
            parts[int(z)] += term / sympy.Mul(*(xi ** (z * e) for xi, e in zip(x, rel)))
        out = {}
        for z, part in parts.items():
            # the log part is a polynomial q(log x0): setting L_mu = 0 off
            # column 0 reads q off, and q(sum rel*L) must give the part back
            on_zero = {sympy.Symbol(f"L{mu}"): 0 for mu in range(1, len(x))}
            q = sympy.expand(part.subs(on_zero).subs(sympy.Symbol("L0"), t / rel[0]))
            assert not q.free_symbols - {t}
            log_x0 = sum(e * sympy.Symbol(f"L{mu}") for mu, e in enumerate(rel))
            assert sympy.expand(part - q.subs(t, log_x0)) == 0
            for (k,), c in sympy.Poly(q, t).terms():
                if c:
                    out[(z, k)] = F(int(c.p), int(c.q))
        return out

    def box(self) -> dict[tuple[int, int], F]:
        rel = self.config.relation
        plus, minus = self.expr, self.expr
        for x, e in zip(self.x, rel):
            if e > 0:
                plus = sympy.diff(plus, x, e)
            else:
                minus = sympy.diff(minus, x, -e)
        ell_minus = [max(-e, 0) for e in rel]
        return self.split(plus - minus, ell_minus)

    def euler(self, param, row: int) -> dict[tuple[int, int], F]:
        a_row = [col[row] for col in self.config.columns]
        residual = sum(
            a * x * sympy.diff(self.expr, x) for a, x in zip(a_row, self.x) if a
        ) - _rational(param[row]) * self.expr
        return self.split(residual, [0] * self.config.n)


def _within(residual, window) -> dict:
    if window is None:
        return {}
    lo, hi = window
    return {key: c for key, c in residual.items() if lo <= key[0] <= hi}


def _assert_certificate_matches(config, param, series):
    expanded = _Expanded(config, series)
    certificate = certify(config, param, series)
    box = certificate.box
    assert box.residual == _within(expanded.box(), box.safe_window)
    for row, report in enumerate(certificate.euler):
        assert report.residual == _within(expanded.euler(param, row), report.safe_window)
    return certificate


def _bumped(series: LogSeries, key) -> LogSeries:
    terms = dict(series.terms)
    terms[key] = terms.get(key, F(0)) + F(1, 3)
    return LogSeries.make(series.base_exponent, series.relation, series.window, terms)


@pytest.mark.parametrize("points, beta, window, degrees", [
    (TRIANGLE, (10, 8), (0, 3), 2),
    (TRIANGLE, (F(1, 2), F(1, 3)), (-1, 2), 1),
    # the Gauss branches: sigma = 2 (a log tower) and sigma = 1/5
    (GAUSS, (F(-1, 2), F(-1, 3), 1), (0, 3), 2),
    (GAUSS, (F(-1, 2), F(-1, 3), F(-4, 5)), (-1, 2), 1),
    # the quintic's log^4 solution has the most terms to expand: up to log^2
    (QUINTIC, (-1, 0, 0, 0, 0), (0, 1), 3),
])
def test_named_solutions_certify_as_sympy_does(points, beta, window, degrees):
    config = build_config(points)
    report = solution_bundle(config, beta, window=window)
    assert report.bundles
    for bundle in report.bundles:
        for series in bundle.solutions[:degrees]:
            assert _assert_certificate_matches(config, bundle.parameter, series).passed
            # a wrong coefficient leaves a residual, the same in both routes
            broken = _bumped(series, (window[0] + 1, series.max_log_degree))
            assert not _assert_certificate_matches(config, bundle.parameter, broken).passed
            # so does a wrong parameter, in the homogeneity rows
            wrong = (bundle.parameter[0] + F(1, 2),) + tuple(bundle.parameter[1:])
            assert not _assert_certificate_matches(config, wrong, series).passed


def test_random_solutions_certify_as_sympy_does():
    rng = random.Random(1411)
    checked = 0
    while checked < 12:
        config = random_config(rng, max_entry=3, max_n=4)
        if sum(abs(e) for e in config.relation) > 6:
            continue  # keeps the literal derivatives small
        beta = random_nonresonant_beta(rng, config)
        window = (-1, 2)
        for bundle in solution_bundle(config, beta, window=window).bundles:
            for series in bundle.solutions:
                assert _assert_certificate_matches(config, bundle.parameter, series).passed
                key = (rng.randint(*window), rng.randint(0, series.max_log_degree))
                _assert_certificate_matches(config, bundle.parameter, _bumped(series, key))
                checked += 1
