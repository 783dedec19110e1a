"""Machine verification: apply the defining operators to a truncated series.

Operators act directly on the (z, log-degree) coefficient grid; the
monomial x^(w0 + z*relation) is never expanded.  A report's safe window
contains a shift z only when every source term the operator maps into z was
present in the input window, so "passed" is meaningful despite truncation.
Residual coefficients are exact rationals and "passed" means literal zero.

The box operator d^ell+ - d^ell- is checked in closed form, as the two-term
recurrence it is.  Since log x0 = sum_mu rel[mu] log x_mu,

    x^w log^r x0 = r! [eps^r] x^(w + eps*rel),

and d/dx_mu lowers x_mu's exponent by one with the factor w_mu + eps*rel[mu].
So one side's derivative product maps column z of the series, the terms
C(z)[r] x^w(z) log^r x0 with w(z) = w0 + z*rel, to

    sum_{k <= r} (r!/k!) C(z)[r] F_z[r-k] x^(w(z) - ell_side) log^k x0,
    F_z(eps) = prod_{mu on the side} prod_{i < |rel[mu]|} (w_mu(z) - i + eps*rel[mu]),

with F_z truncated at the series' top log degree.  The positive side's image
of column z+1 lands on the negative side's image of column z, so the box
residual at shift z is C(z+1)F+_{z+1} - C(z)F-_z, log degree by log degree.
Each image is one integer numerator per log degree over one denominator:
F_z in integers over prod_mu q_mu^|rel[mu]| (w0_mu = p_mu/q_mu), and the
column over the lcm of its denominators.  For a log-free series F_z is
F_z(0), whose scaled factors q_mu*(w_mu(z) - i), i < |rel[mu]|, form an
arithmetic progression of integers, multiplied in one math.prod; each
column is one Fraction, read as it is, with no grouping.

An Euler row scales every term by one offset, row.w0 - beta_row, since
row.relation is zero.  A Fraction is built only for a residual entry, which
a passing certificate has none of.

certify_bundle certifies a bundle's solutions together.  Solution r is
r! [eps^r] sum_z C(z, eps) x^(w(z) + eps*rel), so its term at (z, k) is the
top solution T's at (z, T-r+k) times r!(T-r+k)!/(k! T!), and so is its box
residual; its Euler offsets are T's.  Where T passes, each lower solution is
checked to be that truncation of T, term by term in integers, and then has
T's certificate; certify runs on T alone.  The weights come from the log
degrees of the terms and the solutions' places in the bundle.

This module reads series through _linalg.grid_fields, as LogSeries.make does,
and imports no builder, so a certificate does not depend on what it checks.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, perm, prod
from typing import TYPE_CHECKING

from ._linalg import fracs, grid_fields, integer
from ._record import Record
from .lattice import LatticeConfig

if TYPE_CHECKING:
    from .series import LogSeries


class OperatorReport(Record):
    """One operator's residual over its safe window, None when nothing is
    checkable.  The residual keeps only its nonzero entries {(z, r): value};
    passed holds exactly when none is left, and first_failure is
    (z, r, value) at the least key, or None."""

    def __init__(self, operator, safe_window, residual):
        residual = {key: value for key, value in residual.items() if value}
        first = min(residual, default=None)
        self._set(
            operator=operator, safe_window=safe_window, residual=residual,
            passed=first is None,
            first_failure=None if first is None else (*first, residual[first]),
        )

    def to_json_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            z, r, value = self.first_failure
            failure = {"z": z, "r": r, "residual": str(value)}
        return {
            "operator": self.operator,
            "safe_window": list(self.safe_window) if self.safe_window else None,
            "passed": self.passed,
            "first_failure": failure,
        }


def _check_grid(config, series) -> LogSeries:
    """The series read by _linalg.grid_fields, as LogSeries.make reads it, or
    itself when nothing was re-read.  A series on another grid x^(w0 + z*relation)
    than the operator's, or with a term off its own grid (z outside its window or
    r < 0), is refused with ValueError."""
    fields = series.base_exponent, series.relation, series.window, series.terms
    base, relation, window, terms, off = grid_fields(*fields)
    if relation != config.relation:
        raise ValueError(
            f"series relation {relation} is not the configuration's {config.relation}"
        )
    if len(base) != config.n:
        raise ValueError(
            f"series base exponent has {len(base)} entries,"
            f" the configuration {config.n} columns"
        )
    if off is not None:
        raise ValueError(f"series term {off} is off its grid z in {list(window)}, r >= 0")
    if terms is series.terms and base is series.base_exponent and window == series.window:
        return series
    return type(series)(base, relation, window, terms)


def _factors(config, base, side) -> tuple[list[tuple[int, int, int]], int]:
    """(p, q, rel[mu]) for each mu on the side, w0_mu = p/q, and prod_mu q_mu^|rel[mu]|."""
    factors = [(base[mu].numerator, base[mu].denominator, config.relation[mu]) for mu in side]
    return factors, prod(q ** abs(e) for _, q, e in factors)


def _constant(factors, z) -> int:
    """F_z(0) times prod_mu q_mu^|rel[mu]|: the scaled factors q*(w_mu(z) - i),
    i < |rel[mu]|, of a column form an arithmetic progression, one math.prod."""
    return prod(prod(range(p + q * z * e, p + q * (z * e - abs(e)), -q)) for p, q, e in factors)


def _image(factors, den, top, z, column) -> tuple[list[int], int]:
    """d^ell_side of column z of a series with log terms (top > 0), given as
    ([(r, n_r)], common) for C(z)[r] = n_r/common: ([m_0, ..., m_top], d) for
    sum_k (m_k/d) x^(w(z) - ell_side) log^k x0.  No column (None) maps to zeros."""
    if column is None:
        return [0] * (top + 1), 1
    nums, common = column
    # q * (w_mu(z) - i + eps*rel[mu]) = (p + q*(z*rel[mu] - i)) + eps*q*rel[mu]
    f = [1] + [0] * top
    for p, q, e in factors:
        start = p + q * z * e  # the factor's constant at i = 0
        slope = q * e
        for i in range(abs(e)):
            c = start - q * i
            for s in range(top, 0, -1):
                f[s] = f[s] * c + f[s - 1] * slope
            f[0] *= c
    return [
        sum(a * perm(r, r - k) * f[r - k] for r, a in nums if r >= k) for k in range(top + 1)
    ], common * den


def apply_box(config: LatticeConfig, series: LogSeries) -> OperatorReport:
    """Apply the box operator of the relation and report the residual.

    At each shift z of the safe window [lo, hi-1] with a column at z or z+1,
    the positive side's image of column z+1 must equal the negative side's
    image of column z: the two-term recurrence C(z+1)F+_{z+1} = C(z)F-_z,
    checked log degree by log degree by cross-multiplying integers.  The top
    input shift has no partner and is left out of the safe window.  A series
    on another grid is refused with ValueError, an inexact entry with InputError.
    """
    return _box(config, _check_grid(config, series))


def _box(config, series) -> OperatorReport:
    """apply_box on a checked series: columns with log terms through _image,
    a log-free series straight from its Fractions."""
    lo, hi = series.window
    if hi - 1 < lo:
        return OperatorReport("box", None, {})
    base, top = series.base_exponent, series.max_log_degree
    positive = _factors(config, base, config.positive)
    negative = _factors(config, base, config.negative)
    if top:
        columns = {}
        for (z, r), c in series.terms.items():
            columns.setdefault(z, []).append((r, c))
        for z, column in columns.items():  # each column over one denominator
            d = lcm(*(c.denominator for _, c in column))
            columns[z] = [(r, c.numerator * (d // c.denominator)) for r, c in column], d
    else:  # log-free: one Fraction per shift
        columns = {z: c for (z, _), c in series.terms.items()}
    residual = {}
    for z in {z for z in columns if z < hi} | {z - 1 for z in columns if z > lo}:
        if top:
            a, da = _image(*positive, top, z + 1, columns.get(z + 1))
            b, db = _image(*negative, top, z, columns.get(z))
        else:  # C(z+1)F+_{z+1}(0) against C(z)F-_z(0); a missing column is 0/1
            c1, c0 = columns.get(z + 1, 0), columns.get(z, 0)
            a, da = [c1.numerator * _constant(positive[0], z + 1)], c1.denominator * positive[1]
            b, db = [c0.numerator * _constant(negative[0], z)], c0.denominator * negative[1]
        for k, (n, m) in enumerate(zip(a, b)):
            if n * db != m * da:
                residual[(z, k)] = Fraction(n * db - m * da, da * db)
    return OperatorReport("box", (lo, hi - 1), residual)


def apply_euler_row(config: LatticeConfig, param, series: LogSeries, row: int) -> OperatorReport:
    """Apply one homogeneity operator row; the residual must vanish termwise.

    x_j d/dx_j scales a grid term by w_j(z) and drops a log degree with
    weight relation[j]; against the row, z*(row.relation) and the drop
    vanish, so every term is scaled by one offset, row.w0 - beta_row.  Where
    it is zero the row passes without reading a term.  The whole input
    window is safe.  A series on another grid, or a parameter with another
    number of entries than the configuration has rows, is refused with
    ValueError; an inexact entry of either, or a bad row, with InputError.
    """
    series = _check_grid(config, series)
    param = _parameter(config, param)
    return _euler_row(config, param, series, integer(row, "row", config.dim))


def _parameter(config, param) -> tuple[Fraction, ...]:
    param = fracs(param, "parameter")
    if len(param) != config.dim:
        raise ValueError(
            f"parameter has {len(param)} entries, the configuration {config.dim} rows"
        )
    return param


def _euler_row(config, param, series, row: int) -> OperatorReport:
    """apply_euler_row on a checked series, parameter and row."""
    a_row = [config.columns[j][row] for j in range(config.n)]
    base, b = series.base_exponent, param[row]
    den = lcm(b.denominator, *(w.denominator for w in base))
    offset = sum(
        a * w.numerator * (den // w.denominator) for a, w in zip(a_row, base)
    ) - b.numerator * (den // b.denominator)
    residual = {}
    if offset:
        offset = Fraction(offset, den)
        residual = {key: offset * c for key, c in series.terms.items()}
    return OperatorReport(f"euler[{row}]", series.window, residual)


def _euler(config, param, series):
    """apply_euler on a checked series; the parameter is checked once."""
    param = _parameter(config, param)
    return tuple(_euler_row(config, param, series, row) for row in range(config.dim))


def apply_euler(config: LatticeConfig, param, series: LogSeries):
    """Reports for all homogeneity operator rows; the series and the parameter
    are checked once, as apply_euler_row checks them."""
    return _euler(config, param, _check_grid(config, series))


class Certificate(Record):
    """The reports of the box operator and of each Euler row; passed holds
    exactly when every one of them passed."""

    def __init__(self, box, euler):
        self._set(box=box, euler=euler, passed=box.passed and all(r.passed for r in euler))

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "box": self.box.to_json_dict(),
            "euler": [r.to_json_dict() for r in self.euler],
        }


def certify(config: LatticeConfig, param, series: LogSeries) -> Certificate:
    """Run all defining operators; passed means every residual is zero.

    The series and the parameter are checked once, for every operator.
    """
    series = _check_grid(config, series)
    euler = _euler(config, param, series)
    return Certificate(_box(config, series), euler)


def certify_bundle(config: LatticeConfig, param, solutions) -> tuple[Certificate, ...]:
    """The certificates of a bundle's solutions, solutions[r] of log degree r:
    equal to certify on each, but where the top solution T passes, certify
    runs on it alone.

    Solution r is r! [eps^r] sum_z C(z, eps) x^(w(z) + eps*rel), so its term
    at (z, k) is T's at (z, T-r+k) times r!(T-r+k)!/(k! T!), and its box
    residual at (z, k) is T's at (z, T-r+k) times the same weight; its Euler
    offsets are T's.  Where T passes, a solution r < T that has T's base
    exponent, relation and window (_same), and exactly those terms
    (_truncation), passes with the same reports, and gets T's certificate.
    Any other solution, and every solution of a bundle whose top fails, goes
    through certify itself, so a failure reads as certify reports it.  A
    one-solution bundle is one certify call.
    """
    if len(solutions) == 1:
        return (certify(config, param, solutions[0]),)
    if not solutions:
        return ()
    t, top = len(solutions) - 1, solutions[-1]
    certificate = certify(config, param, top)
    passed = certificate.passed and type(top.terms) is dict
    degrees = Counter(j for _, j in top.terms) if passed else {}
    certificates = []
    for r, series in enumerate(solutions[:t]):
        if passed and _same(series.base_exponent, top.base_exponent) and _same(
            series.relation, top.relation
        ) and _same(series.window, top.window) and _truncation(
            top.terms, series.terms, t, r, sum(n for j, n in degrees.items() if j >= t - r)
        ):
            certificates.append(certificate)
        else:
            certificates.append(certify(config, param, series))
    certificates.append(certificate)
    return tuple(certificates)


def _same(a, b) -> bool:
    """Whether a field of a series reads as another, certified, one does: the
    same object, or an equal tuple with entries of the same types (so that
    an entry 1.0, which the reader refuses, is not taken for 1)."""
    return a is b or (
        type(a) is type(b) is tuple and a == b and [*map(type, a)] == [*map(type, b)]
    )


def _truncation(top, terms, t, r, size) -> bool:
    """Whether terms, those of solution r, are c[(z, k)] = top[(z, t-r+k)] *
    r!(t-r+k)!/(k! t!) on int keys with k >= 0, with Fraction values, and no
    others: size is how many terms of top have log degree >= t - r.  The
    weight is perm(t-r+k, t-r)/perm(t, t-r), cross-multiplied in integers.
    """
    if type(terms) is not dict or len(terms) != size:
        return False
    d = t - r
    scale = perm(t, d)
    for key, c in terms.items():
        if type(key) is not tuple or len(key) != 2:
            return False
        z, k = key
        if type(z) is not int or type(k) is not int or k < 0 or type(c) is not Fraction:
            return False
        a = top.get((z, d + k))
        if type(a) is not Fraction or (
            c.numerator * a.denominator * scale != a.numerator * c.denominator * perm(d + k, d)
        ):
            return False
    return True
