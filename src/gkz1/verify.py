"""Machine verification: apply the defining operators to a truncated series.

Operators act directly on the (z, log-degree) coefficient grid; the
monomial x^(w0 + z*relation) is never expanded.  A report's safe window
contains a shift z only when every source term the operator maps into z was
present in the input window, so "passed" is meaningful despite truncation.
Residual coefficients are exact rationals and "passed" means literal zero.

The box operator d^ell+ - d^ell- is applied in closed form; no literal
derivative pass remains.  Since log x0 = sum_mu rel[mu] log x_mu,

    x^w log^r x0 = r! [eps^r] x^(w + eps*rel),

and d/dx_mu lowers x_mu's exponent by one with the factor w_mu + eps*rel[mu].
So one side's derivative product maps x^w(z) log^r x0, w(z) = w0 + z*rel, to

    sum_{k <= r} (r!/k!) F_z[r-k] x^(w(z) - ell_side) log^k x0,
    F_z(eps) = prod_{mu on the side} prod_{i < |rel[mu]|} (w_mu(z) - i + eps*rel[mu]),

with F_z truncated at the series' top log degree.  F_z is built once per
(shift, side) as integers over prod_mu q_mu^|rel[mu]| (w0_mu = p_mu/q_mu),
and meets the coefficients, put over one denominator per shift, as one
integer numerator and denominator per (shift, log degree).  For a log-free
series F_z is the constant F_z(0), and the scaled factors of one column,
q_mu*(w_mu(z) - i) for i < |rel[mu]|, are an arithmetic progression of
integers, multiplied in one math.prod over its range.  The two sides'
images are compared by cross-multiplication, and the Euler rows' offset
row.w0 - beta_row is found in integers, so a Fraction is built only for a
residual entry, which a passing certificate has none of.

This module reads series as data and imports none of the code that builds
them, so a certificate does not depend on the construction it checks.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm, perm, prod
from typing import TYPE_CHECKING

from ._linalg import fracs, integer
from ._record import Record
from .lattice import LatticeConfig

if TYPE_CHECKING:
    from .series import LogSeries


class OperatorReport(Record):
    """One operator's residual; safe_window is None when nothing is checkable."""

    def __init__(self, operator, input_window, safe_window, passed, first_failure, residual):
        self._set(
            operator=operator, input_window=input_window, safe_window=safe_window,
            passed=passed, first_failure=first_failure, residual=residual,
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


def _report(operator, window, safe, residual) -> OperatorReport:
    residual = {key: value for key, value in residual.items() if value}
    first = min(residual) if residual else None
    return OperatorReport(
        operator=operator,
        input_window=window,
        safe_window=safe,
        passed=not residual,
        first_failure=(first[0], first[1], residual[first]) if first else None,
        residual=residual,
    )


def _check_grid(config, series) -> None:
    """Refuse a series whose grid x^(w0 + z*relation) is not the operator's,
    or which holds a term off its own grid: z outside its window or r < 0."""
    relation = tuple(series.relation)
    if relation != config.relation:
        raise ValueError(
            f"series relation {relation} is not the configuration's {config.relation}"
        )
    if len(series.base_exponent) != config.n:
        raise ValueError(
            f"series base exponent has {len(series.base_exponent)} entries,"
            f" the configuration {config.n} columns"
        )
    lo, hi = series.window
    off = next((key for key in series.terms if key[1] < 0 or not lo <= key[0] <= hi), None)
    if off is not None:
        raise ValueError(f"series term {off} is off its grid z in [{lo}, {hi}], r >= 0")


def _side_image(config, series, side, shifts) -> dict[tuple[int, int], tuple[int, int]]:
    """(z, k) -> (n, d): the coefficient n/d of log^k x0 in d^ell_side of the
    series' column z, nonzero and left unreduced.

    Only the columns z in shifts are mapped.  The image of column z sits on
    the monomial x^(w(z) - ell_side), and all its entries share one d.
    """
    rel = config.relation
    top = series.max_log_degree
    factors = []  # (p, q, rel[mu]) with w0_mu = p/q
    den = 1
    for mu in side:
        w = series.base_exponent[mu]
        factors.append((w.numerator, w.denominator, rel[mu]))
        den *= w.denominator ** abs(rel[mu])
    columns: dict[int, dict[int, Fraction]] = defaultdict(dict)
    for (z, r), c in series.terms.items():
        if z in shifts:
            columns[z][r] = c
    out = {}
    for z, column in columns.items():
        # q * (w_mu(z) - i + eps*rel[mu]) = (p + q*(z*rel[mu] - i)) + eps*q*rel[mu]
        f = [1] + [0] * top
        for p, q, e in factors:
            start = p + q * z * e  # the factor's constant at i = 0
            if not top:
                f[0] *= prod(range(start, start - q * abs(e), -q))
                continue
            slope = q * e
            for i in range(abs(e)):
                c = start - q * i
                for s in range(top, 0, -1):
                    f[s] = f[s] * c + f[s - 1] * slope
                f[0] *= c
        common = lcm(*(c.denominator for c in column.values()))
        nums = [(r, c.numerator * (common // c.denominator)) for r, c in column.items()]
        for k in range(top + 1):
            total = sum(a * perm(r, r - k) * f[r - k] for r, a in nums if r >= k)
            if total:
                out[(z, k)] = (total, common * den)
    return out


def apply_box(config: LatticeConfig, series: LogSeries) -> OperatorReport:
    """Apply the box operator of the relation and report the residual.

    The positive-side derivative product lands one step lower on the common
    grid than the negative-side product, so the two images are compared at
    matching grid points, by cross-multiplying their integer numerators and
    denominators; a Fraction is built only where they differ.  The topmost
    input shift has no checkable partner and is excluded from the safe
    window.  A series on another grid than the configuration's is refused
    with ValueError.
    """
    _check_grid(config, series)
    return _box(config, series)


def _box(config, series) -> OperatorReport:
    """apply_box on a series whose grid is checked."""
    lo, hi = series.window
    if hi - 1 < lo:
        return _report("box", series.window, None, {})
    positive = _side_image(config, series, config.positive, range(lo + 1, hi + 1))
    negative = _side_image(config, series, config.negative, range(lo, hi))
    residual: dict[tuple[int, int], Fraction] = {}
    for (z, k), (a, da) in positive.items():
        key = (z - 1, k)
        other = negative.get(key)
        if other is None:
            residual[key] = Fraction(a, da)
        else:
            b, db = other
            if a * db != b * da:
                residual[key] = Fraction(a * db - b * da, da * db)
    for (z, k), (b, db) in negative.items():
        if (z + 1, k) not in positive:
            residual[(z, k)] = Fraction(-b, db)
    return _report("box", series.window, (lo, hi - 1), residual)


def apply_euler_row(
    config: LatticeConfig, param, series: LogSeries, row: int
) -> OperatorReport:
    """Apply one homogeneity operator row; the residual must vanish termwise.

    x_j d/dx_j scales a grid term by w_j and drops a log degree with weight
    relation[j]; summed against the row of the point matrix, the log-drop
    weight is the row applied to the relation, which is zero.  So the term
    at z is scaled by (row.w0 - beta_row) + z*(row.relation), and when both
    parts are zero the residual is empty without reading a term.  The first
    part is found in integers over the common denominator of w0 and
    beta_row.  No shift in z occurs, so the whole input window is safe.
    A series on another grid than the configuration's, or a parameter with
    another number of entries than the configuration has rows, is refused
    with ValueError; an inexact parameter entry or a bad row, with InputError.
    """
    _check_grid(config, series)
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
    base = series.base_exponent
    b = param[row]
    den = lcm(b.denominator, *(w.denominator for w in base))
    offset_num = sum(
        a * w.numerator * (den // w.denominator) for a, w in zip(a_row, base)
    ) - b.numerator * (den // b.denominator)
    rel_dot = sum(a * e for a, e in zip(a_row, config.relation))
    if not offset_num and not rel_dot:
        return _report(f"euler[{row}]", series.window, series.window, {})
    offset = Fraction(offset_num, den)
    residual: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for (z, r), c in series.terms.items():
        value = offset + z * rel_dot
        if value:
            residual[(z, r)] += value * c
        if r and rel_dot:
            residual[(z, r - 1)] += r * rel_dot * c
    return _report(f"euler[{row}]", series.window, series.window, residual)


def apply_euler(config: LatticeConfig, param, series: LogSeries):
    """Reports for all homogeneity operator rows; the series and the parameter
    are checked once, as apply_euler_row checks them."""
    _check_grid(config, series)
    param = _parameter(config, param)
    return tuple(_euler_row(config, param, series, row) for row in range(config.dim))


class Certificate(Record):
    def __init__(self, box, euler, passed):
        self._set(box=box, euler=euler, passed=passed)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "box": self.box.to_json_dict(),
            "euler": [r.to_json_dict() for r in self.euler],
        }


def certify(config: LatticeConfig, param, series: LogSeries) -> Certificate:
    """Run all defining operators; passed means every residual is zero.

    apply_euler checks the series and the parameter, once for every operator.
    """
    euler = apply_euler(config, param, series)
    box = _box(config, series)
    return Certificate(
        box=box, euler=euler, passed=box.passed and all(r.passed for r in euler)
    )
