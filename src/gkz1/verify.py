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
and meets the coefficients only as one Fraction per (shift, log degree).

This module reads series as data and imports none of the code that builds
them, so a certificate does not depend on the construction it checks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, perm
from typing import TYPE_CHECKING

from ._linalg import fracs
from .lattice import LatticeConfig

if TYPE_CHECKING:
    from .series import LogSeries


@dataclass(frozen=True)
class OperatorReport:
    operator: str
    input_window: tuple[int, int]
    safe_window: tuple[int, int] | None  # None: nothing checkable
    passed: bool
    first_failure: tuple[int, int, Fraction] | None
    residual: dict[tuple[int, int], Fraction]

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


def _side_image(config, series, side, shifts) -> dict[tuple[int, int], Fraction]:
    """(z, k) -> coefficient of log^k x0 in d^ell_side of the series' column z.

    Only the columns z in shifts are mapped.  The image of column z sits on
    the monomial x^(w(z) - ell_side).
    """
    rel = config.relation
    top = series.max_log_degree
    factors = []  # (p, q, rel[mu]) with w0_mu = p/q
    den = 1
    for mu in side:
        w = Fraction(series.base_exponent[mu])
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
            slope = q * e
            for i in range(abs(e)):
                c = p + q * (z * e - i)
                for s in range(top, 0, -1):
                    f[s] = f[s] * c + f[s - 1] * slope
                f[0] *= c
        common = lcm(*(c.denominator for c in column.values()))
        nums = [(r, c.numerator * (common // c.denominator)) for r, c in column.items()]
        for k in range(top + 1):
            total = sum(a * perm(r, r - k) * f[r - k] for r, a in nums if r >= k)
            if total:
                out[(z, k)] = Fraction(total, common * den)
    return out


def apply_box(config: LatticeConfig, series: LogSeries) -> OperatorReport:
    """Apply the box operator of the relation and report the residual.

    The positive-side derivative product lands one step lower on the common
    grid than the negative-side product, so the two images are compared at
    matching grid points; the topmost input shift has no checkable partner
    and is excluded from the safe window.
    """
    lo, hi = series.window
    if hi - 1 < lo:
        return _report("box", series.window, None, {})
    positive = _side_image(config, series, config.positive, range(lo + 1, hi + 1))
    negative = _side_image(config, series, config.negative, range(lo, hi))
    residual: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for (z, k), c in positive.items():
        residual[(z - 1, k)] += c
    for (z, k), c in negative.items():
        residual[(z, k)] -= c
    return _report("box", series.window, (lo, hi - 1), residual)


def apply_euler_row(
    config: LatticeConfig, param, series: LogSeries, row: int
) -> OperatorReport:
    """Apply one homogeneity operator row; the residual must vanish termwise.

    x_j d/dx_j scales a grid term by w_j and drops a log degree with weight
    relation[j]; summed against the row of the point matrix, the log-drop
    weight is the row applied to the relation, which is zero.  No shift in z
    occurs, so the whole input window is safe.
    """
    param = fracs(param)
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
    return _report(f"euler[{row}]", series.window, series.window, residual)


def apply_euler(config: LatticeConfig, param, series: LogSeries):
    """Reports for all homogeneity operator rows."""
    return tuple(
        apply_euler_row(config, param, series, row) for row in range(config.dim)
    )


@dataclass(frozen=True)
class Certificate:
    box: OperatorReport
    euler: tuple[OperatorReport, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "box": self.box.to_json_dict(),
            "euler": [r.to_json_dict() for r in self.euler],
        }


def certify(config: LatticeConfig, param, series: LogSeries) -> Certificate:
    """Run all defining operators; passed means every residual is zero."""
    box = apply_box(config, series)
    euler = apply_euler(config, param, series)
    return Certificate(
        box=box, euler=euler, passed=box.passed and all(r.passed for r in euler)
    )
