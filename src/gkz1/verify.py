"""Machine verification: apply the defining operators to a truncated series.

Operators act directly on the (z, log-degree) coefficient grid; the
monomial x^(w0 + z*relation) is never expanded.  A report's safe window
contains a shift z only when every source term the operator maps into z was
present in the input window, so "passed" is meaningful despite truncation.
Residual coefficients are exact rationals and "passed" means literal zero.

A series is read as rows, through one reader, _linalg.grid_rows: column z
of a series of degree top is C(z, eps) = sum_s N_s eps^s / den, its term at
(z, top-s) being top!/(top-s)! * N_s/den.  A builder's series holds its
bundle's rows (LogSeries.rows) and is read as it is; any other, such as a
printed report read back, has each column's terms put over the lcm of their
denominators.  Since log x0 = sum_mu rel[mu] log x_mu,

    x^w log^r x0 = r! [eps^r] x^(w + eps*rel),

and d/dx_mu lowers x_mu's exponent by one with the factor w_mu + eps*rel[mu],
one side's derivative product maps column z to C(z) F_z x^(w(z) - ell_side),
truncated at eps^top, with w(z) = w0 + z*rel and

    F_z(eps) = prod_{mu on the side} prod_{i < |rel[mu]|} (w_mu(z) - i + eps*rel[mu]).

The positive side's image of column z+1 lands on the negative side's image
of column z, so the box operator d^ell+ - d^ell- is the two-term recurrence
C(z+1)F+_{z+1} = C(z)F-_z, checked in integers, eps degree by eps degree; a
residual at eps^n is reported at log degree top-n, times top!/(top-n)!.  F_z,
in integers over prod_mu q_mu^|rel[mu]| (w0_mu = p_mu/q_mu), comes from
gkz1.lattice (_box_sides, _box_row), whose runs the kernel of gkz1._linalg
multiplies.  The builder reads the same factors, but neither module is
builder code, and the tests check both against literal routes that share no
code with the package.  _box_row keeps the rows it computed, so on a built
bundle the certificate reads the rows the builder's walk stepped with.  It
still asks for them by its own keys, the sides of the series' base exponent
and the configuration's relation, and a kept row is what _box_row computes
for those keys, a tuple no caller can change: no report depends on what
the cache holds.

A shift is decided by one exact division, not by cross-multiplying.  With P
the positive row at z+1, D1 and D0 the denominators of columns z+1 and z,
and X = P[0]^(top+1), a passing series has D1 dividing D0 * minus_scale * X
wherever P[0] != 0: column z+1 is column z's image divided by F+, whose
inverse truncated at eps^top has denominators dividing P[0]^(top+1).  The
quotient w is the size of a box row, and the shift passes when
a_n * w = b_n * plus_scale * X for the images' numerators a and b, which,
times D1 and over X, is the cross-multiplied identity.  A log-free series
has its own form of the test, which holds for P[0] = 0 too (_box).  A shift
that this does not pass is cross-multiplied, which decides it and gives its
residual, so a passing shift multiplies no two coefficients.

An Euler row scales every term by one offset, row.w0 - beta_row, since
row.relation is zero.  A Fraction is built only for a residual entry, which
a passing certificate has none of.

certify_bundle certifies a bundle's solutions together.  Solution r is
r! [eps^r] sum_z C(z, eps) x^(w(z) + eps*rel), so its box residual is the
top solution T's taken mod eps^(r+1), and its Euler offsets are T's.  certify
runs on T; where T passes, a lower solution that holds T's rows at its
degree, on T's base exponent, relation and window as grid_rows reads them,
has T's certificate, and its terms are never read.  Every other solution
goes through certify itself.

A series argument is a LogSeries, or anything with its four fields; the
operators take what _check_grid read, so a certificate runs no builder code
and imports none.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from operator import is_, mul

from ._linalg import fracs, grid_rows, integer, sequence
from ._record import Record
from .errors import InputError
from .lattice import LatticeConfig, _box_row, _box_sides


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


def _fields(series) -> tuple:
    """A series' base_exponent, relation, window, terms and rows; the terms
    of one that holds rows (LogSeries.rows) are None, not read.  An object
    that lacks one of the four fields is refused with InputError, named as
    from_json_dict names it."""
    rows = getattr(series, "rows", None)
    try:
        return (series.base_exponent, series.relation, series.window,
                series.terms if rows is None else None, rows)
    except AttributeError:
        for name in ("base_exponent", "relation", "window", "terms"):
            if not hasattr(series, name):
                raise InputError(f"series: missing field {name!r}") from None
        raise


def _check_grid(config, series):
    """(base, window, rows): a series' _fields read by _linalg.grid_rows, as
    LogSeries.make reads them.  A series on another grid x^(w0 + z*relation)
    than the operator's, or with a term off its own grid (z outside its
    window or r < 0), is refused with ValueError."""
    base, relation, window, rows, off = grid_rows(*_fields(series))
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
    return base, window, rows


def _image(f, num) -> list[int]:
    """[eps^n] of f(eps) * N(eps), n < len(f): d^ell_side of a column N/den
    of a series of degree top > 0, f the side's row scale * F_z(eps)
    truncated at eps^top, over den * scale and in the eps-form."""
    return [sum(map(mul, num[:n + 1], f[n::-1])) for n in range(len(f))]


def apply_box(config: LatticeConfig, series) -> OperatorReport:
    """Apply the box operator of the relation and report the residual.

    At each shift z of the safe window [lo, hi-1] with a column at z or z+1,
    the positive side's image of column z+1 must equal the negative side's
    image of column z: the two-term recurrence C(z+1)F+_{z+1} = C(z)F-_z,
    checked log degree by log degree in integers.  Where F+_{z+1}(0) is not
    0, and at every shift of a log-free series, the shift passes by one
    exact division of column z's denominator, scaled, by column z+1's, whose
    quotient is the size of a box row; a shift that this does not pass is
    decided by cross-multiplying, which also gives its residual.  The top
    input shift has no partner and is left out of the safe window.  A series
    on another grid is refused with ValueError, an inexact entry with InputError.
    """
    return _box(config, *_check_grid(config, series))


def _box(config, base, window, rows) -> OperatorReport:
    """apply_box on a checked series' base, window and rows.  At each shift,
    f and g are the rows P at z+1 and Q at z, column z+1 is N1/D1 and
    column z N0/D0 (a missing one is (0,)/1), and w is the quotient of the
    division that the module docstring describes, with X = P[0]^len(N1): a
    row of a degree below its bundle's top keeps the top's denominator.  For
    a log-free series the test is N1 * w = N0 * Q[0] * plus_scale with
    w = D0 * minus_scale * P[0] / D1, which times D1 is the cross-multiplied
    identity for any P[0], 0 included."""
    columns, top = rows
    lo, hi = window
    if hi - 1 < lo:
        return OperatorReport("box", None, {})
    (plus, plus_scale), (minus, minus_scale) = _box_sides(base, config.relation)
    residual = {}
    for z in {z for z in columns if z < hi} | {z - 1 for z in columns if z > lo}:
        f, g = _box_row(plus, z + 1, top), _box_row(minus, z, top)
        (n1, d1), (n0, d0) = columns.get(z + 1, ((0,), 1)), columns.get(z, ((0,), 1))
        # each n must have a_n * u == b_n * v: cross-multiplied, or, where D1
        # divides D0 * minus_scale * X, both sides times X over D1
        da, db = d1 * plus_scale, d0 * minus_scale
        u, v = db, da
        if not top:  # C(z+1)F+_{z+1}(0) against C(z)F-_z(0)
            w, rem = divmod(db * f[0], d1)
            if not rem and n1[0] * w == n0[0] * g[0] * plus_scale:
                continue
            a, b = [n1[0] * f[0]], [n0[0] * g[0]]
        else:
            a, b = _image(f, n1), _image(g, n0)
            if f[0]:
                x = f[0] ** len(n1)
                w, rem = divmod(db * x, d1)
                if not rem:
                    u, v = w, plus_scale * x
        for n, (p, q) in enumerate(zip(a, b)):
            if p * u != q * v:
                residual[(z, top - n)] = Fraction(perm(top, n) * (p * db - q * da), da * db)
    return OperatorReport("box", (lo, hi - 1), residual)


def apply_euler_row(config: LatticeConfig, param, series, row: int) -> OperatorReport:
    """Apply one homogeneity operator row; the residual must vanish termwise.

    x_j d/dx_j scales a grid term by w_j(z) and drops a log degree with
    weight relation[j]; against the row, z*(row.relation) and the drop
    vanish, so every term is scaled by one offset, row.w0 - beta_row.  Where
    it is zero the row passes without reading a term.  The whole input
    window is safe.  A series on another grid, or a parameter with another
    number of entries than the configuration has rows, is refused with
    ValueError; an inexact entry of either, or a bad row, with InputError.
    """
    fields = _check_grid(config, series)
    param = _parameter(config, param)
    return _euler_row(config, param, *fields, integer(row, "row", config.dim))


def _parameter(config, param) -> tuple[Fraction, ...]:
    param = fracs(param, "parameter")
    if len(param) != config.dim:
        raise ValueError(
            f"parameter has {len(param)} entries, the configuration {config.dim} rows"
        )
    return param


def _euler_row(config, param, base, window, rows, row: int) -> OperatorReport:
    """apply_euler_row on a checked parameter, series' fields and row."""
    a_row = [config.columns[j][row] for j in range(config.n)]
    b = param[row]
    den = lcm(b.denominator, *(w.denominator for w in base))
    offset = sum(
        a * w.numerator * (den // w.denominator) for a, w in zip(a_row, base)
    ) - b.numerator * (den // b.denominator)
    residual = {}
    if offset:
        columns, top = rows
        residual = {
            (z, top - s): Fraction(offset * perm(top, s) * x, den * d)
            for z, (num, d) in columns.items() for s, x in enumerate(num[:top + 1])
        }
    return OperatorReport(f"euler[{row}]", window, residual)


def _euler(config, param, base, window, rows):
    """apply_euler on a checked series' fields; the parameter is checked once."""
    param = _parameter(config, param)
    return tuple(_euler_row(config, param, base, window, rows, row) for row in range(config.dim))


def apply_euler(config: LatticeConfig, param, series):
    """Reports for all homogeneity operator rows; the series and the parameter
    are checked once, as apply_euler_row checks them."""
    return _euler(config, param, *_check_grid(config, series))


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


def certify(config: LatticeConfig, param, series) -> Certificate:
    """Run all defining operators; passed means every residual is zero.

    The series and the parameter are checked once, for every operator.
    """
    fields = _check_grid(config, series)
    euler = _euler(config, param, *fields)
    return Certificate(_box(config, *fields), euler)


def certify_bundle(config: LatticeConfig, param, solutions) -> tuple[Certificate, ...]:
    """The certificates of a bundle's solutions, solutions[r] of log degree r:
    equal to certify on each, but where the top solution T passes, certify
    runs on it alone.

    Solution r's box residual is T's taken mod eps^(r+1), with the weight
    r!(T-r+k)!/(k! T!) at (z, k), and its Euler offsets are T's.  So where T
    passes, a solution r < T that holds T's rows at a degree up to T's, with
    T's base exponent, relation and window as grid_rows reads them, passes
    with the same reports and gets T's certificate.  Any other solution, and
    every solution of a bundle whose top fails, goes through certify itself,
    so a failure or a refusal reads as certify's.  A one-solution bundle is
    one certify call.
    """
    solutions = sequence(solutions, "solutions")
    if not solutions:
        return ()
    *lower, top = solutions
    certificate = certify(config, param, top)
    top_fields = _fields(top)
    shared = certificate.passed and top_fields[4]  # the rows a lower solution must hold
    certificates = []
    for series in lower:
        fields = _fields(series)
        rows = fields[4]
        if rows and shared and rows[0] is shared[0] and rows[1] <= shared[1] and (
            all(map(is_, fields[:3], top_fields[:3]))  # the same objects read alike
            or grid_rows(*fields)[:3] == grid_rows(*top_fields)[:3]
        ):
            certificates.append(certificate)
        else:
            certificates.append(certify(config, param, series))
    return (*certificates, certificate)
