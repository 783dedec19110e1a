"""Internal exact linear algebra over Q and Z, and the one check of exact input.

Every number entering the package passes rational() or integer(), or fracs() or
integers() for a list: a float, a bool, what Fraction cannot parse or
operator.index refuses, or a str for a list raises an InputError that names the
entry.  window_bounds() reads a window, and nonempty() alone tests one already
read; grid_fields() reads a series for LogSeries.make and the certificate alike,
and grid_rows() gives the certificate its rows; shown() writes a vector into a
message.

Matrices are small, so one Gauss-Jordan elimination per configuration, in
Python ints only, is kept and serves its kernel and every solve: reduction()
takes [A | I] to [R | E], E*A = R, and solve() back-substitutes a target
through E.  A row is eliminated by cross-multiplying it with the pivot row,
then divided by its content, so every row stays a primitive integer vector
and its entries stay near the size of the input's minors.  A target is
cleared of denominators once, and a solve gives integers over the solution's
least common denominator, with one gcd and no ``Fraction``.  No floats.

The one integer-run kernel lives here too, outside every builder module, so
that the coefficient engine and the box operator's factor rows of
gkz1.lattice, which the certificate reads as well, share one copy: _product
multiplies a run of integers, an arithmetic progression, and _times_linear
multiplies a truncated row by a run of linear factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, perm, prod
from operator import index, mul

from .errors import EmptyWindow, InputError

Vector = tuple[Fraction, ...]


def rational(value, where: str) -> Fraction:
    """value as a Fraction, a Fraction as it is; a float, which holds a binary
    approximation, and a bool, which is a truth value, are refused.  A str "p" or
    "p/q" of an optional "-" and ASCII digits is read by int, any other by Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InputError(f"{where}: {value!r} is a float, not an exact rational")
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        if type(value) is str and value.isascii():
            p, slash, q = value.partition("/")
            if p.removeprefix("-").isdigit() and (not slash or q.isdigit() and q.strip("0")):
                return Fraction(int(p), int(q) if slash else 1)
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"{where}: cannot parse rational {value!r}: {exc}") from None


def integer(value, where: str, bound: int | None = None) -> int:
    """value as an int; refused where operator.index refuses it, for a bool, or
    outside [0, bound)."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    try:
        value = index(value)
    except TypeError:
        raise InputError(f"{where}: expected an integer, got {value!r}") from None
    if bound is not None and not 0 <= value < bound:
        raise InputError(f"{where}: {value} is not an index in [0, {bound})")
    return value


def sequence(values, where: str) -> tuple:
    """The entries of a list, tuple or other iterable; a str is refused whole."""
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise InputError(f"{where}: expected a list, got {values!r}")


def fracs(values, where: str) -> Vector:
    """The entries as Fractions, each refused as rational() refuses it; a tuple of
    Fractions is returned as it is, and only a refused entry's name is built."""
    values = sequence(values, where)
    if all(type(e) is Fraction for e in values):
        return values
    try:
        return tuple(rational(e, where) for e in values)
    except InputError:
        return tuple(rational(e, f"{where} entry {i}") for i, e in enumerate(values))


def integers(values, where: str, bound: int | None = None) -> tuple[int, ...]:
    """fracs() for ints: each entry refused as integer() refuses it, with the same bound."""
    values = sequence(values, where)
    try:
        out = tuple(map(index, values))
        if bool not in map(type, values) and (
            bound is None or all(0 <= x < bound for x in out)
        ):
            return out
    except TypeError:
        pass
    return tuple(integer(x, f"{where} entry {i}", bound) for i, x in enumerate(values))


def shown(vector) -> str:
    """A vector as a message writes it: its entries' "p/q" strings in parentheses."""
    return "(" + ", ".join(map(str, vector)) + ")"


def pair(values, where: str) -> tuple[int, int]:
    """Two integers, such as a window (lo, hi) or a grid key (z, r)."""
    values = integers(values, where)
    if len(values) != 2:
        raise InputError(f"{where}: expected two integers, got {values!r}")
    return values


def window_bounds(window) -> tuple[int, int]:
    """(lo, hi) as two ints; InputError for another shape, EmptyWindow (also a
    ValueError) if lo > hi."""
    return nonempty(pair(window, "window"))


def nonempty(window: tuple[int, int]) -> tuple[int, int]:
    """A window (lo, hi) of two ints, as it is; EmptyWindow if lo > hi."""
    lo, hi = window
    if lo > hi:
        raise EmptyWindow(f"window: empty window [{lo}, {hi}]")
    return window


def grid_fields(base_exponent, relation, window, terms) -> tuple:
    """(base, relation, (lo, hi), terms, off): a series' fields through fracs,
    integers and window_bounds, each term's key through pair and coefficient
    through rational, named term (z, r), and off the first key with r < 0 or z
    outside [lo, hi], or None.  A dict of Fractions on int keys is kept as it
    is; terms without .items() are refused."""
    lo, hi = window = window_bounds(window)
    if not hasattr(terms, "items"):
        raise InputError(f"terms: expected a mapping of (z, r) keys, got {terms!r}")
    try:  # a type test first, as in fracs
        exact = all(type(c) is Fraction and type(z) is type(r) is int for (z, r), c in terms.items())
    except (TypeError, ValueError):  # a key that is not a pair
        exact = False
    if not exact:
        terms = {pair(k, f"term {k!r}"): rational(c, f"term {k!r}") for k, c in terms.items()}
    off = next((key for key in terms if key[1] < 0 or not lo <= key[0] <= hi), None)
    return fracs(base_exponent, "base_exponent"), integers(relation, "relation"), window, terms, off


def grid_rows(base_exponent, relation, window, terms, rows=None) -> tuple:
    """grid_fields of a series, with its terms as rows = (columns, top),
    columns[z] = (N, den), c[(z, top-s)] = top!/(top-s)! * N[s]/den.  A
    builder's rows are taken as they are, reading no term (off None); terms
    on the grid are put over each column's lcm of denominators times top!,
    with top their largest log degree (rows stay None where off is not)."""
    base, relation, window, terms, off = grid_fields(
        base_exponent, relation, window, {} if rows else terms
    )
    if rows is None and off is None:
        top, columns = max((r for _, r in terms), default=0), {}
        for (z, r), c in terms.items():
            columns.setdefault(z, []).append((r, c))
        for z, column in columns.items():
            d, num = lcm(*(c.denominator for _, c in column)), [0] * (top + 1)
            for r, c in column:
                num[top - r] = c.numerator * (d // c.denominator) * factorial(r)
            columns[z] = num, d * factorial(top)
        rows = columns, top
    return base, relation, window, rows, off


def _rref(rows: list[list[int]], ncols: int) -> list[int]:
    """Integer Gauss-Jordan elimination in place over the first `ncols` columns.

    Returns the pivot column indices.  The pivot row of each column is the
    first remaining row with a nonzero entry there, and every other row is
    cleared in that column, so each row ends as a nonzero multiple of the
    row that reduction over Q gives; the pivot entry is not scaled to 1.
    Any trailing columns (the identity of [A | I] in reduction) are carried
    along but never pivoted on.
    """
    pivots = []
    r, nrows = 0, len(rows)
    for c in range(ncols):
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        pivot = rows[p]
        rows[r], rows[p] = pivot, rows[r]
        a = pivot[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(a, f)
                a_g, f_g = a // g, f // g
                row = [a_g * x - f_g * y for x, y in zip(row, pivot)]
                content = gcd(*row)
                if content > 1:
                    row = [x // content for x in row]
                rows[i] = row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def reduction(columns, d: int) -> tuple:
    """(rows, pivots, m, scale): the m columns of length d reduced, [A | I]
    to [R | E], and scale, the lcm of the pivots.

    Row operations keep E*A = R, so the target b reduces to E*b: R's pivot
    rows fix the pivot coordinates and the other rows of E*b must vanish.
    """
    m = len(columns)
    rows = [[col[i] for col in columns] + [0] * i + [1] + [0] * (d - 1 - i) for i in range(d)]
    pivots = _rref(rows, m)
    scale = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    return tuple(map(tuple, rows)), tuple(pivots), m, scale


def solve(reduced: tuple, rhs) -> tuple[tuple[int, ...], int] | None:
    """(numerators, den): the solution c of  sum_t c_t * columns[t] = rhs
    whose free coordinates are zero, c_t = numerators[t]/den with den the
    least common denominator, or None.  rhs, of ints or Fractions, is
    back-substituted through the reduction's E, cleared of its denominators
    first."""
    rows, pivots, m, scale = reduced
    den = lcm(*(x.denominator for x in rhs))
    b = [x.numerator * (den // x.denominator) for x in rhs]
    eb = [sum(map(mul, row[m:], b)) for row in rows]
    if any(eb[len(pivots):]):
        return None
    numerators = [0] * m
    for r, c in enumerate(pivots):
        numerators[c] = eb[r] * (scale // rows[r][c])
    g = gcd(den * scale, *numerators)
    return tuple(x // g for x in numerators), den * scale // g


def nullspace(reduced: tuple) -> list[tuple[int, ...]]:
    """Integer basis of {c in Q^m : sum_t c_t * columns[t] = 0}.

    One vector per free coordinate f: the vector over Q with c_f = 1 and
    the other free coordinates 0, times the lcm of the pivots, so every
    entry is an integer and c_f is positive.
    """
    rows, pivots, m, scale = reduced
    basis = []
    for f in (c for c in range(m) if c not in pivots):
        vec = [0] * m
        vec[f] = scale
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f] * (scale // rows[r][c])
        basis.append(tuple(vec))
    return basis


# -- integer runs -------------------------------------------------------------

def _product(cs: range) -> int:
    """prod(cs).  A run lo..hi of step +-1 is a falling factorial, math.perm
    of its largest |factor|: an all-negative run takes the sign of its
    length, a run through 0 gives 0 and an empty run 1.  A run of any other
    step is one math.prod.  The ends are read off start and stop, which
    costs less than len and indexing on the short runs most calls get."""
    if cs.step == 1:
        lo, hi = cs.start, cs.stop - 1
    elif cs.step == -1:
        lo, hi = cs.stop + 1, cs.start
    else:
        return prod(cs)
    n = hi - lo + 1
    if n <= 0:
        return 1
    if lo > 0:
        return perm(hi, n)
    if hi < 0:
        return -perm(-lo, n) if n & 1 else perm(-lo, n)
    return 0


def _times_linear(a: list[int], cs: range, slope: int) -> None:
    """a(x) <- a(x) * prod_{c in cs} (c + slope*x), truncated to len(a) terms;
    one term is the product of the constants, _product(cs)."""
    top = len(a) - 1
    if not top:
        a[0] *= _product(cs)
        return
    for c in cs:
        for s in range(top, 0, -1):
            a[s] = a[s] * c + a[s - 1] * slope
        a[0] *= c


# -- lattice index ------------------------------------------------------------

def saturation_index(columns) -> int:
    """Index of the lattice spanned by integer columns inside its saturation.

    Equals the product of the Smith invariant factors, which is the product
    of the diagonal that integer row and column operations reduce the
    matrix to: those operations are unimodular, so any diagonal they reach
    has the same product of nonzero entries, up to sign.
    """
    a = [[col[i] for col in columns] for i in range(len(columns[0]))]
    m, n = len(a), len(columns)
    s = 0
    while s < m and s < n:
        pivot = next(
            ((i, j) for i in range(s, m) for j in range(s, n) if a[i][j]), None
        )
        if pivot is None:
            break
        i, j = pivot
        if i != s:
            a[s], a[i] = a[i], a[s]
        if j != s:
            for r in range(m):
                a[r][s], a[r][j] = a[r][j], a[r][s]
        while True:
            clear = True
            for i in range(s + 1, m):
                if a[i][s] == 0:
                    continue
                q = a[i][s] // a[s][s]
                for jj in range(s, n):
                    a[i][jj] -= q * a[s][jj]
                if a[i][s]:
                    a[s], a[i] = a[i], a[s]
                    clear = False
            if not clear:
                continue
            for j in range(s + 1, n):
                if a[s][j] == 0:
                    continue
                q = a[s][j] // a[s][s]
                for ii in range(s, m):
                    a[ii][j] -= q * a[ii][s]
                if a[s][j]:
                    for r in range(m):
                        a[r][s], a[r][j] = a[r][j], a[r][s]
                    clear = False
            if clear:
                break
        s += 1
    product = 1
    for t in range(s):
        product *= abs(a[t][t])
    return product

