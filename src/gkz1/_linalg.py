"""Internal exact linear algebra over Q and Z.

Matrices are small (a handful of rows and columns), so one Gauss-Jordan
elimination serves every solve, and it runs on Python ints only.  A row
is eliminated by cross-multiplying it with the pivot row, then divided by
its content, so every row stays a primitive integer vector and its entries
stay near the size of the input's minors.  Rational right-hand sides are
cleared of denominators once, before the elimination, and a solve builds
one ``Fraction`` per pivot coordinate, at the end.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def fracs(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def _rref(rows: list[list[int]], ncols: int) -> list[int]:
    """Integer Gauss-Jordan elimination in place over the first `ncols` columns.

    Returns the pivot column indices.  The pivot row of each column is the
    first remaining row with a nonzero entry there, and every other row is
    cleared in that column, so each row ends as a nonzero multiple of the
    row that reduction over Q gives; the pivot entry is not scaled to 1.
    Any trailing columns (e.g. an augmented right-hand side) are carried
    along but never pivoted on.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        a = pivot[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                g = gcd(a, f)
                a_g, f_g = a // g, f // g
                row = [a_g * x - f_g * y for x, y in zip(rows[i], pivot)]
                content = gcd(*row)
                if content > 1:
                    row = [x // content for x in row]
                rows[i] = row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_columns(columns: Sequence[Sequence[int]], rhs: Sequence) -> Optional[Vector]:
    """One exact solution c of  sum_t c_t * columns[t] = rhs,  or None.

    The right-hand side holds ints or Fractions.  Free coordinates are set
    to zero, which makes the answer deterministic.
    """
    m = len(columns)
    d = len(rhs)
    if m == 0:
        return () if all(x == 0 for x in rhs) else None
    den = lcm(*(x.denominator for x in rhs))
    rows = [
        [col[i] * den for col in columns] + [rhs[i].numerator * (den // rhs[i].denominator)]
        for i in range(d)
    ]
    pivots = _rref(rows, m)
    for i in range(len(pivots), d):
        if rows[i][m]:
            return None
    solution = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        solution[c] = Fraction(rows[r][m], rows[r][c])
    return tuple(solution)


def nullspace_columns(columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer basis of {c in Q^m : sum_t c_t * columns[t] = 0}.

    One vector per free coordinate f: the vector over Q with c_f = 1 and
    the other free coordinates 0, times the lcm of the pivots, so every
    entry is an integer and c_f is positive.
    """
    m = len(columns)
    d = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(d)]
    pivots = _rref(rows, m)
    scale = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * m
        vec[f] = scale
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f] * (scale // rows[r][c])
        basis.append(tuple(vec))
    return basis


def primitive_integer_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by its content (sign preserved)."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


# -- lattice index ------------------------------------------------------------

def saturation_index(columns: Sequence[Sequence[int]]) -> int:
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

