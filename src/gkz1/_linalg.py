"""Internal exact linear algebra over Q and Z.

Everything here works on plain Python ints and fractions.Fraction, so all
results are exact.  Matrices are small (a handful of rows/columns), so the
textbook algorithms are the right tool: no pivot-size tuning, no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vector = tuple[Fraction, ...]


def fracs(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduced row echelon form in place over the first `ncols` columns.

    Returns the pivot column indices.  Any trailing columns (e.g. an
    augmented right-hand side) are carried along but never pivoted on.
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


def solve_columns(columns: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One exact solution c of  sum_t c_t * columns[t] = rhs,  or None.

    Free coordinates are set to zero, which makes the answer deterministic.
    """
    rhs = fracs(rhs)
    m = len(columns)
    d = len(rhs)
    if m == 0:
        return () if all(x == 0 for x in rhs) else None
    rows = [[Fraction(columns[t][i]) for t in range(m)] + [rhs[i]] for i in range(d)]
    pivots = _rref(rows, m)
    for i in range(len(pivots), d):
        if rows[i][m] != 0:
            return None
    solution = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        solution[c] = rows[r][m]
    return tuple(solution)


def nullspace_columns(columns: Sequence[Sequence]) -> list[Vector]:
    """Basis of {c in Q^m : sum_t c_t * columns[t] = 0}."""
    m = len(columns)
    d = len(columns[0])
    rows = [[Fraction(columns[t][i]) for t in range(m)] for i in range(d)]
    pivots = _rref(rows, m)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers (sign preserved)."""
    den = lcm(*(Fraction(x).denominator for x in vec)) if len(vec) > 1 else Fraction(vec[0]).denominator
    ints = [int(Fraction(x) * den) for x in vec]
    g = gcd(*ints) if len(ints) > 1 else abs(ints[0])
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


# -- Smith normal form (diagonal only) ---------------------------------------

def smith_invariants(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonnegative invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
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
    diag = [abs(a[t][t]) for t in range(s)]
    # enforce the divisibility chain; diag(a, b) ~ diag(gcd, lcm)
    for t in range(len(diag)):
        for u in range(t + 1, len(diag)):
            if diag[u] % diag[t]:
                g = gcd(diag[t], diag[u])
                diag[t], diag[u] = g, diag[t] * diag[u] // g
    return diag


def saturation_index(columns: Sequence[Sequence[int]]) -> int:
    """Index of the lattice spanned by integer columns inside its saturation.

    Equals the product of the Smith invariant factors.
    """
    transposed = [[col[i] for col in columns] for i in range(len(columns[0]))]
    product = 1
    for d in smith_invariants(transposed):
        product *= d
    return product


# -- arithmetic progressions of rationals -------------------------------------

Progression = tuple[Fraction, Fraction]  # (offset, step>0): {offset + step*m}


def _merge_progressions(p: Progression, q: Progression) -> Optional[Progression]:
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
    offset = Fraction(R1 + S1 * x0, den) % step
    return (offset, step)


def intersect_progressions(progressions: Sequence[Progression]) -> Optional[Progression]:
    """Intersection of arithmetic progressions {offset + step*Z}, or None."""
    if not progressions:
        raise ValueError("need at least one progression")
    acc = (progressions[0][0] % progressions[0][1], progressions[0][1])
    for p in progressions[1:]:
        merged = _merge_progressions(acc, p)
        if merged is None:
            return None
        acc = merged
    return acc
