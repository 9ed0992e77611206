"""Exact linear algebra over the integers and rationals.

Hand-rolled on purpose: every consumer in this package needs exact answers
(integral cohomology, dual cocycle bases, integral and rational solutions of
linear systems), so everything here works with Python ints and Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

IntMatrix = list[list[int]]
FracVector = tuple[Fraction, ...]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d),
                                                     len(self.d[0]) if self.d else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        for k in range(n):
            a[dst][k] += factor * a[src][k]
        for k in range(m):
            u[dst][k] += factor * u[src][k]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find the nonzero entry of least magnitude in the working block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or
                                     abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    swap_rows(t, i)
                    if a[t][t] < 0:
                        negate_row(t)
                    dirty = True
                elif a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    swap_cols(t, j)
                    if a[t][t] < 0:
                        negate_row(t)
                    dirty = True
                elif a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
        # divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue  # redo the clearing at the same t
        t += 1

    return SmithForm(u, a, v)


def solve_integer(matrix: Sequence[Sequence[int]], rhs: Sequence[int]
                  ) -> Optional[tuple[int, ...]]:
    """Some integral x with A x = b, or None."""
    if not matrix:
        return ()
    m, n = len(matrix), len(matrix[0])
    snf = smith_normal_form(matrix)
    ub = [sum(snf.u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        d = snf.d[i][i] if i < min(m, n) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            if i < n:
                y[i] = ub[i] // d
    x = [sum(snf.v[i][k] * y[k] for k in range(n)) for i in range(n)]
    return tuple(x)


def integer_nullspace(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the integer kernel (columns of V beyond the rank)."""
    if not matrix or not matrix[0]:
        n = len(matrix[0]) if matrix else 0
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    snf = smith_normal_form(matrix)
    n = len(matrix[0])
    r = snf.rank
    return [tuple(snf.v[i][j] for i in range(n)) for j in range(r, n)]


# ---------------------------------------------------------------------------
# rational elimination


def rational_solve(matrix: Sequence[Sequence], rhs: Sequence
                   ) -> Optional[FracVector]:
    """Some rational x with A x = b, or None."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
           for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return tuple(x)
