"""Exact linear algebra over the integers and rationals.

Hand-rolled on purpose: every consumer in this package needs exact answers
(integral cohomology, dual cocycle bases, integral and rational solutions of
linear systems), so everything here works with Python ints and Fractions.

One Smith factorisation U·A·V = D answers every question asked of an exact
linear system A: it carries U⁻¹ and V⁻¹ alongside U and V, so the integer
kernel (columns of V beyond the rank), coordinates in that kernel (rows of
V⁻¹ beyond the rank), free generators of a cokernel (columns of U⁻¹ beyond
the rank) and a solution of A·x = b for any right-hand side
(:meth:`SmithForm.solve`) all come from one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1};
    ``u_inv`` and ``v_inv`` are the inverses of U and V."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d),
                                                     len(self.d[0]) if self.d else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    def solve(self, rhs: Sequence) -> Optional[tuple]:
        """Some x with A x = b, or None when there is none.

        With y = D⁺·U·b the solution is x = V·y.  V is unimodular, so an
        integral solution exists exactly when this one is integral; entries
        are ints then and Fractions otherwise.  Every d_i divides the last
        nonzero d, so V·(d·y) has integer entries for an integer b and is
        divided by d only at the end.
        """
        ub = [sum(c * b for c, b in zip(row, rhs)) for row in self.u]
        r = self.rank
        if any(ub[r:]):
            return None
        last = self.d[r - 1][r - 1] if r else 1
        y = [ub[i] * (last // self.d[i][i]) for i in range(r)]
        x = (Fraction(sum(row[i] * y[i] for i in range(r))) / last
             for row in self.v)
        return tuple(int(c) if c.denominator == 1 else c for c in x)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if a else 0
    u, u_inv = identity_matrix(m), identity_matrix(m)
    v, v_inv = identity_matrix(n), identity_matrix(n)

    # A row operation on U is the inverse column operation on U⁻¹, and a
    # column operation on V the inverse row operation on V⁻¹.
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, factor):
        for k in range(n):
            a[dst][k] += factor * a[src][k]
        for k in range(m):
            u[dst][k] += factor * u[src][k]
        for row in u_inv:
            row[src] -= factor * row[dst]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]
        v_inv[src] = [x - factor * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

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

    return SmithForm(u, a, v, u_inv, v_inv)
