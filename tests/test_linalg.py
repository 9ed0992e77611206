"""Exact linear algebra tests; determinants for the unimodularity checks are
computed with an independent cofactor expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebycyclic.linalg import identity_matrix, smith_normal_form

from dense_oracle import mat_mul
from fm_oracle import (lexmin_nonnegative, minimum_of_coordinate,
                       solve_inequalities)


def det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * det(minor)
    return total


def rational_rank(matrix):
    """Rank over Q by Gauss–Jordan elimination: an independent check on the
    integer kernel bases."""
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    rows = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(m)]
    rank = 0
    for col in range(n):
        sel = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


small_entries = st.integers(min_value=-6, max_value=6)


def check_snf(matrix):
    snf = smith_normal_form(matrix)
    m, n = len(matrix), len(matrix[0])
    assert mat_mul(mat_mul(snf.u, [list(r) for r in matrix]), snf.v) == snf.d
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    assert mat_mul(snf.u, snf.u_inv) == identity_matrix(m)
    assert mat_mul(snf.v, snf.v_inv) == identity_matrix(n)
    diag = snf.diagonal
    for i in range(m):
        for j in range(n):
            if i != j:
                assert snf.d[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    return snf


def test_snf_known_divisors():
    assert check_snf([[2, 4], [6, 8]]).diagonal == (2, 4)
    assert check_snf([[1, 2], [3, 4]]).diagonal == (1, 2)
    assert check_snf([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert check_snf([[2, 0], [0, 3]]).diagonal == (1, 6)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_snf_random(rows):
    check_snf(rows)


def solve(matrix, rhs):
    return smith_normal_form(matrix).solve(rhs)


def is_integral(x):
    return all(Fraction(c).denominator == 1 for c in x)


def test_solve_integer():
    x = solve([[2, 4]], [6])
    assert x is not None and is_integral(x) and 2 * x[0] + 4 * x[1] == 6
    x = solve([[2, 4]], [3])
    assert x is not None and not is_integral(x)
    # (x, y) = (-3, 4) solves this one integrally
    x = solve([[1, 2], [3, 4]], [5, 7])
    assert x is not None and is_integral(x)
    assert (x[0] + 2 * x[1], 3 * x[0] + 4 * x[1]) == (5, 7)
    # only the rational solution (-4, 9/2) exists
    assert solve([[1, 2], [3, 4]], [5, 6]) == (-4, Fraction(9, 2))
    # inconsistent system
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_integer_nullspace():
    snf = smith_normal_form([[1, 2, 3]])
    basis = [tuple(row[j] for row in snf.v) for j in range(snf.rank, 3)]
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    assert rational_rank(basis) == 2
    # the kernel of the zero map is everything
    assert smith_normal_form([[0, 0]]).rank == 0


def test_rational_solve():
    x = solve([[2, 0], [0, 4]], [1, 1])
    assert x == (Fraction(1, 2), Fraction(1, 4))
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    x = solve([[1, 1]], [7])
    assert x is not None and x[0] + x[1] == 7


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank(identity_matrix(3)) == 3


# ---------------------------------------------------------------------------
# inequalities


def test_feasible_strict_triangle():
    # x > 0, y > 0, x + y < 1
    rows = [((1, 0), 0, True), ((0, 1), 0, True), ((-1, -1), 1, True)]
    status, point = solve_inequalities(rows)
    assert status == "feasible"
    x, y = point
    assert x > 0 and y > 0 and x + y < 1


def test_infeasible_certificate():
    # x >= 1 and -x >= 0
    rows = [((1,), -1, False), ((-1,), 0, False)]
    status, cert = solve_inequalities(rows)
    assert status == "infeasible"
    combo_coeff = sum(cert.get(i, 0) * rows[i][0][0] for i in range(len(rows)))
    combo_const = sum(cert.get(i, 0) * rows[i][1] for i in range(len(rows)))
    assert all(lam >= 0 for lam in cert.values())
    assert combo_coeff == 0
    assert combo_const < 0


def test_infeasible_strict_zero():
    # x > 0 and x <= 0: certificate combines to 0 > 0
    rows = [((1,), 0, True), ((-1,), 0, False)]
    status, cert = solve_inequalities(rows)
    assert status == "infeasible"
    combo_coeff = sum(cert.get(i, 0) * rows[i][0][0] for i in range(len(rows)))
    combo_const = sum(cert.get(i, 0) * rows[i][1] for i in range(len(rows)))
    assert combo_coeff == 0 and combo_const <= 0


def test_equality_chain_back_substitution():
    # x = 3 exactly, y between x and 2x
    rows = [((1, 0), -3, False), ((-1, 0), 3, False),
            ((-1, 1), 0, False), ((2, -1), 0, False)]
    status, point = solve_inequalities(rows)
    assert status == "feasible"
    assert point[0] == 3
    assert 3 <= point[1] <= 6


def test_minimum_of_coordinate():
    rows = [((1, 1), -2, False),   # x + y >= 2
            ((0, 1), 0, False),    # y >= 0
            ((1, 0), 0, False)]    # x >= 0
    assert minimum_of_coordinate(rows, 0) == 0
    rows.append(((0, -1), 1, False))  # y <= 1 so x >= 1
    assert minimum_of_coordinate(rows, 0) == 1
    # unbounded below
    assert minimum_of_coordinate([((0, 1), 0, False)], 0) is None


def test_lexmin_nonnegative():
    # x + y = 2 -> (0, 2)
    assert lexmin_nonnegative([((1, 1), 2)], 2) == (0, 2)
    # additionally x >= 1 cannot be expressed; instead: x - y = 0, x + y = 2
    assert lexmin_nonnegative([((1, -1), 0), ((1, 1), 2)], 2) == (1, 1)
    # infeasible: x + y = -1 with x, y >= 0
    assert lexmin_nonnegative([((1, 1), -1)], 2) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.tuples(small_entries, small_entries),
                          small_entries, st.booleans()),
                min_size=1, max_size=5))
def test_inequalities_sound(rows):
    status, payload = solve_inequalities(rows)
    if status == "feasible":
        for (coeffs, const, strict) in rows:
            val = sum(Fraction(c) * x for c, x in zip(coeffs, payload)) + const
            assert val > 0 or (val == 0 and not strict)
    else:
        combo = [Fraction(0), Fraction(0)]
        const = Fraction(0)
        strict = False
        for i, lam in payload.items():
            assert lam >= 0
            combo[0] += lam * rows[i][0][0]
            combo[1] += lam * rows[i][0][1]
            const += lam * rows[i][1]
            strict = strict or rows[i][2]
        assert combo == [0, 0]
        assert const < 0 or (const == 0 and strict)
