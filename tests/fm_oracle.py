"""Fourier–Motzkin elimination with provenance: the reference oracle.

The package decides cone membership and finds least integral cocycles by
shortest paths on the 1-skeleton.  This module keeps the general
Fourier–Motzkin solver they replaced, and the row formulation the package
used to feed it, so the tests can compare the two on small complexes.
Elimination is doubly exponential in the worst case: keep it to complexes
with few 0-cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import freebycyclic.cohomology as co
from cocycle_oracle import ConeWitness, boundary_one, coboundary
from freebycyclic.errors import (ConeInfeasibleError, InvariantViolation,
                                 NonIntegralClassError)

FracVector = tuple[Fraction, ...]


@dataclass
class Inequality:
    """sum(coeffs * x) + const >= 0, strict when ``strict``.

    ``provenance`` expresses the row as a nonnegative combination of the
    original input rows (by index), enabling Farkas certificates.
    """

    coeffs: FracVector
    const: Fraction
    strict: bool
    provenance: dict[int, Fraction]


def _combine(pos: Inequality, neg: Inequality, k: int) -> Inequality:
    """Eliminate variable k from a row with positive and one with negative
    coefficient; the result is implied with multipliers (−neg_k, pos_k)."""
    a, b = pos.coeffs[k], neg.coeffs[k]
    mult_pos, mult_neg = -b, a  # both positive
    coeffs = tuple(mult_pos * p + mult_neg * q
                   for p, q in zip(pos.coeffs, neg.coeffs))
    const = mult_pos * pos.const + mult_neg * neg.const
    prov: dict[int, Fraction] = {}
    for idx, lam in pos.provenance.items():
        prov[idx] = prov.get(idx, Fraction(0)) + mult_pos * lam
    for idx, lam in neg.provenance.items():
        prov[idx] = prov.get(idx, Fraction(0)) + mult_neg * lam
    return Inequality(coeffs, const, pos.strict or neg.strict, prov)


FeasibleResult = tuple[str, object]


def solve_inequalities(rows: Sequence[tuple[Sequence, object, bool]]
                       ) -> FeasibleResult:
    """Decide {x : every (coeffs, const, strict) row holds}.

    Returns ("feasible", point) with an exact rational point satisfying all
    rows, or ("infeasible", certificate) where certificate maps input row
    indices to nonnegative multipliers whose combination has zero
    coefficients and a contradictory constant term.
    """
    n = max((len(c) for c, _k, _s in rows), default=0)
    system = [Inequality(tuple(Fraction(x) for x in list(coeffs) + [0] * (n - len(coeffs))),
                         Fraction(const), strict, {i: Fraction(1)})
              for i, (coeffs, const, strict) in enumerate(rows)]

    stages: list[list[Inequality]] = []  # rows with variable k present, per k
    for k in range(n - 1, -1, -1):
        pos = [r for r in system if r.coeffs[k] > 0]
        neg = [r for r in system if r.coeffs[k] < 0]
        zero = [r for r in system if r.coeffs[k] == 0]
        stages.append(pos + neg)
        new = zero
        for p in pos:
            for q in neg:
                new.append(_combine(p, q, k))
        system = _prune(new)
        contradiction = _find_contradiction(system)
        if contradiction is not None:
            return "infeasible", contradiction.provenance

    contradiction = _find_contradiction(system)
    if contradiction is not None:
        return "infeasible", contradiction.provenance

    # back-substitute: stages were recorded for k = n-1 .. 0
    x: list[Fraction] = [Fraction(0)] * n
    for k in range(n):
        bounds = stages[n - 1 - k]
        lower: Optional[tuple[Fraction, bool]] = None
        upper: Optional[tuple[Fraction, bool]] = None
        for r in bounds:
            # variables above k were already eliminated when this stage was
            # recorded, so only the assigned lower-index variables contribute
            rest = r.const + sum(r.coeffs[j] * x[j] for j in range(n)
                                 if j != k and r.coeffs[j] != 0)
            # r.coeffs[k] * x_k + rest >= 0
            if r.coeffs[k] > 0:
                bound = -rest / r.coeffs[k]
                if lower is None or bound > lower[0] or \
                        (bound == lower[0] and r.strict):
                    lower = (bound, r.strict)
            else:
                bound = -rest / r.coeffs[k]
                if upper is None or bound < upper[0] or \
                        (bound == upper[0] and r.strict):
                    upper = (bound, r.strict)
        if lower is None and upper is None:
            x[k] = Fraction(0)
        elif lower is None:
            x[k] = upper[0] - 1
        elif upper is None:
            x[k] = lower[0] if not lower[1] else lower[0] + 1
        else:
            if lower[0] == upper[0]:
                x[k] = lower[0]  # closed on both sides (FM guarantees order)
            else:
                x[k] = (lower[0] + upper[0]) / 2
    # exact verification before returning
    for coeffs, const, strict in rows:
        val = sum(Fraction(c) * xi for c, xi in zip(coeffs, x)) + Fraction(const)
        if val < 0 or (strict and val == 0):
            raise InvariantViolation("back-substitution produced an invalid point")
    return "feasible", tuple(x)


def _find_contradiction(system: list[Inequality]) -> Optional[Inequality]:
    for r in system:
        if all(c == 0 for c in r.coeffs):
            if r.const < 0 or (r.strict and r.const == 0):
                return r
    return None


def _prune(system: list[Inequality]) -> list[Inequality]:
    """Drop tautologies and duplicate rows (contradictions are kept)."""
    out = []
    seen = set()
    for r in system:
        if all(c == 0 for c in r.coeffs) and (
                r.const > 0 or (r.const == 0 and not r.strict)):
            continue
        key = (r.coeffs, r.const, r.strict)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out


def minimum_of_coordinate(rows: Sequence[tuple[Sequence, object, bool]],
                          target: int) -> Optional[Fraction]:
    """Greatest lower bound of x_target over the (closed) feasible region.

    Only meaningful for systems of non-strict rows; returns None when
    unbounded below.  Feasibility must be checked separately.
    """
    n = max((len(c) for c, _k, _s in rows), default=0)
    system = [Inequality(tuple(Fraction(x) for x in list(coeffs) + [0] * (n - len(coeffs))),
                         Fraction(const), strict, {i: Fraction(1)})
              for i, (coeffs, const, strict) in enumerate(rows)]
    for k in range(n):
        if k == target:
            continue
        pos = [r for r in system if r.coeffs[k] > 0]
        neg = [r for r in system if r.coeffs[k] < 0]
        zero = [r for r in system if r.coeffs[k] == 0]
        system = _prune(zero + [_combine(p, q, k) for p in pos for q in neg])
    best: Optional[Fraction] = None
    for r in system:
        if r.coeffs[target] > 0:
            bound = -r.const / r.coeffs[target]
            if best is None or bound > best:
                best = bound
    return best


def lexmin_nonnegative(equalities: Sequence[tuple[Sequence, object]],
                       n: int) -> Optional[tuple[Fraction, ...]]:
    """Lexicographically least x >= 0 with A x = b, by repeated minimization.

    Returns None when infeasible.  Each coordinate minimum is attained
    because the region is closed.
    """
    rows: list[tuple[list, object, bool]] = []
    for coeffs, const in equalities:
        coeffs = list(coeffs) + [0] * (n - len(coeffs))
        rows.append((coeffs, -Fraction(const), False))
        rows.append(([-c for c in coeffs], Fraction(const), False))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rows.append((unit, Fraction(0), False))
    status, _ = solve_inequalities(rows)
    if status != "feasible":
        return None
    fixed: list[Fraction] = []
    for j in range(n):
        low = minimum_of_coordinate(rows, j)
        value = Fraction(0) if low is None else max(low, Fraction(0))
        fixed.append(value)
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rows.append((unit, -value, False))
        rows.append(([-c for c in unit], value, False))
    status, point = solve_inequalities(rows)
    if status != "feasible":
        raise InvariantViolation("lexmin fixing lost feasibility")
    return tuple(fixed)


# ---------------------------------------------------------------------------
# the cone and integral-cocycle problems as inequality rows


def _d1_columns(complex_) -> tuple[list, tuple, list]:
    """The 0-cell names, the 1-cell names, and per 1-cell the column of
    the boundary matrix over the 0-cells, read from the cells."""
    zero_cells = [c.name for c in complex_.zero_cells]
    one_cells = complex_.one_cell_names
    b1 = boundary_one(complex_)
    return zero_cells, one_cells, [[b1[e].get(v, 0) for v in zero_cells]
                                   for e in one_cells]


def fm_cone_membership(complex_, z: Mapping) -> ConeWitness:
    """Strictly positive representative of the class of ``z``, by elimination.

    Raises :class:`ConeInfeasibleError` carrying Fourier–Motzkin's
    certificate, a nonnegative cycle pairing nonpositively with the class.
    """
    zero_cells, one_cells, columns = _d1_columns(complex_)
    rows = []
    for e, coeffs in zip(one_cells, columns):
        rows.append((coeffs, Fraction(z.get(e, 0)), True))
    status, payload = solve_inequalities(rows)
    if status == "feasible":
        potential = {v: payload[i] for i, v in enumerate(zero_cells)}
        return ConeWitness(co.dict_sum(z, coboundary(complex_, potential)),
                           potential)
    certificate = {one_cells[idx]: lam
                   for idx, lam in payload.items() if lam != 0}
    raise ConeInfeasibleError("class has no positive representative",
                              certificate=certificate)


def fm_integral_cocycle(complex_, z: Mapping, minimum: int = 0) -> dict:
    """Lexicographically least representative at least ``minimum`` cellwise,
    minimizing one 1-cell at a time by elimination."""
    zero_cells, one_cells, columns = _d1_columns(complex_)
    n0 = len(zero_cells)

    def cell_rows(fixed: dict) -> list:
        rows = []
        for e, column in zip(one_cells, columns):
            coeffs = [Fraction(x) for x in column] + [Fraction(0)]
            base = Fraction(z.get(e, 0))
            if e in fixed:
                rows.append((coeffs, base - fixed[e], False))
                rows.append(([-c for c in coeffs], fixed[e] - base, False))
            else:
                rows.append((coeffs, base - minimum, False))
        return rows

    status, payload = solve_inequalities(cell_rows({}))
    if status != "feasible":
        certificate: dict = {}
        for idx, lam in payload.items():
            e = one_cells[idx]
            certificate[e] = certificate.get(e, 0) + lam
        certificate = {e: lam for e, lam in certificate.items() if lam != 0}
        raise ConeInfeasibleError(
            f"no representative is at least {minimum} on every 1-cell",
            certificate=certificate)

    fixed: dict = {}
    for e, column in zip(one_cells, columns):
        rows = cell_rows(fixed)
        coeffs = [Fraction(x) for x in column] + [Fraction(-1)]
        base = Fraction(z.get(e, 0))
        rows.append((coeffs, base, False))
        rows.append(([-c for c in coeffs], -base, False))
        low = minimum_of_coordinate(rows, n0)
        if low is None:
            raise InvariantViolation(
                f"value on {e!r} is unbounded below despite the cellwise bound")
        if low.denominator != 1:
            raise NonIntegralClassError(f"least value on {e!r} is {low}")
        fixed[e] = low
    return {e: int(v) for e, v in fixed.items() if v != 0}
