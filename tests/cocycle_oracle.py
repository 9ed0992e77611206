"""The Fraction route of the cone and cocycle solves: the reference oracle.

The package solves on integers over the cached skeleton of a complex, one
class at a time (``integral_cocycle``) or, on the ``survey`` route, a batch
of integer combinations of one basis (``least_representatives``), and
reads every cone verdict off the least representative with
``zero_cycle``.  The tests check both routes against this module, which
keeps the code they replaced: it reads the boundary maps from the cells
itself (``boundary_one`` and ``boundary_two``, as sparse dicts keyed by
cell name) for every cocycle check, so it does not share the skeleton it
checks; it builds its constraint weights as Fractions, searches for a
negative cycle before it solves, solves every 1-cell on the whole digraph
instead of once per tie of the skeleton's tie order, and checks each
least value as a Fraction.  ``cone_membership`` decides the cone by a
strictly positive witness instead, a :class:`ConeWitness` the tests check
for positivity.  The package and this module share the shortest-path
kernels ``_distances`` and ``_least_negative_cycle``, so the tests compare
everything around them.  ``coboundary`` is the witness check: a cone
witness is the queried cocycle plus the coboundary of its potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import freebycyclic.cohomology as co
from freebycyclic.errors import (ConeInfeasibleError, InvariantViolation,
                                 NonIntegralClassError)


@dataclass
class ConeWitness:
    """A strictly positive cocycle representative and the shift reaching it.

    ``values`` equals the queried cocycle plus the coboundary of
    ``potential`` and is positive on every 1-cell.
    """

    values: dict
    potential: dict


def boundary_one(complex_) -> dict[str, dict[str, int]]:
    """1-cell name to its boundary, 0-cell name to coefficient."""
    ends = [(v.name, v.end, v.start) for v in complex_.verticals]
    ends += [(s.name, s.top, s.bottom) for s in complex_.skews]
    return {e: {end: 1, start: -1} if end != start else {}
            for e, end, start in ends}


def boundary_two(complex_) -> dict[str, dict[str, int]]:
    """Trapezoid name to its boundary, 1-cell name to coefficient: the
    bottom skew, the right side, minus the top pieces and minus the left
    side, merged and without zeros."""
    out: dict[str, dict[str, int]] = {}
    for t in complex_.trapezoids:
        row: dict[str, int] = {}

        def add(cell: str, coef: int):
            row[cell] = row.get(cell, 0) + coef

        add(t.bottom, 1)
        for name in t.right:
            add(name, 1)
        for piece in t.top:
            add(piece.skew, -piece.sign)
        for name in t.left:
            add(name, -1)
        out[t.name] = {c: x for c, x in row.items() if x}
    return out


def is_cocycle(complex_, z: Mapping) -> bool:
    """Whether ``z`` vanishes on the boundary of every 2-cell."""
    for row in boundary_two(complex_).values():
        if sum(z.get(e, 0) * coef for e, coef in row.items()) != 0:
            return False
    return True


def coboundary(complex_, potential: Mapping) -> dict:
    """The 1-cochain ``e -> sum of potential over the boundary of e``."""
    b1 = boundary_one(complex_)
    out: dict = {}
    for e, row in b1.items():
        val = sum(Fraction(potential.get(v, 0)) * inc for v, inc in row.items())
        if val != 0:
            out[e] = val
    return out


def constraint_digraph(complex_, z: Mapping, bound: Fraction,
                       scale: int) -> list:
    """One arc per 1-cell, in ``one_cell_names`` order, of integer weight
    ``scale·(z(e) − bound)``."""
    index = {c.name: i for i, c in enumerate(complex_.zero_cells)}
    ends = {v.name: (v.end, v.start) for v in complex_.verticals}
    ends.update((s.name, (s.top, s.bottom)) for s in complex_.skews)
    arcs = []
    for e in complex_.one_cell_names:
        weight = scale * (Fraction(z.get(e, 0)) - bound)
        if weight.denominator != 1:
            raise InvariantViolation(
                f"scale {scale} leaves the constraint weight {weight} on "
                f"{e!r} fractional")
        end, start = ends[e]
        arcs.append((index[end], index[start], weight.numerator))
    return arcs


def cone_membership(complex_, z: Mapping) -> ConeWitness:
    """Strictly positive representative of the class of ``z``."""
    if not is_cocycle(complex_, z):
        raise InvariantViolation("cochain is not a cocycle")
    n = len(complex_.zero_cells)
    common = math.lcm(*(Fraction(v).denominator for v in z.values()))
    scale = common * (n + 1)
    arcs = constraint_digraph(complex_, z, Fraction(1, scale), scale)
    dist = co._distances(n, arcs, range(n))
    if dist is not None:
        potential = {c.name: Fraction(d, scale)
                     for c, d in zip(complex_.zero_cells, dist)}
        witness = co.dict_sum(z, coboundary(complex_, potential))
        if any(val <= 0 for val in witness.values()) \
                or len(witness) != len(arcs):
            raise InvariantViolation("positivity witness failed verification")
        return ConeWitness(witness, potential)
    certificate = {complex_.one_cell_names[j]: 1
                   for j in co._least_negative_cycle(n, arcs)}
    bad = co.boundary(complex_, certificate)
    pairing = sum(Fraction(z.get(e, 0)) * lam
                  for e, lam in certificate.items())
    if bad or pairing > 0:
        raise InvariantViolation("infeasibility certificate failed verification")
    raise ConeInfeasibleError(
        f"class has no positive representative; the nonnegative cycle "
        f"{certificate!r} pairs to {pairing} with it",
        certificate=certificate)


def integral_cocycle(complex_, z: Mapping, minimum: int = 0) -> dict:
    """Least integral representative of the class of ``z``, cellwise."""
    if not is_cocycle(complex_, z):
        raise InvariantViolation("cochain is not a cocycle")
    n = len(complex_.zero_cells)
    scale = math.lcm(*(Fraction(v).denominator for v in z.values()))
    arcs = constraint_digraph(complex_, z, Fraction(minimum), scale)
    if co._distances(n, arcs, range(n)) is None:
        certificate = {complex_.one_cell_names[j]: 1
                       for j in co._least_negative_cycle(n, arcs)}
        total = sum(Fraction(z.get(e, 0)) - minimum for e in certificate)
        if co.boundary(complex_, certificate) or total >= 0:
            raise InvariantViolation(
                "infeasibility certificate failed verification")
        raise ConeInfeasibleError(
            f"no representative is at least {minimum} on every 1-cell: "
            f"Σ(z(e) − {minimum}) over the cycle {certificate!r} is {total}",
            certificate=certificate)

    values: dict = {}
    for j, e in enumerate(complex_.one_cell_names):
        end, start, _w = arcs[j]
        dist = co._distances(n, arcs, (end,))
        if dist is None or dist[start] is None:
            raise InvariantViolation(
                f"value on {e!r} is unbounded below despite the cellwise bound")
        low = Fraction(z.get(e, 0)) - Fraction(dist[start], scale)
        if low.denominator != 1:
            raise NonIntegralClassError(
                f"least value on {e!r} is the fraction {low}; "
                f"the class has no integral representative of this shape")
        arcs += [(end, start, dist[start]), (start, end, -dist[start])]
        values[e] = int(low)
    return {e: v for e, v in values.items() if v != 0}
