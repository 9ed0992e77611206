"""First (co)homology of a trapezoid complex and its positivity calculus.

Chains and cochains are sparse ``dict[str, value]`` maps keyed by cell name;
values are integers or :class:`~fractions.Fraction`.  All computations are
exact.  Every boundary read goes through the complex's cached
:class:`~freebycyclic.torus.Skeleton`: chains and cochains are read
through it, which refuses a cell the complex does not have, and the dense
matrices the Smith factorisations need are built from its rows where they
are used.  The cocycle check and the cocycle solve scale a cochain to ints
by its common denominator; weights, distances and least values stay ints
and turn into Fractions only in error texts.  The module provides:

* :func:`h1` — rank, torsion, an integral cycle basis, and a dual cocycle
  basis of the first homology;
* :func:`dual_basis` — cocycles dual to user-supplied cycles;
* :func:`integral_cocycle` — the lexicographically least integral
  representative bounded below cellwise, found by shortest paths on the
  1-skeleton contracted along the cells already fixed in the skeleton's
  tie order, or a certifying cycle on which no representative clears the
  bound; the negative-cycle search runs only when a solve fails;
* :func:`least_representatives` — the same for every integer combination
  of a basis, each formed on the basis's one common denominator;
* :class:`LeastCocycle` — their read-only result, which carries its values
  in 1-cell order, so :func:`zero_cycle` and ``section.crossing_rank``
  read it without re-checking it;
* :func:`zero_cycle` / :func:`require_open_cone` — a directed cycle on
  which a nonnegative cocycle vanishes, or None when its class lies in the
  open positive cone; every cone verdict of the package is read this way
  off the least representative at least 0;
* :func:`fiber_cocycle` / :func:`line_family_cocycle` — crossing data of
  the level circle near height zero and of its spun relatives;
* :func:`delta_lengths` — exact volume-preserving length perturbation
  supported on turns at trivalent vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    ConeInfeasibleError,
    InvariantViolation,
    NonIntegralClassError,
    NotACycleError,
    TurnDataError,
)
from .graphs import Graph, GraphMap, fundamental_group_map, spanning_tree
from .linalg import smith_normal_form
from .torus import Skeleton, TrapComplex, skew_loop
from .words import letters

#: Sparse (co)chain: cell name to coefficient; absent cells carry zero.
Chain = dict


# ---------------------------------------------------------------------------
# boundary maps, read from the cached skeleton


def _dense(sparse: Iterable[Iterable[tuple[int, int]]], width: int
           ) -> list[list[int]]:
    """One row of ``width`` ints per row of (index, coefficient) pairs."""
    out = []
    for pairs in sparse:
        row = [0] * width
        for i, coef in pairs:
            row[i] += coef
        out.append(row)
    return out


def _d2_transposed(skeleton: Skeleton) -> list[list[int]]:
    """The boundary of each 2-cell as one dense row over the 1-cells."""
    return _dense(skeleton.rows, len(skeleton.one_cell_names))


def boundary(complex_: TrapComplex, chain: Mapping) -> Chain:
    """Boundary of a 1-chain as a sparse 0-chain, in 0-cell order."""
    skeleton = complex_.skeleton
    out = [0] * len(complex_.zero_cells)
    for coef, (end, start) in zip(skeleton.cochain(chain), skeleton.ends):
        out[end] += coef
        out[start] -= coef
    return {c.name: x for c, x in zip(complex_.zero_cells, out) if x != 0}


def _scaled(values: Sequence) -> tuple[int, list[int]]:
    """``(L, [L·v for v in values])`` for ``L`` the common denominator of
    the values (ints or Fractions)."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _closed(skeleton: Skeleton, values: Sequence) -> bool:
    """Whether the cochain with these values, in 1-cell order, vanishes on
    the boundary of every 2-cell."""
    return not any(sum(values[e] * coef for e, coef in row)
                   for row in skeleton.rows)


def is_cocycle(complex_: TrapComplex, z: Mapping) -> bool:
    """Whether ``z`` vanishes on the boundary of every 2-cell."""
    skeleton = complex_.skeleton
    return _closed(skeleton, _scaled(skeleton.cochain(z))[1])


def _scaled_cocycles(complex_: TrapComplex, basis: Sequence[Mapping]
                     ) -> tuple[int, list[list[int]]]:
    """The scale ``L`` of :func:`_scaled` over all the cochains of
    ``basis`` and, for each, the ints ``L·z(e)`` in 1-cell order; raises
    unless each is a cocycle."""
    skeleton = complex_.skeleton
    width = len(skeleton.one_cell_names)
    scale, flat = _scaled([x for z in basis for x in skeleton.cochain(z)])
    rows = [flat[i:i + width] for i in range(0, len(flat), width)]
    if not all(_closed(skeleton, row) for row in rows):
        raise InvariantViolation("cochain is not a cocycle")
    return scale, rows


def evaluate(complex_: TrapComplex, z: Mapping, chain: Mapping) -> Fraction:
    """Pairing of a cocycle with a 1-cycle.

    The chain must be a cycle (else the value would depend on the chosen
    cochain representative) and ``z`` must be a cocycle (else it would
    depend on the chosen cycle representative).
    """
    if not is_cocycle(complex_, z):
        raise InvariantViolation("cochain is not a cocycle")
    bad = boundary(complex_, chain)
    if bad:
        raise NotACycleError(f"chain has nonzero boundary {bad!r}")
    return sum((Fraction(z.get(e, 0)) * coef for e, coef in chain.items()),
               Fraction(0))


# ---------------------------------------------------------------------------
# first homology


@dataclass
class H1Data:
    """Free rank, torsion divisors, integral cycle basis, and dual cocycles.

    ``duals[i]`` pairs to 1 with ``cycles[i]`` and to 0 with the others.
    When some basis class evaluates to 1 on the loop formed by the skew
    1-cells, that class is placed last.
    """

    rank: int
    torsion: tuple[int, ...]
    cycles: tuple[Chain, ...]
    duals: tuple[Chain, ...]


def _dual_cocycles(skeleton: Skeleton, cycles: Sequence[Mapping]
                   ) -> tuple[Chain, ...]:
    """Cocycles pairing as the identity matrix with ``cycles``.

    One factorisation of the system "is a cocycle" (one row per 2-cell)
    plus one pairing row per cycle answers every right-hand side; the
    solution is integral whenever an integral one exists.
    """
    rows = _d2_transposed(skeleton)
    n2 = len(rows)
    rows += [skeleton.cochain(cyc) for cyc in cycles]
    snf = smith_normal_form(rows)
    duals = []
    for which in range(len(cycles)):
        rhs = [0] * n2 + [int(i == which) for i in range(len(cycles))]
        sol = snf.solve(rhs)
        if sol is None:
            raise InvariantViolation("cycles do not admit a dual cocycle basis")
        duals.append({e: x for e, x in zip(skeleton.one_cell_names, sol)
                      if x != 0})
    return tuple(duals)


def h1(complex_: TrapComplex) -> H1Data:
    """First homology from the Smith normal form of the boundary pair.

    With U·d1·V = D of rank r, the columns r… of V are a basis of the
    1-cycles and the rows r… of V⁻¹ give coordinates in it.  The relation
    matrix holds those coordinates of the 2-cell boundaries; with
    U'·Y·V' = D' of rank r', the columns r'… of U'⁻¹ are the kernel
    coordinates of free generators of H1.
    """
    skeleton = complex_.skeleton
    n1 = len(skeleton.one_cell_names)
    d1_transposed = _dense((((end, 1), (start, -1))
                            for end, start in skeleton.ends),
                           len(complex_.zero_cells))
    cycle_snf = smith_normal_form(list(zip(*d1_transposed)))
    r = cycle_snf.rank
    relations = [[sum(row[e] * c for e, c in pairs) for pairs in skeleton.rows]
                 for row in cycle_snf.v_inv]
    if any(x for row in relations[:r] for x in row):
        raise InvariantViolation("2-cell boundary is not a cycle")
    relation_snf = smith_normal_form(relations[r:])
    rel_rank = relation_snf.rank
    torsion = tuple(d for d in relation_snf.diagonal[:rel_rank] if d > 1)

    cycles: list[Chain] = []
    for j in range(rel_rank, n1 - r):
        coords = [row[j] for row in relation_snf.u_inv]
        vec = [sum(x * c for x, c in zip(row[r:], coords))
               for row in cycle_snf.v]
        cycles.append({e: x for e, x in zip(skeleton.one_cell_names, vec)
                       if x != 0})
    duals = list(_dual_cocycles(skeleton, cycles))

    try:
        loop = skew_loop(complex_)
    except NotACycleError:
        loop = None
    if loop is not None:
        for i in range(len(duals)):
            pairing = sum(Fraction(duals[i].get(e, 0)) * c
                          for e, c in loop.items())
            if pairing == 1 and i != len(duals) - 1:
                cycles.append(cycles.pop(i))
                duals.append(duals.pop(i))
                break

    return H1Data(len(cycles), torsion, tuple(cycles), tuple(duals))


def dual_basis(complex_: TrapComplex, cycles: Sequence[Mapping]
               ) -> tuple[Chain, ...]:
    """Cocycles pairing as the identity matrix with the given cycles.

    Each input must be a cycle and the family must be independent in
    rational homology and of full rank there.
    """
    for cyc in cycles:
        bad = boundary(complex_, cyc)
        if bad:
            raise NotACycleError(f"chain has nonzero boundary {bad!r}")
    return _dual_cocycles(complex_.skeleton, cycles)


def cycle_coordinates(complex_: TrapComplex, chain: Mapping,
                      cycles: Sequence[Mapping], duals: Sequence[Mapping]
                      ) -> tuple[Fraction, ...]:
    """Coordinates of a cycle in a homology basis, verified exactly.

    The coordinates are read off with the dual cocycles; the difference
    between the chain and the coordinate combination of basis cycles is
    then checked to bound a rational 2-chain.
    """
    coords = tuple(evaluate(complex_, z, chain) for z in duals)
    skeleton = complex_.skeleton
    diff = dict(chain)
    for coef, cyc in zip(coords, cycles):
        for e, c in cyc.items():
            diff[e] = diff.get(e, 0) - coef * c
    # scaled to ints by their common denominator: solvable over Q alike
    rhs = _scaled(skeleton.cochain(diff))[1]
    if any(rhs) and smith_normal_form(
            list(zip(*_d2_transposed(skeleton)))).solve(rhs) is None:
        raise InvariantViolation(
            "cycle is not the coordinate combination of the basis "
            "modulo boundaries")
    return coords


# ---------------------------------------------------------------------------
# difference constraints on the 1-skeleton
#
# The bound z(e) + φ(end) − φ(start) >= m on the value of a shifted cochain
# on a 1-cell e is the difference constraint φ(start) − φ(end) <= z(e) − m:
# an arc end -> start of weight z(e) − m.  The bounds on all 1-cells hold for
# some potential φ exactly when the digraph has no negative cycle, and
# shortest-path distances are then such a φ (CLRS §24.4).  A negative cycle,
# read as the sum of its 1-cells, is a nonnegative 1-cycle certifying that
# the bounds cannot all hold.
#
# Every weight is multiplied by one positive integer ``scale`` clearing the
# denominators of z and m, so the shortest-path code adds and compares only
# ints.  Scaling by a positive constant keeps every comparison, so the
# shortest distances are ``scale`` times the rational ones and the negative
# cycles and their tie-break are unchanged.  The scaled values of z and the
# least values stay ints too; they turn into Fractions only in error texts.
#
# Fixing a cell's value ties φ(start) − φ(end).  Tied 0-cells share a root
# and keep φ as an offset from it; the arcs left join distinct roots, their
# weights shifted by offset(tail) − offset(head).  Which 1-cells tie two
# roots, which arcs are still live at each tie and which arcs a tie shifts
# depend on the ends alone: the skeleton's tie order (``Skeleton.ties``),
# built once per complex and shared by every class.
#
# The kernel does not search the digraph for a negative cycle before it
# solves.  A result that is integral and at least m on every 1-cell is a
# feasible representative, so no negative cycle exists.  Only a failure —
# a solve that reaches a negative cycle or misses its head, or a value that
# is fractional or below m — runs the all-source search: a negative cycle
# raises ConeInfeasibleError with its certificate, and otherwise the
# kernel's own failure stands.  Error, message and certificate are thus
# those of searching first.

Arc = tuple[int, int, int]  # (tail, head, scaled weight) on 0-cell indices


def _constraint_digraph(skeleton: Skeleton, scaled: Sequence[int],
                        offset: int) -> list[Arc]:
    """One arc ``end -> start`` per 1-cell, in 1-cell order, of weight
    ``scaled[e] − offset``: the ints ``scale·z(e)`` and ``scale·m``."""
    return [(end, start, value - offset)
            for (end, start), value in zip(skeleton.ends, scaled)]


def _distances(n: int, arcs: Sequence[Arc], sources: Iterable[int]
               ) -> Optional[list[Optional[int]]]:
    """Least weight of a walk from some source to each of the ``n`` 0-cells
    (Bellman–Ford), None where unreachable; None in place of the list when
    a negative cycle is reachable."""
    dist: list[Optional[int]] = [None] * n
    for s in sources:
        dist[s] = 0
    for _ in range(n):
        changed = False
        for tail, head, w in arcs:
            if dist[tail] is not None and (dist[head] is None
                                           or dist[tail] + w < dist[head]):
                dist[head] = dist[tail] + w
                changed = True
        if not changed:
            return dist
    return None


def _least_negative_cycle(n: int, arcs: Sequence[Arc]) -> tuple[int, ...]:
    """Arc indices, ascending, of the negative cycle with the fewest arcs.

    Ties go to the least ascending tuple of arc indices.  A shortest
    negative closed walk is a simple cycle: at a repeated vertex it splits
    into two shorter closed walks, one of them negative.  ``to[s][k][v]`` is
    the least weight of a ``k``-arc walk from ``v`` to ``s``; the first
    ``k`` with some ``to[s][k][s] < 0`` is the least cycle length, and a
    depth-first search pruned by these layers lists the negative cycles of
    that length through each such ``s``.
    """
    leaving: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for j, (tail, head, w) in enumerate(arcs):
        leaving[tail].append((j, head, w))
    to = [[[0 if v == s else None for v in range(n)]]
          for s in range(n)]
    for k in range(1, n + 1):
        for layers in to:
            prev, layer = layers[-1], [None] * n
            for tail, head, w in arcs:
                if prev[head] is not None and (layer[tail] is None
                                               or w + prev[head] < layer[tail]):
                    layer[tail] = w + prev[head]
            layers.append(layer)
        anchors = [s for s in range(n)
                   if to[s][k][s] is not None and to[s][k][s] < 0]
        if not anchors:
            continue
        found: list[tuple[int, ...]] = []

        def extend(s: int, v: int, left: int, weight: int,
                   path: tuple[int, ...]) -> None:
            if left == 0:  # the layers only lead back to s
                found.append(tuple(sorted(path)))
                return
            for j, head, w in leaving[v]:
                rest = to[s][left - 1][head]
                if rest is not None and weight + w + rest < 0:
                    extend(s, head, left - 1, weight + w, path + (j,))

        for s in anchors:
            extend(s, s, k, 0, ())
        return min(found)
    raise InvariantViolation("constraint digraph has no negative cycle")


# ---------------------------------------------------------------------------
# least representatives and the positive cone


def dict_sum(*chains: Mapping) -> Chain:
    out: Chain = {}
    for ch in chains:
        for e, c in ch.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def dict_scale(scalar, chain: Mapping) -> Chain:
    return {e: scalar * c for e, c in chain.items() if scalar * c != 0}


class LeastCocycle(dict):
    """A least integral representative, as :func:`integral_cocycle` and
    :func:`least_representatives` return it: the nonzero values by 1-cell
    name, read-only, with :attr:`vector`, every value in 1-cell order, and
    the :attr:`skeleton` whose order that is.  Copies are plain dicts."""

    __slots__ = ("skeleton", "vector")

    def __init__(self, skeleton: Skeleton, vector: tuple[int, ...]):
        super().__init__((e, x) for e, x in zip(skeleton.one_cell_names,
                                                vector) if x)
        self.skeleton, self.vector = skeleton, vector

    def _read_only(self, *args, **kwargs):
        raise TypeError("a least representative is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce_ex__(self, protocol):
        return dict, (dict(self),)


def cochain_vector(complex_: TrapComplex, z: Mapping) -> Sequence:
    """The values of ``z`` in 1-cell order: the vector of a
    :class:`LeastCocycle` of the complex's skeleton as it stands, any other
    mapping read through the skeleton."""
    if isinstance(z, LeastCocycle) and z.skeleton is complex_.skeleton:
        return z.vector
    return complex_.skeleton.cochain(z)


def _least_vector(skeleton: Skeleton, n: int, scaled: Sequence[int],
                  scale: int, minimum: int) -> tuple[int, ...]:
    """The kernel of :func:`integral_cocycle` on the ints ``scaled`` and
    their ``scale``, one 1-cell at a time along the skeleton's tie order;
    raises at the first 1-cell whose solve or value fails.

    ``reduced[k]`` is the weight of arc ``k`` shifted by the offsets of
    its two ends from their roots; a tie moves the head's class by the
    distance solved, which shifts the arcs leaving or entering it.
    """
    low = scale * minimum
    reduced = [value - low for value in scaled]
    out = []
    for j, (e, tie) in enumerate(zip(skeleton.one_cell_names,
                                     skeleton.ties)):
        if tie is not None:
            tail, head, live, raised, lowered = tie
            dist = _distances(n, [(rt, rh, reduced[k]) for k, rt, rh in live],
                              (tail,))
            if dist is None or dist[head] is None:
                raise InvariantViolation(
                    f"value on {e!r} is unbounded below despite the "
                    f"cellwise bound")
            shift = dist[head]
            for k in raised:
                reduced[k] += shift
            for k in lowered:
                reduced[k] -= shift
        least, rest = divmod(reduced[j] + low, scale)
        if rest:
            raise NonIntegralClassError(
                f"least value on {e!r} is the fraction "
                f"{Fraction(reduced[j] + low, scale)}; "
                f"the class has no integral representative of this shape")
        if least < minimum:
            raise InvariantViolation(
                f"least value {least} on {e!r} is below the bound {minimum}")
        out.append(least)
    return tuple(out)


def _least(complex_: TrapComplex, scaled: Sequence[int], scale: int,
           minimum: int) -> LeastCocycle:
    """The least representative of the cocycle ``scaled / scale``.

    A vector the kernel returns is integral and at least ``minimum`` on
    every 1-cell, so it is a feasible representative and the constraint
    digraph has no negative cycle.  Only when the kernel fails is that
    digraph searched from every 0-cell: a negative cycle raises
    :class:`ConeInfeasibleError`, else the kernel's failure stands.
    """
    skeleton = complex_.skeleton
    n = len(complex_.zero_cells)
    try:
        return LeastCocycle(skeleton, _least_vector(skeleton, n, scaled,
                                                    scale, minimum))
    except InvariantViolation as exc:  # NonIntegralClassError among them
        failure = exc
    arcs = _constraint_digraph(skeleton, scaled, scale * minimum)
    if _distances(n, arcs, range(n)) is None:
        cycle = _least_negative_cycle(n, arcs)
        certificate: Chain = {skeleton.one_cell_names[j]: 1 for j in cycle}
        total = sum(Fraction(scaled[j], scale) - minimum for j in cycle)
        if boundary(complex_, certificate) or total >= 0:
            raise InvariantViolation(
                "infeasibility certificate failed verification")
        raise ConeInfeasibleError(
            f"no representative is at least {minimum} on every 1-cell: "
            f"Σ(z(e) − {minimum}) over the cycle {certificate!r} is {total}",
            certificate=certificate)
    raise failure


def integral_cocycle(complex_: TrapComplex, z: Mapping,
                     minimum: int = 0) -> LeastCocycle:
    """Least integral representative of the class of ``z``, cellwise.

    Cell values are minimized one at a time in the 1-cell order subject to
    every value staying at least ``minimum``, each minimum being fixed
    before the next cell is considered.  In the constraint digraph the
    least value on ``e`` is ``z(e) − dist(end → start)``, and fixing it ties
    ``end`` to ``start``: it is read off their offsets when they are tied
    already, else solved on the digraph contracted to the roots, which
    then merge, so at most n₀ − 1 solves run, in the skeleton's tie order.
    The digraph carries the integer weights ``L·(z(e) − minimum)`` for
    ``L`` the common denominator of ``z``, so ``dist`` is read as ``d / L``
    for an integer distance ``d``.

    Raises :class:`ConeInfeasibleError` when no representative clears the
    bound, carrying the cycle of 1-cells, each with coefficient 1, with
    ``sum(z(e) − minimum) < 0`` that has the fewest 1-cells; ties go to
    the least ascending tuple of 1-cell indices in ``one_cell_names``
    order; it is checked for zero boundary and a negative sum first.
    Raises :class:`NonIntegralClassError` when a minimized value is
    fractional — the result is never rounded.
    """
    scale, (scaled,) = _scaled_cocycles(complex_, [z])
    return _least(complex_, scaled, scale, minimum)


def least_representatives(complex_: TrapComplex, basis: Sequence[Mapping],
                          coefficients: Iterable[Sequence[int]]
                          ) -> list[LeastCocycle]:
    """:func:`integral_cocycle` of ``Σ c[i]·basis[i]``, at least 0 on every
    1-cell, for each tuple ``c`` of integer coefficients, in order.

    The basis cochains are put on one common denominator and checked to be
    cocycles once, so every integer combination is one, formed as ints on
    that denominator.  The first class that fails raises exactly what
    :func:`integral_cocycle` raises on it.
    """
    scale, rows = _scaled_cocycles(complex_, basis)
    width = len(complex_.skeleton.one_cell_names)
    out = []
    for coefs in coefficients:
        scaled = [0] * width
        for c, row in zip(coefs, rows):
            if c:
                scaled = [x + c * y for x, y in zip(scaled, row)]
        out.append(_least(complex_, scaled, scale, 0))
    return out


def zero_cycle(complex_: TrapComplex, z: Mapping) -> Optional[Chain]:
    """A directed cycle of 1-cells, each with coefficient 1, on which the
    cocycle ``z`` ≥ 0 vanishes, found by depth-first search; None exactly
    when the class of ``z`` pairs positively with every directed cycle,
    that is, lies in the open positive cone."""
    skeleton = complex_.skeleton
    names, values = skeleton.one_cell_names, cochain_vector(complex_, z)
    leaving: list[list[tuple[int, int]]] = [[] for _ in complex_.zero_cells]
    for j, (value, (end, start)) in enumerate(zip(values, skeleton.ends)):
        if value < 0:
            raise InvariantViolation(
                f"value {value} on {names[j]!r} is negative; a zero cycle "
                f"needs a cochain at least 0 on every 1-cell")
        if not value:
            leaving[start].append((j, end))
    state = [0] * len(leaving)  # unseen, on the path, done
    for first, out in enumerate(leaving):
        if state[first]:
            continue
        state[first] = 1
        path, taken = [(first, iter(out))], []
        while path:
            for j, head in path[-1][1]:
                if state[head] == 1:
                    arcs = taken[[v for v, _out in path].index(head):] + [j]
                    cycle = {names[i]: 1 for i in arcs}
                    if boundary(complex_, cycle) or sum(values[i]
                                                        for i in arcs):
                        raise InvariantViolation(
                            "zero cycle failed verification")
                    return cycle
                if not state[head]:
                    state[head] = 1
                    path.append((head, iter(leaving[head])))
                    taken.append(j)
                    break
            else:
                state[path.pop()[0]] = 2
                del taken[len(path) - 1:]
    return None


def require_open_cone(complex_: TrapComplex, z: Mapping) -> None:
    """Raise :class:`ConeInfeasibleError` carrying the :func:`zero_cycle`
    of the cocycle ``z`` ≥ 0 when it has one: the class of ``z`` then lies
    outside the open positive cone."""
    cycle = zero_cycle(complex_, z)
    if cycle is not None:
        raise ConeInfeasibleError(
            f"class is outside the open positive cone: it pairs to 0 with "
            f"the directed cycle {cycle!r}", certificate=cycle)


# ---------------------------------------------------------------------------
# geometric cocycles of the level circle


def fiber_cocycle(complex_: TrapComplex) -> Chain:
    """Crossing counts of the level circle just above the base graph.

    The circle crosses exactly the verticals based at height zero and the
    skew 1-cell spanning the first height window.
    """
    z: Chain = {}
    for vert in complex_.verticals:
        if complex_.cell_by_name[vert.start].stage == 0:
            z[vert.name] = 1
    for skew in complex_.skews:
        if skew.kind == "strict" and skew.index == 1:
            z[skew.name] = 1
    if not is_cocycle(complex_, z):
        raise InvariantViolation("level-circle crossing data is not a cocycle")
    return z


def line_family_cocycle(complex_: TrapComplex, k: int) -> Chain:
    """Crossing data of the level circle spun ``k`` times.

    The spun copy adds, per turn of spinning, one crossing on the vertical
    that continues the flow out of the first skew's bottom vertical and one
    on the vertical flowing into that skew's bottom 0-cell.
    """
    if k < 0:
        raise InvariantViolation("spinning count must be nonnegative")
    z = dict(fiber_cocycle(complex_))
    if k:
        first = min(s.name for s in complex_.skews)
        bottom = complex_.skew_by_name[first].bottom
        at_bottom = complex_.vertical_from[bottom]
        succ = complex_.vertical_from[at_bottom.end]
        into = [v for v in complex_.verticals if v.end == bottom]
        if len(into) != 1:
            raise InvariantViolation(
                "spinning needs a unique vertical flowing into the first "
                "skew's bottom 0-cell")
        for name in (succ.name, into[0].name):
            z[name] = z.get(name, 0) + k
    if not is_cocycle(complex_, z) or any(v < 0 for v in z.values()):
        raise InvariantViolation("spun crossing data failed verification")
    return z


# ---------------------------------------------------------------------------
# length perturbation along turns


def delta_lengths(graph: Graph, lengths: Mapping[str, float],
                  turns: Sequence[frozenset], weights: Sequence[Fraction]
                  ) -> dict[str, float]:
    """Volume-preserving length change supported near chosen turns.

    Each turn must sit at its own trivalent vertex and must not consist of
    the two ends of a single loop.  Per turn the two turn edges lose and
    the remaining edge gains, loops are left untouched, and the result is
    rescaled to total length one; the total weight must stay below one.
    """
    if len(turns) != len(weights):
        raise TurnDataError("one weight is needed per turn")
    total = sum(Fraction(w) for w in weights)
    if total >= 1:
        raise TurnDataError("total perturbation weight must be below one")
    is_loop = {name: init == term for name, init, term in graph.edges}
    seen_vertices = set()
    deltas: list[dict[str, int]] = []
    for turn in turns:
        if len(turn) != 2:
            raise TurnDataError("a turn is a pair of distinct directions")
        d1, d2 = sorted(turn)
        if d1[0] == d2[0]:
            raise TurnDataError(
                f"turn at edge {d1[0]!r} uses both ends of one loop")
        v = graph.init_of(d1)
        if graph.init_of(d2) != v:
            raise TurnDataError("turn directions are based at different vertices")
        if v in seen_vertices:
            raise TurnDataError(f"vertex {v!r} carries more than one turn")
        seen_vertices.add(v)
        dirs = graph.directions(v)
        if len(dirs) != 3:
            raise TurnDataError(f"vertex {v!r} is not trivalent")
        if d1 not in dirs or d2 not in dirs:
            raise TurnDataError(f"turn directions are not based at {v!r}")
        (third,) = [d for d in dirs if d not in (d1, d2)]
        delta: dict[str, int] = {}
        for direction, change in ((d1, -1), (d2, -1), (third, 1)):
            name = direction[0]
            delta[name] = 0 if is_loop[name] else change
        if sum(delta.values()) != -1:
            raise InvariantViolation("length change does not sum to minus one")
        deltas.append(delta)
    shrink = 1 - total
    out = {}
    for name in graph.edge_names:
        moved = Fraction(lengths[name]) + sum(
            w * delta.get(name, 0) for w, delta in zip(weights, deltas))
        out[name] = float(moved / shrink)
    return out


# ---------------------------------------------------------------------------
# abelianized rank oracle


def mapping_torus_h1_rank(f: GraphMap) -> int:
    """Abelianization rank of the group presented by the map and a stable letter.

    That is 1 + n - rank(A - I), where row i of A counts the signed letters
    of the image of generator i of the map read on π₁.
    """
    if not f.is_self_map:
        raise InvariantViolation("homology action needs a self map")
    fmap = fundamental_group_map(f, spanning_tree(f.domain))
    n = len(fmap.domain)
    index = {name: i for i, name in enumerate(fmap.domain)}
    shifted = []
    for i, image in enumerate(fmap.images):
        row = [-1 if j == i else 0 for j in range(n)]
        for name, sign in letters(image):
            row[index[name]] += sign
        shifted.append(row)
    rank = smith_normal_form(shifted).rank if n else 0
    return 1 + n - rank
