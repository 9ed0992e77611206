"""Sections of a trapezoid complex transverse to the vertical semiflow.

A nonnegative integral cocycle assigns every 1-cell a crossing count.  The
level set of the induced circle-valued height map at a generic phase is an
embedded graph: one vertex per crossing of a 1-cell, one edge per level
arc inside a trapezoid, plus extra valence-two vertices where the forward
semiflow of a crossing lands in the interior of an arc, so that flowing by
one full height unit sends vertices to vertices.  The first return of the
semiflow then induces a graph self-map whose outer class is the monodromy
of the complex read along the chosen class.

Every position and height of a section is an integer numerator over one
lattice denominator, fixed when the section is built; ``Fraction`` appears
only in the phase, in error texts and in the cells of the torus.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Mapping, Optional, Sequence

from .cohomology import (cochain_vector, is_cocycle, line_family_cocycle,
                         require_open_cone)
from .errors import (
    ConeInfeasibleError,
    DegeneratePhaseError,
    DisconnectedGraphError,
    InvariantViolation,
    IterationBudgetError,
    NonIntegralClassError,
)
from .graphs import Graph, GraphMap, components, fundamental_group_map, \
    spanning_tree
from .torus import TrapComplex
from .traintrack import illegal_turns
from .words import FreeGroupMap, Word, encode, inverse, letters


# ---------------------------------------------------------------------------
# height charts on the section lattice


def _exact(num: int, den: int, trap: str) -> int:
    """``num / den``, which the section lattice makes an integer."""
    quotient, rest = divmod(num, den)
    if rest:
        raise InvariantViolation(
            f"a point of {trap} leaves the section lattice: {num}/{den} "
            "is not an integer")
    return quotient


def _on_lattice(x: Fraction, lattice: int, trap: str) -> int:
    """The numerator of ``x`` over the lattice denominator."""
    return _exact(x.numerator * lattice, x.denominator, trap)


def _lattice(complex_: TrapComplex, z: Mapping, phase: Fraction) -> int:
    """The one denominator every coordinate of the section lives over.

    With q the phase's denominator, levels sit at multiples of 1/q.  The
    bottom of a trapezoid, a skew s, meets a level and starts the flow of a
    crossing at a multiple of 1/(q·z(s)); a top piece of width 1/N that
    rises by r meets a level at a multiple of 1/(N·q·|r|).  Carrying a
    point through a top piece only multiplies its offset by N, so the
    forward flow never leaves the lattice of the least common multiple.
    """
    q = phase.denominator
    lattice = q
    for trap in complex_.trapezoids:
        for piece in trap.top:
            n = (piece.x_hi - piece.x_lo).denominator
            lattice = lcm(lattice, q * n * (z.get(piece.skew, 0) or 1))
    for skew in complex_.skews:
        lattice = lcm(lattice, q * (z.get(skew.name, 0) or 1))
    return lattice


@dataclass
class TopGeom:
    """One top piece of a trapezoid on the section lattice.

    The piece covers ``[x_lo, x_hi]`` of the top edge, a width of 1/n, and
    maps onto the whole skew cell, forward when ``sign`` is positive and
    backward when negative.  Positions and heights are numerators over the
    lattice denominator: the height is ``h_lo`` at ``x_lo`` and changes by
    ``slope`` per lattice step, reaching ``h_hi`` at ``x_hi``.
    """

    skew: str
    sign: int
    n: int
    x_lo: int
    x_hi: int
    h_lo: int
    h_hi: int
    slope: int

    def height_at(self, x: int) -> int:
        return self.h_lo + self.slope * (x - self.x_lo)

    def skew_position(self, x: int) -> int:
        if self.sign > 0:
            return (x - self.x_lo) * self.n
        return (self.x_hi - x) * self.n


@dataclass
class HeightChart:
    """Corner heights of one trapezoid under a cocycle.

    The bottom-left corner sits at height zero; the bottom edge rises by
    the bottom skew's count, the side cells stack their counts, and each
    top piece rises or falls by the full count of its skew cell.  Positions
    across the trapezoid, top heights and levels are numerators over the
    section lattice, so the height of the bottom at x is
    ``bottom_rise * x``; the side spans and ``max_height`` are in whole
    height units.
    """

    trap: str
    bottom: str
    bottom_rise: int
    left: tuple[tuple[str, int, int], ...]
    right: tuple[tuple[str, int, int], ...]
    top: tuple[TopGeom, ...]
    corners: dict[int, str]
    max_height: int

    def top_height(self, x: int) -> int:
        for piece in self.top:
            if piece.x_lo <= x <= piece.x_hi:
                return piece.height_at(x)
        raise InvariantViolation(
            f"lattice point {x} outside the top of {self.trap}"
        )  # pragma: no cover

    def piece_at(self, x: int) -> Optional[TopGeom]:
        """The top piece with ``x`` strictly inside it, or None at a corner."""
        for piece in self.top:
            if piece.x_lo < x < piece.x_hi:
                return piece
        return None

    def runs(self, y: int, lo: int, hi: int
             ) -> list[tuple[int, int, Optional[TopGeom]]]:
        """Cut ``[lo, hi]`` where the level ``y`` meets the top.

        Maximal runs below the top are tagged None; a run at or above it is
        tagged with the top piece it leaves through, one run per piece.
        """
        cuts = {lo, hi}
        for piece in self.top:
            for x in (piece.x_lo, piece.x_hi):
                if lo < x < hi:
                    cuts.add(x)
            if min(piece.h_lo, piece.h_hi) < y < max(piece.h_lo, piece.h_hi):
                x = piece.x_lo + _exact(y - piece.h_lo, piece.slope,
                                        self.trap)
                if lo < x < hi:
                    cuts.add(x)
        xs = sorted(cuts)
        out: list[tuple[int, int, Optional[TopGeom]]] = []
        pieces = iter(self.top)
        piece = next(pieces)
        for a, b in zip(xs, xs[1:]):
            while piece.x_hi <= a:
                piece = next(pieces)
            # the level does not cross the top inside (a, b); compare the
            # two at the midpoint, doubled to stay on the lattice
            if 2 * piece.h_lo + piece.slope * (a + b - 2 * piece.x_lo) \
                    <= 2 * y:
                out.append((a, b, piece))
            elif out and out[-1][2] is None:
                out[-1] = (out[-1][0], b, None)
            else:
                out.append((a, b, None))
        return out


def _stack(cells: Sequence[str], z: Mapping, offset: int
           ) -> tuple[tuple[tuple[str, int, int], ...], int]:
    spans = []
    h = offset
    for cell in cells:
        rise = int(z.get(cell, 0))
        spans.append((cell, h, h + rise))
        h += rise
    return tuple(spans), h


def build_charts(complex_: TrapComplex, z: Mapping, lattice: int
                 ) -> dict[str, HeightChart]:
    charts = {}
    for trap in complex_.trapezoids:
        bottom_rise = int(z.get(trap.bottom, 0))
        left, tl = _stack(trap.left, z, 0)
        right, tr = _stack(trap.right, z, bottom_rise)
        pieces = []
        h = tl
        for piece in trap.top:
            rise = piece.sign * int(z.get(piece.skew, 0))
            x_lo = _on_lattice(piece.x_lo, lattice, trap.name)
            x_hi = _on_lattice(piece.x_hi, lattice, trap.name)
            n = _exact(lattice, x_hi - x_lo, trap.name)
            pieces.append(TopGeom(piece.skew, piece.sign, n, x_lo, x_hi,
                                  h * lattice, (h + rise) * lattice,
                                  rise * n))
            h += rise
        if h != tr:
            raise InvariantViolation(
                f"height chart of {trap.name} does not close up")
        corners = {_on_lattice(x, lattice, trap.name): cell
                   for x, cell in trap.corners}
        heights = [tl, tr, bottom_rise] + [p.h_hi // lattice for p in pieces]
        charts[trap.name] = HeightChart(
            trap.name, trap.bottom, bottom_rise, left, right, tuple(pieces),
            corners, max(heights))
    return charts


# ---------------------------------------------------------------------------
# section graphs


@dataclass
class SectionGraph:
    """The level-set graph of an integral cocycle at a generic phase.

    Positions are integer numerators over ``lattice``.  ``stations`` is the
    one record of each edge's geometry: it sends (trapezoid, level, x_lo)
    to the edge's name and x_hi, arc by arc from left to right; the edge's
    ends are its ``graph.edges`` triple.  A vertex host is ("cell", cell,
    index) for the index-th crossing of a 1-cell, or ("interior", trapezoid,
    level, x) for a flow landing inside a level arc.
    """

    complex: TrapComplex
    cocycle: dict[str, int]
    phase: Fraction
    lattice: int
    graph: Graph
    charts: dict[str, HeightChart]
    vertex_host: dict[str, tuple]
    vertex_return: dict[str, str]
    stations: dict[tuple[str, int, int], tuple[str, int]]
    components: tuple[tuple[str, ...], ...]
    basepoint: Optional[str]


def _crossing_name(cell: str, index: int) -> str:
    return f"{cell}#{index}"


# caps the steps of one point flow and the iterations of the vertex flow
# closure in build_section; read at call time
_FLOW_BUDGET = 100_000


@dataclass
class _Level:
    """The crossing grid and the exact forward semiflow of the level sets
    of one cocycle at one phase, on the section lattice.

    Positions and heights are numerators over ``lattice``; ``offset`` is
    the phase's.  ``_FLOW_BUDGET`` caps the steps of one point flow
    (``vertex_step``); the segment flow (``flow_segment``) makes none, and
    cuts each (trapezoid, height) it meets once, across the whole top.
    """

    complex: TrapComplex
    charts: dict[str, HeightChart]
    z: Mapping
    phase: Fraction
    lattice: int

    def __post_init__(self):
        self.offset = self.phase.numerator * self.lattice \
            // self.phase.denominator
        self._runs: dict[tuple[str, int], tuple[list[int], list]] = {}

    def level_of(self, y: int) -> Optional[int]:
        """The level whose height is ``y``, or None between levels."""
        level, rest = divmod(y - self.offset, self.lattice)
        return None if rest else level

    def crossing(self, cell: str, local: int) -> str:
        """The crossing of ``cell`` at height ``local`` above its start."""
        index = self.level_of(local)
        if index is None:
            raise DegeneratePhaseError(
                f"local height {Fraction(local, self.lattice)} is off the "
                f"crossing grid at phase {self.phase}")
        return _crossing_name(cell, index + 1)

    def cross_top(self, piece: TopGeom, x: int, rise: int
                  ) -> tuple[str, int, int]:
        """Carry the point ``rise`` above the top at ``x`` through ``piece``:
        (trapezoid above, its x, the point's height there)."""
        pos = piece.skew_position(x)
        return (self.complex.trap_above[piece.skew].name, pos,
                pos * self.z.get(piece.skew, 0) + rise)

    def arc_endpoint(self, chart: HeightChart, x: int, y: int) -> str:
        """The crossing where a level arc at height ``y`` ends at ``x``."""
        if chart.bottom_rise * x == y:
            return self.crossing(chart.bottom, y)
        if x in (0, self.lattice):
            spans = chart.left if x == 0 else chart.right
            for cell, lo, hi in spans:
                if lo * self.lattice < y < hi * self.lattice:
                    return self.crossing(cell, y - lo * self.lattice)
            raise InvariantViolation(
                f"height {Fraction(y, self.lattice)} misses the side stack "
                f"{spans!r}")
        piece = chart.piece_at(x)
        if piece is None or piece.height_at(x) != y:
            raise InvariantViolation(
                f"({Fraction(x, self.lattice)}, {Fraction(y, self.lattice)})"
                f" is not on the boundary of {chart.trap}")
        return self.crossing(piece.skew, self.cross_top(piece, x, 0)[2])

    def _spend(self, steps: int) -> int:
        steps += 1
        if steps > _FLOW_BUDGET:
            raise IterationBudgetError(
                f"flow trace exceeded {_FLOW_BUDGET} steps")
        return steps

    def climb(self, zero_cell: str, remaining: int, steps: int) -> str:
        """Flow up the vertical 1-cells from a 0-cell onto a crossing,
        spending the flow budget from ``steps`` on."""
        cell = zero_cell
        while True:
            steps = self._spend(steps)
            vert = self.complex.vertical_from[cell]
            rise = self.z.get(vert.name, 0) * self.lattice
            if remaining < rise:
                return self.crossing(vert.name, remaining)
            remaining -= rise
            cell = vert.end

    def point_step(self, trap: str, x: int, target: int, steps: int):
        """Flow the point of ``trap`` at horizontal position ``x`` upward
        until its height reaches ``target``, re-based into each next chart
        as the point crosses skew cells.

        Returns ("interior", trap, level, x) for a landing inside a
        trapezoid, or ("vertex", name) for a landing on a crossing.
        """
        while True:
            steps = self._spend(steps)
            chart = self.charts[trap]
            top = chart.top_height(x)
            if top > target:
                level = self.level_of(target)
                if level is None:
                    raise InvariantViolation(
                        "interior landing is off the phase grid")
                return ("interior", trap, level, x)
            piece = chart.piece_at(x)
            if piece is None:
                if x not in chart.corners:
                    raise InvariantViolation(
                        f"no corner 0-cell at x = "
                        f"{Fraction(x, self.lattice)} on top of {trap}")
                return ("vertex", self.climb(chart.corners[x],
                                             target - top, steps))
            rise = target - top
            trap, x, target = self.cross_top(piece, x, rise)
            if not rise:
                return ("vertex", self.crossing(piece.skew, target))

    def vertex_step(self, host):
        """Flow a section vertex forward by one height unit."""
        if host[0] == "interior":
            _, trap, level, x = host
            return self.point_step(trap, x,
                                   self.offset + (level + 1) * self.lattice,
                                   0)
        _, cell, index = host
        local = self.offset + (index - 1) * self.lattice
        vert = self.complex.vertical_by_name.get(cell)
        if vert is None:
            above = self.complex.trap_above[cell].name
            return self.point_step(above, _exact(local, self.z[cell], above),
                                   local + self.lattice, 0)
        room = self.z[cell] * self.lattice - local
        if room > self.lattice:
            return ("vertex", _crossing_name(cell, index + 1))
        return ("vertex", self.climb(vert.end, self.lattice - room, 0))

    def flow_segment(self, starting_at: Mapping, trap: str, x_lo: int,
                     x_hi: int, target: int, orient: int, depth: int = 0
                     ) -> Word:
        """The section edges that the segment ``[x_lo, x_hi]`` of ``trap``
        runs along once flowed up to height ``target``, read in the
        direction ``orient``; ``starting_at`` sends (trapezoid, level, x) to
        the name, right end and one-letter word of the section edge that
        starts there."""
        if depth > 64:
            raise IterationBudgetError(
                "segment flow recursion exceeded depth 64")
        level = self.level_of(target)
        if level is None:
            raise InvariantViolation("segment landing is off the phase grid")
        runs = self.runs(trap, target, x_lo, x_hi)
        if orient < 0:
            runs.reverse()
        word: list[Word] = []
        for a, b, piece in runs:
            if piece is None:
                word.append(self._edges_along(starting_at, trap, level, a, b,
                                              orient))
                continue
            above, pos_a, lifted = self.cross_top(
                piece, a, target - piece.height_at(a))
            pos_b = piece.skew_position(b)
            word.append(self.flow_segment(starting_at, above,
                                          min(pos_a, pos_b),
                                          max(pos_a, pos_b), lifted,
                                          orient * piece.sign, depth + 1))
        return "".join(word)

    def runs(self, trap: str, y: int, lo: int, hi: int
             ) -> list[tuple[int, int, Optional[TopGeom]]]:
        """``charts[trap].runs(y, lo, hi)``, clipped from the runs of the
        whole top at ``y``, which are cut on first use."""
        table = self._runs.get((trap, y))
        if table is None:
            whole = self.charts[trap].runs(y, 0, self.lattice)
            table = self._runs[trap, y] = ([a for a, _, _ in whole], whole)
        starts, whole = table
        i = bisect_right(starts, lo) - 1
        _, b, piece = whole[i]
        out = [(lo, min(b, hi), piece)]
        for a, b, piece in islice(whole, i + 1, None):
            if a >= hi:
                break
            out.append((a, min(b, hi), piece))
        return out

    def _edges_along(self, starting_at: Mapping, trap: str, level: int,
                     x_lo: int, x_hi: int, orient: int) -> Word:
        found = []
        x = x_lo
        while x < x_hi:
            step = starting_at.get((trap, level, x))
            if step is None:
                break
            found.append(step[2])
            x = step[1]
        if not found or x != x_hi:
            raise InvariantViolation(
                f"flowed segment [{Fraction(x_lo, self.lattice)}, "
                f"{Fraction(x_hi, self.lattice)}] at level {level} of "
                f"{trap} is not a union of section edges")
        word = "".join(found)
        return word if orient > 0 else inverse(word)


# ---------------------------------------------------------------------------
# building the section


def _generic_phase(phase) -> Fraction:
    """The phase as a point of R/Z in (0, 1): 0 moves to 1/64."""
    return Fraction(phase) % 1 or Fraction(1, 64)


def build_section(complex_: TrapComplex, cocycle: Mapping,
                  phase=Fraction(1, 2)) -> SectionGraph:
    """Level-set graph of a nonnegative integral cocycle.

    Vertices are crossings of 1-cells together with the forward-flow
    landing points of crossings, closed up so that flowing by one height
    unit maps vertices to vertices; edges are level arcs of trapezoids
    split at those landing points.  The graph may be disconnected; its
    components are reported, not rejected.
    """
    z: dict[str, int] = {}
    for cell, value in cocycle.items():
        frac = Fraction(value)
        if frac.denominator != 1:
            raise NonIntegralClassError(
                f"crossing count on {cell!r} is the fraction {frac}")
        if frac < 0:
            raise InvariantViolation(
                f"crossing count on {cell!r} is negative")
        if frac:
            z[cell] = int(frac)
    if not is_cocycle(complex_, z):
        raise InvariantViolation("crossing data is not a cocycle")
    if not z:
        raise InvariantViolation("the zero cocycle has an empty level set")
    phase = _generic_phase(phase)
    lattice = _lattice(complex_, z, phase)
    charts = build_charts(complex_, z, lattice)
    grid = _Level(complex_, charts, z, phase, lattice)

    arcs = []  # (trap, level, x_lo, x_hi, init vertex, term vertex)
    for trap in sorted(charts):
        chart = charts[trap]
        for level in range(chart.max_height):
            y = grid.offset + level * lattice
            # the bottom edge stays below the level left of y / bottom_rise
            hi = lattice
            if y < chart.bottom_rise * lattice:
                hi = _exact(y, chart.bottom_rise, trap)
            for x_lo, x_hi, piece in chart.runs(y, 0, hi):
                if piece is None:
                    arcs.append((trap, level, x_lo, x_hi,
                                 grid.arc_endpoint(chart, x_lo, y),
                                 grid.arc_endpoint(chart, x_hi, y)))

    host: dict[str, tuple] = {
        _crossing_name(cell, m): ("cell", cell, m)
        for cell in complex_.one_cell_names
        for m in range(1, z.get(cell, 0) + 1)}

    vertex_return: dict[str, str] = {}
    interior_points: dict[tuple, str] = {}
    queue = deque(sorted(host))
    flow_count = 0
    spent = 0
    while queue:
        spent += 1
        if spent > _FLOW_BUDGET:
            raise IterationBudgetError(
                f"vertex flow closure exceeded {_FLOW_BUDGET} iterations")
        vertex = queue.popleft()
        landing = grid.vertex_step(host[vertex])
        if landing[0] == "vertex":
            vertex_return[vertex] = landing[1]
            continue
        key = landing[1:]
        if key not in interior_points:
            flow_count += 1
            name = f"flow{flow_count}"
            interior_points[key] = name
            host[name] = ("interior",) + key
            queue.append(name)
        vertex_return[vertex] = interior_points[key]

    # each edge start once: its token in edge names
    at: dict[int, str] = {}
    for x in {arc[2] for arc in arcs} | {key[2] for key in interior_points}:
        g = gcd(x, lattice)
        at[x] = f"{x // g}of{lattice // g}"

    by_arc: dict[tuple, list[tuple[int, str]]] = {}
    for (trap, level, x), name in interior_points.items():
        by_arc.setdefault((trap, level), []).append((x, name))
    for points in by_arc.values():
        points.sort()
    first = itemgetter(0)
    placed: set[str] = set()
    stations: dict[tuple[str, int, int], tuple[str, int]] = {}
    edges = []
    for trap, level, x_lo, x_hi, init, term in arcs:
        points = by_arc.get((trap, level), [])
        inner = points[bisect_right(points, x_lo, key=first):
                       bisect_left(points, x_hi, key=first)]
        placed.update(name for _, name in inner)
        stops = [(x_lo, init)] + inner + [(x_hi, term)]
        for (xa, va), (xb, vb) in zip(stops, stops[1:]):
            name = f"{trap}.{level}.{at[xa]}"
            stations[trap, level, xa] = (name, xb)
            edges.append((name, va, vb))
    missing = set(interior_points.values()) - placed
    if missing:
        raise InvariantViolation(
            f"flow landings {sorted(missing)!r} miss every level arc")

    # each interior vertex splits one arc, so the crossing counts fix χ
    euler, expected = len(host) - len(edges), 1 - crossing_rank(complex_, z)
    if euler != expected:
        raise InvariantViolation(
            f"section has Euler characteristic {euler}, but its crossing "
            f"counts give {expected}")
    graph = Graph(tuple(sorted(host)), tuple(sorted(edges)))
    crossed_skews = [s.name for s in complex_.skews if z.get(s.name, 0)]
    basepoint = _crossing_name(min(crossed_skews), 1) if crossed_skews \
        else None
    return SectionGraph(complex_, z, phase, lattice, graph, charts, host,
                        vertex_return, stations, components(graph),
                        basepoint)


# ---------------------------------------------------------------------------
# the first return map


def first_return(section: SectionGraph) -> GraphMap:
    """Graph self-map induced by flowing the section up one height unit."""
    lattice = section.lattice
    grid = _Level(section.complex, section.charts, section.cocycle,
                  section.phase, lattice)

    stations = section.stations
    forward = encode([(name, 1) for name, _ in stations.values()])
    starting_at = {key: (name, x_hi, ch) for (key, (name, x_hi)), ch
                   in zip(stations.items(), forward)}
    try:
        edge_images = {
            name: grid.flow_segment(starting_at, trap, x_lo, x_hi,
                                    grid.offset + (level + 1) * lattice, 1)
            for (trap, level, x_lo), (name, x_hi, _) in starting_at.items()}
    except IterationBudgetError as exc:
        # a zero cycle is the likely cause: say so
        try:
            require_open_cone(section.complex, section.cocycle)
        except ConeInfeasibleError as outside:
            raise outside from exc
        raise IterationBudgetError(
            f"first return of the cocycle {section.cocycle!r}: {exc}") from exc
    return GraphMap(section.graph, section.graph,
                    dict(section.vertex_return), edge_images)


# ---------------------------------------------------------------------------
# monodromy


@dataclass
class MonodromyData:
    """The first return map read on the fundamental group of the section."""

    generators: tuple[str, ...]
    automorphism: FreeGroupMap
    basepoint: str


def monodromy(section: SectionGraph, return_map: GraphMap) -> MonodromyData:
    """Outer automorphism induced by the first return map.

    Collapses the breadth-first spanning tree from the basepoint and reads
    each non-tree edge's image as a word in the non-tree edges.
    """
    graph = section.graph
    if len(section.components) != 1:
        raise DisconnectedGraphError(
            f"section has {len(section.components)} components: "
            + "; ".join(",".join(c[:3]) + ("..." if len(c) > 3 else "")
                        for c in section.components))
    root = section.basepoint
    if root is None or root not in graph.vertices:
        raise InvariantViolation("section has no usable basepoint")
    tree = spanning_tree(graph, root)
    fmap = fundamental_group_map(return_map, tree)
    return MonodromyData(fmap.domain, fmap, root)


# ---------------------------------------------------------------------------
# the canonical line-family presentation


def _line_table(k: int) -> dict[str, Word]:
    """First return table of the k-th line-family member, in canonical
    names and orientation: four chains e2, e3, e4 and t of k + 1 edges,
    each edge mapping onto the next, and the fixed edges e1, s1 and s2."""
    n = k + 1
    table = {"e1": "e3_1", "s1": "e2_1 t1", "s2": "t1",
             f"e2_{n}": "e4_1'", f"e3_{n}": "t1 e3_1 e2_1",
             f"e4_{n}": "s2 e1", f"t{n}": "s1 e1 e4_1"}
    for i in range(1, n):
        for chain in ("e2_", "e3_", "e4_", "t"):
            table[f"{chain}{i}"] = f"{chain}{i + 1}"
    return {name: encode([(x.rstrip("'"), -1 if x[-1] == "'" else 1)
                          for x in image.split()])
            for name, image in table.items()}


def _line_names(return_map: GraphMap) -> tuple[dict[str, str], int]:
    """Canonical edge names of a line-family section, from its dynamics.

    The k-th member has 7 + 4k edges, and its first return words, reversed
    into canonical orientation, are those of :func:`_line_table`.  The
    unique edge whose image is one inverted letter is the last e2 edge;
    from it a walk names each letter of a named edge's image by the
    table's letter in that place.  A return map whose renamed table is not
    the template is rejected.
    """
    words = {n: letters(w)[::-1] for n, w in return_map.edge_images.items()}
    k, extra = divmod(len(words) - 7, 4)
    anchors = [n for n, w in words.items() if len(w) == 1 and w[0][1] < 0]
    table = _line_table(max(k, 0))
    names: dict[str, str] = {}
    if k >= 0 and not extra and len(anchors) == 1:
        names[anchors[0]] = f"e2_{k + 1}"
        walk = [anchors[0]]
        while walk:
            old = walk.pop()
            image = letters(table[names[old]])
            if len(image) != len(words[old]):
                continue
            for (m, _), (name, _) in zip(words[old], image):
                if m not in names:
                    names[m] = name
                    walk.append(m)
    if len(names) != len(words) or set(names.values()) != table.keys() \
            or any(encode([(names[m], s) for m, s in w]) != table[names[n]]
                   for n, w in words.items()):
        raise InvariantViolation(
            "return map does not have the line-family shape")
    return names, k


@dataclass
class LineSection:
    """A line-family section with its canonical names and monodromy.

    ``table`` is the first return map of :func:`_line_table` on the
    renamed, reoriented section; the spanning tree for the monodromy is
    the union of the chain edges.
    """

    k: int
    section: SectionGraph
    return_map: GraphMap
    table: GraphMap
    tree_edges: tuple[str, ...]
    monodromy: MonodromyData


def line_section(complex_: TrapComplex, k: int) -> LineSection:
    """Section at phase 1/2, canonical first return table, and monodromy
    for the k-th member of the cocycle line family of the complex."""
    z = line_family_cocycle(complex_, k)
    section = build_section(complex_, z)
    if len(section.components) != 1:
        raise DisconnectedGraphError(
            f"line-family section has {len(section.components)} components")
    return_map = first_return(section)
    names, k_found = _line_names(return_map)
    if k_found != k:
        raise InvariantViolation(
            f"section dynamics give chain length {k_found + 1}, "
            f"expected {k + 1}")
    graph = Graph(section.graph.vertices,
                  tuple(sorted((names[n], term, init)
                               for n, init, term in section.graph.edges)))
    table = GraphMap(graph, graph, dict(return_map.vertex_map),
                     _line_table(k))
    chain = Graph(graph.vertices,
                  tuple(e for e in graph.edges if e[0].startswith("e")))
    tree_edges = tuple(sorted(chain.edge_names))
    tree = spanning_tree(chain, section.basepoint)
    if tree.tree_edges != set(tree_edges):
        raise InvariantViolation("the chain edges are not a spanning tree")
    fmap = fundamental_group_map(table, tree)
    return LineSection(k, section, return_map, table, tree_edges,
                       MonodromyData(fmap.domain, fmap, tree.root))


# ---------------------------------------------------------------------------
# audit


@dataclass
class SectionAudit:
    """Counts describing a section and its first return dynamics."""

    vertices: int
    edges: int
    rank: int
    components: int
    skew_crossings: int
    valence_profile: tuple[tuple[int, int], ...]
    illegal_turns_at_trivalent: Optional[int]


def section_audit(section: SectionGraph,
                  return_map: Optional[GraphMap] = None) -> SectionAudit:
    """Sizes, rank, valences and skew crossings of a section and, given
    its first return map, the illegal turns of that map at trivalent
    vertices.

    That last count is ⟨u, σ⟩ for u the section's class and σ the skew
    loop, the same as ``skew_crossings``: each crossing of a skew by the
    level set is a trivalent vertex of the section, and there the fold of
    that skew makes the one illegal turn of the return map.
    """
    graph = section.graph
    skew_crossings = sum(section.cocycle.get(s.name, 0)
                         for s in section.complex.skews)
    degree = dict.fromkeys(graph.vertices, 0)
    for _, init, term in graph.edges:
        degree[init] += 1
        degree[term] += 1
    illegal: Optional[int] = None
    if return_map is not None:
        illegal = sum(degree[graph.init_of(min(turn))] == 3
                      for turn in illegal_turns(return_map))
    n_edges = len(graph.edge_names)
    n_vertices = len(graph.vertices)
    rank = n_edges - n_vertices + len(section.components)
    return SectionAudit(n_vertices, n_edges, rank, len(section.components),
                        skew_crossings,
                        tuple(sorted(Counter(degree.values()).items())),
                        illegal)


def crossing_rank(complex_: TrapComplex, cocycle: Mapping) -> int:
    """First Betti number of the level-set graph, from crossing data alone.

    Every level arc inside a trapezoid is an interval with both endpoints on
    the trapezoid boundary, so the arc count is half the total number of
    boundary crossings: the crossing counts dotted with the skeleton's
    boundary weights.  With vertices given by the 1-cell crossings this
    yields the Euler characteristic without building the section.  The
    returned value ``edges - vertices + 1`` is the rank for a connected
    level set (a primitive class); a class divisible by ``d`` has ``d``
    components and rank ``d - 1`` higher.
    """
    values = cochain_vector(complex_, cocycle)
    vertices = sum(values)
    boundary_crossings = sum(map(mul, complex_.skeleton.boundary_weights,
                                 values))
    if boundary_crossings % 2:
        raise InvariantViolation(
            "level arcs must pair boundary crossings, got an odd total")
    return boundary_crossings // 2 - vertices + 1


_HOST_COLORS = {"vertical": "black", "skew": "red", "flow": "gray"}


def host_kind(section: SectionGraph, vertex: str) -> str:
    """Which kind of mapping-torus cell carries this section vertex."""
    host = section.vertex_host[vertex]
    if host[0] == "interior":
        return "flow"
    cell = host[1]
    return "vertical" if cell in section.complex.vertical_by_name else "skew"


def section_dot(section: SectionGraph) -> str:
    """Graphviz export with vertices colored by their host 1-cell kind."""
    lines = ["digraph section {"]
    for v in section.graph.vertices:
        color = _HOST_COLORS[host_kind(section, v)]
        lines.append(f'  "{v}" [color={color}];')
    for name, init, term in section.graph.edges:
        lines.append(f'  "{init}" -> "{term}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
