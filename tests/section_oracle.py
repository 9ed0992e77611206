"""Section geometry on exact fractions: the reference oracle.

The package runs a section's height charts, crossing grid and semiflow on
integer numerators over one lattice denominator per section.  This module
keeps the ``Fraction`` code those replaced: the height charts, the
crossing grid with its point flow, ``build_section`` and ``first_return``,
so the tests can check the integer route record for record.  Its sections
keep a ``Fraction`` record of every edge, where a package section keeps
integer stations.  It also carries the ``Fraction`` chart API
(``top_height``, ``bottom_height``, ``height_at``, ``skew_position``) that
the chart tests read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from freebycyclic import section as sect
from freebycyclic.cohomology import is_cocycle
from freebycyclic.errors import (DegeneratePhaseError, InvariantViolation,
                                 IterationBudgetError, NonIntegralClassError)
from freebycyclic.graphs import Graph, GraphMap, components
from freebycyclic.section import _crossing_name, _generic_phase
from freebycyclic.torus import TrapComplex
from freebycyclic.words import Letter, encode

from helpers import tuple_inverse


# ---------------------------------------------------------------------------
# height charts


@dataclass
class TopGeom:
    """One top piece of a trapezoid with its height span.

    The piece covers ``[x_lo, x_hi]`` of the top edge and maps onto the
    whole skew cell, forward when ``sign`` is positive and backward when
    negative; heights run linearly from ``h_lo`` at ``x_lo`` to ``h_hi``
    at ``x_hi``.
    """

    skew: str
    sign: int
    x_lo: Fraction
    x_hi: Fraction
    h_lo: int
    h_hi: int

    def height_at(self, x: Fraction) -> Fraction:
        u = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.h_lo + (self.h_hi - self.h_lo) * u

    def skew_position(self, x: Fraction) -> Fraction:
        u = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return u if self.sign > 0 else 1 - u


@dataclass
class HeightChart:
    """Integer corner heights of one trapezoid under a cocycle.

    The bottom-left corner sits at height zero; the bottom edge rises by
    the bottom skew's count, the side cells stack their counts, and each
    top piece rises or falls by the full count of its skew cell.
    """

    trap: str
    bottom: str
    bottom_rise: int
    left: tuple[tuple[str, int, int], ...]
    right: tuple[tuple[str, int, int], ...]
    top: tuple[TopGeom, ...]
    tl: int
    tr: int

    def bottom_height(self, x: Fraction) -> Fraction:
        return self.bottom_rise * x

    def top_height(self, x: Fraction) -> Fraction:
        for piece in self.top:
            if piece.x_lo <= x <= piece.x_hi:
                return piece.height_at(x)
        raise InvariantViolation(f"x = {x} outside the top of {self.trap}")

    def piece_at(self, x: Fraction) -> Optional[TopGeom]:
        """The top piece with ``x`` strictly inside it, or None at a corner."""
        for piece in self.top:
            if piece.x_lo < x < piece.x_hi:
                return piece
        return None

    def runs(self, y: Fraction, lo: Fraction, hi: Fraction
             ) -> list[tuple[Fraction, Fraction, Optional[TopGeom]]]:
        """Cut ``[lo, hi]`` where the level ``y`` meets the top.

        Maximal runs below the top are tagged None; a run at or above it is
        tagged with the top piece it leaves through, one run per piece.
        """
        cuts = {lo, hi}
        for piece in self.top:
            for x in (piece.x_lo, piece.x_hi):
                if lo < x < hi:
                    cuts.add(x)
            h_min, h_max = sorted((piece.h_lo, piece.h_hi))
            if h_min < h_max and h_min < y < h_max:
                u = (y - piece.h_lo) / (piece.h_hi - piece.h_lo)
                x = piece.x_lo + u * (piece.x_hi - piece.x_lo)
                if lo < x < hi:
                    cuts.add(x)
        xs = sorted(cuts)
        out: list[tuple[Fraction, Fraction, Optional[TopGeom]]] = []
        for a, b in zip(xs, xs[1:]):
            mid = (a + b) / 2
            piece = self.piece_at(mid)
            if piece.height_at(mid) <= y:
                out.append((a, b, piece))
            elif out and out[-1][2] is None:
                out[-1] = (out[-1][0], b, None)
            else:
                out.append((a, b, None))
        return out

    @property
    def max_height(self) -> int:
        return max([self.tl, self.tr, self.bottom_rise]
                   + [p.h_lo for p in self.top] + [p.h_hi for p in self.top])


def _stack(cells: Sequence[str], z: Mapping, offset: int
           ) -> tuple[tuple[tuple[str, int, int], ...], int]:
    spans = []
    h = offset
    for cell in cells:
        rise = int(z.get(cell, 0))
        spans.append((cell, h, h + rise))
        h += rise
    return tuple(spans), h


def build_charts(complex_: TrapComplex, z: Mapping) -> dict[str, HeightChart]:
    charts = {}
    for trap in complex_.trapezoids:
        bottom_rise = int(z.get(trap.bottom, 0))
        left, tl = _stack(trap.left, z, 0)
        right, tr = _stack(trap.right, z, bottom_rise)
        pieces = []
        h = tl
        for piece in trap.top:
            rise = piece.sign * int(z.get(piece.skew, 0))
            pieces.append(TopGeom(piece.skew, piece.sign, piece.x_lo,
                                  piece.x_hi, h, h + rise))
            h += rise
        if h != tr:
            raise InvariantViolation(
                f"height chart of {trap.name} does not close up")
        charts[trap.name] = HeightChart(trap.name, trap.bottom, bottom_rise,
                                        left, right, tuple(pieces), tl, tr)
    return charts


# ---------------------------------------------------------------------------
# the crossing grid and the point flow


@dataclass
class _Level:
    """The crossing grid and the exact forward semiflow of the level sets
    of one cocycle at one phase."""

    complex: TrapComplex
    charts: dict[str, HeightChart]
    z: Mapping
    phase: Fraction

    def crossing(self, cell: str, local: Fraction) -> str:
        """The crossing of ``cell`` at height ``local`` above its start."""
        index = local - self.phase + 1
        if index.denominator != 1:
            raise DegeneratePhaseError(
                f"local height {local} is off the crossing grid at "
                f"phase {self.phase}")
        return _crossing_name(cell, int(index))

    def cross_top(self, piece: TopGeom, x: Fraction, rise: Fraction
                  ) -> tuple[str, Fraction, Fraction]:
        """Carry the point ``rise`` above the top at ``x`` through ``piece``:
        (trapezoid above, its x, the point's height there)."""
        pos = piece.skew_position(x)
        return (self.complex.trap_above[piece.skew].name, pos,
                pos * self.z.get(piece.skew, 0) + rise)

    def arc_endpoint(self, chart: HeightChart, x: Fraction, y: Fraction
                     ) -> str:
        """The crossing where a level arc at height ``y`` ends at ``x``."""
        if chart.bottom_height(x) == y:
            return self.crossing(chart.bottom, y)
        if x in (0, 1):
            spans = chart.left if x == 0 else chart.right
            for cell, lo, hi in spans:
                if lo < y < hi:
                    return self.crossing(cell, y - lo)
            raise InvariantViolation(
                f"height {y} misses the side stack {spans!r}")
        piece = chart.piece_at(x)
        if piece is None or piece.height_at(x) != y:
            raise InvariantViolation(
                f"({x}, {y}) is not on the boundary of {chart.trap}")
        return self.crossing(piece.skew, self.cross_top(piece, x, 0)[2])

    def _spend(self, steps: int) -> int:
        steps += 1
        if steps > sect._FLOW_BUDGET:
            raise IterationBudgetError(
                f"flow trace exceeded {sect._FLOW_BUDGET} steps")
        return steps

    def climb(self, zero_cell: str, remaining: Fraction, steps: int
              ) -> tuple[str, int]:
        """Flow up the vertical 1-cells from a 0-cell onto a crossing."""
        cell = zero_cell
        while True:
            steps = self._spend(steps)
            vert = self.complex.vertical_from[cell]
            rise = self.z.get(vert.name, 0)
            if remaining < rise:
                return self.crossing(vert.name, remaining), steps
            remaining -= rise
            cell = vert.end

    def point_step(self, trap: str, x: Fraction, target: Fraction,
                   steps: int):
        """Flow the point of ``trap`` at horizontal position ``x`` upward
        until its height reaches ``target``."""
        while True:
            steps = self._spend(steps)
            chart = self.charts[trap]
            top = chart.top_height(x)
            if top > target:
                level = target - self.phase
                if level.denominator != 1:
                    raise InvariantViolation(
                        "interior landing is off the phase grid")
                return ("interior", trap, int(level), x)
            piece = chart.piece_at(x)
            if piece is None:
                corners = dict(self.complex.trap_by_name[trap].corners)
                if x not in corners:
                    raise InvariantViolation(
                        f"no corner 0-cell at x = {x} on top of {trap}")
                name, steps = self.climb(corners[x], target - top, steps)
                return ("vertex", name)
            rise = target - top
            trap, x, target = self.cross_top(piece, x, rise)
            if not rise:
                return ("vertex", self.crossing(piece.skew, target))

    def vertex_step(self, host):
        """Flow a section vertex forward by one height unit."""
        if host[0] == "interior":
            _, trap, level, x = host
            return self.point_step(trap, x, self.phase + level + 1, 0)
        _, cell, index = host
        local = self.phase + (index - 1)
        vert = self.complex.vertical_by_name.get(cell)
        if vert is None:
            return self.point_step(self.complex.trap_above[cell].name,
                                   local / self.z[cell], local + 1, 0)
        room = self.z[cell] - local
        if room > 1:
            return ("vertex", _crossing_name(cell, index + 1))
        return ("vertex", self.climb(vert.end, 1 - room, 0)[0])


# ---------------------------------------------------------------------------
# the route: build_section, then first_return


@dataclass
class EdgeRecord:
    """A section edge: part of one level arc inside one trapezoid."""

    name: str
    trap: str
    level: int
    x_lo: Fraction
    x_hi: Fraction
    init: str
    term: str


@dataclass
class OracleSection:
    """The level-set graph as the fraction route builds it."""

    complex: TrapComplex
    cocycle: dict[str, int]
    phase: Fraction
    graph: Graph
    charts: dict[str, HeightChart]
    vertex_host: dict[str, tuple]
    vertex_return: dict[str, str]
    edge_records: dict[str, EdgeRecord]
    components: tuple[tuple[str, ...], ...]
    basepoint: Optional[str]


def _frac_token(x: Fraction) -> str:
    return f"{x.numerator}of{x.denominator}"


def build_section(complex_: TrapComplex, cocycle: Mapping,
                  phase=Fraction(1, 2)) -> OracleSection:
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
    charts = build_charts(complex_, z)
    grid = _Level(complex_, charts, z, phase)

    arcs = []  # (trap, level, x_lo, x_hi, init vertex, term vertex)
    for trap in sorted(charts):
        chart = charts[trap]
        for level in range(chart.max_height):
            y = phase + level
            hi = min(Fraction(1), y / chart.bottom_rise) \
                if chart.bottom_rise else Fraction(1)
            for x_lo, x_hi, piece in chart.runs(y, Fraction(0), hi):
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
        if spent > sect._FLOW_BUDGET:
            raise IterationBudgetError(
                f"vertex flow closure exceeded {sect._FLOW_BUDGET} "
                "iterations")
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

    by_arc: dict[tuple, list[tuple[Fraction, str]]] = {}
    placed: set[str] = set()
    for key, name in interior_points.items():
        trap, level, x = key
        by_arc.setdefault((trap, level), []).append((x, name))
    records: dict[str, EdgeRecord] = {}
    edges = []
    for trap, level, x_lo, x_hi, init, term in arcs:
        inner = sorted(p for p in by_arc.get((trap, level), [])
                       if x_lo < p[0] < x_hi)
        placed.update(name for _, name in inner)
        stations = [(x_lo, init)] + inner + [(x_hi, term)]
        for (xa, va), (xb, vb) in zip(stations, stations[1:]):
            name = f"{trap}.{level}.{_frac_token(xa)}"
            records[name] = EdgeRecord(name, trap, level, xa, xb, va, vb)
            edges.append((name, va, vb))
    missing = set(interior_points.values()) - placed
    if missing:
        raise InvariantViolation(
            f"flow landings {sorted(missing)!r} miss every level arc")

    graph = Graph(tuple(sorted(host)), tuple(sorted(edges)))
    crossed_skews = [s.name for s in complex_.skews if z.get(s.name, 0)]
    basepoint = _crossing_name(min(crossed_skews), 1) if crossed_skews \
        else None
    return OracleSection(complex_, z, phase, graph, charts, host,
                         vertex_return, records, components(graph), basepoint)


def first_return(section: OracleSection) -> GraphMap:
    """Graph self-map induced by flowing the section up one height unit."""
    grid = _Level(section.complex, section.charts, section.cocycle,
                  section.phase)

    starting_at = {(rec.trap, rec.level, rec.x_lo): rec
                   for rec in section.edge_records.values()}

    def segment_to_letters(trap: str, level: int, x_lo: Fraction,
                           x_hi: Fraction, orient: int) -> tuple[Letter, ...]:
        found = []
        x = x_lo
        while x < x_hi:
            rec = starting_at.get((trap, level, x))
            if rec is None:
                break
            found.append(rec)
            x = rec.x_hi
        if not found or x != x_hi:
            raise InvariantViolation(
                f"flowed segment [{x_lo}, {x_hi}] at level {level} of "
                f"{trap} is not a union of section edges")
        letters = tuple((rec.name, 1) for rec in found)
        return letters if orient > 0 else tuple_inverse(letters)

    def flow_segment(trap: str, x_lo: Fraction, x_hi: Fraction,
                     target: Fraction, orient: int, depth: int = 0
                     ) -> tuple[Letter, ...]:
        if depth > 64:
            raise IterationBudgetError(
                "segment flow recursion exceeded depth 64")
        level = target - grid.phase
        if level.denominator != 1:
            raise InvariantViolation("segment landing is off the phase grid")
        runs = grid.charts[trap].runs(target, x_lo, x_hi)
        if orient < 0:
            runs.reverse()
        word: list = []
        for a, b, piece in runs:
            if piece is None:
                word.extend(segment_to_letters(trap, int(level), a, b,
                                               orient))
                continue
            above, pos_a, lifted = grid.cross_top(
                piece, a, target - piece.height_at(a))
            pos_b = piece.skew_position(b)
            word.extend(flow_segment(above, min(pos_a, pos_b),
                                     max(pos_a, pos_b), lifted,
                                     orient * piece.sign, depth + 1))
        return tuple(word)

    edge_images = {}
    for name, rec in section.edge_records.items():
        target = grid.phase + rec.level + 1
        edge_images[name] = encode(flow_segment(rec.trap, rec.x_lo,
                                                rec.x_hi, target, 1))
    return GraphMap(section.graph, section.graph,
                    dict(section.vertex_return), edge_images)
