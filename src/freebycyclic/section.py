"""Sections of a trapezoid complex transverse to the vertical semiflow.

A nonnegative integral cocycle assigns every 1-cell a crossing count.  The
level set of the induced circle-valued height map at a generic phase is an
embedded graph: one vertex per crossing of a 1-cell, one edge per level
arc inside a trapezoid, plus extra valence-two vertices where the forward
semiflow of a crossing lands in the interior of an arc, so that flowing by
one full height unit sends vertices to vertices.  The first return of the
semiflow then induces a graph self-map whose outer class is the monodromy
of the complex read along the chosen class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .cohomology import is_cocycle
from .errors import (
    DegeneratePhaseError,
    DisconnectedGraphError,
    InvariantViolation,
    IterationBudgetError,
    NonIntegralClassError,
)
from .graphs import Graph, GraphMap, SpanningTree, collapse_word, \
    spanning_tree
from .torus import TrapComplex
from .words import FreeGroupMap, Word, inverse


# ---------------------------------------------------------------------------
# integer height charts


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
        raise InvariantViolation(
            f"x = {x} outside the top of {self.trap}")  # pragma: no cover

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
# section graphs


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
class SectionGraph:
    """The level-set graph of an integral cocycle at a generic phase."""

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


def _crossing_name(cell: str, index: int) -> str:
    return f"{cell}#{index}"


def _split_crossing(name: str) -> tuple[str, int]:
    cell, _, index = name.rpartition("#")
    return cell, int(index)


class _Resolver:
    """Maps exact boundary positions of level arcs to crossing names."""

    def __init__(self, charts: dict, z: Mapping, phase: Fraction):
        self.charts = charts
        self.z = z
        self.phase = phase

    def _index(self, local_height: Fraction) -> int:
        index = local_height - self.phase + 1
        if index.denominator != 1:
            raise DegeneratePhaseError(
                f"local height {local_height} is off the crossing grid at "
                f"phase {self.phase}")
        return int(index)

    def on_stack(self, spans, height: Fraction) -> str:
        for cell, lo, hi in spans:
            if lo < height < hi:
                return _crossing_name(cell, self._index(height - lo))
        raise InvariantViolation(
            f"height {height} misses the side stack {spans!r}")

    def on_top(self, chart: HeightChart, x: Fraction) -> str:
        for piece in chart.top:
            if piece.x_lo < x < piece.x_hi:
                local = piece.skew_position(x) * int(self.z.get(piece.skew, 0))
                return _crossing_name(piece.skew, self._index(local))
        raise InvariantViolation(
            f"x = {x} is not interior to a top piece of {chart.trap}")

    def arc_endpoint(self, chart: HeightChart, x: Fraction, y: Fraction
                     ) -> str:
        if chart.bottom_height(x) == y:
            return _crossing_name(chart.bottom, self._index(y))
        if x == 0:
            return self.on_stack(chart.left, y)
        if x == 1:
            return self.on_stack(chart.right, y)
        if chart.top_height(x) == y:
            return self.on_top(chart, x)
        raise InvariantViolation(
            f"({x}, {y}) is not on the boundary of {chart.trap}")


def _arc_components(chart: HeightChart, y: Fraction
                    ) -> list[tuple[Fraction, Fraction]]:
    """Maximal x-intervals of the level set of ``chart`` at height ``y``."""
    cuts = {Fraction(0), Fraction(1)}
    if chart.bottom_rise and 0 < y / chart.bottom_rise < 1:
        cuts.add(y / chart.bottom_rise)
    for piece in chart.top:
        cuts.add(piece.x_lo)
        cuts.add(piece.x_hi)
        if piece.h_lo != piece.h_hi:
            lo, hi = sorted((piece.h_lo, piece.h_hi))
            if lo < y < hi:
                u = (y - piece.h_lo) / (piece.h_hi - piece.h_lo)
                cuts.add(piece.x_lo + u * (piece.x_hi - piece.x_lo))
    xs = sorted(cuts)
    spans: list[tuple[Fraction, Fraction]] = []
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        if not chart.bottom_height(mid) < y < chart.top_height(mid):
            continue
        if spans and spans[-1][1] == a and \
                chart.bottom_height(a) < y < chart.top_height(a):
            spans[-1] = (spans[-1][0], b)
        else:
            spans.append((a, b))
    return spans


# ---------------------------------------------------------------------------
# the vertical semiflow


class _Flow:
    """Exact forward semiflow of section points by one height unit."""

    def __init__(self, complex_: TrapComplex, charts: dict, z: Mapping,
                 phase: Fraction, budget: int):
        self.complex = complex_
        self.charts = charts
        self.z = z
        self.phase = phase
        self.budget = budget

    def _spend(self, steps: int) -> int:
        steps += 1
        if steps > self.budget:
            raise IterationBudgetError(
                f"flow trace exceeded {self.budget} steps")
        return steps

    def _crossing_at(self, cell: str, local: Fraction) -> str:
        index = local - self.phase + 1
        if index.denominator != 1:
            raise InvariantViolation(
                f"flow lands on {cell} at non-crossing height {local}")
        return _crossing_name(cell, int(index))

    def climb(self, zero_cell: str, remaining: Fraction, steps: int = 0
              ) -> tuple[str, int]:
        """Flow up the vertical 1-cells from a 0-cell onto a crossing."""
        cell = zero_cell
        while True:
            steps = self._spend(steps)
            vert = self.complex.vertical_from[cell]
            rise = Fraction(self.z.get(vert.name, 0))
            if remaining < rise:
                return self._crossing_at(vert.name, remaining), steps
            remaining -= rise
            cell = vert.end

    def point_step(self, trap: str, x: Fraction, target: Fraction,
                   steps: int = 0):
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
                level = target - self.phase
                if level.denominator != 1:
                    raise InvariantViolation(
                        "interior landing is off the phase grid")
                return ("interior", trap, int(level), x)
            piece = None
            for p in chart.top:
                if p.x_lo < x < p.x_hi:
                    piece = p
                    break
            if piece is None:
                corner_cell = self._corner_cell(chart, x)
                name, steps = self.climb(corner_cell, target - top, steps)
                return ("vertex", name)
            pos = piece.skew_position(x)
            local = pos * Fraction(self.z.get(piece.skew, 0))
            if top == target:
                return ("vertex", self._crossing_at(piece.skew, local))
            trap = self.complex.trap_above[piece.skew].name
            x = pos
            target = local + (target - top)

    def _corner_cell(self, chart: HeightChart, x: Fraction) -> str:
        trap = self.complex.trap_by_name[chart.trap]
        for x_break, cell in trap.corners:
            if x_break == x:
                return cell
        raise InvariantViolation(
            f"no corner 0-cell at x = {x} on top of {chart.trap}")

    def vertex_step(self, host, steps: int = 0):
        """Flow a section vertex forward by one height unit."""
        kind = host[0]
        if kind == "cell":
            _, cell, index = host
            local = self.phase + (index - 1)
            if cell in self.complex.vertical_by_name:
                vert = self.complex.vertical_by_name[cell]
                room = Fraction(self.z.get(cell, 0)) - local
                if room > 1:
                    return ("vertex", _crossing_name(cell, index + 1))
                name, _ = self.climb(vert.end, 1 - room, steps)
                return ("vertex", name)
            pos = local / Fraction(self.z.get(cell, 0))
            above = self.complex.trap_above[cell].name
            return self.point_step(above, pos, local + 1, steps)
        _, trap, level, x = host
        y = self.phase + level
        return self.point_step(trap, x, y + 1, steps)


# ---------------------------------------------------------------------------
# building the section


def _generic_phase(phase) -> Fraction:
    base = Fraction(phase)
    candidate = base
    for attempt in range(8):
        if 0 < candidate < 1 and candidate.denominator > 1:
            return candidate
        candidate = base + Fraction(1, 64 * 2 ** attempt)
        candidate -= int(candidate)
    raise DegeneratePhaseError(f"no generic phase found near {phase}")


def _frac_token(x: Fraction) -> str:
    return f"{x.numerator}of{x.denominator}"


def _components(graph: Graph) -> tuple[tuple[str, ...], ...]:
    neighbours: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for _, init, term in graph.edges:
        neighbours[init].add(term)
        neighbours[term].add(init)
    seen: set[str] = set()
    out = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in neighbours[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(sorted(out))


def build_section(complex_: TrapComplex, cocycle: Mapping,
                  phase=Fraction(1, 2), budget: int = 100_000
                  ) -> SectionGraph:
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
    charts = build_charts(complex_, z)
    resolver = _Resolver(charts, z, phase)
    flow = _Flow(complex_, charts, z, phase, budget)

    arcs = []  # (trap, level, x_lo, x_hi, init vertex, term vertex)
    for trap in sorted(charts):
        chart = charts[trap]
        for level in range(chart.max_height):
            y = phase + level
            for x_lo, x_hi in _arc_components(chart, y):
                init = resolver.arc_endpoint(chart, x_lo, y)
                term = resolver.arc_endpoint(chart, x_hi, y)
                arcs.append((trap, level, x_lo, x_hi, init, term))

    crossings = [_crossing_name(cell, m)
                 for cell in complex_.one_cell_names
                 for m in range(1, z.get(cell, 0) + 1)]
    host: dict[str, tuple] = {
        name: ("cell",) + _split_crossing(name) for name in crossings}

    vertex_return: dict[str, str] = {}
    interior_points: dict[tuple, str] = {}
    queue = deque(sorted(crossings))
    flow_count = 0
    spent = 0
    while queue:
        spent += 1
        if spent > budget:
            raise IterationBudgetError(
                f"vertex flow closure exceeded {budget} iterations")
        vertex = queue.popleft()
        landing = flow.vertex_step(host[vertex])
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
    components = _components(graph)
    basepoint = None
    crossed_skews = [s.name for s in complex_.skews if z.get(s.name, 0)]
    if crossed_skews:
        basepoint = _crossing_name(min(crossed_skews), 1)
    return SectionGraph(complex_, z, phase, graph, charts, host,
                        vertex_return, records, components, basepoint)


# ---------------------------------------------------------------------------
# the first return map


def first_return(section: SectionGraph) -> GraphMap:
    """Graph self-map induced by flowing the section up one height unit."""
    complex_ = section.complex
    charts = section.charts
    z = section.cocycle
    phase = section.phase

    starting_at = {(rec.trap, rec.level, rec.x_lo): rec
                   for rec in section.edge_records.values()}

    def segment_to_letters(trap: str, level: int, x_lo: Fraction,
                           x_hi: Fraction, orient: int) -> Word:
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
        return letters if orient > 0 else inverse(letters)

    def flow_segment(trap: str, x_lo: Fraction, x_hi: Fraction,
                     target: Fraction, orient: int, depth: int = 0) -> Word:
        if depth > 64:
            raise IterationBudgetError(
                "segment flow recursion exceeded depth 64")
        chart = charts[trap]
        cuts = {x_lo, x_hi}
        for piece in chart.top:
            for x in (piece.x_lo, piece.x_hi):
                if x_lo < x < x_hi:
                    cuts.add(x)
            if piece.h_lo != piece.h_hi:
                lo, hi = sorted((piece.h_lo, piece.h_hi))
                if lo < target < hi:
                    u = (target - piece.h_lo) / (piece.h_hi - piece.h_lo)
                    x = piece.x_lo + u * (piece.x_hi - piece.x_lo)
                    if x_lo < x < x_hi:
                        cuts.add(x)
        xs = sorted(cuts)
        pairs = list(zip(xs, xs[1:]))
        if orient < 0:
            pairs.reverse()
        level = target - phase
        if level.denominator != 1:
            raise InvariantViolation("segment landing is off the phase grid")
        word: list = []
        run: Optional[tuple[Fraction, Fraction]] = None

        def flush():
            nonlocal run
            if run is not None:
                word.extend(segment_to_letters(trap, int(level), run[0],
                                               run[1], orient))
                run = None

        for a, b in pairs:
            mid = (a + b) / 2
            if chart.top_height(mid) > target:
                if run is None:
                    run = (a, b)
                else:
                    run = (min(run[0], a), max(run[1], b))
                continue
            flush()
            piece = next(p for p in chart.top
                         if p.x_lo <= a and b <= p.x_hi)
            pos_a, pos_b = sorted((piece.skew_position(a),
                                   piece.skew_position(b)))
            shift = piece.skew_position(a) * Fraction(z.get(piece.skew, 0)) \
                - piece.height_at(a)
            above = complex_.trap_above[piece.skew].name
            word.extend(flow_segment(above, pos_a, pos_b, target + shift,
                                     orient * piece.sign, depth + 1))
        flush()
        return tuple(word)

    edge_images = {}
    for name, rec in section.edge_records.items():
        target = phase + rec.level + 1
        edge_images[name] = flow_segment(rec.trap, rec.x_lo, rec.x_hi,
                                         target, 1)
    return GraphMap(section.graph, section.graph,
                    dict(section.vertex_return), edge_images)


# ---------------------------------------------------------------------------
# monodromy


@dataclass
class MonodromyData:
    """The first return map read on the fundamental group of the section."""

    generators: tuple[str, ...]
    automorphism: FreeGroupMap
    tree: SpanningTree
    basepoint: str


def _tree_from_edges(graph: Graph, edge_names: Sequence[str], root: str
                     ) -> SpanningTree:
    chosen = set(edge_names)
    unknown = chosen - set(graph.edge_names)
    if unknown:
        raise InvariantViolation(f"unknown tree edges {sorted(unknown)!r}")
    if len(chosen) != len(graph.vertices) - 1:
        raise InvariantViolation(
            "a spanning tree needs one edge less than the vertex count")
    paths: dict[str, Word] = {root: ()}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for lt in graph.directions(v):
                if lt[0] not in chosen:
                    continue
                w = graph.term_of(lt)
                if w not in paths:
                    paths[w] = paths[v] + (lt,)
                    nxt.append(w)
        frontier = nxt
    if len(paths) != len(graph.vertices):
        raise InvariantViolation("the chosen edges do not span the graph")
    return SpanningTree(root, frozenset(chosen), paths)


def _graph_monodromy(graph: Graph, return_map: GraphMap, root: str,
                     tree: SpanningTree) -> MonodromyData:
    gens = tuple(sorted(name for name in graph.edge_names
                        if name not in tree.tree_edges))
    images = []
    for gen in gens:
        init = graph.init_of((gen, 1))
        term = graph.term_of((gen, 1))
        loop = tree.path(root, init) + ((gen, 1),) + tree.path(term, root)
        images.append(collapse_word(tree, return_map.apply_path(loop)))
    fmap = FreeGroupMap(gens, gens, tuple(images))
    return MonodromyData(gens, fmap, tree, root)


def monodromy(section: SectionGraph, return_map: GraphMap,
              tree_edges: Optional[Sequence[str]] = None,
              basepoint: Optional[str] = None) -> MonodromyData:
    """Outer automorphism induced by the first return map.

    Collapses a spanning tree — the supplied one, else breadth-first from
    the basepoint — and reads each non-tree edge's image as a word in the
    non-tree edges.
    """
    graph = section.graph
    if len(section.components) != 1:
        raise DisconnectedGraphError(
            f"section has {len(section.components)} components: "
            + "; ".join(",".join(c[:3]) + ("..." if len(c) > 3 else "")
                        for c in section.components))
    root = basepoint if basepoint is not None else section.basepoint
    if root is None or root not in graph.vertices:
        raise InvariantViolation("section has no usable basepoint")
    if tree_edges is None:
        tree = spanning_tree(graph, root)
    else:
        tree = _tree_from_edges(graph, tree_edges, root)
    return _graph_monodromy(graph, return_map, root, tree)


# ---------------------------------------------------------------------------
# the canonical line-family presentation


def flip_rename(graph: Graph, self_map: GraphMap,
                names: Mapping[str, str]) -> tuple[Graph, GraphMap]:
    """Rename every edge and reverse its orientation.

    Under the reversal a positive letter of the old graph becomes a
    negative letter of the new one, so the image of a renamed edge is the
    old image word reversed with signs kept.
    """
    flipped = Graph(graph.vertices,
                    tuple(sorted((names[n], term, init)
                                 for n, init, term in graph.edges)))
    images = {names[n]: tuple((names[m], s) for m, s in
                              reversed(self_map.edge_images[n]))
              for n in graph.edge_names}
    return flipped, GraphMap(flipped, flipped, dict(self_map.vertex_map),
                             images)


def _line_names(return_map: GraphMap) -> tuple[dict[str, str], int]:
    """Canonical edge names of a line-family section, from its dynamics.

    Works on the reversed (canonical-orientation) first return words.  The
    unique edge with a single inverted image letter anchors four chains of
    single-letter images; the leftover three edges are the skew crossing
    and the two subdivision loops.  Every step is validated, so a return
    map without the expected shape is rejected loudly.
    """
    words = {n: tuple(reversed(return_map.edge_images[n]))
             for n in return_map.domain.edge_names}

    def crash(reason: str):
        raise InvariantViolation(
            f"return map does not have the line-family shape: {reason}")

    anchors = [n for n, w in words.items() if len(w) == 1 and w[0][1] < 0]
    if len(anchors) != 1:
        crash(f"{len(anchors)} edges with inverted single-letter images")
    chain2 = [anchors[0]]
    while True:
        prev = [n for n, w in words.items()
                if len(w) == 1 and w[0] == (chain2[0], 1)]
        if not prev:
            break
        if len(prev) > 1:
            crash(f"single-letter predecessors of {chain2[0]} not unique")
        chain2.insert(0, prev[0])

    def follow(start: str, stop_len: int) -> list[str]:
        chain = [start]
        while len(words[chain[-1]]) == 1:
            letter = words[chain[-1]][0]
            if letter[1] < 0:
                crash(f"chain from {start} hits an inverted letter")
            chain.append(letter[0])
        if len(words[chain[-1]]) != stop_len:
            crash(f"chain from {start} ends with "
                  f"{len(words[chain[-1]])} letters, wanted {stop_len}")
        return chain

    e4_first = words[anchors[0]][0][0]
    chain4 = follow(e4_first, 2)
    s2, e1 = (lt[0] for lt in words[chain4[-1]])
    if any(s < 0 for _, s in words[chain4[-1]]):
        crash("two-letter image of the last right chain edge has inverses")
    if len(words[e1]) != 1 or words[e1][0][1] < 0:
        crash("the spiral edge image is not a single positive letter")
    chain3 = follow(words[e1][0][0], 3)
    t1 = words[chain3[-1]][0][0]
    if [lt for lt in words[chain3[-1]]][1:] != \
            [(chain3[0], 1), (chain2[0], 1)]:
        crash("three-letter image of the last left chain edge is wrong")
    chaint = follow(t1, 3)
    s1 = words[chaint[-1]][0][0]
    if [lt for lt in words[chaint[-1]]][1:] != [(e1, 1), (chain4[0], 1)]:
        crash("three-letter image of the last loop chain edge is wrong")
    if words[s2] != ((chaint[0], 1),):
        crash("the skew edge does not map onto the first loop edge")
    if words[s1] != ((chain2[0], 1), (chaint[0], 1)):
        crash("the subdivision edge image is wrong")
    k = len(chain2) - 1
    if not (len(chain3) == len(chain4) == len(chaint) == k + 1):
        crash("chain lengths disagree")
    names = {e1: "e1", s1: "s1", s2: "s2"}
    for i, n in enumerate(chain2, start=1):
        names[n] = f"e2_{i}"
    for i, n in enumerate(chain3, start=1):
        names[n] = f"e3_{i}"
    for i, n in enumerate(chain4, start=1):
        names[n] = f"e4_{i}"
    for i, n in enumerate(chaint, start=1):
        names[n] = f"t{i}"
    if len(names) != len(words) or len(set(names.values())) != len(names):
        crash("canonical names do not cover the edges bijectively")
    return names, k


@dataclass
class LineSection:
    """A line-family section with its canonical names and monodromy.

    ``graph`` and ``table`` carry the renamed, reoriented section and
    first return map; ``names`` maps raw edge names to canonical ones;
    the spanning tree for the monodromy is the union of the chain edges.
    """

    k: int
    section: SectionGraph
    return_map: GraphMap
    names: dict[str, str]
    graph: Graph
    table: GraphMap
    tree_edges: tuple[str, ...]
    monodromy: MonodromyData


def line_section(complex_: TrapComplex, k: int, phase=Fraction(1, 2)
                 ) -> LineSection:
    """Section, canonical first return table, and monodromy for the k-th
    member of the cocycle line family of the complex."""
    from .cohomology import line_family_cocycle
    z = line_family_cocycle(complex_, k)
    section = build_section(complex_, z, phase)
    if len(section.components) != 1:
        raise DisconnectedGraphError(
            f"line-family section has {len(section.components)} components")
    return_map = first_return(section)
    names, k_found = _line_names(return_map)
    if k_found != k:
        raise InvariantViolation(
            f"section dynamics give chain length {k_found + 1}, "
            f"expected {k + 1}")
    graph, table = flip_rename(section.graph, return_map, names)
    tree_edges = tuple(sorted(n for n in graph.edge_names
                              if n.startswith("e")))
    tree = _tree_from_edges(graph, tree_edges, section.basepoint)
    data = _graph_monodromy(graph, table, section.basepoint, tree)
    return LineSection(k, section, return_map, names, graph, table,
                       tree_edges, data)


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
    graph = section.graph
    skew_crossings = sum(section.cocycle.get(s.name, 0)
                         for s in section.complex.skews)
    valences: dict[int, int] = {}
    for v in graph.vertices:
        val = graph.valence(v)
        valences[val] = valences.get(val, 0) + 1
    illegal: Optional[int] = None
    if return_map is not None:
        from .traintrack import illegal_turns
        illegal = 0
        for turn in illegal_turns(return_map):
            base = graph.init_of(sorted(turn)[0])
            if graph.valence(base) == 3:
                illegal += 1
    n_edges = len(graph.edge_names)
    n_vertices = len(graph.vertices)
    rank = n_edges - n_vertices + len(section.components)
    return SectionAudit(n_vertices, n_edges, rank, len(section.components),
                        skew_crossings, tuple(sorted(valences.items())),
                        illegal)


def crossing_rank(complex_: TrapComplex, cocycle: Mapping) -> int:
    """First Betti number of the level-set graph, from crossing data alone.

    Every level arc inside a trapezoid is an interval with both endpoints on
    the trapezoid boundary, so the arc count is half the total number of
    boundary crossings.  With vertices given by the 1-cell crossings this
    yields the Euler characteristic without building the section.  The
    returned value ``edges - vertices + 1`` is the rank for a connected
    level set (a primitive class); a class divisible by ``d`` has ``d``
    components and rank ``d - 1`` higher.
    """
    vertices = sum(cocycle.get(name, 0) for name in complex_.one_cell_names)
    boundary_crossings = 0
    for trap in complex_.trapezoids:
        boundary_crossings += cocycle.get(trap.bottom, 0)
        for name in trap.left:
            boundary_crossings += cocycle.get(name, 0)
        for name in trap.right:
            boundary_crossings += cocycle.get(name, 0)
        for piece in trap.top:
            boundary_crossings += cocycle.get(piece.skew, 0)
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
    return "vertical" if cell in {v.name for v in section.complex.verticals} \
        else "skew"


def section_dot(section: SectionGraph) -> str:
    """Graphviz export with vertices colored by their host 1-cell kind."""
    lines = ["digraph section {"]
    for v in section.graph.vertices:
        color = _HOST_COLORS[host_kind(section, v)]
        lines.append(f'  "{v}" [color={color}];')
    for name in section.graph.edge_names:
        rec = section.edge_records[name]
        lines.append(f'  "{rec.init}" -> "{rec.term}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
