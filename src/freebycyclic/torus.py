"""Folded mapping torus as a complex of trapezoids.

The fold sequence of a graph self-map stacks its stages into a solid torus
cell structure: 0-cells are base vertices and fold events, 1-cells are
vertical flow segments between 0-cells plus one diagonal "skew" per fold,
and 2-cells are trapezoids, one above each skew, swept out by flowing the
folded edge upward until every horizontal slice has crossed another skew.
Heights count fold windows; wrapping through the terminal isomorphism
returns flow to the base level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .errors import (InvariantViolation, IterationBudgetError, NotACycleError,
                     NotIrreducibleError, RiserError)
from .folding import FoldSequence
from .graphs import GraphMap, reachable
from .traintrack import is_irreducible, transition_matrix
from .words import Letter, letter_of, letters


@dataclass(frozen=True)
class ZeroCell:
    name: str
    vertex: str
    stage: int


@dataclass
class Vertical:
    name: str
    start: str
    end: str
    span: int            # fold windows crossed


@dataclass
class SkewCell:
    name: str
    index: int
    kind: str            # "strict" | "offset"
    bottom: str          # coordinate-0 endpoint (fold vertex end)
    top: str             # coordinate-1 endpoint (merged end)
    rise: int            # 1 for strict folds, 0 for head-to-tail folds
    edge: str            # surviving edge name in the post-fold stage
    direction: Letter    # kept direction in the pre-fold stage


@dataclass
class TopPiece:
    skew: str
    sign: int
    x_lo: Fraction
    x_hi: Fraction


@dataclass
class Trapezoid:
    name: str
    bottom: str                                  # skew name
    left: tuple[str, ...]                        # vertical names, bottom-up
    right: tuple[str, ...]
    top: tuple[TopPiece, ...]                    # left to right, contiguous
    corners: tuple[tuple[Fraction, str], ...]    # interior break -> 0-cell


@dataclass(frozen=True)
class Skeleton:
    """Integer incidence data of a trapezoid complex, in fixed cell orders.

    1-cells are the verticals, then the skews.  ``ends[j]`` holds the
    (end, start) 0-cell indices of 1-cell ``j``, ``rows[t]`` the
    (1-cell index, coefficient) pairs of the boundary of 2-cell ``t``, and
    ``boundary_weights[j]`` the number of times 1-cell ``j`` lies on a
    trapezoid boundary, counted over all trapezoids.
    """

    one_cell_names: tuple[str, ...]
    one_index: dict[str, int]
    ends: tuple[tuple[int, int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    boundary_weights: tuple[int, ...]

    @classmethod
    def of(cls, complex_: "TrapComplex") -> "Skeleton":
        """The skeleton read afresh from the cells.

        The row of a trapezoid adds its bottom skew, its right side, minus
        its top pieces (each with its sign) and minus its left side, in
        that order, merging repeated 1-cells and dropping zeros; each of
        those terms adds one to its 1-cell's boundary weight.
        """
        names = tuple(v.name for v in complex_.verticals) + \
            tuple(s.name for s in complex_.skews)
        one_index = {e: j for j, e in enumerate(names)}
        zero_index = {c.name: i for i, c in enumerate(complex_.zero_cells)}
        ends = tuple((zero_index[v.end], zero_index[v.start])
                     for v in complex_.verticals) + \
            tuple((zero_index[s.top], zero_index[s.bottom])
                  for s in complex_.skews)
        rows = []
        weights = [0] * len(names)
        for t in complex_.trapezoids:
            terms = [(t.bottom, 1)] + [(e, 1) for e in t.right] + \
                [(p.skew, -p.sign) for p in t.top] + [(e, -1) for e in t.left]
            row: dict[int, int] = {}
            for e, coef in terms:
                j = one_index[e]
                row[j] = row.get(j, 0) + coef
                weights[j] += 1
            rows.append(tuple((e, coef) for e, coef in row.items() if coef))
        return cls(names, one_index, ends, tuple(rows), tuple(weights))

    @cached_property
    def ties(self) -> tuple[Optional[tuple], ...]:
        """How fixing the 1-cells one at a time, in order, ties 0-cells.

        Fixing 1-cell ``j`` ties its end to its start.  Tied 0-cells form
        classes, each named by a root.  ``ties[j]`` is None when the ends of
        ``j`` are tied already; otherwise it is ``(tail, head, live, raised,
        lowered)``: the roots of the end and the start; the 1-cells ``k``
        that still join two roots, as ``(k, root of end, root of start)``
        ordered by the breadth-first depth of their root of end from
        ``tail``; and the 1-cells with only their end, and those with only
        their start, in ``head``'s class, which then joins ``tail``'s.  The
        order depends on the ends alone.
        """
        root: dict[int, int] = {}  # a 0-cell absent here is its own root
        members: dict[int, list[int]] = {}
        ties: list[Optional[tuple]] = []
        for end, start in self.ends:
            tail, head = root.get(end, end), root.get(start, start)
            if tail == head:
                ties.append(None)
                continue
            live = [(k, root.get(t, t), root.get(h, h))
                    for k, (t, h) in enumerate(self.ends)
                    if root.get(t, t) != root.get(h, h)]
            # in this order one sweep over the arcs relaxes every fewest-arc
            # path from tail
            depth = {tail: 0}
            queue = [tail]
            for v in queue:
                for _k, rt, rh in live:
                    if rt == v and rh not in depth:
                        depth[rh] = depth[v] + 1
                        queue.append(rh)
            live.sort(key=lambda arc: depth.get(arc[1], len(depth)))
            moved = members.pop(head, [head])
            inside = set(moved)
            raised = tuple(k for k, (t, h) in enumerate(self.ends)
                           if t in inside and h not in inside)
            lowered = tuple(k for k, (t, h) in enumerate(self.ends)
                            if h in inside and t not in inside)
            for v in moved:
                root[v] = tail
            members.setdefault(tail, [tail]).extend(moved)
            ties.append((tail, head, tuple(live), raised, lowered))
        return tuple(ties)

    def cochain(self, z: Mapping) -> list:
        """The values of the (co)chain ``z`` on the 1-cells, in order."""
        values = [0] * len(self.one_cell_names)
        index = self.one_index
        try:
            for e, v in z.items():
                values[index[e]] = v
        except KeyError:
            raise InvariantViolation(
                f"unknown 1-cell {min(z.keys() - index.keys())!r}") from None
        return values


@dataclass
class TrapComplex:
    """The cells of a folded mapping torus.

    Every boundary read goes through :attr:`skeleton`, the one incidence
    record, built on first use and cached, so the cells must not change
    after that.  ``validate`` drops the cached skeleton and checks the one
    it reads afresh, and ``skew_loop`` reads the skew ends, so both see the
    cells as they are.
    """

    zero_cells: tuple[ZeroCell, ...]
    verticals: tuple[Vertical, ...]
    skews: tuple[SkewCell, ...]
    trapezoids: tuple[Trapezoid, ...]
    base_cover: dict[str, tuple[str, Fraction, Fraction, int]]
    # base edge -> (trapezoid, x_lo, x_hi, sign) of its unique level-0 crossing

    def __post_init__(self):
        self.cell_by_name = {c.name: c for c in self.zero_cells}
        self.vertical_from = {v.start: v for v in self.verticals}
        self.vertical_by_name = {v.name: v for v in self.verticals}
        self.skew_by_name = {s.name: s for s in self.skews}
        self.trap_by_name = {t.name: t for t in self.trapezoids}
        self.trap_above = {t.bottom: t for t in self.trapezoids}

    @cached_property
    def skeleton(self) -> Skeleton:
        return Skeleton.of(self)

    @property
    def one_cell_names(self) -> tuple[str, ...]:
        return self.skeleton.one_cell_names

    def euler_characteristic(self) -> int:
        return len(self.zero_cells) - len(self.verticals) - len(self.skews) \
            + len(self.trapezoids)


_MAX_SWEEP_STEPS = 200_000  # over all trapezoids, before build_torus gives up


def _require_irreducible(f: GraphMap) -> None:
    """Refuse a map with a proper invariant subgraph: the edges outside it
    are crossed by no image of its edges, so no sweep reaches them."""
    matrix = transition_matrix(f)
    if is_irreducible(matrix):
        return
    succ = [[j for j, _count in row] for row in matrix.entries]
    n = len(succ)
    for i in range(n):  # reducible: some edge does not reach every edge
        inside = reachable((i,), succ.__getitem__)
        if len(inside) < n:
            break
    edges = matrix.edges
    raise NotIrreducibleError(
        f"the map is reducible: edges "
        f"{[edges[i] for i in range(n) if i not in inside]} are crossed by "
        f"no image of an edge of the invariant subgraph "
        f"{[edges[i] for i in sorted(inside)]}")


def build_torus(seq: FoldSequence) -> TrapComplex:
    k = seq.fold_count
    if k == 0:
        raise InvariantViolation(
            "the map folds to an isomorphism with no folds; the torus "
            "construction needs at least one fold window")
    _require_irreducible(seq.original)
    codomain = seq.original.codomain
    h_vmap = seq.final_iso.vertex_map
    # merged[i]: the vertices fold i+1 renames; every other vertex is fixed
    merged = [dict(record.merged_vertices) for record in seq.folds]

    def norm(vertex: str, stage: int) -> tuple[str, int]:
        if stage == k:
            return (h_vmap[vertex], 0)
        return (vertex, stage)

    def cell_name(vs: tuple[str, int]) -> str:
        return f"{vs[0]}.{vs[1]}"

    # ---- skew cells; zero cells: base vertices plus skew endpoints
    cell_set: dict[tuple[str, int], str] = {
        (v, 0): cell_name((v, 0)) for v in codomain.vertices}
    skews: list[SkewCell] = []
    for record in seq.folds:
        i = record.index
        renames = merged[i - 1]
        keep = record.kept
        bottom_vertex, top_vertex = record.kept_ends
        top = norm(renames.get(top_vertex, top_vertex), i)
        if record.kind == "strict":
            bottom = (record.vertex, i - 1)
            rise = 1
        else:
            bottom = norm(renames.get(bottom_vertex, bottom_vertex), i)
            rise = 0
        for endpoint in (bottom, top):
            cell_set[endpoint] = cell_name(endpoint)
        skews.append(SkewCell(f"skew{i}", i, record.kind, cell_name(bottom),
                              cell_name(top), rise, keep[0], keep))
    zero_cells = tuple(ZeroCell(name, vs[0], vs[1])
                       for vs, name in sorted(cell_set.items(),
                                              key=lambda kv: (kv[0][1], kv[0][0])))

    # ---- verticals: walk each 0-cell upward to the next 0-cell
    def walk_vertex(vertex: str, stage: int):
        """(number of fold windows crossed, end cell)."""
        cur, st = vertex, stage
        for span in range(1, k + 2):
            cur = merged[st].get(cur, cur)
            st += 1
            if st == k:
                cur, st = h_vmap[cur], 0
            if (cur, st) in cell_set:
                return span, (cur, st)
        raise InvariantViolation(
            f"vertical walk from {vertex}.{stage} did not close")

    verticals = []
    for cell in zero_cells:
        span, end = walk_vertex(cell.vertex, cell.stage)
        verticals.append(Vertical(f"up:{cell.name}", cell.name,
                                  cell_set[end], span))
    vertical_from = {v.start: v for v in verticals}

    def climb(start: tuple[str, int], target: tuple[str, int]):
        """(the verticals walked up from ``start``, where the walk
        stopped): it stops on reaching ``target`` or on passing its
        height; both are (0-cell, height)."""
        chain = []
        cur, cur_h = start
        while (cur, cur_h) != target and cur_h <= target[1]:
            vert = vertical_from[cur]
            chain.append(vert.name)
            cur, cur_h = vert.end, cur_h + vert.span
        return tuple(chain), (cur, cur_h)

    # endpoint of skew cells with their window heights, for corner matching
    def piece_endpoints(skew: SkewCell, sign: int, h_enter: int):
        if skew.rise == 1:
            lo_cell, lo_h = skew.bottom, h_enter
            hi_cell, hi_h = skew.top, h_enter + 1
        else:
            lo_cell = skew.bottom
            hi_cell = skew.top
            lo_h = hi_h = h_enter + 1
        if sign > 0:
            return (lo_cell, lo_h), (hi_cell, hi_h)
        return (hi_cell, hi_h), (lo_cell, lo_h)

    skew_by_index = {s.index: s for s in skews}
    pieces_of_base = {
        name: letters(seq.subdivision.inclusion.edge_images[name])
        for name in codomain.edge_names
    }

    # ---- sweep one trapezoid per skew
    base_cover: dict[str, tuple[str, Fraction, Fraction, int]] = {}
    trapezoids: list[Trapezoid] = []
    steps = 0
    for skew in skews:
        i = skew.index
        entries = [(skew.edge, skew.direction[1], Fraction(0), Fraction(1), i, 0)]
        hits: list[tuple[Fraction, Fraction, SkewCell, int, int]] = []
        while entries:
            edge, sign, x_lo, x_hi, stage, height = entries.pop()
            steps += 1
            if steps > _MAX_SWEEP_STEPS:
                raise IterationBudgetError(
                    f"trapezoid sweep for {skew.name} exceeded "
                    f"{_MAX_SWEEP_STEPS} steps "
                    "(the flow has an invariant circle missing every skew?)")
            if stage == k:
                base_letter = letter_of(seq.final_iso.edge_images[edge][0])
                base_edge = base_letter[0]
                new_sign = sign * base_letter[1]
                if base_edge in base_cover:
                    raise InvariantViolation(
                        f"base edge {base_edge} crossed twice at the base level")
                base_cover[base_edge] = (f"trap{i}", x_lo, x_hi, new_sign)
                pieces = pieces_of_base[base_edge]
                m = len(pieces)
                width = (x_hi - x_lo) / m
                for t, (piece_name, piece_sign) in enumerate(pieces):
                    if piece_sign != 1:
                        raise InvariantViolation("subdivision piece reversed")
                    slot = t if new_sign > 0 else m - 1 - t
                    entries.append((piece_name, new_sign,
                                    x_lo + slot * width,
                                    x_lo + (slot + 1) * width, 0, height))
                continue
            j = stage + 1
            record = seq.folds[j - 1]
            keep, drop = record.kept, record.dropped
            if edge == keep[0]:
                hits.append((x_lo, x_hi, skew_by_index[j], sign * keep[1], height))
            elif edge == drop[0]:
                hits.append((x_lo, x_hi, skew_by_index[j], sign * drop[1], height))
            else:
                entries.append((edge, sign, x_lo, x_hi, j, height + 1))

        hits.sort(key=lambda hit: hit[0])
        if not hits or hits[0][0] != 0 or hits[-1][1] != 1 or any(
                hits[a][1] != hits[a + 1][0] for a in range(len(hits) - 1)):
            raise InvariantViolation(
                f"top of trap{i} does not tile the interval: "
                f"{[(str(a), str(b)) for a, b, *_ in hits]}")
        top = []
        corners = []
        prev_end: Optional[tuple[str, int]] = None
        for x_lo, x_hi, hit_skew, sign, h_enter in hits:
            start, end = piece_endpoints(hit_skew, sign, h_enter)
            if prev_end is not None:
                if prev_end != start:
                    lower, upper = sorted((prev_end, start),
                                          key=lambda corner: corner[1])
                    chain, reached = climb(lower, upper)
                    if reached == upper:
                        raise RiserError(f"trap{i}", x_lo, lower, upper,
                                         chain)
                    raise InvariantViolation(
                        f"top corner mismatch in trap{i} at x={x_lo}: "
                        f"{prev_end} vs {start}")
                corners.append((x_lo, start[0]))
            top.append(TopPiece(hit_skew.name, sign, x_lo, x_hi))
            prev_end = end

        def walk_chain(cell: str, height: int, target: tuple[str, int],
                       label: str) -> tuple[str, ...]:
            chain, reached = climb((cell, height), target)
            if reached != target:
                raise InvariantViolation(
                    f"{label} side of trap{i} overshot its corner: "
                    f"{reached} beyond {target}")
            return chain

        first_start, _ = piece_endpoints(*hits[0][2:])
        _, last_end = piece_endpoints(*hits[-1][2:])
        bottom_h = -1 if skew.rise == 1 else 0
        left = walk_chain(skew.bottom, bottom_h, first_start, "left")
        right = walk_chain(skew.top, 0, last_end, "right")
        trapezoids.append(Trapezoid(f"trap{i}", skew.name, left, right,
                                    tuple(top), tuple(corners)))

    missing = sorted(set(codomain.edge_names) - set(base_cover))
    if missing:
        raise InvariantViolation(
            f"base edges never crossed at the base level: {missing}")

    complex_ = TrapComplex(zero_cells, tuple(verticals), tuple(skews),
                           tuple(trapezoids), base_cover)
    validate(complex_)
    return complex_


# ---------------------------------------------------------------------------
# validation


def validate(complex_: TrapComplex) -> None:
    problems: list[str] = []
    chi = complex_.euler_characteristic()
    if chi != 0:
        problems.append(f"Euler characteristic {chi} != 0")

    for cell in complex_.zero_cells:
        if cell.name not in complex_.vertical_from:
            problems.append(f"0-cell {cell.name} starts no vertical")

    # every skew: one trapezoid bottom and exactly two top appearances
    bottom_count = {s.name: 0 for s in complex_.skews}
    top_count = {s.name: 0 for s in complex_.skews}
    side_count = {v.name: 0 for v in complex_.verticals}
    for trap in complex_.trapezoids:
        bottom_count[trap.bottom] += 1
        for piece in trap.top:
            top_count[piece.skew] += 1
        for name in trap.left + trap.right:
            side_count[name] += 1
    for s in complex_.skews:
        degree = bottom_count[s.name] + top_count[s.name]
        if bottom_count[s.name] != 1 or top_count[s.name] != 2:
            problems.append(
                f"skew {s.name} has degree {degree} "
                f"({bottom_count[s.name]} bottom, {top_count[s.name]} top), "
                "expected 1 bottom + 2 top")
    for v in complex_.verticals:
        if side_count[v.name] < 2:
            problems.append(
                f"vertical {v.name} borders only {side_count[v.name]} "
                "trapezoid sides (dangling)")

    # boundary of a boundary vanishes, on the cells as they are now: the
    # skeleton read here is the one the complex keeps
    vars(complex_).pop("skeleton", None)
    skeleton = complex_.skeleton
    for trap, row in zip(complex_.trapezoids, skeleton.rows):
        acc = [0] * len(complex_.zero_cells)
        for e, coef in row:
            end, start = skeleton.ends[e]
            acc[end] += coef
            acc[start] -= coef
        if any(acc):
            bad = {c.name: x for c, x in zip(complex_.zero_cells, acc) if x}
            problems.append(f"boundary of {trap.name} is not a cycle: {bad}")

    for edge, cover in complex_.base_cover.items():
        if not (0 <= cover[1] < cover[2] <= 1):
            problems.append(f"base cover of {edge} has a bad interval")

    if problems:
        raise InvariantViolation(
            "mapping torus validation failed:\n  " + "\n  ".join(problems))


# ---------------------------------------------------------------------------
# derived structure


def skew_loop(complex_: TrapComplex) -> dict[str, int]:
    """The 1-cycle σ crossing every skew once; raises if it fails to close.

    Its value on a cochain is the sum over the skews, so every cocycle of
    a class u crosses the skews ⟨u, σ⟩ times in all, whatever the
    representative.
    """
    chain = {s.name: 1 for s in complex_.skews}
    boundary = dict.fromkeys(complex_.cell_by_name, 0)  # in 0-cell order
    for s in complex_.skews:
        boundary[s.top] = boundary.get(s.top, 0) + 1
        boundary[s.bottom] = boundary.get(s.bottom, 0) - 1
    nonzero = {cell: x for cell, x in boundary.items() if x}
    if nonzero:
        raise NotACycleError(f"the skew chain has boundary {nonzero}")
    return chain


def euler_chain(complex_: TrapComplex) -> dict[str, int]:
    """Twice the Euler cycle ε: Σₑ (wₑ − 2)·e, with wₑ the boundary weight
    of 1-cell e; raises, naming the boundary, if it fails to close.

    The level set of a cocycle z ≥ 0 has a vertex at each of its Σ z(e)
    crossings of 1-cells, and its arcs pair up the Σ wₑ·z(e) crossings of
    trapezoid boundaries, so its Euler characteristic is −⟨z, ε⟩.  Where
    the chain closes that is a pairing of classes: ``crossing_rank`` is
    ⟨u, ε⟩ + 1 for every representative of a primitive class u.
    """
    skeleton = complex_.skeleton
    chain = {}
    out = [0] * len(complex_.zero_cells)
    for e, weight, (end, start) in zip(skeleton.one_cell_names,
                                       skeleton.boundary_weights,
                                       skeleton.ends):
        if weight != 2:
            chain[e] = weight - 2
            out[end] += weight - 2
            out[start] -= weight - 2
    nonzero = {c.name: x for c, x in zip(complex_.zero_cells, out) if x}
    if nonzero:
        raise NotACycleError(f"twice the Euler chain has boundary {nonzero}")
    return chain
