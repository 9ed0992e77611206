"""Fold decompositions of graph maps.

Subdivide a map at image preimages so every edge carries a single-edge label,
then repeatedly identify label-equal direction pairs (folds) until the
remaining labelling is a graph isomorphism.  The recorded sequence
reassembles verbatim into the original map and drives the mapping torus
construction.  Also provides the single-crossing auxiliary digraph with its
acyclicity check.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import FoldStuckError, InvariantViolation
from .graphs import Graph, GraphMap, Subdivision, compose, subdivide_at_preimages
from .traintrack import transition_matrix
from .words import Letter, format_word


def _letter_key(letter: Letter):
    return (letter[0], -letter[1])


def format_letter(letter: Letter) -> str:
    return format_word((letter,))


@dataclass
class Stage:
    """A graph along the fold sequence, with its labelling over the codomain."""

    graph: Graph
    edge_labels: dict[str, Letter]   # stage edge -> oriented codomain edge
    vertex_labels: dict[str, str]    # stage vertex -> codomain vertex

    def direction_label(self, d: Letter) -> Letter:
        name, sign = d
        lname, lsign = self.edge_labels[name]
        return (lname, lsign * sign)


@dataclass
class FoldRecord:
    index: int                       # 1-based position in the sequence
    kind: str                        # "strict" | "offset"
    vertex: str                      # shared vertex in the previous stage
    kept: Letter                     # surviving direction (previous stage)
    dropped: Letter                  # direction identified onto it
    label: Letter                    # common oriented codomain label
    merged_vertices: tuple[tuple[str, str], ...]  # (old name, new name)


@dataclass
class FoldSequence:
    original: GraphMap
    subdivision: Subdivision
    stages: tuple[Stage, ...]        # stages[0] is the subdivided graph
    folds: tuple[FoldRecord, ...]
    maps: tuple[GraphMap, ...]       # maps[i]: stages[i].graph -> stages[i+1].graph
    final_iso: GraphMap              # last stage -> codomain, bijective

    @property
    def fold_count(self) -> int:
        return len(self.folds)

    def verify(self) -> None:
        """Recompose the chain and insist it reproduces the original verbatim."""
        if self.fold_count != (len(self.stages[0].graph.edges)
                               - len(self.stages[-1].graph.edges)):
            raise InvariantViolation("fold count does not match edge loss")
        composite = self.final_iso
        for q in reversed(self.maps):
            composite = compose(composite, q)
        # the composite over the subdivided graph is the single-letter labelling
        for name in self.stages[0].graph.edge_names:
            if composite.edge_images[name] != \
                    self.subdivision.relabeled.edge_images[name]:
                raise InvariantViolation(
                    f"fold chain mislabels subdivided edge {name}")
        total = compose(composite, self.subdivision.inclusion)
        if total.vertex_map != self.original.vertex_map or any(
                total.edge_images[e] != self.original.edge_images[e]
                for e in self.original.domain.edge_names):
            raise InvariantViolation("recomposed fold sequence differs from map")

    def to_json(self) -> dict:
        def stage_json(stage: Stage) -> dict:
            return {
                "vertices": list(stage.graph.vertices),
                "edges": [[name, init, term,
                           format_letter(stage.edge_labels[name])]
                          for name, init, term in stage.graph.edges],
                "vertex_labels": dict(sorted(stage.vertex_labels.items())),
            }

        return {
            "fold_count": self.fold_count,
            "stages": [stage_json(s) for s in self.stages],
            "folds": [{
                "index": r.index,
                "kind": r.kind,
                "vertex": r.vertex,
                "kept": format_letter(r.kept),
                "dropped": format_letter(r.dropped),
                "label": format_letter(r.label),
                "merged_vertices": [list(p) for p in r.merged_vertices],
            } for r in self.folds],
            "final_iso": {
                "vertices": dict(sorted(self.final_iso.vertex_map.items())),
                "edges": {e: format_word(self.final_iso.edge_images[e])
                          for e in self.final_iso.domain.edge_names},
            },
        }


Candidate = tuple[str, Letter, Letter, Letter, str]  # vertex, label, d1, d2, kind


def _strict_candidates(stage: Stage) -> list[Candidate]:
    out: list[Candidate] = []
    for v in sorted(stage.graph.vertices):
        dirs = stage.graph.directions(v)
        by_label: dict[Letter, list[Letter]] = {}
        for d in dirs:
            by_label.setdefault(stage.direction_label(d), []).append(d)
        for label in sorted(by_label, key=_letter_key):
            group = by_label[label]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.append((v, label, group[i], group[j], "strict"))
    return out


def _offset_candidates(stage: Stage) -> list[Candidate]:
    """Label-equal directions lined up head to tail (d1 ends where d2 starts)."""
    graph = stage.graph
    out: list[Candidate] = []
    dirs = sorted(graph.all_directions(), key=_letter_key)
    for d1 in dirs:
        for d2 in dirs:
            if d1[0] == d2[0]:
                continue  # never fold an edge onto itself
            if stage.direction_label(d1) != stage.direction_label(d2):
                continue
            if graph.term_of(d1) != graph.init_of(d2):
                continue
            out.append((graph.term_of(d1), stage.direction_label(d1),
                        d1, d2, "offset"))
    out.sort(key=lambda c: (c[0], _letter_key(c[1]),
                            _letter_key(c[2]), _letter_key(c[3])))
    return out


def _apply_fold(stage: Stage, cand: Candidate, index: int
                ) -> tuple[Stage, GraphMap, FoldRecord]:
    vertex, label, d1, d2, kind = cand
    graph = stage.graph
    # keep the direction with the smaller edge name
    keep, drop = (d1, d2) if d1[0] <= d2[0] else (d2, d1)

    parent = {v: v for v in graph.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: str, v: str) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            # smaller name becomes the representative
            lo, hi = sorted((ru, rv))
            parent[hi] = lo

    union(graph.init_of(keep), graph.init_of(drop))
    union(graph.term_of(keep), graph.term_of(drop))

    rep = {v: find(v) for v in graph.vertices}
    merged = tuple(sorted((old, new) for old, new in rep.items() if old != new))
    for old, new in merged:
        if stage.vertex_labels[old] != stage.vertex_labels[new]:
            raise InvariantViolation(
                f"fold would merge vertices {old}, {new} with different labels")

    drop_edge = drop[0]
    new_vertices = tuple(sorted(set(rep.values())))
    new_edges = tuple((name, rep[i], rep[t]) for name, i, t in graph.edges
                      if name != drop_edge)
    new_graph = Graph(new_vertices, new_edges)
    new_labels = {n: l for n, l in stage.edge_labels.items() if n != drop_edge}
    new_vlabels = {v: stage.vertex_labels[v] for v in new_vertices}
    new_stage = Stage(new_graph, new_labels, new_vlabels)

    images = {name: ((name, 1),) for name, _i, _t in graph.edges
              if name != drop_edge}
    images[drop_edge] = ((keep[0], keep[1] * drop[1]),)
    q = GraphMap(graph, new_graph, dict(rep), images)
    record = FoldRecord(index, kind, vertex, keep, drop, label, merged)
    return new_stage, q, record


def decompose(f: GraphMap, policy: str = "lex") -> FoldSequence:
    """Fold the subdivided map down to an isomorphism over the codomain.

    ``policy`` picks among simultaneously available folds: "lex" takes the
    least candidate by (vertex, label, directions), "reverse" the greatest.
    Strict folds (shared initial vertex) are always preferred; head-to-tail
    label-equal pairs are folded only when no strict fold exists.  Raises
    FoldStuckError when no fold applies and the labelling is not yet a graph
    isomorphism.
    """
    if policy not in ("lex", "reverse"):
        raise InvariantViolation(f"unknown fold policy: {policy}")
    sub = subdivide_at_preimages(f)
    labels = {name: images[0]
              for name, images in sub.relabeled.edge_images.items()}
    stage = Stage(sub.graph, labels, dict(sub.relabeled.vertex_map))
    stages = [stage]
    folds: list[FoldRecord] = []
    maps: list[GraphMap] = []
    codomain = f.codomain
    for _safety in range(len(sub.graph.edges) + 1):
        candidates = _strict_candidates(stage) or _offset_candidates(stage)
        if not candidates:
            break
        cand = candidates[0] if policy == "lex" else candidates[-1]
        stage, q, record = _apply_fold(stage, cand, len(folds) + 1)
        stages.append(stage)
        maps.append(q)
        folds.append(record)
    else:
        raise InvariantViolation("fold loop exceeded the edge budget")

    vlabels = stage.vertex_labels
    elabel_names = [l[0] for l in stage.edge_labels.values()]
    vertex_ok = sorted(vlabels.values()) == sorted(codomain.vertices) and \
        len(set(vlabels.values())) == len(vlabels)
    edge_ok = sorted(elabel_names) == sorted(codomain.edge_names)
    if not (vertex_ok and edge_ok):
        missing = sorted(set(codomain.edge_names) - set(elabel_names))
        raise FoldStuckError(
            "no fold available but the labelling is not an isomorphism "
            f"({len(stage.graph.edges)} edges over {len(codomain.edges)}, "
            f"codomain edges never reached: {missing}, vertex labelling "
            f"{'bijective' if vertex_ok else 'not bijective'})")
    final = GraphMap(stage.graph, codomain, dict(vlabels),
                     {name: (label,) for name, label in stage.edge_labels.items()})
    seq = FoldSequence(f, sub, tuple(stages), tuple(folds), tuple(maps), final)
    seq.verify()
    return seq


# ---------------------------------------------------------------------------
# auxiliary single-crossing digraph


@dataclass
class AuxGraph:
    """Arc e -> e' when the image of e crosses e' exactly once and no other
    edge image crosses e' at all."""

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]


def aux_graph(f: GraphMap) -> AuxGraph:
    matrix = transition_matrix(f)
    n = len(matrix.edges)
    column_sum = [0] * n
    source = [0] * n  # a row with a nonzero entry in the column
    for i, row in enumerate(matrix.entries):
        for j, count in row:
            column_sum[j] += count
            source[j] = i
    arcs = [(matrix.edges[source[j]], matrix.edges[j])
            for j in range(n) if column_sum[j] == 1]
    return AuxGraph(matrix.edges, tuple(sorted(arcs)))


def check_acyclic(aux: AuxGraph
                  ) -> tuple[bool, tuple[str, ...]]:
    """(True, topological order) or (False, nodes along a cycle)."""
    succ: dict[str, list[str]] = {v: [] for v in aux.nodes}
    indeg = {v: 0 for v in aux.nodes}
    for a, b in aux.arcs:
        succ[a].append(b)
        indeg[b] += 1
    heap = [v for v in aux.nodes if indeg[v] == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == len(aux.nodes):
        return True, tuple(order)
    remaining = {v for v in aux.nodes if v not in set(order)}
    # every remaining node has positive in-degree within `remaining`;
    # walking predecessors must revisit a node, closing a cycle
    pred: dict[str, list[str]] = {v: [] for v in remaining}
    for a, b in aux.arcs:
        if a in remaining and b in remaining:
            pred[b].append(a)
    start = sorted(remaining)[0]
    trail = [start]
    seen_at = {start: 0}
    while True:
        nxt = sorted(pred[trail[-1]])[0]
        if nxt in seen_at:
            cycle = trail[seen_at[nxt]:]
            cycle.reverse()
            return False, tuple(cycle)
        seen_at[nxt] = len(trail)
        trail.append(nxt)
