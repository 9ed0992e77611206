"""Fold decompositions of graph maps.

Subdivide a map at image preimages so every edge carries a single-edge label,
then repeatedly identify label-equal direction pairs (folds) until the
remaining labelling is a graph isomorphism.  The recorded sequence
reassembles verbatim into the original map and drives the mapping torus
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FoldStuckError, InvariantViolation
from .graphs import Graph, GraphMap, Subdivision, compose, subdivide_at_preimages
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
        """Chase the subdivided graph through the fold maps and insist the
        chain reproduces the original map verbatim.

        Every fold map and ``final_iso`` send each edge to a single letter,
        so the codomain label of every edge and vertex is pulled back one
        map at a time, from ``final_iso`` to the subdivided graph, as one
        oriented letter or one name; no per-stage composite is built.
        Three checks: the fold count matches the edge loss, the
        chased labelling equals the subdivision's single-letter labelling,
        and that labelling, built once as a validated ``GraphMap`` and
        composed with the subdivision, gives back the original map.
        """
        if self.fold_count != (len(self.stages[0].graph.edges)
                               - len(self.stages[-1].graph.edges)):
            raise InvariantViolation("fold count does not match edge loss")
        chain = (*self.maps, self.final_iso)
        for step, (q, nxt) in enumerate(zip(chain, chain[1:]), start=1):
            if q.codomain != nxt.domain:
                raise InvariantViolation(
                    f"fold map {step} does not end where the next map starts")
        # pull the codomain labelling back one map at a time, last map first
        labels: dict[str, Letter] = {
            name: (name, 1) for name in self.final_iso.codomain.edge_names}
        vertex_labels = {v: v for v in self.final_iso.codomain.vertices}
        for step in range(len(chain), 0, -1):
            q = chain[step - 1]
            pulled: dict[str, Letter] = {}
            for name, _init, _term in q.domain.edges:
                img = q.edge_images.get(name, ())
                if len(img) != 1 or img[0][0] not in labels:
                    raise InvariantViolation(
                        f"map {step} of the fold chain does not send edge "
                        f"{name!r} to a single edge")
                ((target, sign),) = img
                label, label_sign = labels[target]
                pulled[name] = (label, label_sign * sign)
            pulled_vertices: dict[str, str] = {}
            for v in q.domain.vertices:
                image = q.vertex_map.get(v)
                if image not in vertex_labels:
                    raise InvariantViolation(
                        f"map {step} of the fold chain sends vertex {v!r} "
                        f"to no vertex of the next stage")
                pulled_vertices[v] = vertex_labels[image]
            labels, vertex_labels = pulled, pulled_vertices
        composite = GraphMap(chain[0].domain, self.final_iso.codomain,
                             vertex_labels,
                             {name: (lt,) for name, lt in labels.items()})
        # the composite over the subdivided graph is the single-letter labelling
        for name in self.stages[0].graph.edge_names:
            if composite.edge_images.get(name) != \
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


def _pick_fold(stage: Stage, policy: str) -> Candidate | None:
    """The fold ``policy`` takes at this stage, or None when none applies.

    "lex" takes the least candidate by (vertex, label, directions) and
    "reverse" the greatest, so only the first vertex in policy order that
    has a fold is examined, and at it the least or greatest label.  A
    strict fold is two directions at a vertex with one label.  When no
    vertex has one, every label occurs at most once per vertex, and an
    offset fold at v is the direction d2 labelled L at v with d1 the
    reverse of the direction labelled L⁻¹ at v (so d1 ends where d2
    starts), on two different edges.
    """
    graph = stage.graph
    last = policy == "reverse"
    pick = max if last else min
    by_vertex: list[tuple[str, dict[Letter, list[Letter]]]] = []
    for v in sorted(graph.vertices, reverse=last):
        by_label: dict[Letter, list[Letter]] = {}
        for d in graph.directions(v):
            by_label.setdefault(stage.direction_label(d), []).append(d)
        by_vertex.append((v, by_label))
        repeated = [label for label, group in by_label.items() if len(group) > 1]
        if repeated:
            label = pick(repeated, key=_letter_key)
            group = by_label[label]
            d1, d2 = group[-2:] if last else group[:2]
            return (v, label, d1, d2, "strict")
    for v, by_label in by_vertex:
        offsets = []
        for label, (d2,) in by_label.items():
            back = by_label.get((label[0], -label[1]))
            if back is not None and back[0][0] != d2[0]:
                offsets.append((label, (back[0][0], -back[0][1]), d2))
        if offsets:
            label, d1, d2 = pick(offsets, key=lambda o: _letter_key(o[0]))
            return (v, label, d1, d2, "offset")
    return None


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
        cand = _pick_fold(stage, policy)
        if cand is None:
            break
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

