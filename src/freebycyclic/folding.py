"""Fold decompositions of graph maps.

Subdivide a map at image preimages so every edge carries a single-edge label,
then repeatedly identify label-equal direction pairs (folds) until the
remaining labelling is a graph isomorphism.  Each fold is kept as a
:class:`FoldRecord` and nothing else: the record determines the fold map,
and the torus construction and :meth:`FoldSequence.verify` read the records
directly.  The recorded sequence reassembles verbatim into the original map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FoldStuckError, InvariantViolation
from .graphs import Graph, GraphMap, Subdivision, compose, subdivide_at_preimages
from .words import Letter


def _letter_key(letter: Letter):
    return (letter[0], -letter[1])


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
    """One fold, and with it the fold map from the stage before to the next.

    The map sends ``dropped`` onto ``kept`` (with sign
    ``kept[1] * dropped[1]``), each vertex in ``merged_vertices`` to its
    representative, and fixes every other edge and vertex.
    """

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
    folds: tuple[FoldRecord, ...]    # folds[i]: stages[i] -> stages[i+1]
    final_iso: GraphMap              # last stage -> codomain, bijective

    @property
    def fold_count(self) -> int:
        return len(self.folds)

    def verify(self) -> None:
        """Chase the codomain labelling back through the fold records and
        insist the chain reproduces the original map verbatim.

        ``final_iso`` and every fold send each edge to a single letter, so
        the codomain label of every edge and vertex is pulled back one fold
        at a time, from ``final_iso`` to the subdivided graph, as one
        oriented letter or one name.  Three checks: the fold count matches
        the edge loss, the chased labelling equals the subdivision's
        single-letter labelling, and that labelling, built once as a
        validated ``GraphMap`` and composed with the subdivision, gives
        back the original map.
        """
        if self.fold_count != (len(self.stages[0].graph.edges)
                               - len(self.stages[-1].graph.edges)):
            raise InvariantViolation("fold count does not match edge loss")
        iso = self.final_iso
        if iso.domain != self.stages[-1].graph:
            raise InvariantViolation(
                "final_iso does not start at the last stage of the fold chain")
        # an edge without a single-letter image is left out, so the chase fails
        labels = {name: img[0] for name, img in iso.edge_images.items()
                  if len(img) == 1}
        vertex_labels = dict(iso.vertex_map)
        for record in reversed(self.folds):
            graph = self.stages[record.index - 1].graph
            merged = dict(record.merged_vertices)
            kept, dropped = record.kept, record.dropped
            pulled: dict[str, Letter] = {}
            for name in graph.edge_names:
                target, sign = (kept[0], kept[1] * dropped[1]) \
                    if name == dropped[0] else (name, 1)
                if target not in labels:
                    raise InvariantViolation(
                        f"fold {record.index} of the fold chain sends edge "
                        f"{name!r} to no edge of the next stage")
                label, label_sign = labels[target]
                pulled[name] = (label, label_sign * sign)
            pulled_vertices: dict[str, str] = {}
            for v in graph.vertices:
                image = merged.get(v, v)
                if image not in vertex_labels:
                    raise InvariantViolation(
                        f"fold {record.index} of the fold chain sends vertex "
                        f"{v!r} to no vertex of the next stage")
                pulled_vertices[v] = vertex_labels[image]
            labels, vertex_labels = pulled, pulled_vertices
        # the chased labelling of the subdivided graph is its own labelling
        for name, lt in labels.items():
            if (lt,) != self.subdivision.relabeled.edge_images[name]:
                raise InvariantViolation(
                    f"fold chain mislabels subdivided edge {name}")
        composite = GraphMap(self.stages[0].graph, iso.codomain, vertex_labels,
                             {name: (lt,) for name, lt in labels.items()})
        total = compose(composite, self.subdivision.inclusion)
        if total.vertex_map != self.original.vertex_map or any(
                total.edge_images[e] != self.original.edge_images[e]
                for e in self.original.domain.edge_names):
            raise InvariantViolation("recomposed fold sequence differs from map")


Candidate = tuple[str, Letter, Letter, Letter, str]  # vertex, label, d1, d2, kind


def _pick_fold(stage: Stage) -> Candidate | None:
    """The least fold at this stage by (vertex, label, directions), or None
    when none applies.

    Only the first vertex in name order that has a fold is examined, and at
    it the least label.  A strict fold is two directions at a vertex with
    one label.  When no vertex has one, every label occurs at most once per
    vertex, and an offset fold at v is the direction d2 labelled L at v
    with d1 the reverse of the direction labelled L⁻¹ at v (so d1 ends
    where d2 starts), on two different edges.
    """
    graph = stage.graph
    by_vertex: list[tuple[str, dict[Letter, list[Letter]]]] = []
    for v in sorted(graph.vertices):
        by_label: dict[Letter, list[Letter]] = {}
        for d in graph.directions(v):
            by_label.setdefault(stage.direction_label(d), []).append(d)
        by_vertex.append((v, by_label))
        repeated = [label for label, group in by_label.items() if len(group) > 1]
        if repeated:
            label = min(repeated, key=_letter_key)
            d1, d2 = by_label[label][:2]
            return (v, label, d1, d2, "strict")
    for v, by_label in by_vertex:
        offsets = []
        for label, (d2,) in by_label.items():
            back = by_label.get((label[0], -label[1]))
            if back is not None and back[0][0] != d2[0]:
                offsets.append((label, (back[0][0], -back[0][1]), d2))
        if offsets:
            label, d1, d2 = min(offsets, key=lambda o: _letter_key(o[0]))
            return (v, label, d1, d2, "offset")
    return None


def _apply_fold(stage: Stage, cand: Candidate, index: int
                ) -> tuple[Stage, FoldRecord]:
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
    new_labels = {n: l for n, l in stage.edge_labels.items() if n != drop_edge}
    new_vlabels = {v: stage.vertex_labels[v] for v in new_vertices}
    new_stage = Stage(Graph(new_vertices, new_edges), new_labels, new_vlabels)
    return new_stage, FoldRecord(index, kind, vertex, keep, drop, label, merged)


def decompose(f: GraphMap) -> FoldSequence:
    """Fold the subdivided map down to an isomorphism over the codomain.

    Every step takes the least available fold (:func:`_pick_fold`): strict
    folds (shared initial vertex) are always preferred, and head-to-tail
    label-equal pairs are folded only when no strict fold exists.  Raises
    FoldStuckError when no fold applies and the labelling is not yet a
    graph isomorphism.
    """
    sub = subdivide_at_preimages(f)
    labels = {name: images[0]
              for name, images in sub.relabeled.edge_images.items()}
    stage = Stage(sub.graph, labels, dict(sub.relabeled.vertex_map))
    stages = [stage]
    folds: list[FoldRecord] = []
    codomain = f.codomain
    for _safety in range(len(sub.graph.edges) + 1):
        cand = _pick_fold(stage)
        if cand is None:
            break
        stage, record = _apply_fold(stage, cand, len(folds) + 1)
        stages.append(stage)
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
    seq = FoldSequence(f, sub, tuple(stages), tuple(folds), final)
    seq.verify()
    return seq
