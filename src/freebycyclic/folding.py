"""Fold decompositions of graph maps.

Subdivide a map at image preimages so every edge carries a single-edge label,
then repeatedly identify label-equal direction pairs (folds) until the
remaining labelling is a graph isomorphism.  The folds run on one mutable
:class:`WorkingStage`, and each fold is kept as a :class:`FoldRecord` and
nothing else: the record determines the fold map, and the torus construction
and :meth:`FoldSequence.verify` read the records directly.  No intermediate
stage is kept.  The recorded sequence reassembles verbatim into the original
map.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from .errors import FoldStuckError, InvariantViolation
from .graphs import Graph, GraphMap, Subdivision, compose, subdivide_at_preimages
from .words import Letter, char, inverse, inverse_letter, letter_of


def _letter_key(letter: Letter):
    return (letter[0], -letter[1])


@dataclass
class Stage:
    """A graph along the fold sequence, with its labelling over the codomain."""

    graph: Graph
    edge_labels: dict[str, Letter]   # stage edge -> oriented codomain edge
    vertex_labels: dict[str, str]    # stage vertex -> codomain vertex


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
    kept_ends: tuple[str, str]       # its (initial, terminal) vertices there
    dropped: Letter                  # direction identified onto it
    label: Letter                    # common oriented codomain label
    merged_vertices: tuple[tuple[str, str], ...]  # (old name, new name)


Candidate = tuple[str, Letter, Letter, Letter, str]  # vertex, label, d1, d2, kind


def _first_stage(sub: Subdivision) -> Stage:
    return Stage(sub.graph,
                 {name: letter_of(image)
                  for name, image in sub.relabeled.edge_images.items()},
                 dict(sub.relabeled.vertex_map))


def _oriented(ends: dict[str, tuple[str, str]], d: Letter) -> tuple[str, str]:
    """The (initial, terminal) vertices of the direction ``d``."""
    init, term = ends[d[0]]
    return (init, term) if d[1] > 0 else (term, init)


class WorkingStage:
    """The stage being folded, changed in place by each fold.

    Besides the edge ends and the labels it keeps, per vertex, its
    directions grouped by label, each group in ``Graph.directions`` order
    (edge name, forward first), and the set of vertices where some label
    has two directions, so that a strict fold is found without a scan.
    """

    def __init__(self, first: Stage) -> None:
        self.ends = {name: (init, term) for name, init, term in first.graph.edges}
        self.edge_labels = dict(first.edge_labels)
        self.vertex_labels = dict(first.vertex_labels)
        self.buckets: dict[str, dict[Letter, list[Letter]]] = {
            v: {} for v in first.graph.vertices}
        self.repeated: set[str] = set()
        for name, init, term in sorted(first.graph.edges):
            lname, lsign = self.edge_labels[name]
            self._add(init, (lname, lsign), (name, 1))
            self._add(term, (lname, -lsign), (name, -1))

    def _add(self, v: str, label: Letter, d: Letter) -> None:
        group = self.buckets[v].setdefault(label, [])
        # a group never holds both directions of one edge (their labels
        # are inverse), so letter order is edge-name order
        insort(group, d)
        if len(group) > 1:
            self.repeated.add(v)

    def _remove(self, v: str, label: Letter, d: Letter) -> None:
        by_label = self.buckets[v]
        group = by_label[label]
        group.remove(d)
        if not group:
            del by_label[label]
        elif len(group) == 1 and not any(len(g) > 1 for g in by_label.values()):
            self.repeated.discard(v)

    def pick(self) -> Candidate | None:
        """The least fold by (vertex, label, directions), or None when none
        applies.

        A strict fold is two directions at a vertex with one label: the
        least such vertex, its least repeated label and that label's first
        two directions.  When no vertex has one, every label occurs at most
        once per vertex, and an offset fold at v is the direction d2
        labelled L at v with d1 the reverse of the direction labelled L⁻¹
        at v (so d1 ends where d2 starts), on two different edges, at the
        least vertex that has one.
        """
        if self.repeated:
            v = min(self.repeated)
            by_label = self.buckets[v]
            label = min((lt for lt, group in by_label.items() if len(group) > 1),
                        key=_letter_key)
            d1, d2 = by_label[label][:2]
            return (v, label, d1, d2, "strict")
        for v in sorted(self.buckets):
            by_label = self.buckets[v]
            offsets = []
            for label, (d2,) in by_label.items():
                back = by_label.get(inverse_letter(label))
                if back is not None and back[0][0] != d2[0]:
                    offsets.append((label, inverse_letter(back[0]), d2))
            if offsets:
                label, d1, d2 = min(offsets, key=lambda o: _letter_key(o[0]))
                return (v, label, d1, d2, "offset")
        return None

    def fold(self, keep: Letter, drop: Letter) -> tuple[tuple[str, str], ...]:
        """Identify ``drop`` with ``keep`` and return the merged vertices as
        sorted (old name, representative) pairs; the smaller name represents."""
        ends, buckets = self.ends, self.buckets
        # union the initial and then the terminal vertices of the two
        parent: dict[str, str] = {}
        for u, w in zip(_oriented(ends, keep), _oriented(ends, drop)):
            while u in parent:
                u = parent[u]
            while w in parent:
                w = parent[w]
            if u != w:
                lo, hi = (u, w) if u < w else (w, u)
                parent[hi] = lo
        merged = []
        for old in sorted(parent):
            new = parent[old]
            while new in parent:
                new = parent[new]
            if self.vertex_labels[old] != self.vertex_labels[new]:
                raise InvariantViolation(
                    f"fold would merge vertices {old}, {new} with different labels")
            merged.append((old, new))

        name = drop[0]
        init, term = ends.pop(name)
        lname, lsign = self.edge_labels.pop(name)
        self._remove(init, (lname, lsign), (name, 1))
        self._remove(term, (lname, -lsign), (name, -1))
        for old, new in merged:
            for label, group in buckets.pop(old).items():
                for d in group:
                    i, t = ends[d[0]]
                    ends[d[0]] = (new, t) if d[1] > 0 else (i, new)
                    self._add(new, label, d)
            del self.vertex_labels[old]
            self.repeated.discard(old)
        return tuple(merged)

    def stage(self) -> Stage:
        """The current stage as a validated :class:`Stage`."""
        graph = Graph(tuple(sorted(self.vertex_labels)),
                      tuple((name, i, t) for name, (i, t) in self.ends.items()))
        return Stage(graph, dict(self.edge_labels), dict(self.vertex_labels))


@dataclass
class FoldSequence:
    original: GraphMap
    subdivision: Subdivision
    folds: tuple[FoldRecord, ...]    # folds[i]: stage i -> stage i + 1
    final_iso: GraphMap              # last stage -> codomain, bijective

    @property
    def fold_count(self) -> int:
        return len(self.folds)

    def verify(self) -> None:
        """Chase every edge and vertex of the subdivided graph forward
        through the fold records and insist the chain reproduces the
        original map verbatim.

        Each record must drop and keep edges, and merge vertices, that
        are still there at its stage; an edge is dropped at most once and
        a vertex renamed at most once, so the chase is linear.  Four
        checks: the fold count matches the edge loss, ``final_iso`` starts
        at the chased last stage, the labelling pulled back through
        ``final_iso`` equals the subdivision's single-letter labelling,
        and that labelling, built once as a validated ``GraphMap`` and
        composed with the subdivision, gives back the original map.
        """
        first = self.subdivision.graph
        iso = self.final_iso
        if self.fold_count != len(first.edges) - len(iso.domain.edges):
            raise InvariantViolation("fold count does not match edge loss")
        edges = set(first.edge_names)
        vertices = set(first.vertices)
        drops: list[tuple[str, Letter]] = []   # dropped edge -> kept letter
        renames: list[tuple[str, str]] = []

        def claim(alive: set[str], name: str, record: FoldRecord,
                  what: str) -> None:
            if name not in alive:
                raise InvariantViolation(
                    f"fold {record.index} of the fold chain {what} {name!r}, "
                    "which is not in the stage it folds")

        for record in self.folds:
            kept, dropped = record.kept, record.dropped
            claim(edges, dropped[0], record, "drops edge")
            edges.remove(dropped[0])
            claim(edges, kept[0], record, "keeps edge")
            drops.append((dropped[0], (kept[0], kept[1] * dropped[1])))
            for old, new in record.merged_vertices:
                claim(vertices, old, record, "merges vertex")
                vertices.remove(old)
                claim(vertices, new, record, f"merges {old!r} onto vertex")
                renames.append((old, new))
        # where each edge and vertex ends up, resolved from the last fold back
        edge_to: dict[str, Letter] = {name: (name, 1) for name in edges}
        for name, (target, sign) in reversed(drops):
            end, end_sign = edge_to[target]
            edge_to[name] = (end, end_sign * sign)
        vertex_to = {v: v for v in vertices}
        for old, new in reversed(renames):
            vertex_to[old] = vertex_to[new]
        last = Graph(tuple(sorted(vertices)), tuple(
            (name, vertex_to[i], vertex_to[t])
            for name, i, t in first.edges if name in edges))
        if iso.domain != last:
            raise InvariantViolation(
                "final_iso does not start at the last stage of the fold chain")
        labels: dict[str, str] = {}   # subdivided edge -> its one-letter label
        for name, (target, sign) in edge_to.items():
            image = iso.edge_images[target]
            if len(image) != 1:
                raise InvariantViolation(
                    f"final_iso sends edge {target!r} of the fold chain's last "
                    f"stage to {len(image)} letters")
            labels[name] = image if sign > 0 else inverse(image)
        # the chased labelling of the subdivided graph is its own labelling
        for name in first.edge_names:
            if labels[name] != self.subdivision.relabeled.edge_images[name]:
                raise InvariantViolation(
                    f"fold chain mislabels subdivided edge {name}")
        composite = GraphMap(first, iso.codomain,
                             {v: iso.vertex_map[vertex_to[v]]
                              for v in first.vertices},
                             {name: labels[name] for name in first.edge_names})
        total = compose(composite, self.subdivision.inclusion)
        if total.vertex_map != self.original.vertex_map or any(
                total.edge_images[e] != self.original.edge_images[e]
                for e in self.original.domain.edge_names):
            raise InvariantViolation("recomposed fold sequence differs from map")


def decompose(f: GraphMap) -> FoldSequence:
    """Fold the subdivided map down to an isomorphism over the codomain.

    Every step takes the least available fold (:meth:`WorkingStage.pick`):
    strict folds (shared initial vertex) are always preferred, and
    head-to-tail label-equal pairs are folded only when no strict fold
    exists; the direction with the smaller edge name is kept.  Raises
    FoldStuckError when no fold applies and the labelling is not yet a
    graph isomorphism.
    """
    sub = subdivide_at_preimages(f)
    work = WorkingStage(_first_stage(sub))
    folds: list[FoldRecord] = []
    codomain = f.codomain
    for _safety in range(len(sub.graph.edges) + 1):
        cand = work.pick()
        if cand is None:
            break
        vertex, label, d1, d2, kind = cand
        keep, drop = (d1, d2) if d1[0] <= d2[0] else (d2, d1)
        kept_ends = _oriented(work.ends, keep)
        merged = work.fold(keep, drop)
        folds.append(FoldRecord(len(folds) + 1, kind, vertex, keep, kept_ends,
                                drop, label, merged))
    else:
        raise InvariantViolation("fold loop exceeded the edge budget")

    vlabels = work.vertex_labels
    elabel_names = [l[0] for l in work.edge_labels.values()]
    vertex_ok = sorted(vlabels.values()) == sorted(codomain.vertices) and \
        len(set(vlabels.values())) == len(vlabels)
    edge_ok = sorted(elabel_names) == sorted(codomain.edge_names)
    if not (vertex_ok and edge_ok):
        missing = sorted(set(codomain.edge_names) - set(elabel_names))
        raise FoldStuckError(
            "no fold available but the labelling is not an isomorphism "
            f"({len(work.ends)} edges over {len(codomain.edges)}, "
            f"codomain edges never reached: {missing}, vertex labelling "
            f"{'bijective' if vertex_ok else 'not bijective'})")
    last = work.stage()
    final = GraphMap(last.graph, codomain, last.vertex_labels,
                     {name: char(label) for name, label in last.edge_labels.items()})
    seq = FoldSequence(f, sub, tuple(folds), final)
    seq.verify()
    return seq
