"""All-pairs fold candidates and stage-by-stage recomposition: the reference oracle.

The package folds on one working stage, picks the least fold from its
label buckets, and verifies a fold sequence by chasing edges and vertices
forward through the fold records.  This module keeps the code those
replaced: it lists every candidate pair at a stage and sorts them, applies
each fold by building the next validated stage from scratch
(:func:`_apply_fold`, the package's fold step before the working stage),
and verifies by building a validated ``GraphMap`` per fold from its record
and composing them stage by stage.  :func:`stages` replays a package
sequence's records into every stage, which the package never keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from freebycyclic.errors import FoldStuckError, InvariantViolation
from freebycyclic.folding import (Candidate, FoldRecord, FoldSequence, Stage,
                                  WorkingStage, _letter_key)
from freebycyclic.graphs import (Graph, GraphMap, Subdivision, compose,
                                 subdivide_at_preimages)
from freebycyclic.words import Letter, char, letter_of

from helpers import all_directions


@dataclass
class OracleSequence:
    """The oracle's fold sequence, with every stage built eagerly."""

    original: GraphMap
    subdivision: Subdivision
    stages: tuple[Stage, ...]
    folds: tuple[FoldRecord, ...]
    final_iso: GraphMap

    @property
    def fold_count(self) -> int:
        return len(self.folds)


def first_stage(sub: Subdivision) -> Stage:
    """The subdivided graph labelled by its single-letter images."""
    labels = {name: letter_of(image)
              for name, image in sub.relabeled.edge_images.items()}
    return Stage(sub.graph, labels, dict(sub.relabeled.vertex_map))


def stages(seq: FoldSequence | OracleSequence) -> tuple[Stage, ...]:
    """Every stage of a fold sequence, the subdivided graph first: the
    oracle's own, or a package sequence's replayed from its records
    through one :class:`WorkingStage`."""
    if isinstance(seq, OracleSequence):
        return seq.stages
    out = [first_stage(seq.subdivision)]
    work = WorkingStage(out[0])
    for record in seq.folds:
        work.fold(record.kept, record.dropped)
        out.append(work.stage())
    return tuple(out)


def direction_label(stage: Stage, d: Letter) -> Letter:
    name, sign = d
    lname, lsign = stage.edge_labels[name]
    return (lname, lsign * sign)


def strict_candidates(stage: Stage) -> list[Candidate]:
    out: list[Candidate] = []
    for v in sorted(stage.graph.vertices):
        dirs = stage.graph.directions(v)
        by_label: dict = {}
        for d in dirs:
            by_label.setdefault(direction_label(stage, d), []).append(d)
        for label in sorted(by_label, key=_letter_key):
            group = by_label[label]
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    out.append((v, label, group[i], group[j], "strict"))
    return out


def offset_candidates(stage: Stage) -> list[Candidate]:
    """Label-equal directions lined up head to tail (d1 ends where d2 starts)."""
    graph = stage.graph
    out: list[Candidate] = []
    dirs = sorted(all_directions(graph), key=_letter_key)
    for d1 in dirs:
        for d2 in dirs:
            if d1[0] == d2[0]:
                continue  # never fold an edge onto itself
            if direction_label(stage, d1) != direction_label(stage, d2):
                continue
            if graph.term_of(d1) != graph.init_of(d2):
                continue
            out.append((graph.term_of(d1), direction_label(stage, d1),
                        d1, d2, "offset"))
    out.sort(key=lambda c: (c[0], _letter_key(c[1]),
                            _letter_key(c[2]), _letter_key(c[3])))
    return out


def pick_fold(stage: Stage) -> Candidate | None:
    candidates = strict_candidates(stage) or offset_candidates(stage)
    return candidates[0] if candidates else None


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
    kept_ends = (graph.init_of(keep), graph.term_of(keep))
    return new_stage, FoldRecord(index, kind, vertex, keep, kept_ends, drop,
                                 label, merged)


def fold_map(before: Stage, after: Stage, record: FoldRecord) -> GraphMap:
    """The fold map of ``record`` from ``before`` to ``after``, validated."""
    kept, dropped = record.kept, record.dropped
    images = {name: char((name, 1)) for name in before.graph.edge_names}
    images[dropped[0]] = char((kept[0], kept[1] * dropped[1]))
    vertex_map = {v: v for v in before.graph.vertices}
    vertex_map.update(record.merged_vertices)
    return GraphMap(before.graph, after.graph, vertex_map, images)


def verify(seq: FoldSequence | OracleSequence) -> None:
    """Recompose the chain one stage at a time and insist it reproduces the
    original verbatim."""
    chain = stages(seq)
    if seq.fold_count != (len(chain[0].graph.edges)
                          - len(chain[-1].graph.edges)):
        raise InvariantViolation("fold count does not match edge loss")
    composite = seq.final_iso
    for record in reversed(seq.folds):
        i = record.index
        composite = compose(composite,
                            fold_map(chain[i - 1], chain[i], record))
    for name in chain[0].graph.edge_names:
        if composite.edge_images[name] != \
                seq.subdivision.relabeled.edge_images[name]:
            raise InvariantViolation(
                f"fold chain mislabels subdivided edge {name}")
    total = compose(composite, seq.subdivision.inclusion)
    if total.vertex_map != seq.original.vertex_map or any(
            total.edge_images[e] != seq.original.edge_images[e]
            for e in seq.original.domain.edge_names):
        raise InvariantViolation("recomposed fold sequence differs from map")


def fold_chain(sub: Subdivision) -> tuple[list[Stage], list[FoldRecord]]:
    """Fold with :func:`pick_fold` until no fold applies, stuck or not."""
    stage = first_stage(sub)
    chain = [stage]
    folds: list[FoldRecord] = []
    while (cand := pick_fold(stage)) is not None:
        stage, record = _apply_fold(stage, cand, len(folds) + 1)
        chain.append(stage)
        folds.append(record)
    return chain, folds


def decompose(f: GraphMap) -> OracleSequence:
    """The fold sequence with every pick made by :func:`pick_fold`."""
    sub = subdivide_at_preimages(f)
    chain, folds = fold_chain(sub)
    stage = chain[-1]
    codomain = f.codomain
    vlabels = stage.vertex_labels
    if sorted(vlabels.values()) != sorted(codomain.vertices) or \
            len(set(vlabels.values())) != len(vlabels) or \
            sorted(l[0] for l in stage.edge_labels.values()) != \
            sorted(codomain.edge_names):
        raise FoldStuckError("no fold available but the labelling is not an "
                             "isomorphism")
    final = GraphMap(stage.graph, codomain, dict(vlabels),
                     {name: char(label) for name, label in stage.edge_labels.items()})
    seq = OracleSequence(f, sub, tuple(chain), tuple(folds), final)
    verify(seq)
    return seq
