"""All-pairs fold candidates and stage-by-stage recomposition: the reference oracle.

The package picks the least fold by looking only at the first vertex in
name order that has one, and verifies a fold sequence by chasing single
letters back through the fold records.  This module keeps the code those
replaced: it lists every candidate pair at a stage and sorts them, and it
verifies by building a validated ``GraphMap`` per fold from its record and
composing them stage by stage.  ``decompose`` here runs the package's own
fold step (``folding._apply_fold``) on the oracle's pick, so the tests can
compare the two sequences stage by stage.
"""

from __future__ import annotations

from freebycyclic.errors import FoldStuckError, InvariantViolation
from freebycyclic.folding import (Candidate, FoldRecord, FoldSequence, Stage,
                                  _apply_fold, _letter_key)
from freebycyclic.graphs import GraphMap, compose, subdivide_at_preimages


def strict_candidates(stage: Stage) -> list[Candidate]:
    out: list[Candidate] = []
    for v in sorted(stage.graph.vertices):
        dirs = stage.graph.directions(v)
        by_label: dict = {}
        for d in dirs:
            by_label.setdefault(stage.direction_label(d), []).append(d)
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


def pick_fold(stage: Stage) -> Candidate | None:
    candidates = strict_candidates(stage) or offset_candidates(stage)
    return candidates[0] if candidates else None


def fold_map(before: Stage, after: Stage, record: FoldRecord) -> GraphMap:
    """The fold map of ``record`` from ``before`` to ``after``, validated."""
    kept, dropped = record.kept, record.dropped
    images = {name: ((name, 1),) for name in before.graph.edge_names}
    images[dropped[0]] = ((kept[0], kept[1] * dropped[1]),)
    vertex_map = {v: v for v in before.graph.vertices}
    vertex_map.update(record.merged_vertices)
    return GraphMap(before.graph, after.graph, vertex_map, images)


def verify(seq: FoldSequence) -> None:
    """Recompose the chain one stage at a time and insist it reproduces the
    original verbatim."""
    if seq.fold_count != (len(seq.stages[0].graph.edges)
                          - len(seq.stages[-1].graph.edges)):
        raise InvariantViolation("fold count does not match edge loss")
    composite = seq.final_iso
    for record in reversed(seq.folds):
        i = record.index
        composite = compose(composite,
                            fold_map(seq.stages[i - 1], seq.stages[i], record))
    for name in seq.stages[0].graph.edge_names:
        if composite.edge_images[name] != \
                seq.subdivision.relabeled.edge_images[name]:
            raise InvariantViolation(
                f"fold chain mislabels subdivided edge {name}")
    total = compose(composite, seq.subdivision.inclusion)
    if total.vertex_map != seq.original.vertex_map or any(
            total.edge_images[e] != seq.original.edge_images[e]
            for e in seq.original.domain.edge_names):
        raise InvariantViolation("recomposed fold sequence differs from map")


def decompose(f: GraphMap) -> FoldSequence:
    """The fold sequence with every pick made by :func:`pick_fold`."""
    sub = subdivide_at_preimages(f)
    labels = {name: images[0]
              for name, images in sub.relabeled.edge_images.items()}
    stage = Stage(sub.graph, labels, dict(sub.relabeled.vertex_map))
    stages = [stage]
    folds: list[FoldRecord] = []
    while (cand := pick_fold(stage)) is not None:
        stage, record = _apply_fold(stage, cand, len(folds) + 1)
        stages.append(stage)
        folds.append(record)
    codomain = f.codomain
    vlabels = stage.vertex_labels
    if sorted(vlabels.values()) != sorted(codomain.vertices) or \
            len(set(vlabels.values())) != len(vlabels) or \
            sorted(l[0] for l in stage.edge_labels.values()) != \
            sorted(codomain.edge_names):
        raise FoldStuckError("no fold available but the labelling is not an "
                             "isomorphism")
    final = GraphMap(stage.graph, codomain, dict(vlabels),
                     {name: (label,) for name, label in stage.edge_labels.items()})
    seq = FoldSequence(f, sub, tuple(stages), tuple(folds), final)
    verify(seq)
    return seq
