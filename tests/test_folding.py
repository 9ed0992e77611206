"""Fold decomposition tests.

The four-fold sequence for the bundled map was worked out by hand from the
subdivided labelling (see the direction-by-direction candidate scan in the
comments) and is frozen here; the other expectations are direct counts.
"""

from dataclasses import replace

import pytest

import fold_oracle
from freebycyclic import folding
from freebycyclic.corpus import corpus
from freebycyclic.errors import FoldStuckError, InvariantViolation
from freebycyclic.folding import WorkingStage, decompose
from freebycyclic.graphs import (Graph, GraphMap, load_map_file,
                                 subdivide_at_preimages)
from freebycyclic.words import encode, letters

from conftest import EXAMPLES


def L(s):
    return (s.lower(), 1 if s.islower() else -1)


def W(s):
    return tuple(L(ch) for ch in s)


def rose_map(images: dict) -> GraphMap:
    graph = Graph.rose(tuple(sorted(images)))
    return GraphMap(graph, graph, {"v": "v"},
                    {name: encode(W(word)) for name, word in images.items()})


@pytest.fixture(scope="module")
def bundled_seq():
    return decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)


def test_bundled_fold_count(bundled_seq):
    assert bundled_seq.fold_count == 4
    chain = fold_oracle.stages(bundled_seq)
    assert len(chain) == 5
    assert len(chain[0].graph.edges) == 9
    assert len(chain[-1].graph.edges) == 5


def test_bundled_fold_labels(bundled_seq):
    # scanning directions of the subdivided graph stage by stage gives a
    # unique label-equal pair each time
    assert [r.label[0] for r in bundled_seq.folds] == ["a", "e", "a", "d"]
    assert [r.kind for r in bundled_seq.folds] == ["strict"] * 4


def test_bundled_fold_details(bundled_seq):
    r1, r2, r3, r4 = bundled_seq.folds
    assert (r1.vertex, r1.kept, r1.dropped) == ("blue", ("b", -1), ("c_2", -1))
    assert r1.label == ("a", -1)
    assert r1.merged_vertices == (("red", "c@1"),)
    assert (r2.vertex, r2.kept, r2.dropped) == ("c@1", ("a_4", -1), ("c_1", -1))
    assert r2.merged_vertices == (("blue", "a@3"),)
    assert (r3.vertex, r3.kept, r3.dropped) == ("a@3", ("a_3", -1), ("b", -1))
    assert r3.merged_vertices == (("c@1", "a@2"),)
    assert (r4.vertex, r4.kept, r4.dropped) == ("a@2", ("a_2", -1), ("e", 1))
    assert r4.label == ("d", -1)
    assert r4.merged_vertices == (("black", "a@1"),)


def test_bundled_final_iso(bundled_seq):
    h = bundled_seq.final_iso
    assert sorted(h.domain.edge_names) == ["a_1", "a_2", "a_3", "a_4", "d"]
    assert {e: letters(w) for e, w in h.edge_images.items()} == {
        "a_1": W("c"), "a_2": W("d"), "a_3": W("a"), "a_4": W("e"), "d": W("b")}
    assert sorted(h.vertex_map.values()) == ["black", "blue", "red"]


def test_bundled_verify_and_json(bundled_seq):
    bundled_seq.verify()  # raises on failure
    assert bundled_seq.fold_count == 4
    assert [r.label for r in bundled_seq.folds] == \
        [("a", -1), ("e", -1), ("a", -1), ("d", -1)]
    assert [r.index for r in bundled_seq.folds] == [1, 2, 3, 4]
    assert len(fold_oracle.stages(bundled_seq)) == 5


def test_decompose_builds_two_graph_maps(monkeypatch):
    # the folds are kept as records only: the bundled map's decomposition
    # builds final_iso and the chased composite in verify, nothing per fold
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return GraphMap(*args, **kwargs)

    monkeypatch.setattr(folding, "GraphMap", counting)
    seq = decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)
    assert seq.fold_count == 4
    assert len(built) == 2


def test_decompose_builds_two_graphs(monkeypatch):
    # the folds run on one working stage: only the last stage (the domain
    # of final_iso) and verify's chased last stage are built as graphs, and
    # no intermediate stage is
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return Graph(*args, **kwargs)

    monkeypatch.setattr(folding, "Graph", counting)
    seq = decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)
    assert seq.fold_count == 4
    assert len(built) == 2


def test_doubling_offset_fold():
    seq = decompose(rose_map({"a": "aa"}))
    assert seq.fold_count == 1
    (record,) = seq.folds
    assert record.kind == "offset"
    assert record.kept == ("a_1", 1)
    assert record.dropped == ("a_2", 1)
    assert record.label == ("a", 1)
    assert ("v", "a@1") in record.merged_vertices
    final = fold_oracle.stages(seq)[-1].graph
    assert len(final.edges) == 1 and len(final.vertices) == 1
    seq.verify()


def test_positive_automorphism_folds():
    # a->ab, b->a subdivides into three edges and folds once
    seq = decompose(rose_map({"a": "ab", "b": "a"}))
    assert seq.fold_count == 1
    seq.verify()


def test_fold_stuck_non_equivalence():
    with pytest.raises(FoldStuckError):
        decompose(rose_map({"a": "a", "b": "a"}))


def test_fold_stuck_wrapped_circle():
    # a->ab, b->ab folds edge-bijectively onto a subdivided circle, which is
    # not isomorphic to the rose: stuck
    with pytest.raises(FoldStuckError):
        decompose(rose_map({"a": "ab", "b": "ab"}))


# ---------------------------------------------------------------------------
# agreement with the all-pairs oracle, and tampered sequences

ORACLE_ROSES = ({"a": "aa"}, {"a": "aaa"}, {"a": "ab", "b": "a"},
                {"a": "aba", "b": "ab"}, {"a": "abA", "b": "bab"},
                {"a": "a", "b": "a"}, {"a": "ab", "b": "ab"})


def oracle_maps():
    yield load_map_file(EXAMPLES / "phi_f3.map").gmap
    yield from (rose_map(images) for images in ORACLE_ROSES)
    yield from corpus(200, seed=20260823)


def test_fold_picks_agree_with_all_pairs_oracle():
    offsets = stuck = 0
    for f in oracle_maps():
        # the working stage's pick at every step, stuck chains included
        stages, records = fold_oracle.fold_chain(subdivide_at_preimages(f))
        work = WorkingStage(stages[0])
        for stage, record in zip(stages, records):
            assert work.pick() == fold_oracle.pick_fold(stage)
            assert work.fold(record.kept, record.dropped) == \
                record.merged_vertices
        assert work.pick() is None
        try:
            expected = fold_oracle.decompose(f)
        except FoldStuckError:
            with pytest.raises(FoldStuckError):
                decompose(f)
            stuck += 1
            continue
        seq = decompose(f)
        assert (fold_oracle.stages(seq), seq.folds, seq.final_iso) == \
            (expected.stages, expected.folds, expected.final_iso)
        fold_oracle.verify(seq)
        offsets += sum(r.kind == "offset" for r in seq.folds)
    assert offsets > 0  # the head-to-tail branch was exercised
    assert stuck > 0


@pytest.mark.parametrize("tamper", ["kept edge folded away",
                                    "merged onto a vanished vertex",
                                    "kept edge with another label",
                                    "dropped edge dropped before"])
def test_verify_rejects_a_tampered_fold_record(tamper):
    seq = decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)
    first, second = seq.folds[:2]
    if tamper == "kept edge folded away":
        changes = {"kept": first.dropped}
    elif tamper == "merged onto a vanished vertex":
        (vanished, _rep), = first.merged_vertices
        changes = {"merged_vertices": ((second.merged_vertices[0][0],
                                        vanished),)}
    elif tamper == "kept edge with another label":
        changes = {"kept": ("a_1", second.kept[1])}
        assert fold_oracle.stages(seq)[1].edge_labels["a_1"][0] != \
            second.label[0]
    else:
        changes = {"dropped": first.dropped}
    seq.folds = (first, replace(second, **changes), *seq.folds[2:])
    with pytest.raises(InvariantViolation, match="fold chain"):
        seq.verify()


@pytest.mark.parametrize("tamper", ["swap labels", "rename edges"])
def test_verify_rejects_a_relabelled_final_iso(tamper):
    seq = decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)
    iso = seq.final_iso
    if tamper == "swap labels":
        images = iso.edge_images
        images["a_1"], images["a_3"] = images["a_3"], images["a_1"]
    else:
        renamed = Graph(iso.domain.vertices, tuple(
            (name + "'", i, t) for name, i, t in iso.domain.edges))
        seq.final_iso = GraphMap(renamed, iso.codomain, dict(iso.vertex_map), {
            name + "'": img for name, img in iso.edge_images.items()})
    with pytest.raises(InvariantViolation):
        seq.verify()

