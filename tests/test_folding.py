"""Fold decomposition tests.

The four-fold sequence for the bundled map was worked out by hand from the
subdivided labelling (see the direction-by-direction candidate scan in the
comments) and is frozen here; the other expectations are direct counts.
"""

import pytest

import fold_oracle
from freebycyclic.corpus import corpus
from freebycyclic.errors import FoldStuckError, InvariantViolation
from freebycyclic.folding import _pick_fold, decompose
from freebycyclic.graphs import Graph, GraphMap, load_map_file

from conftest import EXAMPLES


def L(s):
    return (s.lower(), 1 if s.islower() else -1)


def W(s):
    return tuple(L(ch) for ch in s)


def rose_map(images: dict) -> GraphMap:
    graph = Graph.rose(tuple(sorted(images)))
    return GraphMap(graph, graph, {"v": "v"},
                    {name: W(word) for name, word in images.items()})


@pytest.fixture(scope="module")
def bundled_seq():
    return decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)


def test_bundled_fold_count(bundled_seq):
    assert bundled_seq.fold_count == 4
    assert len(bundled_seq.stages) == 5
    assert len(bundled_seq.stages[0].graph.edges) == 9
    assert len(bundled_seq.stages[-1].graph.edges) == 5


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
    assert h.edge_images == {"a_1": W("c"), "a_2": W("d"), "a_3": W("a"),
                             "a_4": W("e"), "d": W("b")}
    assert sorted(h.vertex_map.values()) == ["black", "blue", "red"]


def test_bundled_verify_and_json(bundled_seq):
    bundled_seq.verify()  # raises on failure
    data = bundled_seq.to_json()
    assert data["fold_count"] == 4
    assert [f["label"] for f in data["folds"]] == ["A", "E", "A", "D"]
    assert len(data["stages"]) == 5


def test_policy_reverse_same_unique_sequence():
    # every stage of the bundled map has exactly one candidate, so the
    # alternate policy must produce the identical sequence
    f = load_map_file(EXAMPLES / "phi_f3.map").gmap
    a = decompose(f, policy="lex")
    b = decompose(f, policy="reverse")
    assert [r.kept for r in a.folds] == [r.kept for r in b.folds]


def test_doubling_offset_fold():
    seq = decompose(rose_map({"a": "aa"}))
    assert seq.fold_count == 1
    (record,) = seq.folds
    assert record.kind == "offset"
    assert record.kept == ("a_1", 1)
    assert record.dropped == ("a_2", 1)
    assert record.label == ("a", 1)
    assert ("v", "a@1") in record.merged_vertices
    final = seq.stages[-1].graph
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


@pytest.mark.parametrize("policy", ["lex", "reverse"])
def test_fold_picks_agree_with_all_pairs_oracle(policy):
    offsets = 0
    for f in oracle_maps():
        try:
            expected = fold_oracle.decompose(f, policy)
        except FoldStuckError:
            with pytest.raises(FoldStuckError):
                decompose(f, policy)
            continue
        seq = decompose(f, policy)
        for stage in seq.stages:
            assert _pick_fold(stage, policy) == \
                fold_oracle.pick_fold(stage, policy)
        assert seq.to_json() == expected.to_json()
        fold_oracle.verify(seq)
        offsets += sum(r.kind == "offset" for r in seq.folds)
    assert offsets > 0  # the head-to-tail branch was exercised


@pytest.mark.parametrize("tamper", ["two-letter image", "no vertex image"])
def test_verify_rejects_a_tampered_fold_map(tamper):
    seq = decompose(load_map_file(EXAMPLES / "phi_f3.map").gmap)
    q = seq.maps[1]
    if tamper == "two-letter image":
        name = q.domain.edge_names[0]
        q.edge_images[name] = q.edge_images[name] * 2
    else:
        del q.vertex_map[q.domain.vertices[0]]
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

