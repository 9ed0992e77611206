"""Train track analysis tests.

Expected values are hand-computed from the definitions: direction maps are
iterated by hand on the small maps below, crossing matrices are counted
directly from the image words, and the golden-ratio map's eigendata has the
closed form ((1+sqrt(5))/2, (phi, 1)/(phi+1)).
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freebycyclic import traintrack
from freebycyclic.cohomology import dict_scale, dict_sum, integral_cocycle
from freebycyclic.corpus import corpus
from freebycyclic.errors import (InvariantViolation, NotExpandingError,
                                 NotIrreducibleError)
from freebycyclic.folding import decompose
from freebycyclic.graphs import Graph, GraphMap, compose, load_map_file
from freebycyclic.section import build_section, first_return, line_section
from freebycyclic.torus import build_torus
from freebycyclic.traintrack import (EigenMetric, NielsenReport, TransitionMatrix,
                                     Verdict, direction_map, eigen_metric,
                                     format_direction, format_turn,
                                     illegal_turns, is_expanding,
                                     is_irreducible, is_train_track,
                                     lone_axis_check, make_turn,
                                     nielsen_search, periodic_directions,
                                     rotationless_index, taken_turns,
                                     traintrack_report, transition_matrix,
                                     whitehead_data)
from freebycyclic.words import encode, format_word, letters

import dense_oracle
from conftest import EXAMPLES
from helpers import all_directions, direction_image, identity_graph_map


def L(s):
    """Single letter from compact notation: 'a' forward, 'A' reverse."""
    return (s.lower(), 1 if s.islower() else -1)


def W(s):
    return tuple(L(ch) for ch in s)


@pytest.fixture(scope="module")
def bundled():
    return load_map_file(EXAMPLES / "phi_f3.map")


@pytest.fixture(scope="module")
def fmap(bundled):
    return bundled.gmap


def rose_map(images: dict) -> GraphMap:
    graph = Graph.rose(tuple(sorted(images)))
    return GraphMap(graph, graph, {"v": "v"},
                    {name: encode(W(word)) for name, word in images.items()})


GOLDEN = {"a": "ab", "b": "a"}
TWO_ILLEGAL = {"a": "ab", "b": "aab"}
NOT_TT = {"a": "ab", "b": "A"}
SWAP = {"a": "b", "b": "a"}
SPLIT = {"a": "a", "b": "b"}
DOUBLING = {"a": "aa"}


# ---------------------------------------------------------------------------
# direction map and illegal turns


def test_direction_map_structure(fmap):
    dmap = direction_map(fmap)
    assert len(dmap) == 10
    # f: a->cdae, b->a, c->ea, d->b, e->D
    assert dmap[L("a")] == L("c")
    assert dmap[L("A")] == L("E")
    assert dmap[L("b")] == L("a")
    assert dmap[L("B")] == L("A")
    assert dmap[L("c")] == L("e")
    assert dmap[L("C")] == L("A")
    assert dmap[L("d")] == L("b")
    assert dmap[L("D")] == L("B")
    assert dmap[L("e")] == L("D")
    assert dmap[L("E")] == L("d")
    # the nine directions other than C form a single cycle
    cycle = [L("a")]
    for _ in range(8):
        cycle.append(dmap[cycle[-1]])
    assert dmap[cycle[-1]] == L("a")
    assert len(set(cycle)) == 9
    assert L("C") not in cycle


def test_periodic_directions_per_vertex(fmap):
    periodic = periodic_directions(fmap)
    assert periodic == frozenset(W("aDEbeAcdB"))
    by_vertex = {
        "black": {d for d in periodic if fmap.domain.init_of(d) == "black"},
        "red": {d for d in periodic if fmap.domain.init_of(d) == "red"},
        "blue": {d for d in periodic if fmap.domain.init_of(d) == "blue"},
    }
    assert by_vertex["black"] == set(W("aDE"))
    assert by_vertex["red"] == set(W("beA"))
    assert by_vertex["blue"] == set(W("cdB"))


def test_unique_illegal_turn(fmap):
    bad = illegal_turns(fmap)
    assert bad == (make_turn(L("B"), L("C")),)
    assert format_turn(bad[0]) == "{B, C}"


def test_all_turns_count(fmap):
    # valences: black 4 (a-, d+... a out, d in, e in => (a,1),(d,-1),(e,-1)) is 3;
    # red 4: (a,-1),(b,1),(e,1); blue: (b,-1),(c,1),(c,-1),(d,1)
    # turns: C(3,2)+C(3,2)+C(4,2) = 3+3+6 = 12
    assert len(dense_oracle.all_turns(fmap.domain)) == 12


def test_is_train_track_bundled(fmap):
    ok, witness = is_train_track(fmap)
    assert ok and witness is None


def test_not_train_track_witness():
    f = rose_map(NOT_TT)
    # every turn on the rose coalesces; image of a crosses {A, b} at position 1
    ok, witness = is_train_track(f)
    assert not ok
    assert witness == ("a", 1)


def test_degenerate_image_is_not_tt():
    # the image of a backtracks immediately at position 1
    f = rose_map({"a": "bBa", "b": "ab"})
    ok, witness = is_train_track(f)
    assert not ok
    assert witness == ("a", 1)


def test_two_illegal_turns():
    f = rose_map(TWO_ILLEGAL)
    bad = illegal_turns(f)
    assert set(bad) == {make_turn(L("a"), L("b")), make_turn(L("A"), L("B"))}
    assert is_train_track(f)[0]


# ---------------------------------------------------------------------------
# transition matrix


def test_transition_matrix_bundled(fmap):
    m = transition_matrix(fmap)
    assert m.edges == ("a", "b", "c", "d", "e")
    assert m.rows == (
        (1, 0, 1, 1, 1),  # a -> cdae
        (1, 0, 0, 0, 0),  # b -> a
        (1, 0, 0, 0, 1),  # c -> ea
        (0, 1, 0, 0, 0),  # d -> b
        (0, 0, 0, 1, 0),  # e -> D
    )
    assert is_irreducible(m)
    assert is_expanding(m)


def test_matrix_power_law(fmap):
    m = transition_matrix(fmap)
    f2 = compose(fmap, fmap)
    assert transition_matrix(f2).rows == dense_oracle.matmul(m, m).rows
    f3 = compose(fmap, f2)
    assert transition_matrix(f3).rows == \
        dense_oracle.matmul(dense_oracle.matmul(m, m), m).rows


def test_compose_matrix_law_mixed():
    f = rose_map(GOLDEN)
    g = rose_map(TWO_ILLEGAL)
    fg = compose(f, g)  # g then f
    assert transition_matrix(fg).rows == \
        dense_oracle.matmul(transition_matrix(g), transition_matrix(f)).rows


def test_irreducible_not_expanding():
    m = transition_matrix(rose_map(SWAP))
    assert is_irreducible(m)
    assert not is_expanding(m)


def test_reducible():
    m = transition_matrix(rose_map(SPLIT))
    assert not is_irreducible(m)
    assert not is_expanding(m)


# ---------------------------------------------------------------------------
# eigenmetric


def test_eigen_metric_golden():
    metric = eigen_metric(rose_map(GOLDEN))
    phi = (1 + math.sqrt(5)) / 2
    assert abs(metric.stretch - phi) < 1e-9
    assert abs(metric.lengths["a"] - phi / (phi + 1)) < 1e-9
    assert abs(metric.lengths["b"] - 1 / (phi + 1)) < 1e-9
    assert metric.residual <= 1e-10


def test_eigen_metric_defining_property(fmap):
    metric = eigen_metric(fmap)
    assert abs(sum(metric.lengths.values()) - 1.0) < 1e-12
    assert all(v > 0 for v in metric.lengths.values())
    assert metric.stretch > 1
    for e in metric.edges:
        image_len = sum(metric.lengths[name]
                        for name, _s in letters(fmap.edge_images[e]))
        assert abs(image_len - metric.stretch * metric.lengths[e]) < 1e-9


def test_eigen_metric_errors():
    with pytest.raises(NotExpandingError):
        eigen_metric(rose_map(SWAP))
    with pytest.raises(NotIrreducibleError):
        eigen_metric(rose_map(SPLIT))


# ---------------------------------------------------------------------------
# taken turns and Whitehead graphs


def test_taken_turns_bundled(fmap):
    taken = set(taken_turns(fmap))
    expected = {make_turn(*W(p)) for p in
                ["Cd", "Da", "Ae", "Ea", "Ab", "Bc", "ED", "dc", "dB", "be"]}
    assert taken == expected


def test_ideal_whitehead_three_triangles(fmap):
    wd = whitehead_data(fmap)
    assert [v for v, _nodes, _edges in wd.components] == ["black", "blue", "red"]
    assert len(wd.components) == 3
    for _v, nodes, edges in wd.components:
        assert len(nodes) == 3 and len(edges) == 3
    by_vertex = {v: (set(nodes), set(edges)) for v, nodes, edges in wd.components}
    assert by_vertex["black"][0] == set(W("aDE"))
    assert by_vertex["black"][1] == {make_turn(*W(p)) for p in ["Da", "Ea", "ED"]}
    assert by_vertex["red"][0] == set(W("beA"))
    assert by_vertex["blue"][0] == set(W("cdB"))
    assert rotationless_index(wd) == Fraction(-3, 2)


def test_doubling_map_empty_ideal_graph():
    f = rose_map(DOUBLING)
    wd = whitehead_data(f)
    assert periodic_directions(f) == frozenset(W("aA"))
    assert wd.components == ()
    assert rotationless_index(wd) == 0


def test_golden_stable_graph_is_a_path():
    f = rose_map(GOLDEN)
    wd = whitehead_data(f)
    assert periodic_directions(f) == frozenset(W("aAB"))
    ((v, nodes, edges),) = wd.components
    assert v == "v"
    assert set(nodes) == set(W("aAB"))
    assert set(edges) == {make_turn(*W("Aa")), make_turn(*W("Ba"))}
    assert rotationless_index(wd) == Fraction(-1, 2)


# ---------------------------------------------------------------------------
# Nielsen path search


def test_nielsen_bundled_none(fmap):
    report = nielsen_search(fmap, 10, 6)
    assert report.method == "eigenray"
    assert report.found == ()
    assert report.exhaustive
    assert report.none_up_to_bounds


def test_nielsen_identity_everything_returns(fmap):
    # the enumeration oracle runs on any map, the identity included
    ident = identity_graph_map(fmap.domain)
    found, truncated = dense_oracle.enumeration_search(ident, 2, 2)
    assert not truncated
    assert (encode(W("a")), 1) in found
    assert (encode(W("A")), 1) in found
    assert all(period == 1 for _p, period in found)
    # every tight path of length <= 2 is fixed: 10 single letters plus the
    # tight 2-letter paths
    assert len([p for p, _ in found if len(p) == 1]) == 10


def test_nielsen_eigenray_matches_enumeration_golden():
    f = rose_map(GOLDEN)
    fast = nielsen_search(f, max_len=6, max_period=3)
    assert fast.method == "eigenray"
    slow, truncated = dense_oracle.enumeration_search(f, 6, 3)
    assert not truncated
    assert set(fast.found) == set(slow)


def test_nielsen_eigenray_matches_enumeration_two_illegal():
    f = rose_map(TWO_ILLEGAL)
    fast = nielsen_search(f, max_len=5, max_period=2)
    assert fast.method == "eigenray"
    slow, truncated = dense_oracle.enumeration_search(f, 5, 2)
    assert not truncated
    assert set(fast.found) == set(slow)


def test_nielsen_search_refuses_a_map_that_is_not_a_train_track():
    with pytest.raises(InvariantViolation,
                       match=r"not a train track map \(witness \('a', 1\)\)"):
        nielsen_search(rose_map(NOT_TT))


def test_nielsen_search_refuses_a_map_that_does_not_expand():
    with pytest.raises(NotExpandingError):
        nielsen_search(rose_map(SWAP))


def test_nielsen_search_refuses_a_reducible_map(fmap):
    with pytest.raises(NotIrreducibleError):
        nielsen_search(identity_graph_map(fmap.domain), max_len=2, max_period=2)


def test_nielsen_doubling_none():
    report = nielsen_search(rose_map(DOUBLING), 8, 4)
    assert report.method == "eigenray"
    assert report.none_up_to_bounds


def test_nielsen_image_cap_marks_the_search_incomplete():
    maps = corpus(4, seed=20260823)
    # map 0 stays under the cap and keeps its complete report
    assert nielsen_search(maps[0]) == NielsenReport(
        (), 10, 6, True, "eigenray",
        "complete within bounds for expanding irreducible train track maps")
    # a half of map 2 grows past the cap within the default period bound
    report = nielsen_search(maps[2])
    assert report.method == "eigenray"
    assert report.exhaustive is False
    assert not report.none_up_to_bounds
    assert "1,000,000 letters" in report.note


# sha256 over the reports of the first 50 maps of corpus(200, seed=20260823)
# at bounds (10, 6), paths written by format_word (code points depend on the
# order in which names were interned): 3 reports find 4 paths each, 25 find
# none and 22 hit the image cap
NIELSEN_CORPUS_DIGEST = \
    "702040a179b9150c7535a6191b4c3613162abeef6ef862e8adac8ca51ee7416d"


def test_nielsen_reports_on_the_corpus_are_pinned():
    digest = hashlib.sha256()
    for f in corpus(200, seed=20260823)[:50]:
        report = nielsen_search(f, 10, 6)
        digest.update(repr(([(format_word(p), q) for p, q in report.found],
                            report.max_len, report.max_period,
                            report.exhaustive, report.method,
                            report.note)).encode())
    assert digest.hexdigest() == NIELSEN_CORPUS_DIGEST


@pytest.mark.parametrize("images, a, b", [
    ({"a": "bbacbac", "b": "bbac", "c": "cacbbac"}, "bbC", "cBB"),
    ({"a": "baabac", "b": "ba", "c": "cbaabac"}, "baC", "cAB"),
])
def test_nielsen_halves_overflow_only_past_their_own_image(images, a, b):
    # maps 278 of corpus(300, seed=2) and 213 of corpus(300, seed=3): the
    # halves of these Nielsen paths are shorter than their rays' longest
    # in-cap prefix, so each overflow must end where its own image does
    report = nielsen_search(rose_map(images))
    assert report.exhaustive
    assert [(format_word(p), q) for p, q in report.found] == [
        (a, 1), (b, 1), (a * 2, 1), (b * 2, 1), (a * 3, 1), (b * 3, 1)]


def test_eigenray_image_shorter_than_predicted_is_refused():
    # not a train track: f(ab) = ab.Baaa tightens to aaaa, 4 letters where
    # the crossing counts predict 6, so the eigenray search must refuse it
    f = rose_map({"a": "ab", "b": "Baaa"})
    with pytest.raises(InvariantViolation,
                       match="prefix ab has 4 letters, not the 6"):
        traintrack._eigenray_search(f, transition_matrix(f), 6, 3)


# ---------------------------------------------------------------------------
# lone axis verdicts


def test_lone_axis_bundled_yes(bundled):
    verdict = lone_axis_check(bundled.gmap, assume_ageometric=True,
                              assume_fully_irreducible=True)
    assert verdict.verdict == "yes"
    assert any("no periodic Nielsen paths" in a for a in verdict.assumptions)
    assert rotationless_index(whitehead_data(bundled.gmap)) == Fraction(-3, 2)


def test_lone_axis_without_flags_inconclusive(fmap):
    verdict = lone_axis_check(fmap)
    assert verdict.verdict == "inconclusive"
    assert "ageometric" in verdict.reason


def test_lone_axis_two_illegal_no():
    verdict = lone_axis_check(rose_map(TWO_ILLEGAL))
    assert verdict.verdict == "no"
    assert "2 illegal turns" in verdict.reason


def test_golden_map_has_the_commutator_nielsen_path():
    # f(a)=ab, f(b)=a: rho = a^-1 b^-1 a b satisfies tighten(f^2(rho)) = rho
    f = rose_map(GOLDEN)
    rho = encode(W("ABab"))
    once = f.apply_tight(rho)
    assert once == encode(W("BAba"))
    assert f.apply_tight(once) == rho
    report = nielsen_search(f, max_len=4, max_period=2)
    assert (rho, 2) in report.found


def test_lone_axis_golden_inconclusive_pnp():
    # a periodic Nielsen path exists, so the principal-vertex analysis is
    # not available and the check must refuse to answer
    verdict = lone_axis_check(rose_map(GOLDEN), assume_ageometric=True,
                              assume_fully_irreducible=True)
    assert verdict.verdict == "inconclusive"
    assert "Nielsen" in verdict.reason


def test_lone_axis_doubling_index_mismatch():
    verdict = lone_axis_check(rose_map(DOUBLING), assume_ageometric=True,
                              assume_fully_irreducible=True)
    assert verdict.verdict == "no"
    assert "index" in verdict.reason


def test_cut_vertex_helper():
    from freebycyclic.traintrack import _has_cut_vertex
    path_nodes = W("aAB")
    path_edges = (make_turn(*W("Aa")), make_turn(*W("Ba")))
    assert _has_cut_vertex(path_nodes, path_edges)
    triangle_edges = path_edges + (make_turn(*W("AB")),)
    assert not _has_cut_vertex(path_nodes, triangle_edges)


def test_lone_axis_not_tt_inconclusive():
    verdict = lone_axis_check(rose_map(NOT_TT))
    assert verdict.verdict == "inconclusive"
    assert "train track" in verdict.reason


def test_lone_axis_swap_inconclusive():
    verdict = lone_axis_check(rose_map(SWAP))
    assert verdict.verdict == "inconclusive"
    assert "expanding" in verdict.reason


# ---------------------------------------------------------------------------
# report plumbing


def test_traintrack_report(bundled):
    report = traintrack_report(
        bundled.gmap,
        assume_ageometric="ageometric" in bundled.assumptions,
        assume_fully_irreducible="fully-irreducible" in bundled.assumptions)
    assert report["train_track"] is True
    assert report["illegal_turns"] == ["{B, C}"]
    assert report["lone_axis"]["verdict"] == "yes"
    assert report["rotationless_index"] == "-3/2"
    assert len(report["ideal_components"]) == 3
    assert report["eigen_residual"] <= 1e-10


def test_traintrack_report_searches_for_nielsen_paths_once(fmap, monkeypatch):
    # the report and its verdict share one search, run on the report's own
    # crossing matrix
    calls = []
    search = traintrack._eigenray_search

    def counting_search(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(traintrack, "_eigenray_search", counting_search)
    report = traintrack_report(fmap, assume_ageometric=True,
                               assume_fully_irreducible=True)
    assert report["lone_axis"]["verdict"] == "yes"
    assert len(calls) == 1


def test_traintrack_report_computes_each_invariant_once(fmap, monkeypatch):
    # the crossing matrix, the illegal turns, the irreducibility and
    # expansion tests, the power iteration, the Nielsen search and the
    # Whitehead data each run once per report; the public wrappers that
    # would recompute them from f are not called
    counted = ("transition_matrix", "illegal_turns", "is_irreducible",
               "_stretches", "_power_iteration", "_eigenray_search",
               "whitehead_data", "is_train_track", "is_expanding",
               "eigen_metric", "nielsen_search", "lone_axis_check")
    calls = dict.fromkeys(counted, 0)

    def counting(name):
        inner = getattr(traintrack, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in counted:
        monkeypatch.setattr(traintrack, name, counting(name))
    report = traintrack_report(fmap, assume_ageometric=True,
                               assume_fully_irreducible=True)
    assert calls == {"transition_matrix": 1, "illegal_turns": 1,
                     "is_irreducible": 1, "_stretches": 1,
                     "_power_iteration": 1, "_eigenray_search": 1,
                     "whitehead_data": 1, "is_train_track": 0,
                     "is_expanding": 0, "eigen_metric": 0,
                     "nielsen_search": 0, "lone_axis_check": 0}
    assert report["lone_axis"]["verdict"] == "yes"
    # the shared values are the ones the public functions give
    matrix = transition_matrix(fmap)
    assert report["illegal_turns"] == [format_turn(t)
                                       for t in illegal_turns(fmap)]
    assert is_train_track(fmap) == (report["train_track"],
                                    report["train_track_witness"])
    assert report["irreducible"] == is_irreducible(matrix)
    assert report["expanding"] == is_expanding(matrix)
    metric = eigen_metric(fmap)
    assert (report["stretch"], report["lengths"]) == (metric.stretch,
                                                      metric.lengths)


@pytest.mark.parametrize("k", [None, 0, 3, 7])
def test_report_and_verdict_read_the_same_ideal_components(fmap, monkeypatch,
                                                           k):
    # the bundled map and line-family return maps: the ideal components are
    # formatted once per report and the rotationless index is summed once
    f = fmap if k is None else line_section(build_torus(decompose(fmap)),
                                            k).table
    flags = dict(assume_ageometric=True, assume_fully_irreducible=True)
    assert lone_axis_check(f, **flags).verdict == "yes"
    wd = whitehead_data(f)
    components = [{"vertex": v, "nodes": [format_direction(d) for d in nodes],
                   "edges": [format_turn(t) for t in edges]}
                  for v, nodes, edges in wd.components]
    expected_index = str(rotationless_index(wd))
    calls = []
    index = traintrack.rotationless_index
    monkeypatch.setattr(traintrack, "rotationless_index",
                        lambda wd: calls.append(wd) or index(wd))
    report = traintrack_report(f, **flags)
    assert report["ideal_components"] == components
    assert report["rotationless_index"] == expected_index
    assert len(calls) == 1


def test_direction_map_reads_each_image_end(fmap):
    # the derivative read off the first and last letter of each image is
    # the per-direction reading, in the sorted order of the directions
    torus = build_torus(decompose(fmap))
    maps = [fmap] + [line_section(torus, k).table for k in range(8)]
    maps += corpus(200, seed=20260823)
    for f in maps:
        assert list(direction_map(f).items()) == [
            (d, direction_image(f, d)) for d in all_directions(f.domain)]


def test_direction_map_refuses_an_empty_image():
    f = rose_map({"a": "ab", "b": ""})
    with pytest.raises(InvariantViolation, match="edge 'b' has empty image"):
        direction_map(f)


@pytest.mark.parametrize("reader, unread", [
    (is_train_track, ("transition_matrix", "_power_iteration")),
    (eigen_metric, ("illegal_turns", "_eigenray_search")),
    (nielsen_search, ("_power_iteration", "whitehead_data")),
])
def test_a_public_reader_computes_only_what_it_reads(fmap, monkeypatch,
                                                     reader, unread):
    def refuse(*args, **kwargs):
        raise AssertionError("computed an invariant nobody read")

    for name in unread:
        monkeypatch.setattr(traintrack, name, refuse)
    reader(fmap)


# ---------------------------------------------------------------------------
# properties


positive_word = st.text(alphabet="ab", min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(positive_word, positive_word)
def test_positive_rose_maps_are_train_tracks(wa, wb):
    f = rose_map({"a": wa, "b": wb})
    ok, witness = is_train_track(f)
    assert ok and witness is None
    # crossing counts multiply under composition
    m = transition_matrix(f)
    assert transition_matrix(compose(f, f)).rows == \
        dense_oracle.matmul(m, m).rows


@settings(max_examples=30, deadline=None)
@given(positive_word, positive_word)
def test_illegal_turn_partition(wa, wb):
    f = rose_map({"a": wa, "b": wb})
    bad = set(illegal_turns(f))
    dmap = direction_map(f)
    for turn in dense_oracle.all_turns(f.domain):
        d1, d2 = sorted(turn)
        x, y = d1, d2
        merged = False
        for _ in range(len(dmap)):
            x, y = dmap[x], dmap[y]
            if x == y:
                merged = True
                break
        assert (turn in bad) == merged


# ---------------------------------------------------------------------------
# sparse kernels against the dense oracle


def _metric_outcome(eigen, f):
    try:
        m = eigen(f)
    except Exception as exc:  # the same refusal counts as agreement
        return type(exc)
    return (m.edges, float.hex(m.stretch), float.hex(m.residual),
            [float.hex(m.lengths[e]) for e in m.edges], m.iterations)


def test_sparse_kernels_agree_with_dense_oracle(fmap):
    torus = build_torus(decompose(fmap))
    # the class 1·b* + 6·r* of tests/test_section.py, through its cocycle
    z = integral_cocycle(torus, dict_sum(
        dict_scale(1, {"up:blue.0": -1, "skew1": -1}),
        dict_scale(6, {"up:black.0": 1, "up:blue.0": 1, "up:red.0": 1,
                       "skew1": 1})))
    maps = [fmap]
    maps += [line_section(torus, k).table for k in range(8)]
    maps.append(first_return(build_section(torus, z)))
    maps += corpus(200, seed=20260823)
    assert len(maps) == 210
    assert len(maps[9].domain.edges) == 203
    for f in maps:
        graph = f.domain
        for v in graph.vertices:
            assert graph.directions(v) == dense_oracle.directions(graph, v)
        assert graph.is_connected() == dense_oracle.is_connected(graph)
        matrix = transition_matrix(f)
        dense = dense_oracle.transition_matrix(f)
        assert matrix.rows == dense.rows
        assert is_irreducible(matrix) == dense_oracle.is_irreducible(dense)
        assert is_expanding(matrix) == dense_oracle.is_expanding(dense)
        assert illegal_turns(f) == dense_oracle.illegal_turns(f)
        assert periodic_directions(f) == dense_oracle.periodic_directions(f)
        assert is_train_track(f) == dense_oracle.is_train_track(f)
        assert whitehead_data(f) == dense_oracle.whitehead_data(f)
        assert _metric_outcome(eigen_metric, f) == \
            _metric_outcome(dense_oracle.eigen_metric, f)


@st.composite
def expanding_rose_images(draw):
    """Images of an irreducible, expanding rose map of 1-6 petals.

    Petal i's image crosses petal i + 1 (cyclically), so the crossing
    digraph is strongly connected; petal 0's image has a second letter.
    """
    n = draw(st.integers(1, 6))
    petals = "abcdef"[:n]
    images = {}
    for i, p in enumerate(petals):
        extra = draw(st.text(alphabet=petals, min_size=1 if i == 0 else 0,
                             max_size=5))
        images[p] = petals[(i + 1) % n] + extra
    return images


@settings(max_examples=150, deadline=None)
@given(expanding_rose_images())
@example({"a": "aa"})
@example({"a": "aaaaa"})
@example({"a": "b", "b": "c", "c": "abcaab"})
@example({"a": "bbb", "b": "abcc", "c": "a"})
@example({"a": "bcdef", "b": "c", "c": "d", "d": "e", "e": "f", "f": "a"})
def test_eigen_metric_matches_the_dense_oracle_bit_for_bit(images):
    f = rose_map(images)
    assert is_expanding(transition_matrix(f))
    assert _metric_outcome(eigen_metric, f) == \
        _metric_outcome(dense_oracle.eigen_metric, f)


@pytest.mark.parametrize("cap", [1, 3, 10])
def test_eigen_metric_cap_reports_the_oracle_residual(fmap, monkeypatch, cap):
    monkeypatch.setattr(traintrack, "_EIGEN_MAX_ITERATIONS", cap)
    for f in (fmap, rose_map({"a": "b", "b": "c", "c": "abcaab"})):
        with pytest.raises(InvariantViolation) as oracle_exc:
            dense_oracle.eigen_metric(f, max_iterations=cap)
        with pytest.raises(InvariantViolation) as exc:
            eigen_metric(f)
        assert str(exc.value) == str(oracle_exc.value)


def test_sparse_matrix_access(fmap):
    m = transition_matrix(fmap)
    assert m.entries[0] == ((0, 1), (2, 1), (3, 1), (4, 1))
    assert [m.row_sum(i) for i in range(5)] == [sum(r) for r in m.rows]
