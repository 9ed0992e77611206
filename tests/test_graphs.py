"""Graph layer: paths, composition, subdivision, trees, markings, file format."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freebycyclic import graphs as G
from freebycyclic import words as W
from freebycyclic.errors import (DisconnectedGraphError, InputParseError,
                                 InvariantViolation, MarkingError)
from freebycyclic.words import FreeGroupMap, encode, letters

from conftest import EXAMPLES
from helpers import (direction_image, format_map_file, identity_graph_map,
                     identity_map, random_path, same_images)
import dense_oracle

ROSE2 = G.Graph.rose(("a", "b"))
ROSE3 = G.Graph.rose(("a", "b", "c"))


@pytest.fixture(scope="module")
def bundled():
    return G.load_map_file(EXAMPLES / "phi_f3.map")


def w(text, names=("a", "b", "c", "d", "e")):
    return W.parse_word(text, names)


# -- structure ---------------------------------------------------------------

def test_bundled_file_shape(bundled):
    g = bundled.gmap.domain
    assert sorted(g.vertices) == ["black", "blue", "red"]
    assert sorted(g.edge_names) == ["a", "b", "c", "d", "e"]
    assert G.rank(g) == 3
    assert bundled.marked is not None
    assert bundled.marked.basepoint == "red"
    assert bundled.assumptions == frozenset({"ageometric", "fully-irreducible"})


def test_rank_and_disconnected():
    assert G.rank(ROSE3) == 3
    theta = G.Graph(("u", "v"), (("x", "u", "v"), ("y", "u", "v"), ("z", "u", "v")))
    assert G.rank(theta) == 2
    disc = G.Graph(("u", "v"), (("x", "u", "u"),))
    with pytest.raises(DisconnectedGraphError):
        G.rank(disc)


def test_directions(bundled):
    g = bundled.gmap.domain
    assert g.directions("blue") == (("b", -1), ("c", 1), ("c", -1), ("d", 1))
    assert len(g.directions("blue")) == 4
    assert len(g.directions("red")) == 3


def test_check_path(bundled):
    g = bundled.gmap.domain
    assert G.check_path(g, w("ea")) == ("red", "red")
    assert G.check_path(g, w("cdae")) == ("blue", "black")
    assert G.is_path(g, w("ab"))        # black -> red -> blue
    assert not G.is_path(g, w("ba"))    # blue != black between b and a
    with pytest.raises(InvariantViolation):
        G.check_path(g, w("ba"))


def test_map_validation(bundled):
    f = bundled.gmap
    assert f.vertex_map == {"red": "black", "black": "blue", "blue": "red"}
    assert f.edge_images["a"] == w("cdae")
    with pytest.raises(InvariantViolation):
        G.GraphMap.from_strings(bundled.gmap.domain, dict(f.vertex_map),
                                {**{e: W.format_word(f.edge_images[e])
                                    for e in bundled.gmap.domain.edge_names},
                                 "a": "ea"})  # ea runs red->red, not blue->black


def test_direction_image(bundled):
    f = bundled.gmap
    assert direction_image(f, ("a", 1)) == ("c", 1)
    assert direction_image(f, ("a", -1)) == ("e", -1)
    assert direction_image(f, ("e", 1)) == ("d", -1)


# -- composition (no tightening) --------------------------------------------

def test_compose_does_not_tighten():
    g = G.GraphMap.from_strings(ROSE2, {"v": "v"}, {"a": "ab", "b": "b"})
    h = G.GraphMap.from_strings(ROSE2, {"v": "v"}, {"a": "aB", "b": "b"})
    hg = G.compose(h, g)
    # h(g(a)) = h(ab) = aB . b  -- left unreduced, with a cancelling pair
    assert hg.edge_images["a"] == w("aBb", ("a", "b"))
    assert W.reduce_word(hg.edge_images["a"]) == w("a", ("a", "b"))


def test_compose_associative_shape(bundled):
    f = bundled.gmap
    lhs = G.compose(G.compose(f, f), f)
    rhs = G.compose(f, G.compose(f, f))
    assert lhs.edge_images == rhs.edge_images


# -- subdivision -------------------------------------------------------------

def test_subdivision_bundled(bundled):
    sub = G.subdivide_at_preimages(bundled.gmap)
    assert len(sub.graph.edges) == 9      # image lengths 4+1+2+1+1
    assert len(sub.graph.vertices) == 7   # 3 original + 3 on a + 1 on c
    assert {v for v in sub.graph.vertices} >= {"a@1", "a@2", "a@3", "c@1"}
    # every subdivided edge maps over exactly one edge
    assert all(len(img) == 1 for img in sub.relabeled.edge_images.values())
    # relabeled . inclusion reproduces the original map on every edge
    recomposed = G.compose(sub.relabeled, sub.inclusion)
    assert recomposed.edge_images == bundled.gmap.edge_images
    assert recomposed.vertex_map == bundled.gmap.vertex_map


def test_subdivision_identity_is_noop():
    ident = identity_graph_map(ROSE3)
    sub = G.subdivide_at_preimages(ident)
    assert sub.graph == ROSE3
    assert sub.relabeled.edge_images == ident.edge_images


# -- searches ----------------------------------------------------------------

@st.composite
def small_graphs(draw):
    """Up to 7 vertices, some isolated, and up to 10 edges, loops and
    parallel edges included."""
    n = draw(st.integers(0, 7))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, max_size=10)) if n else []
    return G.Graph(tuple(f"v{i}" for i in range(n)),
                   tuple((f"e{k}", f"v{i}", f"v{j}")
                         for k, (i, j) in enumerate(pairs)))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(G.Graph((), ()))
def test_components_match_the_union_find_oracle(graph):
    found = G.components(graph)
    assert found == dense_oracle.components(graph)
    assert graph.is_connected() == (len(found) <= 1)


def _reachable_components(graph):
    """Components as the vertex sets each vertex reaches through its
    directions."""
    return tuple(sorted({tuple(sorted(G.reachable((v,), graph._neighbours)))
                         for v in graph.vertices}))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
@example(G.Graph(("p", "q", "r", "s"),
                 (("l", "p", "p"), ("m1", "p", "q"), ("m2", "q", "p"),
                  ("m3", "p", "q"), ("k", "s", "s"))))
def test_components_match_the_reachable_oracle(graph):
    # loops, parallel edges and isolated vertices (r above) included
    assert G.components(graph) == _reachable_components(graph)


# -- spanning trees ----------------------------------------------------------

def test_spanning_tree_deterministic(bundled):
    tree = G.spanning_tree(bundled.gmap.domain)
    assert tree.root == "black"
    assert tree.tree_edges == frozenset({"a", "d"})
    assert letters(tree.path("red", "blue")) == (("a", -1), ("d", -1))


def test_spanning_tree_disconnected():
    disc = G.Graph(("u", "v"), (("x", "u", "u"),))
    with pytest.raises(DisconnectedGraphError):
        G.spanning_tree(disc)


def test_collapse_word(bundled):
    tree = G.spanning_tree(bundled.gmap.domain)
    assert G.collapse_word(tree, w("ea")) == w("e")
    assert letters(G.collapse_word(tree, w("bdE"))) == (("b", 1), ("e", -1))


# -- map_to_automorphism -----------------------------------------------------

def test_identity_gives_literal_identity(bundled):
    result = G.map_to_automorphism(bundled.marked,
                                   identity_graph_map(bundled.gmap.domain))
    ident = identity_map(bundled.marked.generators)
    assert same_images(result, ident)


def test_bundled_transcription_gives_phi_outer_class(bundled):
    """Transcription validation: the bundled map represents the target outer
    automorphism a->ca, b->ab, c->Bab in the bundled marking."""
    result = G.map_to_automorphism(bundled.marked, bundled.gmap)
    phi = FreeGroupMap.from_strings(("a", "b", "c"),
                                    {"a": "ca", "b": "ab", "c": "Bab"})
    z = W.outer_equal(result, phi)
    assert z is not None
    # the map is read through this tree, and the result inverts
    assert G.spanning_tree(bundled.gmap.domain).tree_edges == {"a", "d"}
    assert W.greedy_nielsen_inverse(result) is not None


def test_marking_failure_raises():
    rose = ROSE2
    marked = G.MarkedGraph(rose, "v", ("x", "y"),
                           {"x": w("aa", ("a", "b")), "y": w("b", ("a", "b"))})
    with pytest.raises(MarkingError):
        G.map_to_automorphism(marked, identity_graph_map(rose))


# -- file format -------------------------------------------------------------

def test_parse_errors():
    with pytest.raises(InputParseError):
        G.parse_map_text("vertices v\nedge a v\n")  # malformed edge line
    with pytest.raises(InputParseError):
        G.parse_map_text("banana split\n")
    with pytest.raises(InputParseError):
        G.parse_map_text("vertices v\nedge a v v\nvmap v v\nemap a q\n")


def test_format_roundtrip(bundled):
    text = format_map_file(bundled)
    again = G.parse_map_text(text)
    assert again.gmap.domain == bundled.gmap.domain
    assert again.gmap.edge_images == bundled.gmap.edge_images
    assert again.marked.marking_words == bundled.marked.marking_words
    assert again.assumptions == bundled.assumptions


# -- tight images of maps whose edge images are not tight ---------------------

rose3_words = st.lists(st.tuples(st.sampled_from(("a", "b", "c")),
                                 st.sampled_from((1, -1))), max_size=8).map(encode)


@settings(max_examples=200, deadline=None)
@given(st.tuples(rose3_words, rose3_words, rose3_words), rose3_words)
def test_apply_tight_on_untight_rose_maps(images, word):
    f = G.GraphMap(ROSE3, ROSE3, {"v": "v"}, dict(zip("abc", images)))
    assert f.apply_tight(word) == W.reduce_word(f.apply_path(word))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0))
def test_apply_tight_on_the_square_of_a_map(length, seed):
    f = G.GraphMap.from_strings(ROSE2, {"v": "v"}, {"a": "ab", "b": "Ba"})
    square = G.compose(f, f)
    assert square.edge_images["a"] == w("abBa")  # not tight
    path = random_path(ROSE2, length, seed)
    for g in (f, square, G.compose(square, f)):
        assert g.apply_tight(path) == W.reduce_word(g.apply_path(path))


#: a rose of 130 petals, whose 260 directions run past code point 255
ROSE130 = G.Graph.rose(tuple(f"e{i:03d}" for i in range(130)))


@st.composite
def rose_maps_and_paths(draw):
    rose = draw(st.sampled_from((ROSE2, ROSE3, ROSE130)))
    names = rose.edge_names
    letters = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    # untight images over the last three petals, so that rounds cancel;
    # any other petal maps to itself
    petals = names[-3:]
    images = {e: encode(((e, 1),)) for e in names}
    for e in petals:
        images[e] = encode(draw(st.lists(
            st.tuples(st.sampled_from(petals), st.sampled_from((1, -1))),
            max_size=3)))
    word = encode(draw(st.lists(letters, max_size=8)))
    return G.GraphMap(rose, rose, {"v": "v"}, images), word


@settings(max_examples=150, deadline=None)
@given(rose_maps_and_paths(), st.integers(min_value=0, max_value=4))
def test_iterate_tight_equals_repeated_apply_tight(case, n):
    f, word = case
    expected = oracle = word
    for _ in range(n):
        expected = f.apply_tight(expected)
        oracle = W.reduce_word(f.apply_path(oracle))
    assert f.iterate_tight(word, n) == expected == oracle


def test_iterate_tight_cancels_generators_first_met_in_later_rounds():
    # a -> bc -> aA: a cancels in round two, though the image of a has none
    f = G.GraphMap.from_strings(ROSE3, {"v": "v"}, {"a": "bc", "b": "a", "c": "A"})
    assert f.iterate_tight(w("a"), 2) == f.apply_tight(w("bc")) == ""
    assert f.iterate_tight(w("aa"), 3) == f.apply_tight(f.apply_tight(w("bcbc"))) == ""


def test_iterate_tight_needs_a_self_map():
    f = G.GraphMap(ROSE2, ROSE3, {"v": "v"}, {"a": w("ab"), "b": w("c")})
    assert f.iterate_tight(w("ab"), 1) == f.apply_tight(w("ab")) == w("abc")
    with pytest.raises(InvariantViolation):
        f.iterate_tight(w("ab"), 2)


# -- tighten laws on paths (acceptance criterion support) --------------------

@given(st.lists(st.tuples(st.sampled_from(("a", "b", "c")),
                          st.sampled_from((1, -1))), max_size=30).map(encode))
@settings(max_examples=200)
def test_tighten_laws_on_rose(word):
    t = W.reduce_word(word)
    assert W.reduce_word(t) == t
    assert len(t) <= len(word)
    assert W.reduce_word(word + W.inverse(word)) == ""


def test_tighten_preserves_path_endpoints(bundled):
    g = bundled.gmap.domain
    # a wandering loop at red with backtracks, tightening to ea
    word = w("eE") + w("bB") + w("ea")
    assert G.is_path(g, word)
    t = W.reduce_word(word)
    assert G.is_path(g, t)
    assert G.check_path(g, t) == G.check_path(g, word)

# -- letters outside the domain -----------------------------------------------

@pytest.mark.parametrize("method", [
    lambda f, word: f.apply_path(word),
    lambda f, word: f.apply_tight(word),
    lambda f, word: f.iterate_tight(word, 3),
], ids=["apply_path", "apply_tight", "iterate_tight"])
def test_a_letter_outside_the_domain_is_typed(bundled, method):
    f = bundled.gmap
    names = re.escape(repr(f.domain.edge_names))
    with pytest.raises(InvariantViolation,
                       match=rf"letter \('z', 1\) is not in the domain {names}"):
        method(f, (("a", 1), ("z", 1)))
    # a letter of another graph, given as text
    other = W.parse_word("x'", ("x",))
    with pytest.raises(InvariantViolation, match=r"letter \('x', -1\)"):
        method(f, w("a") + other)
