"""Finite graphs with named oriented edges, edge paths, graph maps, markings.

A *direction* at a vertex is a letter ``(name, sign)`` whose initial vertex is
that vertex; an *edge path* is a word (text, one code point per oriented
edge) whose consecutive endpoints match.  Tightening an edge path is exactly
free reduction, which preserves the path property and its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from os.path import commonprefix
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import (DisconnectedGraphError, InputParseError,
                     InvariantViolation, MarkingError)
from .words import (FreeGroupMap, ImageTable, Letter, Word, as_letter, char,
                    check_names, encode, greedy_nielsen_inverse, intern,
                    inverse, letter_of, parse_word, reduce_word)


@dataclass(frozen=True)
class Graph:
    """A finite graph: vertex names plus ``(name, init, term)`` oriented edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InvariantViolation("duplicate vertex names")
        names = [e[0] for e in self.edges]
        if len(set(names)) != len(names):
            raise InvariantViolation("duplicate edge names")
        vset = frozenset(self.vertices)
        for name, init, term in self.edges:
            if init not in vset or term not in vset:
                raise InvariantViolation(f"edge {name!r} has unknown endpoint")
        object.__setattr__(self, "_vertex_set", vset)
        object.__setattr__(self, "_ends",
                           {name: (init, term) for name, init, term in self.edges})
        object.__setattr__(self, "_forward", intern(names))

    @classmethod
    def rose(cls, edge_names: Sequence[str], vertex: str = "v") -> "Graph":
        return cls((vertex,), tuple((n, vertex, vertex) for n in edge_names))

    @property
    def edge_names(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.edges)

    def init_of(self, lt: Letter) -> str:
        init, term = self._ends[lt[0]]
        return init if lt[1] > 0 else term

    def term_of(self, lt: Letter) -> str:
        init, term = self._ends[lt[0]]
        return term if lt[1] > 0 else init

    @cached_property
    def _path_ends(self) -> dict[str, tuple[str, str]]:
        """(initial, terminal) vertex of each one-letter path, keyed by code
        point; built on first use, once per graph."""
        ends = dict(zip(self._forward, [(i, t) for _, i, t in self.edges]))
        # the inverse letters, in edge order
        ends.update(zip(inverse(self._forward)[::-1],
                        [(t, i) for _, i, t in self.edges]))
        return ends

    @cached_property
    def _directions_at(self) -> dict[str, tuple[Letter, ...]]:
        """Vertex -> its directions; built on first use, once per graph."""
        out: dict[str, list[Letter]] = {v: [] for v in self.vertices}
        for name, init, term in sorted(self.edges):  # names are distinct
            out[init].append((name, 1))
            out[term].append((name, -1))
        return {v: tuple(dirs) for v, dirs in out.items()}

    def directions(self, vertex: str) -> tuple[Letter, ...]:
        """All directions based at ``vertex``, sorted by (edge name, forward first)."""
        return self._directions_at.get(vertex, ())

    def _neighbours(self, vertex: str) -> Iterable[str]:
        return map(self.term_of, self.directions(vertex))

    def is_connected(self) -> bool:
        return not self.vertices or len(
            reachable(self.vertices[:1], self._neighbours)) == len(self.vertices)


T = TypeVar("T")


def reachable(starts: Iterable[T], step: Callable[[T], Iterable[T]]) -> set[T]:
    """Everything reachable from ``starts`` (included) by repeated ``step``."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def components(graph: Graph) -> tuple[tuple[str, ...], ...]:
    """The sorted vertex tuples of the connected components, in sorted order."""
    adjacent: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for _, init, term in graph.edges:
        adjacent[init].append(term)
        adjacent[term].append(init)
    seen: set[str] = set()
    out = []
    for start in graph.vertices:
        if start not in seen:
            comp = reachable((start,), adjacent.__getitem__)
            seen |= comp
            out.append(tuple(sorted(comp)))
    return tuple(sorted(out))


def rank(graph: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    if not graph.is_connected():
        raise DisconnectedGraphError(
            "rank is only defined here for connected graphs")
    return len(graph.edges) - len(graph.vertices) + 1


# ---------------------------------------------------------------------------
# paths


def check_path(graph: Graph, word: Word) -> tuple[str, str]:
    """Validate an edge path and return its (initial, terminal) vertices."""
    ends = graph._path_ends
    try:
        start, end = ends[word[0]]
        for i in range(1, len(word)):
            init, term = ends[word[i]]
            if init != end:
                for ch in set(word).difference(ends):
                    raise KeyError(ch)  # an unknown edge is reported first
                raise InvariantViolation(
                    f"path breaks between {letter_of(word[i - 1])!r} and "
                    f"{letter_of(word[i])!r}: {end!r} != {init!r}")
            end = term
    except IndexError:
        raise InvariantViolation("an empty path has no endpoints") from None
    except KeyError as exc:
        name = as_letter(exc.args[0])[0]
        raise InvariantViolation(f"unknown edge {name!r} in path") from None
    return start, end


def is_path(graph: Graph, word: Word) -> bool:
    try:
        check_path(graph, word)
        return True
    except InvariantViolation:
        return False


# ---------------------------------------------------------------------------
# graph maps


@dataclass
class GraphMap:
    """A map of graphs sending vertices to vertices and edges to edge paths.

    ``edge_images`` holds each edge's image as text over the codomain."""

    domain: Graph
    codomain: Graph
    vertex_map: dict[str, str]
    edge_images: dict[str, Word]

    def __post_init__(self) -> None:
        codomain_vertices = self.codomain._vertex_set
        for v in self.domain.vertices:
            if v not in self.vertex_map:
                raise InvariantViolation(f"vertex {v!r} has no image")
            if self.vertex_map[v] not in codomain_vertices:
                raise InvariantViolation(f"vertex image {self.vertex_map[v]!r} unknown")
        for name, init, term in self.domain.edges:
            if name not in self.edge_images:
                raise InvariantViolation(f"edge {name!r} has no image")
            img = self.edge_images[name]
            want = (self.vertex_map[init], self.vertex_map[term])
            if img:
                got = check_path(self.codomain, img)
            else:
                got = (want[0], want[0])
            if got != want:
                raise InvariantViolation(
                    f"image of edge {name!r} runs {got} but vertex images need {want}")

    @classmethod
    def from_strings(cls, graph: Graph, vertex_map: Mapping[str, str],
                     images: Mapping[str, str],
                     codomain: Optional[Graph] = None) -> "GraphMap":
        cod = codomain if codomain is not None else graph
        return cls(graph, cod, dict(vertex_map),
                   {e: parse_word(images[e], cod.edge_names) for e in graph.edge_names})

    @property
    def is_self_map(self) -> bool:
        return self.domain == self.codomain

    @cached_property
    def _image_table(self) -> ImageTable:
        """The image of each direction, the inverse ones made on first
        lookup (``edge_images`` must not change after that)."""
        names = self.domain.edge_names
        return ImageTable(names, map(self.edge_images.__getitem__, names))

    @cached_property
    def _edge_map(self) -> FreeGroupMap:
        """The map of free groups on the edge names that sends each edge
        to its tightened image: on edge paths it acts as this map does
        followed by tightening (``edge_images`` must not change after the
        first use)."""
        names = self.domain.edge_names
        return FreeGroupMap(names, self.codomain.edge_names,
                            tuple(map(self.edge_images.__getitem__, names)))

    def apply_path(self, word: Word) -> Word:
        """Image of an edge path, concatenated without tightening."""
        return "".join(map(self._image_table.__getitem__, word))

    def apply_tight(self, word: Word) -> Word:
        """Tightened image of an edge path; equals ``tighten(apply_path(word))``."""
        return self._edge_map.apply(word)

    def iterate_tight(self, word: Word, n: int) -> Word:
        """The tightened image of an edge path under the n-th power of a
        self-map: n rounds of :meth:`apply_tight`."""
        if n > 1 and not self.is_self_map:
            raise InvariantViolation("only a self-map can be iterated")
        if n < 1:
            return encode(word)
        apply = self._edge_map.apply
        for _ in range(n):
            word = apply(word)
        return word


def compose(f: GraphMap, g: GraphMap) -> GraphMap:
    """Return f ∘ g (apply ``g`` first); images concatenate without tightening."""
    if g.codomain != f.domain:
        raise InvariantViolation("composition requires g.codomain == f.domain")
    return GraphMap(g.domain, f.codomain,
                    {v: f.vertex_map[g.vertex_map[v]] for v in g.domain.vertices},
                    {e: f.apply_path(g.edge_images[e]) for e in g.domain.edge_names})


# ---------------------------------------------------------------------------
# subdivision at image preimages


@dataclass
class Subdivision:
    """Result of subdividing a self-map so every edge maps over a single edge.

    ``graph`` is the subdivided graph; ``relabeled`` maps it to the original
    graph one edge at a time (its images are single letters, the labels);
    ``inclusion`` is the subdivision homeomorphism from the original graph,
    so that ``relabeled ∘ inclusion`` equals the original map.
    """

    graph: Graph
    relabeled: GraphMap
    inclusion: GraphMap


def subdivide_at_preimages(f: GraphMap) -> Subdivision:
    if not f.is_self_map:
        raise InvariantViolation("subdivision expects a graph self-map")
    g = f.domain
    vertices = list(g.vertices)
    vset = set(vertices)
    edges: list[tuple[str, str, str]] = []
    labels: dict[str, Word] = {}
    inclusion_images: dict[str, list[Letter]] = {}
    new_vertex_map: dict[str, str] = dict(f.vertex_map)

    for name, init, term in g.edges:
        img = f.edge_images[name]
        if not img:
            raise InvariantViolation(
                f"cannot subdivide: edge {name!r} has empty image")
        L = len(img)
        if L == 1:
            edges.append((name, init, term))
            labels[name] = img
            inclusion_images[name] = [(name, 1)]
            continue
        piece_names = [f"{name}_{i}" for i in range(1, L + 1)]
        inner = [f"{name}@{i}" for i in range(1, L)]
        for v in inner:
            if v in vset:
                raise InvariantViolation(f"subdivision vertex name clash: {v!r}")
            vset.add(v)
            vertices.append(v)
        stops = [init] + inner + [term]
        for i, piece in enumerate(piece_names):
            edges.append((piece, stops[i], stops[i + 1]))
            labels[piece] = img[i]
        for i, v in enumerate(inner, start=1):
            new_vertex_map[v] = g.term_of(letter_of(img[i - 1]))
        inclusion_images[name] = [(p, 1) for p in piece_names]

    graph0 = Graph(tuple(vertices), tuple(edges))
    relabeled = GraphMap(graph0, g, new_vertex_map, labels)
    inclusion = GraphMap(g, graph0, {v: v for v in g.vertices},
                         {name: encode(pieces)
                          for name, pieces in inclusion_images.items()})
    return Subdivision(graph0, relabeled, inclusion)


# ---------------------------------------------------------------------------
# spanning trees and collapse


@dataclass
class SpanningTree:
    root: str
    tree_edges: frozenset[str]
    #: vertex -> path (word) from root to the vertex, inside the tree
    root_paths: dict[str, Word]

    def path(self, u: str, v: str) -> Word:
        """The tree path from ``u`` to ``v``: the root paths cancel exactly
        along their common prefix."""
        pu, pv = self.root_paths[u], self.root_paths[v]
        k = len(commonprefix((pu, pv)))
        return inverse(pu[k:]) + pv[k:]

    @cached_property
    def _collapse(self) -> dict[int, None]:
        """A ``str.translate`` table deleting the tree edges."""
        return {ord(char((name, sign))): None
                for name in self.tree_edges for sign in (1, -1)}


def spanning_tree(graph: Graph, root: Optional[str] = None) -> SpanningTree:
    """Breadth-first spanning tree; root defaults to the least vertex name and
    neighbours are explored in direction order, so the result is deterministic."""
    if not graph.vertices:
        raise InvariantViolation("empty graph has no spanning tree")
    if root is None:
        root = min(graph.vertices)
    seen: dict[str, Word] = {root: ""}
    tree: set[str] = set()
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for v in frontier:
            for lt in graph.directions(v):
                w = graph.term_of(lt)
                if w not in seen:
                    seen[w] = seen[v] + char(lt)
                    tree.add(lt[0])
                    nxt.append(w)
        frontier = nxt
    if len(seen) != len(graph.vertices):
        raise DisconnectedGraphError("graph is not connected")
    return SpanningTree(root, frozenset(tree), seen)


def collapse_word(tree: SpanningTree, word: Word) -> Word:
    """Image of a path under collapsing the spanning tree: drop tree letters."""
    return reduce_word(word.translate(tree._collapse))


def fundamental_group_map(f: GraphMap, tree: SpanningTree) -> FreeGroupMap:
    """A self-map read on π₁ at the tree's root, on the sorted non-tree edges.

    Each non-tree edge stands for its loop through the tree from the root;
    its image is the image of that loop with the tree collapsed.
    """
    graph = f.domain
    gens = tuple(sorted(name for name in graph.edge_names
                        if name not in tree.tree_edges))
    images = []
    for gen in gens:
        loop = tree.path(tree.root, graph.init_of((gen, 1))) + char((gen, 1)) \
            + tree.path(graph.term_of((gen, 1)), tree.root)
        images.append(collapse_word(tree, f.apply_path(loop)))
    return FreeGroupMap(gens, gens, tuple(images))


# ---------------------------------------------------------------------------
# markings


@dataclass
class MarkedGraph:
    """A graph with a rose marking: loops at a basepoint, one per generator."""

    graph: Graph
    basepoint: str
    generators: tuple[str, ...]
    marking_words: dict[str, Word]

    def __post_init__(self) -> None:
        if self.basepoint not in self.graph.vertices:
            raise InvariantViolation(f"unknown basepoint {self.basepoint!r}")
        for gname in self.generators:
            init, term = check_path(self.graph, self.marking_words[gname])
            if init != self.basepoint or term != self.basepoint:
                raise InvariantViolation(
                    f"marking word for {gname!r} is not a loop at the basepoint")


def marking_change_of_basis(marked: MarkedGraph
                            ) -> tuple[SpanningTree, tuple[str, ...], FreeGroupMap]:
    """The word-level map μ = (collapse tree) ∘ (marking) from the marking
    generators to the non-tree edges.  A marking is a homotopy equivalence
    exactly when μ is an automorphism-like change of basis."""
    tree = spanning_tree(marked.graph)
    nontree = tuple(sorted(n for n in marked.graph.edge_names
                           if n not in tree.tree_edges))
    mu = FreeGroupMap(marked.generators, nontree,
                      tuple(collapse_word(tree, marked.marking_words[g])
                            for g in marked.generators))
    return tree, nontree, mu


def map_to_automorphism(marked: MarkedGraph, f: GraphMap) -> FreeGroupMap:
    """Read off the outer automorphism represented by a self-map of a marked
    graph: collapse a deterministic spanning tree, push the marking through,
    and convert back to the marking generators.

    The result is well defined up to conjugacy.
    """
    if not f.is_self_map or f.domain != marked.graph:
        raise InvariantViolation("expected a self-map of the marked graph")
    tree, nontree, mu = marking_change_of_basis(marked)
    mu_inv = greedy_nielsen_inverse(mu)
    if mu_inv is None:
        raise MarkingError(
            "marking fails homotopy-inverse word check: the collapsed marking "
            "words do not greedily reduce to a basis of the free group on the "
            "non-tree edges")
    psi = FreeGroupMap(
        marked.generators, nontree,
        tuple(collapse_word(tree, f.apply_path(marked.marking_words[g]))
              for g in marked.generators))
    images = tuple(mu_inv.apply(psi.image(g)) for g in marked.generators)
    return FreeGroupMap(marked.generators, marked.generators, images)


# ---------------------------------------------------------------------------
# text format


@dataclass
class MapFile:
    """Parsed contents of a ``.map`` file; the graph is ``gmap.domain``."""

    gmap: GraphMap
    marked: Optional[MarkedGraph]
    assumptions: frozenset[str]


def parse_map_text(text: str) -> MapFile:
    """Parse the marked-graph-with-map text format.

    Lines (``#`` comments and blanks ignored)::

        vertices <name>...
        edge <name> <init> <term>
        vmap <vertex> <image vertex>
        emap <edge> <image word>
        marking basepoint <vertex>
        marking <generator> <loop word>
        assume <flag>
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    vmap: dict[str, str] = {}
    emap_raw: dict[str, str] = {}
    basepoint: Optional[str] = None
    marking_raw: list[tuple[str, str]] = []
    assumptions: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "vertices":
                vertices.extend(args)
            elif kind == "edge":
                name, init, term = args
                edges.append((name, init, term))
            elif kind == "vmap":
                v, image = args
                vmap[v] = image
            elif kind == "emap":
                name = args[0]
                emap_raw[name] = " ".join(args[1:])
            elif kind == "marking":
                if args[0] == "basepoint":
                    (_, basepoint) = args
                else:
                    marking_raw.append((args[0], " ".join(args[1:])))
            elif kind == "assume":
                (flag,) = args
                assumptions.add(flag)
            else:
                raise InputParseError(f"line {lineno}: unknown directive {kind!r}")
        except (ValueError, IndexError) as exc:
            raise InputParseError(f"line {lineno}: malformed {kind!r} line") from exc

    check_names(name for name, _, _ in edges)
    check_names(g for g, _ in marking_raw)
    try:
        graph = Graph(tuple(vertices), tuple(edges))
        gmap = GraphMap.from_strings(graph, vmap, emap_raw)
    except (InvariantViolation, KeyError) as exc:
        raise InputParseError(f"inconsistent map data: {exc}") from exc

    marked = None
    if marking_raw:
        if basepoint is None:
            raise InputParseError("marking words given without a basepoint")
        try:
            marked = MarkedGraph(
                graph, basepoint, tuple(g for g, _ in marking_raw),
                {g: parse_word(w, graph.edge_names) for g, w in marking_raw})
        except InvariantViolation as exc:
            raise InputParseError(f"invalid marking: {exc}") from exc
    return MapFile(gmap, marked, frozenset(assumptions))


def load_map_file(path: str | Path) -> MapFile:
    try:
        return parse_map_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputParseError(f"{path} is not UTF-8 text: {exc}") from None
