"""Helpers that only the tests use: seeded random paths and map pairs,
two readings of a free-group map, the identity maps of a free group and
of a graph, the tuple-word oracles (free reduction, inversion and the
substitution loop) that check the text kernel behind
``FreeGroupMap.apply`` and ``GraphMap.iterate_tight``, writers of the
``.map`` and ``.2gen`` text formats for round-trip tests, the
package's cone verdict on a class with rational values, and an exact
length perturbation at turns of trivalent vertices.

A tuple word is a tuple of ``(name, sign)`` letters, the package's word
representation before words became text."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import freebycyclic.cohomology as co
from freebycyclic.bns import TwoGenPresentation
from freebycyclic.corpus import random_expanding_map
from freebycyclic.errors import ConeInfeasibleError, InvariantViolation
from freebycyclic.graphs import Graph, GraphMap, MapFile
from freebycyclic.words import (FreeGroupMap, Letter, Word, encode, format_word,
                                letter_of)


def as_dict(fmap: FreeGroupMap) -> dict[str, str]:
    """Each generator's image, written as a word."""
    return {g: format_word(fmap.image(g)) for g in fmap.domain}


def identity_map(gens: tuple[str, ...]) -> FreeGroupMap:
    """The identity automorphism of the free group on ``gens``."""
    return FreeGroupMap(gens, gens, tuple(encode(((g, 1),)) for g in gens))


def identity_graph_map(graph: Graph) -> GraphMap:
    """The identity self-map of ``graph``."""
    return GraphMap(graph, graph, {v: v for v in graph.vertices},
                    {name: encode(((name, 1),)) for name in graph.edge_names})


def all_directions(graph: Graph) -> tuple[Letter, ...]:
    """Every direction of ``graph``, sorted by (edge name, forward first)."""
    return tuple(sorted(((name, sign) for name, _, _ in graph.edges
                         for sign in (1, -1)),
                        key=lambda lt: (lt[0], -lt[1])))


def direction_image(f: GraphMap, lt: Letter) -> Letter:
    """First letter of the image of the direction ``lt`` (image must be
    nonempty)."""
    name, sign = lt
    img = f.edge_images[name]
    if not img:
        raise InvariantViolation(f"edge {name!r} has empty image")
    if sign > 0:
        return letter_of(img[0])
    name, sign = letter_of(img[-1])
    return (name, -sign)


def same_images(f: FreeGroupMap, g: FreeGroupMap) -> bool:
    """Equal domains, codomains and image words, letter for letter."""
    return (f.domain == g.domain and f.codomain == g.codomain
            and f.images == g.images)


TupleWord = tuple[Letter, ...]


def tuple_inverse(word: Iterable[Letter]) -> TupleWord:
    return tuple((name, -sign) for (name, sign) in reversed(tuple(word)))


def tuple_reduce(word: Iterable[Letter]) -> TupleWord:
    """Freely reduce a tuple word with a stack."""
    out: list[Letter] = []
    for lt in word:
        if out and out[-1][0] == lt[0] and out[-1][1] == -lt[1]:
            out.pop()
        else:
            out.append(lt)
    return tuple(out)


def tuple_power(word: Iterable[Letter], n: int) -> TupleWord:
    w = tuple(word)
    if n < 0:
        w, n = tuple_inverse(w), -n
    return tuple_reduce(w * n)


def tuple_cyclic_reduce(word: Iterable[Letter]) -> tuple[TupleWord, TupleWord]:
    """``(core, u)`` with ``word = u core u^-1`` and core cyclically reduced."""
    w = tuple_reduce(word)
    k = 0
    while 2 * k + 2 <= len(w) and w[k] == (w[-1 - k][0], -w[-1 - k][1]):
        k += 1
    return w[k:len(w) - k], w[:k]


def tuple_conjugating_word(w1: Iterable[Letter], w2: Iterable[Letter]
                           ) -> Optional[TupleWord]:
    """A word ``z`` with ``z w1 z^-1 = w2`` (reduced), or None: the first
    rotation of the core of ``w1`` that is the core of ``w2``."""
    c1, u1 = tuple_cyclic_reduce(w1)
    c2, u2 = tuple_cyclic_reduce(w2)
    if len(c1) != len(c2):
        return None
    for j in range(max(1, len(c1))):
        if c1[j:] + c1[:j] == c2:
            return tuple_reduce(u2 + tuple_inverse(c1[:j]) + tuple_inverse(u1))
    return None


def tuple_primitive_root(word: Iterable[Letter]) -> tuple[TupleWord, int]:
    """``(u r u^-1, k)`` for the least ``r`` with core ``r^k``."""
    core, u = tuple_cyclic_reduce(word)
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core == core[:d] * (n // d):
            return tuple_reduce(u + core[:d] + tuple_inverse(u)), n // d
    raise InvariantViolation("the identity has no primitive root")


def substitute(word: Iterable[Letter],
               image_of: Mapping[Letter, TupleWord]) -> TupleWord:
    """Freely reduced product of ``image_of[lt]`` over the letters of ``word``.

    Every image must be freely reduced.  The output then stays reduced
    inside each appended image, so the only cancellation is where a new
    image meets the tail of the output: each image is appended after its
    head has cancelled against that tail.  ``word`` itself may be
    unreduced.
    """
    out: list[Letter] = []
    pop, extend = out.pop, out.extend
    for lt in word:
        img = image_of[lt]
        if out and img:
            last, head = out[-1], img[0]
            if last[0] == head[0] and last[1] == -head[1]:
                pop()
                k, n = 1, len(img)
                while out and k < n:
                    last, head = out[-1], img[k]
                    if last[0] != head[0] or last[1] != -head[1]:
                        break
                    pop()
                    k += 1
                extend(img[k:])
                continue
        extend(img)
    return tuple(out)


def random_pair(seed: int) -> tuple[GraphMap, GraphMap]:
    """Two maps on the same rose, suitable for composition laws."""
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    f = random_expanding_map(rng=rng, rank=rank)
    g = random_expanding_map(rng=rng, rank=rank)
    return f, g


def random_path(graph: Graph, length: int, seed: Optional[int] = None, *,
                rng: Optional[random.Random] = None) -> Word:
    """A random edge path (backtracking allowed) of the given length."""
    if rng is None:
        rng = random.Random(seed)
    if length <= 0:
        return ""
    at = rng.choice(graph.vertices)
    out: list[Letter] = []
    for _ in range(length):
        choices = graph.directions(at)
        if not choices:
            raise InvariantViolation(f"vertex {at!r} has no directions")
        lt = rng.choice(choices)
        out.append(lt)
        at = graph.term_of(lt)
    return encode(out)


def format_map_file(mapfile: MapFile) -> str:
    """Serialize back to the ``.map`` text format."""
    g = mapfile.gmap.domain
    lines = ["vertices " + " ".join(g.vertices)]
    lines += [f"edge {n} {i} {t}" for n, i, t in g.edges]
    lines += [f"vmap {v} {mapfile.gmap.vertex_map[v]}" for v in g.vertices]
    lines += [f"emap {n} {format_word(mapfile.gmap.edge_images[n])}"
              for n in g.edge_names]
    if mapfile.marked is not None:
        m = mapfile.marked
        lines.append(f"marking basepoint {m.basepoint}")
        lines += [f"marking {gen} {format_word(m.marking_words[gen])}"
                  for gen in m.generators]
    for flag in sorted(mapfile.assumptions):
        lines.append(f"assume {flag}")
    return "\n".join(lines) + "\n"


def format_presentation(pres: TwoGenPresentation) -> str:
    """Serialize back to the ``.2gen`` text format."""
    lines = []
    if pres.use:
        lines.append(f"use {pres.use}")
    lines.append("generators " + " ".join(pres.generators))
    lines.append("relator " + format_word(pres.relator))
    for g in pres.generators:
        pairs = " ".join(f"{cell} {coeff}"
                         for cell, coeff in pres.dualcycles[g].items())
        lines.append(f"dualcycle {g} {pairs}")
    return "\n".join(lines) + "\n"


def open_cone_representative(complex_, z: Mapping) -> dict:
    """The package's cone route on the class of ``z``: the least integral
    representative at least 0 of that class scaled by the common
    denominator of ``z``, refused by ``require_open_cone``.  Raises
    :class:`ConeInfeasibleError` outside the open positive cone."""
    scale = math.lcm(*(Fraction(v).denominator for v in z.values()))
    least = co.integral_cocycle(complex_, co.dict_scale(scale, z))
    co.require_open_cone(complex_, least)
    return least


def in_open_cone(complex_, z: Mapping) -> bool:
    """Whether the class of ``z`` lies in the open positive cone."""
    try:
        open_cone_representative(complex_, z)
    except ConeInfeasibleError:
        return False
    return True


class TurnDataError(InvariantViolation):
    """A turn list violates the preconditions of the length perturbation."""


def delta_lengths(graph: Graph, lengths: Mapping[str, float],
                  turns: Sequence[frozenset], weights: Sequence[Fraction]
                  ) -> dict[str, float]:
    """Volume-preserving length change supported near chosen turns.

    Each turn must sit at its own trivalent vertex and must not consist of
    the two ends of a single loop.  Per turn the two turn edges lose and
    the remaining edge gains, loops are left untouched, and the result is
    rescaled to total length one; the total weight must stay below one.
    """
    if len(turns) != len(weights):
        raise TurnDataError("one weight is needed per turn")
    total = sum(Fraction(w) for w in weights)
    if total >= 1:
        raise TurnDataError("total perturbation weight must be below one")
    is_loop = {name: init == term for name, init, term in graph.edges}
    seen_vertices = set()
    deltas: list[dict[str, int]] = []
    for turn in turns:
        if len(turn) != 2:
            raise TurnDataError("a turn is a pair of distinct directions")
        d1, d2 = sorted(turn)
        if d1[0] == d2[0]:
            raise TurnDataError(
                f"turn at edge {d1[0]!r} uses both ends of one loop")
        v = graph.init_of(d1)
        if graph.init_of(d2) != v:
            raise TurnDataError("turn directions are based at different vertices")
        if v in seen_vertices:
            raise TurnDataError(f"vertex {v!r} carries more than one turn")
        seen_vertices.add(v)
        dirs = graph.directions(v)
        if len(dirs) != 3:
            raise TurnDataError(f"vertex {v!r} is not trivalent")
        if d1 not in dirs or d2 not in dirs:
            raise TurnDataError(f"turn directions are not based at {v!r}")
        (third,) = [d for d in dirs if d not in (d1, d2)]
        delta: dict[str, int] = {}
        for direction, change in ((d1, -1), (d2, -1), (third, 1)):
            name = direction[0]
            delta[name] = 0 if is_loop[name] else change
        if sum(delta.values()) != -1:
            raise InvariantViolation("length change does not sum to minus one")
        deltas.append(delta)
    shrink = 1 - total
    out = {}
    for name in graph.edge_names:
        moved = Fraction(lengths[name]) + sum(
            w * delta.get(name, 0) for w, delta in zip(weights, deltas))
        out[name] = float(moved / shrink)
    return out
