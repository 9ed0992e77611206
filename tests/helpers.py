"""Helpers that only the tests use: seeded random paths and map pairs,
and two readings of a free-group map."""

from __future__ import annotations

import random
from typing import Optional

from freebycyclic.corpus import random_expanding_map
from freebycyclic.errors import InvariantViolation
from freebycyclic.graphs import Graph, GraphMap
from freebycyclic.words import FreeGroupMap, Letter, Word, format_word


def as_dict(fmap: FreeGroupMap) -> dict[str, str]:
    """Each generator's image, written as a word."""
    return {g: format_word(fmap.image(g)) for g in fmap.domain}


def same_images(f: FreeGroupMap, g: FreeGroupMap) -> bool:
    """Equal domains, codomains and image words, letter for letter."""
    return (f.domain == g.domain and f.codomain == g.codomain
            and f.images == g.images)


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
        return ()
    at = rng.choice(graph.vertices)
    out: list[Letter] = []
    for _ in range(length):
        choices = graph.directions(at)
        if not choices:
            raise InvariantViolation(f"vertex {at!r} has no directions")
        lt = rng.choice(choices)
        out.append(lt)
        at = graph.term_of(lt)
    return tuple(out)
