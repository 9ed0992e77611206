"""Seeded generators of example maps for property testing.

Products of positive elementary Nielsen substitutions on a rose are
homotopy equivalences whose edge images contain no inverse letters, so
every turn taken by an image is mixed-sign-free and the map is a train
track map by construction.  Rejection sampling on the transition matrix
keeps only expanding irreducible examples.  All randomness comes from an
explicit seed; nothing reads the environment.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .errors import InvariantViolation
from .graphs import Graph, GraphMap
from .traintrack import is_expanding, transition_matrix

ALPHABET = "abcdefgh"
# random_expanding_map draws at most this many Nielsen moves per candidate
# and gives up after this many rejected candidates
_MAX_MOVES = 8
_ATTEMPTS = 200


def _substitute(images: dict[str, str], target: str, replacement: str
                ) -> dict[str, str]:
    return {g: w.replace(target, replacement) for g, w in images.items()}


def _random_positive_images(rng: random.Random, names: Sequence[str],
                            moves: int) -> dict[str, str]:
    images = {g: g for g in names}
    for _ in range(moves):
        i, j = rng.sample(range(len(names)), 2)
        gi, gj = names[i], names[j]
        if rng.random() < 0.5:
            images = _substitute(images, gi, gi + gj)
        else:
            images = _substitute(images, gi, gj + gi)
    return images


def rose_map(images: dict[str, str]) -> GraphMap:
    rose = Graph.rose(sorted(images), vertex="v")
    return GraphMap.from_strings(rose, {"v": "v"}, images)


def random_expanding_map(seed: Optional[int] = None, *,
                         rng: Optional[random.Random] = None,
                         rank: Optional[int] = None) -> GraphMap:
    """A positive expanding irreducible self-map of a rose.

    Deterministic in ``seed`` (or draws from a caller-supplied ``rng``).
    ``rank`` fixes the rose rank; otherwise 2 or 3 is chosen at random.
    """
    if rng is None:
        rng = random.Random(seed)
    for _ in range(_ATTEMPTS):
        n = rank if rank is not None else rng.choice((2, 3))
        if not 2 <= n <= len(ALPHABET):
            raise InvariantViolation(f"rank {n} out of range")
        names = list(ALPHABET[:n])
        moves = rng.randrange(3, _MAX_MOVES + 1)
        images = _random_positive_images(rng, names, moves)
        candidate = rose_map(images)
        matrix = transition_matrix(candidate)
        if is_expanding(matrix):
            return candidate
    raise InvariantViolation(
        f"no expanding irreducible map found in {_ATTEMPTS} attempts")


def corpus(count: int, seed: int) -> tuple[GraphMap, ...]:
    """``count`` independent seeded samples from :func:`random_expanding_map`."""
    rng = random.Random(seed)
    return tuple(random_expanding_map(rng=rng) for _ in range(count))

