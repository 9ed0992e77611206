"""Train track structure of graph self-maps.

Directions, turns, illegal turns, the single-step train track test, the
crossing (transition) matrix with its irreducibility/expansion tests and
eigenmetric, taken turns, stable Whitehead data at principal vertices, the
rotationless index, a bounded periodic-Nielsen-path search, and the lone
axis verdict.

One lazy record, ``_Invariants``, computes each train track invariant of a
map at most once, on first use: ``is_train_track``, ``eigen_metric``,
``nielsen_search``, ``lone_axis_check`` and ``traintrack_report`` each read
one record, so a caller computes only the invariants it reads and a report
shares them with its verdict.  The Nielsen search takes only expanding
irreducible train track maps and refuses any other map with a typed error
naming the failed hypothesis.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import Optional, Sequence

from .errors import InvariantViolation, NotExpandingError, NotIrreducibleError
from .graphs import GraphMap, rank as graph_rank, reachable
from .words import (Letter, Word, char, encode, format_word, inverse,
                    inverse_letter, letter_of, letters, reduce_word)

#: A turn is an unordered pair of distinct directions at a common vertex.
Turn = frozenset  # frozenset[Letter] of size 2

# eigen_metric stops at this residual or after this many iterations; the
# eigenray Nielsen search skips a half whose tight image passes the cap; a
# periodic orbit is abandoned once an iterate passes the growth cap
_EIGEN_TOL = 1e-12
_EIGEN_MAX_ITERATIONS = 200_000
_POWER_IMAGE_CAP = 1_000_000
_ORBIT_GROWTH_CAP = 100_000


def make_turn(d1: Letter, d2: Letter) -> Turn:
    return frozenset((d1, d2))


def turn_sort_key(turn: Turn):
    return tuple(sorted(turn))


def format_direction(d: Letter) -> str:
    return format_word(char(d))


def format_turn(turn: Turn) -> str:
    return "{" + ", ".join(format_direction(d) for d in sorted(turn)) + "}"


def direction_map(f: GraphMap) -> dict[Letter, Letter]:
    """The derivative: each direction to the first direction of its image,
    read off the first and last letter of each edge image; directions in
    edge name order, forward first."""
    dmap = {}
    for name in sorted(f.domain.edge_names):
        img = f.edge_images[name]
        if not img:
            raise InvariantViolation(f"edge {name!r} has empty image")
        dmap[name, 1] = letter_of(img[0])
        dmap[name, -1] = inverse_letter(letter_of(img[-1]))
    return dmap


def _stable_images(f: GraphMap) -> dict[Letter, Letter]:
    """Image of each direction under Df iterated #directions times.

    Two directions merge under some iterate exactly when they merge within
    #directions steps, so equality of these stabilized images decides
    illegality of a turn.  Each orbit is walked once: a direction on a
    cycle of length L goes to the one #directions mod L steps ahead, and
    a direction off the cycles, whose successor's stabilized image is
    known, goes to the cycle predecessor of that image (it lies at most
    #directions - L steps before its cycle).
    """
    dmap = direction_map(f)
    n = len(dmap)
    stable: dict[Letter, Letter] = {}
    cycle_prev: dict[Letter, Letter] = {}
    for start in dmap:
        if start in stable:
            continue
        path: list[Letter] = []
        on_path: dict[Letter, int] = {}
        d = start
        while d not in stable and d not in on_path:
            on_path[d] = len(path)
            path.append(d)
            d = dmap[d]
        if d in on_path:  # the walk closed a new cycle
            cycle = path[on_path[d]:]
            del path[on_path[d]:]
            for p, c in enumerate(cycle):
                stable[c] = cycle[(p + n) % len(cycle)]
                cycle_prev[c] = cycle[p - 1]
        for d in reversed(path):
            stable[d] = cycle_prev[stable[dmap[d]]]
    return stable


def periodic_directions(f: GraphMap) -> frozenset[Letter]:
    """Directions lying on a cycle of the direction map.

    Every orbit of Df enters its cycle within #directions steps and every
    cycle is mapped onto itself, so these are exactly the values of the
    stabilized direction map.
    """
    return frozenset(_stable_images(f).values())


def illegal_turns(f: GraphMap) -> tuple[Turn, ...]:
    """Turns whose two directions are eventually identified by the direction map.

    The directions are grouped by their initial vertex and stabilized
    image, and the illegal turns are the pairs inside a group.
    """
    stable = _stable_images(f)
    groups: dict[tuple[str, Letter], list[Letter]] = {}
    for name, init, term in f.domain.edges:
        d = (name, 1)
        groups.setdefault((init, stable[d]), []).append(d)
        d = (name, -1)
        groups.setdefault((term, stable[d]), []).append(d)
    return tuple(sorted((make_turn(d1, d2) for group in groups.values()
                         for d1, d2 in combinations(group, 2)),
                        key=turn_sort_key))


def crossed_turns_of_path(word: Word) -> list[tuple[int, Turn]]:
    """(position, turn) pairs crossed by a tight-or-not edge path.

    Position ``i`` (1-based) is the turn between letters ``i`` and ``i+1``;
    a degenerate crossing (immediate backtrack) yields a size-1 frozenset.
    """
    if len(word) < 2:
        return []
    word = letters(word)
    return [(i, frozenset((inverse_letter(word[i - 1]), word[i])))
            for i in range(1, len(word))]


def is_train_track(f: GraphMap) -> tuple[bool, Optional[tuple[str, int]]]:
    """Single-step test: no edge image crosses an illegal or degenerate turn.

    Returns ``(True, None)`` or ``(False, (edge, position))`` where position
    is the 1-based index of the offending turn inside the edge's image word.
    """
    return _Invariants(f).train_track


# ---------------------------------------------------------------------------
# transition matrix


@dataclass
class TransitionMatrix:
    """Crossing counts over a sorted edge basis, stored by rows.

    ``entries[i]`` lists the nonzero entries of row ``i`` as
    ``(column, count)`` pairs in ascending column order; section return
    maps cross few edges per image, so rows are short.
    """

    edges: tuple[str, ...]
    entries: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix, row by row."""
        n = len(self.edges)
        dense = []
        for row in self.entries:
            full = [0] * n
            for j, count in row:
                full[j] = count
            dense.append(tuple(full))
        return tuple(dense)

    def row_sum(self, i: int) -> int:
        return sum(count for _j, count in self.entries[i])


def transition_matrix(f: GraphMap) -> TransitionMatrix:
    """Entry (i, j): how often the image of edge i crosses edge j (either way)."""
    edges = tuple(sorted(f.domain.edge_names))
    column = _columns(edges)
    entries = tuple(
        ((column[img], 1),) if len(img) == 1 else
        tuple(sorted(Counter(map(column.__getitem__, img)).items()))
        for img in map(f.edge_images.__getitem__, edges))
    return TransitionMatrix(edges, entries)


def _columns(edges: Sequence[str]) -> dict[str, int]:
    """Each code point of an oriented edge to the index of its edge."""
    forward = encode([(e, 1) for e in edges])
    column = dict(zip(forward, range(len(edges))))
    column.update(zip(inverse(forward)[::-1], range(len(edges))))
    return column


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """The crossing digraph (arc i -> j iff entry > 0) is strongly connected.

    Forward and reverse reachability from edge 0, in O(edges + nonzeros).
    """
    n = len(matrix.edges)
    if n == 0:
        return False
    succ = [[j for j, _count in row] for row in matrix.entries]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    return len(reachable((0,), succ.__getitem__)) == n \
        and len(reachable((0,), pred.__getitem__)) == n


def is_expanding(matrix: TransitionMatrix) -> bool:
    """Irreducible with some edge image crossing at least two edges."""
    return is_irreducible(matrix) and _stretches(matrix)


def _stretches(matrix: TransitionMatrix) -> bool:
    """Some edge image crosses at least two edges."""
    return any(matrix.row_sum(i) >= 2 for i in range(len(matrix.edges)))


@dataclass
class EigenMetric:
    edges: tuple[str, ...]
    lengths: dict[str, float]
    stretch: float
    residual: float
    iterations: int


def eigen_metric(f: GraphMap) -> EigenMetric:
    """Edge lengths scaled by the expansion factor under the map.

    Power iteration on (A + I) applied to the crossing matrix A; the lengths
    are the positive right eigenvector normalized to total length 1 and the
    certified residual max_i |(A l)_i - stretch * l_i| is at most 1e-10.
    Raises ``NotIrreducibleError`` or ``NotExpandingError`` on a crossing
    matrix that is not irreducible or not expanding.
    """
    return _Invariants(f).metric


def _gather(indices: Sequence[int]):
    """``itemgetter`` that returns a tuple for one index too."""
    if len(indices) == 1:
        i = indices[0]
        return lambda vec: (vec[i],)
    return itemgetter(*indices)


def _power_iteration(matrix: TransitionMatrix) -> EigenMetric:
    """``eigen_metric`` of an irreducible, expanding crossing matrix."""
    n = len(matrix.edges)
    x = [1.0 / n] * n

    # A·x is one gather from x followed by the sums of the other rows: a
    # row that is one entry of count 1 is x_j itself (sum((1 * v,)) == v);
    # every other row sums its products in column order with sum(), as the
    # dense products do, and dropping the zero entries drops exact zeros
    # from sums of nonnegative terms, so A·x equals the dense one bit for bit
    sums = []
    slots = []  # where row i of A·x sits in x + [the sums]
    for row in matrix.entries:
        if len(row) == 1 and row[0][1] == 1:
            slots.append(row[0][0])
        else:
            slots.append(n + len(sums))
            sums.append((tuple(count for _j, count in row),
                         _gather([j for j, _count in row])))
    get = _gather(slots)

    def apply_a(vec: list[float]) -> tuple[float, ...]:
        return get(vec + [sum(map(mul, counts, cols(vec)))
                          for counts, cols in sums])

    stretch = 0.0
    residual = float("inf")
    iterations = 0
    worst = 0  # the argmax of the last full residual
    ax = apply_a(x)  # kept from one iteration to the next
    while iterations < _EIGEN_MAX_ITERATIONS:
        iterations += 1
        y = list(map(add, ax, x))
        x = list(map(truediv, y, repeat(sum(y))))
        ax = apply_a(x)
        stretch = sum(map(mul, ax, x)) / sum(map(mul, x, x))
        # the max is at least one entry: skip it while that entry is too big
        if abs(ax[worst] - stretch * x[worst]) > _EIGEN_TOL \
                and iterations < _EIGEN_MAX_ITERATIONS:
            continue
        res = list(map(abs, map(sub, ax, map(mul, repeat(stretch), x))))
        residual = max(res)
        if residual <= _EIGEN_TOL:
            break
        worst = res.index(residual)
    if residual > 1e-10:
        raise InvariantViolation(
            f"eigenmetric did not certify: residual {residual:g} > 1e-10")
    total = sum(x)
    x = [v / total for v in x]
    return EigenMetric(matrix.edges, dict(zip(matrix.edges, x)),
                       stretch, residual, iterations)


# ---------------------------------------------------------------------------
# taken turns and Whitehead data


def taken_turns(f: GraphMap) -> tuple[Turn, ...]:
    """Least set of turns containing all turns crossed by edge images and
    closed under the direction map."""
    dmap = direction_map(f)
    crossed = (turn for name in f.domain.edge_names
               for _pos, turn in crossed_turns_of_path(f.edge_images[name])
               if len(turn) == 2)

    def image(turn: Turn) -> tuple[Turn, ...]:
        img = frozenset(dmap[d] for d in turn)
        return (img,) if len(img) == 2 else ()

    return tuple(sorted(reachable(crossed, image), key=turn_sort_key))


@dataclass
class WhiteheadData:
    """Ideal Whitehead graph of a train track map at its principal vertices,
    the vertices with at least three periodic directions."""

    #: connected components of the ideal graph: (vertex, nodes, edges)
    components: tuple[tuple[str, tuple[Letter, ...], tuple[Turn, ...]], ...]


def whitehead_data(f: GraphMap) -> WhiteheadData:
    graph = f.domain
    periodic = periodic_directions(f)
    taken_at: dict[str, list[Turn]] = {}
    for t in taken_turns(f):  # both directions of a turn share its vertex
        taken_at.setdefault(graph.init_of(min(t)), []).append(t)
    # vertex -> (periodic directions, taken turns between them)
    stable = {}
    for v in graph.vertices:
        dirs = graph.directions(v)
        turns_v = tuple(taken_at.get(v, ()))
        pdirs = tuple(d for d in dirs if d in periodic)
        pturns = tuple(t for t in turns_v if all(d in periodic for d in t))
        stable[v] = (pdirs, pturns)
    components = []
    for v in sorted(graph.vertices):
        pdirs, pturns = stable[v]
        if len(pdirs) < 3:
            continue
        adj = _turn_adjacency(pdirs, pturns)
        seen: set[Letter] = set()
        for d in pdirs:
            if d not in seen:
                comp = reachable((d,), adj.__getitem__)
                seen |= comp
                edges = tuple(t for t in pturns if t <= comp)
                components.append((v, tuple(sorted(comp)), edges))
    return WhiteheadData(tuple(components))


def _turn_adjacency(nodes: Sequence[Letter], turns: Sequence[Turn]
                    ) -> dict[Letter, list[Letter]]:
    """Each node's neighbours in the graph whose edges are the turns."""
    adj: dict[Letter, list[Letter]] = {d: [] for d in nodes}
    for d1, d2 in turns:
        adj[d1].append(d2)
        adj[d2].append(d1)
    return adj


def rotationless_index(wd: WhiteheadData) -> Fraction:
    """Sum over ideal components of (1 - nodes/2), as an exact rational."""
    return sum((1 - Fraction(len(nodes), 2) for _v, nodes, _e in wd.components),
               Fraction(0))


def _has_cut_vertex(nodes: Sequence[Letter], edges: Sequence[Turn]) -> bool:
    if len(nodes) <= 2:
        return False
    for removed in nodes:
        remaining = [n for n in nodes if n != removed]
        adj = _turn_adjacency(remaining, [t for t in edges if removed not in t])
        if len(reachable(remaining[:1], adj.__getitem__)) != len(remaining):
            return True
    return False


# ---------------------------------------------------------------------------
# bounded periodic Nielsen path search


@dataclass
class NielsenReport:
    """Outcome of the bounded search for periodic Nielsen paths.

    ``found`` lists tight vertex-to-vertex paths p (as words) with
    tighten(f^p(path)) == path for some period <= max_period and length
    <= max_len, each tagged with its minimal period.  ``exhaustive`` is False
    only if the image-length cap was hit.
    """

    found: tuple[tuple[Word, int], ...]
    max_len: int
    max_period: int
    exhaustive: bool
    method: str
    note: str

    @property
    def none_up_to_bounds(self) -> bool:
        return not self.found and self.exhaustive


def _orbit_period(f: GraphMap, path: Word, max_period: int) -> Optional[int]:
    cur = path
    for p in range(1, max_period + 1):
        cur = f.apply_tight(cur)
        if len(cur) > _ORBIT_GROWTH_CAP:
            return None
        if cur == path:
            return p
    return None


def _ray_prefix(f: GraphMap, period: int, d: Letter, length: int) -> Word:
    """Prefix of the expanding fixed ray of a Df^period-fixed direction.

    Repeatedly applies the map ``period`` times, truncating to ``length``
    letters; for a fixed direction each round extends the previous prefix, so
    the loop stops at stabilization or once ``length`` letters are available.
    """
    word = char(d)
    for _round in range(4 * length * period + 16):
        if len(word) >= length:
            break
        nxt = word
        for _ in range(period):
            nxt = f.apply_path(nxt)[:length]
        if nxt == word:
            break  # no growth: the ray is eventually this finite path
        word = nxt
    return word[:length]


def _eigenray_search(f: GraphMap, matrix: TransitionMatrix, max_len: int,
                     max_period: int) -> tuple[list[tuple[Word, int]], bool]:
    """Periodic Nielsen paths from eigenray halves, and whether every
    half's image stayed under ``_POWER_IMAGE_CAP``.

    The map is an expanding irreducible train track map, so eigenray
    prefixes are legal and f^k never cancels inside them: the tight
    f^period-image of a prefix has the length predicted from the crossing
    matrix, and lengths never shrink, so a half whose predicted length
    passes the cap is skipped without being built.  The image of the
    longest in-cap prefix of a ray starts with the image of each shorter
    prefix, so it is the one image built per fixed direction.
    """
    dmap = direction_map(f)
    column = _columns(matrix.edges)
    image_lengths = [1] * len(matrix.edges)  # of f^period-images of edges
    found: dict[Word, int] = {}
    capped = False
    for period in range(1, max_period + 1):
        image_lengths = [sum(count * image_lengths[j] for j, count in row)
                         for row in matrix.entries]
        fixed = []
        for d in dmap:
            cur = d
            for _ in range(period):
                cur = dmap[cur]
            if cur == d:
                fixed.append(d)
        if not fixed:
            continue
        rays = {d: _ray_prefix(f, period, d, max_len) for d in fixed}
        halves: list[tuple[Letter, Word, str]] = []  # (dir, prefix, overflow)
        for d in fixed:
            ray = rays[d][:max_len - 1]
            ends = list(accumulate(image_lengths[column[ch]] for ch in ray))
            inside = bisect_right(ends, _POWER_IMAGE_CAP)
            capped |= inside < len(ray)
            if not inside:
                continue
            image = f.iterate_tight(ray[:inside], period)
            if len(image) != ends[inside - 1]:
                # something cancelled: name the shortest prefix it shrank
                for a in range(1, inside + 1):
                    short = f.iterate_tight(ray[:a], period)
                    if len(short) != ends[a - 1]:
                        raise InvariantViolation(
                            f"f^{period}-image of the eigenray prefix "
                            f"{format_word(ray[:a])} has {len(short)} "
                            f"letters, not the {ends[a - 1]} its crossing "
                            f"counts predict")
            for a in range(1, inside + 1):
                if image[:a] == ray[:a]:
                    halves.append((d, ray[:a], image[a:ends[a - 1]]))
        graph = f.domain
        inps: list[Word] = []
        for _d1, s1, o1 in halves:
            for _d2, s2, o2 in halves:
                if o1 != o2:
                    continue
                if len(s1) + len(s2) > max_len:
                    continue
                if graph.term_of(letter_of(s1[-1])) != \
                        graph.term_of(letter_of(s2[-1])):
                    continue  # halves must meet at a common junction vertex
                rho = s1 + inverse(s2)
                if len(reduce_word(rho)) != len(rho):
                    continue
                inps.append(rho)
        # assemble concatenations of verified indivisible pieces
        verified: set[Word] = set()
        for rho in inps:
            p = _orbit_period(f, rho, max_period)
            if p is not None:
                verified.add(rho)
                found.setdefault(rho, p)
        frontier = list(verified)
        closed: set[Word] = set(verified)
        while frontier:
            base = frontier.pop()
            for piece in verified:
                if graph.term_of(letter_of(base[-1])) != \
                        graph.init_of(letter_of(piece[0])):
                    continue
                combo = base + piece
                if len(combo) > max_len or \
                        len(reduce_word(combo)) != len(combo):
                    continue
                if combo in closed:
                    continue
                closed.add(combo)
                p = _orbit_period(f, combo, max_period)
                if p is not None:
                    found.setdefault(combo, p)
                    frontier.append(combo)
    return sorted(found.items(),
                  key=lambda kv: (len(kv[0]), letters(kv[0]))), capped


def nielsen_search(f: GraphMap, max_len: int = 10, max_period: int = 6
                   ) -> NielsenReport:
    """Bounded search for periodic Nielsen paths of an expanding irreducible
    train track map.

    Semidecision: reports all tight vertex-to-vertex paths of length at most
    ``max_len`` whose tightened f^p-image returns to the path for some
    p <= ``max_period``, or "none up to bounds".  The search is driven by
    fixed directions of iterated direction maps (legal paths stretch
    strictly, and every indivisible periodic Nielsen path splits into two
    legal eigenray prefixes with equal overflow).  A map that is not a train
    track raises ``InvariantViolation`` with the witness of
    ``is_train_track``; a crossing matrix that is not irreducible or not
    expanding raises ``NotIrreducibleError`` or ``NotExpandingError``.
    """
    return _Invariants(f, max_len, max_period).nielsen


# ---------------------------------------------------------------------------
# lone axis verdict


@dataclass
class Verdict:
    verdict: str  # "yes" | "no" | "inconclusive"
    reason: str
    assumptions: tuple[str, ...]


class _Invariants:
    """The train track invariants of one map, each computed on first use and
    then shared: a report, its eigenmetric, Nielsen search and verdict read
    one record, and a reader computes only the invariants it reads."""

    def __init__(self, f: GraphMap, nielsen_len: int = 10,
                 nielsen_period: int = 6):
        self.f = f
        self.nielsen_bounds = (nielsen_len, nielsen_period)

    @cached_property
    def matrix(self) -> TransitionMatrix:
        return transition_matrix(self.f)

    @cached_property
    def illegal(self) -> tuple[Turn, ...]:
        return illegal_turns(self.f)

    @cached_property
    def train_track(self) -> tuple[bool, Optional[tuple[str, int]]]:
        bad = set(self.illegal)
        for name in self.f.domain.edge_names:
            for pos, turn in crossed_turns_of_path(self.f.edge_images[name]):
                if len(turn) == 1 or turn in bad:
                    return False, (name, pos)
        return True, None

    @cached_property
    def irreducible(self) -> bool:
        return is_irreducible(self.matrix)

    @cached_property
    def expanding(self) -> bool:
        return self.irreducible and _stretches(self.matrix)

    def _require_expanding(self) -> None:
        if not self.irreducible:
            raise NotIrreducibleError("crossing matrix is not irreducible")
        if not self.expanding:
            raise NotExpandingError(
                "crossing matrix is irreducible but not expanding")

    @cached_property
    def metric(self) -> EigenMetric:
        self._require_expanding()
        return _power_iteration(self.matrix)

    @cached_property
    def nielsen(self) -> NielsenReport:
        tt, witness = self.train_track
        if not tt:
            raise InvariantViolation(
                f"not a train track map (witness {witness})")
        self._require_expanding()
        found, capped = _eigenray_search(self.f, self.matrix,
                                         *self.nielsen_bounds)
        note = (f"incomplete: a half whose image passed "
                f"{_POWER_IMAGE_CAP:,} letters was skipped" if capped else
                "complete within bounds for expanding irreducible train "
                "track maps")
        return NielsenReport(tuple(found), *self.nielsen_bounds, not capped,
                             "eigenray", note)

    @cached_property
    def whitehead(self) -> WhiteheadData:
        return whitehead_data(self.f)

    @cached_property
    def index(self) -> Fraction:
        return rotationless_index(self.whitehead)

    @cached_property
    def ideal_components(self) -> list[dict]:
        """The ideal Whitehead components, formatted for a report."""
        return [{"vertex": v, "nodes": [format_direction(d) for d in nodes],
                 "edges": [format_turn(t) for t in edges]}
                for v, nodes, edges in self.whitehead.components]

    def lone_axis(self, assume_ageometric: bool,
                  assume_fully_irreducible: bool) -> Verdict:
        tt, witness = self.train_track
        if not tt:
            return Verdict("inconclusive",
                           f"not a train track map (witness {witness})", ())
        if not self.expanding:
            return Verdict("inconclusive",
                           "crossing matrix is not expanding irreducible", ())
        if len(self.illegal) >= 2:
            return Verdict("no", "at least 2 illegal turns", ())

        flags = (("ageometric", assume_ageometric),
                 ("fully irreducible", assume_fully_irreducible))
        assumptions = [f"{name} (assumed)" for name, given in flags if given]
        missing = [name for name, given in flags if not given]
        if missing:
            return Verdict("inconclusive",
                           "unverifiable hypotheses not asserted: "
                           + ", ".join(missing), tuple(assumptions))

        report = self.nielsen
        if report.found or not report.exhaustive:
            return Verdict("inconclusive",
                           "periodic Nielsen paths not excluded within bounds "
                           f"(len {report.max_len}, period {report.max_period})",
                           tuple(assumptions))
        assumptions.append(
            f"no periodic Nielsen paths up to length {report.max_len}, "
            f"period {report.max_period} (searched)")

        index = self.index
        n = graph_rank(self.f.domain)
        if index != Fraction(3, 2) - n:
            return Verdict("no", f"index {index} differs from 3/2 - rank = "
                           f"{Fraction(3, 2) - n}", tuple(assumptions))
        for v, nodes, edges in self.whitehead.components:
            if _has_cut_vertex(nodes, edges):
                return Verdict("no",
                               f"ideal component at vertex {v} has a cut vertex",
                               tuple(assumptions))
        return Verdict("yes", "index equals 3/2 - rank and no ideal component "
                       "has a cut vertex", tuple(assumptions))


def lone_axis_check(f: GraphMap, *, assume_ageometric: bool = False,
                    assume_fully_irreducible: bool = False,
                    nielsen_len: int = 10, nielsen_period: int = 6) -> Verdict:
    """Decide whether the represented outer class has a unique axis direction.

    yes: index equals 3/2 - rank and no ideal component has a cut vertex
    (under the recorded assumptions); no: at least two illegal turns, or the
    index/cut-vertex test fails; inconclusive: hypotheses unavailable.
    """
    return _Invariants(f, nielsen_len, nielsen_period).lone_axis(
        assume_ageometric, assume_fully_irreducible)


def traintrack_report(f: GraphMap, *, assume_ageometric: bool = False,
                      assume_fully_irreducible: bool = False,
                      nielsen_len: int = 10, nielsen_period: int = 6) -> dict:
    """JSON-ready summary used by the command line interface."""
    inv = _Invariants(f, nielsen_len, nielsen_period)
    matrix = inv.matrix
    tt, witness = inv.train_track
    report: dict = {
        "edges": list(matrix.edges),
        "transition_matrix": [list(r) for r in matrix.rows],
        "train_track": tt,
        "train_track_witness": list(witness) if witness else None,
        "irreducible": inv.irreducible,
        "expanding": inv.expanding,
        "illegal_turns": [format_turn(t) for t in inv.illegal],
    }
    if report["expanding"] and tt:
        metric = inv.metric
        report["stretch"] = metric.stretch
        report["eigen_residual"] = metric.residual
        report["lengths"] = {e: metric.lengths[e] for e in metric.edges}
        ns = inv.nielsen
        report["nielsen_paths"] = {
            "found": [[format_word(p), per] for p, per in ns.found],
            "exhaustive": ns.exhaustive,
            "method": ns.method,
            "max_len": ns.max_len,
            "max_period": ns.max_period,
        }
        if ns.none_up_to_bounds:
            report["ideal_components"] = inv.ideal_components
            report["rotationless_index"] = str(inv.index)
    verdict = inv.lone_axis(assume_ageometric, assume_fully_irreducible)
    report["lone_axis"] = {
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "assumptions": list(verdict.assumptions),
    }
    return report
