"""Dense train-track kernels: the reference oracle.

The package stores crossing matrices by their nonzero entries, runs the
strong-connectivity test and the power iteration over them, powers the
direction map by repeated squaring and indexes directions by vertex.  This
module keeps the dense, quadratic code those replaced, so the tests can
check the new kernels bit for bit.  The dense power iteration is slow:
about 3 s on a return map with 200 edges.  ``matmul`` multiplies the
package's own sparse crossing matrices, for the tests of the composition
law; ``mat_mul`` multiplies plain integer matrices, for the Smith
factorisation and boundary-matrix tests.  ``enumeration_search`` lists
periodic Nielsen paths by walking every tight path up to the length bound,
the oracle for the eigenray search behind ``nielsen_search``; it runs on
any map, at a cost exponential in the length bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from freebycyclic.errors import (InvariantViolation, NotExpandingError,
                                 NotIrreducibleError)
from freebycyclic import traintrack
from freebycyclic.graphs import Graph, GraphMap
from freebycyclic.traintrack import (EigenMetric, Turn, WhiteheadData,
                                     crossed_turns_of_path, direction_map,
                                     make_turn, taken_turns, turn_sort_key)
from freebycyclic.words import Letter, Word, encode, inverse_letter, letters

from helpers import all_directions

# enumeration_search stops after the candidate cap or at the found cap
_CANDIDATE_CAP = 200_000
_FOUND_CAP = 500


def directions(graph: Graph, vertex: str) -> tuple[Letter, ...]:
    """All directions based at ``vertex``, sorted by (edge name, forward first)."""
    out = []
    for name, init, term in graph.edges:
        if init == vertex:
            out.append((name, 1))
        if term == vertex:
            out.append((name, -1))
    return tuple(sorted(out, key=lambda lt: (lt[0], -lt[1])))


def is_connected(graph: Graph) -> bool:
    if not graph.vertices:
        return True
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        v = frontier.pop()
        for name, init, term in graph.edges:
            for a, b in ((init, term), (term, init)):
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == len(graph.vertices)


def components(graph: Graph) -> tuple[tuple[str, ...], ...]:
    """Connected components by union-find over the edge list."""
    parent = {v: v for v in graph.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            v = parent[v]
        return v

    for _name, init, term in graph.edges:
        parent[find(init)] = find(term)
    groups: dict[str, list[str]] = {}
    for v in graph.vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(group)) for group in groups.values()))


def _stable_images(f: GraphMap) -> dict[Letter, Letter]:
    """Image of each direction under Df iterated #directions times."""
    dmap = direction_map(f)
    n = len(dmap)
    stable = {d: d for d in dmap}
    for _ in range(n):
        stable = {d: dmap[s] for d, s in stable.items()}
    return stable


def periodic_directions(f: GraphMap) -> frozenset[Letter]:
    """Directions lying on a cycle of the direction map."""
    dmap = direction_map(f)
    n = len(dmap)
    out = set()
    for d in dmap:
        cur = d
        for _ in range(n):
            cur = dmap[cur]
            if cur == d:
                out.add(d)
                break
    return frozenset(out)


def all_turns(graph: Graph) -> tuple[Turn, ...]:
    turns = []
    for v in graph.vertices:
        dirs = directions(graph, v)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                turns.append(make_turn(dirs[i], dirs[j]))
    return tuple(sorted(set(turns), key=turn_sort_key))


def illegal_turns(f: GraphMap) -> tuple[Turn, ...]:
    stable = _stable_images(f)
    out = [t for t in all_turns(f.domain)
           if len({stable[d] for d in t}) == 1]
    return tuple(sorted(out, key=turn_sort_key))


def is_train_track(f: GraphMap) -> tuple[bool, Optional[tuple[str, int]]]:
    bad = set(illegal_turns(f))
    for name in f.domain.edge_names:
        for pos, turn in crossed_turns_of_path(f.edge_images[name]):
            if len(turn) == 1 or turn in bad:
                return False, (name, pos)
    return True, None


@dataclass
class TransitionMatrix:
    edges: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i])


def transition_matrix(f: GraphMap) -> TransitionMatrix:
    edges = tuple(sorted(f.domain.edge_names))
    index = {e: i for i, e in enumerate(edges)}
    rows = []
    for e in edges:
        row = [0] * len(edges)
        for name, _sign in letters(f.edge_images[e]):
            row[index[name]] += 1
        rows.append(tuple(row))
    return TransitionMatrix(edges, tuple(rows))


def is_irreducible(matrix: TransitionMatrix) -> bool:
    n = len(matrix.edges)
    if n == 0:
        return False

    def reach(start: int, transpose: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                val = matrix.rows[j][i] if transpose else matrix.rows[i][j]
                if val and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return len(reach(0, False)) == n and len(reach(0, True)) == n


def is_expanding(matrix: TransitionMatrix) -> bool:
    return is_irreducible(matrix) and any(
        matrix.row_sum(i) >= 2 for i in range(len(matrix.edges)))


def eigen_metric(f: GraphMap, tol: float = 1e-12,
                 max_iterations: int = 200_000) -> EigenMetric:
    matrix = transition_matrix(f)
    if not is_irreducible(matrix):
        raise NotIrreducibleError("crossing matrix is not irreducible")
    if not is_expanding(matrix):
        raise NotExpandingError("crossing matrix is irreducible but not expanding")
    n = len(matrix.edges)
    x = [1.0 / n] * n

    def apply_a(vec: list[float]) -> list[float]:
        return [sum(matrix.rows[i][j] * vec[j] for j in range(n)) for i in range(n)]

    stretch = 0.0
    residual = float("inf")
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        ax = apply_a(x)
        y = [ax[i] + x[i] for i in range(n)]
        total = sum(y)
        x = [v / total for v in y]
        ax = apply_a(x)
        num = sum(ax[i] * x[i] for i in range(n))
        den = sum(x[i] * x[i] for i in range(n))
        stretch = num / den
        residual = max(abs(ax[i] - stretch * x[i]) for i in range(n))
        if residual <= tol:
            break
    if residual > 1e-10:
        raise InvariantViolation(
            f"eigenmetric did not certify: residual {residual:g} > 1e-10")
    total = sum(x)
    x = [v / total for v in x]
    return EigenMetric(matrix.edges, dict(zip(matrix.edges, x)),
                       stretch, residual, iterations)


def whitehead_data(f: GraphMap) -> WhiteheadData:
    graph = f.domain
    periodic = periodic_directions(f)
    taken = set(taken_turns(f))
    stable = {}
    for v in graph.vertices:
        dirs = directions(graph, v)
        turns_v = tuple(t for t in sorted(taken, key=turn_sort_key)
                        if all(d in dirs for d in t))
        pdirs = tuple(d for d in dirs if d in periodic)
        pturns = tuple(t for t in turns_v if all(d in periodic for d in t))
        stable[v] = (pdirs, pturns)
    principal = tuple(v for v in sorted(graph.vertices)
                      if len(stable[v][0]) >= 3)
    components = []
    for v in principal:
        pdirs, pturns = stable[v]
        adj = {d: set() for d in pdirs}
        for t in pturns:
            d1, d2 = sorted(t)
            adj[d1].add(d2)
            adj[d2].add(d1)
        seen: set[Letter] = set()
        for d in pdirs:
            if d in seen:
                continue
            comp = {d}
            stack = [d]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            seen |= comp
            nodes = tuple(sorted(comp))
            edges = tuple(t for t in pturns if all(x in comp for x in t))
            components.append((v, nodes, edges))
    return WhiteheadData(tuple(components))


def matmul(left: traintrack.TransitionMatrix,
           right: traintrack.TransitionMatrix) -> traintrack.TransitionMatrix:
    """The product ``left · right`` of two sparse crossing matrices."""
    if left.edges != right.edges:
        raise InvariantViolation("matrix edge bases differ")
    entries = []
    for row in left.entries:
        acc: dict[int, int] = {}
        for k, a in row:
            for j, b in right.entries[k]:
                acc[j] = acc.get(j, 0) + a * b
        entries.append(tuple(sorted(acc.items())))
    return traintrack.TransitionMatrix(left.edges, tuple(entries))


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The dense product ``a · b`` of two integer matrices given by rows."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def enumeration_search(f: GraphMap, max_len: int, max_period: int
                       ) -> tuple[list[tuple[Word, int]], bool]:
    """Periodic Nielsen paths of length at most ``max_len`` and period at
    most ``max_period``, each with its minimal period, and whether a cap
    cut the walk short."""
    graph = f.domain
    found: list[tuple[Word, int]] = []
    examined = 0
    stack: list[tuple[Letter, ...]] = [ (d,) for d in
                          sorted(all_directions(graph), key=lambda x: (x[0], -x[1])) ]
    stack.reverse()
    truncated = False
    while stack:
        path = stack.pop()
        examined += 1
        if examined > _CANDIDATE_CAP or len(found) >= _FOUND_CAP:
            truncated = True
            break
        p = traintrack._orbit_period(f, encode(path), max_period)
        if p is not None:
            found.append((encode(path), p))
        if len(path) < max_len:
            last = path[-1]
            for d in reversed(graph.directions(graph.term_of(last))):
                if d == inverse_letter(last):
                    continue
                stack.append(path + (d,))
    found.sort(key=lambda kv: (len(kv[0]), letters(kv[0])))
    return found, truncated
