"""Symmetrized sigma-invariant sectors for two-generator one-relator groups.

Reading the relator of a two-generator presentation letter by letter traces
a closed path on the integer lattice of its abelianization.  Long straight
edges and diagonal edges of the path's convex hull exclude the open rays of
characters perpendicular to them; the remaining directions fall into open
angular sectors, one of which contains the fibration classes.  A linear
Diophantine enumerator then lists the primitive integral classes in a
sector pairing to one with a distinguished cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .cohomology import cycle_coordinates
from .errors import (ExcludedDirectionError, InputParseError,
                     InvariantViolation, OpenTraceError)
from .torus import TrapComplex
from .words import (Word, compact_name, cyclic_reduce, format_word, letters,
                    parse_word, reduce_word)

Vec = tuple[int, int]


# ---------------------------------------------------------------------------
# presentations


@dataclass
class TwoGenPresentation:
    """A one-relator presentation on two generators.

    ``dualcycles`` identifies each generator with a 1-cycle of a trapezoid
    complex so that characters written in the generators' dual basis can be
    paired with chains of the complex; ``use`` names the complex's map file.
    ``relator`` is the word as given (freely reduced); ``cyclic_relator`` is
    its cyclically reduced core.
    """

    generators: tuple[str, str]
    relator: Word
    cyclic_relator: Word
    dualcycles: dict[str, dict[str, int]]
    use: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.generators) != 2 or len(set(self.generators)) != 2:
            raise InputParseError("exactly two distinct generators required")
        for g in self.generators:
            if not compact_name(g):
                raise InputParseError(
                    f"generator {g!r} is not a single lowercase letter")
        if not self.cyclic_relator:
            raise InputParseError("relator is trivial after reduction")


def parse_presentation_text(text: str) -> TwoGenPresentation:
    """Parse the two-generator presentation format.

    Lines: ``use FILE`` (optional), ``generators g1 g2``, ``relator WORD``
    (compact letters, uppercase inverts), and one ``dualcycle g cell coeff
    ...`` per generator.  ``#`` starts a comment.
    """
    use: Optional[str] = None
    generators: Optional[tuple[str, str]] = None
    relator_text: Optional[str] = None
    dualcycles: dict[str, dict[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword == "use":
            if len(args) != 1:
                raise InputParseError(f"line {lineno}: use takes one file name")
            use = args[0]
        elif keyword == "generators":
            if len(args) != 2:
                raise InputParseError(
                    f"line {lineno}: generators takes two names")
            generators = (args[0], args[1])
        elif keyword == "relator":
            if len(args) != 1:
                raise InputParseError(f"line {lineno}: relator takes one word")
            relator_text = args[0]
        elif keyword == "dualcycle":
            if len(args) < 3 or len(args) % 2 == 0:
                raise InputParseError(
                    f"line {lineno}: dualcycle takes a generator then "
                    "cell/coefficient pairs")
            name = args[0]
            if name in dualcycles:
                raise InputParseError(
                    f"line {lineno}: duplicate dualcycle for {name!r}")
            chain: dict[str, int] = {}
            for cell, coeff in zip(args[1::2], args[2::2]):
                try:
                    value = int(coeff)
                except ValueError:
                    raise InputParseError(
                        f"line {lineno}: bad coefficient {coeff!r}") from None
                if cell in chain:
                    raise InputParseError(
                        f"line {lineno}: repeated cell {cell!r}")
                if value:
                    chain[cell] = value
            dualcycles[name] = chain
        else:
            raise InputParseError(f"line {lineno}: unknown keyword {keyword!r}")
    if generators is None:
        raise InputParseError("missing generators line")
    if relator_text is None:
        raise InputParseError("missing relator line")
    if set(dualcycles) != set(generators):
        raise InputParseError("need exactly one dualcycle per generator")
    relator = reduce_word(parse_word(relator_text, generators))
    return TwoGenPresentation(generators, relator, cyclic_reduce(relator)[0],
                              dualcycles, use)


def load_presentation_file(path: str | Path) -> TwoGenPresentation:
    try:
        return parse_presentation_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputParseError(f"{path} is not UTF-8 text: {exc}") from None


# ---------------------------------------------------------------------------
# lattice trace


@dataclass
class PolygonTrace:
    """The closed lattice path of a relator and its convex hull.

    ``points`` lists the visited lattice points in reading order, starting
    and ending at the origin.  ``hull`` lists the hull corners
    counterclockwise from the lexicographically least corner.
    ``edge_multiplicities`` counts unordered traversals of each unit
    segment; ``corner_traversals`` counts cyclic visits to each hull corner.
    """

    points: tuple[Vec, ...]
    hull: tuple[Vec, ...]
    edge_multiplicities: dict[tuple[Vec, Vec], int]
    corner_traversals: dict[Vec, int]


def _convex_hull(points: Iterable[Vec]) -> tuple[Vec, ...]:
    """Corners of the convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def half(source: Sequence[Vec]) -> list[Vec]:
        out: list[Vec] = []
        for p in source:
            while len(out) >= 2 and _cross(_sub(out[-1], out[-2]),
                                           _sub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    start = hull.index(min(hull))
    return tuple(hull[start:] + hull[:start])


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def trace_polygon(pres: TwoGenPresentation) -> PolygonTrace:
    """Trace the cyclically reduced relator over the abelianization lattice."""
    g1, g2 = pres.generators
    steps = {g1: (1, 0), g2: (0, 1)}
    x, y = 0, 0
    points: list[Vec] = [(0, 0)]
    edges: dict[tuple[Vec, Vec], int] = {}
    for name, sign in letters(pres.cyclic_relator):
        dx, dy = steps[name]
        nxt = (x + sign * dx, y + sign * dy)
        seg = tuple(sorted(((x, y), nxt)))
        edges[seg] = edges.get(seg, 0) + 1
        points.append(nxt)
        x, y = nxt
    if (x, y) != (0, 0):
        raise OpenTraceError(
            f"relator abelianizes to {(x, y)}, not zero; "
            "the word is not a relator of a two-generator group with this "
            "abelianization")
    hull = _convex_hull(points)
    corner_traversals = {c: points[:-1].count(c) for c in hull}
    return PolygonTrace(tuple(points), hull, edges, corner_traversals)


# ---------------------------------------------------------------------------
# excluded directions


def _primitive(v: Vec) -> Vec:
    g = math.gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


@dataclass
class SlopeSet:
    """Rays excluded from the symmetrized sigma invariant.

    ``excluded`` holds primitive integer covectors, closed under negation
    (the symmetrized invariant ignores the sign convention of the one-sided
    invariant).  ``indeterminate_corners`` flags hull corners traversed
    more than once, where the edge rules say nothing and a manual check
    would be required.
    """

    excluded: tuple[Vec, ...]
    indeterminate_corners: tuple[Vec, ...]


def excluded_directions(trace: PolygonTrace) -> SlopeSet:
    """Apply the hull-edge exclusion rules to a traced polygon.

    A diagonal hull edge excludes both signs of its perpendicular
    direction; an axis-parallel hull edge of lattice length at least two
    does the same; a hull corner traversed more than once is reported as
    indeterminate rather than silently kept.
    """
    out: set[Vec] = set()
    corners = trace.hull
    n = len(corners)
    for i in range(n):
        d = _sub(corners[(i + 1) % n], corners[i])
        normal = _primitive((d[1], -d[0]))
        diagonal = d[0] != 0 and d[1] != 0
        long_straight = not diagonal and math.gcd(abs(d[0]), abs(d[1])) >= 2
        if diagonal or long_straight:
            out.add(normal)
            out.add((-normal[0], -normal[1]))
    indeterminate = tuple(c for c in corners
                          if trace.corner_traversals[c] >= 2)
    return SlopeSet(tuple(sorted(out)), indeterminate)


# ---------------------------------------------------------------------------
# sector components


def _direction(vec) -> tuple:
    x, y = vec
    if x == 0 and y == 0:
        raise InvariantViolation("the zero vector has no direction")
    return (x, y)


def _ray_compare(a: Vec, b: Vec) -> int:
    """Order rays counterclockwise starting from the +x axis."""
    half_a = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    half_b = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if half_a != half_b:
        return half_a - half_b
    turn = _cross(a, b)
    return -1 if turn > 0 else (1 if turn < 0 else 0)


def _same_ray(u, v) -> bool:
    return _cross(u, v) == 0 and u[0] * v[0] + u[1] * v[1] > 0


@dataclass
class ConeComponent:
    """An open angular sector between two consecutive excluded rays.

    ``start`` and ``end`` are the bounding rays, counterclockwise; both are
    ``None`` when nothing is excluded and the sector is the whole punctured
    plane.
    """

    start: Optional[Vec]
    end: Optional[Vec]

    def contains(self, vec) -> bool:
        x, y = vec
        if x == 0 and y == 0:
            return False
        if self.start is None:
            return True
        u, v = self.start, self.end
        cu = _cross(u, (x, y))
        cv = _cross((x, y), v)
        turn = _cross(u, v)
        if turn > 0:
            return cu > 0 and cv > 0
        if turn < 0:
            return cu > 0 or cv > 0
        # opposite rays: the sector is the open half plane to the left
        return cu > 0


def component_containing(slopes: SlopeSet, direction) -> ConeComponent:
    """The maximal open sector around ``direction`` avoiding excluded rays."""
    d = _direction(direction)
    if not slopes.excluded:
        return ConeComponent(None, None)
    for ray in slopes.excluded:
        if _same_ray(ray, d):
            raise ExcludedDirectionError(
                f"direction {tuple(direction)} lies on the excluded ray {ray}")
    rays = sorted(slopes.excluded, key=functools.cmp_to_key(_ray_compare))
    n = len(rays)
    for i in range(n):
        comp = ConeComponent(rays[i], rays[(i + 1) % n])
        if comp.contains(d):
            return comp
    raise InvariantViolation(
        "no sector contains the direction")  # pragma: no cover


# ---------------------------------------------------------------------------
# the pairing-one line in a sector


def pairing_coordinates(complex_: TrapComplex,
                        cycles: Sequence[Mapping[str, int]],
                        duals: Sequence[Mapping[str, int]],
                        chain: Mapping[str, int]) -> Vec:
    """Coordinates of a 1-cycle's pairing against the generators' dual basis.

    ``cycles`` are the generators' dualcycles in generator order and
    ``duals`` their dual cocycles (``dual_basis``).  A character written as
    ``c1·g1* + c2·g2*`` evaluates on ``chain`` to ``c1·p1 + c2·p2`` where
    ``(p1, p2)`` is the returned pair; ``chain`` is verified to be homologous
    to ``p1·cycle1 + p2·cycle2``.
    """
    coords = cycle_coordinates(complex_, chain, cycles, duals)
    for value in coords:
        if value != int(value):
            raise InvariantViolation(
                f"chain pairs fractionally ({value}) with the dual basis")
    return (int(coords[0]), int(coords[1]))


@dataclass
class AxisLine:
    """Primitive integral classes in a sector pairing to one with a chain.

    Solutions of ``c · pairing = 1`` form the affine lattice line ``base +
    m · direction``; every solution is automatically primitive.  ``classes``
    lists the solutions inside the sector, walked from the boundary end of
    the line (or outward from the smallest solution when unbounded both
    ways), capped at the enumeration bound.  ``infeasible_reason`` explains
    an empty enumeration.
    """

    classes: tuple[Vec, ...]
    base: Optional[Vec]
    direction: Optional[Vec]
    infeasible_reason: Optional[str] = None


def lone_axis_line(comp: ConeComponent, pairing: Vec, bound: int = 5
                   ) -> AxisLine:
    """Enumerate classes in ``comp`` with ``c · pairing == 1``, up to ``bound``.

    ``bound`` caps the number of returned classes at ``bound + 1`` so that a
    family indexed ``0..bound`` is returned whole.
    """
    s1, s2 = pairing
    g = math.gcd(abs(s1), abs(s2))
    if g == 0:
        return AxisLine((), None, None,
                        "the chain pairs to zero with every class")
    if g != 1:
        return AxisLine((), None, None,
                        f"pairing values share the factor {g}; "
                        "no integral class pairs to one")
    # extended gcd: u*s1 + v*s2 == 1
    old_r, r = s1, s2
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    base = (old_u, old_v)
    direction = (-s2, s1)

    def at(m: int) -> Vec:
        return (base[0] + m * direction[0], base[1] + m * direction[1])

    # past the crossings of the line with the bounding rays the line stays
    # on one side of each ray, so membership is constant out there
    window = max([8 * (bound + 2)] + [
        abs(_cross(ray, base)) // abs(_cross(ray, direction)) + 1
        for ray in (comp.start, comp.end)
        if ray is not None and _cross(ray, direction)])
    members = [m for m in range(-window, window + 1) if comp.contains(at(m))]
    if not members:
        return AxisLine((), base, direction,
                        "the line misses the sector near the origin")
    lo, hi = members[0], members[-1]
    lo_open = comp.contains(at(lo - 1))
    hi_open = comp.contains(at(hi + 1))
    picks: list[int] = []
    if hi_open and not lo_open:
        picks = list(range(lo, lo + bound + 1))
    elif lo_open and not hi_open:
        picks = list(range(hi, hi - bound - 1, -1))
    elif not lo_open and not hi_open:
        picks = list(range(lo, min(hi, lo + bound) + 1))
    else:
        # unbounded in both directions: walk outward from zero
        picks = [0]
        for m in range(1, window + 1):
            picks.extend((m, -m))
    picks = [m for m in picks if comp.contains(at(m))][:bound + 1]
    return AxisLine(tuple(at(m) for m in picks), base, direction)


# ---------------------------------------------------------------------------
# exports


def polygon_tikz(trace: PolygonTrace, slopes: Optional[SlopeSet] = None) -> str:
    """TikZ picture of the traced path, hull, and excluded rays."""
    lines = [r"\begin{tikzpicture}[scale=1.0]"]
    for (a, b), mult in sorted(trace.edge_multiplicities.items()):
        width = "very thick" if mult > 1 else "thin"
        lines.append(
            rf"  \draw[{width}] {a} -- {b};"
            + (f"  % traversed {mult}x" if mult > 1 else ""))
    hull_path = " -- ".join(str(c) for c in trace.hull)
    lines.append(rf"  \draw[dashed] {hull_path} -- cycle;")
    for corner in trace.hull:
        lines.append(rf"  \fill {corner} circle (2pt);")
    if slopes is not None:
        for ray in slopes.excluded:
            lines.append(
                rf"  \draw[->, red] (0, 0) -- ({ray[0]}, {ray[1]});")
        for corner in slopes.indeterminate_corners:
            lines.append(rf"  \node[draw, circle] at {corner} {{?}};")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


#: the direction whose sector component ``survey`` reports
SIGMA_DIRECTION: Vec = (0, 1)


def sigma_report(pres: TwoGenPresentation, trace: PolygonTrace,
                 slopes: SlopeSet, comp: ConeComponent, *, pairing: Vec,
                 line_bound: int) -> dict:
    """JSON-ready summary of the sector analysis of a presentation.

    Reports the traced relator polygon, its excluded rays, the sector
    component ``comp`` containing ``SIGMA_DIRECTION``, and the classes of
    that component on the pairing-one line of ``pairing``, the pairing
    vector of a distinguished chain.
    """
    line = lone_axis_line(comp, pairing, line_bound)
    return {
        "generators": list(pres.generators),
        "relator": format_word(pres.relator),
        "cyclic_relator": format_word(pres.cyclic_relator),
        "polygon": {
            "points": [list(p) for p in trace.points],
            "hull": [list(p) for p in trace.hull],
            "thick_edges": [
                {"edge": [list(a), list(b)], "count": mult}
                for (a, b), mult in sorted(trace.edge_multiplicities.items())
                if mult > 1],
            "corner_traversals": [
                {"corner": list(c), "count": trace.corner_traversals[c]}
                for c in trace.hull],
        },
        "excluded_rays": [list(r) for r in slopes.excluded],
        "indeterminate_corners": [list(c)
                                  for c in slopes.indeterminate_corners],
        "component": {
            "direction": list(SIGMA_DIRECTION),
            "start": None if comp.start is None else list(comp.start),
            "end": None if comp.end is None else list(comp.end),
        },
        "pairing": list(pairing),
        "axis_line": {
            "classes": [list(c) for c in line.classes],
            "base": None if line.base is None else list(line.base),
            "direction": None if line.direction is None
            else list(line.direction),
            "infeasible_reason": line.infeasible_reason,
        },
    }
