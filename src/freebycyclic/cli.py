"""Command line interface.

Four subcommands drive the library end to end:

``traintrack``
    Certify a graph map file: train track property, irreducibility,
    expansion, stretch factor, Nielsen path search, ideal components,
    rotationless index, and the lone-axis verdict.  The exit code follows
    the verdict: ``0`` yes, ``1`` no, ``2`` inconclusive.

``survey``
    Tabulate the primitive and imprimitive integral classes of the fibered
    sector of a two-generator presentation up to a coordinate height,
    together with the relator polygon and its excluded rays.

``section``
    Build the level-set section of one integral class and print its first
    return table; classes on the pairing-one line get the canonical names.

``monodromy``
    Read the first return map on the fundamental group of the section and
    print the induced outer automorphism.

Input files are ``.map`` graph-map files or ``.2gen`` presentation files;
a presentation names its map file on a ``use`` line and is required by the
class-coordinate commands.  Class coordinates ``--class=cb,cr`` always
refer to the dual basis of the presentation's two dualcycles, in generator
order.  Exit codes: ``0`` success (or verdict yes), ``1`` verdict no,
``2`` verdict inconclusive, ``64`` unusable input, ``65`` a computation
violated an invariant.  Runs are deterministic; no environment variable is
consulted, so setting ``FBC_SEED`` or anything else changes nothing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bns
from . import cohomology as co
from . import section as sect
from .errors import FreeByCyclicError, InputParseError, InvariantViolation
from .folding import decompose
from .graphs import MapFile, load_map_file, map_to_automorphism
from .torus import TrapComplex, build_torus, euler_chain, skew_loop
from .traintrack import traintrack_report
from .words import FreeGroupMap, format_word, outer_equal

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_INVARIANT = 65

_VERDICT_EXITS = {"yes": EXIT_YES, "no": EXIT_NO,
                  "inconclusive": EXIT_INCONCLUSIVE}


@dataclass
class RunConfig:
    """Everything one invocation needs, parsed and validated."""

    command: str
    input: str
    class_coords: Optional[tuple[int, int]] = None
    k_max: int = 5
    height_max: int = 8
    phase: Fraction = Fraction(1, 2)
    nielsen_len: int = 10
    nielsen_period: int = 6
    format: str = "json"
    out: Optional[str] = None


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argparse variant whose failures surface as input errors (exit 64)."""

    def error(self, message):
        raise InputParseError(message)


def _class_coords(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputParseError(
            f"--class wants two comma-separated integers, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise InputParseError(f"bad class coordinate in {text!r}") from exc


def _phase(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputParseError(f"bad phase {text!r}") from exc


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a bad value
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return integer


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    parser = _Parser(prog="freebycyclic",
                     description="train tracks, mapping tori, sections, "
                                 "and fibered-face surveys")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads; the rest are usage errors
    for name, blurb, formats in [
            ("traintrack", "certify a graph map and test the lone axis",
             ("json",)),
            ("survey", "tabulate integral classes of the fibered sector",
             ("json", "tikz")),
            ("section", "build one class's section and first return table",
             ("json", "dot")),
            ("monodromy", "print the outer automorphism of one class",
             ("json",))]:
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--input", required=True,
                         help=".map graph map or .2gen presentation file")
        cmd.add_argument("--format", choices=formats, default="json")
        cmd.add_argument("--out", default=None, metavar="DIR",
                         help="write the artifact into DIR instead of stdout")
        if name == "traintrack":
            cmd.add_argument("--nielsen-len", type=_at_least(1), default=10,
                             help="Nielsen path length bound (default 10)")
            cmd.add_argument("--nielsen-period", type=_at_least(1), default=6,
                             help="Nielsen path period bound (default 6)")
        elif name == "survey":
            cmd.add_argument("--height-max", type=_at_least(1), default=8,
                             help="survey coordinate height (default 8)")
            cmd.add_argument("--k-max", type=_at_least(0), default=5,
                             help="axis-line enumeration bound (default 5)")
        else:
            cmd.add_argument("--class", dest="class_coords",
                             type=_class_coords, default=None, metavar="CB,CR",
                             help="class coordinates in the presentation's "
                                  "dual basis (use --class=-1,2 for "
                                  "negatives)")
            cmd.add_argument("--phase", type=_phase, default=Fraction(1, 2),
                             help="section height phase, e.g. 1/2")
    return RunConfig(**vars(parser.parse_args(argv)))


# ---------------------------------------------------------------------------
# shared loading


@dataclass
class Workspace:
    """Parsed inputs plus the derived complex and class basis."""

    mapfile: MapFile
    presentation: Optional[bns.TwoGenPresentation]
    complex_: Optional[TrapComplex]
    duals: Optional[tuple[dict, dict]]
    pairing: Optional[tuple[int, int]]


def load_workspace(path_text: str, *, with_classes: bool = False
                   ) -> Workspace:
    """Parse a ``.map`` or ``.2gen`` input.  ``with_classes`` requires a
    presentation and builds the torus, the dual class basis and the pairing."""
    path = Path(path_text)
    if not path.is_file():
        raise InputParseError(f"no such input file: {path}")
    presentation = None
    if path.suffix == ".2gen":
        presentation = bns.load_presentation_file(path)
        if presentation.use is None:
            raise InputParseError(
                f"{path} has no use line naming its map file")
        map_path = path.parent / presentation.use
        if not map_path.is_file():
            raise InputParseError(
                f"presentation uses missing map file: {map_path}")
        mapfile = load_map_file(map_path)
    elif path.suffix == ".map":
        mapfile = load_map_file(path)
    else:
        raise InputParseError(
            f"unrecognized input extension {path.suffix!r}; "
            "expected .map or .2gen")
    complex_ = duals = pairing = None
    if with_classes:
        if presentation is None:
            raise InputParseError(
                "class coordinates are read in a presentation's dual basis; "
                "supply a .2gen input")
        complex_ = build_torus(decompose(mapfile.gmap))
        duals = tuple(co.dual_basis(complex_, _dualcycles(presentation)))
        pairing = bns.pairing_coordinates(complex_, duals, skew_loop(complex_))
    return Workspace(mapfile, presentation, complex_, duals, pairing)


def _dualcycles(pres: bns.TwoGenPresentation) -> list[dict]:
    """The presentation's dualcycles, in generator order."""
    return [pres.dualcycles[g] for g in pres.generators]


def _emit(cfg: RunConfig, payload: str, filename: str) -> None:
    if cfg.out is not None:
        directory = Path(cfg.out)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            (directory / filename).write_text(payload)
        except OSError as exc:
            raise InputParseError(
                f"cannot write to --out {directory}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _require_class(cfg: RunConfig, ws: Workspace
                   ) -> tuple[tuple[int, int], dict]:
    """The ``--class`` coordinates and the least integral representative
    at least 0 of that class; refuses a class outside the open cone."""
    if cfg.class_coords is None:
        raise InputParseError(f"{cfg.command} needs --class=CB,CR")
    if cfg.class_coords == (0, 0):
        raise InvariantViolation("the zero class has no section")
    z, = co.least_representatives(ws.complex_, ws.duals,
                                  [cfg.class_coords])
    co.require_open_cone(ws.complex_, z)
    return cfg.class_coords, z


# ---------------------------------------------------------------------------
# traintrack


def cmd_traintrack(cfg: RunConfig) -> int:
    ws = load_workspace(cfg.input)
    assumptions = ws.mapfile.assumptions
    report = traintrack_report(
        ws.mapfile.gmap,
        assume_ageometric="ageometric" in assumptions,
        assume_fully_irreducible="fully-irreducible" in assumptions,
        nielsen_len=cfg.nielsen_len, nielsen_period=cfg.nielsen_period)
    try:
        seq = decompose(ws.mapfile.gmap)
        report["folds"] = {
            "count": seq.fold_count,
            "labels": [record.label[0] for record in seq.folds],
            "kinds": [record.kind for record in seq.folds],
        }
    except FreeByCyclicError as exc:
        report["folds"] = {"error": str(exc)}
    _emit(cfg, _to_json(report), "traintrack.json")
    return _VERDICT_EXITS[report["lone_axis"]["verdict"]]


# ---------------------------------------------------------------------------
# survey


def _euler_coordinates(ws: Workspace) -> tuple[int, int]:
    """The coordinates of the Euler cycle ε against the dual basis: half
    those of :func:`~freebycyclic.torus.euler_chain`, which must be even."""
    twice = bns.pairing_coordinates(ws.complex_, ws.duals,
                                    euler_chain(ws.complex_))
    if any(x % 2 for x in twice):
        raise InvariantViolation(
            f"twice the Euler cycle has odd coordinates {twice}")
    return (twice[0] // 2, twice[1] // 2)


def _sector_in_open_cone(ws: Workspace, comp: bns.ConeComponent) -> bool:
    """Whether the classes strictly inside the sector ``comp`` lie in the
    open positive cone: all of them do, or none.

    The two boundary rays must have least representatives at least 0, so
    they pair nonnegatively with every directed cycle.  A class strictly
    inside a sector narrower than a half plane is a·start + b·end with
    a, b > 0, so it pairs to 0 with a directed cycle exactly when both
    rays do; the zero cycle of ``SIGMA_DIRECTION`` answers for them all.
    """
    start, end = comp.start, comp.end
    if start is None or start[0] * end[1] - start[1] * end[0] <= 0:
        raise InvariantViolation(
            f"the sector from {start} to {end} is not narrower than a half "
            f"plane; its classes have no one cone certificate")
    *_rays, probe = co.least_representatives(
        ws.complex_, ws.duals, [start, end, bns.SIGMA_DIRECTION])
    return co.zero_cycle(ws.complex_, probe) is None


def cmd_survey(cfg: RunConfig) -> int:
    """Each row is read off three integers: the class's pairings with the
    skew loop σ and the Euler cycle ε, and the sector's cone certificate.
    A class crosses the skews ⟨u, σ⟩ times, and a primitive one has
    monodromy rank ⟨u, ε⟩ + 1."""
    ws = load_workspace(cfg.input, with_classes=True)
    pres = ws.presentation
    trace = bns.trace_polygon(pres)
    slopes = bns.excluded_directions(trace)
    if cfg.format == "tikz":
        _emit(cfg, bns.polygon_tikz(trace, slopes), "survey.tikz")
        return EXIT_YES
    comp = bns.component_containing(slopes, bns.SIGMA_DIRECTION)
    in_cone = _sector_in_open_cone(ws, comp)
    sigma = bns.sigma_report(pres, trace, slopes, comp, pairing=ws.pairing,
                             line_bound=cfg.k_max)
    (s_b, s_r), (e_b, e_r) = ws.pairing, _euler_coordinates(ws)
    height = cfg.height_max
    rows = []
    for cr in range(-height, height + 1):
        for cb in range(-height, height + 1):
            if (cb, cr) == (0, 0) or not comp.contains((cb, cr)):
                continue
            crossings = cb * s_b + cr * s_r
            primitive = math.gcd(cb, cr) == 1
            rows.append({
                "class": [cb, cr],
                "primitive": primitive,
                "in_cone": in_cone,
                "skew_crossings": crossings,
                "dim_lower_bound": max(0, crossings - 2),
                "on_axis_line": crossings == 1,
                "monodromy_rank": cb * e_b + cr * e_r + 1
                if primitive else None,
            })
    payload = {"height_max": height, "sigma": sigma, "classes": rows}
    _emit(cfg, _to_json(payload), "survey.json")
    return EXIT_YES


# ---------------------------------------------------------------------------
# section and monodromy


def _disconnection_report(cfg: RunConfig, ws: Workspace,
                          coords: tuple[int, int], z: dict) -> int:
    """A non-primitive class disconnects; report the pieces and fail."""
    section = sect.build_section(ws.complex_, z, cfg.phase)
    payload = {
        "class": list(coords),
        "primitive": False,
        "divisibility": math.gcd(abs(coords[0]), abs(coords[1])),
        "components": len(section.components),
        "component_vertices": [list(c) for c in section.components],
    }
    _emit(cfg, _to_json(payload), f"{cfg.command}.json")
    return EXIT_INVARIANT


def _line_index(ws: Workspace, coords: tuple[int, int]) -> Optional[int]:
    """The k ≥ 0 whose line-family cocycle has the class ``coords``, or None.

    The class of ``line_family_cocycle(T, k)`` is F + k·S, with F the class
    at k = 0 and S the spin between k = 1 and k = 0, both read against the
    presentation's dualcycles.  Every line-family cocycle pairs to 1 with
    the skew loop, so other classes are refused without a solve.
    """
    if coords[0] * ws.pairing[0] + coords[1] * ws.pairing[1] != 1:
        return None
    try:
        base, spun = (co.line_family_cocycle(ws.complex_, k) for k in (0, 1))
    except FreeByCyclicError:
        return None
    cycles = _dualcycles(ws.presentation)
    f = [co.evaluate(ws.complex_, base, cycle) for cycle in cycles]
    s = [co.evaluate(ws.complex_, spun, cycle) - fi
         for cycle, fi in zip(cycles, f)]
    d = [c - fi for c, fi in zip(coords, f)]
    k = next((di / si for di, si in zip(d, s) if si), Fraction(0))
    if k.denominator == 1 and k >= 0 and \
            all(di == k * si for di, si in zip(d, s)):
        return int(k)
    return None


def _build_for_class(cfg: RunConfig, ws: Workspace, coords: tuple[int, int],
                     z: dict):
    """Section + first return for a primitive class, canonically when possible.

    Returns ``(line_section_or_None, section, return_map)``; the canonical
    route applies exactly when the class is that of a line-family cocycle
    (:func:`_line_index`) and the phase, read modulo 1, is the table's 1/2
    convention; otherwise the section is the level set of ``z``.
    """
    k = _line_index(ws, coords) if cfg.phase % 1 == Fraction(1, 2) else None
    if k is not None:
        ls = sect.line_section(ws.complex_, k)
        return ls, ls.section, ls.return_map
    section = sect.build_section(ws.complex_, z, cfg.phase)
    return None, section, sect.first_return(section)


def cmd_section(cfg: RunConfig) -> int:
    ws = load_workspace(cfg.input, with_classes=True)
    coords, z = _require_class(cfg, ws)
    if math.gcd(abs(coords[0]), abs(coords[1])) != 1:
        return _disconnection_report(cfg, ws, coords, z)
    ls, section, return_map = _build_for_class(cfg, ws, coords, z)
    if cfg.format == "dot":
        _emit(cfg, sect.section_dot(section), "section.dot")
        return EXIT_YES
    audit = sect.section_audit(section, return_map)
    payload = {
        "class": list(coords),
        "canonical": ls is not None,
        "k": None if ls is None else ls.k,
        "phase": str(section.phase),
        "basepoint": section.basepoint,
        "audit": asdict(audit),
    }
    if ls is not None:
        payload["tree"] = list(ls.tree_edges)
        payload["first_return"] = {
            name: format_word(ls.table.edge_images[name])
            for name in sorted(ls.table.domain.edge_names)}
    else:
        payload["first_return"] = {
            name: format_word(return_map.edge_images[name])
            for name in sorted(section.graph.edge_names)}
    _emit(cfg, _to_json(payload), "section.json")
    return EXIT_YES


def _input_class_match(ws: Workspace, data: sect.MonodromyData
                       ) -> Optional[dict]:
    """Identify the monodromy with the input map's outer class, if it is one.

    Only a rank-matching monodromy can be compared; every bijection of
    generators is tried in sorted order, so a reported identification is
    deterministic.
    """
    marked = ws.mapfile.marked
    gens = data.generators
    if marked is None or len(gens) != len(marked.generators):
        return None
    phi = map_to_automorphism(marked, ws.mapfile.gmap)
    psi = data.automorphism
    for perm in itertools.permutations(phi.domain):
        relabel = FreeGroupMap.from_strings(
            gens, {g: h for g, h in zip(gens, perm)}, codomain=phi.domain)
        unlabel = FreeGroupMap.from_strings(
            phi.domain, {h: g for g, h in zip(gens, perm)}, codomain=gens)
        transported = relabel.compose(psi).compose(unlabel)
        conjugator = outer_equal(transported, phi)
        if conjugator is not None:
            return {"matches": True,
                    "identification": {g: h for g, h in zip(gens, perm)},
                    "conjugator": format_word(conjugator)}
    return {"matches": False}


def cmd_monodromy(cfg: RunConfig) -> int:
    ws = load_workspace(cfg.input, with_classes=True)
    coords, z = _require_class(cfg, ws)
    if math.gcd(abs(coords[0]), abs(coords[1])) != 1:
        return _disconnection_report(cfg, ws, coords, z)
    ls, section, return_map = _build_for_class(cfg, ws, coords, z)
    data = ls.monodromy if ls is not None \
        else sect.monodromy(section, return_map)
    payload = {
        "class": list(coords),
        "canonical": ls is not None,
        "rank": len(data.generators),
        "basepoint": data.basepoint,
        "generators": list(data.generators),
        "images": {g: format_word(data.automorphism.image(g))
                   for g in data.generators},
    }
    comparison = _input_class_match(ws, data)
    if comparison is not None:
        payload["input_class"] = comparison
    _emit(cfg, _to_json(payload), "monodromy.json")
    return EXIT_YES


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "traintrack": cmd_traintrack,
    "survey": cmd_survey,
    "section": cmd_section,
    "monodromy": cmd_monodromy,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
        return COMMANDS[cfg.command](cfg)
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
