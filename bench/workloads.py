"""The benchmark's workloads: set-up, one pass each, and output checks.

``survey`` and ``deep_section`` run the paper's fixed running example
(the map in ``data/phi_f3.map`` and the presentation in
``data/g_phi.2gen``); the seed only drives ``corpus``.  Every step of a
pass is one operation: it fails when it raises or when its output is
wrong, and the failure is counted, never raised.  Library functions are
reached through their module (``tt.eigen_metric``, ``cli.main``) so that
the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from freebycyclic import bns, cli, folding, graphs
from freebycyclic import cohomology as co
from freebycyclic import corpus as corpus_mod
from freebycyclic import section as sect
from freebycyclic import torus as torus_mod
from freebycyclic import traintrack as tt
from freebycyclic import words

DATA = Path(__file__).resolve().parent / "data"
MAP_PATH = DATA / "phi_f3.map"
PRESENTATION_PATH = DATA / "g_phi.2gen"

CORPUS_SIZE = 200
GROWTH_ITERATES = 19
GROWTH_LETTERS = 1_281_150
ITERATE_TIGHT_STEPS = 15
LINE_FAMILY = range(8)

# first 16 hex digits of the sha256 of the CLI's stdout, pinned at the
# commit that defined the benchmark
CLI_DIGESTS = {
    ("survey", "8"):
        "2cc3e91e6875b68a",
    ("section", "1,6"):
        "fd4c76122d502a68",
    ("section", "1,14"):
        "383975302e9944d2",
    ("monodromy", "1,6"):
        "dac2461fb7f51669",
    ("monodromy", "1,14"):
        "911cddb0caf4c780",
}
DEEP_CLASS = (1, 14)
DEEP_COCYCLE = {"up:a@3.2": 14, "up:a@2.3": 27, "skew4": 13}
DEEP_AUDIT = (1216, 1243, 28)
DEEP_VALENCE = [[2, 1162], [3, 54]]
STRETCH_CLASS = (1, 6)
STRETCH_1_6 = 1.1255823392


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Tally:
    """Operations attempted and failed, and the stdout digest of each
    CLI call, over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: list[tuple[str, str]] = field(default_factory=list)

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")


@dataclass
class Context:
    """What set-up leaves ready for the first pass."""

    mapfile: graphs.MapFile
    torus: torus_mod.TrapComplex
    duals: tuple[dict, dict]
    phi: words.FreeGroupMap
    maps: tuple[graphs.GraphMap, ...]


def setup(workload: str, seed: int) -> Context:
    """Parse the inputs, build the torus and dual basis, make the corpus."""
    mapfile = graphs.load_map_file(MAP_PATH)
    presentation = bns.load_presentation_file(PRESENTATION_PATH)
    torus = torus_mod.build_torus(folding.decompose(mapfile.gmap))
    cycles = [presentation.dualcycles[g] for g in presentation.generators]
    duals = tuple(co.dual_basis(torus, cycles))
    phi = graphs.map_to_automorphism(mapfile.marked, mapfile.gmap)
    maps = corpus_mod.corpus(CORPUS_SIZE, seed) if workload == "corpus" \
        else ()
    return Context(mapfile, torus, duals, phi, maps)


def run_cli(tally: Tally, command: str, option: str, value: str) -> str:
    """Run one CLI command in-process; check exit 0 and the pinned digest."""
    argv = [command, "--input", str(PRESENTATION_PATH), f"{option}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    tally.digests.append((" ".join(argv[:1] + argv[3:]), digest))
    expect(code == 0, f"exit {code}: {err.getvalue().strip()}")
    expect(digest == CLI_DIGESTS[command, value],
           f"stdout digest {digest} differs from the pinned one")
    return text


def survey_pass(ctx: Context, tally: Tally) -> None:
    with tally.op("survey"):
        rows = json.loads(run_cli(tally, "survey", "--height-max",
                                  "8"))["classes"]
        expect(len(rows) == 100, f"{len(rows)} rows, not 100")
        expect(all(row["in_cone"] for row in rows), "a class left the cone")


def _class_of(ctx: Context, coords: tuple[int, int]) -> dict:
    b_star, r_star = ctx.duals
    return co.dict_sum(co.dict_scale(coords[0], b_star),
                       co.dict_scale(coords[1], r_star))


def deep_section_pass(ctx: Context, tally: Tally) -> None:
    for command in ("section", "monodromy"):
        for coords in (STRETCH_CLASS, DEEP_CLASS):
            value = f"{coords[0]},{coords[1]}"
            with tally.op(f"{command} {value}"):
                text = run_cli(tally, command, "--class", value)
                if command == "section" and coords == DEEP_CLASS:
                    audit = json.loads(text)["audit"]
                    got = (audit["vertices"], audit["edges"], audit["rank"])
                    expect(got == DEEP_AUDIT, f"audit {got}")
                    expect(audit["valence_profile"] == DEEP_VALENCE,
                           f"valence {audit['valence_profile']}")
    returns = {}
    for coords in (STRETCH_CLASS, DEEP_CLASS):
        with tally.op(f"return map {coords}"):
            z = co.integral_cocycle(ctx.torus, _class_of(ctx, coords))
            if coords == DEEP_CLASS:
                expect(z == DEEP_COCYCLE, f"cocycle {z}")
            ret = sect.first_return(sect.build_section(ctx.torus, z))
            ok, witness = tt.is_train_track(ret)
            expect(ok, f"not a train track: {witness}")
            expect(tt.is_irreducible(tt.transition_matrix(ret)),
                   "reducible return map")
            returns[coords] = ret
    with tally.op(f"eigen_metric {STRETCH_CLASS}"):
        stretch = tt.eigen_metric(returns[STRETCH_CLASS]).stretch
        expect(abs(stretch - STRETCH_1_6) <= 1e-9, f"stretch {stretch!r}")
    assumptions = ctx.mapfile.assumptions
    for k in LINE_FAMILY:
        with tally.op(f"traintrack_report k={k}"):
            report = tt.traintrack_report(
                sect.line_section(ctx.torus, k).table,
                assume_ageometric="ageometric" in assumptions,
                assume_fully_irreducible="fully-irreducible" in assumptions)
            verdict = report["lone_axis"]["verdict"]
            expect(verdict == "yes", f"verdict {verdict!r}")


def corpus_pass(ctx: Context, tally: Tally) -> None:
    # oracle checks only, so that any seed's corpus is judged correctly
    for index, f in enumerate(ctx.maps):
        with tally.op(f"corpus map {index}"):
            folding.decompose(f).verify()
            matrix = tt.transition_matrix(f)
            expect(tt.is_irreducible(matrix) and tt.is_expanding(matrix),
                   "not irreducible and expanding")
            expect(tt.is_train_track(f)[0], "not a train track")
            residual = tt.eigen_metric(f).residual
            expect(residual <= 1e-10, f"eigen residual {residual!r}")
    with tally.op("word growth"):
        stretch = tt.eigen_metric(ctx.mapfile.gmap).stretch
        word = (("a", 1),)
        lengths = []
        for _ in range(GROWTH_ITERATES):
            word = ctx.phi.apply(word)
            lengths.append(len(word))
        expect(lengths[-1] == GROWTH_LETTERS, f"{lengths[-1]} letters")
        ratio = lengths[-1] / lengths[-2]
        expect(abs(ratio - stretch) < 1e-3,
               f"growth ratio {ratio!r} against stretch {stretch!r}")
    with tally.op("iterate_tight"):
        gmap = ctx.mapfile.gmap
        image = gmap.iterate_tight((("a", 1),), ITERATE_TIGHT_STEPS)
        expect(len(image) > 0 and words.reduce_word(image) == image
               and graphs.is_path(gmap.domain, image),
               "iterate is not a tight edge path")


PASSES = {
    "survey": survey_pass,
    "deep_section": deep_section_pass,
    "corpus": corpus_pass,
}
