"""Relator tracing, excluded rays, sectors, and the pairing-one line."""

import os
import random
from fractions import Fraction

import pytest

from freebycyclic.bns import (SIGMA_DIRECTION, AxisLine, ConeComponent,
                              SlopeSet, TwoGenPresentation,
                              component_containing, excluded_directions,
                              load_presentation_file, lone_axis_line,
                              pairing_coordinates, parse_presentation_text,
                              polygon_tikz, sigma_report, trace_polygon)
from freebycyclic.cohomology import boundary, dict_scale, dict_sum, \
    dual_basis
from freebycyclic.errors import (ExcludedDirectionError, InputParseError,
                                 InvariantViolation, OpenTraceError)
from freebycyclic.folding import decompose
from freebycyclic.graphs import load_map_file
from freebycyclic.torus import build_torus, skew_loop
from freebycyclic.words import cyclic_reduce, encode, format_word, \
    letters, parse_word, reduce_word

from conftest import EXAMPLES
from helpers import format_presentation, in_open_cone

F = Fraction

B_CLASS = {"up:blue.0": -1, "skew1": -1}
R_CLASS = {"up:black.0": 1, "up:blue.0": 1, "up:red.0": 1, "skew1": 1}


@pytest.fixture(scope="module")
def bundled():
    return load_presentation_file(os.path.join(EXAMPLES, "g_phi.2gen"))


@pytest.fixture(scope="module")
def torus():
    mapfile = load_map_file(os.path.join(EXAMPLES, "phi_f3.map"))
    return build_torus(decompose(mapfile.gmap))


def presentation(word_text, generators=("b", "r")):
    """A bare presentation for tracing tests; dual cycles unused."""
    relator = reduce_word(parse_word(word_text, generators))
    return TwoGenPresentation(tuple(generators), relator,
                              cyclic_reduce(relator)[0],
                              {g: {} for g in generators})


# ---------------------------------------------------------------------------
# parsing


def test_bundled_presentation(bundled):
    assert bundled.generators == ("b", "r")
    assert bundled.use == "phi_f3.map"
    assert format_word(bundled.relator) == "rrrBRbRbrBRbRB"
    assert bundled.cyclic_relator == bundled.relator
    assert cyclic_reduce(bundled.relator)[1] == ""
    assert bundled.dualcycles == {
        "b": {"up:black.0": 1, "up:c@1.1": -1, "up:a@2.3": 1,
              "skew1": -1, "skew4": -2},
        "r": {"up:red.0": 1, "skew2": 1, "up:a@3.2": 1},
    }


def test_bundled_dualcycles_are_cycles(bundled, torus):
    for chain in bundled.dualcycles.values():
        assert boundary(torus, chain) == {}


def test_bundled_dualcycles_pair_as_identity(bundled, torus):
    cycles = [bundled.dualcycles[g] for g in bundled.generators]
    duals = dual_basis(torus, cycles)
    c1 = pairing_coordinates(torus, duals, bundled.dualcycles["b"])
    c2 = pairing_coordinates(torus, duals, bundled.dualcycles["r"])
    assert (c1, c2) == ((1, 0), (0, 1))


def test_fractional_pairing_is_refused(bundled, torus):
    b, r = (bundled.dualcycles[g] for g in bundled.generators)
    duals = dual_basis(torus, [{e: 2 * c for e, c in b.items()}, r])
    with pytest.raises(InvariantViolation, match="pairs fractionally"):
        pairing_coordinates(torus, duals, b)
    # a family that misses part of H1 has no dual basis to read against
    with pytest.raises(InvariantViolation, match="span rank 1 of"):
        dual_basis(torus, [b])


def test_format_roundtrip(bundled):
    again = parse_presentation_text(format_presentation(bundled))
    assert again == bundled


def test_cyclic_reduction_recorded():
    pres = presentation("BrBRbb")
    assert format_word(pres.relator) == "BrBRbb"
    assert format_word(pres.cyclic_relator) == "rBRb"
    assert format_word(cyclic_reduce(pres.relator)[1]) == "B"


@pytest.mark.parametrize("text,fragment", [
    ("generators b r\n", "missing relator"),
    ("relator br\n", "missing generators"),
    ("generators b r\nrelator brBR\n", "dualcycle per generator"),
    ("generators b b\nrelator brBR\ndualcycle b\ndualcycle r\n", "dualcycle"),
    ("generators bb r\nrelator r\ndualcycle bb skew1 1\ndualcycle r skew2 1\n",
     "single lowercase"),
    # a name without an uppercase form could not write its inverse compactly
    ("generators _ r\nrelator _r\ndualcycle _ skew1 1\ndualcycle r skew2 1\n",
     "single lowercase"),
    ("generators b r\nrelator brBR\ndualcycle b skew1 x\ndualcycle r skew2 1\n",
     "bad coefficient"),
    ("generators b r\nrelator brBR\ndualcycle b skew1 1 skew1 2\n"
     "dualcycle r skew2 1\n", "repeated cell"),
    ("generators b r\nrelator brBR\ndualcycle b skew1 1\n"
     "dualcycle b skew2 1\n", "duplicate dualcycle"),
    ("frobnicate yes\n", "unknown keyword"),
    ("generators b r\nrelator bB\ndualcycle b skew1 1\ndualcycle r skew2 1\n",
     "trivial"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(InputParseError, match=fragment):
        parse_presentation_text(text)


# ---------------------------------------------------------------------------
# tracing


def test_bundled_trace(bundled):
    trace = trace_polygon(bundled)
    assert trace.points == (
        (0, 0), (0, 1), (0, 2), (0, 3), (-1, 3), (-1, 2), (0, 2), (0, 1),
        (1, 1), (1, 2), (0, 2), (0, 1), (1, 1), (1, 0), (0, 0))
    assert trace.hull == ((-1, 2), (0, 0), (1, 0), (1, 2), (0, 3), (-1, 3))
    thick = {seg: m for seg, m in trace.edge_multiplicities.items() if m > 1}
    assert thick == {((0, 1), (0, 2)): 3, ((0, 1), (1, 1)): 2}
    assert set(trace.corner_traversals.values()) == {1}


def test_commutator_square():
    trace = trace_polygon(presentation("brBR"))
    assert trace.hull == ((0, 0), (1, 0), (1, 1), (0, 1))
    slopes = excluded_directions(trace)
    assert slopes.excluded == ()
    assert slopes.indeterminate_corners == ()


def test_open_trace_rejected():
    with pytest.raises(OpenTraceError):
        trace_polygon(presentation("bbb"))


def test_long_straight_edge_excluded():
    slopes = excluded_directions(trace_polygon(presentation("bbbrBBBR")))
    assert slopes.excluded == ((0, -1), (0, 1))
    assert slopes.indeterminate_corners == ()


def test_doubled_commutator_flags_corners():
    trace = trace_polygon(presentation("brBRbrBR"))
    slopes = excluded_directions(trace)
    assert slopes.excluded == ()
    assert slopes.indeterminate_corners == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_bundled_excluded_rays(bundled):
    slopes = excluded_directions(trace_polygon(bundled))
    assert slopes.excluded == ((-2, -1), (-1, -1), (-1, 0),
                               (1, 0), (1, 1), (2, 1))
    assert slopes.indeterminate_corners == ()


def random_relator_text(rng):
    n_b = rng.randrange(1, 4)
    n_r = rng.randrange(1, 4)
    letters = ["b"] * n_b + ["B"] * n_b + ["r"] * n_r + ["R"] * n_r
    rng.shuffle(letters)
    return "".join(letters)


def test_excluded_set_stable_under_rotation_and_inversion(bundled):
    rng = random.Random(20260823)
    words = [format_word(bundled.relator)]
    while len(words) < 25:
        text = random_relator_text(rng)
        core, _ = cyclic_reduce(parse_word(text, ("b", "r")))
        if core:
            words.append(format_word(core))
    for text in words:
        pres = presentation(text)
        base = excluded_directions(trace_polygon(pres))
        core = pres.cyclic_relator
        for j in (1, len(core) // 2):
            rotated = core[j:] + core[:j]
            rotated_slopes = excluded_directions(trace_polygon(
                presentation(format_word(rotated))))
            assert rotated_slopes.excluded == base.excluded
            assert len(rotated_slopes.indeterminate_corners) == \
                len(base.indeterminate_corners)
        inverted = encode([(name, -sign) for name, sign in reversed(letters(core))])
        inverted_slopes = excluded_directions(trace_polygon(
            presentation(format_word(inverted))))
        assert inverted_slopes.excluded == base.excluded
        assert len(inverted_slopes.indeterminate_corners) == \
            len(base.indeterminate_corners)


# ---------------------------------------------------------------------------
# sector components


@pytest.fixture(scope="module")
def bundled_slopes(bundled):
    return excluded_directions(trace_polygon(bundled))


def test_component_of_the_vertical_class(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    assert (comp.start, comp.end) == ((1, 1), (-1, 0))
    for t in (F(-100), F(-1), F(0), F(1, 2), F(15, 16)):
        assert comp.contains((t, 1))
    for t in (F(1), F(9, 8), F(2), F(100)):
        assert not comp.contains((t, 1))
    assert not comp.contains((0, -1))
    assert not comp.contains((1, 1))
    assert not comp.contains((-1, 0))
    assert not comp.contains((0, 0))


def test_antipodal_component(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, -1))
    assert (comp.start, comp.end) == ((-1, -1), (1, 0))
    for t in (F(-1), F(0), F(1, 2)):
        assert comp.contains((-t, -1))
        assert not comp.contains((t, 1))


def test_excluded_direction_rejected(bundled_slopes):
    for ray in ((1, 1), (2, 1), (-1, 0), (4, 2)):
        with pytest.raises(ExcludedDirectionError):
            component_containing(bundled_slopes, ray)


def test_zero_direction_rejected(bundled_slopes):
    with pytest.raises(InvariantViolation):
        component_containing(bundled_slopes, (0, 0))


def test_nothing_excluded_gives_the_whole_plane():
    comp = component_containing(SlopeSet((), ()), (3, -7))
    assert comp.start is None and comp.end is None
    assert comp.contains((1, 0)) and comp.contains((-5, 2))
    assert not comp.contains((0, 0))


def test_half_plane_component():
    slopes = SlopeSet(((-1, 0), (1, 0)), ())
    upper = component_containing(slopes, (0, 1))
    assert (upper.start, upper.end) == ((1, 0), (-1, 0))
    assert upper.contains((100, 1)) and upper.contains((-100, 1))
    assert not upper.contains((1, 0)) and not upper.contains((0, -1))


# ---------------------------------------------------------------------------
# the pairing-one line


def test_bundled_lone_axis_line(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    line = lone_axis_line(comp, (-1, 1), bound=5)
    assert line.infeasible_reason is None
    assert line.classes == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    assert line.classes[0] == (0, 1)
    assert line.base == (0, 1) and line.direction == (-1, -1)


def test_lone_axis_line_bound_truncates(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    assert lone_axis_line(comp, (-1, 1), bound=0).classes == ((0, 1),)
    assert lone_axis_line(comp, (-1, 1), bound=2).classes == \
        ((0, 1), (1, 2), (2, 3))


def test_doubled_pairing_is_infeasible(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    line = lone_axis_line(comp, (-2, 2), bound=5)
    assert line.classes == ()
    assert "factor 2" in line.infeasible_reason


def test_zero_pairing_is_infeasible(bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    line = lone_axis_line(comp, (0, 0), bound=5)
    assert line.classes == ()
    assert "zero" in line.infeasible_reason


def test_line_missing_a_narrow_sector(bundled_slopes):
    comp = ConeComponent((2, 1), (1, 1))
    line = lone_axis_line(comp, (-1, 1), bound=5)
    assert line.classes == ()
    assert "misses" in line.infeasible_reason


def test_line_meets_a_thin_sector_far_from_the_origin():
    # the line x = 1 crosses the sector's rays at y = 60 and y = 70, past
    # the default search window of 8 * (bound + 2) = 56
    line = lone_axis_line(ConeComponent((1, 60), (1, 70)), (1, 0), bound=5)
    assert line.classes == tuple((1, y) for y in range(61, 67))
    # the reflex sector from (-1, 60) round to (1, 70) holds every (1, y)
    # with y < 70, so the line leaves it only upward
    line = lone_axis_line(ConeComponent((-1, 60), (1, 70)), (1, 0), bound=5)
    assert line.classes == tuple((1, y) for y in range(69, 63, -1))


def test_line_in_the_full_plane():
    comp = component_containing(SlopeSet((), ()), (0, 1))
    line = lone_axis_line(comp, (0, 1), bound=5)
    assert line.classes == ((0, 1), (-1, 1), (1, 1), (-2, 1), (2, 1), (-3, 1))


def test_line_clipped_on_both_sides():
    slopes = SlopeSet(((-1, -1), (-1, 1), (1, -1), (1, 1)), ())
    comp = component_containing(slopes, (0, 1))
    line = lone_axis_line(comp, (0, 1), bound=5)
    assert line.classes == ((0, 1),)


def test_all_solutions_are_primitive(bundled_slopes):
    import math
    comp = component_containing(bundled_slopes, (0, 1))
    for c in lone_axis_line(comp, (-1, 1), bound=12).classes:
        assert math.gcd(abs(c[0]), abs(c[1])) == 1


# ---------------------------------------------------------------------------
# agreement with the exact positivity cone


def test_sector_matches_positive_cone_on_33_slopes(torus, bundled_slopes):
    comp = component_containing(bundled_slopes, (0, 1))
    disagreements = []
    for i in range(33):
        t = F(-2) + F(i, 8)
        in_sector = comp.contains((t, 1))
        cls = dict_sum(dict_scale(t, B_CLASS), R_CLASS)
        in_cone = in_open_cone(torus, cls)
        if in_sector != in_cone:
            disagreements.append(t)
    assert disagreements == []


def test_skew_loop_pairing(torus, bundled):
    loop = skew_loop(torus)
    assert loop == {"skew1": 1, "skew2": 1, "skew3": 1, "skew4": 1}
    cycles = [bundled.dualcycles[g] for g in bundled.generators]
    assert pairing_coordinates(torus, dual_basis(torus, cycles), loop) \
        == (-1, 1)


# ---------------------------------------------------------------------------
# export


def test_polygon_tikz(bundled, bundled_slopes):
    trace = trace_polygon(bundled)
    out = polygon_tikz(trace, bundled_slopes)
    assert out.startswith(r"\begin{tikzpicture}")
    assert out.rstrip().endswith(r"\end{tikzpicture}")
    assert out.count("very thick") == 2
    assert out.count(r"\fill") == 6
    assert out.count("->, red") == 6
    assert out == polygon_tikz(trace, bundled_slopes)


def test_sigma_report_with_a_pairing(bundled, bundled_slopes):
    trace = trace_polygon(bundled)
    comp = component_containing(bundled_slopes, SIGMA_DIRECTION)
    report = sigma_report(bundled, trace, bundled_slopes, comp,
                          pairing=(-1, 1), line_bound=2)
    assert report["excluded_rays"] == [[-2, -1], [-1, -1], [-1, 0],
                                       [1, 0], [1, 1], [2, 1]]
    assert report["component"] == {"direction": [0, 1],
                                   "start": [1, 1], "end": [-1, 0]}
    assert report["pairing"] == [-1, 1]
    assert report["axis_line"]["classes"] == [[0, 1], [1, 2], [2, 3]]
    assert report["axis_line"]["infeasible_reason"] is None
