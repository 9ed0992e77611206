"""Semiflow sections, first-return maps, and monodromy, frozen by hand."""

import copy
import hashlib
import math
from fractions import Fraction

import pytest

from freebycyclic.cohomology import (LeastCocycle, dict_scale, dict_sum,
                                     evaluate, h1, integral_cocycle,
                                     least_representatives,
                                     line_family_cocycle,
                                     mapping_torus_h1_rank, require_open_cone,
                                     zero_cycle)
from freebycyclic.errors import (ConeInfeasibleError,
                                 DisconnectedGraphError, FreeByCyclicError,
                                 InvariantViolation, IterationBudgetError,
                                 NonIntegralClassError)
from freebycyclic.corpus import corpus
from freebycyclic.folding import decompose
from freebycyclic.graphs import load_map_file, map_to_automorphism
from freebycyclic import cli, cohomology
from freebycyclic import section as sect
from freebycyclic.section import (_generic_phase, _line_names, _line_table,
                                  build_charts, build_section, crossing_rank,
                                  first_return, host_kind, line_section,
                                  monodromy, section_audit, section_dot)
from freebycyclic.torus import build_torus, euler_chain, skew_loop
from freebycyclic.traintrack import (eigen_metric, is_expanding,
                                     is_irreducible, is_train_track,
                                     lone_axis_check, nielsen_search,
                                     rotationless_index, transition_matrix,
                                     whitehead_data)
from freebycyclic.words import (FreeGroupMap, encode, format_word, letters,
                               outer_equal)

import os

from conftest import EXAMPLES
from helpers import as_dict, open_cone_representative
import cocycle_oracle
import section_oracle as oracle
from test_acceptance import canonical_return_table

F = Fraction

# the two generating classes used throughout: B pairs +1 with the loop that
# descends the blue vertical against skew1, R pairs +1 with every fiber loop
B_CLASS = {"up:blue.0": -1, "skew1": -1}
R_CLASS = {"up:black.0": 1, "up:blue.0": 1, "up:red.0": 1, "skew1": 1}

# sha256 of the generic-route records, pinned before the section geometry
# was consolidated; any change to a section or return map moves it
GOLDEN_ROUTE_DIGEST = \
    "5f08b984bc609e68b1fba29a1cfa6f3270854402c39a81f14a54b24554fca8b1"


@pytest.fixture(scope="module")
def mapfile():
    return load_map_file(os.path.join(EXAMPLES, "phi_f3.map"))


@pytest.fixture(scope="module")
def torus(mapfile):
    return build_torus(decompose(mapfile.gmap))


def family_class(k):
    return dict_sum(dict_scale(k, B_CLASS), dict_scale(k + 1, R_CLASS))


def family_like(coords):
    return dict_sum(dict_scale(coords[0], B_CLASS),
                    dict_scale(coords[1], R_CLASS))


# ---------------------------------------------------------------------------
# height charts; the fraction charts of the oracle carry the exact heights,
# the integer charts of the package the same values over the section lattice


def test_fiber_charts(torus):
    z = line_family_cocycle(torus, 0)
    assert z == {"up:black.0": 1, "up:blue.0": 1, "up:red.0": 1, "skew1": 1}
    charts = oracle.build_charts(torus, z)
    c1 = charts["trap1"]
    assert (c1.bottom, c1.bottom_rise, c1.tl, c1.tr) == ("skew1", 1, 1, 1)
    assert [(p.skew, p.sign, p.x_lo, p.x_hi, p.h_lo, p.h_hi)
            for p in c1.top] == [("skew3", 1, F(0), F(1), 1, 1)]
    c2 = charts["trap2"]
    assert (c2.bottom_rise, c2.tl, c2.tr) == (0, 1, 1)
    assert c2.left == (("up:c@1.1", 0, 0), ("up:a@2.3", 0, 0),
                       ("up:black.0", 0, 1))
    assert c2.right == (("up:a@3.2", 0, 0), ("up:red.0", 0, 1),
                        ("up:c@1.1", 1, 1))
    assert [(p.skew, p.h_lo, p.h_hi) for p in c2.top] == [("skew4", 1, 1)]
    c3 = charts["trap3"]
    assert (c3.bottom_rise, c3.tl, c3.tr) == (0, 1, 2)
    assert [(p.skew, p.sign, p.x_lo, p.x_hi, p.h_lo, p.h_hi)
            for p in c3.top] == [
        ("skew2", 1, F(0), F(1, 4), 1, 1),
        ("skew3", 1, F(1, 4), F(1, 2), 1, 1),
        ("skew4", 1, F(1, 2), F(3, 4), 1, 1),
        ("skew1", 1, F(3, 4), F(7, 8), 1, 2),
        ("skew2", 1, F(7, 8), F(1), 2, 2),
    ]
    c4 = charts["trap4"]
    assert (c4.bottom_rise, c4.tl, c4.tr) == (0, 1, 2)
    assert [(p.skew, p.h_lo, p.h_hi) for p in c4.top] == [("skew1", 1, 2)]
    assert c4.right == (("up:blue.0", 0, 1), ("up:a@3.2", 1, 1),
                        ("up:red.0", 1, 2))


def test_chart_heights_are_exact(torus):
    charts = oracle.build_charts(torus, line_family_cocycle(torus, 3))
    for chart in charts.values():
        assert chart.top_height(F(0)) == chart.tl
        assert chart.top_height(F(1)) == chart.tr
        assert chart.bottom_height(F(1)) == chart.bottom_rise
        for piece in chart.top:
            assert piece.height_at(piece.x_lo) == piece.h_lo
            assert piece.height_at(piece.x_hi) == piece.h_hi
            assert piece.skew_position(piece.x_lo) == (0 if piece.sign > 0
                                                       else 1)


def test_charts_reject_non_cocycle(torus):
    with pytest.raises(InvariantViolation):
        build_charts(torus, {"skew1": 1}, 2)


@pytest.mark.parametrize("k", [0, 3])
def test_integer_charts_scale_the_fraction_charts(torus, k):
    sec = build_section(torus, line_family_cocycle(torus, k))
    lattice = sec.lattice
    for name, exact in oracle.build_charts(torus, sec.cocycle).items():
        chart = sec.charts[name]
        assert (chart.bottom, chart.bottom_rise, chart.left, chart.right,
                chart.max_height) == (exact.bottom, exact.bottom_rise,
                                      exact.left, exact.right,
                                      exact.max_height)
        assert [(p.skew, p.sign, F(p.x_lo, lattice), F(p.x_hi, lattice),
                 F(p.h_lo, lattice), F(p.h_hi, lattice)) for p in chart.top] \
            == [(p.skew, p.sign, p.x_lo, p.x_hi, p.h_lo, p.h_hi)
                for p in exact.top]
        for p, q in zip(chart.top, exact.top):
            for x in range(p.x_lo, p.x_hi + 1):
                assert F(p.height_at(x), lattice) == q.height_at(
                    F(x, lattice))
                assert F(p.skew_position(x), lattice) == q.skew_position(
                    F(x, lattice))


def test_lattice_carries_every_coordinate(torus):
    # the fiber class at phase 1/2 lives on halves: the lattice is the lcm
    # of 2, 2·z(s) and 2·N·|rise| over the top pieces of width 1/N
    assert build_section(torus, line_family_cocycle(torus, 0)).lattice == 16
    sec = build_section(torus, integral_cocycle(torus, family_like((1, 6))))
    assert all(0 <= x_lo < x_hi <= sec.lattice
               for (_, _, x_lo), (_, x_hi) in sec.stations.items())


def test_off_lattice_level_names_the_trapezoid(torus):
    sec = build_section(torus, line_family_cocycle(torus, 3))
    chart = sec.charts["trap3"]
    piece = next(p for p in chart.top if abs(p.slope) > 1)
    with pytest.raises(InvariantViolation, match="trap3"):
        chart.runs(piece.h_lo + 1, 0, sec.lattice)


# ---------------------------------------------------------------------------
# the fiber section (k = 0)


@pytest.fixture(scope="module")
def fiber_section(torus):
    return build_section(torus, line_family_cocycle(torus, 0))


def test_fiber_section_shape(fiber_section):
    sec = fiber_section
    assert sec.graph.vertices == ("flow1", "skew1#1", "up:black.0#1",
                                  "up:blue.0#1", "up:red.0#1")
    table = {e: (sec.graph.init_of((e, 1)), sec.graph.term_of((e, 1)),
                 F(x_lo, sec.lattice), F(x_hi, sec.lattice), level)
             for (_, level, x_lo), (e, x_hi) in sec.stations.items()}
    assert table == {
        "trap1.0.0of1": ("up:blue.0#1", "skew1#1", F(0), F(1, 2), 0),
        "trap2.0.0of1": ("up:black.0#1", "up:red.0#1", F(0), F(1), 0),
        "trap3.0.0of1": ("up:red.0#1", "flow1", F(0), F(1, 2), 0),
        "trap3.0.1of2": ("flow1", "up:black.0#1", F(1, 2), F(1), 0),
        "trap3.1.13of16": ("skew1#1", "up:blue.0#1", F(13, 16), F(1), 1),
        "trap4.0.0of1": ("up:black.0#1", "up:blue.0#1", F(0), F(1), 0),
        "trap4.1.1of2": ("skew1#1", "up:red.0#1", F(1, 2), F(1), 1),
    }
    assert len(sec.components) == 1
    assert sec.basepoint == "skew1#1"
    assert sec.phase == F(1, 2)


def test_fiber_flow_is_a_five_cycle_on_vertices(fiber_section):
    assert dict(sorted(fiber_section.vertex_return.items())) == {
        "flow1": "up:black.0#1",
        "skew1#1": "flow1",
        "up:black.0#1": "up:blue.0#1",
        "up:blue.0#1": "up:red.0#1",
        "up:red.0#1": "up:black.0#1",
    }


def test_fiber_first_return_images(fiber_section):
    ret = first_return(fiber_section)
    assert {e: format_word(w) for e, w in ret.edge_images.items()} == {
        "trap1.0.0of1": "trap3.0.0of1",
        "trap2.0.0of1": "trap4.0.0of1'",
        "trap3.0.0of1": "trap2.0.0of1 trap3.0.0of1 trap3.0.1of2",
        "trap3.0.1of2": "trap4.0.0of1 trap1.0.0of1 trap3.1.13of16",
        "trap3.1.13of16": "trap3.0.1of2 trap2.0.0of1",
        "trap4.0.0of1": "trap1.0.0of1 trap4.1.1of2",
        "trap4.1.1of2": "trap3.0.1of2",
    }


def test_deeper_vertex_returns(torus):
    s1 = build_section(torus, line_family_cocycle(torus, 1))
    assert dict(sorted(s1.vertex_return.items())) == {
        "flow1": "flow2", "flow2": "up:black.0#1", "skew1#1": "flow1",
        "up:a@3.2#1": "up:red.0#1", "up:black.0#1": "up:black.0#2",
        "up:black.0#2": "up:blue.0#1", "up:blue.0#1": "up:a@3.2#1",
        "up:red.0#1": "up:black.0#1",
    }
    s2 = build_section(torus, line_family_cocycle(torus, 2))
    assert dict(sorted(s2.vertex_return.items())) == {
        "flow1": "flow2", "flow2": "flow3", "flow3": "up:black.0#1",
        "skew1#1": "flow1", "up:a@3.2#1": "up:a@3.2#2",
        "up:a@3.2#2": "up:red.0#1", "up:black.0#1": "up:black.0#2",
        "up:black.0#2": "up:black.0#3", "up:black.0#3": "up:blue.0#1",
        "up:blue.0#1": "up:a@3.2#1", "up:red.0#1": "up:black.0#1",
    }


# ---------------------------------------------------------------------------
# the one-parameter family of sections


def formatted(table):
    return {e: format_word(w) for e, w in table.items()}


def expected_line_monodromy(k):
    images = {"s1": "t1", "s2": "s2 t1", f"t{k+1}": "s2 s1 t1 s2'"}
    for i in range(1, k + 1):
        images[f"t{i}"] = f"t{i+1}"
    return images


@pytest.mark.parametrize("k", range(6))
def test_line_family_tables(torus, k):
    ls = line_section(torus, k)
    assert ls.k == k
    names = (["e1"]
             + [f"e2_{i}" for i in range(1, k + 2)]
             + [f"e3_{i}" for i in range(1, k + 2)]
             + [f"e4_{i}" for i in range(1, k + 2)]
             + ["s1", "s2"] + [f"t{i}" for i in range(1, k + 2)])
    assert ls.table.domain.edge_names == tuple(sorted(names))
    assert formatted(ls.table.edge_images) == canonical_return_table(k)
    assert ls.tree_edges == tuple(sorted(n for n in names
                                         if n.startswith("e")))
    assert ls.monodromy.generators == ("s1", "s2") + tuple(
        f"t{i}" for i in range(1, k + 2))
    assert as_dict(ls.monodromy.automorphism) == expected_line_monodromy(k)


def test_line_table_is_the_acceptance_oracle():
    for k in range(33):
        assert formatted(_line_table(k)) == canonical_return_table(k)


def test_line_sections_follow_the_template(torus):
    # line_section refuses a return map unless its renamed table is the
    # template, so each k below built one of the template's shape
    for k in range(25):
        table = line_section(torus, k).table
        assert formatted(table.edge_images) == canonical_return_table(k)


def test_a_swapped_image_letter_is_refused(torus):
    # the e3 chain's last image, t1 e3_1 e2_1, with e4_1 in place of e3_1:
    # every edge is still named, but the renamed table is not the template
    ret = line_section(torus, 3).return_map
    names, k = _line_names(ret)
    assert k == 3
    old = {new: name for name, new in names.items()}
    bad = copy.copy(ret)
    bad.edge_images = dict(ret.edge_images)
    bad.edge_images[old["e3_4"]] = encode(
        [(old["e2_1"], 1), (old["e4_1"], 1), (old["t1"], 1)])
    with pytest.raises(InvariantViolation, match="line-family shape"):
        _line_names(bad)


@pytest.mark.parametrize("k", range(6))
def test_line_family_counts(torus, k):
    sec = line_section(torus, k).section
    audit = section_audit(sec)
    assert audit.vertices == 3 * k + 5
    assert audit.edges == 4 * k + 7
    assert audit.rank == k + 3
    assert audit.components == 1
    assert audit.skew_crossings == 1
    assert audit.valence_profile == ((2, k + 1), (3, 2 * k + 4))
    assert audit.illegal_turns_at_trivalent is None


@pytest.mark.parametrize("k", range(6))
def test_each_one_cell_hosts_its_count(torus, k):
    z = line_family_cocycle(torus, k)
    sec = build_section(torus, z)
    hosted = {}
    for v in sec.graph.vertices:
        host = sec.vertex_host[v]
        if host[0] == "cell":
            _, cell, index = host
            hosted[cell] = hosted.get(cell, 0) + 1
            assert 1 <= index <= z[cell]
    assert hosted == {c: n for c, n in z.items() if n}


@pytest.mark.parametrize("k", range(6))
def test_line_family_dynamics(torus, k):
    ls = line_section(torus, k)
    table = ls.table
    ok, witness = is_train_track(table)
    assert ok and witness is None
    matrix = transition_matrix(table)
    assert is_irreducible(matrix) and is_expanding(matrix)
    report = nielsen_search(table, 10, 6)
    assert report.exhaustive and report.none_up_to_bounds
    wd = whitehead_data(table)
    assert len(wd.components) == 2 * k + 3
    for _v, nodes, edges in wd.components:
        assert len(nodes) == 3 and len(edges) == 3
    assert rotationless_index(wd) == F(3, 2) - (k + 3)
    verdict = lone_axis_check(table, assume_ageometric=True,
                              assume_fully_irreducible=True)
    assert verdict.verdict == "yes"


def test_fiber_monodromy_is_the_input_class(torus, mapfile):
    ls = line_section(torus, 0)
    psi = ls.monodromy.automorphism
    assert as_dict(psi) == {"s1": "t1", "s2": "s2 t1", "t1": "s2 s1 t1 s2'"}
    phi = map_to_automorphism(mapfile.marked, mapfile.gmap)
    relabel = FreeGroupMap.from_strings(("s1", "s2", "t1"),
                                        {"s1": "c", "s2": "b", "t1": "a"},
                                        codomain=phi.domain)
    unlabel = FreeGroupMap.from_strings(phi.domain,
                                        {"a": "t1", "b": "s2", "c": "s1"},
                                        codomain=("s1", "s2", "t1"))
    transported = relabel.compose(psi).compose(unlabel)
    assert outer_equal(transported, phi) is not None


# ---------------------------------------------------------------------------
# local geometry at section vertices


def classify_incidences(sec):
    """Map each vertex to the sides of the trapezoid boundary it meets."""
    charts = sec.charts
    lattice = sec.lattice
    sides = {v: [] for v in sec.graph.vertices}
    for (trap, level, x_lo), (name, x_hi) in sec.stations.items():
        for v, x in ((sec.graph.init_of((name, 1)), x_lo),
                     (sec.graph.term_of((name, 1)), x_hi)):
            chart = charts[trap]
            y = int((sec.phase + level) * lattice)
            if chart.bottom_rise * x == y:
                sides[v].append("bottom")
            elif x == 0:
                sides[v].append("left")
            elif x == lattice:
                sides[v].append("right")
            elif chart.top_height(x) == y:
                sides[v].append("top")
            else:
                sides[v].append("interior")
    return sides


@pytest.mark.parametrize("k", range(3))
def test_skew_crossings_have_one_edge_above_two_below(torus, k):
    sec = build_section(torus, line_family_cocycle(torus, k))
    sides = classify_incidences(sec)
    for v in sec.graph.vertices:
        host = sec.vertex_host[v]
        tally = sorted(sides[v])
        if host[0] == "cell" and host[1].startswith("skew"):
            # one arc leaves along the bottom of the trapezoid above, two
            # arrive through the tops of the two trapezoids below
            assert tally == ["bottom", "top", "top"]
        elif host[0] == "cell":
            assert set(tally) <= {"left", "right"}
        else:
            assert tally == ["interior", "interior"]


# ---------------------------------------------------------------------------
# components count the divisibility of the class


def test_doubled_fiber_class_splits_into_two_sections(torus):
    z = {c: 2 * v for c, v in line_family_cocycle(torus, 0).items()}
    sec = build_section(torus, z)
    assert sec.components == (
        ("flow1", "flow4", "flow5", "skew1#2", "up:black.0#2",
         "up:blue.0#2", "up:red.0#2"),
        ("flow2", "flow3", "skew1#1", "up:black.0#1", "up:blue.0#1",
         "up:red.0#1"),
    )


@pytest.mark.parametrize("mult,k", [(2, 0), (3, 0), (2, 1)])
def test_component_count_equals_divisibility(torus, mult, k):
    z = {c: mult * v for c, v in line_family_cocycle(torus, k).items()}
    sec = build_section(torus, z)
    assert len(sec.components) == mult


def test_monodromy_requires_a_connected_section(torus):
    z = {c: 2 * v for c, v in line_family_cocycle(torus, 0).items()}
    sec = build_section(torus, z)
    ret = first_return(sec)
    with pytest.raises(DisconnectedGraphError):
        monodromy(sec, ret)


# ---------------------------------------------------------------------------
# a deep class far from the family line


@pytest.fixture(scope="module")
def deep_section(torus):
    cls = dict_sum(B_CLASS, dict_scale(14, R_CLASS))
    z = integral_cocycle(torus, cls)
    sec = build_section(torus, z)
    return z, sec, first_return(sec)


def test_deep_class_cocycle_and_audit(deep_section):
    z, sec, ret = deep_section
    # the lexicographically least nonnegative integral representative is
    # supported on just three cells
    assert z == {"up:a@3.2": 14, "up:a@2.3": 27, "skew4": 13}
    audit = section_audit(sec, ret)
    assert (audit.vertices, audit.edges, audit.rank) == (1216, 1243, 28)
    assert audit.components == 1
    assert audit.skew_crossings == 13
    assert audit.valence_profile == ((2, 1162), (3, 54))
    assert audit.illegal_turns_at_trivalent == 13


def test_deep_class_axis_bound(torus, deep_section):
    z, _sec, _ret = deep_section
    crossings = evaluate(torus, z, skew_loop(torus))
    assert sum(z.get(s.name, 0) for s in torus.skews) == crossings == 13
    assert max(0, crossings - 2) == 11


def test_deep_class_return_is_an_irreducible_train_track(deep_section):
    _z, _sec, ret = deep_section
    ok, witness = is_train_track(ret)
    assert ok and witness is None
    assert is_irreducible(transition_matrix(ret))


def test_deep_class_stretch(deep_section):
    _z, _sec, ret = deep_section
    metric = eigen_metric(ret)
    assert abs(metric.stretch - 1.0505183582) <= 1e-9
    assert metric.residual <= 1e-10
    # the whole eigenmetric, bit for bit; the dense oracle is too slow at
    # 1243 edges, so these values pin the power iteration here
    assert repr(metric.stretch) == "1.0505183581501454"
    assert repr(metric.residual) == "9.889554453135219e-13"
    assert metric.iterations == 816
    lengths = repr([metric.lengths[e] for e in metric.edges])
    assert hashlib.sha256(lengths.encode()).hexdigest() == \
        "d47a25894712b993cd1834aa958808db366bf5b29d42e74b8aee23c190893b37"


# ---------------------------------------------------------------------------
# stretch factors and homology spectral radii


def homology_matrix(fmap):
    gens = fmap.domain
    index = {g: i for i, g in enumerate(gens)}
    cols = len(gens)
    rows = [[0] * cols for _ in gens]
    for j, g in enumerate(gens):
        for name, sign in letters(fmap.image(g)):
            rows[index[name]][j] += sign
    return rows


def power_norm_estimate(rows, squarings=10):
    """Upper estimate of the spectral radius via repeated squaring."""
    n = len(rows)
    power = rows
    exponent = 1
    for _ in range(squarings):
        power = [[sum(power[i][t] * power[t][j] for t in range(n))
                  for j in range(n)] for i in range(n)]
        exponent *= 2
    norm = max(sum(abs(x) for x in row) for row in power)
    if norm == 0:
        return 0.0
    return math.exp(math.log(norm) / exponent)


def test_fiber_return_stretch(torus):
    metric = eigen_metric(line_section(torus, 0).table)
    assert metric.residual <= 1e-10
    assert abs(metric.stretch - 1.9659482366) <= 1e-8


def test_stretch_decreases_along_the_family(torus):
    stretches = []
    for k in range(6):
        metric = eigen_metric(line_section(torus, k).table)
        assert metric.residual <= 1e-10
        stretches.append(metric.stretch)
    assert all(s > 1 for s in stretches)
    assert stretches == sorted(stretches, reverse=True)


def cycle_root(k):
    """The root in (1, 2) of Q(λ, λ^(k+1)), by bisection in floats, where
    Q(λ, μ) = λ²μ³ − λ²μ² − λμ² − λμ − λ − 1.  Q(1, 1) = −4 and
    Q(2, 2^(k+1)) > 0, and Q changes sign once in between."""
    lo, hi = 1.0, 2.0
    for _ in range(60):
        lam = (lo + hi) / 2
        mu = lam ** (k + 1)
        if lam * lam * mu ** 3 - lam * lam * mu * mu - lam * mu * mu \
                - lam * mu - lam - 1 > 0:
            hi = lam
        else:
            lo = lam
    return lo


def test_line_family_stretch_is_the_cycle_polynomial_root(torus):
    # the paper's non-finiteness family through its stretch factors: the
    # return map of class (k, k+1) stretches by the root λ_k of Q
    roots = [cycle_root(k) for k in range(9)]
    for k, root in enumerate(roots):
        stretch = eigen_metric(line_section(torus, k).table).stretch
        assert abs(stretch - root) <= 1e-9, k
    assert abs(roots[0] - 1.9659482366) <= 1e-10
    # the plastic number, the real root of x³ = x + 1
    assert abs(roots[2] - 1.3247179572) <= 1e-10
    assert abs(roots[2] ** 3 - roots[2] - 1) <= 1e-12


@pytest.mark.parametrize("k", range(4))
def test_homology_radius_below_stretch(torus, k):
    # first returns expand edges faster than they grow homology classes;
    # the homology spectral radius stays strictly under the stretch factor
    ls = line_section(torus, k)
    stretch = eigen_metric(ls.table).stretch
    estimate = power_norm_estimate(homology_matrix(ls.monodromy.automorphism))
    assert estimate <= stretch + 1e-8
    assert estimate <= stretch - 0.04


def rational_rank(rows):
    m = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("k", range(6))
def test_suspension_homology_rank_is_two(torus, k):
    # rank H1 of the suspension of the monodromy: 1 for the flow direction
    # plus the coinvariants of its homology action; always 2 here
    rows = homology_matrix(line_section(torus, k).monodromy.automorphism)
    n = len(rows)
    shifted = [[rows[i][j] - (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    assert 1 + (n - rational_rank(shifted)) == 2


def test_section_return_maps_keep_the_group_invariants(torus):
    # every primitive class in the cone sections the torus once, so its
    # return map's mapping torus is the whole group (b1 = 2) and the section
    # has the rank the class pairs to, -cb + 2cr, read off its monodromy
    checked = 0
    for cb in range(-6, 7):
        for cr in range(-6, 7):
            if math.gcd(cb, cr) != 1:
                continue
            try:
                z = open_cone_representative(torus, family_like((cb, cr)))
            except ConeInfeasibleError:
                continue
            sec = build_section(torus, z)
            ret = first_return(sec)
            assert mapping_torus_h1_rank(ret) == 2, (cb, cr)
            assert len(monodromy(sec, ret).generators) - 1 \
                == -cb + 2 * cr, (cb, cr)
            checked += 1
    assert checked == 35


# ---------------------------------------------------------------------------
# phase genericity


def test_generic_phase_normalization():
    assert _generic_phase(F(1, 2)) == F(1, 2)
    assert _generic_phase(F(1)) == F(1, 64)
    assert _generic_phase(F(0)) == F(1, 64)
    # a phase is a point of R/Z
    assert _generic_phase(F(3, 2)) == F(1, 2)
    assert _generic_phase(F(-1, 2)) == F(1, 2)
    assert _generic_phase(F(7, 3)) == F(1, 3)
    assert _generic_phase(F(-1)) == F(1, 64)


def test_integer_phase_still_builds(torus):
    sec = build_section(torus, line_family_cocycle(torus, 0), phase=F(1))
    assert len(sec.components) == 1
    audit = section_audit(sec)
    assert audit.rank == 3
    assert audit.skew_crossings == 1


@pytest.mark.parametrize("phase", [F(1, 3), F(9, 16), F(7, 10)])
def test_other_phases_keep_the_invariants(torus, phase):
    sec = build_section(torus, line_family_cocycle(torus, 1), phase=phase)
    ret = first_return(sec)
    audit = section_audit(sec, ret)
    assert audit.rank == 4
    assert audit.components == 1
    assert audit.skew_crossings == 1
    assert dict(audit.valence_profile)[3] == 6


def test_line_section_rejects_non_standard_phase_combinatorics(torus):
    # the canonical names are defined at phase 1/2 only; at 9/16 the
    # return map of the same class does not have the line-family shape
    section = build_section(torus, line_family_cocycle(torus, 1), F(9, 16))
    with pytest.raises(InvariantViolation, match="line-family shape"):
        _line_names(first_return(section))


# ---------------------------------------------------------------------------
# validation and budgets


def test_fractional_class_rejected(torus):
    z = dict(line_family_cocycle(torus, 0))
    z["skew1"] = F(1, 2)
    with pytest.raises(NonIntegralClassError):
        build_section(torus, z)


def test_negative_class_rejected(torus):
    z = {c: -v for c, v in line_family_cocycle(torus, 0).items()}
    with pytest.raises(InvariantViolation):
        build_section(torus, z)


def test_zero_class_rejected(torus):
    with pytest.raises(InvariantViolation):
        build_section(torus, {})


def test_non_cocycle_rejected(torus):
    with pytest.raises(InvariantViolation):
        build_section(torus, {"skew1": 1})


def test_tiny_budget_exhausts(torus, monkeypatch):
    monkeypatch.setattr(sect, "_FLOW_BUDGET", 3)
    with pytest.raises(IterationBudgetError):
        build_section(torus, line_family_cocycle(torus, 0))


def test_boundary_class_return_names_the_cone(torus):
    # (-1, 0) spans a boundary ray of the cone: its least integral cocycle
    # builds a section whose segment flow never closes up
    z = integral_cocycle(torus, family_like((-1, 0)))
    assert z == {"up:a@2.3": 1, "skew4": 1}
    sec = build_section(torus, z)
    with pytest.raises(ConeInfeasibleError) as caught:
        first_return(sec)
    assert isinstance(caught.value.__cause__, IterationBudgetError)
    with pytest.raises(ConeInfeasibleError) as direct:
        require_open_cone(torus, z)
    assert str(caught.value) == str(direct.value)
    assert caught.value.certificate == direct.value.certificate


def test_return_budget_error_names_the_cocycle(torus, monkeypatch):
    def exhausted(*_args):
        raise IterationBudgetError("segment flow recursion exceeded depth 64")

    sec = build_section(torus, line_family_cocycle(torus, 0))
    monkeypatch.setattr(sect._Level, "flow_segment", exhausted)
    with pytest.raises(IterationBudgetError) as caught:
        first_return(sec)
    assert repr(sec.cocycle) in str(caught.value)
    assert "depth 64" in str(caught.value)


# ---------------------------------------------------------------------------
# build-free rank formula and exports


@pytest.mark.parametrize("coords", [(0, 1), (1, 2), (5, 6), (-3, 4), (1, 14),
                                    (-7, 8), (3, 5)])
def test_crossing_rank_matches_the_built_section(torus, coords):
    z = integral_cocycle(torus, family_like(coords))
    section = build_section(torus, z)
    assert crossing_rank(torus, z) == section_audit(section).rank


@pytest.fixture(scope="module")
def rank2_corpus():
    """The maps of ``corpus(2000, seed=1)`` whose mapping torus has first
    Betti number 2, by map index."""
    return {index: f for index, f in enumerate(corpus(2000, seed=1))
            if mapping_torus_h1_rank(f) == 2}


@pytest.fixture(scope="module")
def corpus_tori(rank2_corpus):
    """The tori of the rank-2 maps that build, by map index."""
    tori = {}
    for index, f in rank2_corpus.items():
        try:
            tori[index] = build_torus(decompose(f))
        except InvariantViolation:
            continue
    return tori


# crossing_rank − 1 on each rank-2 torus that builds, as a linear form in
# the h1(T).duals coordinates (a, b)
RANK2_FORMS = {205: lambda a, b: 2 * b, 449: lambda a, b: 4 * a + 2 * b,
               1116: lambda a, b: 2 * a - b, 1946: lambda a, b: -2 * a + 2 * b}
# the classes whose built section misses part of its level set (ROADMAP
# item 16); each one fixed there leaves this list
REFUSED_RANK2_CLASSES = {
    449: {(1, 3), (1, 4), (1, 5), (2, 5)},
    1116: {(2, 1), (3, 2), (4, 3), (5, 2), (5, 3), (5, 4)},
    1946: {(-1, 4), (-1, 5)}}


def test_rank2_corpus_sections_at_every_small_class(rank2_corpus,
                                                    corpus_tori):
    # every primitive class with |a|, |b| <= 5 in the open cone of each
    # rank-2 torus: its section is connected and its return map again
    # has a rank-2 mapping torus, or it is a known refusal
    assert len(rank2_corpus) == 55
    assert sorted(corpus_tori) == [205, 449, 1116, 1946]
    counts, built, refused = {}, 0, {}
    for index, torus in corpus_tori.items():
        duals = h1(torus).duals
        for a in range(-5, 6):
            for b in range(-5, 6):
                if math.gcd(a, b) != 1:
                    continue
                try:
                    z = integral_cocycle(torus, dict_sum(
                        dict_scale(a, duals[0]), dict_scale(b, duals[1])))
                except ConeInfeasibleError:
                    continue
                if zero_cycle(torus, z) is not None:
                    continue
                counts[index] = counts.get(index, 0) + 1
                assert crossing_rank(torus, z) - 1 == \
                    RANK2_FORMS[index](a, b), (index, a, b)
                try:
                    section = build_section(torus, z)
                except InvariantViolation as err:
                    assert "Euler characteristic" in str(err)
                    refused.setdefault(index, set()).add((a, b))
                    continue
                assert section_audit(section).components == 1
                assert mapping_torus_h1_rank(first_return(section)) == 2
                built += 1
    assert counts == {205: 19, 449: 5, 1116: 19, 1946: 3}
    assert built == 34
    assert refused == REFUSED_RANK2_CLASSES


@pytest.mark.parametrize("index, coords, built, counted", [
    (449, (1, 3), -8, -10), (1116, (2, 1), -2, -3), (1946, (-1, 4), -9, -10)])
def test_a_section_smaller_than_its_crossings_is_refused(
        corpus_tori, index, coords, built, counted):
    # the level set's Euler characteristic is fixed by the crossing counts;
    # on these classes (h1(T).duals coordinates) the built graph misses
    # part of the level set
    torus = corpus_tori[index]
    duals = h1(torus).duals
    z = integral_cocycle(torus, dict_sum(dict_scale(coords[0], duals[0]),
                                         dict_scale(coords[1], duals[1])))
    assert 1 - crossing_rank(torus, z) == counted
    with pytest.raises(InvariantViolation) as err:
        build_section(torus, z)
    assert str(err.value) == (f"section has Euler characteristic {built}, "
                              f"but its crossing counts give {counted}")


# ---------------------------------------------------------------------------
# survey columns as linear forms, and the paper's discreteness claim as one:
# a lone axis needs ⟨u, σ⟩ = 1


def pairing_forms(torus, duals):
    """The pairings of each cocycle of a basis with the skew loop σ and
    with the Euler cycle ε: the coordinates of both linear forms."""
    sigma = tuple(evaluate(torus, d, skew_loop(torus)) for d in duals)
    twice = tuple(evaluate(torus, d, euler_chain(torus)) for d in duals)
    assert all(x.denominator == 1 and x % 2 == 0 for x in twice)
    return sigma, tuple(x / 2 for x in twice)


def open_cone_classes(torus, duals, height):
    """``(coords, least representative)`` of each primitive class with
    coordinates in −height…height that lies in the open cone."""
    out = []
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            try:
                z, = least_representatives(torus, duals, [(a, b)])
            except ConeInfeasibleError:
                continue
            if zero_cycle(torus, z) is None:
                out.append(((a, b), z))
    return out


@pytest.mark.parametrize("index, height, solved", [
    (None, 16, 425), (205, 12, 169), (449, 12, 57), (1116, 12, 169),
    (1946, 12, 46)])
def test_survey_columns_are_pairings_with_sigma_and_euler(
        torus, corpus_tori, index, height, solved):
    # the per-class route the survey no longer takes is the oracle: on
    # every class with a least representative, its skew sum is ⟨u, σ⟩ and
    # its crossing_rank is ⟨u, ε⟩ + 1; the bundled torus in the
    # presentation's dual basis, the rank-2 corpus tori in h1(T).duals
    if index is None:
        ws = cli.load_workspace(os.path.join(EXAMPLES, "g_phi.2gen"),
                                with_classes=True)
        torus, duals = ws.complex_, ws.duals
        assert pairing_forms(torus, duals) == \
            (ws.pairing, cli._euler_coordinates(ws)) == ((-1, 1), (-1, 2))
    else:
        torus = corpus_tori[index]
        duals = h1(torus).duals
    (s_a, s_b), (e_a, e_b) = pairing_forms(torus, duals)
    count = 0
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            try:
                z, = least_representatives(torus, duals, [(a, b)])
            except ConeInfeasibleError:
                continue
            count += 1
            assert sum(z.get(s.name, 0) for s in torus.skews) \
                == a * s_a + b * s_b, (a, b)
            assert crossing_rank(torus, z) == a * e_a + b * e_b + 1, (a, b)
    assert count == solved


def test_illegal_turns_at_trivalent_vertices_pair_with_sigma(torus,
                                                            corpus_tori):
    # the return map's illegal turns at trivalent vertices
    # number ⟨u, σ⟩, on every primitive class of the open cone with
    # |a|, |b| <= 10 on the bundled torus and on the rank-2 corpus
    # classes with |a|, |b| <= 5 whose sections build
    beds = [(torus, (B_CLASS, R_CLASS), 10, set())]
    beds += [(corpus_tori[index], h1(corpus_tori[index]).duals, 5,
              REFUSED_RANK2_CLASSES.get(index, set()))
             for index in sorted(corpus_tori)]
    counts = []
    for bed, duals, height, refused in beds:
        (s_a, s_b), _euler = pairing_forms(bed, duals)
        count = 0
        for (a, b), z in open_cone_classes(bed, duals, height):
            if (a, b) in refused:
                continue
            section = build_section(bed, z)
            audit = section_audit(section, first_return(section))
            assert audit.illegal_turns_at_trivalent == a * s_a + b * s_b
            count += 1
        counts.append(count)
    assert counts[0] == 95 and sum(counts[1:]) == 34


def test_lone_axis_only_on_the_sigma_one_line(torus):
    # every class with two or more illegal turns is "no", so a "yes" needs
    # ⟨u, σ⟩ = 1; at height <= 6 the "yes" classes are exactly the line
    # family (k, k+1), k = 0…5, which are the classes with ⟨u, σ⟩ = 1
    classes = open_cone_classes(torus, (B_CLASS, R_CLASS), 6)
    assert len(classes) == 35
    yes = []
    for coords, z in classes:
        verdict = lone_axis_check(first_return(build_section(torus, z)),
                                  assume_ageometric=True,
                                  assume_fully_irreducible=True)
        if verdict.verdict == "yes":
            yes.append(coords)
    (s_a, s_b), _euler = pairing_forms(torus, (B_CLASS, R_CLASS))
    assert yes == [(k, k + 1) for k in range(6)]
    assert yes == [(a, b) for (a, b), _z in classes if a * s_a + b * s_b == 1]


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type, message and certificate
    of the package error it raises."""
    try:
        return call(*args)
    except FreeByCyclicError as err:
        return type(err), str(err), getattr(err, "certificate", None)


def batch_outcomes(torus, basis, coefficients):
    """The outcome of ``least_representatives`` on each class alone; the
    batch of all the classes gives the same records, or raises what the
    first failing class raises."""
    out = [outcome(lambda c: least_representatives(torus, basis, [c])[0],
                   coords) for coords in coefficients]
    failed = [got for got in out if not isinstance(got, LeastCocycle)]
    whole = outcome(least_representatives, torus, basis, coefficients)
    assert whole == (failed[0] if failed else out)
    if failed:
        solved = [c for c, got in zip(coefficients, out)
                  if isinstance(got, LeastCocycle)]
        assert least_representatives(torus, basis, solved) \
            == [got for got in out if isinstance(got, LeastCocycle)]
    return out


# every class with |a|, |b| <= 12 in each torus's dual basis
AGREEMENT_CLASSES = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]


@pytest.mark.parametrize("index", [None, 205, 449, 1116, 1946])
def test_least_representative_routes_agree(torus, corpus_tori, index,
                                           monkeypatch):
    # the survey's batch reader, integral_cocycle on the class dict and
    # the Fraction oracle give the same least representative, or the same
    # error, message and certificate; the cone, rank and crossing reads
    # give the same on the kernel's record as on a plain copy of it.  The
    # routes share the negative-cycle search, so each digraph is searched
    # once
    search, searched = cohomology._least_negative_cycle, {}

    def search_once(n, arcs):
        key = (n, tuple(arcs))
        if key not in searched:
            searched[key] = search(n, arcs)
        return searched[key]

    monkeypatch.setattr(cohomology, "_least_negative_cycle", search_once)
    if index is None:  # the bundled torus, with the half-integral classes
        bases = [((B_CLASS, R_CLASS), AGREEMENT_CLASSES),
                 ((dict_scale(F(1, 2), B_CLASS), dict_scale(F(1, 2), R_CLASS)),
                  [(a, b) for a in range(-4, 5) for b in range(-4, 5)])]
    else:
        torus = corpus_tori[index]
        bases = [(h1(torus).duals, AGREEMENT_CLASSES)]
    kinds = set()
    for basis, classes in bases:
        for coords, batch in zip(classes,
                                 batch_outcomes(torus, basis, classes)):
            z = dict_sum(dict_scale(coords[0], basis[0]),
                         dict_scale(coords[1], basis[1]))
            assert outcome(integral_cocycle, torus, z) == batch, coords
            assert outcome(cocycle_oracle.integral_cocycle, torus, z) \
                == batch, coords
            if not isinstance(batch, LeastCocycle):
                kinds.add(batch[0])
                continue
            kinds.add(LeastCocycle)
            assert batch.vector == tuple(batch.get(e, 0)
                                         for e in torus.one_cell_names)
            for read in (zero_cycle, crossing_rank):
                assert outcome(read, torus, batch) \
                    == outcome(read, torus, dict(batch)), (coords, read)
    assert ConeInfeasibleError in kinds and LeastCocycle in kinds
    if index is None:
        assert NonIntegralClassError in kinds


def assert_unknown_cell_named(call, torus):
    z = integral_cocycle(torus, family_like((1, 2)))
    with pytest.raises(InvariantViolation) as err:
        call(torus, {**z, "skew9": 3, "nope": 3})
    assert type(err.value) is InvariantViolation
    assert str(err.value) == "unknown 1-cell 'nope'"


def test_build_section_names_an_unknown_cell(torus):
    assert_unknown_cell_named(build_section, torus)


def test_crossing_rank_names_an_unknown_cell(torus):
    assert_unknown_cell_named(crossing_rank, torus)


@pytest.mark.parametrize("phase", [F(1, 2), F(1, 3), F(9, 16)])
def test_phases_an_integer_apart_give_one_section(torus, phase):
    built = 0
    for cb in range(-3, 4):
        for cr in range(-3, 4):
            try:
                z = integral_cocycle(torus, family_like((cb, cr)))
                sec = build_section(torus, z, phase)
                ret = first_return(sec)
            except FreeByCyclicError:
                continue
            for n in (-2, -1, 1, 2):
                shifted = build_section(torus, z, phase + n)
                shifted_ret = first_return(shifted)
                assert (shifted.phase, shifted.graph, shifted.stations,
                        shifted.vertex_host) \
                    == (sec.phase, sec.graph, sec.stations, sec.vertex_host)
                assert (shifted_ret.vertex_map, shifted_ret.edge_images) \
                    == (ret.vertex_map, ret.edge_images), (cb, cr, n)
            built += 1
    assert built == 18


def test_crossing_rank_of_a_divisible_class_counts_one_component(torus):
    z = integral_cocycle(torus, family_like((0, 3)))
    section = build_section(torus, z)
    audit = section_audit(section)
    assert audit.components == 3
    assert crossing_rank(torus, z) == audit.rank - 2


def test_host_kinds_and_dot_export(torus):
    ls = line_section(torus, 0)
    kinds = {v: host_kind(ls.section, v) for v in ls.section.graph.vertices}
    assert kinds == {"flow1": "flow", "skew1#1": "skew",
                     "up:black.0#1": "vertical", "up:blue.0#1": "vertical",
                     "up:red.0#1": "vertical"}
    dot = section_dot(ls.section)
    assert dot.startswith("digraph section {")
    assert '"skew1#1" [color=red];' in dot
    assert '"flow1" [color=gray];' in dot
    assert dot.count("->") == 7


# ---------------------------------------------------------------------------
# golden digest of the generic route


def _fraction_rows(sec):
    """The sorted vertex hosts and edge records of a section, positions
    as fractions of the unit interval: (name, trapezoid, level, x_lo,
    x_hi, init, term) per edge.  A package section's station and host
    integers go back over its lattice; an oracle section keeps its own
    fraction records."""
    if isinstance(sec, oracle.OracleSection):
        return sorted(sec.vertex_host.items()), sorted(
            (n, r.trap, r.level, r.x_lo, r.x_hi, r.init, r.term)
            for n, r in sec.edge_records.items())
    lattice = sec.lattice
    hosts = sorted(
        (v, host[:3] + (F(host[3], lattice),) if host[0] == "interior"
         else host) for v, host in sec.vertex_host.items())
    ends = {name: (init, term) for name, init, term in sec.graph.edges}
    records = sorted(
        (name, trap, level, F(x_lo, lattice), F(x_hi, lattice)) + ends[name]
        for (trap, level, x_lo), (name, x_hi) in sec.stations.items())
    return hosts, records


def _route_record(torus, coords, phase) -> str:
    try:
        z = integral_cocycle(torus, family_like(coords))
        sec = build_section(torus, z, phase)
        ret = first_return(sec)
    except FreeByCyclicError as exc:
        return f"{coords} {phase}: {type(exc).__name__}\n"
    hosts, records = _fraction_rows(sec)
    return repr((coords, phase, sec.phase, sec.graph.vertices,
                 sec.graph.edges, hosts,
                 sorted(sec.vertex_return.items()), records,
                 sec.components, sec.basepoint,
                 sorted(ret.vertex_map.items()),
                 sorted((n, letters(w)) for n, w in ret.edge_images.items()))
                ) + "\n"


def test_generic_route_golden_digest(torus):
    """integral_cocycle → build_section → first_return over 105 classes
    and phases, out-of-cone errors included, hashed as a whole."""
    digest = hashlib.sha256()
    errors = 0
    for phase in (F(1, 2), F(1, 3), F(9, 16)):
        for cb in range(-3, 4):
            for cr in range(1, 6):
                record = _route_record(torus, (cb, cr), phase)
                errors += record.endswith("Error\n")
                digest.update(record.encode())
    assert errors == 9
    assert digest.hexdigest() == GOLDEN_ROUTE_DIGEST


# ---------------------------------------------------------------------------
# the integer route against the fraction oracle


def _record(sec, ret):
    """Everything the golden digest hashes of one section and return map."""
    hosts, records = _fraction_rows(sec)
    return (sec.phase, sec.graph.vertices, sec.graph.edges, hosts,
            sorted(sec.vertex_return.items()), records,
            sec.components, sec.basepoint, sorted(ret.vertex_map.items()),
            sorted(ret.edge_images.items()))


def _route(route, torus, z, phase):
    """build_section → first_return on one route, or the type of the
    error it raises."""
    try:
        sec = route.build_section(torus, z, phase)
        return _record(sec, route.first_return(sec))
    except FreeByCyclicError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("phase", [F(1, 2), F(1, 3), F(9, 16),
                                   F(1, 2) + F(1, 64)])
def test_integer_route_matches_the_fraction_oracle(torus, phase):
    compared = 0
    for cb in range(-3, 4):
        for cr in range(1, 6):
            try:
                z = integral_cocycle(torus, family_like((cb, cr)))
            except FreeByCyclicError:
                continue  # no class to section on either route
            assert _route(sect, torus, z, phase) \
                == _route(oracle, torus, z, phase), (cb, cr)
            compared += 1
    assert compared == 32


@pytest.mark.parametrize("k", range(9))
def test_line_sections_match_the_fraction_oracle(torus, k):
    ls = line_section(torus, k)
    assert _record(ls.section, ls.return_map) == _route(
        oracle, torus, line_family_cocycle(torus, k), F(1, 2))


# ---------------------------------------------------------------------------
# integer stations and the per-level run tables of the segment flow


@pytest.fixture(scope="module")
def route_sections(torus, deep_section):
    """The sections of the golden-route classes and phases that build, and
    the B+14R section."""
    sections = []
    for phase in (F(1, 2), F(1, 3), F(9, 16)):
        for cb in range(-3, 4):
            for cr in range(1, 6):
                try:
                    z = integral_cocycle(torus, family_like((cb, cr)))
                    sections.append(build_section(torus, z, phase))
                except FreeByCyclicError:
                    continue
    return sections + [deep_section[1]]


def test_stations_name_every_edge_once_and_chain_along_each_arc(
        route_sections):
    assert len(route_sections) == 97
    for sec in route_sections:
        assert sorted(name for name, _ in sec.stations.values()) \
            == list(sec.graph.edge_names)
        ends = {name: (init, term) for name, init, term in sec.graph.edges}
        by_level: dict[tuple, dict[int, tuple[str, int]]] = {}
        for (trap, level, x_lo), station in sec.stations.items():
            by_level.setdefault((trap, level), {})[x_lo] = station
        for (trap, level), starting_at in by_level.items():
            chained = 0
            for x_lo, (name, _) in starting_at.items():
                if sec.vertex_host[ends[name][0]][0] != "cell":
                    continue  # not the start of an arc
                # from the arc's start on a 1-cell crossing, each edge
                # ends where the next starts until one ends on a crossing
                x = x_lo
                while True:
                    name, x_hi = starting_at[x]
                    chained += 1
                    assert x < x_hi
                    host = sec.vertex_host[ends[name][1]]
                    if host[0] == "cell":
                        break
                    assert host == ("interior", trap, level, x_hi)
                    x = x_hi
            assert chained == len(starting_at)


def test_run_tables_clip_to_the_chart_runs(route_sections):
    # every edge interval, cut where its flow target level meets the top
    for sec in route_sections:
        grid = sect._Level(sec.complex, sec.charts, sec.cocycle, sec.phase,
                           sec.lattice)
        for (trap, level, x_lo), (_, x_hi) in sec.stations.items():
            y = grid.offset + (level + 1) * sec.lattice
            assert grid.runs(trap, y, x_lo, x_hi) \
                == sec.charts[trap].runs(y, x_lo, x_hi)


def test_first_return_cuts_each_level_of_a_trapezoid_once(deep_section,
                                                          monkeypatch):
    _z, sec, ret = deep_section
    cut = []
    runs = sect.HeightChart.runs

    def counting(chart, y, lo, hi):
        cut.append((chart.trap, y))
        return runs(chart, y, lo, hi)

    monkeypatch.setattr(sect.HeightChart, "runs", counting)
    assert first_return(sec).edge_images == ret.edge_images
    # 1,243 edges flow through 85 (trapezoid, level) pairs
    assert len(cut) == len(set(cut)) == 85
    assert len(sec.stations) == 1243
