"""Mapping torus construction, frozen against hand-computed complexes."""

import copy
import dataclasses
from fractions import Fraction

import pytest

from freebycyclic.corpus import corpus
from freebycyclic.errors import (InvariantViolation, NotACycleError,
                                 NotIrreducibleError, RiserError)
from freebycyclic.folding import WorkingStage, decompose
from freebycyclic.graphs import Graph, GraphMap
from freebycyclic.torus import (Skeleton, build_torus, euler_chain, skew_loop,
                               validate)
from freebycyclic.graphs import load_map_file

import os

from conftest import EXAMPLES
from helpers import identity_graph_map


def rose_map(images: dict[str, str]) -> GraphMap:
    rose = Graph.rose(sorted(images), vertex="v")
    return GraphMap.from_strings(rose, {"v": "v"}, images)


@pytest.fixture(scope="module")
def bundled_torus():
    mapfile = load_map_file(os.path.join(EXAMPLES, "phi_f3.map"))
    return build_torus(decompose(mapfile.gmap))


F = Fraction


def test_zero_cells(bundled_torus):
    names = [c.name for c in bundled_torus.zero_cells]
    assert names == ["black.0", "blue.0", "red.0", "c@1.1", "a@3.2", "a@2.3"]


def test_verticals(bundled_torus):
    table = {v.name: (v.start, v.end, v.span) for v in bundled_torus.verticals}
    assert table == {
        "up:red.0": ("red.0", "c@1.1", 1),
        "up:c@1.1": ("c@1.1", "a@2.3", 2),
        "up:a@2.3": ("a@2.3", "black.0", 1),
        "up:black.0": ("black.0", "blue.0", 4),
        "up:blue.0": ("blue.0", "a@3.2", 2),
        "up:a@3.2": ("a@3.2", "red.0", 2),
    }


def test_one_vertical_per_zero_cell(bundled_torus):
    starts = [v.start for v in bundled_torus.verticals]
    assert sorted(starts) == sorted(c.name for c in bundled_torus.zero_cells)


def test_skews(bundled_torus):
    table = {s.name: (s.bottom, s.top, s.kind, s.rise, s.edge)
             for s in bundled_torus.skews}
    assert table == {
        "skew1": ("blue.0", "c@1.1", "strict", 1, "b"),
        "skew2": ("c@1.1", "a@3.2", "strict", 1, "a_4"),
        "skew3": ("a@3.2", "a@2.3", "strict", 1, "a_3"),
        "skew4": ("a@2.3", "blue.0", "strict", 1, "a_2"),
    }


def test_trapezoid_sides(bundled_torus):
    table = {t.name: (t.left, t.right) for t in bundled_torus.trapezoids}
    assert table == {
        "trap1": (("up:blue.0",), ("up:c@1.1",)),
        "trap2": (("up:c@1.1", "up:a@2.3", "up:black.0"),
                  ("up:a@3.2", "up:red.0", "up:c@1.1")),
        "trap3": (("up:a@3.2", "up:red.0"),
                  ("up:a@2.3", "up:black.0", "up:blue.0")),
        "trap4": (("up:a@2.3", "up:black.0"),
                  ("up:blue.0", "up:a@3.2", "up:red.0")),
    }


def test_trapezoid_tops(bundled_torus):
    tops = {t.name: [(p.skew, p.sign, p.x_lo, p.x_hi) for p in t.top]
            for t in bundled_torus.trapezoids}
    assert tops["trap1"] == [("skew3", 1, F(0), F(1))]
    assert tops["trap2"] == [("skew4", -1, F(0), F(1))]
    assert tops["trap4"] == [("skew1", 1, F(0), F(1))]
    assert tops["trap3"] == [
        ("skew2", 1, F(0), F(1, 4)),
        ("skew3", 1, F(1, 4), F(1, 2)),
        ("skew4", 1, F(1, 2), F(3, 4)),
        ("skew1", 1, F(3, 4), F(7, 8)),
        ("skew2", 1, F(7, 8), F(1)),
    ]


def test_trapezoid_corners(bundled_torus):
    corners = {t.name: t.corners for t in bundled_torus.trapezoids}
    assert corners["trap1"] == ()
    assert corners["trap2"] == ()
    assert corners["trap4"] == ()
    assert corners["trap3"] == (
        (F(1, 4), "a@3.2"), (F(1, 2), "a@2.3"),
        (F(3, 4), "blue.0"), (F(7, 8), "c@1.1"))


def test_euler_characteristic(bundled_torus):
    assert len(bundled_torus.zero_cells) == 6
    assert len(bundled_torus.verticals) == 6
    assert len(bundled_torus.skews) == 4
    assert len(bundled_torus.trapezoids) == 4
    assert bundled_torus.euler_characteristic() == 0


def test_base_cover(bundled_torus):
    cover = bundled_torus.base_cover
    assert set(cover) == {"a", "b", "c", "d", "e"}
    assert cover["a"] == ("trap3", F(0), F(1), -1)
    assert cover["b"] == ("trap4", F(0), F(1), -1)
    assert cover["c"] == ("trap3", F(3, 4), F(1), -1)
    assert cover["d"] == ("trap4", F(0), F(1), -1)
    assert cover["e"] == ("trap2", F(0), F(1), -1)


def skeleton_d1(torus) -> dict[str, dict[str, int]]:
    """The cached skeleton's ends, named: 1-cell to {0-cell: coefficient}."""
    zero = [c.name for c in torus.zero_cells]
    skeleton = torus.skeleton
    return {e: {zero[end]: 1, zero[start]: -1} if end != start else {}
            for e, (end, start) in zip(skeleton.one_cell_names, skeleton.ends)}


def skeleton_d2(torus) -> dict[str, dict[str, int]]:
    """The cached skeleton's rows, named: 2-cell to {1-cell: coefficient}."""
    names = torus.skeleton.one_cell_names
    return {t.name: {names[e]: coef for e, coef in row}
            for t, row in zip(torus.trapezoids, torus.skeleton.rows)}


def test_boundary_one(bundled_torus):
    d1 = skeleton_d1(bundled_torus)
    assert d1["up:red.0"] == {"c@1.1": 1, "red.0": -1}
    assert d1["skew4"] == {"blue.0": 1, "a@2.3": -1}


def test_boundary_two_row(bundled_torus):
    d2 = skeleton_d2(bundled_torus)
    assert d2["trap1"] == {"skew1": 1, "up:c@1.1": 1,
                           "skew3": -1, "up:blue.0": -1}
    # bottom and a top copy of skew3 cancel in trap3
    assert d2["trap3"] == {"skew1": -1, "skew2": -2, "skew4": -1,
                           "up:a@2.3": 1, "up:black.0": 1, "up:blue.0": 1,
                           "up:a@3.2": -1, "up:red.0": -1}


def test_boundary_of_boundary_vanishes(bundled_torus):
    d1 = skeleton_d1(bundled_torus)
    d2 = skeleton_d2(bundled_torus)
    for row in d2.values():
        acc: dict[str, int] = {}
        for one_cell, coef in row.items():
            for zero_cell, inc in d1[one_cell].items():
                acc[zero_cell] = acc.get(zero_cell, 0) + coef * inc
        assert not any(acc.values())


def test_skew_loop(bundled_torus):
    assert skew_loop(bundled_torus) == {
        "skew1": 1, "skew2": 1, "skew3": 1, "skew4": 1}


def test_euler_chain_closes_on_every_corpus_torus(bundled_torus):
    # 2ε = Σ (wₑ − 2)·e; every 1-cell of the bundled torus borders three
    # trapezoid sides
    assert euler_chain(bundled_torus) == \
        dict.fromkeys(bundled_torus.one_cell_names, 1)
    built = 0
    for f in corpus(200, seed=20260823):
        try:
            torus = build_torus(decompose(f))
        except RiserError:
            continue
        weights = zip(torus.one_cell_names, torus.skeleton.boundary_weights)
        assert euler_chain(torus) == {e: w - 2 for e, w in weights if w != 2}
        built += 1
    assert built == 45


def test_a_tampered_euler_chain_is_not_a_cycle(bundled_torus):
    skeleton = bundled_torus.skeleton
    tampered = copy.copy(bundled_torus)
    vars(tampered)["skeleton"] = dataclasses.replace(
        skeleton, boundary_weights=(skeleton.boundary_weights[0] + 1,)
        + skeleton.boundary_weights[1:])
    with pytest.raises(NotACycleError) as err:
        euler_chain(tampered)
    assert str(err.value) == \
        "twice the Euler chain has boundary {'black.0': -1, 'blue.0': 1}"


def test_doubling_torus():
    torus = build_torus(decompose(rose_map({"a": "aa"})))
    assert [c.name for c in torus.zero_cells] == ["v.0"]
    assert [(v.name, v.start, v.end, v.span) for v in torus.verticals] == \
        [("up:v.0", "v.0", "v.0", 1)]
    (skew,) = torus.skews
    assert (skew.name, skew.kind, skew.rise) == ("skew1", "offset", 0)
    assert skew.bottom == skew.top == "v.0"
    (trap,) = torus.trapezoids
    assert trap.left == trap.right == ("up:v.0",)
    assert [(p.skew, p.sign, p.x_lo, p.x_hi) for p in trap.top] == \
        [("skew1", 1, F(0), F(1, 2)), ("skew1", 1, F(1, 2), F(1))]
    assert trap.corners == ((F(1, 2), "v.0"),)
    assert torus.euler_characteristic() == 0
    assert skew_loop(torus) == {"skew1": 1}


def test_golden_torus_smoke():
    torus = build_torus(decompose(rose_map({"a": "ab", "b": "a"})))
    assert [c.name for c in torus.zero_cells] == ["v.0"]
    assert len(torus.verticals) == 1
    assert len(torus.skews) == 1
    assert len(torus.trapezoids) == 1
    assert torus.euler_characteristic() == 0
    (trap,) = torus.trapezoids
    assert trap.right == ("up:v.0", "up:v.0")
    validate(torus)


def test_build_torus_reads_the_records_without_a_working_stage(monkeypatch):
    # the ends of each kept direction come with its fold record, so the
    # torus neither replays the folds nor builds any stage
    built = []
    init = WorkingStage.__init__

    def counting(work, first):
        built.append(work)
        init(work, first)

    seqs = [decompose(rose_map(images))
            for images in ({"a": "ab", "b": "a"}, {"a": "aa"})]
    seqs.append(decompose(
        load_map_file(os.path.join(EXAMPLES, "phi_f3.map")).gmap))
    monkeypatch.setattr(WorkingStage, "__init__", counting)
    for seq in seqs:
        build_torus(seq)
    assert built == []


def test_no_folds_rejected():
    rose = Graph.rose(["a", "b"], vertex="v")
    identity = identity_graph_map(rose)
    with pytest.raises(InvariantViolation):
        build_torus(decompose(identity))


def test_reducible_map_refused_before_the_sweep():
    # b spans an invariant subgraph and a is crossed only by its own image,
    # so the sweep would never reach a at the base level
    seq = decompose(rose_map({"a": "ab", "b": "b"}))
    assert seq.fold_count == 1
    with pytest.raises(NotIrreducibleError) as err:
        build_torus(seq)
    assert str(err.value) == (
        "the map is reducible: edges ['a'] are crossed by no image of an "
        "edge of the invariant subgraph ['b']")


def test_a_riser_is_refused_by_name():
    # the smallest riser torus: the top of trap2 climbs one vertical at 1/2
    seq = decompose(rose_map({"a": "aab", "b": "ab"}))
    assert seq.fold_count == 3
    with pytest.raises(RiserError) as err:
        build_torus(seq)
    riser = err.value
    assert (riser.trapezoid, riser.x, riser.lower, riser.upper,
            riser.chain) == ("trap2", F(1, 2), ("a@1.1", 2), ("a@1.2", 3),
                             ("up:a@1.1",))
    assert str(riser) == (
        "top of trap2 rises at x=1/2: corner ('a@1.1', 2) reaches corner "
        "('a@1.2', 3) up the verticals ['up:a@1.1'], and risers are not "
        "modelled")


def test_every_corpus_map_builds_or_is_refused_for_a_riser():
    # any other error escapes and fails the test
    outcomes = {"built": 0, "riser": 0}
    for f in corpus(200, seed=20260823):
        try:
            build_torus(decompose(f))
            outcomes["built"] += 1
        except RiserError:
            outcomes["riser"] += 1
    assert outcomes == {"built": 45, "riser": 155}


def test_validate_catches_missing_top_piece(bundled_torus):
    mapfile = load_map_file(os.path.join(EXAMPLES, "phi_f3.map"))
    torus = build_torus(decompose(mapfile.gmap))
    trap = torus.trap_by_name["trap3"]
    trap.top = trap.top[:-1]
    with pytest.raises(InvariantViolation) as err:
        validate(torus)
    assert "skew2" in str(err.value)
    assert "degree" in str(err.value)
    # only the 0-cells that did not cancel, in 0-cell order
    assert "boundary of trap3 is not a cycle: {'c@1.1': -1, 'a@3.2': 1}" \
        in str(err.value)


def test_a_torus_builds_one_skeleton(monkeypatch):
    # validate checks the skeleton the complex then keeps for every read
    built = []
    of = Skeleton.of.__func__

    def counting(cls, complex_):
        built.append(complex_)
        return of(cls, complex_)

    monkeypatch.setattr(Skeleton, "of", classmethod(counting))
    torus = build_torus(decompose(rose_map({"a": "ab", "b": "a"})))
    assert torus.one_cell_names == ("up:v.0", "skew1")
    assert built == [torus]


def test_validate_catches_dangling_vertical():
    torus = build_torus(decompose(rose_map({"a": "aa"})))
    trap = torus.trap_by_name["trap1"]
    trap.left = ()
    with pytest.raises(InvariantViolation) as err:
        validate(torus)
    assert "dangling" in str(err.value)


def test_skew_chain_failure_detected():
    torus = build_torus(decompose(rose_map({"a": "ab", "b": "a"})))
    torus.skews[0].top = "phantom"
    with pytest.raises(NotACycleError) as err:
        skew_loop(torus)
    assert str(err.value) == \
        "the skew chain has boundary {'v.0': -1, 'phantom': 1}"

