"""End-to-end acceptance checks, one test per criterion.

Running ``pytest -v tests/test_acceptance.py`` prints one pass/fail line
per criterion.  Every assertion here re-derives its expectation from an
independent oracle or from exact arithmetic; nothing is loosened to pass.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import freebycyclic.cohomology as co
from freebycyclic.bns import pairing_coordinates
from freebycyclic.corpus import corpus
from freebycyclic.errors import ConeInfeasibleError
from freebycyclic.folding import decompose
from freebycyclic.graphs import compose, load_map_file, map_to_automorphism
from freebycyclic.section import (build_section, first_return, line_section,
                                  monodromy, section_audit)
from freebycyclic.torus import build_torus, skew_loop
from freebycyclic.traintrack import (eigen_metric, format_turn,
                                     illegal_turns, is_expanding,
                                     is_irreducible, is_train_track,
                                     lone_axis_check, nielsen_search,
                                     rotationless_index, transition_matrix,
                                     whitehead_data)
from freebycyclic.words import FreeGroupMap, encode, format_word, letters, \
    outer_equal, reduce_word

import os

from cocycle_oracle import coboundary, cone_membership
from conftest import EXAMPLES
from dense_oracle import matmul
from helpers import in_open_cone, open_cone_representative, random_path
MAP_PATH = os.path.join(EXAMPLES, "phi_f3.map")

F = Fraction

# The two 1-cycles of the bundled mapping torus and the dual basis built
# from them; every class coordinate pair (cb, cr) below means cb·b* + cr·r*.
CYCLE_B = {"up:black.0": 1, "up:c@1.1": -1, "up:a@2.3": 1,
           "skew1": -1, "skew4": -2}
CYCLE_R = {"up:red.0": 1, "skew2": 1, "up:a@3.2": 1}


@pytest.fixture(scope="module")
def bundled():
    mapfile = load_map_file(MAP_PATH)
    torus = build_torus(decompose(mapfile.gmap))
    b_star, r_star = co.dual_basis(torus, [CYCLE_B, CYCLE_R])
    return mapfile, torus, b_star, r_star


def combo(b_star, r_star, cb, cr):
    return co.dict_sum(co.dict_scale(cb, b_star), co.dict_scale(cr, r_star))


def canonical_return_table(k):
    table = {"e1": "e3_1", f"e2_{k+1}": "e4_1'",
             f"e3_{k+1}": "t1 e3_1 e2_1", f"e4_{k+1}": "s2 e1",
             "s1": "e2_1 t1", "s2": "t1", f"t{k+1}": "s1 e1 e4_1"}
    for i in range(1, k + 1):
        table[f"e2_{i}"] = f"e2_{i+1}"
        table[f"e3_{i}"] = f"e3_{i+1}"
        table[f"e4_{i}"] = f"e4_{i+1}"
        table[f"t{i}"] = f"t{i+1}"
    return table


def test_criterion_1_running_example_end_to_end():
    started = time.perf_counter()
    mapfile = load_map_file(MAP_PATH)
    f = mapfile.gmap
    ok, witness = is_train_track(f)
    assert ok and witness is None
    matrix = transition_matrix(f)
    assert is_irreducible(matrix) and is_expanding(matrix)
    assert [format_turn(t) for t in illegal_turns(f)] == ["{B, C}"]
    seq = decompose(f)
    seq.verify()
    assert seq.fold_count == 4
    assert [record.label[0] for record in seq.folds] == ["a", "e", "a", "d"]
    report = nielsen_search(f, 10, 6)
    assert report.exhaustive and report.none_up_to_bounds
    wd = whitehead_data(f)
    assert len(wd.components) == 3
    for _v, nodes, edges in wd.components:
        assert len(nodes) == 3 and len(edges) == 3
    assert rotationless_index(wd) == F(-3, 2)
    verdict = lone_axis_check(f, assume_ageometric=True,
                              assume_fully_irreducible=True)
    assert verdict.verdict == "yes"
    assert any("ageometric" in a for a in verdict.assumptions)
    assert any("fully irreducible" in a for a in verdict.assumptions)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS (lone axis yes, index -3/2, {elapsed:.2f}s)")


def test_criterion_2_torus_and_cohomology():
    started = time.perf_counter()
    mapfile = load_map_file(MAP_PATH)
    torus = build_torus(decompose(mapfile.gmap))
    assert len(torus.skews) == 4
    assert torus.euler_characteristic() == 0
    assert co.h1(torus).rank == 2
    assert co.boundary(torus, CYCLE_B) == {}
    assert co.boundary(torus, CYCLE_R) == {}
    b_star, r_star = co.dual_basis(torus, [CYCLE_B, CYCLE_R])
    loop = skew_loop(torus)
    assert pairing_coordinates(torus, [b_star, r_star], loop) == (-1, 1)
    for t in (F(-1), F(-1, 2), F(0), F(1, 2), F(3, 4)):
        cls = co.dict_sum(co.dict_scale(t, b_star), r_star)
        open_cone_representative(torus, cls)
        witness = cone_membership(torus, cls)
        assert all(value > 0 for value in witness.values.values())
    for t in (F(1), F(2)):
        cls = co.dict_sum(co.dict_scale(t, b_star), r_star)
        with pytest.raises(ConeInfeasibleError) as caught:
            open_cone_representative(torus, cls)
        assert caught.value.certificate
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 2: PASS (4 skews, chi 0, rank 2, {elapsed:.2f}s)")


def test_criterion_3_excluded_rays_and_sector(bundled):
    from freebycyclic.bns import (component_containing, excluded_directions,
                                  load_presentation_file, trace_polygon)
    _mapfile, torus, b_star, r_star = bundled
    pres = load_presentation_file(os.path.join(EXAMPLES, "g_phi.2gen"))
    slopes = excluded_directions(trace_polygon(pres))
    # +-b*, +-(2b*+r*), +-(b*+r*) in (cb, cr) coordinates
    assert set(slopes.excluded) == {(1, 0), (-1, 0), (2, 1), (-2, -1),
                                    (1, 1), (-1, -1)}
    comp = component_containing(slopes, (0, 1))
    disagreements = []
    for i in range(33):
        t = F(-2) + F(i, 8)
        sector_says = comp.contains((t, 1))
        assert sector_says == (t < 1)
        cls = co.dict_sum(co.dict_scale(t, b_star), r_star)
        lp_says = in_open_cone(torus, cls)
        if lp_says != sector_says:
            disagreements.append(t)
    assert disagreements == []
    print("criterion 3: PASS (6 rays, sector t<1, 33 slopes, 0 disagreements)")


def test_criterion_4_line_family_sections(bundled):
    started = time.perf_counter()
    mapfile, torus, _b_star, _r_star = bundled
    for k in range(6):
        ls = line_section(torus, k)
        audit = section_audit(ls.section)
        assert audit.components == 1
        assert audit.rank == k + 3
        if k >= 1:
            got = {e: format_word(w) for e, w in ls.table.edge_images.items()}
            assert got == canonical_return_table(k)
            assert ls.tree_edges == tuple(sorted(
                n for n in ls.table.domain.edge_names if n.startswith("e")))
        wd = whitehead_data(ls.table)
        assert len(wd.components) == 2 * k + 3
        for _v, nodes, edges in wd.components:
            assert len(nodes) == 3 and len(edges) == 3
        assert rotationless_index(wd) == F(3, 2) - (k + 3)
        report = nielsen_search(ls.table, 10, 6)
        assert report.exhaustive and report.none_up_to_bounds
        verdict = lone_axis_check(ls.table, assume_ageometric=True,
                                  assume_fully_irreducible=True)
        assert verdict.verdict == "yes"
        if k == 0:
            psi = ls.monodromy.automorphism
            phi = map_to_automorphism(mapfile.marked, mapfile.gmap)
            relabel = FreeGroupMap.from_strings(
                ("s1", "s2", "t1"), {"s1": "c", "s2": "b", "t1": "a"},
                codomain=phi.domain)
            unlabel = FreeGroupMap.from_strings(
                phi.domain, {"a": "t1", "b": "s2", "c": "s1"},
                codomain=("s1", "s2", "t1"))
            assert outer_equal(relabel.compose(psi).compose(unlabel),
                               phi) is not None
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 4: PASS (k=0..5 canonical, lone axis yes, "
          f"{elapsed:.2f}s)")


def test_criterion_5_cone_inequalities_and_random_classes(bundled):
    _mapfile, torus, b_star, r_star = bundled
    # classes scale·[base] ± [perturbation] stay positive on every cell and
    # cross the skews more than k + 2 times, k = 1; the skew crossings are
    # the pairing with σ, so the second bound is the half-plane
    # ⟨u, σ⟩ > k + 2, and 5 is the least scale that meets both
    base = {"skew1": F(1, 4), "skew2": F(1, 4), "skew3": F(1, 4),
            "skew4": F(1, 4), "up:red.0": F(1, 4), "up:c@1.1": F(1, 2),
            "up:a@2.3": F(1, 4), "up:black.0": 1, "up:blue.0": F(1, 2),
            "up:a@3.2": F(1, 2)}
    perturbation = {"up:a@2.3": -1, "skew4": -1}
    loop, margin, scale = skew_loop(torus), 1 + 2, 5
    for cell in torus.one_cell_names:
        assert scale * base.get(cell, 0) - abs(perturbation.get(cell, 0)) > 0
    for sign in (1, -1):
        corner = co.dict_sum(co.dict_scale(scale, base),
                             co.dict_scale(sign, perturbation))
        assert co.evaluate(torus, corner, loop) \
            == sum(corner.get(s.name, 0) for s in torus.skews) > margin
    assert (scale - 1) * co.evaluate(torus, base, loop) \
        - abs(co.evaluate(torus, perturbation, loop)) <= margin
    # 20 random primitive integral classes in the cone, off the fiber ray
    rng = random.Random(20260823)
    chosen = []
    while len(chosen) < 20:
        cr = rng.randrange(4, 13)
        cb = rng.randrange(-4, cr - 2)
        if cb == 0 or math.gcd(abs(cb), cr) != 1 or (cb, cr) in chosen:
            continue
        chosen.append((cb, cr))
    for cb, cr in chosen:
        cls = combo(b_star, r_star, cb, cr)
        z = co.integral_cocycle(torus, cls)
        co.require_open_cone(torus, z)
        assert max(0, co.evaluate(torus, z, loop) - 2) >= 1
        section = build_section(torus, z)
        audit = section_audit(section, first_return(section))
        assert audit.components == 1
        assert audit.illegal_turns_at_trivalent >= 3
    print(f"criterion 5: PASS (scale {scale} strict at every cell and "
          f"in the half-plane <u, sigma> > {margin}, "
          f"20 classes with >=3 illegal turns and bound >=1)")


def test_criterion_6_property_suites(bundled):
    _mapfile, torus, _b_star, r_star = bundled
    # fold-roundtrip on 200 generated expanding irreducible maps
    maps = corpus(200, seed=20260823)
    assert len(maps) == 200
    for f in maps:
        decompose(f).verify()
    # transition-matrix multiplicativity on pairs drawn from the corpus
    by_rank = {}
    for f in maps:
        by_rank.setdefault(len(f.domain.edge_names), []).append(f)
    pairs = [(bucket[i], bucket[i + 1])
             for bucket in by_rank.values()
             for i in range(0, len(bucket) - 1, 2)]
    assert len(pairs) >= 80
    for f, g in pairs:
        product = transition_matrix(compose(f, g))
        assert product.rows == \
            matmul(transition_matrix(g), transition_matrix(f)).rows
    # tighten idempotence and path-algebra laws on 10^4 random paths
    mapfile = load_map_file(MAP_PATH)
    graph = mapfile.gmap.domain
    checked = 0
    for i in range(5000):
        whole = random_path(graph, 2 + 2 * (i % 14), seed=7000 + i)
        u, v = whole[:len(whole) // 2], whole[len(whole) // 2:]
        checked += 2
        assert reduce_word(reduce_word(whole)) == reduce_word(whole)
        inverse = encode([(n, -s) for n, s in reversed(letters(u))])
        assert reduce_word(u + inverse) == ""
        image = mapfile.gmap.apply_tight(whole)
        assert reduce_word(image) == image
        assert image == reduce_word(mapfile.gmap.apply_tight(u)
                                    + mapfile.gmap.apply_tight(v))
    assert checked == 10_000
    # cocycle condition survives random coboundary shifts
    rng = random.Random(4)
    z = co.line_family_cocycle(torus, 1)
    cells = [c.name for c in torus.zero_cells]
    for _ in range(50):
        potential = {c: rng.randrange(-3, 4) for c in cells}
        shifted = co.dict_sum(z, coboundary(torus, potential))
        assert co.is_cocycle(torus, shifted)
        assert co.evaluate(torus, shifted, CYCLE_B) == 1
        assert co.evaluate(torus, shifted, CYCLE_R) == 2
    # the non-primitive class 2r* falls apart into exactly 2 components
    doubled = co.integral_cocycle(torus, co.dict_scale(2, r_star))
    assert len(build_section(torus, doubled).components) == 2
    print("criterion 6: PASS (200 roundtrips, matrix law, 10^4 paths, "
          "shifts, 2r* -> 2 components)")


def test_criterion_7_numerical_checks():
    mapfile = load_map_file(MAP_PATH)
    for f in corpus(200, seed=20260823):
        assert eigen_metric(f).residual <= 1e-10
    metric = eigen_metric(mapfile.gmap)
    assert metric.residual <= 1e-10
    phi = map_to_automorphism(mapfile.marked, mapfile.gmap)
    word = (("a", 1),)
    lengths = []
    for _ in range(22):
        lengths.append(len(word))
        word = phi.apply(word)
    ratio = lengths[21] / lengths[20]
    assert abs(ratio - metric.stretch) < 1e-3
    print(f"criterion 7: PASS (residuals <= 1e-10, growth ratio "
          f"{ratio:.7f} vs stretch {metric.stretch:.7f})")
