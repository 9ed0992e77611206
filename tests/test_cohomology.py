"""Homology, duality, cone, and perturbation tests on the bundled complexes."""

import copy
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebycyclic.cohomology as co
from freebycyclic.bns import pairing_coordinates
from freebycyclic.errors import (
    ConeInfeasibleError,
    InvariantViolation,
    NonIntegralClassError,
    NotACycleError,
)
from freebycyclic.corpus import corpus
from freebycyclic.folding import decompose
from freebycyclic.graphs import Graph, GraphMap, load_map_file
from freebycyclic.torus import Skeleton, build_torus, skew_loop, validate

import cocycle_oracle
import fm_oracle
from conftest import EXAMPLES
from dense_oracle import mat_mul
from helpers import (TurnDataError, delta_lengths, identity_graph_map,
                     open_cone_representative)

CYCLE_B = {"up:black.0": 1, "up:c@1.1": -1, "up:a@2.3": 1,
           "skew1": -1, "skew4": -2}
CYCLE_R = {"up:red.0": 1, "skew2": 1, "up:a@3.2": 1}


@pytest.fixture(scope="module")
def bundled():
    mapfile = load_map_file(EXAMPLES / "phi_f3.map")
    torus = build_torus(decompose(mapfile.gmap))
    b_star, r_star = co.dual_basis(torus, [CYCLE_B, CYCLE_R])
    return mapfile, torus, b_star, r_star


@pytest.fixture(scope="module")
def doubling_torus():
    rose = Graph.rose(["a"])
    gmap = GraphMap.from_strings(rose, {"v": "v"}, {"a": "aa"})
    return gmap, build_torus(decompose(gmap))


# ---------------------------------------------------------------------------
# chain complex and first homology


def test_boundary_matrices_compose_to_zero(bundled):
    _, torus, _, _ = bundled
    skeleton = torus.skeleton
    zero = [c.name for c in torus.zero_cells]
    one = skeleton.one_cell_names
    assert (len(zero), len(one), len(skeleton.rows)) == (6, 10, 4)
    d1 = [[0] * len(one) for _ in zero]
    for e, (end, start) in enumerate(skeleton.ends):
        d1[end][e] += 1
        d1[start][e] -= 1
    d2 = [[0] * len(skeleton.rows) for _ in one]
    for t, row in enumerate(skeleton.rows):
        for e, coef in row:
            d2[e][t] = coef
    assert all(x == 0 for row in mat_mul(d1, d2) for x in row)


def test_h1_rank_two_without_torsion(bundled):
    _, torus, _, _ = bundled
    h = co.h1(torus)
    assert h.rank == 2
    assert h.torsion == ()
    for i, dual in enumerate(h.duals):
        for j, cyc in enumerate(h.cycles):
            assert co.evaluate(torus, dual, cyc) == (1 if i == j else 0)
    loop = skew_loop(torus)
    assert co.evaluate(torus, h.duals[-1], loop) == 1


def test_h1_of_doubling_torus(doubling_torus):
    _, torus = doubling_torus
    h = co.h1(torus)
    assert h.rank == 1
    assert h.torsion == ()
    assert h.cycles == ({"up:v.0": 1},)
    assert h.duals == ({"up:v.0": 1},)


def test_abelianization_rank_oracle(bundled, doubling_torus):
    mapfile, torus, _, _ = bundled
    assert co.mapping_torus_h1_rank(mapfile.gmap) == 2 == co.h1(torus).rank
    gmap, dtorus = doubling_torus
    assert co.mapping_torus_h1_rank(gmap) == 1 == co.h1(dtorus).rank
    golden = GraphMap.from_strings(Graph.rose(["a", "b"]), {"v": "v"},
                                   {"a": "ab", "b": "a"})
    assert co.mapping_torus_h1_rank(golden) == 1 \
        == co.h1(build_torus(decompose(golden))).rank
    identity = identity_graph_map(Graph.rose(["a", "b"]))
    assert co.mapping_torus_h1_rank(identity) == 3


def test_dual_basis_is_dual(bundled):
    _, torus, b_star, r_star = bundled
    assert b_star == {"up:blue.0": -1, "skew1": -1}
    assert r_star == {"up:black.0": 1, "up:blue.0": 1, "up:red.0": 1,
                      "skew1": 1}
    assert co.evaluate(torus, b_star, CYCLE_B) == 1
    assert co.evaluate(torus, b_star, CYCLE_R) == 0
    assert co.evaluate(torus, r_star, CYCLE_B) == 0
    assert co.evaluate(torus, r_star, CYCLE_R) == 1


def test_dual_basis_rejects_non_cycle(bundled):
    _, torus, _, _ = bundled
    with pytest.raises(NotACycleError):
        co.dual_basis(torus, [{"up:red.0": 1}])


def test_skew_loop_class_is_r_minus_b(bundled):
    _, torus, b_star, r_star = bundled
    loop = skew_loop(torus)
    assert pairing_coordinates(torus, [b_star, r_star], loop) == (-1, 1)


def test_half_the_skew_loop_pairs_fractionally(bundled):
    # the pairings of half the skew loop are its coordinates over Q, and
    # the integral reader refuses them; (B, B) does not span, so it has
    # no dual basis to read coordinates against
    _, torus, b_star, r_star = bundled
    half = co.dict_scale(Fraction(1, 2), skew_loop(torus))
    assert tuple(co.evaluate(torus, z, half) for z in (b_star, r_star)) \
        == (Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(InvariantViolation, match="pairs fractionally"):
        pairing_coordinates(torus, [b_star, r_star], half)
    with pytest.raises(InvariantViolation, match="dual cocycle basis"):
        co.dual_basis(torus, [CYCLE_B, CYCLE_B])


@pytest.mark.parametrize("cycles", [[CYCLE_B], [CYCLE_R], []])
def test_dual_basis_refuses_cycles_that_do_not_span(bundled, cycles):
    _, torus, _, _ = bundled
    with pytest.raises(InvariantViolation) as err:
        co.dual_basis(torus, cycles)
    assert str(err.value) == (f"cycles span rank {len(cycles)} of "
                              f"H1(T; Q), which has rank 2")


def test_line_classes_cross_the_skew_loop_once(bundled):
    _, torus, b_star, r_star = bundled
    loop = skew_loop(torus)
    for k in range(6):
        z = co.dict_sum(co.dict_scale(k, b_star),
                        co.dict_scale(k + 1, r_star))
        assert co.evaluate(torus, z, loop) == 1


def test_evaluate_rejects_bad_input(bundled):
    _, torus, _, r_star = bundled
    with pytest.raises(NotACycleError):
        co.evaluate(torus, r_star, {"up:red.0": 1})
    with pytest.raises(InvariantViolation):
        co.evaluate(torus, {"skew1": 1}, skew_loop(torus))


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["black.0", "blue.0", "red.0", "c@1.1", "a@3.2", "a@2.3"]),
    st.integers(-4, 4)))
def test_pairing_ignores_coboundary_shifts(bundled, potential):
    _, torus, _, r_star = bundled
    shifted = co.dict_sum(r_star, cocycle_oracle.coboundary(torus, potential))
    assert co.is_cocycle(torus, shifted)
    loop = skew_loop(torus)
    assert co.evaluate(torus, shifted, loop) == co.evaluate(torus, r_star, loop)
    assert co.evaluate(torus, shifted, CYCLE_B) == 0
    assert co.evaluate(torus, shifted, CYCLE_R) == 1


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(["trap1", "trap2", "trap3", "trap4"]),
                       st.integers(-3, 3)))
def test_pairing_ignores_boundary_shifts(bundled, two_chain):
    _, torus, b_star, _ = bundled
    rows = cocycle_oracle.boundary_two(torus)
    shifted = dict(skew_loop(torus))
    for trap, coef in two_chain.items():
        for cell, inc in rows[trap].items():
            shifted[cell] = shifted.get(cell, 0) + coef * inc
    assert co.evaluate(torus, b_star, shifted) == -1


# ---------------------------------------------------------------------------
# positive cone: the package's verdict, the oracle's positive witness


@pytest.mark.parametrize("t", [-1, Fraction(-1, 2), 0, Fraction(1, 2),
                               Fraction(3, 4)])
def test_cone_membership_inside(bundled, t):
    _, torus, b_star, r_star = bundled
    z = co.dict_sum(r_star, co.dict_scale(Fraction(t), b_star))
    open_cone_representative(torus, z)
    witness = cocycle_oracle.cone_membership(torus, z)
    assert set(witness.values) == set(torus.one_cell_names)
    assert all(v > 0 for v in witness.values.values())
    rebuilt = co.dict_sum(z, cocycle_oracle.coboundary(torus,
                                                          witness.potential))
    assert rebuilt == witness.values


@pytest.mark.parametrize("t,pairing", [(1, 0), (2, -1)])
def test_cone_membership_outside(bundled, t, pairing):
    _, torus, b_star, r_star = bundled
    z = co.dict_sum(r_star, co.dict_scale(t, b_star))
    with pytest.raises(ConeInfeasibleError) as err:
        open_cone_representative(torus, z)
    certificate = err.value.certificate
    assert certificate == {"skew3": 1, "skew4": 1, "up:blue.0": 1}
    assert not co.boundary(torus, certificate)
    assert sum(Fraction(z.get(e, 0)) * lam
               for e, lam in certificate.items()) == pairing


def test_cone_membership_rejects_zero_class(bundled):
    _, torus, _, _ = bundled
    with pytest.raises(ConeInfeasibleError):
        open_cone_representative(torus, {})


# ---------------------------------------------------------------------------
# integral representatives


def test_integral_cocycle_least_values(bundled):
    _, torus, b_star, r_star = bundled
    rep = co.integral_cocycle(torus, r_star)
    assert rep == {"up:a@3.2": 1, "up:a@2.3": 2, "skew4": 1}
    assert co.evaluate(torus, rep, CYCLE_B) == 0
    assert co.evaluate(torus, rep, CYCLE_R) == 1
    rep2 = co.integral_cocycle(torus, co.dict_sum(b_star, r_star))
    assert rep2 == {"up:a@3.2": 1, "up:a@2.3": 1}
    assert co.evaluate(torus, rep2, CYCLE_B) == 1
    assert co.evaluate(torus, rep2, CYCLE_R) == 1


def assert_bound_certificate(torus, z, certificate, minimum):
    """A nonnegative cycle on which no cochain >= ``minimum`` is cohomologous
    to ``z``: its pairing with ``z`` is below ``minimum`` times its mass."""
    assert certificate
    assert not co.boundary(torus, certificate)
    assert all(lam > 0 for lam in certificate.values())
    assert sum((Fraction(z.get(e, 0)) - minimum) * lam
               for e, lam in certificate.items()) < 0


def test_integral_cocycle_outside_cone_fails(bundled):
    _, torus, b_star, _ = bundled
    with pytest.raises(ConeInfeasibleError) as err:
        co.integral_cocycle(torus, b_star)
    assert_bound_certificate(torus, b_star, err.value.certificate, 0)


def test_no_strictly_positive_integral_representative(bundled):
    # The four skew values of any representative sum to the pairing with
    # the skew loop; for the classes on the unit-pairing line that sum is
    # one, so no representative is at least one on every skew cell.
    _, torus, _, r_star = bundled
    with pytest.raises(ConeInfeasibleError) as err:
        co.integral_cocycle(torus, r_star, minimum=1)
    assert_bound_certificate(torus, r_star, err.value.certificate, 1)


# ---------------------------------------------------------------------------
# cochains naming cells the complex does not have


def with_unknown_cells(chain, *cells):
    return {**chain, **{cell: 1 for cell in cells}}


def assert_unknown_cell(call, cell):
    with pytest.raises(InvariantViolation) as err:
        call()
    assert type(err.value) is InvariantViolation
    assert str(err.value) == f"unknown 1-cell {cell!r}"


def test_cone_membership_names_an_unknown_cell(bundled):
    _, torus, b_star, r_star = bundled
    z = co.integral_cocycle(torus, co.dict_sum(b_star,
                                               co.dict_scale(2, r_star)))
    assert_unknown_cell(lambda: co.require_open_cone(
        torus, with_unknown_cells(z, "skew9", "nope")), "nope")


def test_integral_cocycle_names_an_unknown_cell(bundled):
    _, torus, b_star, r_star = bundled
    z = co.dict_sum(b_star, co.dict_scale(2, r_star))
    assert_unknown_cell(lambda: co.integral_cocycle(
        torus, with_unknown_cells(z, "skew9")), "skew9")


def test_boundary_names_an_unknown_cell(bundled):
    _, torus, _, _ = bundled
    assert_unknown_cell(lambda: co.boundary(
        torus, with_unknown_cells(CYCLE_B, "skew9", "nope")), "nope")


def test_evaluate_names_an_unknown_cell_of_the_chain(bundled):
    _, torus, _, r_star = bundled
    assert_unknown_cell(lambda: co.evaluate(
        torus, r_star, with_unknown_cells(CYCLE_R, "skew9", "nope")), "nope")


def test_dual_basis_names_an_unknown_cell(bundled):
    _, torus, _, _ = bundled
    assert_unknown_cell(lambda: co.dual_basis(
        torus, [CYCLE_B, with_unknown_cells(CYCLE_R, "skew9", "nope")]),
        "nope")


def test_pairing_coordinates_names_an_unknown_cell(bundled):
    _, torus, b_star, r_star = bundled
    chain = with_unknown_cells(skew_loop(torus), "skew9", "nope")
    assert_unknown_cell(lambda: pairing_coordinates(
        torus, [b_star, r_star], chain), "nope")


def test_fractional_class_fails_loudly(bundled):
    _, torus, _, r_star = bundled
    with pytest.raises(NonIntegralClassError):
        co.integral_cocycle(torus, co.dict_scale(Fraction(1, 2), r_star))


# ---------------------------------------------------------------------------
# shortest paths against the Fourier–Motzkin oracle


def outcome(solve, *args):
    """``(error type or None, result or certificate)`` of one solve."""
    try:
        return None, solve(*args)
    except InvariantViolation as err:
        return type(err), getattr(err, "certificate", None)


def assert_agrees_with_oracle(torus, z, minimum=0):
    """Compare the cone verdict and the least representative with the
    oracle; return their error types."""
    cone_kind, found = outcome(open_cone_representative, torus, z)
    fm_kind, witness = outcome(fm_oracle.fm_cone_membership, torus, z)
    assert cone_kind is fm_kind
    if cone_kind is None:
        assert set(witness.values) == set(torus.one_cell_names)
        assert all(v > 0 for v in witness.values.values())
    if cone_kind is ConeInfeasibleError:
        assert not co.boundary(torus, found)
        assert all(lam > 0 for lam in found.values())
        assert sum(Fraction(z.get(e, 0)) * lam
                   for e, lam in found.items()) <= 0
    kind, found = outcome(co.integral_cocycle, torus, z, minimum)
    expected = outcome(fm_oracle.fm_integral_cocycle, torus, z, minimum)
    assert kind is expected[0]
    if kind is None:
        assert found == expected[1]
    if kind is ConeInfeasibleError:
        assert_bound_certificate(torus, z, found, minimum)
    return cone_kind, kind


def test_bundled_grid_agrees_with_oracle(bundled):
    _, torus, _, _ = bundled
    first, second = co.h1(torus).duals
    for cb in range(-4, 5):
        for cr in range(-4, 5):
            z = co.dict_sum(co.dict_scale(cb, first),
                            co.dict_scale(cr, second))
            for minimum in (0, 1):
                assert_agrees_with_oracle(torus, z, minimum)


@pytest.fixture(scope="module")
def corpus_tori():
    """The tori of ``corpus(200, seed=20260823)`` that build, by map index."""
    tori = {}
    for index, gmap in enumerate(corpus(200, seed=20260823)):
        try:
            tori[index] = build_torus(decompose(gmap))
        except InvariantViolation:
            continue
    return tori


def small_tori(corpus_tori):
    # Elimination takes minutes on the larger tori, so only tori with at
    # most eight 0-cells are compared.
    return [torus for torus in corpus_tori.values()
            if len(torus.zero_cells) <= 8]


def test_small_corpus_tori_agree_with_oracle(corpus_tori):
    small = small_tori(corpus_tori)
    for torus in small:
        duals = co.h1(torus).duals
        total = co.dict_sum(*duals)
        for z in (*duals, co.dict_scale(-1, total),
                  co.dict_scale(Fraction(1, 2), total)):
            assert_agrees_with_oracle(torus, z)
    assert len(small) == 18


def test_fractional_bundled_classes_agree_with_oracle(bundled):
    # The constraint weights of (p/q)·b* + (r/q)·r* in lowest terms are
    # scaled by a multiple of q, on the cone path and on the path that
    # finds a fractional least value.
    _, torus, b_star, r_star = bundled
    kinds = set()
    for q in range(2, 6):
        for p in range(-2, 3):
            for r in range(-2, 3):
                if math.gcd(p, r, q) == 1:
                    z = co.dict_sum(co.dict_scale(Fraction(p, q), b_star),
                                    co.dict_scale(Fraction(r, q), r_star))
                    kinds.add(assert_agrees_with_oracle(torus, z))
    assert (None, NonIntegralClassError) in kinds
    assert (ConeInfeasibleError, ConeInfeasibleError) in kinds


def test_fractional_small_corpus_classes_agree_with_oracle(corpus_tori):
    # These tori have rank-one H¹, so the classes are (±1/q)·dual.
    kinds = set()
    for torus in small_tori(corpus_tori):
        (dual,) = co.h1(torus).duals
        for q in range(2, 6):
            for p in (-1, 1):
                z = co.dict_scale(Fraction(p, q), dual)
                kinds.add(assert_agrees_with_oracle(torus, z))
    assert kinds == {(None, NonIntegralClassError),
                     (ConeInfeasibleError, ConeInfeasibleError)}


def test_h1_and_dual_bases_match_their_golden_digest(bundled, doubling_torus,
                                                    corpus_tori):
    # One sha256 over h1 and the dual basis of its cycles on the bundled
    # torus, the doubling torus and the corpus tori by index; values are
    # written with str, so an int and an equal Fraction read the same.
    def chains(zs):
        return [sorted((c, str(v)) for c, v in z.items()) for z in zs]

    digest = hashlib.sha256()
    for torus in (bundled[1], doubling_torus[1], *corpus_tori.values()):
        h = co.h1(torus)
        digest.update(json.dumps([h.rank, list(h.torsion), chains(h.cycles),
                                  chains(h.duals)]).encode())
        digest.update(json.dumps(chains(co.dual_basis(torus, h.cycles)))
                      .encode())
    assert digest.hexdigest() == ("2c3e7aedc5458bfd089231c5cec42b29"
                                  "d7e9b81e9651f122e86eb37bfd839a64")


def test_each_linear_system_is_factored_once(bundled, corpus_tori,
                                             monkeypatch):
    # h1 factors d1, the relation matrix and the dual system; dual_basis
    # factors only the dual system.
    calls = []
    factor = co.smith_normal_form
    monkeypatch.setattr(co, "smith_normal_form",
                        lambda matrix: calls.append(1) or factor(matrix))
    co.h1(corpus_tori[74])
    assert len(calls) == 3
    calls.clear()
    co.dual_basis(bundled[1], [CYCLE_B, CYCLE_R])
    assert len(calls) == 1


def typed(chain):
    """Each value of a chain with its type, so 2 and Fraction(2) differ."""
    return {cell: (type(value), value) for cell, value in chain.items()}


def least_solve(solver, torus, z, minimum):
    """What ``solver.integral_cocycle`` returns or raises on one class:
    values with their types, certificates and error texts."""
    try:
        return ("least", typed(solver.integral_cocycle(torus, z, minimum)))
    except (ConeInfeasibleError, NonIntegralClassError) as err:
        return (type(err), getattr(err, "certificate", None), str(err))


def cone_solve(torus, z):
    """The package's cone verdict on one class, checked against the
    oracle's: the oracle's positive witness inside, a cycle of 1-cells
    pairing to at most 0 with the class outside."""
    try:
        witness = cocycle_oracle.cone_membership(torus, z)
    except ConeInfeasibleError:
        witness = None
    try:
        open_cone_representative(torus, z)
    except ConeInfeasibleError as err:
        assert witness is None
        cycle = err.certificate
        assert set(cycle.values()) == {1}
        assert not co.boundary(torus, cycle)
        assert sum(Fraction(z.get(e, 0)) for e in cycle) <= 0
        return ("outside",)
    assert set(witness.values) == set(torus.one_cell_names)
    assert all(v > 0 for v in witness.values.values())
    return ("witness", {type(v) for v in witness.values.values()})


def test_integer_route_matches_the_fraction_oracle(bundled, corpus_tori):
    # integral classes and the same classes over 2 and 3, on the bundled
    # torus and every corpus torus that builds
    _, torus, b_star, r_star = bundled
    cases = [(torus, co.dict_sum(co.dict_scale(cb, b_star),
                                 co.dict_scale(cr, r_star)), minimum)
             for cb in range(-3, 4) for cr in range(-3, 4)
             for minimum in (-1, 0, 1, 2)]
    for other in corpus_tori.values():
        fiber = co.fiber_cocycle(other)
        duals = co.h1(other).duals
        cases += [(other, z, 0) for z in (fiber, co.dict_scale(-1, fiber),
                                          co.dict_sum(fiber, *duals))]
    kinds = set()
    witness_types = set()
    for torus, z, minimum in cases:
        for q in (1, 2, 3):
            zq = co.dict_scale(Fraction(1, q), z) if q > 1 else z
            cone = cone_solve(torus, zq)
            least = least_solve(co, torus, zq, minimum)
            assert least == least_solve(cocycle_oracle, torus, zq, minimum)
            kinds.add((cone[0], least[0]))
            if cone[0] == "witness":
                witness_types |= cone[1]
    assert kinds >= {("witness", "least"), ("witness", NonIntegralClassError),
                     ("outside", ConeInfeasibleError)}
    assert witness_types == {int, Fraction}


def test_boundary_weights_count_the_trapezoid_sides(bundled, corpus_tori):
    # each appearance of a 1-cell as a trapezoid's bottom, side or top piece
    for torus in (bundled[1], *corpus_tori.values()):
        count = dict.fromkeys(torus.one_cell_names, 0)
        for trap in torus.trapezoids:
            for e in (trap.bottom, *trap.left, *trap.right,
                      *(piece.skew for piece in trap.top)):
                count[e] += 1
        assert torus.skeleton.boundary_weights == tuple(count.values())


def test_least_representative_is_read_only_and_tied_to_its_skeleton(
        bundled):
    mapfile, _, _, r_star = bundled
    torus = build_torus(decompose(mapfile.gmap))
    z = co.integral_cocycle(torus, r_star)
    assert z == cocycle_oracle.integral_cocycle(torus, r_star)
    assert z.vector == tuple(z.get(e, 0) for e in torus.one_cell_names)
    for mutate in (lambda: z.__setitem__("skew1", 2),
                   lambda: z.__delitem__("skew1"), lambda: z.pop("skew1"),
                   lambda: z.update(skew1=2), lambda: z.setdefault("skew2"),
                   z.clear, z.popitem, lambda: z.__ior__({"skew1": 2})):
        with pytest.raises(TypeError, match="read-only"):
            mutate()
    for plain in (dict(z), copy.copy(z), copy.deepcopy(z)):
        assert type(plain) is dict and plain == z
    assert co.cochain_vector(torus, z) is z.vector
    validate(torus)  # the torus now keeps a skeleton read afresh
    assert co.cochain_vector(torus, z) is not z.vector
    assert co.cochain_vector(torus, z) == list(z.vector)


def test_cached_skeleton_matches_the_cells(bundled, corpus_tori):
    for torus in (bundled[1], *corpus_tori.values()):
        assert co.is_cocycle(torus, co.fiber_cocycle(torus))
        cached = torus.skeleton
        assert cached is torus.skeleton
        assert cached == Skeleton.of(torus)
        zero = [c.name for c in torus.zero_cells]
        names = cached.one_cell_names
        assert names == tuple(v.name for v in torus.verticals) \
            + tuple(s.name for s in torus.skews)
        d1 = cocycle_oracle.boundary_one(torus)
        assert list(d1) == list(names)
        for e, (end, start) in zip(names, cached.ends):
            ends = {zero[end]: 1, zero[start]: -1} if end != start else {}
            assert d1[e] == ends
        # the same rows, term for term and in the same order
        d2 = cocycle_oracle.boundary_two(torus)
        assert list(d2) == [t.name for t in torus.trapezoids]
        assert cached.rows == tuple(
            tuple((cached.one_index[e], coef) for e, coef in row.items())
            for row in d2.values())


def test_least_fiber_cocycle_of_the_largest_corpus_torus(corpus_tori):
    torus = corpus_tori[74]
    assert (len(torus.zero_cells), len(torus.one_cell_names)) == (73, 145)
    z = co.fiber_cocycle(torus)
    least = co.integral_cocycle(torus, z)
    co.require_open_cone(torus, least)
    assert least == {"skew72": 1, "up:a@1.70": 1, "up:a@10.71": 1}


def test_constraint_digraph_has_integer_weights(bundled):
    _, torus, b_star, r_star = bundled
    z = co.dict_sum(co.dict_scale(Fraction(1, 3), b_star), r_star)
    scale, (scaled,) = co._scaled_cocycles(torus, [z])
    assert scale == 3
    arcs = co._constraint_digraph(torus.skeleton, scaled, scale * 2)
    assert len(arcs) == len(torus.one_cell_names)
    assert all(type(w) is int for _tail, _head, w in arcs)
    assert [w for _tail, _head, w in arcs] == [
        3 * Fraction(z.get(e, 0)) - 6 for e in torus.one_cell_names]
    assert arcs == cocycle_oracle.constraint_digraph(torus, z,
                                                     Fraction(2), 3)
    with pytest.raises(InvariantViolation, match="fractional"):
        cocycle_oracle.constraint_digraph(torus, z, Fraction(0), 2)


def test_integral_cocycle_solves_at_most_once_per_zero_cell(bundled,
                                                           monkeypatch):
    # one solve per merge of two roots, five on the bundled torus, and no
    # feasibility solve first; a class with no representative at the bound
    # stops at its first solve, which meets the negative cycle, and then
    # runs the one all-source search.  Solving once per 1-cell would take
    # 11
    _, torus, _, _ = bundled
    first, second = co.h1(torus).duals
    solve = co._distances
    calls = []
    monkeypatch.setattr(co, "_distances",
                        lambda *args: calls.append(1) or solve(*args))
    counts = set()
    for cb in range(-4, 5):
        for cr in range(-4, 5):
            z = co.dict_sum(co.dict_scale(cb, first), co.dict_scale(cr, second))
            for minimum in (0, 1):
                calls.clear()
                try:
                    co.integral_cocycle(torus, z, minimum)
                except (ConeInfeasibleError, NonIntegralClassError):
                    pass
                counts.add(len(calls))
    assert len(torus.zero_cells) == 6
    assert counts == {2, 5}


def test_integral_cocycle_refuses_a_value_below_the_bound(bundled,
                                                          monkeypatch):
    # a shortest-path solve that reads every distance 100 too long
    _, torus, _, r_star = bundled
    solve = co._distances
    monkeypatch.setattr(co, "_distances", lambda *args: [
        d + 100 for d in solve(*args)])
    with pytest.raises(InvariantViolation) as err:
        co.integral_cocycle(torus, r_star)
    assert str(err.value) == ("least value -100 on 'up:black.0' is below "
                              "the bound 0")


@pytest.mark.parametrize("reported", [(0,), (2, 4, 7)])
def test_integral_cocycle_verifies_its_certificate(bundled, monkeypatch,
                                                   reported):
    # a negative-cycle search that reports one arc, which has a boundary,
    # or a cycle on which b* sums to 0, which certifies nothing
    _, torus, b_star, _ = bundled
    names = torus.one_cell_names
    assert {names[j] for j in (2, 4, 7)} == {"up:red.0", "skew2",
                                              "up:a@3.2"}
    monkeypatch.setattr(co, "_least_negative_cycle",
                        lambda _n, _arcs: reported)
    with pytest.raises(InvariantViolation) as err:
        co.integral_cocycle(torus, b_star)
    assert type(err.value) is InvariantViolation
    assert str(err.value) == "infeasibility certificate failed verification"


# ---------------------------------------------------------------------------
# cone verdicts read off the least representative


def zero_cycle_verdict(torus, z):
    """None when the class of ``z`` has no representative >= 0, else
    whether it is in the cone; ``zero_cycle`` on the least representative
    and the oracle's ``cone_membership`` must agree, and a reported cycle
    must be a cycle of 1-cells on which the representative vanishes."""
    try:
        least = co.integral_cocycle(torus, z)
    except ConeInfeasibleError:
        return None
    cycle = co.zero_cycle(torus, least)
    try:
        cocycle_oracle.cone_membership(torus, z)
        inside = True
    except ConeInfeasibleError:
        inside = False
    assert (cycle is None) is inside
    if cycle is not None:
        assert set(cycle.values()) == {1}
        assert not co.boundary(torus, cycle)
        assert co.evaluate(torus, least, cycle) == 0
    return inside


def test_zero_cycle_decides_the_cone_on_the_bundled_grid(bundled):
    _, torus, b_star, r_star = bundled
    verdicts = [zero_cycle_verdict(torus, co.dict_sum(
        co.dict_scale(cb, b_star), co.dict_scale(cr, r_star)))
        for cb in range(-10, 11) for cr in range(-10, 11) if cb or cr]
    assert (verdicts.count(True), verdicts.count(False)) == (155, 20)


def test_zero_cycle_decides_the_cone_on_the_corpus_tori(corpus_tori):
    verdicts = []
    for torus in corpus_tori.values():
        basis = (co.fiber_cocycle(torus), *co.h1(torus).duals)
        for coefs in itertools.product(range(-2, 3), repeat=len(basis)):
            if any(coefs):
                verdicts.append(zero_cycle_verdict(torus, co.dict_sum(
                    *map(co.dict_scale, coefs, basis))))
    assert len(corpus_tori) == 45
    assert (verdicts.count(True), verdicts.count(False)) == (450, 180)


def test_zero_cycle_refuses_a_negative_value(bundled):
    _, torus, b_star, _ = bundled
    with pytest.raises(InvariantViolation) as err:
        co.zero_cycle(torus, b_star)
    assert str(err.value) == ("value -1 on 'up:blue.0' is negative; a zero "
                              "cycle needs a cochain at least 0 on every "
                              "1-cell")


# ---------------------------------------------------------------------------
# level-circle cocycles


def test_fiber_cocycle_values(bundled, doubling_torus):
    _, torus, _, r_star = bundled
    fiber = co.fiber_cocycle(torus)
    assert fiber == {"skew1": 1, "up:red.0": 1, "up:blue.0": 1,
                     "up:black.0": 1}
    assert co.evaluate(torus, fiber, CYCLE_B) == 0
    assert co.evaluate(torus, fiber, CYCLE_R) == 1
    _, dtorus = doubling_torus
    assert co.fiber_cocycle(dtorus) == {"up:v.0": 1}


def test_line_family_values(bundled):
    _, torus, _, _ = bundled
    fiber = co.fiber_cocycle(torus)
    assert co.line_family_cocycle(torus, 0) == fiber
    for k in range(1, 6):
        z = co.line_family_cocycle(torus, k)
        assert z == {"skew1": 1, "up:red.0": 1, "up:blue.0": 1,
                     "up:a@3.2": k, "up:black.0": k + 1}
        assert co.evaluate(torus, z, CYCLE_B) == k
        assert co.evaluate(torus, z, CYCLE_R) == k + 1
    with pytest.raises(InvariantViolation):
        co.line_family_cocycle(torus, -1)


# ---------------------------------------------------------------------------
# skew crossings as the pairing with the skew loop


def skew_sum(torus, z):
    return sum(z.get(s.name, 0) for s in torus.skews)


def test_axis_bound_on_line_class(bundled):
    _, torus, _, _ = bundled
    z = co.line_family_cocycle(torus, 1)
    crossings = co.evaluate(torus, z, skew_loop(torus))
    assert skew_sum(torus, z) == crossings == 1
    assert max(0, crossings - 2) == 0


def test_axis_bound_grows_with_multiples(bundled):
    _, torus, _, r_star = bundled
    rep = co.integral_cocycle(torus, co.dict_scale(15, r_star))
    crossings = co.evaluate(torus, rep, skew_loop(torus))
    assert skew_sum(torus, rep) == crossings == 15
    assert max(0, crossings - 2) == 13


# ---------------------------------------------------------------------------
# length perturbation


@pytest.fixture(scope="module")
def five_edge_graph(bundled):
    return bundled[0].gmap.domain


LENGTHS = {"a": 0.3, "b": 0.2, "c": 0.2, "d": 0.2, "e": 0.1}
TURN_RED = frozenset({("a", -1), ("b", 1)})
TURN_BLACK = frozenset({("d", -1), ("e", -1)})


def test_delta_lengths_values(five_edge_graph):
    out = delta_lengths(five_edge_graph, LENGTHS, [TURN_RED, TURN_BLACK],
                        [Fraction(1, 8), Fraction(1, 16)])
    scale = 1 - Fraction(3, 16)
    expected = {
        "a": (Fraction(3, 10) - Fraction(1, 8) + Fraction(1, 16)) / scale,
        "b": (Fraction(2, 10) - Fraction(1, 8)) / scale,
        "c": Fraction(2, 10) / scale,
        "d": (Fraction(2, 10) - Fraction(1, 16)) / scale,
        "e": (Fraction(1, 10) + Fraction(1, 8) - Fraction(1, 16)) / scale,
    }
    assert out == pytest.approx({k: float(v) for k, v in expected.items()})
    assert sum(out.values()) == pytest.approx(1.0)


def test_delta_lengths_keeps_loops_fixed():
    graph = Graph(("u", "w"),
                  (("l", "u", "u"), ("m", "u", "w"), ("n", "w", "w")))
    lengths = {"l": 0.5, "m": 0.3, "n": 0.2}
    out = delta_lengths(graph, lengths,
                        [frozenset({("l", 1), ("m", 1)})],
                        [Fraction(1, 4)])
    assert out["l"] == pytest.approx(0.5 / 0.75)
    assert out["m"] == pytest.approx((0.3 - 0.25) / 0.75)
    assert out["n"] == pytest.approx(0.2 / 0.75)
    assert sum(out.values()) == pytest.approx(1.0)


def test_delta_lengths_validation(five_edge_graph):
    with pytest.raises(TurnDataError):
        delta_lengths(five_edge_graph, LENGTHS,
                      [frozenset({("c", 1), ("c", -1)})], [Fraction(1, 4)])
    with pytest.raises(TurnDataError):  # valence four at the loop vertex
        delta_lengths(five_edge_graph, LENGTHS,
                      [frozenset({("b", -1), ("c", 1)})], [Fraction(1, 4)])
    with pytest.raises(TurnDataError):  # repeated vertex
        delta_lengths(five_edge_graph, LENGTHS,
                      [TURN_RED, frozenset({("a", -1), ("e", 1)})],
                      [Fraction(1, 8), Fraction(1, 8)])
    with pytest.raises(TurnDataError):  # total weight too large
        delta_lengths(five_edge_graph, LENGTHS, [TURN_RED, TURN_BLACK],
                      [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(TurnDataError):  # weight count mismatch
        delta_lengths(five_edge_graph, LENGTHS, [TURN_RED], [])


def test_delta_lengths_injective_on_samples(five_edge_graph):
    rng = random.Random(0)
    turns = [TURN_RED, TURN_BLACK]
    seen = {}
    for _ in range(1000):
        weights = (Fraction(rng.randrange(0, 8), 32),
                   Fraction(rng.randrange(0, 8), 32))
        if weights in seen:
            continue
        out = delta_lengths(five_edge_graph, LENGTHS, turns, list(weights))
        key = tuple(round(out[e], 12) for e in sorted(out))
        assert key not in seen.values(), \
            f"distinct weights {weights} collided with an earlier sample"
        seen[weights] = key
        assert sum(out.values()) == pytest.approx(1.0)
