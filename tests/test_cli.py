"""Command line driver: exit codes, frozen reports, deterministic reruns."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freebycyclic import bns, cli
from freebycyclic import cohomology as co
from freebycyclic.errors import ConeInfeasibleError, InvariantViolation

from conftest import EXAMPLES
MAP = os.path.join(EXAMPLES, "phi_f3.map")
PRES = os.path.join(EXAMPLES, "g_phi.2gen")


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, _err = run(capsys, *args)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# traintrack


def test_traintrack_bundled_report(capsys):
    code, report = run_json(capsys, "traintrack", "--input", MAP)
    assert code == 0
    assert report["train_track"] is True
    assert report["train_track_witness"] is None
    assert report["irreducible"] is True
    assert report["expanding"] is True
    assert report["illegal_turns"] == ["{B, C}"]
    assert report["stretch"] == pytest.approx(1.9659482366, abs=1e-9)
    assert report["eigen_residual"] <= 1e-10
    assert report["nielsen_paths"] == {"found": [], "exhaustive": True,
                                       "method": "eigenray", "max_len": 10,
                                       "max_period": 6}
    assert len(report["ideal_components"]) == 3
    assert report["rotationless_index"] == "-3/2"
    assert report["folds"] == {"count": 4, "labels": ["a", "e", "a", "d"],
                               "kinds": ["strict"] * 4}
    assert report["lone_axis"]["verdict"] == "yes"


def test_traintrack_accepts_presentation_input(capsys):
    code, report = run_json(capsys, "traintrack", "--input", PRES)
    assert code == 0
    assert report["lone_axis"]["verdict"] == "yes"


def test_traintrack_verdict_no_exits_1(capsys, tmp_path):
    target = tmp_path / "two_illegal.map"
    target.write_text("vertices v\n" "edge a v v\n" "edge b v v\n"
                      "vmap v v\n" "emap a ab\n" "emap b aab\n")
    code, report = run_json(capsys, "traintrack", "--input", str(target))
    assert code == 1
    assert report["lone_axis"]["verdict"] == "no"
    assert "illegal turns" in report["lone_axis"]["reason"]


def test_traintrack_without_assumptions_exits_2(capsys, tmp_path):
    lines = [line for line in open(MAP).read().splitlines()
             if not line.startswith("assume")]
    target = tmp_path / "bare.map"
    target.write_text("\n".join(lines) + "\n")
    code, report = run_json(capsys, "traintrack", "--input", str(target))
    assert code == 2
    assert report["lone_axis"]["verdict"] == "inconclusive"
    assert "ageometric" in report["lone_axis"]["reason"]


def test_traintrack_nielsen_bounds_flags(capsys):
    code, report = run_json(capsys, "traintrack", "--input", MAP,
                            "--nielsen-len", "4", "--nielsen-period", "2")
    assert code == 0
    assert report["nielsen_paths"]["max_len"] == 4
    assert report["nielsen_paths"]["max_period"] == 2


# ---------------------------------------------------------------------------
# survey


@pytest.fixture(scope="module")
def survey():
    import io
    import contextlib
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["survey", "--input", PRES])
    assert code == 0
    return json.loads(buffer.getvalue())


def test_survey_sigma_block(survey):
    sigma = survey["sigma"]
    assert sigma["generators"] == ["b", "r"]
    assert sigma["excluded_rays"] == [[-2, -1], [-1, -1], [-1, 0],
                                      [1, 0], [1, 1], [2, 1]]
    assert sigma["indeterminate_corners"] == []
    assert sigma["component"] == {"direction": [0, 1],
                                  "start": [1, 1], "end": [-1, 0]}
    assert sigma["pairing"] == [-1, 1]
    assert sigma["axis_line"]["classes"] == [[0, 1], [1, 2], [2, 3],
                                             [3, 4], [4, 5], [5, 6]]
    assert sigma["polygon"]["hull"] == [[-1, 2], [0, 0], [1, 0],
                                        [1, 2], [0, 3], [-1, 3]]
    assert sigma["polygon"]["thick_edges"] == [
        {"edge": [[0, 1], [0, 2]], "count": 3},
        {"edge": [[0, 1], [1, 1]], "count": 2}]


def test_survey_flags_exactly_the_axis_line_family(survey):
    flagged = [tuple(row["class"]) for row in survey["classes"]
               if row["on_axis_line"]]
    assert flagged == [(k, k + 1) for k in range(8)]
    for row in survey["classes"]:
        if row["on_axis_line"]:
            assert row["monodromy_rank"] == row["class"][0] + 3


def test_survey_flags_imprimitive_fiber_multiples(survey):
    rows = {tuple(row["class"]): row for row in survey["classes"]}
    for m in range(2, 9):
        row = rows[(0, m)]
        assert row["primitive"] is False
        assert row["monodromy_rank"] is None
    assert rows[(0, 1)]["primitive"] is True


def test_survey_sector_and_cone_agree_everywhere(survey):
    assert all(row["in_cone"] for row in survey["classes"])
    assert len(survey["classes"]) == 100


def test_survey_frozen_rows(survey):
    rows = {tuple(row["class"]): row for row in survey["classes"]}
    assert rows[(0, 1)] == {"class": [0, 1], "primitive": True,
                            "in_cone": True, "skew_crossings": 1,
                            "dim_lower_bound": 0, "on_axis_line": True,
                            "monodromy_rank": 3}
    assert rows[(-8, 1)] == {"class": [-8, 1], "primitive": True,
                             "in_cone": True, "skew_crossings": 9,
                             "dim_lower_bound": 7, "on_axis_line": False,
                             "monodromy_rank": 11}
    assert rows[(-1, 1)] == {"class": [-1, 1], "primitive": True,
                             "in_cone": True, "skew_crossings": 2,
                             "dim_lower_bound": 0, "on_axis_line": False,
                             "monodromy_rank": 4}
    assert rows[(0, 2)] == {"class": [0, 2], "primitive": False,
                            "in_cone": True, "skew_crossings": 2,
                            "dim_lower_bound": 0, "on_axis_line": False,
                            "monodromy_rank": None}


def test_survey_tikz_format(capsys):
    code, out, _ = run(capsys, "survey", "--input", PRES,
                       "--format", "tikz")
    assert code == 0
    assert out.startswith(r"\begin{tikzpicture}")
    assert out.count("->, red") == 6
    assert out.count("very thick") == 2


def test_survey_height_flag(capsys):
    code, report = run_json(capsys, "survey", "--input", PRES,
                            "--height-max", "2")
    assert code == 0
    classes = [tuple(row["class"]) for row in report["classes"]]
    assert classes == [(-2, 1), (-1, 1), (0, 1), (-2, 2), (-1, 2),
                       (0, 2), (1, 2)]


def test_survey_reports_only_infeasibility_as_outside_the_cone(
        capsys, monkeypatch):
    def on_a_zero_cycle(complex_, z):
        return {"skew1": 1}

    monkeypatch.setattr(cli.co, "zero_cycle", on_a_zero_cycle)
    code, report = run_json(capsys, "survey", "--input", PRES,
                            "--height-max", "1")
    assert code == 0
    assert [row["in_cone"] for row in report["classes"]] == [False, False]


def test_survey_failed_verification_exits_65(capsys, monkeypatch):
    def broken(complex_, z):
        raise InvariantViolation("zero cycle failed verification")

    monkeypatch.setattr(cli.co, "zero_cycle", broken)
    code, out, err = run(capsys, "survey", "--input", PRES,
                         "--height-max", "1")
    assert code == 65
    assert out == ""
    assert "zero cycle failed verification" in err


@pytest.mark.parametrize("height", ["1", "8", "16"])
def test_survey_solves_one_batch_of_three_classes(capsys, monkeypatch,
                                                  height):
    # the rays and the direction of the sector, whatever the height; the
    # rows are read off the pairings with no per-row solve or read
    calls = {"least_representatives": [], "zero_cycle": 0,
             "crossing_rank": 0}
    batch, zero_cycle = co.least_representatives, co.zero_cycle

    def counted_batch(complex_, basis, coefficients):
        calls["least_representatives"].append(list(coefficients))
        return batch(complex_, basis, coefficients)

    def counted_zero_cycle(complex_, z):
        calls["zero_cycle"] += 1
        return zero_cycle(complex_, z)

    def no_crossing_rank(complex_, z):
        calls["crossing_rank"] += 1

    monkeypatch.setattr(cli.co, "least_representatives", counted_batch)
    monkeypatch.setattr(cli.co, "zero_cycle", counted_zero_cycle)
    monkeypatch.setattr(cli.sect, "crossing_rank", no_crossing_rank)
    code, _out, _err = run(capsys, "survey", "--input", PRES,
                           "--height-max", height)
    assert code == 0
    assert calls == {"least_representatives": [[(1, 1), (-1, 0), (0, 1)]],
                     "zero_cycle": 1, "crossing_rank": 0}


@pytest.mark.parametrize("argv", [
    ["survey", "--height-max", "1"], ["survey", "--height-max", "8"],
    ["survey", "--height-max", "16"], ["section", "--class=1,6"],
    ["monodromy", "--class=1,6"]],
    ids=["survey-1", "survey-8", "survey-16", "section", "monodromy"])
def test_each_command_factors_one_linear_system(capsys, monkeypatch, argv):
    # the dual basis of the presentation's dualcycles; the coordinates of
    # σ and ε are pairings with its duals, with no factorisation of their
    # own
    calls = []
    factor = co.smith_normal_form
    monkeypatch.setattr(co, "smith_normal_form",
                        lambda matrix: calls.append(1) or factor(matrix))
    code, _out, _err = run(capsys, *argv, "--input", PRES)
    assert (code, len(calls)) == (0, 1)


@pytest.mark.parametrize("start, end", [(None, None), ((1, 1), (-1, -2)),
                                        ((1, 0), (-1, 0))])
def test_survey_refuses_a_sector_without_one_certificate(
        capsys, monkeypatch, start, end):
    # a whole plane, a sector wider than a half plane, or a half plane
    monkeypatch.setattr(cli.bns, "component_containing",
                        lambda slopes, direction: bns.ConeComponent(start,
                                                                    end))
    code, out, err = run(capsys, "survey", "--input", PRES)
    assert (code, out) == (65, "")
    assert f"the sector from {start} to {end}" in err


def test_survey_refuses_a_ray_outside_the_closed_cone(capsys, monkeypatch):
    # (2, 1) pairs negatively with a directed cycle, so it has no
    # representative at least 0
    monkeypatch.setattr(cli.bns, "component_containing",
                        lambda slopes, direction: bns.ConeComponent((2, 1),
                                                                    (-1, 0)))
    raised = []
    batch = co.least_representatives

    def watched(complex_, basis, coefficients):
        try:
            return batch(complex_, basis, coefficients)
        except InvariantViolation as err:
            raised.append(type(err))
            raise

    monkeypatch.setattr(cli.co, "least_representatives", watched)
    code, out, err = run(capsys, "survey", "--input", PRES)
    assert (code, out) == (65, "")
    assert raised == [ConeInfeasibleError]
    assert "no representative is at least 0" in err


# ---------------------------------------------------------------------------
# section


THETA_1 = {
    "e1": "e3_1",
    "e2_1": "e2_2",
    "e2_2": "e4_1'",
    "e3_1": "e3_2",
    "e3_2": "t1 e3_1 e2_1",
    "e4_1": "e4_2",
    "e4_2": "s2 e1",
    "s1": "e2_1 t1",
    "s2": "t1",
    "t1": "t2",
    "t2": "s1 e1 e4_1",
}


def test_section_theta1_table(capsys):
    code, report = run_json(capsys, "section", "--input", PRES,
                            "--class=1,2")
    assert code == 0
    assert report["canonical"] is True
    assert report["k"] == 1
    assert report["phase"] == "1/2"
    assert report["first_return"] == THETA_1
    assert report["tree"] == ["e1", "e2_1", "e2_2", "e3_1", "e3_2",
                              "e4_1", "e4_2"]
    assert report["audit"] == {"vertices": 8, "edges": 11, "rank": 4,
                               "components": 1, "skew_crossings": 1,
                               "valence_profile": [[2, 2], [3, 6]],
                               "illegal_turns_at_trivalent": 1}


def test_section_generic_class(capsys):
    code, report = run_json(capsys, "section", "--input", PRES,
                            "--class=-1,1")
    assert code == 0
    assert report["canonical"] is False
    assert report["k"] is None
    assert report["audit"]["rank"] == 4
    assert report["audit"]["skew_crossings"] == 2
    assert len(report["first_return"]) == report["audit"]["edges"]


def test_section_nonstandard_phase_forces_generic(capsys):
    code, report = run_json(capsys, "section", "--input", PRES,
                            "--class=0,1", "--phase", "9/16")
    assert code == 0
    assert report["canonical"] is False
    assert report["audit"]["rank"] == 3


@pytest.mark.parametrize("phase", ["--phase=3/2", "--phase=-1/2"])
@pytest.mark.parametrize("coords", ["0,1", "1,6"])
def test_section_reads_the_phase_modulo_one(capsys, coords, phase):
    # 0,1 takes the canonical route at phase 1/2, 1,6 the generic one
    half = run(capsys, "section", "--input", PRES, f"--class={coords}",
               "--phase=1/2")
    assert half[0] == 0
    assert run(capsys, "section", "--input", PRES, f"--class={coords}",
               phase) == half


@pytest.mark.parametrize("command", ["section", "monodromy"])
def test_canonical_route_reads_the_line_index_off_the_class(capsys, tmp_path,
                                                            command):
    # the bundled map in another dual basis, with the same pairing (-1, 1):
    # its class 2,3 is the bundled class 1,2, the line-family member k = 1
    alt = tmp_path / "alt.2gen"
    alt.write_text(
        f"use {Path(MAP).resolve()}\n"
        "generators b r\n"
        "relator rrrBRbRbrBRbRB\n"
        "dualcycle b up:red.0 1 skew2 1 up:a@3.2 1\n"
        "dualcycle r up:black.0 -1 up:c@1.1 1 up:a@2.3 -1 skew1 1 skew4 2 "
        "up:red.0 2 skew2 2 up:a@3.2 2\n")
    code, bundled, _ = run(capsys, command, "--input", PRES, "--class=1,2")
    assert code == 0
    one_two = '"class": [\n    1,\n    2\n  ]'
    assert one_two in bundled
    assert run(capsys, command, "--input", str(alt), "--class=2,3") == \
        (0, bundled.replace(one_two, '"class": [\n    2,\n    3\n  ]'), "")


FIBER_DOT = """digraph section {
  "flow1" [color=gray];
  "skew1#1" [color=red];
  "up:black.0#1" [color=black];
  "up:blue.0#1" [color=black];
  "up:red.0#1" [color=black];
  "up:blue.0#1" -> "skew1#1" [label="trap1.0.0of1"];
  "up:black.0#1" -> "up:red.0#1" [label="trap2.0.0of1"];
  "up:red.0#1" -> "flow1" [label="trap3.0.0of1"];
  "flow1" -> "up:black.0#1" [label="trap3.0.1of2"];
  "skew1#1" -> "up:blue.0#1" [label="trap3.1.13of16"];
  "up:black.0#1" -> "up:blue.0#1" [label="trap4.0.0of1"];
  "skew1#1" -> "up:red.0#1" [label="trap4.1.1of2"];
}
"""


def test_section_dot_export(capsys):
    code, out, _ = run(capsys, "section", "--input", PRES,
                       "--class=0,1", "--format", "dot")
    assert code == 0
    assert out == FIBER_DOT


#: first 16 hex digits of the sha256 of ``section --format dot`` on the
#: bundled presentation, for classes past the fiber
SECTION_DOT_DIGESTS = {
    "1,6": "6f08da6bb56fb03d",
    "1,14": "7618d0297a23ae1a",
    "1,2": "e8ccdeed3127711c",
}


@pytest.mark.parametrize("coords", sorted(SECTION_DOT_DIGESTS))
def test_section_dot_export_digests(capsys, coords):
    code, out, _ = run(capsys, "section", "--input", PRES,
                       f"--class={coords}", "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] \
        == SECTION_DOT_DIGESTS[coords]


def test_section_imprimitive_disconnection_report(capsys):
    code, report = run_json(capsys, "section", "--input", PRES,
                            "--class=0,2")
    assert code == 65
    assert report["primitive"] is False
    assert report["divisibility"] == 2
    assert report["components"] == 2
    pieces = report["component_vertices"]
    assert [len(p) for p in pieces] == [10, 9]
    assert set(pieces[0]) & set(pieces[1]) == set()


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_of_the_fiber_reproduces_the_input_class(capsys):
    code, report = run_json(capsys, "monodromy", "--input", PRES,
                            "--class=0,1")
    assert code == 0
    assert report["canonical"] is True
    assert report["rank"] == 3
    assert report["generators"] == ["s1", "s2", "t1"]
    assert report["images"] == {"s1": "t1", "s2": "s2 t1",
                                "t1": "s2 s1 t1 s2'"}
    assert report["input_class"] == {
        "matches": True,
        "identification": {"s1": "c", "s2": "b", "t1": "a"},
        "conjugator": "AB"}


def test_monodromy_deeper_class_skips_comparison(capsys):
    code, report = run_json(capsys, "monodromy", "--input", PRES,
                            "--class=1,2")
    assert code == 0
    assert report["rank"] == 4
    assert "input_class" not in report
    assert report["images"]["s1"] == "t1"


def test_monodromy_imprimitive_class_fails(capsys):
    code, report = run_json(capsys, "monodromy", "--input", PRES,
                            "--class=0,2")
    assert code == 65
    assert report["components"] == 2


# ---------------------------------------------------------------------------
# exit codes and argument validation


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["traintrack"],
    ["traintrack", "--input", "nosuch.map"],
    ["section", "--input", PRES],
    ["section", "--input", MAP, "--class=0,1"],
    ["section", "--input", PRES, "--class=1"],
    ["section", "--input", PRES, "--class=a,b"],
    ["section", "--input", PRES, "--class=0,1", "--phase", "x"],
    ["section", "--input", PRES, "--class=0,1", "--format", "tikz"],
    ["survey", "--input", PRES, "--format", "dot"],
    ["traintrack", "--input", MAP, "--format", "dot"],
    ["monodromy", "--input", PRES, "--class=0,1", "--format", "dot"],
    ["traintrack", "--input", MAP, "--class=1,2"],
    ["survey", "--input", PRES, "--phase", "1/2"],
    ["section", "--input", PRES, "--class=1,2", "--height-max", "2"],
    ["monodromy", "--input", PRES, "--class=1,2", "--nielsen-len", "3"],
    ["traintrack", "--input", MAP, "--nielsen-period", "0"],
    ["traintrack", "--input", MAP, "--nielsen-len", "-3"],
    ["survey", "--input", PRES, "--k-max", "-4"],
    ["survey", "--input", PRES, "--height-max", "-2"],
])
def test_usage_errors_exit_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert err.startswith("error:")


def test_bad_extension_exits_64(capsys, tmp_path):
    stray = tmp_path / "input.txt"
    stray.write_text("vertices v\n")
    code, _out, err = run(capsys, "traintrack", "--input", str(stray))
    assert code == 64
    assert "extension" in err


@pytest.mark.parametrize("suffix", [".map", ".2gen"])
def test_input_that_is_not_utf8_exits_64(capsys, tmp_path, suffix):
    stray = tmp_path / f"input{suffix}"
    stray.write_bytes(b"vertices v\xff\n")
    code, _out, err = run(capsys, "traintrack", "--input", str(stray))
    assert code == 64
    assert err.startswith("error:")
    assert str(stray) in err


def test_presentation_without_use_line_exits_64(capsys, tmp_path):
    lines = [line for line in open(PRES).read().splitlines()
             if not line.startswith("use")]
    target = tmp_path / "bare.2gen"
    target.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "traintrack", "--input", str(target))
    assert code == 64
    assert out == ""
    assert err.startswith("error:")
    assert str(target) in err and "use line" in err


def test_out_of_cone_class_exits_65(capsys):
    code, _out, err = run(capsys, "section", "--input", PRES, "--class=2,1")
    assert code == 65
    assert "invariant violated" in err
    assert "{'up:blue.0': 1, 'skew3': 1, 'skew4': 1}" in err


@pytest.mark.parametrize("command", ["section", "monodromy"])
@pytest.mark.parametrize("coords,sign", [
    ((-1, 0), 0), ((1, 1), 0), ((-2, 0), 0), ((2, 2), 0),
    ((2, 1), -1), ((4, 2), -1)])
def test_class_off_the_open_cone_is_refused(capsys, command, coords, sign):
    # boundary rays and their multiples pair to 0 with a directed cycle,
    # classes outside the cone pair negatively with one; imprimitive
    # classes are refused before any disconnection report
    code, out, err = run(capsys, command, "--input", PRES,
                         f"--class={coords[0]},{coords[1]}")
    assert (code, out) == (65, "")
    cycle = ast.literal_eval(err[err.index("{"):err.index("}") + 1])
    assert set(cycle.values()) == {1}
    ws = cli.load_workspace(PRES, with_classes=True)
    b_star, r_star = ws.duals
    z = co.dict_sum(co.dict_scale(coords[0], b_star),
                    co.dict_scale(coords[1], r_star))
    pairing = co.evaluate(ws.complex_, z, cycle)
    assert (pairing > 0) - (pairing < 0) == sign


def test_zero_class_exits_65(capsys):
    code, _out, err = run(capsys, "section", "--input", PRES, "--class=0,0")
    assert code == 65
    assert "zero class" in err


# ---------------------------------------------------------------------------
# determinism and artifact output


def test_reruns_are_bit_identical_and_ignore_the_environment(
        capsys, monkeypatch):
    first = run(capsys, "survey", "--input", PRES, "--height-max", "3")
    monkeypatch.setenv("FBC_SEED", "12345")
    second = run(capsys, "survey", "--input", PRES, "--height-max", "3")
    assert first == second


def test_out_directory_receives_the_artifact(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "section", "--input", PRES, "--class=1,2",
                       "--out", str(out_dir))
    assert code == 0
    assert out == ""
    written = (out_dir / "section.json").read_text()
    direct_code, direct_out, _ = run(capsys, "section", "--input", PRES,
                                     "--class=1,2")
    assert direct_code == 0
    assert written == direct_out


def test_out_naming_a_regular_file_exits_64(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    code, out, err = run(capsys, "traintrack", "--input", MAP,
                         "--out", str(taken))
    assert code == 64
    assert out == ""
    assert err.startswith("error:")
    assert str(taken) in err
    assert taken.read_text() == "keep me\n"


#: first 16 hex digits of the sha256 of each command's stdout on the
#: bundled inputs; the first five are the benchmark's pins, and the last
#: runs the survey on a sector four times the benchmark's (392 classes)
PINNED_DIGESTS = {
    "survey --height-max=8": "2cc3e91e6875b68a",
    "section --class=1,6": "fd4c76122d502a68",
    "section --class=1,14": "383975302e9944d2",
    "monodromy --class=1,6": "dac2461fb7f51669",
    "monodromy --class=1,14": "911cddb0caf4c780",
    "traintrack": "aadb91ff08f79738",
    "survey --height-max=16": "5e34579c05b8647e",
}

_INTERN_FIRST = """
import contextlib, hashlib, io, json, sys
from freebycyclic import cli, words
# a few hundred names, the bundled ones among them, in reverse-sorted
# order, so that every code point differs from a fresh process's
names = list("abcdebr") + [f"trap{t}.{h}.{i}of5" for t in range(1, 9)
                           for h in range(6) for i in range(5)]
words.intern(sorted(set(names), reverse=True))
digests = {}
for key, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
print(json.dumps(digests))
"""


def test_output_does_not_depend_on_interning_order():
    runs = {key: key.split() + ["--input", PRES] for key in PINNED_DIGESTS}
    runs["traintrack"] = ["traintrack", "--input", MAP]
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _INTERN_FIRST, json.dumps(runs)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert json.loads(done.stdout) == PINNED_DIGESTS
