"""Input fuzz: mutated input files and random command lines.

Every mutation of the bundled ``.map`` and ``.2gen`` texts either parses or
raises :class:`InputParseError`, and a command run on a mutated ``.2gen``
file exits with a documented code; every command line either runs or exits
with a documented code, and no other exception escapes ``cli.main``.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freebycyclic import cli
from freebycyclic.bns import parse_presentation_text
from freebycyclic.errors import InputParseError
from freebycyclic.graphs import parse_map_text

from conftest import EXAMPLES

MAP = str(EXAMPLES / "phi_f3.map")
PRES = str(EXAMPLES / "g_phi.2gen")
MAP_TEXT = (EXAMPLES / "phi_f3.map").read_text(encoding="utf-8")
PRES_TEXT = (EXAMPLES / "g_phi.2gen").read_text(encoding="utf-8")

# pieces of both formats, so that insertions make near-miss lines
TOKENS = ["vertices", "edge", "vmap", "emap", "marking", "basepoint",
          "assume", "use", "generators", "relator", "dualcycle", "red",
          "blue", "a", "b", "c", "D", "rB", "up:red.0", "skew1", "1", "-2",
          "0", "x", " ", "  ", "\t", "\n", "#", "\r", "é", "\x00"]
piece = st.one_of(st.sampled_from(TOKENS), st.text(max_size=4))


@st.composite
def mutated(draw, text):
    """``text`` after up to six random deletions, insertions and line edits."""
    for _ in range(draw(st.integers(1, 6))):
        lines = text.splitlines(keepends=True)
        kind = draw(st.sampled_from(
            ["delete", "insert", "replace", "drop line", "repeat line",
             "swap lines"]))
        at = draw(st.integers(0, len(text)))
        if kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        elif kind == "insert":
            text = text[:at] + draw(piece) + text[at:]
        elif kind == "replace":
            text = text[:at] + draw(piece) + text[at + 1:]
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "drop line":
                del lines[i]
            elif kind == "repeat line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


def parses_or_refuses(parse, text):
    try:
        parse(text)
    except InputParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutated(MAP_TEXT))
def test_mutated_map_text_parses_or_raises_input_parse_error(text):
    parses_or_refuses(parse_map_text, text)


@settings(max_examples=300, deadline=None)
@given(mutated(PRES_TEXT))
def test_mutated_presentation_text_parses_or_raises_input_parse_error(text):
    parses_or_refuses(parse_presentation_text, text)


@pytest.fixture(scope="module")
def beside_the_map(tmp_path_factory):
    """A directory holding a copy of ``phi_f3.map``, which the bundled
    ``.2gen`` text names on its ``use`` line."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "phi_f3.map").write_text(MAP_TEXT, encoding="utf-8")
    return directory


def run_main(argv):
    """``cli.main(argv)``'s exit code and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated(PRES_TEXT), st.sampled_from(
    [["traintrack"], ["survey"], ["section", "--class=1,2"],
     ["monodromy", "--class=1,2"]]))
def test_commands_on_a_mutated_presentation_exit_with_a_documented_code(
        beside_the_map, text, command):
    target = beside_the_map / "mutated.2gen"
    target.write_bytes(text.encode("utf-8"))
    code, err = run_main([command[0], "--input", str(target), *command[1:]])
    verdicts = {1, 2} if command[0] == "traintrack" else set()
    assert code in {0, 64, 65} | verdicts, (command, code, err)


def mostly(valid, invalid):
    """``valid`` three times in four, else one of ``invalid``."""
    return st.integers(0, 3).flatmap(
        lambda i: valid if i < 3 else st.sampled_from(invalid))


small = mostly(st.integers(1, 3).map(str), ["0", "-1", "x", ""])
VALUES = {
    "--input": mostly(st.sampled_from([PRES, MAP]),
                      ["nosuch.2gen", "notes.txt", ""]),
    "--class": mostly(st.tuples(st.integers(-3, 3), st.integers(-3, 3))
                      .map(lambda c: f"{c[0]},{c[1]}"),
                      ["1", "a,b", "1,2,3", ""]),
    "--k-max": small,
    "--height-max": small,
    "--phase": mostly(st.sampled_from(["1/2", "1/3", "2/5"]),
                      ["0", "1", "x", "1/0"]),
    "--nielsen-len": small,
    "--nielsen-period": small,
    "--format": mostly(st.just("json"), ["tikz", "dot", "csv"]),
}
COMMAND_FLAGS = {
    "traintrack": ["--format", "--nielsen-len", "--nielsen-period"],
    "survey": ["--format", "--height-max", "--k-max"],
    "section": ["--format", "--class", "--phase"],
    "monodromy": ["--format", "--class", "--phase"],
}


@st.composite
def argvs(draw):
    """A command with its input and flags, most of them its own and most
    values well formed, then perhaps a word dropped or a stray one added."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command, "--input", draw(VALUES["--input"])]
    if "--class" in COMMAND_FLAGS[command]:
        argv.append(f"--class={draw(VALUES['--class'])}")
    own = st.sampled_from(COMMAND_FLAGS[command])
    for flag in draw(st.lists(st.one_of(own, own, st.sampled_from(
            sorted(VALUES))), max_size=3)):
        # "--flag=value", so that negative values are not read as flags
        argv.append(f"{flag}={draw(VALUES[flag])}")
    if draw(st.integers(0, 3)) == 3:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 3)) == 3:
        argv.insert(draw(st.integers(0, len(argv))), draw(piece))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_random_command_lines_exit_with_a_documented_code(argv):
    code, err = run_main(argv)
    # 1 and 2 are the "no" and "inconclusive" verdicts of traintrack; any
    # other command succeeds, is refused (64) or fails a check (65)
    verdicts = {1, 2} if "traintrack" in argv else set()
    assert code in {0, 64, 65} | verdicts, (argv, code, err)
    if code == 64:
        assert err.startswith("error:")
