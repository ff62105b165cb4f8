"""Mutation fuzzing of the command line: documents from tests/data with
lines deleted, duplicated, swapped, truncated or with a token replaced, run
in-process through every subcommand.  Each run must end with exit code 0,
1 or 2 and never with an uncaught exception.  Caps, budgets and degrees are
kept small so that no run does much work."""

import contextlib
import io
import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ssetkit.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SSET = sorted(DATA.glob("*.sset"))
CELLPRES = sorted(DATA.glob("*.cellpres"))
SOA = [DATA / "golden" / "factorize_insert.txt"]

_NAME_RE = re.compile(r"^\s*(?:object|map|base) ([A-Za-z0-9_.]+)", re.M)
_TOKEN_RE = re.compile(r"[A-Za-z0-9_.·\[\],=]+")


def commands(names):
    """argv tails for the twelve subcommands, naming objects and maps by
    the names drawn."""
    a, b, c, d, e, f = names
    return [
        ["validate"],
        ["hom", "--source", a, "--target", b, "--count"],
        ["pushout", "--i", a, "--g", b],
        ["lift", "--left", a, "--right", b, "--top", c, "--bottom", d],
        ["rlp", "--map", a, "--gen", "I", "--cap", "1"],
        ["realize"],
        ["factor-stage", "--map", a],
        ["j2i"],
        ["factorize", "--map", a, "--gen", "J", "--cap", "1",
         "--budget", "1"],
        ["functorial", "--map", a, "--map2", b, "--top", c, "--bottom", d,
         "--gen", "I", "--cap", "0", "--budget", "1"],
        ["homology", "--object", e, "--maxdim", "2"],
        ["we-cert", "--map", f, "--maxdim", "2"],
    ]


@st.composite
def mutated(draw, paths):
    text = draw(st.sampled_from(paths)).read_text(encoding="utf-8")
    lines = text.split("\n")
    tokens = sorted(set(_TOKEN_RE.findall(text)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token",
                                   "truncate"]))
        at = draw(st.integers(0, len(lines) - 1))
        if op == "delete" and len(lines) > 1:
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "token":
            found = list(_TOKEN_RE.finditer(lines[at]))
            if found:
                m = draw(st.sampled_from(found))
                lines[at] = (lines[at][:m.start()]
                             + draw(st.sampled_from(tokens))
                             + lines[at][m.end():])
        elif op == "truncate":
            lines = lines[:at + 1]
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
    text = "\n".join(lines)
    pool = sorted(set(_NAME_RE.findall(text))) or ["x"]
    names = draw(st.lists(st.sampled_from(pool), min_size=6, max_size=6))
    return text, names


def run_all(tmp_path, text, names):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    for tail in commands(names):
        argv = [tail[0], str(path)] + tail[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)


@settings(max_examples=60, deadline=None)
@given(mutated(SSET))
def test_mutated_sset_documents(tmp_path_factory, case):
    run_all(tmp_path_factory.mktemp("sset"), *case)


@settings(max_examples=60, deadline=None)
@given(mutated(CELLPRES))
def test_mutated_cellpres_documents(tmp_path_factory, case):
    run_all(tmp_path_factory.mktemp("cellpres"), *case)


@settings(max_examples=60, deadline=None)
@given(mutated(SOA))
def test_mutated_soa_reports(tmp_path_factory, case):
    run_all(tmp_path_factory.mktemp("soa"), *case)


def test_unmutated_documents_run_through_every_subcommand(tmp_path):
    for path in SSET + CELLPRES + SOA:
        text = path.read_text(encoding="utf-8")
        names = (sorted(set(_NAME_RE.findall(text))) * 6)[:6]
        run_all(tmp_path, text, names)


# inputs the fuzzing found, each of which once ended in a traceback

def run(tmp_path, text, *argv):
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([argv[0], str(path)] + list(argv[1:]))


def test_a_name_used_in_two_dimensions_is_reported(tmp_path):
    # KeyError in core.validate.  The faces line of 02 goes too: a faces
    # line for a name that no dim line declares is refused by the reader
    text = (DATA / "homology.sset").read_text(encoding="utf-8").replace(
        "dim 1: 01 02 12", "dim 1: 01 0 12").replace("  faces 02: 2 0\n", "")
    assert run(tmp_path, text, "validate") == 1
    assert run(tmp_path, text, "homology", "--object", "D2") == 2
    assert run(tmp_path, text, "hom", "--source", "D2", "--target",
               "circle") == 2


def test_a_functorial_square_that_does_not_fit_is_input_error(tmp_path):
    # ValueError from core.compose
    text = (DATA / "functorial.sset").read_text(encoding="utf-8")
    assert run(tmp_path, text, "functorial", "--map", "insert", "--map2",
               "insert", "--top", "idE", "--bottom", "bid", "--gen",
               "I") == 2
