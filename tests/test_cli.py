import os
import pathlib
import subprocess
import sys

import pytest

import ssetkit
from ssetkit import cells, core, formats
from ssetkit.cli import MAXDIM_LIMIT, _build_parser, main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGolden:
    """The reference invocations: byte-identical reports and stable exit
    codes, twice each."""

    CASES = [
        ("lift_identity.txt", 0,
         ["lift", str(DATA / "lift_identity.sset"),
          "--left", "inc", "--right", "idD", "--top", "top",
          "--bottom", "idD"]),
        ("rlp_boundary.txt", 1,
         ["rlp", str(DATA / "rlp_boundary.sset"),
          "--map", "collapse", "--gen", "I", "--cap", "1"]),
        ("factorize_insert.txt", 0,
         ["factorize", str(DATA / "factorize_insert.sset"),
          "--map", "insert", "--gen", "I", "--mode", "reduced",
          "--budget", "5"]),
        ("realize_circle.txt", 0,
         ["realize", str(DATA / "circle.cellpres")]),
        ("realize_horn_fill.txt", 0,
         ["realize", str(DATA / "horn_fill.cellpres")]),
        ("j2i_horn_fill.txt", 0,
         ["j2i", str(DATA / "horn_fill.cellpres")]),
        ("factor_stage_circle.txt", 0,
         ["factor-stage", str(DATA / "circle.cellpres"), "--map", "probe"]),
        ("pushout_collapse.txt", 0,
         ["pushout", str(DATA / "pushout_collapse.sset"),
          "--i", "edge", "--g", "collapse"]),
        ("lift_none.txt", 1,
         ["lift", str(DATA / "lift_none.sset"),
          "--left", "horn", "--right", "collapse", "--top", "top",
          "--bottom", "bottom"]),
        # faithful rounds before the last decide no square
        ("factorize_faithful.txt", 1,
         ["factorize", str(DATA / "factorize_insert.sset"),
          "--map", "insert", "--gen", "I", "--cap", "1",
          "--mode", "faithful", "--budget", "2"]),
        ("functorial_insert.txt", 0,
         ["functorial", str(DATA / "functorial.sset"),
          "--map", "insert", "--map2", "insert2", "--top", "idE",
          "--bottom", "pick_a", "--gen", "I", "--cap", "1",
          "--budget", "2"]),
        ("hom_functorial.txt", 0,
         ["hom", str(DATA / "functorial.sset"),
          "--source", "P", "--target", "PP"]),
    ]

    @pytest.mark.parametrize("golden,expected_code,argv",
                             CASES, ids=[c[0] for c in CASES])
    def test_byte_identical(self, capsys, golden, expected_code, argv):
        want = (GOLDEN / golden).read_bytes()
        first_code, first_out = run_cli(capsys, *argv)
        second_code, second_out = run_cli(capsys, *argv)
        assert first_code == second_code == expected_code
        assert first_out.encode() == second_out.encode() == want

    def test_lift_prints_the_bottom_diagonal(self, capsys):
        _, out = run_cli(capsys, *self.CASES[0][2])
        assert "lift: found" in out
        assert "map diagonal : D1 -> D1" in out
        assert "  01 -> 01" in out

    def test_rlp_lists_unsolved_square(self, capsys):
        _, out = run_cli(capsys, *self.CASES[1][2])
        assert "fail" in out.splitlines()[0]
        assert any(line.endswith("unsolved") for line in out.splitlines())

    def test_factorize_report_header(self, capsys):
        _, out = run_cli(capsys, *self.CASES[2][2])
        head = out.splitlines()[1]
        assert "stages_run=2" in head
        assert "residual=0" in head
        assert "converged=yes" in head

    def test_subprocess_matches_inprocess(self):
        # the module entry point, run from the sources imported here,
        # produces the same bytes
        want = (GOLDEN / "factorize_insert.txt").read_bytes()
        src = pathlib.Path(ssetkit.__file__).resolve().parent.parent
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-m", "ssetkit.cli"] + self.CASES[2][2],
            capture_output=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == want


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "validate", str(DATA / "nope.sset"))
        assert code == 2

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_text("sset/1\ngarbage\n")
        code, _ = run_cli(capsys, "validate", str(bad))
        assert code == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_text("sset/1\ngarbage\n")
        main(["validate", str(bad)])
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("argv", [
        ["validate"], ["hom", "--source", "A", "--target", "A", "--count"]],
        ids=["validate", "hom"])
    def test_conflicting_faces_lines_are_input_error(self, capsys, argv):
        code = main([argv[0], str(DATA / "duplicate_faces.sset")] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "line 9: duplicate faces line for 'e'" in captured.err

    def test_faces_line_for_a_vertex_is_input_error(self, capsys):
        code = main(["validate", str(DATA / "vertex_faces.sset")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "line 7: faces line for 'x', a vertex of object 'A'" \
            in captured.err

    def test_unknown_map_is_input_error(self, capsys):
        code = main(["rlp", str(DATA / "rlp_boundary.sset"),
                     "--map", "ghost", "--gen", "I", "--cap", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown map 'ghost'\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "--object", "zz"],
        ["hom", "--source", "zz", "--target", "circle"],
        ["homology", "--object", "zz"]],
        ids=["validate", "hom", "homology"])
    def test_unknown_object_is_input_error(self, capsys, argv):
        code = main([argv[0], str(DATA / "homology.sset")] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown object 'zz'\n"

    def test_invalid_object_reported_by_validate(self, tmp_path, capsys):
        doc = tmp_path / "invalid.sset"
        doc.write_text("""sset/1

object BAD
  dim 0: x
  dim 1: e
  faces e: x ghost
""")
        code, out = run_cli(capsys, "validate", str(doc))
        assert code == 1
        assert "INVALID" in out
        assert "dangling" in out

    def test_invalid_object_blocks_other_commands(self, tmp_path, capsys):
        doc = tmp_path / "invalid.sset"
        doc.write_text("""sset/1

object BAD
  dim 0: x
  dim 1: e
  faces e: x ghost

object P
  dim 0: p

map f : BAD -> P
  x -> p
  e -> s[0]·p
""")
        code, _ = run_cli(capsys, "we-cert", str(doc), "--map", "f")
        assert code == 2

    def assert_input_error(self, capsys, argv, *names):
        """Exit 2 with one `error:` line naming each of `names`, and
        nothing on stdout."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert all(name in captured.err for name in names)

    VALIDATE = ["validate", str(DATA / "homology.sset")]

    def test_out_path_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "x.txt"
        self.assert_input_error(capsys, self.VALIDATE + ["--out", str(out)],
                                str(out))
        assert not out.parent.exists()

    def test_out_path_that_is_a_directory(self, tmp_path, capsys):
        self.assert_input_error(capsys,
                                self.VALIDATE + ["--out", str(tmp_path)],
                                str(tmp_path))

    def test_undecodable_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.sset"
        bad.write_bytes(b"sset/1\n\xff\xfe\n")
        self.assert_input_error(capsys, ["validate", str(bad)], str(bad),
                                "not UTF-8 text")

    def test_impossible_horn(self, capsys):
        path = str(DATA / "bad_horn.cellpres")
        self.assert_input_error(capsys, ["realize", path], path,
                                "line 3: horn: need n >= 1 and 0 <= k <= n")

    def test_edge_sent_to_a_vertex(self, tmp_path, capsys):
        doc = tmp_path / "drop.sset"
        doc.write_text("sset/1\n\nobject A\n  dim 0: a b\n  dim 1: e\n"
                       "  faces e: b a\n\nobject P\n  dim 0: p\n\n"
                       "map f : A -> P\n  a -> p\n  b -> p\n  e -> p\n")
        code = main(["we-cert", str(doc), "--map", "f"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: map 'f' is not simplicial:\n"
                                "image of e has wrong dimension\n")

    def test_non_integer_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rlp", str(DATA / "rlp_boundary.sset"), "--map", "collapse",
                  "--gen", "I", "--cap", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --cap: expected a nonnegative integer, got 'x'" in err
        assert "Traceback" not in err

    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(DATA / "rlp_boundary.sset"), "--bogus"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("images,message", [
        # the image of a vertex names a simplex the target lacks
        ("a -> zz\n  b -> p\n  e -> s[0]·p", "'zz', which is not a simplex"),
        # s[1] is no degeneracy word of an edge on a vertex
        ("a -> p\n  b -> p\n  e -> s[1]·p", "not in normal form"),
    ], ids=["unknown_image", "bad_word"])
    def test_ill_formed_map_image_is_input_error(self, tmp_path, capsys,
                                                 images, message):
        doc = tmp_path / "bad.sset"
        doc.write_text(f"""sset/1

object A
  dim 0: a b
  dim 1: e
  faces e: b a

object P
  dim 0: p

map i : A -> A
  a -> a
  b -> b
  e -> e

map g : A -> P
  {images}
""")
        code = main(["pushout", str(doc), "--i", "i", "--g", "g"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_ill_formed_attaching_map_is_input_error(self, tmp_path, capsys):
        text = (DATA / "horn_fill.cellpres").read_text()
        head, _, rest = text.partition("object stage1\n")
        doc = tmp_path / "bad.cellpres"
        doc.write_text(head + rest[rest.index("map attach1_0"):]
                       .replace("  01 -> 01", "  01 -> 12"))
        code, out = run_cli(capsys, "realize", str(doc))
        assert code == 2
        assert out == ""

    def test_invalid_cellpres_base_is_input_error(self, tmp_path, capsys):
        doc = tmp_path / "ghost.cellpres"
        doc.write_text("cellpres/1\nbase base\nsset/1\n\nobject base\n"
                       "  dim 0: 0\n  dim 1: e\n  faces e: 0 ghost\n")
        code = main(["realize", str(doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "base 'base' is not a valid simplicial set" in captured.err


    def test_cell_name_collision_is_input_error(self, tmp_path, capsys):
        # the base already has a simplex named like stage 1's first cell
        doc = tmp_path / "collide.cellpres"
        doc.write_text("cellpres/1\nbase base\n"
                       "stage=1 gen=I n=1 attach=attach1_0\nsset/1\n\n"
                       "object base\n  dim 0: c1_0_01\n\n"
                       "object boundary1\n  dim 0: 0 1\n\n"
                       "map attach1_0 : boundary1 -> base\n"
                       "  0 -> c1_0_01\n  1 -> c1_0_01\n")
        code = main(["realize", str(doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "attached-cell names collide" in captured.err

    # two points, the interval, the inclusion of its ends, the identities,
    # the end map sending both ends to 1, the constant map at 0
    ENDS = ("sset/1\n\nobject B\n  dim 0: 0 1\n\n"
            "object D\n  dim 0: 0 1\n  dim 1: 01\n  faces 01: 1 0\n\n"
            "map inc : B -> D\n  0 -> 0\n  1 -> 1\n\n"
            "map idB : B -> B\n  0 -> 0\n  1 -> 1\n\n"
            "map idD : D -> D\n  0 -> 0\n  1 -> 1\n  01 -> 01\n\n"
            "map high : B -> D\n  0 -> 1\n  1 -> 1\n\n"
            "map low : D -> D\n  0 -> 0\n  1 -> 0\n  01 -> s[0]·0\n")

    @pytest.mark.parametrize("argv,message", [
        (["pushout", "--i", "inc", "--g", "idD"],
         "the two maps must share a source"),
        (["lift", "--left", "inc", "--right", "idD", "--top", "high",
          "--bottom", "idD"], "lifting problem: square does not commute"),
        (["functorial", "--map", "inc", "--map2", "inc", "--top", "idB",
          "--bottom", "low", "--gen", "I", "--cap", "0"],
         "the square (top, bottom) does not commute with the two maps"),
    ], ids=["pushout-sources", "lift-square", "functorial-square"])
    def test_maps_that_do_not_fit_are_input_errors(self, tmp_path, capsys,
                                                   argv, message):
        doc = tmp_path / "ends.sset"
        doc.write_text(self.ENDS, encoding="utf-8")
        self.assert_input_error(capsys, [argv[0], str(doc), *argv[1:]],
                                message)


class TestParserReuse:
    CALLS = [
        ["homology", str(DATA / "homology.sset"), "--object", "circle",
         "--maxdim", "2"],
        ["validate", str(DATA / "rlp_boundary.sset"), "--bogus"],
        ["we-cert", str(DATA / "homology.sset"), "--map", "horn_inc"],
        ["hom", str(DATA / "functorial.sset"), "--source", "P",
         "--target", "PP", "--count"],
        ["rlp", str(DATA / "rlp_boundary.sset"), "--map", "collapse",
         "--gen", "I", "--cap", "1"],
        ["homology", str(DATA / "homology.sset"), "--object", "circle"],
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        fresh = []
        for argv in self.CALLS:
            _build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        _build_parser.cache_clear()
        in_a_row = [self.call(capsys, argv) for argv in self.CALLS]
        assert _build_parser.cache_info().misses == 1
        assert in_a_row == fresh
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 1, 0]


class TestRealizeOnce:
    """realize, factor-stage and j2i use the realization that parsing the
    presentation computed; j2i realizes only the converted presentation,
    to print it."""

    @pytest.mark.parametrize("argv,closings", [
        (["realize", str(DATA / "horn_fill.cellpres")], 1),
        (["factor-stage", str(DATA / "circle.cellpres"), "--map", "probe"],
         1),
        (["j2i", str(DATA / "horn_fill.cellpres")], 2),
    ], ids=["realize", "factor-stage", "j2i"])
    def test_one_realization_per_presentation(self, monkeypatch, capsys,
                                              argv, closings):
        realized = []
        real = cells.PresentationBuilder.realized
        monkeypatch.setattr(cells.PresentationBuilder, "realized",
                            lambda self: realized.append(self) or real(self))
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(realized) == closings


class TestValidateOnce:
    """Each command validates each distinct object once, in the order of
    first occurrence: the objects of each named map in document order."""

    # validate calls per command: hom 1 (was 2), lift 4 (8), functorial 3
    # (7), pushout 3 (4), when each named map validated its objects afresh
    @pytest.mark.parametrize("argv,calls,objects", [
        (["hom", str(DATA / "functorial.sset"), "--source", "P",
          "--target", "P", "--count"], 1, ["P"]),
        (["lift", str(DATA / "lift_none.sset"), "--left", "horn",
          "--right", "collapse", "--top", "top", "--bottom", "bottom"],
         4, ["L21", "D2", "B2", "P"]),
        (["functorial", str(DATA / "functorial.sset"), "--map", "insert",
          "--map2", "insert2", "--top", "idE", "--bottom", "pick_a",
          "--gen", "I", "--cap", "1", "--budget", "2"], 3, ["E", "P", "PP"]),
        (["pushout", str(DATA / "pushout_collapse.sset"), "--i", "edge",
          "--g", "collapse"], 3, ["E", "T", "P"]),
    ], ids=["hom", "lift", "functorial", "pushout"])
    def test_each_object_once(self, monkeypatch, capsys, argv, calls,
                              objects):
        validated = []
        real = core.validate
        monkeypatch.setattr(core, "validate",
                            lambda s: validated.append(s) or real(s))
        code, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        doc = formats.parse_document(pathlib.Path(argv[1]).read_text())
        assert len(validated) == calls
        assert validated == [doc.objects[name] for name in objects]

    def test_the_first_invalid_object_is_reported(self, tmp_path, capsys):
        doc = tmp_path / "two_invalid.sset"
        bad = "  dim 1: e\n  faces e: x ghost\n"
        doc.write_text(f"sset/1\n\nobject P\n  dim 0: p\n\n"
                       f"object B1\n  dim 0: x\n{bad}\n"
                       f"object B2\n  dim 0: x y\n{bad}\n"
                       "map f : P -> B2\n  p -> x\n\n"
                       "map g : P -> B1\n  p -> x\n")
        code = main(["pushout", str(doc), "--i", "f", "--g", "g"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: object 'B2' is invalid:\n")


class TestDeclaredNames:
    """Objects equal in value keep the names their maps were declared
    with, in errors and in reports."""

    def test_an_invalid_object_is_named_as_declared(self, capsys):
        code = main(["we-cert", str(DATA / "invalid_twins.sset"),
                     "--map", "f"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: object 'B2' is invalid:\n")

    def test_pushout_names_each_leg_as_declared(self, tmp_path, capsys):
        doc = tmp_path / "twins.sset"
        doc.write_text("sset/1\n\nobject A\n  dim 0: x\n\n"
                       "object B1\n  dim 0: x\n\nobject B2\n  dim 0: x\n\n"
                       "map i : A -> B2\n  x -> x\n\n"
                       "map g : A -> B1\n  x -> x\n")
        code, out = run_cli(capsys, "pushout", str(doc), "--i", "i",
                            "--g", "g")
        assert code == 0
        assert out == ("pushout: corner has 1 simplices\n"
                       "provenance i0_x: glued\n\nsset/1\n\n"
                       "object B2\n  dim 0: x\n\nobject B1\n  dim 0: x\n\n"
                       "object corner\n  dim 0: i0_x\n\n"
                       "map leg_b : B2 -> corner\n  x -> i0_x\n\n"
                       "map leg_c : B1 -> corner\n  x -> i0_x\n")


class TestOtherCommands:
    def test_hom_count(self, capsys):
        code, out = run_cli(capsys, "hom", str(DATA / "functorial.sset"),
                            "--source", "P", "--target", "PP", "--count")
        assert code == 0
        assert out == "hom P -> PP: 2 maps\n"

    def test_pushout(self, capsys):
        code, out = run_cli(capsys, "pushout", str(DATA / "functorial.sset"),
                            "--i", "bid", "--g", "binc")
        assert code == 0
        assert "corner has 1 simplices" in out

    def test_realize_and_birth(self, capsys):
        code, out = run_cli(capsys, "realize", str(DATA / "circle.cellpres"))
        assert code == 0
        assert "birth c1_0_0=1" in out
        assert "birth c2_0_01=2" in out

    def test_factor_stage(self, capsys):
        code, out = run_cli(capsys, "factor-stage",
                            str(DATA / "circle.cellpres"), "--map", "probe")
        assert code == 0
        assert out.startswith("factor-stage: k=1")

    def test_j2i(self, capsys):
        code, out = run_cli(capsys, "j2i", str(DATA / "horn_fill.cellpres"))
        assert code == 0
        assert "attachments 1 -> 2" in out
        assert "isomorphism verified" in out

    def test_j2i_mixed_is_input_error(self, capsys):
        code, _ = run_cli(capsys, "j2i", str(DATA / "circle.cellpres"))
        assert code == 2

    def test_homology(self, capsys):
        code, out = run_cli(capsys, "homology", str(DATA / "homology.sset"),
                            "--object", "circle", "--maxdim", "2")
        assert code == 0
        assert "H0 = Z\nH1 = Z\nH2 = 0" in out

    def test_we_cert_pass(self, capsys):
        code, out = run_cli(capsys, "we-cert", str(DATA / "homology.sset"),
                            "--map", "horn_inc", "--maxdim", "3")
        assert code == 0
        assert out == "we-cert: pass\n"

    def test_functorial(self, capsys):
        code, out = run_cli(capsys, "functorial",
                            str(DATA / "functorial.sset"),
                            "--map", "insert", "--map2", "insert2",
                            "--top", "idE", "--bottom", "pick_a",
                            "--gen", "I", "--cap", "0", "--budget", "1")
        assert code == 0
        assert "map h1 : a1 -> b1" in out

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out = run_cli(capsys, "we-cert", str(DATA / "homology.sset"),
                            "--map", "horn_inc", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "we-cert: pass\n"


class TestCountFlags:
    """`--cap`, `--budget` and `--maxdim` take nonnegative integers: a
    negative value is a usage error (exit 2, no traceback), and 0 is
    accepted."""

    FUNCTORIAL = ["functorial", str(DATA / "functorial.sset"),
                  "--map", "insert", "--map2", "insert2", "--top", "idE",
                  "--bottom", "pick_a", "--gen", "I"]
    # (argv, flag, exit code with the flag at 0)
    CASES = [
        (["factorize", str(DATA / "factorize_insert.sset"), "--map",
          "insert", "--gen", "I"], "--budget", 1),
        (["factorize", str(DATA / "factorize_insert.sset"), "--map",
          "insert", "--gen", "I"], "--cap", 0),
        (FUNCTORIAL + ["--cap", "0"], "--budget", 0),
        (FUNCTORIAL + ["--budget", "1"], "--cap", 0),
        (["rlp", str(DATA / "rlp_boundary.sset"), "--map", "collapse",
          "--gen", "I"], "--cap", 0),
        (["homology", str(DATA / "homology.sset"), "--object", "circle"],
         "--maxdim", 0),
        (["we-cert", str(DATA / "homology.sset"), "--map", "horn_inc"],
         "--maxdim", 0),
    ]
    IDS = [f"{argv[0]}{flag}" for argv, flag, _ in CASES]

    @pytest.mark.parametrize("argv,flag,_", CASES, ids=IDS)
    def test_negative_is_usage_error(self, capsys, argv, flag, _):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a nonnegative integer, got " \
            "'-1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag,code", CASES, ids=IDS)
    def test_zero_is_accepted(self, capsys, argv, flag, code):
        assert run_cli(capsys, *argv, flag, "0")[0] == code

    def test_homology_at_zero_prints_h0(self, capsys):
        code, out = run_cli(capsys, "homology", str(DATA / "homology.sset"),
                            "--object", "circle", "--maxdim", "0")
        assert (code, out) == (0, "homology object=circle maxdim=0\n"
                                  "H0 = Z\n")


class TestMaxdimLimit:
    """`--maxdim` is refused above `MAXDIM_LIMIT` while the arguments are
    parsed: exit 2, no traceback, nothing computed."""

    CASES = [["homology", str(DATA / "homology.sset"), "--object", "circle"],
             ["we-cert", str(DATA / "homology.sset"), "--map", "horn_inc"]]

    def test_the_limit_is_the_documented_one(self):
        # the README and the CI's console-script step name this value
        assert MAXDIM_LIMIT == 64

    @pytest.mark.parametrize("argv", CASES, ids=["homology", "we-cert"])
    def test_just_above_the_limit_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--maxdim", str(MAXDIM_LIMIT + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --maxdim: expected at most {MAXDIM_LIMIT}, got "
                f"'{MAXDIM_LIMIT + 1}'") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,code", zip(CASES, (0, 0)),
                             ids=["homology", "we-cert"])
    def test_the_limit_is_accepted(self, capsys, argv, code):
        got, out = run_cli(capsys, *argv, "--maxdim", str(MAXDIM_LIMIT))
        assert got == code
        if argv[0] == "homology":
            assert out.splitlines()[-1] == f"H{MAXDIM_LIMIT} = 0"


class TestDeepObject:
    """The 40-sphere of data/sphere40.sset through every subcommand that
    reads an sset/1 file, under a recursion limit of 100: no code path may
    be bounded by Python's recursion limit."""

    SPHERE = str(DATA / "sphere40.sset")
    CALLS = [
        ["validate"],
        ["hom", "--source", "S", "--target", "S"],
        ["pushout", "--i", "c", "--g", "c"],
        ["lift", "--left", "idS", "--right", "c", "--top", "idS",
         "--bottom", "c"],
        ["rlp", "--map", "c", "--gen", "I"],
        ["factorize", "--map", "c", "--gen", "I"],
        ["functorial", "--map", "c", "--map2", "c", "--top", "idS",
         "--bottom", "idP", "--gen", "I"],
        ["homology", "--object", "S"],
        ["we-cert", "--map", "c"],
    ]

    def test_every_command_under_a_low_recursion_limit(self, capsys):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            codes = [main([argv[0], self.SPHERE] + argv[1:])
                     for argv in self.CALLS]
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        assert codes == [0] * len(self.CALLS)
        assert captured.err == ""
        assert "hom S -> S: 2 maps" in captured.out
