import pathlib

import pytest

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    horn,
    identity,
    simplex,
    validate,
)
from ssetkit.cells import PresentationBuilder
from ssetkit.factorization import factorize
from ssetkit.formats import (
    Document,
    FormatError,
    parse_cellpres,
    parse_document,
    print_cellpres,
    print_document,
    print_soa,
)

DATA = pathlib.Path(__file__).parent / "data"

SAMPLE = """sset/1

object A
  dim 0: x y
  dim 1: e
  faces e: y x

object P
  dim 0: p

map collapse : A -> P
  x -> p
  y -> p
  e -> s[0]·p
"""


def circle_doc():
    doc = Document()
    doc.objects["C"] = FiniteSimplicialSet(
        {0: ["v"], 1: ["e"]},
        {"e": [SimplexRef("v"), SimplexRef("v")]})
    return doc


class TestSsetFormat:
    def test_parse_sample(self):
        doc = parse_document(SAMPLE)
        assert set(doc.objects) == {"A", "P"}
        assert doc.objects["A"].size() == 3
        f = doc.maps["collapse"]
        assert f.images["e"] == SimplexRef("p", (0,))

    def test_roundtrip(self):
        doc = parse_document(SAMPLE)
        text = print_document(doc)
        assert text == SAMPLE
        assert print_document(parse_document(text)) == text

    def test_roundtrip_standard_objects(self):
        doc = Document()
        doc.objects["b2"] = boundary(2)
        doc.objects["s2"] = simplex(2)
        doc.maps["inc"] = SimplicialMap(
            boundary(2), simplex(2),
            {n: SimplexRef(n) for n in boundary(2).names()})
        text = print_document(doc)
        again = parse_document(text)
        assert again.objects["b2"] == boundary(2)
        assert again.maps["inc"] == doc.maps["inc"]
        assert print_document(again) == text

    def test_comments_and_blanks_ignored(self):
        noisy = SAMPLE.replace("object P", "# a comment\n\nobject P")
        doc = parse_document(noisy)
        assert set(doc.objects) == {"A", "P"}

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_document("object A\n")

    def test_bad_ref(self):
        bad = SAMPLE.replace("s[0]·p", "s[0]p")
        with pytest.raises(FormatError):
            parse_document(bad)

    def test_unknown_source_object(self):
        bad = SAMPLE.replace("map collapse : A -> P",
                             "map collapse : Z -> P")
        with pytest.raises(FormatError, match="unknown object"):
            parse_document(bad)

    def test_incomplete_map(self):
        bad = SAMPLE.replace("  e -> s[0]·p\n", "")
        with pytest.raises(FormatError, match="lacks images"):
            parse_document(bad)

    def test_error_carries_line_number(self):
        bad = SAMPLE + "garbage line\n"
        with pytest.raises(FormatError) as err:
            parse_document(bad)
        assert err.value.line_no == len(SAMPLE.splitlines()) + 1

    def test_parsed_objects_can_be_invalid(self):
        # validation is the caller's concern; parsing just reads structure
        text = """sset/1

object BAD
  dim 0: x
  dim 1: e
  faces e: x ghost
"""
        doc = parse_document(text)
        assert not validate(doc.objects["BAD"]).ok

    @pytest.mark.parametrize("old,new,line_no,message", [
        ("  faces e: y x\n", "  faces e: y x\n  faces e: x x\n", 7,
         "duplicate faces line for 'e'"),
        ("  x -> p\n", "  x -> p\n  x -> p\n", 13,
         "duplicate image line for 'x'"),
        ("  dim 0: p\n", "  dim 0: p\n  faces zz: p p\n", 10,
         "faces line for 'zz', which no dim line of object 'P' declares"),
        ("  dim 0: p\n", "  dim 0: p\n  faces p: p p\n", 10,
         "faces line for 'p', a vertex of object 'P'"),
    ], ids=["faces", "image", "undeclared", "vertex"])
    def test_conflicting_lines_are_refused(self, old, new, line_no, message):
        # the second line, or the stray one, is named; none of them can
        # silently win or change the object
        with pytest.raises(FormatError, match=message) as err:
            parse_document(SAMPLE.replace(old, new))
        assert err.value.line_no == line_no

    def test_faces_line_may_precede_its_dim_line(self):
        text = SAMPLE.replace("  dim 1: e\n  faces e: y x\n",
                              "  faces e: y x\n  dim 1: e\n")
        assert parse_document(text).objects == parse_document(SAMPLE).objects


GHOST_BASE = """cellpres/1
base base
sset/1

object base
  dim 0: 0
  dim 1: e
  faces e: 0 ghost
"""


class TestCellpresFormat:
    def build(self):
        b = PresentationBuilder(horn(2, 1))
        b.attach("J", 2, 1, attaching=identity(horn(2, 1)))
        b.close_stage()
        vertex = "0"
        b.attach("I", 1, attaching=SimplicialMap(
            boundary(1), b.current,
            {"0": SimplexRef(vertex), "1": SimplexRef(vertex)}))
        b.close_stage()
        return b.presentation()

    def test_roundtrip(self):
        pres = self.build()
        text = print_cellpres(pres)
        parsed, doc = parse_cellpres(text)
        assert parsed == pres
        assert print_cellpres(parsed) == text

    def test_stage_objects_verified(self):
        # a declared stage object that disagrees with the recomputed
        # realization is rejected: tampering with the final stage hits the
        # declared-object check, tampering with an earlier one breaks the
        # attach maps that target it
        pres = self.build()
        text = print_cellpres(pres)
        head, _, tail = text.partition("object stage2\n  dim 0: ")
        verts, _, rest = tail.partition("\n")
        tampered = (head + "object stage2\n  dim 0: "
                    + " ".join(verts.split()[:-1]) + "\n" + rest)
        with pytest.raises(FormatError, match="stage2"):
            parse_cellpres(tampered)
        with pytest.raises(FormatError, match="stage"):
            parse_cellpres(text.replace("object stage1\n  dim 0: ",
                                        "object stage1\n  dim 0: extra ", 1))

    def test_attaching_maps_are_checked(self):
        # without a declared stage1 only the attaching map itself can show
        # that the horn's edge 01 does not go to an edge from 0 to 1
        text = (DATA / "horn_fill.cellpres").read_text()
        head, _, rest = text.partition("object stage1\n")
        undeclared = head + rest[rest.index("map attach1_0"):]
        parse_cellpres(undeclared)
        with pytest.raises(FormatError, match="line 3: map 'attach1_0' is "
                                              "not simplicial: face 0 of 01"):
            parse_cellpres(undeclared.replace("  01 -> 01", "  01 -> 12"))
        with pytest.raises(FormatError, match="'zz', which is not a simplex"):
            parse_cellpres(undeclared.replace("  2 -> 2", "  2 -> zz"))

    def test_attaching_map_into_invalid_object(self):
        text = (DATA / "horn_fill.cellpres").read_text()
        broken = text.replace("  faces 12: 2 1\n\nobject horn2_1",
                              "  faces 12: 2 ghost\n\nobject horn2_1", 1)
        with pytest.raises(FormatError, match="lands in an invalid object"):
            parse_cellpres(broken)

    def test_invalid_base_is_rejected(self):
        # without stages no attaching map ever reaches the base
        with pytest.raises(FormatError, match="line 2: base 'base' is not a "
                                              "valid simplicial set: e: face "
                                              "1 dangling reference"):
            parse_cellpres(GHOST_BASE)

    def test_missing_base(self):
        with pytest.raises(FormatError, match="base"):
            parse_cellpres("cellpres/1\nsset/1\n")

    def test_bad_stage_numbering(self):
        pres = self.build()
        text = print_cellpres(pres)
        bad = text.replace("stage=1 gen=J", "stage=2 gen=J", 1)
        with pytest.raises(FormatError, match="contiguous"):
            parse_cellpres(bad)

    HORN_STAGE = "stage=1 gen=J n=2 k=1 attach=attach1_0"

    @pytest.mark.parametrize("stage_line,message", [
        ("stage=1 gen=J n=2 attach=attach1_0",
         "line 3: horn generator needs k"),
        ("stage=1 gen=I n=2 k=1 attach=attach1_0",
         "line 3: boundary generator takes no k"),
        ("stage=1 gen=J n=2 k=0 attach=attach1_0",
         "line 3: map 'attach1_0' does not start at the declared generator "
         "source"),
        ("stage=1 gen=J n=2 k=5 attach=attach1_0",
         "line 3: horn: need n >= 1 and 0 <= k <= n"),
        ("stage=1 gen=J n=0 k=0 attach=attach1_0",
         "line 3: map 'attach1_0' does not start at the declared generator "
         "source"),
    ], ids=["horn_without_k", "boundary_with_k", "wrong_source",
            "horn_index_past_n", "horn_of_dimension_0"])
    def test_bad_stage_line(self, stage_line, message):
        text = (DATA / "horn_fill.cellpres").read_text()
        assert self.HORN_STAGE in text
        with pytest.raises(FormatError) as exc:
            parse_cellpres(text.replace(self.HORN_STAGE, stage_line))
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [14, 40])
    def test_large_generator_against_a_point(self, n):
        # told apart by the source's dimension; the boundary of the
        # 40-simplex would have 2^41 - 2 simplices
        text = (f"cellpres/1\nbase b\nstage=1 gen=I n={n} attach=m\n"
                "sset/1\n\nobject b\n  dim 0: v\n\nmap m : b -> b\n"
                "  v -> v\n")
        with pytest.raises(FormatError) as exc:
            parse_cellpres(text)
        assert str(exc.value) == ("line 3: map 'm' does not start at the "
                                  "declared generator source")

    def test_missing_sset_section(self):
        with pytest.raises(FormatError) as exc:
            parse_cellpres("cellpres/1\nbase base\n\n# no body\n")
        assert str(exc.value) == "line 2: missing embedded sset/1 section"

    def test_empty_presentation_roundtrip(self):
        from ssetkit.cells import CellPresentation
        pres = CellPresentation(simplex(1), ())
        text = print_cellpres(pres)
        parsed, _ = parse_cellpres(text)
        assert parsed == pres


class TestSoaFormat:
    def test_header_fields(self):
        f = SimplicialMap(FiniteSimplicialSet(), simplex(0), {})
        r = factorize(f, "I", cap=2, mode="reduced", budget=5)
        text = print_soa(r)
        head = text.splitlines()[1]
        assert "mode=reduced" in head
        assert "gen=I" in head
        assert "cap=2" in head
        assert "budget=5" in head
        assert "stages_run=2" in head
        assert "residual=0" in head
        assert "converged=yes" in head
        # body is a parseable presentation
        body = "\n".join(text.splitlines()[2:]) + "\n"
        parsed, _ = parse_cellpres(body)
        assert parsed == r.presentation


def document_with_a_stray_map():
    # a map whose objects the document neither holds nor declares
    doc = Document()
    doc.maps["f"] = identity(simplex(0))
    return print_document(doc)


FORMATS_GUARDS = [
    ("duplicate-map", lambda: parse_document(
        SAMPLE + "\nmap collapse : A -> P\n  x -> p\n"), FormatError,
     "line 16: duplicate map 'collapse'"),
    ("image-of-a-non-simplex", lambda: parse_document(
        SAMPLE.replace("  x -> p", "  zz -> p")), FormatError,
     "line 12: 'zz' is not a simplex of the source object"),
    ("print-map-without-its-objects", document_with_a_stray_map, ValueError,
     "map 'f' references an object missing from the document"),
    ("duplicate-base-line", lambda: parse_cellpres(
        "cellpres/1\nbase base\nbase base\nsset/1\n\nobject base\n"),
     FormatError, "line 3: duplicate base line"),
]


@pytest.mark.parametrize("case,exc,match", [g[1:] for g in FORMATS_GUARDS],
                         ids=[g[0] for g in FORMATS_GUARDS])
def test_every_guard_raises(case, exc, match):
    with pytest.raises(exc, match=match):
        case()
