"""parse . print = id: objects and maps through `print_document` and
`parse_document`, presentations through `print_cellpres` and
`parse_cellpres`, and the sset/1 section of every CLI report that prints
maps, which must parse back to the maps it printed.  Object names are
drawn from a pool that includes the names the reports use themselves."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from instances import (
    NONEMPTY_POOL,
    SMALL_POOL,
    TINY_POOL,
    pick_map,
    random_presentation,
)
from ssetkit.cells import CellPresentation, factor_through_stage
from ssetkit.cli import main
from ssetkit.colimits import pushout
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    compose,
    enumerate_maps,
    identity,
    simplex,
)
from ssetkit.factorization import factorize, induced_factorization_map
from ssetkit.formats import (
    Document,
    parse_cellpres,
    parse_document,
    print_cellpres,
    print_document,
)
from ssetkit.lifting import Lift, enumerate_squares, solve_lift


def sphere2():
    v = SimplexRef("v", (0,))
    return FiniteSimplicialSet({0: ["v"], 2: ["t"]}, {"t": [v, v, v]})


POOL = SMALL_POOL + [sphere2()]

# the names reports give their own objects, and a few plain ones
NAMES = ["corner", "b", "c", "x", "k", "final", "a0", "b0", "a1", "b1",
         "P", "Q", "R", "S"]

seeds = st.integers(0, 2 ** 32 - 1)


def names(count):
    return st.lists(st.sampled_from(NAMES), min_size=count,
                    max_size=count, unique=True)


def document(objects, maps=()):
    doc = Document()
    for name, obj in objects:
        doc.objects[name] = obj
    for name, f, src, tgt in maps:
        doc.add_map(name, f, src, tgt)
    return doc


def run(doc_text, *argv):
    """Run the CLI on a document; returns the exit code and the report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.doc"
        path.write_text(doc_text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue()


def section(report):
    """The sset/1 section of a report, parsed, after checking that it
    prints back to the same text and that every object is valid."""
    text = report[report.index("sset/1\n"):]
    doc = parse_document(text)
    assert print_document(doc) == text
    assert run(text, "validate")[0] == 0
    return doc


# ---------------------------------------------------------------------------
# sset/1 and cellpres/1


class TestDocuments:
    @settings(max_examples=60, deadline=None)
    @given(seeds, names(4))
    def test_objects_and_maps(self, seed, labels):
        rng = random.Random(seed)
        objects = [(name, rng.choice(POOL)) for name in labels]
        maps = []
        for t in range(rng.randint(0, 4)):
            (a_name, a), (x_name, x) = rng.choice(objects), rng.choice(objects)
            f = pick_map(rng, a, x)
            if f is not None:
                maps.append((f"m{t}", f, a_name, x_name))
        doc = document(objects, maps)
        text = print_document(doc)
        back = parse_document(text)
        assert back.objects == doc.objects
        assert back.maps == doc.maps
        assert back.map_endpoints == doc.map_endpoints
        assert print_document(back) == text


class TestPresentations:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.booleans())
    def test_presentation_and_stages(self, seed, carried):
        rng = random.Random(seed)
        builder = random_presentation(rng, rng.choice(TINY_POOL), 3, 4)
        pres = builder.presentation()
        if not carried:
            # the same presentation, glued on first use
            pres = CellPresentation(pres.base, pres.stages)
        text = print_cellpres(pres)
        back, doc = parse_cellpres(text)
        assert back == pres
        stages = pres.realization.objects
        assert back.realization.objects == stages
        assert [doc.objects[f"stage{s}"] for s in range(1, len(stages))] \
            == stages[1:]
        assert print_cellpres(back) == text


# ---------------------------------------------------------------------------
# CLI reports


class TestReports:
    @settings(max_examples=30, deadline=None)
    @given(seeds, names(2))
    def test_hom(self, seed, labels):
        rng = random.Random(seed)
        a, x = rng.choice(TINY_POOL), rng.choice(TINY_POOL)
        doc = document(zip(labels, (a, x)))
        code, report = run(print_document(doc), "hom", "--source",
                           labels[0], "--target", labels[1])
        assert code == 0
        back = section(report)
        homs = enumerate_maps(a, x)
        assert [back.maps[f"hom{t}"] for t in range(len(homs))] == list(homs)

    @settings(max_examples=60, deadline=None)
    @given(seeds, names(3))
    def test_pushout(self, seed, labels):
        rng = random.Random(seed)
        a = rng.choice(TINY_POOL)
        b, c = rng.choice(POOL), rng.choice(POOL)
        i, g = pick_map(rng, a, b), pick_map(rng, a, c)
        assume(i is not None and g is not None)
        doc = document(zip(labels, (a, b, c)),
                       [("i", i, labels[0], labels[1]),
                        ("g", g, labels[0], labels[2])])
        code, report = run(print_document(doc), "pushout", "--i", "i",
                           "--g", "g")
        assert code == 0
        back = section(report)
        p = pushout(i, g)
        assert back.maps["leg_b"] == p.leg_from_b
        assert back.maps["leg_c"] == p.leg_from_c

    @settings(max_examples=40, deadline=None)
    @given(seeds, names(4))
    def test_lift(self, seed, labels):
        rng = random.Random(seed)
        a, b = rng.choice(TINY_POOL), rng.choice(TINY_POOL)
        x, y = rng.choice(TINY_POOL), rng.choice(TINY_POOL)
        i, f = pick_map(rng, a, b), pick_map(rng, x, y)
        assume(i is not None and f is not None)
        squares = enumerate_squares(i, f)
        assume(squares)
        sq = rng.choice(squares)
        found = solve_lift(sq)
        assume(isinstance(found, Lift))
        doc = document(zip(labels, (a, b, x, y)),
                       [("i", i, labels[0], labels[1]),
                        ("f", f, labels[2], labels[3]),
                        ("top", sq.top, labels[0], labels[2]),
                        ("bottom", sq.bottom, labels[1], labels[3])])
        code, report = run(print_document(doc), "lift", "--left", "i",
                           "--right", "f", "--top", "top", "--bottom",
                           "bottom")
        assert code == 0
        assert section(report).maps["diagonal"] == found.diagonal

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.sampled_from(["k", "final", "corner", "P"]))
    def test_realize_and_factor_stage(self, seed, probe_name):
        rng = random.Random(seed)
        pres = random_presentation(rng, rng.choice(TINY_POOL), 2,
                                   3).presentation()
        final = pres.realization.final
        m = pick_map(rng, rng.choice(NONEMPTY_POOL[:4]), final)
        assume(m is not None)
        last = f"stage{len(pres.stages)}"
        text = print_cellpres(pres) + print_document(document(
            [(probe_name, m.source)],
            [("probe", m, probe_name, last)]))[len("sset/1\n"):]

        code, report = run(text, "realize")
        assert code == 0
        assert section(report).objects["final"] == final

        code, report = run(text, "factor-stage", "--map", "probe")
        assert code == 0
        k, factored = factor_through_stage(pres.realization, m)
        assert report.startswith(f"factor-stage: k={k}\n")
        assert section(report).maps["factored"] == factored

    @settings(max_examples=15, deadline=None)
    @given(seeds, names(3))
    def test_functorial(self, seed, labels):
        rng = random.Random(seed)
        f = pick_map(rng, rng.choice(TINY_POOL[:4]), rng.choice(TINY_POOL))
        assume(f is not None)
        y2 = rng.choice(TINY_POOL)
        v = pick_map(rng, f.target, y2)
        assume(v is not None)
        f2 = compose(v, f)
        x, y = labels[0], labels[1]
        doc = document([(x, f.source), (y, f.target), (labels[2], y2)],
                       [("f", f, x, y), ("f2", f2, x, labels[2]),
                        ("u", identity(f.source), x, x), ("v", v, y,
                                                          labels[2])])
        code, report = run(print_document(doc), "functorial", "--map", "f",
                           "--map2", "f2", "--top", "u", "--bottom", "v",
                           "--gen", "I", "--cap", "1", "--budget", "1")
        assert code == 0
        back = section(report)
        r = factorize(f, "I", cap=1, mode="faithful", budget=1)
        r2 = factorize(f2, "I", cap=1, mode="faithful", budget=1)
        maps = induced_factorization_map(identity(f.source), v, r, r2)
        assert [back.maps[f"h{k}"] for k in range(len(maps))] == maps


class TestPushoutCornerName:
    def test_input_object_named_corner(self):
        # the report used to name its corner "corner" although an input
        # object had that name, printing leg_b : corner -> corner
        a, edge, c = simplex(0), simplex(1), simplex(0)
        doc = document([("A", a), ("corner", edge), ("C", c)], [
            ("i", enumerate_maps(a, edge)[0], "A", "corner"),
            ("g", identity(a), "A", "C")])
        code, report = run(print_document(doc), "pushout", "--i", "i",
                           "--g", "g")
        assert code == 0
        assert "map leg_b : corner -> corner_" in report
        back = section(report)
        p = pushout(doc.maps["i"], doc.maps["g"])
        assert back.objects["corner"] == edge
        assert back.maps["leg_b"] == p.leg_from_b
        assert back.maps["leg_c"] == p.leg_from_c
