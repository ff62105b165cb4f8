"""The indexed search against the searches it replaced (`naive_search`):
the same hom-sets in the same order, the same least lifts or the same
refutation counts, and the same lists of squares."""

import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_search as naive
from instances import TINY_POOL, circle, two_points, wedge_two_loops
from ssetkit import cells, cli, colimits, core, factorization, formats
from ssetkit import homology, lifting
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    enumerate_maps,
    extensions,
    horn,
    identity,
    simplex,
)
from ssetkit.factorization import factorize
from ssetkit.formats import Document, print_document
from ssetkit.lifting import (
    Lift,
    LiftingProblem,
    NoLift,
    enumerate_squares,
    generator_family,
    solve_lift,
)


def sphere2():
    # the 2-sphere as one 2-simplex with its whole boundary collapsed: all
    # three faces are degenerate
    v = SimplexRef("v", (0,))
    return FiniteSimplicialSet({0: ["v"], 2: ["t"]}, {"t": [v, v, v]})


def dunce_cap():
    # one vertex, one loop, one 2-simplex glued along the loop three times
    e = SimplexRef("e")
    return FiniteSimplicialSet({0: ["v"], 1: ["e"], 2: ["t"]},
                               {"e": [SimplexRef("v"), SimplexRef("v")],
                                "t": [e, e, e]})


STANDARD = [simplex(0), simplex(1), simplex(2), boundary(1), boundary(2),
            boundary(3), horn(2, 0), horn(2, 1), horn(3, 2)]
QUOTIENTS = [circle(), wedge_two_loops(), sphere2(), dunce_cap()]

# (map, kind, cap, budget): short reduced runs whose stage objects have
# degenerate faces and whose projections have degenerate images
RUNS = [
    ((circle(), simplex(0), 0), "I", 2, 2),
    ((boundary(1), simplex(0), 0), "J", 1, 2),
    ((simplex(0), circle(), 0), "J", 2, 1),
    ((two_points(), simplex(1), 1), "I", 2, 1),
    ((boundary(1), circle(), 0), "I", 1, 2),
    ((simplex(1), circle(), 1), "I", 2, 1),
    ((circle(), simplex(0), 0), "I", 3, 2),
    ((simplex(1), circle(), 0), "J", 1, 3),
]


@lru_cache(maxsize=1)
def stage_maps():
    """The projections W_k -> Y of every stage of the runs in RUNS."""
    out = []
    for (a, x, idx), kind, cap, budget in RUNS:
        f = enumerate_maps(a, x)[idx]
        run = factorize(f, kind, cap=cap, mode="reduced", budget=budget)
        out.extend(stage.p for stage in run.stages)
    return out


def stage_objects():
    return [p.source for p in stage_maps()]


def targets():
    return STANDARD + QUOTIENTS + TINY_POOL + stage_objects()


def sources():
    # hom-sets out of the larger stage objects are too big for the oracle
    return [s for s in targets() if s.size() <= 8]


# left legs: the generators, and maps with degenerate images
def left_maps():
    gens = [g for kind, cap in (("I", 2), ("J", 2))
            for _, g in generator_family(kind, cap)]
    collapses = [enumerate_maps(a, x)[0] for a, x in (
        (simplex(1), simplex(0)), (boundary(1), simplex(0)),
        (circle(), simplex(0)), (horn(2, 1), simplex(1)))]
    return gens + collapses + list(enumerate_maps(simplex(2), simplex(1)))


# right legs: stage projections and maps between small objects
def right_maps():
    small = [simplex(0), two_points(), simplex(1), boundary(1), circle()]
    return stage_maps() + [f for a in small for x in small
                           for f in enumerate_maps(a, x)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hom_sets_match_the_naive_search(data):
    a = data.draw(st.sampled_from(sources()), label="a")
    x = data.draw(st.sampled_from(targets()), label="x")
    assert enumerate_maps(a, x) == naive.enumerate_maps(a, x)
    assert tuple(extensions(a, x)) == naive.enumerate_maps(a, x)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_squares_and_lifts_match_the_naive_search(data):
    i = data.draw(st.sampled_from(left_maps()), label="i")
    f = data.draw(st.sampled_from(right_maps()), label="f")
    squares = enumerate_squares(i, f)
    assert squares == naive.enumerate_squares(i, f)
    for square in squares[:6]:
        got, want = solve_lift(square), naive.solve_lift(square)
        assert type(got) is type(want)
        if isinstance(want, Lift):
            assert got.diagonal == want.diagonal
            assert got.diagonal.images == want.diagonal.images
        else:
            assert got.refuted == want.refuted


def test_refutation_count_matches_on_unsolvable_squares():
    # every generator square against the stage projections and the
    # collapse of the circle, solvable or not
    checked = 0
    for f in stage_maps() + [enumerate_maps(circle(), simplex(0))[0]]:
        for _, gen in generator_family("I", 2) + generator_family("J", 2):
            for square in enumerate_squares(gen, f):
                got, want = solve_lift(square), naive.solve_lift(square)
                if isinstance(want, NoLift):
                    assert got == want
                    checked += 1
                else:
                    assert got.diagonal == want.diagonal
    assert checked >= 10


def test_pins_and_over_filter_the_search():
    # maps Delta^1 -> x, where x has vertices a and b, a loop l at a and
    # two edges f, g from a to b.  Pins are keyed by the position of a
    # generator in Delta^1's names: 0 and 1 are its vertices, 2 its edge
    a, b = SimplexRef("a"), SimplexRef("b")
    x = FiniteSimplicialSet({0: ["a", "b"], 1: ["l", "f", "g"]},
                            {"l": [a, a], "f": [b, a], "g": [b, a]})
    assert len(enumerate_maps(simplex(1), x)) == 5

    def edges(pins=None, over=None):
        return [h.images["01"]
                for h in extensions(simplex(1), x, pins, over)]

    at_a = {0: [(None, a)], 1: [(None, a)]}
    assert edges(at_a) == [SimplexRef("a", (0,)), SimplexRef("l")]
    # pins through operators: the edge runs from a to b
    assert edges({2: [((0,), a), ((1,), b)]}) == [SimplexRef("f"),
                                                  SimplexRef("g")]
    # over the map to Delta^1 that sends a to 0 and b to 1, the pin on
    # vertex 0 and the bottom map pick the edges out of a
    to_interval = SimplicialMap(x, simplex(1), {
        "a": SimplexRef("0"), "b": SimplexRef("1"),
        "l": SimplexRef("0", (0,)), "f": SimplexRef("01"),
        "g": SimplexRef("01")})
    over_id = (to_interval, identity(simplex(1)))
    assert edges({0: [(None, a)]}, over_id) == [SimplexRef("f"),
                                                SimplexRef("g")]
    constant = enumerate_maps(simplex(1), simplex(1))[0]
    assert edges({0: [(None, a)]}, (to_interval, constant)) == \
        [SimplexRef("a", (0,)), SimplexRef("l")]


def test_exhausted_search_returns_its_refutation_count():
    # Hom(Delta^1, two points): one node for vertex 0, two for vertex 1
    # and four for the edge, each with two candidates (two vertices, two
    # degenerate edges); only the two constant maps come out
    search = extensions(simplex(1), two_points())
    maps = []
    with pytest.raises(StopIteration) as stop:
        while True:
            maps.append(next(search))
    assert len(maps) == 2
    assert stop.value.value == 2 * (1 + 2 + 4)


class TestDeepSource:
    """Delta^9 has 1023 nondegenerate simplices: a search that recursed
    once per generator would exceed Python's recursion limit."""

    @staticmethod
    def problem():
        b, pt = simplex(9), simplex(0)
        left = SimplicialMap(pt, b, {"0": SimplexRef("0")})
        return LiftingProblem(left, identity(pt), identity(pt),
                              enumerate_maps(b, pt)[0])

    def test_solve_lift(self):
        assert simplex(9).size() > sys.getrecursionlimit()
        p = self.problem()
        found = solve_lift(p)
        assert isinstance(found, Lift)
        assert found.diagonal == p.bottom

    def test_cli_lift(self, tmp_path, capsys):
        p = self.problem()
        doc = Document()
        doc.objects["P"] = simplex(0)
        doc.objects["D9"] = simplex(9)
        doc.add_map("left", p.left, "P", "D9")
        doc.add_map("right", p.right, "P", "P")
        doc.add_map("top", p.top, "P", "P")
        doc.add_map("bottom", p.bottom, "D9", "P")
        path = tmp_path / "deep.sset"
        path.write_text(print_document(doc))
        code = cli.main(["lift", str(path), "--left", "left", "--right",
                         "right", "--top", "top", "--bottom", "bottom"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("lift: found\n")


def test_every_memo_is_bounded():
    memos = [(module.__name__, name, fn)
             for module in (cells, cli, colimits, core, factorization,
                            formats, homology, lifting)
             for name, fn in vars(module).items()
             if hasattr(fn, "cache_info")]
    assert {name for _, name, _ in memos} >= {
        "enumerate_maps", "_word_to_surj", "_coface", "simplex"}
    for module, name, fn in memos:
        assert fn.cache_info().maxsize is not None, f"{module}.{name}"
