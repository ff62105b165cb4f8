"""Direct cell attachment against the stage pushout it replaced
(`pushout_stage`): the same stage objects, in the same order, with the same
inclusions, characteristic maps and birth indices, and the same maps out of
a stage from `StageData.induced` as from `colimits.pushout_induced`."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pushout_stage as oracle
from instances import circle, two_points, wedge_two_loops
from ssetkit.cells import (
    Attachment,
    CellPresentation,
    PresentationBuilder,
    j_to_i_presentation,
    realize,
)
from ssetkit.colimits import pushout_induced
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    compose,
    empty_sset,
    enumerate_maps,
    extensions,
    horn,
    identity,
    is_map,
    simplex,
    validate,
)
from ssetkit.factorization import factorize
from ssetkit.lifting import generator


def sphere2():
    # one 2-simplex with its whole boundary collapsed: degenerate faces
    v = SimplexRef("v", (0,))
    return FiniteSimplicialSet({0: ["v"], 2: ["t"]}, {"t": [v, v, v]})


BASES = [empty_sset(), simplex(0), two_points(), simplex(1), boundary(1),
         circle(), wedge_two_loops(), horn(2, 1), sphere2()]
TARGETS = [simplex(1), circle(), horn(2, 1)]


@st.composite
def presentations(draw, kinds=("I", "J"), bases=BASES):
    """Up to three stages of up to three attachments each, drawn from the
    hom-sets into the current stage; an attaching map may be used twice in
    a stage, gluing two cells to the same simplices."""
    builder = PresentationBuilder(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds))
            n = draw(st.integers(0 if kind == "I" else 1, 2))
            k = draw(st.integers(0, n)) if kind == "J" else None
            homs = enumerate_maps(generator(kind, n, k).source,
                                  builder.current)
            if not homs:
                continue
            attaching = draw(st.sampled_from(homs))
            for _ in range(draw(st.integers(1, 2))):
                builder.attach(kind, n, k, attaching=attaching)
        builder.close_stage()
    return builder.presentation()


def assert_same_realization(pres):
    new = realize(pres)
    old = oracle.realize(pres)
    assert new.objects == old.objects
    assert new.birth == old.birth
    assert len(new.stage_data) == len(old.stage_data)
    for stage, old_stage in zip(new.stage_data, old.stage_data):
        assert stage.inclusion == old_stage.inclusion
        assert stage.char_maps == old_stage.char_maps
    return new, old


def cell_cocone(old_stage, cell_maps):
    """The cocone on the coproduct of the stage's cells that
    `pushout_induced` takes: cell t's simplex w is named "i{t}_{w}"."""
    cells = old_stage.pushout.leg_from_b.source
    images = {f"i{t}_{w}": m.images[w]
              for t, m in enumerate(cell_maps) for w in m.source.names()}
    return SimplicialMap(cells, cell_maps[0].target, images)


def assert_same_induced(stage, old_stage, cell_maps, from_c):
    """`induced` and `pushout_induced` agree: the same map, or both raise
    ValueError."""
    if old_stage.pushout is None:
        # no cells: the stage is the previous one, and from_c is the map
        got = stage.induced(cell_maps, from_c)
        assert got == from_c
        return got
    try:
        want = pushout_induced(old_stage.pushout,
                               cell_cocone(old_stage, cell_maps), from_c)
    except ValueError:
        with pytest.raises(ValueError):
            stage.induced(cell_maps, from_c)
        return None
    got = stage.induced(cell_maps, from_c)
    assert got == want
    return got


class TestRelabel:
    def test_roundtrip(self):
        s = boundary(2)
        ren = {n: "x" + n for n in s.names()}
        out, iso = oracle.relabel(s, ren)
        assert validate(out).ok
        assert is_map(iso)
        assert out.size() == s.size()


class TestStageObjects:
    @settings(max_examples=150, deadline=None)
    @given(presentations())
    def test_random_presentations(self, pres):
        assert_same_realization(pres)

    def test_several_cells_on_one_simplex(self):
        # three loops on one vertex, then two horns on degenerate edges
        # and a boundary cell whose faces are all one loop
        b = PresentationBuilder(simplex(0))
        loop = SimplicialMap(boundary(1), b.current,
                             {"0": SimplexRef("0"), "1": SimplexRef("0")})
        for _ in range(3):
            b.attach("I", 1, attaching=loop)
        b.close_stage()
        point = SimplexRef("0", (0,))
        b.attach("J", 2, 1, attaching=SimplicialMap(
            horn(2, 1), b.current,
            {"0": SimplexRef("0"), "1": SimplexRef("0"),
             "2": SimplexRef("0"), "01": point, "12": point}))
        b.attach("J", 2, 1, attaching=SimplicialMap(
            horn(2, 1), b.current,
            {"0": SimplexRef("0"), "1": SimplexRef("0"),
             "2": SimplexRef("0"), "01": SimplexRef("c1_1_01"),
             "12": point}))
        edge = SimplexRef("c1_2_01")
        b.attach("I", 2, attaching=SimplicialMap(
            boundary(2), b.current,
            {"0": SimplexRef("0"), "1": SimplexRef("0"),
             "2": SimplexRef("0"), "01": edge, "02": edge, "12": edge}))
        b.close_stage()
        new, _ = assert_same_realization(b.presentation())
        assert validate(new.final).ok
        # edges met in the cells come first, the untouched loop last
        assert new.final.simplices(1) == (
            "c2_0_02", "c1_1_01", "c2_1_02", "c1_2_01", "c1_0_01")

    def test_glued_simplex_moves_to_its_first_position(self):
        # the horn's vertex is the base's 1: it takes position 1 of the
        # cell, after the new vertex and before the base's 0
        base = simplex(1)
        b = PresentationBuilder(base)
        b.attach("J", 1, 1, attaching=SimplicialMap(
            horn(1, 1), base, {"1": SimplexRef("1")}))
        b.close_stage()
        new, _ = assert_same_realization(b.presentation())
        assert new.final.simplices(0) == ("c1_0_0", "1", "0")

    def test_name_collision_raises_in_both(self):
        base = FiniteSimplicialSet({0: ["c1_0_01"]})
        loop = SimplicialMap(boundary(1), base,
                             {"0": SimplexRef("c1_0_01"),
                              "1": SimplexRef("c1_0_01")})
        builder = PresentationBuilder(base).attach("I", 1, attaching=loop)
        with pytest.raises(ValueError, match="collide"):
            builder.close_stage()
        pres = CellPresentation(base, ((Attachment("I", 1, None, loop),),))
        with pytest.raises(ValueError, match="collide"):
            oracle.realize(pres)


RUNS = [
    ((circle(), simplex(0), 0), "I", 2, 2, "reduced"),
    ((boundary(1), simplex(0), 0), "J", 1, 2, "reduced"),
    ((simplex(0), circle(), 0), "J", 2, 1, "reduced"),
    ((two_points(), simplex(1), 1), "I", 2, 1, "reduced"),
    ((boundary(1), circle(), 0), "I", 1, 2, "reduced"),
    ((simplex(1), circle(), 0), "J", 1, 3, "reduced"),
    ((simplex(0), simplex(0), 0), "I", 1, 1, "faithful"),
    ((boundary(1), simplex(0), 0), "I", 1, 1, "faithful"),
]


class TestFactorizationStages:
    @pytest.mark.parametrize("run", RUNS, ids=[str(i) for i in range(len(RUNS))])
    def test_stages_and_projections(self, run):
        (a, x, idx), kind, cap, budget, mode = run
        r = factorize(enumerate_maps(a, x)[idx], kind, cap=cap, mode=mode,
                      budget=budget)
        _, old = assert_same_realization(r.presentation)
        # each projection is the one the stage pushout induces from the
        # attached squares' bottoms and the previous projection
        for k, old_stage in enumerate(old.stage_data):
            bottoms = [r.stages[k].squares[i][1].bottom
                       for i in r.stages[k].attached]
            want = pushout_induced(old_stage.pushout,
                                   cell_cocone(old_stage, bottoms),
                                   r.stages[k].p)
            assert r.stages[k + 1].p == want


class TestInduced:
    @settings(max_examples=100, deadline=None)
    @given(presentations(), st.sampled_from(TARGETS))
    def test_against_pushout_induced(self, pres, y):
        new, old = assert_same_realization(pres)
        for stage, old_stage in zip(new.stage_data, old.stage_data):
            maps = list(islice(extensions(stage.inclusion.target, y), 3))
            for g in maps:
                cells = [compose(g, char) for char in stage.char_maps]
                from_c = compose(g, stage.inclusion)
                assert assert_same_induced(stage, old_stage, cells,
                                           from_c) == g
            # cells from one map, the previous stage from another: this
            # cocone commutes only where the two maps agree
            for g1, g2 in zip(maps, maps[1:]):
                assert_same_induced(
                    stage, old_stage,
                    [compose(g1, char) for char in stage.char_maps],
                    compose(g2, stage.inclusion))

    def test_non_commuting_cocone_raises(self):
        # a loop on a vertex; the cell goes to the interval, whose two ends
        # differ, while the vertex goes to one end
        b = PresentationBuilder(simplex(0))
        b.attach("I", 1, attaching=SimplicialMap(
            boundary(1), b.current,
            {"0": SimplexRef("0"), "1": SimplexRef("0")}))
        stage = b.close_stage()
        old = oracle.realize(b.presentation()).stage_data[0]
        cells = [identity(simplex(1))]
        from_c = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
        with pytest.raises(ValueError, match="does not commute"):
            stage.induced(cells, from_c)
        with pytest.raises(ValueError, match="does not commute"):
            pushout_induced(old.pushout, cell_cocone(old, cells), from_c)

    def test_cocone_of_the_wrong_shape_raises(self):
        b = PresentationBuilder(simplex(0))
        b.attach("I", 0, attaching=SimplicialMap(empty_sset(), b.current,
                                                 {}))
        stage = b.close_stage()
        from_c = identity(simplex(0))
        with pytest.raises(ValueError, match="does not match"):
            stage.induced([], from_c)
        with pytest.raises(ValueError, match="does not match"):
            stage.induced([identity(simplex(1))], from_c)


class TestJToI:
    @settings(max_examples=60, deadline=None)
    @given(presentations(kinds=("J",), bases=BASES[1:]))
    def test_random_horn_presentations(self, pres):
        converted, iso = j_to_i_presentation(pres)
        assert_same_realization(converted)
        # the isomorphism the stage pushouts induce, stage by stage
        j_res = oracle.realize(pres)
        i_res = oracle.realize(converted)
        h = identity(pres.base)
        for s, old_stage in enumerate(j_res.stage_data):
            stage_a = i_res.stage_data[2 * s]
            stage_b = i_res.stage_data[2 * s + 1]
            from_c = compose(stage_b.inclusion, compose(stage_a.inclusion, h))
            if stage_b.char_maps:
                h = pushout_induced(old_stage.pushout,
                                    cell_cocone(old_stage, stage_b.char_maps),
                                    from_c)
            else:
                h = from_c
        assert iso == h
