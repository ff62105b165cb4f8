import random

import pytest

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    compose,
    empty_sset,
    enumerate_maps,
    horn,
    identity,
    is_map,
    simplex,
    validate,
)
from ssetkit.cells import (
    Attachment,
    CellPresentation,
    PresentationBuilder,
    _check_iso,
    factor_through_stage,
    j_to_i_presentation,
    realize,
)
from ssetkit.lifting import generator


def empty_map(target):
    return SimplicialMap(empty_sset(), target, {})


def build_circle():
    b = PresentationBuilder(empty_sset())
    b.attach("I", 0, attaching=empty_map(b.current))
    b.close_stage()
    vertex = b.current.simplices(0)[0]
    b.attach("I", 1, attaching=SimplicialMap(
        boundary(1), b.current,
        {"0": SimplexRef(vertex), "1": SimplexRef(vertex)}))
    b.close_stage()
    return b


class TestRealize:
    def test_empty_presentation(self):
        pres = CellPresentation(simplex(1), ())
        res = realize(pres)
        assert res.composite() == identity(simplex(1))

    def test_circle_from_cells(self):
        res = build_circle().realized()
        final = res.final
        assert len(final.simplices(0)) == 1
        assert len(final.simplices(1)) == 1
        assert validate(final).ok
        vertex = final.simplices(0)[0]
        edge = final.simplices(1)[0]
        assert res.birth == {vertex: 1, edge: 2}

    def test_horn_filling_returns_simplex(self):
        base = horn(2, 1)
        b = PresentationBuilder(base)
        b.attach("J", 2, 1, attaching=identity(base))
        b.close_stage()
        final = b.current
        assert final.size() == simplex(2).size()
        assert validate(final).ok

    def test_base_names_survive(self):
        base = horn(2, 1)
        b = PresentationBuilder(base)
        b.attach("J", 2, 1, attaching=identity(base))
        b.close_stage()
        for n in base.names():
            assert b.current.has(n)

    def test_attaching_out_of_range(self):
        pres = CellPresentation(simplex(0), ((Attachment(
            "I", 1, None,
            SimplicialMap(boundary(1), simplex(1),
                          {"0": SimplexRef("0"), "1": SimplexRef("1")})),),))
        with pytest.raises(ValueError, match="stage 1"):
            realize(pres)

    def test_attaching_image_outside_the_stage(self):
        b = PresentationBuilder(simplex(0))
        b.attach("I", 1, attaching=SimplicialMap(
            boundary(1), b.current,
            {"0": SimplexRef("0"), "1": SimplexRef("zz")}))
        with pytest.raises(ValueError, match="'zz', which is not a simplex"):
            b.close_stage()

    def test_large_generator_against_a_point(self):
        # told apart by the source's dimension, before the boundary of the
        # 40-simplex is built
        with pytest.raises(ValueError, match="attaching map does not start "
                                             "at the declared generator "
                                             "source"):
            Attachment("I", 40, None, identity(simplex(0)))

    @pytest.mark.parametrize("kind,n,k,match", [
        ("J", 2, None, "horn generator needs k"),
        ("I", 1, 7, "boundary generator takes no k"),
        ("X", 1, None, "unknown generator kind 'X'")],
        ids=["horn_without_k", "boundary_with_k", "unknown_kind"])
    def test_parameters_that_do_not_fit_the_kind(self, kind, n, k, match):
        # the generator source itself: only the parameters are wrong
        source = horn(2, 1) if kind == "J" else boundary(1)
        attaching = enumerate_maps(source, simplex(0))[0]
        b = PresentationBuilder(simplex(0)).attach(kind, n, k,
                                                   attaching=attaching)
        with pytest.raises(ValueError, match=match):
            b.close_stage()

    def test_realize_matches_builder(self):
        b = build_circle()
        pres = b.presentation()
        fresh = realize(pres)
        assert fresh.final == b.realized().final

    def test_multi_attachment_stage(self):
        pt = simplex(0)
        b = PresentationBuilder(pt)
        for _ in range(2):
            b.attach("I", 1, attaching=SimplicialMap(
                boundary(1), b.current,
                {"0": SimplexRef("0"), "1": SimplexRef("0")}))
        b.close_stage()
        final = b.current
        assert len(final.simplices(1)) == 2
        assert validate(final).ok

    def test_characteristic_maps_are_maps(self):
        b = build_circle()
        for stage in b.stage_data:
            for ch in stage.char_maps:
                assert is_map(ch)


def small_stages():
    """The stages of `build_circle`, and the one- and two-cell stages of
    I- and J-cells over the point, the interval and its boundary, each
    attached along the first and along the last map of its hom-set."""
    stages = list(build_circle().stage_data)
    for base in (simplex(0), simplex(1), boundary(1)):
        for label in (("I", 0), ("I", 1), ("J", 1, 0), ("J", 2, 1)):
            homs = enumerate_maps(generator(*label).source, base)
            for cells in ([homs[0]], [homs[-1]], [homs[0], homs[-1]]):
                b = PresentationBuilder(base)
                for att in cells:
                    b.attach(*label, attaching=att)
                stages.append(b.close_stage())
    return stages


class TestStageInduced:
    def test_universal_property_exhaustive_small(self):
        # a cocone on a stage is restricted from exactly one map out of the
        # stage when it commutes, and is refused when it does not
        targets = [simplex(0), simplex(1), boundary(1)]
        for stage in small_stages():
            legs = [stage.inclusion, *stage.char_maps]
            for t in targets:
                mediating = {}
                for m in enumerate_maps(stage.inclusion.target, t):
                    key = tuple(compose(m, leg) for leg in legs)
                    mediating.setdefault(key, []).append(m)
                cocones = [()]
                for leg in legs:
                    cocones = [c + (m,) for c in cocones
                               for m in enumerate_maps(leg.source, t)]
                for from_c, *cell_maps in cocones:
                    want = mediating.get((from_c, *cell_maps))
                    if want is None:
                        with pytest.raises(ValueError,
                                           match="does not commute"):
                            stage.induced(cell_maps, from_c)
                    else:
                        assert want == [stage.induced(cell_maps, from_c)]


class TestFactorThroughStage:
    def test_vertex_factors_at_one(self):
        res = build_circle().realized()
        vertex = res.final.simplices(0)[0]
        m = SimplicialMap(simplex(0), res.final, {"0": SimplexRef(vertex)})
        k, factored = factor_through_stage(res, m)
        assert k == 1
        assert compose(res.composite_from(k), factored) == m

    def test_loop_factors_at_two(self):
        res = build_circle().realized()
        edge = res.final.simplices(1)[0]
        vertex = res.final.simplices(0)[0]
        m = SimplicialMap(simplex(1), res.final,
                          {"0": SimplexRef(vertex), "1": SimplexRef(vertex),
                           "01": SimplexRef(edge)})
        k, _ = factor_through_stage(res, m)
        assert k == 2

    def test_map_into_base_factors_at_zero(self):
        base = simplex(1)
        b = PresentationBuilder(base)
        b.attach("I", 0, attaching=empty_map(base))
        b.close_stage()
        res = b.realized()
        m = SimplicialMap(simplex(0), res.final, {"0": SimplexRef("0")})
        k, factored = factor_through_stage(res, m)
        assert k == 0
        assert factored.target == base

    def test_minimality(self):
        res = build_circle().realized()
        edge = res.final.simplices(1)[0]
        vertex = res.final.simplices(0)[0]
        m = SimplicialMap(simplex(1), res.final,
                          {"0": SimplexRef(vertex), "1": SimplexRef(vertex),
                           "01": SimplexRef(edge)})
        k, _ = factor_through_stage(res, m)
        # at stage k-1 some simplex in the image is missing
        prior = res.objects[k - 1]
        comp = res.composite_from(k - 1)
        image = {comp.images[n].base for n in prior.names()}
        assert any(m.images[n].base not in image for n in m.source.names())

    def test_birth_monotone(self):
        res = build_circle().realized()
        final = res.final
        for n in final.names():
            if final.dim_of(n) >= 1:
                for r in final.faces_of(n):
                    assert res.birth[r.base] <= res.birth[n]


class TestJToI:
    def test_single_horn_cell(self):
        base = horn(2, 1)
        b = PresentationBuilder(base)
        b.attach("J", 2, 1, attaching=identity(base))
        b.close_stage()
        pres = b.presentation()
        converted, iso = j_to_i_presentation(pres)
        assert converted.attachment_count() == 2
        assert len(converted.stages) == 2
        assert is_map(iso)
        # realization is the full simplex either way
        assert realize(converted).final.size() == simplex(2).size()

    def test_empty_presentation(self):
        pres = CellPresentation(simplex(0), ())
        converted, iso = j_to_i_presentation(pres)
        assert converted.attachment_count() == 0
        assert iso == identity(simplex(0))

    def test_stage_without_cells(self):
        pres = CellPresentation(simplex(0), ((),))
        converted, iso = j_to_i_presentation(pres)
        assert converted.stages == ((), ())
        assert iso == identity(simplex(0))

    def test_two_parallel_horns(self):
        pt = simplex(0)
        b = PresentationBuilder(pt)
        for _ in range(2):
            b.attach("J", 1, 0, attaching=SimplicialMap(
                horn(1, 0), b.current, {"0": SimplexRef("0")}))
        b.close_stage()
        pres = b.presentation()
        converted, iso = j_to_i_presentation(pres)
        assert converted.attachment_count() == 4
        assert len(converted.stages) == 2
        assert is_map(iso)

    def test_iso_commutes_over_base(self):
        base = horn(2, 1)
        b = PresentationBuilder(base)
        b.attach("J", 2, 1, attaching=identity(base))
        b.close_stage()
        pres = b.presentation()
        converted, iso = j_to_i_presentation(pres)
        j_comp = realize(pres).composite()
        i_comp = realize(converted).composite()
        assert compose(iso, j_comp) == i_comp

    def test_mixed_kind_rejected(self):
        pres = CellPresentation(empty_sset(), ((Attachment(
            "I", 0, None, empty_map(empty_sset())),),))
        with pytest.raises(ValueError, match="non-horn"):
            j_to_i_presentation(pres)

    def test_random_horn_presentations(self):
        rng = random.Random(3)
        for _ in range(25):
            b = PresentationBuilder(simplex(0))
            stages = rng.randint(1, 2)
            for _ in range(stages):
                for _ in range(rng.randint(1, 2)):
                    n = rng.randint(1, 2)
                    k = rng.randint(0, n)
                    homs = enumerate_maps(horn(n, k), b.current)
                    b.attach("J", n, k, attaching=rng.choice(homs))
                b.close_stage()
            pres = b.presentation()
            converted, iso = j_to_i_presentation(pres)
            assert converted.attachment_count() == 2 * pres.attachment_count()
            assert is_map(iso)
            assert compose(iso, realize(pres).composite()) == \
                realize(converted).composite()

    @pytest.mark.parametrize("h", [
        SimplicialMap(boundary(1), simplex(1),
                      {"0": SimplexRef("0"), "1": SimplexRef("1")}),
        SimplicialMap(boundary(1), simplex(0),
                      {"0": SimplexRef("0"), "1": SimplexRef("0")}),
        SimplicialMap(simplex(1), simplex(0),
                      {"0": SimplexRef("0"), "1": SimplexRef("0"),
                       "01": SimplexRef("0", (0,))}),
    ], ids=["not_onto", "not_injective", "degenerate_image"])
    def test_non_isomorphisms_are_refused(self, h):
        with pytest.raises(RuntimeError,
                           match="conversion map is not an isomorphism"):
            _check_iso(h)

    def test_inverse_of_an_isomorphism(self):
        res = build_circle().realized()
        renamed = FiniteSimplicialSet({0: ["v"], 1: ["e"]},
                                      {"e": [SimplexRef("v")] * 2})
        h = SimplicialMap(res.final, renamed, dict(zip(
            res.final.names(), map(SimplexRef, renamed.names()))))
        inv = _check_iso(h)
        assert compose(inv, h) == identity(res.final)
        assert compose(h, inv) == identity(renamed)


def unchecked(kind, n, k, attaching):
    """An `Attachment` that skipped `__post_init__`, as no caller can build
    one."""
    att = object.__new__(Attachment)
    for name, value in zip(("kind", "n", "k", "attaching"),
                           (kind, n, k, attaching)):
        object.__setattr__(att, name, value)
    return att


def unchecked_image_outside_the_stage(mp):
    # the planted fault: an attachment whose checks were skipped sends a
    # vertex of the edge's boundary to a name the stage does not have
    realize(CellPresentation(simplex(0), ((unchecked(
        "I", 1, None, SimplicialMap(boundary(1), simplex(0), {
            "0": SimplexRef("0"), "1": SimplexRef("zz")})),),)))


def recovery_answers_another_map(mp):
    # the planted fault: the composite through the stage is some other map
    res = build_circle().realized()
    probe = SimplicialMap(simplex(0), res.final,
                          {"0": SimplexRef(res.final.simplices(0)[0])})
    mp.setattr("ssetkit.cells.compose", lambda f, g: identity(f.target))
    factor_through_stage(res, probe)


CELLS_GUARDS = [
    ("attach-without-map", lambda mp: PresentationBuilder(
        simplex(0)).attach("I", 0), ValueError,
     "an attaching map is required"),
    ("realized-while-open", lambda mp: PresentationBuilder(
        empty_sset()).attach("I", 0, attaching=empty_map(
            empty_sset())).realized(), ValueError,
     "close the open stage first"),
    ("image-outside-the-stage", unchecked_image_outside_the_stage,
     ValueError, "'zz', which is not a simplex of the previous stage"),
    ("factor-not-into-final", lambda mp: factor_through_stage(
        build_circle().realized(), identity(simplex(0))), ValueError,
     "does not land in the final stage"),
    ("recovery", recovery_answers_another_map, RuntimeError,
     "recovery check failed"),
]


@pytest.mark.parametrize("case,exc,match", [g[1:] for g in CELLS_GUARDS],
                         ids=[g[0] for g in CELLS_GUARDS])
def test_every_guard_raises(case, exc, match, monkeypatch):
    with pytest.raises(exc, match=match):
        case(monkeypatch)
