import pytest

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary,
    boundary_inclusion,
    compose,
    empty_sset,
    enumerate_maps,
    horn,
    identity,
    is_map,
    simplex,
    validate,
)
from ssetkit.colimits import (
    coproduct,
    coproduct_induced,
    pushout,
    pushout_induced,
    sequential_colimit,
)

from instances import SMALL_POOL
from naive_pushout import pushout as naive_pushout


def edge_collapse():
    # the unique map from the interval to the point
    return enumerate_maps(simplex(1), simplex(0))[0]


def boundary_collapse():
    return enumerate_maps(boundary(1), simplex(0))[0]


class TestCoproduct:
    def test_two_points(self):
        out, injs = coproduct([simplex(0), simplex(0)])
        assert out.size() == 2
        assert all(is_map(j) for j in injs)

    def test_empty_family(self):
        out, injs = coproduct([])
        assert out.is_empty
        assert injs == []

    def test_interval_plus_boundary(self):
        out, _ = coproduct([simplex(1), boundary(1)])
        assert out.size() == 5
        assert validate(out).ok

    def test_injections_jointly_surjective_and_disjoint(self):
        out, injs = coproduct([simplex(1), simplex(0)])
        hit = [injs[t].images[n].base
               for t in range(2) for n in injs[t].source.names()]
        assert sorted(hit) == sorted(out.names())
        assert len(set(hit)) == len(hit)

    def test_induced_map(self):
        out, injs = coproduct([simplex(0), simplex(0)])
        maps = enumerate_maps(simplex(0), simplex(1))
        h = coproduct_induced(out, injs, [maps[0], maps[1]])
        assert is_map(h)
        assert compose(h, injs[0]) == maps[0]
        assert compose(h, injs[1]) == maps[1]

    def test_summand_map_from_another_object_is_refused(self):
        # the second summand is a point, but its map starts at the interval
        out, injs = coproduct([simplex(0), simplex(0)])
        m0 = enumerate_maps(simplex(0), simplex(1))[0]
        with pytest.raises(ValueError, match="coproduct_induced: cocone "
                                             "does not commute"):
            coproduct_induced(out, injs, [m0, identity(simplex(1))])

    @pytest.mark.parametrize("count", [1, 3], ids=["too_few", "too_many"])
    def test_one_map_per_summand(self, count):
        out, injs = coproduct([simplex(0), simplex(0)])
        with pytest.raises(ValueError, match="coproduct_induced: one map per "
                                             "summand"):
            coproduct_induced(out, injs, [identity(simplex(0))] * count)

    def test_universal_property_exhaustive_small(self):
        # every pair of maps out of two pool objects is restricted from
        # exactly one map out of their coproduct
        targets = [simplex(0), simplex(1), boundary(1)]
        for a in SMALL_POOL:
            for b in SMALL_POOL:
                out, (inj_a, inj_b) = coproduct([a, b])
                for t in targets:
                    mediating = {}
                    for m in enumerate_maps(out, t):
                        key = (compose(m, inj_a), compose(m, inj_b))
                        mediating.setdefault(key, []).append(m)
                    for u in enumerate_maps(a, t):
                        for v in enumerate_maps(b, t):
                            h = coproduct_induced(out, [inj_a, inj_b], [u, v])
                            assert mediating[u, v] == [h]


class TestPushout:
    def test_circle_from_interval(self):
        p = pushout(boundary_inclusion(1), boundary_collapse())
        assert p.corner.size() == 2
        assert len(p.corner.simplices(0)) == 1
        assert len(p.corner.simplices(1)) == 1
        assert validate(p.corner).ok
        assert is_map(p.leg_from_b) and is_map(p.leg_from_c)
        # square commutes exactly
        assert compose(p.leg_from_b, boundary_inclusion(1)) == \
            compose(p.leg_from_c, boundary_collapse())

    def test_pushout_along_identity(self):
        i = boundary_inclusion(2)
        p = pushout(i, identity(boundary(2)))
        assert p.corner.size() == simplex(2).size()
        assert validate(p.corner).ok

    def test_coproduct_case(self):
        e = empty_sset()
        to_pt = SimplicialMap(e, simplex(0), {})
        p = pushout(to_pt, to_pt)
        assert p.corner.size() == 2

    def test_collapsing_identification(self):
        # gluing the interval's two endpoints to one point along the full
        # interval collapse: the nondegenerate edge must become degenerate
        collapse = edge_collapse()
        p = pushout(identity(simplex(1)), collapse)
        assert p.corner.size() == 1
        assert p.leg_from_b.images["01"].word

    def test_horn_filling_pushout(self):
        # gluing the full 2-simplex onto its own horn recovers the simplex
        from ssetkit.core import horn_inclusion
        inc = horn_inclusion(2, 1)
        p = pushout(inc, identity(inc.source))
        assert p.corner.size() == simplex(2).size()

    def test_provenance_partition(self):
        p = pushout(boundary_inclusion(1), boundary_collapse())
        names = list(p.corner.names())
        assert set(p.provenance) == set(names)
        assert p.origin(p.leg_from_c.images["0"].base) == "glued"

    def test_source_mismatch(self):
        with pytest.raises(ValueError):
            pushout(boundary_inclusion(1), edge_collapse())

    def test_injectivity_preserved(self):
        # pushout of an injective map along anything is injective on the
        # other leg
        cases = [
            (boundary_inclusion(1), boundary_collapse()),
            (boundary_inclusion(2),
             enumerate_maps(boundary(2), simplex(1))[0]),
            (SimplicialMap(empty_sset(), simplex(1), {}),
             SimplicialMap(empty_sset(), simplex(0), {})),
        ]
        for i, g in cases:
            p = pushout(i, g)
            imgs = [p.leg_from_c.images[n] for n in g.target.names()]
            assert all(not r.word for r in imgs)
            assert len(set(imgs)) == len(imgs)


def _ends(hom):
    """The first and the last map of a hom-set, once each."""
    return hom[:1] + hom[1:][-1:]


def _oracle_cases():
    """(i, g) pairs: every triple from SMALL_POOL with the first and last
    map of each hom-set; every map into the 2- and 3-simplex, collapsing
    ones included, glued to the point, to the interval and to itself; an
    empty A; and B == C."""
    for a in SMALL_POOL:
        for b in SMALL_POOL:
            for i in _ends(enumerate_maps(a, b)):
                for c in SMALL_POOL:
                    for g in _ends(enumerate_maps(a, c)):
                        yield i, g
    for n in (2, 3):
        for a in (simplex(1), simplex(2), boundary(2), horn(2, 1)):
            for i in enumerate_maps(a, simplex(n)):
                yield i, enumerate_maps(a, simplex(0))[0]
                yield i, enumerate_maps(a, simplex(1))[-1]
                yield i, i
    empty = empty_sset()
    yield (SimplicialMap(empty, boundary(2), {}),
           SimplicialMap(empty, simplex(3), {}))
    homs = enumerate_maps(simplex(1), boundary(2))
    for i in homs:
        yield i, homs[0]


class TestPushoutOracle:
    def test_matches_the_earlier_pushout(self):
        for i, g in _oracle_cases():
            got, want = pushout(i, g), naive_pushout(i, g)
            assert got.corner == want.corner
            assert list(got.corner.names()) == list(want.corner.names())
            assert got.leg_from_b == want.leg_from_b
            assert got.leg_from_c == want.leg_from_c
            assert list(got.provenance.items()) == \
                list(want.provenance.items())
            assert [got.origin(n) for n in got.corner.names()] == \
                [want.origin(n) for n in want.corner.names()]


class TestPushoutInduced:
    def test_legs_induce_identity(self):
        p = pushout(boundary_inclusion(1), boundary_collapse())
        h = pushout_induced(p, p.leg_from_b, p.leg_from_c)
        assert h == identity(p.corner)

    def test_terminal_target(self):
        p = pushout(boundary_inclusion(1), boundary_collapse())
        u = edge_collapse()
        v = identity(simplex(0))
        h = pushout_induced(p, u, v)
        assert is_map(h)
        assert compose(h, p.leg_from_b) == u

    def test_noncommuting_cocone_rejected(self):
        p = pushout(boundary_inclusion(1), boundary_collapse())
        verts = enumerate_maps(simplex(0), boundary(1))
        # send B's edge somewhere incompatible with C's image
        u = enumerate_maps(simplex(1), boundary(1))[0]
        for v in verts:
            if compose(u, boundary_inclusion(1)) != compose(v, boundary_collapse()):
                with pytest.raises(ValueError):
                    pushout_induced(p, u, v)
                return
        pytest.skip("no non-commuting cocone found")

    def test_universal_property_exhaustive_small(self):
        # every commuting cocone into small targets factors uniquely
        shapes = [
            (boundary_inclusion(1), boundary_collapse()),
            (boundary_inclusion(1), identity(boundary(1))),
            (SimplicialMap(empty_sset(), simplex(0), {}),
             SimplicialMap(empty_sset(), simplex(1), {})),
        ]
        targets = [simplex(0), simplex(1), boundary(1)]
        for i, g in shapes:
            p = pushout(i, g)
            for t in targets:
                homs_b = enumerate_maps(i.target, t)
                homs_c = enumerate_maps(g.target, t)
                all_h = enumerate_maps(p.corner, t)
                for u in homs_b:
                    for v in homs_c:
                        if compose(u, i) != compose(v, g):
                            continue
                        h = pushout_induced(p, u, v)
                        mediating = [m for m in all_h
                                     if compose(m, p.leg_from_b) == u
                                     and compose(m, p.leg_from_c) == v]
                        assert mediating == [h]


class TestSequentialColimit:
    def test_single_stage(self):
        rec = sequential_colimit([], base=simplex(1))
        assert rec.stages == 0
        assert all(v == 0 for v in rec.birth.values())
        assert rec.composite() == identity(simplex(1))

    def test_circle_built_in_stages(self):
        e = empty_sset()
        pt = simplex(0)
        inc0 = SimplicialMap(e, pt, {})
        circle = FiniteSimplicialSet(
            {0: ["v"], 1: ["e"]},
            {"e": [SimplexRef("v"), SimplexRef("v")]})
        inc1 = SimplicialMap(pt, circle, {"0": SimplexRef("v")})
        rec = sequential_colimit([inc0, inc1])
        assert rec.birth == {"v": 1, "e": 2}

    def test_simplex_tower(self):
        inc01 = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
        inc12 = SimplicialMap(simplex(1), simplex(2),
                              {n: SimplexRef(n) for n in simplex(1).names()})
        rec = sequential_colimit([inc01, inc12])
        assert rec.birth["012"] == 2
        assert rec.birth["0"] == 0
        assert rec.birth["2"] == 2

    def test_birth_restriction_matches_stage_image(self):
        inc01 = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
        inc12 = SimplicialMap(simplex(1), simplex(2),
                              {n: SimplexRef(n) for n in simplex(1).names()})
        rec = sequential_colimit([inc01, inc12])
        for k in range(rec.stages + 1):
            image = {rec.composite_from(k).images[n].base
                     for n in rec.objects[k].names()}
            cut = {n for n, b in rec.birth.items() if b <= k}
            assert image == cut

    def test_birth_monotone_under_faces(self):
        inc01 = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
        inc12 = SimplicialMap(simplex(1), simplex(2),
                              {n: SimplexRef(n) for n in simplex(1).names()})
        rec = sequential_colimit([inc01, inc12])
        final = rec.final
        for n in final.names():
            if final.dim_of(n) >= 1:
                for r in final.faces_of(n):
                    assert rec.birth[r.base] <= rec.birth[n]

    def test_non_inclusion_rejected(self):
        rec_map = edge_collapse()
        with pytest.raises(ValueError, match="stage 0"):
            sequential_colimit([rec_map])

    def test_image_missing_from_target_rejected(self):
        p = FiniteSimplicialSet({0: ["p"]})
        q = FiniteSimplicialSet({0: ["q"]})
        bad = SimplicialMap(p, q, {"p": SimplexRef("zz")})
        with pytest.raises(ValueError, match="stage 0 map sends p to zz"):
            sequential_colimit([bad])

    def test_image_of_another_dimension_rejected(self):
        # a point sent to the edge: the edge would be born before its ends
        point = FiniteSimplicialSet({0: ["p"]})
        edge = FiniteSimplicialSet({0: ["a", "b"], 1: ["e"]},
                                   {"e": [SimplexRef("b"), SimplexRef("a")]})
        inc0 = SimplicialMap(simplex(0), point, {"0": SimplexRef("p")})
        bad = SimplicialMap(point, edge, {"p": SimplexRef("e")})
        with pytest.raises(ValueError, match="stage 1 map sends p to e"):
            sequential_colimit([inc0, bad])


def vertex_of_edge():
    return SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})


COLIMITS_GUARDS = [
    ("coproduct-no-maps", lambda: coproduct_induced(
        *coproduct([simplex(0)]), []), ValueError,
     "no maps for nonempty coproduct"),
    ("coproduct-empty-family", lambda: coproduct_induced(
        *coproduct([]), []), ValueError,
     "empty family needs explicit target"),
    ("coproduct-targets", lambda: coproduct_induced(
        *coproduct([simplex(0), simplex(0)]),
        [identity(simplex(0)), vertex_of_edge()]), ValueError,
     "targets disagree"),
    ("pushout-targets", lambda: pushout_induced(
        pushout(identity(simplex(0)), identity(simplex(0))),
        identity(simplex(0)), vertex_of_edge()), ValueError,
     "cocone targets disagree"),
    ("sequential-no-base", lambda: sequential_colimit([]), ValueError,
     "need at least a base object"),
    ("sequential-chain", lambda: sequential_colimit(
        [boundary_inclusion(1), boundary_inclusion(1)]), ValueError,
     "stage 1 source does not match previous target"),
]


@pytest.mark.parametrize("case,exc,match", [g[1:] for g in COLIMITS_GUARDS],
                         ids=[g[0] for g in COLIMITS_GUARDS])
def test_every_guard_raises(case, exc, match):
    with pytest.raises(exc, match=match):
        case()
