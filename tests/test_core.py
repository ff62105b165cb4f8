import itertools

import pytest

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    _positional,
    boundary,
    boundary_inclusion,
    compose,
    empty_sset,
    enumerate_maps,
    enumerate_simplices,
    horn,
    horn_inclusion,
    identity,
    is_map,
    map_errors,
    minimal_subcomplex,
    simplex,
    validate,
)


# Counting monotone maps [m] -> [n] by direct recursion; the independent
# oracle for hom-set sizes between standard simplices.
def _mono_rec(m, n):
    # number of weakly increasing sequences of length m+1 with values 0..n
    counts = [1] * (n + 1)
    for _ in range(m):
        acc = 0
        nxt = []
        for v in range(n, -1, -1):
            acc += counts[v]
            nxt.append(acc)
        counts = list(reversed(nxt))
    return sum(counts)


# The recursive search that `enumerate_maps` replaced, kept as the oracle
# for its order on small hom-sets.
def _recursive_hom(a, x):
    gens = list(a.names())
    out = []
    images = {}

    def extend(t):
        if t == len(gens):
            out.append(SimplicialMap(a, x, images))
            return
        name = gens[t]
        d = a.dim_of(name)
        for cand in enumerate_simplices(x, d):
            if all(x.face(cand, i) == SimplicialMap(a, x, images)(fr)
                   for i, fr in enumerate(a.faces_of(name) if d else ())):
                images[name] = cand
                extend(t + 1)
                del images[name]

    extend(0)
    return tuple(out)


def circle():
    return FiniteSimplicialSet(
        {0: ["v"], 1: ["e"]},
        {"e": [SimplexRef("v"), SimplexRef("v")]})


class TestStandardObjects:
    def test_simplex_counts(self):
        # 2^(n+1) - 1 nonempty subsets
        assert simplex(2).size() == 7
        assert simplex(0).size() == 1
        assert simplex(3).size() == 15

    def test_boundary_counts(self):
        assert boundary(2).size() == 6
        assert boundary(0).is_empty

    def test_horn_counts(self):
        assert horn(2, 1).size() == 5
        assert horn(1, 0).size() == 1

    def test_generators_validate(self):
        for n in range(5):
            assert validate(simplex(n)).ok
            assert validate(boundary(n)).ok
        for n in range(1, 5):
            for k in range(n + 1):
                assert validate(horn(n, k)).ok

    def test_inclusions_are_maps(self):
        for n in range(4):
            assert is_map(boundary_inclusion(n))
        for n in range(1, 4):
            for k in range(n + 1):
                assert is_map(horn_inclusion(n, k))


class TestValidate:
    def test_empty_object(self):
        s = empty_sset()
        assert validate(s).ok
        assert s.size() == 0

    def test_dangling_reference(self):
        s = FiniteSimplicialSet(
            {0: ["a"], 1: ["e"]},
            {"e": [SimplexRef("a"), SimplexRef("ghost")]})
        rep = validate(s)
        assert not rep.ok
        assert any("dangling" in line for line in rep.issues)

    def test_duplicate_names(self):
        s = FiniteSimplicialSet({0: ["a", "a"]}, {})
        rep = validate(s)
        assert any("duplicate" in line for line in rep.issues)

    def test_broken_identity(self):
        # a 2-simplex whose faces do not satisfy the simplicial identity
        s = FiniteSimplicialSet(
            {0: ["a", "b", "c", "d"], 1: ["ab", "cd", "ac"], 2: ["t"]},
            {"ab": ["b", "a"], "cd": ["d", "c"], "ac": ["c", "a"],
             "t": ["cd", "ac", "ab"]})
        rep = validate(s)
        assert any("identity" in line for line in rep.issues)

    def test_circle_is_valid(self):
        assert validate(circle()).ok

    def test_each_face_question_is_answered_once(self, monkeypatch):
        # the one-vertex 30-sphere: its 31 faces are all s_28...s_0 v, so
        # the n(n + 1) = 930 sides of its identities ask 30 questions
        n = 30
        deg = SimplexRef("v", tuple(range(n - 2, -1, -1)))
        s = FiniteSimplicialSet({0: ["v"], n: ["x"]}, {"x": [deg] * (n + 1)})
        calls = []
        face = FiniteSimplicialSet.face

        def counted(self, ref, i):
            calls.append((ref, i))
            return face(self, ref, i)

        monkeypatch.setattr(FiniteSimplicialSet, "face", counted)
        assert validate(s).ok
        assert len(calls) == n

    def test_deeply_broken_structure_reported_not_crashed(self):
        s = FiniteSimplicialSet(
            {0: ["a", "b", "c"], 1: ["ab", "bc", "ac"], 2: ["t"]},
            {"ab": ["b", "a"], "bc": ["c", "ghost"], "ac": ["c", "a"],
             "t": ["bc", "ac", "ab"]})
        rep = validate(s)
        assert not rep.ok
        assert any("ghost" in line for line in rep.issues)


class TestEnumerateSimplices:
    def test_point_degenerate_edge(self):
        assert len(enumerate_simplices(simplex(0), 1)) == 1

    def test_interval_dim1(self):
        refs = enumerate_simplices(simplex(1), 1)
        assert len(refs) == 3
        # normal forms are pairwise distinct
        assert len(set(refs)) == 3

    def test_boundary_interval_dim1(self):
        assert len(enumerate_simplices(boundary(1), 1)) == 2

    def test_counts_match_monotone_surjections(self):
        # over one base of dimension e there are C(d, e) d-simplices
        from math import comb
        for e in range(4):
            s = simplex(0) if e == 0 else None
        s = simplex(2)
        for d in range(5):
            total = sum(comb(d, e) * len(s.simplices(e))
                        for e in range(min(d, s.dim) + 1))
            assert len(enumerate_simplices(s, d)) == total

    def test_faces_of_listed_simplices_are_listed(self):
        s = simplex(2)
        for d in range(1, 4):
            listed = set(enumerate_simplices(s, d))
            lower = set(enumerate_simplices(s, d - 1))
            for ref in listed:
                for i in range(d + 1):
                    assert s.face(ref, i) in lower
        for d in range(3):
            listed = set(enumerate_simplices(s, d))
            upper = set(enumerate_simplices(s, d + 1))
            for ref in listed:
                for i in range(d + 1):
                    assert s.degeneracy(ref, i) in upper


class TestOperatorAction:
    def test_simplicial_identities_on_refs(self):
        s = simplex(2)
        for d in (2, 3):
            for ref in enumerate_simplices(s, d):
                for j in range(1, d + 1):
                    for i in range(j):
                        assert s.face(s.face(ref, j), i) == \
                            s.face(s.face(ref, i), j - 1)

    def test_degeneracy_face_cancellation(self):
        s = circle()
        for d in (1, 2):
            for ref in enumerate_simplices(s, d):
                for i in range(d + 1):
                    si = s.degeneracy(ref, i)
                    assert s.face(si, i) == ref
                    assert s.face(si, i + 1) == ref


class TestEnumerateMaps:
    def test_hom_interval_interval(self):
        assert len(enumerate_maps(simplex(1), simplex(1))) == 3

    def test_hom_from_empty(self):
        for x in (simplex(2), empty_sset(), circle()):
            assert len(enumerate_maps(boundary(0), x)) == 1

    def test_hom_points_into_triangle(self):
        assert len(enumerate_maps(simplex(0), simplex(2))) == 3

    def test_hom_into_empty(self):
        assert len(enumerate_maps(simplex(0), empty_sset())) == 0

    def test_hom_counts_against_monotone_recursion(self):
        from math import comb
        for m in range(4):
            for n in range(4):
                got = len(enumerate_maps(simplex(m), simplex(n)))
                assert got == _mono_rec(m, n), (m, n)
                assert got == comb(m + n + 1, m + 1), (m, n)

    def test_all_enumerated_maps_are_maps(self):
        for a in (boundary(1), simplex(1), horn(2, 1)):
            for f in enumerate_maps(a, circle()):
                assert is_map(f)

    def test_enumeration_is_duplicate_free_and_sorted(self):
        maps = enumerate_maps(boundary(1), simplex(1))
        keys = [f.sort_key() for f in maps]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_order_matches_recursive_search(self):
        objs = [empty_sset(), simplex(0), boundary(1), simplex(1), circle(),
                horn(2, 1), boundary(2), simplex(2)]
        for a in objs:
            for x in objs:
                assert enumerate_maps(a, x) == _recursive_hom(a, x), (a, x)

    def test_deep_source_does_not_recurse(self):
        # one generator per nonempty vertex subset: 2047 of them
        maps = enumerate_maps(simplex(10), simplex(0))
        assert len(maps) == 1
        assert set(maps[0].images.values()) == \
            set(enumerate_simplices(simplex(0), d)[0] for d in range(11))

    def test_circle_maps_to_interval_are_constant(self):
        maps = enumerate_maps(circle(), simplex(1))
        # the loop must land on a degenerate edge: one map per vertex
        assert len(maps) == 2
        for f in maps:
            assert f.images["e"].word


class TestComposeIdentity:
    def test_identity_laws(self):
        f = enumerate_maps(boundary(1), simplex(1))[1]
        assert compose(identity(simplex(1)), f) == f
        assert compose(f, identity(boundary(1))) == f

    def test_collapse_after_inclusion(self):
        inc = boundary_inclusion(1)
        collapse = enumerate_maps(simplex(1), simplex(0))[0]
        got = compose(collapse, inc)
        expect = enumerate_maps(boundary(1), simplex(0))[0]
        assert got == expect

    def test_vertex_through_edge_into_triangle(self):
        v0 = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("0")})
        e01 = SimplicialMap(simplex(1), simplex(2),
                            {"0": SimplexRef("0"), "1": SimplexRef("1"),
                             "01": SimplexRef("01")})
        assert is_map(v0) and is_map(e01)
        got = compose(e01, v0)
        assert got.images["0"] == SimplexRef("0")

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            compose(boundary_inclusion(1), boundary_inclusion(1))

    def test_missing_image_raises_value_error(self):
        # the constructor keeps a missing image and map_errors reports it;
        # compose names it instead of failing on None
        f = SimplicialMap(simplex(1), simplex(1),
                          {"0": SimplexRef("0"), "1": SimplexRef("1")})
        assert map_errors(f) == ["no image for 01"]
        with pytest.raises(ValueError, match="^compose: no image for 01$"):
            compose(identity(simplex(1)), f)
        # a missing image of the second map that the composite degenerates;
        # the map's own image of that degenerate simplex is None
        g = SimplicialMap(simplex(0), simplex(0), {})
        collapse = enumerate_maps(simplex(1), simplex(0))[0]
        assert collapse.img[2] == SimplexRef("0", (0,))
        assert g(collapse.img[2]) is None
        with pytest.raises(ValueError, match="^compose: no image for 0$"):
            compose(g, collapse)

    def test_missing_image_of_the_second_map_used_nondegenerately(self):
        g = SimplicialMap(simplex(0), simplex(0), {})
        with pytest.raises(ValueError, match="^compose: no image for 0$"):
            compose(g, identity(simplex(0)))

    def test_missing_image_names_the_one_the_composite_uses(self):
        # g lacks images for 0 and 1, and the composite uses only 1
        g = SimplicialMap(simplex(1), simplex(1), {"01": SimplexRef("01")})
        v1 = SimplicialMap(simplex(0), simplex(1), {"0": SimplexRef("1")})
        with pytest.raises(ValueError, match="^compose: no image for 1$"):
            compose(g, v1)

    def test_associativity_exhaustive_small(self):
        objs = [simplex(0), boundary(1), simplex(1)]
        for a, b, c, d in itertools.product(objs, repeat=4):
            for f in enumerate_maps(a, b):
                for g in enumerate_maps(b, c):
                    for h in enumerate_maps(c, d):
                        assert compose(h, compose(g, f)) == \
                            compose(compose(h, g), f)


class TestMinimalSubcomplex:
    def test_top_cell_closure(self):
        sub, inc = minimal_subcomplex(simplex(2), ["012"])
        assert sub.size() == 7
        assert is_map(inc)

    def test_single_vertex(self):
        sub, _ = minimal_subcomplex(simplex(2), ["1"])
        assert sub.size() == 1

    def test_edge_closure_in_boundary(self):
        sub, inc = minimal_subcomplex(boundary(2), ["01"])
        assert sub.size() == 3
        assert validate(sub).ok

    def test_unknown_seed(self):
        with pytest.raises(KeyError):
            minimal_subcomplex(simplex(1), ["zz"])


class TestMapErrors:
    def test_bad_map_reported(self):
        f = SimplicialMap(simplex(1), simplex(1),
                          {"0": SimplexRef("0"), "1": SimplexRef("0"),
                           "01": SimplexRef("01")})
        assert map_errors(f)

    def test_unknown_image_is_a_diagnostic(self):
        f = SimplicialMap(simplex(1), simplex(0),
                          {"0": SimplexRef("0"), "1": SimplexRef("zz"),
                           "01": SimplexRef("0", (0,))})
        assert map_errors(f) == [
            "image of 1 names 'zz', which is not a simplex of the target"]

    def test_image_word_not_in_normal_form_is_a_diagnostic(self):
        f = SimplicialMap(simplex(1), simplex(0),
                          {"0": SimplexRef("0"), "1": SimplexRef("0"),
                           "01": SimplexRef("0", (1,))})
        assert map_errors(f) == [
            "image of 01: degeneracy word (1,) is not in normal form"]

    def test_faces_over_a_bad_image_are_not_compared(self):
        f = SimplicialMap(simplex(2), simplex(0), {
            n: SimplexRef("0", tuple(range(len(n) - 2, -1, -1)))
            for n in simplex(2).names() if n != "1"})
        assert map_errors(f) == ["no image for 1"]

    def test_extra_image_names_are_refused(self):
        # a name that is not a simplex of the source was kept, compared
        # equal to the identity and carried along by compose
        with pytest.raises(ValueError, match="source has no simplex 'zz'"):
            SimplicialMap(simplex(0), simplex(0),
                          {"0": SimplexRef("0"), "zz": SimplexRef("0")})
        with pytest.raises(ValueError, match="'1', '01'"):
            SimplicialMap(simplex(0), simplex(1),
                          {"0": SimplexRef("0"), "1": SimplexRef("1"),
                           "01": SimplexRef("01")})

    @pytest.mark.parametrize("image", ["0", ("0",), ("0", ()), 0])
    def test_an_image_that_is_not_a_reference_is_refused(self, image):
        # map_errors and compose read .base and .word off every image
        with pytest.raises(ValueError, match="image of '0' is not a "
                                             "SimplexRef"):
            SimplicialMap(simplex(0), simplex(0), {"0": image})
        with pytest.raises(ValueError, match="image of '01'"):
            SimplicialMap(simplex(1), simplex(0), {
                "0": SimplexRef("0"), "1": SimplexRef("0"), "01": image})

    def test_a_missing_image_is_allowed_and_reported(self):
        f = SimplicialMap(simplex(1), simplex(1),
                          {"0": SimplexRef("0"), "01": SimplexRef("01")})
        assert f.img == (SimplexRef("0"), None, SimplexRef("01"))
        assert "1" not in f.images and f.images.get("1") is None
        assert map_errors(f) == ["no image for 1"]
        g = SimplicialMap(simplex(1), simplex(1), {
            "0": SimplexRef("0"), "1": None, "01": SimplexRef("01")})
        assert g == f


def compose_with_a_string_image():
    # the planted fault: a map built past the constructor's checks with a
    # str image; compose re-raises the AttributeError it is not about
    f = _positional(simplex(0), simplex(0), ("0",))
    compose(identity(simplex(0)), f)


CORE_GUARDS = [
    ("compose-foreign-error", compose_with_a_string_image, AttributeError,
     "'str' object has no attribute"),
    ("simplex", lambda: simplex(-1), ValueError, "simplex: n must be >= 0"),
    ("boundary", lambda: boundary(-1), ValueError,
     "boundary: n must be >= 0"),
]


@pytest.mark.parametrize("case,exc,match", [g[1:] for g in CORE_GUARDS],
                         ids=[g[0] for g in CORE_GUARDS])
def test_every_guard_raises(case, exc, match):
    with pytest.raises(exc, match=match):
        case()
