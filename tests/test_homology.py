import pathlib
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_homology as dense
from dense_homology import _is_zero, _mat_mul
from instances import SMALL_POOL, random_presentation
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
    horn_inclusion,
    identity,
    simplex,
    validate,
)
from ssetkit import homology as homology_module
from ssetkit.cells import PresentationBuilder, realize
from ssetkit.formats import parse_cellpres, parse_document
from ssetkit.homology import (
    ChainComplex,
    HomologyGroup,
    chain_complex,
    homology,
    homology_groups,
    homology_of_complex,
    mapping_cone,
    path_components,
    smith_normal_form,
    weak_equivalence_certificate,
)


def circle():
    return FiniteSimplicialSet(
        {0: ["v"], 1: ["e"]},
        {"e": [SimplexRef("v"), SimplexRef("v")]})


def sphere2():
    return boundary(3)


def torus_like_projective_plane():
    # real projective plane: one vertex, one edge, one 2-cell with faces
    # (e, e, e) does not satisfy the identities; use the standard minimal
    # triangulation instead (6 vertices, 15 edges, 10 triangles)
    verts = [str(i) for i in range(1, 7)]
    tris = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    edges = sorted({(a, b) for t in tris
                    for a, b in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]})
    def ename(a, b):
        return f"e{a}{b}"
    faces = {}
    for a, b in edges:
        faces[ename(a, b)] = [SimplexRef(str(b)), SimplexRef(str(a))]
    for a, b, c in tris:
        faces[f"t{a}{b}{c}"] = [SimplexRef(ename(b, c)),
                                SimplexRef(ename(a, c)),
                                SimplexRef(ename(a, b))]
    return FiniteSimplicialSet(
        {0: verts, 1: [ename(a, b) for a, b in edges],
         2: [f"t{a}{b}{c}" for a, b, c in tris]},
        faces)


class TestChainComplex:
    def test_triangle_dd_zero(self):
        cx = chain_complex(simplex(2))
        assert _is_zero(_mat_mul(cx.matrix(1), cx.matrix(2)))

    def test_circle_boundary_vanishes(self):
        cx = chain_complex(circle())
        assert cx.matrix(1) == [[0]]

    def test_two_points(self):
        cx = chain_complex(boundary(1))
        assert cx.rank(0) == 2
        assert cx.rank(1) == 0


class TestSmithNormalForm:
    def test_diag_2_3(self):
        out = smith_normal_form([[2, 0], [0, 3]])
        assert out.factors == [1, 6]

    def test_zero_matrix(self):
        out = smith_normal_form([[0, 0], [0, 0]])
        assert out.factors == []

    def test_one_by_one(self):
        assert smith_normal_form([[1]]).factors == [1]

    def test_witnesses_random(self):
        rng = random.Random(5)

        def det(m):
            # Bareiss, exact
            a = [row[:] for row in m]
            n = len(a)
            sign = 1
            prev = 1
            for k in range(n - 1):
                if a[k][k] == 0:
                    swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                    if swap is None:
                        return 0
                    a[k], a[swap] = a[swap], a[k]
                    sign = -sign
                for i in range(k + 1, n):
                    for j in range(k + 1, n):
                        a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                prev = a[k][k]
            return sign * a[-1][-1] if n else 1

        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            out = smith_normal_form(m)
            prod = _mat_mul(_mat_mul(out.u, m), out.v)
            assert prod == out.diagonal
            for t in range(len(out.factors) - 1):
                assert out.factors[t + 1] % out.factors[t] == 0
            assert abs(det(out.u)) == 1
            assert abs(det(out.v)) == 1

    def test_empty_matrix(self):
        out = smith_normal_form([])
        assert out.factors == []


class TestHomology:
    def test_circle(self):
        assert homology(circle(), 0) == HomologyGroup(1)
        assert homology(circle(), 1) == HomologyGroup(1)
        assert homology(circle(), 2) == HomologyGroup(0)

    def test_triangle(self):
        groups = homology_groups(simplex(2), 3)
        assert groups[0] == HomologyGroup(1)
        assert all(g.trivial for g in groups[1:])

    def test_empty(self):
        for d in range(3):
            assert homology(empty_sset(), d).trivial

    def test_sphere(self):
        groups = homology_groups(sphere2(), 3)
        assert groups[0] == HomologyGroup(1)
        assert groups[1].trivial
        assert groups[2] == HomologyGroup(1)
        assert groups[3].trivial

    def test_projective_plane_torsion(self):
        rp2 = torus_like_projective_plane()
        assert validate(rp2).ok
        groups = homology_groups(rp2, 2)
        assert groups[0] == HomologyGroup(1)
        assert groups[1] == HomologyGroup(0, (2,))
        assert groups[2].trivial

    def test_group_str(self):
        assert str(HomologyGroup(0)) == "0"
        assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


class TestComponents:
    def test_boundary_two_components(self):
        assert len(path_components(boundary(1))) == 2

    def test_circle_connected(self):
        assert len(path_components(circle())) == 1


class TestCertificate:
    def test_identity_passes(self):
        # coherence on everything of dimension <= 3 in reach
        from ssetkit.core import simplex as sx
        pool = [sx(0), sx(1), sx(2), sx(3), circle(), boundary(1),
                boundary(2), boundary(3), horn(2, 0), horn(3, 1),
                torus_like_projective_plane(), empty_sset()]
        for s in pool:
            assert weak_equivalence_certificate(identity(s), 3).passed

    def test_horn_inclusion_passes(self):
        cert = weak_equivalence_certificate(horn_inclusion(2, 1), 3)
        assert cert.passed

    def test_collapse_two_points_fails_pi0(self):
        f = enumerate_maps(boundary(1), simplex(0))[0]
        cert = weak_equivalence_certificate(f, 3)
        assert not cert.passed
        assert cert.failure[0] == "pi0"
        assert cert.line() == "we-cert: fail level=pi0"

    def test_sphere_inclusion_fails_at_h2(self):
        cert = weak_equivalence_certificate(boundary_inclusion(3), 3)
        assert not cert.passed
        assert cert.failure[0] in ("H2", "H3")

    def test_empty_into_point_fails(self):
        f = SimplicialMap(empty_sset(), simplex(0), {})
        cert = weak_equivalence_certificate(f, 2)
        assert not cert.passed

    def test_horn_filling_smoke(self):
        # attaching a single horn filler leaves homology unchanged up to
        # degree 3, for assorted small bases
        rng = random.Random(9)
        bases = [simplex(1), boundary(2), circle(), horn(2, 0), simplex(2)]
        checked = 0
        for base in bases:
            for n in (1, 2):
                for k in range(n + 1):
                    homs = enumerate_maps(horn(n, k), base)
                    if not homs:
                        continue
                    att = rng.choice(homs)
                    b = PresentationBuilder(base)
                    b.attach("J", n, k, attaching=att)
                    stage = b.close_stage()
                    inc = stage.inclusion
                    before = homology_groups(base, 3)
                    after = homology_groups(inc.target, 3)
                    assert before == after
                    assert weak_equivalence_certificate(inc, 3).passed
                    checked += 1
        assert checked >= 10

    def test_cone_of_identity_acyclic(self):
        cone = mapping_cone(identity(simplex(2)))
        for d in range(4):
            assert homology_of_complex(cone, d).trivial


# ---------------------------------------------------------------------------
# The sparse reduction against the dense code it replaced

DATA = pathlib.Path(__file__).parent / "data"


def _closure(facets):
    out = set()
    for f in facets:
        r = tuple(sorted(f))
        for size in range(1, len(r) + 1):
            out.update(combinations(r, size))
    return out


def _name(s):
    return "v" + "_".join(map(str, s))


def complex_from_facets(facets):
    """The ordered simplicial complex spanned by `facets` (tuples of
    comparable vertices), as a simplicial set."""
    simplices = _closure(facets)
    top = max(len(s) for s in simplices) - 1
    by_dim = {d: [_name(s) for s in sorted(simplices) if len(s) == d + 1]
              for d in range(top + 1)}
    faces = {_name(s): [SimplexRef(_name(s[:i] + s[i + 1:]))
                        for i in range(len(s))]
             for s in simplices if len(s) >= 2}
    return FiniteSimplicialSet(by_dim, faces)


def quotient(facets, collapse):
    """The complex spanned by `facets` with the subcomplex spanned by
    `collapse` crushed to the vertex "pt": a face inside the subcomplex
    becomes the degenerate simplex on "pt" of its dimension."""
    crushed = _closure(collapse)
    keep = [s for s in sorted(_closure(facets)) if s not in crushed]
    by_dim = {0: ["pt"]}
    for s in keep:
        by_dim.setdefault(len(s) - 1, []).append(_name(s))

    def ref(t):
        if t in crushed:
            return SimplexRef("pt", tuple(range(len(t) - 2, -1, -1)))
        return SimplexRef(_name(t))

    faces = {_name(s): [ref(s[:i] + s[i + 1:]) for i in range(len(s))]
             for s in keep if len(s) >= 2}
    return FiniteSimplicialSet(by_dim, faces)


def same_homology(s):
    top = max(s.dim, 0) + 1
    assert homology_groups(s, top) == dense.homology_groups(s, top)


def test_instances_agree_with_dense():
    pool = list(SMALL_POOL) + [
        circle(), sphere2(), torus_like_projective_plane(), empty_sset()]
    pool += [simplex(n) for n in range(5)] + [boundary(n) for n in range(6)]
    pool += [horn(n, k) for n in range(1, 5) for k in range(n + 1)]
    for path in sorted(DATA.glob("*.sset")):
        pool += [s for s in parse_document(path.read_text()).objects.values()
                 if validate(s).ok]
    for path in sorted(DATA.glob("*.cellpres")):
        pool.append(realize(parse_cellpres(path.read_text())[0]).final)
    rng = random.Random(11)
    for base in (simplex(0), boundary(1), circle(), horn(2, 1)):
        builder = random_presentation(rng, base, max_stages=2, max_cells=3)
        pool.append(builder.current)
    for s in pool:
        assert chain_complex(s).matrix(s.dim) == \
            dense.chain_complex(s).matrix(s.dim)
        same_homology(s)


CONE_MAPS = [boundary_inclusion(n) for n in range(1, 5)] + [
    horn_inclusion(n, k) for n in range(1, 5) for k in range(n + 1)]


def test_cones_agree_with_dense():
    for f in CONE_MAPS:
        cone = mapping_cone(f)
        oracle = dense.mapping_cone(f)
        assert cone.basis == oracle.basis
        for d in range(cone.dims() + 2):
            assert cone.matrix(d) == oracle.matrix(d)
            assert homology_of_complex(cone, d) == \
                dense.homology_of_complex(oracle, d)


def factors_in_every_order(build, rnd):
    """Request every degree's factors top-down, bottom-up and in a shuffled
    order, each on a fresh complex from `build`; each list must be the
    factor list of the full Smith normal form."""
    degrees = list(range(build().dims() + 2))
    shuffled = degrees[:]
    rnd.shuffle(shuffled)
    for order in (degrees[::-1], degrees, shuffled):
        cx = build()
        for d in order:
            assert cx.factors(d) == smith_normal_form(cx.matrix(d)).factors


def cleared_like_dense(s, rnd):
    factors_in_every_order(lambda: chain_complex(s), rnd)
    same_homology(s)


FACETS = st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5,
                           unique=True),
                  min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(FACETS, st.randoms(use_true_random=False))
def test_random_complexes_agree_with_dense(facets, rnd):
    s = complex_from_facets(facets)
    assert validate(s).ok
    cleared_like_dense(s, rnd)


@settings(max_examples=30, deadline=None)
@given(st.lists(FACETS, min_size=2, max_size=3),
       st.randoms(use_true_random=False))
def test_disjoint_unions_agree_with_dense(parts, rnd):
    facets = [tuple((tag, v) for v in f)
              for tag, part in enumerate(parts) for f in part]
    cleared_like_dense(complex_from_facets(facets), rnd)


@settings(max_examples=40, deadline=None)
@given(FACETS, st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_quotients_agree_with_dense(facets, picks, rnd):
    simplices = sorted(_closure(facets))
    collapse = [simplices[p % len(simplices)] for p in picks]
    s = quotient(facets, collapse)
    assert validate(s).ok
    cleared_like_dense(s, rnd)


ENTRIES = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 1, 2, 4, 6])
MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda rc: st.lists(st.lists(ENTRIES, min_size=rc[1], max_size=rc[1]),
                        min_size=rc[0], max_size=rc[0]))


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_reduction_matches_full_snf(m):
    columns = [{i: row[j] for i, row in enumerate(m) if row[j]}
               for j in range(len(m[0]))]
    cx = ChainComplex([range(len(m)), range(len(m[0]))], {1: columns})
    assert cx.matrix(1) == m
    assert cx.factors(1) == smith_normal_form(m).factors


def test_large_sphere():
    start = time.perf_counter()
    groups = homology_groups(boundary(10), 9)
    assert groups == [HomologyGroup(1)] + [HomologyGroup(0)] * 8 \
        + [HomologyGroup(1)]
    # the dense code took about a minute here
    assert time.perf_counter() - start < 10


def broken_face_signs():
    # the faces of the triangle in a rotated order: d(d(t)) = 2(1) - 2(0)
    return FiniteSimplicialSet(
        {0: ["0", "1", "2"], 1: ["01", "02", "12"], 2: ["t"]},
        {"01": [SimplexRef("1"), SimplexRef("0")],
         "02": [SimplexRef("2"), SimplexRef("0")],
         "12": [SimplexRef("2"), SimplexRef("1")],
         "t": [SimplexRef("02"), SimplexRef("12"), SimplexRef("01")]})


def test_broken_face_sign_is_caught():
    bad = broken_face_signs()
    for build in (chain_complex, dense.chain_complex):
        with pytest.raises(ValueError, match="nonzero in degree 2"):
            build(bad)


def test_broken_source_is_caught_by_the_cone():
    # the cone's check is the only one on the source's boundary maps
    f = identity(broken_face_signs())
    with pytest.raises(RuntimeError, match="boundary squared is nonzero"):
        mapping_cone(f)
    with pytest.raises(RuntimeError, match="boundary squared is nonzero"):
        weak_equivalence_certificate(f, 3)


def test_non_chain_map_cone_is_caught():
    # both ends of the edge go to vertex 0, the edge to itself
    f = SimplicialMap(simplex(1), simplex(1), {
        "0": SimplexRef("0"), "1": SimplexRef("0"), "01": SimplexRef("01")})
    for cone in (mapping_cone, dense.mapping_cone):
        with pytest.raises(RuntimeError, match="boundary squared is nonzero"):
            cone(f)


# ---------------------------------------------------------------------------
# Clearing: the reduction from the top degree down

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONE_MAPS), st.randoms(use_true_random=False))
def test_clearing_on_cones(f, rnd):
    factors_in_every_order(lambda: mapping_cone(f), rnd)
    cone = mapping_cone(f)
    oracle = dense.mapping_cone(f)
    for d in range(cone.dims() + 1, -1, -1):
        cone.factors(d)
    for d in range(cone.dims() + 1):
        assert homology_of_complex(cone, d) == \
            dense.homology_of_complex(oracle, d)


class TestClearingHappens:
    def spy(self, monkeypatch):
        seen = []
        reduce = homology_module._invariant_factors

        def counting(columns):
            seen.append(len(columns))
            return reduce(columns)

        monkeypatch.setattr(homology_module, "_invariant_factors", counting)
        return seen

    def test_top_down_skips_the_cleared_columns(self, monkeypatch):
        s = boundary(4)
        seen = self.spy(monkeypatch)
        assert homology_groups(s, 3) == [HomologyGroup(1)] + \
            [HomologyGroup(0)] * 2 + [HomologyGroup(1)]
        cx = dense.chain_complex(s)

        def rank(d):
            return len(smith_normal_form(cx.matrix(d)).factors)

        # degrees 4, 3, 2, 1; degree 0, read for H_0, has no columns
        expected = [cx.rank(d) - rank(d + 1) for d in (4, 3, 2, 1)]
        assert seen == expected + [0]
        assert expected == [0, 5, 6, 4]

    def test_bottom_up_reduces_every_column(self, monkeypatch):
        cx = chain_complex(boundary(4))
        seen = self.spy(monkeypatch)
        for d in range(1, 5):
            cx.factors(d)
        assert seen == [cx.rank(d) for d in range(1, 5)] == [10, 10, 5, 0]

    def test_each_complex_is_checked_once(self, monkeypatch):
        calls = []
        check = homology_module._square_nonzero_degree

        def counting(bd):
            calls.append(len(bd))
            return check(bd)

        monkeypatch.setattr(homology_module, "_square_nonzero_degree",
                            counting)
        homology_groups(boundary(3), 2)
        homology_groups(boundary(3), 2)
        assert len(calls) == 2
        weak_equivalence_certificate(horn_inclusion(2, 1), 2)
        # the cone only: its diagonal blocks are the source's and the
        # target's boundary maps, so its check covers theirs
        assert len(calls) == 3

    def test_hand_built_complex_with_nonzero_square_is_rejected(self):
        # d(t) = e and d(e) = a: boundary squared is a, not 0
        with pytest.raises(ValueError, match="nonzero in degree 2"):
            ChainComplex([["a"], ["e"], ["t"]], {1: [{0: 1}], 2: [{0: 1}]})
