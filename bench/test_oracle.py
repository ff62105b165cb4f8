"""Fast checks of the benchmark's oracle against brute force and
textbook facts; no ssetkit involved."""

from collections import Counter
from itertools import combinations, product

import oracle
import spaces


def _monotone_on(simplices, f):
    return all(f[a] <= f[b] for s in simplices
               for a, b in combinations(sorted(s), 2))


def _maps_into_simplex(n, m, simplices):
    """Maps from an ordered complex on vertices 0..n into the nerve Delta^m:
    vertex maps monotone along every simplex."""
    return sum(_monotone_on(simplices, f)
               for f in product(range(m + 1), repeat=n + 1))


def test_hom_counts_match_brute_force():
    for n in range(4):
        for m in range(4):
            assert _maps_into_simplex(n, m, spaces.simplex(n)) == \
                oracle.hom_simplex_simplex(n, m)
    for n in range(2, 5):
        for m in range(4):
            assert _maps_into_simplex(n, m, spaces.boundary(n)) == \
                oracle.hom_boundary_simplex(n, m)
    for m in range(5):
        assert _maps_into_simplex(1, m, [(0,), (1,)]) == \
            oracle.hom_boundary1_simplex(m)


def test_hom_into_circle_counts_its_simplices():
    for n in range(6):
        monotone = [t for t in product((0, 1), repeat=n + 1)
                    if list(t) == sorted(t)]
        # the two constant maps are the same degenerate base point
        assert len(monotone) - 1 == oracle.hom_simplex_circle(n)


def test_sizes_of_standard_objects():
    for n in range(1, 6):
        assert oracle.simplex_size(n) == len(spaces.closure(spaces.simplex(n)))
        assert oracle.boundary_size(n) == len(spaces.closure(
            spaces.boundary(n)))
        assert oracle.horn_size(n) == len(spaces.closure(spaces.horn(n, 0)))


def test_realization_and_pushout_sizes():
    assert oracle.realized_size(3, ["I", "J", "J"]) == 8
    assert oracle.births(3, [["I", "J"], ["J"]]) == [3, 3, 2]
    # the circle as Delta^1 glued along its boundary to a point
    assert oracle.pushout_size(3, 2, 1) == 2
    assert oracle.j2i_attachments(3) == 6


def test_factor_stage_reads_the_cell_name():
    assert oracle.factor_stage("c2_0_012") == 2
    assert oracle.factor_stage("c1_1_0") == 1
    assert oracle.factor_stage("01") == 0
    assert oracle.factor_stage("circle") == 0


def test_exit_codes():
    assert oracle.exit_code("none") == 0
    assert oracle.exit_code("dangling_face") == 1
    for fault in ("garbled", "missing_image", "bad_word", "attach_missing"):
        assert oracle.exit_code(fault) == 2


def test_disjoint_union_regroups_torsion():
    assert oracle._merge_torsion((2,), (3,)) == (6,)
    assert oracle._merge_torsion((4,), (2, 6)) == (2, 2, 12)
    both = oracle.disjoint_union(oracle.projective_plane(2),
                                 oracle.klein_bottle(2))
    assert both == [(2, ()), (1, (2, 2)), (0, ())]


def _surface_counts(facets):
    """Simplex counts of a closed surface, after checking that every edge
    lies on exactly two triangles."""
    assert all(len(set(f)) == 3 for f in facets)
    assert len({frozenset(f) for f in facets}) == len(facets)
    edges = Counter(frozenset(e) for f in facets for e in combinations(f, 2))
    assert set(edges.values()) == {2}
    by_dim = Counter(len(s) - 1 for s in spaces.closure(facets))
    return [by_dim[d] for d in range(3)]


def test_surfaces_have_the_textbook_euler_characteristic():
    cases = [(spaces.PROJECTIVE_PLANE, oracle.projective_plane(2))]
    for p, q in ((3, 3), (4, 5), (5, 6)):
        cases.append((spaces.torus(p, q), oracle.torus(2)))
    for p, q in ((3, 4), (4, 4), (5, 6)):
        cases.append((spaces.klein_bottle(p, q), oracle.klein_bottle(2)))
    for facets, groups in cases:
        counts = _surface_counts(facets)
        assert oracle.euler_from_counts(counts) == \
            oracle.euler_from_groups(groups)


def test_spheres_have_the_textbook_euler_characteristic():
    for n in range(2, 8):
        by_dim = Counter(len(s) - 1 for s in spaces.closure(
            spaces.boundary(n)))
        counts = [by_dim[d] for d in range(n)]
        assert oracle.euler_from_counts(counts) == \
            oracle.euler_from_groups(oracle.sphere(n - 1, n - 1))


def test_object_sizes_reads_dim_lines():
    text = ("sset/1\n\nobject A\n  dim 0: x y\n  dim 1: e\n"
            "  faces e: y x\n\nobject P\n  dim 0: p\n\n"
            "map f : A -> P\n  x -> p\n")
    assert oracle.object_sizes(text) == {"A": 3, "P": 1}
