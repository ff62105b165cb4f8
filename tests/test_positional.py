"""A map holds its images as one tuple in `source.names()` order, with
`images` a read-only view by name.  These tests check that representation
against the name-keyed one it replaced, over every hom-set among the
objects of `instances.py` and the standard objects of dimension <= 3."""

import pytest

from instances import SMALL_POOL, circle, path_two_edges, two_points
from ssetkit.core import (
    SimplicialMap,
    boundary,
    enumerate_maps,
    enumerate_simplices,
    horn,
    simplex,
)

STANDARD = ([simplex(n) for n in range(4)] + [boundary(n) for n in range(4)]
            + [horn(n, k) for n in range(1, 4) for k in range(n + 1)])
OBJECTS = list(dict.fromkeys(
    SMALL_POOL + [circle(), path_two_edges(), two_points()] + STANDARD))
HOM_SETS = [(a, x) for a in OBJECTS for x in OBJECTS]


def _old_ref_key(s, ref):
    """The key `ref_key` had before positions: (dim, index, word)."""
    d = s.dim_of(ref.base)
    return (d, s.simplices(d).index(ref.base), ref.word)


def test_the_hom_sets_are_many_and_nontrivial():
    sizes = [len(enumerate_maps(a, x)) for a, x in HOM_SETS]
    assert len(OBJECTS) >= 20
    assert sum(sizes) >= 1000 and max(sizes) >= 35


@pytest.mark.parametrize("s", OBJECTS, ids=repr)
def test_ref_key_orders_as_dim_index_word(s):
    refs = [r for d in range(s.dim + 2) for r in enumerate_simplices(s, d)]
    assert sorted(refs, key=s.ref_key) == sorted(
        refs, key=lambda r: _old_ref_key(s, r))


def test_rebuilding_from_the_view_gives_the_same_map():
    for a, x in HOM_SETS:
        homs = enumerate_maps(a, x)
        rebuilt = [SimplicialMap(m.source, m.target, dict(m.images))
                   for m in homs]
        for m, r in zip(homs, rebuilt):
            assert r == m and hash(r) == hash(m)
            assert r.img == m.img and r.sort_key() == m.sort_key()
        assert sorted(rebuilt, key=SimplicialMap.sort_key) == list(homs)
        assert sorted(homs, key=lambda m: [_old_ref_key(x, r)
                                           for r in m.img]) == list(homs)


def test_the_view_is_read_only():
    for a, x in HOM_SETS:
        for m in enumerate_maps(a, x)[:2]:
            view = m.images
            assert dict(view) == dict(zip(a.names(), m.img))
            for name in ("not a simplex", *a.names()):
                with pytest.raises(TypeError):
                    view[name] = None
                with pytest.raises(TypeError):
                    del view[name]
            assert dict(m.images) == dict(view)
