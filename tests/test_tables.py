"""The operator calculus against the surjection calculus it replaced
(`naive_operators.act`): the face index read off `face` equals the one
`indexed_search` builds by the reference `act` (keys, key order and groups),
`face` equals the reference `act` with a coface, degeneracies and map
images by degeneracy words equal it with a surjection, and `act` equals it
on every monotone map out of a sample of small ordinals.  `act` refuses
what is not a monotone map, and neither `act` nor the face index recurses,
so deep objects need no frame per dimension.  The index of a dimension is
built alone, from that dimension's simplices, and kept only once complete.
`enumerate_simplices` lists each dimension in `ref_key` order, which the
order within an index group follows.  The objects are the standard ones up
to dimension 4, the small pool, and every stage object of the
acceptance-corpus factorizations."""

import os
import pathlib
import subprocess
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, islice

import pytest

import indexed_search as indexed
import naive_operators as naive
import ssetkit
from instances import SMALL_POOL
from test_acceptance import _factorization_corpus
from test_search import QUOTIENTS
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    _face_index,
    boundary,
    enumerate_maps,
    enumerate_simplices,
    horn,
    simplex,
)


@lru_cache(maxsize=1)
def corpus_stages():
    return [x for run in _factorization_corpus()
            for x in [stage.p.source for stage in run.stages] + [run.middle]]


def objects():
    standard = ([simplex(n) for n in range(5)]
                + [boundary(n) for n in range(1, 5)]
                + [horn(n, k) for n in range(1, 5) for k in range(n + 1)])
    return standard + SMALL_POOL + QUOTIENTS + corpus_stages()


def stored_degenerate_faces(x):
    return [r for name in x.names() if x.dim_of(name)
            for r in x.faces_of(name) if r.word]


def test_corpus_stages_have_stored_degenerate_faces():
    assert any(map(stored_degenerate_faces, corpus_stages()))


def test_table_index_equals_the_act_index():
    compared = 0
    for x in objects():
        for d in range(1, x.dim + 2):
            got, want = _face_index(x, d), indexed._face_index(x, d)
            assert list(got.items()) == list(want.items()), (x, d)
            compared += sum(map(len, got.values()))
    assert compared > 2500


def test_face_equals_act_with_a_coface():
    for x in objects():
        for d in range(1, x.dim + 2):
            for ref in enumerate_simplices(x, d):
                for i in range(d + 1):
                    assert x.face(ref, i) == naive.act(
                        x, ref, naive._coface(i, d))


def test_degeneracy_words_equal_act():
    for x in objects():
        for d in range(x.dim + 2):
            for ref in enumerate_simplices(x, d):
                for i in range(d + 1):
                    assert x.degeneracy(ref, i) == naive.act(
                        x, ref, naive._codegeneracy(i, d))


def test_map_images_of_degenerate_simplices_equal_act():
    checked = 0
    for a in [simplex(1), boundary(2), horn(3, 1)] + QUOTIENTS:
        for x in [simplex(2)] + QUOTIENTS + corpus_stages()[-3:]:
            for f in enumerate_maps(a, x)[:40]:
                for ref in enumerate_simplices(a, a.dim + 2):
                    want = naive.act(x, f.img[a._pos[ref.base]],
                                     naive._word_to_surj(
                                         ref.word, a.dim_of(ref.base)))
                    assert f(ref) == want
                    checked += 1
    assert checked > 1000


def monotone_maps(m, top):
    """Every monotone map [m] -> [top], as its tuple of images."""
    return combinations_with_replacement(range(top + 1), m + 1)


def operator_pairs():
    """(x, ref, alpha) for every simplex ref of each object, in every
    dimension up to one above the object's, and every monotone map alpha
    into it from an ordinal of at most one dimension more."""
    for x in objects():
        for d in range(x.dim + 2):
            for ref in enumerate_simplices(x, d):
                for m in range(d + 2):
                    for alpha in monotone_maps(m, d):
                        yield x, ref, alpha


def test_act_equals_the_reference_act():
    # every 31st pair: the whole sweep takes about 20 s
    compared = 0
    for x, ref, alpha in islice(operator_pairs(), 0, None, 31):
        assert x.act(ref, alpha) == naive.act(x, ref, alpha), (ref, alpha)
        compared += 1
    assert compared > 25000


@pytest.mark.parametrize("alpha", [(2, 0), (0, 5), (1, 1, 0), (), (-1, 0),
                                   (0, 3, 3)])
def test_act_refuses_what_is_not_a_monotone_map(alpha):
    # an operator on the top simplex of Delta^2 is a nondecreasing,
    # nonempty tuple with values in 0..2
    with pytest.raises(ValueError, match="not an operator into \\[2\\]"):
        simplex(2).act(SimplexRef("012"), alpha)


@pytest.mark.parametrize("ref,i", [("012", -1), ("012", 3), ("0", 0),
                                   ("01", 2)])
def test_face_refuses_an_index_outside_the_range(ref, i):
    # a simplex of dimension m >= 1 has faces 0..m; a vertex has none
    with pytest.raises(ValueError, match=f"face: {i} is not a face of a"):
        simplex(2).face(SimplexRef(ref), i)


@pytest.mark.parametrize("ref,i", [("01", 5), ("01", -1), ("01", 2),
                                   ("0", 1)])
def test_degeneracy_refuses_an_index_outside_the_range(ref, i):
    # a simplex of dimension m has degeneracies 0..m
    with pytest.raises(ValueError,
                       match=f"degeneracy: {i} is not a degeneracy of a"):
        simplex(2).degeneracy(SimplexRef(ref), i)


def test_act_takes_the_operators_at_the_edges_of_the_range():
    top, x = SimplexRef("012"), simplex(2)
    assert x.act(top, (0, 1, 2)) == top
    assert x.act(top, (2,)) == SimplexRef("2")
    assert x.act(top, (0, 0, 2, 2)) == SimplexRef("02", (2, 0))


def test_simplices_are_listed_in_ref_key_order():
    for x in objects():
        for d in range(x.dim + 2):
            refs = enumerate_simplices(x, d)
            keys = list(map(x.ref_key, refs))
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_no_table_is_built_at_construction():
    v = SimplexRef("v", (0,))
    x = FiniteSimplicialSet({0: ["v"], 2: ["t"]}, {"t": [v, v, v]})
    assert not x._memo
    _face_index(x, 2)
    assert sorted(x._memo) == [("faces", 2), ("simplices", 2)]


SPHERE_UNDER_A_LOW_LIMIT = """
import sys
from ssetkit.core import FiniteSimplicialSet, SimplexRef, enumerate_maps

n = 120
face = SimplexRef("v", tuple(range(n - 2, -1, -1)))
sphere = FiniteSimplicialSet({0: ["v"], n: ["s"]}, {"s": [face] * (n + 1)})
sys.setrecursionlimit(100)
print(len(enumerate_maps(sphere, sphere)))
"""


CHAIN_UNDER_A_LOW_LIMIT = """
import sys
from ssetkit.core import FiniteSimplicialSet, SimplexRef

# one nondegenerate simplex per dimension, each face the one below
chain = FiniteSimplicialSet(
    {d: [f"x{d}"] for d in range(151)},
    {f"x{d}": [SimplexRef(f"x{d - 1}")] * (d + 1) for d in range(1, 151)})
sys.setrecursionlimit(100)
print(repr(chain.act(SimplexRef("x150"), (0,))))
"""


def run_under_a_low_limit(script):
    # a frame per dimension would not fit under a limit of 100 frames
    src = pathlib.Path(ssetkit.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tables_of_a_deep_object_need_no_recursion():
    assert run_under_a_low_limit(SPHERE_UNDER_A_LOW_LIMIT) == "2\n"


def test_act_dropping_many_vertices_needs_no_recursion():
    # the vertex of a 150-simplex: 150 faces, one dropped vertex each
    assert run_under_a_low_limit(CHAIN_UNDER_A_LOW_LIMIT) == \
        "SimplexRef('x0')\n"


def test_the_index_builds_only_its_own_dimension():
    # a fresh copy of Delta^3, whose memo the shared one may have filled
    x = FiniteSimplicialSet(dict(enumerate(simplex(3)._by_dim)),
                            simplex(3)._faces)
    index = _face_index(x, 3)
    assert set(x._memo) == {("simplices", 3), ("faces", 3)}
    assert _face_index(x, 3) is index
    assert [ref for group in index.values() for ref in group] == list(
        enumerate_simplices(x, 3))


def test_an_index_build_that_raises_leaves_no_entry():
    # an edge with one stored face: face 1 of it is not there
    x = FiniteSimplicialSet({0: ["a"], 1: ["e"]}, {"e": [SimplexRef("a")]})
    for _ in range(2):
        with pytest.raises(IndexError):
            _face_index(x, 1)
        assert ("faces", 1) not in x._memo
