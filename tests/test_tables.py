"""The face tables against `act`: the face index built from `_tables` equals
the one `indexed_search` builds by `act` (keys, key order and groups),
`face` equals `act` with a coface, degeneracies and map images by
degeneracy words equal `act` with a surjection, and `enumerate_simplices`
lists each dimension in `ref_key` order, which the codes of `_tables` rely
on.  The
objects are the standard ones up to dimension 4, the small pool, and every
stage object of the acceptance-corpus factorizations."""

import os
import pathlib
import subprocess
import sys
from functools import lru_cache

import indexed_search as indexed
import ssetkit
from instances import SMALL_POOL
from test_acceptance import _factorization_corpus
from test_search import QUOTIENTS
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    _codegeneracy,
    _coface,
    _face_index,
    _tables,
    _word_to_surj,
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
                    assert x.face(ref, i) == x.act(ref, _coface(i, d))


def test_degeneracy_words_equal_act():
    for x in objects():
        for d in range(x.dim + 2):
            for ref in enumerate_simplices(x, d):
                for i in range(d + 1):
                    assert x.degeneracy(ref, i) == x.act(
                        ref, _codegeneracy(i, d))


def test_map_images_of_degenerate_simplices_equal_act():
    checked = 0
    for a in [simplex(1), boundary(2), horn(3, 1)] + QUOTIENTS:
        for x in [simplex(2)] + QUOTIENTS + corpus_stages()[-3:]:
            for f in enumerate_maps(a, x)[:40]:
                for ref in enumerate_simplices(a, a.dim + 2):
                    want = x.act(f.img[a._pos[ref.base]], _word_to_surj(
                        ref.word, a.dim_of(ref.base)))
                    assert f(ref) == want
                    checked += 1
    assert checked > 1000


def test_faces_by_code_are_the_faces():
    for x in objects():
        for d in range(1, x.dim + 2):
            refs, code, faces = _tables(x, d)
            below = enumerate_simplices(x, d - 1)
            assert refs is enumerate_simplices(x, d)
            assert [code[r] for r in refs] == list(range(len(refs)))
            for ref, key in zip(refs, faces):
                assert [below[c] for c in key] == [
                    x.act(ref, _coface(i, d)) for i in range(d + 1)]


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
    assert sorted(k for k in x._memo if k[0] == "tables") == [
        ("tables", 0), ("tables", 1), ("tables", 2)]


SPHERE_UNDER_A_LOW_LIMIT = """
import sys
from ssetkit.core import FiniteSimplicialSet, SimplexRef, enumerate_maps

n = 120
face = SimplexRef("v", tuple(range(n - 2, -1, -1)))
sphere = FiniteSimplicialSet({0: ["v"], n: ["s"]}, {"s": [face] * (n + 1)})
sys.setrecursionlimit(100)
print(len(enumerate_maps(sphere, sphere)))
"""


def test_tables_of_a_deep_object_need_no_recursion():
    # a frame per dimension would not fit under a limit of 100 frames
    src = pathlib.Path(ssetkit.__file__).resolve().parent.parent
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", SPHERE_UNDER_A_LOW_LIMIT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\n"


def test_tables_start_from_the_highest_dimension_built():
    x = FiniteSimplicialSet(dict(enumerate(simplex(3)._by_dim)),
                            simplex(3)._faces)
    _tables(x, 1)
    built = {key for key in x._memo if key[0] == "tables"}
    assert built == {("tables", 0), ("tables", 1)}
    _tables(x, 3)
    assert {key for key in x._memo if key[0] == "tables"} == {
        ("tables", d) for d in range(4)}
    for d in range(4):
        assert _tables(x, d)[0] == enumerate_simplices(x, d)
