"""The planned search against the search it replaced (`indexed_search`):
for free, pinned and `over` searches, the same maps in the same order and
the same refutation count when exhausted; and the search plan is built
once per source object."""

from itertools import islice
from operator import itemgetter

import indexed_search as indexed
from test_search import (
    QUOTIENTS,
    STANDARD,
    dunce_cap,
    left_maps,
    right_maps,
    sources,
    sphere2,
    stage_objects,
)
from ssetkit.core import (
    FiniteSimplicialSet,
    _positional,
    _search_plan,
    compose,
    enumerate_maps,
    enumerate_simplices,
    extensions,
    simplex,
)
from ssetkit.lifting import _pins


def run(search):
    """Every map a search yields, as (img, sort_key), and what it returns
    when exhausted."""
    out = []
    while True:
        try:
            h = next(search)
        except StopIteration as done:
            return out, done.value
        out.append((h.img, h.sort_key()))


def same(a, x, pins=None, over=None):
    got = run(extensions(a, x, pins, over))
    assert got == run(indexed.extensions(a, x, pins, over))
    return got


def test_free_searches_match_the_indexed_search():
    targets = STANDARD + QUOTIENTS + stage_objects()
    found = 0
    for a in sources():
        for x in targets:
            found += len(same(a, x)[0])
    assert found > 1000


def test_pinned_and_over_searches_match_the_indexed_search():
    # the pinned bottom searches of `enumerate_squares` and the pinned
    # searches over a bottom of `solve_lift`, with and without the pins
    pairs = [(i, f) for i in left_maps() for f in right_maps()
             if i.source.size() <= 6]
    refuted = nodes = 0
    for i, f in pairs:
        for top in islice(enumerate_maps(i.source, f.source), 3):
            bottoms, _ = same(i.target, f.target,
                              _pins(i, compose(f, top).img))
            for img, _ in bottoms[:2]:
                below = _positional(i.target, f.target, img)
                maps, count = same(i.target, f.source, _pins(i, top.img),
                                   over=(f, below))
                same(i.target, f.source, over=(f, below))
                refuted += not maps
                nodes += count
    assert refuted >= 10 and nodes > 0


def test_both_face_readers_are_taken():
    # a source whose faces are all nondegenerate reads its keys with one
    # itemgetter; one with a degenerate face precomputes its surjections
    readers = [read for a in STANDARD + QUOTIENTS + stage_objects()
               for _, read in _search_plan(a)]
    assert any(type(read) is itemgetter for read in readers)
    assert any(type(read) is list for read in readers)
    surjections = [s for _, read in _search_plan(sphere2())
                   if type(read) is list for _, s in read]
    assert surjections and all(s is not None for s in surjections)
    assert all(type(read) is not list for _, read in _search_plan(
        dunce_cap()))


def test_the_plan_is_built_once_per_object():
    a = FiniteSimplicialSet({0: ["0", "1", "2"], 1: ["01", "12"]},
                            {"01": ["1", "0"], "12": ["2", "1"]})
    x = simplex(2)
    for d in range(2):
        enumerate_simplices(x, d)
    assert not a._memo
    first = run(extensions(a, x))
    assert list(a._memo) == ["plan"]
    plan = a._memo["plan"]
    assert run(extensions(a, x)) == first
    assert list(a._memo) == ["plan"] and a._memo["plan"] is plan
    assert _search_plan(a) is plan
