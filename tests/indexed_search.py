"""The search that `core.extensions` replaced, kept as the test oracle.

`extensions` is the earlier library code, unchanged except that it takes
the library's pins, degeneracy words, and turns them into surjections
itself.  It looks up every generator's dimension, faces, face positions and
degeneracy surjections again at each search node, in a `candidates` closure
called once per node, and fetches the target's simplices and face index
there too.  Every operator goes through `naive_operators.act`.

`_face_index` is the earlier face index, built by `act` from one coface per
face of every simplex (the earlier `FiniteSimplicialSet.face`, inlined), so
the oracle does not move with the `face` that builds the library's index.
"""

from naive_operators import _coface, _word_to_surj, act
from ssetkit.core import _positional, enumerate_simplices


def _face_index(x, d):
    """The d-simplices of x grouped by face tuple (face_0, ..., face_d), in
    canonical order within a group.  Built on first use, kept in x's memo."""
    index = x._memo.get(("act faces", d))
    if index is None:
        index = x._memo[("act faces", d)] = {}
        for ref in enumerate_simplices(x, d):
            faces = tuple(act(x, ref, _coface(i, d)) for i in range(d + 1))
            index.setdefault(faces, []).append(ref)
    return index


def extensions(a, x, pins=None, over=None):
    """The maps a -> x one at a time, lexicographic in the images of the
    generators of `a`: a depth-first search on an explicit stack.  The
    candidates for a generator are the simplices of x whose faces are the
    images already chosen for its faces, looked up in `_face_index`.

    `pins` maps the position of a generator in `a.names()` to pairs
    (word, want) that its image h must satisfy: h . alpha == want for the
    surjection alpha that `word` names, or h == want when `word` is empty.
    `over` is a pair (f, bottom) of maps x -> y and a -> y; only maps h
    with f . h == bottom come out.  When
    exhausted, the generator returns the count of refuted candidates: |x_d|
    summed over the search nodes visited, degenerate d-simplices included.
    """
    pins = pins or {}
    gens = tuple(a.names())
    pos = a._pos
    # the images on the current path; a face's is chosen before it is read
    chosen = [None] * len(gens)
    refuted = 0

    def candidates(t):
        nonlocal refuted
        name = gens[t]
        d = a.dim_of(name)
        pool = enumerate_simplices(x, d)
        refuted += len(pool)
        if d:
            key = tuple(chosen[pos[r.base]] if not r.word else act(
                x, chosen[pos[r.base]], _word_to_surj(r.word,
                                                      a.dim_of(r.base)))
                for r in a.faces_of(name))
            pool = _face_index(x, d).get(key, ())
        for word, want in pins.get(t, ()):
            if not word:
                pool = (want,) if want in pool else ()
            else:
                alpha = _word_to_surj(word, d)
                pool = [h for h in pool if act(x, h, alpha) == want]
        if over is not None:
            f, below = over[0], over[1].img[t]
            pool = [h for h in pool if f(h) == below]
        return pool

    # cands[t] lists the candidates for generator t on the current path,
    # and nxt[t] is the next one to try
    cands = [candidates(0)] if gens else []
    nxt = [0] * len(gens)
    t = 0
    while t >= 0:
        if t == len(gens):
            yield _positional(a, x, tuple(chosen))
        elif nxt[t] < len(cands[t]):
            chosen[t] = cands[t][nxt[t]]
            nxt[t] += 1
            t += 1
            if t < len(gens):
                cands[t:] = [candidates(t)]
                nxt[t] = 0
            continue
        t -= 1
    return refuted
