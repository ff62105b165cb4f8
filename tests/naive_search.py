"""The searches that `core.extensions` replaced, kept as the test oracle.

`enumerate_maps`, `solve_lift` and `enumerate_squares` are the earlier
library code, unchanged except that the hom-set search has no cache and
the square filter calls the hom-set search of this module.  Each one scans
every d-simplex of the target, degenerate ones included, for every
generator.  `solve_lift` recurses once per generator, so it is bounded by
Python's recursion limit.
"""

from ssetkit.core import (
    SimplicialMap,
    _word_to_surj,
    compose,
    enumerate_simplices,
)
from ssetkit.lifting import Lift, LiftingProblem, NoLift


def enumerate_maps(a, x):
    """The complete hom-set of simplicial maps a -> x, by dimension-increasing
    backtracking over images of nondegenerate simplices with face-compatibility
    pruning.  Order is lexicographic in the generator images."""
    gens = [name for d in range(a.dim + 1) for name in a.simplices(d)]
    candidates = {d: enumerate_simplices(x, d) for d in range(a.dim + 1)}
    out = []
    images = {}

    def fits(name, d, cand):
        for i in range(d + 1):
            fr = a.faces_of(name)[i]
            img = images[fr.base]
            if fr.word:
                g = _word_to_surj(fr.word, a.dim_of(fr.base))
                want = x.act(img, g)
            else:
                want = img
            if x.face(cand, i) != want:
                return False
        return True

    # depth-first over the generators with an explicit stack: nxt[t] is
    # the next candidate to try for generator t
    nxt = [0] * len(gens)
    t = 0
    while t >= 0:
        if t == len(gens):
            out.append(SimplicialMap(a, x, images))
            t -= 1
            continue
        name = gens[t]
        d = a.dim_of(name)
        cands = candidates[d]
        i = nxt[t]
        while i < len(cands) and not (d == 0 or fits(name, d, cands[i])):
            i += 1
        if i == len(cands):
            nxt[t] = 0
            images.pop(name, None)
            t -= 1
            continue
        images[name] = cands[i]
        nxt[t] = i + 1
        t += 1
    return tuple(out)


def solve_lift(problem):
    """Decide a lifting problem.  Returns the least diagonal in the
    lexicographic map order, or NoLift with search statistics."""
    i, f = problem.left, problem.right
    b, x = i.target, f.source
    a = i.source

    # constraints from the top triangle: assigning the image of a
    # nondegenerate simplex u of B pins down h(i(a)) for every a with
    # i(a) based at u
    top_constraints = {}
    for name in a.names():
        ref = i.images[name]
        surj = (_word_to_surj(ref.word, b.dim_of(ref.base))
                if ref.word else None)
        top_constraints.setdefault(ref.base, []).append(
            (surj, problem.top.images[name]))

    gens = [name for d in range(b.dim + 1) for name in b.simplices(d)]
    candidates = {d: enumerate_simplices(x, d) for d in range(b.dim + 1)}
    images = {}
    refuted = 0

    def admissible(name, d, cand):
        for surj, want in top_constraints.get(name, ()):
            got = x.act(cand, surj) if surj else cand
            if got != want:
                return False
        if f(cand) != problem.bottom.images[name]:
            return False
        for t in range(d + 1) if d else ():
            fr = b.faces_of(name)[t]
            img = images[fr.base]
            if fr.word:
                want = x.act(img, _word_to_surj(fr.word, b.dim_of(fr.base)))
            else:
                want = img
            if x.face(cand, t) != want:
                return False
        return True

    def search(t):
        nonlocal refuted
        if t == len(gens):
            return SimplicialMap(b, x, images)
        name = gens[t]
        d = b.dim_of(name)
        for cand in candidates[d]:
            if admissible(name, d, cand):
                images[name] = cand
                found = search(t + 1)
                del images[name]
                if found is not None:
                    return found
                refuted += 1
            else:
                refuted += 1
        return None

    diag = search(0)
    if diag is None:
        return NoLift(refuted)
    return Lift(diag)


def enumerate_squares(i, f):
    """All commuting squares with left leg i and right leg f, ordered by
    (top index, bottom index) in the hom-set enumerations."""
    tops = enumerate_maps(i.source, f.source)
    bottoms = enumerate_maps(i.target, f.target)
    out = []
    for top in tops:
        ft = compose(f, top)
        for bottom in bottoms:
            if compose(bottom, i) == ft:
                out.append(LiftingProblem(i, f, top, bottom))
    return out
