"""The pushout that `colimits.pushout` replaced, kept as the test oracle.

`pushout` is the earlier library code, unchanged.  It keeps one union-find
per dimension over every simplex of B + C, degenerate ones included,
extracts normal forms with a memoized recursive closure, and recovers
provenance by parsing the coproduct's "i0_"/"i1_" prefixes out of names.
"""

from naive_operators import (
    _codegeneracy,
    _mono_compose,
    _surj_to_word,
    _word_to_surj,
)
from ssetkit.colimits import PushoutResult, _DisjointSet, coproduct
from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    _positional,
    compose,
    enumerate_simplices,
)


def pushout(i, g):
    """Pushout of i: A -> B along g: A -> C.  The corner is the quotient of
    B + C by the congruence generated by i(a) ~ g(a)."""
    if i.source != g.source:
        raise ValueError("pushout: the two maps must share a source")
    a = i.source
    b, c = i.target, g.target
    cop, (inj_b, inj_c) = coproduct([b, c])
    ib = compose(inj_b, i)
    ic = compose(inj_c, g)
    dmax = max(b.dim, c.dim)

    uf = {d: _DisjointSet() for d in range(dmax + 1)}
    members = {d: {} for d in range(dmax + 1)}
    for d in range(dmax + 1):
        for ref in enumerate_simplices(cop, d):
            uf[d].find(ref)
        for aref in enumerate_simplices(a, d):
            uf[d].union(ib(aref), ic(aref))
        for ref in enumerate_simplices(cop, d):
            members[d].setdefault(uf[d].find(ref), []).append(ref)

    # Class naming: a class is nondegenerate iff none of its members is a
    # degenerate reference; it is then named after its least member.
    class_name = {}
    nondeg_classes = {d: [] for d in range(dmax + 1)}
    for d in range(dmax + 1):
        for root, refs in members[d].items():
            if any(r.word for r in refs):
                continue
            least = min(refs, key=cop.ref_key)
            class_name[(d, root)] = least.base
            nondeg_classes[d].append(least)
        nondeg_classes[d].sort(key=cop.ref_key)

    nf_memo = {}

    def class_nf(ref, d):
        """Normal form, in corner names, of the class of a coproduct ref."""
        root = uf[d].find(ref)
        key = (d, root)
        out = nf_memo.get(key)
        if out is not None:
            return out
        name = class_name.get(key)
        if name is not None:
            out = SimplexRef(name)
        else:
            # the class is degenerate: peel one degeneracy off its least
            # degenerate member and recurse
            cand = min((r for r in members[d][root] if r.word),
                       key=cop.ref_key)
            inner = class_nf(SimplexRef(cand.base, cand.word[1:]), d - 1)
            gi = _word_to_surj(inner.word, cop.dim_of(inner.base))
            comp = _mono_compose(gi, _codegeneracy(cand.word[0], d - 1))
            out = SimplexRef(inner.base, _surj_to_word(comp))
        nf_memo[key] = out
        return out

    by_dim = {}
    faces = {}
    for d in range(dmax + 1):
        names = [r.base for r in nondeg_classes[d]]
        if names:
            by_dim[d] = names
        if d >= 1:
            for r in nondeg_classes[d]:
                faces[r.base] = tuple(class_nf(fr, d - 1)
                                      for fr in cop.faces_of(r.base))
    corner = FiniteSimplicialSet(by_dim, faces)

    leg_b = _positional(b, corner, tuple(
        class_nf(r, b.dim_of(n)) for n, r in zip(b.names(), inj_b.img)))
    leg_c = _positional(c, corner, tuple(
        class_nf(r, c.dim_of(n)) for n, r in zip(c.names(), inj_c.img)))
    del class_nf   # a recursive closure is a reference cycle: break it

    strip = {}
    for d in range(dmax + 1):
        for r in nondeg_classes[d]:
            froms_b, froms_c = [], []
            for m in members[d][uf[d].find(r)]:
                if m.word:
                    continue
                tag, _, orig = m.base.partition("_")
                (froms_b if tag == "i0" else froms_c).append(orig)
            strip[r.base] = (tuple(froms_b), tuple(froms_c))
    return PushoutResult(corner, leg_b, leg_c, strip)
