"""Exact finite colimits: coproducts, pushouts, and sequential colimits.

A pushout is computed dimensionwise: the simplices of the corner in each
dimension are equivalence classes of simplices of the coproduct, where the
relation is generated by identifying the two images of every simplex of the
gluing object.  Because that generating family is closed under all
simplicial operators, its dimensionwise equivalence closure is already a
simplicial congruence, so a per-dimension union-find gives the exact
quotient.  Normal forms of classes are re-extracted afterwards.
"""

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    _codegeneracy,
    _mono_compose,
    _positional,
    _surj_to_word,
    _word_to_surj,
    compose,
    enumerate_simplices,
    identity,
)


class _DisjointSet:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


# ---------------------------------------------------------------------------
# Coproducts

def coproduct(family):
    """Disjoint union of a (possibly empty) family of objects; simplices of
    summand t are relabeled with prefix "i{t}_".  Returns the coproduct and
    the list of injections."""
    by_dim = {}
    faces = {}
    top = max((s.dim for s in family), default=-1)
    for d in range(top + 1):
        names = []
        for t, s in enumerate(family):
            names.extend(f"i{t}_{n}" for n in s.simplices(d))
        if names:
            by_dim[d] = names
    for t, s in enumerate(family):
        for n in s.names():
            if s.dim_of(n) >= 1:
                faces[f"i{t}_{n}"] = tuple(
                    SimplexRef(f"i{t}_{r.base}", r.word)
                    for r in s.faces_of(n))
    out = FiniteSimplicialSet(by_dim, faces)
    injections = [
        _positional(s, out, tuple(SimplexRef(f"i{t}_{n}") for n in s.names()))
        for t, s in enumerate(family)]
    return out, injections


def coproduct_induced(cop, injections, maps):
    """The map out of a coproduct determined by one map per summand, all
    into a common target."""
    if not maps:
        if not cop.is_empty:
            raise ValueError("coproduct_induced: no maps for nonempty coproduct")
        raise ValueError("coproduct_induced: empty family needs explicit target")
    target = maps[0].target
    images = {}
    for inj, m in zip(injections, maps):
        if m.target != target:
            raise ValueError("coproduct_induced: targets disagree")
        images.update(zip((ref.base for ref in inj.img), m.img))
    return SimplicialMap(cop, target, images)


# ---------------------------------------------------------------------------
# Pushouts

class PushoutResult:
    """Corner of a pushout square together with its two legs and, for each
    nondegenerate simplex of the corner, the names of the simplices of the
    two input objects lying over it."""

    def __init__(self, corner, leg_from_b, leg_from_c, provenance):
        self.corner = corner
        self.leg_from_b = leg_from_b
        self.leg_from_c = leg_from_c
        self.provenance = provenance

    def origin(self, name):
        froms_b, froms_c = self.provenance[name]
        if froms_b and froms_c:
            return "glued"
        return "b" if froms_b else "c"


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


def pushout_induced(p, from_b, from_c):
    """The unique map out of a pushout corner determined by a commuting
    cocone (from_b on B, from_c on C).  Uniqueness is forced because the two
    legs are jointly surjective on nondegenerate simplices; commutation of
    the cocone is a precondition and is re-verified on the result."""
    if from_b.target != from_c.target:
        raise ValueError("pushout_induced: cocone targets disagree")
    img = []
    for name in p.corner.names():
        froms_b, froms_c = p.provenance[name]
        img.append(from_b(SimplexRef(froms_b[0])) if froms_b
                   else from_c(SimplexRef(froms_c[0])))
    h = _positional(p.corner, from_b.target, tuple(img))
    if compose(h, p.leg_from_b) != from_b or compose(h, p.leg_from_c) != from_c:
        raise ValueError("pushout_induced: cocone does not commute")
    return h


# ---------------------------------------------------------------------------
# Sequential colimits

class StageRecord:
    """A finite chain X_0 -> X_1 -> ... -> X_m of inclusions, with the birth
    stage (first stage of existence) of every nondegenerate simplex of the
    final object."""

    def __init__(self, objects, inclusions, birth):
        self.objects = list(objects)
        self.inclusions = list(inclusions)
        self.birth = dict(birth)

    @property
    def final(self):
        return self.objects[-1]

    @property
    def stages(self):
        return len(self.objects) - 1

    def composite_from(self, k):
        """The composite inclusion X_k -> X_m."""
        m = identity(self.objects[k])
        for inc in self.inclusions[k:]:
            m = compose(inc, m)
        return m

    def composite(self):
        return self.composite_from(0)


def sequential_colimit(inclusions, base=None):
    """Chain a list of stage inclusions into a StageRecord.  Every map must
    send each nondegenerate simplex to a nondegenerate simplex of its target
    of the same dimension, injectively (the combinatorial meaning of an
    inclusion); violations name the stage."""
    if not inclusions:
        if base is None:
            raise ValueError("sequential_colimit: need at least a base object")
        objects = [base]
    else:
        objects = [inclusions[0].source]
        for k, inc in enumerate(inclusions):
            if inc.source != objects[-1]:
                raise ValueError(f"sequential_colimit: stage {k} source does "
                                 "not match previous target")
            seen = set()
            target = inc.target
            for n, img in zip(inc.source.names(), inc.img):
                if img.word:
                    raise ValueError(f"sequential_colimit: stage {k} map "
                                     f"sends {n} to a degenerate simplex")
                if not (target.has(img.base) and target.dim_of(img.base)
                        == inc.source.dim_of(n)):
                    raise ValueError(f"sequential_colimit: stage {k} map "
                                     f"sends {n} to {img.base}, which is not "
                                     "a simplex of its target of the same "
                                     "dimension")
                if img.base in seen:
                    raise ValueError(f"sequential_colimit: stage {k} map is "
                                     "not injective on nondegenerate simplices")
                seen.add(img.base)
            objects.append(inc.target)

    # births are carried forward along each inclusion; a simplex no earlier
    # simplex maps onto is born at its own stage
    birth = dict.fromkeys(objects[0].names(), 0)
    for k, inc in enumerate(inclusions, start=1):
        carried = {ref.base: birth[n]
                   for n, ref in zip(inc.source.names(), inc.img)}
        birth = {n: carried.get(n, k) for n in inc.target.names()}
    return StageRecord(objects, inclusions, birth)
