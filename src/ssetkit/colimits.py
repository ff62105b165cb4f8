"""Exact finite colimits: coproducts, pushouts, and sequential colimits.

A pushout of i: A -> B along g: A -> C is the quotient of B + C by the
congruence generated by i(a) ~ g(a), and rests on two facts.  Only
simplices that some simplex of A glues can share a class, so one
union-find over the pairs i(a) ~ g(a), degenerate a included, is the whole
congruence; every other simplex is a class by itself.  And the quotient map
is simplicial, so the class of s_w x is s_w applied to the class of x: a
normal form is read by stepping from a simplex in a degenerate class to
the base of that class's least degenerate member and composing the
degeneracies met on the way, which by Eilenberg-Zilber uniqueness does not
depend on the member.  Which simplices of B and C lie over a corner
simplex is read off the two legs.

One routine, `_induced`, gives every map out of a colimit: out of a
coproduct, a pushout corner or a cell stage (`cells.StageData.induced`).
A colimit's legs are jointly surjective on nondegenerate simplices, so the
map is read off the first leg that reaches each simplex, and the routine
then checks that it restricts to the given map along every leg; a cocone
that does not commute is refused, never answered with a wrong map.
"""

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    _degenerate,
    _positional,
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


def _induced(obj, legs, maps, who):
    """The map out of `obj` that restricts to maps[t] along legs[t], legs
    jointly surjective on nondegenerate simplices: each one goes where its
    first nondegenerate preimage goes, legs in order.  The cocone is
    re-verified, so a map that does not restrict as asked is refused."""
    images = {}
    for leg, m in zip(legs, maps):
        for ref, want in zip(leg.img, m.img):
            if not ref.word:
                images.setdefault(ref.base, want)
    h = _positional(obj, maps[0].target, tuple(map(images.get, obj.names())))
    if any(m.source != leg.source or compose(h, leg) != m
           for leg, m in zip(legs, maps)):
        raise ValueError(f"{who}: cocone does not commute")
    return h


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
    if any(m.target != maps[0].target for m in maps):
        raise ValueError("coproduct_induced: targets disagree")
    if len(maps) != len(injections):
        raise ValueError("coproduct_induced: one map per summand")
    return _induced(cop, injections, maps, "coproduct_induced")


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
    B + C by the congruence generated by i(a) ~ g(a), a nondegenerate class
    named after its least member."""
    if i.source != g.source:
        raise ValueError("pushout: the two maps must share a source")
    b, c = i.target, g.target
    cop, (inj_b, inj_c) = coproduct([b, c])
    ib, ic = compose(inj_b, i), compose(inj_c, g)
    glued = _DisjointSet()
    for d in range(cop.dim + 1):
        for aref in enumerate_simplices(i.source, d):
            glued.union(ib(aref), ic(aref))
    classes = {}
    for ref in glued.parent:
        classes.setdefault(glued.find(ref), []).append(ref)
    # a glued simplex steps to its class's least degenerate member, or to
    # its least member when no member is degenerate
    step = {}
    for refs in classes.values():
        least = min(refs, key=lambda r: (not r.word, cop.ref_key(r)))
        step.update((r.base, least) for r in refs if not r.word)

    def class_nf(ref):
        """Normal form, in corner names, of the class of a coproduct ref:
        the quotient map is simplicial, so it carries the degeneracies of
        ref and of each degenerate member stepped through."""
        to = step.get(ref.base)
        if to is None:
            return ref
        word = ref.word
        while to.word:
            word = _degenerate(word, to.word)
            to = step.get(to.base) or SimplexRef(to.base)
        return SimplexRef(to.base, word)

    # a simplex names its class when it is the least member; the base of a
    # degenerate member has a lower dimension
    by_dim = {d: [n for n in cop.simplices(d)
                  if n not in step or step[n].base == n]
              for d in range(cop.dim + 1)}
    corner = FiniteSimplicialSet(by_dim, {
        n: tuple(map(class_nf, cop.faces_of(n)))
        for d in range(1, cop.dim + 1) for n in by_dim[d]})
    legs = [_positional(s, corner, tuple(map(class_nf, inj.img)))
            for s, inj in ((b, inj_b), (c, inj_c))]

    # B's simplex n lies over the corner simplex m iff its leg sends n to m
    # with no degeneracy; the same for C
    provenance = {m: ([], []) for m in corner.names()}
    for t, (s, leg) in enumerate(zip((b, c), legs)):
        for n, ref in zip(s.names(), leg.img):
            if not ref.word:
                provenance[ref.base][t].append(n)
    return PushoutResult(corner, *legs, {
        m: tuple(map(tuple, froms)) for m, froms in provenance.items()})


def pushout_induced(p, from_b, from_c):
    """The unique map out of a pushout corner determined by a commuting
    cocone (from_b on B, from_c on C).  Uniqueness is forced because the two
    legs are jointly surjective on nondegenerate simplices; commutation of
    the cocone is a precondition and is re-verified on the result."""
    if from_b.target != from_c.target:
        raise ValueError("pushout_induced: cocone targets disagree")
    return _induced(p.corner, [p.leg_from_b, p.leg_from_c], [from_b, from_c],
                    "pushout_induced")


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
