"""Finite simplicial sets in Eilenberg-Zilber normal form.

A finite simplicial set is stored as its nondegenerate simplices plus, for
each nondegenerate simplex of dimension d >= 1, an ordered list of d+1 face
references.  A face reference names a nondegenerate simplex together with a
strictly decreasing word of degeneracy indices, which is the unique normal
form of a possibly-degenerate simplex.  Degeneracies act on words alone
(`_degenerate`), a nondegenerate simplex's faces are stored, `_tables` gives
every face of a dimension, and `FiniteSimplicialSet.act` any other operator.

Every hom-set, lift and square comes from one search, `extensions`.  Its
plan per source object (each generator's dimension and face-key reader) is
built on the first search out of the object and kept in its memo; it saves
lookups only, so it changes no node, no node order and no refutation count.

Everything here is immutable after construction; internal memo tables are
write-once caches and do not affect equality.
"""

from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

# fixed sizes of the module-level memos, so that none grows without bound:
# objects and hom-sets are large and few, monotone operators small and many
OBJECT_CACHE_SIZE = 128
OPERATOR_CACHE_SIZE = 4096


# ---------------------------------------------------------------------------
# Monotone maps between finite ordinals, encoded as tuples of images.
# A tuple t of length m+1 with values in 0..n encodes a monotone [m] -> [n].

def _mono_compose(f, g):
    # f after g: (f . g)(x) = f(g(x))
    return tuple(f[x] for x in g)


def _mono_identity(n):
    return tuple(range(n + 1))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _coface(i, n):
    # the injection [n-1] -> [n] that skips i
    return tuple(range(i)) + tuple(range(i + 1, n + 1))


def _codegeneracy(i, n):
    # the surjection [n+1] -> [n] that repeats i
    return tuple(x if x <= i else x - 1 for x in range(n + 2))


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _word_to_surj(word, base_dim):
    """Surjection [base_dim + len(word)] -> [base_dim] named by a decreasing
    degeneracy word, applied innermost-last."""
    f = _mono_identity(base_dim)
    for i in reversed(word):
        f = _mono_compose(f, _codegeneracy(i, len(f) - 1))
    return f


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _degenerate(word, inner):
    """Normal form of s_word s_inner, by s_i s_j = s_{j+1} s_i for i <= j."""
    for j in reversed(word):
        inner = (tuple(v + 1 for v in inner if v >= j) + (j,)
                 + tuple(v for v in inner if v < j))
    return inner


def _surj_to_word(f):
    """Inverse of `_word_to_surj`: the positions where f repeats, largest first."""
    return tuple(j for j in range(len(f) - 2, -1, -1) if f[j] == f[j + 1])


def _epi_mono(h):
    """Factor a monotone map h as (surjection, injection) with h = inj . surj."""
    image = sorted(set(h))
    rank = {v: t for t, v in enumerate(image)}
    return tuple(rank[v] for v in h), tuple(image)


# a tuple keeps memory down and compares and hashes in C: every face, map
# image and search candidate is one of these
class SimplexRef(NamedTuple):
    """A simplex in normal form: a nondegenerate base plus a strictly
    decreasing degeneracy word (empty for nondegenerate simplices)."""

    base: str
    word: tuple = ()

    @property
    def degenerate(self):
        return bool(self.word)

    def __repr__(self):
        if not self.word:
            return f"SimplexRef({self.base!r})"
        return f"SimplexRef({self.base!r}, {self.word!r})"


def word_valid(word, dim):
    """Whether `word` is a legal degeneracy word for a simplex of total
    dimension `dim` (strictly decreasing, nonnegative, largest index < dim)."""
    if any(word[t] <= word[t + 1] for t in range(len(word) - 1)):
        return False
    return all(0 <= i < dim for i in word)


class FiniteSimplicialSet:
    """A finite simplicial set with named nondegenerate simplices.

    `simplices` maps dimension to an ordered sequence of simplex names;
    `faces` maps each name of dimension d >= 1 to its d+1 face references
    (index i holds the i-th face).  Construction is permissive: structural
    defects (dangling references, broken identities) are caught by
    `validate`, not here, so that invalid inputs can be reported rather than
    crash.  Operations other than `validate` assume a valid object.
    """

    __slots__ = ("_by_dim", "_faces", "_dim_of", "_pos", "_key", "_hash",
                 "_act_memo", "_memo")

    def __init__(self, simplices=None, faces=None):
        by_dim = {}
        if simplices:
            if isinstance(simplices, dict):
                items = simplices.items()
            else:
                items = enumerate(simplices)
            for d, names in items:
                names = tuple(names)
                if names:
                    by_dim[int(d)] = names
        top = max(by_dim) if by_dim else -1
        self._by_dim = tuple(by_dim.get(d, ()) for d in range(top + 1))
        norm_faces = {}
        for name, refs in (faces or {}).items():
            norm_faces[name] = tuple(
                r if isinstance(r, SimplexRef) else SimplexRef(r) for r in refs)
        self._faces = norm_faces
        self._dim_of = {n: d for d, names in enumerate(self._by_dim)
                        for n in names}
        self._pos = {n: p for p, n in enumerate(
            chain.from_iterable(self._by_dim))}
        self._key = (self._by_dim,
                     tuple(sorted(self._faces.items())))
        self._hash = hash(self._key)
        self._act_memo = {}
        self._memo = {}

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self):
        """Largest dimension with a nondegenerate simplex; -1 when empty."""
        return len(self._by_dim) - 1

    @property
    def is_empty(self):
        return not self._by_dim

    def simplices(self, d):
        """Names of the nondegenerate d-simplices, in canonical order."""
        if 0 <= d < len(self._by_dim):
            return self._by_dim[d]
        return ()

    def names(self):
        for names in self._by_dim:
            yield from names

    def size(self):
        return sum(len(names) for names in self._by_dim)

    def has(self, name):
        return name in self._dim_of

    def dim_of(self, name):
        return self._dim_of[name]

    def faces_of(self, name):
        return self._faces[name]

    def ref_dim(self, ref):
        return self._dim_of[ref.base] + len(ref.word)

    def ref_key(self, ref):
        """Total order on references of a fixed dimension: by base position
        in `names()` (base dimension, then index), then degeneracy word."""
        return (self._pos[ref.base], ref.word)

    def __eq__(self, other):
        return isinstance(other, FiniteSimplicialSet) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        counts = ",".join(str(len(names)) for names in self._by_dim)
        return f"FiniteSimplicialSet(<{counts or 'empty'}>)"

    # -- simplicial operator action ----------------------------------------

    def act(self, ref, alpha):
        """Normal form of ref . alpha for a monotone alpha: [m'] -> [m],
        where m is the dimension of `ref`.

        The degeneracy part of the composite is split off exactly; the
        injective part is pushed into the stored face data one coface at a
        time, renormalizing after each step.
        """
        key = (ref, alpha)
        memo = self._act_memo
        out = memo.get(key)
        if out is not None:
            return out
        k = self._dim_of[ref.base]
        g = _word_to_surj(ref.word, k) if ref.word else _mono_identity(k)
        h = _mono_compose(g, alpha)
        sigma, delta = _epi_mono(h)
        if len(delta) == k + 1:
            out = SimplexRef(ref.base, _surj_to_word(sigma))
        else:
            missing = max(v for v in range(k + 1) if v not in set(delta))
            face = self._faces[ref.base][missing]
            delta2 = tuple(v if v < missing else v - 1 for v in delta)
            inner = self.act(face, delta2)
            out = SimplexRef(inner.base, _degenerate(_surj_to_word(sigma),
                                                     inner.word))
        memo[key] = out
        return out

    def face(self, ref, i):
        """The i-th face of `ref`, in normal form (stored if nondegenerate)."""
        if not ref.word:
            return self._faces[ref.base][i]
        return self.act(ref, _coface(i, self.ref_dim(ref)))

    def degeneracy(self, ref, i):
        """The i-th degeneracy of `ref`, in normal form."""
        return SimplexRef(ref.base, _degenerate((i,), ref.word))


class SimplicialMap:
    """A simplicial map, determined by the images (arbitrary references in
    the target) of the nondegenerate simplices of the source.

    `img` holds them in `source.names()` order, None where one is missing;
    `images` is a read-only view by name.  Construction refuses a name that
    is not a simplex of the source and an image that is not a `SimplexRef`,
    but does not check face compatibility; `map_errors` does, and the
    enumeration and solver routines only ever build compatible maps.
    """

    __slots__ = ("source", "target", "img", "_hash")

    def __init__(self, source, target, images):
        if not images.keys() <= source._pos.keys():
            extra = [n for n in images if n not in source._pos]
            raise ValueError("map: the source has no simplex "
                             + ", ".join(map(repr, extra)))
        for name, ref in images.items():
            if ref is not None and not isinstance(ref, SimplexRef):
                raise ValueError(f"map: image of {name!r} is not a SimplexRef")
        self.source = source
        self.target = target
        self.img = tuple(map(images.get, source.names()))
        self._hash = None

    @property
    def images(self):
        """The image of each source simplex that has one, by name."""
        return MappingProxyType({n: r for n, r in zip(
            self.source.names(), self.img) if r is not None})

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (self.img == other.img and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source._hash, self.target._hash,
                               self.img))
        return self._hash

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r})"

    def __call__(self, ref):
        """Normal-form image of a reference of the source (None if missing)."""
        img = self.img[self.source._pos[ref.base]]
        if not ref.word or img is None:
            return img
        return SimplexRef(img.base, _degenerate(ref.word, img.word))

    def sort_key(self):
        """Lexicographic key by generator images, generators in canonical
        order; the order used for 'least' maps and lifts."""
        return tuple(map(self.target.ref_key, self.img))


def _positional(source, target, img):
    """The map with images `img`, a tuple in `source.names()` order."""
    m = object.__new__(SimplicialMap)
    m.source, m.target, m.img, m._hash = source, target, img, None
    return m


def _name_inclusion(sub, ambient):
    return _positional(sub, ambient, tuple(map(SimplexRef, sub.names())))


def identity(s):
    return _name_inclusion(s, s)


def compose(g, f):
    """The composite g . f (f first).  Raises ValueError on endpoint
    mismatch, on a missing image of f and on one of g that it uses."""
    if f.target != g.source:
        raise ValueError("compose: target of first map != source of second")
    pos, gimg = g.source._pos, g.img
    try:
        img = tuple([gimg[pos[r.base]] if not r.word else g(r)
                     for r in f.img])
    except AttributeError:  # from a None image of f
        if None not in f.img:
            raise
        img = f.img
    if None in img:
        k = img.index(None)
        name = (f.img[k] or SimplexRef(list(f.source.names())[k])).base
        raise ValueError(f"compose: no image for {name}")
    return _positional(f.source, g.target, img)


def map_errors(f):
    """Defects of a map, as human-readable strings: missing images, images
    that are not simplices of the target in normal form, and face
    incompatibilities.  Empty iff f is a genuine simplicial map (assuming
    valid endpoints)."""
    issues = []
    src, tgt = f.source, f.target
    bad = set()   # generators whose faces cannot be compared
    for name, img in zip(src.names(), f.img):
        d = src.dim_of(name)
        if img is None:
            issue = f"no image for {name}"
        elif not tgt.has(img.base):
            issue = (f"image of {name} names {img.base!r}, which is not a "
                     "simplex of the target")
        elif tgt.ref_dim(img) != d:
            issue = f"image of {name} has wrong dimension"
        elif not word_valid(img.word, d):
            issue = (f"image of {name}: degeneracy word {img.word} is not "
                     "in normal form")
        else:
            issue = None
        if issue is not None:
            issues.append(issue)
            bad.add(name)
            continue
        if d == 0 or any(r.base in bad for r in src.faces_of(name)):
            continue
        for i in range(d + 1):
            want = f(src.faces_of(name)[i])
            got = tgt.face(img, i)
            if want != got:
                issues.append(f"face {i} of {name}: image {got} != {want}")
    return issues


def is_map(f):
    return not map_errors(f)


# ---------------------------------------------------------------------------
# Validation

class ValidationReport:
    """Outcome of `validate` or `factorization.verify_factorization`: a
    list of defect descriptions, empty iff valid."""

    def __init__(self, issues):
        self.issues = list(issues)

    @property
    def ok(self):
        return not self.issues

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.issues)


def validate(s):
    """Check the simplicial-set invariants: duplicate-free simplex lists,
    well-formed face references, and the simplicial identity
    face_i . face_j = face_{j-1} . face_i for i < j."""
    issues = []
    seen = {}
    duplicated = set()
    for d in range(s.dim + 1):
        for name in s.simplices(d):
            if name in seen:
                issues.append(f"duplicate simplex name {name!r} "
                              f"(dims {seen[name]} and {d})")
                duplicated.add(name)
            seen[name] = d
    # identities are only evaluated where every iterated face is intact, so
    # that the operator action below cannot hit missing structure; a
    # duplicated name has no one dimension and face list to check
    hereditary = set(s.simplices(0)) - duplicated
    for d in range(1, s.dim + 1):
        for name in s.simplices(d):
            refs = s._faces.get(name)
            if refs is None:
                issues.append(f"{name}: no face list")
                continue
            if len(refs) != d + 1:
                issues.append(f"{name}: expected {d + 1} faces, got {len(refs)}")
                continue
            ok = True
            for i, r in enumerate(refs):
                if not s.has(r.base):
                    issues.append(f"{name}: face {i} dangling reference "
                                  f"to {r.base!r}")
                    ok = False
                    continue
                if s.ref_dim(r) != d - 1:
                    issues.append(f"{name}: face {i} has dimension "
                                  f"{s.ref_dim(r)}, expected {d - 1}")
                    ok = False
                elif not word_valid(r.word, d - 1):
                    issues.append(f"{name}: face {i} degeneracy word "
                                  f"{r.word} is not in normal form")
                    ok = False
            # faces lie in lower dimensions, which are already decided
            if ok and name not in duplicated and \
                    all(r.base in hereditary for r in refs):
                hereditary.add(name)
    for d in range(2, s.dim + 1):
        for name in s.simplices(d):
            if name not in hereditary:
                continue
            refs = s._faces[name]
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = s.face(refs[j], i)
                    rhs = s.face(refs[i], j - 1)
                    if lhs != rhs:
                        issues.append(
                            f"{name}: identity face_{i} face_{j} != "
                            f"face_{j - 1} face_{i} ({lhs} vs {rhs})")
    return ValidationReport(issues)


# ---------------------------------------------------------------------------
# Standard objects: simplices, boundaries, horns

def _vertex_name(verts):
    if all(v <= 9 for v in verts):
        return "".join(str(v) for v in verts)
    return ".".join(str(v) for v in verts)


def _subsets_object(n, keep):
    by_dim = {}
    faces = {}
    for size in range(1, n + 2):
        names = []
        for verts in combinations(range(n + 1), size):
            if not keep(verts):
                continue
            name = _vertex_name(verts)
            names.append(name)
            if size >= 2:
                faces[name] = tuple(
                    SimplexRef(_vertex_name(verts[:i] + verts[i + 1:]))
                    for i in range(size))
        if names:
            by_dim[size - 1] = names
    return FiniteSimplicialSet(by_dim, faces)


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def simplex(n):
    """The standard n-simplex: one nondegenerate simplex per nonempty subset
    of its vertices, named by the vertex list (e.g. "02")."""
    if n < 0:
        raise ValueError("simplex: n must be >= 0")
    return _subsets_object(n, lambda verts: True)


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def boundary(n):
    """The boundary of the standard n-simplex (empty when n = 0)."""
    if n < 0:
        raise ValueError("boundary: n must be >= 0")
    return _subsets_object(n, lambda verts: len(verts) < n + 1)


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def horn(n, k):
    """The (n,k)-horn: the boundary minus the face opposite vertex k."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("horn: need n >= 1 and 0 <= k <= n")
    full = tuple(range(n + 1))
    missing = full[:k] + full[k + 1:]
    return _subsets_object(
        n, lambda verts: len(verts) < n + 1 and verts != missing)


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def boundary_inclusion(n):
    """The canonical inclusion of the boundary into the n-simplex."""
    return _name_inclusion(boundary(n), simplex(n))


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def horn_inclusion(n, k):
    """The canonical inclusion of the (n,k)-horn into the n-simplex."""
    return _name_inclusion(horn(n, k), simplex(n))


def empty_sset():
    return FiniteSimplicialSet()


# ---------------------------------------------------------------------------
# Enumeration

def enumerate_simplices(s, d):
    """All d-simplices of a valid object, nondegenerate and degenerate, as
    pairwise-distinct normal forms in canonical order."""
    memo = s._memo
    key = ("simplices", d)
    out = memo.get(key)
    if out is not None:
        return out
    refs = []
    for e in range(d + 1):
        for name in s.simplices(e):
            r = d - e
            if r == 0:
                refs.append(SimplexRef(name))
            else:
                words = sorted(tuple(reversed(c))
                               for c in combinations(range(d), r))
                refs.extend(SimplexRef(name, w) for w in words)
    out = tuple(refs)
    memo[key] = out
    return out


def _tables(x, d):
    """(refs, code, faces): refs = `enumerate_simplices(x, d)`, code[ref] its
    position there, faces[c] the codes of the faces of refs[c].  For s_j z
    with j = word[0]: d_i s_j z = z for i = j, j+1, s_{j-1} d_i z for i < j,
    s_j d_{i-1} z for i > j+1.  Built bottom-up, kept in x's memo."""
    memo, have = x._memo, d
    while have >= 0 and ("tables", have) not in memo:
        have -= 1
    for e in range(have + 1, d + 1):
        refs, faces = enumerate_simplices(x, e), []
        if e:
            _, code, below = memo[("tables", e - 1)]
            under = memo[("tables", e - 2)][0] if e > 1 else ()
            for r in refs:
                if not r.word:
                    faces.append(tuple([code[f] for f in x._faces[r.base]]))
                    continue
                j, z = r.word[0], code[SimplexRef(r.base, r.word[1:])]
                faces.append(tuple([z if j <= i <= j + 1 else code[
                    x.degeneracy(under[below[z][i - (i > j)]], j - (i < j))]
                    for i in range(e + 1)]))
        memo[("tables", e)] = (refs, {r: c for c, r in enumerate(refs)},
                               faces)
    return memo[("tables", d)]


def _face_index(x, d):
    """The d-simplices of x by face tuple (face_0, ..., face_d), in canonical
    order within a group, read off `_tables`; kept in x's memo."""
    index = x._memo.get(("faces", d))
    if index is None:
        refs, _, faces = _tables(x, d)
        below, groups = enumerate_simplices(x, d - 1), {}
        for ref, key in zip(refs, faces):
            groups.setdefault(key, []).append(ref)
        index = x._memo[("faces", d)] = {
            tuple([below[c] for c in key]): group
            for key, group in groups.items()}
    return index


def _search_plan(a):
    """Per generator of `a`, in `a.names()` order: its dimension and the
    reader of its face key off the chosen images, () for a vertex, an
    itemgetter over the face positions when every face is nondegenerate,
    else a list of (position, surjection or None) pairs.  Built on a's
    first search and kept in its memo, never at construction."""
    plan = a._memo.get("plan")
    if plan is None:
        plan = a._memo["plan"] = []
        for name in a.names():
            refs = a.faces_of(name) if a.dim_of(name) else ()
            if any(r.word for r in refs):
                read = [(a._pos[r.base], _word_to_surj(r.word, a.dim_of(
                    r.base)) if r.word else None) for r in refs]
            else:
                read = refs and itemgetter(*(a._pos[r.base] for r in refs))
            plan.append((a.dim_of(name), read))
    return plan


def extensions(a, x, pins=None, over=None):
    """The maps a -> x one at a time, lexicographic in the images of the
    generators of `a`: a depth-first search in one loop on an explicit
    stack.  The candidates for a generator are the simplices of x whose
    faces are the images already chosen for its faces, looked up in
    `_face_index` by the key that a's `_search_plan` reads off the path;
    x's tables are fetched once per call and dimension.  The plan saves
    lookups, never nodes: the nodes, their order and the count returned
    are those of a search that looks everything up at every node.

    `pins` maps the position of a generator in `a.names()` to pairs
    (alpha, want) that its image h must satisfy: x.act(h, alpha) == want,
    or h == want when alpha is None.  `over` is a pair (f, bottom) of maps
    x -> y and a -> y; only maps h with f . h == bottom come out.  When
    exhausted, the generator returns the count of refuted candidates: |x_d|
    summed over the search nodes visited, degenerate d-simplices included.
    """
    plan = _search_plan(a)
    pins = pins or {}
    n = len(plan)
    # on the current path, generator t has image chosen[t] and the rest of
    # its candidates in left[t]; fresh when t was just entered
    chosen, left = [None] * n, [None] * n
    tables = [None] * (a.dim + 1)
    refuted = 0
    t, fresh = 0, True
    while t >= 0:
        if t == n:
            yield _positional(a, x, tuple(chosen))
        else:
            if fresh:
                d, read = plan[t]
                if tables[d] is None:
                    tables[d] = (enumerate_simplices(x, d),
                                 d and _face_index(x, d))
                pool, index = tables[d]
                refuted += len(pool)
                if type(read) is list:
                    pool = index.get(tuple([chosen[p] if s is None else x.act(
                        chosen[p], s) for p, s in read]), ())
                elif read:
                    pool = index.get(read(chosen), ())
                for alpha, want in pins.get(t, ()):
                    if alpha is None:
                        pool = (want,) if want in pool else ()
                    else:
                        pool = [h for h in pool if x.act(h, alpha) == want]
                if over is not None:
                    f, below = over[0], over[1].img[t]
                    pool = [h for h in pool if f(h) == below]
                left[t] = iter(pool)
            h = next(left[t], None)
            if h is not None:
                chosen[t] = h
                t, fresh = t + 1, True
                continue
        t, fresh = t - 1, False
    return refuted


@lru_cache(maxsize=OBJECT_CACHE_SIZE)
def enumerate_maps(a, x):
    """The complete hom-set of simplicial maps a -> x, in the order of
    `extensions`: lexicographic in the generator images."""
    return tuple(extensions(a, x))


# ---------------------------------------------------------------------------
# Subcomplexes

def minimal_subcomplex(s, seed):
    """Smallest face-closed subobject of `s` containing the named seed
    simplices, plus its inclusion.  Raises KeyError on unknown names."""
    for name in seed:
        if not s.has(name):
            raise KeyError(f"unknown simplex {name!r}")
    keep = set()
    stack = list(seed)
    while stack:
        name = stack.pop()
        if name in keep:
            continue
        keep.add(name)
        if s.dim_of(name) >= 1:
            stack.extend(r.base for r in s.faces_of(name))
    by_dim = {d: [n for n in s.simplices(d) if n in keep]
              for d in range(s.dim + 1)}
    faces = {n: s.faces_of(n) for n in keep if s.dim_of(n) >= 1}
    sub = FiniteSimplicialSet(by_dim, faces)
    return sub, _name_inclusion(sub, s)
