"""Finite simplicial sets in Eilenberg-Zilber normal form.

A finite simplicial set is stored as its nondegenerate simplices plus, for
each nondegenerate simplex of dimension d >= 1, an ordered list of d+1 face
references.  A face reference names a nondegenerate simplex together with a
strictly decreasing word of degeneracy indices, which is the unique normal
form of a possibly-degenerate simplex.  Degeneracies act on words alone
(`_degenerate`).  Faces are stored, or read off a word by the simplicial
identities (`FiniteSimplicialSet.face`), which does not recurse; `act`
takes the faces an operator calls for, then its degeneracies, and
`_face_index` groups the simplices of one dimension by their faces.

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
# objects and hom-sets are large and few, degeneracy words (the pairs that
# `_degenerate` composes) small and many
OBJECT_CACHE_SIZE = 128
OPERATOR_CACHE_SIZE = 4096


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _degenerate(word, inner):
    """Normal form of s_word s_inner, by s_i s_j = s_{j+1} s_i for i <= j."""
    for j in reversed(word):
        inner = (tuple(v + 1 for v in inner if v >= j) + (j,)
                 + tuple(v for v in inner if v < j))
    return inner


# a tuple keeps memory down and compares and hashes in C: every face, map
# image and search candidate is one of these
class SimplexRef(NamedTuple):
    """A simplex in normal form: a nondegenerate base plus a strictly
    decreasing degeneracy word (empty for nondegenerate simplices)."""

    base: str
    word: tuple = ()

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
                 "_memo")

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
        """Normal form of ref . alpha, where alpha: [m'] -> [m] is monotone,
        given as (alpha(0), ..., alpha(m')), and m is the dimension of `ref`;
        ValueError unless alpha is nonempty, nondecreasing and in 0..m.  The
        faces opposite the vertices alpha misses come first, largest vertex
        first so that the others keep their numbers, then the degeneracies
        at the positions where alpha repeats."""
        m = self.ref_dim(ref)
        if not alpha or not 0 <= alpha[0] <= alpha[-1] <= m or any(
                a > b for a, b in zip(alpha, alpha[1:])):
            raise ValueError(f"act: {alpha!r} is not an operator into [{m}]")
        for v in sorted(set(range(m + 1)).difference(alpha), reverse=True):
            ref = self.face(ref, v)
        word = tuple(j for j in range(len(alpha) - 2, -1, -1)
                     if alpha[j] == alpha[j + 1])
        return SimplexRef(ref.base, _degenerate(word, ref.word))

    def face(self, ref, i):
        """The i-th face of `ref` in normal form, by the simplicial
        identities d_i s_j = id for i = j, j+1, s_{j-1} d_i for i < j and
        s_j d_{i-1} for i > j+1, peeling the word's outermost index j until
        the face is reached or a stored face of the base is.  Once i > j+1
        it stays so; before, the peeled indices exceed the rest of the word,
        so their concatenation is normal.  ValueError unless ref has
        dimension m >= 1 and 0 <= i <= m."""
        m = self.ref_dim(ref)
        if m == 0 or not 0 <= i <= m:
            raise ValueError(f"face: {i!r} is not a face of a {m}-simplex")
        word, outer = ref.word, []
        for t, j in enumerate(word):
            if i < j:
                outer.append(j - 1)
            elif i <= j + 1:
                return SimplexRef(ref.base, (*outer, *word[t + 1:]))
            else:
                outer.append(j)
                i -= 1
        face = self._faces[ref.base][i]
        if not outer:
            return face
        return SimplexRef(face.base, _degenerate(tuple(outer), face.word))

    def degeneracy(self, ref, i):
        """The i-th degeneracy of `ref`, in normal form; ValueError unless
        0 <= i <= m for ref of dimension m."""
        m = self.ref_dim(ref)
        if not 0 <= i <= m:
            raise ValueError(
                f"degeneracy: {i!r} is not a degeneracy of a {m}-simplex")
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
    valid endpoints).

    When the target's face index of a generator's dimension is already in
    its memo, the generator's image is looked up there by the images of
    its faces, one lookup for all d+1 faces; without the index, or when the
    lookup fails, the faces are compared one by one, which words each
    issue.  No index is built here."""
    issues = []
    src, tgt = f.source, f.target
    memo = tgt._memo
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
        elif img.word and not word_valid(img.word, d):
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
        faces = src.faces_of(name)
        index = memo.get(("faces", d))
        if index is not None and img in index.get(
                tuple([f(r) for r in faces]), ()):
            continue
        for i in range(d + 1):
            want = f(faces[i])
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
    # the faces of each distinct face are read once per call: faces of one
    # simplex often coincide, and a degenerate face costs its word
    rows = {}
    for d in range(2, s.dim + 1):
        for name in s.simplices(d):
            if name not in hereditary:
                continue
            faces = []
            for r in s._faces[name]:
                if r not in rows:
                    rows[r] = [s.face(r, i) for i in range(d)]
                faces.append(rows[r])
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = faces[j][i]
                    rhs = faces[i][j - 1]
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
        names = s.simplices(e)
        if names:   # an empty dimension would still cost C(d, e) words
            words = sorted(tuple(reversed(c))
                           for c in combinations(range(d), d - e))
            refs.extend(SimplexRef(name, w) for name in names for w in words)
    out = tuple(refs)
    memo[key] = out
    return out


def _face_index(x, d):
    """The d-simplices of x by face tuple (face_0, ..., face_d), in canonical
    order within a group, read off `face`; kept in x's memo once complete,
    so that a build that raises leaves no entry."""
    index = x._memo.get(("faces", d))
    if index is None:
        index, face = {}, x.face
        for ref in enumerate_simplices(x, d):
            index.setdefault(tuple([face(ref, i) for i in range(d + 1)]),
                             []).append(ref)
        x._memo[("faces", d)] = index
    return index


def _search_plan(a):
    """Per generator of `a`, in `a.names()` order: its dimension and the
    reader of its face key off the chosen images, () for a vertex, an
    itemgetter over the face positions when every face is nondegenerate,
    else a list of (position, degeneracy word) pairs.  Built on a's first
    search and kept in its memo, never at construction."""
    plan = a._memo.get("plan")
    if plan is None:
        plan = a._memo["plan"] = []
        for name in a.names():
            refs = a.faces_of(name) if a.dim_of(name) else ()
            if any(r.word for r in refs):
                read = [(a._pos[r.base], r.word) for r in refs]
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
    x's simplices and face index are fetched once per call and dimension.
    The plan saves lookups, never nodes: the nodes, their order and the
    count returned are those of a search that looks everything up at every
    node.

    `pins` maps the position of a generator in `a.names()` to pairs
    (word, want) that its image h must satisfy: s_word h == want, which is
    h == want for the empty word.  `over` is a pair (f, bottom) of maps
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
                    pool = index.get(tuple([chosen[p] if not w else SimplexRef(
                        chosen[p].base, _degenerate(w, chosen[p].word))
                        for p, w in read]), ())
                elif read:
                    pool = index.get(read(chosen), ())
                for word, want in pins.get(t, ()):
                    if not word:
                        pool = (want,) if want in pool else ()
                    else:
                        pool = [h for h in pool if SimplexRef(
                            h.base, _degenerate(word, h.word)) == want]
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
