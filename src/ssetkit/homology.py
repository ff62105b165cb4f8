"""Integer simplicial homology via Smith normal form, and homological
necessary-condition certificates for weak equivalence.

Chains are normalized: the basis in degree d is the set of nondegenerate
d-simplices, and degenerate faces contribute zero to the boundary.  All
arithmetic is exact over Python's arbitrary-precision integers, so the
no-silent-overflow policy holds by construction.

Boundary maps are stored as sparse integer columns.  Each is reduced once
per chain complex: unit pivots are eliminated on the sparse columns, and
only the block that is left goes through the dense Smith normal form.
`homology_groups` and the certificate's mapping cone reduce from the top
degree down with clearing: a column whose cell was a unit pivot row one
degree up reduces to zero and is skipped.  Clearing rests on
boundary . boundary = 0, which every `ChainComplex` checks when it is built
(see `ChainComplex`).

`smith_normal_form` has one pivot rule.  Each pass takes the least nonzero
|entry| of the block left as the pivot, moves it to (t, t) and reduces row
and column t by floor division.  A nonzero remainder starts another pass
with a strictly smaller pivot, and so does a block entry the pivot does
not divide, once its row is added to row t.  The pivots only shrink, so
the passes end, and the entries of the unimodular witnesses stay small.

The certificate checks (a) a bijection on path components and (b) acyclicity
of the algebraic mapping cone in degrees 0..maxdim, which decides that the
induced maps on H_d are isomorphisms for d < maxdim and epimorphisms at
maxdim.  This is a necessary condition for weak equivalence, not a
sufficient one, and is labeled as such everywhere.
"""

from dataclasses import dataclass

from ssetkit.colimits import _DisjointSet


class ChainComplex:
    """Free integer chain complex: `basis[d]` lists the degree-d generators
    and `boundary[d]` (d >= 1) is the boundary map into degree d-1, as one
    sparse column `{row: coeff}` per generator, zero entries omitted.  The
    constructor checks boundary . boundary = 0 and raises `ValueError`
    otherwise; the invariant factors of each boundary map are computed
    once and kept on the instance.

    Clearing (Chen-Kerber 2011; Bauer-Kerber-Reininghaus 2014): once the
    map out of degree d+1 is reduced, the reduction of the map out of
    degree d skips every column whose cell was a unit pivot row above.  At
    pivot time each pivot column is a boundary, and its pivot row has been
    cleared from every live column, so restricted to the pivot rows the
    pivot columns form a triangular matrix with +-1 on the diagonal.  They
    span a direct summand of C_d, with the cells outside the pivot set
    spanning a complement.  The map out of degree d is zero on boundaries,
    so it has the same invariant factors as its restriction to those other
    columns.  This rests on boundary . boundary = 0, which is why the
    constructor checks it.
    """

    def __init__(self, basis, boundary):
        d = _square_nonzero_degree(boundary)
        if d is not None:
            raise ValueError(f"boundary squared is nonzero in degree {d}")
        self.basis = [list(b) for b in basis]
        self.boundary = boundary
        self._factors = {}
        self._pivots = {}

    def dims(self):
        return len(self.basis) - 1

    def rank(self, d):
        if 0 <= d < len(self.basis):
            return len(self.basis[d])
        return 0

    def matrix(self, d):
        """Dense boundary matrix C_d -> C_{d-1}, made on demand; zero-sized
        when out of range."""
        m = [[0] * self.rank(d) for _ in range(self.rank(d - 1))]
        for j, col in enumerate(self.boundary.get(d, ())):
            for i, v in col.items():
                m[i][j] = v
        return m

    def factors(self, d):
        """Invariant factors of the boundary map C_d -> C_{d-1}.  Columns
        cleared by the unit pivots of degree d+1 are skipped when that
        degree has been reduced already; request degrees from the top down
        to clear the most."""
        out = self._factors.get(d)
        if out is None:
            columns = self.boundary.get(d, ())
            cleared = self._pivots.get(d + 1)
            if cleared:
                columns = [col for j, col in enumerate(columns)
                           if j not in cleared]
            out, self._pivots[d] = _invariant_factors(columns)
            self._factors[d] = out
        return out


def _square_nonzero_degree(boundary):
    """The least degree d with boundary_{d-1} . boundary_d != 0, or None.
    Each column is pushed through the map below it: O(nnz . faces)."""
    for d in sorted(boundary):
        below = boundary.get(d - 1)
        if below is None:
            continue
        for col in boundary[d]:
            acc = {}
            for i, v in col.items():
                for r, w in below[i].items():
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                return d
    return None


def _chains(s):
    """The basis and sparse boundary columns of the normalized chains of a
    valid finite simplicial set, unchecked: the boundary of a simplex is the
    alternating sum of its nondegenerate faces."""
    top = s.dim
    basis = [list(s.simplices(d)) for d in range(top + 1)]
    boundary = {}
    for d in range(1, top + 1):
        index = {n: i for i, n in enumerate(basis[d - 1])}
        columns = []
        for name in basis[d]:
            col = {}
            sign = 1
            for ref in s.faces_of(name):
                if not ref.word:
                    i = index[ref.base]
                    v = col.get(i, 0) + sign
                    if v:
                        col[i] = v
                    else:
                        del col[i]
                sign = -sign
            columns.append(col)
        boundary[d] = columns
    return basis, boundary


def chain_complex(s):
    """Normalized chains of a valid finite simplicial set.  The
    `ChainComplex` constructor verifies boundary . boundary = 0."""
    return ChainComplex(*_chains(s))


def _invariant_factors(columns):
    """Nonzero invariant factors of the matrix with these sparse columns,
    and the set of rows used as unit pivots.

    Unit pivots are eliminated first (Dumas-Heckenbach-Saunders-Welker
    2003).  A column's pivot is the +-1 entry whose row has the fewest
    other entries, since each of those entries costs one column update.
    Clearing the pivot's row by column operations leaves the pivot alone
    in its row and column, so each pivot is one invariant factor 1.  The
    columns left over are densified and go through `smith_normal_form`.
    """
    cols = [dict(c) for c in columns]
    rows = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    pivots = set()
    pending = list(range(len(cols) - 1, -1, -1))
    stuck = set()
    while pending:
        j = pending.pop()
        col = cols[j]
        best = None
        for i, v in col.items():
            if (v == 1 or v == -1) and (
                    best is None or len(rows[i]) < len(rows[best])):
                best = i
        if best is None:
            stuck.add(j)
            continue
        pivots.add(best)
        cols[j] = {}
        pivot = col.pop(best)
        for i in col:
            rows[i].discard(j)
        rows[best].discard(j)
        for k in rows.pop(best):
            other = cols[k]
            q = other.pop(best) * pivot
            for i, v in col.items():
                w = other.get(i, 0) - q * v
                if w:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = w
                else:
                    del other[i]
                    rows[i].discard(k)
            if k in stuck:
                # a column update can create a unit entry
                stuck.remove(k)
                pending.append(k)
    left = [col for col in cols if col]
    units = [1] * len(pivots)
    if not left:
        return units, pivots
    index = {i: r for r, i in enumerate(sorted({i for c in left for i in c}))}
    dense = [[0] * len(left) for _ in index]
    for j, col in enumerate(left):
        for i, v in col.items():
            dense[index[i]][j] = v
    return units + smith_normal_form(dense).factors, pivots


# ---------------------------------------------------------------------------
# Smith normal form over the integers, with unimodular witnesses

@dataclass
class SNFResult:
    """U . M . V = D with U, V unimodular and D diagonal with each invariant
    factor dividing the next.  `factors` lists the nonzero diagonal entries."""

    diagonal: list
    u: list
    v: list
    factors: list


def smith_normal_form(m):
    """Diagonalize an integer matrix by unimodular row and column operations,
    in exact arithmetic.  Each pass at (t, t) pivots on the least nonzero
    |entry| of the block that is left (see the module docstring)."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add(i, j, q, row):
        # row (or column) i += q * row (or column) j, in a and its witness
        if row:
            for w in (a, u):
                w[i] = [x + q * y for x, y in zip(w[i], w[j])]
        else:
            for w in a + v:
                w[i] += q * w[j]

    def swap(i, j, row):
        if row:
            for w in (a, u):
                w[i], w[j] = w[j], w[i]
        else:
            for w in a + v:
                w[i], w[j] = w[j], w[i]

    def pivot_pass(t):
        # one pass at (t, t); True when another pass at t is needed
        block = [(abs(a[i][j]), i, j) for i in range(t, rows)
                 for j in range(t, cols) if a[i][j]]
        if not block:
            return False
        _, i, j = min(block)
        swap(t, i, True)
        swap(t, j, False)
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                add(i, t, -(a[i][t] // p), True)
        for j in range(t + 1, cols):
            if a[t][j]:
                add(j, t, -(a[t][j] // p), False)
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
            return True
        for i in range(t + 1, rows):
            if any(x % p for x in a[i][t + 1:]):
                add(t, i, 1, True)
                return True
        return False

    for t in range(min(rows, cols)):
        while pivot_pass(t):
            pass
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]

    diagonal = [[a[i][j] for j in range(cols)] for i in range(rows)]
    factors = [a[i][i] for i in range(min(rows, cols)) if a[i][i]]
    return SNFResult(diagonal, u, v, factors)


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus torsion
    coefficients in a divisibility chain."""

    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        for i in range(len(self.torsion) - 1):
            if self.torsion[i + 1] % self.torsion[i]:
                raise ValueError("torsion coefficients must form a "
                                 "divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    @property
    def trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_of_complex(cx, d):
    if d < 0:
        raise ValueError("degree must be >= 0")
    incoming = cx.factors(d + 1)
    betti = cx.rank(d) - len(cx.factors(d)) - len(incoming)
    torsion = tuple(f for f in incoming if f >= 2)
    return HomologyGroup(betti, torsion)


def homology(s, d):
    """H_d of a finite simplicial set with integer coefficients."""
    return homology_of_complex(chain_complex(s), d)


def _groups(cx, maxdim):
    """H_0 .. H_maxdim of a chain complex.  The boundary maps are reduced
    from the top degree down, so that each reduction skips the columns
    cleared above it."""
    for d in range(min(maxdim, cx.dims()) + 1, 0, -1):
        cx.factors(d)
    return [homology_of_complex(cx, d) for d in range(maxdim + 1)]


# the largest maxdim: one group is read per degree, and every group above
# an object's dimension is 0
MAXDIM_LIMIT = 64


def _check_maxdim(maxdim):
    if not 0 <= maxdim <= MAXDIM_LIMIT:
        raise ValueError(f"maxdim must be >= 0 and <= {MAXDIM_LIMIT}")


def homology_groups(s, maxdim):
    """H_0 .. H_maxdim of a finite simplicial set, 0 <= maxdim <= 64."""
    _check_maxdim(maxdim)
    return _groups(chain_complex(s), maxdim)


# ---------------------------------------------------------------------------
# Induced maps, mapping cones, and certificates

def chain_map(f):
    """The induced map on normalized chains, one sparse column per source
    generator: a generator whose image is degenerate maps to zero.  Returns
    the source and target chains as unchecked (basis, boundary) pairs, and
    the map."""
    src, tgt = _chains(f.source), _chains(f.target)
    out = {}
    images = iter(f.img)   # the bases list the source's names in order
    for d, names in enumerate(src[0]):
        tindex = {n: i for i, n in enumerate(tgt[0][d])} \
            if d < len(tgt[0]) else {}
        out[d] = [{} if img.word else {tindex[img.base]: 1}
                  for _, img in zip(names, images)]
    return src, tgt, out


def mapping_cone(f):
    """The algebraic mapping cone of the induced chain map: degree d is
    C_{d-1}(source) + C_d(target), with boundary (-d_src, f# + d_tgt).  Its
    boundary . boundary = 0 check covers the source's and the target's,
    which are its diagonal blocks."""
    (sbasis, sbd), (tbasis, tbd), fmap = chain_map(f)

    def src(d):
        return sbasis[d] if 0 <= d < len(sbasis) else []

    top = max(len(sbasis), len(tbasis) - 1)
    basis = [[("s", n) for n in src(d - 1)]
             + [("t", n) for n in (tbasis[d] if d < len(tbasis) else [])]
             for d in range(top + 1)]
    boundary = {}
    for d in range(1, top + 1):
        # target rows come after the source rows of degree d-2
        offset = len(src(d - 2))
        dsrc = sbd.get(d - 1)
        columns = []
        for j in range(len(src(d - 1))):
            col = {i: -v for i, v in dsrc[j].items()} if dsrc else {}
            for i, v in fmap[d - 1][j].items():
                col[offset + i] = v
            columns.append(col)
        for tcol in tbd.get(d, ()):
            columns.append({offset + i: v for i, v in tcol.items()})
        boundary[d] = columns
    try:
        return ChainComplex(basis, boundary)
    except ValueError as err:
        raise RuntimeError("mapping cone boundary squared is nonzero") from err


def path_components(s):
    """Partition of the vertices by the nondegenerate edges."""
    classes = _DisjointSet()
    for e in s.simplices(1):
        faces = s.faces_of(e)
        classes.union(faces[0].base, faces[1].base)
    comps = {}
    for v in s.simplices(0):
        comps.setdefault(classes.find(v), []).append(v)
    return list(comps.values())


@dataclass(frozen=True)
class Certificate:
    """Necessary-condition certificate for weak equivalence: passes iff the
    map is a bijection on path components and its mapping cone is acyclic in
    degrees 0..maxdim."""

    passed: bool
    maxdim: int
    failure: tuple = None  # ("pi0", detail) or ("H<d>", detail)

    def line(self):
        if self.passed:
            return "we-cert: pass"
        return f"we-cert: fail level={self.failure[0]}"


def weak_equivalence_certificate(f, maxdim=3):
    """Check the homological necessary conditions for f to be a weak
    equivalence: a bijection on path components, and mapping-cone acyclicity
    in degrees 0..maxdim (induced isomorphisms on H_d below maxdim and an
    epimorphism at maxdim), with maxdim in 0..MAXDIM_LIMIT.  Both-empty maps
    pass vacuously."""
    _check_maxdim(maxdim)
    src, tgt = f.source, f.target
    if src.is_empty and tgt.is_empty:
        return Certificate(True, maxdim)
    comp_src = path_components(src)
    comp_tgt = path_components(tgt)
    rep = {}
    for idx, comp in enumerate(comp_tgt):
        for v in comp:
            rep[v] = idx
    targets = []
    images = f.images
    for comp in comp_src:
        image = {rep[images[v].base] for v in comp}
        if len(image) != 1:
            raise RuntimeError("component map is not well defined")
        targets.append(image.pop())
    if len(set(targets)) != len(targets) or len(targets) != len(comp_tgt):
        return Certificate(
            False, maxdim,
            ("pi0", f"{len(comp_src)} components vs {len(comp_tgt)}"))
    cone = mapping_cone(f)
    # every group above the cone's top degree is 0
    for d, group in enumerate(_groups(cone, min(maxdim, cone.dims()))):
        if not group.trivial:
            return Certificate(False, maxdim, (f"H{d}", str(group)))
    return Certificate(True, maxdim)
