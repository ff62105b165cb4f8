"""The dense homology code that `ssetkit.homology` replaced, kept as the
oracle for its sparse reduction: dense boundary matrices, a dense
boundary . boundary = 0 check, and a full Smith normal form of each
matrix, twice per degree.  The Smith normal form is the earlier one, from
`naive_snf`, so this oracle does not move with the code it checks."""

from naive_snf import smith_normal_form
from ssetkit.homology import HomologyGroup


class DenseChainComplex:
    """`boundary[d]` (d >= 1) is the dense matrix C_d -> C_{d-1}, one
    column per generator."""

    def __init__(self, basis, boundary):
        self.basis = [list(b) for b in basis]
        self.boundary = {d: [row[:] for row in m] for d, m in boundary.items()}

    def dims(self):
        return len(self.basis) - 1

    def rank(self, d):
        if 0 <= d < len(self.basis):
            return len(self.basis[d])
        return 0

    def matrix(self, d):
        m = self.boundary.get(d)
        if m is not None:
            return m
        return [[0] * self.rank(d) for _ in range(self.rank(d - 1))]


def _mat_mul(a, b):
    if not a or not b or not b[0]:
        rows = len(a)
        cols = len(b[0]) if b else 0
        return [[0] * cols for _ in range(rows)]
    n = len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(len(b[0]))]
            for i in range(len(a))]


def _is_zero(m):
    return all(v == 0 for row in m for v in row)


def chain_complex(s):
    top = s.dim
    basis = [list(s.simplices(d)) for d in range(top + 1)]
    index = {d: {n: i for i, n in enumerate(basis[d])} for d in range(top + 1)}
    boundary = {}
    for d in range(1, top + 1):
        m = [[0] * len(basis[d]) for _ in range(len(basis[d - 1]))]
        for j, name in enumerate(basis[d]):
            for i, ref in enumerate(s.faces_of(name)):
                if not ref.word:
                    m[index[d - 1][ref.base]][j] += (-1) ** i
        boundary[d] = m
    cx = DenseChainComplex(basis, boundary)
    for d in range(2, top + 1):
        if not _is_zero(_mat_mul(cx.matrix(d - 1), cx.matrix(d))):
            raise ValueError(f"boundary squared is nonzero in degree {d}")
    return cx


def homology_of_complex(cx, d):
    n = cx.rank(d)
    rank_out = len(smith_normal_form(cx.matrix(d)).factors) if d >= 1 else 0
    snf_in = smith_normal_form(cx.matrix(d + 1))
    rank_in = len(snf_in.factors)
    betti = n - rank_out - rank_in
    torsion = tuple(f for f in snf_in.factors if f >= 2)
    return HomologyGroup(betti, torsion)


def homology_groups(s, maxdim):
    cx = chain_complex(s)
    return [homology_of_complex(cx, d) for d in range(maxdim + 1)]


def chain_map(f):
    src = chain_complex(f.source)
    tgt = chain_complex(f.target)
    out = {}
    for d in range(len(src.basis)):
        m = [[0] * len(src.basis[d]) for _ in range(tgt.rank(d))]
        tindex = {n: i for i, n in enumerate(tgt.basis[d])} \
            if d < len(tgt.basis) else {}
        for j, name in enumerate(src.basis[d]):
            img = f.images[name]
            if not img.word:
                m[tindex[img.base]][j] = 1
        out[d] = m
    return src, tgt, out


def mapping_cone(f):
    src, tgt, fmat = chain_map(f)
    top = max(src.dims() + 1, tgt.dims())
    basis = []
    for d in range(top + 1):
        names = [("s", n) for n in
                 (src.basis[d - 1] if 1 <= d <= src.dims() + 1 else [])]
        names += [("t", n) for n in (tgt.basis[d] if d <= tgt.dims() else [])]
        basis.append(names)
    boundary = {}
    for d in range(1, top + 1):
        rows = len(basis[d - 1])
        cols = len(basis[d])
        m = [[0] * cols for _ in range(rows)]
        src_cols = src.rank(d - 1)
        src_rows = src.rank(d - 2) if d >= 2 else 0
        dsrc = src.matrix(d - 1) if d >= 2 else []
        dtgt = tgt.matrix(d)
        fm = fmat.get(d - 1, [])
        for j in range(src_cols):
            for i in range(src_rows):
                m[i][j] = -dsrc[i][j]
            for i in range(tgt.rank(d - 1)):
                val = fm[i][j] if fm else 0
                m[src_rows + i][j] = val
        for j in range(tgt.rank(d)):
            for i in range(tgt.rank(d - 1)):
                m[src_rows + i][src_cols + j] = dtgt[i][j]
        boundary[d] = m
    cone = DenseChainComplex(basis, boundary)
    for d in range(2, top + 1):
        if not _is_zero(_mat_mul(cone.matrix(d - 1), cone.matrix(d))):
            raise RuntimeError("mapping cone boundary squared is nonzero")
    return cone
