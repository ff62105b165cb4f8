"""Expected answers for the benchmark, computed without ssetkit.

Every function here is closed-form arithmetic or plain text processing on
values the generator chose, so an answer that agrees with it was checked
against a computation independent of the library under test.

Groups are written as ``(betti, torsion)`` pairs, ``torsion`` a tuple of
invariant factors in a divisibility chain, the same shape as
``ssetkit.homology.HomologyGroup``.
"""

from math import comb

Z = (1, ())
ZERO = (0, ())


# ---------------------------------------------------------------------------
# Hom-set sizes between standard objects

def hom_simplex_simplex(n, m):
    """|Hom(Delta^n, Delta^m)|: monotone maps [n] -> [m]."""
    return comb(n + m + 1, n + 1)


def hom_boundary_simplex(n, m):
    """|Hom(boundary Delta^n, Delta^m)| for n >= 2: a map into the nerve
    Delta^m is fixed by its vertex images, and for n >= 2 every pair of
    vertices spans an edge, so those images form a monotone map [n] -> [m]."""
    if n < 2:
        raise ValueError("closed form holds for n >= 2")
    return hom_simplex_simplex(n, m)


def hom_boundary1_simplex(m):
    """|Hom(boundary Delta^1, Delta^m)|: two independent vertices."""
    return (m + 1) ** 2


def hom_simplex_circle(n):
    """|Hom(Delta^n, S^1)| for S^1 = Delta^1 / boundary: the n-simplices of
    the circle, one degenerate base point plus n degeneracies of the edge."""
    return n + 1


# ---------------------------------------------------------------------------
# Sizes (nondegenerate simplex counts) of standard objects

def simplex_size(n):
    return 2 ** (n + 1) - 1


def boundary_size(n):
    return 2 ** (n + 1) - 2


def horn_size(n):
    return 2 ** (n + 1) - 3


def cell_size(kind):
    """Nondegenerate simplices one attached cell adds along a mono: the top
    cell for a boundary generator, the top cell and the missing face for a
    horn generator."""
    return {"I": 1, "J": 2}[kind]


def realized_size(base_size, kinds):
    """Size of a realization: base size plus 1 per I-cell and 2 per J-cell."""
    return base_size + sum(cell_size(k) for k in kinds)


def births(base_size, stages):
    """Number of simplices born at each stage, stage 0 being the base;
    `stages` lists the cell kinds attached at each stage."""
    return [base_size] + [sum(cell_size(k) for k in st) for st in stages]


def pushout_size(b_size, a_size, c_size):
    """Corner size of a pushout of a mono A -> B along any A -> C."""
    return c_size + b_size - a_size


def j2i_attachments(j_count):
    """Each horn cell becomes a face cell and a top cell."""
    return 2 * j_count


def factor_stage(cell_name):
    """Earliest stage through which the probe of a named cell factors: the
    stage in the cell's canonical name c{s}_{t}_{w}, 0 for base simplices."""
    head = cell_name.split("_", 1)[0]
    if head.startswith("c") and head[1:].isdigit() and "_" in cell_name:
        return int(head[1:])
    return 0


# ---------------------------------------------------------------------------
# CLI exit codes of mutated documents

EXIT_CODES = {
    "none": 0,
    "garbled": 2,            # unparseable line
    "dangling_face": 1,      # validate reports the object INVALID
    "missing_image": 2,      # map image names a simplex absent from target
    "bad_word": 2,           # map image degeneracy word not in normal form
    "attach_missing": 2,     # cellpres attaching image absent from stage
}


def exit_code(mutation):
    return EXIT_CODES[mutation]


# ---------------------------------------------------------------------------
# Textbook homology

def _pad(groups, maxdim):
    groups = list(groups)[:maxdim + 1]
    return groups + [ZERO] * (maxdim + 1 - len(groups))


def point(maxdim):
    return _pad([Z], maxdim)


def sphere(n, maxdim):
    """S^n; S^0 is two points."""
    if n == 0:
        return _pad([(2, ())], maxdim)
    return _pad([Z] + [ZERO] * (n - 1) + [Z], maxdim)


def torus(maxdim):
    return _pad([Z, (2, ()), Z], maxdim)


def klein_bottle(maxdim):
    return _pad([Z, (1, (2,)), ZERO], maxdim)


def projective_plane(maxdim):
    return _pad([Z, (0, (2,)), ZERO], maxdim)


def _merge_torsion(a, b):
    """Invariant factors of the direct sum of two finite abelian groups
    given by invariant factors (primary decomposition and regrouping)."""
    powers = {}
    for t in a + b:
        p, rest = 2, t
        while rest > 1:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for p, pp in powers.items():
        pp.sort(reverse=True)
        for idx, q in enumerate(pp):
            factors[idx] *= q
    return tuple(sorted(f for f in factors if f > 1))


def disjoint_union(*parts):
    """Homology of a disjoint union: degreewise direct sum."""
    out = []
    for degree in zip(*parts):
        betti = sum(g[0] for g in degree)
        torsion = ()
        for g in degree:
            torsion = _merge_torsion(torsion, g[1])
        out.append((betti, torsion))
    return out


def euler_from_counts(counts):
    """Euler characteristic from simplex counts per dimension."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


def euler_from_groups(groups):
    """Euler characteristic from Betti numbers."""
    return sum((-1) ** d * g[0] for d, g in enumerate(groups))


# ---------------------------------------------------------------------------
# sset/1 text

def object_sizes(text):
    """Nondegenerate simplex count of every object in sset/1 text (also
    inside cellpres/1 and soa/1 reports), read from its `dim` lines."""
    sizes = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.startswith("object "):
            current = line.split()[1]
            sizes[current] = 0
        elif line.startswith("  dim ") and current is not None:
            sizes[current] += len(line.split(":", 1)[1].split())
        elif line and not line.startswith(" "):
            current = None
    return sizes
