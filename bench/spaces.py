"""Facet lists of the spaces in the homology workload, as plain tuples of
vertices.  The workload turns them into simplicial sets; the oracle's tests
check that each list triangulates the surface it is named after."""

from itertools import combinations


def simplex(n):
    return [tuple(range(n + 1))]


def boundary(n):
    return list(combinations(range(n + 1), n))


def horn(n, k):
    """All faces of the n-simplex but the one opposite vertex k."""
    return [f for f in boundary(n) if k in f]


def torus(p, q):
    """Grid triangulation of Z/p x Z/q, two triangles per square."""
    out = []
    for i in range(p):
        for j in range(q):
            a, b = (i, j), ((i + 1) % p, j)
            c, d = ((i + 1) % p, (j + 1) % q), (i, (j + 1) % q)
            out += [(a, b, c), (a, d, c)]
    return out


def klein_bottle(p, q):
    """Grid on [0, p] x Z/q with (p, j) glued to (0, -j)."""
    def v(i, j):
        return (0, (-j) % q) if i == p else (i, j % q)

    out = []
    for i in range(p):
        for j in range(q):
            a, b, c, d = v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)
            out += [(a, b, c), (a, d, c)]
    return out


# the six-vertex projective plane
PROJECTIVE_PLANE = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]


def tagged(tag, facets):
    """The same facets on vertices renamed apart by `tag`, for disjoint
    unions."""
    return [tuple((tag, v) for v in f) for f in facets]


def closure(facets):
    """Every simplex of the complex, as a set of vertex frozensets."""
    out = set()
    for f in facets:
        for size in range(1, len(f) + 1):
            out.update(frozenset(c) for c in combinations(f, size))
    return out
