"""The Smith normal form that `ssetkit.homology.smith_normal_form`
replaced, kept as the test oracle.

`smith_normal_form` is the earlier library code, unchanged.  It chooses one
pivot for the whole block, then swaps rows and columns locally under a
`dirty` flag and adds a row to restore divisibility.  Its witness entries
can grow without bound, and on some inputs it does not finish (a 6x5
matrix with entries in -9..9 ran for over a minute), so only give it
inputs that it is known to finish quickly.
"""

from ssetkit.homology import SNFResult


def smith_normal_form(m):
    """Diagonalize an integer matrix by unimodular row and column operations.
    Exact arbitrary-precision arithmetic throughout."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # enforce divisibility of the remaining block by the pivot
                for i in range(t + 1, rows):
                    bad = next((j for j in range(t + 1, cols)
                                if a[i][j] % a[t][t]), None)
                    if bad is not None:
                        row_op(t, i, -1)
                        dirty = True
                        break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = [[a[i][j] for j in range(cols)] for i in range(rows)]
    factors = [a[i][i] for i in range(min(rows, cols)) if a[i][i]]
    return SNFResult(diagonal, u, v, factors)
