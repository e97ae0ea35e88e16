"""Small exact integer linear algebra: the column echelon (Hermite) form
A V = H, V unimodular, and its consumers.

Used by the obstruction calculators: lattice rank of rational generator sets
and existence of integer solutions of linear systems.
"""

import math

from .rational import _split

__all__ = ["integer_solve", "rational_rank"]


def _echelon(a, n):
    """Column echelon form of the integer matrix a (rows of length n).

    Returns (H, V, pivots), H and V as lists of columns, with A V = H and V
    unimodular.  Column c < len(pivots) of H starts at row pivots[c], the
    pivot rows strictly increase, each pivot row is zero right of its pivot,
    and the columns from len(pivots) on are zero.  Each row is reduced by
    Euclid over the columns not yet pivoted, with every column operation
    applied to V as well.
    """
    h = [[row[j] for row in a] for j in range(n)]
    v = [[int(i == j) for i in range(n)] for j in range(n)]
    pivots = []
    for i in range(len(a)):
        r = len(pivots)
        while True:
            live = [j for j in range(r, n) if h[j][i]]
            if not live:
                break
            p = min(live, key=lambda j: abs(h[j][i]))
            h[r], h[p] = h[p], h[r]
            v[r], v[p] = v[p], v[r]
            if len(live) == 1:
                pivots.append(i)
                break
            for j in range(r + 1, n):
                q = h[j][i] // h[r][i]
                if q:
                    h[j] = [x - q * y for x, y in zip(h[j], h[r])]
                    v[j] = [x - q * y for x, y in zip(v[j], v[r])]
    return h, v, pivots


def integer_solve(a, b, n):
    """One integer solution x of A x = b, or None.

    A: list of int rows (k x n), b: list of ints (k); n is given, as k may
    be 0.  With A V = H, solves H y = b by forward substitution, exactly in
    Z, and returns x = V y.
    """
    if len(a) != len(b) or any(len(row) != n for row in a):
        raise ValueError("A needs one row of length n per entry of b")
    h, v, pivots = _echelon(a, n)
    y = [0] * n
    c = 0
    for i, bi in enumerate(b):
        rest = bi - sum(h[j][i] * y[j] for j in range(c))
        if c < len(pivots) and pivots[c] == i:
            if rest % h[c][i]:
                return None
            y[c] = rest // h[c][i]
            c += 1
        elif rest:
            return None
    return [sum(v[j][i] * y[j] for j in range(c)) for i in range(n)]


def rational_rank(vectors):
    """Rank over Q of a list of rational vectors: the pivot count of the
    echelon form of their integer multiples."""
    if not vectors:
        return 0
    scaled = []
    for vec in vectors:
        pairs = [_split(x) for x in vec]
        lcm = math.lcm(*(d for _, d in pairs))
        scaled.append([n * (lcm // d) for n, d in pairs])
    return len(_echelon(scaled, len(vectors[0]))[2])
