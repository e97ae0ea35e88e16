"""Small exact integer linear algebra: Smith normal form and its consumers.

Used by the obstruction calculators: lattice rank of rational generator sets
and existence of integer solutions of linear systems.
"""

import math
from fractions import Fraction as Q

__all__ = ["smith_normal_form", "integer_solve", "rational_rank"]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, k):
    m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]


def _add_col(m, dst, src, k):
    for row in m:
        row[dst] = row[dst] + k * row[src]


def smith_normal_form(a):
    """U A V = S diagonal with d_i | d_{i+1}; U, V unimodular.

    Input: list of int rows.  Returns (S, U, V).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(map(int, row)) for row in a]
    u = _identity(m)
    v = _identity(n)
    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j]:
                    if piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            _swap_rows(s, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(s, t, j)
            _swap_cols(v, t, j)
        dirty = False
        for i in range(t + 1, m):
            if s[i][t]:
                k = -(s[i][t] // s[t][t])
                _add_row(s, i, t, k)
                _add_row(u, i, t, k)
                if s[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j]:
                k = -(s[t][j] // s[t][t])
                _add_col(s, j, t, k)
                _add_col(v, j, t, k)
                if s[t][j]:
                    dirty = True
        if dirty:
            continue
        # ensure divisibility of the rest of the block by the pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _add_row(s, t, bad, 1)
            _add_row(u, t, bad, 1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v


def integer_solve(a, b):
    """One integer solution x of A x = b, or None.

    A: list of int rows (k x n), b: list of ints (k).
    """
    k = len(a)
    n = len(a[0]) if k else 0
    if k == 0:
        return [0] * n
    s, u, v = smith_normal_form(a)
    ub = [sum(u[i][r] * b[r] for r in range(k)) for i in range(k)]
    z = [0] * n
    for i in range(k):
        d = s[i][i] if i < n else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            if i < n:
                z[i] = ub[i] // d
    return [sum(v[i][j] * z[j] for j in range(n)) for i in range(n)]


def rational_rank(vectors):
    """Rank over Q of a list of rational vectors (Smith-style reduction)."""
    if not vectors:
        return 0
    n = len(vectors[0])
    scaled = []
    for vec in vectors:
        lcm = math.lcm(*(Q(x).denominator for x in vec))
        scaled.append([int(Q(x) * lcm) for x in vec])
    s, _, _ = smith_normal_form(scaled)
    return sum(1 for i in range(min(len(s), n)) if s[i][i])
