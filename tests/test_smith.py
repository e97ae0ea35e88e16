import random
from fractions import Fraction as Q

import pytest

from leafnorm.smith import _echelon, integer_solve, rational_rank


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def det_int(m):
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in m]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    out = Fraction(sign)
    for k in range(n):
        out *= m[k][k]
    return out


def test_echelon_form_and_unimodular_transform():
    rng = random.Random(151)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        h_cols, v_cols, pivots = _echelon(a, n)
        h = [list(row) for row in zip(*h_cols)]
        v = [list(row) for row in zip(*v_cols)]
        assert mat_mul(a, v) == h
        assert abs(det_int(v)) == 1
        assert all(p < q for p, q in zip(pivots, pivots[1:]))
        for c, p in enumerate(pivots):
            assert h[p][c] != 0
            # zero above the pivot and right of it on its row
            assert all(h[i][c] == 0 for i in range(p))
            assert all(h[p][j] == 0 for j in range(c + 1, n))
        # zero after the last pivot column
        assert all(h[i][j] == 0 for i in range(m)
                   for j in range(len(pivots), n))


def test_integer_solve_matches_brute_force():
    rng = random.Random(157)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(k)]
        got = integer_solve(a, b, n)
        assert got is not None
        assert [sum(a[i][j] * got[j] for j in range(n)) for i in range(k)] == b
        # random right-hand sides: agree with a small brute-force search
        b2 = [rng.randint(-4, 4) for _ in range(k)]
        got2 = integer_solve(a, b2, n)
        brute = None
        rng_box = range(-10, 11)
        if n == 1:
            cands = ((x,) for x in rng_box)
        elif n == 2:
            cands = ((x, y) for x in rng_box for y in rng_box)
        else:
            cands = ((x, y, z) for x in rng_box for y in rng_box
                     for z in rng_box)
        for cand in cands:
            if all(sum(a[i][j] * cand[j] for j in range(n)) == b2[i]
                   for i in range(k)):
                brute = cand
                break
        if got2 is not None:
            assert [sum(a[i][j] * got2[j] for j in range(n))
                    for i in range(k)] == b2
        else:
            # solver may be right that no solution exists anywhere;
            # brute force only certifies within its box
            assert brute is None


def test_rational_rank():
    from fractions import Fraction as Q
    assert rational_rank([[Q(1)], [Q(3, 7)]]) == 1
    assert rational_rank([[Q(0)]]) == 0
    assert rational_rank([]) == 0
    assert rational_rank([[Q(1), Q(0)], [Q(0), Q(2, 3)]]) == 2
    assert rational_rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1


def test_rational_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(163)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        vectors = [[Q(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            # a dependent row: a rational combination of two others
            i, j = rng.randrange(m), rng.randrange(m)
            k = Q(rng.randint(-3, 3), rng.randint(1, 3))
            vectors.append([x + k * y for x, y in zip(vectors[i], vectors[j])])
        expected = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in vec]
             for vec in vectors]).rank()
        assert rational_rank(vectors) == expected


def test_unique_non_integral_solution_is_none():
    # independent columns: the unique rational solution (1/2, 1) is not
    # integral, so no integer solution exists
    assert integer_solve([[2, 0], [0, 3], [2, 3]], [1, 3, 4], 2) is None
    assert integer_solve([[2, 4], [0, 3]], [5, 3], 2) is None
    assert integer_solve([[2, 4], [0, 3]], [6, 3], 2) == [1, 1]


def test_integer_solve_refuses_inconsistent_shapes():
    # b one entry short used to drop the second row of A and call [1, 0] a
    # solution; a short row was a bare IndexError
    for a, b, n in (([[1, 2], [3, 4]], [1], 2), ([[1, 2], [3]], [1, 3], 2),
                    ([[1, 2]], [1], 3)):
        with pytest.raises(ValueError, match="^A needs one row of length n "
                           "per entry of b$"):
            integer_solve(a, b, n)
