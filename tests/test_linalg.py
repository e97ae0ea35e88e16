import itertools
import random

import pytest

from leafnorm.errors import SingularMatrix
from leafnorm.linalg import MatrixRF, matrix_inverse
from leafnorm.rational import ChartContext, Poly, Q, RatFunc


CTX = ChartContext(base=["x"], fiber=["y"])


def rfp(p):
    return RatFunc.from_poly(p)


def const(q):
    return RatFunc.const(CTX, q)


def adjugate_inverse(m):
    """Independent oracle: inverse via cofactor expansion."""
    n = m.rows

    def minor_det(rows, cols):
        sub = [[m.entries[i][j] for j in cols] for i in rows]
        return MatrixRF(m.ctx, sub).det() if rows else RatFunc.one(m.ctx)

    d = m.det()
    out = MatrixRF.zero(m.ctx, n, n)
    idx = list(range(n))
    for i in range(n):
        for j in range(n):
            rows = [r for r in idx if r != j]
            cols = [c for c in idx if c != i]
            sign = Q(-1) ** (i + j)
            out.entries[i][j] = minor_det(rows, cols) * sign / d
    return out


def test_antisymmetric_2x2():
    x = rfp(Poly.var(CTX, "x"))
    f = x + const(1)
    z = RatFunc.zero(CTX)
    m = MatrixRF(CTX, [[z, f], [-f, z]])
    inv = matrix_inverse(m)
    one = RatFunc.one(CTX)
    assert inv == MatrixRF(CTX, [[z, -(one / f)], [one / f, z]])


def test_identity():
    i3 = MatrixRF.identity(CTX, 3)
    assert matrix_inverse(i3) == i3


def test_random_3x3_vs_adjugate_oracle():
    rng = random.Random(9)
    pool = [Poly.zero(CTX), Poly.one(CTX), -Poly.one(CTX),
            Poly.var(CTX, "x"), -Poly.var(CTX, "x"), Poly.var(CTX, "y")]
    found = 0
    while found < 5:
        m = MatrixRF(CTX, [[rfp(rng.choice(pool)) for _ in range(3)]
                           for _ in range(3)])
        if m.det().is_zero():
            continue
        found += 1
        inv = matrix_inverse(m)
        assert m * inv == MatrixRF.identity(CTX, 3)
        assert inv == adjugate_inverse(m)


def test_roundtrip_up_to_4x4_random():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        done = 0
        while done < 3:
            m = MatrixRF(CTX, [[const(rng.randint(-3, 3)) +
                                rfp(Poly.var(CTX, "x")) * rng.randint(0, 1)
                                for _ in range(n)] for _ in range(n)])
            if m.det().is_zero():
                continue
            done += 1
            assert m * matrix_inverse(m) == MatrixRF.identity(CTX, n)


def test_singular_rejected():
    one = RatFunc.one(CTX)
    m = MatrixRF(CTX, [[one, one], [one, one]])
    with pytest.raises(SingularMatrix):
        matrix_inverse(m)


def test_shape_without_rows():
    empty = MatrixRF.zero(CTX, 0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    square = empty.transpose() * empty
    assert square == MatrixRF.zero(CTX, 3, 3)
    with pytest.raises(ValueError):
        square + MatrixRF.zero(CTX, 0, 0)
    with pytest.raises(ValueError):
        square - MatrixRF.zero(CTX, 3, 2)


def test_det_matches_permutation_expansion():
    rng = random.Random(2)
    x = Poly.var(CTX, "x")
    for _ in range(5):
        n = 3
        m = MatrixRF(CTX, [[rfp(Poly.const(CTX, rng.randint(-2, 2)) +
                                x * rng.randint(0, 1))
                            for _ in range(n)] for _ in range(n)])
        expect = RatFunc.zero(CTX)
        for perm in itertools.permutations(range(n)):
            sign = Q(1)
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = RatFunc.const(CTX, sign)
            for i in range(n):
                term = term * m.entries[i][perm[i]]
            expect = expect + term
        assert m.det() == expect
