"""Matrices over the rational-function field with exact elimination.

The determinant runs Bareiss fraction-free elimination, whose every
division is exact; `solve`, and with it the inverse, is Gauss-Jordan
elimination over the field of rational functions.  Every entry stays a
canonical RatFunc.  Sizes here are small (the horizontal block of a
bivector), so clarity wins over asymptotics.
"""

from .errors import SingularMatrix
from .rational import RatFunc

__all__ = ["MatrixRF", "matrix_inverse"]


class MatrixRF:
    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx, entries, cols=None):
        # cols is needed only to give a matrix with no rows its width
        self.ctx = ctx
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if cols is None:
            cols = len(self.entries[0]) if self.rows else 0
        self.cols = cols
        for row in self.entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def zero(ctx, rows, cols):
        z = RatFunc.zero(ctx)
        return MatrixRF(ctx, [[z for _ in range(cols)] for _ in range(rows)],
                        cols)

    @staticmethod
    def identity(ctx, n):
        one = RatFunc.one(ctx)
        z = RatFunc.zero(ctx)
        return MatrixRF(ctx, [[one if i == j else z for j in range(n)]
                              for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, MatrixRF) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, MatrixRF):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        z = RatFunc.zero(self.ctx)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return MatrixRF(self.ctx, out, other.cols)

    def __add__(self, other):
        if not isinstance(other, MatrixRF):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return MatrixRF(self.ctx, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)], self.cols)

    def transpose(self):
        return MatrixRF(self.ctx, [[self.entries[i][j]
                                    for i in range(self.rows)]
                                   for j in range(self.cols)], self.rows)

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return RatFunc.one(self.ctx)
        m = [row[:] for row in self.entries]
        sign = 1
        prev = RatFunc.one(self.ctx)
        for k in range(n - 1):
            if m[k][k].is_zero():
                for r in range(k + 1, n):
                    if not m[r][k].is_zero():
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return RatFunc.zero(self.ctx)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
                m[i][k] = RatFunc.zero(self.ctx)
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return -d if sign < 0 else d

    def solve(self, rhs):
        """Solve self * X = rhs exactly (self square nonsingular)."""
        if self.rows != self.cols:
            raise ValueError("solve needs a square matrix")
        n = self.rows
        aug = [self.entries[i][:] + rhs.entries[i][:] for i in range(n)]
        total = n + rhs.cols
        for k in range(n):
            piv = None
            for r in range(k, n):
                if not aug[r][k].is_zero():
                    piv = r
                    break
            if piv is None:
                raise SingularMatrix("matrix is singular as a rational function")
            if piv != k:
                aug[k], aug[piv] = aug[piv], aug[k]
            inv = RatFunc.one(self.ctx) / aug[k][k]
            aug[k] = [e * inv for e in aug[k]]
            for r in range(n):
                if r == k or aug[r][k].is_zero():
                    continue
                f = aug[r][k]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[k])]
        return MatrixRF(self.ctx, [row[n:total] for row in aug], rhs.cols)

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries) + "]"

    __repr__ = __str__


def matrix_inverse(a):
    """Exact inverse; raises SingularMatrix when det vanishes identically."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    if a.det().is_zero():
        raise SingularMatrix("matrix is singular as a rational function")
    return a.solve(MatrixRF.identity(a.ctx, a.rows))
