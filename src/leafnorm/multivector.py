"""Multivector fields and differential forms on the chart, with Cartan calculus.

Every graded object of the engine lives in one sparse term store, `Graded`:
a map from blocked generator index tuples to RatFunc coefficients.
Multivector and DiffForm key it by a single strictly increasing tuple,
omega.MixedElement by three blocks, and the DSL interpreter evaluates into
(covariant, contravariant) pairs.  Generator index i < p means the i-th base
direction, p <= i < p+q the (i-p)-th fiber direction (contravariant d/dz for
Multivector, covariant dz for DiffForm).

The Schouten bracket is computed through the odd-coordinate representation:
a multivector is a polynomial in odd generators z_i, and

    [u, v] = D(u, v) - (-1)^(deg u * deg v) D(v, u),
    D(u, v) = sum_i (right-derivative of u by z_i) * (d v / d z^i),

with deg = |.| - 1.  This reduces to the Lie bracket on vector fields and to
X(f) on (vector field, function), and is pinned by the invariant suite
(graded antisymmetry, Leibniz, Jacobi).
"""

from .rational import Poly, RatFunc
from .errors import ContextMismatch, NonHomogeneous, Verdict, WrongDegree

__all__ = [
    "Multivector", "DiffForm", "schouten", "exterior_derivative",
    "lie_derivative", "sharp", "hamiltonian", "poisson_bracket",
    "cotangent_bracket", "is_poisson", "PoissonCheck", "d_scalar",
]


def _sort_block(block):
    """(sorted tuple, sign of the sorting permutation); (None, 0) when an
    index repeats.  This is the one Koszul sign rule: the wedge of
    generator blocks is their concatenation sorted by it."""
    sblock = tuple(sorted(block))
    if len(set(sblock)) != len(sblock):
        return None, 0
    sign = 1
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            if block[i] > block[j]:
                sign = -sign
    return sblock, sign


def _accumulate(out, key, c):
    """Add c to out[key], dropping the key when the sum vanishes."""
    prev = out.get(key)
    c = c if prev is None else prev + c
    if c.is_zero():
        out.pop(key, None)
    else:
        out[key] = c


class Graded:
    """Sparse sum of wedge monomials with nonzero RatFunc coefficients.

    A key is a tuple of blocks, each a strictly increasing tuple of generator
    indices.  Generators anticommute within a block; different blocks commute
    with no sign.  This class keys by (covariant, contravariant) blocks and is
    what the DSL evaluates into; subclasses pick their own key shape through
    `_blocks`/`_key`, name their factors by `FACTORS`, one format per block,
    and give the key of the empty monomial as `UNIT`.
    """

    __slots__ = ("context", "terms")

    FACTORS = ("dx[%s]", "d/d%s")
    UNIT = ((), ())

    def __init__(self, context, terms):
        self.context = context
        self.terms = terms

    @staticmethod
    def _blocks(key):
        return key

    @staticmethod
    def _key(blocks):
        return blocks

    @classmethod
    def _blockwise(cls, *keys):
        """Join the blocks of the keys position by position and sort each
        one; the resulting key and the product of the sort signs, or
        (None, 0) when a generator repeats within a block."""
        blocks = []
        sign = 1
        for parts in zip(*map(cls._blocks, keys)):
            block, s = _sort_block(sum(parts, ()))
            if block is None:
                return None, 0
            blocks.append(block)
            sign *= s
        return cls._key(tuple(blocks)), sign

    @classmethod
    def zero(cls, context):
        return cls(context, {})

    @classmethod
    def scalar(cls, f):
        return cls(f.ctx, {cls.UNIT: f} if not f.is_zero() else {})

    @classmethod
    def from_terms(cls, context, items):
        """Build from (key, RatFunc) pairs: every block is sorted with its
        permutation sign, keys with a repeated generator drop out and equal
        keys are summed."""
        out = {}
        for key, coeff in items:
            if coeff.is_zero():
                continue
            key, sign = cls._blockwise(key)
            if key is not None:
                _accumulate(out, key, coeff if sign > 0 else -coeff)
        return cls(context, out)

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return all(k == self.UNIT for k in self.terms)

    def scalar_value(self):
        return self.terms.get(self.UNIT, RatFunc.zero(self.context))

    def __add__(self, other):
        self._same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return type(self)(self.context, out)

    def __neg__(self):
        return type(self)(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        if not isinstance(f, (RatFunc, Poly)):
            f = RatFunc.const(self.context, f)
        if f.is_zero():
            return type(self).zero(self.context)
        return type(self)(self.context,
                          {m: c * f for m, c in self.terms.items()})

    def wedge(self, other):
        """Blockwise merge of every pair of monomials, signed by the product
        of the block signs."""
        self._same(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key, sign = self._blockwise(m1, m2)
                if key is not None:
                    c = c1 * c2
                    _accumulate(out, key, c if sign > 0 else -c)
        return type(self)(self.context, out)

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.context == other.context
                and self.terms == other.terms)

    __hash__ = None

    def cast(self, new_ctx):
        return type(self)(new_ctx,
                          {m: c.cast(new_ctx) for m, c in self.terms.items()})

    def map_coeffs(self, fn):
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return type(self)(self.context, out)

    def _same(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot mix %s and %s"
                            % (type(self).__name__, type(other).__name__))
        if self.context != other.context:
            raise ContextMismatch("operands live on different charts")

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.context.base + self.context.fiber
        parts = []
        for m in sorted(self.terms,
                        key=lambda k: (sum(map(len, self._blocks(k))), k)):
            c = self.terms[m]
            factors = [fmt % names[i] for fmt, block
                       in zip(self.FACTORS, self._blocks(m)) for i in block]
            wedgestr = " ^ ".join(factors)
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = str(-c)
            if not factors:
                body = cs
            elif cs == "1":
                body = "(%s)" % wedgestr
            else:
                if "/" in cs or " " in cs:
                    cs = "(%s)" % cs
                body = "%s*(%s)" % (cs, wedgestr)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    __repr__ = __str__


class _Flat(Graded):
    """One block stored as a flat index tuple: Multivector and DiffForm."""

    __slots__ = ()

    UNIT = ()

    @staticmethod
    def _blocks(key):
        return (key,)

    @staticmethod
    def _key(blocks):
        return blocks[0]

    @classmethod
    def basis(cls, context, index):
        return cls(context, {(index,): RatFunc.one(context)})

    def degrees(self):
        return sorted({len(k) for k in self.terms})

    def degree(self):
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise NonHomogeneous("mixed degrees %s" % (degs,))
        return degs[0]


class Multivector(_Flat):
    """Sparse wedge expansion over d/dx^i, d/dy^a."""

    __slots__ = ()

    FACTORS = ("d/d%s",)


class DiffForm(_Flat):
    """Sparse wedge expansion over dx^i, dy^a."""

    __slots__ = ()

    FACTORS = ("dx[%s]",)


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------

def _d_half(u, v, gens):
    """D(u, v) = sum_i dR(u)/dz_i * dv/dz^i over the given generators.

    The right derivative by z_i is read off u's terms: each key that holds
    i loses it, signed by the parity of the generators after it.
    """
    ctx = u.context
    items = []
    for gen in gens:
        du = [(m.index(gen), m, c) for m, c in u.terms.items() if gen in m]
        if not du:
            continue
        var = ctx.vars[ctx.nparams + gen]
        for m2, c2 in v.terms.items():
            dc = c2.derivative(var)
            if dc.is_zero():
                continue
            for pos, m1, c1 in du:
                key, sign = _sort_block(m1[:pos] + m1[pos + 1:] + m2)
                if key is None:
                    continue
                if (len(m1) - 1 - pos) % 2:
                    sign = -sign
                c = c1 * dc
                items.append((key, c if sign > 0 else -c))
    return Multivector.from_terms(ctx, items)


def schouten(u, v):
    """Schouten bracket of homogeneous multivectors (deg = |.| - 1 grading).

    The sums run over the generators that occur in u or v, in increasing
    order: any other one has zero right derivative in both operands.
    """
    u._same(v)
    du = u.degree()
    dv = v.degree()
    if du is None or dv is None:
        return Multivector.zero(u.context)
    gens = sorted(set().union(*u.terms, *v.terms))
    a = _d_half(u, v, gens)
    b = _d_half(v, u, gens)
    sign = -1 if ((du - 1) * (dv - 1)) % 2 else 1
    return a - b.scale(sign)


# ---------------------------------------------------------------------------
# Cartan calculus
# ---------------------------------------------------------------------------

def d_scalar(f):
    """Differential of a function as a 1-form (base and fiber directions)."""
    return exterior_derivative(DiffForm.scalar(f))


def exterior_derivative(omega):
    """Exterior derivative on the total space."""
    ctx = omega.context
    items = []
    for m, c in omega.terms.items():
        for i in range(ctx.p + ctx.q):
            dc = c.derivative(ctx.vars[ctx.nparams + i])
            if dc.is_zero():
                continue
            key, sign = _sort_block((i,) + m)
            if key is None:
                continue
            items.append((key, dc if sign > 0 else -dc))
    return DiffForm.from_terms(ctx, items)


def _contract(a, u):
    """First-slot contraction of the degree-1 terms of a into u."""
    if a.context != u.context:
        raise ContextMismatch("operands live on different charts")
    items = []
    for (i,), ca in a.terms.items():
        for m, c in u.terms.items():
            if i in m:
                pos = m.index(i)
                v = ca * c
                items.append((m[:pos] + m[pos + 1:], v if pos % 2 == 0 else -v))
    return type(u).from_terms(u.context, items)


def interior_form(x, omega):
    """i_X omega for a degree-1 multivector X (first-slot contraction)."""
    if x.degree() not in (None, 1):
        raise WrongDegree("interior product needs a vector field")
    return _contract(x, omega)


def pairing(u, omega):
    """Full contraction <u, omega> of equal-degree multivector and form."""
    if u.context != omega.context:
        raise ContextMismatch("operands live on different charts")
    total = RatFunc.zero(u.context)
    for m, c in u.terms.items():
        o = omega.terms.get(m)
        if o is not None:
            total = total + c * o
    return total


def lie_derivative(x, omega):
    """Cartan formula L_X = i_X d + d i_X on forms."""
    if x.degree() not in (None, 1):
        raise WrongDegree("lie_derivative needs a vector field")
    return interior_form(x, exterior_derivative(omega)) + \
        exterior_derivative(interior_form(x, omega))


# ---------------------------------------------------------------------------
# Poisson operations
# ---------------------------------------------------------------------------

def sharp(pi, alpha):
    """pi^#(alpha), the convention pinned by pi^#(alpha)(beta) = pi(alpha, beta)."""
    if pi.degree() not in (None, 2):
        raise WrongDegree("sharp needs a bivector")
    if alpha.degree() not in (None, 1):
        raise WrongDegree("contraction needs a 1-form")
    return _contract(alpha, pi)


def hamiltonian(pi, f):
    """X_f = pi^#(df)."""
    return sharp(pi, d_scalar(f))


def poisson_bracket(pi, f, g):
    """{f, g} = <pi, df ^ dg>."""
    return pairing(pi, d_scalar(f).wedge(d_scalar(g)))


def cotangent_bracket(pi, alpha, beta):
    """[alpha, beta]_pi = L_{pi#a}(beta) - L_{pi#b}(alpha) - d pi(alpha, beta)."""
    if alpha.degree() not in (None, 1) or beta.degree() not in (None, 1):
        raise WrongDegree("cotangent bracket needs 1-forms")
    xa = sharp(pi, alpha)
    xb = sharp(pi, beta)
    pab = pairing(pi, alpha.wedge(beta))
    return lie_derivative(xa, beta) - lie_derivative(xb, alpha) - d_scalar(pab)


class PoissonCheck(Verdict):
    __slots__ = ("ok", "residual")


def is_poisson(pi):
    """Zero test of [pi, pi]; returns the exact residual alongside."""
    if pi.degree() not in (None, 2):
        raise WrongDegree("is_poisson needs a bivector")
    residual = schouten(pi, pi)
    return PoissonCheck(residual.is_zero(), residual)
