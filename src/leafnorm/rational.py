"""Exact sparse multivariate polynomials over Z and rational functions over Q.

This is the coefficient kernel of the whole engine: every geometric object
stores RatFunc coefficients, and "identity holds" always means "RatFunc is
the zero representation".  There is no floating point anywhere.

Variables live in a ChartContext and are ordered params < base < fiber.
A monomial is one packed int (see ChartContext): the total degree in the
top field, then one field per variable with the last (fiber) variable most
significant, so int order is the canonical graded lexicographic term order
and a monomial product is an integer sum.  A RatFunc is kept fully reduced:
gcd(num, den) = 1, all coefficients integral with joint content 1, and the
leading coefficient of the denominator positive — so equality is
representation equality.  Rational numbers enter only at the scalar
boundary: `_split` reads every one into numerator and denominator and
`RatFunc.const_value` joins them.  `Q` is `fractions.Fraction`, imported on
first use: the engine's own scalars are ints and constant RatFuncs, and
`fractions` (with `decimal` and `numbers`) would double the import time of
a small program (docs/conventions.md, "Imports").
"""

import math
import sys

from .errors import (
    ContextMismatch,
    LimitExceeded,
    NonRationalInput,
    SingularAtZeroSection,
    UnknownVariable,
    ZeroDenominator,
)

__all__ = [
    "Q",
    "ChartContext",
    "Poly",
    "RatFunc",
    "ratfunc_normalize",
    "MAX_DEGREE",
    "int_str",
]

# Bits per field of a packed monomial.  The top bit of each field is a guard
# bit that no valid monomial sets, so a field holds at most MAX_DEGREE.
_W = 32
_FIELD = (1 << _W) - 1
# Largest total degree of a monomial; a product that would pass it raises
# LimitExceeded instead of carrying into the next field.
MAX_DEGREE = (1 << (_W - 1)) - 1


def __getattr__(name):
    if name == "Q":
        from fractions import Fraction
        return Fraction
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _fraction(*args):
    """fractions.Fraction(*args), importing fractions on first use."""
    from fractions import Fraction
    return Fraction(*args)


def _is_rational(x):
    """x is an int or a Fraction; no Fraction exists before `fractions` is
    imported, so the test imports nothing."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _split(x):
    """(n, d), reduced with d > 0, of a rational scalar: an int, a Fraction
    or a constant RatFunc.  Every rational that enters the engine is read
    here; any other type is a TypeError, a float included, since its binary
    value is not the decimal one the user wrote."""
    if _is_rational(x):
        return x.numerator, x.denominator
    if not isinstance(x, RatFunc):
        raise TypeError("a rational scalar is an int, a Fraction or a "
                        "constant RatFunc, got %s" % type(x).__name__)
    if not x.is_const():
        raise NonRationalInput(
            "symbolic value must be evaluated first: %s" % (x,))
    return x.num.const_value(), x.den.const_value()


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise LimitExceeded("total degree %d exceeds the limit %d"
                            % (degree, MAX_DEGREE))


class ChartContext:
    """Named chart of a trivialized bundle: base, fiber and formal parameters.

    Every value in the system is tagged with exactly one context; operations
    across different contexts are rejected by the geometric layers.

    The context also fixes the packing of monomials: the exponent of
    variable i sits in bits [i*_W, (i+1)*_W) and the total degree in the
    field above the last variable, at `deg_shift`.
    """

    __slots__ = ("params", "base", "fiber", "vars", "_index", "nparams", "p",
                 "q", "_shifts", "deg_shift", "guard", "fiber_mask", "gens")

    def __init__(self, base, fiber, params=()):
        self.params = tuple(params)
        self.base = tuple(base)
        self.fiber = tuple(fiber)
        # generator g of a graded object is the variable gens[g]
        self.gens = self.base + self.fiber
        self.vars = self.params + self.gens
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names in chart")
        for name in self.vars:
            if not name or not isinstance(name, str):
                raise ValueError("variable names must be nonempty strings")
        self._index = {name: i for i, name in enumerate(self.vars)}
        self.nparams = len(self.params)
        self.p = len(self.base)
        self.q = len(self.fiber)
        n = len(self.vars)
        self._shifts = tuple(range(0, n * _W, _W))
        self.deg_shift = n * _W
        self.guard = sum(1 << (s + _W - 1) for s in range(0, (n + 1) * _W, _W))
        self.fiber_mask = sum(_FIELD << s
                              for s in self._shifts[self.nparams + self.p:])

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable("unknown variable %r" % (name,)) from None

    def _shift(self, i):
        """The offset of variable i's field; UnknownVariable for anything
        but an index into the chart, a negative one included.  It is on
        the derivative's path, so it tests only what indexing does not."""
        try:
            if i >= 0:
                return self._shifts[i]
        except (TypeError, IndexError):
            pass
        raise UnknownVariable("no variable of index %r" % (i,))

    def var_mono(self, i):
        """The packed monomial of variable i (adding it multiplies by x_i)."""
        return (1 << self._shifts[i]) | (1 << self.deg_shift)

    def pack(self, exps):
        """The packed monomial of an exponent tuple over `vars`."""
        if len(exps) != len(self.vars) or min(exps, default=0) < 0:
            raise ValueError("bad exponent vector %r" % (exps,))
        degree = sum(exps)
        _check_degree(degree)
        m = degree << self.deg_shift
        for e, s in zip(exps, self._shifts):
            m |= e << s
        return m

    def unpack(self, m):
        """The exponent tuple of a packed monomial."""
        return tuple([(m >> s) & _FIELD for s in self._shifts])

    def fiber_degree(self, m):
        """Degree of a packed monomial in the fiber variables."""
        return sum([(m >> s) & _FIELD
                    for s in self._shifts[self.nparams + self.p:]])

    def with_param(self, name):
        """Context extended by one formal parameter (appended to params)."""
        if name in self._index:
            raise ValueError("variable %r already in chart" % (name,))
        return ChartContext(self.base, self.fiber, self.params + (name,))

    def __eq__(self, other):
        return (
            isinstance(other, ChartContext)
            and self.params == other.params
            and self.base == other.base
            and self.fiber == other.fiber
        )

    def __hash__(self):
        return hash((self.params, self.base, self.fiber))

    def __repr__(self):
        return "ChartContext(base=%r, fiber=%r, params=%r)" % (
            list(self.base), list(self.fiber), list(self.params))


def int_str(n):
    """Decimal digits of an int, free of the interpreter's digit limit."""
    try:
        return str(n)
    except ValueError:
        # past the limit (4300 digits by default) only
        from decimal import Decimal
        return str(Decimal(n))


class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        # terms: dict packed monomial -> nonzero int; caller guarantees no zeros
        self.ctx = ctx
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ctx):
        return Poly(ctx, {})

    @staticmethod
    def const(ctx, c):
        n, d = _split(c)
        if d != 1:
            raise ValueError("Poly coefficients are integers, got %s; use "
                             "RatFunc.const for rational constants" % (c,))
        return Poly(ctx, {0: n} if n else {})

    @staticmethod
    def var(ctx, name):
        return Poly(ctx, {ctx.var_mono(ctx.var_index(name)): 1})

    @staticmethod
    def one(ctx):
        return Poly(ctx, {0: 1})

    @staticmethod
    def from_exponents(ctx, terms):
        """Poly from {exponent tuple over ctx.vars: nonzero int}."""
        return Poly(ctx, {ctx.pack(m): c for m, c in terms.items()})

    def exponents(self):
        """(exponent tuple, coefficient) of every term, in no fixed order."""
        unpack = self.ctx.unpack
        return ((unpack(m), c) for m, c in self.terms.items())

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and 0 in terms)

    def const_value(self):
        if not self.terms:
            return 0
        (mono, c), = self.terms.items()
        if mono:
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self):
        if not self.terms:
            return -1
        return max(self.terms) >> self.ctx.deg_shift

    def depends_on(self, i):
        mask = _FIELD << self.ctx._shift(i)
        return any(m & mask for m in self.terms)

    def depends_on_fiber(self):
        mask = self.ctx.fiber_mask
        return any(m & mask for m in self.terms)

    def leading(self):
        mono = max(self.terms)
        return mono, self.terms[mono]

    def leading_coeff(self):
        return self.leading()[1]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _is_rational(other):
                return NotImplemented
            other = Poly.const(self.ctx, other)
        elif other.ctx is not self.ctx:
            _same_chart(self.ctx, other.ctx)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v = v + c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not (isinstance(other, Poly) or _is_rational(other)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not _is_rational(other):
                return NotImplemented
            other = Poly.const(self.ctx, other)
        elif other.ctx is not self.ctx:
            _same_chart(self.ctx, other.ctx)
        a, b = self.terms, other.terms
        if not (a and b):
            return Poly(self.ctx, {})
        # a constant operand scales the other one's terms
        if len(b) == 1 and 0 in b:
            return _scaled(self.ctx, a, b[0])
        if len(a) == 1 and 0 in a:
            return _scaled(self.ctx, b, a[0])
        # every field of a product stays below its guard bit when the
        # largest total degree does
        s = self.ctx.deg_shift
        _check_degree((max(a) >> s) + (max(b) >> s))
        # a square a*a or a*(-a) takes each unordered term pair once
        if len(a) == len(b) > 1:
            sign = _square_sign(a, b)
            if sign:
                return Poly(self.ctx, _square(a, sign))
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m in out:
                    v = out[m] + c1 * c2
                    if v:
                        out[m] = v
                    else:
                        del out[m]
                else:
                    out[m] = c1 * c2
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative power of Poly")
        return _power(Poly.one(self.ctx), self, n)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ctx == other.ctx and self.terms == other.terms
        if _is_rational(other):
            return self.is_const() and self.const_value() == other
        return NotImplemented

    __hash__ = None

    # -- calculus & substitution ---------------------------------------

    def derivative(self, i):
        # distinct monomials stay distinct, so no two terms meet
        s = self.ctx._shift(i)
        step = self.ctx.var_mono(i)
        out = {}
        for m, c in self.terms.items():
            e = (m >> s) & _FIELD
            if e:
                out[m - step] = c * e
        return Poly(self.ctx, out)

    def substitute(self, mapping):
        """Simultaneous substitution {var index: RatFunc | Q} -> RatFunc."""
        ctx = self.ctx
        # an index outside the chart is refused before any arithmetic
        for i in mapping:
            ctx._shift(i)
        values = {i: v if isinstance(v, RatFunc) else RatFunc.const(ctx, v)
                  for i, v in mapping.items()}
        total = RatFunc.zero(ctx)
        pow_cache = {}
        for m, c in self.exponents():
            term = RatFunc.const(ctx, c)
            for i, e in enumerate(m):
                if not e:
                    continue
                if i in values:
                    key = (i, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = values[i] ** e
                        pow_cache[key] = p
                    term = term * p
                else:
                    term = term * Poly(ctx, {e * ctx.var_mono(i): 1})
            total = total + term
        return total

    def evaluate(self, point):
        """(P, D) with P / D this polynomial at {var index: rational}: P a
        Poly over Z in the other variables and D a positive int.  A value
        is an int, a Fraction or a constant RatFunc; a value a/b of a
        variable of degree k turns its power x^e into a^e b^(k-e), over the
        common denominator b^k."""
        value, den, _ = _values_and_slopes(self, point, ())
        return value, den

    def fiber_parts(self):
        """{fiber degree d: the monomials of fiber degree d}, in one pass."""
        fiber_degree = self.ctx.fiber_degree
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(fiber_degree(m), {})[m] = c
        return {d: Poly(self.ctx, t) for d, t in parts.items()}

    def cast(self, new_ctx):
        """Re-tag into another context by variable name; fails only when a
        variable that occurs is missing from it."""
        # pos[i]: index in new_ctx of variable i, or -1 where it has none
        pos = [new_ctx._index.get(v, -1) for v in self.ctx.vars]
        n = len(new_ctx.vars)
        out = {}
        for m, c in self.exponents():
            m2 = [0] * n
            for i, e in enumerate(m):
                if not e:
                    continue
                j = pos[i]
                if j < 0:
                    raise UnknownVariable(
                        "variable %r does not exist in target context"
                        % (self.ctx.vars[i],))
                m2[j] = e
            out[new_ctx.pack(m2)] = c
        return Poly(new_ctx, out)

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ctx.vars
        unpack = self.ctx.unpack
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(unpack(m)):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            mono = "*".join(factors)
            neg = c < 0
            ac = int_str(-c if neg else c)
            if not mono:
                body = ac
            elif ac == "1":
                body = mono
            else:
                body = "%s*%s" % (ac, mono)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    __repr__ = __str__


def _same_chart(a, b):
    """Reject operands from two charts: their packed monomials would
    combine by position, not by variable name."""
    if a != b:
        raise ContextMismatch("operands live on different charts")


def _power(one, base, n):
    """base ** n for n >= 0 by square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _square_sign(a, b):
    """1 when the terms b equal a, -1 when they equal -a, and 0 otherwise
    (docs/conventions.md, "Products")."""
    if a is b or a == b:
        return 1
    for m, c in a.items():
        if b.get(m) != -c:
            return 0
    return -1


def _square(terms, sign):
    """The terms of sign * p^2, p with the given terms, over the pairs
    i <= j: c_i^2 on the diagonal and 2 c_i c_j off it.  The terms equal
    the schoolbook product's, but not always in its order: a sum that
    cancels is deleted, and inserted again at the end, at other steps than
    in the double loop."""
    items = list(terms.items())
    out = {}
    for i, (m1, c1) in enumerate(items):
        # v is 0 only for a monomial already in out, so del finds it
        m = m1 + m1
        v = out.get(m, 0) + sign * c1 * c1
        if v:
            out[m] = v
        else:
            del out[m]
        k = 2 * sign * c1
        for m2, c2 in items[i + 1:]:
            m = m1 + m2
            v = out.get(m, 0) + k * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def _scaled(ctx, terms, k):
    """The Poly with terms times the nonzero int k; a factor of 1 keeps the
    terms dict itself (no operation changes the terms of its operands)."""
    if k == 1:
        return Poly(ctx, terms)
    return Poly(ctx, {m: c * k for m, c in terms.items()})


# ---------------------------------------------------------------------------
# multivariate gcd (heuristic, primitive PRS fallback) and exact division
# ---------------------------------------------------------------------------

# evaluation points the heuristic gcd tries before the PRS answers (as sympy)
_HEU_POINTS = 6
# the heuristic gives up, and the PRS answers, before it evaluates a variable
# of degree d at a point xi with d * xi.bit_length() above this: that product
# bounds the growth of the images' integers, which otherwise compounds over
# the levels of the recursion (the benchmark workloads stay below 900)
_HEU_MAX_BITS = 32768
# the coprimality certificate declines images of more bits than this:
# `math.gcd` of 83 000-bit integers takes longer than the heuristic it spares
_COPRIME_MAX_BITS = 2048


def _icontent(polys):
    """Joint integer content of polys (0 when they are all zero)."""
    # pairwise: passing all coefficients to one math.gcd call builds an
    # argument tuple each time, and CPython's tuple free lists then kept
    # about 1 MB more peak RSS on the so(3)+so(3) workloads
    g = 0
    for f in polys:
        for c in f.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g


def _primitive(polys, lead):
    """Divide polys by their joint content, signed so that the coefficient
    `lead` of one of them becomes positive."""
    g = _icontent(polys)
    if lead < 0:
        g = -g
    if g == 1:
        return polys
    return [Poly(f.ctx, {m: c // g for m, c in f.terms.items()})
            for f in polys]


def _iprimitive(f):
    """Nonzero f with content 1 and a positive leading coefficient."""
    return _primitive([f], f.leading_coeff())[0]


def poly_exact_div(f, g):
    """Exact quotient f/g in Z[x], or None when g does not divide f there.

    Every caller divides by a primitive `poly_gcd` result, a primitive
    candidate content, a polynomial by itself or a product by one of its
    factors; by Gauss's lemma division in Z[x] and in Q[x] agree there.
    The remainder is walked leading term first through a heap of negated
    monomials; a monomial whose coefficient cancelled leaves a stale entry
    that is skipped.
    """
    # imported here: at module level it would add about 0.5 ms, 2 % of the
    # set-up time of a small program, to every `import leafnorm`
    import heapq

    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    gm, gc = g.leading()
    guard = f.ctx.guard
    gtail = [(m, c) for m, c in g.terms.items() if m != gm]
    rem = dict(f.terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    quo = {}
    while heap:
        fm = -heapq.heappop(heap)
        fc = rem.pop(fm, 0)
        if not fc:
            continue
        qm = fm - gm
        # gm divides fm iff no field of fm - gm borrows from its guard bit
        if (qm + guard) & guard != guard:
            return None
        qc, r = divmod(fc, gc)
        if r:
            return None
        # the updates stay below fm, so fm leaves rem for good and qm is new
        quo[qm] = qc
        for m2, c2 in gtail:
            m = qm + m2
            if m in rem:
                v = rem[m] - qc * c2
                if v:
                    rem[m] = v
                else:
                    del rem[m]
            else:
                rem[m] = -qc * c2
                heapq.heappush(heap, -m)
    return Poly(f.ctx, quo)


def _gcd_operands(f, g):
    """(low, F, G): F and G are f and g made primitive and free of monomial
    content, and x^low, packed, is the monomial gcd of f and g.  Each
    operand has two terms or more, so stripped of its monomial content it
    is still not a constant."""
    ctx = f.ctx
    f = _iprimitive(f)
    g = _iprimitive(g)
    flow, glow = _low(ctx, f.terms), _low(ctx, g.terms)
    if flow:
        f = Poly(ctx, {m - flow: c for m, c in f.terms.items()})
    if glow:
        g = Poly(ctx, {m - glow: c for m, c in g.terms.items()})
    return _low(ctx, (flow, glow)), f, g


def _low(ctx, monos):
    """The packed monomial gcd of some packed monomials: 0 when one is the
    constant monomial, else the least field of each variable the first one
    has, with the total degree their sum.  Each field of each monomial is
    at least the result's, so subtracting it borrows nowhere."""
    if 0 in monos:
        return 0
    first = next(iter(monos))
    low = degree = 0
    for s in ctx._shifts:
        mask = _FIELD << s
        if first & mask:
            e = min(map(mask.__and__, monos))
            low += e
            degree += e >> s
    return low + (degree << ctx.deg_shift)


def poly_gcd(f, g):
    """(h, f/h, g/h): the primitive gcd h (content 1, positive leading
    coefficient) and the two cofactors.

    A zero or a single-term operand is settled from the operands alone,
    with no division.  Otherwise the divisor pre-check answers first, then
    the coprimality certificate, then the heuristic gcd, and the primitive
    PRS when it gives up.  Each takes the operands made primitive and free
    of monomial content, and returns their canonical gcd with its two
    cofactors: the quotients of the divisions that verified it, or the
    operands themselves for a certified unit gcd.  So the result does not
    depend on the path, and the cofactors are mapped back to f and g once.
    """
    # a nonzero constant operand: the gcd is 1 (most calls on small inputs)
    a, b = f.terms, g.terms
    ctx = f.ctx
    if (len(a) == 1 and 0 in a) or (len(b) == 1 and 0 in b):
        return Poly(ctx, {0: 1}), f, g
    # a zero operand: the gcd is the other one's primitive part, which has
    # the same leading monomial, and that one's cofactor its signed content
    if not (a and b):
        p = f if a else g
        if not p.terms:
            return p, f, g
        lead, c = p.leading()
        h = _primitive([p], c)[0]
        k = Poly(ctx, {0: c // h.terms[lead]})
        return (h, k, g) if a else (h, f, k)
    # a single-term operand c x^alpha: the gcd is the monomial gcd of
    # x^alpha and the other operand's monomial content, so the cofactors
    # are shifts that borrow nowhere
    if len(a) == 1 or len(b) == 1:
        (alpha,), other = (a, b) if len(a) == 1 else (b, a)
        low = _low(ctx, (alpha, _low(ctx, other)))
        if not low:
            return Poly(ctx, {0: 1}), f, g
        return (Poly(ctx, {low: 1}),
                Poly(ctx, {m - low: c for m, c in a.items()}),
                Poly(ctx, {m - low: c for m, c in b.items()}))
    low, F, G = _gcd_operands(f, g)
    h, qf, qg = (_trial_divisor(F, G) or _coprime(F, G) or _heu_gcd(F, G)
                 or _prs(F, G))
    # F and G are primitive, so h is too, with a positive leading
    # coefficient; multiplying it by the monomial gcd is a shift
    if low:
        h = Poly(ctx, {m + low: c for m, c in h.terms.items()})
    if h.is_const():
        return h, f, g
    return h, _cofactor(qf, f, F, low), _cofactor(qg, g, G, low)


def _trial_divisor(f, g):
    """(h, f/h, g/h) when the operand with fewer terms (on a tie, the
    smaller leading monomial) divides the other, with h that operand; None
    otherwise.

    f and g are primitive with positive leading coefficients, so a divisor
    of the other is their canonical gcd.  One trial division decides it,
    after one necessary condition that costs a pass over the terms: the
    values at (2, ..., 2) divide.  The division itself tests the leading
    terms first.
    """
    fm, gm = max(f.terms), max(g.terms)
    swapped = (len(f.terms), fm) > (len(g.terms), gm)
    if swapped:
        f, g, gm = g, f, fm
    a, b = f.terms, g.terms
    s = f.ctx.deg_shift
    # a value at 2 has about as many bits as the total degree: past the
    # heuristic's bound on its integers the division alone decides
    if gm >> s <= _HEU_MAX_BITS:
        f2 = sum(c << (m >> s) for m, c in a.items())
        if f2 and sum(c << (m >> s) for m, c in b.items()) % f2:
            return None
    q = poly_exact_div(g, f)
    if q is None:
        return None
    one = Poly(f.ctx, {0: 1})
    return (f, q, one) if swapped else (f, one, q)


def _coprime(f, g):
    """(1, f, g) when f and g, primitive, free of monomial content and not
    constant, are certified coprime; None otherwise, which decides nothing.

    A common factor h of positive degree has only variables that both
    operands have, so it divides each coefficient f_u of f as a polynomial
    in its other variables, and each g_v.  The Kronecker substitution K,
    x_i -> X^(w_i) on the shared variables with radices above their
    exponents, keeps those coefficients, so each root of K(h) has modulus
    below 1 + min(|f|, |g|) by Cauchy's bound.  At xi = 2^bits >=
    2 min(|f|, |g|) + 2, |K(h)(xi)| > (xi/2)^deg >= xi/2, and K(h)(xi)
    divides gamma, the gcd of every K(f_u)(xi) and K(g_v)(xi); so
    gamma <= xi/2 rules h out.  The images can share factors that f and g
    lack, and then the heuristic decides (docs/conventions.md, "The
    coprimality certificate").
    """
    a, b = f.terms, g.terms
    fo = go = 0
    for m in a:
        fo |= m
    for m in b:
        go |= m
    # an operand has x_i when its field of fo (go) is not zero, whichever
    # bits are set, and the field of fo | go is at least every exponent of
    # x_i; x_i -> X^(w_i), with w the product of the radices so far, and u
    # is the monomial of a term in the variables one operand has alone
    shared, umask, w = [], 0, 1
    for s in f.ctx._shifts:
        mask = _FIELD << s
        if fo & mask and go & mask:
            shared.append((s, w))
            w *= (((fo | go) >> s) & _FIELD) + 1
        else:
            umask |= mask
    # xi = 2^bits with 8 bits to spare over 2 min(|f|, |g|) + 2
    bits = (min(max(map(abs, a.values())),
                max(map(abs, b.values()))) + 1).bit_length() + 9
    if bits * w > _COPRIME_MAX_BITS:
        return None
    gamma = 0
    for terms in (a, b):
        # K(f_u)(xi) for each u
        images = {}
        for m, c in terms.items():
            k = 0
            for s, wi in shared:
                k += ((m >> s) & _FIELD) * wi
            u = m & umask
            images[u] = images.get(u, 0) + (c << bits * k)
        gamma = math.gcd(gamma, *images.values())
    # the images of the operand of least norm are nonzero, so gamma is too
    if gamma > 1 << (bits - 1):
        return None
    return Poly(f.ctx, {0: 1}), f, g


def _cofactor(q, f, F, low):
    """f/h from q = F/H, where F is f made primitive and stripped of its
    monomial content and h = x^low H: f = c x^a F, so f/h = c x^(a-low) q,
    with c the ratio of the leading coefficients and x^a the ratio of the
    leading monomials."""
    fm, fc = f.leading()
    Fm, Fc = F.leading()
    c = fc // Fc
    shift = fm - Fm - low
    return Poly(q.ctx, {m + shift: v * c for m, v in q.terms.items()})


def _prs(f, g):
    """(h, f/h, g/h) for primitive f and g, with h their canonical gcd: 1 if
    they share no variable, else by the primitive PRS in the shared variable
    x of least degree.  `_content_free_part` splits off the content in x of
    each operand and of each pseudo-remainder; the contents' gcd comes from
    `poly_gcd`, and has one variable fewer than the PRS that asks for it."""
    fdeg, gdeg = _degrees(f), _degrees(g)
    shared = [i for i, (df, dg) in enumerate(zip(fdeg, gdeg)) if df and dg]
    if not shared:
        return Poly(f.ctx, {0: 1}), f, g
    x = min(shared, key=lambda i: min(fdeg[i], gdeg[i]))
    cf, a = _content_free_part(f, x)
    cg, b = _content_free_part(g, x)
    if fdeg[x] < gdeg[x]:
        a, b = b, a
    while b.terms:
        r = _prem(a, b, x)
        if r.terms:
            r = _iprimitive(_content_free_part(r, x)[1])
        a, b = b, r
    h = _iprimitive(a * poly_gcd(cf, cg)[0])
    return h, poly_exact_div(f, h), poly_exact_div(g, h)


def _prem(a, b, i):
    """The pseudo-remainder of a by b in the variable x_i, where b has
    degree db <= the degree da of a in it: the remainder of l^(da-db+1) a,
    with l the coefficient of x_i^db in b.  Each step cancels the leading
    coefficient of the remainder without forming the terms that cancel."""
    ctx, s = a.ctx, a.ctx._shifts[i]
    db = max((m >> s) & _FIELD for m in b.terms)
    step = db * ctx.var_mono(i)

    def split(f, k):
        # (t x_i^(k-db), f - t x_i^k), with t x_i^k the terms of f of
        # degree k in x_i
        top, rest = {}, {}
        for m, c in f.terms.items():
            if (m >> s) & _FIELD == k:
                top[m - step] = c
            else:
                rest[m] = c
        return Poly(ctx, top), Poly(ctx, rest)

    (lead, tail), r = split(b, db), a
    for k in range(max((m >> s) & _FIELD for m in a.terms), db - 1, -1):
        top, rest = split(r, k)
        r = lead * rest - top * tail
    return r


def _heu_gcd(f, g):
    """(h, f/h, g/h) for nonzero f and g, with h their gcd with its integer
    content, up to sign, by the heuristic gcd (GCDHEU); None when it gives
    up.  At the integer leaf the cofactors are None: no caller reads them.

    Char, Geddes and Gonnet (1989): set one variable to an integer xi, take
    the gcd of the two images recursively, down to `math.gcd`, and read a
    candidate off the symmetric xi-adic digits of that gcd.  Once the
    integer content f and g share is taken out, a primitive candidate that
    divides both is their gcd whenever xi >= 2 min(|f|, |g|) + 2 (Geddes,
    Czapor and Labahn, Algorithms for Computer Algebra, Thm 7.7), so an
    accepted answer is exact.
    """
    ctx = f.ctx
    nvars = len(ctx.vars)
    content = _icontent([f, g])
    if f.is_const() or g.is_const():
        return Poly(ctx, {0: content}), None, None
    if content != 1:
        f, g = [Poly(ctx, {m: c // content for m, c in p.terms.items()})
                for p in (f, g)]
    fdeg, gdeg = _degrees(f), _degrees(g)
    # the variable of highest degree first: its images have the fewest terms
    x = max(range(nvars), key=lambda i: (max(fdeg[i], gdeg[i]), i))
    xi = 2 * min(max(map(abs, f.terms.values())),
                 max(map(abs, g.terms.values()))) + 2
    xdeg = max(fdeg[x], gdeg[x])
    for _ in range(_HEU_POINTS):
        if xdeg * xi.bit_length() > _HEU_MAX_BITS:
            return None
        fx, gx = f.evaluate({x: xi})[0], g.evaluate({x: xi})[0]
        image = None
        if fx.terms and gx.terms:
            found = _heu_gcd(fx, gx)
            # an inner level that gives up ends the heuristic (as sympy):
            # trying further points here would multiply its cost per level
            if found is None:
                return None
            image = found[0]
        if image is not None:
            h = _iprimitive(_xi_adic(image, x, xi))
            # a unit divides both, and the cofactors are f and g themselves
            if h.is_const():
                return Poly(ctx, {0: content}), f, g
            # the quotients of the trial divisions are the cofactors
            if (qf := poly_exact_div(f, h)) is not None \
                    and (qg := poly_exact_div(g, h)) is not None:
                return Poly(ctx, {m: c * content
                                  for m, c in h.terms.items()}), qf, qg
        xi = xi * 73794 // 27011
    return None


def _degrees(f):
    """The degree of nonzero f in each variable."""
    terms = f.terms
    return [max(map((_FIELD << s).__and__, terms)) >> s
            for s in f.ctx._shifts]


def _values_and_slopes(p, point, slopes):
    """(P, D, [P_j]): p and its derivatives by x_j, j in `slopes`, at
    `point` {var index: rational} as P / D and P_j / D, with P and the P_j
    Polys over Z in the variables the point leaves free and D a positive
    int.  A value is an int, a Fraction or a constant RatFunc.

    The derivatives are `Poly.derivative`s of p, and each variable of the
    point that one of them has takes one pass over p and them.  At a/b,
    with k its highest degree among them, x^e becomes a^e b^(k-e), so all
    of them share the one denominator b^k.
    """
    ctx = p.ctx
    polys = [p.terms] + [p.derivative(j).terms for j in slopes]
    den = 1
    for i, v in point.items():
        s, step = ctx._shift(i), ctx.var_mono(i)
        a, b = _split(v)
        mask = _FIELD << s
        k = max([max(map(mask.__and__, t), default=0) for t in polys]) >> s
        # a variable that none of them has leaves them and D as they are
        if not k:
            continue
        bs = _powers(b, k)
        values = [x * y for x, y in zip(_powers(a, k), reversed(bs))]
        den *= bs[k]
        polys = [_at(t, s, step, values) for t in polys]
    value, *derivatives = [Poly(ctx, t) for t in polys]
    return value, den, derivatives


def _at(terms, s, step, values):
    """`terms` with x^e, x the variable at shift s, replaced by values[e]."""
    out = {}
    for m, c in terms.items():
        e = (m >> s) & _FIELD
        m -= e * step
        out[m] = out.get(m, 0) + c * values[e]
    return {m: c for m, c in out.items() if c}


def _powers(a, k):
    """[a^0, ..., a^k]."""
    out = [1]
    for _ in range(k):
        out.append(out[-1] * a)
    return out


def _xi_adic(h, x, xi):
    """The polynomial in x whose coefficients are the symmetric xi-adic
    digits of h (h free of x), lowest digit at x^0."""
    step = h.ctx.var_mono(x)
    degree = h.total_degree()
    out = {}
    half = xi // 2
    xe = 0  # x^e, packed
    terms = h.terms
    while terms:
        _check_degree(degree)
        rest = {}
        for m, c in terms.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m + xe] = d
            if c != d:
                rest[m] = (c - d) // xi
        terms = rest
        xe += step
        degree += 1
    return Poly(h.ctx, out)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Canonical fraction of Polys; equality is representation equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        # internal: assumes already canonical
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.num.ctx

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p):
        return ratfunc_normalize(p, Poly.one(p.ctx))

    @staticmethod
    def const(ctx, c):
        # a reduced n/d with d > 0 is already canonical
        n, d = (c, 1) if type(c) is int else _split(c)
        if not n:
            return RatFunc.zero(ctx)
        return RatFunc(Poly(ctx, {0: n}), Poly(ctx, {0: d}))

    @staticmethod
    def zero(ctx):
        return RatFunc(Poly.zero(ctx), Poly.one(ctx))

    @staticmethod
    def one(ctx):
        return RatFunc(Poly.one(ctx), Poly.one(ctx))

    @staticmethod
    def half(ctx):
        return RatFunc(Poly.one(ctx), Poly(ctx, {0: 2}))

    @staticmethod
    def var(ctx, name):
        return RatFunc(Poly.var(ctx, name), Poly.one(ctx))

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return _fraction(self.num.const_value(), self.den.const_value())

    def depends_on_fiber(self):
        return self.num.depends_on_fiber() or self.den.depends_on_fiber()

    def is_fiber_polynomial(self):
        return not self.den.depends_on_fiber()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.ctx is not self.num.ctx:
            _same_chart(self.num.ctx, other.num.ctx)
        if self.den == other.den:
            return ratfunc_normalize(self.num + other.num, self.den)
        return ratfunc_normalize(
            self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.ctx is not self.num.ctx:
            _same_chart(self.num.ctx, other.num.ctx)
        # cross-cancel first to keep gcd inputs small
        _, n1, d2 = poly_gcd(self.num, other.den)
        _, n2, d1 = poly_gcd(other.num, self.den)
        return ratfunc_normalize(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            base = RatFunc(self.den, self.num)
            n = -n
        else:
            base = self
        out = _power(RatFunc.one(self.ctx), base, n)
        return ratfunc_normalize(out.num, out.den)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if _is_rational(other):
            return RatFunc.const(self.ctx, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- calculus -------------------------------------------------------

    def derivative(self, name):
        i = self.ctx.var_index(name)
        # d free of the variable is its own content (c = d, r = 1 below)
        if not self.den.depends_on(i):
            return ratfunc_normalize(self.num.derivative(i), self.den)
        n, d = self.num, self.den
        # d = c r with c the content of d in the variable:
        # (n/d)' = (n'r - nr') / (d r), and its one gcd is with d
        # (docs/conventions.md); n'r - nr' is not zero, since n is prime to r
        r = _content_free_part(d, i)[1]
        _, num, den = poly_gcd(n.derivative(i) * r - n * r.derivative(i), d)
        return _canonical_scale(num, den * r)

    def substitute(self, mapping):
        """Simultaneous substitution {name: RatFunc | Q} -> RatFunc."""
        imap = {self.ctx.var_index(k): v for k, v in mapping.items()}
        num = self.num.substitute(imap)
        den = self.den.substitute(imap)
        if den.is_zero():
            raise ZeroDenominator("substitution makes denominator vanish")
        return num / den

    def scale_fiber(self, t):
        """Exact substitution y -> t*y for all fiber variables, t = a/b a
        RatFunc.  With top the highest fiber degree in num and den, each
        becomes the sum of part_d * a^d * b^(top - d); the common factor
        b^top cancels, so one normalisation gives the quotient."""
        a, b = t.num, t.den
        splits = (self.num.fiber_parts(), self.den.fiber_parts())
        top = max(max(split, default=0) for split in splits)
        num, den = (
            sum((p * a ** d * b ** (top - d) for d, p in split.items()),
                Poly.zero(self.ctx))
            for split in splits)
        return ratfunc_normalize(num, den)

    def cast(self, new_ctx):
        # gcd/content survive renaming, but the graded-lex leading term of the
        # denominator can change with the variable order, so re-fix the sign
        return _canonical_scale(self.num.cast(new_ctx), self.den.cast(new_ctx))

    # -- fiber expansion ---------------------------------------------------

    def fiber_homogeneous_part(self, d):
        """Fiber-degree-d homogeneous part of the Taylor expansion at y = 0:
        the Taylor parts h_0..h_d solve num = f*den order by order."""
        if d < 0:
            raise ValueError("fiber degree must be >= 0")
        nparts, dparts = self.num.fiber_parts(), self.den.fiber_parts()
        if 0 not in dparts:
            raise SingularAtZeroSection(
                "denominator vanishes on the zero section: %s" % (self.den,))
        inv0 = ratfunc_normalize(Poly.one(self.ctx), dparts[0])
        zero = Poly.zero(self.ctx)
        parts = []
        for k in range(d + 1):
            acc = RatFunc.from_poly(nparts.get(k, zero))
            for j in range(k):
                dk = dparts.get(k - j)
                if dk is None or parts[j].is_zero():
                    continue
                acc = acc - parts[j] * dk
            parts.append(acc * inv0)
        return parts[d]

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = "(%s)" % num
        # a sum or a product needs parentheses to re-parse as the denominator
        den = str(self.den)
        if len(self.den.terms) > 1 or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    __repr__ = __str__


def ratfunc_normalize(num, den):
    """Canonical reduced fraction (the module's single normalization point)."""
    if num.ctx is not den.ctx:
        _same_chart(num.ctx, den.ctx)
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return RatFunc(Poly.zero(num.ctx), Poly.one(num.ctx))
    if not den.is_const():
        _, num, den = poly_gcd(num, den)
    return _canonical_scale(num, den)


def _canonical_scale(num, den):
    """Joint integral scaling with content 1 and positive leading denominator.
    The numerator is nonzero unless the denominator is 1, as every caller
    ensures."""
    terms = den.terms
    if len(terms) == 1 and terms.get(0) == 1:
        return RatFunc(num, den)
    # the denominator first: it is usually the smaller one, so the content
    # reaches 1 sooner
    den, num = _primitive([den, num], den.leading_coeff())
    return RatFunc(num, den)


def _content_free_part(d, i):
    """(c, r) with d = c r for nonzero d: c is the content of d as a
    polynomial in the variable x_i, made primitive over Z.

    c = x^mu e, with mu the least exponent of each other variable over d.
    A certificate comes first, with no gcd: e is the coefficient of a power
    of x_i with the fewest terms (of those, the least sorted term list),
    stripped of its monomial and integer content, and is certified when it
    divides every coefficient (a monomial coefficient makes e = 1, and a
    constant one c = 1).  A
    coefficient that e does not divide replaces e by their gcd, and the
    divisions start over (docs/conventions.md, "The quotient rule").
    """
    ctx = d.ctx
    s = ctx._shifts[i]
    step = ctx.var_mono(i)
    coeffs = {}
    for m, c in d.terms.items():
        k = (m >> s) & _FIELD
        coeffs.setdefault(k, {})[m - k * step] = c
    smallest = min(coeffs.values(), key=len)
    ties = [t for t in coeffs.values() if len(t) == len(smallest)]
    if len(ties) > 1:
        # by value, so the gcd work does not depend on d's term order
        smallest = min(ties, key=lambda t: sorted(t.items()))
    if len(smallest) == 1 and 0 in smallest:
        return Poly(ctx, {0: 1}), d  # a constant coefficient: c = 1
    # x^mu: the monomial gcd of d with its field of x_i cleared
    low = _low(ctx, d.terms)
    low -= ((low >> s) & _FIELD) * step
    e_low = _low(ctx, smallest)
    e = _iprimitive(Poly(ctx, {m - e_low: c for m, c in smallest.items()}))
    while True:
        # each coefficient is e x^mu times a quotient with monomial content
        # at least mu, so the shift by mu borrows nowhere
        out = {}
        for k, terms in coeffs.items():
            coeff = Poly(ctx, terms)
            q = coeff if e.is_const() else poly_exact_div(coeff, e)
            if q is None:
                e = poly_gcd(e, coeff)[0]
                break
            shift = k * step - low
            for m, c in q.terms.items():
                out[m + shift] = c
        else:
            return Poly(ctx, {m + low: c for m, c in e.terms.items()}), \
                Poly(ctx, out)

