"""Exact sparse multivariate polynomials over Z and rational functions over Q.

This is the coefficient kernel of the whole engine: every geometric object
stores RatFunc coefficients, and "identity holds" always means "RatFunc is
the zero representation".  There is no floating point anywhere.

Variables live in a ChartContext and are ordered params < base < fiber.
Monomials are exponent tuples over that order; the canonical term order is
graded lexicographic (total degree first, fiber variables most significant
on ties).  A RatFunc is kept fully reduced: gcd(num, den) = 1, all
coefficients integral with joint content 1, and the leading coefficient of
the denominator positive — so equality is representation equality.
Rational numbers enter only at the scalar boundary: `RatFunc.const` splits
one into numerator and denominator and `RatFunc.const_value` joins them.
"""

import math
from fractions import Fraction as Q

from .errors import (
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
    "partial_derive",
    "fiber_taylor",
]


class ChartContext:
    """Named chart of a trivialized bundle: base, fiber and formal parameters.

    Every value in the system is tagged with exactly one context; operations
    across different contexts are rejected by the geometric layers.
    """

    __slots__ = ("params", "base", "fiber", "vars", "_index", "nparams", "p", "q")

    def __init__(self, base, fiber, params=()):
        self.params = tuple(params)
        self.base = tuple(base)
        self.fiber = tuple(fiber)
        self.vars = self.params + self.base + self.fiber
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names in chart")
        for name in self.vars:
            if not name or not isinstance(name, str):
                raise ValueError("variable names must be nonempty strings")
        self._index = {name: i for i, name in enumerate(self.vars)}
        self.nparams = len(self.params)
        self.p = len(self.base)
        self.q = len(self.fiber)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable("unknown variable %r" % (name,)) from None

    def is_fiber_index(self, i):
        return i >= self.nparams + self.p

    def fiber_indices(self):
        return range(self.nparams + self.p, len(self.vars))

    def base_indices(self):
        return range(self.nparams, self.nparams + self.p)

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


def _mono_key(mono):
    # graded-lex: total degree, then reversed tuple so later (fiber) variables
    # are more significant on ties
    return (sum(mono), tuple(reversed(mono)))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        # terms: dict monomial-tuple -> nonzero int; caller guarantees no zeros
        self.ctx = ctx
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ctx):
        return Poly(ctx, {})

    @staticmethod
    def const(ctx, c):
        if c.denominator != 1:
            raise ValueError("Poly coefficients are integers, got %s; use "
                             "RatFunc.const for rational constants" % (c,))
        if c == 0:
            return Poly(ctx, {})
        return Poly(ctx, {(0,) * len(ctx.vars): int(c)})

    @staticmethod
    def var(ctx, name):
        i = ctx.var_index(name)
        mono = [0] * len(ctx.vars)
        mono[i] = 1
        return Poly(ctx, {tuple(mono): 1})

    @staticmethod
    def one(ctx):
        return Poly.const(ctx, 1)

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        if not self.terms:
            return True
        if len(self.terms) == 1:
            (mono,) = self.terms
            return not any(mono)
        return False

    def const_value(self):
        if not self.terms:
            return 0
        (mono, c), = self.terms.items()
        if any(mono):
            raise ValueError("not a constant polynomial")
        return c

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def fiber_degree(self):
        """Largest fiber-variable degree of any monomial; -1 for 0."""
        if not self.terms:
            return -1
        lo = self.ctx.nparams + self.ctx.p
        return max(sum(m[lo:]) for m in self.terms)

    def depends_on(self, i):
        return any(m[i] for m in self.terms)

    def depends_on_fiber(self):
        lo = self.ctx.nparams + self.ctx.p
        return any(any(m[lo:]) for m in self.terms)

    def leading(self):
        mono = max(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    def leading_coeff(self):
        return self.leading()[1]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.ctx, other)
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
        if not isinstance(other, Poly):
            other = Poly.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.ctx, other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
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

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of Poly")
        result = Poly.one(self.ctx)
        factor = self
        while n:
            if n & 1:
                result = result * factor
            n >>= 1
            if n:
                factor = factor * factor
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ctx == other.ctx and self.terms == other.terms
        if isinstance(other, (int, Q)):
            return self.is_const() and self.const_value() == other
        return NotImplemented

    __hash__ = None

    # -- calculus & substitution ---------------------------------------

    def derivative(self, i):
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if not e:
                continue
            m2 = list(m)
            m2[i] = e - 1
            m2 = tuple(m2)
            v = out.get(m2)
            nc = c * e
            if v is None:
                out[m2] = nc
            else:
                v = v + nc
                if v:
                    out[m2] = v
                else:
                    del out[m2]
        return Poly(self.ctx, out)

    def substitute(self, mapping):
        """Simultaneous substitution {var index: RatFunc | Poly | Q} -> RatFunc."""
        ctx = self.ctx
        values = {}
        for i, v in mapping.items():
            if isinstance(v, RatFunc):
                values[i] = v
            elif isinstance(v, Poly):
                values[i] = RatFunc.from_poly(v)
            else:
                values[i] = RatFunc.const(ctx, v)
        total = RatFunc.zero(ctx)
        pow_cache = {}
        for m, c in self.terms.items():
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
                    m2 = [0] * len(ctx.vars)
                    m2[i] = e
                    term = term * Poly(ctx, {tuple(m2): 1})
            total = total + term
        return total

    def eval_fiber_zero(self):
        """Restriction to the zero section (all fiber variables = 0)."""
        lo = self.ctx.nparams + self.ctx.p
        out = {}
        for m, c in self.terms.items():
            if any(m[lo:]):
                continue
            out[m] = c
        return Poly(self.ctx, out)

    def fiber_part(self, d):
        """Monomials of fiber-degree exactly d."""
        lo = self.ctx.nparams + self.ctx.p
        out = {}
        for m, c in self.terms.items():
            if sum(m[lo:]) == d:
                out[m] = c
        return Poly(self.ctx, out)

    def scale_fiber(self, factor_index):
        """Substitute y -> t*y for every fiber variable y, t = vars[factor_index]."""
        lo = self.ctx.nparams + self.ctx.p
        out = {}
        for m, c in self.terms.items():
            d = sum(m[lo:])
            if d:
                m2 = list(m)
                m2[factor_index] += d
                m = tuple(m2)
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                out[m] = v + c
        return Poly(self.ctx, {m: c for m, c in out.items() if c})

    def cast(self, new_ctx):
        """Re-tag into a context containing at least the same variables."""
        old_vars = self.ctx.vars
        pos = [new_ctx.var_index(v) for v in old_vars]
        n = len(new_ctx.vars)
        out = {}
        for m, c in self.terms.items():
            m2 = [0] * n
            for i, e in enumerate(m):
                if e:
                    m2[pos[i]] = e
            out[tuple(m2)] = c
        return Poly(new_ctx, out)

    def restrict(self, new_ctx):
        """Re-tag into a smaller context; fails if a dropped variable occurs."""
        pos = []
        for v in self.ctx.vars:
            pos.append(new_ctx._index.get(v, -1))
        n = len(new_ctx.vars)
        out = {}
        for m, c in self.terms.items():
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
            out[tuple(m2)] = c
        return Poly(new_ctx, out)

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ctx.vars
        parts = []
        for m in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            mono = "*".join(factors)
            neg = c < 0
            ac = -c if neg else c
            if not mono:
                body = str(ac)
            elif ac == 1:
                body = mono
            else:
                body = "%s*%s" % (ac, mono)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS) and exact division
# ---------------------------------------------------------------------------

def _primitive(polys, lead):
    """Divide polys by their joint content, signed so that the coefficient
    `lead` of one of them becomes positive."""
    # pairwise: passing all coefficients to one math.gcd call builds an
    # argument tuple each time, and CPython's tuple free lists then kept
    # about 1 MB more peak RSS on the so(3)+so(3) workloads
    g = 0
    for f in polys:
        for c in f.terms.values():
            g = math.gcd(g, c)
    if lead < 0:
        g = -g
    if g == 1:
        return polys
    return [Poly(f.ctx, {m: c // g for m, c in f.terms.items()})
            for f in polys]


def _iprimitive(f):
    """Content 1 and positive leading coefficient."""
    if f.is_zero():
        return f
    return _primitive([f], f.leading_coeff())[0]


def poly_exact_div(f, g):
    """Exact quotient f/g in Z[x], or None when g does not divide f there.

    Every caller divides by a primitive `poly_gcd` result or by a polynomial
    by itself; by Gauss's lemma division in Z[x] and in Q[x] agree there.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return Poly.zero(f.ctx)
    gm, gc = g.leading()
    rem = dict(f.terms)
    quo = {}
    nvars = len(f.ctx.vars)
    while rem:
        fm = max(rem, key=_mono_key)
        fc = rem[fm]
        qm = tuple(fm[i] - gm[i] for i in range(nvars))
        if any(e < 0 for e in qm):
            return None
        qc, r = divmod(fc, gc)
        if r:
            return None
        # the leading monomial of rem strictly decreases, so qm is new
        quo[qm] = qc
        for m2, c2 in g.terms.items():
            m = _mono_mul(qm, m2)
            v = rem.get(m, 0) - qc * c2
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return Poly(f.ctx, quo)


def _to_univar(f, i):
    """Dense coefficient list of f in variable i (coeffs are Polys without i)."""
    d = f.degree_in(i)
    coeffs = [dict() for _ in range(d + 1)]
    for m, c in f.terms.items():
        e = m[i]
        m2 = list(m)
        m2[i] = 0
        coeffs[e][tuple(m2)] = c
    return [Poly(f.ctx, t) for t in coeffs]


def _from_univar(coeffs, i, ctx):
    out = {}
    for e, p in enumerate(coeffs):
        for m, c in p.terms.items():
            m2 = list(m)
            m2[i] = m2[i] + e
            out[tuple(m2)] = c
    return Poly(ctx, out)


def _strip(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(a, b):
    """Pseudo-remainder of dense poly-coefficient lists in the main variable."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a)
    lb = b[-1]
    r = list(a)
    for k in range(da, db - 1, -1):
        lead = r[k]
        r = [lb * c for c in r[:k]]
        if not lead.is_zero():
            for i in range(db):
                r[k - db + i] = r[k - db + i] - lead * b[i]
    return _strip(r)


def _content(coeffs):
    g = None
    for c in coeffs:
        if c.is_zero():
            continue
        g = c if g is None else poly_gcd(g, c)
        if g.is_const():
            break
    return g


def poly_gcd(f, g):
    """Primitive gcd: content 1, positive leading coefficient."""
    if f.is_zero():
        return _iprimitive(g) if not g.is_zero() else g
    if g.is_zero():
        return _iprimitive(f)
    f = _iprimitive(f)
    g = _iprimitive(g)
    nvars = len(f.ctx.vars)
    # monomial content
    fmin = [min(m[i] for m in f.terms) for i in range(nvars)]
    gmin = [min(m[i] for m in g.terms) for i in range(nvars)]
    common = tuple(min(a, b) for a, b in zip(fmin, gmin))
    if any(fmin):
        f = Poly(f.ctx, {tuple(e - fmin[i] for i, e in enumerate(m)): c
                         for m, c in f.terms.items()})
    if any(gmin):
        g = Poly(g.ctx, {tuple(e - gmin[i] for i, e in enumerate(m)): c
                         for m, c in g.terms.items()})
    mono_gcd = Poly(f.ctx, {common: 1})
    if f.is_const() or g.is_const():
        return mono_gcd
    shared = [i for i in range(nvars) if f.depends_on(i) and g.depends_on(i)]
    if not shared:
        return mono_gcd
    main = min(shared, key=lambda i: min(f.degree_in(i), g.degree_in(i)))
    fu = _to_univar(f, main)
    gu = _to_univar(g, main)
    cf = _content(fu)
    cg = _content(gu)
    if not cf.is_const():
        fu = [poly_exact_div(c, cf) for c in fu]
    if not cg.is_const():
        gu = [poly_exact_div(c, cg) for c in gu]
    a, b = fu, gu
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        if r:
            cr = _content(r)
            if not cr.is_const():
                r = [poly_exact_div(c, cr) for c in r]
        a, b = b, r
    if len(a) == 1:
        pp = Poly.one(f.ctx)
    else:
        ca = _content(a)
        if not ca.is_const():
            a = [poly_exact_div(c, ca) for c in a]
        pp = _from_univar(a, main, f.ctx)
    cont = poly_gcd(cf, cg)
    return _iprimitive(pp * cont * mono_gcd)


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
        c = Q(c)
        return ratfunc_normalize(Poly.const(ctx, c.numerator),
                                 Poly.const(ctx, c.denominator))

    @staticmethod
    def zero(ctx):
        return RatFunc(Poly.zero(ctx), Poly.one(ctx))

    @staticmethod
    def one(ctx):
        return RatFunc(Poly.one(ctx), Poly.one(ctx))

    @staticmethod
    def var(ctx, name):
        return RatFunc(Poly.var(ctx, name), Poly.one(ctx))

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        return Q(self.num.const_value(), self.den.const_value())

    def depends_on_fiber(self):
        return self.num.depends_on_fiber() or self.den.depends_on_fiber()

    def is_fiber_polynomial(self):
        return not self.den.depends_on_fiber()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-cancel first to keep gcd inputs small
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_const() else poly_exact_div(self.num, g1)
        d2 = other.den if g1.is_const() else poly_exact_div(other.den, g1)
        n2 = other.num if g2.is_const() else poly_exact_div(other.num, g2)
        d1 = self.den if g2.is_const() else poly_exact_div(self.den, g2)
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
        if self.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return self._coerce(other) * RatFunc(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            base = RatFunc(self.den, self.num)
            n = -n
        else:
            base = self
        out = RatFunc.one(self.ctx)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return ratfunc_normalize(out.num, out.den)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Q)):
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
        if self.den.is_const():
            return ratfunc_normalize(self.num.derivative(i), self.den)
        n, d = self.num, self.den
        return ratfunc_normalize(
            n.derivative(i) * d - n * d.derivative(i), d * d)

    def substitute(self, mapping):
        """Simultaneous substitution {name: RatFunc|Poly|Q} -> RatFunc."""
        imap = {self.ctx.var_index(k): v for k, v in mapping.items()}
        num = self.num.substitute(imap)
        den = self.den.substitute(imap)
        if den.is_zero():
            raise ZeroDenominator("substitution makes denominator vanish")
        return num / den

    def scale_fiber_by_var(self, name):
        """Exact substitution y -> t*y for all fiber variables, t a context var."""
        i = self.ctx.var_index(name)
        return ratfunc_normalize(
            self.num.scale_fiber(i), self.den.scale_fiber(i))

    def cast(self, new_ctx):
        # gcd/content survive renaming, but the graded-lex leading term of the
        # denominator can change with the variable order, so re-fix the sign
        return _canonical_scale(self.num.cast(new_ctx), self.den.cast(new_ctx))

    def restrict(self, new_ctx):
        return _canonical_scale(
            self.num.restrict(new_ctx), self.den.restrict(new_ctx))

    # -- fiber expansion ---------------------------------------------------

    def _check_fiber_regular(self):
        d0 = self.den.eval_fiber_zero()
        if d0.is_zero():
            raise SingularAtZeroSection(
                "denominator vanishes on the zero section: %s" % (self.den,))
        return d0

    def fiber_zero(self):
        """Value on the zero section (all fiber variables set to 0)."""
        d0 = self._check_fiber_regular()
        return ratfunc_normalize(self.num.eval_fiber_zero(), d0)

    def fiber_homogeneous_part(self, d):
        """Fiber-degree-d homogeneous part of the Taylor expansion at y = 0."""
        return self._fiber_parts(d)[d]

    def _fiber_parts(self, n):
        """Taylor parts h_0..h_n solving num = f*den order by order."""
        d0 = self._check_fiber_regular()
        inv0 = ratfunc_normalize(Poly.one(self.ctx), d0)
        parts = []
        for k in range(n + 1):
            acc = RatFunc.from_poly(self.num.fiber_part(k))
            for j in range(k):
                dk = self.den.fiber_part(k - j)
                if dk.is_zero() or parts[j].is_zero():
                    continue
                acc = acc - parts[j] * dk
            parts.append(acc * inv0)
        return parts

    def fiber_taylor_sum(self, n):
        parts = self._fiber_parts(n)
        out = RatFunc.zero(self.ctx)
        for p in parts:
            out = out + p
        return out

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = "(%s)" % num
        den = str(self.den)
        if len(self.den.terms) > 1 or _den_needs_parens(self.den):
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    __repr__ = __str__


def _den_needs_parens(den):
    # single-term denominators need parens unless they are a bare constant
    # or a bare variable power (so the printed string re-parses to the same value)
    (mono, c), = den.terms.items()
    nfac = sum(1 for e in mono if e)
    if nfac == 0:
        return False
    return not (nfac == 1 and c == 1)


def ratfunc_normalize(num, den):
    """Canonical reduced fraction (the module's single normalization point)."""
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return RatFunc(Poly.zero(num.ctx), Poly.one(num.ctx))
    if not den.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = poly_exact_div(num, g)
            den = poly_exact_div(den, g)
    return _canonical_scale(num, den)


def _canonical_scale(num, den):
    """Joint integral scaling with content 1 and positive leading denominator."""
    if num.is_zero():
        return RatFunc(Poly.zero(num.ctx), Poly.one(num.ctx))
    num, den = _primitive([num, den], den.leading_coeff())
    return RatFunc(num, den)


def partial_derive(f, var):
    """Exact partial derivative of a RatFunc by variable name."""
    return f.derivative(var)


def fiber_taylor(f, n):
    """Fiber-degree <= n Taylor polynomial of f at the zero section.

    Returned as a RatFunc whose denominator is free of fiber variables
    (a polynomial in the fiber variables with base/param rational
    coefficients).
    """
    if n < 0:
        raise ValueError("taylor order must be >= 0")
    return f.fiber_taylor_sum(n)
