"""Builders for the concrete structures and the period-based monodromy
calculator with its obstruction tests.

Global integrals are never computed from charts: period data is registered
(the total area of the unit sphere enters as the formal symbol PI).  The
stereographic chart is the designated chart for the sphere computations; its
area form 4/(1+u^2+v^2)^2 du^dv is derived once by an exact pullback oracle
in the test suite and recorded here.
"""

import operator
from itertools import accumulate

from .errors import (
    JacobiFailed,
    NonRationalInput,
    Record,
    SingularPoint,
    Verdict,
    VariableOverlap,
    ZeroDenominator,
    ZeroGenerator,
)
from .multivector import DiffForm, Multivector
from .rational import (ChartContext, Poly, RatFunc, _fraction, _same_chart,
                       _split, _values_and_slopes, ratfunc_normalize)
from .smith import integer_solve, rational_rank

__all__ = [
    "LieAlgebraData", "so3", "heisenberg3", "aff1", "linear_poisson",
    "product_poisson", "sphere_context", "sphere_example", "omega_chart",
    "PeriodModel", "sphere_period_model", "monodromy", "LatticeResult",
    "lattice_discreteness", "ratio_constancy", "IntegerIdentity",
    "integer_affine_identity", "affine_in_params",
]


class LieAlgebraData:
    """Structure constants c^k_ab with the Jacobi identity verified."""

    def __init__(self, dim, structure_constants):
        self.dim = dim
        table = {}
        for (a, b, k), c in structure_constants.items():
            if any(i not in range(dim) for i in (a, b, k)):
                raise ValueError("structure constant index out of range "
                                 "0..%d: %s" % (dim - 1, (a, b, k)))
            # integral constants are ints, any other rational a Fraction
            n, d = _split(c)
            c = n if d == 1 else _fraction(n, d)
            if c == 0 or a == b:
                continue
            if a > b:
                a, b, c = b, a, -c
            key = (a, b, k)
            table[key] = table.get(key, 0) + c
        self.c = {k: v for k, v in table.items() if v}
        self._check_jacobi()

    def bracket_coeff(self, a, b, k):
        if a == b:
            return 0
        if a < b:
            return self.c.get((a, b, k), 0)
        return -self.c.get((b, a, k), 0)

    def _check_jacobi(self):
        n = self.dim
        for a in range(n):
            for b in range(a + 1, n):
                for cc in range(b + 1, n):
                    for l in range(n):
                        total = 0
                        for m in range(n):
                            total += self.bracket_coeff(a, b, m) * \
                                self.bracket_coeff(m, cc, l)
                            total += self.bracket_coeff(b, cc, m) * \
                                self.bracket_coeff(m, a, l)
                            total += self.bracket_coeff(cc, a, m) * \
                                self.bracket_coeff(m, b, l)
                        if total != 0:
                            raise JacobiFailed(
                                "structure constants violate the Jacobi "
                                "identity at (%d,%d,%d;%d)" % (a, b, cc, l))


def so3():
    return LieAlgebraData(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})


def heisenberg3():
    return LieAlgebraData(3, {(0, 1, 2): 1})


def aff1():
    return LieAlgebraData(2, {(0, 1, 1): 1})


def linear_poisson(g, ctx=None):
    """pi_lin = (1/2) c^k_ab y_k d/dy_a ^ d/dy_b on the chart fibers."""
    if ctx is None:
        ctx = ChartContext(base=[], fiber=["y%d" % (i + 1) for i in range(g.dim)])
    if ctx.q != g.dim:
        raise VariableOverlap("chart has %d fiber variables, algebra needs %d"
                              % (ctx.q, g.dim))
    items = []
    p = ctx.p
    for (a, b, k), c in g.c.items():
        coeff = RatFunc.var(ctx, ctx.fiber[k]) * c
        items.append(((p + a, p + b), coeff))
    return Multivector.from_terms(ctx, items)


def product_poisson(pi_a, pi_b):
    """Sum bivector of factors with disjoint variable support."""
    if pi_a.context != pi_b.context:
        raise VariableOverlap("factors must live on one chart")
    ctx = pi_a.context
    used_a = _support(pi_a)
    used_b = _support(pi_b)
    if used_a & used_b:
        raise VariableOverlap("factors share variables: %s"
                              % sorted(used_a & used_b))
    return pi_a + pi_b


def _support(pi):
    ctx = pi.context
    used = set()
    for key, c in pi.terms.items():
        for g in key:
            used.add(ctx.vars[ctx.nparams + g])
        for poly in (c.num, c.den):
            for i, name in enumerate(ctx.vars):
                if poly.depends_on(i):
                    used.add(name)
    used -= set(ctx.params)
    return used


# ---------------------------------------------------------------------------
# the sphere example
# ---------------------------------------------------------------------------

def sphere_context(params=()):
    return ChartContext(base=["u", "v"], fiber=["y1", "y2", "y3"],
                        params=params)


def omega_chart(ctx):
    """The sphere area form in the stereographic chart: 4/(1+u^2+v^2)^2 du^dv."""
    u = Poly.var(ctx, "u")
    v = Poly.var(ctx, "v")
    w2 = (1 + u * u + v * v) ** 2
    return DiffForm(ctx, {(0, 1): RatFunc.const(ctx, 4) / RatFunc.from_poly(w2)})


def sphere_example(deformed, ctx=None):
    """(1+r^2)^deformed * (1+u^2+v^2)^2/4 du-dv bivector + so(3) linear part."""
    if ctx is None:
        ctx = sphere_context()
    if ctx.p != 2 or ctx.q != 3:
        raise VariableOverlap("sphere model needs a 2-base, 3-fiber chart")
    u = Poly.var(ctx, ctx.base[0])
    v = Poly.var(ctx, ctx.base[1])
    factor = RatFunc.from_poly((1 + u * u + v * v) ** 2) / 4
    if deformed:
        r2 = Poly.zero(ctx)
        for name in ctx.fiber:
            y = Poly.var(ctx, name)
            r2 = r2 + y * y
        factor = factor * RatFunc.from_poly(1 + r2)
    return Multivector(ctx, {(0, 1): factor}) + linear_poisson(so3(), ctx)


# ---------------------------------------------------------------------------
# period models and monodromy
# ---------------------------------------------------------------------------

class PeriodModel(Record):
    """Leafwise symplectic periods as rational functions of the transverse
    parameters, each a degree-one multiple of the formal period symbol PI."""

    __slots__ = ("ctx", "transverse", "periods")

    def __init__(self, ctx, transverse, periods):
        super().__init__(ctx, tuple(transverse), tuple(periods))
        for name in self.transverse + ("PI",):
            ctx.var_index(name)
        self._validate()

    def _validate(self):
        pi_idx = self.ctx.var_index("PI")
        for f in self.periods:
            _same_chart(self.ctx, f.ctx)
            if f.den.depends_on(pi_idx):
                raise NonRationalInput(
                    "period has the formal symbol in its denominator")
            for mono, _ in f.num.exponents():
                if mono[pi_idx] != 1:
                    raise NonRationalInput(
                        "period must be homogeneous of degree 1 in PI")
            # the base point is the origin of the transverse parameters
            den_at = f.den.substitute(
                {self.ctx.var_index(k): RatFunc.zero(self.ctx)
                 for k in self.transverse})
            if den_at.is_zero():
                raise SingularPoint("period is singular at the base point")

    def __str__(self):
        return "period_model(transverse=[%s]; periods=(%s))" % (
            ", ".join(self.transverse),
            ", ".join(str(p) for p in self.periods))


def sphere_period_model():
    """Registered periods of the deformed sphere leaves: (PI/(1+r^2), PI*r)."""
    ctx = ChartContext(base=[], fiber=[], params=("r", "PI"))
    r = Poly.var(ctx, "r")
    pi = RatFunc.var(ctx, "PI")
    p1 = pi / RatFunc.from_poly(1 + r * r)
    p2 = pi * RatFunc.from_poly(r)
    return PeriodModel(ctx, ["r"], [p1, p2])


def monodromy(model, at=None):
    """Matrix of transverse derivatives of the period vector.

    Symbolic by default; `at` maps parameter names to rationals (ints,
    Fractions or constant RatFuncs) for the evaluated form.  There one pass
    over the numerator n and the denominator d of each period gives their
    values and their derivatives at the point, and each entry is the
    quotient rule (n_x d - n d_x) / d^2 of those values, normalised once.
    Only where d vanishes at the point does the reduced derivative decide:
    the pole is removable or the point is singular.
    """
    if at is None:
        return [[f.derivative(name) for name in model.transverse]
                for f in model.periods]
    ctx = model.ctx
    point = {ctx.var_index(k): v for k, v in at.items()}
    slopes = [ctx.var_index(name) for name in model.transverse]
    rows = []
    for f in model.periods:
        d = _values_and_slopes(f.den, point, slopes)
        if d[0].is_zero():
            rows.append([_derivative_at(f, name, at)
                         for name in model.transverse])
        else:
            n = _values_and_slopes(f.num, point, slopes)
            rows.append([_quotient_rule_at(n, d, j)
                         for j in range(len(slopes))])
    return rows


def _quotient_rule_at(n, d, j):
    """(n_x d - n d_x) / d^2 for f = n/d from the values (P, D, [P_j]) of
    n and d at a point where d is not zero, x the j-th slope variable:
    with n = A/a, n_x = B/a, d = C/c and d_x = E/c, it is
    (B C - A E) c / (a C^2)."""
    (A, a, dA), (C, c, dC) = n, d
    return ratfunc_normalize((dA[j] * C - A * dC[j]) * c, C * C * a)


def _derivative_at(f, name, at):
    """The reduced derivative of f substituted at a point where the
    denominator of f vanishes."""
    try:
        return f.derivative(name).substitute(at)
    except ZeroDenominator:
        # each value reads as the Fraction it stands for
        shown = {k: _fraction(*_split(v)) for k, v in at.items()}
        raise SingularPoint(
            "monodromy generator singular at %s" % (shown,)) from None


class LatticeResult(Record):
    __slots__ = ("discrete", "rank")


def lattice_discreteness(generators, dimension):
    """Discreteness and rank of the subgroup generated by rational multiples
    of the formal period.

    Each generator is a length-`dimension` vector of rationals (coefficients
    of the period symbol).  A finitely generated subgroup of PI * Q^q is
    always discrete; the rank comes out of its integer column echelon form.
    Symbolic entries must be evaluated first.
    """
    vectors = list(generators)
    if any(len(gen) != dimension for gen in vectors):
        raise ValueError("generator has wrong dimension")
    return LatticeResult(True, rational_rank(vectors))


def ratio_constancy(model):
    """Per generator pair: is their ratio a constant rational function?

    A non-constant ratio certifies non-discreteness of the monodromy group on
    a dense set of transverse parameter values.
    """
    flat = monodromy(model)
    n = len(flat)
    for row in flat:
        if all(e.is_zero() for e in row):
            raise ZeroGenerator("a monodromy generator vanishes identically")
    results = {}
    for i in range(n):
        for j in range(i + 1, n):
            results[(i, j)] = _proportional_constant(flat[i], flat[j])
    return results


def _proportional_constant(row_a, row_b):
    """The ratio r = a / b of the first column where a or b is nonzero is
    the only division, and a non-constant r decides at once.  A later
    column agrees with r when a.num b.den r.den == b.num a.den r.num in
    Z[x], which also holds where a and b both vanish and fails where only b
    does."""
    ratio = None
    for a, b in zip(row_a, row_b):
        if ratio is not None:
            if a.num * b.den * ratio.den != b.num * a.den * ratio.num:
                return False
        elif not b.is_zero():
            ratio = a / b
            if not ratio.is_const():
                return False
        elif not a.is_zero():
            return False
    return True


class IntegerIdentity(Verdict):
    __slots__ = ("feasible", "coefficients")


def integer_affine_identity(f, basis):
    """Decide integers m_i with f = sum m_i g_i as rational functions.

    Clears denominators, compares coefficients, and solves the resulting
    linear system over the integers (column echelon form), so it is sound and
    complete.
    """
    funcs = [f] + list(basis)
    # each numerator times the product of the other denominators: the
    # products of those before it and of those after it
    dens = [g.den for g in funcs]
    one = Poly.one(f.ctx)
    before = accumulate(dens[:-1], operator.mul, initial=one)
    after = list(accumulate(reversed(dens[1:]), operator.mul, initial=one))
    lhs, *cols = [g.num * p * q
                  for g, p, q in zip(funcs, before, reversed(after))]
    # rows in the order of the exponent tuples, which fixes the integer
    # system; the packed monomials are unpacked once, for the sort
    lhs = lhs.terms
    cols = [c.terms for c in cols]
    monomials = set(lhs)
    for c in cols:
        monomials.update(c)
    monomials = sorted(monomials, key=f.ctx.unpack)
    rows = [[c.get(mono, 0) for c in cols] for mono in monomials]
    rhs = [lhs.get(mono, 0) for mono in monomials]
    sol = integer_solve(rows, rhs, len(cols))
    if sol is None:
        return IntegerIdentity(False, None)
    return IntegerIdentity(True, sol)


def affine_in_params(model):
    """True iff every period is affine (total degree <= 1) in the transverse
    parameters."""
    idxs = [model.ctx.var_index(name) for name in model.transverse]
    for f in model.periods:
        for i in idxs:
            if f.den.depends_on(i):
                return False
        for mono, _ in f.num.exponents():
            if sum(mono[i] for i in idxs) > 1:
                return False
    return True
