"""Builders for the concrete structures and the period-based monodromy
calculator with its obstruction tests.

Global integrals are never computed from charts: period data is registered
(the total area of the unit sphere enters as the formal symbol PI).  The
stereographic chart is the designated chart for the sphere computations; its
area form 4/(1+u^2+v^2)^2 du^dv is derived once by an exact pullback oracle
in the test suite and recorded here.
"""

from .errors import (
    JacobiFailed,
    NonRationalInput,
    SingularPoint,
    VariableOverlap,
    ZeroGenerator,
)
from .multivector import DiffForm, Multivector
from .rational import ChartContext, Poly, Q, RatFunc
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
            c = Q(c)
            if c == 0 or a == b:
                continue
            if a > b:
                a, b, c = b, a, -c
            key = (a, b, k)
            table[key] = table.get(key, Q(0)) + c
        self.c = {k: v for k, v in table.items() if v}
        self._check_jacobi()

    def bracket_coeff(self, a, b, k):
        if a == b:
            return Q(0)
        if a < b:
            return self.c.get((a, b, k), Q(0))
        return -self.c.get((b, a, k), Q(0))

    def _check_jacobi(self):
        n = self.dim
        for a in range(n):
            for b in range(a + 1, n):
                for cc in range(b + 1, n):
                    for l in range(n):
                        total = Q(0)
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

class PeriodModel:
    """Leafwise symplectic periods as rational functions of the transverse
    parameters, each a degree-one multiple of the formal period symbol."""

    def __init__(self, ctx, transverse, periods, pi_symbol="PI",
                 base_point=None):
        self.ctx = ctx
        self.transverse = tuple(transverse)
        self.pi_symbol = pi_symbol
        self.periods = list(periods)
        for name in self.transverse + (pi_symbol,):
            ctx.var_index(name)
        if base_point is None:
            base_point = {name: Q(0) for name in self.transverse}
        self.base_point = dict(base_point)
        self._validate()

    def _validate(self):
        pi_idx = self.ctx.var_index(self.pi_symbol)
        for f in self.periods:
            if f.den.depends_on(pi_idx):
                raise NonRationalInput(
                    "period has the formal symbol in its denominator")
            for mono in f.num.terms:
                if mono[pi_idx] != 1:
                    raise NonRationalInput(
                        "period must be homogeneous of degree 1 in %s"
                        % self.pi_symbol)
            den_at = f.den.substitute(
                {self.ctx.var_index(k): RatFunc.const(self.ctx, v)
                 for k, v in self.base_point.items()})
            if den_at.is_zero():
                raise SingularPoint("period is singular at the base point")

    @property
    def h2_rank(self):
        return len(self.periods)

    def __str__(self):
        return "period_model(transverse=[%s]; periods=(%s))" % (
            ", ".join(self.transverse),
            ", ".join(str(p) for p in self.periods))

    __repr__ = __str__


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

    Symbolic by default; `at` maps parameter names to rationals for the
    evaluated form (denominators must not vanish there).
    """
    rows = []
    for f in model.periods:
        row = [f.derivative(name) for name in model.transverse]
        rows.append(row)
    if at is None:
        return rows
    subs = {k: Q(v) for k, v in at.items()}
    out = []
    for row in rows:
        vals = []
        for entry in row:
            den_at = entry.den.substitute(
                {entry.ctx.var_index(k): RatFunc.const(entry.ctx, v)
                 for k, v in subs.items()})
            if den_at.is_zero():
                raise SingularPoint("monodromy generator singular at %s" % (at,))
            vals.append(entry.substitute(subs))
        out.append(vals)
    return out


class LatticeResult:
    __slots__ = ("discrete", "rank")

    def __init__(self, discrete, rank):
        self.discrete = discrete
        self.rank = rank

    def __repr__(self):
        return "LatticeResult(discrete=%r, rank=%d)" % (self.discrete, self.rank)


def lattice_discreteness(generators, dimension):
    """Discreteness and rank of the subgroup generated by rational multiples
    of the formal period.

    Each generator is a length-`dimension` vector of rationals (coefficients
    of the period symbol).  A finitely generated subgroup of PI * Q^q is
    always discrete; the rank comes out of integer (Smith-style) reduction.
    Symbolic entries must be evaluated first.
    """
    vectors = []
    for gen in generators:
        if len(gen) != dimension:
            raise ValueError("generator has wrong dimension")
        row = []
        for x in gen:
            if isinstance(x, RatFunc):
                if not x.is_const():
                    raise NonRationalInput(
                        "symbolic generator entries must be evaluated first")
                x = x.const_value()
            row.append(Q(x))
        vectors.append(row)
    if not vectors:
        return LatticeResult(True, 0)
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
    ratio = None
    for a, b in zip(row_a, row_b):
        if a.is_zero() and b.is_zero():
            continue
        if b.is_zero():
            return False
        r = a / b
        if ratio is None:
            ratio = r
        elif ratio != r:
            return False
    if ratio is None:
        return True
    return ratio.is_const()


class IntegerIdentity:
    __slots__ = ("feasible", "coefficients")

    def __init__(self, feasible, coefficients):
        self.feasible = feasible
        self.coefficients = coefficients

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        if self.feasible:
            return "IntegerIdentity(m=%r)" % (self.coefficients,)
        return "IntegerIdentity(infeasible)"


def integer_affine_identity(f, basis):
    """Decide integers m_i with f = sum m_i g_i as rational functions.

    Clears denominators, compares coefficients, and solves the resulting
    linear system over the integers (Smith reduction), so it is sound and
    complete.
    """
    lhs = f.num * _product_except([g.den for g in [f] + list(basis)], 0)
    cols = []
    for i, g in enumerate(basis):
        cols.append(g.num * _product_except(
            [h.den for h in [f] + list(basis)], i + 1))
    monomials = set(lhs.terms)
    for c in cols:
        monomials.update(c.terms)
    monomials = sorted(monomials)
    rows = [[c.terms.get(mono, 0) for c in cols] for mono in monomials]
    rhs = [lhs.terms.get(mono, 0) for mono in monomials]
    sol = integer_solve(rows, rhs)
    if sol is None:
        return IntegerIdentity(False, None)
    return IntegerIdentity(True, sol)


def _product_except(polys, skip):
    out = None
    for i, p in enumerate(polys):
        if i == skip:
            continue
        out = p if out is None else out * p
    if out is None:
        return Poly.one(polys[0].ctx)
    return out


def affine_in_params(model):
    """True iff every period is affine (total degree <= 1) in the transverse
    parameters."""
    idxs = [model.ctx.var_index(name) for name in model.transverse]
    for f in model.periods:
        for i in idxs:
            if f.den.depends_on(i):
                return False
        for mono in f.num.terms:
            if sum(mono[i] for i in idxs) > 1:
                return False
    return True
