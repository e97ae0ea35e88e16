"""The bigraded algebra of form-valued multivector fields on the chart.

A MixedElement stores terms  c(x,y) dx^I (x) d/dx^J ^ d/dy^K  keyed by the
triple (I, J, K) of strictly increasing index tuples: I over base covariant
directions, J over base contravariant directions, K over fiber contravariant
directions (fiber generators use the same global indexing p..p+q-1 as
Multivector).  Bidegree of a term is (|I|, |J|+|K|), Lie degree
|I|+|J|+|K|-1.

Membership:
  * the J = () terms form the form-valued vertical part (coefficients may
    depend on everything);
  * terms with J != () are only allowed with |J| = 1, K = () and a
    coefficient free of fiber variables -- these are the horizontal lifts.

The bracket dispatches on that split: vertical/vertical is the fiberwise
Schouten bracket against the wedge of form parts, horizontal acting on
vertical is the form-Lie-derivative action, horizontal/horizontal is the
Froelicher-Nijenhuis bracket of trivial lifts.  All three cases reduce to
combinatorics on index tuples plus exact coefficient calculus.
"""

from .errors import (
    InvalidElement,
    NotAConnection,
    NotFiberPolynomial,
    ZeroParameter,
)
from .multivector import (DiffForm, Graded, Multivector, _operand,
                          _sort_block, schouten)
from .rational import RatFunc, _same_chart

__all__ = [
    "MixedElement", "OMEGA_E", "OMEGA_TILDE", "INVALID",
    "validate_membership", "ltimes_bracket", "curvature", "dilation",
    "ds_n", "jet_n", "gr_project", "is_homogeneous", "gamma_S",
    "euler_field", "p_S", "mixed_from_multivector", "mixed_from_base_form",
    "base_form_of",
]

OMEGA_E = "Omega_E"
OMEGA_TILDE = "Omega~_E"
INVALID = "invalid"


class MixedElement(Graded):
    """Term store keyed by (I, J, K); see the module docstring."""

    __slots__ = ()

    FACTORS = ("dx[%s]", "d/d%s", "d/d%s")
    UNIT = ((), (), ())

    def bidegree_part(self, p, q):
        return MixedElement(self.context, {
            k: c for k, c in self.terms.items()
            if len(k[0]) == p and len(k[1]) + len(k[2]) == q})

    def horizontal_part(self):
        return MixedElement(self.context,
                            {k: c for k, c in self.terms.items() if k[1]})

    def vertical_part(self):
        return MixedElement(self.context,
                            {k: c for k, c in self.terms.items() if not k[1]})


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def validate_membership(e):
    """Classify as OMEGA_E, OMEGA_TILDE or INVALID per the term constraints."""
    _operand(e, MixedElement, "validate_membership needs a mixed element")
    tilde = False
    for (I, J, K), c in e.terms.items():
        if not J:
            continue
        tilde = True
        if len(J) != 1 or K:
            return INVALID
        if c.depends_on_fiber():
            return INVALID
    return OMEGA_TILDE if tilde else OMEGA_E


def _require_tilde(e):
    if validate_membership(e) == INVALID:
        raise InvalidElement("element is not in the extended bigraded algebra")


# ---------------------------------------------------------------------------
# the ltimes bracket
# ---------------------------------------------------------------------------

def _lie_fn(ctx, a, I1, j, c, I2, rest, sign, items):
    """Append sign * L_{a dx^I1 (x) d/dx_j} (c dx^I2) to items, each form
    block followed by the blocks `rest`.

    The Froelicher-Nijenhuis Lie derivative of a form along a trivial lift:
    a * (dc/dx_j) dx^I1^I2 + (-1)^|I1| (da ^ dx^I1) ^ i_{d/dx_j}(dx^I2) * c.
    """
    dc = c.derivative(ctx.gens[j])
    if not dc.is_zero():
        key, s = _sort_block(I1 + I2)
        if key is not None:
            v = a * dc
            items.append(((key,) + rest, v if s * sign > 0 else -v))
    if j not in I2:
        return
    pos = I2.index(j)
    I2c = I2[:pos] + I2[pos + 1:]
    if (len(I1) + pos) % 2:
        sign = -sign
    for m in range(ctx.p):
        da = a.derivative(ctx.gens[m])
        if da.is_zero():
            continue
        key, s = _sort_block((m,) + I1 + I2c)
        if key is None:
            continue
        v = da * c
        items.append(((key,) + rest, v if s * sign > 0 else -v))


def _vv_pair(ctx, t1, c1, t2, c2, items):
    I1, _, K1 = t1
    I2, _, K2 = t2
    form, fsign = _sort_block(I1 + I2)
    if form is None:
        return
    u = Multivector(ctx, {K1: c1})
    v = Multivector(ctx, {K2: c2})
    sv = schouten(u, v)
    s0 = 1 if (len(I2) * (len(K1) - 1)) % 2 == 0 else -1
    s = s0 * fsign
    for km, cm in sv.terms.items():
        items.append(((form, (), km), cm if s > 0 else -cm))


def ltimes_bracket(u, v):
    """The graded bracket of the extended algebra.

    Operands may hold several bidegrees (a Dirac element does); each pair of
    bidegree-homogeneous terms is bracketed with its own signs, and every
    term goes into one list that becomes the result's store at the end.
    """
    _operand(u, MixedElement, "ltimes_bracket needs mixed elements")
    u._same(v)
    _require_tilde(u)
    _require_tilde(v)
    ctx = u.context
    items = []
    for (t1, c1) in u.terms.items():
        I1, J1, K1 = t1
        for (t2, c2) in v.terms.items():
            I2, J2, K2 = t2
            if J1 and J2:
                # L_{a (x) X}(b) (x) Y - (-1)^(|I1| |I2|) L_{b (x) Y}(a) (x) X
                _lie_fn(ctx, c1, I1, J1[0], c2, I2, (J2, ()), 1, items)
                _lie_fn(ctx, c2, I2, J2[0], c1, I1, (J1, ()),
                        -1 if (len(I1) * len(I2)) % 2 == 0 else 1, items)
            elif J1:
                _lie_fn(ctx, c1, I1, J1[0], c2, I2, ((), K2), 1, items)
            elif J2:
                # [v, h] = -(-1)^{deg v deg h} [h, v], deg h = |I2|
                deg1 = len(I1) + len(K1) - 1
                _lie_fn(ctx, c2, I2, J2[0], c1, I1, ((), K1),
                        -1 if (deg1 * len(I2)) % 2 == 0 else 1, items)
            else:
                _vv_pair(ctx, t1, c1, t2, c2, items)
    return MixedElement.from_terms(ctx, items)


# ---------------------------------------------------------------------------
# distinguished elements and projections
# ---------------------------------------------------------------------------

def gamma_S(ctx):
    """The identity element dx^i (x) d/dx^i; represents the DeRham d."""
    one = RatFunc.one(ctx)
    return MixedElement(ctx, {((i,), (i,), ()): one for i in range(ctx.p)})


def euler_field(ctx):
    """The fiberwise Euler vector field sum_a y_a d/dy_a."""
    items = []
    for a in range(ctx.q):
        items.append((((), (), (ctx.p + a,)),
                      RatFunc.var(ctx, ctx.fiber[a])))
    return MixedElement.from_terms(ctx, items)


def p_S(u):
    """Projection to the base: the horizontal lift terms only."""
    _operand(u, MixedElement, "p_S needs a mixed element")
    return u.horizontal_part()


def mixed_from_multivector(mv):
    """Raw repackaging of a multivector as a form-degree-zero element."""
    _operand(mv, Multivector, "mixed_from_multivector needs a multivector")
    ctx = mv.context
    out = {}
    for key, c in mv.terms.items():
        J = tuple(i for i in key if i < ctx.p)
        K = tuple(i for i in key if i >= ctx.p)
        # key is globally sorted with base generators first: no sign
        out[((), J, K)] = c
    return MixedElement(ctx, out)


def mixed_from_base_form(omega):
    """A base differential form as a (p, 0) element."""
    _operand(omega, DiffForm, "mixed_from_base_form needs a form")
    ctx = omega.context
    out = {}
    for key, c in omega.terms.items():
        if any(i >= ctx.p for i in key):
            raise InvalidElement("form has fiber covariant directions")
        out[(key, (), ())] = c
    return MixedElement(ctx, out)


def base_form_of(e):
    """Inverse of mixed_from_base_form on pure (p, 0) elements."""
    _operand(e, MixedElement, "base_form_of needs a mixed element")
    out = {}
    for (I, J, K), c in e.terms.items():
        if J or K:
            raise InvalidElement("element has contravariant directions")
        out[I] = c
    return DiffForm(e.context, out)


def curvature(gamma):
    """R = (1/2)[Gamma, Gamma] for an Ehresmann connection element."""
    _operand(gamma, MixedElement, "curvature needs a mixed element")
    if gamma.horizontal_part() != gamma_S(gamma.context):
        raise NotAConnection("projection to the base is not the identity")
    return ltimes_bracket(gamma, gamma).scale(RatFunc.half(gamma.context))


# ---------------------------------------------------------------------------
# dilation, derivatives along S, jets, grading
# ---------------------------------------------------------------------------

def dilation(u, t):
    """phi_t: per term t^(|J|-1) c(x, t y) dx^I (x) d/dx^J ^ d/dy^K."""
    _operand(u, MixedElement, "dilation needs a mixed element")
    ctx = u.context
    if not isinstance(t, RatFunc):
        t = RatFunc.const(ctx, t)
    if t.is_zero():
        raise ZeroParameter("dilation parameter must be nonzero")
    _same_chart(t.ctx, ctx)
    items = []
    for (I, J, K), c in u.terms.items():
        c2 = c.scale_fiber(t)
        e = len(J) - 1
        if e:
            c2 = c2 * t ** e
        items.append(((I, J, K), c2))
    return MixedElement.from_terms(ctx, items)


def ds_n(u, n):
    """The degree-n derivative along S: per term, the fiber-homogeneous
    part of degree n - |J| of the coefficient."""
    _operand(u, MixedElement, "ds_n needs a mixed element")
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    return MixedElement.from_terms(u.context, [
        (key, c.fiber_homogeneous_part(n - len(key[1])))
        for key, c in u.terms.items() if len(key[1]) <= n])


def jet_n(u, n):
    """j^n = sum of the derivatives of orders 0..n along S."""
    _operand(u, MixedElement, "jet_n needs a mixed element")
    if n < 0:
        raise ValueError("jet order must be >= 0")
    total = MixedElement.zero(u.context)
    for k in range(n + 1):
        total = total + ds_n(u, k)
    return total


def gr_project(u, l):
    """Projection on the homogeneity-l part of a fiber-polynomial element."""
    _operand(u, MixedElement, "gr_project needs a mixed element")
    for _, c in u.terms.items():
        if not c.is_fiber_polynomial():
            raise NotFiberPolynomial(
                "grading projection needs fiber-polynomial coefficients")
    return ds_n(u, l)


def is_homogeneous(u, l):
    return gr_project(u, l) == u
