import random

import pytest

from leafnorm.errors import (
    ContextMismatch, InvalidElement, NotAConnection, NotFiberPolynomial,
    ZeroParameter,
)
from leafnorm.multivector import DiffForm, Multivector, exterior_derivative, schouten
from leafnorm.omega import (
    INVALID, OMEGA_E, OMEGA_TILDE, MixedElement, base_form_of, curvature,
    dilation, ds_n, euler_field, gamma_S, gr_project, is_homogeneous, jet_n,
    ltimes_bracket, mixed_from_base_form, mixed_from_multivector, p_S,
    validate_membership,
)
from leafnorm.rational import ChartContext, Poly, Q, RatFunc


CTX = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])


def rf(p):
    return RatFunc.from_poly(p)


def pv(name, ctx=CTX):
    return Poly.var(ctx, name)


def me(ctx, items):
    return MixedElement.from_terms(ctx, items)


# --- membership ---------------------------------------------------------------

def test_membership_gamma_s():
    assert validate_membership(gamma_S(CTX)) == OMEGA_TILDE


def test_membership_invalid_fiber_coefficient():
    bad = me(CTX, [(((0,), (0,), ()), rf(pv("y1")))])
    assert validate_membership(bad) == INVALID


def test_membership_omega_e():
    ok = me(CTX, [(((0,), (), (2,)), rf(pv("x1") * pv("y1")))])
    assert validate_membership(ok) == OMEGA_E


def test_membership_two_horizontal_slots_invalid():
    bad = me(CTX, [(((0,), (0, 1), ()), RatFunc.one(CTX))])
    assert validate_membership(bad) == INVALID


# --- bracket: frozen examples ---------------------------------------------------

def test_gamma_s_represents_d():
    omega = me(CTX, [(((1,), (), ()), rf(pv("x1")))])  # x1 dx2
    got = ltimes_bracket(gamma_S(CTX), omega)
    assert got == me(CTX, [(((0, 1), (), ()), RatFunc.one(CTX))])


def test_gamma_s_represents_d_random_base_forms():
    # independent path: exterior derivative on forms with x-only coefficients
    rng = random.Random(71)
    gs = gamma_S(CTX)
    for _ in range(20):
        key = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
        c = pv("x1") ** rng.randint(0, 2) * pv("x2") ** rng.randint(0, 2) * \
            Q(rng.randint(-3, 3))
        omega = DiffForm(CTX, {key: rf(c)} if not c.is_zero() else {})
        lhs = ltimes_bracket(gs, mixed_from_base_form(omega))
        rhs = mixed_from_base_form(exterior_derivative(omega))
        assert lhs == rhs


def test_gamma_s_central():
    gs = gamma_S(CTX)
    assert ltimes_bracket(gs, gs).is_zero()


def test_vertical_case_matches_schouten():
    y1 = rf(pv("y1"))
    y3coeff = rf(pv("y2"))  # reuse pattern with q=2 chart: use y2 as the coefficient
    u = me(CTX, [(((), (), (2, 3)), y3coeff)])   # y2 d/dy1^d/dy2
    v = MixedElement.scalar(y1)
    got = ltimes_bracket(u, v)
    # independent path: plain multivector Schouten of the same data
    mu = Multivector(CTX, {(2, 3): y3coeff})
    mv = Multivector.scalar(y1)
    expect = mixed_from_multivector(schouten(mu, mv))
    assert got == expect
    assert got == me(CTX, [(((), (), (3,)), -y3coeff)])


# --- curvature -----------------------------------------------------------------

def test_curvature_flat_lift():
    assert curvature(gamma_S(CTX)).is_zero()


def test_curvature_frozen_example():
    x2 = rf(pv("x2"))
    gam = gamma_S(CTX) + me(CTX, [(((0,), (), (2,)), x2)])
    got = curvature(gam)
    assert got == me(CTX, [(((0, 1), (), (2,)), -RatFunc.one(CTX))])


def test_curvature_linear_flat_connection():
    # gamma_S + dx1 (x) y1 d/dy1 has [Gamma, Gamma] = 0 on a 1-base chart
    ctx = ChartContext(base=["x1"], fiber=["y1"])
    gam = gamma_S(ctx) + MixedElement.from_terms(
        ctx, [(((0,), (), (1,)), RatFunc.var(ctx, "y1"))])
    assert ltimes_bracket(gam, gam).is_zero()
    assert curvature(gam).is_zero()


def test_curvature_requires_connection():
    with pytest.raises(NotAConnection):
        curvature(me(CTX, [(((0,), (1,), ()), RatFunc.one(CTX))]))


# --- dilation / grading -----------------------------------------------------------

def test_dilation_constant_form():
    ctx = CTX.with_param("t")
    t = RatFunc.var(ctx, "t")
    u = me(ctx, [(((0, 1), (), ()), RatFunc.one(ctx))])
    assert dilation(u, t) == u.scale(RatFunc.one(ctx) / t)


def test_dilation_fixes_linear_vertical_and_gamma_s():
    ctx = CTX.with_param("t")
    t = RatFunc.var(ctx, "t")
    u = me(ctx, [(((), (), (2,)), RatFunc.var(ctx, "y1"))])
    assert dilation(u, t) == u
    assert dilation(gamma_S(ctx), t) == gamma_S(ctx)


def test_dilation_rejects_zero():
    with pytest.raises(ZeroParameter):
        dilation(gamma_S(CTX), 0)


def test_dilation_composition():
    ctx = CTX.with_param("r").with_param("s")
    r = RatFunc.var(ctx, "r")
    s = RatFunc.var(ctx, "s")
    rng = random.Random(73)
    for _ in range(10):
        u = random_tilde(rng, ctx)
        assert dilation(dilation(u, s), r) == dilation(u, r * s)


def test_dilation_automorphism_formal():
    ctx = CTX.with_param("t")
    t = RatFunc.var(ctx, "t")
    rng = random.Random(79)
    for _ in range(15):
        u = random_tilde(rng, ctx)
        v = random_tilde(rng, ctx)
        lhs = dilation(ltimes_bracket(u, v), t)
        rhs = ltimes_bracket(dilation(u, t), dilation(v, t))
        assert lhs == rhs


def test_ds_homogeneous_split():
    ctx = ChartContext(base=["x1", "x2"], fiber=["y1", "y2", "y3"])
    y1 = Poly.var(ctx, "y1")
    u = MixedElement.from_terms(
        ctx, [(((), (), (3, 4)), RatFunc.from_poly(1 + y1 * y1))])
    assert ds_n(u, 0) == MixedElement.from_terms(
        ctx, [(((), (), (3, 4)), RatFunc.one(ctx))])
    assert ds_n(u, 1).is_zero()
    assert ds_n(u, 2) == MixedElement.from_terms(
        ctx, [(((), (), (3, 4)), RatFunc.from_poly(y1 * y1))])


def test_ds_projection_on_homogeneous():
    rng = random.Random(83)
    for _ in range(10):
        u = random_tilde(rng, CTX, polynomial=True)
        for l in range(4):
            g = gr_project(u, l)
            if g.is_zero():
                continue
            assert ds_n(g, l) == g
            for k in range(4):
                if k != l:
                    assert ds_n(g, k).is_zero()


def test_jet_taylor_example():
    y1 = pv("y1")
    f = RatFunc.one(CTX) / rf(1 + y1 * y1)
    u = me(CTX, [(((0, 1), (), ()), f)])
    expect = me(CTX, [(((0, 1), (), ()), rf(1 - y1 * y1))])
    assert jet_n(u, 2) == expect


def test_jet_identity_on_low_degree():
    rng = random.Random(89)
    for _ in range(10):
        u = random_tilde(rng, CTX, polynomial=True, max_fiber_deg=2)
        assert jet_n(u, 3) == u


def test_gr_examples():
    ctx = ChartContext(base=["x1", "x2"], fiber=["y1", "y2", "y3"])
    y1, y2, y3 = (Poly.var(ctx, n) for n in ("y1", "y2", "y3"))
    pi_lin = MixedElement.from_terms(ctx, [
        (((), (), (3, 4)), RatFunc.from_poly(y1)),
        (((), (), (4, 2)), RatFunc.from_poly(y2)),
        (((), (), (2, 3)), RatFunc.from_poly(y3))])
    assert is_homogeneous(pi_lin, 1)
    omega = MixedElement.from_terms(ctx, [(((0, 1), (), ()), RatFunc.one(ctx))])
    assert is_homogeneous(omega, 0)
    lin_conn_term = MixedElement.from_terms(
        ctx, [(((0,), (), (2,)), RatFunc.from_poly(y1))])
    assert is_homogeneous(lin_conn_term, 1)
    assert sum_gr_reconstructs(pi_lin + omega + lin_conn_term)


def sum_gr_reconstructs(u, upto=4):
    total = MixedElement.zero(u.context)
    for l in range(upto):
        total = total + gr_project(u, l)
    return total == u


def test_gr_requires_fiber_polynomial():
    y1 = pv("y1")
    f = RatFunc.one(CTX) / rf(1 + y1 * y1)
    u = me(CTX, [(((0,), (), ()), f)])
    with pytest.raises(NotFiberPolynomial):
        gr_project(u, 0)


# --- random property suites ------------------------------------------------------

def random_tilde(rng, ctx, polynomial=True, max_fiber_deg=2, bidegree=None):
    """Random valid element; bidegree-homogeneous when bidegree given."""
    items = []
    nterms = rng.randint(1, 2)
    for _ in range(nterms):
        if bidegree is None:
            pi = rng.randint(0, 2)
            qi = rng.randint(0, 2)
        else:
            pi, qi = bidegree
        horizontal = qi == 1 and rng.random() < 0.4
        I = tuple(sorted(rng.sample(range(ctx.p), min(pi, ctx.p))))
        if horizontal:
            J = (rng.randrange(ctx.p),)
            K = ()
            c = Poly.const(ctx, rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                c = c * Poly.var(ctx, rng.choice(ctx.base))
        else:
            J = ()
            K = tuple(sorted(rng.sample(
                range(ctx.p, ctx.p + ctx.q), min(qi, ctx.q))))
            c = Poly.const(ctx, rng.randint(-3, 3))
            for _ in range(rng.randint(0, max_fiber_deg)):
                c = c * Poly.var(ctx, rng.choice(ctx.vars))
        items.append(((I, J, K), RatFunc.from_poly(c)))
    return MixedElement.from_terms(ctx, items)


def lie_degree(bidegree):
    return bidegree[0] + bidegree[1] - 1


def test_ltimes_graded_antisymmetry_and_jacobi():
    rng = random.Random(97)
    checked = 0
    while checked < 30:
        bids = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        u, v, w = (random_tilde(rng, CTX, bidegree=b) for b in bids)
        if u.is_zero() or v.is_zero() or w.is_zero():
            continue
        checked += 1
        du, dv, dw = (lie_degree(b) for b in bids)
        anti = ltimes_bracket(u, v) + \
            ltimes_bracket(v, u).scale(Q(-1) ** (du * dv))
        assert anti.is_zero()
        jac = ltimes_bracket(u, ltimes_bracket(v, w)) \
            - ltimes_bracket(ltimes_bracket(u, v), w) \
            - ltimes_bracket(v, ltimes_bracket(u, w)).scale(Q(-1) ** (du * dv))
        assert jac.is_zero()


def test_newton_formula():
    rng = random.Random(101)
    for _ in range(20):
        u = random_tilde(rng, CTX)
        v = random_tilde(rng, CTX)
        br = ltimes_bracket(u, v)
        for l in range(4):
            lhs = ds_n(br, l)
            rhs = MixedElement.zero(CTX)
            for a in range(l + 2):
                b = l + 1 - a
                rhs = rhs + ltimes_bracket(ds_n(u, a), ds_n(v, b))
            assert lhs == rhs


def test_base_forms_are_central_ideal():
    rng = random.Random(103)
    for _ in range(20):
        key = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
        c = pv("x1") ** rng.randint(0, 2) * Q(rng.randint(-2, 2))
        omega = me(CTX, [((key, (), ()), rf(c))])
        # vertical elements act trivially
        v = random_tilde(rng, CTX, bidegree=(rng.randint(0, 2), rng.randint(0, 2)))
        v = v.vertical_part()
        if not v.is_zero():
            assert ltimes_bracket(v, omega).is_zero()
        # elements with horizontal part act through the base projection
        u = random_tilde(rng, CTX, bidegree=(rng.randint(0, 2), 1))
        lhs = ltimes_bracket(u, omega)
        rhs = ltimes_bracket(p_S(u), omega)
        assert lhs == rhs


def _fn_bracket_reference(u, v):
    """Independent Froelicher-Nijenhuis bracket on decomposable lift terms."""
    ctx = u.context
    out = MixedElement.zero(ctx)
    for (I1, J1, _), a in u.terms.items():
        for (I2, J2, _), b in v.terms.items():
            i, j = J1[0], J2[0]
            r, s = len(I1), len(I2)
            alpha = DiffForm(ctx, {I1: a})
            beta = DiffForm(ctx, {I2: b})
            xi = Multivector(ctx, {(i,): RatFunc.one(ctx)})
            xj = Multivector(ctx, {(j,): RatFunc.one(ctx)})
            from leafnorm.multivector import (exterior_derivative as dd,
                                              interior_form, lie_derivative)
            la = dd(interior_form(xi, beta)) + interior_form(xi, dd(beta))
            term1 = alpha.wedge(lie_derivative(xi, beta))
            term1 = term1 + dd(alpha).wedge(
                interior_form(xi, beta)).scale(Q(-1) ** r)
            term2 = beta.wedge(lie_derivative(xj, alpha))
            term2 = term2 + dd(beta).wedge(
                interior_form(xj, alpha)).scale(Q(-1) ** s)
            for key, c in term1.terms.items():
                out = out + me(ctx, [((key, (j,), ()), c)])
            sgn = Q(-1) ** (r * s + 1)
            for key, c in term2.terms.items():
                out = out + me(ctx, [((key, (i,), ()), c * sgn)])
    return out


def test_exact_sequence_projection():
    rng = random.Random(107)
    for _ in range(20):
        u = random_tilde(rng, CTX, bidegree=(rng.randint(0, 2), 1))
        v = random_tilde(rng, CTX, bidegree=(rng.randint(0, 2), 1))
        lhs = p_S(ltimes_bracket(u, v))
        rhs = _fn_bracket_reference(p_S(u), p_S(v))
        assert lhs == rhs


def test_ds_lands_in_gr():
    ctx = CTX.with_param("t")
    t = RatFunc.var(ctx, "t")
    rng = random.Random(109)
    for _ in range(10):
        u = random_tilde(rng, ctx)
        for n in range(3):
            d = ds_n(u, n)
            if d.is_zero():
                continue
            scaled = dilation(d, t)
            assert scaled == d.scale(t ** (n - 1))


def test_euler_field_shape():
    e = euler_field(CTX)
    assert validate_membership(e) == OMEGA_E
    assert is_homogeneous(e, 1)


def test_base_form_roundtrip():
    omega = DiffForm(CTX, {(0, 1): rf(pv("x1"))})
    assert base_form_of(mixed_from_base_form(omega)) == omega
    with pytest.raises(InvalidElement):
        mixed_from_base_form(DiffForm(CTX, {(2,): RatFunc.one(CTX)}))


# --- operand kinds and refusals -----------------------------------------------

_BIVECTOR = Multivector(CTX, {(2, 3): rf(pv("y1"))})


@pytest.mark.parametrize("call, kind", [
    pytest.param(lambda: ltimes_bracket(_BIVECTOR, _BIVECTOR), "Multivector",
                 id="ltimes_bracket"),
    pytest.param(lambda: ds_n(_BIVECTOR, 1), "Multivector", id="ds_n"),
    pytest.param(lambda: jet_n(_BIVECTOR, 1), "Multivector", id="jet_n"),
    pytest.param(lambda: dilation(_BIVECTOR, 2), "Multivector",
                 id="dilation"),
    pytest.param(lambda: curvature(_BIVECTOR), "Multivector", id="curvature"),
    pytest.param(lambda: gr_project(_BIVECTOR, 1), "Multivector",
                 id="gr_project"),
    pytest.param(lambda: is_homogeneous(_BIVECTOR, 1), "Multivector",
                 id="is_homogeneous"),
    pytest.param(lambda: validate_membership(_BIVECTOR), "Multivector",
                 id="validate_membership"),
    pytest.param(lambda: p_S(_BIVECTOR), "Multivector", id="p_S"),
    pytest.param(lambda: base_form_of(DiffForm.basis(CTX, 0)), "DiffForm",
                 id="base_form_of"),
    pytest.param(lambda: mixed_from_base_form(_BIVECTOR), "Multivector",
                 id="mixed_from_base_form"),
    pytest.param(lambda: mixed_from_multivector(DiffForm.basis(CTX, 0)),
                 "DiffForm", id="mixed_from_multivector"),
])
def test_operands_of_the_wrong_kind_are_refused(call, kind):
    with pytest.raises(TypeError, match=r", not a %s$" % kind):
        call()


def test_bracket_refuses_an_element_outside_the_algebra():
    # a horizontal lift with a fiber-dependent coefficient
    bad = me(CTX, [(((), (0,), ()), rf(pv("y1")))])
    with pytest.raises(InvalidElement,
                       match="^element is not in the extended bigraded "
                             "algebra$"):
        ltimes_bracket(gamma_S(CTX), bad)


def test_base_form_of_refuses_contravariant_directions():
    with pytest.raises(InvalidElement,
                       match="^element has contravariant directions$"):
        base_form_of(gamma_S(CTX))


def test_dilation_parameter_on_another_chart_is_refused():
    other = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"], params=["t"])
    with pytest.raises(ContextMismatch,
                       match="^operands live on different charts$"):
        dilation(gamma_S(CTX), RatFunc.var(other, "t"))


def test_derivative_along_s_refuses_a_negative_order():
    with pytest.raises(ValueError, match="^derivative order must be >= 0$"):
        ds_n(gamma_S(CTX), -1)
