import random

import pytest
from hypothesis import given, settings, strategies as st

from leafnorm import vorobjev
from leafnorm.errors import (
    DegenerateFPart, InvalidElement, LeafCheckFailed, NotDivisibleByT,
    NotFirstOrder, NotHorizontallyNondegenerate, WrongDegree,
)
from leafnorm.linalg import MatrixRF
from leafnorm.models import linear_poisson, so3
from leafnorm.multivector import (
    DiffForm, Graded, Multivector, is_poisson, schouten,
)
from leafnorm.omega import (
    MixedElement, dilation, ds_n, euler_field, gamma_S, jet_n, ltimes_bracket,
)
from leafnorm.rational import ChartContext, Poly, RatFunc
from leafnorm.vorobjev import (
    DiracElement, algebroid_from_jet, assemble,
    chain_map_residual, decompose, first_jet_model, gamma_dot_1,
    graded_differential, horizontal_blocks, is_horizontally_nondegenerate,
    leaf_check, linearization_cocycle, moser_at, moser_gamma_dot, moser_path,
    structure_equations, tau, tau_inverse,
)


CTX = ChartContext(base=["x1", "x2"], fiber=["y1"])
CTX3 = ChartContext(base=["u", "v"], fiber=["y1", "y2", "y3"])
CTX6 = ChartContext(base=["u", "v"], fiber=["y%d" % a for a in range(1, 7)])


def rf(p):
    return RatFunc.from_poly(p)


def pv(name, ctx=CTX):
    return Poly.var(ctx, name)


def symplectic_2d(ctx):
    return Multivector(ctx, {(0, 1): RatFunc.one(ctx)})


def so3_linear(ctx, k=2):
    """The linear so(3) bivector on the fiber generators k, k+1, k+2."""
    y1, y2, y3 = (RatFunc.var(ctx, ctx.gens[k + a]) for a in range(3))
    return Multivector.from_terms(ctx, [
        ((k + 1, k + 2), y1), ((k + 2, k), y2), ((k, k + 1), y3)])


def sphere_bivector(ctx, deformed):
    u, v = Poly.var(ctx, "u"), Poly.var(ctx, "v")
    w2 = (1 + u * u + v * v) ** 2
    factor = RatFunc.from_poly(w2) / 4
    if deformed:
        y1, y2, y3 = (Poly.var(ctx, n) for n in ("y1", "y2", "y3"))
        factor = factor * rf(1 + y1 * y1 + y2 * y2 + y3 * y3)
    return Multivector(ctx, {(0, 1): factor}) + so3_linear(ctx)


def so3x2_bivector():
    """so(3)+so(3) over the sphere's base chart, its leaf factor deformed
    by the Casimir 1 + |y|^2."""
    u, v = pv("u", CTX6), pv("v", CTX6)
    r2 = sum(pv(y, CTX6) ** 2 for y in CTX6.fiber)
    factor = rf((1 + u * u + v * v) ** 2 * (1 + r2)) / 4
    return Multivector(CTX6, {(0, 1): factor}) + so3_linear(CTX6) + \
        so3_linear(CTX6, 5)


# --- nondegeneracy / blocks ---------------------------------------------------

def test_nondegenerate_examples():
    # constant symplectic block plus an arbitrary vertical tail
    theta = symplectic_2d(CTX3) + Multivector(
        CTX3, {(2, 3): rf(pv("y1", CTX3) * pv("u", CTX3))})
    assert is_horizontally_nondegenerate(theta).ok
    vertical_only = Multivector(CTX3, {(2, 3): RatFunc.one(CTX3)})
    assert not is_horizontally_nondegenerate(vertical_only).ok


def test_sphere_determinant():
    theta = sphere_bivector(CTX3, True)
    chk = is_horizontally_nondegenerate(theta)
    assert chk.ok and chk.nonzero_at_leaf
    u, v = Poly.var(CTX3, "u"), Poly.var(CTX3, "v")
    y1, y2, y3 = (Poly.var(CTX3, n) for n in ("y1", "y2", "y3"))
    w2 = (1 + u * u + v * v) ** 2
    r2 = y1 * y1 + y2 * y2 + y3 * y3
    expected = (RatFunc.from_poly((1 + r2) * w2) / 4) ** 2
    assert chk.det == expected


# --- decompose / assemble ------------------------------------------------------

def test_decompose_constant_symplectic():
    gamma = decompose(symplectic_2d(CTX))
    assert gamma.v_part.is_zero()
    assert gamma.conn_part == gamma_S(CTX)
    assert gamma.f_part == MixedElement(
        CTX, {((0, 1), (), ()): -RatFunc.one(CTX)})
    chk = leaf_check(gamma)
    assert chk.ok
    assert chk.omega == DiffForm(CTX, {(0, 1): RatFunc.one(CTX)})


def test_decompose_product_with_so3():
    theta = symplectic_2d(CTX3) + so3_linear(CTX3)
    gamma = decompose(theta)
    assert gamma.conn_part == gamma_S(CTX3)
    assert gamma.f_part == MixedElement(
        CTX3, {((0, 1), (), ()): -RatFunc.one(CTX3)})
    assert gamma.v_part == MixedElement.from_terms(CTX3, [
        (((), (), (3, 4)), RatFunc.var(CTX3, "y1")),
        (((), (), (2, 4)), -RatFunc.var(CTX3, "y2")),
        (((), (), (2, 3)), RatFunc.var(CTX3, "y3"))])


def test_decompose_with_mixed_block():
    # theta = dx1^dx2 + y1 dx1^dy1: connection gains the A^-1 B correction
    y1 = rf(pv("y1"))
    theta = symplectic_2d(CTX) + Multivector(CTX, {(0, 2): y1})
    gamma = decompose(theta)
    correction = gamma.conn_part - gamma_S(CTX)
    assert correction == MixedElement(CTX, {((1,), (), (2,)): y1})
    assert assemble(gamma) == theta


def test_decompose_requires_nondegenerate():
    vertical_only = Multivector(CTX3, {(2, 3): RatFunc.one(CTX3)})
    with pytest.raises(NotHorizontallyNondegenerate):
        decompose(vertical_only)


def test_decompose_point_leaf():
    # p = 0: the leaf is a point and the whole bivector is vertical
    ctx = ChartContext(base=[], fiber=["y1", "y2", "y3"])
    theta = linear_poisson(so3(), ctx)
    gamma = decompose(theta)
    assert gamma.v_part == MixedElement.from_terms(
        ctx, [(((), (), key), c) for key, c in theta.terms.items()])
    assert gamma.is_dirac()
    assert assemble(gamma) == theta
    broken = Multivector.from_terms(ctx, [
        ((0, 1), RatFunc.var(ctx, "y1")), ((1, 2), RatFunc.var(ctx, "y2"))])
    assert not decompose(broken).is_dirac()


def test_assemble_frozen_example():
    f = MixedElement(CTX, {((0, 1), (), ()): -RatFunc.one(CTX)})
    gamma = DiracElement(gamma_S(CTX) + f)
    assert assemble(gamma) == symplectic_2d(CTX)


def test_assemble_computes_one_determinant(monkeypatch):
    theta = sphere_bivector(CTX3, True)
    gamma = decompose(theta)
    calls = []
    det = MatrixRF.det

    def spy(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(MatrixRF, "det", spy)
    assert assemble(gamma) == theta
    # the inverse's own determinant doubles as the degeneracy test
    assert len(calls) == 1


def test_assemble_forms_the_vertical_block_with_one_product(monkeypatch):
    theta = sphere_bivector(CTX3, True)
    gamma = decompose(theta)
    calls = []
    mul = MatrixRF.__mul__

    def spy(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return mul(self, other)

    monkeypatch.setattr(MatrixRF, "__mul__", spy)
    assert assemble(gamma) == theta
    # B = A W, then C = V + W^T B: F A = 1 and A^T = -A give
    # B^T F B = B^T W = -W^T B, so no product with F is needed
    assert calls == [(2, 2, 3), (3, 2, 3)]


def test_assemble_degenerate_f_rejected():
    gamma = DiracElement(gamma_S(CTX))
    with pytest.raises(DegenerateFPart):
        assemble(gamma)


def random_hnd_bivector(rng, ctx):
    """Random horizontally nondegenerate bivector, p = 2, q <= 2."""
    p, q = ctx.p, ctx.q
    items = []
    a = Poly.one(ctx) + Poly.var(ctx, rng.choice(ctx.vars)) ** 2 * \
        rng.randint(0, 1)
    items.append(((0, 1), rf(a)))
    for i in range(p):
        for b in range(q):
            if rng.random() < 0.5:
                c = Poly.var(ctx, rng.choice(ctx.vars)) * \
                    Poly.var(ctx, rng.choice(ctx.vars)) * rng.randint(-2, 2)
                items.append(((i, p + b), rf(c)))
    for b1 in range(q):
        for b2 in range(b1 + 1, q):
            c = Poly.var(ctx, rng.choice(ctx.vars)) * rng.randint(-2, 2)
            items.append(((p + b1, p + b2), rf(c)))
    return Multivector.from_terms(ctx, items)


def random_dirac_data(rng, ctx):
    """Random valid Dirac-element shaped triple (not necessarily Dirac)."""
    p, q = ctx.p, ctx.q
    f = MixedElement(ctx, {((0, 1), (), ()):
                           rf(Poly.one(ctx) +
                              Poly.var(ctx, rng.choice(ctx.vars)) ** 2)})
    conn_items = []
    for i in range(p):
        for a in range(q):
            if rng.random() < 0.6:
                conn_items.append((((i,), (), (p + a,)),
                                   rf(Poly.var(ctx, rng.choice(ctx.vars)) *
                                      rng.randint(-2, 2))))
    conn = gamma_S(ctx) + MixedElement.from_terms(ctx, conn_items)
    v_items = []
    for a in range(q):
        for b in range(a + 1, q):
            v_items.append((((), (), (p + a, p + b)),
                            rf(Poly.var(ctx, rng.choice(ctx.vars)) *
                               rng.randint(-2, 2))))
    v = MixedElement.from_terms(ctx, v_items)
    return DiracElement(v + conn + f)


def test_roundtrip_randomized():
    rng = random.Random(113)
    ctx2 = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])
    for _ in range(12):
        theta = random_hnd_bivector(rng, ctx2)
        gamma = decompose(theta)
        assert assemble(gamma) == theta
    for _ in range(12):
        gamma = random_dirac_data(rng, ctx2)
        theta = assemble(gamma)
        assert decompose(theta) == gamma


def test_vorobjev_equivalence_randomized():
    """is_poisson(theta) <=> [gamma,gamma] = 0 <=> all four residuals vanish,
    with exact componentwise match of residual bidegrees."""
    rng = random.Random(127)
    ctx2 = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])
    poisson_seen = 0
    nonpoisson_seen = 0
    catalog = [symplectic_2d(ctx2),
               symplectic_2d(CTX3) + so3_linear(CTX3),
               sphere_bivector(CTX3, True)]
    thetas = list(catalog)
    while len(thetas) < 23:
        thetas.append(random_hnd_bivector(rng, ctx2))
    for theta in thetas:
        ok_schouten = is_poisson(theta).ok
        gamma = decompose(theta)
        r1, r2, r3, r4 = structure_equations(gamma)
        g = gamma.mixed
        full = ltimes_bracket(g, g)
        assert full.bidegree_part(0, 3) == r1
        assert full.bidegree_part(1, 2) == r2.scale(2)
        assert full.bidegree_part(2, 1) == r3.scale(2)
        assert full.bidegree_part(3, 0) == r4.scale(2)
        all_zero = all(x.is_zero() for x in (r1, r2, r3, r4))
        assert ok_schouten == all_zero == full.is_zero()
        if ok_schouten:
            poisson_seen += 1
        else:
            nonpoisson_seen += 1
    assert poisson_seen >= 3
    assert nonpoisson_seen >= 5


def test_structure_equations_broken_vertical():
    # non-Jacobi vertical part: first residual nonzero, [gamma,gamma] != 0
    y1, y2 = rf(pv("y1", CTX3)), rf(pv("y2", CTX3))
    v = MixedElement.from_terms(CTX3, [
        (((), (), (2, 3)), y1), (((), (), (3, 4)), y2)])
    f = MixedElement(CTX3, {((0, 1), (), ()): -RatFunc.one(CTX3)})
    gamma = DiracElement(v + gamma_S(CTX3) + f)
    r1, r2, r3, r4 = structure_equations(gamma)
    assert not r1.is_zero()
    assert not gamma.is_dirac()


# --- chain map ----------------------------------------------------------------

def test_tau_identity_on_verticals():
    theta = symplectic_2d(CTX3) + so3_linear(CTX3)
    u = Multivector(CTX3, {(2,): rf(pv("y2", CTX3))})
    assert tau(theta, u) == MixedElement(
        CTX3, {((), (), (2,)): rf(pv("y2", CTX3))})


def test_tau_horizontal_frozen():
    theta = symplectic_2d(CTX)
    u = Multivector(CTX, {(0,): RatFunc.one(CTX)})
    assert tau(theta, u) == MixedElement(CTX, {((1,), (), ()): RatFunc.one(CTX)})


def test_tau_drops_a_fiber_direction_the_key_holds():
    # the mixed block gives d/dx2 = hor_2 - y1 d/dy1, whose d/dy1 part meets
    # the d/dy1 of d/dx2 ^ d/dy1 and drops out
    theta = symplectic_2d(CTX) + Multivector(CTX, {(0, 2): rf(pv("y1"))})
    u = Multivector(CTX, {(1, 2): RatFunc.one(CTX)})
    e = tau(theta, u)
    assert e == MixedElement(CTX, {((0,), (), (2,)): -RatFunc.one(CTX)})
    assert tau_inverse(theta, e) == u


CATALOG = [
    (CTX, symplectic_2d(CTX)),
    (CTX3, symplectic_2d(CTX3) + so3_linear(CTX3)),
    (CTX3, symplectic_2d(CTX3) + Multivector.from_terms(
        CTX3, [((2, 3), rf(pv("y3", CTX3)))])),
    (CTX3, sphere_bivector(CTX3, True)),
    (CTX, symplectic_2d(CTX) + Multivector(CTX, {(0, 2): rf(pv("y1"))})),
]


def test_chain_map_over_catalog():
    rng = random.Random(131)
    for ctx, theta in CATALOG:
        assert is_poisson(theta).ok
        for deg in (0, 1, 2):
            gens = range(ctx.p + ctx.q)
            key = tuple(sorted(rng.sample(gens, deg)))
            c = Poly.var(ctx, rng.choice(ctx.vars)) * rng.randint(1, 3)
            u = Multivector(ctx, {key: rf(c)})
            assert chain_map_residual(theta, u).is_zero()
            assert tau_inverse(theta, tau(theta, u)) == u


@st.composite
def _catalog_sums(draw):
    """A catalog bivector and a sum of 1-4 terms of degrees 0-3, each a
    nonzero integer times a monomial of degree at most 2."""
    ctx, theta = draw(st.sampled_from(CATALOG))
    gens = range(ctx.p + ctx.q)
    items = []
    for _ in range(draw(st.integers(1, 4))):
        key = tuple(sorted(draw(st.sets(st.sampled_from(gens),
                                        max_size=3))))
        c = Poly.const(ctx, draw(st.integers(-3, 3).filter(bool)))
        for name in draw(st.lists(st.sampled_from(ctx.vars), max_size=2)):
            c = c * Poly.var(ctx, name)
        items.append((key, rf(c)))
    return theta, Multivector.from_terms(ctx, items)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_catalog_sums())
def test_chain_map_round_trip_on_sums(theta_u):
    theta, u = theta_u
    assert tau_inverse(theta, tau(theta, u)) == u


def test_tau_inverse_makes_no_wedge(monkeypatch):
    theta = sphere_bivector(CTX3, True)
    u = Multivector.from_terms(CTX3, [
        ((0, 1, 3), rf(pv("y1", CTX3))), ((1, 2), rf(pv("u", CTX3))),
        ((), RatFunc.one(CTX3))])
    e = tau(theta, u)
    calls = []
    wedge = Graded.wedge

    def wedge_spy(self, other):
        calls.append(type(self).__name__)
        return wedge(self, other)

    monkeypatch.setattr(Graded, "wedge", wedge_spy)
    assert tau_inverse(theta, e) == u
    # both directions are one generator substitution: no wedge of images
    assert calls == []


def test_tau_inverse_computes_one_determinant_and_no_solve(monkeypatch):
    theta = sphere_bivector(CTX3, True)
    u = Multivector(CTX3, {(0, 1, 3): rf(pv("y1", CTX3))})
    e = tau(theta, u)
    calls = []
    det, solve = MatrixRF.det, MatrixRF.solve
    fiber_parts = Poly.fiber_parts

    def det_spy(self):
        calls.append("det")
        return det(self)

    def solve_spy(self, rhs):
        calls.append("solve")
        return solve(self, rhs)

    def fiber_parts_spy(self):
        calls.append("fiber_parts")
        return fiber_parts(self)

    monkeypatch.setattr(MatrixRF, "det", det_spy)
    monkeypatch.setattr(MatrixRF, "solve", solve_spy)
    monkeypatch.setattr(Poly, "fiber_parts", fiber_parts_spy)
    assert tau_inverse(theta, e) == u
    # the non-degeneracy test reads only whether det A is zero, not its
    # part at the leaf; theta^# needs no inverse
    assert calls == ["det"]


def test_tau_inverse_requires_nondegenerate():
    vertical_only = Multivector(CTX3, {(2, 3): RatFunc.one(CTX3)})
    e = MixedElement(CTX3, {((0,), (), (2,)): RatFunc.one(CTX3)})
    with pytest.raises(NotHorizontallyNondegenerate,
                       match="^horizontal block is singular as a rational "
                             "function$"):
        tau_inverse(vertical_only, e)


# --- leaves / jets / Moser ------------------------------------------------------

def test_leaf_check_examples():
    assert leaf_check(decompose(symplectic_2d(CTX))).ok
    gamma = decompose(sphere_bivector(CTX3, True))
    chk = leaf_check(gamma)
    assert chk.ok
    u, v = Poly.var(CTX3, "u"), Poly.var(CTX3, "v")
    w2 = (1 + u * u + v * v) ** 2
    expected = DiffForm(CTX3, {(0, 1): RatFunc.const(CTX3, 4) /
                               RatFunc.from_poly(w2)})
    assert chk.omega == expected


def test_leaf_check_degenerate_at_s():
    # F vanishing on S: gamma|_S = 0 is (2,0) but degenerate
    f = MixedElement(CTX, {((0, 1), (), ()): rf(pv("y1"))})
    gamma = DiracElement(gamma_S(CTX) + f)
    assert not leaf_check(gamma).ok


def test_leaf_check_fails_when_the_leaf_form_is_not_closed():
    # x3 dx1 ^ dx2 on a 3-dimensional base: d of it is dx3 ^ dx1 ^ dx2
    ctx = ChartContext(base=["x1", "x2", "x3"], fiber=["y1"])
    x3 = RatFunc.var(ctx, "x3")
    f = MixedElement(ctx, {((0, 1), (), ()): x3})
    chk = leaf_check(DiracElement(gamma_S(ctx) + f))
    assert not chk.ok
    assert chk.omega == DiffForm(ctx, {(0, 1): -x3})


def test_leaf_check_fails_when_not_20():
    v = MixedElement.from_terms(CTX3, [(((), (), (2, 3)), RatFunc.one(CTX3))])
    f = MixedElement(CTX3, {((0, 1), (), ()): -RatFunc.one(CTX3)})
    gamma = DiracElement(v + gamma_S(CTX3) + f)
    assert not leaf_check(gamma).ok
    with pytest.raises(LeafCheckFailed):
        first_jet_model(gamma)


def test_first_jet_examples():
    g0 = decompose(sphere_bivector(CTX3, False))
    g = decompose(sphere_bivector(CTX3, True))
    assert first_jet_model(g0) == g0
    assert first_jet_model(g) == g0


def test_first_jet_keeps_sigma():
    # F = -(1+y1) dx1^dx2 keeps its fiber-linear part in the jet
    f = MixedElement(CTX, {((0, 1), (), ()): -rf(1 + pv("y1"))})
    gamma = DiracElement(gamma_S(CTX) + f)
    j = first_jet_model(gamma)
    assert j == gamma
    assert j.is_dirac()


def test_moser_product_constant():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    path = moser_path(gamma)
    assert moser_at(path, 1) == gamma
    assert moser_at(path, 0) == gamma
    assert moser_gamma_dot(path).is_zero()


def test_moser_sphere():
    gamma = decompose(sphere_bivector(CTX3, True))
    path = moser_path(gamma)
    g_t = path.gamma_t.mixed
    assert ltimes_bracket(g_t, g_t).is_zero()
    assert moser_at(path, 1) == gamma
    assert moser_at(path, 0) == first_jet_model(gamma)
    # frozen closed form of the (2,0) coefficient
    ctx_t = path.context
    u, v = Poly.var(ctx_t, "u"), Poly.var(ctx_t, "v")
    y1, y2, y3 = (Poly.var(ctx_t, n) for n in ("y1", "y2", "y3"))
    t = Poly.var(ctx_t, "t")
    w2 = (1 + u * u + v * v) ** 2
    r2 = y1 * y1 + y2 * y2 + y3 * y3
    omega_chart = RatFunc.const(ctx_t, 4) / RatFunc.from_poly(w2)
    expect_f = -(RatFunc.one(ctx_t) -
                 RatFunc.from_poly(t * r2) / RatFunc.from_poly(1 + t * t * r2)
                 ) * omega_chart
    assert path.gamma_t.f_part == MixedElement(
        ctx_t, {((0, 1), (), ()): expect_f})


def test_moser_auxiliary_identity():
    gamma = decompose(sphere_bivector(CTX3, True))
    path = moser_path(gamma)
    ctx_t = path.context
    t = RatFunc.var(ctx_t, "t")
    gd1 = gamma_dot_1(gamma).cast(ctx_t)
    lhs = dilation(gd1, t).scale(RatFunc.one(ctx_t) / t)
    assert lhs == moser_gamma_dot(path)


def test_gamma_dot_suite():
    for theta in (symplectic_2d(CTX3) + so3_linear(CTX3),
                  sphere_bivector(CTX3, True)):
        gamma = decompose(theta)
        gd1 = gamma_dot_1(gamma)
        assert ds_n(gd1, 0).is_zero() and ds_n(gd1, 1).is_zero()
        assert ltimes_bracket(gamma.mixed, gd1).is_zero()
    # first-order elements sit still, the deformed sphere does not
    assert gamma_dot_1(decompose(symplectic_2d(CTX3) + so3_linear(CTX3))).is_zero()
    assert not gamma_dot_1(decompose(sphere_bivector(CTX3, True))).is_zero()


def test_tau_inverse_of_gamma_dot_is_cocycle_plus_exact():
    theta = sphere_bivector(CTX3, True)
    gamma = decompose(theta)
    gd1 = gamma_dot_1(gamma)
    u, v = Poly.var(CTX3, "u"), Poly.var(CTX3, "v")
    w2 = (1 + u * u + v * v) ** 2
    omega_tilde = DiffForm(CTX3, {(0, 1): RatFunc.const(CTX3, 4) /
                                  RatFunc.from_poly(w2)})
    cocycle = linearization_cocycle(theta, omega_tilde)
    # the core identity, with the Euler term removed
    core = gd1 - ltimes_bracket(euler_field(CTX3), gamma.mixed)
    assert tau_inverse(theta, core) == cocycle
    # the Euler term is exact: tau^-1 of it is [E, theta] = -d_theta(E)
    e_mv = Multivector.from_terms(CTX3, [
        ((2 + a,), RatFunc.var(CTX3, n)) for a, n in enumerate(CTX3.fiber)])
    witness = schouten(e_mv, theta)
    assert tau_inverse(theta, gd1) == cocycle + witness


def test_homotopy_equation_residual_check():
    # residual form of the homotopy equation [gamma_t, V_t] = gamma_dot_t for
    # user-supplied candidates: V_t = 0 solves it for the constant product
    # path, and a wrong candidate on the sphere leaves an exact nonzero
    # residual
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    path = moser_path(gamma)
    g_t = path.gamma_t.mixed
    v_t = MixedElement.zero(path.context)
    assert (ltimes_bracket(g_t, v_t) - moser_gamma_dot(path)).is_zero()

    gamma = decompose(sphere_bivector(CTX3, True))
    path = moser_path(gamma)
    g_t = path.gamma_t.mixed
    candidate = MixedElement.from_terms(
        path.context, [(((), (), (2,)), RatFunc.var(path.context, "y1"))])
    residual = ltimes_bracket(g_t, candidate) - moser_gamma_dot(path)
    assert not residual.is_zero()


def test_moser_mixed_block_model():
    theta = symplectic_2d(CTX) + Multivector(CTX, {(0, 2): rf(pv("y1"))})
    gamma = decompose(theta)
    path = moser_path(gamma)
    g_t = path.gamma_t.mixed
    assert ltimes_bracket(g_t, g_t).is_zero()
    assert moser_at(path, 1) == gamma
    assert moser_at(path, 0) == first_jet_model(gamma)


def test_moser_rejects_bad_leaf():
    f = MixedElement(CTX, {((0, 1), (), ()): rf(pv("y1"))})
    gamma = DiracElement(gamma_S(CTX) + f)
    with pytest.raises(LeafCheckFailed):
        moser_path(gamma)


def test_moser_truncated_variant():
    gamma = decompose(sphere_bivector(CTX3, True))
    path = moser_path(DiracElement(jet_n(gamma.mixed, 2)))
    g_t = path.gamma_t.mixed
    resid = ltimes_bracket(g_t, g_t)
    # identity holds modulo fiber degree > 2
    for k in range(3):
        assert ds_n(resid, k).is_zero()


# --- algebroid -------------------------------------------------------------------

def test_algebroid_product_so3():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    data = algebroid_from_jet(gamma)
    assert all(r.is_zero() for r in data.jacobi_residuals())
    # also with a nontrivial connection correction (mixed block present)
    theta = symplectic_2d(CTX) + Multivector(CTX, {(0, 2): rf(pv("y1"))})
    data_b = algebroid_from_jet(decompose(theta))
    assert all(r.is_zero() for r in data_b.jacobi_residuals())
    # bracket of dual frame elements reproduces the so(3) structure constants
    frame = data.frame()
    e1, e2, e3 = frame[2], frame[3], frame[4]
    assert data.bracket(e1, e2) == MixedElement.scalar(rf(pv("y3", CTX3)))
    # anchor-Leibniz on frame pairs
    f = rf(Poly.var(CTX3, "u") * Poly.var(CTX3, "v"))
    for s1 in frame:
        for s2 in frame:
            assert data.leibniz_residual(s1, s2, f).is_zero()


def test_algebroid_detects_non_dirac():
    y1, y2 = rf(pv("y1", CTX3)), rf(pv("y2", CTX3))
    v = MixedElement.from_terms(CTX3, [
        (((), (), (2, 3)), y1), (((), (), (3, 4)), y2)])
    f = MixedElement(CTX3, {((0, 1), (), ()): -RatFunc.one(CTX3)})
    gamma = DiracElement(v + gamma_S(CTX3) + f)
    data = algebroid_from_jet(gamma)
    assert not all(r.is_zero() for r in data.jacobi_residuals())


def test_algebroid_central_extension():
    # abelian vertical, flat connection, constant sigma: Jacobi holds
    sigma = MixedElement(CTX, {((0, 1), (), ()): rf(pv("y1"))})
    f = MixedElement(CTX, {((0, 1), (), ()): -RatFunc.one(CTX)}) + sigma
    gamma = DiracElement(gamma_S(CTX) + f)
    data = algebroid_from_jet(gamma)
    assert all(r.is_zero() for r in data.jacobi_residuals())
    assert not data.sigma.is_zero()


def test_algebroid_requires_first_order():
    f = MixedElement(CTX, {((0, 1), (), ()): -rf(1 + pv("y1") * pv("y1"))})
    gamma = DiracElement(gamma_S(CTX) + f)
    with pytest.raises(NotFirstOrder):
        algebroid_from_jet(gamma)


def test_algebroid_bracket_leaves_the_fiber_linear_sections():
    # pi^v constant in the fiber: first order, but [y1, y2]_A = +-1
    ctx = ChartContext(base=["u", "v"], fiber=["y1", "y2"])
    v = MixedElement(ctx, {((), (), (2, 3)): RatFunc.one(ctx)})
    f = MixedElement(ctx, {((0, 1), (), ()): -RatFunc.one(ctx)})
    data = algebroid_from_jet(DiracElement(v + gamma_S(ctx) + f))
    frame = data.frame()
    with pytest.raises(NotFirstOrder):
        data.bracket(frame[2], frame[3])


def test_algebroid_rejects_non_sections():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    data = algebroid_from_jet(gamma)
    y1, u = rf(pv("y1", CTX3)), rf(pv("u", CTX3))
    frame = data.frame()
    other = ChartContext(base=["u", "v"], fiber=["y1", "y2"])
    for bad in (
            MixedElement(CTX3, {((), (), (2, 3)): u}),
            MixedElement(CTX3, {((0,), (), ()): u}),
            MixedElement.scalar(y1 * y1),
            MixedElement.scalar(y1 + u),
            MixedElement.scalar(y1 / (1 + y1)),
            MixedElement(CTX3, {((), (0,), ()): y1}),
            MixedElement(other, {((), (0,), ()): RatFunc.one(other)})):
        with pytest.raises(InvalidElement):
            data.bracket(frame[0], bad)
        with pytest.raises(InvalidElement):
            data.bracket(bad, frame[2])
        with pytest.raises(InvalidElement):
            data.anchor_apply(bad, u)
    # sections with fiber-free lifts and a fiber-linear scalar pass
    s = frame[0].scale(u) + frame[2].scale(u * u)
    assert data.anchor_apply(s, u) == u
    assert not data.bracket(s, frame[3]).is_zero()


# --- graded differential ----------------------------------------------------------

def test_graded_differential_anchor_case():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    delta = ds_n(gamma.mixed, 1)
    d0 = graded_differential(delta, 0)
    f = rf(Poly.var(CTX3, "u") ** 2)
    out = d0(MixedElement.scalar(f))
    expected = MixedElement(CTX3, {((0,), (), ()): f.derivative("u")})
    assert out == expected


def test_graded_differential_squares_to_zero():
    rng = random.Random(137)
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    delta = ds_n(gamma.mixed, 1)
    for level in (0, 1, 2):
        d = graded_differential(delta, level)
        for _ in range(6):
            # random gr_level element of Omega_E
            qdeg = rng.randint(0, 2)
            K = tuple(sorted(rng.sample(range(2, 5), qdeg)))
            I = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
            fdeg = level
            c = Poly.const(CTX3, rng.randint(1, 3))
            for _ in range(fdeg):
                c = c * Poly.var(CTX3, rng.choice(CTX3.fiber))
            c = c * Poly.var(CTX3, rng.choice(CTX3.base)) ** rng.randint(0, 1)
            u = MixedElement.from_terms(CTX3, [((I, (), K), rf(c))])
            if u.is_zero():
                continue
            du = d(u)
            for l2 in range(4):
                part = ds_n(du, l2)
                if l2 != level:
                    assert part.is_zero()
            assert ltimes_bracket(delta, du).is_zero()


def test_graded_differential_matches_chevalley_eilenberg():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    delta = ds_n(gamma.mixed, 1)
    d1 = graded_differential(delta, 1)
    # psi = constant section of E*, i.e. the fiber-linear function y1
    psi = MixedElement.scalar(RatFunc.var(CTX3, "y1"))
    out = d1(psi)
    # CE differential of so(3)*: d eps^1 = -eps^2 ^ eps^3 pairing-wise;
    # realized here as the vertical bivector contraction [pi_lin, y1]
    expected = MixedElement.from_terms(CTX3, [
        (((), (), (4,)), RatFunc.var(CTX3, "y2")),
        (((), (), (3,)), -RatFunc.var(CTX3, "y3"))])
    assert out == expected


# --- refusals -----------------------------------------------------------------

def _sphere_gamma():
    return decompose(sphere_bivector(CTX3, True))


@pytest.mark.parametrize("element, message", [
    pytest.param(lambda g: g.v_part + g.f_part,
                 "connection part does not project to the identity",
                 id="projection"),
    pytest.param(lambda g: g.mixed + MixedElement(
        CTX3, {((), (0,), (2,)): RatFunc.one(CTX3)}),
        r"vertical part must be of bidegree \(0,2\)", id="lift"),
])
def test_dirac_element_refuses_malformed_parts(element, message):
    with pytest.raises(InvalidElement, match="^%s$" % message):
        DiracElement(element(_sphere_gamma()))


def test_from_mixed_refuses_terms_of_other_bidegrees():
    # a Dirac element built from a mixed element takes only its three
    # bidegrees
    gamma = _sphere_gamma()
    assert DiracElement(gamma.mixed) == gamma
    one = RatFunc.one(CTX3)
    extra = MixedElement(CTX3, {((), (), ()): one, ((0,), (), (2, 3)): one})
    with pytest.raises(InvalidElement,
                       match=r"^element has terms outside bidegrees "
                             r"\(0,2\), \(1,1\) and \(2,0\)$"):
        DiracElement(gamma.mixed + extra)


@pytest.mark.parametrize("theta", [
    pytest.param(lambda: sphere_bivector(CTX3, True), id="sphere"),
    pytest.param(so3x2_bivector, id="so3x2"),
])
def test_dirac_element_is_its_mixed_element(theta):
    gamma = decompose(theta())
    assert DiracElement(gamma.mixed) == gamma
    assert gamma.v_part == gamma.mixed.bidegree_part(0, 2)
    assert gamma.conn_part == gamma.mixed.bidegree_part(1, 1)
    assert gamma.f_part == gamma.mixed.bidegree_part(2, 0)
    assert not any(part.is_zero()
                   for part in (gamma.v_part, gamma.conn_part, gamma.f_part))


def test_dirac_element_stores_vertical_then_connection_then_two_form():
    # sums and brackets add equal keys in iteration order, which decides the
    # partial sums that vanish and so the gcd work of every later step
    gamma = _sphere_gamma()
    v, conn, f = gamma.v_part, gamma.conn_part, gamma.f_part
    for g in (gamma, DiracElement(f + conn + v), DiracElement(conn + f + v)):
        assert list(g.mixed.terms) == [*v.terms, *conn.terms, *f.terms]


def test_horizontal_blocks_need_a_bivector():
    with pytest.raises(WrongDegree,
                       match="^block decomposition needs a bivector$"):
        horizontal_blocks(Multivector.basis(CTX3, 0))


def test_horizontal_blocks_refuse_a_form():
    with pytest.raises(TypeError,
                       match="^block decomposition needs a bivector, "
                             "not a DiffForm$"):
        horizontal_blocks(DiffForm(CTX3, {(0, 1): RatFunc.one(CTX3)}))


def test_tau_inverse_refuses_lift_terms():
    with pytest.raises(InvalidElement,
                       match="^tau inverse expects an element with no "
                             "horizontal lift terms$"):
        tau_inverse(symplectic_2d(CTX3), gamma_S(CTX3))


def test_moser_path_refuses_a_coefficient_singular_at_t_zero(monkeypatch):
    # with phi_t the identity, (t gamma - gamma|_S) / t has the pole
    # gamma|_S / t, which no valid dilation produces
    monkeypatch.setattr(vorobjev, "dilation", lambda u, t: u)
    with pytest.raises(NotDivisibleByT,
                       match="^path coefficient is singular at t = 0$"):
        moser_path(_sphere_gamma())


def test_gamma_dot_needs_a_leaf():
    f = MixedElement(CTX, {((0, 1), (), ()): rf(pv("y1"))})
    gamma = DiracElement(gamma_S(CTX) + f)
    with pytest.raises(LeafCheckFailed,
                       match="^the zero section is not a symplectic leaf$"):
        gamma_dot_1(gamma)


def test_graded_differential_refusals():
    gamma = decompose(symplectic_2d(CTX3) + so3_linear(CTX3))
    delta = ds_n(gamma.mixed, 1)
    with pytest.raises(ValueError, match="^grading level must be >= 0$"):
        graded_differential(delta, -1)
    y1 = RatFunc.var(CTX3, "y1")
    with pytest.raises(InvalidElement,
                       match="^argument is not homogeneous of degree 1$"):
        graded_differential(delta, 1)(MixedElement.scalar(y1 * y1))


def test_algebroid_pairs_forms_and_lifts_by_key():
    # the pairing is the sum of the wedge's terms whose blocks agree
    u, v = rf(pv("u", CTX3)), rf(pv("v", CTX3))
    y1 = rf(pv("y1", CTX3))
    form = MixedElement.from_terms(CTX3, [
        (((0, 1), (), ()), u * y1), (((0,), (), ()), v)])
    lifts = MixedElement.from_terms(CTX3, [
        (((), (0, 1), ()), v), (((), (1,), ()), u),
        (((), (0,), ()), y1 + 1)])
    for k in (1, 2):
        f_k = form.bidegree_part(k, 0)
        l_k = lifts.bidegree_part(0, k)
        expected = sum((c for (I, J, K), c in f_k.wedge(l_k).terms.items()
                        if I == J and not K), RatFunc.zero(CTX3))
        assert vorobjev._pair(f_k, l_k) == expected
    assert vorobjev._pair(form.bidegree_part(2, 0),
                          lifts.bidegree_part(0, 2)) == u * v * y1


# --- refusals of a non-Poisson input -------------------------------------------

def _non_jacobi_vertical(ctx):
    """y1 d/dy1^d/dy2 + y1 d/dy2^d/dy3 + y2 d/dy1^d/dy3, which fails Jacobi."""
    y1, y2 = (RatFunc.var(ctx, n) for n in ("y1", "y2"))
    return [((2, 3), y1), ((3, 4), y1), ((2, 4), y2)]


def test_first_jet_model_refuses_a_jet_that_is_not_dirac():
    v = MixedElement.from_terms(CTX3, [
        (((), (), key), c) for key, c in _non_jacobi_vertical(CTX3)])
    f = MixedElement(CTX3, {((0, 1), (), ()): RatFunc.one(CTX3)})
    gamma = DiracElement(v + gamma_S(CTX3) + f)
    assert leaf_check(gamma).ok
    with pytest.raises(InvalidElement,
                       match="^first jet fails the Dirac equation$"):
        first_jet_model(gamma)


def test_linearization_cocycle_refuses_a_non_poisson_bivector():
    theta = Multivector.from_terms(CTX3, _non_jacobi_vertical(CTX3))
    assert not is_poisson(theta).ok
    with pytest.raises(InvalidElement,
                       match="^linearization cocycle is not d_pi-closed$"):
        linearization_cocycle(theta, DiffForm.zero(CTX3))
