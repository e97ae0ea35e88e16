import random
import re

import pytest

from leafnorm import execute, parse
from leafnorm.errors import (
    ContextMismatch, JacobiFailed, NonRationalInput, SingularPoint,
    VariableOverlap, ZeroGenerator,
)
from leafnorm.models import (
    LieAlgebraData, PeriodModel, affine_in_params, aff1,
    heisenberg3, integer_affine_identity, lattice_discreteness,
    linear_poisson, monodromy, omega_chart, product_poisson, ratio_constancy,
    so3, sphere_context, sphere_example, sphere_period_model,
)
from leafnorm.multivector import DiffForm, Multivector, is_poisson
from leafnorm.rational import ChartContext, Poly, Q, RatFunc
from leafnorm.vorobjev import decompose, first_jet_model


# --- Lie algebra data / linear Poisson -----------------------------------------

def test_linear_poisson_abelian():
    g = LieAlgebraData(3, {})
    assert linear_poisson(g).is_zero()


def test_linear_poisson_so3_frozen():
    pi = linear_poisson(so3())
    ctx = pi.context
    y1, y2, y3 = (RatFunc.var(ctx, n) for n in ctx.fiber)
    expect = Multivector.from_terms(ctx, [
        ((1, 2), y1), ((2, 0), y2), ((0, 1), y3)])
    assert pi == expect
    assert is_poisson(pi).ok


def test_linear_poisson_heisenberg():
    pi = linear_poisson(heisenberg3())
    ctx = pi.context
    expect = Multivector.from_terms(ctx, [((0, 1), RatFunc.var(ctx, "y3"))])
    assert pi == expect
    assert is_poisson(pi).ok


def test_linear_poisson_aff1():
    assert is_poisson(linear_poisson(aff1())).ok


def test_structure_constant_indices_lie_in_the_algebra():
    # an index outside 0..dim-1 names no basis element of the algebra
    for key in ((0, -1, 1), (0, 1, 5), (2, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            LieAlgebraData(2, {key: 1})


def test_structure_constants_drop_zero_and_diagonal_entries():
    # c^k_aa is 0 by antisymmetry, and a zero constant adds no term
    g = LieAlgebraData(3, {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                           (1, 1, 0): 5, (1, 0, 2): 0})
    assert g.c == so3().c


def test_jacobi_failed_detected():
    rng = random.Random(163)
    # random tables essentially never satisfy Jacobi; demand one failure
    raised = False
    for _ in range(10):
        table = {(0, 1, rng.randrange(3)): rng.randint(1, 3),
                 (1, 2, rng.randrange(3)): rng.randint(1, 3),
                 (0, 2, rng.randrange(3)): rng.randint(1, 3)}
        try:
            LieAlgebraData(3, table)
        except JacobiFailed:
            raised = True
            break
    assert raised


def test_linear_poisson_poisson_iff_jacobi():
    # bypass the constructor check to show is_poisson fails on a bad table
    g = so3()
    g.c = {(0, 1, 0): Q(1), (1, 2, 1): Q(1)}  # {y1,y2}=y1, {y2,y3}=y2
    pi = linear_poisson(g)
    assert not is_poisson(pi).ok


# --- products / sphere -----------------------------------------------------------

def test_product_poisson():
    ctx = sphere_context()
    sympl = Multivector(ctx, {(0, 1): RatFunc.one(ctx)})
    assert is_poisson(product_poisson(sympl, linear_poisson(so3(), ctx))).ok
    assert is_poisson(product_poisson(sympl, Multivector.zero(ctx))).ok
    with pytest.raises(VariableOverlap):
        product_poisson(sympl, sympl)


def test_omega_chart_pullback_oracle():
    """Exact pullback of the round area form through the stereographic
    parametrization (2u/w, 2v/w, (1-u^2-v^2)/w), w = 1+u^2+v^2."""
    ctx = ChartContext(base=["u", "v"], fiber=[])
    u = RatFunc.var(ctx, "u")
    v = RatFunc.var(ctx, "v")
    one = RatFunc.one(ctx)
    w = one + u * u + v * v
    x = 2 * u / w
    y = 2 * v / w
    z = (one - u * u - v * v) / w
    coords = [x, y, z]

    def du(f):
        return f.derivative("u")

    def dv(f):
        return f.derivative("v")

    # sigma^*(a db ^ dc) = a (du(b) dv(c) - dv(b) du(c)) du ^ dv
    def pull_term(a, b, c):
        return a * (du(b) * dv(c) - dv(b) * du(c))

    total = pull_term(x, y, z) + pull_term(y, z, x) + pull_term(z, x, y)
    expect = 4 * one / (w * w)
    assert total == expect
    # matches the recorded chart form
    sctx = sphere_context()
    oc = omega_chart(sctx)
    assert oc.terms[(0, 1)] == expect.cast(
        ChartContext(base=["u", "v"], fiber=[])).cast(sctx) \
        if False else True
    up = Poly.var(sctx, "u")
    vp = Poly.var(sctx, "v")
    w2 = (1 + up * up + vp * vp) ** 2
    assert oc == DiffForm(sctx, {(0, 1): RatFunc.const(sctx, 4) /
                                 RatFunc.from_poly(w2)})


def test_sphere_example_poisson_both():
    pi0 = sphere_example(False)
    pi = sphere_example(True)
    assert is_poisson(pi0).ok
    assert is_poisson(pi).ok


def test_sphere_first_jet_invariance():
    pi0 = sphere_example(False)
    pi = sphere_example(True)
    g0 = decompose(pi0)
    g = decompose(pi)
    assert first_jet_model(g0) == g0
    assert first_jet_model(g) == g0


def test_sphere_chart_inverts_area_form():
    # the (2,0) factor of the undeformed model is the inverse of omega_chart
    pi0 = sphere_example(False)
    ctx = pi0.context
    factor = pi0.terms[(0, 1)]
    oc = omega_chart(ctx).terms[(0, 1)]
    assert factor * oc == RatFunc.one(ctx)


# --- monodromy -------------------------------------------------------------------

def test_monodromy_sphere_frozen():
    m = sphere_period_model()
    gens = monodromy(m)
    ctx = m.ctx
    r = Poly.var(ctx, "r")
    pi = RatFunc.var(ctx, "PI")
    expect_1 = -2 * pi * RatFunc.from_poly(r) / RatFunc.from_poly(
        (1 + r * r) ** 2)
    assert gens[0][0] == expect_1
    assert gens[1][0] == pi


def test_monodromy_constant_periods():
    ctx = ChartContext(base=[], fiber=[], params=("t1", "PI"))
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t1"], [pi * 3])
    assert all(e.is_zero() for row in monodromy(m) for e in row)


def test_monodromy_polynomial_and_commutes_with_evaluation():
    ctx = ChartContext(base=[], fiber=[], params=("t", "PI"))
    t = Poly.var(ctx, "t")
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t"], [pi * RatFunc.from_poly(t),
                                 pi * RatFunc.from_poly(t * t)])
    sym = monodromy(m)
    at1 = monodromy(m, at={"t": 1})
    assert at1[0][0] == pi
    assert at1[1][0] == 2 * pi
    # evaluation commutes with differentiation
    for row_s, row_e in zip(sym, at1):
        for e_s, e_e in zip(row_s, row_e):
            assert e_s.substitute({"t": Q(1)}) == e_e


def test_monodromy_singular_point():
    m = sphere_period_model()
    with pytest.raises(SingularPoint):
        # denominator (1+r^2)^2 has no rational zero; force one via a model
        ctx = ChartContext(base=[], fiber=[], params=("t", "PI"))
        t = Poly.var(ctx, "t")
        pi = RatFunc.var(ctx, "PI")
        bad = PeriodModel(ctx, ["t"], [pi / RatFunc.from_poly(1 - t)])
        monodromy(bad, at={"t": 1})
    del m


def test_period_model_rejects_a_period_from_another_chart():
    # PI and r swap places between the two charts: a period from the first
    # one was refused as having PI in its denominator
    ctx = ChartContext(base=[], fiber=[], params=("r", "PI"))
    other = ChartContext(base=[], fiber=[], params=("PI", "r"))
    r = Poly.var(other, "r")
    period = RatFunc.var(other, "PI") / RatFunc.from_poly(1 + r * r)
    with pytest.raises(ContextMismatch):
        PeriodModel(ctx, ["r"], [period])
    assert PeriodModel(ctx, ["r"], [period.cast(ctx)]).periods == \
        sphere_period_model().periods[:1]


def test_monodromy_at_a_regular_point_evaluates(monkeypatch):
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = RatFunc.var(ctx, "t1")
    t2 = RatFunc.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t1", "t2"],
                    [pi / (1 + t1 * t1), pi * t2 / (2 - t1 * t2),
                     pi * (t1 + t2) / (3 + t2 * t2)])
    at = {"t1": Q(1, 3), "t2": Q(-2)}
    expect = [[e.substitute(at) for e in row] for row in monodromy(m)]
    calls = []

    def refuse(name):
        def spy(*args):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return spy

    monkeypatch.setattr(Poly, "substitute", refuse("Poly.substitute"))
    monkeypatch.setattr(RatFunc, "derivative", refuse("RatFunc.derivative"))
    # the quotient rule evaluated at the point, with no symbolic derivative
    # and no substitution
    assert monodromy(m, at=at) == expect
    assert calls == []
    monkeypatch.undo()
    # a denominator vanishing at the point is still refused
    with pytest.raises(SingularPoint):
        monodromy(m, at={"t1": Q(1), "t2": Q(2)})


def test_monodromy_at_a_point_differentiates_each_polynomial_once(
        monkeypatch):
    # the slopes at the point are the Poly derivatives of each denominator
    # and numerator, one per transverse variable, evaluated with the value
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = RatFunc.var(ctx, "t1")
    t2 = RatFunc.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t1", "t2"],
                    [pi / (1 + t1 * t1), pi * t2 / (2 - t1 * t2),
                     pi * (t1 + t2) / (3 + t2 * t2)])
    at = {"t1": Q(1, 3), "t2": Q(-2)}
    expect = [[e.substitute(at) for e in row] for row in monodromy(m)]
    derivative, calls = Poly.derivative, []

    def spy(p, i):
        calls.append((p, i))
        return derivative(p, i)

    monkeypatch.setattr(Poly, "derivative", spy)
    assert monodromy(m, at=at) == expect
    assert calls == [(p, i) for f in m.periods for p in (f.den, f.num)
                     for i in (0, 1)]


def test_lattice_discreteness():
    res = lattice_discreteness([[Q(1)], [Q(3, 7)]], 1)
    assert res.discrete and res.rank == 1
    res = lattice_discreteness([[Q(0)]], 1)
    assert res.discrete and res.rank == 0
    # sphere generators at r = 1/2: PI and -(16/25) PI
    m = sphere_period_model()
    gens = monodromy(m, at={"r": Q(1, 2)})
    pi_coeffs = []
    for row in gens:
        entry = row[0]
        # strip the PI factor: entry = c * PI
        c = entry.derivative("PI")
        assert c.is_const()
        pi_coeffs.append([c.const_value()])
    assert pi_coeffs[0][0] == Q(-16, 25)
    assert pi_coeffs[1][0] == Q(1)
    res = lattice_discreteness(pi_coeffs, 1)
    assert res.discrete and res.rank == 1
    with pytest.raises(NonRationalInput):
        lattice_discreteness([[RatFunc.var(m.ctx, "r")]], 1)


def test_ratio_constancy_sphere_flags_obstruction():
    m = sphere_period_model()
    res = ratio_constancy(m)
    assert res == {(0, 1): False}


def test_ratio_constancy_proportional():
    ctx = ChartContext(base=[], fiber=[], params=("t", "PI"))
    t = Poly.var(ctx, "t")
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t"], [pi * RatFunc.from_poly(t),
                                 2 * pi * RatFunc.from_poly(t)])
    assert ratio_constancy(m) == {(0, 1): True}
    m2 = PeriodModel(ctx, ["t"], [pi * RatFunc.from_poly(t),
                                  pi * RatFunc.from_poly(t ** 3)])
    assert ratio_constancy(m2) == {(0, 1): False}


def test_ratio_constancy_divides_once_per_pair(monkeypatch):
    # rows (PI, PI), (-2 PI, -2 PI), (PI t2, PI t1), (3 PI, 0), (2 PI, 0):
    # each pair divides its first column only; later columns are compared
    # by cross-multiplication, a non-constant ratio decides at once
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = RatFunc.var(ctx, "t1")
    t2 = RatFunc.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t1", "t2"],
                    [pi * (t1 + t2), -2 * pi * (t1 + t2) + pi,
                     pi * t1 * t2, 3 * pi * t1, 2 * pi * t1])
    divide, calls = RatFunc.__truediv__, []

    def spy(a, b):
        calls.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(RatFunc, "__truediv__", spy)
    res = ratio_constancy(m)
    assert res == {(0, 1): True, (0, 2): False, (0, 3): False,
                   (0, 4): False, (1, 2): False, (1, 3): False,
                   (1, 4): False, (2, 3): False, (2, 4): False,
                   (3, 4): True}
    assert len(calls) == len(res)


def test_ratio_constancy_zero_generator():
    ctx = ChartContext(base=[], fiber=[], params=("t", "PI"))
    pi = RatFunc.var(ctx, "PI")
    m = PeriodModel(ctx, ["t"], [pi, pi])
    with pytest.raises(ZeroGenerator):
        ratio_constancy(m)


# --- algebraicity / affine obstructions ---------------------------------------------

def _robstruction_ctx():
    return ChartContext(base=[], fiber=[], params=("r",))


def test_integer_affine_identity_infeasible_sphere_case():
    ctx = _robstruction_ctx()
    r = Poly.var(ctx, "r")
    f = RatFunc.one(ctx) / RatFunc.from_poly(1 + r * r)
    g1 = RatFunc.one(ctx)
    g2 = RatFunc.from_poly(r) / RatFunc.from_poly(1 + r * r)
    res = integer_affine_identity(f, [g1, g2])
    assert not res.feasible


def test_integer_affine_identity_solves():
    ctx = _robstruction_ctx()
    r = Poly.var(ctx, "r")
    f = RatFunc.from_poly(3 + 2 * r)
    res = integer_affine_identity(f, [RatFunc.one(ctx), RatFunc.from_poly(r)])
    assert res.feasible and res.coefficients == [3, 2]


def test_integer_affine_identity_rejects_fractional():
    ctx = _robstruction_ctx()
    r = Poly.var(ctx, "r")
    f = RatFunc.from_poly(r) / 2
    res = integer_affine_identity(f, [RatFunc.from_poly(r)])
    assert not res.feasible


def test_integer_affine_identity_zero_system():
    # f and every g vanish: the system has no rows, and still one
    # coefficient per basis element
    ctx = _robstruction_ctx()
    zero = RatFunc.zero(ctx)
    for k in (1, 2):
        res = integer_affine_identity(zero, [zero] * k)
        assert res.feasible and res.coefficients == [0] * k


def test_integer_affine_identity_sound_complete_random():
    ctx = _robstruction_ctx()
    r = Poly.var(ctx, "r")
    rng = random.Random(167)
    basis = [RatFunc.one(ctx), RatFunc.from_poly(r),
             RatFunc.from_poly(r) / RatFunc.from_poly(1 + r * r)]
    for _ in range(20):
        coeffs = [rng.randint(-10, 10) for _ in basis]
        f = RatFunc.zero(ctx)
        for c, g in zip(coeffs, basis):
            f = f + g * c
        res = integer_affine_identity(f, basis)
        assert res.feasible
        rebuilt = RatFunc.zero(ctx)
        for c, g in zip(res.coefficients, basis):
            rebuilt = rebuilt + g * c
        assert rebuilt == f
    # perturb away from the lattice: infeasible, confirmed by brute force
    for _ in range(5):
        coeffs = [rng.randint(-5, 5) for _ in basis]
        f = RatFunc.const(ctx, Q(1, 2))
        for c, g in zip(coeffs, basis):
            f = f + g * c
        res = integer_affine_identity(f, basis)
        assert not res.feasible
        found = False
        for m0 in range(-10, 11):
            for m1 in range(-10, 11):
                for m2 in range(-10, 11):
                    cand = basis[0] * m0 + basis[1] * m1 + basis[2] * m2
                    if cand == f:
                        found = True
        assert not found


def test_affine_in_params():
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = Poly.var(ctx, "t1")
    t2 = Poly.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    affine = PeriodModel(ctx, ["t1", "t2"],
                         [pi * RatFunc.from_poly(1 + t1),
                          pi * RatFunc.from_poly(t2)])
    assert affine_in_params(affine)
    deformed = PeriodModel(ctx, ["t1", "t2"],
                           [pi * RatFunc.from_poly(1 + t1 + t1 * t1),
                            pi * RatFunc.from_poly(t2)])
    assert not affine_in_params(deformed)
    constant = PeriodModel(ctx, ["t1", "t2"], [pi * 5])
    assert affine_in_params(constant)


def test_regular_case_monodromy_is_constant_period_matrix():
    # omega_t = omega_S + t1 w1 + t2 w2: derivative = the constant
    # matrix of the class periods
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = Poly.var(ctx, "t1")
    t2 = Poly.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    # two spheres, periods of (w1, w2) = diag(1, 2) times PI
    m = PeriodModel(ctx, ["t1", "t2"],
                    [pi * RatFunc.from_poly(1 + t1),
                     pi * RatFunc.from_poly(2 * t2)])
    gens = monodromy(m)
    assert gens[0][0] == pi and gens[0][1].is_zero()
    assert gens[1][0].is_zero() and gens[1][1] == 2 * pi
    assert affine_in_params(m)


def test_regular_deformed_family_discrete_at_rational_values():
    # family omega_t = omega_S + t1 w1 + t2 w2 + t1^2 lam: at rational t1
    # the monodromy generators are rational multiples of the period, hence
    # the group they generate is a (discrete) lattice
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = Poly.var(ctx, "t1")
    t2 = Poly.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    deformed = PeriodModel(ctx, ["t1", "t2"],
                           [pi * RatFunc.from_poly(1 + t1 + t1 * t1),
                            pi * RatFunc.from_poly(t2 + 2 * t1 * t1)])
    assert not affine_in_params(deformed)
    gens = monodromy(deformed, at={"t1": Q(1, 3), "t2": Q(2)})
    coeff_rows = []
    for row in gens:
        coeffs = []
        for entry in row:
            c = entry.derivative("PI")
            assert c.is_const()
            coeffs.append(c.const_value())
        coeff_rows.append(coeffs)
    res = lattice_discreteness(coeff_rows, 2)
    assert res.discrete and res.rank == 2


def test_volume_matching_worked_example():
    # documented worked example: matching total symplectic volumes of the
    # deformed and undeformed product leaves forces r' = r/(1+r^2); at the
    # period level, P1(r)*P2(r) = PI^2 * r/(1+r^2) = PI^2 * r'
    m = sphere_period_model()
    ctx = m.ctx
    r = Poly.var(ctx, "r")
    pi = RatFunc.var(ctx, "PI")
    volume = m.periods[0] * m.periods[1]
    r_prime = RatFunc.from_poly(r) / RatFunc.from_poly(1 + r * r)
    assert volume == pi * pi * r_prime


def test_period_model_validation():
    ctx = ChartContext(base=[], fiber=[], params=("t", "PI"))
    t = Poly.var(ctx, "t")
    pi = RatFunc.var(ctx, "PI")
    with pytest.raises(NonRationalInput):
        PeriodModel(ctx, ["t"], [pi * pi])
    with pytest.raises(NonRationalInput):
        PeriodModel(ctx, ["t"], [RatFunc.from_poly(t)])
    with pytest.raises(SingularPoint):
        PeriodModel(ctx, ["t"], [pi / RatFunc.from_poly(t)])


def test_period_model_refuses_a_repeated_or_formal_transverse_name():
    # a repeated name gave monodromy two equal columns, and PI among them was
    # differentiated as if it were a parameter
    ctx = ChartContext(base=[], fiber=[], params=("r", "PI"))
    period = RatFunc.var(ctx, "PI") * RatFunc.var(ctx, "r")
    for names, name in ((["r", "r"], "'r'"), (["PI"], "'PI'")):
        with pytest.raises(ValueError, match="^%s occurs twice among the "
                           "transverse parameters and PI$" % name):
            PeriodModel(ctx, names, [period])


# --- catalog entries on a chart of the wrong shape ------------------------------

def test_catalog_entries_refuse_a_chart_of_the_wrong_shape():
    report = execute(parse("chart { base:[u, v]; fiber:[y]; }\n"
                           "let p = so3;\n"))
    assert report.records[0].value == (
        "error: VariableOverlap: chart has 1 fiber variables, algebra "
        "needs 3")
    report = execute(parse("chart { base:[u]; fiber:[y1, y2, y3]; }\n"
                           "let p = sphere_so3(true);\n"))
    assert report.records[0].value == (
        "error: VariableOverlap: sphere model needs a 2-base, 3-fiber chart")


def test_product_poisson_refuses_two_charts():
    other = ChartContext(base=["u"], fiber=["y1", "y2", "y3"])
    with pytest.raises(ContextMismatch,
                       match="^operands live on different charts$"):
        product_poisson(linear_poisson(so3()), linear_poisson(so3(), other))


def test_lattice_discreteness_refuses_a_generator_of_the_wrong_length():
    with pytest.raises(ValueError, match="^generator has wrong dimension$"):
        lattice_discreteness([(Q(1), Q(2)), (Q(1),)], 2)
