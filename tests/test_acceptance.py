"""Acceptance suite: one test per criterion, exact residuals throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every check is exact equality of canonical rational forms; the
only tolerances are the stated wall-clock budgets, asserted here.
"""

import json
import random
import subprocess
import sys
import time

from leafnorm.models import (
    PeriodModel, affine_in_params, aff1, heisenberg3, integer_affine_identity,
    linear_poisson, monodromy, ratio_constancy, so3,
    sphere_example, sphere_period_model,
)
from leafnorm.multivector import (
    DiffForm, Multivector, exterior_derivative, is_poisson, schouten,
)
from leafnorm.omega import (
    MixedElement, dilation, ds_n, gamma_S, ltimes_bracket,
    mixed_from_base_form, p_S,
)
from leafnorm.rational import ChartContext, Poly, Q, RatFunc
from leafnorm.vorobjev import (
    algebroid_from_jet, assemble, chain_map_residual, decompose,
    first_jet_model, gamma_dot_1, graded_differential, moser_at,
    moser_gamma_dot, moser_path, structure_equations, tau_inverse,
)

import leafnorm


def _done(num, desc, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, "criterion %d exceeded %ss (%.1fs)" % (
        num, budget, elapsed)
    print("PASS criterion %2d: %s (%.2fs)" % (num, desc, elapsed))


CTX3 = ChartContext(base=["u", "v"], fiber=["y1", "y2", "y3"])


def rf(p):
    return RatFunc.from_poly(p)


def so3_product(ctx=CTX3):
    return Multivector(ctx, {(0, 1): RatFunc.one(ctx)}) + \
        linear_poisson(so3(), ctx)


# --- 1 ------------------------------------------------------------------------

def test_criterion_01_jacobi_identities():
    t0 = time.monotonic()
    cases = [
        Multivector(CTX3, {(0, 1): RatFunc.one(CTX3)}),
        linear_poisson(so3()),
        linear_poisson(heisenberg3()),
        sphere_example(False),
        sphere_example(True),
    ]
    for pi in cases:
        t_case = time.monotonic()
        assert is_poisson(pi).ok
        assert time.monotonic() - t_case < 10
    _done(1, "Jacobi identities for the five catalog bivectors", t0, 50)


# --- 2, 3 -----------------------------------------------------------------------

def _random_hnd(rng, ctx):
    p, q = ctx.p, ctx.q
    items = [((0, 1), rf(Poly.one(ctx) +
                         Poly.var(ctx, rng.choice(ctx.vars)) ** 2 *
                         rng.randint(0, 1)))]
    for i in range(p):
        for b in range(q):
            if rng.random() < 0.5:
                c = Poly.var(ctx, rng.choice(ctx.vars)) * \
                    Poly.var(ctx, rng.choice(ctx.vars)) * rng.randint(-2, 2)
                items.append(((i, p + b), rf(c)))
    for b1 in range(q):
        for b2 in range(b1 + 1, q):
            items.append(((p + b1, p + b2),
                          rf(Poly.var(ctx, rng.choice(ctx.vars)) *
                             rng.randint(-2, 2))))
    return Multivector.from_terms(ctx, items)


def _equivalence_set():
    rng = random.Random(2024)
    ctx21 = ChartContext(base=["x1", "x2"], fiber=["y1"])
    ctx22 = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])
    x1 = Poly.var(ctx22, "x1")
    y1 = Poly.var(ctx22, "y1")
    thetas = [
        # known Poisson
        Multivector(ctx21, {(0, 1): RatFunc.one(ctx21)}),
        Multivector(ctx22, {(0, 1): RatFunc.one(ctx22)}) +
        linear_poisson(aff1(), ctx22),
        Multivector(ctx21, {(0, 1): RatFunc.one(ctx21)}) +
        Multivector(ctx21, {(0, 2): RatFunc.var(ctx21, "y1")}),
        # deliberately non-Poisson (Jacobiator computed nonzero by hand)
        Multivector(ctx22, {(0, 1): RatFunc.one(ctx22),
                            (2, 3): rf(x1 * y1)}),
        Multivector(ctx22, {(0, 1): rf(Poly.one(ctx22) + y1 * y1),
                            (2, 3): rf(y1)}),
    ]
    while len(thetas) < 22:
        thetas.append(_random_hnd(rng, ctx22 if len(thetas) % 2 else ctx21))
    return thetas


def test_criterion_02_vorobjev_equivalence():
    t0 = time.monotonic()
    poisson = 0
    nonpoisson = 0
    for theta in _equivalence_set():
        ok = is_poisson(theta).ok
        gamma = decompose(theta)
        r1, r2, r3, r4 = structure_equations(gamma)
        g = gamma.mixed
        full = ltimes_bracket(g, g)
        assert full.bidegree_part(0, 3) == r1
        assert full.bidegree_part(1, 2) == r2.scale(2)
        assert full.bidegree_part(2, 1) == r3.scale(2)
        assert full.bidegree_part(3, 0) == r4.scale(2)
        all_zero = all(r.is_zero() for r in (r1, r2, r3, r4))
        assert ok == all_zero == full.is_zero()
        poisson += ok
        nonpoisson += not ok
    assert poisson + nonpoisson >= 20
    assert nonpoisson >= 5
    assert poisson >= 3
    _done(2, "Poisson <=> Dirac <=> structure equations on %d bivectors"
          % (poisson + nonpoisson), t0, 60)


def test_criterion_03_round_trips():
    t0 = time.monotonic()
    rng = random.Random(331)
    count = 0
    for theta in _equivalence_set():
        gamma = decompose(theta)
        assert assemble(gamma) == theta
        assert decompose(assemble(gamma)) == gamma
        count += 1
    # and from the Dirac side with independently random data
    ctx22 = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])
    from leafnorm.vorobjev import DiracElement
    for _ in range(8):
        f = MixedElement(ctx22, {((0, 1), (), ()):
                                 rf(Poly.one(ctx22) +
                                    Poly.var(ctx22, rng.choice(ctx22.vars)) ** 2)})
        conn_items = []
        for i in range(2):
            for a in range(2):
                if rng.random() < 0.6:
                    conn_items.append(
                        (((i,), (), (2 + a,)),
                         rf(Poly.var(ctx22, rng.choice(ctx22.vars)) *
                            rng.randint(-2, 2))))
        conn = gamma_S(ctx22) + MixedElement.from_terms(ctx22, conn_items)
        v = MixedElement.from_terms(
            ctx22, [(((), (), (2, 3)),
                     rf(Poly.var(ctx22, rng.choice(ctx22.vars)) *
                        rng.randint(-2, 2)))])
        gamma = DiracElement(v + conn + f)
        assert decompose(assemble(gamma)) == gamma
        count += 1
    _done(3, "assemble/decompose round trips on %d inputs" % count, t0, 60)


# --- 4 ----------------------------------------------------------------------------

def test_criterion_04_chain_map():
    t0 = time.monotonic()
    rng = random.Random(443)
    ctx21 = ChartContext(base=["x1", "x2"], fiber=["y1"])
    heis_prod = Multivector(CTX3, {(0, 1): RatFunc.one(CTX3)}) + \
        linear_poisson(heisenberg3(), CTX3)
    catalog = [
        Multivector(ctx21, {(0, 1): RatFunc.one(ctx21)}),
        so3_product(),
        heis_prod,
        sphere_example(True),
        Multivector(ctx21, {(0, 1): RatFunc.one(ctx21)}) +
        Multivector(ctx21, {(0, 2): RatFunc.var(ctx21, "y1")}),
    ]
    checked = 0
    for theta in catalog:
        ctx = theta.context
        assert is_poisson(theta).ok
        for deg in (0, 1, 2):
            key = tuple(sorted(rng.sample(range(ctx.p + ctx.q), deg)))
            c = Poly.var(ctx, rng.choice(ctx.vars)) * rng.randint(1, 3) + \
                Poly.const(ctx, rng.randint(0, 2))
            u = Multivector(ctx, {key: rf(c)})
            assert chain_map_residual(theta, u).is_zero()
            checked += 1
    _done(4, "chain map residuals vanish (%d cases over 5 catalog entries)"
          % checked, t0, 60)


# --- 5, 6, 7 --------------------------------------------------------------------------

def test_criterion_05_first_jet_invariance():
    t0 = time.monotonic()
    g0 = decompose(sphere_example(False))
    g = decompose(sphere_example(True))
    assert first_jet_model(g) == g0
    assert first_jet_model(g0) == g0
    _done(5, "first-jet invariance of the deformed sphere", t0, 60)


def test_criterion_06_moser_path():
    t0 = time.monotonic()
    gamma = decompose(sphere_example(True))
    path = moser_path(gamma)
    g_t = path.gamma_t.mixed
    assert ltimes_bracket(g_t, g_t).is_zero()
    assert moser_at(path, 1) == gamma
    assert moser_at(path, 0) == first_jet_model(gamma)
    ctx_t = path.context
    t = RatFunc.var(ctx_t, "t")
    gd1 = gamma_dot_1(gamma).cast(ctx_t)
    aux = dilation(gd1, t).scale(RatFunc.one(ctx_t) / t)
    assert aux == moser_gamma_dot(path)
    _done(6, "Moser path identities for the sphere", t0, 60)


def test_criterion_07_gamma_dot_suite():
    t0 = time.monotonic()
    theta = sphere_example(True)
    ctx = theta.context
    gamma = decompose(theta)
    gd1 = gamma_dot_1(gamma)
    assert ds_n(gd1, 0).is_zero() and ds_n(gd1, 1).is_zero()
    assert ltimes_bracket(gamma.mixed, gd1).is_zero()
    # element-level identity: tau^-1(pi^v - F - omega_S) = pi - wedge^2
    # pi#(p* omega_S); the Euler term of gamma-dot is the exact correction
    # [E, pi], so the velocity class equals the linearization class
    from leafnorm.omega import euler_field
    from leafnorm.vorobjev import linearization_cocycle
    u, v = Poly.var(ctx, "u"), Poly.var(ctx, "v")
    w2 = (1 + u * u + v * v) ** 2
    omega_tilde = DiffForm(ctx, {(0, 1): RatFunc.const(ctx, 4) /
                                 RatFunc.from_poly(w2)})
    cocycle = linearization_cocycle(theta, omega_tilde)
    core = gd1 - ltimes_bracket(euler_field(ctx), gamma.mixed)
    assert tau_inverse(theta, core) == cocycle
    e_mv = Multivector.from_terms(ctx, [
        ((2 + a,), RatFunc.var(ctx, n)) for a, n in enumerate(ctx.fiber)])
    assert tau_inverse(theta, gd1) == cocycle + schouten(e_mv, theta)
    _done(7, "gamma-dot identities and the linearization cocycle", t0, 60)


# --- 8, 9, 10 ---------------------------------------------------------------------------

def test_criterion_08_monodromy():
    t0 = time.monotonic()
    m = sphere_period_model()
    gens = monodromy(m)
    ctx = m.ctx
    r = Poly.var(ctx, "r")
    pi = RatFunc.var(ctx, "PI")
    expect = -2 * pi * RatFunc.from_poly(r) / RatFunc.from_poly((1 + r * r) ** 2)
    assert gens[0][0] == expect
    assert gens[1][0] == pi
    flags = ratio_constancy(m)
    assert flags == {(0, 1): False}
    _done(8, "sphere monodromy generators and the non-constant ratio", t0, 60)


def test_criterion_09_algebraicity_obstruction():
    t0 = time.monotonic()
    ctx = ChartContext(base=[], fiber=[], params=("r",))
    r = Poly.var(ctx, "r")
    f = RatFunc.one(ctx) / RatFunc.from_poly(1 + r * r)
    basis = [RatFunc.one(ctx), RatFunc.from_poly(r) / RatFunc.from_poly(1 + r * r)]
    assert not integer_affine_identity(f, basis).feasible
    _done(9, "integer affine identity is infeasible (algebraicity)", t0, 60)


def test_criterion_10_regular_case_deformation():
    t0 = time.monotonic()
    ctx = ChartContext(base=[], fiber=[], params=("t1", "t2", "PI"))
    t1 = Poly.var(ctx, "t1")
    t2 = Poly.var(ctx, "t2")
    pi = RatFunc.var(ctx, "PI")
    affine = PeriodModel(ctx, ["t1", "t2"],
                         [pi * RatFunc.from_poly(1 + t1),
                          pi * RatFunc.from_poly(t2)])
    deformed = PeriodModel(ctx, ["t1", "t2"],
                           [pi * RatFunc.from_poly(1 + t1 + t1 * t1),
                            pi * RatFunc.from_poly(t2)])
    assert affine_in_params(affine)
    assert not affine_in_params(deformed)
    _done(10, "affine-in-parameters test separates the deformed family", t0, 60)


# --- 11 ------------------------------------------------------------------------------------

def _random_mv(rng, ctx, deg, cdeg=2):
    gens = list(range(ctx.p + ctx.q))
    items = []
    for _ in range(2):
        key = tuple(sorted(rng.sample(gens, deg))) if deg else ()
        c = Poly.const(ctx, rng.randint(-3, 3))
        for _ in range(rng.randint(0, cdeg)):
            c = c * Poly.var(ctx, rng.choice(ctx.vars))
        items.append((key, rf(c)))
    return Multivector.from_terms(ctx, items)


def _random_tilde(rng, ctx, bidegree=None, max_fiber_deg=2):
    items = []
    for _ in range(rng.randint(1, 2)):
        if bidegree is None:
            pi_, qi = rng.randint(0, 2), rng.randint(0, 2)
        else:
            pi_, qi = bidegree
        horizontal = qi == 1 and rng.random() < 0.4
        I = tuple(sorted(rng.sample(range(ctx.p), min(pi_, ctx.p))))
        if horizontal:
            J = (rng.randrange(ctx.p),)
            K = ()
            c = Poly.const(ctx, rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2)):
                c = c * Poly.var(ctx, rng.choice(ctx.base))
        else:
            J = ()
            K = tuple(sorted(rng.sample(range(ctx.p, ctx.p + ctx.q),
                                        min(qi, ctx.q))))
            c = Poly.const(ctx, rng.randint(-3, 3))
            for _ in range(rng.randint(0, max_fiber_deg)):
                c = c * Poly.var(ctx, rng.choice(ctx.vars))
        items.append(((I, J, K), rf(c)))
    return MixedElement.from_terms(ctx, items)


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    ctx = ChartContext(base=["x1", "x2"], fiber=["y1", "y2"])
    n = 50

    # Schouten: graded antisymmetry + Jacobi
    rng = random.Random(5001)
    for _ in range(n):
        du, dv, dw = (rng.randint(0, 2) for _ in range(3))
        u, v, w = (_random_mv(rng, ctx, d) for d in (du, dv, dw))
        su, sv = du - 1, dv - 1
        assert (schouten(u, v) +
                schouten(v, u).scale(Q(-1) ** (su * sv))).is_zero()
        jac = schouten(u, schouten(v, w)) - schouten(schouten(u, v), w) - \
            schouten(v, schouten(u, w)).scale(Q(-1) ** (su * sv))
        assert jac.is_zero()

    # ltimes: graded antisymmetry + Jacobi on valid homogeneous triples
    rng = random.Random(5003)
    done = 0
    while done < n:
        bids = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)]
        u, v, w = (_random_tilde(rng, ctx, bidegree=b) for b in bids)
        if u.is_zero() or v.is_zero() or w.is_zero():
            continue
        done += 1
        du, dv = bids[0][0] + bids[0][1] - 1, bids[1][0] + bids[1][1] - 1
        assert (ltimes_bracket(u, v) +
                ltimes_bracket(v, u).scale(Q(-1) ** (du * dv))).is_zero()
        jac = ltimes_bracket(u, ltimes_bracket(v, w)) - \
            ltimes_bracket(ltimes_bracket(u, v), w) - \
            ltimes_bracket(v, ltimes_bracket(u, w)).scale(Q(-1) ** (du * dv))
        assert jac.is_zero()

    # Newton formula
    rng = random.Random(5005)
    for _ in range(n):
        u = _random_tilde(rng, ctx)
        v = _random_tilde(rng, ctx)
        br = ltimes_bracket(u, v)
        l = rng.randint(0, 3)
        rhs = MixedElement.zero(ctx)
        for a in range(l + 2):
            rhs = rhs + ltimes_bracket(ds_n(u, a), ds_n(v, l + 1 - a))
        assert ds_n(br, l) == rhs

    # L_gamma_S = d on base forms
    rng = random.Random(5007)
    gs = gamma_S(ctx)
    for _ in range(n):
        key = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
        c = Poly.var(ctx, "x1") ** rng.randint(0, 2) * \
            Poly.var(ctx, "x2") ** rng.randint(0, 2) * Q(rng.randint(-3, 3))
        omega = DiffForm(ctx, {key: rf(c)} if not c.is_zero() else {})
        assert ltimes_bracket(gs, mixed_from_base_form(omega)) == \
            mixed_from_base_form(exterior_derivative(omega))

    # base forms are a central ideal
    rng = random.Random(5009)
    for _ in range(n):
        key = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
        omega = MixedElement.from_terms(
            ctx, [((key, (), ()),
                   rf(Poly.var(ctx, "x1") ** rng.randint(0, 2) *
                      Q(rng.randint(-2, 2))))])
        vert = _random_tilde(rng, ctx).vertical_part()
        if not vert.is_zero():
            assert ltimes_bracket(vert, omega).is_zero()
        u = _random_tilde(rng, ctx, bidegree=(rng.randint(0, 2), 1))
        assert ltimes_bracket(u, omega) == ltimes_bracket(p_S(u), omega)

    # dilation is an automorphism; phi_r o phi_s = phi_rs
    ctx_t = ctx.with_param("t")
    t = RatFunc.var(ctx_t, "t")
    ctx_rs = ctx.with_param("r1").with_param("s1")
    r1 = RatFunc.var(ctx_rs, "r1")
    s1 = RatFunc.var(ctx_rs, "s1")
    rng = random.Random(5011)
    for _ in range(n):
        u = _random_tilde(rng, ctx_t)
        v = _random_tilde(rng, ctx_t)
        assert dilation(ltimes_bracket(u, v), t) == \
            ltimes_bracket(dilation(u, t), dilation(v, t))
        w = _random_tilde(rng, ctx_rs)
        assert dilation(dilation(w, s1), r1) == dilation(w, r1 * s1)

    # d^n_S lands in gr_n
    rng = random.Random(5013)
    for _ in range(n):
        u = _random_tilde(rng, ctx_t)
        nn = rng.randint(0, 3)
        d = ds_n(u, nn)
        if d.is_zero():
            continue
        assert dilation(d, t) == d.scale(t ** (nn - 1))

    # graded differential squares to zero for l in {0,1,2}
    rng = random.Random(5017)
    gamma = decompose(so3_product())
    delta = ds_n(gamma.mixed, 1)
    reps = 0
    while reps < n:
        level = reps % 3
        d = graded_differential(delta, level)
        K = tuple(sorted(rng.sample(range(2, 5), rng.randint(0, 2))))
        I = tuple(sorted(rng.sample(range(2), rng.randint(0, 2))))
        c = Poly.const(CTX3, rng.randint(1, 3)) * \
            Poly.var(CTX3, rng.choice(CTX3.base)) ** rng.randint(0, 1)
        for _ in range(level):
            c = c * Poly.var(CTX3, rng.choice(CTX3.fiber))
        u = MixedElement.from_terms(CTX3, [((I, (), K), rf(c))])
        if u.is_zero():
            continue
        reps += 1
        assert ltimes_bracket(delta, d(u)).is_zero()

    # algebroid Jacobi for the so(3) product on random section triples
    rng = random.Random(5019)
    data = algebroid_from_jet(decompose(so3_product()))
    frame = data.frame()
    for _ in range(n):
        picks = []
        for _ in range(3):
            base = rng.choice(frame)
            f = rf(Poly.var(CTX3, rng.choice(CTX3.base)) ** rng.randint(0, 1) *
                   Q(rng.randint(1, 2)))
            picks.append(base.scale(f))
        assert data.jacobi_residual(*picks).is_zero()

    _done(11, "property suites, >= 50 randomized instances each", t0, 300)


# --- 12 ---------------------------------------------------------------------------------------

def test_criterion_12_cli_pipeline():
    t0 = time.monotonic()
    path = leafnorm.sphere_pipeline_path()
    res1 = subprocess.run([sys.executable, "-m", "leafnorm.cli", "run", path],
                          capture_output=True, text=True)
    res2 = subprocess.run([sys.executable, "-m", "leafnorm.cli", "run", path],
                          capture_output=True, text=True)
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout
    doc = json.loads(res1.stdout)
    assert doc["version"] == 1
    assert all(rec["ok"] for rec in doc["commands"])
    check = subprocess.run([sys.executable, "-m", "leafnorm.cli", "check",
                            path], capture_output=True, text=True)
    assert check.returncode == 0
    _done(12, "shipped sphere pipeline: exit 0, byte-deterministic JSON",
          t0, 60)
