import random

import pytest

from leafnorm.errors import SingularAtZeroSection, UnknownVariable, ZeroDenominator
from leafnorm.rational import (
    ChartContext, Poly, Q, RatFunc, fiber_taylor, partial_derive,
    poly_exact_div, poly_gcd, ratfunc_normalize,
)


CTX = ChartContext(base=["x", "y"], fiber=["y1", "y2", "y3"])


def rf(expr_num, expr_den=None):
    if expr_den is None:
        return RatFunc.from_poly(expr_num)
    return ratfunc_normalize(expr_num, expr_den)


def v(name, ctx=CTX):
    return Poly.var(ctx, name)


def c(value, ctx=CTX):
    return Poly.const(ctx, value)


def random_poly(rng, ctx, deg=2, nterms=3):
    out = Poly.zero(ctx)
    for _ in range(nterms):
        mono = Poly.one(ctx)
        for _ in range(rng.randint(0, deg)):
            mono = mono * Poly.var(ctx, rng.choice(ctx.vars))
        out = out + mono * Q(rng.randint(-4, 4))
    return out


# --- ratfunc_normalize ------------------------------------------------------

def test_normalize_gcd_cancellation():
    x = v("x")
    f = rf(x * x - 1, x - 1)
    assert f == rf(x + 1)
    assert str(f) == "x + 1"


def test_normalize_zero_numerator():
    assert rf(c(0), c(7)).is_zero()
    assert str(rf(c(0), c(7))) == "0"


def test_normalize_multivariate_gcd_derived():
    # (2x^2 y) / (4xy) -> x/2; cross-checked by evaluation at 5 random points
    x, y = v("x"), v("y")
    f = rf(2 * x * x * y, 4 * x * y)
    assert f == rf(x, c(2))
    rng = random.Random(7)
    for _ in range(5):
        ax, ay = Q(rng.randint(1, 30)), Q(rng.randint(1, 30))
        num = 2 * ax * ax * ay
        den = 4 * ax * ay
        got = f.substitute({"x": ax, "y": ay})
        assert got.const_value() == num / den


def test_normalize_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        ratfunc_normalize(v("x"), c(0))


def test_canonical_form_is_representation_equality():
    x, y = v("x"), v("y")
    a = rf(x * y + y, y)          # x + 1
    b = rf(x * x - 1, x - 1)      # x + 1
    assert a == b
    # positive leading denominator coefficient
    f = rf(x, -2 * (x - 1))
    assert f.den.leading_coeff() > 0


def test_fraction_field_identity_random():
    # a/b + c/d - (ad + bc)/(bd) == 0
    rng = random.Random(3)
    for _ in range(25):
        a, b, cc, d = (random_poly(rng, CTX) for _ in range(4))
        if b.is_zero() or d.is_zero():
            continue
        lhs = rf(a, b) + rf(cc, d) - rf(a * d + cc * b, b * d)
        assert lhs.is_zero()


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        a, b, cc = (random_poly(rng, CTX) for _ in range(3))
        assert (a * b) * cc == a * (b * cc)
        assert a * (b + cc) == a * b + a * cc
        assert a + b == b + a


# --- partial_derive --------------------------------------------------------

def test_partial_basics():
    x, y = v("x"), v("y")
    assert partial_derive(rf(x * x * y), "x") == rf(2 * x * y)
    assert partial_derive(rf(x), "y").is_zero()


def test_partial_quotient_rule():
    x = v("x")
    f = rf(c(1), 1 + x * x)
    assert partial_derive(f, "x") == rf(-2 * x, (1 + x * x) ** 2)


def test_partial_unknown_variable():
    with pytest.raises(UnknownVariable):
        partial_derive(rf(v("x")), "zz")


def test_partial_secant_oracle():
    # independent oracle: ((f(x+h) - f(x))/h) evaluated at h = 0 equals f'
    ctx = ChartContext(base=["x", "h"], fiber=[])
    x, h = Poly.var(ctx, "x"), Poly.var(ctx, "h")
    rng = random.Random(5)
    for _ in range(10):
        numv = Poly.zero(ctx)
        for _ in range(3):
            numv = numv + Q(rng.randint(-4, 4)) * x ** rng.randint(0, 3)
        f = rf(numv, 1 + x * x)
        shifted = f.substitute({"x": RatFunc.from_poly(x + h)})
        secant = (shifted - f) / RatFunc.from_poly(h)
        at_zero = secant.substitute({"h": Q(0)})
        assert at_zero == partial_derive(f, "x")


# --- fiber_taylor -----------------------------------------------------------

def test_fiber_taylor_sphere_radius():
    y1, y2, y3 = v("y1"), v("y2"), v("y3")
    r2 = y1 * y1 + y2 * y2 + y3 * y3
    f = rf(c(1), 1 + r2)
    assert fiber_taylor(f, 2) == rf(1 - r2)


def test_fiber_taylor_idempotent_on_polynomials():
    x, y1 = v("x"), v("y1")
    f = rf(x * y1 * y1 + 3 * y1 + x)
    assert fiber_taylor(f, 2) == f
    assert fiber_taylor(f, 5) == f


def test_fiber_taylor_geometric():
    y1 = v("y1")
    f = rf(c(1), 1 - y1)
    assert fiber_taylor(f, 3) == rf(1 + y1 + y1 * y1 + y1 * y1 * y1)


def test_fiber_taylor_singular():
    y1 = v("y1")
    with pytest.raises(SingularAtZeroSection):
        fiber_taylor(rf(c(1), y1), 1)


def test_fiber_taylor_tail_order_property():
    # fiber_taylor(f, n) - f has fiber order > n after clearing denominators
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(0, 3)
        numv = random_poly(rng, CTX, deg=2)
        y1 = v("y1")
        den = 1 + y1 * random_poly(rng, CTX, deg=1)
        if den.eval_fiber_zero().is_zero() or den.is_zero():
            continue
        f = rf(numv, den)
        diff = fiber_taylor(f, n) - f
        for mono in diff.num.terms:
            lo = CTX.nparams + CTX.p
            assert sum(mono[lo:]) > n


def test_fiber_homogeneous_part():
    y1, x = v("y1"), v("x")
    f = rf(x + y1 + x * y1 * y1)
    assert f.fiber_homogeneous_part(0) == rf(x)
    assert f.fiber_homogeneous_part(1) == rf(y1)
    assert f.fiber_homogeneous_part(2) == rf(x * y1 * y1)


# --- gcd / exact division internals ----------------------------------------

def test_poly_gcd_random_products():
    rng = random.Random(23)
    for _ in range(15):
        a = random_poly(rng, CTX, deg=1, nterms=2)
        b = random_poly(rng, CTX, deg=1, nterms=2)
        g = random_poly(rng, CTX, deg=1, nterms=2)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        d = poly_gcd(a * g, b * g)
        # g divides the gcd
        assert poly_exact_div(d, poly_gcd(d, g)) is not None
        assert poly_exact_div(a * g, d) is not None
        assert poly_exact_div(b * g, d) is not None


def test_exact_div_detects_non_divisibility():
    x, y = v("x"), v("y")
    assert poly_exact_div(x * x - 1, x - 1) == x + 1
    assert poly_exact_div(x * x - 1, y) is None
    # division is in Z[x]: 2x - 2 divides x^2 - 1 only over Q
    assert poly_exact_div(x * x - 1, 2 * x - 2) is None
    assert poly_exact_div(2 * x * x - 2, 2 * x - 2) == x + 1


def test_poly_coefficients_are_integers():
    x = v("x")
    assert Poly.const(CTX, Q(6, 3)) == 2
    assert x * Q(4, 2) == 2 * x
    with pytest.raises(ValueError, match="RatFunc.const"):
        Poly.const(CTX, Q(1, 2))
    with pytest.raises(ValueError, match="RatFunc.const"):
        x * Q(1, 2)
    half = RatFunc.const(CTX, Q(-1, 2))
    assert (str(half.num), str(half.den)) == ("-1", "2")
    assert half.const_value() == Q(-1, 2)


# --- casting / substitution -------------------------------------------------

def test_cast_and_restrict_roundtrip():
    ctx2 = CTX.with_param("t")
    x = v("x")
    f = rf(x + 1, x - 2)
    g = f.cast(ctx2)
    assert g.restrict(CTX) == f
    t = RatFunc.var(ctx2, "t")
    h = g * t
    with pytest.raises(UnknownVariable):
        h.restrict(CTX)


def test_scale_fiber():
    ctx2 = CTX.with_param("t")
    y1 = Poly.var(ctx2, "y1")
    x = Poly.var(ctx2, "x")
    t = Poly.var(ctx2, "t")
    f = rf(x + y1 * y1)
    assert f.scale_fiber_by_var("t") == rf(x + t * t * y1 * y1)


def test_print_determinism_and_reparse_shape():
    x, y = v("x"), v("y")
    f = rf(-2 * x * y + y, (1 + x * x) ** 2)
    s1 = str(f)
    s2 = str(rf(-2 * x * y + y, (1 + x * x) ** 2))
    assert s1 == s2
    assert "/" in s1 and "(" in s1
