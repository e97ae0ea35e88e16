import random
import sys

import pytest

import leafnorm
from leafnorm import dsl, interp, rational
from leafnorm.errors import (
    ContextMismatch, LimitExceeded, NonRationalInput, SingularAtZeroSection,
    UnknownVariable, ZeroDenominator,
)
from leafnorm.models import (
    LieAlgebraData, lattice_discreteness, monodromy, sphere_example,
    sphere_period_model,
)
from leafnorm.omega import MixedElement, dilation, jet_n
from leafnorm.rational import (
    MAX_DEGREE, ChartContext, Poly, Q, RatFunc, poly_exact_div, poly_gcd,
    ratfunc_normalize,
)
from leafnorm.smith import rational_rank
from leafnorm.vorobjev import decompose, moser_at, moser_path


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: ChartContext(["x"], ["x"]), ValueError,
     "duplicate variable names in chart"),
    (lambda: ChartContext(["x"], [""]), ValueError,
     "variable names must be nonempty strings"),
    (lambda: CTX.pack((1, 0)), ValueError, "bad exponent vector (1, 0)"),
    (lambda: CTX.pack((0, -1, 0, 0, 0)), ValueError,
     "bad exponent vector (0, -1, 0, 0, 0)"),
    (lambda: CTX.with_param("y1"), ValueError,
     "variable 'y1' already in chart"),
    (lambda: v("x").const_value(), ValueError, "not a constant polynomial"),
    (lambda: v("x") ** -1, ValueError, "negative power of Poly"),
    (lambda: poly_exact_div(v("x"), c(0)), ZeroDivisionError,
     "polynomial division by zero"),
    (lambda: rf(v("x")) / 0, ZeroDenominator,
     "division by zero rational function"),
], ids=["duplicate-name", "empty-name", "short-exponents",
        "negative-exponent", "param-in-chart", "not-constant",
        "negative-power", "division-by-zero-poly",
        "division-by-zero-ratfunc"])
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)


def test_zero_has_total_degree_minus_one():
    assert Poly.zero(CTX).total_degree() == -1
    assert (v("x") * v("y1") + 1).total_degree() == 2


def test_chart_hashes_by_its_variables_and_prints_them():
    same = ChartContext(base=["x", "y"], fiber=["y1", "y2", "y3"])
    assert same == CTX and hash(same) == hash(CTX)
    assert repr(ChartContext(base=["u"], fiber=["y"], params=["t"])) == (
        "ChartContext(base=['u'], fiber=['y'], params=['t'])")


def test_a_string_is_not_a_polynomial_or_function():
    # __eq__ answers NotImplemented, and Python falls back to identity
    assert (v("x") == "x") is False
    assert (rf(v("x")) == "x") is False


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


def schoolbook(a, b):
    """The terms of a * b from every term pair, zero sums dropped."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _partners(rng, a):
    """Right operands for a: the square cases (a, an equal copy in the
    reverse order, -a), its near misses (one coefficient changed, 2a) and
    unrelated and single-term operands."""
    yield a
    yield Poly(a.ctx, dict(reversed(list(a.terms.items()))))
    yield -a
    if a.terms:
        changed = dict(a.terms)
        m = rng.choice(sorted(changed))
        changed[m] += 1
        yield Poly(a.ctx, {m: c for m, c in changed.items() if c})
    yield 2 * a
    yield random_poly(rng, a.ctx, deg=3, nterms=5)
    yield -3 * v(rng.choice(a.ctx.vars), a.ctx) ** 2
    yield c(5, a.ctx)


def test_product_matches_schoolbook_oracle():
    rng = random.Random(25)
    x, y = v("x"), v("y")
    # the cross terms cancel the diagonal x^2 y^2 of (x^2 + 2xy - 2y^2)^2
    cancel = x * x + 2 * x * y - 2 * y * y
    assert cancel * cancel == (x ** 4 + 4 * x ** 3 * y - 8 * x * y ** 3
                               + 4 * y ** 4)
    # ... and a later pair brings it back: x^2 y^2 + 1 comes after the
    # terms whose products cancel it
    back = Poly(CTX, dict(list(cancel.terms.items())
                          + list((x * x * y * y + 1).terms.items())))
    polys = [cancel, back, 1 + x, x - y]
    polys += [random_poly(rng, CTX, deg=3, nterms=rng.randint(2, 8))
              for _ in range(40)]
    for a in polys:
        for b in _partners(rng, a):
            for p, q in ((a, b), (b, a)):
                assert (p * q).terms == schoolbook(p, q)


def test_squares_take_the_square_path(monkeypatch):
    signs = []
    square = rational._square

    def spy(terms, sign):
        signs.append(sign)
        return square(terms, sign)

    monkeypatch.setattr(rational, "_square", spy)
    a = 1 + v("x") + v("y") * v("y1")
    a * (a + 1)
    a * (2 * a)
    a * v("x")
    assert signs == []
    assert (a ** 2).terms == schoolbook(a, a)
    assert signs == [1]
    # the x^2 y^2 terms of (2xy)^2 and of 2 (x^2)(-2y^2) cancel
    x, y = v("x"), v("y")
    p = 2 * x * y + x * x - 2 * y * y
    pp = p * p
    assert pp.terms == schoolbook(p, p)
    assert pp == x * x * x * x + 4 * x * x * x * y - 8 * x * y * y * y \
        + 4 * y * y * y * y
    assert signs == [1, 1]
    del signs[:]
    # the determinant of the sphere's 2x2 horizontal block is (-a) a
    decompose(sphere_example(True))
    assert -1 in signs


# --- RatFunc.derivative -----------------------------------------------------

def test_partial_basics():
    x, y = v("x"), v("y")
    assert rf(x * x * y).derivative("x") == rf(2 * x * y)
    assert rf(x).derivative("y").is_zero()


def test_partial_quotient_rule():
    x, y = v("x"), v("y")
    f = rf(c(1), 1 + x * x)
    assert f.derivative("x") == rf(-2 * x, (1 + x * x) ** 2)
    # d = y (x+1) splits into the content c = y and r = x+1, and
    # n'r - nr' = -y shares the factor y of c
    f = rf(x + 1 + y, y * (x + 1))
    assert f.derivative("x") == rf(c(-1), (x + 1) ** 2)


def test_derivative_by_a_variable_the_denominator_lacks(monkeypatch):
    # (n/d)' = n'/d: one gcd against d, and d is never squared
    x, y, y1 = v("x"), v("y"), v("y1")
    n, d = x * y * y + y1, 1 + x * x + y1
    f = rf(n, d)
    squares = []
    mul = Poly.__mul__

    def spy(a, b):
        if isinstance(b, Poly) and a.terms == d.terms == b.terms:
            squares.append(a)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", spy)
    fy = f.derivative("y")
    monkeypatch.undo()
    assert not squares
    assert fy == rf(2 * x * y, d)
    assert rf(y1, d).derivative("y").is_zero()


def test_uncertified_content_is_found_by_gcd(monkeypatch):
    # the coefficients y^2 + y and y^2 + 2y of x share the content y, but
    # neither divides the other: the gcd of the two finds it, and the rule
    # still never forms d * d
    x, y = v("x"), v("y")
    d = x * y * (y + 1) + y * (y + 2)
    gcds = []
    gcd = rational.poly_gcd

    def gcd_spy(a, b):
        gcds.append(sys._getframe(1).f_code.co_name)
        return gcd(a, b)

    monkeypatch.setattr(rational, "poly_gcd", gcd_spy)
    assert rational._content_free_part(d, CTX.var_index("x")) == \
        (y, x * y + x + y + 2)
    assert gcds == ["_content_free_part"]
    f = rf(c(1), d)
    squares = []
    mul = Poly.__mul__

    def spy(a, b):
        if isinstance(b, Poly) and a.terms == d.terms == b.terms:
            squares.append(a)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", spy)
    fx = f.derivative("x")
    monkeypatch.undo()
    assert not squares
    assert fx == rf(-(y * y + y), d * d)


def test_content_gcd_work_does_not_depend_on_term_order(monkeypatch):
    # the coefficients y^2 - 1 and y + 1 of x^2 and x tie on two terms; the
    # tie is broken by value, so both term orders take the same gcd calls
    x, y = v("x"), v("y")
    d = x * x * (y * y - 1) + x * (y + 1)
    reverse = Poly(CTX, dict(reversed(list(d.terms.items()))))
    assert reverse == d and list(reverse.terms) != list(d.terms)
    calls = []
    gcd = rational.poly_gcd

    def gcd_spy(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(rational, "poly_gcd", gcd_spy)
    counts = []
    for p in (d, reverse):
        calls.clear()
        assert rational._content_free_part(p, CTX.var_index("x")) == \
            (y + 1, x * x * y - x * x + x)
        counts.append(list(calls))
    assert counts[0] == counts[1]


def _sphere_quotient_rule_inputs():
    """(f, name) of every derivative the shipped sphere pipeline takes whose
    denominator depends on the variable."""
    with open(leafnorm.sphere_pipeline_path(), encoding="utf-8") as fh:
        program = dsl.parse(fh.read())
    seen = []
    derivative = RatFunc.derivative

    def spy(f, name):
        seen.append((f, name))
        return derivative(f, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RatFunc, "derivative", spy)
        interp.execute(program)
    return [(f, name) for f, name in seen
            if f.den.depends_on(f.ctx.var_index(name))]


def test_quotient_rule_never_squares_the_denominator(monkeypatch):
    # the deformed sphere's denominators, such as (1+u^2+v^2)^2 (1+|y|^2),
    # are the ones in base and fiber variables; each has a factor free of
    # the variable, so d * d is never the result's denominator either
    inputs = [(f, name) for f, name in _sphere_quotient_rule_inputs()
              if f.den.depends_on_fiber()
              and any(f.den.depends_on(f.ctx.var_index(b))
                      for b in f.ctx.base)]
    assert inputs
    squares = []
    mul = Poly.__mul__
    d = None

    def spy(a, b):
        if isinstance(b, Poly) and a.terms == d.terms == b.terms:
            squares.append(a)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", spy)
    for f, name in inputs:
        d = f.den
        f.derivative(name)
    assert not squares


def test_quotient_rule_takes_one_gcd_with_the_denominator(monkeypatch):
    # every quotient-rule derivative of the pipeline, whose content split
    # is certified: the gcd operand is d, not d * d
    inputs = _sphere_quotient_rule_inputs()
    calls = []
    gcd = rational.poly_gcd

    def spy(a, b):
        calls.append(b)
        return gcd(a, b)

    monkeypatch.setattr(rational, "poly_gcd", spy)
    for f, name in inputs:
        calls.clear()
        f.derivative(name)
        assert len(calls) == 1
        assert calls[0] == f.den


def test_partial_unknown_variable():
    with pytest.raises(UnknownVariable):
        rf(v("x")).derivative("zz")


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
        assert at_zero == f.derivative("x")


# --- the fiber Taylor polynomial: the jet of a scalar ------------------------

def fiber_taylor(f, n):
    """The fiber-degree <= n Taylor polynomial of f at the zero section."""
    return jet_n(MixedElement.scalar(f), n).scalar_value()


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


def test_fiber_taylor_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        fiber_taylor(rf(v("y1")), -1)


def test_fiber_taylor_tail_order_property():
    # fiber_taylor(f, n) - f has fiber order > n after clearing denominators
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(0, 3)
        numv = random_poly(rng, CTX, deg=2)
        y1 = v("y1")
        den = 1 + y1 * random_poly(rng, CTX, deg=1)
        if 0 not in den.fiber_parts():
            continue
        f = rf(numv, den)
        diff = fiber_taylor(f, n) - f
        for mono, _ in diff.num.exponents():
            lo = CTX.nparams + CTX.p
            assert sum(mono[lo:]) > n


def test_fiber_homogeneous_part():
    y1, x = v("y1"), v("x")
    f = rf(x + y1 + x * y1 * y1)
    assert f.fiber_homogeneous_part(0) == rf(x)
    assert f.fiber_homogeneous_part(1) == rf(y1)
    assert f.fiber_homogeneous_part(2) == rf(x * y1 * y1)


def test_fiber_homogeneous_part_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="^fiber degree must be >= 0$"):
        rf(v("y1")).fiber_homogeneous_part(-1)


# --- gcd / exact division internals ----------------------------------------

def test_poly_gcd_random_products():
    rng = random.Random(23)
    for _ in range(15):
        a = random_poly(rng, CTX, deg=1, nterms=2)
        b = random_poly(rng, CTX, deg=1, nterms=2)
        g = random_poly(rng, CTX, deg=1, nterms=2)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        d = poly_gcd(a * g, b * g)[0]
        # g divides the gcd
        assert poly_exact_div(d, poly_gcd(d, g)[0]) is not None
        assert poly_exact_div(a * g, d) is not None
        assert poly_exact_div(b * g, d) is not None


def test_exact_div_detects_non_divisibility():
    x, y = v("x"), v("y")
    assert poly_exact_div(x * x - 1, x - 1) == x + 1
    assert poly_exact_div(x * x - 1, y) is None
    # division is in Z[x]: 2x - 2 divides x^2 - 1 only over Q
    assert poly_exact_div(x * x - 1, 2 * x - 2) is None
    assert poly_exact_div(2 * x * x - 2, 2 * x - 2) == x + 1


def test_exact_div_remainder_monomial_cancels_and_returns():
    # dividing a*b by b cancels the remainder's x*y^4 and brings it back
    # later, leaving a stale heap entry behind
    x, y = v("x"), v("y")
    a = 2 * x * y ** 3 + x * y * y - y * y
    b = x * y * y + y * y - y
    assert poly_exact_div(a * b, b) == a
    assert poly_exact_div(a * b + x * y ** 3, b) is None


def test_poly_gcd_keeps_integer_content_out_of_the_images():
    # the images of f at integer points share integer content; the heuristic
    # gcd must take it out before each evaluation and put it back
    ctx = ChartContext(base=["u", "v"], fiber=["y1", "y2", "y3"])
    u, v_, y1, y2, y3 = (Poly.var(ctx, n) for n in ctx.vars)
    f = (1 + u * u + v_ * v_) ** 2 * (1 + y1 * y1 + y2 * y2 + y3 * y3)
    assert poly_gcd(f, -f) == (f, 1, -1)
    assert poly_gcd(3 * f, 6 * f) == (f, 3, 6)


def test_heuristic_gives_up_after_its_points(monkeypatch):
    # when no point's candidate divides, the heuristic tries _HEU_POINTS
    # points and gives up, and the PRS still finds the canonical answer
    x = v("y1")
    f, g = (x + 1) * (x + 2), (x + 1) * (x + 3)
    expected = poly_gcd(f, g)
    assert expected == (x + 1, x + 2, x + 3)
    candidates, prs, calls = [], rational._prs, []

    def non_divisor(h, var, xi):
        candidates.append(xi)
        return x + 5

    def prs_spy(*args):
        calls.append(args)
        return prs(*args)

    monkeypatch.setattr(rational, "_xi_adic", non_divisor)
    monkeypatch.setattr(rational, "_prs", prs_spy)
    assert rational._heu_gcd(f, g) is None
    assert len(candidates) == rational._HEU_POINTS
    assert calls == []
    assert poly_gcd(f, g) == expected
    assert len(calls) == 1


def test_divisor_pre_check_skips_the_heuristic(monkeypatch):
    # gcd(F, F Q) is F by one trial division: the heuristic never evaluates
    # the large operand
    x, y, y1, y2 = v("x"), v("y"), v("y1"), v("y2")
    F = y2 * y2 - 3 * x * y1 + 2
    Q_ = (1 + x * x + y * y + y1 * y1 + y2 * y2) ** 3 - 7 * y
    evaluated = []
    evaluate = Poly.evaluate

    def spy(p, point):
        evaluated.append(p)
        return evaluate(p, point)

    monkeypatch.setattr(Poly, "evaluate", spy)
    assert poly_gcd(F, F * Q_) == (F, 1, Q_)
    assert poly_gcd(-2 * y * F * Q_, 6 * x * F) == (F, -2 * y * Q_, 6 * x)
    assert not evaluated


# primitive, monomial-stripped pairs where the operand with fewer terms does
# not divide the other, and the gate each is named after keeps it from a
# division (the leading terms are tested by the division itself)
NON_DIVISORS = {
    "value at 2": (3 * v("x") ** 2 - 1, (3 * v("x") ** 2 + 1) ** 2),
}


@pytest.mark.parametrize("gate", sorted(NON_DIVISORS))
def test_divisor_pre_check_gates(monkeypatch, gate):
    f, g = NON_DIVISORS[gate]
    divisions = []
    monkeypatch.setattr(rational, "poly_exact_div",
                        lambda a, b: divisions.append((a, b)))
    assert rational._trial_divisor(f, g) is None
    assert rational._trial_divisor(g, f) is None
    assert not divisions


def test_divisor_pre_check_bounds_the_value_gate(monkeypatch):
    # the "value at 2" row with x -> x^n: a value at 2 has about 4n bits, so
    # past the heuristic's bound on its integers the gate is skipped and the
    # division decides
    x = v("x")
    divisions = []
    exact_div = rational.poly_exact_div

    def spy(a, b):
        divisions.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(rational, "poly_exact_div", spy)
    for n, divided in ((rational._HEU_MAX_BITS // 4, False),
                       (rational._HEU_MAX_BITS // 4 + 1, True)):
        f = 3 * x ** (2 * n) - 1
        assert rational._trial_divisor(f, (3 * x ** (2 * n) + 1) ** 2) is None
        assert bool(divisions) == divided


RS = ChartContext(base=["u", "r", "s"], fiber=["y1", "y2"])


def _refuse_heuristic(monkeypatch):
    def refuse(f, g):
        raise AssertionError("_heu_gcd called on %s, %s" % (f, g))
    monkeypatch.setattr(rational, "_heu_gcd", refuse)


def test_coprimality_certificate_settles_a_coprime_pair(monkeypatch):
    # 4r + 3 does not divide r^2 + 1, and the images 4 xi + 3 and xi^2 + 1
    # have a gcd of at most 25, far below xi/2: no heuristic
    r = v("r", RS)
    f, g = 4 * r + 3, r * r + 1
    _refuse_heuristic(monkeypatch)
    h, qf, qg = poly_gcd(f, g)
    assert (h, qf, qg) == (1, f, g)
    assert qf is f and qg is g


def test_coprimality_certificate_declines_colliding_images(monkeypatch):
    # 2 r^2 s^2 + r^2 + s^2 is prime to (r^2 + 1)(s^2 + 1), but under
    # r -> X, s -> X^3 both images are multiples of X^2 + 1, whose value
    # passes xi/2: the certificate declines and the heuristic answers 1
    r, s = v("r", RS), v("s", RS)
    f, g = 2 * r * r * s * s + r * r + s * s, (r * r + 1) * (s * s + 1)
    assert rational._coprime(f, g) is None
    heu, calls = rational._heu_gcd, []

    def spy(*args):
        calls.append(args)
        return heu(*args)

    monkeypatch.setattr(rational, "_heu_gcd", spy)
    assert poly_gcd(f, g) == (1, f, g)
    assert calls


def test_coprimality_certificate_keeps_the_monomial_gcd(monkeypatch):
    # the certificate settles u + 1 against y2 + 3, and the monomial gcd
    # u y1 and the cofactors come from the operands it was handed
    u, y1, y2 = v("u", RS), v("y1", RS), v("y2", RS)
    _refuse_heuristic(monkeypatch)
    assert poly_gcd(u * y1 * (u + 1), u * y1 * (y2 + 3)) == \
        (u * y1, u + 1, y2 + 3)
    assert poly_gcd(-6 * u * u * y1 * (u + 1), 4 * u * y1 * y1 * (y2 + 3)) \
        == (u * y1, -6 * u * (u + 1), 4 * y1 * (y2 + 3))


def _refuse_exponent_tuples(monkeypatch):
    def refuse(ctx, arg):
        raise AssertionError("exponent tuple of %r" % (arg,))
    monkeypatch.setattr(ChartContext, "pack", refuse)
    monkeypatch.setattr(ChartContext, "unpack", refuse)


def test_monomial_gcd_reads_packed_monomials(monkeypatch):
    # the single-term triage and the general path's operands take their
    # monomial gcds from the packed monomials, with no exponent tuple
    u, y1, y2 = v("u", RS), v("y1", RS), v("y2", RS)
    _refuse_exponent_tuples(monkeypatch)
    general = poly_gcd(u * y1 * (u + 1), u * y1 * (y2 + 3))
    single = poly_gcd(3 * u * y1 * y1, u * y1 * (y2 + 3))
    monkeypatch.undo()
    assert general == (u * y1, u + 1, y2 + 3)
    assert single == (u * y1, 3 * y1, y2 + 3)


def test_quotient_rule_content_reads_packed_monomials(monkeypatch):
    # the coefficients y^2 + y and y^2 + 2y of x are not constant, so the
    # content split takes mu and e, and a gcd, from packed monomials
    x, y = v("x"), v("y")
    d = x * y * (y + 1) + y * (y + 2)
    f, expect = rf(c(1), d), rf(-(y * y + y), d * d)
    _refuse_exponent_tuples(monkeypatch)
    fx = f.derivative("x")
    monkeypatch.undo()
    assert fx == expect


def test_fiber_parts_read_packed_monomials(monkeypatch):
    x, y1, y2 = v("x"), v("y1"), v("y2")
    p = x * y1 * y2 + 3 * y1 + x * x
    _refuse_exponent_tuples(monkeypatch)
    parts = p.fiber_parts()
    monkeypatch.undo()
    assert parts == {0: x * x, 1: 3 * y1, 2: x * y1 * y2}


def test_poly_gcd_bounds_the_heuristic_on_sparse_high_degree(monkeypatch):
    # the images of f and g at integer points grow with the product of the
    # degrees over the levels; without a bound the third level would raise
    # a 20000-bit point to the power 100 and the fourth hang in math.gcd
    ctx = ChartContext(base=["u", "v"], fiber=["y1", "y2"])
    u, v_, y1, y2 = (Poly.var(ctx, n) for n in ctx.vars)
    f = (u * v_ * y1 * y2) ** 100 + 1
    g = u ** 100 + v_ ** 100 + y1 ** 100 + y2 ** 100
    evaluate = Poly.evaluate

    def bounded(p, point):
        (x, xi), = point.items()
        assert xi.bit_length() * max(m[x] for m, _ in p.exponents()) \
            < 10 ** 5
        return evaluate(p, point)

    monkeypatch.setattr(Poly, "evaluate", bounded)
    assert poly_gcd(f, g) == (1, f, g)
    assert poly_gcd(f * (u + y2), g * (u + y2)) == (u + y2, f, g)


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


def test_poly_const_names_a_non_rational_type():
    # a float, a string or None is a type error, not an AttributeError on
    # its missing denominator; a non-integral Fraction stays a ValueError
    for value, name in ((1.5, "float"), ("2", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=name):
            Poly.const(CTX, value)
    with pytest.raises(ValueError, match="RatFunc.const"):
        Poly.const(CTX, Q(3, 2))
    assert Poly.const(CTX, True) == 1


def test_rationals_at_the_boundary_are_fractions():
    # fractions loads on first use, but the API's rationals are the same
    from fractions import Fraction
    assert leafnorm.Q is Fraction and rational.Q is Fraction
    from leafnorm import Q as package_q
    assert package_q is Fraction
    with pytest.raises(AttributeError):
        leafnorm.P
    with pytest.raises(AttributeError):
        rational.P
    for value in (Fraction(-1, 2), 3, 0):
        got = RatFunc.const(CTX, value).const_value()
        assert type(got) is Fraction and got == Fraction(value)
    # a string or a float is not read as a rational
    for value, name in (("5/10", "str"), (0.25, "float")):
        with pytest.raises(TypeError, match=name):
            RatFunc.const(CTX, value)
    assert RatFunc.half(CTX) == RatFunc.const(CTX, Q(1, 2))
    # a point may be an int, a Fraction or a constant RatFunc
    p = v("x") ** 2 * 3 + v("y") - 1
    for value in (Q(-2, 3), RatFunc.const(CTX, Q(-2, 3))):
        assert p.evaluate({0: value}) == (v("y") * 9 + 3, 9)
    assert p.evaluate({0: 2}) == p.evaluate({0: RatFunc.const(CTX, 2)})


def _entry_points():
    """(name, chart, callable of one rational scalar) for every entry point
    that reads a rational from outside the engine; a RatFunc value lives on
    the chart."""
    pi = sphere_example(True)
    gamma = decompose(pi)
    path = moser_path(gamma)
    model = sphere_period_model()
    p = v("x") ** 2 * 3 + v("y") - 1
    f = rf(v("x") + 1, v("x") - 3)
    return [
        ("RatFunc.const", CTX, lambda s: RatFunc.const(CTX, s)),
        ("Poly.const", CTX, lambda s: Poly.const(CTX, s)),
        ("Poly.evaluate", CTX, lambda s: p.evaluate({0: s})),
        ("RatFunc.substitute", CTX, lambda s: f.substitute({"x": s})),
        ("monodromy", model.ctx, lambda s: monodromy(model, at={"r": s})),
        ("moser_at", path.context, lambda s: moser_at(path, s)),
        ("dilation", pi.context, lambda s: dilation(gamma.mixed, s)),
        ("Graded.scale", pi.context, lambda s: pi.scale(s)),
        ("LieAlgebraData", CTX, lambda s: LieAlgebraData(
            3, {(0, 1, 2): s, (1, 2, 0): s, (2, 0, 1): s}).c),
        ("lattice_discreteness", CTX,
         lambda s: lattice_discreteness([[s]], 1)),
        ("rational_rank", CTX, lambda s: rational_rank([[s, 1], [2, 1]])),
    ]


def test_one_scalar_boundary_at_every_entry_point():
    # every entry point reads a rational through one routine: an int, a
    # Fraction or a constant RatFunc give one result, anything else is a
    # TypeError naming its type
    for name, ctx, entry in _entry_points():
        two = entry(2)
        assert entry(Q(2)) == two, name
        assert entry(RatFunc.const(ctx, 2)) == two, name
        for value, type_name in ((0.1, "float"), ("1/2", "str"),
                                 (None, "NoneType")):
            with pytest.raises(TypeError, match=type_name):
                entry(value)
    # a RatFunc that is not constant is no rational scalar
    with pytest.raises(NonRationalInput):
        RatFunc.const(CTX, RatFunc.var(CTX, "x"))
    # a Poly scales a graded element as the RatFunc it stands for
    pi = sphere_example(True)
    ctx = pi.context
    assert pi.scale(Poly.var(ctx, "u")) == pi.scale(RatFunc.var(ctx, "u"))
    assert pi.scale(Poly.zero(ctx)).is_zero()


def test_substitute_takes_a_ratfunc_or_a_rational():
    x, y = v("x"), v("y")
    f = rf(x + 1, y)
    assert f.substitute({"x": RatFunc.from_poly(y), "y": Q(2)}) == \
        rf(y + 1, c(2))
    # a polynomial value is given as the RatFunc it stands for
    with pytest.raises(TypeError, match="Poly"):
        f.substitute({"x": y})


def test_evaluate_refuses_an_index_outside_the_chart():
    ctx = ChartContext(base=["u"], fiber=["y"])
    p = Poly.var(ctx, "u") + 10 * Poly.var(ctx, "y")
    for index in (-1, 2):
        with pytest.raises(UnknownVariable):
            p.evaluate({index: 2})


def test_substitute_refuses_an_index_outside_the_chart():
    ctx = ChartContext(base=["u"], fiber=["y"])
    u = Poly.var(ctx, "u")
    for index in (5, -1):
        with pytest.raises(UnknownVariable,
                           match="^no variable of index %d$" % index):
            u.substitute({index: 1})


def test_derivative_and_depends_on_refuse_an_index_outside_the_chart():
    # a negative index would silently name the last variable
    ctx = ChartContext(["u", "v"], ["y"], ["r"])
    y = Poly.var(ctx, "y")
    for index in (-1, len(ctx.vars)):
        for call in (y.derivative, y.depends_on):
            with pytest.raises(UnknownVariable,
                               match="^no variable of index %d$" % index):
                call(index)


# --- casting / substitution -------------------------------------------------

def test_cast_and_restrict_roundtrip():
    ctx2 = CTX.with_param("t")
    x = v("x")
    f = rf(x + 1, x - 2)
    g = f.cast(ctx2)
    assert g.cast(CTX) == f
    t = RatFunc.var(ctx2, "t")
    h = g * t
    with pytest.raises(UnknownVariable):
        h.cast(CTX)


def test_arithmetic_rejects_operands_from_two_charts():
    # the packed monomials of v on [u, v; y] and of z on [w; z, y] coincide,
    # so without the check v + z printed as 2*v
    a = ChartContext(base=["u", "v"], fiber=["y"])
    b = ChartContext(base=["w"], fiber=["z", "y"])
    for p, q in ((Poly.var(a, "v"), Poly.var(b, "z")),
                 (RatFunc.var(a, "v"), RatFunc.var(b, "z"))):
        for op in (lambda s, t: s + t, lambda s, t: s - t,
                   lambda s, t: s * t):
            with pytest.raises(ContextMismatch):
                op(p, q)
            with pytest.raises(ContextMismatch):
                op(q, p)
        assert p != q
    with pytest.raises(ContextMismatch):
        RatFunc.var(a, "v") / RatFunc.var(b, "z")
    with pytest.raises(ContextMismatch):
        RatFunc.var(a, "v") + Poly.var(b, "z")
    # an equal chart built twice is the same chart
    a2 = ChartContext(base=["u", "v"], fiber=["y"])
    assert RatFunc.var(a, "v") * RatFunc.var(a2, "y") \
        == rf(Poly.var(a, "v") * Poly.var(a, "y"))
    assert Poly.var(a, "v") + Poly.var(a2, "v") == 2 * Poly.var(a, "v")


def test_normalize_rejects_operands_from_two_charts():
    # x on [x, y] and a on [a; b] are both packed as variable 0, so without
    # the check x*y / a cancelled x against a and returned y
    a = ChartContext(base=["x", "y"], fiber=[])
    b = ChartContext(base=["a"], fiber=["b"])
    xy = Poly.var(a, "x") * Poly.var(a, "y")
    with pytest.raises(ContextMismatch):
        ratfunc_normalize(xy, Poly.var(b, "a"))
    with pytest.raises(ContextMismatch):
        ratfunc_normalize(Poly.var(b, "a"), xy)
    # an equal chart built twice is the same chart
    a2 = ChartContext(base=["x", "y"], fiber=[])
    assert ratfunc_normalize(xy, Poly.var(a2, "x")) == \
        RatFunc.var(a, "y")


def test_operators_leave_other_operand_types_to_python():
    # a float, None, a str or a non-int exponent is no coefficient: the
    # operators return NotImplemented, and Python raises its own TypeError
    x = v("x")
    f = rf(x, x + 1)
    ops = [lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t]
    for p in (x, f):
        for other in (1.5, None):
            for op in ops:
                for s, t in ((p, other), (other, p)):
                    with pytest.raises(TypeError, match="unsupported operand"):
                        op(s, t)
            with pytest.raises(TypeError, match="unsupported operand"):
                p ** other
    for s, t in ((1.5, f), ("a", RatFunc.zero(CTX)), (f, 0.5), (x, 2)):
        with pytest.raises(TypeError, match="unsupported operand"):
            s / t
    # a rational coefficient of a Poly must be integral
    with pytest.raises(ValueError):
        x + Q(1, 2)
    # a Poly meets a RatFunc through the RatFunc's reflected operators
    assert x + f == rf(x * x + 2 * x, x + 1)
    assert x - f == rf(x * x, x + 1)
    assert x * f == rf(x * x, x + 1)


def test_scale_fiber():
    ctx2 = CTX.with_param("t")
    y1 = Poly.var(ctx2, "y1")
    x = Poly.var(ctx2, "x")
    t = Poly.var(ctx2, "t")
    f = rf(x + y1 * y1)
    assert f.scale_fiber(rf(t)) == rf(x + t * t * y1 * y1)


def test_print_determinism_and_reparse_shape():
    x, y = v("x"), v("y")
    f = rf(-2 * x * y + y, (1 + x * x) ** 2)
    s1 = str(f)
    s2 = str(rf(-2 * x * y + y, (1 + x * x) ** 2))
    assert s1 == s2
    assert "/" in s1 and "(" in s1
    # a single-term denominator takes parentheses when it prints with a
    # "*", and a bare constant or power takes none
    chart = "chart { base:[x, y]; fiber:[y1, y2, y3]; }\n"
    for f, text in ((rf(c(1), 2 * x), "1/(2*x)"), (rf(c(1), x * x), "1/x^2"),
                    (rf(c(1), x * y), "1/(x*y)"), (rf(x, c(2)), "x/2"),
                    (rf(c(1), 3 * x * x * y), "1/(3*x^2*y)")):
        assert str(f) == text
        rhs = dsl.parse(chart + "let f = %s;\n" % text).bindings[0].rhs
        assert interp._eval_expr(rhs, CTX) == f


def test_degree_limit_boundary():
    ctx = ChartContext(base=["u"], fiber=["y"])
    u, y = Poly.var(ctx, "u"), Poly.var(ctx, "y")
    below = Poly.from_exponents(ctx, {(MAX_DEGREE - 1, 0): 1})
    # degree one below the limit multiplies, and y's field stays clear
    top = below * u
    assert top.total_degree() == MAX_DEGREE
    assert dict(top.exponents()) == {(MAX_DEGREE, 0): 1}
    assert not top.depends_on(1)
    assert dict((below * y).exponents()) == {(MAX_DEGREE - 1, 1): 1}
    # a product reaching the limit raises, whichever field it would fill
    for factor in (u, y, 1 + y):
        with pytest.raises(LimitExceeded):
            top * factor
    # ... and so does a square, on the path that takes each pair once
    for square in (lambda: top * top, lambda: (1 + top) * -(1 + top),
                   lambda: (1 + top) ** 2):
        with pytest.raises(LimitExceeded):
            square()
    with pytest.raises(LimitExceeded):
        RatFunc.from_poly(below * y).scale_fiber(RatFunc.var(ctx, "u"))
    with pytest.raises(LimitExceeded):
        Poly.from_exponents(ctx, {(MAX_DEGREE, 1): 1})
    with pytest.raises(LimitExceeded):
        RatFunc.from_poly(top) * RatFunc.var(ctx, "y")


def test_poly_gcd_exits_early_on_a_constant_operand(monkeypatch):
    x = v("x")
    f = 6 * x * x + 4
    calls = []
    primitive = rational._iprimitive

    def counted(p):
        calls.append(p)
        return primitive(p)

    monkeypatch.setattr(rational, "_iprimitive", counted)
    for a, b in ((f, Poly.const(CTX, 4)), (Poly.const(CTX, -3), f),
                 (Poly.const(CTX, 2), Poly.const(CTX, 8))):
        h, ca, cb = poly_gcd(a, b)
        assert h == 1 and ca is a and cb is b
    assert not calls
    assert poly_gcd(f, Poly.zero(CTX)) == (3 * x * x + 2, 2, 0)


def test_poly_gcd_cofactors_of_zero_operands():
    x = v("x")
    f = -6 * x * x - 4
    zero = Poly.zero(CTX)
    # the cofactor of the nonzero operand is its signed integer content
    assert poly_gcd(zero, f) == (3 * x * x + 2, 0, -2)
    assert poly_gcd(f, zero) == (3 * x * x + 2, -2, 0)
    assert poly_gcd(zero, Poly.const(CTX, -5)) == (1, 0, -5)
    h, ca, cb = poly_gcd(zero, zero)
    assert h.is_zero() and ca.is_zero() and cb.is_zero()


def test_poly_gcd_cofactors_restore_monomial_and_integer_content():
    ctx = ChartContext(base=["u"], fiber=["y1", "y2"])
    u, y1, y2 = (Poly.var(ctx, n) for n in ctx.vars)
    f = -6 * u * u * y1 * (u + y2)
    g = 4 * u * y1 ** 3 * (u + y2)
    assert poly_gcd(f, g) == (u * y1 * (u + y2), -6 * u, 4 * y1 * y1)
    assert poly_gcd(g, f) == (u * y1 * (u + y2), 4 * y1 * y1, -6 * u)
    # only monomial content in common: the early exit divides
    assert poly_gcd(f, 2 * u * y1 * (1 + y2)) == (u * y1, -6 * u * (u + y2),
                                                  2 + 2 * y2)


def test_operands_that_share_no_variable_are_coprime():
    ctx = ChartContext(base=["u"], fiber=["y1", "y2"])
    u, y1, y2 = (Poly.var(ctx, n) for n in ctx.vars)
    # the gcd is the monomial content the two share
    f = 6 * u * y2 * (u + 1)
    g = 4 * u * y1 * (y1 + 3)
    assert poly_gcd(f, g) == (u, 6 * y2 * (u + 1), 4 * y1 * (y1 + 3))
    assert poly_gcd(u + 1, y1 + y2) == (1, u + 1, y1 + y2)
    # the PRS has no shared variable to run in: the gcd is 1
    assert rational._prs(u + 1, y1 + 3) == (1, u + 1, y1 + 3)


def test_chart_generators_are_the_base_then_the_fiber():
    ctx = ChartContext(base=["u"], fiber=["y1", "y2"], params=["t"])
    assert ctx.gens == ("u", "y1", "y2")
    assert ctx.vars == ("t",) + ctx.gens


def test_normalize_and_multiply_leave_division_to_poly_gcd(monkeypatch):
    # the trial divisions of the divisor pre-check and of the heuristic are
    # the cofactors: ratfunc_normalize and RatFunc.__mul__ divide nothing
    # themselves
    x, y, y1 = v("x"), v("y"), v("y1")
    g = x * y + y1 + 2
    callers = []
    exact_div = rational.poly_exact_div

    def spy(f, h):
        callers.append(sys._getframe(1).f_code.co_name)
        return exact_div(f, h)

    monkeypatch.setattr(rational, "poly_exact_div", spy)
    a = ratfunc_normalize(3 * g * (x - y1), -6 * g * (y + 1))
    b = ratfunc_normalize(g * y1 * (y + 1), 2 * x * (x - y1))
    ab = a * b
    assert callers and set(callers) <= {"_trial_divisor", "_heu_gcd"}
    assert not {"ratfunc_normalize", "__mul__"} & set(callers)
    monkeypatch.undo()
    assert a == rf(x - y1, -2 * y - 2)
    assert b == rf(-g * y1 * (y + 1), 2 * x * (y1 - x))
    assert ab == rf(g * y1, -4 * x)


def test_printing_ignores_the_int_digit_limit():
    big = Poly.const(CTX, -(10 ** 700)) * v("x")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = str(big)
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == "-1" + "0" * 700 + "*x"
