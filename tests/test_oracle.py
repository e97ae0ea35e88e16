"""Exactness oracle for the kernel: canonical-form invariants, field laws and
calculus rules as Hypothesis properties, the quotient rule against its plain
form over d^2, the fiber dilation and evaluation against substitution,
differential tests of `ratfunc_normalize`, `poly_gcd` and the coprimality
certificate against sympy and of the heuristic gcd against the primitive
PRS, gcd cofactors, exact division undoing multiplication, packed monomials
against their exponent tuples, the small-operand shortcuts against the
general path, and operands that no operation changes.

Inputs are random multivariate polynomials with small integer coefficients,
built through the public constructors.  Numerators and denominators share a
random factor so that the gcd has something to cancel.
"""

import math
import pathlib
import signal

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import leafnorm
from leafnorm import emit, execute, parse, rational
from leafnorm.rational import (
    ChartContext, Poly, Q, RatFunc, _canonical_scale, _primitive,
    poly_exact_div, poly_gcd, ratfunc_normalize,
)

CTX = ChartContext(base=["x"], fiber=["y", "z"])

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


def _build(terms):
    out = Poly.zero(CTX)
    for c, mono in terms:
        t = Poly.const(CTX, c)
        for name, e in zip(CTX.vars, mono):
            t = t * Poly.var(CTX, name) ** e
        out = out + t
    return out


def _polys(max_exp, max_terms):
    monos = st.tuples(*[st.integers(0, max_exp)] * len(CTX.vars))
    return st.lists(st.tuples(st.integers(-5, 5), monos),
                    max_size=max_terms).map(_build)


def _nonzero(p):
    return Poly.one(CTX) if p.is_zero() else p


polys = _polys(2, 3)
nonzero_polys = polys.map(_nonzero)


@st.composite
def quotients(draw, polys=polys):
    """(num, den) with a shared factor; den nonzero."""
    g = _nonzero(draw(polys))
    return draw(polys) * g, _nonzero(draw(polys)) * g


ratfuncs = quotients().map(lambda nd: ratfunc_normalize(*nd))
nonzero_ratfuncs = ratfuncs.map(
    lambda f: RatFunc.one(CTX) if f.is_zero() else f)
# the quotient rule squares denominators: keep its inputs smaller
small_ratfuncs = quotients(_polys(1, 2)).map(lambda nd: ratfunc_normalize(*nd))


_x, _y, _z = (Poly.var(CTX, n) for n in CTX.vars)


def _coeffs(f):
    return list(f.num.terms.values()) + list(f.den.terms.values())


@SETTINGS
@given(quotients())
def test_normalize_canonical_form(nd):
    num, den = nd
    f = ratfunc_normalize(num, den)
    assert poly_gcd(f.num, f.den)[0].is_const()
    coeffs = _coeffs(f)
    assert all(Q(c).denominator == 1 for c in coeffs)
    assert math.gcd(*(int(c) for c in coeffs)) == 1
    assert f.den.leading_coeff() > 0
    # same value: num * f.den == den * f.num as polynomials
    assert num * f.den == den * f.num


@SETTINGS
@given(quotients())
def test_normalize_integer_coefficients(nd):
    f = ratfunc_normalize(*nd)
    assert all(type(c) is int for c in _coeffs(f))


@SETTINGS
@given(ratfuncs, ratfuncs, nonzero_ratfuncs)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert (a * c) / c == a
    assert c / c == RatFunc.one(CTX)


@SETTINGS
@given(small_ratfuncs, small_ratfuncs, st.sampled_from(CTX.vars))
def test_leibniz_and_quotient_rules(a, b, var):
    if b.is_zero():
        b = RatFunc.one(CTX)
    da, db = a.derivative(var), b.derivative(var)
    assert (a * b).derivative(var) == da * b + a * db
    assert (a / b).derivative(var) == (da * b - a * db) / (b * b)


# denominators k p^2 q: a repeated factor, integer content, and often a
# factor free of the variable
split_denominators = st.tuples(
    _polys(1, 2).map(_nonzero), _polys(1, 2).map(_nonzero),
    st.integers(1, 6)).map(lambda t: t[2] * t[0] * t[0] * t[1])


@SETTINGS
@given(polys, split_denominators, st.sampled_from(CTX.vars))
@example(_x + _z, (_x * _y - _z) ** 2 * (_y + 1), "x")
@example(Poly.one(CTX), (_x + _y) ** 2 * (_x - _z), "x")
# a factor free of the variable, and the variable in the free factor
@example(4 * Poly.one(CTX), (1 + _x * _x + _y * _y) ** 2 * (1 + _z * _z), "z")
@example(4 * Poly.one(CTX), (1 + _x * _x + _y * _y) ** 2 * (1 + _z * _z), "x")
# n' r - n r' = -y shares the factor y of c: the result is -1/(x+1)^2
@example(_x + 1 + _y, _y * (_x + 1), "x")
# monomial content, with a monomial and with a two-term least coefficient
@example(Poly.one(CTX), _z ** 2 * (_x + _y) ** 2, "x")
@example(_x, _z ** 2 * (1 + _y) * (_x + _y), "x")
@example(Poly.one(CTX), _x ** 2 * (1 + _y), "x")
@example(_y, _x ** 2 * _z * (_x + _y), "x")
# integer content
@example(Poly.one(CTX), 2 * (1 + _y) * (_x + _y), "x")
# a constant d, and a d free of the variable
@example(_x * _x + _y, 3 * Poly.one(CTX), "x")
@example(Poly.one(CTX), 1 + _y * _y, "x")
# no coefficient divides the others: the contents y and y + 1 are not
# certified, and gcds find them
@example(Poly.one(CTX), _x * _y * (_y + 1) + _y * (_y + 2), "x")
@example(Poly.one(CTX), _x * (_y + 1) * (_y + 2) + (_y + 1) * (_y + 3), "x")
def test_quotient_rule_is_the_plain_rule(num, den, name):
    # the content split gives the canonical form of (n'd - nd') / d^2
    f = ratfunc_normalize(num, den)
    i = CTX.var_index(name)
    n, d = f.num, f.den
    plain = ratfunc_normalize(n.derivative(i) * d - n * d.derivative(i), d * d)
    assert f.derivative(name) == plain


_X = RatFunc.var(CTX, "x")
# the parameter t of the fiber dilation: a plain variable, a nonzero
# constant or a rational function
dilation_params = (
    st.sampled_from(CTX.vars).map(lambda name: RatFunc.var(CTX, name))
    | st.fractions(-5, 5, max_denominator=4).filter(bool).map(
        lambda c: RatFunc.const(CTX, c))
    | st.sampled_from([_X / (1 + _X * _X), (1 - _X) / (2 + _X)]))


@SETTINGS
@given(ratfuncs, dilation_params)
def test_scale_fiber_is_the_substitution(f, t):
    mapping = {name: t * RatFunc.var(CTX, name) for name in CTX.fiber}
    assert f.scale_fiber(t) == f.substitute(mapping)


_indices = st.sampled_from(range(len(CTX.vars)))


@SETTINGS
@given(polys,
       st.dictionaries(_indices, st.fractions(-3, 3, max_denominator=4)),
       st.lists(_indices, max_size=3))
# the zero polynomial; a slope by a variable the point leaves free, by one
# it fixes and by one it fixes that p does not have
@example(Poly.zero(CTX), {0: Q(1, 2)}, [0, 1])
@example(_x * _x * _y - 3 * _y + 1, {1: Q(-2, 3), 2: Q(1, 2)}, [0, 1, 2])
def test_evaluate_is_the_substitution(p, point, slopes):
    # the variables the point leaves free stay in P, and each P_j / D is
    # the derivative by x_j at the point
    P, D, derivatives = rational._values_and_slopes(p, point, slopes)
    assert p.evaluate(point) == (P, D)
    assert D > 0
    assert RatFunc.from_poly(P) / D == p.substitute(point)
    f, at = RatFunc.from_poly(p), {CTX.vars[i]: v for i, v in point.items()}
    for j, P_j in zip(slopes, derivatives):
        assert RatFunc.from_poly(P_j) / D == \
            f.derivative(CTX.vars[j]).substitute(at)


# --- differential test against sympy ----------------------------------------

def _to_sympy(p, syms):
    import sympy
    return sympy.Add(*[c * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                       for m, c in p.exponents()])


@settings(derandomize=True, deadline=None, max_examples=15)
@given(quotients())
def test_normalize_matches_sympy_cancel(nd):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(CTX.vars)
    num, den = nd
    f = ratfunc_normalize(num, den)
    n, d = sympy.fraction(sympy.cancel(
        _to_sympy(num, syms) / _to_sympy(den, syms)))
    # both are reduced, so they agree up to one constant factor k
    k, rem = sympy.div(d, _to_sympy(f.den, syms), *syms)
    assert rem == 0 and k.is_number and k != 0
    assert sympy.expand(n - k * _to_sympy(f.num, syms)) == 0


@settings(derandomize=True, deadline=None, max_examples=15)
@given(nonzero_polys, polys, polys, st.integers(-6, 6).filter(bool))
def test_poly_gcd_matches_sympy(g, a, b, k):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(CTX.vars)
    # an integer multiple and a sign flip: the shared integer content of
    # the operands must not leak into the primitive gcd
    a, b = k * g * a, -g * b
    ours = sympy.Poly(_to_sympy(poly_gcd(a, b)[0], syms), *syms)
    theirs = sympy.Poly(
        sympy.gcd(_to_sympy(a, syms), _to_sympy(b, syms)), *syms)
    # sympy keeps the integer content, poly_gcd is primitive
    assert ours in (theirs.primitive()[1], -theirs.primitive()[1])


# --- heuristic gcd against the PRS; exact division ---------------------------

def _prs_alone(f, g):
    """The canonical gcd by the primitive PRS alone: `poly_gcd` with the
    divisor pre-check, the coprimality certificate and the heuristic giving
    up at every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rational, "_trial_divisor", lambda f, g: None)
        mp.setattr(rational, "_coprime", lambda f, g: None)
        mp.setattr(rational, "_heu_gcd", lambda f, g: None)
        return poly_gcd(f, g)[0]


def _nesting(monkeypatch):
    """A list that is non-empty while a nested `poly_gcd` call runs.  The
    PRS takes its contents from `poly_gcd`, which it looks up in the
    module; a call made by the test itself is the only one not wrapped."""
    nested, gcd = [], rational.poly_gcd

    def nested_gcd(f, g):
        nested.append(f)
        try:
            return gcd(f, g)
        finally:
            nested.pop()

    monkeypatch.setattr(rational, "poly_gcd", nested_gcd)
    return nested


@SETTINGS
@given(nonzero_polys, polys, polys, st.integers(-6, 6).filter(bool),
       st.tuples(*[st.integers(0, 2)] * len(CTX.vars)))
# operands in one variable: a shared factor, a coprime pair, and a variable
# other than the first
@example(3 * _x ** 3 - _x + 4, _x ** 2 - 5, 2 * _x + 1, 2, (1, 0, 0))
@example(Poly.one(CTX), _y ** 4 + 7, _y ** 3 - 2 * _y, -3, (0, 2, 0))
@example(_z ** 2 - 2 * _z - 9, _z - 1, _z ** 4 + _z + 1, 5, (0, 0, 2))
def test_poly_gcd_matches_prs(g, a, b, k, mono):
    # integer and monomial content and a sign flip, which the cofactors
    # must restore; a or b may be zero
    a = k * Poly.from_exponents(CTX, {mono: 1}) * g * a
    b = -g * b
    h, ca, cb = poly_gcd(a, b)
    assert h == _prs_alone(a, b)
    assert h * ca == a and h * cb == b


@SETTINGS
@given(nonzero_polys, polys, st.integers(-6, 6).filter(bool),
       st.tuples(*[st.integers(0, 2)] * len(CTX.vars)), st.booleans())
# divisors that vanish at (2, 2, 2), where the value gate does not apply
@example(_x - _y, _z + 1, 3, (1, 0, 0), False)
@example(_x * _y - 2 * _z, -_x * _x + _z, -2, (0, 0, 2), True)
def test_divisor_pre_check_matches_the_heuristic(f, q, k, mono, swap):
    # gcd(f c x^a, f q): the pre-check answers when the first operand
    # divides the second; the triple is the one the heuristic returns
    a = k * Poly.from_exponents(CTX, {mono: 1}) * f
    b = f * q
    if swap:
        a, b = b, a
    found = poly_gcd(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rational, "_trial_divisor", lambda f, g: None)
        assert found == poly_gcd(a, b)
    h, ca, cb = found
    assert h * ca == a and h * cb == b


@st.composite
def _certificate_operands(draw):
    """Two terms or more in a drawn set of the variables, the others absent,
    with exponents 0, 1, 2 and 4, so that one variable's exponents can set
    no bit in common (x^2 against x); negative coefficients and an integer
    content."""
    names = draw(st.sets(st.sampled_from(CTX.vars), min_size=1))
    exponents = st.sampled_from([0, 1, 2, 4])
    monos = st.tuples(*[exponents if name in names else st.just(0)
                        for name in CTX.vars])
    terms = draw(st.dictionaries(monos, st.integers(-9, 9).filter(bool),
                                 min_size=2, max_size=4))
    k = draw(st.integers(1, 6))
    return Poly.from_exponents(CTX, {m: k * c for m, c in terms.items()})


def _certified(f, g):
    """f and g made primitive and free of monomial content, as `poly_gcd`
    hands them to the certificate, and whether it certifies them."""
    _, F, G = rational._gcd_operands(f, g)
    return F, G, rational._coprime(F, G) is not None


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_certificate_operands(), _certificate_operands(),
       _certificate_operands())
# x^2 - 1 against x y - y + x - 1 share x, although the x fields of the
# two operands set no bit in common; a pair in x^2 and y^2 alone, whose
# images share X^2 + 1 under x -> X, y -> X^3
@example(_x + 1, _y + 1, _x - 1)
@example(2 * _x ** 2 * _y ** 2 + _x ** 2 + _y ** 2,
         (_x ** 2 + 1) * (_y ** 2 + 1), _z - 2)
def test_coprimality_certificate_against_sympy(f, g, h):
    # a certified pair has a constant gcd; a common factor h with two terms
    # or more keeps a nonconstant part once the monomial content is out,
    # so f h and g h are never certified
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(CTX.vars)
    F, G, certified = _certified(f, g)
    if certified:
        assert sympy.gcd(_to_sympy(F, syms), _to_sympy(G, syms)).is_number
    assert not _certified(f * h, g * h)[2]


def test_poly_gcd_falls_back_to_prs(monkeypatch):
    x, y, z = (Poly.var(CTX, n) for n in CTX.vars)
    g = z * z - 3 * x * y - 1
    pairs = [(g * (x + 2 * z), -2 * g * (y * y - x)),
             (g * g * (1 + y), 4 * g * (1 - y) * z)]
    expected = [poly_gcd(a, b) for a, b in pairs]
    assert expected[0][0] == g and expected[1][0] == g
    gave_up, nested = [], _nesting(monkeypatch)

    def give_up(f, g):
        # the contents' gcds give up too; count the pairs' calls only
        if not nested:
            gave_up.append((f, g))

    monkeypatch.setattr(rational, "_heu_gcd", give_up)
    fallback = [poly_gcd(a, b) for a, b in pairs]
    assert fallback == expected
    assert len(gave_up) == len(pairs)
    # the fallback's cofactors divide by the gcd it found
    for (a, b), (h, ca, cb) in zip(pairs, fallback):
        assert h * ca == a and h * cb == b


def test_inner_failure_ends_the_heuristic(monkeypatch):
    x, y, z = (Poly.var(CTX, n) for n in CTX.vars)
    g = z * z - 3 * x * y - 1
    a, b = g * (x + 2 * z), -2 * g * (y * y - x)
    heu, prs = rational._heu_gcd, rational._prs
    depth, inner, fallbacks = [], [], []

    def top_level_only(f, g):
        # the recursion looks `_heu_gcd` up in the module: every level below
        # the top one comes here and gives up
        if depth:
            inner.append((f, g))
            return None
        depth.append(f)
        try:
            return heu(f, g)
        finally:
            depth.pop()

    def counted_prs(f, g):
        fallbacks.append((f, g))
        return prs(f, g)

    monkeypatch.setattr(rational, "_heu_gcd", top_level_only)
    monkeypatch.setattr(rational, "_prs", counted_prs)
    assert poly_gcd(a, b)[0] == g
    # one failed image ends the heuristic: no further points are tried,
    # and the PRS answers
    assert len(inner) == 1
    assert fallbacks


def test_prs_takes_its_contents_from_poly_gcd(monkeypatch):
    # the heuristic gives up on the operands of the top-level call only: the
    # PRS answers there, and the gcds of its contents, one variable fewer,
    # are `poly_gcd`'s own; the alarm catches contents taken by the PRS
    # alone, which run for over 30 s on these operands
    ctx = ChartContext(base=["x", "y", "z"], fiber=[])
    x, y, z = (Poly.var(ctx, n) for n in ctx.vars)
    a = 7 * x * y * z - 2 * y ** 3 + 2 * z ** 2 - x * z - 3 * y ** 2 \
        - 7 * x * y + 2 * x ** 2 - 8
    b = -8 * x * z ** 2 - 6 * x * y * z + 4 * x ** 3 - 6 * y * z \
        + 9 * y ** 2 + 2 * x ** 2 - 6 * y + 2 * x
    c = -7 * y * z + 5 * y ** 2 + 9 * x * y + x ** 2 + x
    heu, nested, fallbacks = rational._heu_gcd, _nesting(monkeypatch), []

    def top_level_gives_up(f, g):
        if not nested:
            fallbacks.append((f, g))
            return None
        return heu(f, g)

    def timeout(signum, frame):
        raise TimeoutError("the PRS fallback took over 5 s")

    monkeypatch.setattr(rational, "_heu_gcd", top_level_gives_up)
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        h = poly_gcd(a * c, b * c)[0]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert h in (c, -c)
    assert len(fallbacks) == 1


def _graded_key(mono):
    # the graded order on exponent tuples, independent of the packing:
    # total degree, then the later (fiber) variables more significant
    return (sum(mono), mono[::-1])


@SETTINGS
@given(nonzero_polys)
def test_heap_order_is_the_leading_term_order(p):
    # poly_exact_div pops the remainder largest int first and divides by
    # g.leading(): the two orders must agree, and be the graded order
    assert max(p.terms) == p.leading()[0]
    lead = max((m for m, _ in p.exponents()), key=_graded_key)
    assert CTX.pack(lead) == p.leading()[0]


# as large as two of them may be while their product stays within the limit,
# so the high bits of every field are exercised
exponent_tuples = st.tuples(
    *[st.integers(0, rational.MAX_DEGREE // (2 * len(CTX.vars)))]
    * len(CTX.vars))


@SETTINGS
@given(exponent_tuples, exponent_tuples)
def test_packed_monomials(a, b):
    pa, pb = CTX.pack(a), CTX.pack(b)
    assert CTX.unpack(pa) == a
    assert (pa < pb) == (_graded_key(a) < _graded_key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == CTX.pack(tuple(x + y for x, y in zip(a, b)))
    # the guard-bit test in poly_exact_div decides divisibility of monomials
    divides = all(x <= y for x, y in zip(a, b))
    ta, tb = (Poly.from_exponents(CTX, {m: 1}) for m in (a, b))
    assert (poly_exact_div(tb, ta) is not None) == divides


# dense in few variables, so that products overlap and remainder terms of the
# division cancel (and sometimes come back)
dense_polys = _polys(2, 6)


@SETTINGS
@given(dense_polys, dense_polys.filter(lambda b: not b.is_const()),
       st.integers(-5, 5).filter(bool), st.tuples(
           *[st.integers(0, 3)] * len(CTX.vars)))
def test_exact_div_undoes_multiplication(a, b, c, mono):
    assert poly_exact_div(a * b, b) == a
    # a nonconstant b divides no nonzero constant, and a monomial term
    # only when b is a single term dividing it
    assert poly_exact_div(a * b + 1, b) is None
    t = Poly.from_exponents(CTX, {mono: c})
    divisible = len(b.terms) == 1 and poly_exact_div(t, b) is not None
    assert (poly_exact_div(a * b + t, b) is not None) == divisible


# --- small operands: the shortcuts against the general path ------------------

def _term_product(a, b):
    """a * b by the double loop over the terms."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return Poly(CTX, {m: c for m, c in out.items() if c})


@SETTINGS
@given(st.integers(-40, 40), st.integers(-40, 40).filter(bool))
@example(0, 7)
@example(-12, -18)
def test_ratfunc_const_is_the_normalized_fraction(n, d):
    # n/d need not be reduced, and d may be negative
    for c, (num, den) in ((Q(n, d), (n, d)), (n, (n, 1))):
        f = RatFunc.const(CTX, c)
        general = ratfunc_normalize(Poly.const(CTX, num),
                                    Poly.const(CTX, den))
        assert f.num.terms == general.num.terms
        assert f.den.terms == general.den.terms
        assert all(type(v) is int for v in _coeffs(f))
        assert f.const_value() == c


@SETTINGS
@given(polys, st.sampled_from([0, 1, -1, 2, -3, 7]))
def test_constant_factor_is_the_term_product(p, k):
    expect = _term_product(p, Poly.const(CTX, k))
    assert (p * k).terms == expect.terms
    assert (k * p).terms == expect.terms
    assert (p * Poly.const(CTX, k)).terms == expect.terms
    assert (Poly.const(CTX, k) * p).terms == expect.terms


@SETTINGS
@given(polys, st.integers(-6, 6), st.booleans())
def test_poly_gcd_with_a_constant_operand(p, k, swap):
    f, g = Poly.const(CTX, k), p
    if swap:
        f, g = g, f
    # 1 for a nonzero constant, the primitive part of p for 0, 0 for two zeros
    if k or p.is_zero():
        h = Poly.const(CTX, 1 if k else 0)
    else:
        h = _primitive([p], p.leading_coeff())[0]
    expect = (h, f, g) if h.is_zero() else \
        (h, poly_exact_div(f, h), poly_exact_div(g, h))
    assert poly_gcd(f, g) == expect


exponents = st.tuples(*[st.integers(0, 2)] * len(CTX.vars))
monomials = st.builds(lambda c, e: c * Poly.from_exponents(CTX, {e: 1}),
                      st.integers(-6, 6).filter(bool), exponents)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(-6, 6).filter(bool), exponents,
       st.one_of(nonzero_polys, monomials), st.booleans())
# no shared variable, some shared variables, all of them, two single terms
@example(-3, (2, 1, 0), _z * _z - 2 * _z, False)
@example(-3, (2, 1, 0), 4 * _x * _y * _z + 2 * _y * _y, True)
@example(5, (1, 2, 1), 2 * _x * _y * _z - _x * _x * _y * _z, False)
@example(-2, (0, 2, 1), -4 * _x * _y * _z, True)
def test_poly_gcd_with_a_single_term_operand(c, alpha, p, swap):
    # gcd(c x^alpha, p) is x^beta, beta the least of alpha and the
    # exponents of p, and the cofactors are the exact quotients by it
    t = c * Poly.from_exponents(CTX, {alpha: 1})
    f, g = (p, t) if swap else (t, p)
    beta = tuple(min([a] + [m[i] for m, _ in p.exponents()])
                 for i, a in enumerate(alpha))
    h = Poly.from_exponents(CTX, {beta: 1})
    found = poly_gcd(f, g)
    assert found == (h, poly_exact_div(f, h), poly_exact_div(g, h))
    assert h * found[1] == f and h * found[2] == g
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(CTX.vars)
    theirs = sympy.Poly(
        sympy.gcd(_to_sympy(f, syms), _to_sympy(g, syms)), *syms)
    assert sympy.Poly(_to_sympy(h, syms), *syms) in (
        theirs.primitive()[1], -theirs.primitive()[1])


def test_zero_and_single_term_operands_divide_nothing(monkeypatch):
    # these triples are settled from the operands: no exact division, and
    # none of the general path's preparation of the operands
    def no_call(*args):
        raise AssertionError("not expected here")

    # g has the signed content -2
    g = 4 * _y * _z - 6 * _x * _y * _y
    h = 3 * _x * _y * _y - 2 * _y * _z
    pctx = ChartContext(base=[], fiber=[], params=("PI",))
    pi = Poly.var(pctx, "PI")
    zero, k, one = Poly.zero(CTX), Poly.const(CTX, -2), Poly.one(CTX)
    cases = [
        ((zero, g), (h, zero, k)),
        ((g, zero), (h, k, zero)),
        ((3 * _x * _x * _y, g), (_y, 3 * _x * _x, 4 * _z - 6 * _x * _y)),
        ((3 * _x * _x * _y, g + 3), (one, 3 * _x * _x * _y, g + 3)),
        ((-6 * pi, -15 * pi), (pi, Poly.const(pctx, -6),
                               Poly.const(pctx, -15))),
    ]
    monkeypatch.setattr(rational, "poly_exact_div", no_call)
    monkeypatch.setattr(rational, "_gcd_operands", no_call)
    for (f, g), expect in cases:
        assert poly_gcd(f, g) == expect


@st.composite
def _monomial_gcd_operands(draw):
    """(p, q): nonzero polynomials or single terms, each times one shared
    monomial, and p with a constant term added or not."""
    shared = Poly.from_exponents(CTX, {draw(exponents): 1})
    p, q = (_nonzero(draw(st.one_of(polys, monomials))) * shared
            for _ in range(2))
    if draw(st.booleans()):
        p = _nonzero(p + draw(st.integers(1, 5)))
    return p, q


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_monomial_gcd_operands())
# a constant term, two single terms, shared monomial content
@example((_x * _y + 1, _y))
@example((3 * _x ** 2 * _y, -_x * _z))
@example((_x * _y * (_x + _z), _x * _y * _z * (_y - 2)))
def test_monomial_gcd_is_the_least_exponent_tuple(pq):
    # rational._low against the least exponents read as tuples; taking
    # x^low out of each term borrows from no field's guard bit
    guard = CTX.guard
    lows = []
    for p in pq:
        low = rational._low(CTX, p.terms)
        least = tuple(map(min, zip(*(m for m, _ in p.exponents()))))
        assert low == CTX.pack(least)
        assert all((m - low + guard) & guard == guard for m in p.terms)
        lows.append(low)
    # over two packed monomials: their fieldwise minimum
    a, b = (CTX.unpack(low) for low in lows)
    pair = rational._low(CTX, lows)
    assert pair == CTX.pack(tuple(map(min, a, b)))
    assert pair == rational._low(CTX, {**pq[0].terms, **pq[1].terms})


@SETTINGS
@given(nonzero_polys, nonzero_polys, st.integers(-6, 6).filter(bool))
def test_canonical_scale_shortcut(num, den, k):
    # the numerator is nonzero, as every engine call passes it
    for n, d in ((num, Poly.one(CTX)), (num * k, Poly.const(CTX, k)),
                 (num * k, den)):
        f = _canonical_scale(n, d)
        # the general path: joint content out, leading denominator positive
        gn, gd = _primitive([n, d], d.leading_coeff())
        assert f.num.terms == gn.terms and f.den.terms == gd.terms


def test_canonical_scale_sees_no_zero_numerator(monkeypatch):
    calls, scale = [], rational._canonical_scale

    def spy(num, den):
        calls.append(num.is_zero())
        return scale(num, den)

    monkeypatch.setattr(rational, "_canonical_scale", spy)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.lnf")) + [
            pathlib.Path(leafnorm.sphere_pipeline_path())]:
        emit(execute(parse(path.read_text(encoding="utf-8-sig"))))
    assert calls and not any(calls)


# --- no operation changes its operands ---------------------------------------

def _snapshot(*values):
    polys = []
    for v in values:
        polys += [v.num, v.den] if isinstance(v, RatFunc) else [v]
    return [dict(p.terms) for p in polys]


@SETTINGS
@given(polys, polys, st.integers(-3, 3), st.integers(1, 4))
def test_operations_leave_operands_unchanged(a, b, k, d):
    c = Poly.const(CTX, k)
    # a single-term operand and a zero one take the gcd's own shortcuts
    t = (k or 1) * _x ** d * _y
    zero = Poly.zero(CTX)
    for f, g in ((a, b), (a, c), (c, a), (a, Poly.one(CTX)), (a, t), (t, a),
                 (t, t * _z), (a, zero), (zero, a)):
        before = _snapshot(f, g)
        results = [f + g, f - g, f * g, g * f, f ** 2, f ** 0, *poly_gcd(f, g)]
        if not g.is_zero():
            results.append(ratfunc_normalize(f, g))
        # the results of the shortcuts may share terms with the operands
        for r in results:
            r * r + r - f
        assert _snapshot(f, g) == before
    q = RatFunc.const(CTX, Q(k, d))
    r = ratfunc_normalize(a, b) if not b.is_zero() else RatFunc.one(CTX)
    before = _snapshot(q, r)
    results = [q + r, q - r, q * r, r * q, q ** 2, r ** 2, q * k, k * r]
    if not q.is_zero():
        results += [r / q, q ** -1]
    for s in results:
        s * s + s - q
    assert _snapshot(q, r) == before
