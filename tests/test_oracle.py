"""Exactness oracle for the kernel: canonical-form invariants, field laws and
calculus rules as Hypothesis properties, plus a differential test of
`ratfunc_normalize` and `poly_gcd` against sympy.

Inputs are random multivariate polynomials with small integer coefficients,
built through the public constructors.  Numerators and denominators share a
random factor so that the gcd has something to cancel.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from leafnorm.rational import (
    ChartContext, Poly, Q, RatFunc, poly_gcd, ratfunc_normalize,
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


def _coeffs(f):
    return list(f.num.terms.values()) + list(f.den.terms.values())


@SETTINGS
@given(quotients())
def test_normalize_canonical_form(nd):
    num, den = nd
    f = ratfunc_normalize(num, den)
    assert poly_gcd(f.num, f.den).is_const()
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


# --- differential test against sympy ----------------------------------------

def _to_sympy(p, syms):
    import sympy
    return sympy.Add(*[c * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                       for m, c in p.terms.items()])


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
@given(nonzero_polys, polys, polys)
def test_poly_gcd_matches_sympy(g, a, b):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(CTX.vars)
    a, b = a * g, b * g
    ours = sympy.Poly(_to_sympy(poly_gcd(a, b), syms), *syms)
    theirs = sympy.Poly(
        sympy.gcd(_to_sympy(a, syms), _to_sympy(b, syms)), *syms)
    # sympy keeps the integer content, poly_gcd is primitive
    assert ours in (theirs.primitive()[1], -theirs.primitive()[1])
